//! The compiler's phases as separate public calls, each in its own
//! span, and the output checks and report summaries the workloads
//! share.

use compass::estimate::Estimator;
use compass::plan::GroupPlan;
use compass::replication::optimize_group;
use compass::scheduler::{schedule_group, SchedulerOptions};
use compass::{decompose, GroupEstimate, PartitionGroup, UnitSequence, ValidityMap};
use pim_arch::{ChipSpec, ScheduleMode, TimingMode};
use pim_isa::ChipProgram;
use pim_model::Network;
use pim_sim::{EngineMode, SimReport};

use crate::spans::Spans;

/// Pipeline chunks per sample, as `CompileOptions::new` sets it.
pub const CHUNKS_PER_SAMPLE: usize = 4;

/// The modes a compilation targets.
#[derive(Clone, Copy)]
pub struct Modes {
    pub batch: usize,
    pub timing: TimingMode,
    pub schedule: ScheduleMode,
}

/// Partition generation: `decompose` then `ValidityMap::build`.
pub fn front(spans: &mut Spans, net: &Network, chip: &ChipSpec) -> (UnitSequence, ValidityMap) {
    let seq = spans.span("decompose", |_| decompose(net, chip));
    let validity = spans.span("validity", |_| ValidityMap::build(&seq, chip));
    (seq, validity)
}

/// Everything after partitioning: replication, the estimate, and
/// instruction scheduling — the calls `Compiler::compile` makes.
pub fn back(
    spans: &mut Spans,
    net: &Network,
    seq: &UnitSequence,
    chip: &ChipSpec,
    group: &PartitionGroup,
    modes: Modes,
) -> (GroupEstimate, Vec<ChipProgram>) {
    let plans = spans.span("replication", |_| {
        let mut plans = GroupPlan::build(net, seq, group);
        optimize_group(&mut plans, chip);
        plans
    });
    let estimate = spans.span("estimate", |_| {
        Estimator::new(chip)
            .with_timing_mode(modes.timing)
            .with_schedule_mode(modes.schedule)
            .estimate_group(&plans, modes.batch)
    });
    let options = SchedulerOptions {
        batch: modes.batch,
        chunks_per_sample: CHUNKS_PER_SAMPLE,
        schedule: modes.schedule,
    };
    let programs = spans.span("scheduler", |_| schedule_group(net, plans.plans(), chip, &options));
    (estimate, programs)
}

/// Total instructions and `WRITE_WEIGHT` instructions of `programs`.
pub fn instruction_counts(programs: &[ChipProgram]) -> (usize, usize) {
    programs.iter().fold((0, 0), |(total, writes), p| {
        (total + p.total_instructions(), writes + p.stats().write_weight)
    })
}

/// Checks that `group` covers all `validity.len()` units with
/// contiguous partitions, each a valid span.
pub fn check_group(group: &PartitionGroup, validity: &ValidityMap) -> Result<(), String> {
    if group.unit_count() != validity.len() {
        return Err(format!(
            "group spans {} units, model has {}",
            group.unit_count(),
            validity.len()
        ));
    }
    let mut next = 0;
    for p in group.partitions() {
        if p.start != next || !validity.is_valid(p.start, p.end) {
            return Err(format!("partition {}..{} is not a valid contiguous span", p.start, p.end));
        }
        next = p.end;
    }
    if next != validity.len() {
        return Err(format!("partitions end at unit {next} of {}", validity.len()));
    }
    Ok(())
}

/// Core time shares over `core_slots` cores for the whole makespan:
/// (busy, waiting on DRAM, waiting on a peer's send).
pub fn core_shares(report: &SimReport, core_slots: usize) -> (f64, f64, f64) {
    let capacity = core_slots as f64 * report.makespan_ns;
    let (busy, dram, recv) = report
        .partitions
        .iter()
        .flat_map(|p| &p.core_activity)
        .fold((0.0, 0.0, 0.0), |(b, d, r), a| {
            (b + a.busy_ns(), d + a.dram_wait_ns, r + a.recv_wait_ns)
        });
    (busy / capacity, dram / capacity, recv / capacity)
}

/// `Ok` when `report` came from the single-threaded engine and equals
/// `reference` (which it becomes when unset).
pub fn check_report(report: SimReport, reference: &mut Option<SimReport>) -> Result<(), String> {
    if report.engine != Some(EngineMode::SingleThread) {
        return Err(format!("ran on {:?}, not the single-threaded engine", report.engine));
    }
    match reference {
        None => *reference = Some(report),
        Some(want) if *want == report => {}
        Some(_) => return Err("report differs from the first op of this seed".into()),
    }
    Ok(())
}
