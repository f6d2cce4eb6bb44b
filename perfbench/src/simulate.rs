//! `simulate`: set-up compiles vgg16-S-8 with a seeded greedy packing;
//! one op is `ChipSimulator::run_batches` over 64 rounds with
//! closed-loop DRAM timing and interleaved stage scheduling.
//!
//! vgg16 has the largest weight footprint, so weight replacement keeps
//! the DRAM channel busy and the closed-loop DRAM model costs a large
//! share of the op; the compiler does no work in the ops. A greedy
//! packing keeps the simulated programs independent of any GA or
//! estimator change.

use std::time::Duration;

use compass::{baselines, GroupEstimate, PartitionGroup, ValidityMap};
use pim_arch::{ChipSpec, ScheduleMode, TimingMode};
use pim_isa::ChipProgram;
use pim_model::zoo;
use pim_sim::{percentile, ChipSimulator, SimReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::phases::{self, check_report, Modes};
use crate::spans::Spans;
use crate::{Layers, SimMetrics, Workload};

const MODES: Modes =
    Modes { batch: 8, timing: TimingMode::ClosedLoop, schedule: ScheduleMode::Interleaved };

/// Batch cycles per op. An op of ~0.4 s rides out the host's short
/// stalls, which would otherwise set the tail of 0.1 s ops.
const ROUNDS: usize = 64;

pub struct Simulate {
    chip: ChipSpec,
    programs: Vec<ChipProgram>,
    estimate: GroupEstimate,
    units: usize,
    valid_frac: f64,
    /// The first op's report; every later op must reproduce it.
    reference: Option<SimReport>,
    /// The first traced op's analytic report of the same rounds.
    analytic: Option<SimReport>,
}

/// The greedy packing with one seed-chosen partition split in two at
/// a seed-chosen unit: every seed gives a different program with one
/// partition more than greedy, so the op costs about the same.
fn seeded_greedy(validity: &ValidityMap, seed: u64) -> Result<PartitionGroup, String> {
    let greedy = baselines::greedy(validity);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = greedy.partition(rng.gen_range(0..greedy.partition_count()));
    let mut cuts = greedy.cuts().to_vec();
    if split.len() > 1 {
        cuts.push(rng.gen_range(split.start + 1..split.end));
        cuts.sort_unstable();
    }
    PartitionGroup::from_cuts(cuts, validity).ok_or_else(|| "seeded greedy cuts are invalid".into())
}

fn simulator(chip: &ChipSpec, timing: TimingMode) -> ChipSimulator {
    // The analytic run leaves the DRAM model out entirely, so the
    // closed-loop op minus it is what the DRAM model costs.
    ChipSimulator::new(chip.clone())
        .with_timing_mode(timing)
        .with_schedule_mode(MODES.schedule)
        .with_dram_replay(false)
}

impl Workload for Simulate {
    fn setup(seed: u64, spans: &mut Spans) -> Result<Self, String> {
        let chip = ChipSpec::chip_s();
        let net = spans.span("model.build", |_| zoo::vgg16());
        let (seq, validity) = phases::front(spans, &net, &chip);
        let group = seeded_greedy(&validity, seed)?;
        if seeded_greedy(&validity, seed)? != group {
            return Err("the seeded packing is not a function of the seed".into());
        }
        phases::check_group(&group, &validity)?;
        let (estimate, programs) = phases::back(spans, &net, &seq, &chip, &group, MODES);
        Ok(Self {
            chip,
            programs,
            estimate,
            units: seq.len(),
            valid_frac: validity.valid_fraction(),
            reference: None,
            analytic: None,
        })
    }

    fn work_units(&self) -> f64 {
        (ROUNDS * MODES.batch) as f64
    }

    fn op(&mut self, spans: &mut Spans) -> Result<Duration, String> {
        let sim = simulator(&self.chip, MODES.timing);
        let (report, wall) =
            spans.timed("op", |_| sim.run_batches(&self.programs, ROUNDS, MODES.batch));
        check_report(report.map_err(|e| e.to_string())?, &mut self.reference)?;
        if spans.enabled() {
            let analytic = simulator(&self.chip, TimingMode::Analytic);
            let report = spans
                .span("sim", |_| analytic.run_batches(&self.programs, ROUNDS, MODES.batch))
                .map_err(|e| format!("analytic run: {e}"))?;
            check_report(report, &mut self.analytic).map_err(|e| format!("analytic run: {e}"))?;
        }
        Ok(wall)
    }

    /// The p99 is over the rounds' batch latencies (first stage
    /// start to last stage end).
    fn sim(&self) -> SimMetrics {
        let report = self.reference.as_ref().expect("the warm-up op sets the reference");
        let mut latencies: Vec<f64> = report
            .partitions
            .chunks(self.programs.len())
            .map(|round| {
                let start = round.iter().map(|p| p.start_ns).fold(f64::INFINITY, f64::min);
                let end = round.iter().map(|p| p.end_ns).fold(0.0, f64::max);
                end - start
            })
            .collect();
        latencies.sort_by(f64::total_cmp);
        SimMetrics {
            ips: report.throughput_ips(),
            edp: report.edp_per_inference(),
            p99_ms: percentile(&latencies, 0.99) * 1e-6,
        }
    }

    fn layers(&self, spans: &Spans, layers: &mut Layers) {
        let report = self.reference.as_ref().expect("the warm-up op sets the reference");
        let channels = report.dram_channels.as_deref().unwrap_or_default();
        let row_hits: u64 = channels.iter().map(|c| c.row_hits).sum();
        let activates: u64 = channels.iter().map(|c| c.activates).sum();
        let busy: f64 = channels.iter().map(|c| c.busy_ns).sum();
        let span: f64 = channels.iter().map(|c| c.makespan_ns).sum();
        let op_s = spans.median_s("op");
        let sim_s = spans.median_s("sim");
        let (instructions, write_weight) = phases::instruction_counts(&self.programs);
        let (util, dram_wait, recv_wait) = phases::core_shares(report, self.chip.cores);
        layers.extend([
            ("model.build_s", spans.median_s("model.build")),
            ("decompose.s", spans.median_s("decompose")),
            ("decompose.units", self.units as f64),
            ("validity.s", spans.median_s("validity")),
            ("validity.valid_frac", self.valid_frac),
            ("estimate.s", spans.median_s("estimate")),
            (
                "estimate.sim_over_est",
                report.makespan_ns / ROUNDS as f64 / self.estimate.batch_latency_ns,
            ),
            ("replication.s", spans.median_s("replication")),
            ("scheduler.s", spans.median_s("scheduler")),
            ("scheduler.instructions", instructions as f64),
            ("scheduler.write_weight", write_weight as f64),
            ("sim.s", sim_s),
            ("dram.s", op_s - sim_s),
            ("dram.share", (op_s - sim_s) / op_s),
            ("dram.row_hit_ratio", row_hits as f64 / (row_hits + activates).max(1) as f64),
            ("dram.bus_util", if span > 0.0 { busy / span } else { 0.0 }),
            ("core.mean_util", util),
            ("core.dram_wait_share", dram_wait),
            ("core.recv_wait_share", recv_wait),
        ]);
    }
}
