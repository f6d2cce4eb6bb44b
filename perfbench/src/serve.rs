//! `serve`: set-up compiles resnet18-S with a greedy packing at batch
//! 4, plans it onto a ring:2 layer pipeline and probes the round time
//! with a 2-round run; one op is `SystemSimulator::run_serving` over
//! 2048 Poisson requests (arrival seed = the workload seed) at 0.8 of
//! the batch-4 request capacity, deadline batching at half a round,
//! an SLO of five rounds, analytic timing. The default-feature build
//! has no sharded engine, and every op checks that its report came
//! from the single-threaded one.
//!
//! It drives the simulator differently from `simulate`: two chips
//! with link traffic and rounds appended live by the admission
//! frontend, and no DRAM timing. The request count and load keep the
//! simulated p99 within a few percent across arrival seeds.

use std::time::Duration;

use compass::{
    baselines, plan_system, CompileOptions, CompiledModel, Compiler, Strategy, SystemSchedule,
    SystemStrategy, SystemTarget,
};
use pim_arch::{ChipSpec, ScheduleMode, TimingMode, Topology};
use pim_model::{zoo, Network};
use pim_sim::{
    BatchPolicy, ChipLoad, ServingConfig, SimReport, SystemSimulator, TrafficModel, TrafficSpec,
};

use crate::phases::{self, check_report, Modes, CHUNKS_PER_SAMPLE};
use crate::spans::Spans;
use crate::{Layers, SimMetrics, Workload};

const MODES: Modes =
    Modes { batch: 4, timing: TimingMode::Analytic, schedule: ScheduleMode::Barrier };

/// Requests per op.
const REQUESTS: usize = 2048;

/// Offered load as a share of the pipeline's batch-4 request capacity.
const LOAD: f64 = 0.8;

/// Latency SLO in round times.
const SLO_ROUNDS: f64 = 5.0;

pub struct Serve {
    cores: usize,
    schedule: SystemSchedule,
    sim: SystemSimulator,
    config: ServingConfig,
    units: usize,
    valid_frac: f64,
    /// The first op's report; every later op must reproduce it.
    reference: Option<SimReport>,
    /// The first traced op's equal-round batch run.
    rounds_only: Option<SimReport>,
}

/// Each chip's programs with its hand-offs downstream.
fn loads(schedule: &SystemSchedule) -> Vec<ChipLoad<'_>> {
    schedule
        .chips
        .iter()
        .map(|c| {
            c.handoffs.iter().fold(ChipLoad::new(&c.programs), |load, &(dst, bytes)| {
                load.with_handoff(dst, bytes)
            })
        })
        .collect()
}

/// `Compiler::compile` with a greedy packing. When tracing, also makes
/// the same calls one phase at a time (each in a span), which must
/// reproduce the compiler's group and estimate; returns the unit count
/// and valid fraction it saw.
fn compile(
    spans: &mut Spans,
    net: &Network,
    chip: &ChipSpec,
) -> Result<(CompiledModel, usize, f64), String> {
    let options = CompileOptions::new()
        .with_batch_size(MODES.batch)
        .with_strategy(Strategy::Greedy)
        .with_timing_mode(MODES.timing)
        .with_schedule_mode(MODES.schedule);
    let compiled = spans
        .span("compiler", |_| Compiler::new(chip.clone()).compile(net, &options))
        .map_err(|e| e.to_string())?;
    let mut seen = (compiled.unit_count(), 0.0);
    if spans.enabled() {
        let (seq, validity) = phases::front(spans, net, chip);
        let group = baselines::greedy(&validity);
        let (estimate, _) = phases::back(spans, net, &seq, chip, &group, MODES);
        if group != *compiled.group() || estimate != *compiled.estimate() {
            return Err("phase-by-phase compile differs from Compiler::compile".into());
        }
        seen = (seq.len(), validity.valid_fraction());
    }
    Ok((compiled, seen.0, seen.1))
}

impl Workload for Serve {
    fn setup(seed: u64, spans: &mut Spans) -> Result<Self, String> {
        let chip = ChipSpec::chip_s();
        let net = spans.span("model.build", |_| zoo::resnet18());
        let (compiled, units, valid_frac) = compile(spans, &net, &chip)?;
        let topology = Topology::ring(2);
        let target = SystemTarget::new(topology.clone(), SystemStrategy::LayerPipeline);
        let schedule = spans
            .span("system.plan", |_| {
                plan_system(&net, &compiled, &chip, &target, MODES.batch, CHUNKS_PER_SAMPLE)
            })
            .map_err(|e| e.to_string())?;
        let sim = SystemSimulator::new(chip.clone(), topology)
            .with_timing_mode(MODES.timing)
            .with_schedule_mode(MODES.schedule);
        let probe = spans
            .span("probe", |_| sim.run(&loads(&schedule), 2, schedule.samples_per_round))
            .map_err(|e| format!("round-time probe: {e}"))?;
        let round_ns = probe.makespan_ns / 2.0;
        let rate_per_s = LOAD * MODES.batch as f64 / (round_ns * 1e-9);
        let traffic = TrafficSpec::Synthetic {
            model: TrafficModel::Poisson { rate_per_s },
            seed,
            requests: REQUESTS,
        };
        let arrivals = spans.span("traffic", |_| traffic.arrivals()).map_err(|e| e.to_string())?;
        if arrivals.len() != REQUESTS || traffic.arrivals().ok() != Some(arrivals) {
            return Err("the arrivals are not a function of the seed".into());
        }
        let config = ServingConfig::new(traffic)
            .with_policy(BatchPolicy::Deadline {
                max_size: MODES.batch,
                timeout_ns: round_ns / 2.0,
            })
            .with_slo_ns(SLO_ROUNDS * round_ns);
        Ok(Self {
            cores: chip.cores,
            schedule,
            sim,
            config,
            units,
            valid_frac,
            reference: None,
            rounds_only: None,
        })
    }

    fn work_units(&self) -> f64 {
        REQUESTS as f64
    }

    fn op(&mut self, spans: &mut Spans) -> Result<Duration, String> {
        let loads = loads(&self.schedule);
        let (report, wall) = spans.timed("op", |_| self.sim.run_serving(&loads, &self.config));
        let report = report.map_err(|e| e.to_string())?;
        let serving = report.serving.as_ref().ok_or("serving run without a serving section")?;
        if serving.requests + serving.dropped != REQUESTS {
            return Err(format!(
                "{} served + {} dropped != {REQUESTS} requests",
                serving.requests, serving.dropped
            ));
        }
        if !(serving.p50_ns <= serving.p99_ns && serving.p99_ns <= serving.p999_ns) {
            return Err(format!(
                "percentiles out of order: p50 {} p99 {} p999 {}",
                serving.p50_ns, serving.p99_ns, serving.p999_ns
            ));
        }
        let rounds = serving.rounds;
        check_report(report, &mut self.reference)?;
        if spans.enabled() {
            let report = spans
                .span("sim", |_| self.sim.run(&loads, rounds, self.schedule.samples_per_round))
                .map_err(|e| format!("equal-round run: {e}"))?;
            check_report(report, &mut self.rounds_only)
                .map_err(|e| format!("equal-round run: {e}"))?;
        }
        Ok(wall)
    }

    /// Throughput is SLO goodput, and the energy-delay product is the
    /// energy per served request times the mean request latency (a
    /// serving run's makespan is set by its arrival stream, not by the
    /// system).
    fn sim(&self) -> SimMetrics {
        let report = self.reference.as_ref().expect("the warm-up op sets the reference");
        let serving = report.serving.as_ref().expect("checked by every op");
        let records = &serving.records;
        let mean_latency_ns =
            records.iter().map(|r| r.latency_ns()).sum::<f64>() / records.len().max(1) as f64;
        SimMetrics {
            ips: serving.goodput_rps,
            edp: report.energy_per_inference_uj() * mean_latency_ns * 1e-6,
            p99_ms: serving.p99_ns * 1e-6,
        }
    }

    fn layers(&self, spans: &Spans, layers: &mut Layers) {
        let report = self.reference.as_ref().expect("the warm-up op sets the reference");
        let serving = report.serving.as_ref().expect("checked by every op");
        let links = report.links.as_deref().unwrap_or_default();
        let link_time = links.len() as f64 * report.makespan_ns;
        let share = |ns: f64| if link_time > 0.0 { ns / link_time } else { 0.0 };
        let op_s = spans.median_s("op");
        let sim_s = spans.median_s("sim");
        let programs: Vec<_> =
            self.schedule.chips.iter().flat_map(|c| c.programs.iter().cloned()).collect();
        let (instructions, write_weight) = phases::instruction_counts(&programs);
        let chips = self.schedule.chips.len();
        let (util, dram_wait, recv_wait) = phases::core_shares(report, chips * self.cores);
        layers.extend([
            ("model.build_s", spans.median_s("model.build")),
            ("decompose.s", spans.median_s("decompose")),
            ("decompose.units", self.units as f64),
            ("validity.s", spans.median_s("validity")),
            ("validity.valid_frac", self.valid_frac),
            ("estimate.s", spans.median_s("estimate")),
            ("replication.s", spans.median_s("replication")),
            ("scheduler.s", spans.median_s("scheduler")),
            ("scheduler.instructions", instructions as f64),
            ("scheduler.write_weight", write_weight as f64),
            ("sim.s", sim_s),
            ("core.mean_util", util),
            ("core.dram_wait_share", dram_wait),
            ("core.recv_wait_share", recv_wait),
            ("system.plan_s", spans.median_s("system.plan")),
            ("traffic.s", spans.median_s("traffic")),
            ("serve.frontend_s", op_s - sim_s),
            ("serve.frontend_share", (op_s - sim_s) / op_s),
            ("serve.rounds", serving.rounds as f64),
            ("serve.mean_batch", serving.requests as f64 / serving.rounds.max(1) as f64),
            ("serve.dropped", serving.dropped as f64),
            ("serve.mean_queue_ms", serving.mean_queue_ns * 1e-6),
            ("links.bytes", links.iter().map(|l| l.bytes as f64).sum()),
            ("links.busy_share", share(links.iter().map(|l| l.busy_ns).sum())),
            ("links.wait_share", share(links.iter().map(|l| l.wait_ns).sum())),
        ]);
    }
}
