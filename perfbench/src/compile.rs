//! `compile`: one op compiles resnet18-S-8, squeezenet-L-8 and
//! vgg16-S-8 with the COMPASS GA (the paper's GA parameters, GA seed =
//! the workload seed, analytic timing, barrier scheduling) and
//! simulates each winner once to score it. Early stopping is off, so
//! every GA runs all 30 generations and the work of an op does not
//! depend on when a seed happens to stall.
//!
//! These are the paper's three networks at the points where the
//! estimator ranks candidates worst, and the GA (`ga`, `fitness`,
//! memo) does nearly all of the work; the simulator does little.
//! Untraced ops call `Compiler::compile`; traced ops make the same
//! calls one phase at a time and must reproduce its group and
//! estimate bit for bit.

use std::time::Duration;

use compass::fitness::FitnessContext;
use compass::{
    ga, CompileOptions, Compiler, FitnessKind, GaParams, GroupEstimate, PartitionGroup, Strategy,
    ValidityMap,
};
use pim_arch::{ChipClass, ChipSpec, ScheduleMode, TimingMode};
use pim_model::{zoo, Network};
use pim_sim::{ChipSimulator, SimReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::phases::{self, Modes};
use crate::spans::Spans;
use crate::{geomean, Layers, SimMetrics, Workload};

const MODES: Modes =
    Modes { batch: 8, timing: TimingMode::Analytic, schedule: ScheduleMode::Barrier };

/// One compiled network: name, chip class, model constructor.
type Point = (&'static str, ChipClass, fn() -> Network);

const POINTS: [Point; 3] = [
    ("resnet18-S-8", ChipClass::S, zoo::resnet18),
    ("squeezenet-L-8", ChipClass::L, zoo::squeezenet),
    ("vgg16-S-8", ChipClass::S, zoo::vgg16),
];

/// One compilation of an op: a network on its chip, with the validity
/// map its output is checked against.
struct Run {
    name: &'static str,
    chip: ChipSpec,
    build: fn() -> Network,
    validity: ValidityMap,
}

/// What one run produced.
#[derive(PartialEq)]
struct Outcome {
    group: PartitionGroup,
    estimate: GroupEstimate,
    sim: SimReport,
}

/// Counters of a traced op, summed over its runs.
#[derive(Default)]
struct Counts {
    units: usize,
    valid_frac: f64,
    generations: usize,
    evals: usize,
    distinct_groups: usize,
    distinct_segments: usize,
    instructions: usize,
    write_weight: usize,
}

pub struct Compile {
    options: CompileOptions,
    runs: Vec<Run>,
    /// The first op's outcomes; every later op must reproduce them.
    reference: Option<Vec<Outcome>>,
    /// Counters of the last traced op.
    counts: Counts,
}

fn simulator(chip: &ChipSpec) -> ChipSimulator {
    ChipSimulator::new(chip.clone())
        .with_timing_mode(MODES.timing)
        .with_schedule_mode(MODES.schedule)
}

/// `Compiler::compile`, then one simulation of the winner.
fn compile(run: &Run, options: &CompileOptions) -> Result<Outcome, String> {
    let net = (run.build)();
    let compiled =
        Compiler::new(run.chip.clone()).compile(&net, options).map_err(|e| e.to_string())?;
    let sim =
        simulator(&run.chip).run(compiled.programs(), MODES.batch).map_err(|e| e.to_string())?;
    Ok(Outcome { group: compiled.group().clone(), estimate: compiled.estimate().clone(), sim })
}

/// The same calls one phase at a time, each in a span.
fn compile_phased(
    spans: &mut Spans,
    run: &Run,
    options: &CompileOptions,
    counts: &mut Counts,
) -> Result<Outcome, String> {
    let chip = &run.chip;
    let net = spans.span("model.build", |_| (run.build)());
    let (seq, validity) = phases::front(spans, &net, chip);
    let group = spans.span("ga", |_| {
        let ctx = FitnessContext::new(&net, &seq, &validity, chip, MODES.batch, options.fitness)
            .with_timing_mode(MODES.timing)
            .with_schedule_mode(MODES.schedule)
            .with_system_target(None);
        let mut rng = StdRng::seed_from_u64(options.seed);
        let (best, trace) = ga::run(&ctx, &options.ga, &mut rng);
        counts.generations += trace.generations.len();
        counts.evals += trace.generations.iter().map(|g| g.individuals.len()).sum::<usize>();
        // `ga::run` releases the winner from the memo.
        counts.distinct_groups += ctx.cache_len() + usize::from(!ctx.memoized(best.group.cuts()));
        counts.distinct_segments += ctx.segment_cache_len();
        best.group
    });
    let (estimate, programs) = phases::back(spans, &net, &seq, chip, &group, MODES);
    let sim = spans
        .span("sim.verify", |_| simulator(chip).run(&programs, MODES.batch))
        .map_err(|e| e.to_string())?;
    let (instructions, write_weight) = phases::instruction_counts(&programs);
    counts.units += seq.len();
    counts.valid_frac += validity.valid_fraction();
    counts.instructions += instructions;
    counts.write_weight += write_weight;
    Ok(Outcome { group, estimate, sim })
}

impl Compile {
    fn reference(&self) -> &[Outcome] {
        self.reference.as_deref().expect("the warm-up op sets the reference")
    }
}

impl Workload for Compile {
    fn setup(seed: u64, _spans: &mut Spans) -> Result<Self, String> {
        let options = CompileOptions::new()
            .with_batch_size(MODES.batch)
            .with_strategy(Strategy::Compass)
            .with_fitness(FitnessKind::Latency)
            .with_ga(GaParams { early_stop_patience: 0, ..GaParams::paper() })
            .with_seed(seed)
            .with_timing_mode(MODES.timing)
            .with_schedule_mode(MODES.schedule);
        let runs = POINTS
            .into_iter()
            .map(|(name, class, build)| {
                let chip = ChipSpec::preset(class);
                let validity = ValidityMap::build(&compass::decompose(&build(), &chip), &chip);
                Run { name, chip, build, validity }
            })
            .collect();
        Ok(Self { options, runs, reference: None, counts: Counts::default() })
    }

    fn work_units(&self) -> f64 {
        self.runs.len() as f64
    }

    fn op(&mut self, spans: &mut Spans) -> Result<Duration, String> {
        let traced = spans.enabled();
        let mut counts = Counts::default();
        let (runs, options) = (&self.runs, &self.options);
        let (outcomes, wall) = spans.timed("op", |spans| {
            runs.iter()
                .map(|run| {
                    let outcome = if traced {
                        compile_phased(spans, run, options, &mut counts)
                    } else {
                        compile(run, options)
                    };
                    outcome.map_err(|e| format!("{}: {e}", run.name))
                })
                .collect::<Result<Vec<_>, String>>()
        });
        let outcomes = outcomes?;
        for (run, outcome) in self.runs.iter().zip(&outcomes) {
            phases::check_group(&outcome.group, &run.validity)
                .map_err(|e| format!("{}: {e}", run.name))?;
        }
        match &self.reference {
            None => self.reference = Some(outcomes),
            Some(reference) => {
                for ((run, got), want) in self.runs.iter().zip(&outcomes).zip(reference) {
                    if got != want {
                        return Err(format!(
                            "{}: result differs from the first op of this seed",
                            run.name
                        ));
                    }
                }
            }
        }
        if traced {
            self.counts = counts;
        }
        Ok(wall)
    }

    /// Geometric means over the winners. Every sample of a batch is
    /// answered when the batch cycle ends, so the p99 latency is the
    /// simulated batch makespan.
    fn sim(&self) -> SimMetrics {
        let over = |f: fn(&SimReport) -> f64| {
            geomean(&self.reference().iter().map(|o| f(&o.sim)).collect::<Vec<_>>())
        };
        SimMetrics {
            ips: over(SimReport::throughput_ips),
            edp: over(SimReport::edp_per_inference),
            p99_ms: over(SimReport::latency_ms),
        }
    }

    fn layers(&self, spans: &Spans, layers: &mut Layers) {
        let c = &self.counts;
        let ga_s = spans.median_s("ga");
        let sim_s = spans.median_s("sim.verify");
        let reference = self.reference();
        let sim_over_est: Vec<f64> =
            reference.iter().map(|o| o.sim.makespan_ns / o.estimate.batch_latency_ns).collect();
        let shares: Vec<(f64, f64, f64)> = reference
            .iter()
            .zip(&self.runs)
            .map(|(o, run)| phases::core_shares(&o.sim, run.chip.cores))
            .collect();
        let mean = |f: fn(&(f64, f64, f64)) -> f64| {
            shares.iter().map(f).sum::<f64>() / shares.len() as f64
        };
        layers.extend([
            ("model.build_s", spans.median_s("model.build")),
            ("decompose.s", spans.median_s("decompose")),
            ("decompose.units", c.units as f64),
            ("validity.s", spans.median_s("validity")),
            ("validity.valid_frac", c.valid_frac / self.runs.len() as f64),
            ("ga.s", ga_s),
            ("ga.share", ga_s / spans.median_s("op")),
            ("ga.generations", c.generations as f64),
            ("ga.evals", c.evals as f64),
            ("ga.distinct_groups", c.distinct_groups as f64),
            ("ga.distinct_segments", c.distinct_segments as f64),
            ("ga.memo_hit_ratio", 1.0 - c.distinct_groups as f64 / c.evals as f64),
            ("estimate.s", spans.median_s("estimate")),
            ("estimate.sim_over_est", geomean(&sim_over_est)),
            ("replication.s", spans.median_s("replication")),
            ("scheduler.s", spans.median_s("scheduler")),
            ("scheduler.instructions", c.instructions as f64),
            ("scheduler.write_weight", c.write_weight as f64),
            ("sim.verify_s", sim_s),
            ("sim.s", sim_s),
            ("core.mean_util", mean(|s| s.0)),
            ("core.dram_wait_share", mean(|s| s.1)),
            ("core.recv_wait_share", mean(|s| s.2)),
        ]);
    }
}
