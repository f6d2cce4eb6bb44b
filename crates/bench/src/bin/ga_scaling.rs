//! **GA scaling benchmark**: how the COMPASS search loop scales with
//! population size, and what the fitness memo buys, feeding the CI
//! perf trajectory with the `ga:*` record family.
//!
//! For each population (100 / 1000, plus 4000 in full mode) the same
//! seeded run — ResNet18 / Chip-S at batch 8, fixed generation count,
//! early stopping disabled — is measured on two axes:
//!
//! * **serial** — the fitness memo on (the default).
//! * **serial-nomemo** — memoization off: every chromosome
//!   re-evaluates all its segments. The serial-nomemo / serial wall
//!   ratio is the *memo speedup*.
//!
//! The axes run in nine back-to-back pairs, alternating which runs
//! first; the memo speedup is the median of the per-pair ratios and a
//! wall the median of its axis's runs. Both runs of a pair see the same
//! host state, so a slow spell moves their ratio far less than it moves
//! a best-of over separate blocks of runs.
//!
//! Every run must produce the byte-identical best chromosome and
//! fitness bits for the shared seed — the bin asserts this before
//! recording anything, so a trajectory point can never come from a
//! run that changed results.
//!
//! Records land under two prefixes: `ga:abs:pop:{N}:{axis}` are
//! absolute ns-per-generation / evaluations-per-second walls
//! (machine-dependent, never gated) and `ga:gate:pop:{N}:memo-speedup`
//! is the same-process ratio, gated on throughput. Every record
//! carries a `host_parallelism` stamp and the baseline gate only
//! compares records measured at matching parallelism.
//!
//! ```text
//! ga_scaling [--quick] [--json BENCH_ci.json]
//! ```

use compass::fitness::{FitnessContext, FitnessKind};
use compass::ga::{self, GaParams};
use compass::{decompose, UnitSequence, ValidityMap};
use compass_bench::{arg_value, has_flag, print_table, BenchRecord};
use pim_arch::ChipSpec;
use pim_model::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Trajectory label of a run (`ga:abs:pop:{N}:{label}`).
fn label(memo: bool) -> &'static str {
    if memo {
        "serial"
    } else {
        "serial-nomemo"
    }
}

/// The shared workload (borrowed by every [`FitnessContext`]).
struct Fixture {
    net: Network,
    seq: UnitSequence,
    validity: ValidityMap,
    chip: ChipSpec,
}

fn fixture() -> Fixture {
    let chip = ChipSpec::chip_s();
    let net = compass_bench::network("resnet18");
    let seq = decompose(&net, &chip);
    let validity = ValidityMap::build(&seq, &chip);
    Fixture { net, seq, validity, chip }
}

/// COMPASS's 20/80 selection split at population `pop`, with early
/// stopping disabled so both runs take exactly `gens` generations —
/// walls stay comparable and the byte-identity cross-check is total.
fn params_for(pop: usize, gens: usize) -> GaParams {
    let n_sel = (pop / 5).max(1);
    GaParams {
        population: pop,
        generations: gens,
        n_sel,
        n_mut: pop - n_sel,
        early_stop_patience: 0,
    }
}

/// One seeded GA run on a fresh (cold-memo) context.
struct Run {
    wall_ns: f64,
    /// Best chromosome and fitness bits, for the byte-identity check.
    best: (Vec<usize>, u64),
}

fn run_once(f: &Fixture, params: &GaParams, memo: bool) -> Run {
    let ctx = FitnessContext::new(&f.net, &f.seq, &f.validity, &f.chip, 8, FitnessKind::Latency)
        .with_memo(memo);
    let mut rng = StdRng::seed_from_u64(2025);
    let start = Instant::now();
    let (winner, _trace) = ga::run(&ctx, params, &mut rng);
    let wall_ns = start.elapsed().as_secs_f64() * 1e9;
    Run { wall_ns, best: (winner.group.cuts().to_vec(), winner.pgf.to_bits()) }
}

/// Memo-on/memo-off measurement pairs per population; odd, so a
/// median is one measured value.
const PAIRS: usize = 9;

/// Medians over [`PAIRS`] back-to-back memo-on/memo-off runs.
struct Paired {
    /// Median wall of each axis, ns: memo on, memo off.
    memo_ns: f64,
    bare_ns: f64,
    /// The median per-pair memo-off / memo-on wall ratio.
    memo_speedup: f64,
}

/// Measures the pairs at population `pop`, alternating which axis runs
/// first. Every run, on either axis, must find the same winner — a run
/// that isn't reproducible, or a memo that changes results, has no
/// business in the trajectory.
fn paired(f: &Fixture, pop: usize, gens: usize) -> Paired {
    let params = params_for(pop, gens);
    let (mut memo, mut bare, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut best: Option<(Vec<usize>, u64)> = None;
    for pair in 0..PAIRS {
        let bare_first = pair % 2 == 1;
        let first = run_once(f, &params, !bare_first);
        let second = run_once(f, &params, bare_first);
        let (on, off) = if bare_first { (second, first) } else { (first, second) };
        for (axis, run) in [(true, &on), (false, &off)] {
            let want = best.get_or_insert_with(|| run.best.clone());
            assert_eq!(&run.best, want, "pop {pop}, {}: best chromosome diverged", label(axis));
        }
        memo.push(on.wall_ns);
        bare.push(off.wall_ns);
        ratios.push(off.wall_ns / on.wall_ns);
    }
    Paired { memo_ns: median(memo), bare_ns: median(bare), memo_speedup: median(ratios) }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let quick = has_flag("--quick");
    let json = arg_value("--json");
    let pops: &[usize] = if quick { &[100, 1000] } else { &[100, 1000, 4000] };
    let gens = if quick { 2usize } else { 4 };

    let f = fixture();
    // Touch every code path once before any clock starts: the first
    // run pays one-time process warm-up (page faults, allocator
    // growth) that would otherwise inflate the first pair's ratio.
    run_once(&f, &params_for(50, 1), true);
    let mut records: Vec<BenchRecord> = Vec::new();

    for &pop in pops {
        let p = paired(&f, pop, gens);
        let n_mut = params_for(pop, gens).n_mut;
        // Nominal chromosome evaluations per second (memo hits count:
        // the GA consumed that many fitness values either way).
        let nominal_evals = (pop + gens * n_mut) as f64;
        let axes = [(true, p.memo_ns), (false, p.bare_ns)];
        print_table(
            &format!("GA scaling, population {pop} ({gens} generations, median of {PAIRS} pairs)"),
            &["axis", "ms/generation", "evals/s", "vs serial"],
            &axes
                .iter()
                .map(|&(memo, wall_ns)| {
                    vec![
                        label(memo).into(),
                        format!("{:.1}", wall_ns / gens as f64 / 1e6),
                        format!("{:.0}", nominal_evals / (wall_ns / 1e9)),
                        format!("{:.2}x", p.memo_ns / wall_ns),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        println!("memo speedup at population {pop}: {:.2}x", p.memo_speedup);

        let record = |name: String, makespan_ns: f64, throughput_ips: f64| {
            BenchRecord { name, makespan_ns, throughput_ips, host_parallelism: None }
                .measured_on_this_host()
        };
        // Absolute walls: trajectory visibility only (the gate skips
        // the `ga:abs:` prefix entirely).
        for (memo, wall_ns) in axes {
            records.push(record(
                format!("ga:abs:pop:{pop}:{}", label(memo)),
                wall_ns / gens as f64,
                nominal_evals / (wall_ns / 1e9),
            ));
        }
        // Same-process ratio: gated on throughput, but only against
        // baselines measured at the same host parallelism.
        records.push(record(
            format!("ga:gate:pop:{pop}:memo-speedup"),
            1.0 / p.memo_speedup,
            p.memo_speedup,
        ));
    }

    if let Some(path) = json {
        compass_bench::append_records(&path, records);
        println!("\nrecorded GA scaling trajectory into {path}");
    }
}
