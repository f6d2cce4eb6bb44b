//! **GA scaling benchmark**: how the COMPASS search loop scales with
//! population size, and what the fitness memo buys, feeding the CI
//! perf trajectory with the `ga:*` record family.
//!
//! For each population (100 / 1000, plus 4000 in full mode) the same
//! seeded run — ResNet18 / Chip-S at batch 8, fixed generation count,
//! early stopping disabled — is measured twice:
//!
//! * **serial** — the fitness memo on (the default).
//! * **serial-nomemo** — memoization off: every chromosome
//!   re-evaluates all its segments. The serial-nomemo / serial wall
//!   ratio is the *memo speedup*.
//!
//! Both runs must produce the byte-identical best chromosome and
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

struct Measurement {
    /// Best wall time across runs, ns (the least-disturbed run).
    wall_ns: f64,
    /// Wall per generation (initial-population evaluation amortized).
    ns_per_gen: f64,
    /// Nominal chromosome evaluations per second (memo hits count:
    /// the GA consumed that many fitness values either way).
    evals_per_sec: f64,
    /// Best chromosome, for the memo on/off byte-identity check.
    best_cuts: Vec<usize>,
    /// Best fitness bits, same purpose.
    best_pgf_bits: u64,
}

/// Runs the seeded GA `runs` times on a fresh (cold-memo) context per
/// run and keeps the fastest wall. Results must agree across runs —
/// a run that isn't reproducible has no business in the trajectory.
fn measure(f: &Fixture, pop: usize, gens: usize, runs: usize, memo: bool) -> Measurement {
    let params = params_for(pop, gens);
    let mut wall_ns = f64::MAX;
    let mut best: Option<(Vec<usize>, u64)> = None;
    for _ in 0..runs {
        let ctx =
            FitnessContext::new(&f.net, &f.seq, &f.validity, &f.chip, 8, FitnessKind::Latency)
                .with_memo(memo);
        let mut rng = StdRng::seed_from_u64(2025);
        let start = Instant::now();
        let (winner, _trace) = ga::run(&ctx, &params, &mut rng);
        let elapsed_ns = start.elapsed().as_secs_f64() * 1e9;
        wall_ns = wall_ns.min(elapsed_ns);
        let cuts = winner.group.cuts().to_vec();
        let bits = winner.pgf.to_bits();
        match &best {
            None => best = Some((cuts, bits)),
            Some((prev_cuts, prev_bits)) => {
                assert_eq!(prev_cuts, &cuts, "{}: rerun diverged", label(memo));
                assert_eq!(*prev_bits, bits, "{}: rerun fitness diverged", label(memo));
            }
        }
    }
    let (best_cuts, best_pgf_bits) = best.expect("at least one run");
    let nominal_evals = (params.population + gens * params.n_mut) as f64;
    Measurement {
        wall_ns,
        ns_per_gen: wall_ns / gens as f64,
        evals_per_sec: nominal_evals / (wall_ns / 1e9),
        best_cuts,
        best_pgf_bits,
    }
}

fn main() {
    let quick = has_flag("--quick");
    let json = arg_value("--json");
    let pops: &[usize] = if quick { &[100, 1000] } else { &[100, 1000, 4000] };
    // Always at least best-of-2: the fastest wall discards the run
    // that paid one-time process warm-up (page faults, allocator
    // growth) — with a single run the first-measured axis absorbs all
    // of it and every ratio against that axis is inflated.
    let (gens, runs) = if quick { (2usize, 2usize) } else { (4, 2) };

    let f = fixture();
    // Touch every code path once before any clock starts, for the
    // same reason.
    measure(&f, 50, 1, 1, true);
    let mut records: Vec<BenchRecord> = Vec::new();

    for &pop in pops {
        let memoized = measure(&f, pop, gens, runs, true);
        let bare = measure(&f, pop, gens, runs, false);
        let measured = [(true, &memoized), (false, &bare)];

        // Byte-identity before anything is recorded: the memo may only
        // change wall clock.
        assert_eq!(
            memoized.best_cuts, bare.best_cuts,
            "pop {pop}: best chromosome diverged with the memo off"
        );
        assert_eq!(
            memoized.best_pgf_bits, bare.best_pgf_bits,
            "pop {pop}: best fitness diverged with the memo off"
        );

        let memo_speedup = bare.wall_ns / memoized.wall_ns;
        print_table(
            &format!("GA scaling, population {pop} ({gens} generations, best of {runs})"),
            &["axis", "ms/generation", "evals/s", "vs serial"],
            &measured
                .iter()
                .map(|(memo, m)| {
                    vec![
                        label(*memo).into(),
                        format!("{:.1}", m.ns_per_gen / 1e6),
                        format!("{:.0}", m.evals_per_sec),
                        format!("{:.2}x", memoized.wall_ns / m.wall_ns),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        println!("memo speedup at population {pop}: {memo_speedup:.2}x");

        let record = |name: String, makespan_ns: f64, throughput_ips: f64| {
            BenchRecord { name, makespan_ns, throughput_ips, host_parallelism: None }
                .measured_on_this_host()
        };
        // Absolute walls: trajectory visibility only (the gate skips
        // the `ga:abs:` prefix entirely).
        for (memo, m) in measured {
            records.push(record(
                format!("ga:abs:pop:{pop}:{}", label(memo)),
                m.ns_per_gen,
                m.evals_per_sec,
            ));
        }
        // Same-process ratio: gated on throughput, but only against
        // baselines measured at the same host parallelism.
        records.push(record(
            format!("ga:gate:pop:{pop}:memo-speedup"),
            1.0 / memo_speedup,
            memo_speedup,
        ));
    }

    if let Some(path) = json {
        compass_bench::append_records(&path, records);
        println!("\nrecorded GA scaling trajectory into {path}");
    }
}
