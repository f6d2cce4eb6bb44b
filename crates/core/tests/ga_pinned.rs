//! GA output pinned across commits, and reproducible within one.
//!
//! The pins record what the GA *finds* — the winner's cuts, its
//! fitness bits, and a hash of the serialized trace — so a change to
//! the fitness hot path (segment sharing, replication feasibility
//! checks, memo layout) that claims to be behaviour-preserving is
//! checked against the numbers the previous implementation produced.
//! The first pinned points are the benchmark's `compile` workload:
//! the paper's GA parameters with early stopping off, seed 1, batch 8,
//! latency fitness, analytic timing and barrier scheduling. The rest
//! pin the same GA under each knob the group fold or the per-segment
//! estimate reads: the interleaved schedule, ring:2 pipeline and
//! batch-shard targets, closed-loop timing, and EDP fitness.
//!
//! The reproducibility check reruns the fast GA for several seeds and
//! compares the two runs byte for byte.

use compass::fitness::{FitnessContext, FitnessKind};
use compass::ga::{self, GaParams};
use compass::{decompose, ScheduleMode, SystemStrategy, SystemTarget, TimingMode, ValidityMap};
use pim_arch::{ChipSpec, Topology};
use pim_model::{zoo, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the trace bytes: stable across toolchains, unlike
/// `std`'s `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

struct Pinned {
    cuts: &'static [usize],
    pgf_bits: u64,
    trace_hash: u64,
}

/// The context knobs a pinned run scores under; the default is the
/// `compile` workload's.
#[derive(Default)]
struct Knobs {
    kind: FitnessKind,
    timing: TimingMode,
    schedule: ScheduleMode,
    system: Option<SystemTarget>,
}

fn ring2(strategy: SystemStrategy) -> Option<SystemTarget> {
    Some(SystemTarget::new(Topology::ring(2), strategy))
}

fn check(name: &str, net: Network, chip: ChipSpec, knobs: Knobs, want: Pinned) {
    let seq = decompose(&net, &chip);
    let validity = ValidityMap::build(&seq, &chip);
    let ctx = FitnessContext::new(&net, &seq, &validity, &chip, 8, knobs.kind)
        .with_timing_mode(knobs.timing)
        .with_schedule_mode(knobs.schedule)
        .with_system_target(knobs.system);
    let params = GaParams { early_stop_patience: 0, ..GaParams::paper() };
    let mut rng = StdRng::seed_from_u64(1);
    let (best, trace) = ga::run(&ctx, &params, &mut rng);
    let trace_json = serde_json::to_string(&trace).expect("trace serializes");
    let got = (best.group.cuts().to_vec(), best.pgf.to_bits(), fnv1a(trace_json.as_bytes()));
    assert_eq!(
        got,
        (want.cuts.to_vec(), want.pgf_bits, want.trace_hash),
        "{name}: GA output moved (cuts, pgf bits, trace hash)"
    );
}

#[test]
fn resnet18_s_8_winner_is_pinned() {
    check(
        "resnet18-S-8",
        zoo::resnet18(),
        ChipSpec::chip_s(),
        Knobs::default(),
        Pinned {
            cuts: &[3, 9, 17, 30, 46, 61, 74, 87, 89],
            pgf_bits: 4702599793963171840,
            trace_hash: 14516890759118188013,
        },
    );
}

#[test]
fn squeezenet_l_8_winner_is_pinned() {
    check(
        "squeezenet-L-8",
        zoo::squeezenet(),
        ChipSpec::chip_l(),
        Knobs::default(),
        Pinned {
            cuts: &[3, 7, 13, 22],
            pgf_bits: 4696257144637358080,
            trace_hash: 10282742382766878862,
        },
    );
}

#[test]
fn vgg16_s_8_winner_is_pinned() {
    check(
        "vgg16-S-8",
        zoo::vgg16(),
        ChipSpec::chip_s(),
        Knobs::default(),
        Pinned {
            cuts: &[
                9, 17, 32, 45, 60, 61, 72, 81, 92, 100, 114, 119, 133, 146, 157, 170, 181, 184,
                195, 201, 216, 231, 244, 253, 267, 278, 294, 300, 315, 323, 334, 344, 360, 374,
                380, 386, 394, 404, 415, 420, 429, 445, 451, 455, 461, 467, 478, 491, 500, 509,
                513, 527, 539, 547, 560, 568, 570, 583, 598, 604, 616, 628, 641, 645, 660, 664,
                680, 695, 708, 723, 732, 748, 762, 778, 789, 799, 811, 821, 837, 839, 853, 861,
                871, 881, 884, 892, 901, 910, 912, 923, 925, 940, 941, 946, 956, 968,
            ],
            pgf_bits: 4716163354975010816,
            trace_hash: 7556146442803687681,
        },
    );
}

#[test]
fn squeezenet_l_8_interleaved_winner_is_pinned() {
    check(
        "squeezenet-L-8 interleaved",
        zoo::squeezenet(),
        ChipSpec::chip_l(),
        Knobs { schedule: ScheduleMode::Interleaved, ..Knobs::default() },
        Pinned {
            cuts: &[2, 6, 12, 20, 23, 25, 26],
            pgf_bits: 4693695403877466112,
            trace_hash: 15468027245503214146,
        },
    );
}

#[test]
fn resnet18_s_8_ring2_pipeline_winner_is_pinned() {
    check(
        "resnet18-S-8 ring:2 pipeline",
        zoo::resnet18(),
        ChipSpec::chip_s(),
        Knobs { system: ring2(SystemStrategy::LayerPipeline), ..Knobs::default() },
        Pinned {
            cuts: &[3, 13, 30, 40, 55, 71, 87],
            pgf_bits: 4703208313788039168,
            trace_hash: 4366482837910282026,
        },
    );
}

#[test]
fn resnet18_s_8_ring2_batch_shard_winner_is_pinned() {
    check(
        "resnet18-S-8 ring:2 batch shard",
        zoo::resnet18(),
        ChipSpec::chip_s(),
        Knobs { system: ring2(SystemStrategy::BatchShard), ..Knobs::default() },
        Pinned {
            cuts: &[4, 9, 13, 22, 30, 44, 55, 71, 87],
            pgf_bits: 4700240433136009216,
            trace_hash: 2648899207122821672,
        },
    );
}

#[test]
fn resnet18_s_8_closed_loop_winner_is_pinned() {
    check(
        "resnet18-S-8 closed-loop",
        zoo::resnet18(),
        ChipSpec::chip_s(),
        Knobs { timing: TimingMode::ClosedLoop, ..Knobs::default() },
        Pinned {
            cuts: &[3, 9, 17, 30, 41, 55, 71, 87],
            pgf_bits: 4702764310895875413,
            trace_hash: 2823764620557091628,
        },
    );
}

#[test]
fn squeezenet_l_8_edp_winner_is_pinned() {
    check(
        "squeezenet-L-8 EDP",
        zoo::squeezenet(),
        ChipSpec::chip_l(),
        Knobs { kind: FitnessKind::Edp, ..Knobs::default() },
        Pinned {
            cuts: &[2, 5, 8, 11, 14, 17, 20, 23, 25],
            pgf_bits: 4675965189459718431,
            trace_hash: 17252117453439693535,
        },
    );
}

#[test]
fn serial_evaluation_is_reproducible() {
    let chip = ChipSpec::chip_s();
    let net = zoo::resnet18();
    let seq = decompose(&net, &chip);
    let validity = ValidityMap::build(&seq, &chip);
    let run = |seed: u64| {
        let ctx = FitnessContext::new(&net, &seq, &validity, &chip, 8, FitnessKind::Latency);
        let mut rng = StdRng::seed_from_u64(seed);
        let (best, trace) = ga::run(&ctx, &GaParams::fast(), &mut rng);
        let trace_json = serde_json::to_string(&trace).expect("trace serializes");
        (best.group.cuts().to_vec(), best.pgf.to_bits(), trace_json, ctx.cache_len())
    };
    for seed in [11, 12, 13] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.0, b.0, "seed {seed}: best chromosome diverged");
        assert_eq!(a.1, b.1, "seed {seed}: best fitness bits diverged");
        assert_eq!(a.2, b.2, "seed {seed}: fitness trace diverged");
        assert_eq!(a.3, b.3, "seed {seed}: memo contents diverged");
    }
}
