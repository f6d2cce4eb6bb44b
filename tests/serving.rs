//! Open-loop serving invariants.
//!
//! Pins the serving-frontend contract: a Poisson-driven ring:2 run
//! reports tail percentiles and goodput, is byte-deterministic per
//! seed, batching policies trade queueing delay against round count,
//! admission control drops overload instead of queueing unboundedly,
//! and the SLO accounting separates goodput from raw throughput.

use pim_arch::{ChipSpec, Topology};
use pim_isa::{ChipProgram, CoreId, Instruction};
use pim_sim::{
    BatchPolicy, ChipLoad, RequestTrace, ServingConfig, SimReport, SystemSimulator, TrafficModel,
    TrafficSpec,
};

fn mvm_program(cores: usize, waves: usize) -> ChipProgram {
    let mut program = ChipProgram::new(cores);
    for c in 0..4 {
        program.core_mut(CoreId(c)).push(Instruction::Mvmul { waves, activations: 64, node: 0 });
    }
    program
}

/// A 2-chip ring pipeline: chip 0 runs a stage and hands off to
/// chip 1, per round.
fn ring2_run(serving: &ServingConfig, waves: usize) -> SimReport {
    let chip = ChipSpec::chip_s();
    let stage = mvm_program(chip.cores, waves);
    let loads = [
        ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(1, 4096),
        ChipLoad::new(std::slice::from_ref(&stage)),
    ];
    SystemSimulator::new(chip, Topology::ring(2)).run_serving(&loads, serving).expect("serves")
}

fn poisson(rate_per_s: f64, seed: u64, requests: usize) -> TrafficSpec {
    TrafficSpec::Synthetic { model: TrafficModel::Poisson { rate_per_s }, seed, requests }
}

#[test]
fn ring2_poisson_run_reports_percentiles_and_goodput() {
    let config = ServingConfig::new(poisson(2e5, 42, 40));
    let report = ring2_run(&config, 50);
    let serving = report.serving.as_ref().expect("serving section present");
    assert_eq!(serving.requests, 40);
    assert_eq!(serving.dropped, 0);
    assert_eq!(serving.rounds, 40, "immediate dispatch forms one round per request");
    assert!(serving.p50_ns > 0.0);
    assert!(serving.p50_ns <= serving.p99_ns, "percentiles are monotone");
    assert!(serving.p99_ns <= serving.p999_ns, "percentiles are monotone");
    assert!(serving.goodput_rps > 0.0);
    assert_eq!(serving.records.len(), 40);
    assert_eq!(report.batch, 40, "batch reflects the served requests");
    // The per-request timeline is causally ordered.
    for r in &serving.records {
        assert!(r.start_ns >= r.arrival_ns, "no request starts before it arrives");
        assert!(r.finish_ns > r.start_ns);
    }
    // Both chips executed every round.
    let chips = report.chips.as_ref().expect("multi-chip section");
    assert_eq!(chips[0].rounds, 40);
    assert_eq!(chips[1].rounds, 40);
}

#[test]
fn serving_is_byte_deterministic_per_seed() {
    let config = ServingConfig::new(poisson(3e5, 7, 24));
    let a = serde_json::to_string(&ring2_run(&config, 20)).unwrap();
    let b = serde_json::to_string(&ring2_run(&config, 20)).unwrap();
    assert_eq!(a, b, "same seed, same bytes");
    let other = ServingConfig::new(poisson(3e5, 8, 24));
    let c = serde_json::to_string(&ring2_run(&other, 20)).unwrap();
    assert_ne!(a, c, "a different seed reshapes the arrival stream");
}

#[test]
fn mmpp_bursts_fatten_the_tail() {
    // Same mean rate: the bursty source must queue harder at the tail
    // than the memoryless one.
    let mmpp = TrafficModel::Mmpp {
        calm_rate_per_s: 4e4,
        burst_rate_per_s: 1.2e6,
        mean_calm_s: 2e-3,
        mean_burst_s: 4e-4,
    };
    let requests = 120;
    let bursty = ServingConfig::new(TrafficSpec::Synthetic { model: mmpp, seed: 5, requests });
    let steady = ServingConfig::new(poisson(mmpp.mean_rate_per_s(), 5, requests));
    let bursty_run = ring2_run(&bursty, 100);
    let steady_run = ring2_run(&steady, 100);
    let p99 = |r: &SimReport| r.serving.as_ref().unwrap().p99_ns;
    assert!(
        p99(&bursty_run) > p99(&steady_run),
        "MMPP p99 ({} ns) must exceed Poisson p99 ({} ns) at equal mean load",
        p99(&bursty_run),
        p99(&steady_run)
    );
}

#[test]
fn max_size_batching_trades_queueing_for_rounds() {
    // Underloaded on purpose (arrivals far slower than service): the
    // immediate policy then serves each request nearly on arrival,
    // while max-size batching makes early requests wait for the batch
    // to fill — the policy's cost, isolated from backlog queueing.
    let traffic = poisson(1e5, 11, 32);
    let immediate = ring2_run(&ServingConfig::new(traffic.clone()), 10);
    let batched = ring2_run(&ServingConfig::new(traffic).with_policy(BatchPolicy::MaxSize(8)), 10);
    let imm = immediate.serving.as_ref().unwrap();
    let bat = batched.serving.as_ref().unwrap();
    assert_eq!(imm.rounds, 32);
    assert_eq!(bat.rounds, 32 / 8, "batching collapses rounds");
    assert_eq!(bat.requests, 32, "every request is still served");
    assert!(
        bat.mean_queue_ns > imm.mean_queue_ns,
        "waiting for a full batch queues longer ({} vs {} ns)",
        bat.mean_queue_ns,
        imm.mean_queue_ns
    );
}

#[test]
fn deadline_policy_bounds_the_wait_for_stragglers() {
    // Two requests: one at t=0, one far later. A pure max-size-2
    // policy holds the first hostage until the second arrives; the
    // deadline cuts a partial batch after the timeout.
    let trace = TrafficSpec::Trace(RequestTrace { arrivals_ns: vec![0.0, 5e6] });
    let hostage =
        ring2_run(&ServingConfig::new(trace.clone()).with_policy(BatchPolicy::MaxSize(2)), 10);
    let bounded = ring2_run(
        &ServingConfig::new(trace)
            .with_policy(BatchPolicy::Deadline { max_size: 2, timeout_ns: 1e4 }),
        10,
    );
    let h = hostage.serving.as_ref().unwrap();
    let b = bounded.serving.as_ref().unwrap();
    assert_eq!(h.rounds, 1, "max-size waits for the straggler");
    assert_eq!(b.rounds, 2, "the deadline flushes a partial batch");
    // The first request's latency collapses from ~5 ms to ~the
    // timeout plus service.
    assert!(h.records[0].latency_ns() > 5e6);
    assert!(
        b.records[0].latency_ns() < 1e6,
        "deadline-bounded latency was {} ns",
        b.records[0].latency_ns()
    );
}

#[test]
fn full_queues_drop_instead_of_queueing_unboundedly() {
    // A tight burst against a long service time and a 4-slot queue:
    // admission control must shed load, and the books must balance.
    let arrivals_ns: Vec<f64> = (0..32).map(|i| i as f64).collect();
    let trace = TrafficSpec::Trace(RequestTrace { arrivals_ns });
    let config = ServingConfig::new(trace).with_queue_capacity(4).with_max_inflight(1);
    let report = ring2_run(&config, 2_000);
    let serving = report.serving.as_ref().unwrap();
    assert!(serving.dropped > 0, "the overload must shed");
    assert_eq!(serving.requests + serving.dropped, 32, "served + dropped = offered");
    assert_eq!(serving.records.len(), serving.requests);
}

#[test]
fn slo_violations_split_goodput_from_throughput() {
    let traffic = poisson(2e5, 19, 24);
    let lax = ring2_run(&ServingConfig::new(traffic.clone()).with_slo_ns(1e12), 200);
    let strict = ring2_run(&ServingConfig::new(traffic).with_slo_ns(1.0), 200);
    let lax_s = lax.serving.as_ref().unwrap();
    let strict_s = strict.serving.as_ref().unwrap();
    assert_eq!(lax_s.slo_violations, 0);
    assert!(lax_s.goodput_rps > 0.0);
    assert_eq!(strict_s.slo_violations, strict_s.requests, "a 1 ns SLO fails everything");
    assert_eq!(strict_s.goodput_rps, 0.0);
    // Identical traffic and system: the SLO only reclassifies.
    assert_eq!(lax_s.p99_ns, strict_s.p99_ns);
}

#[test]
fn serving_rejects_nonsense_configs() {
    use pim_sim::SimError;
    let chip = ChipSpec::chip_s();
    let stage = mvm_program(chip.cores, 10);
    let loads = [
        ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(1, 4096),
        ChipLoad::new(std::slice::from_ref(&stage)),
    ];
    let sim = SystemSimulator::new(chip.clone(), Topology::ring(2));
    let traffic = poisson(1e5, 1, 4);
    let zero_queue = ServingConfig::new(traffic.clone()).with_queue_capacity(0);
    assert!(matches!(sim.run_serving(&loads, &zero_queue), Err(SimError::InvalidServing(_))));
    let zero_inflight = ServingConfig::new(traffic.clone()).with_max_inflight(0);
    assert!(matches!(sim.run_serving(&loads, &zero_inflight), Err(SimError::InvalidServing(_))));
    let zero_batch = ServingConfig::new(traffic.clone()).with_policy(BatchPolicy::MaxSize(0));
    assert!(matches!(sim.run_serving(&loads, &zero_batch), Err(SimError::InvalidServing(_))));
    // Times, rates and dwell means out of their domain are refused up
    // front instead of panicking mid-run or being silently misread.
    let deadline = |timeout_ns| {
        ServingConfig::new(traffic.clone())
            .with_policy(BatchPolicy::Deadline { max_size: 4, timeout_ns })
    };
    let slo = |slo_ns| ServingConfig::new(traffic.clone()).with_slo_ns(slo_ns);
    let mmpp = |calm_rate_per_s, mean_calm_s| {
        ServingConfig::new(TrafficSpec::Synthetic {
            model: TrafficModel::Mmpp {
                calm_rate_per_s,
                burst_rate_per_s: 1e6,
                mean_calm_s,
                mean_burst_s: 1e-4,
            },
            seed: 1,
            requests: 4,
        })
    };
    let out_of_domain = [
        ("infinite deadline", deadline(f64::INFINITY)),
        ("NaN deadline", deadline(f64::NAN)),
        ("negative deadline", deadline(-1.0)),
        ("NaN SLO", slo(f64::NAN)),
        ("infinite SLO", slo(f64::INFINITY)),
        ("negative SLO", slo(-1.0)),
        ("negative Poisson rate", ServingConfig::new(poisson(-1.0, 1, 4))),
        ("NaN Poisson rate", ServingConfig::new(poisson(f64::NAN, 1, 4))),
        ("negative MMPP rate", mmpp(-1.0, 1e-3)),
        ("NaN MMPP rate", mmpp(f64::NAN, 1e-3)),
        ("zero MMPP dwell mean", mmpp(1e5, 0.0)),
        ("infinite MMPP dwell mean", mmpp(1e5, f64::INFINITY)),
        ("NaN MMPP dwell mean", mmpp(1e5, f64::NAN)),
    ];
    for (what, config) in out_of_domain {
        assert!(
            matches!(sim.run_serving(&loads, &config), Err(SimError::InvalidServing(_))),
            "{what} was not refused"
        );
    }
    // An all-idle system has nothing to serve on.
    let idle = [ChipLoad::new(&[]), ChipLoad::new(&[])];
    assert!(matches!(
        sim.run_serving(&idle, &ServingConfig::new(traffic)),
        Err(SimError::InvalidServing(_))
    ));
}

#[test]
fn malformed_request_traces_are_typed_errors() {
    use pim_sim::SimError;
    let unparsable = [
        ("truncated", r#"{"arrivals_ns": [1.0, 2.0"#),
        ("arrivals not a list", r#"{"arrivals_ns": 5.0}"#),
        ("arrival not a number", r#"{"arrivals_ns": ["1.0"]}"#),
        ("top level not an object", "[1.0, 2.0]"),
        ("missing field", "{}"),
        ("trailing input", r#"{"arrivals_ns": [1.0]} {"#),
        ("bad escape", r#"{"arrivals_ns": [1.0], "note": "\q"}"#),
    ];
    for (what, json) in unparsable {
        assert!(serde_json::from_str::<RequestTrace>(json).is_err(), "{what} parsed: {json}");
    }
    let chip = ChipSpec::chip_s();
    let stage = mvm_program(chip.cores, 10);
    let loads = [
        ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(1, 4096),
        ChipLoad::new(std::slice::from_ref(&stage)),
    ];
    let sim = SystemSimulator::new(chip, Topology::ring(2));
    let out_of_range = [
        ("overflowing arrival", r#"{"arrivals_ns": [1e999]}"#),
        ("negative arrival", r#"{"arrivals_ns": [-1.0]}"#),
    ];
    for (what, json) in out_of_range {
        let trace: RequestTrace = serde_json::from_str(json).expect("parses as numbers");
        let config = ServingConfig::new(TrafficSpec::Trace(trace));
        assert!(
            matches!(sim.run_serving(&loads, &config), Err(SimError::InvalidServing(_))),
            "{what} was served"
        );
    }
}

#[test]
fn empty_traffic_serves_nothing_gracefully() {
    let config = ServingConfig::new(poisson(0.0, 3, 100));
    let report = ring2_run(&config, 10);
    let serving = report.serving.as_ref().unwrap();
    assert_eq!(serving.requests, 0);
    assert_eq!(serving.rounds, 0);
    assert_eq!(serving.p999_ns, 0.0, "empty buffer reports zero percentiles");
    assert_eq!(report.makespan_ns, 0.0);
}

/// FNV-1a over the report bytes: stable across toolchains, unlike
/// `std`'s `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn hand_off_waits_are_pinned() {
    // A slow producer feeding a fast consumer: the consumer's round
    // heads block on hand-offs, so `handoff_wait_ns` is non-zero and
    // depends on exactly when each head became blocked. The hashes pin
    // the report bytes of fixed-round and serving runs under both
    // stage schedules, so a change to the sequencer's upstream-wait
    // bookkeeping that claims to keep every byte is checked against the
    // bytes the previous code wrote.
    use pim_arch::ScheduleMode;
    let chip = ChipSpec::chip_s();
    // Two partitions per chip on disjoint core halves, so interleaving
    // overlaps a round's tail with the next round's head.
    let halves = |waves: usize| -> Vec<ChipProgram> {
        (0..2)
            .map(|p| {
                let mut program = ChipProgram::new(chip.cores);
                for c in 4 * p..4 * p + 4 {
                    program.core_mut(CoreId(c)).push(Instruction::Mvmul {
                        waves,
                        activations: 64,
                        node: p,
                    });
                }
                program
            })
            .collect()
    };
    let (producer, consumer) = (halves(30), halves(8));
    let loads = [ChipLoad::new(&producer).with_handoff(1, 4096), ChipLoad::new(&consumer)];
    let serving = ServingConfig::new(poisson(4e5, 5, 48))
        .with_policy(BatchPolicy::Deadline { max_size: 3, timeout_ns: 2e3 });
    let pins = [
        (ScheduleMode::Barrier, 7_840_747_765_904_425_067, 1_688_166_735_493_214_424),
        (ScheduleMode::Interleaved, 7_737_271_368_226_187_078, 15_528_596_223_450_575_482),
    ];
    for (schedule, rounds_pin, serving_pin) in pins {
        let sim =
            SystemSimulator::new(chip.clone(), Topology::ring(2)).with_schedule_mode(schedule);
        let rounds = sim.run(&loads, 6, 1).expect("runs");
        let served = sim.run_serving(&loads, &serving).expect("serves");
        for report in [&rounds, &served] {
            let chips = report.chips.as_ref().expect("multi-chip section");
            assert!(chips[1].handoff_wait_ns > 0.0, "{schedule:?}: the consumer waits");
        }
        let hash = |r: &SimReport| fnv1a(serde_json::to_string(r).unwrap().as_bytes());
        assert_eq!(hash(&rounds), rounds_pin, "{schedule:?}: fixed-round report bytes moved");
        assert_eq!(hash(&served), serving_pin, "{schedule:?}: serving report bytes moved");
    }
}
