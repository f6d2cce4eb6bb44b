//! **Extension**: open-loop serving sweep.
//!
//! Compiles each workload onto a 2-chip ring pipeline, then drives it
//! with open-loop request traffic instead of a fixed round count:
//! Poisson and bursty MMPP arrivals through the batching-policy zoo
//! (immediate dispatch, max-batch-size, batch-vs-deadline). Every
//! point reports the tail — p50/p99/p999 latency, queueing delay,
//! drops — and SLO goodput, and emits one `serving:*` perf-trajectory
//! record carrying **p99 latency in `makespan_ns`** and **goodput in
//! `throughput_ips`** (the gate's makespan direction — lower is
//! better — matches tail latency exactly).
//!
//! Arrival rates are calibrated against the pipeline's own simulated
//! round time (a fixed utilization, not a fixed req/s), so every
//! workload queues meaningfully without saturating. The calibration
//! and the arrival streams are seeded and simulated, so records are
//! byte-deterministic and the gate stays exact.
//!
//! Flags:
//!
//! * `--quick` — greedy partitioning, squeezenet only (the CI
//!   bench-smoke configuration);
//! * `--paper` — the paper's GA hyper-parameters;
//! * `--json <path>` — merge this run's `serving:*` records into
//!   `path` (`BENCH_ci.json` in CI).

use std::process::ExitCode;

use compass::{Strategy, SystemStrategy};
use compass_bench::{
    append_records, arg_value, has_flag, print_table, run_system_config, system_loads, BenchMode,
    BenchRecord,
};
use pim_arch::{ChipClass, ChipSpec, ScheduleMode, TimingMode, Topology};
use pim_sim::{
    BatchPolicy, ServingConfig, ServingReport, SystemSimulator, TrafficModel, TrafficSpec,
};

/// One traffic × batching point of the sweep.
struct SweepPoint {
    /// Stable suffix of the record name, e.g. `"poisson-immediate"`.
    key: &'static str,
    traffic: TrafficModel,
    policy: BatchPolicy,
}

/// The sweep's traffic/policy grid, rate-calibrated so the Poisson
/// points offer `util` of the pipeline's service capacity.
fn sweep_points(service_ns: f64, batch: usize) -> Vec<SweepPoint> {
    let util = 0.6;
    let rate_per_s = util / (service_ns * 1e-9);
    let poisson = TrafficModel::Poisson { rate_per_s };
    // Bursts at 3x service capacity against long calm valleys, same
    // order of mean load as the Poisson points.
    let mmpp = TrafficModel::Mmpp {
        calm_rate_per_s: 0.3 * rate_per_s / util,
        burst_rate_per_s: 3.0 * rate_per_s / util,
        mean_calm_s: 8.0 * service_ns * 1e-9,
        mean_burst_s: 2.0 * service_ns * 1e-9,
    };
    vec![
        SweepPoint { key: "poisson-immediate", traffic: poisson, policy: BatchPolicy::Immediate },
        SweepPoint { key: "poisson-batch", traffic: poisson, policy: BatchPolicy::MaxSize(batch) },
        SweepPoint {
            key: "poisson-deadline",
            traffic: poisson,
            policy: BatchPolicy::Deadline { max_size: batch, timeout_ns: service_ns / 2.0 },
        },
        SweepPoint { key: "mmpp-immediate", traffic: mmpp, policy: BatchPolicy::Immediate },
    ]
}

fn main() -> ExitCode {
    let mode = BenchMode::from_args();
    let quick = has_flag("--quick");
    let strategy = if quick { Strategy::Greedy } else { Strategy::Compass };
    let nets: &[&str] = if quick { &["squeezenet"] } else { &["squeezenet", "resnet18"] };
    let requests = if quick { 96 } else { 256 };
    let batch = 4;
    let topology = Topology::ring(2);

    let mut records: Vec<BenchRecord> = Vec::new();
    let mut rows = Vec::new();
    for net in nets {
        // Compile once per network and reuse the planned loads for
        // every traffic point; the closed-loop 2-round run doubles as
        // the service-time probe for rate calibration.
        let planned = run_system_config(
            net,
            ChipClass::S,
            strategy,
            SystemStrategy::LayerPipeline,
            &topology,
            batch,
            2,
            mode,
            TimingMode::Analytic,
            ScheduleMode::Barrier,
        );
        let loads = system_loads(&planned.schedule);
        let service_ns = planned.report.makespan_ns / 2.0;
        let sim = SystemSimulator::new(ChipSpec::preset(ChipClass::S), topology.clone());
        for point in sweep_points(service_ns, batch) {
            let traffic = TrafficSpec::Synthetic { model: point.traffic, seed: 2025, requests };
            let config =
                ServingConfig::new(traffic).with_policy(point.policy).with_slo_ns(5.0 * service_ns);
            let label = format!("{net}-S-{topology}-{}", point.key);
            let report =
                sim.run_serving(&loads, &config).unwrap_or_else(|e| panic!("serving:{label}: {e}"));
            let serving = report.serving.expect("serving runs carry a serving section");
            records.push(BenchRecord {
                name: format!("serving:{label}:{strategy}"),
                makespan_ns: serving.p99_ns,
                throughput_ips: serving.goodput_rps,
                host_parallelism: None,
            });
            rows.push(summary_row(&label, &serving));
        }
    }

    print_table(
        &format!(
            "Open-loop serving sweep (ring:2 layer pipeline, batch {batch}, {requests} requests)"
        ),
        &[
            "Config",
            "Served",
            "Dropped",
            "Rounds",
            "p50 (us)",
            "p99 (us)",
            "p999 (us)",
            "Mean queue (us)",
            "Goodput (req/s)",
        ],
        &rows,
    );

    if let Some(path) = arg_value("--json") {
        let count = records.len();
        append_records(&path, records);
        println!("\nwrote {count} perf records to {path}");
    }
    ExitCode::SUCCESS
}

fn summary_row(label: &str, s: &ServingReport) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{}", s.requests),
        format!("{}", s.dropped),
        format!("{}", s.rounds),
        format!("{:.1}", s.p50_ns / 1000.0),
        format!("{:.1}", s.p99_ns / 1000.0),
        format!("{:.1}", s.p999_ns / 1000.0),
        format!("{:.1}", s.mean_queue_ns / 1000.0),
        format!("{:.1}", s.goodput_rps),
    ]
}
