//! **Extension**: analytic vs closed-loop memory timing.
//!
//! The paper's methodology charges a flat per-access latency on the
//! chip's memory channel (`Analytic` mode — reproduces the paper's
//! tables). `ClosedLoop` mode instead blocks each core on the in-line
//! multi-channel LPDDR3 controllers, so bank conflicts, row hits and
//! channel interleaving shape the critical path. This sweep compares
//! both modes across the paper's workloads, and scales the closed-loop
//! channel count to show where the analytic model over- or
//! under-charges memory time.

use compass::Strategy;
use compass_bench::{
    append_records, arg_value, geomean, has_flag, print_table, run_config, run_config_scheduled,
    BenchMode, BenchRecord, BATCHES, NETWORKS,
};
use pim_arch::{ChipClass, ScheduleMode, TimingMode};

fn main() {
    let mode = BenchMode::from_args();
    // `--quick` is the CI bench-smoke configuration: greedy
    // partitioning, no GA.
    let strategy = if has_flag("--quick") { Strategy::Greedy } else { Strategy::Compass };
    // `--schedule <barrier|interleaved>` selects the intra-chip stage
    // dispatch; the mode is part of every record name so baselines
    // cannot mix modes silently.
    let schedule: ScheduleMode = arg_value("--schedule")
        .map(|raw| raw.parse().unwrap_or_else(|e| panic!("--schedule: {e}")))
        .unwrap_or_default();
    let batches = [BATCHES[0], BATCHES[2], BATCHES[4]]; // 1, 4, 16

    // Barrier mode keeps the paper's single cycle; interleaving only
    // overlaps *consecutive* cycles, so its measurements need several.
    let rounds = match schedule {
        ScheduleMode::Barrier => 1,
        ScheduleMode::Interleaved => 4,
    };

    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    let mut records: Vec<BenchRecord> = Vec::new();
    for net in NETWORKS {
        for batch in batches {
            let analytic = run_config_scheduled(
                net,
                ChipClass::S,
                strategy,
                batch,
                rounds,
                mode,
                TimingMode::Analytic,
                schedule,
            );
            let closed = run_config_scheduled(
                net,
                ChipClass::S,
                strategy,
                batch,
                rounds,
                mode,
                TimingMode::ClosedLoop,
                schedule,
            );
            for (result, timing) in
                [(&analytic, TimingMode::Analytic), (&closed, TimingMode::ClosedLoop)]
            {
                // The scheme and schedule are part of the name: a
                // baseline regenerated without --quick (GA) or under a
                // different schedule can never silently shadow the CI
                // records.
                records.push(BenchRecord {
                    name: format!(
                        "timing:{}x{rounds}:{timing}:{strategy}:{schedule}",
                        result.label
                    ),
                    makespan_ns: result.simulated.makespan_ns,
                    throughput_ips: result.throughput(),
                    host_parallelism: None,
                });
            }
            let ratio = closed.simulated.makespan_ns / analytic.simulated.makespan_ns;
            ratios.push(ratio);
            let channels = closed.simulated.dram_channels.as_deref().unwrap_or(&[]);
            let util = channels.iter().map(|c| c.utilization()).fold(0.0, f64::max);
            let hits = {
                let (h, a) = channels
                    .iter()
                    .fold((0u64, 0u64), |(h, a), c| (h + c.row_hits, a + c.activates));
                if h + a == 0 {
                    0.0
                } else {
                    h as f64 / (h + a) as f64
                }
            };
            rows.push(vec![
                analytic.label.clone(),
                format!("{:.1}", analytic.throughput()),
                format!("{:.1}", closed.throughput()),
                format!("{ratio:.3}"),
                format!("{:.1}%", 100.0 * util),
                format!("{:.1}%", 100.0 * hits),
            ]);
        }
    }
    print_table(
        &format!("Timing-mode sweep: Chip-S under {strategy} ({schedule} schedule)"),
        &[
            "Config",
            "Analytic (inf/s)",
            "Closed-loop (inf/s)",
            "CL/A latency",
            "Peak ch. util",
            "Row-hit rate",
        ],
        &rows,
    );

    if let Some(path) = arg_value("--json") {
        let count = records.len();
        append_records(&path, records);
        println!("\nwrote {count} perf records to {path}");
    }

    // Channel scaling: the closed-loop model rewards extra channels,
    // the analytic model cannot see them.
    use pim_sim::ChipSimulator;
    let base = run_config("resnet18", ChipClass::S, Strategy::Greedy, 4, mode);
    let mut scale_rows = Vec::new();
    for channels in [1usize, 2, 4] {
        let report = ChipSimulator::new(pim_arch::ChipSpec::preset(ChipClass::S))
            .with_timing_mode(TimingMode::ClosedLoop)
            .with_dram_channels(channels)
            .run(base.compiled.programs(), 4)
            .expect("simulates");
        scale_rows.push(vec![
            channels.to_string(),
            format!("{:.1}", report.throughput_ips()),
            format!("{:.3}", report.makespan_ns / base.simulated.makespan_ns),
        ]);
    }
    print_table(
        "Closed-loop channel scaling: ResNet18-S-4 (greedy)",
        &["Channels", "Throughput (inf/s)", "CL/A latency"],
        &scale_rows,
    );

    println!(
        "\ngeomean closed-loop/analytic latency ratio: {:.3} (Analytic reproduces the paper's tables; ClosedLoop exposes bank conflicts and channel scaling)",
        geomean(&ratios)
    );
}
