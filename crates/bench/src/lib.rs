//! # compass-bench — harness regenerating the COMPASS paper's tables and figures
//!
//! Each binary in `src/bin/` regenerates one table or figure:
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `table1` | Table I (hardware configurations) |
//! | `table2` | Table II (model sizes & compiler support) |
//! | `fig5_validity` | Fig. 5 (partition validity maps) |
//! | `fig6_throughput` | Fig. 6 (throughput vs batch/chip/scheme) |
//! | `fig7_latency_breakdown` | Fig. 7 (per-partition latency) |
//! | `fig8_energy_edp` | Fig. 8 (energy & EDP vs batch) |
//! | `fig9_weight_energy` | Fig. 9 (replacement energy vs MVM) |
//! | `fig10_convergence` | Fig. 10 (GA fitness evolution) |
//! | `ablation_mutation` | extension: mutation-operator ablation |
//! | `technology_sweep` | extension: SRAM/ReRAM/MRAM write-cost sweep |
//! | `timing_mode_sweep` | extension: analytic vs closed-loop DRAM timing |
//! | `topology_sweep` | extension: multi-chip ring / fully-connected scaling |
//! | `serving_sweep` | extension: open-loop serving tails (p99, goodput) |
//!
//! All binaries run in *fast* GA mode by default so the full suite
//! completes in minutes; pass `--paper` for the paper's GA
//! hyper-parameters (population 100, 30 generations).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use compass::scheduler::CHUNKS_PER_SAMPLE;
use compass::{
    plan_system, CompileOptions, CompiledModel, Compiler, GaParams, Strategy, SystemSchedule,
    SystemStrategy, SystemTarget,
};
use pim_arch::{ChipClass, ChipSpec, ScheduleMode, TimingMode, Topology};
use pim_model::{zoo, Network};
use pim_sim::{ChipLoad, ChipSimulator, SimReport, SystemSimulator};
use serde::{Deserialize, Serialize};

/// The paper's three benchmark networks.
pub const NETWORKS: [&str; 3] = ["vgg16", "resnet18", "squeezenet"];

/// The paper's batch-size sweep.
pub const BATCHES: [usize; 5] = [1, 2, 4, 8, 16];

/// The three partitioning schemes compared throughout the evaluation.
pub const STRATEGIES: [Strategy; 3] = [Strategy::Greedy, Strategy::Layerwise, Strategy::Compass];

/// Looks up a zoo network by name.
///
/// # Panics
///
/// Panics on unknown names (bench binaries hard-code valid ones).
pub fn network(name: &str) -> Network {
    match name {
        "vgg16" => zoo::vgg16(),
        "resnet18" => zoo::resnet18(),
        "squeezenet" => zoo::squeezenet(),
        "tiny_cnn" => zoo::tiny_cnn(),
        "tiny_resnet" => zoo::tiny_resnet(),
        other => panic!("unknown network {other}"),
    }
}

/// Bench execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchMode {
    /// Reduced GA (default): fast enough for CI and iteration.
    Fast,
    /// The paper's GA parameters (§IV-A3).
    Paper,
}

impl BenchMode {
    /// Parses `--paper` from the process arguments.
    pub fn from_args() -> Self {
        if has_flag("--paper") {
            BenchMode::Paper
        } else {
            BenchMode::Fast
        }
    }

    /// GA parameters for this mode.
    pub fn ga_params(self) -> GaParams {
        match self {
            BenchMode::Fast => GaParams::fast(),
            BenchMode::Paper => GaParams::paper(),
        }
    }
}

/// One measured configuration ("Network-ChipConfig-BatchSize" in the
/// paper's labeling, plus the scheme).
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// e.g. `"resnet18-S-4"`.
    pub label: String,
    /// The scheme that produced it.
    pub strategy: Strategy,
    /// Compiler output.
    pub compiled: CompiledModel,
    /// Simulator output.
    pub simulated: SimReport,
}

impl ConfigResult {
    /// Simulated throughput, inferences/s.
    pub fn throughput(&self) -> f64 {
        self.simulated.throughput_ips()
    }
}

/// Compiles and simulates one configuration the paper's way: analytic
/// memory timing, barrier scheduling, one batch cycle.
pub fn run_config(
    net_name: &str,
    class: ChipClass,
    strategy: Strategy,
    batch: usize,
    mode: BenchMode,
) -> ConfigResult {
    run_config_scheduled(
        net_name,
        class,
        strategy,
        batch,
        1,
        mode,
        TimingMode::Analytic,
        ScheduleMode::Barrier,
    )
}

/// Compiles and simulates one configuration over `rounds` successive
/// batch cycles in explicit timing and intra-chip schedule modes.
/// Interleaving overlaps consecutive rounds, so a meaningful
/// interleaved measurement needs `rounds > 1`.
#[allow(clippy::too_many_arguments)]
pub fn run_config_scheduled(
    net_name: &str,
    class: ChipClass,
    strategy: Strategy,
    batch: usize,
    rounds: usize,
    mode: BenchMode,
    timing: TimingMode,
    schedule: ScheduleMode,
) -> ConfigResult {
    let net = network(net_name);
    let chip = ChipSpec::preset(class);
    let compiled = Compiler::new(chip.clone())
        .compile(
            &net,
            &CompileOptions::new()
                .with_batch_size(batch)
                .with_strategy(strategy)
                .with_ga(mode.ga_params())
                .with_seed(2025)
                .with_timing_mode(timing)
                .with_schedule_mode(schedule),
        )
        .unwrap_or_else(|e| panic!("{net_name}-{class}-{batch} ({strategy}): {e}"));
    let simulated = ChipSimulator::new(chip)
        .with_timing_mode(timing)
        .with_schedule_mode(schedule)
        .run_batches(compiled.programs(), rounds, batch)
        .unwrap_or_else(|e| panic!("{net_name}-{class}-{batch} ({strategy}) sim: {e}"));
    ConfigResult { label: format!("{net_name}-{class}-{batch}"), strategy, compiled, simulated }
}

/// `true` when `flag` appears verbatim in the process arguments.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// The value following `flag` in the process arguments, if any.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// One multi-chip configuration, compiled, planned onto a topology,
/// and simulated end to end.
#[derive(Debug, Clone)]
pub struct SystemConfigResult {
    /// e.g. `"resnet18-S-4x4-ring:2-layer-pipeline"`.
    pub label: String,
    /// The partitioning scheme that produced it.
    pub strategy: Strategy,
    /// The planned system schedule.
    pub schedule: SystemSchedule,
    /// Simulator output.
    pub report: SimReport,
}

impl SystemConfigResult {
    /// Simulated throughput, inferences/s.
    pub fn throughput(&self) -> f64 {
        self.report.throughput_ips()
    }

    /// The perf-trajectory record for this configuration under
    /// `timing`. The name encodes the partitioning scheme too, so a
    /// baseline regenerated under a different scheme (e.g. GA instead
    /// of the CI `--quick` greedy run) can never be compared against
    /// the wrong numbers silently.
    pub fn record(&self, timing: TimingMode) -> BenchRecord {
        BenchRecord {
            name: format!("topology:{}:{timing}:{}", self.label, self.strategy),
            makespan_ns: self.report.makespan_ns,
            throughput_ips: self.throughput(),
            host_parallelism: None,
        }
    }
}

/// Maps a planned [`SystemSchedule`] onto the system simulator's
/// per-chip loads (the one place the compiler's `(dst, bytes)`
/// hand-off tuples become `pim_sim::Handoff`s).
pub fn system_loads(schedule: &SystemSchedule) -> Vec<ChipLoad<'_>> {
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

/// Compiles one network, plans it onto `topology` under
/// `system_strategy`, and simulates `rounds` pipeline rounds in
/// explicit timing and intra-chip schedule modes. The label (and
/// therefore every [`BenchRecord`] name derived from it) carries the
/// schedule mode, so barrier and interleaved baselines can never mix
/// silently.
#[allow(clippy::too_many_arguments)]
pub fn run_system_config(
    net_name: &str,
    class: ChipClass,
    strategy: Strategy,
    system_strategy: SystemStrategy,
    topology: &Topology,
    batch: usize,
    rounds: usize,
    mode: BenchMode,
    timing: TimingMode,
    schedule_mode: ScheduleMode,
) -> SystemConfigResult {
    let net = network(net_name);
    let chip = ChipSpec::preset(class);
    let target = SystemTarget::new(topology.clone(), system_strategy);
    let mut options = CompileOptions::new()
        .with_batch_size(batch)
        .with_strategy(strategy)
        .with_ga(mode.ga_params())
        .with_seed(2025)
        .with_timing_mode(timing)
        .with_schedule_mode(schedule_mode);
    if !topology.is_single() {
        options = options.with_system_target(target.clone());
    }
    let label =
        format!("{net_name}-{class}-{batch}x{rounds}-{topology}-{system_strategy}-{schedule_mode}");
    let compiled = Compiler::new(chip.clone())
        .compile(&net, &options)
        .unwrap_or_else(|e| panic!("{label} ({strategy}): {e}"));
    let schedule = plan_system(&net, &compiled, &chip, &target, batch, CHUNKS_PER_SAMPLE)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let loads = system_loads(&schedule);
    let report = SystemSimulator::new(chip, topology.clone())
        .with_timing_mode(timing)
        .with_schedule_mode(schedule_mode)
        .run(&loads, rounds, schedule.samples_per_round)
        .unwrap_or_else(|e| panic!("{label} sim: {e}"));
    SystemConfigResult { label, strategy, schedule, report }
}

/// One point of the CI perf trajectory: simulated cycle count (and
/// throughput) of a named configuration. Deterministic for a fixed
/// seed, so regressions are exact, not noisy.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Stable configuration name.
    pub name: String,
    /// Simulated makespan, ns (the gated quantity).
    pub makespan_ns: f64,
    /// Simulated throughput, inferences/s.
    pub throughput_ips: f64,
    /// Hardware threads of the host that measured this record, for
    /// records whose value depends on them (GA-scaling wall clocks
    /// and speedup ratios). `None` for machine-independent simulated quantities.
    pub host_parallelism: Option<usize>,
}

impl BenchRecord {
    /// Stamps the record with the measuring host's hardware-thread
    /// count, marking it comparable only against baselines measured
    /// at the same parallelism.
    #[must_use]
    pub fn measured_on_this_host(mut self) -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        self.host_parallelism = Some(threads);
        self
    }
}

// Hand-written so the `host_parallelism` field is emitted only when
// present: stamped `ga:*` records round-trip, every other record (and
// every committed baseline written before the field existed) keeps
// its exact serialized form.
impl Serialize for BenchRecord {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        self.name.serialize_json(out);
        out.push_str(",\"makespan_ns\":");
        self.makespan_ns.serialize_json(out);
        out.push_str(",\"throughput_ips\":");
        self.throughput_ips.serialize_json(out);
        if let Some(threads) = &self.host_parallelism {
            out.push_str(",\"host_parallelism\":");
            threads.serialize_json(out);
        }
        out.push('}');
    }
}

impl Deserialize for BenchRecord {
    fn deserialize_json(value: &serde::json::Value) -> Result<Self, serde::json::JsonError> {
        let host_parallelism = match serde::json::field(value, "host_parallelism") {
            Ok(v) => Some(Deserialize::deserialize_json(v)?),
            Err(_) => None,
        };
        Ok(Self {
            name: Deserialize::deserialize_json(serde::json::field(value, "name")?)?,
            makespan_ns: Deserialize::deserialize_json(serde::json::field(value, "makespan_ns")?)?,
            throughput_ips: Deserialize::deserialize_json(serde::json::field(
                value,
                "throughput_ips",
            )?)?,
            host_parallelism,
        })
    }
}

/// Loads a perf-record file, returning an empty list when the file
/// does not exist.
///
/// # Panics
///
/// Panics when the file exists but cannot be read or parsed — a
/// corrupt trajectory artifact must fail the job loudly.
pub fn load_records(path: &str) -> Vec<BenchRecord> {
    match std::fs::read_to_string(path) {
        Ok(json) => serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("corrupt bench records in {path}: {e:?}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => panic!("cannot read bench records {path}: {e}"),
    }
}

/// Merges `fresh` records into the file at `path` (existing names are
/// replaced, the rest preserved), keeping the file sorted by name so
/// diffs stay readable.
///
/// # Panics
///
/// Panics when the file cannot be written, or when `fresh` itself
/// carries two records with the same name: that is a bench-binary
/// bug (two sweep points silently shadowing each other), and keeping
/// either one would make the trajectory lie. Re-running a sweep and
/// refreshing an *existing on-disk* record stays a quiet replace.
pub fn append_records(path: &str, fresh: Vec<BenchRecord>) {
    for (i, record) in fresh.iter().enumerate() {
        if let Some(dup) = fresh[..i].iter().find(|r| r.name == record.name) {
            panic!(
                "duplicate bench record {:?} in one run (makespans {} and {} ns): \
                 sweep points must have unique names",
                dup.name, dup.makespan_ns, record.makespan_ns
            );
        }
    }
    let mut records = load_records(path);
    for record in fresh {
        match records.iter_mut().find(|r| r.name == record.name) {
            Some(existing) => *existing = record,
            None => records.push(record),
        }
    }
    records.sort_by(|a, b| a.name.cmp(&b.name));
    let json = serde_json::to_string(&records).expect("records serialize");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

/// Prefix of hot-path records gated on **throughput** (higher is
/// better) instead of makespan: same-process speedup ratios from
/// `engine_hotpath`, machine-independent by construction.
pub const HOTPATH_GATE_PREFIX: &str = "hotpath:gate:";

/// Prefix of hot-path records carried in the trajectory for
/// visibility only: absolute wall-clock events/sec. They vary with
/// the machine that ran them, so the gate skips them entirely
/// (including the missing-record check).
pub const HOTPATH_ABS_PREFIX: &str = "hotpath:abs:";

/// GA-scaling counterpart of [`HOTPATH_GATE_PREFIX`]: same-process
/// speedup ratios from `ga_scaling` (memo-over-recompute), gated on
/// throughput.
pub const GA_GATE_PREFIX: &str = "ga:gate:";

/// GA-scaling counterpart of [`HOTPATH_ABS_PREFIX`]: absolute
/// wall-clock generation latencies and evaluation rates, carried for
/// visibility only.
pub const GA_ABS_PREFIX: &str = "ga:abs:";

/// `true` for trajectory records judged on **throughput** ratios
/// (higher is better) instead of makespan: the `hotpath:gate:*` and
/// `ga:gate:*` same-process speedup families.
pub fn gates_on_throughput(name: &str) -> bool {
    name.starts_with(HOTPATH_GATE_PREFIX) || name.starts_with(GA_GATE_PREFIX)
}

/// `true` for machine-dependent absolute records (`hotpath:abs:*`,
/// `ga:abs:*`) that ride in the trajectory for visibility and are
/// never gated — not even for presence.
pub fn is_ungated_abs(name: &str) -> bool {
    name.starts_with(HOTPATH_ABS_PREFIX) || name.starts_with(GA_ABS_PREFIX)
}

/// Compares a current perf trajectory against a committed baseline:
/// every baseline record must exist in `current` with a makespan no
/// more than `tolerance` (fractional) above the baseline — except
/// hot-path and GA-scaling records, which are either gated on
/// throughput ([`gates_on_throughput`]: a relative drop beyond
/// `tolerance` fails) or informational ([`is_ungated_abs`]: never
/// gated). Returns the list of violations (empty on success); new
/// configurations absent from the baseline are allowed.
pub fn check_against_baseline(
    current: &[BenchRecord],
    baseline: &[BenchRecord],
    tolerance: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for base in baseline {
        if is_ungated_abs(&base.name) {
            continue;
        }
        match current.iter().find(|r| r.name == base.name) {
            None => violations.push(format!("{}: missing from current run", base.name)),
            Some(now) if gates_on_throughput(&base.name) => {
                if base.host_parallelism != now.host_parallelism {
                    let show = |p: Option<usize>| match p {
                        Some(threads) => threads.to_string(),
                        None => "unstamped".to_string(),
                    };
                    println!(
                        "note: {} gate skipped — baseline measured at host parallelism {}, \
                         this run at {}",
                        base.name,
                        show(base.host_parallelism),
                        show(now.host_parallelism)
                    );
                    continue;
                }
                let floor = base.throughput_ips * (1.0 - tolerance);
                if now.throughput_ips < floor {
                    violations.push(format!(
                        "{}: throughput {:.3} fell more than {:.0}% below baseline {:.3}",
                        base.name,
                        now.throughput_ips,
                        100.0 * tolerance,
                        base.throughput_ips
                    ));
                }
            }
            Some(now) => {
                let limit = base.makespan_ns * (1.0 + tolerance);
                if now.makespan_ns > limit {
                    violations.push(format!(
                        "{}: makespan {} ns exceeds baseline {} ns by more than {:.0}%",
                        base.name,
                        now.makespan_ns,
                        base.makespan_ns,
                        100.0 * tolerance
                    ));
                }
            }
        }
    }
    violations
}

/// Renders the baseline-vs-current comparison as a GitHub-flavored
/// markdown table — one row per baseline record plus one per brand-new
/// current record — for the job-summary page. Columns mirror the gate:
/// the judged quantity (makespan for ordinary records, throughput for
/// `hotpath:gate:*` / `ga:gate:*` ones), its ratio against the
/// baseline, and whether the record is actually gated (`*:abs:*` and
/// cross-host speedup records ride along ungated).
pub fn markdown_delta_table(
    current: &[BenchRecord],
    baseline: &[BenchRecord],
    tolerance: f64,
) -> String {
    let fmt = |v: f64| {
        if v >= 1000.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.3}")
        }
    };
    let mut out = String::from("### Perf trajectory vs baseline\n\n");
    out.push_str(&format!("Tolerance: {:.0}%\n\n", 100.0 * tolerance));
    out.push_str("| Record | Baseline | Current | Ratio | Status |\n");
    out.push_str("|---|---|---|---|---|\n");
    for base in baseline {
        let on_throughput = gates_on_throughput(&base.name);
        let metric = |r: &BenchRecord| if on_throughput { r.throughput_ips } else { r.makespan_ns };
        let now = current.iter().find(|r| r.name == base.name);
        let (current_cell, ratio_cell) = match now {
            Some(r) => (fmt(metric(r)), format!("{:.3}", metric(r) / metric(base))),
            None => ("—".to_string(), "—".to_string()),
        };
        let status = if is_ungated_abs(&base.name) {
            "ungated"
        } else if on_throughput && now.is_some_and(|r| r.host_parallelism != base.host_parallelism)
        {
            "ungated (host parallelism differs)"
        } else if now.is_none() {
            "gated — missing"
        } else {
            "gated"
        };
        out.push_str(&format!(
            "| `{}` | {} | {current_cell} | {ratio_cell} | {status} |\n",
            base.name,
            fmt(metric(base))
        ));
    }
    for fresh in current.iter().filter(|r| baseline.iter().all(|b| b.name != r.name)) {
        out.push_str(&format!(
            "| `{}` | — | {} | — | new (ungated) |\n",
            fresh.name,
            fmt(fresh.makespan_ns)
        ));
    }
    out
}

/// Prints a markdown-style table: headers then rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Geometric mean of a slice (used for the paper's "1.78X average"
/// style summaries).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn network_lookup() {
        assert_eq!(network("resnet18").name(), "resnet18");
        assert_eq!(network("vgg16").name(), "vgg16");
    }

    #[test]
    #[should_panic(expected = "unknown network")]
    fn unknown_network_panics() {
        let _ = network("alexnet");
    }

    #[test]
    fn run_config_end_to_end_smoke() {
        let result = run_config("squeezenet", ChipClass::S, Strategy::Greedy, 2, BenchMode::Fast);
        assert!(result.throughput() > 0.0);
        assert_eq!(result.label, "squeezenet-S-2");
    }

    #[test]
    fn run_system_config_end_to_end_smoke() {
        let result = run_system_config(
            "squeezenet",
            ChipClass::S,
            Strategy::Greedy,
            SystemStrategy::LayerPipeline,
            &Topology::ring(2),
            2,
            2,
            BenchMode::Fast,
            TimingMode::Analytic,
            ScheduleMode::Barrier,
        );
        assert!(result.throughput() > 0.0);
        assert_eq!(result.label, "squeezenet-S-2x2-ring:2-layer-pipeline-barrier");
        assert_eq!(result.report.chips.as_ref().unwrap().len(), 2);
        let record = result.record(TimingMode::Analytic);
        assert_eq!(
            record.name,
            "topology:squeezenet-S-2x2-ring:2-layer-pipeline-barrier:analytic:greedy"
        );
        assert!(record.makespan_ns > 0.0);
    }

    #[test]
    fn schedule_axis_separates_record_names() {
        let run = |schedule: ScheduleMode| {
            run_system_config(
                "squeezenet",
                ChipClass::S,
                Strategy::Greedy,
                SystemStrategy::LayerPipeline,
                &Topology::single(),
                2,
                4,
                BenchMode::Fast,
                TimingMode::Analytic,
                schedule,
            )
        };
        let barrier = run(ScheduleMode::Barrier);
        let interleaved = run(ScheduleMode::Interleaved);
        let a = barrier.record(TimingMode::Analytic);
        let b = interleaved.record(TimingMode::Analytic);
        assert_ne!(a.name, b.name, "the schedule axis must be part of the record name");
        assert!(a.name.contains("barrier"));
        assert!(b.name.contains("interleaved"));
        assert!(
            b.makespan_ns <= a.makespan_ns + 1e-9,
            "interleaving never slows the simulated chip"
        );
    }

    #[test]
    fn baseline_gate_flags_regressions_and_gaps() {
        let record = |name: &str, ns: f64| BenchRecord {
            name: name.to_string(),
            makespan_ns: ns,
            throughput_ips: 1.0,
            host_parallelism: None,
        };
        let baseline = vec![record("a", 100.0), record("b", 100.0), record("gone", 100.0)];
        let current = vec![record("a", 119.0), record("b", 121.0), record("new", 50.0)];
        let violations = check_against_baseline(&current, &baseline, 0.2);
        assert_eq!(violations.len(), 2, "one regression, one missing: {violations:?}");
        assert!(violations.iter().any(|v| v.starts_with("b:")));
        assert!(violations.iter().any(|v| v.starts_with("gone:")));
        assert!(check_against_baseline(&current, &current, 0.0).is_empty());
    }

    #[test]
    fn hotpath_records_gate_on_throughput_and_abs_records_never_gate() {
        let record = |name: &str, ns: f64, ips: f64| BenchRecord {
            name: name.to_string(),
            makespan_ns: ns,
            throughput_ips: ips,
            host_parallelism: None,
        };
        let baseline = vec![
            record("hotpath:gate:queue-speedup", 0.25, 4.0),
            record("hotpath:abs:queue:run", 50.0, 2.0e7),
            record("topology:x", 100.0, 1.0),
        ];
        // Speedup within tolerance, abs record missing (machine may
        // not re-measure), makespan fine: no violations.
        let ok =
            vec![record("hotpath:gate:queue-speedup", 0.30, 3.4), record("topology:x", 105.0, 1.0)];
        assert!(check_against_baseline(&ok, &baseline, 0.2).is_empty());
        // Speedup collapsed by more than 20%: violation — and the
        // makespan field of a hotpath record is never what's judged.
        let bad =
            vec![record("hotpath:gate:queue-speedup", 0.25, 3.0), record("topology:x", 100.0, 1.0)];
        let violations = check_against_baseline(&bad, &baseline, 0.2);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("throughput"));
        // A missing *gated* hotpath record still fails.
        let gone = vec![record("topology:x", 100.0, 1.0)];
        assert!(check_against_baseline(&gone, &baseline, 0.2)
            .iter()
            .any(|v| v.contains("missing")));
    }

    #[test]
    fn ga_records_share_the_hotpath_gate_semantics() {
        assert!(gates_on_throughput("ga:gate:pop:1000:memo-speedup"));
        assert!(gates_on_throughput("hotpath:gate:queue-speedup"));
        assert!(!gates_on_throughput("ga:abs:pop:100:serial"));
        assert!(is_ungated_abs("ga:abs:pop:100:serial"));
        assert!(is_ungated_abs("hotpath:abs:queue:run"));
        assert!(!is_ungated_abs("topology:x"));
        // Plain serving sweep records gate on makespan, as ever.
        assert!(!gates_on_throughput("serving:mlp-S-ring2-poisson-immediate:greedy"));
        assert!(!is_ungated_abs("serving:mlp-S-ring2-poisson-immediate:greedy"));

        let record = |name: &str, ns: f64, ips: f64, threads: Option<usize>| BenchRecord {
            name: name.to_string(),
            makespan_ns: ns,
            throughput_ips: ips,
            host_parallelism: threads,
        };
        let baseline = vec![
            record("ga:gate:pop:1000:memo-speedup", 0.5, 2.0, Some(8)),
            record("ga:abs:pop:1000:serial", 9.0e6, 1.2e3, Some(8)),
        ];
        // Abs record absent and the gate measured on a different host:
        // nothing to judge.
        let other_host = vec![record("ga:gate:pop:1000:memo-speedup", 1.0, 1.0, Some(1))];
        assert!(check_against_baseline(&other_host, &baseline, 0.2).is_empty());
        // Same host, speedup collapsed beyond tolerance: gated on
        // throughput, with makespan ignored.
        let collapsed = vec![record("ga:gate:pop:1000:memo-speedup", 0.5, 1.0, Some(8))];
        let violations = check_against_baseline(&collapsed, &baseline, 0.2);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("throughput"));
        // A missing ga gate record still fails; the table mirrors it.
        let gone: Vec<BenchRecord> = Vec::new();
        assert!(check_against_baseline(&gone, &baseline, 0.2)
            .iter()
            .any(|v| v.contains("missing")));
        let table = markdown_delta_table(&other_host, &baseline, 0.2);
        assert!(table.contains("ungated (host parallelism differs)"));
        assert!(table.contains("| `ga:abs:pop:1000:serial` |"));
    }

    #[test]
    fn parallelism_stamped_gates_skip_across_hosts_and_round_trip() {
        let record = |name: &str, ips: f64, threads: Option<usize>| BenchRecord {
            name: name.to_string(),
            makespan_ns: 1.0 / ips,
            throughput_ips: ips,
            host_parallelism: threads,
        };
        // A memo-speedup gate measured on a 16-thread host must
        // not fail a run on a 1-thread host (or vice versa) — nor judge
        // an unstamped legacy baseline against a stamped run.
        let gate = "ga:gate:pop:1000:memo-speedup";
        let baseline = vec![record(gate, 2.0, Some(16))];
        let collapsed = vec![record(gate, 0.5, Some(1))];
        assert!(check_against_baseline(&collapsed, &baseline, 0.2).is_empty());
        let unstamped = vec![record(gate, 0.5, None)];
        assert!(check_against_baseline(&unstamped, &baseline, 0.2).is_empty());
        // Same host parallelism: the gate applies as usual.
        let same_host = vec![record(gate, 0.5, Some(16))];
        assert_eq!(check_against_baseline(&same_host, &baseline, 0.2).len(), 1);
        // The stamp survives a serialize/deserialize round trip, and
        // its absence costs nothing (legacy baselines still parse).
        for rec in [record("a", 2.0, Some(4)), record("b", 3.0, None)] {
            let json = serde_json::to_string(&vec![rec.clone()]).expect("serializes");
            assert_eq!(rec.host_parallelism.is_some(), json.contains("host_parallelism"));
            let back: Vec<BenchRecord> = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, vec![rec]);
        }
        // The self-stamp helper records this very host.
        let stamped = record("c", 1.0, None).measured_on_this_host();
        let here = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(stamped.host_parallelism, Some(here));
    }

    #[test]
    #[should_panic(expected = "duplicate bench record")]
    fn duplicate_names_in_one_run_panic_instead_of_shadowing() {
        let record = |ns: f64| BenchRecord {
            name: "serving:same-point".to_string(),
            makespan_ns: ns,
            throughput_ips: 1.0,
            host_parallelism: None,
        };
        let path = std::env::temp_dir().join("compass_bench_dup_records_test.json");
        let path = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        append_records(&path, vec![record(1.0), record(2.0)]);
    }

    #[test]
    fn delta_table_mirrors_the_gate() {
        let record = |name: &str, ns: f64, ips: f64, threads: Option<usize>| BenchRecord {
            name: name.to_string(),
            makespan_ns: ns,
            throughput_ips: ips,
            host_parallelism: threads,
        };
        let baseline = vec![
            record("serving:a", 100.0, 1.0, None),
            record("hotpath:gate:speedup", 1.0, 4.0, Some(8)),
            record("hotpath:abs:wall", 50.0, 2e6, Some(8)),
            record("topology:gone", 10.0, 1.0, None),
        ];
        let current = vec![
            record("serving:a", 150.0, 1.0, None),
            record("hotpath:gate:speedup", 1.0, 2.0, Some(4)),
            record("serving:brand-new", 7.0, 1.0, None),
        ];
        let table = markdown_delta_table(&current, &baseline, 0.2);
        let row = |name: &str| {
            table
                .lines()
                .find(|l| l.contains(&format!("`{name}`")))
                .unwrap_or_else(|| panic!("no row for {name} in:\n{table}"))
                .to_string()
        };
        // Ordinary records compare makespans.
        assert!(row("serving:a").contains("| 100.000 | 150.000 | 1.500 | gated |"));
        // Hotpath gate records compare throughput — and a host
        // mismatch disarms the gate, exactly like the checker.
        assert!(row("hotpath:gate:speedup").contains("| 4.000 | 2.000 | 0.500 |"));
        assert!(row("hotpath:gate:speedup").contains("ungated (host"));
        assert!(row("hotpath:abs:wall").contains("| ungated |"));
        assert!(row("topology:gone").contains("— | gated — missing |"));
        assert!(row("serving:brand-new").contains("new (ungated)"));
        assert!(table.contains("Tolerance: 20%"));
    }

    #[test]
    fn record_files_merge_and_round_trip() {
        let record = |name: &str, ns: f64| BenchRecord {
            name: name.to_string(),
            makespan_ns: ns,
            throughput_ips: 2.0,
            host_parallelism: None,
        };
        let path = std::env::temp_dir().join("compass_bench_records_test.json");
        let path = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        assert!(load_records(&path).is_empty());
        append_records(&path, vec![record("b", 1.0), record("a", 2.0)]);
        append_records(&path, vec![record("b", 3.0), record("c", 4.0)]);
        let merged = load_records(&path);
        let names: Vec<&str> = merged.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"], "sorted by name");
        assert_eq!(merged[1].makespan_ns, 3.0, "later append wins");
        let _ = std::fs::remove_file(&path);
    }
}
