//! Simulation reports.

use pim_arch::PowerBreakdown;
use pim_dram::{ChannelStats, DramEnergy};
use pim_isa::InstructionStats;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-core time accounting within one partition, by activity class.
///
/// `busy` categories are mutually exclusive occupancy of the core;
/// `recv_wait_ns` and `dram_wait_ns` are stalls (waiting on a peer's
/// send or on the shared memory channel).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct CoreActivity {
    /// Crossbar MVM time.
    pub mvm_ns: f64,
    /// VFU vector-op time.
    pub vfu_ns: f64,
    /// Crossbar write (weight replacement) time.
    pub write_ns: f64,
    /// Global-memory transfer occupancy (loads + stores).
    pub dram_ns: f64,
    /// Bus send occupancy (arbitration share).
    pub send_ns: f64,
    /// Stall waiting for a matching send.
    pub recv_wait_ns: f64,
    /// Stall waiting for the memory channel.
    pub dram_wait_ns: f64,
}

impl CoreActivity {
    /// Total busy time (excludes stalls).
    pub fn busy_ns(&self) -> f64 {
        self.mvm_ns + self.vfu_ns + self.write_ns + self.dram_ns + self.send_ns
    }

    /// Busy fraction of a partition span.
    pub fn utilization(&self, span_ns: f64) -> f64 {
        if span_ns <= 0.0 {
            return 0.0;
        }
        (self.busy_ns() / span_ns).min(1.0)
    }
}

/// Timing and energy of one partition's execution (one bar of the
/// paper's Fig. 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionSimReport {
    /// Partition index in execution order.
    pub index: usize,
    /// Absolute start time, ns.
    pub start_ns: f64,
    /// Absolute end time (all cores drained), ns.
    pub end_ns: f64,
    /// Time until the last core finished its weight-replace phase
    /// (relative to `start_ns`).
    pub replace_ns: f64,
    /// Static instruction statistics of the partition's program.
    pub stats: InstructionStats,
    /// Dynamic energy of this partition.
    pub energy: PowerBreakdown,
    /// Per-core activity breakdown.
    pub core_activity: Vec<CoreActivity>,
}

impl PartitionSimReport {
    /// Total partition latency, ns.
    pub fn latency_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }

    /// Compute (pipeline) portion of the latency, ns.
    pub fn compute_ns(&self) -> f64 {
        self.latency_ns() - self.replace_ns
    }

    /// Mean busy fraction across cores that did any work.
    pub fn mean_utilization(&self) -> f64 {
        let span = self.latency_ns();
        let active: Vec<f64> = self
            .core_activity
            .iter()
            .filter(|a| a.busy_ns() > 0.0)
            .map(|a| a.utilization(span))
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }
}

/// Aggregate counters of one directed inter-chip link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LinkStats {
    /// Source chip index.
    pub src: usize,
    /// Destination chip index.
    pub dst: usize,
    /// Transfers carried.
    pub transfers: u64,
    /// Bytes carried.
    pub bytes: u64,
    /// Serialization occupancy, ns.
    pub busy_ns: f64,
    /// Time transfers queued behind the busy link, ns.
    pub wait_ns: f64,
}

/// Byte totals of the DRAM request stream a run's memory channels
/// issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TraceStats {
    /// Number of requests.
    pub requests: usize,
    /// Total bytes read.
    pub read_bytes: usize,
    /// Total bytes written.
    pub write_bytes: usize,
}

impl TraceStats {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> usize {
        self.read_bytes + self.write_bytes
    }
}

/// Per-chip execution summary of a multi-chip system run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipSimSummary {
    /// Chip index within the topology.
    pub chip: usize,
    /// Partition stages executed across all rounds.
    pub partitions: usize,
    /// Pipeline rounds completed.
    pub rounds: usize,
    /// Completion time of the chip's last stage, ns.
    pub end_ns: f64,
    /// Time the chip sat idle waiting for upstream hand-offs, ns.
    pub handoff_wait_ns: f64,
}

/// How a run was executed — provenance metadata that benchmarks
/// check before they attribute a wall time to an engine. Every
/// simulator run records [`EngineMode::SingleThread`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Every chip on one event loop.
    SingleThread,
}

impl fmt::Display for EngineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineMode::SingleThread => write!(f, "single-thread"),
        }
    }
}

/// The full simulation result for one batch cycle.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Batch size simulated.
    pub batch: usize,
    /// Per-partition reports in execution order.
    pub partitions: Vec<PartitionSimReport>,
    /// End-to-end makespan of the batch cycle, ns.
    pub makespan_ns: f64,
    /// Total energy (dynamic + chip static over the makespan).
    pub energy: PowerBreakdown,
    /// Refined DRAM energy from replaying the generated memory trace
    /// (present when DRAM replay is enabled).
    pub dram_energy: Option<DramEnergy>,
    /// DRAM trace byte totals.
    pub dram_trace: TraceStats,
    /// Per-channel DRAM counters (utilization, row hits, ...),
    /// present only in closed-loop timing mode.
    pub dram_channels: Option<Vec<ChannelStats>>,
    /// Per-chip stage summaries, present only for multi-chip
    /// topologies.
    pub chips: Option<Vec<ChipSimSummary>>,
    /// Per-link interconnect counters, present only for multi-chip
    /// topologies.
    pub links: Option<Vec<LinkStats>>,
    /// Per-request serving section, present only for open-loop
    /// serving runs ([`crate::SystemSimulator::run_serving`]).
    pub serving: Option<crate::ServingReport>,
    /// Effective execution mode (run metadata). Excluded from both
    /// serialization and equality, so a report compares equal to its
    /// deserialized copy while benchmarks can still see which engine
    /// produced the numbers. `None` for reports assembled outside a
    /// run (e.g. deserialized fixtures).
    pub engine: Option<EngineMode>,
}

// `engine` is provenance, not a result: a run and its deserialized
// copy (which carries no stamp) must compare equal, so equality
// ignores it.
impl PartialEq for SimReport {
    fn eq(&self, other: &Self) -> bool {
        self.batch == other.batch
            && self.partitions == other.partitions
            && self.makespan_ns == other.makespan_ns
            && self.energy == other.energy
            && self.dram_energy == other.dram_energy
            && self.dram_trace == other.dram_trace
            && self.dram_channels == other.dram_channels
            && self.chips == other.chips
            && self.links == other.links
            && self.serving == other.serving
    }
}

// Hand-written (de)serialization: the trailing `dram_channels`,
// `chips`, and `links` fields are emitted only when present, so
// `Analytic`-mode single-chip reports stay byte-identical to the
// pre-timing-mode fixtures in `tests/golden/`. With real serde this is
// `#[serde(skip_serializing_if = "Option::is_none", default)]`; the
// offline derive polyfill has no attribute support, hence the explicit
// impls.
impl Serialize for SimReport {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"batch\":");
        self.batch.serialize_json(out);
        out.push_str(",\"partitions\":");
        self.partitions.serialize_json(out);
        out.push_str(",\"makespan_ns\":");
        self.makespan_ns.serialize_json(out);
        out.push_str(",\"energy\":");
        self.energy.serialize_json(out);
        out.push_str(",\"dram_energy\":");
        self.dram_energy.serialize_json(out);
        out.push_str(",\"dram_trace\":");
        self.dram_trace.serialize_json(out);
        if let Some(channels) = &self.dram_channels {
            out.push_str(",\"dram_channels\":");
            channels.serialize_json(out);
        }
        if let Some(chips) = &self.chips {
            out.push_str(",\"chips\":");
            chips.serialize_json(out);
        }
        if let Some(links) = &self.links {
            out.push_str(",\"links\":");
            links.serialize_json(out);
        }
        if let Some(serving) = &self.serving {
            out.push_str(",\"serving\":");
            serving.serialize_json(out);
        }
        out.push('}');
    }
}

impl Deserialize for SimReport {
    fn deserialize_json(value: &serde::json::Value) -> Result<Self, serde::json::JsonError> {
        fn optional<T: Deserialize>(
            value: &serde::json::Value,
            name: &str,
        ) -> Result<Option<T>, serde::json::JsonError> {
            match serde::json::field(value, name) {
                Ok(v) => Deserialize::deserialize_json(v).map(Some),
                Err(_) => Ok(None),
            }
        }
        Ok(Self {
            batch: Deserialize::deserialize_json(serde::json::field(value, "batch")?)?,
            partitions: Deserialize::deserialize_json(serde::json::field(value, "partitions")?)?,
            makespan_ns: Deserialize::deserialize_json(serde::json::field(value, "makespan_ns")?)?,
            energy: Deserialize::deserialize_json(serde::json::field(value, "energy")?)?,
            dram_energy: Deserialize::deserialize_json(serde::json::field(value, "dram_energy")?)?,
            dram_trace: Deserialize::deserialize_json(serde::json::field(value, "dram_trace")?)?,
            dram_channels: optional(value, "dram_channels")?,
            chips: optional(value, "chips")?,
            links: optional(value, "links")?,
            serving: optional(value, "serving")?,
            engine: None,
        })
    }
}

impl SimReport {
    /// Inferences per second.
    pub fn throughput_ips(&self) -> f64 {
        if self.makespan_ns == 0.0 {
            return 0.0;
        }
        self.batch as f64 / (self.makespan_ns * 1e-9)
    }

    /// End-to-end latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.makespan_ns * 1e-6
    }

    /// Energy per inference in microjoules.
    pub fn energy_per_inference_uj(&self) -> f64 {
        self.energy.total_uj() / self.batch.max(1) as f64
    }

    /// EDP per sample (µJ · ms), as plotted in the paper's Fig. 8.
    pub fn edp_per_inference(&self) -> f64 {
        self.energy_per_inference_uj() * self.latency_ms()
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "simulated {} partitions, batch {}: {:.3} ms, {:.1} inf/s, {:.1} uJ/inf",
            self.partitions.len(),
            self.batch,
            self.latency_ms(),
            self.throughput_ips(),
            self.energy_per_inference_uj()
        )?;
        for p in &self.partitions {
            writeln!(
                f,
                "  P{}: {:.1} us (replace {:.1} us, compute {:.1} us)",
                p.index,
                p.latency_ns() / 1000.0,
                p.replace_ns / 1000.0,
                p.compute_ns() / 1000.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            batch: 4,
            partitions: vec![PartitionSimReport {
                index: 0,
                start_ns: 0.0,
                end_ns: 2_000_000.0,
                replace_ns: 500_000.0,
                stats: InstructionStats::default(),
                energy: PowerBreakdown::new(),
                core_activity: Vec::new(),
            }],
            makespan_ns: 2_000_000.0,
            energy: PowerBreakdown { mvm_nj: 4000.0, ..PowerBreakdown::new() },
            dram_energy: None,
            dram_trace: TraceStats::default(),
            dram_channels: None,
            chips: None,
            links: None,
            serving: None,
            engine: None,
        }
    }

    #[test]
    fn throughput_and_latency() {
        let r = report();
        // 4 samples / 2 ms = 2000 inf/s.
        assert!((r.throughput_ips() - 2000.0).abs() < 1e-9);
        assert!((r.latency_ms() - 2.0).abs() < 1e-12);
        assert!((r.energy_per_inference_uj() - 1.0).abs() < 1e-12);
        assert!((r.edp_per_inference() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn partition_breakdown() {
        let p = &report().partitions[0];
        assert!((p.latency_ns() - 2_000_000.0).abs() < 1e-9);
        assert!((p.compute_ns() - 1_500_000.0).abs() < 1e-9);
    }

    #[test]
    fn display_lists_partitions() {
        assert!(report().to_string().contains("P0:"));
    }

    #[test]
    fn dram_channels_serialize_only_when_present() {
        let mut r = report();
        let analytic = serde_json::to_string(&r).unwrap();
        assert!(
            !analytic.contains("dram_channels"),
            "analytic reports must keep the pre-closed-loop byte layout"
        );
        r.dram_channels = Some(vec![ChannelStats::default()]);
        let closed = serde_json::to_string(&r).unwrap();
        assert!(closed.contains("\"dram_channels\":["));
        // Both layouts round-trip.
        for json in [analytic, closed] {
            let back: SimReport = serde_json::from_str(&json).unwrap();
            let mut again = String::new();
            back.serialize_json(&mut again);
            assert_eq!(json, again);
        }
    }

    #[test]
    fn system_sections_serialize_only_when_present() {
        let mut r = report();
        let single = serde_json::to_string(&r).unwrap();
        assert!(!single.contains("\"chips\""), "single-chip layout must stay fixture-stable");
        assert!(!single.contains("\"links\""));
        r.chips = Some(vec![ChipSimSummary {
            chip: 0,
            partitions: 3,
            rounds: 2,
            end_ns: 2_000_000.0,
            handoff_wait_ns: 125.0,
        }]);
        r.links = Some(vec![LinkStats {
            src: 0,
            dst: 1,
            transfers: 2,
            bytes: 4096,
            busy_ns: 512.0,
            wait_ns: 0.0,
        }]);
        let multi = serde_json::to_string(&r).unwrap();
        assert!(multi.contains("\"chips\":["));
        assert!(multi.contains("\"links\":["));
        let back: SimReport = serde_json::from_str(&multi).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn serving_section_serializes_only_when_present() {
        let mut r = report();
        let batch = serde_json::to_string(&r).unwrap();
        assert!(!batch.contains("\"serving\""), "batch-mode layout must stay fixture-stable");
        r.serving = Some(crate::ServingReport {
            requests: 2,
            dropped: 1,
            rounds: 2,
            p50_ns: 1_000.0,
            p99_ns: 2_000.0,
            p999_ns: 2_000.0,
            mean_queue_ns: 250.0,
            goodput_rps: 1e6,
            slo_violations: 0,
            records: vec![crate::RequestRecord {
                arrival_ns: 0.0,
                round: 0,
                start_ns: 100.0,
                finish_ns: 1_000.0,
            }],
        });
        let serving = serde_json::to_string(&r).unwrap();
        assert!(serving.contains("\"serving\":{"));
        let back: SimReport = serde_json::from_str(&serving).unwrap();
        assert_eq!(back, r);
        let mut again = String::new();
        back.serialize_json(&mut again);
        assert_eq!(serving, again, "serving reports round-trip byte-identically");
    }

    #[test]
    fn engine_mode_is_metadata_only() {
        let mut r = report();
        let plain = serde_json::to_string(&r).unwrap();
        r.engine = Some(EngineMode::SingleThread);
        let stamped = serde_json::to_string(&r).unwrap();
        assert_eq!(plain, stamped, "engine mode must never leak into serialized reports");
        assert_eq!(r, report(), "equality ignores the engine stamp");
        assert_eq!(EngineMode::SingleThread.to_string(), "single-thread");
    }
}
