//! Host readings from `/proc`: peak resident memory, hypervisor steal
//! and this process's run-queue wait. They annotate a run so a noisy
//! result can be traced to the host; they never discard one. On a
//! system without `/proc` they read as 0.

use std::fs;
use std::time::Instant;

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A snapshot of the host counters that noise shows in.
pub struct HostSample {
    at: Instant,
    /// All-CPU jiffies (user through steal) from `/proc/stat`.
    cpu_total: u64,
    /// Steal jiffies from `/proc/stat`.
    cpu_steal: u64,
    /// Nanoseconds this process waited on a run queue
    /// (`/proc/self/schedstat`, second field).
    runq_wait_ns: u64,
}

impl HostSample {
    /// Reads the counters now.
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let cpu: Vec<u64> = stat
            .lines()
            .next()
            .filter(|line| line.starts_with("cpu "))
            .map(|line| line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect())
            .unwrap_or_default();
        let schedstat = fs::read_to_string("/proc/self/schedstat").unwrap_or_default();
        Self {
            at: Instant::now(),
            // user nice system idle iowait irq softirq steal
            cpu_total: cpu.iter().take(8).sum(),
            cpu_steal: cpu.get(7).copied().unwrap_or(0),
            runq_wait_ns: schedstat
                .split_whitespace()
                .nth(1)
                .and_then(|f| f.parse().ok())
                .unwrap_or(0),
        }
    }

    /// Share of all CPU time the hypervisor stole since `earlier`.
    pub fn steal_share_since(&self, earlier: &HostSample) -> f64 {
        let total = self.cpu_total.saturating_sub(earlier.cpu_total);
        if total == 0 {
            return 0.0;
        }
        self.cpu_steal.saturating_sub(earlier.cpu_steal) as f64 / total as f64
    }

    /// Share of the wall time since `earlier` this process spent
    /// runnable but waiting for a CPU.
    pub fn runq_share_since(&self, earlier: &HostSample) -> f64 {
        let wall_ns = (self.at - earlier.at).as_nanos() as f64;
        if wall_ns == 0.0 {
            return 0.0;
        }
        self.runq_wait_ns.saturating_sub(earlier.runq_wait_ns) as f64 / wall_ns
    }
}
