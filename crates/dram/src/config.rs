//! DRAM device and timing configuration.

use serde::{Deserialize, Serialize};

/// DRAM configuration: geometry, JEDEC-style timing (in device clock
/// cycles), and energy parameters.
///
/// The default preset models the paper's LPDDR3 8 GB part behind a
/// 32-bit channel (6.4 GB/s peak).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Device clock in MHz (data rate is 2× for DDR).
    pub clock_mhz: f64,
    /// Number of banks per rank.
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: usize,
    /// Bytes transferred per burst (BL8 on a 32-bit bus = 32 B).
    pub burst_bytes: usize,
    /// Activate-to-read delay (tRCD), cycles.
    pub t_rcd: u64,
    /// Precharge time (tRP), cycles.
    pub t_rp: u64,
    /// Read CAS latency (tCL), cycles.
    pub t_cl: u64,
    /// Write CAS latency (tCWL), cycles.
    pub t_cwl: u64,
    /// Minimum row-open time (tRAS), cycles.
    pub t_ras: u64,
    /// Write recovery (tWR), cycles.
    pub t_wr: u64,
    /// Column-to-column delay / burst occupancy (tCCD), cycles.
    pub t_ccd: u64,
    /// Refresh cycle time (tRFC), cycles.
    pub t_rfc: u64,
    /// Refresh interval (tREFI), cycles.
    pub t_refi: u64,
    /// Energy per activate+precharge pair, in nanojoules.
    pub activate_energy_nj: f64,
    /// Read data movement energy, pJ per bit.
    pub read_pj_per_bit: f64,
    /// Write data movement energy, pJ per bit.
    pub write_pj_per_bit: f64,
    /// Background (standby + peripheral) power in milliwatts.
    pub background_power_mw: f64,
}

impl DramConfig {
    /// LPDDR3-1600 (800 MHz clock), 8 banks, 2 KiB rows, 32-bit bus:
    /// 6.4 GB/s peak bandwidth. Timing values follow JEDEC LPDDR3
    /// datasheet-class numbers; energy follows published LPDDR3
    /// pJ/bit estimates (device + IO ≈ 1.5–2.5 pJ/bit, activation
    /// ≈ 1–2 nJ per row cycle).
    pub fn lpddr3_1600() -> Self {
        Self {
            clock_mhz: 800.0,
            banks: 8,
            row_bytes: 2048,
            burst_bytes: 32,
            t_rcd: 15,
            t_rp: 15,
            t_cl: 12,
            t_cwl: 6,
            t_ras: 34,
            t_wr: 12,
            t_ccd: 4,
            t_rfc: 104,
            t_refi: 3120,
            activate_energy_nj: 1.5,
            read_pj_per_bit: 2.0,
            write_pj_per_bit: 2.2,
            background_power_mw: 60.0,
        }
    }

    /// Device clock cycle time in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1000.0 / self.clock_mhz
    }

    /// Peak bandwidth in bytes per nanosecond (GB/s): DDR moves
    /// `burst_bytes` every `t_ccd` cycles.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.burst_bytes as f64 / (self.t_ccd as f64 * self.cycle_ns())
    }

    /// Channels needed to expose `aggregate_gbps` of chip-level memory
    /// bandwidth at this configuration's per-channel peak (at least
    /// one; rounded up so the modelled memory system never
    /// under-provisions the chip's stated bandwidth). The closed-loop
    /// chip simulator and the compiler's estimator both derive the
    /// channel count through this helper, so the GA tunes against the
    /// same topology the simulator times.
    pub fn channels_for_bandwidth(&self, aggregate_gbps: f64) -> usize {
        ((aggregate_gbps / self.peak_bandwidth_gbps()).ceil() as usize).max(1)
    }

    /// The cycle-scaled timing constants, in ns. Each is the single
    /// `cycles as f64 * cycle_ns()` product the bank and controller
    /// formulas use, so code that reads them computes bit-identical
    /// times.
    pub fn timing(&self) -> DramTiming {
        let cyc = self.cycle_ns();
        DramTiming {
            rcd_ns: self.t_rcd as f64 * cyc,
            ras_ns: self.t_ras as f64 * cyc,
            rp_rcd_ns: (self.t_rp + self.t_rcd) as f64 * cyc,
            read_cas_ns: (self.t_cl + self.t_ccd) as f64 * cyc,
            write_cas_ns: (self.t_cwl + self.t_ccd) as f64 * cyc,
            wr_ns: self.t_wr as f64 * cyc,
            ccd_ns: self.t_ccd as f64 * cyc,
            rfc_ns: self.t_rfc as f64 * cyc,
            refi_ns: self.t_refi as f64 * cyc,
        }
    }

    /// Maps a byte address to `(bank, row)` using row-interleaved
    /// mapping (consecutive rows rotate across banks so sequential
    /// streams exploit bank-level parallelism).
    pub fn map_address(&self, addr: u64) -> (usize, u64) {
        let row_global = addr / self.row_bytes as u64;
        let bank = (row_global % self.banks as u64) as usize;
        let row = row_global / self.banks as u64;
        (bank, row)
    }
}

/// The timing parameters of a [`DramConfig`] scaled to nanoseconds
/// ([`DramConfig::timing`]). The controller computes them once, so the
/// per-burst path multiplies and divides nothing to derive them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Activate to column command (tRCD).
    pub rcd_ns: f64,
    /// Minimum row-open time (tRAS).
    pub ras_ns: f64,
    /// Precharge then activate (tRP + tRCD): a row conflict's cost.
    pub rp_rcd_ns: f64,
    /// Read column command to data done (tCL + tCCD).
    pub read_cas_ns: f64,
    /// Write column command to data done (tCWL + tCCD).
    pub write_cas_ns: f64,
    /// Write recovery (tWR).
    pub wr_ns: f64,
    /// Column-to-column delay: one burst on the data bus (tCCD).
    pub ccd_ns: f64,
    /// Refresh cycle time (tRFC).
    pub rfc_ns: f64,
    /// Refresh interval (tREFI).
    pub refi_ns: f64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::lpddr3_1600()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpddr3_peak_bandwidth_is_12_8() {
        let cfg = DramConfig::lpddr3_1600();
        // One BL8 burst (32 B on a 32-bit bus) per tCCD=4 device
        // cycles at 1.25 ns/cycle = 6.4 GB/s, i.e. LPDDR3-1600 x32.
        let bw = cfg.peak_bandwidth_gbps();
        assert!((bw - 6.4).abs() < 1e-9, "peak bandwidth {bw} GB/s");
    }

    #[test]
    fn address_mapping_rotates_banks() {
        let cfg = DramConfig::lpddr3_1600();
        let (b0, r0) = cfg.map_address(0);
        let (b1, r1) = cfg.map_address(2048);
        assert_eq!((b0, r0), (0, 0));
        assert_eq!((b1, r1), (1, 0));
        let (b8, r8) = cfg.map_address(2048 * 8);
        assert_eq!((b8, r8), (0, 1));
    }

    #[test]
    fn same_row_same_bank() {
        let cfg = DramConfig::lpddr3_1600();
        assert_eq!(cfg.map_address(100), cfg.map_address(2000));
    }

    #[test]
    fn cycle_time() {
        assert!((DramConfig::lpddr3_1600().cycle_ns() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn channel_derivation_never_under_provisions() {
        let cfg = DramConfig::lpddr3_1600(); // 6.4 GB/s per channel
        assert_eq!(cfg.channels_for_bandwidth(6.4), 1);
        assert_eq!(cfg.channels_for_bandwidth(8.0), 2); // 1 ch would be 20% short
        assert_eq!(cfg.channels_for_bandwidth(12.8), 2);
        assert_eq!(cfg.channels_for_bandwidth(25.6), 4);
        assert_eq!(cfg.channels_for_bandwidth(0.0), 1);
    }
}
