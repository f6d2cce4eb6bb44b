//! Core and chip specifications, including the paper's Table I presets.

use crate::crossbar::CrossbarSpec;
use crate::error::InvalidConfigError;
use crate::WeightPrecision;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The paper's three chip configurations (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChipClass {
    /// 16 cores × 9 crossbars = 1.125 MiB.
    S,
    /// 16 cores × 16 crossbars = 2.0 MiB.
    M,
    /// 36 cores × 16 crossbars = 4.5 MiB.
    L,
}

impl ChipClass {
    /// All classes in ascending capacity order.
    pub const ALL: [ChipClass; 3] = [ChipClass::S, ChipClass::M, ChipClass::L];
}

impl fmt::Display for ChipClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipClass::S => write!(f, "S"),
            ChipClass::M => write!(f, "M"),
            ChipClass::L => write!(f, "L"),
        }
    }
}

/// Per-core resources (matrix unit aside, which is described by
/// [`ChipSpec::crossbars_per_core`] × [`ChipSpec::crossbar`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreSpec {
    /// Vector functional units per core (Table I: 12).
    pub vfu_count: usize,
    /// Elements each VFU processes per cycle.
    pub vfu_lanes: usize,
    /// Local scratch memory per core in bytes (Table I: 64 KiB).
    pub local_memory_bytes: usize,
    /// Core clock frequency in GHz.
    pub clock_ghz: f64,
    /// VFU power per core in milliwatts (Table I: 22.8 mW).
    pub vfu_power_mw: f64,
    /// Local memory power per core in milliwatts (Table I: 18.0 mW).
    pub local_memory_power_mw: f64,
    /// Control unit power per core in milliwatts (Table I: 8.0 mW).
    pub control_power_mw: f64,
}

impl CoreSpec {
    /// The paper's core: 12 VFUs, 64 KiB local memory, 1 GHz, powers
    /// from Table I (PIMCOMP parameters scaled to 16 nm).
    pub fn paper() -> Self {
        Self {
            vfu_count: 12,
            vfu_lanes: 1,
            local_memory_bytes: 64 * 1024,
            clock_ghz: 1.0,
            vfu_power_mw: 22.8,
            local_memory_power_mw: 18.0,
            control_power_mw: 8.0,
        }
    }

    /// Cycle time in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.clock_ghz
    }

    /// Elements the VFU array processes per nanosecond.
    pub fn vfu_throughput_per_ns(&self) -> f64 {
        self.vfu_count as f64 * self.vfu_lanes as f64 * self.clock_ghz
    }
}

impl Default for CoreSpec {
    fn default() -> Self {
        Self::paper()
    }
}

/// On-chip interconnect (the paper uses a shared bus).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterconnectSpec {
    /// Aggregate bus bandwidth in bytes per nanosecond (GB/s).
    pub bandwidth_gbps: f64,
    /// Fixed per-transfer arbitration latency in nanoseconds.
    pub arbitration_ns: f64,
    /// Energy per byte moved across the bus, in picojoules.
    pub energy_pj_per_byte: f64,
}

impl InterconnectSpec {
    /// A 32 GB/s shared bus with 4 ns arbitration.
    pub fn bus() -> Self {
        Self { bandwidth_gbps: 32.0, arbitration_ns: 4.0, energy_pj_per_byte: 1.0 }
    }

    /// Time to move `bytes` across the bus (excluding arbitration).
    pub fn transfer_ns(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bandwidth_gbps
    }
}

impl Default for InterconnectSpec {
    fn default() -> Self {
        Self::bus()
    }
}

/// Global (off-chip) memory interface summary as seen by the chip.
///
/// Detailed timing comes from `pim-dram`; the compiler's analytical
/// estimator uses this coarse view.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemorySpec {
    /// Peak DRAM bandwidth in bytes per nanosecond (GB/s).
    pub bandwidth_gbps: f64,
    /// Typical access latency for a first access in nanoseconds.
    pub access_latency_ns: f64,
    /// Energy per bit transferred, in picojoules (device + IO +
    /// controller, LPDDR3 class).
    pub energy_pj_per_bit: f64,
}

impl MemorySpec {
    /// LPDDR3-1600 x32: 6.4 GB/s, ~80 ns first-access latency.
    pub fn lpddr3() -> Self {
        Self { bandwidth_gbps: 6.4, access_latency_ns: 80.0, energy_pj_per_bit: 2.0 }
    }
}

impl Default for MemorySpec {
    fn default() -> Self {
        Self::lpddr3()
    }
}

/// A full chip: cores, crossbars per core, interconnect, global memory
/// interface, and the weight precision the arrays are operated at.
///
/// # Example
///
/// ```
/// use pim_arch::ChipSpec;
///
/// let chips = [ChipSpec::chip_s(), ChipSpec::chip_m(), ChipSpec::chip_l()];
/// let mibs: Vec<f64> = chips.iter().map(|c| c.capacity_mib()).collect();
/// assert_eq!(mibs, vec![1.125, 2.0, 4.5]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipSpec {
    /// Human-readable configuration name (e.g. `"S"`).
    pub name: String,
    /// Number of PIM cores.
    pub cores: usize,
    /// Crossbar macros per core.
    pub crossbars_per_core: usize,
    /// Crossbar macro specification.
    pub crossbar: CrossbarSpec,
    /// Per-core resources.
    pub core: CoreSpec,
    /// On-chip interconnect.
    pub interconnect: InterconnectSpec,
    /// Global memory interface.
    pub memory: MemorySpec,
    /// Weight precision the arrays operate at (paper: 4-bit).
    pub precision: WeightPrecision,
    /// Total chip power budget in watts (Table I), used for
    /// static-energy accounting.
    pub chip_power_w: f64,
}

impl ChipSpec {
    /// Chip-S: 16 cores × 9 crossbars, 1.125 MiB, 1.57 W (Table I).
    pub fn chip_s() -> Self {
        Self::paper_config("S", 16, 9, 1.57)
    }

    /// Chip-M: 16 cores × 16 crossbars, 2.0 MiB, 2.80 W (Table I).
    pub fn chip_m() -> Self {
        Self::paper_config("M", 16, 16, 2.80)
    }

    /// Chip-L: 36 cores × 16 crossbars, 4.5 MiB, 6.30 W (Table I).
    pub fn chip_l() -> Self {
        Self::paper_config("L", 36, 16, 6.30)
    }

    /// Preset lookup by [`ChipClass`].
    pub fn preset(class: ChipClass) -> Self {
        match class {
            ChipClass::S => Self::chip_s(),
            ChipClass::M => Self::chip_m(),
            ChipClass::L => Self::chip_l(),
        }
    }

    fn paper_config(name: &str, cores: usize, crossbars_per_core: usize, power_w: f64) -> Self {
        Self {
            name: name.to_string(),
            cores,
            crossbars_per_core,
            crossbar: CrossbarSpec::sram_16nm(),
            core: CoreSpec::paper(),
            interconnect: InterconnectSpec::bus(),
            memory: MemorySpec::lpddr3(),
            precision: WeightPrecision::Int4,
            chip_power_w: power_w,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfigError`] when a structural parameter is
    /// zero, the crossbar geometry cannot hold a single weight at the
    /// configured precision, a clock or bandwidth is not finite and
    /// positive, or a latency, energy or power is not finite and
    /// non-negative.
    pub fn validate(&self) -> Result<(), InvalidConfigError> {
        if self.cores == 0 {
            return Err(InvalidConfigError::new("chip must have at least one core"));
        }
        if self.crossbars_per_core == 0 {
            return Err(InvalidConfigError::new("core must have at least one crossbar"));
        }
        if self.crossbar.rows == 0 || self.crossbar.cols == 0 {
            return Err(InvalidConfigError::new("crossbar dimensions must be nonzero"));
        }
        if self.crossbar.cols < self.precision.bits() {
            return Err(InvalidConfigError::new("crossbar has fewer columns than bits per weight"));
        }
        if self.core.vfu_count == 0 || self.core.vfu_lanes == 0 {
            return Err(InvalidConfigError::new("core must have at least one VFU lane"));
        }
        let positive = [
            ("core clock", self.core.clock_ghz),
            ("memory bandwidth", self.memory.bandwidth_gbps),
            ("interconnect bandwidth", self.interconnect.bandwidth_gbps),
        ];
        for (what, value) in positive {
            if !(value.is_finite() && value > 0.0) {
                return Err(InvalidConfigError::new(format!("{what} must be finite and positive")));
            }
        }
        let non_negative = [
            ("memory access latency", self.memory.access_latency_ns),
            ("interconnect arbitration time", self.interconnect.arbitration_ns),
            ("crossbar MVM latency", self.crossbar.mvm_latency_ns),
            ("crossbar row-write latency", self.crossbar.row_write_latency_ns),
            ("chip power", self.chip_power_w),
            ("VFU power", self.core.vfu_power_mw),
            ("local memory power", self.core.local_memory_power_mw),
            ("control unit power", self.core.control_power_mw),
            ("crossbar MVM energy", self.crossbar.mvm_energy_pj),
            ("crossbar cell-write energy", self.crossbar.cell_write_energy_pj),
            ("memory energy per bit", self.memory.energy_pj_per_bit),
            ("interconnect energy per byte", self.interconnect.energy_pj_per_byte),
        ];
        for (what, value) in non_negative {
            if !(value.is_finite() && value >= 0.0) {
                return Err(InvalidConfigError::new(format!(
                    "{what} must be finite and non-negative"
                )));
            }
        }
        Ok(())
    }

    /// Total crossbars on the chip.
    pub fn total_crossbars(&self) -> usize {
        self.cores * self.crossbars_per_core
    }

    /// Total in-memory computing capacity in bits (1 bit per cell).
    pub fn capacity_bits(&self) -> usize {
        self.total_crossbars() * self.crossbar.bits()
    }

    /// Capacity in MiB — the paper's Table I "Capacity(MB)" column.
    pub fn capacity_mib(&self) -> f64 {
        self.capacity_bits() as f64 / 8.0 / (1024.0 * 1024.0)
    }

    /// Weights storable on the whole chip at the configured precision.
    pub fn weight_capacity(&self) -> usize {
        self.total_crossbars() * self.crossbar.weight_capacity(self.precision)
    }
}

impl fmt::Display for ChipSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Chip-{} ({} cores x {} xbars, {:.3} MiB, {:.2} W)",
            self.name,
            self.cores,
            self.crossbars_per_core,
            self.capacity_mib(),
            self.chip_power_w
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_capacities() {
        assert!((ChipSpec::chip_s().capacity_mib() - 1.125).abs() < 1e-12);
        assert!((ChipSpec::chip_m().capacity_mib() - 2.0).abs() < 1e-12);
        assert!((ChipSpec::chip_l().capacity_mib() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn table1_powers() {
        assert_eq!(ChipSpec::chip_s().chip_power_w, 1.57);
        assert_eq!(ChipSpec::chip_m().chip_power_w, 2.80);
        assert_eq!(ChipSpec::chip_l().chip_power_w, 6.30);
    }

    #[test]
    fn weight_capacity_at_4bit() {
        let s = ChipSpec::chip_s();
        // 144 crossbars x 256 rows x 64 cols of 4-bit weights.
        assert_eq!(s.weight_capacity(), 144 * 256 * 64);
    }

    #[test]
    fn presets_validate() {
        for class in ChipClass::ALL {
            ChipSpec::preset(class).validate().expect("preset is valid");
        }
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut chip = ChipSpec::chip_s();
        chip.cores = 0;
        assert!(chip.validate().is_err());

        let mut chip = ChipSpec::chip_s();
        chip.crossbar.cols = 2; // fewer columns than 4 bits/weight
        assert!(chip.validate().is_err());

        let mut chip = ChipSpec::chip_s();
        chip.core.clock_ghz = 0.0;
        assert!(chip.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_or_negative_energy_and_power() {
        let fields: [fn(&mut ChipSpec) -> &mut f64; 8] = [
            |c| &mut c.chip_power_w,
            |c| &mut c.core.vfu_power_mw,
            |c| &mut c.core.local_memory_power_mw,
            |c| &mut c.core.control_power_mw,
            |c| &mut c.crossbar.mvm_energy_pj,
            |c| &mut c.crossbar.cell_write_energy_pj,
            |c| &mut c.memory.energy_pj_per_bit,
            |c| &mut c.interconnect.energy_pj_per_byte,
        ];
        for (i, field) in fields.iter().enumerate() {
            for bad in [f64::NAN, f64::INFINITY, -1.0] {
                let mut chip = ChipSpec::chip_s();
                *field(&mut chip) = bad;
                assert!(chip.validate().is_err(), "field {i} = {bad}");
            }
            let mut chip = ChipSpec::chip_s();
            *field(&mut chip) = 0.0;
            chip.validate().unwrap_or_else(|e| panic!("field {i} = 0: {e}"));
        }
    }

    #[test]
    fn display_mentions_class() {
        assert!(ChipSpec::chip_m().to_string().contains("Chip-M"));
    }
}
