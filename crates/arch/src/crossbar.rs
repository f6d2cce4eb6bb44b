//! Crossbar CIM macro specification.

use crate::WeightPrecision;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Memory technology of the CIM cell.
///
/// The paper evaluates an SRAM-based design but argues (§V-B) that the
/// approach extends to eNVM technologies whose write characteristics
/// differ; the presets below expose exactly those differences so the
/// compiler can optimize weight replacement per technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CellTechnology {
    /// 16 nm SRAM (Jia et al., ISSCC'21) — the paper's operating point.
    #[default]
    Sram,
    /// ReRAM — limited write endurance, moderate write energy.
    Reram,
    /// MRAM — high write latency and energy.
    Mram,
}

impl fmt::Display for CellTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellTechnology::Sram => write!(f, "SRAM"),
            CellTechnology::Reram => write!(f, "ReRAM"),
            CellTechnology::Mram => write!(f, "MRAM"),
        }
    }
}

/// One crossbar CIM macro: a `rows × cols` array of single-bit cells
/// that performs matrix-vector multiplication in place.
///
/// Multi-bit weights are bit-sliced across adjacent columns, so a
/// `256 × 256` array stores `256 × 64` 4-bit weights. The capacity
/// figures of the paper's Table I follow this convention
/// (16 cores × 9 crossbars × 8 KiB = 1.125 MiB for Chip-S).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossbarSpec {
    /// Cell technology (affects presets only; all parameters are
    /// explicit fields).
    pub technology: CellTechnology,
    /// Wordlines (input rows).
    pub rows: usize,
    /// Bitlines (single-bit cell columns).
    pub cols: usize,
    /// Latency of one matrix-vector multiplication through the array,
    /// including DAC/ADC conversion, in nanoseconds.
    pub mvm_latency_ns: f64,
    /// Energy of one MVM activation of this crossbar in picojoules
    /// (ADC-dominated; scaled to the number of wordlines per §IV-A1).
    pub mvm_energy_pj: f64,
    /// Latency to write one row of cells, in nanoseconds.
    pub row_write_latency_ns: f64,
    /// Energy to write one cell (one bit), in picojoules.
    pub cell_write_energy_pj: f64,
}

impl CrossbarSpec {
    /// The paper's crossbar: 256×256, parameters derived from the 16 nm
    /// SRAM-CIM prototype of Jia et al. (ISSCC'21). Write power is taken
    /// directly from the prototype; inference energy adds the ADC power
    /// and wordline-scaled array power.
    pub fn sram_16nm() -> Self {
        Self {
            technology: CellTechnology::Sram,
            rows: 256,
            cols: 256,
            // ~100 ns per MVM wave (PUMA-class read+ADC pipeline).
            mvm_latency_ns: 100.0,
            // 256 bitline conversions/activation, ~1.5 pJ each, plus
            // array read and wordline-scaled peripheral energy
            // -> ~420 pJ per crossbar activation.
            mvm_energy_pj: 420.0,
            // SRAM row write: one cycle-class operation per row.
            row_write_latency_ns: 2.0,
            // SRAM cell write energy.
            cell_write_energy_pj: 0.5,
        }
    }

    /// A ReRAM crossbar preset (same geometry, slower/costlier writes,
    /// cheaper reads). Used by the technology-sensitivity extension
    /// benches, exercising the §V-B discussion.
    pub fn reram() -> Self {
        Self {
            technology: CellTechnology::Reram,
            rows: 256,
            cols: 256,
            mvm_latency_ns: 110.0,
            mvm_energy_pj: 220.0,
            row_write_latency_ns: 50.0,
            cell_write_energy_pj: 10.0,
        }
    }

    /// An MRAM crossbar preset (high write latency and energy, per
    /// §V-B).
    pub fn mram() -> Self {
        Self {
            technology: CellTechnology::Mram,
            rows: 256,
            cols: 256,
            mvm_latency_ns: 105.0,
            mvm_energy_pj: 260.0,
            row_write_latency_ns: 20.0,
            cell_write_energy_pj: 4.0,
        }
    }

    /// Raw storage capacity in bits (one bit per cell).
    pub const fn bits(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of weight columns available at `precision` (bit-slicing
    /// spreads each weight across `precision.bits()` adjacent cells).
    pub fn weight_cols(&self, precision: WeightPrecision) -> usize {
        self.cols / precision.bits()
    }

    /// Weights storable in one crossbar at `precision`.
    pub fn weight_capacity(&self, precision: WeightPrecision) -> usize {
        self.rows * self.weight_cols(precision)
    }

    /// Latency to (re)write the full array, in nanoseconds.
    pub fn full_write_latency_ns(&self) -> f64 {
        self.rows as f64 * self.row_write_latency_ns
    }
}

impl Default for CrossbarSpec {
    fn default() -> Self {
        Self::sram_16nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_geometry_matches_paper() {
        let xbar = CrossbarSpec::sram_16nm();
        assert_eq!(xbar.bits(), 256 * 256);
        assert_eq!(xbar.bits() / 8, 8 * 1024); // 8 KiB per crossbar
        assert_eq!(xbar.weight_cols(WeightPrecision::Int4), 64);
        assert_eq!(xbar.weight_capacity(WeightPrecision::Int4), 256 * 64);
    }

    #[test]
    fn weight_cols_scale_with_precision() {
        let xbar = CrossbarSpec::sram_16nm();
        assert_eq!(xbar.weight_cols(WeightPrecision::Int1), 256);
        assert_eq!(xbar.weight_cols(WeightPrecision::Int8), 32);
    }

    #[test]
    fn technology_presets_order_write_costs() {
        let sram = CrossbarSpec::sram_16nm();
        let reram = CrossbarSpec::reram();
        let mram = CrossbarSpec::mram();
        assert!(sram.cell_write_energy_pj < mram.cell_write_energy_pj);
        assert!(mram.cell_write_energy_pj < reram.cell_write_energy_pj);
        assert!(sram.row_write_latency_ns < mram.row_write_latency_ns);
    }

    #[test]
    fn full_write_latency() {
        let xbar = CrossbarSpec::sram_16nm();
        assert!((xbar.full_write_latency_ns() - 512.0).abs() < 1e-9);
    }
}
