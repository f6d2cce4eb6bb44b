//! Weight-matrix-to-crossbar footprint arithmetic.

use crate::crossbar::CrossbarSpec;
use crate::WeightPrecision;
use serde::{Deserialize, Serialize};

/// The crossbar footprint of a weight matrix tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MatrixFootprint {
    /// Crossbars along the row (input) dimension.
    pub row_tiles: usize,
    /// Crossbars along the column (output) dimension.
    pub col_tiles: usize,
}

impl MatrixFootprint {
    /// Total crossbars occupied.
    pub const fn crossbars(&self) -> usize {
        self.row_tiles * self.col_tiles
    }
}

/// Computes the crossbar footprint of a `rows × cols` weight matrix at
/// `precision` on crossbar `xbar`: `ceil(rows / xbar.rows)` row tiles
/// times `ceil(cols / weight_cols)` column tiles (bit-slicing reduces
/// the usable columns).
///
/// # Example
///
/// ```
/// use pim_arch::{crossbars_for_matrix, CrossbarSpec, WeightPrecision};
///
/// let xbar = CrossbarSpec::sram_16nm();
/// // A 3x3 conv from 64 to 128 channels: 576 x 128 matrix.
/// let fp = crossbars_for_matrix(576, 128, &xbar, WeightPrecision::Int4);
/// assert_eq!((fp.row_tiles, fp.col_tiles), (3, 2));
/// assert_eq!(fp.crossbars(), 6);
/// ```
pub fn crossbars_for_matrix(
    rows: usize,
    cols: usize,
    xbar: &CrossbarSpec,
    precision: WeightPrecision,
) -> MatrixFootprint {
    let weight_cols = xbar.weight_cols(precision).max(1);
    MatrixFootprint { row_tiles: rows.div_ceil(xbar.rows), col_tiles: cols.div_ceil(weight_cols) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xbar() -> CrossbarSpec {
        CrossbarSpec::sram_16nm()
    }

    #[test]
    fn exact_fit() {
        let fp = crossbars_for_matrix(256, 64, &xbar(), WeightPrecision::Int4);
        assert_eq!(fp.crossbars(), 1);
    }

    #[test]
    fn one_extra_row_forces_new_tile() {
        let fp = crossbars_for_matrix(257, 64, &xbar(), WeightPrecision::Int4);
        assert_eq!((fp.row_tiles, fp.col_tiles), (2, 1));
    }

    #[test]
    fn resnet_fc_footprint() {
        // fc 512 -> 1000 at 4-bit: 2 row tiles x ceil(1000/64)=16 col tiles.
        let fp = crossbars_for_matrix(512, 1000, &xbar(), WeightPrecision::Int4);
        assert_eq!((fp.row_tiles, fp.col_tiles), (2, 16));
        assert_eq!(fp.crossbars(), 32);
    }

    #[test]
    fn vgg_fc6_is_huge() {
        // 25088 x 4096 at 4-bit: 98 x 64 tiles = 6272 crossbars
        // (vs 144 on Chip-S — a single layer exceeds the chip).
        let fp = crossbars_for_matrix(25088, 4096, &xbar(), WeightPrecision::Int4);
        assert_eq!(fp.crossbars(), 98 * 64);
    }

    #[test]
    fn precision_trades_columns() {
        let fp8 = crossbars_for_matrix(256, 64, &xbar(), WeightPrecision::Int8);
        assert_eq!((fp8.row_tiles, fp8.col_tiles), (1, 2));
        let fp1 = crossbars_for_matrix(256, 256, &xbar(), WeightPrecision::Int1);
        assert_eq!(fp1.crossbars(), 1);
    }
}
