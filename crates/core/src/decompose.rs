//! Model decomposition into partition units (paper §III-B, Fig. 4).
//!
//! Weight matrices are divided primarily along the **output dimension**
//! into units sized to fit the crossbar budget of a single core — the
//! minimum granularity for partitioning. Layers whose *row* (input)
//! dimension alone exceeds one core (e.g. VGG16's first FC layer) are
//! additionally split along the row dimension; such units produce
//! partial sums that are reduced on the VFUs.

use pim_arch::{crossbars_for_matrix, ChipSpec};
use pim_model::{Network, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One partition unit `xᵢ`: a tile of a weighted layer's matrix that
/// fits within a single PIM core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionUnit {
    /// Global index in the decomposition sequence (the paper's `i` in
    /// `xᵢ`).
    pub index: usize,
    /// The Conv/Linear node this unit slices.
    pub node: NodeId,
    /// Output-column range `[start, end)` of the layer matrix covered
    /// by this unit.
    pub col_range: (usize, usize),
    /// Row range `[start, end)` covered (the full matrix height unless
    /// the layer required row splitting).
    pub row_range: (usize, usize),
    /// Crossbars this unit occupies (its core footprint).
    pub crossbars: usize,
    /// Weight bits stored (cells actually used).
    pub weight_bits: usize,
    /// MVM waves this unit performs per input sample at replication 1
    /// (= the layer's output spatial positions).
    pub mvms_per_sample: usize,
    /// `true` if the unit covers only part of the layer's rows and its
    /// outputs are partial sums needing VFU reduction.
    pub row_split: bool,
}

impl PartitionUnit {
    /// Output columns covered.
    pub const fn cols(&self) -> usize {
        self.col_range.1 - self.col_range.0
    }

    /// Matrix rows covered.
    pub const fn rows(&self) -> usize {
        self.row_range.1 - self.row_range.0
    }

    /// Weight bytes (rounded up).
    pub const fn weight_bytes(&self) -> usize {
        self.weight_bits.div_ceil(8)
    }
}

impl fmt::Display for PartitionUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "x{} ({} cols {}..{} rows {}..{}, {} xbars)",
            self.index,
            self.node,
            self.col_range.0,
            self.col_range.1,
            self.row_range.0,
            self.row_range.1,
            self.crossbars
        )
    }
}

/// The full decomposition of a network for a given chip: units in
/// topological layer order (`M` units total), plus per-node index
/// ranges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitSequence {
    units: Vec<PartitionUnit>,
    /// `(node, first_unit, one_past_last_unit)` per weighted node in
    /// topological order.
    node_ranges: Vec<(NodeId, usize, usize)>,
}

impl UnitSequence {
    /// The units in order.
    pub fn units(&self) -> &[PartitionUnit] {
        &self.units
    }

    /// Number of units `M`.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// `true` when the network has no weighted layers.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// One unit by index.
    pub fn unit(&self, index: usize) -> &PartitionUnit {
        &self.units[index]
    }

    /// Iterates `(node, unit_range)` in topological order.
    pub fn node_ranges(&self) -> impl Iterator<Item = (NodeId, std::ops::Range<usize>)> + '_ {
        self.node_ranges.iter().map(|&(n, a, b)| (n, a..b))
    }

    /// The unit index range of a node, if it is a weighted node of the
    /// decomposed network.
    pub fn range_of(&self, node: NodeId) -> Option<std::ops::Range<usize>> {
        self.node_ranges.iter().find(|&&(n, _, _)| n == node).map(|&(_, a, b)| a..b)
    }

    /// Distinct weighted nodes whose units intersect `span`.
    pub fn nodes_in_span(&self, span: std::ops::Range<usize>) -> Vec<NodeId> {
        self.node_ranges
            .iter()
            .filter(|&&(_, a, b)| a < span.end && b > span.start)
            .map(|&(n, _, _)| n)
            .collect()
    }

    /// Total weight bits of units in `span` (replication 1).
    pub fn span_weight_bits(&self, span: std::ops::Range<usize>) -> usize {
        self.units[span].iter().map(|u| u.weight_bits).sum()
    }
}

/// Decomposes `network` into partition units for `chip`.
///
/// Units are emitted in topological layer order; within a layer, by
/// ascending column range then row range. Every unit is guaranteed to
/// fit a single core's crossbar budget.
///
/// # Panics
///
/// Panics if `chip` fails [`ChipSpec::validate`] (callers are expected
/// to validate configurations first; [`crate::Compiler::new`] does).
pub fn decompose(network: &Network, chip: &ChipSpec) -> UnitSequence {
    chip.validate().expect("chip configuration must be valid");
    let xpc = chip.crossbars_per_core;
    let xbar = &chip.crossbar;
    let precision = chip.precision;
    let weight_cols = xbar.weight_cols(precision).max(1);
    let mut units = Vec::new();
    let mut node_ranges = Vec::new();

    for node in network.weighted_nodes() {
        let (rows, cols) = node.kind.matrix_dims().expect("weighted nodes have matrix dims");
        let mvms = node.kind.mvms_per_sample(node.output_shape);
        let start = units.len();
        let row_tiles = rows.div_ceil(xbar.rows);

        if row_tiles <= xpc {
            // Split along the output dimension only: each unit takes as
            // many column tiles as fit a core above the full row stack.
            let col_tiles_per_unit = (xpc / row_tiles).max(1);
            let unit_cols = col_tiles_per_unit * weight_cols;
            let mut c = 0;
            while c < cols {
                let c_end = (c + unit_cols).min(cols);
                push_unit(&mut units, node.id, (c, c_end), (0, rows), mvms, chip, false);
                c = c_end;
            }
        } else {
            // Row dimension alone exceeds a core: split rows into
            // core-sized groups, one column tile wide.
            let rows_per_unit = xpc * xbar.rows;
            let mut c = 0;
            while c < cols {
                let c_end = (c + weight_cols).min(cols);
                let mut r = 0;
                while r < rows {
                    let r_end = (r + rows_per_unit).min(rows);
                    let split = !(r == 0 && r_end == rows);
                    push_unit(&mut units, node.id, (c, c_end), (r, r_end), mvms, chip, split);
                    r = r_end;
                }
                c = c_end;
            }
        }
        node_ranges.push((node.id, start, units.len()));
    }
    UnitSequence { units, node_ranges }
}

fn push_unit(
    units: &mut Vec<PartitionUnit>,
    node: NodeId,
    col_range: (usize, usize),
    row_range: (usize, usize),
    mvms: usize,
    chip: &ChipSpec,
    row_split: bool,
) {
    let rows = row_range.1 - row_range.0;
    let cols = col_range.1 - col_range.0;
    let fp = crossbars_for_matrix(rows, cols, &chip.crossbar, chip.precision);
    let index = units.len();
    units.push(PartitionUnit {
        index,
        node,
        col_range,
        row_range,
        crossbars: fp.crossbars(),
        weight_bits: rows * cols * chip.precision.bits(),
        mvms_per_sample: mvms,
        row_split,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::ChipSpec;
    use pim_model::zoo;

    #[test]
    fn every_unit_fits_one_core() {
        for chip in [ChipSpec::chip_s(), ChipSpec::chip_m(), ChipSpec::chip_l()] {
            for net in [zoo::vgg16(), zoo::resnet18(), zoo::squeezenet()] {
                let seq = decompose(&net, &chip);
                assert!(!seq.is_empty());
                for u in seq.units() {
                    assert!(
                        u.crossbars <= chip.crossbars_per_core,
                        "{} unit {} exceeds core ({} > {})",
                        net.name(),
                        u.index,
                        u.crossbars,
                        chip.crossbars_per_core
                    );
                    assert!(u.crossbars > 0);
                    assert!(u.cols() > 0 && u.rows() > 0);
                }
            }
        }
    }

    #[test]
    fn units_cover_all_weights_exactly() {
        let chip = ChipSpec::chip_s();
        let net = zoo::resnet18();
        let seq = decompose(&net, &chip);
        let total_bits: usize = seq.units().iter().map(|u| u.weight_bits).sum();
        let expected =
            pim_model::stats::NetworkStats::of(&net, chip.precision).total_weight_bytes() * 8;
        // weight_bits uses exact (unpadded) cell counts, so totals match.
        assert_eq!(total_bits, expected);
    }

    #[test]
    fn node_ranges_partition_the_sequence() {
        let chip = ChipSpec::chip_m();
        let seq = decompose(&zoo::squeezenet(), &chip);
        let mut expected_start = 0;
        for (_, range) in seq.node_ranges() {
            assert_eq!(range.start, expected_start);
            assert!(range.end > range.start);
            expected_start = range.end;
        }
        assert_eq!(expected_start, seq.len());
    }

    #[test]
    fn vgg_fc6_is_row_split() {
        let chip = ChipSpec::chip_s();
        let net = zoo::vgg16();
        let seq = decompose(&net, &chip);
        let fc6 = net.nodes().iter().find(|n| n.name == "fc6").unwrap();
        let range = seq.range_of(fc6.id).unwrap();
        assert!(range.len() > 100, "fc6 splits into many units: {}", range.len());
        assert!(seq.units()[range].iter().all(|u| u.row_split));
    }

    #[test]
    fn small_conv_is_single_unit() {
        let chip = ChipSpec::chip_m();
        let net = zoo::squeezenet();
        let seq = decompose(&net, &chip);
        // fire2 squeeze: 64 -> 16 channels, 1x1: 64 x 16 matrix = 1 xbar.
        let squeeze = net.nodes().iter().find(|n| n.name == "fire2_squeeze").unwrap();
        let range = seq.range_of(squeeze.id).unwrap();
        assert_eq!(range.len(), 1);
        assert_eq!(seq.unit(range.start).crossbars, 1);
    }

    #[test]
    fn chip_size_changes_unit_count() {
        let net = zoo::vgg16();
        let m_small = decompose(&net, &ChipSpec::chip_s()).len();
        let m_large = decompose(&net, &ChipSpec::chip_l()).len();
        // Bigger cores pack more columns per unit -> fewer units.
        assert!(m_large < m_small, "L {m_large} vs S {m_small}");
    }

    #[test]
    fn nodes_in_span_intersects() {
        let chip = ChipSpec::chip_s();
        let net = zoo::tiny_cnn();
        let seq = decompose(&net, &chip);
        let all = seq.nodes_in_span(0..seq.len());
        assert_eq!(all.len(), seq.node_ranges().count());
        let first = seq.nodes_in_span(0..1);
        assert_eq!(first.len(), 1);
    }

    #[test]
    fn mvm_counts_match_output_spatial() {
        let chip = ChipSpec::chip_m();
        let net = zoo::resnet18();
        let seq = decompose(&net, &chip);
        let conv1 = net.nodes().iter().find(|n| n.name == "conv1").unwrap();
        let range = seq.range_of(conv1.id).unwrap();
        for u in &seq.units()[range] {
            assert_eq!(u.mvms_per_sample, 112 * 112);
        }
    }
}
