//! The partition validity map (paper §III-B1, Fig. 5).
//!
//! Random partition positions rarely produce valid partitions when the
//! model is large and the chip small, so COMPASS precomputes, for every
//! start position, the furthest end position that still fits the chip.
//! Partition generation then samples only within valid ranges.

use crate::decompose::UnitSequence;
use crate::packing::{fits, PackItem};
use pim_arch::ChipSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// For each start unit `i`, the largest `j` such that units `[i, j)`
/// form a valid partition (fit the chip's cores at replication 1).
///
/// The map assumes validity is *prefix-monotone*: if `[i, j)` is
/// valid then `[i, k)` is valid for all `i < k ≤ j`, and the window
/// slid from `i` to `i + 1` still fits. First-fit-decreasing packing
/// guarantees no such monotonicity (see [`crate::packing::pack_ffd`]),
/// so it is a property of the decompositions, checked span by span on
/// the model zoo's networks and chips. The replication optimizer
/// relies on it: its `debug_assert` requires every span inside
/// `max_end` to pack at replication 1.
///
/// # Example
///
/// ```
/// use compass::{decompose, ValidityMap};
/// use pim_arch::ChipSpec;
/// use pim_model::zoo;
///
/// let chip = ChipSpec::chip_s();
/// let seq = decompose(&zoo::resnet18(), &chip);
/// let map = ValidityMap::build(&seq, &chip);
/// assert!(map.is_valid(0, map.max_end(0)));
/// assert!(map.max_end(0) >= 1, "a single unit always fits");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidityMap {
    max_end: Vec<usize>,
    len: usize,
}

impl ValidityMap {
    /// Builds the map for a decomposed model on `chip`.
    ///
    /// Complexity: O(M · W log W) where `W` is the widest valid span —
    /// each start extends a sliding window with incremental refits.
    pub fn build(seq: &UnitSequence, chip: &ChipSpec) -> Self {
        let m = seq.len();
        let cores = chip.cores;
        let capacity = chip.crossbars_per_core;
        let total = cores * capacity;
        let mut max_end = vec![0usize; m];
        let mut window: Vec<PackItem> = Vec::new();
        let mut end = 0usize;
        #[allow(clippy::needless_range_loop)] // `start` is the algorithmic window origin
        for start in 0..m {
            if end < start {
                end = start;
                window.clear();
            }
            // Grow the window while the span remains packable. A cheap
            // total-crossbars bound prunes most failing extensions
            // before running FFD.
            loop {
                if end >= m {
                    break;
                }
                let unit = seq.unit(end);
                let sum: usize = window.iter().map(|i| i.crossbars).sum::<usize>() + unit.crossbars;
                if sum > total {
                    break;
                }
                window.push(PackItem { id: unit.index, crossbars: unit.crossbars });
                if fits(&window, cores, capacity) {
                    end += 1;
                } else {
                    window.pop();
                    break;
                }
            }
            max_end[start] = end;
            // Slide: drop the unit at `start` before the next
            // iteration.
            if let Some(pos) = window.iter().position(|i| i.id == start) {
                window.remove(pos);
            }
        }
        Self { max_end, len: m }
    }

    /// Number of units `M`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the decomposition had no units.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The largest valid end (exclusive) for a partition starting at
    /// `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start >= len`.
    pub fn max_end(&self, start: usize) -> usize {
        self.max_end[start]
    }

    /// `true` if units `[start, end)` form a valid partition.
    pub fn is_valid(&self, start: usize, end: usize) -> bool {
        start < end && end <= self.len && end <= self.max_end[start]
    }

    /// Fraction of `(i, j)` position pairs that are valid — the
    /// "valid portion" visualized in the paper's Fig. 5 (shrinks as
    /// models grow and chips shrink).
    pub fn valid_fraction(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let valid: usize = (0..self.len).map(|i| self.max_end[i] - i).sum();
        let total = self.len * (self.len + 1) / 2;
        valid as f64 / total as f64
    }

    /// Renders an ASCII heat map of the validity matrix (rows = start,
    /// cols = end), downsampled to at most `size x size` characters —
    /// a textual rendition of the paper's Fig. 5.
    pub fn ascii_map(&self, size: usize) -> String {
        if self.len == 0 {
            return String::new();
        }
        let size = size.clamp(1, self.len);
        let step = self.len.div_ceil(size);
        let mut out = String::new();
        for r in (0..self.len).step_by(step) {
            for c in (0..self.len).step_by(step) {
                let valid = c >= r && (c + 1) <= self.max_end[r];
                out.push(if valid { '#' } else { '.' });
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for ValidityMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ascii_map(48))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use pim_model::zoo;

    #[test]
    fn single_units_always_valid() {
        let chip = ChipSpec::chip_s();
        let seq = decompose(&zoo::squeezenet(), &chip);
        let map = ValidityMap::build(&seq, &chip);
        for i in 0..map.len() {
            assert!(map.max_end(i) > i, "unit {i} must at least fit alone");
            assert!(map.is_valid(i, i + 1));
        }
    }

    #[test]
    fn every_span_inside_max_end_packs_and_the_next_does_not() {
        let chips = [ChipSpec::chip_s(), ChipSpec::chip_m(), ChipSpec::chip_l()];
        for net in [zoo::resnet18(), zoo::squeezenet(), zoo::vgg16()] {
            for chip in &chips {
                let seq = decompose(&net, chip);
                let map = ValidityMap::build(&seq, chip);
                let fits_span =
                    |items: &[PackItem]| fits(items, chip.cores, chip.crossbars_per_core);
                let item = |j: usize| PackItem { id: j, crossbars: seq.unit(j).crossbars };
                for i in 0..map.len() {
                    let mut items = Vec::new();
                    for j in i..map.max_end(i) {
                        items.push(item(j));
                        assert!(
                            fits_span(&items),
                            "{} on {}: [{i}, {}) must pack",
                            net.name(),
                            chip.name,
                            j + 1
                        );
                    }
                    if map.max_end(i) < map.len() {
                        items.push(item(map.max_end(i)));
                        assert!(
                            !fits_span(&items),
                            "{} on {}: [{i}, max_end + 1) must not pack",
                            net.name(),
                            chip.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn squeezenet_fits_whole_chip_somewhere() {
        // SqueezeNet (0.587 MiB) fits Chip-S (1.125 MiB) entirely:
        // the span from 0 must reach the end.
        let chip = ChipSpec::chip_s();
        let seq = decompose(&zoo::squeezenet(), &chip);
        let map = ValidityMap::build(&seq, &chip);
        assert_eq!(map.max_end(0), map.len(), "whole SqueezeNet fits Chip-S");
        assert_eq!(map.valid_fraction(), 1.0);
    }

    #[test]
    fn vgg_on_small_chip_is_mostly_invalid() {
        // Fig. 5's lower-right corner: big model, small chip.
        let chip = ChipSpec::chip_s();
        let seq = decompose(&zoo::vgg16(), &chip);
        let map = ValidityMap::build(&seq, &chip);
        assert!(map.max_end(0) < map.len(), "VGG16 cannot fit Chip-S in one partition");
        assert!(
            map.valid_fraction() < 0.5,
            "valid fraction should be small, got {}",
            map.valid_fraction()
        );
    }

    #[test]
    fn bigger_chip_is_more_valid() {
        let net = zoo::resnet18();
        let chip_s = ChipSpec::chip_s();
        let chip_l = ChipSpec::chip_l();
        let f_s = ValidityMap::build(&decompose(&net, &chip_s), &chip_s).valid_fraction();
        let f_l = ValidityMap::build(&decompose(&net, &chip_l), &chip_l).valid_fraction();
        assert!(f_l > f_s, "Chip-L fraction {f_l} should exceed Chip-S {f_s}");
    }

    #[test]
    fn ascii_map_has_valid_diagonal() {
        let chip = ChipSpec::chip_m();
        let seq = decompose(&zoo::tiny_cnn(), &chip);
        let map = ValidityMap::build(&seq, &chip);
        let art = map.ascii_map(16);
        assert!(art.contains('#'));
    }
}
