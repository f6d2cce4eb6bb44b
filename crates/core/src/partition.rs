//! Partitions and partition groups (chromosomes of the GA).

use crate::validity::ValidityMap;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// A partition `P = { xᵢ | start ≤ i < end }`: a contiguous span of
/// partition units executed together on chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Partition {
    /// First unit (inclusive).
    pub start: usize,
    /// One past the last unit.
    pub end: usize,
}

impl Partition {
    /// Creates a partition covering `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end` (empty partitions are meaningless).
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start < end, "partition [{start}, {end}) is empty");
        Self { start, end }
    }

    /// The unit index range.
    pub const fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Number of units `|P|`.
    pub const fn len(&self) -> usize {
        self.end - self.start
    }

    /// Always `false` (partitions are non-empty by construction);
    /// provided for API completeness.
    pub const fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P[{}..{})", self.start, self.end)
    }
}

/// A partition group `PG`: an ordered, gap-free division of all `M`
/// units into partitions — one chromosome of the COMPASS GA.
///
/// Stored as cut positions; invariants (enforced by constructors):
/// cuts are strictly increasing, in `(0, M)`, and every resulting span
/// is valid under the chip's [`ValidityMap`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PartitionGroup {
    cuts: Vec<usize>,
    len: usize,
}

impl PartitionGroup {
    /// Builds a group from cut positions over `M = len` units.
    /// Returns `None` if any span violates `validity` (or cuts are
    /// malformed).
    pub fn from_cuts(cuts: Vec<usize>, validity: &ValidityMap) -> Option<Self> {
        let len = validity.len();
        if len == 0 {
            return None;
        }
        let mut prev = 0usize;
        for &cut in &cuts {
            if cut <= prev || cut >= len || !validity.is_valid(prev, cut) {
                return None;
            }
            prev = cut;
        }
        if !validity.is_valid(prev, len) {
            return None;
        }
        Some(Self { cuts, len })
    }

    /// Builds a group from cut positions the caller has already
    /// checked against `validity` (revalidated in debug builds only).
    pub(crate) fn from_valid_cuts(cuts: Vec<usize>, validity: &ValidityMap) -> Self {
        debug_assert!(Self::from_cuts(cuts.clone(), validity).is_some(), "invalid cuts {cuts:?}");
        Self { cuts, len: validity.len() }
    }

    /// Samples a random valid group: repeatedly chooses an end position
    /// uniformly within the valid range of the current start (always
    /// terminates because a single unit is always valid).
    pub fn random<R: Rng + ?Sized>(rng: &mut R, validity: &ValidityMap) -> Self {
        let len = validity.len();
        assert!(len > 0, "cannot partition an empty unit sequence");
        let mut cuts = Vec::new();
        let mut start = 0usize;
        while start < len {
            let max_end = validity.max_end(start);
            let end = rng.gen_range((start + 1)..=max_end);
            if end < len {
                cuts.push(end);
            }
            start = end;
        }
        Self { cuts, len }
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Number of units `M`.
    pub fn unit_count(&self) -> usize {
        self.len
    }

    /// The partitions in execution order.
    pub fn partitions(&self) -> Vec<Partition> {
        let mut out = Vec::with_capacity(self.partition_count());
        let mut start = 0usize;
        for &cut in &self.cuts {
            out.push(Partition::new(start, cut));
            start = cut;
        }
        out.push(Partition::new(start, self.len));
        out
    }

    /// The k-th partition.
    pub fn partition(&self, k: usize) -> Partition {
        let start = if k == 0 { 0 } else { self.cuts[k - 1] };
        let end = if k == self.cuts.len() { self.len } else { self.cuts[k] };
        Partition::new(start, end)
    }

    /// The raw cut positions.
    pub fn cuts(&self) -> &[usize] {
        &self.cuts
    }

    /// This group with cut `k` removed, merging partitions `k` and
    /// `k + 1`. The caller has checked that the merged span is valid;
    /// every other span is unchanged.
    pub(crate) fn without_cut(&self, k: usize) -> Self {
        let mut cuts = self.cuts.clone();
        cuts.remove(k);
        Self { cuts, len: self.len }
    }

    /// This group with a cut at `cut` inserted as cut `k`, splitting
    /// partition `k`. The caller has checked that `cut` lies strictly
    /// inside partition `k` and that both halves are valid.
    pub(crate) fn with_cut_inserted(&self, k: usize, cut: usize) -> Self {
        let mut cuts = Vec::with_capacity(self.cuts.len() + 1);
        cuts.extend_from_slice(&self.cuts[..k]);
        cuts.push(cut);
        cuts.extend_from_slice(&self.cuts[k..]);
        Self { cuts, len: self.len }
    }

    /// This group with cut `c` moved to `to`. The caller has checked
    /// that `to` lies strictly inside partitions `c` and `c + 1`
    /// together and that both resulting spans are valid.
    pub(crate) fn with_cut_at(&self, c: usize, to: usize) -> Self {
        let mut cuts = self.cuts.clone();
        cuts[c] = to;
        Self { cuts, len: self.len }
    }

    /// Which partition contains unit `i`.
    pub fn partition_of_unit(&self, i: usize) -> usize {
        self.cuts.partition_point(|&c| c <= i)
    }
}

impl fmt::Display for PartitionGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PG{{")?;
        for (i, p) in self.partitions().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use pim_arch::ChipSpec;
    use pim_model::zoo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn map() -> ValidityMap {
        let chip = ChipSpec::chip_s();
        let seq = decompose(&zoo::resnet18(), &chip);
        ValidityMap::build(&seq, &chip)
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_partition_panics() {
        let _ = Partition::new(3, 3);
    }

    #[test]
    fn partitions_cover_all_units_without_gaps() {
        let validity = map();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let group = PartitionGroup::random(&mut rng, &validity);
            let parts = group.partitions();
            assert_eq!(parts[0].start, 0);
            assert_eq!(parts.last().unwrap().end, validity.len());
            for pair in parts.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "gap-free");
            }
            for p in &parts {
                assert!(validity.is_valid(p.start, p.end), "{p} must be valid");
            }
        }
    }

    #[test]
    fn from_cuts_validates() {
        let validity = map();
        // Whole-model span is invalid on Chip-S (ResNet18 > 1.125 MiB).
        assert!(PartitionGroup::from_cuts(vec![], &validity).is_none());
        // A random group's cuts round-trip.
        let mut rng = StdRng::seed_from_u64(2);
        let group = PartitionGroup::random(&mut rng, &validity);
        let rebuilt = PartitionGroup::from_cuts(group.cuts().to_vec(), &validity).unwrap();
        assert_eq!(rebuilt, group);
        // Decreasing cuts are rejected.
        assert!(PartitionGroup::from_cuts(vec![5, 3], &validity).is_none());
    }

    #[test]
    fn partition_of_unit_is_consistent() {
        let validity = map();
        let mut rng = StdRng::seed_from_u64(3);
        let group = PartitionGroup::random(&mut rng, &validity);
        for (k, p) in group.partitions().iter().enumerate() {
            for i in p.range() {
                assert_eq!(group.partition_of_unit(i), k);
            }
            assert_eq!(group.partition(k), *p);
        }
    }

    #[test]
    fn random_groups_vary() {
        let validity = map();
        let mut rng = StdRng::seed_from_u64(4);
        let a = PartitionGroup::random(&mut rng, &validity);
        let b = PartitionGroup::random(&mut rng, &validity);
        // Overwhelmingly likely to differ for a large model.
        assert_ne!(a, b);
    }

    #[test]
    fn display_shows_spans() {
        let validity = map();
        let mut rng = StdRng::seed_from_u64(5);
        let group = PartitionGroup::random(&mut rng, &validity);
        assert!(group.to_string().starts_with("PG{"));
    }
}
