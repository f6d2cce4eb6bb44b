//! The four mutation schemes of the COMPASS GA (paper §III-C3).

use crate::partition::PartitionGroup;
use crate::validity::ValidityMap;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which mutation was applied (for tracing/ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MutationKind {
    /// Merge two neighboring partitions (removes small, inefficient
    /// partitions).
    Merge,
    /// Split one partition at a random point (removes ill-performing
    /// partitions holding too many layers with low replication).
    Split,
    /// Move one unit across a partition boundary (fine-grained
    /// adjustment of the cut position).
    Move,
    /// Keep the best partition, regenerate everything else randomly
    /// (escapes local optima).
    FixedRandom,
}

impl MutationKind {
    /// All schemes, selected with equal probability (paper §IV-A3).
    pub const ALL: [MutationKind; 4] =
        [MutationKind::Merge, MutationKind::Split, MutationKind::Move, MutationKind::FixedRandom];
}

/// Merges the consecutive partition pair `(k, k+1)` whose combined
/// partition score is worst. `scores[k]` are the per-partition scores;
/// returns `None` if no adjacent pair can legally merge.
///
/// Among the pairs whose merged span is valid, this is the one with
/// the largest combined score, the lowest `k` on a tie: the first valid
/// pair in a stable sort by combined score, worst first. Every other
/// span is unchanged, so only the merged one can be invalid.
pub fn merge(
    group: &PartitionGroup,
    scores: &[f64],
    validity: &ValidityMap,
) -> Option<PartitionGroup> {
    let mut worst: Option<(usize, f64)> = None;
    for k in 0..group.cuts().len() {
        let combined = scores[k] + scores[k + 1];
        if worst.is_some_and(|(_, w)| combined <= w) {
            continue;
        }
        if validity.is_valid(group.partition(k).start, group.partition(k + 1).end) {
            worst = Some((k, combined));
        }
    }
    Some(group.without_cut(worst?.0))
}

/// Splits partition `k` at a uniformly random interior point; fails
/// only for single-unit partitions.
///
/// Any interior split of a valid span is valid by the validity map's
/// construction: `max_end` never decreases, so `[start, end)` valid
/// means `end ≤ max_end(start) ≤ max_end(cut)` for every `cut` in
/// between. (Packing is not monotone under item removal — see
/// [`crate::packing::pack_ffd`] — so this is a property of the map,
/// not of FFD.) Only the two new spans are checked.
pub fn split<R: Rng + ?Sized>(
    group: &PartitionGroup,
    k: usize,
    rng: &mut R,
    validity: &ValidityMap,
) -> Option<PartitionGroup> {
    let part = group.partition(k);
    if part.len() < 2 {
        return None;
    }
    let cut = rng.gen_range((part.start + 1)..part.end);
    let valid = validity.is_valid(part.start, cut) && validity.is_valid(cut, part.end);
    valid.then(|| group.with_cut_inserted(k, cut))
}

/// Moves one unit across the boundary between partition `k` and a
/// random neighbor (shifts a cut by ±1), searching for an optimal
/// partitioning position. Returns `None` when no legal shift exists.
pub fn move_unit<R: Rng + ?Sized>(
    group: &PartitionGroup,
    k: usize,
    rng: &mut R,
    validity: &ValidityMap,
) -> Option<PartitionGroup> {
    let cuts = group.cuts();
    if cuts.is_empty() {
        return None;
    }
    // Candidate cut indices adjacent to partition k: cut k-1 (left
    // boundary) and cut k (right boundary).
    let mut candidates: Vec<usize> = Vec::new();
    if k > 0 {
        candidates.push(k - 1);
    }
    if k < cuts.len() {
        candidates.push(k);
    }
    // Try both shift directions per candidate in random order. Cuts
    // lie in `(0, M)`, so neither shift underflows.
    let mut attempts: Vec<(usize, usize)> =
        candidates.iter().flat_map(|&c| [(c, cuts[c] + 1), (c, cuts[c] - 1)]).collect();
    for i in (1..attempts.len()).rev() {
        let j = rng.gen_range(0..=i);
        attempts.swap(i, j);
    }
    // Only the two spans either side of the moved cut change. An
    // empty span is invalid, so this also rejects a shift onto a
    // neighboring cut or the group's ends.
    let (c, to) = attempts.into_iter().find(|&(c, to)| {
        let (start, end) = (group.partition(c).start, group.partition(c + 1).end);
        validity.is_valid(start, to) && validity.is_valid(to, end)
    })?;
    Some(group.with_cut_at(c, to))
}

/// Keeps the best-fitness partition (index `best`) fixed and
/// regenerates all cuts before and after it randomly.
pub fn fixed_random<R: Rng + ?Sized>(
    group: &PartitionGroup,
    best: usize,
    rng: &mut R,
    validity: &ValidityMap,
) -> Option<PartitionGroup> {
    let part = group.partition(best);
    let m = group.unit_count();
    let mut cuts = Vec::new();
    // Random walk from 0 forced to land exactly on part.start.
    let mut pos = 0usize;
    while pos < part.start {
        let max_end = validity.max_end(pos).min(part.start);
        let end = rng.gen_range((pos + 1)..=max_end);
        cuts.push(end);
        pos = end;
    }
    if part.end < m {
        cuts.push(part.end);
        let mut pos = part.end;
        while pos < m {
            let max_end = validity.max_end(pos);
            let end = rng.gen_range((pos + 1)..=max_end);
            if end < m {
                cuts.push(end);
            }
            pos = end;
        }
    }
    // Each walk step ends inside `max_end` of its start, and the walk
    // before the kept span lands on its start exactly.
    Some(PartitionGroup::from_valid_cuts(cuts, validity))
}

/// Applies `kind` to `group`, mutating the worst-scoring partition
/// (or pair, for merges). Falls back to `None` when the scheme cannot
/// produce a legal offspring.
pub fn apply<R: Rng + ?Sized>(
    kind: MutationKind,
    group: &PartitionGroup,
    scores: &[f64],
    rng: &mut R,
    validity: &ValidityMap,
) -> Option<PartitionGroup> {
    match kind {
        MutationKind::Merge => merge(group, scores, validity),
        MutationKind::Split => split(group, worst(scores), rng, validity),
        MutationKind::Move => move_unit(group, worst(scores), rng, validity),
        MutationKind::FixedRandom => fixed_random(group, best(scores), rng, validity),
    }
}

/// The worst-scoring partition: the last of the largest scores.
fn worst(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(k, _)| k)
        .unwrap_or(0)
}

/// The best-scoring partition: the first of the smallest scores.
fn best(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(k, _)| k)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use pim_arch::ChipSpec;
    use pim_model::zoo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ValidityMap, PartitionGroup) {
        let chip = ChipSpec::chip_s();
        let seq = decompose(&zoo::resnet18(), &chip);
        let validity = ValidityMap::build(&seq, &chip);
        let mut rng = StdRng::seed_from_u64(99);
        let group = PartitionGroup::random(&mut rng, &validity);
        (validity, group)
    }

    fn uniform_scores(group: &PartitionGroup) -> Vec<f64> {
        vec![1.0; group.partition_count()]
    }

    #[test]
    fn merge_reduces_partition_count_by_one() {
        let (validity, group) = setup();
        if let Some(merged) = merge(&group, &uniform_scores(&group), &validity) {
            assert_eq!(merged.partition_count(), group.partition_count() - 1);
            assert_eq!(merged.unit_count(), group.unit_count());
        }
        // (merge may legally fail when every adjacent union is too big
        // — not for a random ResNet18 group in practice, but allowed.)
    }

    #[test]
    fn split_increases_partition_count_by_one() {
        let (validity, group) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        // Find a splittable partition.
        let k = (0..group.partition_count())
            .find(|&k| group.partition(k).len() >= 2)
            .expect("some partition has >= 2 units");
        let split_group = split(&group, k, &mut rng, &validity).expect("split is always valid");
        assert_eq!(split_group.partition_count(), group.partition_count() + 1);
    }

    #[test]
    fn split_single_unit_fails() {
        let (validity, group) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        if let Some(k) = (0..group.partition_count()).find(|&k| group.partition(k).len() == 1) {
            assert!(split(&group, k, &mut rng, &validity).is_none());
        }
    }

    #[test]
    fn move_preserves_partition_count() {
        let (validity, group) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        for k in 0..group.partition_count() {
            if let Some(moved) = move_unit(&group, k, &mut rng, &validity) {
                assert_eq!(moved.partition_count(), group.partition_count());
                assert_ne!(moved, group);
                return;
            }
        }
        panic!("some move should succeed on a multi-partition group");
    }

    #[test]
    fn fixed_random_keeps_best_partition_span() {
        let (validity, group) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let best = 1.min(group.partition_count() - 1);
        let regenerated = fixed_random(&group, best, &mut rng, &validity)
            .expect("fixed-random regeneration succeeds");
        let span = group.partition(best);
        // The kept span must appear as a partition in the offspring.
        let found =
            regenerated.partitions().iter().any(|p| p.start == span.start && p.end == span.end);
        assert!(found, "kept partition {span} missing from {regenerated}");
    }

    #[test]
    fn apply_produces_valid_offspring_for_all_kinds() {
        let (validity, group) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let scores: Vec<f64> = (0..group.partition_count()).map(|k| 1.0 + (k % 3) as f64).collect();
        let mut successes = 0;
        for kind in MutationKind::ALL {
            if let Some(child) = apply(kind, &group, &scores, &mut rng, &validity) {
                assert_eq!(child.unit_count(), group.unit_count());
                successes += 1;
            }
        }
        assert!(successes >= 3, "most mutation kinds should succeed: {successes}/4");
    }

    #[test]
    fn mutations_always_yield_valid_groups_proptest_style() {
        let (validity, mut group) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        // Chain 100 random mutations; every offspring must validate.
        for i in 0..100 {
            let kind = MutationKind::ALL[i % 4];
            let scores = uniform_scores(&group);
            if let Some(child) = apply(kind, &group, &scores, &mut rng, &validity) {
                assert!(
                    PartitionGroup::from_cuts(child.cuts().to_vec(), &validity).is_some(),
                    "offspring of {kind:?} must be valid"
                );
                group = child;
            }
        }
    }

    /// The reference `merge`: rank every cut by the combined score of
    /// its two partitions, worst first (a stable sort), and take the
    /// first whose removal revalidates.
    fn reference_merge(
        group: &PartitionGroup,
        scores: &[f64],
        validity: &ValidityMap,
    ) -> Option<PartitionGroup> {
        let cuts = group.cuts();
        let mut order: Vec<usize> = (0..cuts.len()).collect();
        order.sort_by(|&a, &b| {
            let sa = scores[a] + scores[a + 1];
            let sb = scores[b] + scores[b + 1];
            sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
        });
        order.into_iter().find_map(|k| {
            let mut new_cuts = cuts.to_vec();
            new_cuts.remove(k);
            PartitionGroup::from_cuts(new_cuts, validity)
        })
    }

    /// The reference `split`: insert the cut by search, then
    /// revalidate the whole group.
    fn reference_split<R: Rng + ?Sized>(
        group: &PartitionGroup,
        k: usize,
        rng: &mut R,
        validity: &ValidityMap,
    ) -> Option<PartitionGroup> {
        let part = group.partition(k);
        if part.len() < 2 {
            return None;
        }
        let cut = rng.gen_range((part.start + 1)..part.end);
        let mut cuts = group.cuts().to_vec();
        let pos = cuts.partition_point(|&c| c < cut);
        cuts.insert(pos, cut);
        PartitionGroup::from_cuts(cuts, validity)
    }

    #[test]
    fn span_checks_pick_the_child_full_revalidation_picks() {
        // Each operator against its reference on the same group and
        // an RNG of the same seed: the same child, and the same RNG
        // state after it.
        let (validity, _) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let (mut merged, mut tied, mut split_ok, mut moved) = (0, 0, 0, 0);
        for case in 0..600 {
            let group = PartitionGroup::random(&mut rng, &validity);
            let cuts = group.cuts();
            // Every other case draws from four values, so equal
            // combined scores are common and ties decide the merge.
            let spread = if case % 2 == 0 { 4u32 } else { 1000 };
            let scores: Vec<f64> =
                (0..group.partition_count()).map(|_| rng.gen_range(0..spread) as f64).collect();
            let combined: Vec<f64> = scores.windows(2).map(|w| w[0] + w[1]).collect();
            let top = combined.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            tied += usize::from(combined.iter().filter(|&&c| c == top).count() > 1);
            let want = reference_merge(&group, &scores, &validity);
            let got = merge(&group, &scores, &validity);
            assert_eq!(got, want, "merge of {group} with scores {scores:?}");
            merged += usize::from(got.is_some());

            let k = rng.gen_range(0..group.partition_count());
            let seed = rng.gen_range(0..u64::MAX);
            let (mut reference_rng, mut split_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let want = reference_split(&group, k, &mut reference_rng, &validity);
            let got = split(&group, k, &mut split_rng, &validity);
            assert_eq!(got, want, "split of partition {k} in {group}");
            assert_eq!(split_rng.gen_range(0..u64::MAX), reference_rng.gen_range(0..u64::MAX));
            split_ok += usize::from(got.is_some());

            let mut reference_rng = StdRng::seed_from_u64(seed);
            let mut attempts: Vec<(usize, isize)> = [k.checked_sub(1), Some(k)]
                .into_iter()
                .flatten()
                .filter(|&c| c < cuts.len())
                .flat_map(|c| [(c, 1isize), (c, -1isize)])
                .collect();
            for i in (1..attempts.len()).rev() {
                let j = reference_rng.gen_range(0..=i);
                attempts.swap(i, j);
            }
            let want = attempts.into_iter().find_map(|(c, delta)| {
                let mut new_cuts = cuts.to_vec();
                new_cuts[c] = (cuts[c] as isize + delta) as usize;
                let sorted = new_cuts.windows(2).all(|w| w[0] < w[1]);
                sorted.then(|| PartitionGroup::from_cuts(new_cuts, &validity)).flatten()
            });
            let got = move_unit(&group, k, &mut StdRng::seed_from_u64(seed), &validity);
            assert_eq!(got, want, "move of partition {k} in {group}");
            moved += usize::from(got.is_some());
        }
        // Both outcomes of every search occur, and so do tied merges.
        assert!((1..600).contains(&merged), "{merged} of 600 merges succeeded");
        assert!((1..600).contains(&split_ok), "{split_ok} of 600 splits succeeded");
        assert!((1..600).contains(&moved), "{moved} of 600 moves succeeded");
        assert!(tied > 100, "only {tied} of 600 groups tie for the worst pair");
    }
}
