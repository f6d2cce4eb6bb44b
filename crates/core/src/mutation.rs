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
pub fn merge(
    group: &PartitionGroup,
    scores: &[f64],
    validity: &ValidityMap,
) -> Option<PartitionGroup> {
    let cuts = group.cuts();
    if cuts.is_empty() {
        return None;
    }
    // Rank cut indices by combined score of the two partitions they
    // separate, worst (largest) first.
    let mut order: Vec<usize> = (0..cuts.len()).collect();
    order.sort_by(|&a, &b| {
        let sa = scores[a] + scores[a + 1];
        let sb = scores[b] + scores[b + 1];
        sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
    });
    // Every other span is unchanged, so only the merged one can be
    // invalid.
    let merged = order
        .into_iter()
        .find(|&k| validity.is_valid(group.partition(k).start, group.partition(k + 1).end))?;
    Some(group.without_cut(merged))
}

/// Splits partition `k` at a uniformly random interior point. Any
/// interior split of a valid span is itself valid (packing is monotone
/// under item removal), so this only fails for single-unit partitions.
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
    let mut cuts = group.cuts().to_vec();
    let pos = cuts.partition_point(|&c| c < cut);
    cuts.insert(pos, cut);
    PartitionGroup::from_cuts(cuts, validity)
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
    if part.start > 0 && *cuts.last().unwrap() != part.start {
        // Unreachable by construction, but stay defensive.
        return None;
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
    PartitionGroup::from_cuts(cuts, validity)
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
    let worst = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(k, _)| k)
        .unwrap_or(0);
    let best = scores
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(k, _)| k)
        .unwrap_or(0);
    match kind {
        MutationKind::Merge => merge(group, scores, validity),
        MutationKind::Split => split(group, worst, rng, validity),
        MutationKind::Move => move_unit(group, worst, rng, validity),
        MutationKind::FixedRandom => fixed_random(group, best, rng, validity),
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

    #[test]
    fn span_checks_pick_the_child_full_revalidation_picks() {
        // Reference: the searches `merge` and `move_unit` ran before
        // they checked only the spans an edit changes — edit a clone
        // of the cuts, then revalidate the whole group.
        let (validity, _) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let (mut merged, mut moved) = (0, 0);
        for _ in 0..400 {
            let group = PartitionGroup::random(&mut rng, &validity);
            let cuts = group.cuts();
            let scores: Vec<f64> =
                (0..group.partition_count()).map(|_| rng.gen_range(0..1000u32) as f64).collect();
            let mut order: Vec<usize> = (0..cuts.len()).collect();
            order.sort_by(|&a, &b| {
                let sa = scores[a] + scores[a + 1];
                let sb = scores[b] + scores[b + 1];
                sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
            });
            let want = order.into_iter().find_map(|k| {
                let mut new_cuts = cuts.to_vec();
                new_cuts.remove(k);
                PartitionGroup::from_cuts(new_cuts, &validity)
            });
            let got = merge(&group, &scores, &validity);
            assert_eq!(got, want, "merge of {group}");
            merged += usize::from(got.is_some());

            let k = rng.gen_range(0..group.partition_count());
            let seed = rng.gen_range(0..u64::MAX);
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
        // Both outcomes of both searches occur.
        assert!((1..400).contains(&merged), "{merged} of 400 merges succeeded");
        assert!((1..400).contains(&moved), "{moved} of 400 moves succeeded");
    }
}
