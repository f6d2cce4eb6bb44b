//! First-fit-decreasing core packing.
//!
//! Partition units (and their replicas) are assigned to PIM cores by
//! crossbar count. A unit never spans two cores (it is sized to fit
//! one), but several small units may share a core — mirroring
//! PIMCOMP-style core mapping.

use serde::{Deserialize, Serialize};

/// One item to pack: an opaque id plus its crossbar footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackItem {
    /// Caller-defined identifier (e.g. unit index or replica id).
    pub id: usize,
    /// Crossbars required.
    pub crossbars: usize,
}

/// Result of a successful packing: `assignment[i]` is the core index of
/// the item with the same position in the *input* order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packing {
    /// Core index per input item.
    pub assignment: Vec<usize>,
    /// Number of cores used.
    pub cores_used: usize,
    /// Free crossbars per used core.
    pub slack: Vec<usize>,
}

/// Packs `items` into at most `cores` bins of `capacity` crossbars each
/// using first-fit-decreasing. Returns `None` if the items do not fit
/// (or an item exceeds the capacity outright).
///
/// FFD is a heuristic with packing anomalies (a bigger core, or a
/// smaller item, can need more cores), so it guarantees no
/// monotonicity in the item multiset. The validity map's prefix
/// structure is a property checked on the model zoo, not a
/// consequence of this function (see [`crate::validity::ValidityMap`]).
///
/// # Example
///
/// ```
/// use compass::packing::{pack_ffd, PackItem};
///
/// let items = vec![
///     PackItem { id: 0, crossbars: 5 },
///     PackItem { id: 1, crossbars: 4 },
///     PackItem { id: 2, crossbars: 4 },
/// ];
/// let packing = pack_ffd(&items, 2, 9).expect("fits in two cores");
/// assert_eq!(packing.cores_used, 2);
/// ```
pub fn pack_ffd(items: &[PackItem], cores: usize, capacity: usize) -> Option<Packing> {
    if items.is_empty() {
        return Some(Packing { assignment: Vec::new(), cores_used: 0, slack: Vec::new() });
    }
    // Sort indices by descending size (stable to keep determinism).
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| items[b].crossbars.cmp(&items[a].crossbars).then(a.cmp(&b)));

    let mut free: Vec<usize> = Vec::new();
    let mut assignment = vec![usize::MAX; items.len()];
    for &idx in &order {
        let need = items[idx].crossbars;
        if need > capacity {
            return None;
        }
        match free.iter().position(|&f| f >= need) {
            Some(bin) => {
                free[bin] -= need;
                assignment[idx] = bin;
            }
            None => {
                if free.len() == cores {
                    return None;
                }
                free.push(capacity - need);
                assignment[idx] = free.len() - 1;
            }
        }
    }
    Some(Packing { cores_used: free.len(), assignment, slack: free })
}

/// `true` if `items` fit into `cores` bins of `capacity`.
pub fn fits(items: &[PackItem], cores: usize, capacity: usize) -> bool {
    pack_ffd(items, cores, capacity).is_some()
}

/// What the estimator reads of a packing: how many cores it uses and
/// the busiest core's crossbars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CoreLoad {
    /// Number of cores used.
    pub(crate) cores_used: usize,
    /// Crossbars on the most loaded core (0 when no core is used).
    pub(crate) max_crossbars: usize,
}

impl CoreLoad {
    /// The load of bins of `capacity` crossbars with `free` crossbars
    /// left in each.
    pub(crate) fn from_free(free: &[usize], capacity: usize) -> Self {
        Self {
            cores_used: free.len(),
            max_crossbars: free.iter().map(|&f| capacity - f).max().unwrap_or(0),
        }
    }
}

impl Packing {
    /// The packing's core load, for cores of `capacity` crossbars.
    pub(crate) fn load(&self, capacity: usize) -> CoreLoad {
        CoreLoad::from_free(&self.slack, capacity)
    }
}

/// Packs an item multiset given as `(crossbars, count)` size classes,
/// listed in strictly descending size order, exactly as [`pack_ffd`]
/// packs the items — without enumerating them. Returns the free
/// crossbars per opened bin (equal to [`pack_ffd`]'s `slack`), or
/// `None` where [`pack_ffd`] returns `None`. `bins` is scratch space
/// the result borrows, so a caller checking many multisets reuses one
/// allocation.
///
/// The result is exact, not a bound. In FFD order equal-size items
/// are adjacent and fill bins in index order: every earlier bin is
/// already too full for the size, so each open bin takes
/// `min(count, free / size)` of the class at once, and each new bin
/// takes `capacity / size`. That is O(classes × cores) instead of a
/// sort and scan per item.
///
/// # Example
///
/// ```
/// use compass::packing::{ffd_pack_classes, pack_ffd, PackItem};
///
/// let sizes = [5, 4, 4, 3, 3, 3];
/// let items: Vec<PackItem> =
///     sizes.iter().enumerate().map(|(id, &crossbars)| PackItem { id, crossbars }).collect();
/// let classes = [(5, 1), (4, 2), (3, 3)];
/// let mut bins = Vec::new();
/// for cores in 1..4 {
///     let slack = ffd_pack_classes(&classes, cores, 9, &mut bins).map(<[usize]>::to_vec);
///     assert_eq!(slack, pack_ffd(&items, cores, 9).map(|p| p.slack));
/// }
/// ```
pub fn ffd_pack_classes<'b>(
    classes: &[(usize, usize)],
    cores: usize,
    capacity: usize,
    bins: &'b mut Vec<usize>,
) -> Option<&'b [usize]> {
    debug_assert!(classes.windows(2).all(|w| w[0].0 > w[1].0), "sizes must strictly descend");
    bins.clear();
    for &(size, count) in classes {
        if count == 0 {
            continue;
        }
        if size > capacity {
            return None;
        }
        if size == 0 {
            // Zero-size items land in the first open bin (or open one).
            if bins.is_empty() {
                if cores == 0 {
                    return None;
                }
                bins.push(capacity);
            }
            continue;
        }
        let mut left = count;
        for f in bins.iter_mut() {
            let take = left.min(*f / size);
            *f -= take * size;
            left -= take;
            if left == 0 {
                break;
            }
        }
        if left == 0 {
            continue;
        }
        let per_bin = capacity / size;
        let opened = left.div_ceil(per_bin);
        if bins.len() + opened > cores {
            return None;
        }
        bins.extend(std::iter::repeat_n(capacity - per_bin * size, opened - 1));
        bins.push(capacity - (left - (opened - 1) * per_bin) * size);
    }
    Some(bins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn items(sizes: &[usize]) -> Vec<PackItem> {
        sizes.iter().enumerate().map(|(id, &crossbars)| PackItem { id, crossbars }).collect()
    }

    /// `(crossbars, count)` classes of `sizes`, in descending size order.
    fn classes(sizes: &[usize]) -> Vec<(usize, usize)> {
        let mut sorted = sizes.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut classes: Vec<(usize, usize)> = Vec::new();
        for size in sorted {
            match classes.last_mut() {
                Some((s, n)) if *s == size => *n += 1,
                _ => classes.push((size, 1)),
            }
        }
        classes
    }

    #[test]
    fn class_level_ffd_reproduces_the_item_packing_loads() {
        let mut rng = StdRng::seed_from_u64(0xB1_75);
        let mut bins = Vec::new();
        let mut packed = 0usize;
        for case in 0..5_000 {
            let capacity = rng.gen_range(1usize..20);
            let cores = rng.gen_range(0usize..10);
            // Sizes from zero to one past the capacity, so zero-size
            // and oversize items both occur.
            let sizes: Vec<usize> =
                (0..rng.gen_range(0usize..30)).map(|_| rng.gen_range(0..capacity + 2)).collect();
            let expected = pack_ffd(&items(&sizes), cores, capacity);
            let got = ffd_pack_classes(&classes(&sizes), cores, capacity, &mut bins);
            assert_eq!(got, expected.as_ref().map(|p| &p.slack[..]), "case {case}: {sizes:?}");
            if let (Some(free), Some(packing)) = (got, &expected) {
                assert_eq!(CoreLoad::from_free(free, capacity), packing.load(capacity));
                assert_eq!(free.len(), packing.cores_used);
                // FFD never leaves an opened bin empty, so the items
                // occupy exactly cores `0..cores_used`.
                let mut used = packing.assignment.clone();
                used.sort_unstable();
                used.dedup();
                assert_eq!(used, (0..packing.cores_used).collect::<Vec<_>>(), "case {case}");
                packed += 1;
            }
        }
        assert!((500..4_500).contains(&packed), "{packed} of 5000 cases pack");
    }

    #[test]
    fn empty_input_uses_no_cores() {
        let p = pack_ffd(&[], 4, 9).unwrap();
        assert_eq!(p.cores_used, 0);
    }

    #[test]
    fn exact_fill() {
        let p = pack_ffd(&items(&[9, 9, 9]), 3, 9).unwrap();
        assert_eq!(p.cores_used, 3);
        assert!(p.slack.iter().all(|&s| s == 0));
    }

    #[test]
    fn ffd_packs_mixed_sizes_tightly() {
        // 6+3, 5+4 fit into two bins of 9; naive first-fit in input
        // order (6,5,4,3) would also work; FFD guarantees it.
        let p = pack_ffd(&items(&[3, 6, 4, 5]), 2, 9).unwrap();
        assert_eq!(p.cores_used, 2);
    }

    #[test]
    fn rejects_when_capacity_exceeded() {
        assert!(pack_ffd(&items(&[10]), 4, 9).is_none());
        assert!(pack_ffd(&items(&[9; 5]), 4, 9).is_none());
    }

    #[test]
    fn assignment_indices_match_input_order() {
        let input = items(&[2, 8, 3]);
        let p = pack_ffd(&input, 2, 9).unwrap();
        assert_eq!(p.assignment.len(), 3);
        // Each assignment is a valid core id.
        for &core in &p.assignment {
            assert!(core < p.cores_used);
        }
        // Per-core load never exceeds capacity.
        let mut load = vec![0usize; p.cores_used];
        for (item, &core) in input.iter().zip(&p.assignment) {
            load[core] += item.crossbars;
        }
        assert!(load.iter().all(|&l| l <= 9));
    }

    #[test]
    fn equal_sizes_fill_bins_in_order() {
        let all = items(&[4, 4, 4, 4, 4, 4]);
        assert!(fits(&all, 3, 9));
        assert!(fits(&all[..3], 3, 9));
        // A seventh item of 4 no longer fits 3 cores of 9.
        let mut more = all.clone();
        more.push(PackItem { id: 6, crossbars: 4 });
        assert!(!fits(&more, 3, 9));
        let mut bins = Vec::new();
        assert_eq!(ffd_pack_classes(&[(4, 6)], 3, 9, &mut bins), Some(&[1, 1, 1][..]));
        assert!(ffd_pack_classes(&[(4, 7)], 3, 9, &mut bins).is_none());
    }

    #[test]
    fn ffd_has_packing_anomalies() {
        // FFD is a heuristic, not a monotone packer: on this list a
        // bigger core, or a smaller first item, needs one more core.
        let list = [44, 24, 24, 22, 21, 17, 8, 8, 6, 6];
        let cores = |sizes: &[usize], capacity| pack_ffd(&items(sizes), 8, capacity).unwrap();
        assert_eq!(cores(&list, 60).cores_used, 3);
        assert_eq!(cores(&list, 61).cores_used, 4);
        let mut shrunk = list;
        shrunk[0] = 43;
        assert_eq!(cores(&shrunk, 60).cores_used, 4);
    }
}
