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

/// `true` if [`pack_ffd`] would pack an item multiset given as
/// `(crossbars, count)` size classes, listed in strictly descending
/// size order — without enumerating the items.
///
/// The verdict is exact, not a bound. In FFD order equal-size items
/// are adjacent and fill bins in index order: every earlier bin is
/// already too full for the size, so each open bin takes
/// `min(count, free / size)` of the class at once, and each new bin
/// takes `capacity / size`. That is O(classes × cores) instead of a
/// sort and scan per item.
///
/// # Example
///
/// ```
/// use compass::packing::{ffd_fits_classes, fits, PackItem};
///
/// let sizes = [5, 4, 4, 3, 3, 3];
/// let items: Vec<PackItem> =
///     sizes.iter().enumerate().map(|(id, &crossbars)| PackItem { id, crossbars }).collect();
/// let classes = [(5, 1), (4, 2), (3, 3)];
/// for cores in 1..4 {
///     assert_eq!(ffd_fits_classes(&classes, cores, 9), fits(&items, cores, 9));
/// }
/// ```
pub fn ffd_fits_classes(classes: &[(usize, usize)], cores: usize, capacity: usize) -> bool {
    debug_assert!(classes.windows(2).all(|w| w[0].0 > w[1].0), "sizes must strictly descend");
    let mut free: Vec<usize> = Vec::with_capacity(cores);
    for &(size, count) in classes {
        if count == 0 {
            continue;
        }
        if size > capacity {
            return false;
        }
        if size == 0 {
            // Zero-size items land in the first open bin (or open one).
            if free.is_empty() {
                if cores == 0 {
                    return false;
                }
                free.push(capacity);
            }
            continue;
        }
        let mut left = count;
        for f in free.iter_mut() {
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
        if free.len() + opened > cores {
            return false;
        }
        free.extend(std::iter::repeat_n(capacity - per_bin * size, opened - 1));
        free.push(capacity - (left - (opened - 1) * per_bin) * size);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(sizes: &[usize]) -> Vec<PackItem> {
        sizes.iter().enumerate().map(|(id, &crossbars)| PackItem { id, crossbars }).collect()
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
        assert!(ffd_fits_classes(&[(4, 6)], 3, 9));
        assert!(!ffd_fits_classes(&[(4, 7)], 3, 9));
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
