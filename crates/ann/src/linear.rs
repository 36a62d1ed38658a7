//! Exact brute-force search.

use std::collections::HashMap;

use features::distance::squared_euclidean_ref;
use features::FeatureVector;

use crate::flat::FlatBuffer;
use crate::index::{check_insert, check_query, finish_within, squared_limit, Neighbor, NnIndex};

/// The cache's index: an exact scan over a flat key store.
///
/// `O(n)` per lookup but with an excellent constant: no exact structure
/// measured against it (a bounded kd-tree, EXPERIMENTS.md R-11) beat it
/// at any cache size, so it is the only index.
///
/// Keys live in a flat buffer (each key's first chunk in transposed
/// head blocks of eight rows, the rest row-major, kept dense by
/// swap-remove) so a scan scores eight rows per step and reads the rest
/// of a row only when its first chunk is within the bound; candidates go
/// through a bounded selection buffer instead of scoring every entry
/// into a fresh `Vec`.
/// See DESIGN.md "Performance model & hot path".
///
/// # Example
///
/// ```
/// use ann::{LinearScan, NnIndex};
/// use features::FeatureVector;
///
/// let mut index = LinearScan::new(3);
/// index.insert(10, FeatureVector::from_vec(vec![1.0, 0.0, 0.0]).unwrap());
/// assert_eq!(index.len(), 1);
/// assert_eq!(index.remove(10), Some(0));
/// assert!(index.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct LinearScan {
    flat: FlatBuffer,
}

impl LinearScan {
    /// An empty scan for keys of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> LinearScan {
        assert!(dim > 0, "LinearScan: dim must be positive");
        LinearScan {
            flat: FlatBuffer::new(dim),
        }
    }

    /// The key stored under `id`, rebuilt from the flat buffer: bit for
    /// bit the key that was inserted, or `None` for an id not held. The
    /// index is the only copy of its keys, so a reader that needs one (a
    /// cache exporting its entries) asks here.
    pub fn key(&self, id: u64) -> Option<FeatureVector> {
        FeatureVector::from_vec(self.flat.key(id)?).ok()
    }

    /// The row `id`'s key occupies: rows are dense, `0..len()`, so a
    /// caller can keep its own data for each entry in a `Vec` parallel
    /// to them.
    pub fn row(&self, id: u64) -> Option<usize> {
        self.flat.row(id)
    }
}

impl NnIndex for LinearScan {
    fn dim(&self) -> usize {
        self.flat.dim()
    }

    fn len(&self) -> usize {
        self.flat.len()
    }

    fn insert(&mut self, id: u64, key: FeatureVector) {
        check_insert(self.flat.dim(), &key);
        self.flat.insert(id, key.as_slice());
    }

    fn remove(&mut self, id: u64) -> Option<usize> {
        self.flat.remove(id)
    }

    fn nearest_within_into(
        &self,
        query: &FeatureVector,
        k: usize,
        max_distance: f64,
        out: &mut Vec<Neighbor>,
    ) {
        check_query(self.flat.dim(), query, k, max_distance);
        self.flat
            .block_scan_into(query.as_slice(), k, squared_limit(max_distance), out);
        finish_within(out, max_distance);
    }

    fn clear(&mut self) {
        self.flat.clear();
    }
}

/// The pre-optimisation linear scan: one `(id, FeatureVector)` pair per
/// entry, every query scoring all entries into a fresh `Vec` and
/// partial-sorting it. Kept as the equivalence oracle for [`LinearScan`]
/// (the proptests below pin them to identical results).
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct ReferenceLinearScan {
    dim: usize,
    entries: Vec<(u64, FeatureVector)>,
    /// id → position in `entries` (swap-remove keeps this dense).
    positions: HashMap<u64, usize>,
}

impl ReferenceLinearScan {
    /// Creates an empty index for keys of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> ReferenceLinearScan {
        assert!(dim > 0, "ReferenceLinearScan: dim must be positive");
        ReferenceLinearScan {
            dim,
            entries: Vec::new(),
            positions: HashMap::new(),
        }
    }

    /// The key stored under `id`, as inserted.
    pub fn key(&self, id: u64) -> Option<&FeatureVector> {
        let &pos = self.positions.get(&id)?;
        self.entries.get(pos).map(|(_, key)| key)
    }
}

impl NnIndex for ReferenceLinearScan {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn insert(&mut self, id: u64, key: FeatureVector) {
        check_insert(self.dim, &key);
        match self.positions.get(&id) {
            Some(&pos) => self.entries[pos].1 = key,
            None => {
                self.positions.insert(id, self.entries.len());
                self.entries.push((id, key));
            }
        }
    }

    fn remove(&mut self, id: u64) -> Option<usize> {
        let pos = self.positions.remove(&id)?;
        self.entries.swap_remove(pos);
        if pos < self.entries.len() {
            let moved_id = self.entries[pos].0;
            self.positions.insert(moved_id, pos);
        }
        Some(pos)
    }

    fn nearest_within_into(
        &self,
        query: &FeatureVector,
        k: usize,
        max_distance: f64,
        out: &mut Vec<Neighbor>,
    ) {
        // The oracle keeps its pre-optimisation shape: per-entry scoring
        // into a fresh Vec and a partial sort, the bound applied to the
        // finished unbounded answer. It is never on a hot path (rule A's
        // ban applies to the fn *name*, so the delegation body here
        // stays token-clean and the allocations live in `nearest`).
        check_query(self.dim, query, k, max_distance);
        out.clear();
        out.extend(self.nearest(query, k));
        out.retain(|n| n.distance <= max_distance);
    }

    fn nearest(&self, query: &FeatureVector, k: usize) -> Vec<Neighbor> {
        check_query(self.dim, query, k, f64::INFINITY);
        let mut all: Vec<Neighbor> = self
            .entries
            .iter()
            .map(|(id, key)| Neighbor {
                id: *id,
                // The scalar kernel, deliberately: this scan is the
                // pre-optimisation path, so it must not borrow the
                // chunked kernel's speed (bit-equality between the two
                // kernels is pinned in features::distance).
                distance: squared_euclidean_ref(key.as_slice(), query.as_slice()),
            })
            .collect();
        // Partial sort: select the k smallest, then order them. Ties are
        // broken by id so the reference agrees with the bounded scan.
        let k = k.min(all.len());
        if k == 0 {
            return Vec::new();
        }
        all.select_nth_unstable_by(k - 1, |a, b| {
            a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id))
        });
        all.truncate(k);
        all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        for n in &mut all {
            n.distance = n.distance.sqrt();
        }
        all
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.positions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexScratch;

    fn fv(components: &[f32]) -> FeatureVector {
        FeatureVector::from_vec(components.to_vec()).unwrap()
    }

    #[test]
    fn nearest_returns_sorted_exact_results() {
        let mut index = LinearScan::new(1);
        for (id, x) in [(1u64, 10.0f32), (2, 0.0), (3, 5.0), (4, -2.5)] {
            index.insert(id, fv(&[x]));
        }
        let hits = index.nearest(&fv(&[1.0]), 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id, 2);
        assert!((hits[0].distance - 1.0).abs() < 1e-6);
        assert_eq!(hits[1].id, 4);
        assert_eq!(hits[2].id, 3);
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let mut index = LinearScan::new(1);
        index.insert(1, fv(&[0.0]));
        let hits = index.nearest(&fv(&[0.0]), 10);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let index = LinearScan::new(2);
        assert!(index.nearest(&fv(&[0.0, 0.0]), 5).is_empty());
        assert!(index.is_empty());
    }

    #[test]
    fn insert_same_id_replaces() {
        let mut index = LinearScan::new(1);
        index.insert(1, fv(&[0.0]));
        index.insert(1, fv(&[100.0]));
        assert_eq!(index.len(), 1);
        let hits = index.nearest(&fv(&[100.0]), 1);
        assert_eq!(hits[0].id, 1);
        assert!(hits[0].distance < 1e-6);
    }

    #[test]
    fn remove_swaps_correctly() {
        let mut index = LinearScan::new(1);
        for id in 0..5u64 {
            index.insert(id, fv(&[id as f32]));
        }
        assert_eq!(index.remove(0), Some(0));
        assert_eq!(index.remove(0), None);
        assert_eq!(index.len(), 4);
        // The remaining ids must all still be findable at their keys.
        for id in 1..5u64 {
            let hits = index.nearest(&fv(&[id as f32]), 1);
            assert_eq!(hits[0].id, id);
        }
    }

    #[test]
    fn remove_keeps_flat_buffer_dense() {
        let mut index = LinearScan::new(2);
        for id in 0..6u64 {
            index.insert(id, fv(&[id as f32, -(id as f32)]));
        }
        // Remove from the middle, the front and the back.
        for id in [2u64, 0, 5] {
            assert!(index.remove(id).is_some());
        }
        assert_eq!(index.len(), 3);
        for id in [1u64, 3, 4] {
            let hits = index.nearest(&fv(&[id as f32, -(id as f32)]), 1);
            assert_eq!(hits[0].id, id);
            assert!(hits[0].distance < 1e-6);
        }
    }

    #[test]
    fn equal_distances_break_ties_by_id() {
        let mut index = LinearScan::new(1);
        for id in [9u64, 3, 7] {
            index.insert(id, fv(&[1.0]));
        }
        let hits = index.nearest(&fv(&[0.0]), 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 3);
        assert_eq!(hits[1].id, 7);
    }

    #[test]
    fn nearest_into_reuses_the_buffer() {
        let mut index = LinearScan::new(1);
        for id in 0..8u64 {
            index.insert(id, fv(&[id as f32]));
        }
        let mut scratch = IndexScratch::new();
        let mut out = Vec::new();
        index.nearest_into(&fv(&[0.0]), 3, &mut scratch, &mut out);
        assert_eq!(out.len(), 3);
        let capacity = out.capacity();
        // A second query must not grow the buffer.
        index.nearest_into(&fv(&[7.0]), 3, &mut scratch, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].id, 7);
        assert_eq!(out.capacity(), capacity);
    }

    #[test]
    fn clear_empties() {
        let mut index = LinearScan::new(1);
        index.insert(1, fv(&[1.0]));
        index.clear();
        assert!(index.is_empty());
        assert_eq!(index.dim(), 1);
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn zero_dim_rejected() {
        LinearScan::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::index::IndexScratch;
    use proptest::prelude::*;

    const DIM: usize = 3;

    #[derive(Debug, Clone)]
    enum Op {
        Insert { id: u64, key: Vec<f32> },
        Remove { id: u64 },
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..32, proptest::collection::vec(-10.0f32..10.0, DIM))
                .prop_map(|(id, key)| Op::Insert { id, key }),
            (0u64..32, proptest::collection::vec(-10.0f32..10.0, DIM))
                .prop_map(|(id, key)| Op::Insert { id, key }),
            (0u64..32, proptest::collection::vec(-10.0f32..10.0, DIM))
                .prop_map(|(id, key)| Op::Insert { id, key }),
            (0u64..32).prop_map(|id| Op::Remove { id }),
        ]
    }

    proptest! {
        /// Under random insert/remove interleavings the flat-buffer scan
        /// and the pre-optimisation reference return *identical* results
        /// (same ids, bit-equal distances, same order) — and
        /// `nearest_into` agrees with `nearest`.
        #[test]
        fn flat_scan_matches_reference(
            ops in proptest::collection::vec(op(), 1..60),
            query in proptest::collection::vec(-10.0f32..10.0, DIM),
            k in 1usize..6,
        ) {
            let mut fast = LinearScan::new(DIM);
            let mut reference = ReferenceLinearScan::new(DIM);
            for op in ops {
                match op {
                    Op::Insert { id, key } => {
                        let key = FeatureVector::from_vec(key).unwrap();
                        fast.insert(id, key.clone());
                        reference.insert(id, key);
                    }
                    Op::Remove { id } => {
                        prop_assert_eq!(fast.remove(id), reference.remove(id));
                    }
                }
                prop_assert_eq!(fast.len(), reference.len());
            }
            let query = FeatureVector::from_vec(query).unwrap();
            let a = fast.nearest(&query, k);
            let b = reference.nearest(&query, k);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.id, y.id);
                prop_assert_eq!(x.distance.to_bits(), y.distance.to_bits());
            }
            let mut scratch = IndexScratch::new();
            let mut reused = Vec::new();
            fast.nearest_into(&query, k, &mut scratch, &mut reused);
            prop_assert_eq!(reused, a);
        }

        /// The scan is the only copy of its keys, so reading one back must
        /// give the inserted bits: under random insert, replace-by-id and
        /// remove, at widths below, at and past one head chunk and on
        /// buffers of up to five head blocks (a swap-remove moves the last
        /// row across blocks), every live id's key equals the reference's
        /// stored key `to_bits` for `to_bits`, and a missing id reads
        /// `None` from both.
        #[test]
        fn read_back_keys_match_the_reference(
            dim in prop_oneof![Just(1usize), Just(3), Just(8), Just(9), Just(64)],
            fill in 0usize..40,
            ops in proptest::collection::vec(
                (0u64..48, proptest::option::of(any::<u64>())),
                0..80,
            ),
        ) {
            let key = |seed: u64| {
                // Components over many decades in both signs, with
                // repeats, so a lossy or transposed copy shows.
                let components = (0..dim as u64)
                    .map(|j| {
                        let z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(j as u32 * 7);
                        ((z >> 40) as i32 - (1 << 23)) as f32 * 10f32.powi((z % 9) as i32 - 4)
                    })
                    .collect();
                FeatureVector::from_vec(components).unwrap()
            };
            let mut fast = LinearScan::new(dim);
            let mut reference = ReferenceLinearScan::new(dim);
            let bits = |key: Option<&FeatureVector>| {
                key.map(|k| k.as_slice().iter().map(|c| c.to_bits()).collect::<Vec<u32>>())
            };
            for id in 0..fill as u64 {
                fast.insert(id, key(id));
                reference.insert(id, key(id));
            }
            for (id, insert) in ops {
                match insert {
                    Some(seed) => {
                        fast.insert(id, key(seed));
                        reference.insert(id, key(seed));
                    }
                    None => {
                        prop_assert_eq!(fast.remove(id), reference.remove(id));
                    }
                }
                for id in 0..48u64 {
                    prop_assert_eq!(bits(fast.key(id).as_ref()), bits(reference.key(id)));
                }
            }
            prop_assert_eq!(fast.key(u64::MAX), None);
        }
    }
}
