//! The index abstraction shared by both search structures.

use features::FeatureVector;

/// One query result: an entry id and its exact distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The id the entry was inserted under.
    pub id: u64,
    /// Euclidean distance to the query.
    pub distance: f64,
}

/// The working-memory argument of [`NnIndex::nearest_into`] — empty.
///
/// Both indexes select straight into the caller's output buffer and need
/// no other per-query memory. The type and the `scratch` parameter
/// remain only because `benchmark/src/probes.rs` names both and a PR may
/// not edit `benchmark/`: this is the one deliberate leftover of the
/// approximate indexes' removal, for the next `benchmark` PR to drop
/// together with the parameter.
#[derive(Debug, Clone, Default)]
pub struct IndexScratch;

impl IndexScratch {
    /// The (empty) scratch.
    pub fn new() -> IndexScratch {
        IndexScratch
    }
}

/// A mutable nearest-neighbour index over feature vectors.
///
/// All implementations measure Euclidean distance, reject vectors of the
/// wrong dimension, and treat `insert` with an existing id as an update
/// (replace the key, keep the id).
///
/// The trait is object-safe: the cache stores a `Box<dyn NnIndex>` chosen
/// at configuration time.
pub trait NnIndex: Send {
    /// The dimension of keys this index accepts.
    fn dim(&self) -> usize;

    /// Number of entries currently indexed.
    fn len(&self) -> usize;

    /// True if the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `key` under `id`, replacing any existing entry with that id.
    ///
    /// # Panics
    ///
    /// Panics if `key.dim() != self.dim()`.
    fn insert(&mut self, id: u64, key: FeatureVector);

    /// Removes the entry with `id`, returning whether it existed.
    fn remove(&mut self, id: u64) -> bool;

    /// The primary query path: writes the up-to-`k` nearest entries to
    /// `query` into `out` (cleared first), ascending by `(distance, id)`
    /// — the whole answer is identical across indexes. `scratch` is
    /// unused (see [`IndexScratch`]).
    ///
    /// This is the *required* method — every index implements its real
    /// search here, allocation-free in steady state (enforced by xtask
    /// rule A), and the allocating [`nearest`](NnIndex::nearest) is just
    /// a convenience wrapper over it. Callers on the hot path hold a
    /// reusable output buffer.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.dim()` or `k == 0`.
    fn nearest_into(
        &self,
        query: &FeatureVector,
        k: usize,
        scratch: &mut IndexScratch,
        out: &mut Vec<Neighbor>,
    );

    /// Convenience wrapper over [`nearest_into`](NnIndex::nearest_into)
    /// that allocates a fresh result buffer per call — fine for tests
    /// and cold paths, wasteful per frame.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.dim()` or `k == 0`.
    fn nearest(&self, query: &FeatureVector, k: usize) -> Vec<Neighbor> {
        let mut scratch = IndexScratch::new();
        let mut out = Vec::new();
        self.nearest_into(query, k, &mut scratch, &mut out);
        out
    }

    /// Removes all entries.
    fn clear(&mut self);

    /// A short name for reports (`"linear"`, `"kdtree"`).
    fn kind(&self) -> &'static str;
}

/// Validates common query preconditions; used by all implementations.
pub(crate) fn check_query(dim: usize, query: &FeatureVector, k: usize) {
    assert_eq!(
        query.dim(),
        dim,
        "nearest: query dim {} does not match index dim {dim}",
        query.dim()
    );
    assert!(k > 0, "nearest: k must be positive");
}

/// Validates common insert preconditions; used by all implementations.
pub(crate) fn check_insert(dim: usize, key: &FeatureVector) {
    assert_eq!(
        key.dim(),
        dim,
        "insert: key dim {} does not match index dim {dim}",
        key.dim()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_is_plain_data() {
        let n = Neighbor {
            id: 7,
            distance: 1.5,
        };
        assert_eq!(n, n.clone());
        assert_eq!(format!("{n:?}"), "Neighbor { id: 7, distance: 1.5 }");
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn check_query_rejects_zero_k() {
        check_query(2, &FeatureVector::zeros(2), 0);
    }

    #[test]
    #[should_panic(expected = "query dim")]
    fn check_query_rejects_dim_mismatch() {
        check_query(2, &FeatureVector::zeros(3), 1);
    }

    #[test]
    #[should_panic(expected = "key dim")]
    fn check_insert_rejects_dim_mismatch() {
        check_insert(4, &FeatureVector::zeros(2));
    }
}
