//! The index abstraction: the seam between [`LinearScan`] and its test
//! oracle.

use features::FeatureVector;

use crate::linear::LinearScan;

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
/// The scan selects straight into the caller's output buffer and needs
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

/// The argument of [`build`] — empty: there is one index.
///
/// This type and [`build`] remain only because `benchmark/src/probes.rs`
/// calls `ann::build(KEY_DIM, &IndexConfig::default())` and the benchmark
/// changes only in its own revisions: like [`IndexScratch`], they are for
/// the next change to `benchmark/` to drop, constructing a [`LinearScan`]
/// directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexConfig;

/// An empty [`LinearScan`] for keys of dimension `dim`, boxed. See
/// [`IndexConfig`] for why this exists.
///
/// ```
/// use ann::IndexConfig;
/// use features::FeatureVector;
///
/// let mut index = ann::build(2, &IndexConfig::default());
/// index.insert(7, FeatureVector::zeros(2));
/// assert_eq!(index.nearest(&FeatureVector::zeros(2), 1)[0].id, 7);
/// ```
///
/// # Panics
///
/// Panics if `dim == 0`.
pub fn build(dim: usize, config: &IndexConfig) -> Box<dyn NnIndex> {
    let _ = config;
    Box::new(LinearScan::new(dim))
}

/// A mutable nearest-neighbour index over feature vectors.
///
/// Implemented by [`LinearScan`] and by the never-optimized
/// `ReferenceLinearScan` the tests hold it to. Both measure Euclidean
/// distance, reject vectors of the wrong dimension, and treat `insert`
/// with an existing id as an update (replace the key, keep the id).
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

    /// Removes the entry with `id`, returning the row it vacated, or
    /// `None` when `id` is not held. Removal is a swap-remove: the last
    /// row moves into the vacated one, so `Vec::swap_remove(row)` keeps a
    /// row-parallel `Vec` in step.
    fn remove(&mut self, id: u64) -> Option<usize>;

    /// The one search: writes into `out` (cleared first) the up-to-`k`
    /// nearest entries to `query` **among those within `max_distance`**,
    /// ascending by `(distance, id)` — the whole answer is identical
    /// across implementations.
    ///
    /// The bound is *inclusive* (`distance <= max_distance`, the
    /// comparison the A-kNN vote itself makes) and exact: the answer is
    /// the unbounded top-`k` with every neighbour beyond `max_distance`
    /// dropped, to the bit. The scan seeds its selection bound with
    /// `squared_limit(max_distance)` — a squared limit that errs
    /// outwards by a few ulps — so rows that cannot qualify abandon the
    /// distance kernel early, and `finish_within` then filters by the
    /// exact `sqrt(d²) <= max_distance`. `f64::INFINITY` disables the
    /// bound; `0.0` keeps exact duplicates of the query only.
    ///
    /// Allocation-free in steady state (enforced by xtask rule A):
    /// callers on the hot path hold a reusable output buffer.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.dim()`, `k == 0`, or
    /// `max_distance` is negative or NaN.
    fn nearest_within_into(
        &self,
        query: &FeatureVector,
        k: usize,
        max_distance: f64,
        out: &mut Vec<Neighbor>,
    );

    /// The unbounded query:
    /// [`nearest_within_into`](NnIndex::nearest_within_into) with
    /// `max_distance = ∞`. `scratch` is unused (see [`IndexScratch`]).
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
    ) {
        let _ = scratch;
        self.nearest_within_into(query, k, f64::INFINITY, out);
    }

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
}

/// Validates common query preconditions; used by both implementations.
pub(crate) fn check_query(dim: usize, query: &FeatureVector, k: usize, max_distance: f64) {
    assert_eq!(
        query.dim(),
        dim,
        "nearest: query dim {} does not match index dim {dim}",
        query.dim()
    );
    assert!(k > 0, "nearest: k must be positive");
    assert!(
        max_distance >= 0.0,
        "nearest: max_distance must be non-negative, got {max_distance}"
    );
}

/// The squared selection bound for a search within `max_distance`: never
/// below the square of any distance whose correctly rounded `sqrt` is
/// `<= max_distance` (the product and the root each err by half an ulp;
/// four ulps of slack cover both), so seeding a kernel bound with it can
/// only admit too much, never too little — [`finish_within`] removes the
/// excess.
pub(crate) fn squared_limit(max_distance: f64) -> f64 {
    max_distance * max_distance * (1.0 + 4.0 * f64::EPSILON)
}

/// Turns a selection of *squared* distances, ascending, into the answer:
/// takes the roots and cuts the list at the first neighbour beyond
/// `max_distance` (inclusive; `sqrt` is monotone, so the survivors are a
/// prefix).
pub(crate) fn finish_within(out: &mut Vec<Neighbor>, max_distance: f64) {
    for n in out.iter_mut() {
        n.distance = n.distance.sqrt();
    }
    let within = out.partition_point(|n| n.distance <= max_distance);
    out.truncate(within);
}

/// Validates common insert preconditions; used by both implementations.
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
        check_query(2, &FeatureVector::zeros(2), 0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "query dim")]
    fn check_query_rejects_dim_mismatch() {
        check_query(2, &FeatureVector::zeros(3), 1, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "max_distance must be non-negative")]
    fn check_query_rejects_nan_and_negative_bounds() {
        check_query(2, &FeatureVector::zeros(2), 1, f64::NAN);
    }

    #[test]
    fn squared_limit_never_cuts_a_distance_the_exact_filter_keeps() {
        // Walk a few ulps either side of r² for awkward radii: whenever
        // sqrt(d²) <= r holds, d² must be inside the squared limit.
        for r in [0.0, 1e-30, 0.1, 1.0, 1.0 + f64::EPSILON, 3.7, 1e9, 1e200] {
            let limit = squared_limit(r);
            let mut d2 = f64::from_bits((r * r).to_bits().saturating_sub(8));
            for _ in 0..24 {
                if d2.sqrt() <= r {
                    assert!(d2 <= limit, "r = {r}: d² = {d2} kept but beyond {limit}");
                }
                d2 = f64::from_bits(d2.to_bits() + 1);
            }
        }
        assert_eq!(squared_limit(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            squared_limit(f64::INFINITY).to_bits(),
            f64::INFINITY.to_bits()
        );
    }

    #[test]
    fn finish_within_is_inclusive_and_cuts_a_prefix() {
        let mut out: Vec<Neighbor> = [0.0, 4.0, 9.0, 9.0, 16.0]
            .iter()
            .enumerate()
            .map(|(id, &d2)| Neighbor {
                id: id as u64,
                distance: d2,
            })
            .collect();
        finish_within(&mut out, 3.0);
        let got: Vec<(u64, u64)> = out.iter().map(|n| (n.id, n.distance.to_bits())).collect();
        let want = [(0, 0.0f64), (1, 2.0), (2, 3.0), (3, 3.0)].map(|(id, d)| (id, d.to_bits()));
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "key dim")]
    fn check_insert_rejects_dim_mismatch() {
        check_insert(4, &FeatureVector::zeros(2));
    }
}
