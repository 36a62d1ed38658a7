//! The contiguous key store behind [`LinearScan`](crate::LinearScan),
//! and the bounded `(distance, id)` selection both indexes share.
//!
//! One row-major `f32` buffer kept dense by swap-remove, so a scan walks
//! memory linearly and the chunked distance kernel auto-vectorizes.
//! [`FlatBuffer::rerank_rows_into`] scores rows with the exact f64
//! kernel and keeps the `k` best within a squared-distance limit
//! through [`push_bounded`], whose strict
//! `(distance, id)` order is the tie-break contract every index answers
//! under.

use std::collections::HashMap;

use features::distance::squared_euclidean_flat_within;

use crate::index::Neighbor;

/// Strict `(distance, id)` order: ascending distance, ids breaking ties.
/// Distances here are sums of squares, so `-0.0` never occurs and
/// `total_cmp` agrees with the naive `<` on every value that can appear.
pub(crate) fn closer(a: &Neighbor, b: &Neighbor) -> bool {
    a.distance
        .total_cmp(&b.distance)
        .then(a.id.cmp(&b.id))
        .is_lt()
}

/// Keeps `out` as the up-to-`k` smallest neighbours seen so far, sorted
/// ascending by `(distance, id)` — a bounded max-heap where the current
/// maximum sits at the tail. Once the buffer is full, most candidates
/// fail the single tail comparison and cost nothing more.
pub(crate) fn push_bounded(out: &mut Vec<Neighbor>, k: usize, candidate: Neighbor) {
    if out.len() == k {
        match out.last() {
            Some(worst) if closer(&candidate, worst) => {
                out.pop();
            }
            _ => return,
        }
    }
    let pos = out.partition_point(|n| closer(n, &candidate));
    out.insert(pos, candidate);
}

/// The squared distance beyond which no candidate can enter `out`: its
/// tail (the k-th best so far, itself within `limit`) once `out` is
/// full, the caller's `limit` while there is still room. Both indexes
/// bound the distance kernel with it; the kd-tree also prunes with it.
pub(crate) fn selection_bound(out: &[Neighbor], k: usize, limit: f64) -> f64 {
    match out.last() {
        Some(worst) if out.len() == k => worst.distance,
        _ => limit,
    }
}

/// Contiguous structure-of-arrays key storage with id bookkeeping.
///
/// Rows are kept dense by swap-remove: removing a row moves the last row
/// into the hole and the id↔row maps are patched to match. Insertion
/// with an existing id replaces the row in place (no reordering), so a
/// scan in row order sees insertion order.
#[derive(Debug, Clone, Default)]
pub struct FlatBuffer {
    dim: usize,
    /// Row `r`'s id; swap-remove keeps this parallel to `keys`.
    ids: Vec<u64>,
    /// All keys, row-major: row `r` occupies `keys[r*dim .. (r+1)*dim]`.
    keys: Vec<f32>,
    /// id → row (swap-remove keeps this dense).
    positions: HashMap<u64, usize>,
}

impl FlatBuffer {
    /// An empty buffer for rows of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> FlatBuffer {
        assert!(dim > 0, "FlatBuffer: dim must be positive");
        FlatBuffer {
            dim,
            ..FlatBuffer::default()
        }
    }

    /// Row dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The row holding `id`, if present.
    pub fn row_of(&self, id: u64) -> Option<usize> {
        self.positions.get(&id).copied()
    }

    /// True when `id` has a row.
    pub fn contains(&self, id: u64) -> bool {
        self.positions.contains_key(&id)
    }

    /// The id stored at `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.len()`.
    pub fn id_at(&self, row: usize) -> u64 {
        self.ids[row]
    }

    /// The key stored at `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.len()`.
    pub fn key_at(&self, row: usize) -> &[f32] {
        &self.keys[row * self.dim..(row + 1) * self.dim]
    }

    /// All ids, in row order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The raw row-major key buffer (`len · dim` components) — scan it
    /// with `chunks_exact(dim)` for the fastest linear walk.
    pub fn keys(&self) -> &[f32] {
        &self.keys
    }

    /// Stores `key` under `id`, replacing the row in place when the id
    /// already exists. Returns `true` when a new row was created.
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != self.dim()`.
    pub fn insert(&mut self, id: u64, key: &[f32]) -> bool {
        assert_eq!(
            key.len(),
            self.dim,
            "FlatBuffer: key dim {} does not match buffer dim {}",
            key.len(),
            self.dim
        );
        match self.positions.get(&id) {
            Some(&row) => {
                self.keys[row * self.dim..(row + 1) * self.dim].copy_from_slice(key);
                false
            }
            None => {
                self.positions.insert(id, self.ids.len());
                self.ids.push(id);
                self.keys.extend_from_slice(key);
                true
            }
        }
    }

    /// Removes `id`'s row by swap-remove, returning whether it existed.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(row) = self.positions.remove(&id) else {
            return false;
        };
        self.ids.swap_remove(row);
        if row < self.ids.len() {
            self.positions.insert(self.ids[row], row);
        }
        // Mirror the swap-remove in the key buffer: the last row moves
        // into the vacated slot, the buffer shrinks by one row.
        let last = self.ids.len();
        if row < last {
            self.keys
                .copy_within(last * self.dim..(last + 1) * self.dim, row * self.dim);
        }
        self.keys.truncate(last * self.dim);
        true
    }

    /// Removes every row.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.keys.clear();
        self.positions.clear();
    }

    /// Scores each row in `rows` against `query` with the exact f64
    /// kernel (early-exit bounded) and keeps in `out` (cleared first) the
    /// `k` nearest of those whose squared distance is `<= limit`,
    /// ascending by `(squared distance, id)`. Distances are left
    /// *squared* — callers apply the final `sqrt` once, after selection.
    /// `f64::INFINITY` is no limit.
    ///
    /// Passing `0..self.len()` is the `LinearScan` hot loop.
    pub fn rerank_rows_into(
        &self,
        rows: impl Iterator<Item = usize>,
        query: &[f32],
        k: usize,
        limit: f64,
        out: &mut Vec<Neighbor>,
    ) {
        out.clear();
        for row in rows {
            // Rows whose partial sum already exceeds the bound are
            // abandoned mid-kernel without changing the result (squared
            // terms only grow the sum, and the exit is strict so distance
            // ties still reach the id tie-break).
            let bound = selection_bound(out, k, limit);
            let key = &self.keys[row * self.dim..(row + 1) * self.dim];
            let Some(distance) = squared_euclidean_flat_within(key, query, bound) else {
                continue;
            };
            push_bounded(
                out,
                k,
                Neighbor {
                    id: self.ids[row],
                    distance,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use features::distance::squared_euclidean_flat;

    fn filled(dim: usize, rows: &[(u64, Vec<f32>)]) -> FlatBuffer {
        let mut buffer = FlatBuffer::new(dim);
        for (id, key) in rows {
            buffer.insert(*id, key);
        }
        buffer
    }

    #[test]
    fn insert_replace_remove_keep_rows_dense() {
        let mut b = filled(
            2,
            &[
                (10, vec![0.0, 1.0]),
                (20, vec![2.0, 3.0]),
                (30, vec![4.0, 5.0]),
            ],
        );
        assert_eq!(b.len(), 3);
        assert!(!b.insert(20, &[9.0, 9.0]), "replace is not a create");
        assert_eq!(b.key_at(b.row_of(20).unwrap()), &[9.0, 9.0]);
        assert!(b.remove(10));
        assert!(!b.remove(10));
        assert_eq!(b.len(), 2);
        // Swap-remove moved row 2 (id 30) into row 0.
        assert_eq!(b.id_at(0), 30);
        assert_eq!(b.key_at(0), &[4.0, 5.0]);
        assert_eq!(b.keys().len(), 4);
        assert!(b.contains(30) && !b.contains(10));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.dim(), 2);
    }

    #[test]
    fn rerank_over_all_rows_is_an_exact_scan() {
        let rows: Vec<(u64, Vec<f32>)> = (0..50u64).map(|i| (i, vec![i as f32, 0.5])).collect();
        let b = filled(2, &rows);
        let mut out = Vec::new();
        b.rerank_rows_into(0..b.len(), &[20.2, 0.5], 3, f64::INFINITY, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].id, 20);
        assert_eq!(out[1].id, 21);
        assert_eq!(out[2].id, 19);
        // Distances are squared and exact.
        let expect = squared_euclidean_flat(&[20.0, 0.5], &[20.2, 0.5]);
        assert_eq!(out[0].distance.to_bits(), expect.to_bits());
    }

    #[test]
    fn rerank_limit_is_inclusive_on_the_squared_distance() {
        let rows: Vec<(u64, Vec<f32>)> = (0..10u64).map(|i| (i, vec![i as f32])).collect();
        let b = filled(1, &rows);
        let mut out = Vec::new();
        // Squared distances from 4.0 are 0, 1, 1, 4, 4, 9, …: a limit of
        // exactly 4 keeps five rows, and k still caps the answer.
        b.rerank_rows_into(0..b.len(), &[4.0], 8, 4.0, &mut out);
        let ids: Vec<u64> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, [4, 3, 5, 2, 6]);
        b.rerank_rows_into(0..b.len(), &[4.0], 2, 4.0, &mut out);
        let ids: Vec<u64> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, [4, 3]);
        b.rerank_rows_into(0..b.len(), &[20.0], 2, 4.0, &mut out);
        assert!(out.is_empty(), "nothing within the limit");
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn zero_dim_rejected() {
        FlatBuffer::new(0);
    }
}
