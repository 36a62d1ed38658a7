//! The contiguous key store behind [`LinearScan`](crate::LinearScan),
//! and the bounded `(distance, id)` selection its scan keeps.
//!
//! Each key is split at component [`LANES`]. Its first `LANES`
//! components live in *head blocks*: `LANES` rows to a block, stored
//! transposed, so one block is 256 contiguous bytes holding the first
//! chunk of eight rows. The remaining components live row-major in a
//! tail buffer. Rows are kept dense by swap-remove.
//!
//! [`FlatBuffer::block_scan_into`] scores one block per step with
//! [`squared_euclidean_head_block`], skips the block when none of its
//! rows can enter the selection, and finishes each surviving row over its
//! tail with the same chunked kernel. It keeps the `k` best within a
//! squared-distance limit through [`push_bounded`], whose strict
//! `(distance, id)` order is the tie-break contract of every answer. Every distance it returns has the bits of the row-at-a-time
//! kernel [`squared_euclidean_flat_within`](features::distance::squared_euclidean_flat_within).

use std::collections::HashMap;

use features::distance::{
    squared_euclidean_head_block, squared_euclidean_resume_within, widen_head, HEAD_BLOCK, LANES,
};

use crate::index::Neighbor;

/// Strict `(distance, id)` order: ascending distance, ids breaking ties.
/// Distances here are sums of squares, so `-0.0` never occurs and
/// `total_cmp` agrees with the naive `<` on every value that can appear.
fn closer(a: &Neighbor, b: &Neighbor) -> bool {
    a.distance
        .total_cmp(&b.distance)
        .then(a.id.cmp(&b.id))
        .is_lt()
}

/// Keeps `out` as the up-to-`k` smallest neighbours seen so far, sorted
/// ascending by `(distance, id)` — a bounded max-heap where the current
/// maximum sits at the tail. Once the buffer is full, most candidates
/// fail the single tail comparison and cost nothing more.
fn push_bounded(out: &mut Vec<Neighbor>, k: usize, candidate: Neighbor) {
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
/// full, the caller's `limit` while there is still room. The scan bounds
/// the distance kernel with it.
fn selection_bound(out: &[Neighbor], k: usize, limit: f64) -> f64 {
    match out.last() {
        Some(worst) if out.len() == k => worst.distance,
        _ => limit,
    }
}

/// Contiguous key storage in head blocks plus tails, with id
/// bookkeeping.
///
/// Rows are kept dense by swap-remove: removing a row moves the last
/// row's head lanes and tail into the hole and the id↔row maps are
/// patched to match. Insertion with an existing id replaces the row in
/// place (no reordering), so a scan in row order sees insertion order.
#[derive(Debug, Clone, Default)]
pub struct FlatBuffer {
    dim: usize,
    /// Row `r`'s id; swap-remove keeps this parallel to the keys.
    ids: Vec<u64>,
    /// Components `0..LANES` of every row in blocks of `LANES` rows:
    /// component `j` of row `r` sits at
    /// `(r / LANES) * HEAD_BLOCK + j * LANES + r % LANES`. Lanes
    /// `j >= dim` are `0.0`. The last block's slots past `len` hold no
    /// row and never reach an answer.
    heads: Vec<f32>,
    /// Components `LANES..dim` of every row, row-major:
    /// row `r` occupies `tails[r * t .. (r + 1) * t]`, `t = dim - LANES`
    /// (empty when `dim <= LANES`).
    tails: Vec<f32>,
    /// id → row (swap-remove keeps this dense).
    positions: HashMap<u64, usize>,
}

/// Where component `lane` of `row` sits in the head blocks.
fn head_slot(row: usize, lane: usize) -> usize {
    (row / LANES) * HEAD_BLOCK + lane * LANES + row % LANES
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

    /// Components held in the head blocks: `min(dim, LANES)`.
    fn head_dim(&self) -> usize {
        self.dim.min(LANES)
    }

    /// Components held in the tail buffer: `dim - head_dim()`.
    fn tail_dim(&self) -> usize {
        self.dim - self.head_dim()
    }

    /// Writes `head` (the first `head_dim()` components) into `row`'s
    /// head lanes.
    fn write_head(&mut self, row: usize, head: &[f32]) {
        for (lane, &x) in head.iter().enumerate() {
            self.heads[head_slot(row, lane)] = x;
        }
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
        let (head, tail) = key.split_at(self.head_dim());
        let tail_dim = self.tail_dim();
        match self.positions.get(&id) {
            Some(&row) => {
                self.write_head(row, head);
                self.tails[row * tail_dim..(row + 1) * tail_dim].copy_from_slice(tail);
                false
            }
            None => {
                let row = self.ids.len();
                if row.is_multiple_of(LANES) {
                    self.heads.resize(self.heads.len() + HEAD_BLOCK, 0.0);
                }
                self.write_head(row, head);
                self.tails.extend_from_slice(tail);
                self.positions.insert(id, row);
                self.ids.push(id);
                true
            }
        }
    }

    /// `id`'s key, rebuilt from its head lanes and its tail: the
    /// components exactly as inserted (rows hold `f32` copies, so every
    /// bit comes back), or `None` when no row has that id.
    pub fn key(&self, id: u64) -> Option<Vec<f32>> {
        let &row = self.positions.get(&id)?;
        let tail_dim = self.tail_dim();
        let mut key = Vec::with_capacity(self.dim);
        key.extend((0..self.head_dim()).map(|lane| self.heads[head_slot(row, lane)]));
        key.extend_from_slice(&self.tails[row * tail_dim..(row + 1) * tail_dim]);
        Some(key)
    }

    /// The row `id` occupies, or `None` when no row has that id.
    pub fn row(&self, id: u64) -> Option<usize> {
        self.positions.get(&id).copied()
    }

    /// Removes `id`'s row by swap-remove, returning the row it vacated
    /// (the last row now sits there, unless the removed row was the
    /// last), or `None` when no row has that id.
    pub fn remove(&mut self, id: u64) -> Option<usize> {
        let row = self.positions.remove(&id)?;
        self.ids.swap_remove(row);
        // Mirror the swap-remove in the keys: the last row's head lanes
        // and tail move into the vacated row, and the buffers shrink by
        // one row (the head blocks by a whole block when the last one
        // empties).
        let last = self.ids.len();
        let tail_dim = self.tail_dim();
        if row < last {
            self.positions.insert(self.ids[row], row);
            for lane in 0..self.head_dim() {
                self.heads[head_slot(row, lane)] = self.heads[head_slot(last, lane)];
            }
            self.tails
                .copy_within(last * tail_dim..(last + 1) * tail_dim, row * tail_dim);
        }
        self.tails.truncate(last * tail_dim);
        self.heads.truncate(last.div_ceil(LANES) * HEAD_BLOCK);
        Some(row)
    }

    /// Removes every row.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.heads.clear();
        self.tails.clear();
        self.positions.clear();
    }

    /// Scores every row against `query` and keeps in `out` (cleared
    /// first) the `k` nearest whose squared distance is `<= limit`,
    /// ascending by `(squared distance, id)`. Distances are left
    /// *squared* — callers apply the final `sqrt` once, after selection.
    /// `f64::INFINITY` is no limit. This is the `LinearScan` hot loop.
    ///
    /// One head block per step: [`squared_euclidean_head_block`] gives
    /// each of its rows the partial sum over its first chunk. When every
    /// partial sum already exceeds the selection bound as it stood at the
    /// block's start, no row of the block can enter `out` and the block
    /// is skipped. Otherwise its rows are visited in row order against
    /// the live bound and each survivor is finished over its tail by
    /// [`squared_euclidean_resume_within`], with the same strict early
    /// exit.
    ///
    /// The answer is the row-at-a-time scan's, to the bit: each partial
    /// sum has the bits of that scan's first chunk, the tail resumes its
    /// fold, and the bound only tightens as `out` fills, so the bound at
    /// a block's start lets through only rows the live check then drops.
    ///
    /// The scan is compiled twice from one source: an AVX2 copy, which
    /// runs when the CPU has AVX2, and the portable copy otherwise. Both
    /// give the same bits (DESIGN.md "Performance model & hot path").
    pub fn block_scan_into(&self, query: &[f32], k: usize, limit: f64, out: &mut Vec<Neighbor>) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `is_x86_feature_detected!("avx2")` just held, so this
            // CPU executes the AVX2 code `block_scan_avx2` is compiled to.
            #[allow(unsafe_code)]
            unsafe {
                self.block_scan_avx2(query, k, limit, out)
            };
            return;
        }
        self.block_scan(query, k, limit, out);
    }

    /// [`Self::block_scan`] compiled for AVX2: four `f64` lanes per
    /// instruction instead of SSE2's two. Calling it needs `unsafe` and a
    /// CPU with AVX2, which `block_scan_into` checks first.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn block_scan_avx2(&self, query: &[f32], k: usize, limit: f64, out: &mut Vec<Neighbor>) {
        self.block_scan(query, k, limit, out);
    }

    /// The one scan source behind [`Self::block_scan_into`]. It is
    /// inlined into each caller and so compiled for that caller's target
    /// features: the AVX2 wrapper's, or the baseline's everywhere else
    /// (the portable copy).
    #[inline(always)]
    fn block_scan(&self, query: &[f32], k: usize, limit: f64, out: &mut Vec<Neighbor>) {
        out.clear();
        let tail_dim = self.tail_dim();
        let query_head = widen_head(query);
        let query_tail = &query[self.head_dim()..];
        let (blocks, _) = self.heads.as_chunks::<HEAD_BLOCK>();
        for (b, (block, ids)) in blocks.iter().zip(self.ids.chunks(LANES)).enumerate() {
            let partial = squared_euclidean_head_block(block, &query_head);
            let partial = &partial[..ids.len()];
            let block_bound = selection_bound(out, k, limit);
            if partial.iter().all(|&d| d > block_bound) {
                continue;
            }
            for (r, (&head, &id)) in partial.iter().zip(ids).enumerate() {
                // Rows whose partial sum already exceeds the bound are
                // abandoned without changing the result (squared terms
                // only grow the sum, and the exit is strict so distance
                // ties still reach the id tie-break).
                let bound = selection_bound(out, k, limit);
                if head > bound {
                    continue;
                }
                let row = b * LANES + r;
                let tail = &self.tails[row * tail_dim..(row + 1) * tail_dim];
                let Some(distance) = squared_euclidean_resume_within(tail, query_tail, head, bound)
                else {
                    continue;
                };
                push_bounded(out, k, Neighbor { id, distance });
            }
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

    /// Row `row`'s key, read back through the id stored at that row.
    pub(super) fn key_at(b: &FlatBuffer, row: usize) -> Vec<f32> {
        b.key(b.ids[row]).unwrap()
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
        assert_eq!(key_at(&b, b.positions[&20]), [9.0, 9.0]);
        assert_eq!(b.remove(10), Some(0), "id 10 vacated row 0");
        assert_eq!(b.remove(10), None);
        assert_eq!(b.len(), 2);
        // Swap-remove moved row 2 (id 30) into row 0.
        assert_eq!(b.ids[0], 30);
        assert_eq!(key_at(&b, 0), [4.0, 5.0]);
        assert!(b.positions.contains_key(&30) && !b.positions.contains_key(&10));
        b.clear();
        assert_eq!(b.len(), 0);
        assert_eq!(b.dim(), 2);
    }

    #[test]
    fn head_blocks_grow_and_shrink_a_block_at_a_time() {
        let dim = 10;
        let rows: Vec<(u64, Vec<f32>)> = (0..17u64)
            .map(|i| (i, (0..dim).map(|j| (i * 100 + j as u64) as f32).collect()))
            .collect();
        let mut b = filled(dim, &rows);
        assert_eq!(b.heads.len(), 3 * HEAD_BLOCK);
        assert_eq!(b.tails.len(), 17 * 2);
        // Pad lanes past `dim` would be lanes 10.. — none here; with
        // dim 10 every head lane holds a component.
        assert_eq!(key_at(&b, 16), rows[16].1);
        // Removing row 3 moves row 16 (the only row of block 2) into it
        // and frees block 2.
        assert_eq!(b.remove(3), Some(3));
        assert_eq!(b.heads.len(), 2 * HEAD_BLOCK);
        assert_eq!(b.ids[3], 16);
        assert_eq!(key_at(&b, 3), rows[16].1);
        assert_eq!(b.tails.len(), 16 * 2);
        // Block 1 survives until its last row goes.
        for id in [8u64, 9, 10, 11, 12, 13, 14] {
            assert!(b.remove(id).is_some());
            assert_eq!(b.heads.len(), 2 * HEAD_BLOCK);
        }
        assert!(b.remove(15).is_some());
        assert_eq!(b.len(), 8);
        assert_eq!(b.heads.len(), HEAD_BLOCK);
    }

    #[test]
    fn short_keys_leave_zero_pad_lanes() {
        let b = filled(3, &[(1, vec![1.0, 2.0, 3.0]), (2, vec![4.0, 5.0, 6.0])]);
        for row in 0..2 {
            for lane in 3..LANES {
                assert_eq!(b.heads[head_slot(row, lane)].to_bits(), 0.0f32.to_bits());
            }
        }
        assert!(b.tails.is_empty());
    }

    #[test]
    fn block_scan_is_an_exact_scan() {
        let rows: Vec<(u64, Vec<f32>)> = (0..50u64).map(|i| (i, vec![i as f32, 0.5])).collect();
        let b = filled(2, &rows);
        let mut out = Vec::new();
        b.block_scan_into(&[20.2, 0.5], 3, f64::INFINITY, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].id, 20);
        assert_eq!(out[1].id, 21);
        assert_eq!(out[2].id, 19);
        // Distances are squared and exact.
        let expect = squared_euclidean_flat(&[20.0, 0.5], &[20.2, 0.5]);
        assert_eq!(out[0].distance.to_bits(), expect.to_bits());
    }

    #[test]
    fn block_scan_limit_is_inclusive_on_the_squared_distance() {
        let rows: Vec<(u64, Vec<f32>)> = (0..10u64).map(|i| (i, vec![i as f32])).collect();
        let b = filled(1, &rows);
        let mut out = Vec::new();
        // Squared distances from 4.0 are 0, 1, 1, 4, 4, 9, …: a limit of
        // exactly 4 keeps five rows, and k still caps the answer.
        b.block_scan_into(&[4.0], 8, 4.0, &mut out);
        let ids: Vec<u64> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, [4, 3, 5, 2, 6]);
        b.block_scan_into(&[4.0], 2, 4.0, &mut out);
        let ids: Vec<u64> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, [4, 3]);
        b.block_scan_into(&[20.0], 2, 4.0, &mut out);
        assert!(out.is_empty(), "nothing within the limit");
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn zero_dim_rejected() {
        FlatBuffer::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::key_at;
    use super::*;
    use features::distance::squared_euclidean_flat_within;
    use proptest::prelude::*;

    /// Keys are drawn at full width and cut to the case's `dim`.
    const MAX_DIM: usize = 64;
    /// Buffer sizes around the block boundaries.
    const SIZES: [usize; 8] = [0, 1, 7, 8, 9, 15, 16, 17];

    /// Small integers (so distances tie and keys repeat) or components
    /// over eight decades in both signs (so a reordered sum shows).
    fn component() -> impl Strategy<Value = f32> {
        prop_oneof![
            (-2i32..3).prop_map(|v| v as f32),
            (-4i32..4, -1.0f32..1.0).prop_map(|(exp, m)| m * 10f32.powi(exp)),
        ]
    }

    fn key() -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(component(), MAX_DIM)
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, Vec<f32>),
        /// Insert under `id` a copy of the key at row `from % len`.
        Copy(u64, usize),
        Remove(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..24, key()).prop_map(|(id, key)| Op::Insert(id, key)),
            (0u64..24, any::<usize>()).prop_map(|(id, from)| Op::Copy(id, from)),
            (0u64..24).prop_map(Op::Remove),
        ]
    }

    /// The oracle: one row at a time over the row-major model, each row
    /// scored by `squared_euclidean_flat_within` against the live bound.
    fn row_scan(model: &[(u64, Vec<f32>)], query: &[f32], k: usize, limit: f64) -> Vec<Neighbor> {
        let mut out = Vec::new();
        for (id, key) in model {
            let bound = selection_bound(&out, k, limit);
            if let Some(distance) = squared_euclidean_flat_within(key, query, bound) {
                push_bounded(&mut out, k, Neighbor { id: *id, distance });
            }
        }
        out
    }

    /// Mirrors `FlatBuffer::insert` / `remove` on a row-major model.
    fn apply(model: &mut Vec<(u64, Vec<f32>)>, id: u64, key: Option<Vec<f32>>) {
        let pos = model.iter().position(|(i, _)| *i == id);
        match (key, pos) {
            (Some(key), Some(p)) => model[p].1 = key,
            (Some(key), None) => model.push((id, key)),
            (None, Some(p)) => {
                model.swap_remove(p);
            }
            (None, None) => {}
        }
    }

    /// The buffer holds the model's rows in the model's order, and the
    /// block scan answers like the oracle at limits 0, ∞ and exactly
    /// each row's squared distance, for several `k`.
    fn check(
        b: &FlatBuffer,
        model: &[(u64, Vec<f32>)],
        query: &[f32],
        k: usize,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(b.len(), model.len());
        prop_assert_eq!(b.heads.len(), model.len().div_ceil(LANES) * HEAD_BLOCK);
        for (row, (id, key)) in model.iter().enumerate() {
            prop_assert_eq!(b.ids[row], *id);
            prop_assert_eq!(b.positions[id], row);
            prop_assert_eq!(&key_at(b, row), key);
        }
        let everything = row_scan(model, query, model.len().max(1), f64::INFINITY);
        let mut limits = vec![0.0, f64::INFINITY];
        limits.extend(everything.iter().map(|n| n.distance));
        let mut got = Vec::new();
        for limit in limits {
            for k in [1, k, model.len().max(1)] {
                let want = row_scan(model, query, k, limit);
                let bits = |v: &[Neighbor]| -> Vec<(u64, u64)> {
                    v.iter().map(|n| (n.id, n.distance.to_bits())).collect()
                };
                // The dispatched scan (the AVX2 copy on an AVX2 host),
                // then the portable copy, which such a host never
                // dispatches to.
                b.block_scan_into(query, k, limit, &mut got);
                prop_assert_eq!(bits(&got), bits(&want));
                b.block_scan(query, k, limit, &mut got);
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }
        Ok(())
    }

    proptest! {
        /// The block scan, dispatched and portable, returns the
        /// row-at-a-time scan's answer — ids, order and `to_bits`
        /// distances — at every dimension 1..=20 and 64, on buffers of 0,
        /// 1, 7, 8, 9, 15, 16 and 17 rows and after insert / replace /
        /// duplicate / swap-remove churn across block boundaries.
        #[test]
        fn block_scan_matches_the_row_at_a_time_scan(
            dim in prop_oneof![1usize..21, Just(MAX_DIM)],
            size in 0usize..SIZES.len(),
            fill in proptest::collection::vec(key(), 17),
            ops in proptest::collection::vec(op(), 0..24),
            (query, query_row) in (key(), any::<usize>()),
            k in 1usize..6,
        ) {
            let mut b = FlatBuffer::new(dim);
            let mut model: Vec<(u64, Vec<f32>)> = Vec::new();
            for (id, key) in fill.iter().take(SIZES[size]).enumerate() {
                b.insert(id as u64, &key[..dim]);
                apply(&mut model, id as u64, Some(key[..dim].to_vec()));
            }
            // Half the queries repeat a stored key: distance 0, and ties
            // with every duplicate of it.
            let query = match model.get(query_row % (2 * model.len().max(1))) {
                Some((_, key)) => key.clone(),
                None => query[..dim].to_vec(),
            };
            check(&b, &model, &query, k)?;
            for op in ops {
                match op {
                    Op::Insert(id, key) => {
                        b.insert(id, &key[..dim]);
                        apply(&mut model, id, Some(key[..dim].to_vec()));
                    }
                    Op::Copy(id, from) if !model.is_empty() => {
                        let key = model[from % model.len()].1.clone();
                        b.insert(id, &key);
                        apply(&mut model, id, Some(key));
                    }
                    Op::Copy(..) => {}
                    Op::Remove(id) => {
                        let row = model.iter().position(|(i, _)| *i == id);
                        prop_assert_eq!(b.remove(id), row);
                        apply(&mut model, id, None);
                    }
                }
            }
            check(&b, &model, &query, k)?;
        }
    }
}
