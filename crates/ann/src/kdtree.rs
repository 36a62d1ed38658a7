//! An exact k-d tree with tombstone deletion and automatic rebalancing.

use std::collections::HashMap;

use features::{distance::squared_euclidean_flat_within, FeatureVector};

use crate::flat::{push_bounded, selection_bound};
use crate::index::{check_insert, check_query, finish_within, squared_limit, Neighbor, NnIndex};

/// Exact nearest-neighbour search via a k-d tree.
///
/// Insertion walks to a leaf (no rebalancing); deletion tombstones the
/// node. When tombstones exceed half the nodes, or the tree becomes deeper
/// than `4·log₂(n)`, the tree is rebuilt balanced by median splits — both
/// triggers are checked on every insert *and* remove, so a long-running
/// sim can never degrade to scanning mostly-dead nodes. In low
/// dimension queries are logarithmic. At d = 64 the outcome depends on
/// the keys *and on the query*. On uniform keys the branch-and-bound
/// bound rarely prunes and performance approaches the linear scan (what
/// `R-11` shows). On clustered, cache-shaped keys a query **near** a
/// cluster finds its k-th best early and prunes well — the last recorded
/// frontier, all near queries, read 2.9 / 23 / 282 µs per lookup at
/// 256 / 4096 / 65 536 entries against the scan's 6.0 / 91 / 1401 — but
/// a query **far** from every cluster never gets a tight bound: with
/// 8192 clustered keys an unbounded far query costs the tree ~840 µs
/// against the scan's ~330, and under the benchmark's 70/30 near/far mix
/// the tree as default index lost end to end (`edge-lookup` p50 2.99 ms
/// against 2.58). Bounding the search by the hit threshold
/// ([`NnIndex::nearest_within_into`]) gives a far query a bound from the
/// first node and cuts that cost to about a fifth; a split plane is
/// still rarely farther than the threshold from a query in a unit-scale
/// key space, so most nodes are visited and the bounded scan stays ahead
/// on far queries (Criterion `ann_lookup_clustered`, EXPERIMENTS R-11).
///
/// Keys live in one contiguous row-major `f32` buffer parallel to the
/// node table (tombstoned rows stay until a rebuild, keeping node
/// indexes stable), and the recursion scores rows with the chunked flat
/// kernel, bounded by the current k-th best so most visited nodes abort
/// the kernel early. Selection shares `push_bounded` with the scan and
/// neither the kernel's early exit nor the far-side prune is strict at
/// the current k-th distance, so distance ties break by id and the whole
/// answer is bit-identical to a linear scan's.
#[derive(Debug, Clone)]
pub struct KdTree {
    dim: usize,
    nodes: Vec<Node>,
    /// Keys, row-major, parallel to `nodes`: node `n`'s key occupies
    /// `keys[n*dim .. (n+1)*dim]`.
    keys: Vec<f32>,
    root: Option<usize>,
    positions: HashMap<u64, usize>,
    live: usize,
    max_depth_seen: usize,
}

#[derive(Debug, Clone)]
struct Node {
    id: u64,
    axis: usize,
    left: Option<usize>,
    right: Option<usize>,
    deleted: bool,
}

impl KdTree {
    /// Internal constructor behind [`crate::build`].
    pub(crate) fn with_dim(dim: usize) -> KdTree {
        assert!(dim > 0, "KdTree: dim must be positive");
        KdTree {
            dim,
            nodes: Vec::new(),
            keys: Vec::new(),
            root: None,
            positions: HashMap::new(),
            live: 0,
            max_depth_seen: 0,
        }
    }

    /// Fraction of nodes that are tombstones.
    pub fn tombstone_fraction(&self) -> f64 {
        if self.nodes.is_empty() {
            0.0
        } else {
            1.0 - self.live as f64 / self.nodes.len() as f64
        }
    }

    /// Node `n`'s key row.
    fn key_row(&self, n: usize) -> &[f32] {
        &self.keys[n * self.dim..(n + 1) * self.dim]
    }

    fn insert_node(&mut self, id: u64, key: &[f32]) {
        let mut depth = 0usize;
        let mut slot = self.root;
        let mut parent: Option<(usize, bool)> = None; // (index, go_right)
        while let Some(idx) = slot {
            let axis = self.nodes[idx].axis;
            let go_right = key[axis] >= self.keys[idx * self.dim + axis];
            parent = Some((idx, go_right));
            slot = if go_right {
                self.nodes[idx].right
            } else {
                self.nodes[idx].left
            };
            depth += 1;
        }
        let new_index = self.nodes.len();
        self.nodes.push(Node {
            id,
            axis: depth % self.dim,
            left: None,
            right: None,
            deleted: false,
        });
        self.keys.extend_from_slice(key);
        match parent {
            None => self.root = Some(new_index),
            Some((p, true)) => self.nodes[p].right = Some(new_index),
            Some((p, false)) => self.nodes[p].left = Some(new_index),
        }
        self.positions.insert(id, new_index);
        self.live += 1;
        self.max_depth_seen = self.max_depth_seen.max(depth + 1);
    }

    fn needs_rebuild(&self) -> bool {
        if self.live == 0 {
            return !self.nodes.is_empty();
        }
        let deep = self.max_depth_seen > 8 + 4 * (usize::BITS - self.live.leading_zeros()) as usize;
        self.tombstone_fraction() > 0.5 || deep
    }

    fn rebuild(&mut self) {
        let dim = self.dim;
        let mut entries: Vec<(u64, Vec<f32>)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.deleted)
            .map(|(i, n)| (n.id, self.keys[i * dim..(i + 1) * dim].to_vec()))
            .collect();
        self.nodes.clear();
        self.keys.clear();
        self.positions.clear();
        self.root = None;
        self.live = 0;
        self.max_depth_seen = 0;
        self.root = self.build_balanced(&mut entries, 0);
    }

    fn build_balanced(&mut self, entries: &mut [(u64, Vec<f32>)], depth: usize) -> Option<usize> {
        if entries.is_empty() {
            return None;
        }
        let axis = depth % self.dim;
        entries.sort_by(|a, b| a.1[axis].total_cmp(&b.1[axis]));
        let mid = entries.len() / 2;
        let node_index = self.nodes.len();
        let id = entries[mid].0;
        self.nodes.push(Node {
            id,
            axis,
            left: None,
            right: None,
            deleted: false,
        });
        self.keys.extend_from_slice(&entries[mid].1);
        self.positions.insert(id, node_index);
        self.live += 1;
        self.max_depth_seen = self.max_depth_seen.max(depth + 1);
        let (left_half, rest) = entries.split_at_mut(mid);
        let right_half = &mut rest[1..];
        let left = self.build_balanced(left_half, depth + 1);
        let right = self.build_balanced(right_half, depth + 1);
        self.nodes[node_index].left = left;
        self.nodes[node_index].right = right;
        Some(node_index)
    }

    /// Branch-and-bound recursion: keeps in `out`, via the shared
    /// `push_bounded`, the k nearest (squared distances) of the entries
    /// within the squared `limit`. One bound — the current k-th best
    /// once `out` is full, the caller's `limit` until then — cuts both
    /// the distance kernel (dominated rows abort mid-kernel) and the far
    /// side of each split, so a query with nothing within the limit is
    /// no longer forced through the whole tree at an infinite bound just
    /// because `out` never fills.
    fn search_into(
        &self,
        node: Option<usize>,
        query: &[f32],
        k: usize,
        limit: f64,
        out: &mut Vec<Neighbor>,
    ) {
        let Some(idx) = node else { return };
        let n = &self.nodes[idx];
        if !n.deleted {
            let bound = selection_bound(out, k, limit);
            if let Some(d2) = squared_euclidean_flat_within(self.key_row(idx), query, bound) {
                push_bounded(
                    out,
                    k,
                    Neighbor {
                        id: n.id,
                        distance: d2,
                    },
                );
            }
        }
        let diff = query[n.axis] as f64 - self.keys[idx * self.dim + n.axis] as f64;
        let (near, far) = if diff < 0.0 {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        self.search_into(near, query, k, limit, out);
        // Prune the far side only if the splitting plane is strictly
        // farther than the bound: an entry on the plane at exactly the
        // k-th distance can still win the id tie-break, and one at
        // exactly the limit is still within it.
        if diff * diff <= selection_bound(out, k, limit) {
            self.search_into(far, query, k, limit, out);
        }
    }
}

impl NnIndex for KdTree {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.live
    }

    fn insert(&mut self, id: u64, key: FeatureVector) {
        check_insert(self.dim, &key);
        if self.positions.contains_key(&id) {
            self.remove(id);
        }
        self.insert_node(id, key.as_slice());
        if self.needs_rebuild() {
            self.rebuild();
        }
    }

    fn remove(&mut self, id: u64) -> bool {
        let Some(idx) = self.positions.remove(&id) else {
            return false;
        };
        debug_assert!(!self.nodes[idx].deleted);
        self.nodes[idx].deleted = true;
        self.live -= 1;
        if self.needs_rebuild() {
            self.rebuild();
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
        check_query(self.dim, query, k, max_distance);
        out.clear();
        self.search_into(
            self.root,
            query.as_slice(),
            k,
            squared_limit(max_distance),
            out,
        );
        finish_within(out, max_distance);
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.keys.clear();
        self.positions.clear();
        self.root = None;
        self.live = 0;
        self.max_depth_seen = 0;
    }

    fn kind(&self) -> &'static str {
        "kdtree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use features::projection::random_vectors;
    use simcore::SimRng;

    fn fv(components: &[f32]) -> FeatureVector {
        FeatureVector::from_vec(components.to_vec()).unwrap()
    }

    #[test]
    fn matches_linear_scan_exactly() {
        let mut rng = SimRng::seed(1);
        let keys = random_vectors(300, 8, &mut rng);
        let mut tree = KdTree::with_dim(8);
        let mut linear = LinearScan::with_dim(8);
        for (i, key) in keys.iter().enumerate() {
            tree.insert(i as u64, key.clone());
            linear.insert(i as u64, key.clone());
        }
        let queries = random_vectors(50, 8, &mut rng);
        for q in &queries {
            let a = tree.nearest(q, 5);
            let b = linear.nearest(q, 5);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id, "tree and linear disagree");
                assert_eq!(
                    x.distance.to_bits(),
                    y.distance.to_bits(),
                    "same kernel, same selection — distances must be bit-equal"
                );
            }
        }
    }

    #[test]
    fn split_plane_tie_breaks_by_id_like_the_scan() {
        // Ids 7 and 1 both sit at distance 1 from the origin; 1 lies
        // exactly on root 9's splitting plane, on the far side of the
        // query, and is reached only if the prune is non-strict.
        let mut tree = KdTree::with_dim(2);
        let mut linear = LinearScan::with_dim(2);
        for (id, key) in [(9u64, [1.0, 5.0]), (7, [-1.0, 0.0]), (1, [1.0, 0.0])] {
            tree.insert(id, fv(&key));
            linear.insert(id, fv(&key));
        }
        let query = fv(&[0.0, 0.0]);
        assert_eq!(linear.nearest(&query, 1)[0].id, 1);
        assert_eq!(tree.nearest(&query, 1), linear.nearest(&query, 1));
    }

    #[test]
    fn matches_linear_after_heavy_deletion() {
        let mut rng = SimRng::seed(2);
        let keys = random_vectors(200, 4, &mut rng);
        let mut tree = KdTree::with_dim(4);
        let mut linear = LinearScan::with_dim(4);
        for (i, key) in keys.iter().enumerate() {
            tree.insert(i as u64, key.clone());
            linear.insert(i as u64, key.clone());
        }
        // Delete two thirds (forces at least one rebuild).
        for i in 0..200u64 {
            if i % 3 != 0 {
                assert!(tree.remove(i));
                assert!(linear.remove(i));
            }
        }
        assert_eq!(tree.len(), linear.len());
        assert!(tree.tombstone_fraction() <= 0.5);
        let queries = random_vectors(30, 4, &mut rng);
        for q in &queries {
            let a = tree.nearest(q, 3);
            let b = linear.nearest(q, 3);
            let ids_a: Vec<u64> = a.iter().map(|n| n.id).collect();
            let ids_b: Vec<u64> = b.iter().map(|n| n.id).collect();
            assert_eq!(ids_a, ids_b);
        }
    }

    #[test]
    fn tombstone_fraction_stays_bounded_under_churn() {
        // The rebuild triggers run on both insert and remove, so the dead
        // fraction can never sit above one half no matter the workload.
        let mut rng = SimRng::seed(7);
        let keys = random_vectors(600, 4, &mut rng);
        let mut tree = KdTree::with_dim(4);
        for (i, key) in keys.iter().enumerate() {
            tree.insert(i as u64, key.clone());
            if i >= 3 && i % 2 == 0 {
                let victim = (i as u64) / 2;
                if tree.remove(victim) {
                    assert!(
                        tree.tombstone_fraction() <= 0.5,
                        "tombstones {:.2} after removing {victim}",
                        tree.tombstone_fraction()
                    );
                }
            }
            assert!(tree.tombstone_fraction() <= 0.5);
        }
    }

    #[test]
    fn update_via_reinsert() {
        let mut tree = KdTree::with_dim(2);
        tree.insert(1, fv(&[0.0, 0.0]));
        tree.insert(1, fv(&[9.0, 9.0]));
        assert_eq!(tree.len(), 1);
        let hits = tree.nearest(&fv(&[9.0, 9.0]), 1);
        assert_eq!(hits[0].id, 1);
        assert!(hits[0].distance < 1e-6);
    }

    #[test]
    fn empty_tree_behaviour() {
        let tree = KdTree::with_dim(3);
        assert!(tree.nearest(&fv(&[0.0, 0.0, 0.0]), 4).is_empty());
        assert!(tree.is_empty());
        assert_eq!(tree.kind(), "kdtree");
    }

    #[test]
    fn clear_resets() {
        let mut tree = KdTree::with_dim(1);
        tree.insert(1, fv(&[1.0]));
        tree.clear();
        assert!(tree.is_empty());
        tree.insert(2, fv(&[2.0]));
        assert_eq!(tree.nearest(&fv(&[2.0]), 1)[0].id, 2);
    }

    #[test]
    fn sorted_insertion_triggers_rebalance_and_stays_correct() {
        // Monotone keys create a degenerate spine; the depth-based rebuild
        // must keep the structure queryable and exact.
        let mut tree = KdTree::with_dim(1);
        for i in 0..500u64 {
            tree.insert(i, fv(&[i as f32]));
        }
        assert_eq!(tree.len(), 500);
        let hits = tree.nearest(&fv(&[250.2]), 3);
        assert_eq!(hits[0].id, 250);
        assert_eq!(hits[1].id, 251);
        assert_eq!(hits[2].id, 249);
    }

    #[test]
    fn remove_missing_id_is_noop() {
        let mut tree = KdTree::with_dim(1);
        assert!(!tree.remove(42));
    }
}
