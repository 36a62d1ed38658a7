//! Exactness tests for the two indexes, pinned as properties.
//!
//! The `ann` crate's correctness contract is one sentence: whatever
//! sequence of inserts, removes and re-inserts an index has seen, its
//! **whole answer** to a query — which ids, in which order, with which
//! distance bits — equals that of [`ReferenceLinearScan`], the
//! never-optimized oracle, over the same entries. Distance ties break by
//! id, so there is exactly one right answer even when keys repeat.
//!
//! Half of the cases draw every coordinate from a five-value integer
//! grid, where the situations a tree can get wrong are the norm rather
//! than measure-zero accidents: duplicate keys, entries at exactly the
//! current k-th distance, queries and entries lying exactly on a
//! splitting plane, and — after a rebuild's median split — coordinates
//! equal to the split value on *both* sides of it.
//!
//! The **bounded** query — `nearest_within_into(q, k, r)`, the search
//! every cache lookup runs with `r` = the hit test's distance threshold
//! — is held to the same standard under the same churn: it equals the
//! reference's full ranking filtered by `distance <= r` and cut to `k`,
//! for `r` = 0, `r` = exactly a neighbour's distance (inclusive), a
//! radius between two neighbours, and `∞`.
//!
//! A further property pins **determinism**: two indexes built with the same
//! config over the same insertion sequence answer every query with
//! identical ids and bit-identical distances, which is what lets peers
//! share cache entries and lets golden results stay byte-stable.

use ann::linear::ReferenceLinearScan;
use ann::{build, IndexConfig, IndexScratch, Neighbor, NnIndex};
use features::FeatureVector;
use proptest::prelude::*;

fn backends() -> [(&'static str, IndexConfig); 2] {
    [
        ("linear", IndexConfig::Linear),
        ("kdtree", IndexConfig::KdTree),
    ]
}

/// Deterministic pseudo-random unit-ish coordinate stream, independent of
/// the proptest RNG so key geometry is easy to reason about per case.
fn coords(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 11) as f32 / (1u64 << 53) as f32).mul_add(2.0, -1.0)
        })
        .collect()
}

/// [`coords`] snapped to the integer grid `{-2, …, 2}`.
fn grid_coords(seed: u64, n: usize) -> Vec<f32> {
    coords(seed, n)
        .into_iter()
        .map(|c| (c * 2.5).trunc())
        .collect()
}

/// `count` keys of `dim` coordinates drawn around `clusters` centers,
/// jittered by `spread` — the shape of a cache fed by revisited scenes.
fn clustered_keys(
    seed: u64,
    count: usize,
    dim: usize,
    clusters: usize,
    spread: f32,
) -> Vec<Vec<f32>> {
    let centers: Vec<Vec<f32>> = (0..clusters)
        .map(|c| coords(seed.wrapping_add(c as u64 * 7919), dim))
        .collect();
    (0..count)
        .map(|i| {
            let center = &centers[i % clusters];
            let jitter = coords(seed.wrapping_add(0x5EED).wrapping_add(i as u64), dim);
            center
                .iter()
                .zip(&jitter)
                .map(|(&c, &j)| c + j * spread)
                .collect()
        })
        .collect()
}

fn fv(coords: &[f32]) -> FeatureVector {
    FeatureVector::from_vec(coords.to_vec()).unwrap()
}

/// `Ok` only when `got` is `want` exactly: same ids in the same order,
/// `to_bits`-equal distances.
fn same_answer(name: &str, got: &[Neighbor], want: &[Neighbor]) -> Result<(), String> {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.id == w.id && g.distance.to_bits() == w.distance.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!("{name} answered {got:?}, the reference {want:?}"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under random insert / remove / re-insert churn — enough of it to
    /// drive the kd-tree through tombstones and rebuilds — every index
    /// gives the reference's whole answer, checked every few operations
    /// so pre- and post-rebuild shapes are both queried.
    #[test]
    fn whole_answer_equals_the_reference_under_churn(
        seed in 0u64..1_000_000,
        dim in 1usize..12,
        grid in any::<bool>(),
        ops in proptest::collection::vec((0u64..40, 0u8..4), 1..240),
        k in 1usize..8,
    ) {
        let draw = |salt: u64| {
            if grid {
                grid_coords(seed ^ salt, dim)
            } else {
                coords(seed ^ salt, dim)
            }
        };
        let mut scratch = IndexScratch::new();
        let mut out: Vec<Neighbor> = Vec::new();
        for (name, config) in backends() {
            let mut index = build(dim, &config);
            let mut oracle = ReferenceLinearScan::new(dim);
            for (step, &(id, action)) in ops.iter().enumerate() {
                if action == 0 {
                    prop_assert_eq!(index.remove(id), oracle.remove(id));
                } else {
                    // An id already present is replaced: a re-insert.
                    let key = fv(&draw(0xA11C_E000 + step as u64));
                    index.insert(id, key.clone());
                    oracle.insert(id, key);
                }
                prop_assert_eq!(index.len(), oracle.len());
                if step % 8 == 7 || step + 1 == ops.len() {
                    let query = fv(&draw(0xFACE_0000 + step as u64));
                    index.nearest_into(&query, k, &mut scratch, &mut out);
                    let verdict = same_answer(name, &out, &oracle.nearest(&query, k));
                    prop_assert!(verdict.is_ok(), "step {step}: {verdict:?}");
                }
            }
        }
    }

    /// The bounded search is the reference's full ranking, filtered by
    /// `distance <= r` and cut to `k` — ids and distance bits — at the
    /// radii where an off-by-an-ulp seed or a strict comparison would
    /// show: zero (exact duplicates only; the grid half of the cases
    /// has them), exactly a returned neighbour's distance (which must
    /// be included), halfway between two neighbours, and infinity
    /// (which must be `nearest_into`).
    #[test]
    fn bounded_answer_is_the_filtered_reference_under_churn(
        seed in 0u64..1_000_000,
        dim in 1usize..12,
        grid in any::<bool>(),
        ops in proptest::collection::vec((0u64..40, 0u8..4), 1..240),
        k in 1usize..8,
    ) {
        let draw = |salt: u64| {
            if grid {
                grid_coords(seed ^ salt, dim)
            } else {
                coords(seed ^ salt, dim)
            }
        };
        let mut scratch = IndexScratch::new();
        let mut out: Vec<Neighbor> = Vec::new();
        let mut unbounded: Vec<Neighbor> = Vec::new();
        for (name, config) in backends() {
            let mut index = build(dim, &config);
            let mut oracle = ReferenceLinearScan::new(dim);
            for (step, &(id, action)) in ops.iter().enumerate() {
                if action == 0 {
                    prop_assert_eq!(index.remove(id), oracle.remove(id));
                } else {
                    let key = fv(&draw(0xA11C_E000 + step as u64));
                    index.insert(id, key.clone());
                    oracle.insert(id, key);
                }
                if oracle.is_empty() || !(step % 8 == 7 || step + 1 == ops.len()) {
                    continue;
                }
                // On the grid a query is a cached key about one time in
                // three, so radius 0 has something to find.
                let query = if grid && step % 3 == 0 {
                    fv(&draw(0xA11C_E000 + step as u64))
                } else {
                    fv(&draw(0xFACE_0000 + step as u64))
                };
                let ranking = oracle.nearest(&query, oracle.len());
                let mut radii = vec![0.0, f64::INFINITY];
                for pair in ranking.windows(2) {
                    radii.push(pair[0].distance);
                    radii.push((pair[0].distance + pair[1].distance) / 2.0);
                }
                radii.extend(ranking.last().map(|n| n.distance));
                for r in radii {
                    let want: Vec<Neighbor> = ranking
                        .iter()
                        .filter(|n| n.distance <= r)
                        .take(k)
                        .copied()
                        .collect();
                    index.nearest_within_into(&query, k, r, &mut out);
                    let verdict = same_answer(name, &out, &want);
                    prop_assert!(verdict.is_ok(), "step {step}, r = {r:e}: {verdict:?}");
                }
                index.nearest_into(&query, k, &mut scratch, &mut unbounded);
                index.nearest_within_into(&query, k, f64::INFINITY, &mut out);
                prop_assert_eq!(&out, &unbounded);
            }
        }
    }

    /// Same config + same insertion sequence ⇒ identical answers, bit for
    /// bit.
    #[test]
    fn same_seed_builds_are_deterministic(
        seed in 0u64..1_000_000,
        count in 16usize..128,
    ) {
        let dim = 12;
        let keys = clustered_keys(seed, count, dim, 4, 0.2);
        let queries: Vec<FeatureVector> =
            (0..8).map(|q| fv(&coords(seed ^ (q + 1), dim))).collect();
        let mut scratch = IndexScratch::new();
        for (name, config) in backends() {
            let mut a = build(dim, &config);
            let mut b = build(dim, &config);
            for (id, key) in keys.iter().enumerate() {
                a.insert(id as u64, fv(key));
                b.insert(id as u64, fv(key));
            }
            let mut out_a: Vec<Neighbor> = Vec::new();
            let mut out_b: Vec<Neighbor> = Vec::new();
            for query in &queries {
                a.nearest_into(query, 4, &mut scratch, &mut out_a);
                b.nearest_into(query, 4, &mut scratch, &mut out_b);
                let verdict = same_answer(name, &out_a, &out_b);
                prop_assert!(verdict.is_ok(), "build drift: {verdict:?}");
            }
        }
    }
}

/// The same contract on a pinned schedule over clustered, cache-shaped
/// keys: remove every third entry, re-insert half of those under fresh
/// ids — tombstones, then a rebuild. Plain test — churn schedules are
/// more legible pinned than generated.
#[test]
fn whole_answer_survives_pinned_churn() {
    let dim = 8;
    let keys = clustered_keys(0xC0FFEE, 96, dim, 4, 0.1);
    for (name, config) in backends() {
        let mut index = build(dim, &config);
        let mut oracle = ReferenceLinearScan::new(dim);
        for (id, key) in keys.iter().enumerate() {
            index.insert(id as u64, fv(key));
            oracle.insert(id as u64, fv(key));
        }
        for id in (0..96u64).step_by(3) {
            assert!(index.remove(id), "{name} lost id {id}");
            assert!(oracle.remove(id));
        }
        for (slot, id) in (0..96u64).step_by(6).enumerate() {
            index.insert(1000 + slot as u64, fv(&keys[id as usize]));
            oracle.insert(1000 + slot as u64, fv(&keys[id as usize]));
        }
        let query = fv(&coords(0xDEAD_BEA7, dim));
        let got = index.nearest(&query, 6);
        assert_eq!(got.len(), 6, "{name} returned too few after churn");
        same_answer(name, &got, &oracle.nearest(&query, 6)).unwrap();
    }
}
