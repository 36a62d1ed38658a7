//! R-11 — lookup latency of the exact linear scan as the cache grows.
//! Demonstrates the claim the cost model relies on: lookups are
//! microseconds while inference is tens of milliseconds.
//!
//! Two groups, two key shapes:
//!
//! - `ann_lookup`: **uniform** keys and queries in `[-1, 1]^64`.
//!   Unbounded top-4 (`nearest_into`).
//! - `ann_lookup_clustered`: the benchmark's `edge-lookup` shape —
//!   **clusters of 8** keys (σ = 0.05 a component around a uniform
//!   centre, members ~0.57 apart), queried with its **70/30 mix**: 70 %
//!   *near* (σ = 0.02 around a cached key, an eighth of them exact
//!   copies), 30 % *far* (a fresh uniform key, ~6.5 from everything).
//!   The scan answers the `mix`, and the `far` share alone, twice:
//!   `unbounded` and `within_1.0` (`nearest_within_into` at the default
//!   hit threshold, what a cache lookup asks). The pair shows what the
//!   bound buys (a kernel bound of 1.0 from row 0 instead of ∞: most
//!   head blocks are skipped after their first chunk).
//!
//! Row ids keep the `linear` prefix they had when a kd-tree was measured
//! beside the scan, so the R-11 series in EXPERIMENTS.md continues.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ann::{LinearScan, NnIndex};
use features::projection::random_vectors;
use features::FeatureVector;
use simcore::SimRng;

const DIM: usize = 64;

fn build(keys: &[FeatureVector]) -> LinearScan {
    let mut index = LinearScan::new(DIM);
    for (i, key) in keys.iter().enumerate() {
        index.insert(i as u64, key.clone());
    }
    index
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("ann_lookup");
    for &size in &[100usize, 1_000, 10_000] {
        let mut rng = SimRng::seed(1);
        let keys = random_vectors(size, DIM, &mut rng);
        let queries = random_vectors(64, DIM, &mut rng);

        let index = build(&keys);
        group.bench_with_input(BenchmarkId::new("linear", size), &size, |b, _| {
            let mut i = 0;
            let mut scratch = ann::IndexScratch::new();
            let mut out = Vec::new();
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                index.nearest_into(q, 4, &mut scratch, &mut out);
                black_box(out.len())
            });
        });
    }
    group.finish();
}

/// `n` keys in clusters of 8 around uniform centres, as
/// `benchmark/src/gen.rs::clustered_keys` draws them.
fn clustered_keys(n: usize, rng: &mut SimRng) -> Vec<FeatureVector> {
    let centres = random_vectors(n.div_ceil(8), DIM, rng);
    (0..n)
        .map(|i| jittered(&centres[i % centres.len()], 0.05, rng))
        .collect()
}

/// `centre` with normal noise of `sigma` on each component.
fn jittered(centre: &FeatureVector, sigma: f64, rng: &mut SimRng) -> FeatureVector {
    let components = centre
        .as_slice()
        .iter()
        .map(|&c| c + rng.normal(0.0, sigma) as f32)
        .collect();
    FeatureVector::from_vec(components).expect("finite components")
}

fn bench_lookup_clustered(c: &mut Criterion) {
    let mut group = c.benchmark_group("ann_lookup_clustered");
    for &size in &[256usize, 8_192] {
        let mut rng = SimRng::seed(3);
        let keys = clustered_keys(size, &mut rng);
        let far = random_vectors(64, DIM, &mut rng);
        let mix: Vec<FeatureVector> = (0..64)
            .map(|i| {
                let source = &keys[rng.index(keys.len())];
                match i % 10 {
                    0..=2 => far[i].clone(),
                    3 => source.clone(),
                    _ => jittered(source, 0.02, &mut rng),
                }
            })
            .collect();

        let index = build(&keys);
        for (queries_name, queries) in [("mix", &mix), ("far", &far)] {
            for (bound_name, bound) in [("unbounded", f64::INFINITY), ("within_1.0", 1.0)] {
                let id = format!("linear/{queries_name}/{bound_name}");
                group.bench_with_input(BenchmarkId::new(id, size), &size, |b, _| {
                    let mut i = 0;
                    let mut out = Vec::new();
                    b.iter(|| {
                        let q = &queries[i % queries.len()];
                        i += 1;
                        index.nearest_within_into(q, 4, bound, &mut out);
                        black_box(out.len())
                    });
                });
            }
        }
    }
    group.finish();
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("ann_insert");
    let mut rng = SimRng::seed(2);
    let keys = random_vectors(1_000, DIM, &mut rng);
    group.bench_function("linear_1k", |b| b.iter(|| black_box(build(&keys).len())));
    group.finish();
}

criterion_group!(benches, bench_lookup, bench_lookup_clustered, bench_insert);
criterion_main!(benches);
