//! R-11 — index comparison: lookup latency of the two exact indexes,
//! linear scan and kd-tree, as the cache grows. Demonstrates the claim
//! the cost model relies on: lookups are microseconds while inference is
//! tens of milliseconds. Keys here are uniform — the tree's worst case
//! at d = 64, where its bound rarely prunes and it tracks the scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ann::{IndexConfig, NnIndex};
use features::projection::random_vectors;
use simcore::SimRng;

const DIM: usize = 64;

fn build(index: &mut dyn NnIndex, keys: &[features::FeatureVector]) {
    for (i, key) in keys.iter().enumerate() {
        index.insert(i as u64, key.clone());
    }
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("ann_lookup");
    for &size in &[100usize, 1_000, 10_000] {
        let mut rng = SimRng::seed(1);
        let keys = random_vectors(size, DIM, &mut rng);
        let queries = random_vectors(64, DIM, &mut rng);

        let mut linear = ann::build(DIM, &IndexConfig::Linear);
        build(linear.as_mut(), &keys);
        let mut kdtree = ann::build(DIM, &IndexConfig::KdTree);
        build(kdtree.as_mut(), &keys);

        let indexes: [(&str, &dyn NnIndex); 2] =
            [("linear", linear.as_ref()), ("kdtree", kdtree.as_ref())];
        for (name, index) in indexes {
            group.bench_with_input(BenchmarkId::new(name, size), &size, |b, _| {
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
    }
    group.finish();
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("ann_insert");
    let mut rng = SimRng::seed(2);
    let keys = random_vectors(1_000, DIM, &mut rng);
    for config in [IndexConfig::Linear, IndexConfig::KdTree] {
        group.bench_function(format!("{}_1k", config.name()), |b| {
            b.iter(|| {
                let mut index = ann::build(DIM, &config);
                build(index.as_mut(), &keys);
                black_box(index.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lookup, bench_insert);
criterion_main!(benches);
