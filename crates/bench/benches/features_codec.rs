//! R-13 — key-generation and wire-codec microbenchmarks: the per-frame
//! fixed costs of the caching machinery (key projection) and the
//! encode/decode cost of peer messages.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use features::{projection::random_vectors, RandomProjection};
use p2pnet::{P2pMessage, RemoteHit, WireEntry};
use simcore::SimRng;

fn bench_key_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("key_generation");
    let mut rng = SimRng::seed(1);
    let descriptors = random_vectors(64, 256, &mut rng);
    let projection = RandomProjection::new(256, 64, 7);

    group.bench_function("project_256_to_64", |b| {
        let mut i = 0;
        b.iter(|| {
            let d = &descriptors[i % descriptors.len()];
            i += 1;
            black_box(projection.project(d))
        });
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    let mut rng = SimRng::seed(2);
    let key = random_vectors(1, 64, &mut rng).remove(0);
    let query = P2pMessage::Query {
        query_id: 7,
        key: key.clone(),
    };
    let reply = P2pMessage::Reply {
        query_id: 7,
        hit: Some(RemoteHit {
            label: 3,
            confidence: 0.9,
            distance: 0.4,
        }),
    };
    let advertise = P2pMessage::Advertise {
        entries: (0..4)
            .map(|i| WireEntry {
                key: key.clone(),
                label: i,
                confidence: 0.9,
            })
            .collect(),
    };
    for (name, message) in [
        ("query", &query),
        ("reply", &reply),
        ("advertise4", &advertise),
    ] {
        let encoded = message.encode();
        group.bench_function(format!("encode_{name}"), |b| {
            b.iter(|| black_box(message.encode()));
        });
        group.bench_function(format!("decode_{name}"), |b| {
            b.iter(|| black_box(P2pMessage::decode(&encoded).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_key_generation, bench_codec);
criterion_main!(benches);
