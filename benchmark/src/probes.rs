//! Layer probes: ns per call into one public function of one crate,
//! timed from outside in blocks of calls (`host::ns_per_call`).
//!
//! The frame-fed probes replay the frames and IMU windows the
//! `solo-video` traced loop recorded; the index, store and proximity
//! probes run on keys and positions from the same generators the edge
//! and fleet workloads use, at the sizes those workloads reach.

use std::hint::black_box;

use ann::{AknnConfig, DecideScratch, IndexConfig, IndexScratch};
use dnnsim::DnnModel;
use features::distance::squared_euclidean_flat;
use features::FeatureVector;
use imu::MotionEstimator;
use p2pnet::ProximityModel;
use reuse::{AdmissionPolicy, CacheConfig, EntrySource, SharedCache};
use scene::{ClassUniverse, SceneConfig};
use simcore::{SimDuration, SimRng, SimTime};

use crate::gen::{self, KeySet, KEY_DIM};
use crate::host::ns_per_call;
use crate::outcome::Outcome;
use crate::sim::{self, SoloPass};

/// Neighbours per lookup: `AknnConfig::default().k`.
const K: usize = 4;
/// Queries a lookup probe cycles through.
const QUERIES: usize = 64;
/// Blocks every probe repeats; it reports the fastest.
const BLOCKS: usize = 9;

/// Calls per block so that a block takes about a millisecond — a
/// thousand clock reads' worth, keeping the clock under 2 %.
fn per_block(expected_ns: f64) -> usize {
    ((1e6 / expected_ns.max(1.0)) as usize).clamp(4, 100_000)
}

/// Probes fed by what the `solo-video` traced loop saw, and the
/// `process_frame` self time they leave unexplained.
pub fn frame_probes(seed: u64, pass: &SoloPass, out: &mut Outcome) {
    let frames = &pass.recorded.frames;
    let windows = &pass.recorded.windows;
    if frames.is_empty() {
        out.checks
            .fail("probes: the traced loop recorded no frame".to_owned());
        return;
    }
    let config = &pass.config;
    let mut i = 0usize;
    let mut next = move || {
        i = (i + 1) % frames.len();
        i
    };

    let estimator = MotionEstimator::default();
    let gate = config.gate;
    let imu_ns = ns_per_call(per_block(300.0), BLOCKS, || {
        let estimate = estimator.estimate(&windows[next()]);
        black_box(gate.decide_with_history(
            &estimate,
            estimate.motion_score(),
            Some(SimDuration::from_millis(100)),
        ));
    });
    out.set("imu.estimate_ns", imu_ns);

    let projection = config.build_projection(frames[0].descriptor.dim());
    let project_ns = ns_per_call(per_block(10_000.0), BLOCKS, || {
        black_box(projection.project(&frames[next()].descriptor));
    });
    out.set("features.project_ns", project_ns);

    // The universe `sim::run` generates for the default scene under this
    // seed, so the classifier sees descriptors of classes it knows.
    let scene = SceneConfig::default();
    let universe = ClassUniverse::generate(&scene, &mut SimRng::seed(seed).split("world"));
    let model = DnnModel::new(config.model.clone(), config.device_class, &universe);
    let mut rng = gen::workload_rng(seed, "probes");
    let infer_ns = ns_per_call(per_block(20_000.0), BLOCKS, || {
        black_box(model.infer(&frames[next()].descriptor, &mut rng));
    });
    out.set("dnnsim.infer_ns", infer_ns);

    let mut rng = gen::workload_rng(seed, "probes").split("normal");
    out.set(
        "simcore.rng_normal_ns",
        ns_per_call(per_block(10.0), BLOCKS, || {
            black_box(rng.normal(0.0, 1.0));
        }),
    );

    let a = projection.project(&frames[0].descriptor);
    let b = projection.project(&frames[frames.len() - 1].descriptor);
    out.set(
        "features.distance_ns",
        ns_per_call(per_block(10.0), BLOCKS, || {
            black_box(squared_euclidean_flat(
                black_box(a.as_slice()),
                black_box(b.as_slice()),
            ));
        }),
    );

    // What the crates `process_frame` calls cost per frame, by how often
    // the run's own counters say each was called; the rest is the
    // device's own bookkeeping.
    let lookup_ns = out
        .metrics
        .get("reuse.lookup_ns_256")
        .copied()
        .unwrap_or(0.0);
    let (mut total, mut by_imu, mut inferred, mut lookups) = (0.0, 0.0, 0.0, 0.0);
    for report in &pass.reports {
        total += report.frames as f64;
        by_imu += report.path_counts[sim::IMU] as f64;
        inferred += report.path_counts[sim::INFER] as f64;
        lookups += report.cache.lookups as f64;
    }
    let explained = (imu_ns * total
        + project_ns * (total - by_imu)
        + lookup_ns * lookups
        + infer_ns * inferred)
        / total.max(1.0);
    out.set(
        "approxcache.device_self_ns",
        pass.process_frame_ns - explained,
    );
}

fn near_queries(set: &KeySet, rng: &mut SimRng) -> Vec<FeatureVector> {
    (0..QUERIES)
        .map(|_| gen::near(&set.keys[rng.index(set.keys.len())], 0.02, rng))
        .collect()
}

fn filled_cache(config: CacheConfig, set: &KeySet) -> SharedCache<u32> {
    let cache = SharedCache::new(config);
    for (i, (key, &label)) in set.keys.iter().zip(&set.labels).enumerate() {
        cache.insert(
            key.clone(),
            label,
            0.9,
            EntrySource::LocalInference,
            SimTime::from_nanos(i as u64),
        );
    }
    cache
}

/// `ann.*` and `reuse.*` probes at the sizes the workloads reach: 256
/// entries (a phone's cache), 8192 (`edge-lookup`), 1024 full
/// (`edge-ingest`).
pub fn index_probes(seed: u64, out: &mut Outcome) {
    let rng = gen::workload_rng(seed, "probes");
    for (size, nearest, lookup) in [
        (256, "ann.nearest_ns_256", "reuse.lookup_ns_256"),
        (8192, "ann.nearest_ns_8192", "reuse.lookup_ns_8192"),
    ] {
        let mut rng = rng.split_index("index", size as u64);
        let set = gen::clustered_keys(size, &mut rng);
        let queries = near_queries(&set, &mut rng);
        let mut index = ann::build(KEY_DIM, &IndexConfig::default());
        let fill_start = std::time::Instant::now();
        for (id, key) in set.keys.iter().enumerate() {
            index.insert(id as u64, key.clone());
        }
        if size == 8192 {
            out.set(
                "ann.insert_ns_8192",
                fill_start.elapsed().as_nanos() as f64 / size as f64,
            );
        }
        let mut scratch = IndexScratch::new();
        let mut found = Vec::new();
        let mut q = 0usize;
        let expected_ns = size as f64 * 12.0;
        out.set(
            nearest,
            ns_per_call(per_block(expected_ns), BLOCKS, || {
                q = (q + 1) % queries.len();
                index.nearest_into(&queries[q], K, &mut scratch, &mut found);
                black_box(found.last());
            }),
        );
        if size == 256 {
            let aknn = AknnConfig::default();
            let mut votes = DecideScratch::new();
            let labels = &set.labels;
            out.set(
                "ann.vote_ns",
                ns_per_call(per_block(50.0), BLOCKS, || {
                    black_box(ann::aknn::decide_in(
                        found.iter().map(|n| (n.distance, labels[n.id as usize])),
                        &aknn,
                        &mut votes,
                    ));
                }),
            );
        }
        // Admitting everything skips the near-duplicate scan on insert,
        // which a lookup never runs: the fill is quick, the probe the same.
        let config = CacheConfig::new(size).with_admission(AdmissionPolicy::admit_all());
        let cache = filled_cache(config, &set);
        let now = SimTime::from_secs(60);
        out.set(
            lookup,
            ns_per_call(per_block(expected_ns), BLOCKS, || {
                q = (q + 1) % queries.len();
                black_box(cache.lookup(&queries[q], now));
            }),
        );
    }

    let mut rng = rng.split("evict");
    let full = filled_cache(CacheConfig::new(1024), &gen::scattered_keys(1024, &mut rng));
    let fresh: Vec<FeatureVector> = (0..4096).map(|_| gen::uniform_key(&mut rng)).collect();
    let mut i = 0usize;
    out.set(
        "reuse.insert_evict_ns_1024",
        ns_per_call(per_block(20_000.0), BLOCKS, || {
            i += 1;
            black_box(full.insert(
                fresh[i % fresh.len()].clone(),
                (i % 1000) as u32,
                0.9,
                EntrySource::LocalInference,
                SimTime::from_nanos(1_000_000 + i as u64),
            ));
        }),
    );
}

/// `ProximityModel::neighbors` on the fleet workload's grid, at the
/// crowd guard's population and at twice `fleet-grid`'s.
pub fn proximity_probes(out: &mut Outcome) {
    let range_m = approxcache::PeerConfig::default().link.range_m;
    let model = ProximityModel::new(range_m);
    for (devices, name) in [
        (48, "p2pnet.neighbors_ns_48"),
        (2000, "p2pnet.neighbors_ns_2000"),
    ] {
        let positions: Vec<(f64, f64)> = (0..devices)
            .map(|d| approxcache::config::spawn_position(d, devices, 20.0))
            .collect();
        let mut of = 0usize;
        out.set(
            name,
            ns_per_call(per_block(devices as f64 * 3.0), BLOCKS, || {
                of = (of + 1) % devices;
                black_box(model.neighbors(&positions, of));
            }),
        );
    }
}
