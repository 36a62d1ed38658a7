//! Deterministic concurrency tests for the concurrent store.
//!
//! Thread scheduling is the one source of nondeterminism the store
//! cannot remove, so these tests pin down exactly what *is* guaranteed
//! under it: writers that interleave may permute entry ids run to run,
//! but the canonical snapshot (ids erased) and the operation counters
//! must match a sequential execution exactly, and concurrent lookups
//! never drift the counters.
//!
//! Lookups scan side by side under a read lock and may queue their
//! counting and recency touch behind a busy write lock; two tests pin
//! that no queued commit is lost or applied twice, with and without a
//! writer evicting underneath the readers.
//!
//! The last test pins [`SharedCache::frozen_view`], the fleet engine's
//! determinism hinge: a view answers like its owner did at the copy,
//! served entry included, and probing it leaves the owner untouched.

use std::thread;

use features::FeatureVector;
use proptest::prelude::*;
use reuse::{
    AdmissionPolicy, CacheConfig, EntrySource, LookupResult, LookupScratch, PeerLookup, SharedCache,
};
use simcore::{SimDuration, SimTime};

const DIM: usize = 4;
const KEYS: usize = 160;

fn store() -> SharedCache<u32> {
    SharedCache::new(CacheConfig::new(1024).with_admission(AdmissionPolicy::admit_all()))
}

/// Deterministic keys far enough apart that none dedups against or
/// answers for another.
fn keys() -> Vec<FeatureVector> {
    (0..KEYS)
        .map(|cell| {
            let mut components = vec![0.0f32; DIM];
            components[0] = cell as f32 * 100.0;
            FeatureVector::from_vec(components).unwrap()
        })
        .collect()
}

#[test]
fn overlapping_writers_balance_counters_and_canonical_state() {
    // Every worker inserts every key, labelled per worker, so all
    // workers contend on the one lock.
    let all_keys = keys();
    let workers = 4usize;

    let concurrent = store();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let cache = concurrent.clone();
            let keys = all_keys.clone();
            thread::spawn(move || {
                for (i, key) in keys.iter().enumerate() {
                    // Offset each worker's keys into its own cells so the
                    // total entry count is exact (no cross-worker dedup).
                    let shifted: Vec<f32> = key
                        .as_slice()
                        .iter()
                        .map(|c| c + w as f32 * 1_000_000.0)
                        .collect();
                    let shifted = FeatureVector::from_vec(shifted).unwrap();
                    cache.insert(
                        shifted,
                        w as u32,
                        0.9,
                        EntrySource::LocalInference,
                        SimTime::from_millis(i as u64),
                    );
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let sequential = store();
    for w in 0..workers {
        for (i, key) in all_keys.iter().enumerate() {
            let shifted: Vec<f32> = key
                .as_slice()
                .iter()
                .map(|c| c + w as f32 * 1_000_000.0)
                .collect();
            sequential.insert(
                FeatureVector::from_vec(shifted).unwrap(),
                w as u32,
                0.9,
                EntrySource::LocalInference,
                SimTime::from_millis(i as u64),
            );
        }
    }

    let total = workers * all_keys.len();
    assert_eq!(concurrent.len(), total, "no insert may be lost");
    assert_eq!(concurrent.stats().inserts, total as u64);
    assert_eq!(
        concurrent.stats(),
        sequential.stats(),
        "counters must balance"
    );
    // Interleaving may permute entry ids, but nothing else: the
    // id-erased canonical snapshots must be identical.
    let at = SimTime::from_secs(60);
    assert_eq!(
        serde_json::to_string(&concurrent.canonical_snapshot(at)).unwrap(),
        serde_json::to_string(&sequential.canonical_snapshot(at)).unwrap(),
        "canonical state must be schedule-independent"
    );
}

#[test]
fn lookups_and_inserts_interleave_without_counter_drift() {
    let cache = store();
    let all_keys = keys();
    for (i, key) in all_keys.iter().enumerate() {
        cache.insert(
            key.clone(),
            1,
            0.9,
            EntrySource::LocalInference,
            SimTime::from_millis(i as u64),
        );
    }
    let rounds = 25usize;
    let handles: Vec<_> = (0..4usize)
        .map(|_| {
            let cache = cache.clone();
            let keys = all_keys.clone();
            thread::spawn(move || {
                let mut hits = 0u64;
                for _ in 0..rounds {
                    for key in &keys {
                        if cache.lookup(key, SimTime::from_secs(1)).is_hit() {
                            hits += 1;
                        }
                    }
                }
                hits
            })
        })
        .collect();
    let hits: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let expected = (4 * rounds * all_keys.len()) as u64;
    assert_eq!(hits, expected, "every self-lookup must hit");
    assert_eq!(cache.stats().hits, expected);
    assert_eq!(cache.stats().lookups, expected);
}

#[test]
fn readers_only_touch_each_hit_exactly_once() {
    const ROUNDS: u64 = 8;
    let cache = store();
    let all_keys = keys();
    for (i, key) in all_keys.iter().enumerate().take(40) {
        cache.insert(
            key.clone(),
            i as u32,
            0.9,
            EntrySource::LocalInference,
            SimTime::from_millis(i as u64),
        );
    }
    // Half the probes are cached keys, half are cells nothing was
    // inserted at.
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let cache = cache.clone();
            let keys = all_keys.clone();
            thread::spawn(move || {
                let mut hits = 0u64;
                for round in 0..ROUNDS {
                    for (i, key) in keys.iter().enumerate().take(80) {
                        let at = SimTime::from_millis(1_000 + t * 1_000 + round * 100 + i as u64);
                        hits += u64::from(cache.lookup(key, at).is_hit());
                    }
                }
                hits
            })
        })
        .collect();
    let hits: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(hits, 4 * ROUNDS * 40, "each reader hits every cached key");
    let stats = cache.stats();
    assert_eq!((stats.lookups, stats.hits), (4 * ROUNDS * 80, hits));
    assert!(stats.is_balanced(), "{stats:?}");
    let uses: u64 = cache
        .snapshot(SimTime::from_secs(9))
        .entries
        .iter()
        .map(|e| e.uses)
        .sum();
    assert_eq!(uses, hits, "a touch lost or applied twice");
}

#[test]
fn readers_with_an_evicting_writer_count_every_lookup() {
    // A small store the writer overflows many times while four readers
    // look up keys that come and go.
    const ROUNDS: usize = 4;
    let cache: SharedCache<u32> =
        SharedCache::new(CacheConfig::new(24).with_admission(AdmissionPolicy::admit_all()));
    let all_keys = keys();
    let writer = {
        let cache = cache.clone();
        let keys = all_keys.clone();
        thread::spawn(move || {
            for (i, key) in keys.iter().enumerate() {
                let at = SimTime::from_millis(i as u64);
                cache.insert(key.clone(), 1, 0.9, EntrySource::LocalInference, at);
            }
        })
    };
    let readers: Vec<_> = (0..4usize)
        .map(|t| {
            let cache = cache.clone();
            let keys = all_keys.clone();
            thread::spawn(move || {
                let mut hits = 0u64;
                for _ in 0..ROUNDS {
                    for (i, key) in keys.iter().enumerate().skip(t).step_by(2) {
                        let at = SimTime::from_millis(i as u64);
                        hits += u64::from(cache.lookup(key, at).is_hit());
                    }
                }
                hits
            })
        })
        .collect();
    writer.join().unwrap();
    let issued: u64 = (0..4usize)
        .map(|t| (ROUNDS * (KEYS - t).div_ceil(2)) as u64)
        .sum();
    let hits: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    let stats = cache.stats();
    assert_eq!(stats.lookups, issued, "a lookup went uncounted");
    assert_eq!(stats.hits, hits, "a hit went uncounted");
    assert!(stats.is_balanced(), "{stats:?}");
    assert_eq!((stats.inserts, cache.len()), (KEYS as u64, 24));
    assert_eq!(stats.evictions, (KEYS - 24) as u64);
}

#[derive(Debug, Clone)]
enum Op {
    Insert { x: f32, confidence: f64 },
    Lookup { x: f32 },
    Expire { max_age_ms: u64 },
    Threshold { value: f64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Listed twice: the shim's `prop_oneof!` has no weights, and the
        // history should fill the cache faster than it drains it.
        (-12.0f32..12.0, 0.0f64..1.0).prop_map(|(x, confidence)| Op::Insert { x, confidence }),
        (-12.0f32..12.0, 0.0f64..1.0).prop_map(|(x, confidence)| Op::Insert { x, confidence }),
        (-12.0f32..12.0).prop_map(|x| Op::Lookup { x }),
        (1u64..400).prop_map(|max_age_ms| Op::Expire { max_age_ms }),
        (0.05f64..8.0).prop_map(|value| Op::Threshold { value }),
    ]
}

fn probe_key(x: f32) -> FeatureVector {
    FeatureVector::from_vec(vec![x, 1.0]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After an arbitrary insert/lookup/expire/threshold history, every
    /// lookup against the frozen view returns what the owner holds at the
    /// copy — label, served entry, its confidence, nearest distance,
    /// vote — while the owner's counters and contents version stand
    /// still. The owner's own lookups run last: they move its counters
    /// but not its contents, so they still answer as of the copy.
    #[test]
    fn frozen_view_answers_like_the_owner_without_touching_it(
        ops in proptest::collection::vec(op(), 1..80),
        probes in proptest::collection::vec(-14.0f32..14.0, 1..24),
    ) {
        let owner: SharedCache<u32> =
            SharedCache::new(CacheConfig::new(16).with_admission(AdmissionPolicy {
                min_confidence: 0.3,
                min_peer_confidence: 0.5,
                dedup_distance: 0.5,
            }));
        let mut now = SimTime::ZERO;
        for op in &ops {
            now += SimDuration::from_millis(7);
            match *op {
                Op::Insert { x, confidence } => {
                    // The label is a function of the key, so equal keys
                    // tie on distance and label and only the served
                    // entry's id tells them apart.
                    let label = x.to_bits() % 5;
                    let source = EntrySource::LocalInference;
                    owner.insert(probe_key(x), label, confidence, source, now);
                }
                Op::Lookup { x } => {
                    let _ = owner.lookup(&probe_key(x), now);
                }
                Op::Expire { max_age_ms } => {
                    owner.expire_older_than(now, SimDuration::from_millis(max_age_ms));
                }
                Op::Threshold { value } => owner.set_distance_threshold(value),
            }
        }

        let view = owner.frozen_view();
        let stats_before = owner.stats();
        let version_before = owner.contents_version();

        // Probe every cached key (hits) and the random points.
        let keys: Vec<FeatureVector> = owner
            .snapshot(now)
            .entries
            .iter()
            .map(|e| e.key.clone())
            .chain(probes.iter().map(|&x| probe_key(x)))
            .collect();
        let later = now + SimDuration::from_millis(5);
        let mut scratch = LookupScratch::default();
        let seen: Vec<LookupResult<u32>> =
            keys.iter().map(|key| view.lookup(key, later, &mut scratch)).collect();
        prop_assert_eq!(owner.stats(), stats_before);
        prop_assert_eq!(owner.contents_version(), version_before);

        for (key, from_view) in keys.iter().zip(seen) {
            prop_assert_eq!(owner.lookup(key, later), from_view);
        }
    }
}
