//! Oracle equivalence: the concurrent store must be
//! operation-for-operation identical to the plain single-threaded
//! [`ApproxCache`] it wraps. This is the contract that keeps the golden
//! experiment results byte-identical — any divergence here is a
//! regression in the concurrent core, not a tuning difference.
//!
//! The suite drives both backends through identical randomized operation
//! sequences (lookups, inserts across sources and confidences, expiry
//! sweeps, clears) for every standard eviction policy and compares the
//! observable outcome of every single operation plus the full counter
//! state after each step. The counters, the recency order and the full
//! snapshot are read between lookups too, so a lookup whose recency
//! touch has not landed before the next read fails the oracle.

use features::FeatureVector;
use reuse::{
    ApproxCache, CacheConfig, CacheEntry, CacheSnapshot, EntrySource, EvictionPolicy, LookupResult,
    SharedCache,
};
use simcore::{SimDuration, SimRng, SimTime};

const DIM: usize = 8;
const STEPS: usize = 800;

/// A key near one of a handful of cluster centres, so lookups hit,
/// inserts refresh near-duplicates, and capacity pressure forces real
/// evictions.
fn key(rng: &mut SimRng) -> FeatureVector {
    let centre = rng.index(6) as f32;
    let components: Vec<f32> = (0..DIM)
        .map(|d| {
            let base = if d == 0 { centre * 25.0 } else { centre };
            base + rng.normal(0.0, 0.05) as f32
        })
        .collect();
    FeatureVector::from_vec(components).unwrap()
}

fn source(rng: &mut SimRng) -> EntrySource {
    if rng.chance(0.3) {
        EntrySource::Peer
    } else {
        EntrySource::LocalInference
    }
}

/// The oracle's snapshot in the shared store's order (by entry id).
fn sorted_snapshot(oracle: &ApproxCache<u32>, now: SimTime) -> CacheSnapshot<u32> {
    let mut snap = CacheSnapshot::capture(oracle, now);
    snap.entries.sort_by_key(|e| e.id);
    snap
}

/// Drives both backends through the same operation stream and asserts
/// observable equivalence after every operation.
fn assert_equivalent(policy: EvictionPolicy, seed: u64) {
    let config = CacheConfig::new(8).with_eviction(policy);
    let mut oracle: ApproxCache<u32> = ApproxCache::new(config.clone());
    let shared: SharedCache<u32> = SharedCache::new(config);
    let mut rng = SimRng::seed(seed).split(policy.name());

    for step in 0..STEPS {
        // Colliding timestamps exercise the id tiebreaks.
        let now = SimTime::from_millis((step as u64 / 3) * 15);
        let roll = rng.uniform(0.0, 1.0);
        if roll < 0.45 {
            let k = key(&mut rng);
            let a: LookupResult<u32> = oracle.lookup(&k, now);
            let b = shared.lookup(&k, now);
            assert_eq!(a, b, "lookup diverged at step {step}");
        } else if roll < 0.9 {
            let k = key(&mut rng);
            let label = rng.index(6) as u32;
            let confidence = rng.uniform(0.2, 1.0);
            let src = source(&mut rng);
            let a = oracle.insert(k.clone(), label, confidence, src, now);
            let b = shared.insert(k, label, confidence, src, now);
            assert_eq!(a, b, "insert diverged at step {step}");
        } else if roll < 0.98 {
            let max_age = SimDuration::from_millis(rng.index(200) as u64 + 1);
            let a = oracle.expire_older_than(now, max_age);
            let b = shared.expire_older_than(now, max_age);
            assert_eq!(a, b, "expiry count diverged at step {step}");
        } else {
            oracle.clear();
            shared.clear();
        }
        assert_eq!(oracle.len(), shared.len(), "len diverged at step {step}");
        assert_eq!(
            *oracle.stats(),
            shared.stats(),
            "counters diverged at step {step}"
        );
        let hottest: Vec<CacheEntry<u32>> = oracle.hottest(3);
        assert_eq!(
            hottest,
            shared.hottest(3),
            "recency diverged at step {step}"
        );
        if step % 50 == 0 {
            assert_eq!(
                sorted_snapshot(&oracle, now),
                shared.snapshot(now),
                "snapshot diverged at step {step}"
            );
        }
    }
    assert!(
        oracle.stats().evictions > 0,
        "workload must exercise eviction for {} to prove anything",
        policy.name()
    );
}

#[test]
fn shared_store_matches_oracle_under_lru() {
    assert_equivalent(EvictionPolicy::Lru, 0x0e_1111);
}

#[test]
fn shared_store_matches_oracle_under_lfu() {
    assert_equivalent(EvictionPolicy::Lfu, 0x0e_2222);
}

#[test]
fn shared_store_matches_oracle_under_ttl_and_utility() {
    for (i, policy) in EvictionPolicy::standard_set().into_iter().enumerate() {
        match policy {
            EvictionPolicy::Lru | EvictionPolicy::Lfu => {} // covered above
            _ => assert_equivalent(policy, 0x0e_3000 + i as u64),
        }
    }
}

/// The snapshot of the shared store must also match the oracle's:
/// same entries, same ids, same usage metadata.
#[test]
fn shared_snapshot_matches_oracle_snapshot() {
    let config = CacheConfig::new(16);
    let mut oracle: ApproxCache<u32> = ApproxCache::new(config.clone());
    let shared: SharedCache<u32> = SharedCache::new(config);
    let mut rng = SimRng::seed(0x0e_4444);
    for step in 0..300u64 {
        let now = SimTime::from_millis(step * 10);
        let k = key(&mut rng);
        if rng.chance(0.5) {
            oracle.lookup(&k, now);
            shared.lookup(&k, now);
        } else {
            let label = rng.index(6) as u32;
            let confidence = rng.uniform(0.2, 1.0);
            oracle.insert(
                k.clone(),
                label,
                confidence,
                EntrySource::LocalInference,
                now,
            );
            shared.insert(k, label, confidence, EntrySource::LocalInference, now);
        }
    }
    let at = SimTime::from_secs(10);
    // `capture` documents its entry order as arbitrary (it walks a hash
    // map); the shared snapshot sorts by id. Normalize the oracle's to
    // the same order — ids themselves must still match exactly.
    let mut a = reuse::CacheSnapshot::capture(&oracle, at);
    a.entries.sort_by_key(|e| e.id);
    let b = shared.snapshot(at);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "snapshots must serialize identically"
    );
}
