//! The concurrent store.
//!
//! [`SharedCache`] is the one type every device, peer view and edge
//! server holds: a cloneable handle to one [`ApproxCache`] behind one
//! `parking_lot::Mutex`. Each public operation takes the lock once and
//! makes the matching `ApproxCache` call, so a `SharedCache` is
//! operation-for-operation identical to the plain store it wraps — same
//! outcomes, counters, ids and snapshots — which is what keeps the
//! golden results byte-identical.
//!
//! [`SharedCache::frozen_view`] copies the contents into an independent
//! store for peer queries against a fixed point in time;
//! [`SharedCache::contents_version`] tells a holder of such a view when
//! it went stale.
//!
//! Lock discipline: the store lock is not reentrant, so no method calls
//! back into the handle while holding it (enforced statically by xtask
//! rules L and G on this module).

use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use features::FeatureVector;
use simcore::{SimDuration, SimTime};

use crate::admission::AdmissionPolicy;
use crate::entry::{CacheEntry, EntryId, EntrySource};
use crate::snapshot::CacheSnapshot;
use crate::stats::CacheStats;
use crate::store::{ApproxCache, CacheConfig, InsertOutcome, LookupResult};

/// What every clone of a [`SharedCache`] handle points at.
struct Core<L> {
    config: CacheConfig,
    cache: Mutex<ApproxCache<L>>,
    /// Bumped whenever cached *contents* (entries or the hit threshold)
    /// may have changed — inserts, clears, non-empty expiry sweeps,
    /// threshold updates. Read-side operations never bump it, so callers
    /// holding a derived view (e.g. a fleet round's frozen peer view)
    /// can cheaply detect staleness.
    version: AtomicU64,
}

/// The concurrent approximate cache: a cloneable handle to one locked
/// [`ApproxCache`]. Clones share state — a device keeps one and its
/// peers query through another. See the [module docs](self) for the
/// contract.
pub struct SharedCache<L> {
    core: Arc<Core<L>>,
}

impl<L> Clone for SharedCache<L> {
    fn clone(&self) -> Self {
        SharedCache {
            core: Arc::clone(&self.core),
        }
    }
}

impl<L> fmt::Debug for SharedCache<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedCache")
            .field("capacity", &self.core.config.capacity)
            .finish_non_exhaustive()
    }
}

impl<L: Copy + Eq + Hash + fmt::Debug> SharedCache<L> {
    /// An empty store around `ApproxCache::new(config)`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(config: CacheConfig) -> SharedCache<L> {
        let cache = ApproxCache::new(config.clone());
        SharedCache {
            core: Arc::new(Core {
                config,
                cache: Mutex::new(cache),
                version: AtomicU64::new(0),
            }),
        }
    }

    /// A counter that advances whenever cached contents may have
    /// changed (insert, clear, non-empty expiry sweep, threshold
    /// update). Two equal readings bracket a window in which every
    /// lookup against this cache would have seen the same entries.
    pub fn contents_version(&self) -> u64 {
        self.core.version.load(Ordering::Acquire)
    }

    fn bump_version(&self, steps: u64) {
        self.core.version.fetch_add(steps, Ordering::Release);
    }

    /// Looks up `key`, updating recency metadata on a hit.
    pub fn lookup(&self, key: &FeatureVector, now: SimTime) -> LookupResult<L> {
        self.core.cache.lock().lookup(key, now)
    }

    /// Inserts a result, subject to admission control and capacity.
    pub fn insert(
        &self,
        key: FeatureVector,
        label: L,
        confidence: f64,
        source: EntrySource,
        now: SimTime,
    ) -> InsertOutcome {
        let outcome = self
            .core
            .cache
            .lock()
            .insert(key, label, confidence, source, now);
        if outcome.entry().is_some() {
            self.bump_version(1);
        }
        outcome
    }

    /// Operation counters so far.
    pub fn stats(&self) -> CacheStats {
        *self.core.cache.lock().stats()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.core.cache.lock().len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry (statistics retained).
    pub fn clear(&self) {
        self.core.cache.lock().clear();
        self.bump_version(1);
    }

    /// Drops every entry older than `max_age`, returning how many went.
    pub fn expire_older_than(&self, now: SimTime, max_age: SimDuration) -> usize {
        let dropped = self.core.cache.lock().expire_older_than(now, max_age);
        if dropped > 0 {
            self.bump_version(1);
        }
        dropped
    }

    /// The current A-kNN distance threshold.
    pub fn distance_threshold(&self) -> f64 {
        self.core.cache.lock().distance_threshold()
    }

    /// Sets the A-kNN distance threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive and finite.
    pub fn set_distance_threshold(&self, threshold: f64) {
        self.core.cache.lock().set_distance_threshold(threshold);
        self.bump_version(1);
    }

    /// The nearest cached entry to `key` with its distance (read-only
    /// probe: no statistics, no recency update).
    pub fn peek_nearest(&self, key: &FeatureVector) -> Option<(f64, L)> {
        self.core.cache.lock().peek_nearest(key)
    }

    /// The confidence of the entry with `id`, if still cached.
    pub fn entry_confidence(&self, id: EntryId) -> Option<f64> {
        self.core.cache.lock().entry(id).map(|e| e.confidence)
    }

    /// The `limit` most recently used entries, newest first (cloned, so
    /// the lock is released before returning).
    pub fn hottest(&self, limit: usize) -> Vec<CacheEntry<L>> {
        self.core
            .cache
            .lock()
            .hottest(limit)
            .into_iter()
            .cloned()
            .collect()
    }

    /// A snapshot of every entry, sorted by entry id — the deterministic
    /// copy [`frozen_view`](Self::frozen_view) restores from.
    pub fn snapshot(&self, now: SimTime) -> CacheSnapshot<L> {
        let mut snap = CacheSnapshot::capture(&self.core.cache.lock(), now);
        snap.entries.sort_by_key(|e| e.id);
        snap
    }

    /// [`snapshot`](Self::snapshot) normalized for cross-run comparison:
    /// entry ids are zeroed (they encode arrival order, which
    /// legitimately varies across thread interleavings) and entries sort
    /// by key bits. Two runs that cached the same *contents* produce
    /// byte-identical canonical snapshots regardless of worker count.
    pub fn canonical_snapshot(&self, now: SimTime) -> CacheSnapshot<L> {
        let mut snap = self.snapshot(now);
        for e in &mut snap.entries {
            e.id = EntryId(0);
        }
        snap.entries.sort_by_key(|e| {
            (
                e.key
                    .as_slice()
                    .iter()
                    .map(|c| c.to_bits())
                    .collect::<Vec<u32>>(),
                e.inserted_at,
                e.last_used,
                e.uses,
            )
        });
        snap
    }

    /// Restores a snapshot through the normal insert path (admission and
    /// eviction apply), hottest entries first, under one lock. Returns
    /// how many entries were inserted or absorbed as refreshes.
    pub fn restore(&self, snapshot: &CacheSnapshot<L>, now: SimTime) -> usize {
        let restored = snapshot.restore_into(&mut self.core.cache.lock(), now);
        // One step per entry, as many as one `insert` call each would take.
        self.bump_version(restored as u64);
        restored
    }

    /// A self-contained copy of this cache's current contents, built
    /// for peer queries against a fixed point in time (the fleet engine
    /// rebuilds one per device per round, gated on
    /// [`contents_version`](Self::contents_version)).
    ///
    /// The view keeps the owner's index configuration and distance
    /// threshold, but admits unconditionally with exactly enough
    /// capacity that every owned entry survives the copy — lookups
    /// against the view answer like the owner while their
    /// recency/statistics side-effects land on the discarded view
    /// instead of the owner.
    pub fn frozen_view(&self, now: SimTime) -> SharedCache<L> {
        let snapshot = self.snapshot(now);
        let mut config = self.core.config.clone();
        config.capacity = snapshot.len().max(1);
        config.admission = AdmissionPolicy::admit_all();
        let view = SharedCache::new(config);
        view.set_distance_threshold(self.distance_threshold());
        view.restore(&snapshot, now);
        view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann::AknnConfig;

    fn fv(x: f32, y: f32) -> FeatureVector {
        FeatureVector::from_vec(vec![x, y]).unwrap()
    }

    fn base_config(capacity: usize) -> CacheConfig {
        CacheConfig::new(capacity)
            .with_aknn(AknnConfig {
                k: 3,
                distance_threshold: 1.0,
                homogeneity: 0.6,
                min_support: 1,
            })
            .with_admission(AdmissionPolicy::admit_all())
    }

    fn insert_at(cache: &SharedCache<u32>, x: f32, label: u32, ms: u64) -> InsertOutcome {
        cache.insert(
            fv(x, 5.0),
            label,
            0.9,
            EntrySource::LocalInference,
            SimTime::from_millis(ms),
        )
    }

    #[test]
    fn mints_dense_ids() {
        let cache: SharedCache<u32> = SharedCache::new(base_config(16));
        let ids: Vec<u64> = (0..4)
            .map(|i| {
                insert_at(&cache, i as f32 * 50.0, i, i as u64)
                    .entry()
                    .unwrap()
                    .0
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn lookup_hits_a_near_key() {
        let cache: SharedCache<u32> = SharedCache::new(base_config(64));
        cache.insert(
            fv(1.0, 2.0),
            9,
            0.9,
            EntrySource::LocalInference,
            SimTime::ZERO,
        );
        let hit = cache.lookup(&fv(1.05, 2.0), SimTime::from_millis(5));
        assert!(hit.is_hit());
        assert_eq!(hit.label(), Some(&9));
        let stats = cache.stats();
        assert_eq!(stats.lookups, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn snapshot_is_sorted_by_id_and_restores() {
        let source: SharedCache<u32> = SharedCache::new(base_config(64));
        for i in 0..12 {
            insert_at(&source, i as f32 * 30.0, i, i as u64);
        }
        let snap = source.snapshot(SimTime::from_secs(1));
        assert_eq!(snap.len(), 12);
        let ids: Vec<u64> = snap.entries.iter().map(|e| e.id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);

        let dest: SharedCache<u32> = SharedCache::new(base_config(64));
        let v0 = dest.contents_version();
        assert_eq!(dest.restore(&snap, SimTime::from_secs(2)), 12);
        assert_eq!(dest.contents_version(), v0 + 12, "one step per entry");
        for i in 0..12u32 {
            let hit = dest.lookup(&fv(i as f32 * 30.0, 5.0), SimTime::from_secs(3));
            assert_eq!(hit.label(), Some(&i), "key {i}");
        }
    }

    #[test]
    fn canonical_snapshot_is_insertion_order_independent() {
        // Same contents inserted in different orders (ids differ) yield
        // identical canonical snapshots.
        let make = |order: &[u32]| {
            let cache: SharedCache<u32> = SharedCache::new(base_config(64));
            for &i in order {
                insert_at(&cache, i as f32 * 30.0, i, 100);
            }
            cache.canonical_snapshot(SimTime::from_secs(1))
        };
        let forward = make(&[0, 1, 2, 3, 4, 5]);
        let reverse = make(&[5, 4, 3, 2, 1, 0]);
        assert_eq!(forward, reverse);
    }

    #[test]
    fn threshold_round_trips() {
        let cache: SharedCache<u32> = SharedCache::new(base_config(64));
        cache.set_distance_threshold(2.5);
        assert!((cache.distance_threshold() - 2.5).abs() < 1e-12);
        assert!(cache.is_empty());
        let debug = format!("{cache:?}");
        assert!(debug.contains("SharedCache"));
    }

    #[test]
    fn expire_and_clear() {
        let cache: SharedCache<u32> = SharedCache::new(base_config(64));
        for i in 0..8 {
            insert_at(&cache, i as f32 * 30.0, i, i as u64);
        }
        let dropped =
            cache.expire_older_than(SimTime::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(dropped, 5, "entries inserted at 0..=4 ms expired");
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().expirations, 5);
    }

    #[test]
    fn clones_share_state() {
        let shared: SharedCache<u32> = SharedCache::new(CacheConfig::new(4));
        let other = shared.clone();
        shared.insert(
            fv(0.0, 0.0),
            5,
            0.9,
            EntrySource::LocalInference,
            SimTime::ZERO,
        );
        assert_eq!(other.len(), 1);
        let hit = other.lookup(&fv(0.1, 0.0), SimTime::from_millis(1));
        assert_eq!(hit.label(), Some(&5));
        assert_eq!(shared.stats().hits, 1);
        assert!(!shared.is_empty());
    }

    #[test]
    fn hottest_confidence_and_peek_read_without_side_effects() {
        let shared: SharedCache<u32> = SharedCache::new(CacheConfig::new(4));
        shared.insert(fv(1.0, 0.0), 2, 0.9, EntrySource::Peer, SimTime::ZERO);
        let hottest = shared.hottest(1);
        assert_eq!(hottest.first().map(|e| e.label), Some(2));
        let id = hottest.first().map(|e| e.id).unwrap();
        assert_eq!(shared.entry_confidence(id), Some(0.9));
        assert_eq!(shared.entry_confidence(EntryId(999)), None);
        let (distance, label) = shared.peek_nearest(&fv(1.0, 0.0)).unwrap();
        assert!(distance < 1e-9);
        assert_eq!(label, 2);
        assert_eq!(shared.stats().lookups, 0);
    }

    #[test]
    fn concurrent_inserts_do_not_lose_entries() {
        let shared: SharedCache<u32> = SharedCache::new(base_config(1024));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let cache = shared.clone();
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        let x = (t * 1000 + i) as f32;
                        cache.insert(
                            fv(x, x),
                            t,
                            0.9,
                            EntrySource::LocalInference,
                            SimTime::from_millis(i as u64),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.len(), 200);
        assert_eq!(shared.stats().inserts, 200);
    }

    #[test]
    fn contents_version_tracks_mutations_not_reads() {
        let shared: SharedCache<u32> = SharedCache::new(CacheConfig::new(4));
        let v0 = shared.contents_version();
        shared.insert(
            fv(0.0, 0.0),
            5,
            0.9,
            EntrySource::LocalInference,
            SimTime::ZERO,
        );
        let v1 = shared.contents_version();
        assert!(v1 > v0, "insert bumps the version");
        let _ = shared.lookup(&fv(0.1, 0.0), SimTime::from_millis(1));
        let _ = shared.peek_nearest(&fv(0.1, 0.0));
        assert_eq!(shared.contents_version(), v1, "reads do not bump it");
        shared.clear();
        assert!(shared.contents_version() > v1, "clear bumps the version");
    }
}
