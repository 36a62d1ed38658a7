//! The concurrent store.
//!
//! [`SharedCache`] is the one cache type every device and edge server
//! holds: a cloneable handle to one [`ApproxCache`] behind one
//! `parking_lot::RwLock`. Once a lookup has found the store locked, the
//! handle's lookups are split in two. The read half, the scan
//! and the vote (`ApproxCache::probe`), runs under the read lock, so
//! lookups from many threads scan side by side. The write half,
//! counting the lookup and touching the served entry
//! (`ApproxCache::commit`), runs at once when the write lock is free
//! and is queued when it is not. Until then — for good, on every sim
//! device — a lookup runs whole under the write lock, with the store's
//! own buffers, as on the plain store. Every other operation that
//! writes, or reads statistics or recency, takes the write lock and
//! applies the queue first.
//!
//! Equivalence contract: an uncontended handle runs every lookup as the
//! plain store does, so it is operation-for-operation identical to the
//! store it wraps — same outcomes, counters, ids and snapshots — which
//! is what keeps the golden results byte-identical.
//! Under contention every answer is still one the plain store gives: a
//! commit writes only statistics and recency, which no probe reads, so a
//! queued commit cannot change a later lookup's answer, and no reader of
//! statistics, recency or contents sees the store before the queue is
//! applied. No commit is lost or applied twice.
//!
//! [`SharedCache::frozen_view`] copies the rows under the read lock into
//! a lock-free [`FrozenView`] that keeps the owner's ids;
//! [`SharedCache::contents_version`] says when such a view went stale.
//!
//! Lock discipline: no lock is reentrant, so no method calls back into
//! the handle while holding one. The store lock is taken before the
//! commit queue's lock, never after, and the scratch lock is held alone
//! (enforced statically by xtask rules L and G on this module).

use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use features::FeatureVector;
use simcore::{SimDuration, SimTime};

use crate::entry::{CacheEntry, EntryId, EntrySource};
use crate::snapshot::CacheSnapshot;
use crate::stats::CacheStats;
use crate::store::{
    ApproxCache, CacheConfig, FrozenView, InsertOutcome, LookupResult, LookupScratch, PeerLookup,
    Probe,
};

/// Queued commits past this many are applied by the lookup that queued
/// the last one, under a blocking write lock, so a stream of readers that
/// never finds the write lock free cannot grow the queue without bound.
const PENDING_CAP: usize = 64;

/// What every clone of a [`SharedCache`] handle points at.
struct Core<L> {
    cache: RwLock<ApproxCache<L>>,
    /// The buffers of split lookups, lent to one probe at a time. A probe
    /// that finds them lent builds a spare; boxed, so a handle whose
    /// lookups never split carries one pointer, not the buffers.
    scratch: Mutex<Option<Box<LookupScratch<L>>>>,
    /// Probes whose commit found the write lock taken, in arrival order,
    /// each with its lookup time. Empty, and unallocated, until a lookup
    /// is contended.
    pending: Mutex<Vec<(Probe<L>, SimTime)>>,
    /// Set the first time a lookup finds the store locked. Until then a
    /// lookup runs whole under the write lock, as on the plain store.
    contended: AtomicBool,
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
        f.debug_struct("SharedCache").finish_non_exhaustive()
    }
}

impl<L: Copy + Eq + Hash + fmt::Debug> SharedCache<L> {
    /// An empty store around `ApproxCache::new(config)`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(config: CacheConfig) -> SharedCache<L> {
        SharedCache {
            core: Arc::new(Core {
                cache: RwLock::new(ApproxCache::new(config)),
                scratch: Mutex::new(None),
                pending: Mutex::new(Vec::new()),
                contended: AtomicBool::new(false),
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

    fn bump_version(&self) {
        self.core.version.fetch_add(1, Ordering::Release);
    }

    /// Runs `f` on the store under the write lock, after applying every
    /// queued commit.
    fn with_write<R>(&self, f: impl FnOnce(&mut ApproxCache<L>) -> R) -> R {
        let mut cache = self.core.cache.write();
        self.drain(&mut cache);
        f(&mut cache)
    }

    /// Applies the queued commits in arrival order. Called with the store
    /// write-locked: the store lock is always taken before the queue's.
    fn drain(&self, cache: &mut ApproxCache<L>) {
        let mut pending = self.core.pending.lock();
        for (probe, now) in pending.drain(..) {
            cache.commit(probe, now);
        }
    }

    /// A lookup's read half under the read lock, with the handle's
    /// buffers when they are free and a spare when another probe has
    /// them.
    fn probe(&self, key: &FeatureVector) -> Probe<L> {
        let mut scratch = self.core.scratch.lock().take().unwrap_or_default();
        let probe = self.core.cache.read().probe(key, &mut scratch);
        *self.core.scratch.lock() = Some(scratch);
        probe
    }

    /// A lookup's write half: at once when the write lock is free, queued
    /// when a reader or writer holds the store. A full queue is applied
    /// here.
    fn commit(&self, probe: Probe<L>, now: SimTime) -> LookupResult<L> {
        if let Some(mut cache) = self.core.cache.try_write() {
            self.drain(&mut cache);
            return cache.commit(probe, now);
        }
        let queued = {
            let mut pending = self.core.pending.lock();
            pending.push((probe, now));
            pending.len()
        };
        if queued >= PENDING_CAP {
            self.with_write(|_| ());
        }
        probe.result()
    }

    /// Looks up `key`, updating recency metadata on a hit. Once a lookup
    /// has found the store locked, the scan runs under the read lock, side
    /// by side with other lookups; see the [module docs](self) for when
    /// the recency update lands.
    pub fn lookup(&self, key: &FeatureVector, now: SimTime) -> LookupResult<L> {
        // A handle whose lookups have never found the store locked (every
        // sim device) keeps the plain store's lookup and
        // buffers: read and write halves under one write lock.
        if !self.core.contended.load(Ordering::Relaxed) {
            if let Some(mut cache) = self.core.cache.try_write() {
                self.drain(&mut cache);
                return cache.lookup(key, now);
            }
            self.core.contended.store(true, Ordering::Relaxed);
        }
        let probe = self.probe(key);
        self.commit(probe, now)
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
        let outcome = self.with_write(|cache| cache.insert(key, label, confidence, source, now));
        if outcome.entry().is_some() {
            self.bump_version();
        }
        outcome
    }

    /// Operation counters so far, every earlier lookup included.
    pub fn stats(&self) -> CacheStats {
        self.with_write(|cache| *cache.stats())
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.core.cache.read().len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry (statistics retained).
    pub fn clear(&self) {
        self.with_write(ApproxCache::clear);
        self.bump_version();
    }

    /// Drops every entry older than `max_age`, returning how many went.
    pub fn expire_older_than(&self, now: SimTime, max_age: SimDuration) -> usize {
        let dropped = self.with_write(|cache| cache.expire_older_than(now, max_age));
        if dropped > 0 {
            self.bump_version();
        }
        dropped
    }

    /// The current A-kNN distance threshold.
    pub fn distance_threshold(&self) -> f64 {
        self.core.cache.read().distance_threshold()
    }

    /// Sets the A-kNN distance threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive and finite.
    pub fn set_distance_threshold(&self, threshold: f64) {
        self.with_write(|cache| cache.set_distance_threshold(threshold));
        self.bump_version();
    }

    /// The nearest cached entry to `key` with its distance (read-only
    /// probe: no statistics, no recency update).
    pub fn peek_nearest(&self, key: &FeatureVector) -> Option<(f64, L)> {
        self.core.cache.read().peek_nearest(key)
    }

    /// The `limit` most recently used entries, newest first (copies, so
    /// the lock is released before returning).
    pub fn hottest(&self, limit: usize) -> Vec<CacheEntry<L>> {
        self.with_write(|cache| cache.hottest(limit))
    }

    /// A snapshot of every entry, sorted by entry id.
    pub fn snapshot(&self, now: SimTime) -> CacheSnapshot<L> {
        let mut snap = self.with_write(|cache| CacheSnapshot::capture(cache, now));
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

    /// A copy of the current rows for peer queries against a fixed point
    /// in time, taken under the read lock: queued commits touch only
    /// what a view does not copy. The fleet engine rebuilds one per
    /// device per round, gated on [`contents_version`](Self::contents_version).
    pub fn frozen_view(&self) -> FrozenView<L> {
        self.core.cache.read().frozen_view()
    }
}

impl<L: Copy + Eq + Hash + fmt::Debug> PeerLookup<L> for SharedCache<L> {
    /// [`SharedCache::lookup`], in the handle's own buffers.
    fn lookup(
        &self,
        key: &FeatureVector,
        now: SimTime,
        _scratch: &mut LookupScratch<L>,
    ) -> LookupResult<L> {
        SharedCache::lookup(self, key, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
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
        assert!(
            matches!(hit, LookupResult::Hit { confidence, .. } if confidence.to_bits() == 0.9f64.to_bits()),
            "a hit carries its entry's confidence: {hit:?}"
        );
        let stats = cache.stats();
        assert_eq!(stats.lookups, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn snapshot_is_sorted_by_id() {
        let source: SharedCache<u32> = SharedCache::new(base_config(64));
        for i in 0..12 {
            insert_at(&source, i as f32 * 30.0, i, i as u64);
        }
        let snap = source.snapshot(SimTime::from_secs(1));
        assert_eq!(snap.entries.len(), 12);
        let ids: Vec<u64> = snap.entries.iter().map(|e| e.id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
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
    fn hottest_and_peek_read_without_side_effects() {
        let shared: SharedCache<u32> = SharedCache::new(CacheConfig::new(4));
        shared.insert(fv(1.0, 0.0), 2, 0.9, EntrySource::Peer, SimTime::ZERO);
        let hottest = shared.hottest(1);
        assert_eq!(hottest.first().map(|e| e.label), Some(2));
        let (distance, label) = shared.peek_nearest(&fv(1.0, 0.0)).unwrap();
        assert!(distance < 1e-9);
        assert_eq!(label, 2);
        assert_eq!(shared.stats().lookups, 0);
    }

    #[test]
    fn a_commit_blocked_by_a_reader_is_queued_and_applied_before_reads() {
        let shared: SharedCache<u32> = SharedCache::new(base_config(16));
        insert_at(&shared, 0.0, 3, 0);
        insert_at(&shared, 50.0, 4, 1);
        assert!(shared
            .lookup(&fv(90.0, 5.0), SimTime::ZERO)
            .label()
            .is_none());
        assert!(!shared.core.contended.load(Ordering::Relaxed));
        let reader = shared.core.cache.read();
        let hit = shared.lookup(&fv(0.1, 5.0), SimTime::from_millis(900));
        assert_eq!(hit.label(), Some(&3), "the probe answers at once");
        assert!(shared.core.contended.load(Ordering::Relaxed));
        assert_eq!(shared.core.pending.lock().len(), 1, "its commit waits");
        drop(reader);
        let hottest = shared.hottest(1);
        assert_eq!(hottest[0].label, 3, "the touch landed before the read");
        assert_eq!(
            (hottest[0].uses, hottest[0].last_used.as_millis()),
            (1, 900)
        );
        assert!(shared.core.pending.lock().is_empty());
        let stats = shared.stats();
        assert_eq!((stats.lookups, stats.hits), (2, 1));
    }

    #[test]
    fn a_full_queue_is_drained_by_the_lookup_that_fills_it() {
        let shared: SharedCache<u32> = SharedCache::new(base_config(16));
        insert_at(&shared, 0.0, 3, 0);
        let reader = shared.core.cache.read();
        for _ in 0..PENDING_CAP - 1 {
            shared.lookup(&fv(0.1, 5.0), SimTime::from_millis(1));
        }
        assert_eq!(shared.core.pending.lock().len(), PENDING_CAP - 1);
        let filler = {
            let shared = shared.clone();
            std::thread::spawn(move || shared.lookup(&fv(90.0, 5.0), SimTime::from_millis(2)))
        };
        // The last lookup queues its commit, then waits for the write
        // lock the reader holds.
        while shared.core.pending.lock().len() < PENDING_CAP {
            std::thread::yield_now();
        }
        drop(reader);
        assert!(!filler.join().unwrap().is_hit());
        assert!(shared.core.pending.lock().is_empty(), "drained at the cap");
        let stats = *shared.core.cache.read().stats();
        assert_eq!(
            (stats.lookups, stats.hits),
            (PENDING_CAP as u64, PENDING_CAP as u64 - 1)
        );
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
