//! The concurrent store: a cloneable handle over per-shard locks and
//! per-shard indexes, with deterministic routing and merging.

use std::cmp::Reverse;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use features::FeatureVector;
use simcore::{SimDuration, SimRng, SimTime};

use super::sketch::{mix, FrequencyConfig, TinyLfu};
use crate::admission::AdmissionPolicy;
use crate::entry::{CacheEntry, EntryId, EntrySource};
use crate::snapshot::CacheSnapshot;
use crate::stats::CacheStats;
use crate::store::{ApproxCache, CacheConfig, FrequencyGate, InsertOutcome, LookupResult};
use crate::weight::Weighter;

/// Protocol constant seeding the Rademacher routing projection. Fixed —
/// not derived from the sim seed — because two devices must route
/// identical keys identically or peer-shared entries would land in the
/// wrong shard.
const ROUTE_SEED: u64 = 0x1cdc_5202_1a6b_cafe;

/// Width of a routing cell along the projection. A protocol constant
/// like [`ROUTE_SEED`]: wider cells put more of the key space in one
/// shard (fewer boundary misses, less spread).
const ROUTE_CELL: f64 = 4.0;

/// The key's routing signature: project onto a fixed ±1 direction,
/// quantize the 1-D projection into cells of width [`ROUTE_CELL`], hash
/// the cell index. Near keys (within a cell) share a signature; the
/// signature picks both the home shard and the TinyLFU frequency key.
///
/// A full per-dimension grid hash would break locality — two keys a
/// hair's breadth apart almost surely differ in *some* dimension's cell
/// at 64 dimensions — while a 1-D projection only splits neighbours that
/// straddle one cell boundary.
pub fn route_signature(key: &FeatureVector) -> u64 {
    let mut dot = 0.0f64;
    for (i, &c) in key.as_slice().iter().enumerate() {
        if mix(ROUTE_SEED ^ i as u64) & 1 == 0 {
            dot += c as f64;
        } else {
            dot -= c as f64;
        }
    }
    let bucket = (dot / ROUTE_CELL).floor() as i64;
    mix(bucket as u64)
}

/// Configuration of a [`SharedCache`]: the per-store cache config plus
/// the concurrency and admission knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConcurrentConfig {
    /// The logical cache configuration (total capacity, hit test,
    /// eviction, admission, index kind — each shard gets its own index).
    pub cache: CacheConfig,
    /// Number of shards. 1 (the default) reproduces the single-threaded
    /// store exactly.
    pub shards: usize,
    /// TinyLFU frequency admission; `None` (the default) admits at the
    /// eviction point unconditionally, like the plain store.
    pub frequency: Option<FrequencyConfig>,
    /// Seed for the frequency sketches (per-shard seeds split off it by
    /// shard index); read only when `frequency` is set.
    pub sketch_seed: u64,
}

impl ConcurrentConfig {
    /// Single-shard, no-frequency defaults around `cache` — the
    /// configuration that is operation-for-operation identical to
    /// `ApproxCache::new(cache)`.
    pub fn new(cache: CacheConfig) -> ConcurrentConfig {
        ConcurrentConfig {
            cache,
            shards: 1,
            frequency: None,
            sketch_seed: 0,
        }
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> ConcurrentConfig {
        self.shards = shards;
        self.validate();
        self
    }

    /// Enables TinyLFU frequency admission.
    pub fn with_frequency(mut self, frequency: FrequencyConfig) -> ConcurrentConfig {
        self.frequency = Some(frequency);
        self.validate();
        self
    }

    /// Sets the sketch seed.
    pub fn with_sketch_seed(mut self, seed: u64) -> ConcurrentConfig {
        self.sketch_seed = seed;
        self
    }

    /// Validates all knobs.
    ///
    /// # Panics
    ///
    /// Panics if the shard count is zero or a nested config is invalid.
    pub fn validate(&self) {
        self.cache.validate();
        assert!(self.shards > 0, "ConcurrentConfig: shards must be positive");
        if let Some(frequency) = &self.frequency {
            frequency.validate();
        }
    }
}

/// One shard: a plain store plus its admission filter, together behind
/// one lock.
#[derive(Debug)]
struct Shard<L> {
    cache: ApproxCache<L>,
    lfu: Option<TinyLfu>,
}

/// What every clone of a [`SharedCache`] handle points at.
struct Core<L> {
    config: ConcurrentConfig,
    shards: Vec<Mutex<Shard<L>>>,
    /// Bumped whenever cached *contents* (entries or the hit threshold)
    /// may have changed — inserts, clears, non-empty expiry sweeps,
    /// threshold updates. Read-side operations never bump it, so callers
    /// holding a derived view (e.g. a fleet round's frozen peer view)
    /// can cheaply detect staleness.
    version: AtomicU64,
}

/// The concurrent approximate cache: a cloneable handle to `S`
/// independently locked shards, keys routed by [`route_signature`].
/// Clones share state — a device keeps one and its peers query through
/// another. All cross-shard reads (stats, length, snapshots) visit
/// shards in ascending index order, so merged results are deterministic.
/// See the [module docs](super) for the full contract.
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
            .field("shards", &self.core.shards.len())
            .field("capacity", &self.core.config.cache.capacity)
            .field("frequency", &self.core.config.frequency.is_some())
            .finish()
    }
}

impl<L: Copy + Eq + Hash + fmt::Debug> SharedCache<L> {
    /// A single-shard store with no frequency admission —
    /// operation-for-operation identical to the plain
    /// [`ApproxCache`] it shares out.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(config: CacheConfig) -> SharedCache<L> {
        SharedCache::with_concurrency(ConcurrentConfig::new(config))
    }

    /// A store with explicit sharding/admission configuration. Total
    /// capacity splits evenly across shards (rounded up, so `S > 1` can
    /// hold slightly more than the configured total); shard `i` mints
    /// entry ids `i, i+S, i+2S, …` so ids stay globally unique — and
    /// `id % S` names an entry's shard.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn with_concurrency(config: ConcurrentConfig) -> SharedCache<L> {
        config.validate();
        let shard_count = config.shards;
        let per_shard = config.cache.capacity.div_ceil(shard_count);
        let sketch_root = SimRng::seed(config.sketch_seed);
        let shards = (0..shard_count)
            .map(|i| {
                let mut shard_config = config.cache.clone();
                shard_config.capacity = per_shard;
                let mut cache = ApproxCache::new(shard_config);
                cache.set_id_namespace(i as u64, shard_count as u64);
                let lfu = config.frequency.map(|f| {
                    TinyLfu::new(
                        f,
                        sketch_root
                            .split_index("shard-sketch", i as u64)
                            .seed_value(),
                    )
                });
                Mutex::new(Shard { cache, lfu })
            })
            .collect();
        SharedCache {
            core: Arc::new(Core {
                config,
                shards,
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

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    fn shard(&self, idx: usize) -> &Mutex<Shard<L>> {
        // xtask-allow(panics): idx is always `sig % shards.len()` or an
        // id residue, in range by construction.
        &self.core.shards[idx]
    }

    /// The key's home shard index and routing signature.
    fn home_of(&self, key: &FeatureVector) -> (usize, u64) {
        let sig = route_signature(key);
        ((sig % self.core.shards.len() as u64) as usize, sig)
    }

    /// Looks up `key` in its home shard only — the point of sharding:
    /// the probed index holds ~`n/S` entries. A neighbourhood straddling
    /// a routing-cell boundary can miss entries cached in the adjacent
    /// shard; that locality loss is the documented price of per-shard
    /// indexes (zero at `S = 1`).
    pub fn lookup(&self, key: &FeatureVector, now: SimTime) -> LookupResult<L> {
        let (idx, sig) = self.home_of(key);
        let mut shard = self.shard(idx).lock();
        if let Some(lfu) = &mut shard.lfu {
            lfu.note(sig);
        }
        shard.cache.lookup(key, now)
    }

    /// Inserts a result into the key's home shard. With frequency
    /// admission enabled, the pending access ring is flushed into the
    /// sketch first and the eviction point applies the TinyLFU gate.
    pub fn insert(
        &self,
        key: FeatureVector,
        label: L,
        confidence: f64,
        source: EntrySource,
        now: SimTime,
    ) -> InsertOutcome {
        let (idx, sig) = self.home_of(&key);
        let outcome = {
            let mut guard = self.shard(idx).lock();
            let Shard { cache, lfu } = &mut *guard;
            match lfu {
                Some(lfu) => {
                    lfu.note(sig);
                    lfu.flush();
                    let lfu = &*lfu;
                    let estimate = |k: &FeatureVector| lfu.estimate(route_signature(k));
                    let gate = FrequencyGate {
                        candidate: lfu.estimate(sig),
                        estimate: &estimate,
                    };
                    cache.insert_gated(key, label, confidence, source, now, Some(gate))
                }
                None => cache.insert(key, label, confidence, source, now),
            }
        };
        if outcome.entry().is_some() {
            self.bump_version();
        }
        outcome
    }

    /// Merged operation counters, accumulated in ascending shard order.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.core.shards {
            let guard = shard.lock();
            total.merge(guard.cache.stats());
        }
        total
    }

    /// Total number of cached entries.
    pub fn len(&self) -> usize {
        let mut total = 0;
        for shard in &self.core.shards {
            let guard = shard.lock();
            total += guard.cache.len();
        }
        total
    }

    /// True if nothing is cached anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry from every shard (statistics retained).
    pub fn clear(&self) {
        for shard in &self.core.shards {
            let mut guard = shard.lock();
            guard.cache.clear();
        }
        self.bump_version();
    }

    /// Sweeps every shard for entries older than `max_age`, returning
    /// the total dropped.
    pub fn expire_older_than(&self, now: SimTime, max_age: SimDuration) -> usize {
        let mut total = 0;
        for shard in &self.core.shards {
            let mut guard = shard.lock();
            total += guard.cache.expire_older_than(now, max_age);
        }
        if total > 0 {
            self.bump_version();
        }
        total
    }

    /// The current A-kNN distance threshold (uniform across shards; read
    /// from shard 0).
    pub fn distance_threshold(&self) -> f64 {
        let guard = self.shard(0).lock();
        guard.cache.distance_threshold()
    }

    /// Sets the A-kNN distance threshold on every shard.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive and finite.
    pub fn set_distance_threshold(&self, threshold: f64) {
        for shard in &self.core.shards {
            let mut guard = shard.lock();
            guard.cache.set_distance_threshold(threshold);
        }
        self.bump_version();
    }

    /// Switches cost-aware eviction on or off on every shard.
    pub fn set_weighter(&self, weighter: Option<Arc<dyn Weighter<L>>>) {
        for shard in &self.core.shards {
            let mut guard = shard.lock();
            guard.cache.set_weighter(weighter.clone());
        }
    }

    /// The nearest cached entry to `key` across *all* shards (read-only
    /// probe: no statistics, no recency update). Ties break to the
    /// lowest shard index.
    pub fn peek_nearest(&self, key: &FeatureVector) -> Option<(f64, L)> {
        let mut best: Option<(f64, L)> = None;
        for shard in &self.core.shards {
            let guard = shard.lock();
            if let Some((distance, label)) = guard.cache.peek_nearest(key) {
                if best.is_none_or(|(b, _)| distance < b) {
                    best = Some((distance, label));
                }
            }
        }
        best
    }

    /// The confidence of the entry with `id`, if still cached. The id's
    /// residue names its shard, so only one shard is locked.
    pub fn entry_confidence(&self, id: EntryId) -> Option<f64> {
        let idx = (id.0 % self.core.shards.len() as u64) as usize;
        let guard = self.shard(idx).lock();
        guard.cache.entry(id).map(|e| e.confidence)
    }

    /// The `limit` most recently used entries across all shards, newest
    /// first (cloned: the per-shard locks are released before returning).
    pub fn hottest(&self, limit: usize) -> Vec<CacheEntry<L>> {
        let mut all: Vec<CacheEntry<L>> = Vec::new();
        for shard in &self.core.shards {
            let guard = shard.lock();
            all.extend(guard.cache.hottest(limit).into_iter().cloned());
        }
        all.sort_by_key(|e| Reverse((e.last_used, e.uses, e.id)));
        all.truncate(limit);
        all
    }

    /// A snapshot of every shard's entries, sorted by entry id — a
    /// deterministic merged view for persistence.
    pub fn snapshot(&self, now: SimTime) -> CacheSnapshot<L> {
        let mut entries: Vec<CacheEntry<L>> = Vec::new();
        for shard in &self.core.shards {
            let guard = shard.lock();
            entries.extend(guard.cache.iter().cloned());
        }
        entries.sort_by_key(|e| e.id);
        CacheSnapshot {
            taken_at: now,
            entries,
        }
    }

    /// [`snapshot`](Self::snapshot) normalized for cross-run comparison:
    /// entry ids are zeroed (they encode per-shard arrival order, which
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

    /// Restores a snapshot through the normal insert path (routing,
    /// admission, eviction all apply), hottest entries first. Returns
    /// how many entries were inserted or absorbed as refreshes.
    pub fn restore(&self, snapshot: &CacheSnapshot<L>, now: SimTime) -> usize {
        let mut ordered: Vec<&CacheEntry<L>> = snapshot.entries.iter().collect();
        ordered.sort_by_key(|e| Reverse((e.last_used, e.uses, e.id)));
        let mut restored = 0;
        for entry in ordered.into_iter().take(self.core.config.cache.capacity) {
            let outcome = self.insert(
                entry.key.clone(),
                entry.label,
                entry.confidence,
                entry.source,
                now,
            );
            if outcome.entry().is_some() {
                restored += 1;
            }
        }
        restored
    }

    /// A self-contained copy of this cache's current contents, built
    /// for peer queries against a fixed point in time (the fleet engine
    /// rebuilds one per device per round, gated on
    /// [`contents_version`](Self::contents_version)).
    ///
    /// The view keeps the owner's shard count, index configuration and
    /// distance threshold, but admits unconditionally with headroom
    /// capacity so every owned entry survives the copy, and drops
    /// frequency admission — lookups against the view answer like the
    /// owner while their recency/statistics side-effects land on the
    /// discarded view instead of the owner.
    pub fn frozen_view(&self, now: SimTime) -> SharedCache<L> {
        let snapshot = self.snapshot(now);
        let owner = &self.core.config;
        let mut cache = owner.cache.clone();
        // Per-shard capacity is `total / shards` rounded up; giving each
        // shard the full entry count guarantees no view-side eviction no
        // matter how skewed the routing is.
        cache.capacity = snapshot.len().max(1) * owner.shards;
        cache.admission = AdmissionPolicy::admit_all();
        let view = SharedCache::with_concurrency(ConcurrentConfig {
            cache,
            shards: owner.shards,
            frequency: None,
            sketch_seed: owner.sketch_seed,
        });
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

    #[test]
    fn routing_is_deterministic_and_locality_preserving() {
        let key = fv(3.2, -1.5);
        assert_eq!(route_signature(&key), route_signature(&key));
        let near = fv(3.2001, -1.5001);
        assert_eq!(
            route_signature(&key),
            route_signature(&near),
            "keys a hair apart share a routing cell (away from boundaries)"
        );
        let far = fv(300.0, -150.0);
        assert_ne!(route_signature(&key), route_signature(&far));
    }

    #[test]
    fn far_keys_spread_across_shards() {
        let cache: SharedCache<u32> =
            SharedCache::with_concurrency(ConcurrentConfig::new(base_config(256)).with_shards(4));
        for i in 0..64 {
            cache.insert(
                fv(i as f32 * 25.0, -(i as f32) * 13.0),
                i,
                0.9,
                EntrySource::LocalInference,
                SimTime::from_millis(i as u64),
            );
        }
        // Ids encode their shard as `id % 4`; a healthy routing function
        // puts 64 well-spread keys in more than one shard.
        let snap = cache.snapshot(SimTime::from_secs(1));
        let shards_used: std::collections::BTreeSet<u64> =
            snap.entries.iter().map(|e| e.id.0 % 4).collect();
        assert!(shards_used.len() > 1, "all keys routed to one shard");
        assert_eq!(cache.len(), 64);
        assert_eq!(cache.stats().inserts, 64);
    }

    #[test]
    fn single_shard_mints_dense_ids() {
        let cache: SharedCache<u32> = SharedCache::new(base_config(16));
        let mut ids = Vec::new();
        for i in 0..4 {
            let out = cache.insert(
                fv(i as f32 * 50.0, 0.0),
                i,
                0.9,
                EntrySource::LocalInference,
                SimTime::from_millis(i as u64),
            );
            ids.push(out.entry().unwrap().0);
        }
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(cache.shard_count(), 1);
    }

    #[test]
    fn lookup_hits_in_home_shard() {
        let cache: SharedCache<u32> =
            SharedCache::with_concurrency(ConcurrentConfig::new(base_config(64)).with_shards(4));
        let key = fv(1.0, 2.0);
        cache.insert(
            key.clone(),
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
    fn frequency_admission_protects_hot_working_set() {
        // Capacity-1 shardless cache with TinyLFU: a hot key's entry
        // survives a burst of cold keys because each cold candidate's
        // frequency estimate loses to the victim's.
        let cache: SharedCache<u32> = SharedCache::with_concurrency(
            ConcurrentConfig::new(base_config(1))
                .with_frequency(FrequencyConfig::default())
                .with_sketch_seed(7),
        );
        let hot = fv(0.0, 0.0);
        cache.insert(
            hot.clone(),
            1,
            0.9,
            EntrySource::LocalInference,
            SimTime::ZERO,
        );
        for i in 0..10 {
            let _ = cache.lookup(&hot, SimTime::from_millis(i));
        }
        for i in 0..5u32 {
            let cold = fv(100.0 + i as f32 * 40.0, 0.0);
            let out = cache.insert(
                cold,
                10 + i,
                0.9,
                EntrySource::LocalInference,
                SimTime::from_millis(100 + i as u64),
            );
            assert_eq!(out, InsertOutcome::Rejected, "cold burst key {i}");
        }
        let stats = cache.stats();
        assert_eq!(stats.sketch_rejected, 5);
        assert_eq!(stats.evictions, 0);
        assert!(
            cache.lookup(&hot, SimTime::from_secs(1)).is_hit(),
            "hot entry survived the burst"
        );
    }

    #[test]
    fn snapshot_restore_round_trip_across_shard_counts() {
        let source: SharedCache<u32> =
            SharedCache::with_concurrency(ConcurrentConfig::new(base_config(64)).with_shards(4));
        for i in 0..12 {
            source.insert(
                fv(i as f32 * 30.0, 5.0),
                i,
                0.9,
                EntrySource::LocalInference,
                SimTime::from_millis(i as u64),
            );
        }
        let snap = source.snapshot(SimTime::from_secs(1));
        assert_eq!(snap.len(), 12);
        // Snapshot is sorted by id (deterministic merged view).
        let ids: Vec<u64> = snap.entries.iter().map(|e| e.id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);

        let dest: SharedCache<u32> = SharedCache::new(base_config(64));
        let restored = dest.restore(&snap, SimTime::from_secs(2));
        assert_eq!(restored, 12);
        for i in 0..12u32 {
            let hit = dest.lookup(&fv(i as f32 * 30.0, 5.0), SimTime::from_secs(3));
            assert_eq!(hit.label(), Some(&i), "key {i}");
        }
    }

    #[test]
    fn canonical_snapshot_is_interleaving_independent() {
        // Same contents inserted in different orders (ids differ) yield
        // identical canonical snapshots.
        let make = |order: &[u32]| {
            let cache: SharedCache<u32> = SharedCache::with_concurrency(
                ConcurrentConfig::new(base_config(64)).with_shards(4),
            );
            for &i in order {
                cache.insert(
                    fv(i as f32 * 30.0, 5.0),
                    i,
                    0.9,
                    EntrySource::LocalInference,
                    SimTime::from_millis(100),
                );
            }
            cache.canonical_snapshot(SimTime::from_secs(1))
        };
        let forward = make(&[0, 1, 2, 3, 4, 5]);
        let reverse = make(&[5, 4, 3, 2, 1, 0]);
        assert_eq!(forward, reverse);
    }

    #[test]
    fn threshold_and_weighter_apply_to_every_shard() {
        let cache: SharedCache<u32> =
            SharedCache::with_concurrency(ConcurrentConfig::new(base_config(64)).with_shards(4));
        cache.set_distance_threshold(2.5);
        assert!((cache.distance_threshold() - 2.5).abs() < 1e-12);
        cache.set_weighter(Some(Arc::new(crate::weight::RecomputeCostWeighter::new(
            SimDuration::from_millis(100),
        ))));
        cache.set_weighter(None);
        assert!(cache.is_empty());
        let debug = format!("{cache:?}");
        assert!(debug.contains("SharedCache"));
    }

    #[test]
    fn expire_and_clear_cover_all_shards() {
        let cache: SharedCache<u32> =
            SharedCache::with_concurrency(ConcurrentConfig::new(base_config(64)).with_shards(4));
        for i in 0..8 {
            cache.insert(
                fv(i as f32 * 30.0, 5.0),
                i,
                0.9,
                EntrySource::LocalInference,
                SimTime::from_millis(i as u64),
            );
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
        let shared: SharedCache<u32> =
            SharedCache::with_concurrency(ConcurrentConfig::new(base_config(1024)).with_shards(4));
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

    #[test]
    #[should_panic(expected = "shards must be positive")]
    fn zero_shards_rejected() {
        ConcurrentConfig::new(base_config(4)).with_shards(0);
    }
}
