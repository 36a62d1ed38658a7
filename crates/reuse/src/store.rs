//! The approximate cache store.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use serde::{Deserialize, Serialize};

pub use ann::IndexConfig;
use ann::{AknnConfig, AknnOutcome, DecideScratch, MissReason, Neighbor, NnIndex};
use features::FeatureVector;
use simcore::SimTime;

use crate::admission::AdmissionPolicy;
use crate::entry::{CacheEntry, EntryId, EntrySource};
use crate::evict::EvictionPolicy;
use crate::stats::CacheStats;
use crate::victim::{EntryMeta, VictimChoice, VictimIndex};

/// Configuration of an [`ApproxCache`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Maximum number of entries.
    pub capacity: usize,
    /// The hit test.
    pub aknn: AknnConfig,
    /// Victim selection at capacity.
    pub eviction: EvictionPolicy,
    /// What may enter the cache.
    pub admission: AdmissionPolicy,
    /// Backing index structure.
    pub index: IndexConfig,
}

impl CacheConfig {
    /// A config with the given capacity and defaults everywhere else
    /// (A-kNN defaults, LRU, default admission, linear index).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> CacheConfig {
        let config = CacheConfig {
            capacity,
            aknn: AknnConfig::default(),
            eviction: EvictionPolicy::Lru,
            admission: AdmissionPolicy::default(),
            index: IndexConfig::Linear,
        };
        config.validate();
        config
    }

    /// Replaces the hit-test parameters.
    pub fn with_aknn(mut self, aknn: AknnConfig) -> CacheConfig {
        self.aknn = aknn;
        self.validate();
        self
    }

    /// Replaces the eviction policy.
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> CacheConfig {
        self.eviction = eviction;
        self
    }

    /// Replaces the admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> CacheConfig {
        self.admission = admission;
        self.validate();
        self
    }

    /// Replaces the index structure.
    pub fn with_index(mut self, index: IndexConfig) -> CacheConfig {
        self.index = index;
        self
    }

    /// Validates all nested policies.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero or a nested policy is invalid.
    pub fn validate(&self) {
        assert!(self.capacity > 0, "CacheConfig: capacity must be positive");
        self.aknn.validate();
        self.admission.validate();
    }
}

/// The outcome of a lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LookupResult<L> {
    /// The cache answered.
    Hit {
        /// The reused label.
        label: L,
        /// The entry that served the hit (nearest dominant-label entry).
        entry: EntryId,
        /// Distance of the overall nearest neighbour.
        nearest_distance: f64,
        /// Votes for the dominant label.
        support: usize,
        /// Dominant label's vote fraction.
        homogeneity: f64,
    },
    /// The cache could not answer.
    Miss(MissReason),
}

impl<L> LookupResult<L> {
    /// True for hits.
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupResult::Hit { .. })
    }

    /// The label, if this is a hit.
    pub fn label(&self) -> Option<&L> {
        match self {
            LookupResult::Hit { label, .. } => Some(label),
            LookupResult::Miss(_) => None,
        }
    }
}

/// The outcome of an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new entry was created.
    Inserted(EntryId),
    /// An existing near-duplicate entry absorbed the observation.
    Refreshed(EntryId),
    /// Admission control declined the result.
    Rejected,
}

impl InsertOutcome {
    /// The affected entry, unless rejected.
    pub fn entry(&self) -> Option<EntryId> {
        match self {
            InsertOutcome::Inserted(id) | InsertOutcome::Refreshed(id) => Some(*id),
            InsertOutcome::Rejected => None,
        }
    }
}

/// Reusable per-lookup buffers. Lookups run once per frame; after the
/// buffers reach their working size (bounded by the hit test's `k`), the
/// whole lookup path is allocation-free.
#[derive(Debug)]
struct LookupScratch<L> {
    /// Raw index results, filled by `nearest_within_into`.
    neighbors: Vec<Neighbor>,
    /// Neighbours joined with their entry's label: `(distance, label, id)`.
    labeled: Vec<(f64, L, u64)>,
    /// The hit test's own buffers.
    decide: DecideScratch<L>,
}

impl<L> Default for LookupScratch<L> {
    fn default() -> Self {
        LookupScratch {
            neighbors: Vec::new(),
            labeled: Vec::new(),
            decide: DecideScratch::new(),
        }
    }
}

/// A bounded in-memory map from approximate feature keys to recognition
/// labels.
///
/// `L` is the label type (the reproduction uses `scene::ClassId`; anything
/// `Copy + Eq + Hash` works).
///
/// See the [crate docs](crate) for a usage example.
pub struct ApproxCache<L> {
    config: CacheConfig,
    index: Option<Box<dyn NnIndex>>,
    entries: HashMap<u64, CacheEntry<L>>,
    /// Incremental eviction metadata mirroring `entries` — victim
    /// selection is O(log n) instead of a full scan (see [`VictimIndex`]).
    victims: VictimIndex,
    next_id: u64,
    stats: CacheStats,
    scratch: LookupScratch<L>,
}

impl<L> fmt::Debug for ApproxCache<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ApproxCache")
            .field("len", &self.entries.len())
            .field("capacity", &self.config.capacity)
            .field("index", &self.config.index.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<L: Copy + Eq + Hash + fmt::Debug> ApproxCache<L> {
    /// Creates an empty cache. The index dimension is fixed by the first
    /// inserted key.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(config: CacheConfig) -> ApproxCache<L> {
        config.validate();
        let victims = VictimIndex::new(config.eviction);
        ApproxCache {
            config,
            index: None,
            entries: HashMap::new(),
            victims,
            next_id: 0,
            stats: CacheStats::default(),
            scratch: LookupScratch::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// Operation counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The entry with `id`, if it is still cached.
    pub fn entry(&self, id: EntryId) -> Option<&CacheEntry<L>> {
        self.entries.get(&id.0)
    }

    /// Iterates over all cached entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &CacheEntry<L>> {
        // xtask-allow(determinism): callers are documented to treat the
        // order as arbitrary; every aggregation over it is order-free.
        self.entries.values()
    }

    /// The nearest cached entry to `key` with its distance, regardless of
    /// the hit test — a read-only probe (no statistics, no recency
    /// update) used by adaptive controllers to mine near-miss evidence.
    pub fn peek_nearest(&self, key: &FeatureVector) -> Option<(f64, L)> {
        let index = self.index.as_ref()?;
        let nearest = index.nearest(key, 1).into_iter().next()?;
        let entry = self.entries.get(&nearest.id)?;
        Some((nearest.distance, entry.label))
    }

    /// Looks up `key` at time `now`, updating recency metadata on a hit.
    ///
    /// # Panics
    ///
    /// Panics if `key`'s dimension differs from previously inserted keys.
    pub fn lookup(&mut self, key: &FeatureVector, now: SimTime) -> LookupResult<L> {
        self.stats.record_lookup();
        let Some(index) = &self.index else {
            self.stats.record_miss(MissReason::EmptyIndex);
            self.stats.debug_assert_balanced();
            return LookupResult::Miss(MissReason::EmptyIndex);
        };
        let LookupScratch {
            neighbors,
            labeled,
            decide,
        } = &mut self.scratch;
        // The vote discards every neighbour beyond the threshold, so the
        // index is asked only for those within it (the threshold as it
        // stands now — adaptive controllers move it between lookups). The
        // in-threshold members of the top-k are the top-k of the
        // in-threshold set: the verdict is the unbounded one, except that
        // "nothing within the threshold" arrives as an empty answer.
        index.nearest_within_into(
            key,
            self.config.aknn.k,
            self.config.aknn.distance_threshold,
            neighbors,
        );
        if neighbors.is_empty() && !index.is_empty() {
            self.stats.record_miss(MissReason::TooFar);
            self.stats.debug_assert_balanced();
            return LookupResult::Miss(MissReason::TooFar);
        }
        // Neighbours without a backing entry (an index/store desync) are
        // dropped from the vote instead of crashing the device. One pass
        // builds the labelled list that both the vote and the
        // served-entry choice read from.
        labeled.clear();
        for n in neighbors.iter() {
            if let Some(entry) = self.entries.get(&n.id) {
                labeled.push((n.distance, entry.label, n.id));
            }
        }
        match ann::aknn::decide_in(
            labeled.iter().map(|&(d, label, _)| (d, label)),
            &self.config.aknn,
            decide,
        ) {
            AknnOutcome::Hit {
                label,
                nearest_distance,
                support,
                homogeneity,
            } => {
                // Touch the nearest entry carrying the winning label. The
                // winner came from `labeled`, so a carrier exists; degrade
                // to a miss if that ever stops holding.
                let served = labeled
                    .iter()
                    .find(|&&(_, candidate, _)| candidate == label)
                    .map(|&(_, _, id)| id);
                let Some(served) = served else {
                    self.stats.record_miss(MissReason::InsufficientSupport);
                    self.stats.debug_assert_balanced();
                    return LookupResult::Miss(MissReason::InsufficientSupport);
                };
                if let Some(entry) = self.entries.get_mut(&served) {
                    let before = EntryMeta::of(entry);
                    entry.last_used = now;
                    entry.uses += 1;
                    self.victims.on_update(before, EntryMeta::of(entry));
                }
                self.stats.record_hit();
                LookupResult::Hit {
                    label,
                    entry: EntryId(served),
                    nearest_distance,
                    support,
                    homogeneity,
                }
            }
            AknnOutcome::Miss(reason) => {
                self.stats.record_miss(reason);
                self.stats.debug_assert_balanced();
                LookupResult::Miss(reason)
            }
        }
    }

    /// Inserts a result, subject to admission control and capacity.
    ///
    /// # Panics
    ///
    /// Panics if `key`'s dimension differs from previously inserted keys,
    /// or `confidence` is not finite.
    pub fn insert(
        &mut self,
        key: FeatureVector,
        label: L,
        confidence: f64,
        source: EntrySource,
        now: SimTime,
    ) -> InsertOutcome {
        assert!(confidence.is_finite(), "insert: confidence must be finite");
        let from_peer = source == EntrySource::Peer;
        if !self.config.admission.admits(confidence, from_peer) {
            self.stats.record_rejected();
            return InsertOutcome::Rejected;
        }
        let index = self
            .index
            .get_or_insert_with(|| ann::build(key.dim(), &self.config.index));

        // Near-duplicate refresh.
        if self.config.admission.dedup_distance > 0.0 {
            // Unbounded on purpose: bounded by `dedup_distance` the
            // write path runs about twice as fast, faster than the
            // benchmark's traced `edge-ingest` client can record yet
            // (ROADMAP item 1) — see DESIGN.md "Performance model".
            index.nearest_within_into(&key, 1, f64::INFINITY, &mut self.scratch.neighbors);
            if let Some(nearest) = self.scratch.neighbors.first() {
                if nearest.distance <= self.config.admission.dedup_distance {
                    if let Some(entry) = self.entries.get_mut(&nearest.id) {
                        if entry.label == label {
                            let before = EntryMeta::of(entry);
                            entry.last_used = now;
                            entry.uses += 1;
                            entry.confidence = entry.confidence.max(confidence);
                            self.victims.on_update(before, EntryMeta::of(entry));
                            self.stats.record_refresh();
                            return InsertOutcome::Refreshed(EntryId(nearest.id));
                        }
                    }
                }
            }
        }

        // Capacity: evict before inserting. The victim choice is a pure
        // minimum with an id tie-break, so the map's iteration order
        // cannot influence it.
        if self.entries.len() >= self.config.capacity {
            if let Some(victim) = self.peek_victim(now) {
                self.remove_internal(victim);
                self.stats.record_eviction();
            }
        }

        let id = EntryId(self.next_id);
        self.next_id += 1;
        self.index
            .get_or_insert_with(|| ann::build(key.dim(), &self.config.index))
            .insert(id.0, key.clone());
        let entry = CacheEntry {
            id,
            key,
            label,
            confidence,
            inserted_at: now,
            last_used: now,
            uses: 0,
            source,
        };
        self.victims.on_insert(EntryMeta::of(&entry));
        self.entries.insert(id.0, entry);
        self.stats.record_insert();
        InsertOutcome::Inserted(id)
    }

    /// The entry the next capacity eviction would drop at `now`, without
    /// dropping it. O(log n) for Lru/Lfu/Ttl; the Utility policy's score
    /// depends on `now`, so it keeps the full scan.
    pub fn peek_victim(&self, now: SimTime) -> Option<EntryId> {
        match self.victims.victim(now) {
            VictimChoice::Found(id) => Some(id),
            VictimChoice::Empty => None,
            // xtask-allow(determinism): order-free minimum with an id
            // tie-break; the map's iteration order cannot influence it.
            VictimChoice::ScanRequired => self
                .config
                .eviction
                .choose_victim(self.entries.values(), now),
        }
    }

    /// Removes an entry, returning whether it existed.
    pub fn remove(&mut self, id: EntryId) -> bool {
        let removed = self.remove_internal(id);
        if removed {
            self.stats.record_removal();
        }
        removed
    }

    fn remove_internal(&mut self, id: EntryId) -> bool {
        match self.entries.remove(&id.0) {
            Some(entry) => {
                self.victims.on_remove(EntryMeta::of(&entry));
                if let Some(index) = self.index.as_mut() {
                    index.remove(id.0);
                }
                true
            }
            None => false,
        }
    }

    /// Removes every entry (statistics are retained).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.victims.clear();
        if let Some(index) = &mut self.index {
            index.clear();
        }
    }

    /// The current A-kNN distance threshold.
    pub fn distance_threshold(&self) -> f64 {
        self.config.aknn.distance_threshold
    }

    /// Replaces the A-kNN distance threshold at runtime — the hook used
    /// by adaptive threshold controllers.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive and finite.
    pub fn set_distance_threshold(&mut self, threshold: f64) {
        assert!(
            threshold > 0.0 && threshold.is_finite(),
            "set_distance_threshold: threshold must be positive and finite, got {threshold}"
        );
        self.config.aknn.distance_threshold = threshold;
    }

    /// Removes every entry older than `max_age` at `now`, returning how
    /// many were dropped. Deployments in drifting environments run this
    /// periodically so stale keys stop occupying capacity (see the
    /// lighting-drift experiment).
    pub fn expire_older_than(&mut self, now: SimTime, max_age: simcore::SimDuration) -> usize {
        // xtask-allow(determinism): set-semantics filter; removal order
        // does not affect the surviving entries or the count.
        let victims: Vec<EntryId> = self
            .entries
            .values()
            .filter(|e| e.age(now) > max_age)
            .map(|e| e.id)
            .collect();
        for id in &victims {
            self.remove_internal(*id);
        }
        self.stats.record_expirations(victims.len() as u64);
        victims.len()
    }

    /// The entries most recently used, up to `limit`, newest first — what
    /// a device offers when a peer asks it to share its hot set.
    pub fn hottest(&self, limit: usize) -> Vec<&CacheEntry<L>> {
        // xtask-allow(determinism): sorted by a total key before use.
        let mut entries: Vec<&CacheEntry<L>> = self.entries.values().collect();
        entries.sort_by_key(|e| std::cmp::Reverse((e.last_used, e.uses, e.id)));
        entries.truncate(limit);
        entries
    }
}

#[cfg(test)]
// Tests compare exactly-constructed floats; exact equality is intentional.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn fv(components: &[f32]) -> FeatureVector {
        FeatureVector::from_vec(components.to_vec()).unwrap()
    }

    fn cache(capacity: usize) -> ApproxCache<u32> {
        ApproxCache::new(
            CacheConfig::new(capacity)
                .with_aknn(AknnConfig {
                    k: 3,
                    distance_threshold: 1.0,
                    homogeneity: 0.6,
                    min_support: 1,
                })
                .with_admission(AdmissionPolicy {
                    min_confidence: 0.3,
                    min_peer_confidence: 0.5,
                    dedup_distance: 0.1,
                }),
        )
    }

    fn insert_at(c: &mut ApproxCache<u32>, x: f32, label: u32, ms: u64) -> InsertOutcome {
        c.insert(
            fv(&[x, 0.0]),
            label,
            0.9,
            EntrySource::LocalInference,
            SimTime::from_millis(ms),
        )
    }

    #[test]
    fn empty_cache_misses() {
        let mut c = cache(4);
        let result = c.lookup(&fv(&[0.0, 0.0]), SimTime::ZERO);
        assert_eq!(result, LookupResult::Miss(MissReason::EmptyIndex));
        assert_eq!(c.stats().miss_empty, 1);
        assert!(!result.is_hit());
        assert_eq!(result.label(), None);
    }

    #[test]
    fn near_key_hits_far_key_misses() {
        let mut c = cache(4);
        insert_at(&mut c, 0.0, 7, 0);
        let hit = c.lookup(&fv(&[0.5, 0.0]), SimTime::from_millis(10));
        assert!(hit.is_hit());
        assert_eq!(hit.label(), Some(&7));
        let miss = c.lookup(&fv(&[5.0, 0.0]), SimTime::from_millis(20));
        assert_eq!(miss, LookupResult::Miss(MissReason::TooFar));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().miss_too_far, 1);
    }

    #[test]
    fn hit_touches_serving_entry() {
        let mut c = cache(4);
        let id = match insert_at(&mut c, 0.0, 7, 0) {
            InsertOutcome::Inserted(id) => id,
            other => panic!("{other:?}"),
        };
        c.lookup(&fv(&[0.2, 0.0]), SimTime::from_millis(500));
        let entry = c.entry(id).unwrap();
        assert_eq!(entry.uses, 1);
        assert_eq!(entry.last_used, SimTime::from_millis(500));
    }

    #[test]
    fn heterogeneous_neighbourhood_misses() {
        let mut c = cache(4);
        insert_at(&mut c, 0.0, 1, 0);
        insert_at(&mut c, 0.4, 2, 0);
        let result = c.lookup(&fv(&[0.2, 0.0]), SimTime::from_millis(10));
        assert_eq!(result, LookupResult::Miss(MissReason::NotHomogeneous));
    }

    #[test]
    fn admission_rejects_low_confidence() {
        let mut c = cache(4);
        let out = c.insert(
            fv(&[0.0, 0.0]),
            1,
            0.1,
            EntrySource::LocalInference,
            SimTime::ZERO,
        );
        assert_eq!(out, InsertOutcome::Rejected);
        assert_eq!(out.entry(), None);
        assert!(c.is_empty());
        // Peer results need 0.5.
        let out = c.insert(fv(&[0.0, 0.0]), 1, 0.4, EntrySource::Peer, SimTime::ZERO);
        assert_eq!(out, InsertOutcome::Rejected);
        let out = c.insert(fv(&[0.0, 0.0]), 1, 0.6, EntrySource::Peer, SimTime::ZERO);
        assert!(matches!(out, InsertOutcome::Inserted(_)));
        assert_eq!(c.stats().rejected, 2);
    }

    #[test]
    fn near_duplicate_same_label_refreshes() {
        let mut c = cache(4);
        let id = insert_at(&mut c, 0.0, 7, 0).entry().unwrap();
        let out = c.insert(
            fv(&[0.05, 0.0]),
            7,
            0.95,
            EntrySource::LocalInference,
            SimTime::from_millis(100),
        );
        assert_eq!(out, InsertOutcome::Refreshed(id));
        assert_eq!(c.len(), 1);
        let entry = c.entry(id).unwrap();
        assert_eq!(entry.uses, 1);
        assert_eq!(entry.confidence, 0.95);
        assert_eq!(c.stats().refreshes, 1);
    }

    #[test]
    fn near_duplicate_different_label_inserts() {
        let mut c = cache(4);
        insert_at(&mut c, 0.0, 7, 0);
        let out = c.insert(
            fv(&[0.05, 0.0]),
            8,
            0.9,
            EntrySource::LocalInference,
            SimTime::from_millis(100),
        );
        assert!(matches!(out, InsertOutcome::Inserted(_)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_is_enforced_with_lru_eviction() {
        let mut c = cache(2);
        let id0 = insert_at(&mut c, 0.0, 0, 0).entry().unwrap();
        let _id1 = insert_at(&mut c, 10.0, 1, 10).entry().unwrap();
        // Touch entry 0 so entry 1 becomes the LRU victim.
        c.lookup(&fv(&[0.1, 0.0]), SimTime::from_millis(100));
        let id2 = insert_at(&mut c, 20.0, 2, 200).entry().unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.entry(id0).is_some(), "recently used entry survives");
        assert!(c.entry(id2).is_some());
        assert_eq!(c.stats().evictions, 1);
        // The evicted key no longer hits.
        let result = c.lookup(&fv(&[10.0, 0.0]), SimTime::from_millis(300));
        assert!(!result.is_hit());
    }

    #[test]
    fn remove_and_clear() {
        let mut c = cache(4);
        let id = insert_at(&mut c, 0.0, 7, 0).entry().unwrap();
        assert!(c.remove(id));
        assert!(!c.remove(id));
        assert_eq!(c.stats().removals, 1);
        insert_at(&mut c, 1.0, 8, 10);
        c.clear();
        assert!(c.is_empty());
        // Index cleared too: lookup is an empty miss... (index exists but
        // holds nothing, so the nearest list is empty).
        let result = c.lookup(&fv(&[1.0, 0.0]), SimTime::from_millis(20));
        assert!(!result.is_hit());
    }

    #[test]
    fn entry_ids_are_never_recycled() {
        let mut c = cache(2);
        let mut seen = std::collections::HashSet::new();
        for i in 0..20 {
            // Far-apart keys so nothing dedups.
            let out = insert_at(&mut c, i as f32 * 10.0, i, i as u64);
            let id = out.entry().unwrap();
            assert!(seen.insert(id), "id {id} recycled");
        }
    }

    #[test]
    fn hottest_orders_by_recency() {
        let mut c = cache(8);
        insert_at(&mut c, 0.0, 0, 0);
        insert_at(&mut c, 10.0, 1, 10);
        insert_at(&mut c, 20.0, 2, 20);
        c.lookup(&fv(&[0.0, 0.0]), SimTime::from_millis(500));
        let hottest = c.hottest(2);
        assert_eq!(hottest.len(), 2);
        assert_eq!(hottest[0].label, 0, "just-touched entry first");
        assert_eq!(hottest[1].label, 2);
    }

    #[test]
    fn works_with_both_index_backends() {
        for kind in [IndexConfig::Linear, IndexConfig::KdTree] {
            let mut c: ApproxCache<u32> = ApproxCache::new(CacheConfig::new(16).with_index(kind));
            c.insert(
                fv(&[1.0, 2.0]),
                9,
                0.9,
                EntrySource::LocalInference,
                SimTime::ZERO,
            );
            let hit = c.lookup(&fv(&[1.0, 2.0]), SimTime::from_millis(5));
            assert!(hit.is_hit(), "{} backend", kind.name());
            assert_eq!(hit.label(), Some(&9));
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        CacheConfig::new(0);
    }

    #[test]
    fn peek_victim_matches_eviction_choice() {
        let mut c = cache(3);
        insert_at(&mut c, 0.0, 0, 0);
        let id1 = insert_at(&mut c, 10.0, 1, 10).entry().unwrap();
        c.lookup(&fv(&[0.0, 0.0]), SimTime::from_millis(50));
        // id1 is now the LRU entry.
        assert_eq!(c.peek_victim(SimTime::from_millis(60)), Some(id1));
        assert_eq!(
            ApproxCache::<u32>::new(CacheConfig::new(4)).peek_victim(SimTime::ZERO),
            None
        );
    }

    #[test]
    fn debug_is_nonempty() {
        let c = cache(4);
        let s = format!("{c:?}");
        assert!(s.contains("ApproxCache"));
        assert!(s.contains("capacity"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert { x: f32, label: u32, confidence: f64 },
        Lookup { x: f32 },
        Remove { nth: usize },
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (-50.0f32..50.0, 0u32..5, 0.0f64..1.0).prop_map(|(x, label, confidence)| Op::Insert {
                x,
                label,
                confidence
            }),
            (-50.0f32..50.0).prop_map(|x| Op::Lookup { x }),
            (0usize..64).prop_map(|nth| Op::Remove { nth }),
        ]
    }

    fn backend() -> impl Strategy<Value = IndexConfig> {
        prop_oneof![Just(IndexConfig::Linear), Just(IndexConfig::KdTree)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under arbitrary operation sequences — against every index
        /// backend — the cache never exceeds capacity, its stats add up,
        /// and lookups never panic.
        #[test]
        fn cache_invariants(
            ops in proptest::collection::vec(op(), 1..120),
            index in backend(),
        ) {
            let mut c: ApproxCache<u32> = ApproxCache::new(
                CacheConfig::new(8)
                    .with_eviction(EvictionPolicy::Utility)
                    .with_index(index),
            );
            let mut now = SimTime::ZERO;
            for op in ops {
                now += simcore::SimDuration::from_millis(7);
                match op {
                    Op::Insert { x, label, confidence } => {
                        c.insert(
                            FeatureVector::from_vec(vec![x, 1.0]).unwrap(),
                            label,
                            confidence,
                            EntrySource::LocalInference,
                            now,
                        );
                    }
                    Op::Lookup { x } => {
                        let _ = c.lookup(&FeatureVector::from_vec(vec![x, 1.0]).unwrap(), now);
                    }
                    Op::Remove { nth } => {
                        let id = c.iter().map(|e| e.id).nth(nth % 8);
                        if let Some(id) = id {
                            c.remove(id);
                        }
                    }
                }
                prop_assert!(c.len() <= c.capacity());
            }
            let s = *c.stats();
            prop_assert_eq!(s.lookups, s.hits + s.misses());
            prop_assert!(s.inserts >= c.len() as u64);
        }
    }
}
