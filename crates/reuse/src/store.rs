//! The approximate cache store.

use std::fmt;
use std::hash::Hash;

use serde::{Deserialize, Serialize};

use ann::{AknnConfig, AknnOutcome, DecideScratch, LinearScan, MissReason, Neighbor, NnIndex};
use features::FeatureVector;
use simcore::SimTime;

use crate::admission::AdmissionPolicy;
use crate::entry::{CacheEntry, EntryId, EntrySource, Record};
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
}

impl CacheConfig {
    /// A config with the given capacity and defaults everywhere else
    /// (A-kNN defaults, LRU, default admission).
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
        /// That entry's confidence, read in the same pass as the label.
        confidence: f64,
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
/// whole lookup path is allocation-free. A store holds its own; a device
/// holds one for the [`FrozenView`]s it asks.
#[derive(Debug)]
pub struct LookupScratch<L> {
    /// Raw index results, filled by `nearest_within_into`.
    neighbors: Vec<Neighbor>,
    /// Neighbours joined with their row's entry:
    /// `(distance, label, id, confidence)`.
    labeled: Vec<(f64, L, u64, f64)>,
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
    /// Every entry's key, and the only copy of it; its id → row map is
    /// the store's only map.
    index: Option<LinearScan>,
    /// Everything else about each entry, row-parallel to the index: the
    /// record of the key in row `r` is `records[r]`.
    records: Vec<Record<L>>,
    /// Incremental eviction metadata mirroring `records` — victim
    /// selection is O(log n) instead of a full scan (see [`VictimIndex`]).
    victims: VictimIndex,
    next_id: u64,
    stats: CacheStats,
    scratch: LookupScratch<L>,
}

/// The read half of a lookup: the verdict [`ApproxCache::probe`] reached,
/// waiting for [`ApproxCache::commit`] to count it and touch the served
/// entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe<L>(LookupResult<L>);

impl<L: Copy> Probe<L> {
    /// The answer the lookup gives, whenever its commit lands.
    pub(crate) fn result(&self) -> LookupResult<L> {
        self.0
    }
}

impl<L> fmt::Debug for ApproxCache<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ApproxCache")
            .field("len", &self.records.len())
            .field("capacity", &self.config.capacity)
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
            records: Vec::new(),
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
        self.records.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Operation counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The entry with `id`, if it is still cached — a copy, its key read
    /// back from the index.
    pub fn entry(&self, id: EntryId) -> Option<CacheEntry<L>> {
        self.export(self.records.get(self.row(id.0)?)?)
    }

    /// Iterates over copies of all cached entries (in row order, which
    /// removals permute: treat it as arbitrary), each key read back from
    /// the index as it is reached.
    pub fn iter(&self) -> impl Iterator<Item = CacheEntry<L>> + '_ {
        self.records.iter().filter_map(|record| self.export(record))
    }

    /// The row entry `id` sits in, through the index's id → row map.
    fn row(&self, id: u64) -> Option<usize> {
        self.index.as_ref()?.row(id)
    }

    /// `record` as an exported entry, with its key from the index. An id
    /// the index does not hold (a store/index desync) exports nothing.
    fn export(&self, record: &Record<L>) -> Option<CacheEntry<L>> {
        let key = self.index.as_ref()?.key(record.id.0)?;
        Some(record.with_key(key))
    }

    /// The nearest cached entry to `key` with its distance, regardless of
    /// the hit test — a read-only probe (no statistics, no recency
    /// update) used by adaptive controllers to mine near-miss evidence.
    pub fn peek_nearest(&self, key: &FeatureVector) -> Option<(f64, L)> {
        let index = self.index.as_ref()?;
        let nearest = index.nearest(key, 1).into_iter().next()?;
        let record = self.records.get(self.row(nearest.id)?)?;
        Some((nearest.distance, record.label))
    }

    /// Looks up `key` at time `now`, updating recency metadata on a hit:
    /// its read half (the scan and the vote) then its write half (the
    /// counters and the touch), the two steps a [`SharedCache`](crate::SharedCache)
    /// runs under its read and write locks.
    ///
    /// # Panics
    ///
    /// Panics if `key`'s dimension differs from previously inserted keys.
    pub fn lookup(&mut self, key: &FeatureVector, now: SimTime) -> LookupResult<L> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let probe = self.probe(key, &mut scratch);
        self.scratch = scratch;
        self.commit(probe, now)
    }

    /// A lookup's read half: the bounded scan, the A-kNN vote and the
    /// choice of the served entry. It reads only the index, the labels,
    /// the confidences and the config, and changes nothing, so probes may
    /// run side by side under a read lock.
    pub(crate) fn probe(&self, key: &FeatureVector, scratch: &mut LookupScratch<L>) -> Probe<L> {
        Probe(probe(
            self.index.as_ref(),
            &self.config.aknn,
            key,
            scratch,
            |row| self.records.get(row).map(|r| (r.label, r.confidence)),
        ))
    }

    /// A lookup's write half: counts the lookup and its hit or miss, and
    /// on a hit touches the served entry (`last_used`, `uses`, the victim
    /// index). A served entry that has left the store since the probe is
    /// not touched; ids are never reused, so no other entry takes the
    /// touch. It writes only statistics and recency, which no probe reads,
    /// so a deferred commit cannot change a later probe's answer.
    pub(crate) fn commit(&mut self, probe: Probe<L>, now: SimTime) -> LookupResult<L> {
        self.stats.record_lookup();
        match probe.0 {
            LookupResult::Hit { entry, .. } => {
                let row = self.row(entry.0);
                if let Some(served) = row.and_then(|row| self.records.get_mut(row)) {
                    let before = EntryMeta::of(served);
                    served.last_used = now;
                    served.uses += 1;
                    self.victims.on_update(before, EntryMeta::of(served));
                }
                self.stats.record_hit();
            }
            LookupResult::Miss(reason) => self.stats.record_miss(reason),
        }
        self.stats.debug_assert_balanced();
        probe.0
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
        let index = self.index.get_or_insert_with(|| LinearScan::new(key.dim()));

        // Near-duplicate refresh.
        if self.config.admission.dedup_distance > 0.0 {
            // Unbounded on purpose: bounded by `dedup_distance` the
            // write path runs about twice as fast, faster than the
            // benchmark's traced `edge-ingest` client can record yet
            // (ROADMAP item 1) — see DESIGN.md "Performance model".
            index.nearest_within_into(&key, 1, f64::INFINITY, &mut self.scratch.neighbors);
            if let Some(&nearest) = self.scratch.neighbors.first() {
                if nearest.distance <= self.config.admission.dedup_distance {
                    let row = self.row(nearest.id);
                    if let Some(record) = row.and_then(|row| self.records.get_mut(row)) {
                        if record.label == label {
                            let before = EntryMeta::of(record);
                            record.last_used = now;
                            record.uses += 1;
                            record.confidence = record.confidence.max(confidence);
                            self.victims.on_update(before, EntryMeta::of(record));
                            self.stats.record_refresh();
                            return InsertOutcome::Refreshed(EntryId(nearest.id));
                        }
                    }
                }
            }
        }

        // Capacity: evict before inserting. The victim choice is a pure
        // minimum with an id tie-break, so the row order cannot
        // influence it.
        if self.records.len() >= self.config.capacity {
            if let Some(victim) = self.peek_victim(now) {
                self.remove_internal(victim);
                self.stats.record_eviction();
            }
        }

        let id = EntryId(self.next_id);
        self.next_id += 1;
        // The key moves into the index, its one home, as a new last row;
        // the record keeps the rest in the matching row.
        self.index
            .get_or_insert_with(|| LinearScan::new(key.dim()))
            .insert(id.0, key);
        debug_assert_eq!(self.row(id.0), Some(self.records.len()));
        let record = Record {
            id,
            label,
            confidence,
            inserted_at: now,
            last_used: now,
            uses: 0,
            source,
        };
        self.victims.on_insert(EntryMeta::of(&record));
        self.records.push(record);
        self.stats.record_insert();
        InsertOutcome::Inserted(id)
    }

    /// The entry the next capacity eviction would drop at `now`, without
    /// dropping it. O(log n) for Lru/Lfu/Ttl; the Utility policy's score
    /// depends on `now`, so it keeps the full scan.
    fn peek_victim(&self, now: SimTime) -> Option<EntryId> {
        match self.victims.victim(now) {
            VictimChoice::Found(id) => Some(id),
            VictimChoice::Empty => None,
            VictimChoice::ScanRequired => {
                self.config.eviction.choose_victim(self.records.iter(), now)
            }
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

    /// Removes `id`'s key and record: the index swap-removes the key's
    /// row and reports it, and the records mirror that swap-remove.
    fn remove_internal(&mut self, id: EntryId) -> bool {
        let Some(row) = self.index.as_mut().and_then(|index| index.remove(id.0)) else {
            return false;
        };
        let record = self.records.swap_remove(row);
        self.victims.on_remove(EntryMeta::of(&record));
        true
    }

    /// Removes every entry (statistics are retained).
    pub fn clear(&mut self) {
        self.records.clear();
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
        let victims: Vec<EntryId> = self
            .records
            .iter()
            .filter(|e| e.age(now) > max_age)
            .map(|e| e.id)
            .collect();
        for id in &victims {
            self.remove_internal(*id);
        }
        self.stats.record_expirations(victims.len() as u64);
        victims.len()
    }

    /// Copies of the entries most recently used, up to `limit`, newest
    /// first — what a device offers when a peer asks it to share its hot
    /// set. Only the `limit` chosen keys are read back from the index.
    pub fn hottest(&self, limit: usize) -> Vec<CacheEntry<L>> {
        let mut records: Vec<&Record<L>> = self.records.iter().collect();
        records.sort_by_key(|r| std::cmp::Reverse((r.last_used, r.uses, r.id)));
        records
            .into_iter()
            .take(limit)
            .filter_map(|record| self.export(record))
            .collect()
    }

    /// A [`FrozenView`] of the current contents.
    pub(crate) fn frozen_view(&self) -> FrozenView<L> {
        let rows = self.records.iter().map(|r| (r.label, r.confidence));
        FrozenView {
            index: self.index.clone(),
            rows: rows.collect(),
            aknn: self.config.aknn,
        }
    }
}

/// A lookup's read half over an index and the label and confidence kept
/// row-parallel to it (`at(row)`), shared by the store and its
/// [`FrozenView`]s: the bounded scan, the A-kNN vote and the choice of
/// the served entry.
fn probe<L: Copy + Eq>(
    index: Option<&LinearScan>,
    aknn: &AknnConfig,
    key: &FeatureVector,
    scratch: &mut LookupScratch<L>,
    at: impl Fn(usize) -> Option<(L, f64)>,
) -> LookupResult<L> {
    let Some(index) = index else {
        return LookupResult::Miss(MissReason::EmptyIndex);
    };
    // The vote discards every neighbour beyond the threshold, so the
    // index is asked only for those within it (the threshold as it
    // stands now — adaptive controllers move it between lookups). The
    // in-threshold members of the top-k are the top-k of the
    // in-threshold set: the verdict is the unbounded one, except that
    // "nothing within the threshold" arrives as an empty answer.
    index.nearest_within_into(key, aknn.k, aknn.distance_threshold, &mut scratch.neighbors);
    if scratch.neighbors.is_empty() && !index.is_empty() {
        return LookupResult::Miss(MissReason::TooFar);
    }
    // Neighbours without a backing row (an index/store desync) are
    // dropped from the vote instead of crashing the device. One pass
    // builds the labelled list that both the vote and the served-entry
    // choice read from.
    scratch.labeled.clear();
    for n in &scratch.neighbors {
        if let Some((label, confidence)) = index.row(n.id).and_then(&at) {
            scratch.labeled.push((n.distance, label, n.id, confidence));
        }
    }
    match ann::aknn::decide_in(
        scratch.labeled.iter().map(|&(d, label, ..)| (d, label)),
        aknn,
        &mut scratch.decide,
    ) {
        AknnOutcome::Hit {
            label,
            nearest_distance,
            support,
            homogeneity,
        } => {
            // Serve the nearest entry carrying the winning label. The
            // winner came from `labeled`, so a carrier exists; degrade
            // to a miss if that ever stops holding.
            let served = scratch
                .labeled
                .iter()
                .find(|&&(_, candidate, ..)| candidate == label);
            let Some(&(_, _, id, confidence)) = served else {
                return LookupResult::Miss(MissReason::InsufficientSupport);
            };
            LookupResult::Hit {
                label,
                entry: EntryId(id),
                confidence,
                nearest_distance,
                support,
                homogeneity,
            }
        }
        AknnOutcome::Miss(reason) => LookupResult::Miss(reason),
    }
}

/// An immutable copy of a cache's rows: the owner's index, each row's
/// label and confidence, and the owner's hit test. It keeps the owner's
/// ids, so a lookup gets the owner's answer as of the copy, served entry
/// included, and, with no statistics or recency, changes nothing.
#[derive(Debug)]
pub struct FrozenView<L> {
    index: Option<LinearScan>,
    /// `(label, confidence)` of the key in each row of `index`.
    rows: Vec<(L, f64)>,
    aknn: AknnConfig,
}

/// A cache a device asks as a peer: a live
/// [`SharedCache`](crate::SharedCache) or a [`FrozenView`]. `scratch` is
/// the asker's; a view looks up in it, allocating nothing once warm.
pub trait PeerLookup<L> {
    /// Looks `key` up at `now`.
    fn lookup(
        &self,
        key: &FeatureVector,
        now: SimTime,
        scratch: &mut LookupScratch<L>,
    ) -> LookupResult<L>;
}

impl<L: Copy + Eq> PeerLookup<L> for FrozenView<L> {
    /// The store's read half over the copy, with nothing to commit.
    fn lookup(
        &self,
        key: &FeatureVector,
        _now: SimTime,
        scratch: &mut LookupScratch<L>,
    ) -> LookupResult<L> {
        probe(self.index.as_ref(), &self.aknn, key, scratch, |row| {
            self.rows.get(row).copied()
        })
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
    fn commit_skips_an_entry_gone_since_the_probe() {
        let mut c = cache(4);
        let id = insert_at(&mut c, 0.0, 7, 0).entry().unwrap();
        let mut scratch = LookupScratch::default();
        let probe = c.probe(&fv(&[0.2, 0.0]), &mut scratch);
        assert_eq!(c.stats().lookups, 0, "a probe counts nothing");
        assert!(c.remove(id));
        let result = c.commit(probe, SimTime::from_millis(500));
        assert_eq!(result.label(), Some(&7), "the answer is the probe's");
        assert_eq!((c.stats().lookups, c.stats().hits), (1, 1));
        assert!(c.is_empty(), "no entry took the touch");
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
    fn near_duplicate_radius_is_inclusive() {
        let mut c = ApproxCache::new(CacheConfig::new(4).with_admission(AdmissionPolicy {
            dedup_distance: 5.0,
            ..AdmissionPolicy::admit_all()
        }));
        let mut insert = |x: f32, y: f32| {
            c.insert(
                fv(&[x, y]),
                7,
                0.9,
                EntrySource::LocalInference,
                SimTime::ZERO,
            )
        };
        let id = insert(0.0, 0.0).entry().unwrap();
        // (3, 4) is exactly 5.0 from the stored (0, 0).
        assert_eq!(insert(3.0, 4.0), InsertOutcome::Refreshed(id));
        assert!(matches!(insert(3.0, 4.01), InsertOutcome::Inserted(_)));
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
    fn entries_read_back_their_inserted_keys_after_rows_move() {
        // Keys wider than one head chunk, far apart so nothing dedups;
        // nine live rows span two head blocks, so each eviction and
        // removal swap-moves the last row into the hole, often across
        // blocks.
        let key = |i: u32| {
            fv(&(0..12)
                .map(|j| i as f32 * 100.0 + j as f32 / 7.0)
                .collect::<Vec<_>>())
        };
        let mut c = cache(9);
        let mut inserted = std::collections::HashMap::new();
        for i in 0..40u32 {
            let id = c
                .insert(
                    key(i),
                    i,
                    0.9,
                    EntrySource::LocalInference,
                    SimTime::from_millis(i.into()),
                )
                .entry()
                .unwrap();
            inserted.insert(id, key(i));
            if i % 5 == 4 {
                let oldest = c.hottest(9).last().unwrap().id;
                assert!(c.remove(oldest));
            }
        }
        assert!(c.stats().evictions > 0 && c.stats().removals > 0);
        assert_eq!(c.iter().count(), c.len());
        for entry in c.iter() {
            assert_eq!(entry.key, inserted[&entry.id], "{}", entry.id);
            assert_eq!(c.entry(entry.id).unwrap(), entry);
        }
        assert_eq!(c.entry(EntryId(0)), None, "evicted long ago");
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under arbitrary operation sequences the cache never exceeds
        /// capacity, its stats add up, and lookups never panic.
        #[test]
        fn cache_invariants(ops in proptest::collection::vec(op(), 1..120)) {
            let mut c: ApproxCache<u32> =
                ApproxCache::new(CacheConfig::new(8).with_eviction(EvictionPolicy::Utility));
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
                prop_assert!(c.len() <= c.config().capacity);
            }
            let s = *c.stats();
            prop_assert_eq!(s.lookups, s.hits + s.misses());
            prop_assert!(s.inserts >= c.len() as u64);
        }

        /// Records stay row-parallel to the index: after random insert,
        /// refresh, evict (inserts past capacity), expire, remove and
        /// clear, the record in row `r` belongs to the id the index keeps
        /// in row `r`, and `entry(id)` gives back that entry's inserted
        /// key and label — or `None` once it has left.
        #[test]
        fn records_sit_in_their_ids_rows(ops in proptest::collection::vec(row_op(), 1..100)) {
            // Keys wider than one head chunk so rows have tails; far
            // apart, so only a `Refresh` (an exact repeat) dedups.
            let key = |x: u32| {
                FeatureVector::from_vec((0..10).map(|j| (x * 10 + j) as f32).collect()).unwrap()
            };
            let mut c: ApproxCache<u32> = ApproxCache::new(
                CacheConfig::new(6).with_admission(AdmissionPolicy {
                    min_confidence: 0.0,
                    min_peer_confidence: 0.0,
                    dedup_distance: 0.5,
                }),
            );
            let mut inserted: Vec<(EntryId, u32)> = Vec::new();
            let mut now = SimTime::ZERO;
            for op in ops {
                now += simcore::SimDuration::from_millis(5);
                let live: Vec<EntryId> = c.records.iter().map(|r| r.id).collect();
                match op {
                    RowOp::Insert { x } => {
                        let id = c.insert(key(x), x, 0.9, EntrySource::LocalInference, now);
                        if let InsertOutcome::Inserted(id) = id {
                            inserted.push((id, x));
                        }
                    }
                    RowOp::Refresh { nth } if !live.is_empty() => {
                        let id = live[nth % live.len()];
                        let x = inserted.iter().find(|&&(i, _)| i == id).unwrap().1;
                        let out = c.insert(key(x), x, 0.95, EntrySource::LocalInference, now);
                        prop_assert_eq!(out, InsertOutcome::Refreshed(id));
                    }
                    RowOp::Remove { nth } if !live.is_empty() => {
                        prop_assert!(c.remove(live[nth % live.len()]));
                    }
                    RowOp::Refresh { .. } | RowOp::Remove { .. } => {}
                    RowOp::Expire { max_age_ms } => {
                        c.expire_older_than(now, simcore::SimDuration::from_millis(max_age_ms));
                    }
                    RowOp::Clear => c.clear(),
                }
                let rows = c.index.as_ref().map_or(0, |index| index.len());
                prop_assert_eq!(rows, c.records.len());
                prop_assert!(c.len() <= c.config().capacity);
                for (row, record) in c.records.iter().enumerate() {
                    prop_assert_eq!(c.row(record.id.0), Some(row));
                }
                for &(id, x) in &inserted {
                    let live = c.records.iter().any(|r| r.id == id);
                    match c.entry(id) {
                        Some(entry) => {
                            prop_assert!(live);
                            prop_assert_eq!((entry.id, entry.label), (id, x));
                            prop_assert_eq!(entry.key, key(x));
                        }
                        None => prop_assert!(!live),
                    }
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum RowOp {
        Insert { x: u32 },
        Refresh { nth: usize },
        Remove { nth: usize },
        Expire { max_age_ms: u64 },
        Clear,
    }

    fn row_op() -> impl Strategy<Value = RowOp> {
        // Inserts listed three times: the shim's `prop_oneof!` has no
        // weights, and the store should reach capacity and evict.
        prop_oneof![
            (0u32..1000).prop_map(|x| RowOp::Insert { x }),
            (0u32..1000).prop_map(|x| RowOp::Insert { x }),
            (0u32..1000).prop_map(|x| RowOp::Insert { x }),
            (0usize..16).prop_map(|nth| RowOp::Refresh { nth }),
            (0usize..16).prop_map(|nth| RowOp::Remove { nth }),
            (10u64..200).prop_map(|max_age_ms| RowOp::Expire { max_age_ms }),
            Just(RowOp::Clear),
        ]
    }
}
