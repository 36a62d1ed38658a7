//! Cache snapshots: a copy of a cache's entries.
//!
//! [`SharedCache::frozen_view`](crate::SharedCache::frozen_view) copies a
//! cache through one, and the equivalence tests compare two caches by
//! their serialized snapshots.

use std::hash::Hash;

use serde::{Deserialize, Serialize};

use simcore::SimTime;

use crate::entry::CacheEntry;
use crate::store::ApproxCache;

/// A serializable copy of a cache's entries (not its configuration or
/// statistics — those belong to the running instance).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot<L> {
    /// When the snapshot was taken.
    pub taken_at: SimTime,
    /// The entries, in unspecified order.
    pub entries: Vec<CacheEntry<L>>,
}

impl<L: Copy + Eq + Hash + std::fmt::Debug> CacheSnapshot<L> {
    /// Captures the current contents of `cache`, each key read back
    /// from its index.
    pub fn capture(cache: &ApproxCache<L>, now: SimTime) -> CacheSnapshot<L> {
        CacheSnapshot {
            taken_at: now,
            entries: cache.iter().collect(),
        }
    }

    /// Number of captured entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Restores the snapshot into `cache`, hottest entries first so that
    /// if the snapshot exceeds the cache's capacity the coldest entries
    /// are the ones that never make it in. Entries pass through the
    /// cache's normal admission and eviction machinery; per-entry
    /// use counts restart (the restored run is a new session).
    ///
    /// Returns the number of entries actually inserted (or absorbed as
    /// refreshes).
    pub fn restore_into(&self, cache: &mut ApproxCache<L>, now: SimTime) -> usize {
        let mut ordered: Vec<&CacheEntry<L>> = self.entries.iter().collect();
        ordered.sort_by_key(|e| std::cmp::Reverse((e.last_used, e.uses, e.id)));
        let mut restored = 0;
        for entry in ordered.into_iter().take(cache.capacity()) {
            let outcome = cache.insert(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use crate::entry::EntrySource;
    use crate::store::CacheConfig;
    use features::FeatureVector;

    fn fv(x: f32) -> FeatureVector {
        FeatureVector::from_vec(vec![x, 0.0]).unwrap()
    }

    fn filled_cache(n: usize) -> ApproxCache<u32> {
        let mut cache: ApproxCache<u32> =
            ApproxCache::new(CacheConfig::new(64).with_admission(AdmissionPolicy::admit_all()));
        for i in 0..n {
            cache.insert(
                fv(i as f32 * 10.0),
                i as u32,
                0.9,
                EntrySource::LocalInference,
                SimTime::from_millis(i as u64),
            );
        }
        cache
    }

    #[test]
    fn capture_restore_round_trip() {
        let mut original = filled_cache(8);
        let snapshot = CacheSnapshot::capture(&original, SimTime::from_secs(1));
        assert_eq!(snapshot.len(), 8);
        assert!(!snapshot.is_empty());

        let mut restored: ApproxCache<u32> =
            ApproxCache::new(CacheConfig::new(64).with_admission(AdmissionPolicy::admit_all()));
        let count = snapshot.restore_into(&mut restored, SimTime::from_secs(2));
        assert_eq!(count, 8);
        assert_eq!(restored.len(), 8);
        // Every original key still hits with the right label.
        for i in 0..8u32 {
            let hit = restored.lookup(&fv(i as f32 * 10.0), SimTime::from_secs(3));
            assert_eq!(hit.label(), Some(&i), "entry {i}");
        }
        // And the original cache is untouched by capture.
        assert_eq!(original.len(), 8);
        let _ = original.lookup(&fv(0.0), SimTime::from_secs(3));
    }

    #[test]
    fn restore_respects_capacity_keeping_hottest() {
        let mut big = filled_cache(16);
        // Touch entries 12..16 so they are the hottest.
        for i in 12..16u32 {
            let _ = big.lookup(&fv(i as f32 * 10.0), SimTime::from_secs(5));
        }
        let snapshot = CacheSnapshot::capture(&big, SimTime::from_secs(6));
        let mut small: ApproxCache<u32> =
            ApproxCache::new(CacheConfig::new(4).with_admission(AdmissionPolicy::admit_all()));
        let restored = snapshot.restore_into(&mut small, SimTime::from_secs(7));
        assert_eq!(restored, 4);
        assert_eq!(small.len(), 4);
        for i in 12..16u32 {
            let hit = small.lookup(&fv(i as f32 * 10.0), SimTime::from_secs(8));
            assert_eq!(hit.label(), Some(&i), "hot entry {i} must survive");
        }
    }

    #[test]
    fn restore_passes_admission() {
        let mut source: ApproxCache<u32> =
            ApproxCache::new(CacheConfig::new(8).with_admission(AdmissionPolicy::admit_all()));
        source.insert(fv(0.0), 1, 0.2, EntrySource::LocalInference, SimTime::ZERO);
        let snapshot = CacheSnapshot::capture(&source, SimTime::from_secs(1));
        // The destination enforces the default confidence floor: the
        // low-confidence entry is not restored.
        let mut strict: ApproxCache<u32> = ApproxCache::new(CacheConfig::new(8));
        let restored = snapshot.restore_into(&mut strict, SimTime::from_secs(2));
        assert_eq!(restored, 0);
        assert!(strict.is_empty());
    }

    #[test]
    fn expire_older_than_sweeps_and_counts() {
        let mut cache = filled_cache(10);
        // Entries were inserted at 0..9 ms; expire everything older than
        // 5 ms as of t=10ms (entries 0..=4).
        let dropped = cache.expire_older_than(
            SimTime::from_millis(10),
            simcore::SimDuration::from_millis(5),
        );
        assert_eq!(dropped, 5);
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.stats().expirations, 5);
        // Survivors still hit; expired keys miss.
        assert!(cache.lookup(&fv(90.0), SimTime::from_millis(11)).is_hit());
        assert!(!cache.lookup(&fv(0.0), SimTime::from_millis(11)).is_hit());
    }
}
