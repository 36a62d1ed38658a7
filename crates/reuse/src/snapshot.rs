//! Cache snapshots: a copy of a cache's entries.
//!
//! The equivalence tests compare two caches by their serialized
//! snapshots.

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
    fn capture_copies_every_entry() {
        let mut original = filled_cache(8);
        let snapshot = CacheSnapshot::capture(&original, SimTime::from_secs(1));
        assert_eq!(snapshot.entries.len(), 8);
        assert_eq!(snapshot.taken_at, SimTime::from_secs(1));
        // Every entry comes back with its key and label.
        let mut labels: Vec<u32> = snapshot.entries.iter().map(|e| e.label).collect();
        labels.sort_unstable();
        assert_eq!(labels, (0..8).collect::<Vec<u32>>());
        for entry in &snapshot.entries {
            assert_eq!(entry.key, fv(entry.label as f32 * 10.0));
        }
        // And the original cache is untouched by capture.
        assert_eq!(original.len(), 8);
        let hit = original.lookup(&fv(0.0), SimTime::from_secs(3));
        assert_eq!(hit.label(), Some(&0));
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
