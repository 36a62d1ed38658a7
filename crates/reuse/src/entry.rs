//! Cache entries and their provenance.

use serde::{Deserialize, Serialize};

use features::FeatureVector;
use simcore::SimTime;

/// Identifier of a cache entry, unique within one cache for its lifetime
/// (ids are never recycled, so a stale id can never alias a new entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntryId(pub u64);

impl std::fmt::Display for EntryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "entry-{}", self.0)
    }
}

/// Where a cached result came from — reported in the hit-source breakdown
/// experiment and usable by admission policies (peer results may be held
/// to a higher confidence bar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntrySource {
    /// Produced by this device's own DNN.
    LocalInference,
    /// Received from a nearby device.
    Peer,
}

impl std::fmt::Display for EntrySource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EntrySource::LocalInference => "local-inference",
            EntrySource::Peer => "peer",
        };
        f.write_str(s)
    }
}

/// One cached recognition result, as the store exports it: to snapshots
/// and to peers over the wire.
///
/// The store does not hold `CacheEntry` values. It keeps a keyless
/// record per entry and each key once, in its index, and rebuilds an
/// entry, key bit for bit, whenever one is asked for
/// ([`ApproxCache::entry`](crate::ApproxCache::entry),
/// [`iter`](crate::ApproxCache::iter),
/// [`hottest`](crate::ApproxCache::hottest)). So an entry is a copy:
/// changing it changes nothing cached.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry<L> {
    /// Stable identifier within the owning cache.
    pub id: EntryId,
    /// The feature-space key.
    pub key: FeatureVector,
    /// The cached recognition label.
    pub label: L,
    /// Confidence the producer attached to the result.
    pub confidence: f64,
    /// When the entry was first inserted.
    pub inserted_at: SimTime,
    /// When the entry last served a hit or was refreshed.
    pub last_used: SimTime,
    /// Number of hits served plus refreshes absorbed.
    pub uses: u64,
    /// Provenance.
    pub source: EntrySource,
}

/// What the store keeps of one entry: every field of a [`CacheEntry`]
/// but the key, which lives only in the store's index. Victim selection
/// and the lookup's vote read records; [`Record::with_key`] turns one
/// back into the exported entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record<L> {
    pub(crate) id: EntryId,
    pub(crate) label: L,
    pub(crate) confidence: f64,
    pub(crate) inserted_at: SimTime,
    pub(crate) last_used: SimTime,
    pub(crate) uses: u64,
    pub(crate) source: EntrySource,
}

impl<L: Copy> Record<L> {
    /// The exported entry: this record with its key put back.
    pub(crate) fn with_key(&self, key: FeatureVector) -> CacheEntry<L> {
        CacheEntry {
            id: self.id,
            key,
            label: self.label,
            confidence: self.confidence,
            inserted_at: self.inserted_at,
            last_used: self.last_used,
            uses: self.uses,
            source: self.source,
        }
    }
}

impl<L> Record<L> {
    /// Age since insertion at `now`.
    pub(crate) fn age(&self, now: SimTime) -> simcore::SimDuration {
        now.saturating_duration_since(self.inserted_at)
    }

    /// Time since the entry last served a hit.
    pub(crate) fn idle(&self, now: SimTime) -> simcore::SimDuration {
        now.saturating_duration_since(self.last_used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    #[test]
    fn age_and_idle_track_timestamps() {
        let r = Record {
            id: EntryId(1),
            label: 3u32,
            confidence: 0.9,
            inserted_at: SimTime::from_millis(100),
            last_used: SimTime::from_millis(400),
            uses: 2,
            source: EntrySource::LocalInference,
        };
        let now = SimTime::from_millis(1_000);
        assert_eq!(r.age(now), SimDuration::from_millis(900));
        assert_eq!(r.idle(now), SimDuration::from_millis(600));
        // Saturating: clock before insertion yields zero, not panic.
        assert_eq!(r.age(SimTime::ZERO), SimDuration::ZERO);
        // The exported entry is the record plus its key.
        let e = r.with_key(FeatureVector::zeros(2));
        assert_eq!((e.id, e.label, e.uses), (r.id, r.label, r.uses));
        assert_eq!(e.key, FeatureVector::zeros(2));
    }

    #[test]
    fn displays() {
        assert_eq!(EntryId(5).to_string(), "entry-5");
        assert_eq!(EntrySource::Peer.to_string(), "peer");
        assert_eq!(EntrySource::LocalInference.to_string(), "local-inference");
    }
}
