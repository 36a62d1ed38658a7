//! Per-cache operation counters.

use serde::{Deserialize, Serialize};

use ann::MissReason;

/// Counts of everything a cache did, kept cheap enough to update on every
/// operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Misses because the index was empty.
    pub miss_empty: u64,
    /// Misses because the nearest neighbour was too far.
    pub miss_too_far: u64,
    /// Misses because the neighbour labels were not homogeneous.
    pub miss_not_homogeneous: u64,
    /// Misses because too few neighbours were within the threshold.
    pub miss_insufficient_support: u64,
    /// Successful inserts of new entries.
    pub inserts: u64,
    /// Inserts absorbed as refreshes of near-duplicate entries.
    pub refreshes: u64,
    /// Inserts rejected by admission control.
    pub rejected: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Entries explicitly removed.
    pub removals: u64,
    /// Entries dropped by age-based expiry sweeps.
    pub expirations: u64,
}

impl CacheStats {
    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.miss_empty
            + self.miss_too_far
            + self.miss_not_homogeneous
            + self.miss_insufficient_support
    }

    /// Hit fraction over all lookups (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Records a miss with its reason.
    pub fn record_miss(&mut self, reason: MissReason) {
        match reason {
            MissReason::EmptyIndex => self.miss_empty += 1,
            MissReason::TooFar => self.miss_too_far += 1,
            MissReason::NotHomogeneous => self.miss_not_homogeneous += 1,
            MissReason::InsufficientSupport => self.miss_insufficient_support += 1,
        }
    }

    /// Records the start of a lookup. The matching outcome —
    /// [`record_hit`](Self::record_hit) or
    /// [`record_miss`](Self::record_miss) — must land before the stats
    /// are read, or [`is_balanced`](Self::is_balanced) reports drift.
    pub fn record_lookup(&mut self) {
        self.lookups += 1;
    }

    /// Records a lookup that hit, checking the balance invariant.
    pub fn record_hit(&mut self) {
        self.hits += 1;
        self.debug_assert_balanced();
    }

    /// Records a successful insert of a new entry.
    pub fn record_insert(&mut self) {
        self.inserts += 1;
    }

    /// Records an insert absorbed as a refresh of a near-duplicate.
    pub fn record_refresh(&mut self) {
        self.refreshes += 1;
    }

    /// Records an insert rejected by admission control.
    pub fn record_rejected(&mut self) {
        self.rejected += 1;
    }

    /// Records a capacity eviction.
    pub fn record_eviction(&mut self) {
        self.evictions += 1;
    }

    /// Records an explicit removal.
    pub fn record_removal(&mut self) {
        self.removals += 1;
    }

    /// Records `n` entries dropped by one age-based expiry sweep.
    pub fn record_expirations(&mut self, n: u64) {
        self.expirations += n;
    }

    /// The lookup-accounting invariant: every lookup ended as exactly one
    /// hit or one categorized miss, and [`misses`](Self::misses) is
    /// consistent with the hit/lookup totals.
    pub fn is_balanced(&self) -> bool {
        self.lookups == self.hits + self.misses()
            && self.lookups >= self.hits
            && self.misses() == self.lookups - self.hits
    }

    /// Debug-build check that [`is_balanced`](Self::is_balanced) holds.
    /// Called at every lookup-counter increment site so a drifting
    /// counter panics at the increment that broke it, not at the end of
    /// a run.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the invariant is violated.
    #[inline]
    pub fn debug_assert_balanced(&self) {
        debug_assert!(
            self.is_balanced(),
            "cache stats out of balance: lookups={} hits={} misses={} \
             [empty={} far={} hetero={} support={}]",
            self.lookups,
            self.hits,
            self.misses(),
            self.miss_empty,
            self.miss_too_far,
            self.miss_not_homogeneous,
            self.miss_insufficient_support,
        );
    }

    /// Adds another stats block (e.g. aggregating across devices).
    pub fn merge(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.miss_empty += other.miss_empty;
        self.miss_too_far += other.miss_too_far;
        self.miss_not_homogeneous += other.miss_not_homogeneous;
        self.miss_insufficient_support += other.miss_insufficient_support;
        self.inserts += other.inserts;
        self.refreshes += other.refreshes;
        self.rejected += other.rejected;
        self.evictions += other.evictions;
        self.removals += other.removals;
        self.expirations += other.expirations;
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lookups={} hits={} ({:.1}%) misses={} [far={} hetero={} support={} empty={}] \
             inserts={} refreshes={} rejected={} evictions={} removals={}",
            self.lookups,
            self.hits,
            self.hit_rate() * 100.0,
            self.misses(),
            self.miss_too_far,
            self.miss_not_homogeneous,
            self.miss_insufficient_support,
            self.miss_empty,
            self.inserts,
            self.refreshes,
            self.rejected,
            self.evictions,
            self.removals
        )
    }
}

#[cfg(test)]
// Tests compare exactly-constructed floats; exact equality is intentional.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_lookups() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn misses_sum_by_reason() {
        let mut s = CacheStats::default();
        s.record_miss(MissReason::TooFar);
        s.record_miss(MissReason::TooFar);
        s.record_miss(MissReason::NotHomogeneous);
        s.record_miss(MissReason::EmptyIndex);
        s.record_miss(MissReason::InsufficientSupport);
        assert_eq!(s.misses(), 5);
        assert_eq!(s.miss_too_far, 2);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = CacheStats {
            lookups: 10,
            hits: 6,
            ..CacheStats::default()
        };
        let b = CacheStats {
            lookups: 10,
            hits: 2,
            evictions: 3,
            ..CacheStats::default()
        };
        a.merge(&b);
        assert_eq!(a.lookups, 20);
        assert_eq!(a.hits, 8);
        assert_eq!(a.evictions, 3);
        assert!((a.hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn balance_detects_a_drifting_counter() {
        let mut s = CacheStats::default();
        assert!(s.is_balanced());
        s.lookups += 1;
        s.hits += 1;
        assert!(s.is_balanced());
        s.lookups += 1;
        s.record_miss(MissReason::TooFar);
        assert!(s.is_balanced());
        // A lookup whose outcome was never recorded breaks the invariant.
        s.lookups += 1;
        assert!(!s.is_balanced());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cache stats out of balance")]
    fn debug_assert_fires_on_imbalance() {
        let stats = CacheStats {
            lookups: 3,
            hits: 1,
            ..CacheStats::default()
        };
        stats.debug_assert_balanced();
    }

    #[test]
    fn display_is_informative() {
        let mut s = CacheStats {
            lookups: 4,
            hits: 3,
            ..CacheStats::default()
        };
        s.record_miss(MissReason::TooFar);
        let text = s.to_string();
        assert!(text.contains("hits=3"));
        assert!(text.contains("75.0%"));
        assert!(text.contains("far=1"));
    }
}
