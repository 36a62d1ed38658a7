//! Victim selection when the cache is full.

use serde::{Deserialize, Serialize};

use simcore::{SimDuration, SimTime};

use crate::entry::{EntryId, Record};

/// Which entry to discard when capacity is reached.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Least recently used: evict the entry idle the longest. The right
    /// default for video streams, whose reuse is strongly recency-biased.
    Lru,
    /// Least frequently used: evict the entry with the fewest hits,
    /// breaking ties by recency. Protects long-lived hot subjects.
    Lfu,
    /// Expiry-first: evict any entry older than `max_age`; if none is
    /// expired, fall back to LRU. Bounds staleness in churning scenes.
    Ttl {
        /// Age beyond which an entry is considered stale.
        max_age: SimDuration,
    },
    /// Utility-aware: evict the entry with the lowest
    /// `(uses + 1) · confidence / (idle_seconds + 1)` — a combined
    /// recency × frequency × quality score.
    Utility,
}

impl EvictionPolicy {
    /// Short name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Lfu => "lfu",
            EvictionPolicy::Ttl { .. } => "ttl",
            EvictionPolicy::Utility => "utility",
        }
    }

    /// The policies compared by the eviction experiment.
    pub fn standard_set() -> [EvictionPolicy; 4] {
        [
            EvictionPolicy::Lru,
            EvictionPolicy::Lfu,
            EvictionPolicy::Ttl {
                max_age: SimDuration::from_secs(30),
            },
            EvictionPolicy::Utility,
        ]
    }

    /// Picks the victim among the store's `entries` at time `now`.
    /// Returns `None` for an empty iterator.
    pub(crate) fn choose_victim<'a, L: 'a>(
        &self,
        entries: impl Iterator<Item = &'a Record<L>>,
        now: SimTime,
    ) -> Option<EntryId> {
        match self {
            EvictionPolicy::Lru => entries.min_by_key(|e| (e.last_used, e.id)).map(|e| e.id),
            EvictionPolicy::Lfu => entries
                .min_by_key(|e| (e.uses, e.last_used, e.id))
                .map(|e| e.id),
            EvictionPolicy::Ttl { max_age } => {
                // One pass, each ordering key built exactly once per
                // entry: the oldest expired entry wins outright; with
                // nothing expired the fallback is the same `(last_used,
                // id)` minimum Lru computes.
                let mut oldest_expired: Option<(SimTime, EntryId)> = None;
                let mut lru_fallback: Option<(SimTime, EntryId)> = None;
                for e in entries {
                    let by_age = (e.inserted_at, e.id);
                    let by_recency = (e.last_used, e.id);
                    if e.age(now) > *max_age && oldest_expired.is_none_or(|b| by_age < b) {
                        oldest_expired = Some(by_age);
                    }
                    if lru_fallback.is_none_or(|b| by_recency < b) {
                        lru_fallback = Some(by_recency);
                    }
                }
                oldest_expired.or(lru_fallback).map(|(_, id)| id)
            }
            EvictionPolicy::Utility => entries
                .map(|e| {
                    let idle = e.idle(now).as_secs_f64();
                    let utility = (e.uses as f64 + 1.0) * e.confidence / (idle + 1.0);
                    (e, utility)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.id.cmp(&b.0.id)))
                .map(|(e, _)| e.id),
        }
    }
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntrySource;

    fn entry(id: u64, inserted_ms: u64, used_ms: u64, uses: u64, conf: f64) -> Record<u32> {
        Record {
            id: EntryId(id),
            label: 0,
            confidence: conf,
            inserted_at: SimTime::from_millis(inserted_ms),
            last_used: SimTime::from_millis(used_ms),
            uses,
            source: EntrySource::LocalInference,
        }
    }

    #[test]
    fn lru_evicts_longest_idle() {
        let entries = [
            entry(1, 0, 500, 9, 0.9),
            entry(2, 0, 100, 9, 0.9), // idle longest
            entry(3, 0, 900, 9, 0.9),
        ];
        let victim = EvictionPolicy::Lru
            .choose_victim(entries.iter(), SimTime::from_millis(1_000))
            .unwrap();
        assert_eq!(victim, EntryId(2));
    }

    #[test]
    fn lfu_evicts_fewest_uses_with_lru_tiebreak() {
        let entries = [
            entry(1, 0, 500, 2, 0.9),
            entry(2, 0, 100, 1, 0.9),
            entry(3, 0, 50, 1, 0.9), // same uses as 2, older use
        ];
        let victim = EvictionPolicy::Lfu
            .choose_victim(entries.iter(), SimTime::from_millis(1_000))
            .unwrap();
        assert_eq!(victim, EntryId(3));
    }

    #[test]
    fn ttl_prefers_expired_entries() {
        let policy = EvictionPolicy::Ttl {
            max_age: SimDuration::from_millis(400),
        };
        let entries = [
            entry(1, 0, 990, 9, 0.9),   // expired (age 1000), very recently used
            entry(2, 800, 810, 0, 0.9), // fresh, cold
        ];
        let victim = policy
            .choose_victim(entries.iter(), SimTime::from_millis(1_000))
            .unwrap();
        assert_eq!(victim, EntryId(1), "expired entry beats cold fresh one");
    }

    #[test]
    fn ttl_expired_entry_that_is_also_the_lru_entry() {
        // Regression: an entry can be both expired *and* the LRU minimum.
        // The expiry branch must claim it via the `(inserted_at, id)`
        // ordering without the fallback bookkeeping interfering, and the
        // choice must stay stable when a second expired entry with a
        // larger id but older insertion exists.
        let policy = EvictionPolicy::Ttl {
            max_age: SimDuration::from_millis(300),
        };
        let entries = [
            entry(4, 100, 150, 1, 0.9), // expired (age 900), also the LRU entry
            entry(7, 50, 700, 5, 0.9),  // expired (age 950), older insertion
            entry(9, 900, 950, 0, 0.9), // fresh
        ];
        let victim = policy
            .choose_victim(entries.iter(), SimTime::from_millis(1_000))
            .unwrap();
        assert_eq!(
            victim,
            EntryId(7),
            "oldest insertion wins among expired entries, even when another \
             expired entry is the LRU minimum"
        );
        // With only the doubly-minimal entry expired, it is still chosen.
        let entries = [entry(4, 100, 150, 1, 0.9), entry(9, 900, 950, 0, 0.9)];
        let victim = policy
            .choose_victim(entries.iter(), SimTime::from_millis(1_000))
            .unwrap();
        assert_eq!(victim, EntryId(4));
    }

    #[test]
    fn ttl_fallback_matches_lru_exactly_when_nothing_expired() {
        // The fallback ordering must be *identical* to Lru's, including
        // the id tiebreak on equal `last_used`.
        let entries = [
            entry(8, 0, 100, 3, 0.9),
            entry(2, 0, 100, 9, 0.9), // ties on last_used; lower id wins
            entry(5, 0, 400, 0, 0.9),
        ];
        let now = SimTime::from_millis(1_000);
        let ttl = EvictionPolicy::Ttl {
            max_age: SimDuration::from_secs(100),
        };
        let lru_pick = EvictionPolicy::Lru.choose_victim(entries.iter(), now);
        let ttl_pick = ttl.choose_victim(entries.iter(), now);
        assert_eq!(ttl_pick, lru_pick);
        assert_eq!(ttl_pick, Some(EntryId(2)));
    }

    #[test]
    fn ttl_falls_back_to_lru_when_nothing_expired() {
        let policy = EvictionPolicy::Ttl {
            max_age: SimDuration::from_secs(100),
        };
        let entries = [entry(1, 0, 500, 9, 0.9), entry(2, 0, 100, 9, 0.9)];
        let victim = policy
            .choose_victim(entries.iter(), SimTime::from_millis(1_000))
            .unwrap();
        assert_eq!(victim, EntryId(2));
    }

    #[test]
    fn utility_trades_recency_frequency_confidence() {
        let entries = [
            entry(1, 0, 900, 50, 0.95), // hot and fresh: high utility
            entry(2, 0, 900, 0, 0.2),   // fresh but useless and dubious
            entry(3, 0, 0, 50, 0.95),   // hot historically but idle 1 s
        ];
        let victim = EvictionPolicy::Utility
            .choose_victim(entries.iter(), SimTime::from_millis(1_000))
            .unwrap();
        assert_eq!(victim, EntryId(2));
    }

    #[test]
    fn empty_iterator_yields_none() {
        let none: Option<EntryId> =
            EvictionPolicy::Lru.choose_victim(std::iter::empty::<&Record<u32>>(), SimTime::ZERO);
        assert_eq!(none, None);
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        // Fully identical metadata: lowest id wins under every policy.
        let entries = [
            entry(5, 0, 0, 0, 0.5),
            entry(2, 0, 0, 0, 0.5),
            entry(9, 0, 0, 0, 0.5),
        ];
        for policy in EvictionPolicy::standard_set() {
            let victim = policy
                .choose_victim(entries.iter(), SimTime::from_millis(10))
                .unwrap();
            assert_eq!(victim, EntryId(2), "policy {policy}");
        }
    }

    #[test]
    fn names() {
        assert_eq!(EvictionPolicy::Lru.to_string(), "lru");
        assert_eq!(
            EvictionPolicy::Ttl {
                max_age: SimDuration::ZERO
            }
            .name(),
            "ttl"
        );
        assert_eq!(EvictionPolicy::standard_set().len(), 4);
    }
}
