//! Incremental eviction metadata: O(log n) victim selection.
//!
//! [`EvictionPolicy::choose_victim`] re-scans every entry on each
//! insert-at-capacity — O(n) per insert, O(n²) to warm a cache up from
//! empty. This module keeps the policy's ordering key in a `BTreeSet`
//! maintained alongside the entry map, so the victim is the set's first
//! element: O(log n) per metadata update, O(log n) per eviction, and —
//! pinned by randomized tests — *identical* to the full scan's choice
//! for Lru, Lfu and Ttl.
//!
//! The Utility policy scores entries with a ratio of `now`-dependent
//! idle time, which no static ordering captures; it deliberately keeps
//! the full scan (see [`VictimChoice::ScanRequired`]).

use std::collections::BTreeSet;

use simcore::{SimDuration, SimTime};

use crate::entry::{EntryId, Record};
use crate::evict::EvictionPolicy;

/// The ordering-relevant slice of an entry's record, captured before and
/// after each metadata mutation so stale set elements can be removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EntryMeta {
    pub id: u64,
    pub inserted_at: SimTime,
    pub last_used: SimTime,
    pub uses: u64,
}

impl EntryMeta {
    pub(crate) fn of<L>(record: &Record<L>) -> EntryMeta {
        EntryMeta {
            id: record.id.0,
            inserted_at: record.inserted_at,
            last_used: record.last_used,
            uses: record.uses,
        }
    }
}

/// What [`VictimIndex::victim`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VictimChoice {
    /// The victim under the maintained ordering.
    Found(EntryId),
    /// No entries are tracked.
    Empty,
    /// The policy needs a full scan (Utility's score depends on `now`).
    ScanRequired,
}

/// Per-store eviction metadata.
#[derive(Debug)]
pub(crate) enum VictimIndex {
    /// `(last_used, id)` minimum.
    Lru {
        by_recency: BTreeSet<(SimTime, u64)>,
    },
    /// `(uses, last_used, id)` minimum.
    Lfu {
        by_frequency: BTreeSet<(u64, SimTime, u64)>,
    },
    /// Expired-first via `(inserted_at, id)`, else the Lru fallback.
    Ttl {
        max_age: SimDuration,
        by_inserted: BTreeSet<(SimTime, u64)>,
        by_recency: BTreeSet<(SimTime, u64)>,
    },
    /// No structure maintained: `now`-dependent score, full scan.
    Utility,
}

impl VictimIndex {
    /// An empty index for `policy`.
    pub(crate) fn new(policy: EvictionPolicy) -> VictimIndex {
        match policy {
            EvictionPolicy::Lru => VictimIndex::Lru {
                by_recency: BTreeSet::new(),
            },
            EvictionPolicy::Lfu => VictimIndex::Lfu {
                by_frequency: BTreeSet::new(),
            },
            EvictionPolicy::Ttl { max_age } => VictimIndex::Ttl {
                max_age,
                by_inserted: BTreeSet::new(),
                by_recency: BTreeSet::new(),
            },
            EvictionPolicy::Utility => VictimIndex::Utility,
        }
    }

    /// Registers a new entry.
    pub(crate) fn on_insert(&mut self, meta: EntryMeta) {
        match self {
            VictimIndex::Lru { by_recency } => {
                by_recency.insert((meta.last_used, meta.id));
            }
            VictimIndex::Lfu { by_frequency } => {
                by_frequency.insert((meta.uses, meta.last_used, meta.id));
            }
            VictimIndex::Ttl {
                by_inserted,
                by_recency,
                ..
            } => {
                by_inserted.insert((meta.inserted_at, meta.id));
                by_recency.insert((meta.last_used, meta.id));
            }
            VictimIndex::Utility => {}
        }
    }

    /// Re-keys an entry whose recency/frequency metadata changed.
    pub(crate) fn on_update(&mut self, before: EntryMeta, after: EntryMeta) {
        match self {
            VictimIndex::Lru { by_recency } => {
                by_recency.remove(&(before.last_used, before.id));
                by_recency.insert((after.last_used, after.id));
            }
            VictimIndex::Lfu { by_frequency } => {
                by_frequency.remove(&(before.uses, before.last_used, before.id));
                by_frequency.insert((after.uses, after.last_used, after.id));
            }
            VictimIndex::Ttl { by_recency, .. } => {
                // `inserted_at` never changes after insert.
                by_recency.remove(&(before.last_used, before.id));
                by_recency.insert((after.last_used, after.id));
            }
            VictimIndex::Utility => {}
        }
    }

    /// Drops a removed entry's metadata.
    pub(crate) fn on_remove(&mut self, meta: EntryMeta) {
        match self {
            VictimIndex::Lru { by_recency } => {
                by_recency.remove(&(meta.last_used, meta.id));
            }
            VictimIndex::Lfu { by_frequency } => {
                by_frequency.remove(&(meta.uses, meta.last_used, meta.id));
            }
            VictimIndex::Ttl {
                by_inserted,
                by_recency,
                ..
            } => {
                by_inserted.remove(&(meta.inserted_at, meta.id));
                by_recency.remove(&(meta.last_used, meta.id));
            }
            VictimIndex::Utility => {}
        }
    }

    /// Forgets everything.
    pub(crate) fn clear(&mut self) {
        match self {
            VictimIndex::Lru { by_recency } => by_recency.clear(),
            VictimIndex::Lfu { by_frequency } => by_frequency.clear(),
            VictimIndex::Ttl {
                by_inserted,
                by_recency,
                ..
            } => {
                by_inserted.clear();
                by_recency.clear();
            }
            VictimIndex::Utility => {}
        }
    }

    /// The victim under the maintained ordering at `now` — O(log n),
    /// reading only the first set element.
    pub(crate) fn victim(&self, now: SimTime) -> VictimChoice {
        match self {
            VictimIndex::Lru { by_recency } => match by_recency.first() {
                Some(&(_, id)) => VictimChoice::Found(EntryId(id)),
                None => VictimChoice::Empty,
            },
            VictimIndex::Lfu { by_frequency } => match by_frequency.first() {
                Some(&(_, _, id)) => VictimChoice::Found(EntryId(id)),
                None => VictimChoice::Empty,
            },
            VictimIndex::Ttl {
                max_age,
                by_inserted,
                by_recency,
            } => {
                // The global `(inserted_at, id)` minimum is expired iff
                // *any* entry is expired (all others are younger), and
                // when expired it is exactly the full scan's oldest
                // expired entry.
                if let Some(&(inserted_at, id)) = by_inserted.first() {
                    if now.saturating_duration_since(inserted_at) > *max_age {
                        return VictimChoice::Found(EntryId(id));
                    }
                }
                match by_recency.first() {
                    Some(&(_, id)) => VictimChoice::Found(EntryId(id)),
                    None => VictimChoice::Empty,
                }
            }
            VictimIndex::Utility => VictimChoice::ScanRequired,
        }
    }

    /// Number of tracked entries (0 for scan-only modes).
    #[cfg(test)]
    fn tracked(&self) -> usize {
        match self {
            VictimIndex::Lru { by_recency } => by_recency.len(),
            VictimIndex::Lfu { by_frequency } => by_frequency.len(),
            VictimIndex::Ttl { by_recency, .. } => by_recency.len(),
            VictimIndex::Utility => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntrySource;
    use simcore::SimRng;

    fn entry(id: u64, inserted_ms: u64, used_ms: u64, uses: u64) -> Record<u32> {
        Record {
            id: EntryId(id),
            label: 0,
            confidence: 0.9,
            inserted_at: SimTime::from_millis(inserted_ms),
            last_used: SimTime::from_millis(used_ms),
            uses,
            source: EntrySource::LocalInference,
        }
    }

    fn policies() -> [EvictionPolicy; 3] {
        [
            EvictionPolicy::Lru,
            EvictionPolicy::Lfu,
            EvictionPolicy::Ttl {
                max_age: SimDuration::from_millis(400),
            },
        ]
    }

    /// The pinning test the O(log n) refactor hangs on: a randomized
    /// insert/touch/remove workload where after *every* step the index's
    /// victim equals the old full scan's victim, for Lru, Lfu and Ttl.
    #[test]
    fn victim_matches_full_scan_on_randomized_workloads() {
        for policy in policies() {
            let mut rng = SimRng::seed(0x5eed).split(policy.name());
            let mut index = VictimIndex::new(policy);
            let mut entries: Vec<Record<u32>> = Vec::new();
            let mut next_id = 0u64;
            for step in 0..600u64 {
                let now = SimTime::from_millis(step * 13);
                let action = rng.index(4);
                if entries.is_empty() || action == 0 {
                    // Insert, with deliberately colliding timestamps so
                    // the id tiebreaks get exercised.
                    let inserted = SimTime::from_millis((step / 3) * 20);
                    let e = Record {
                        inserted_at: inserted,
                        last_used: inserted,
                        ..entry(next_id, 0, 0, 0)
                    };
                    next_id += 1;
                    index.on_insert(EntryMeta::of(&e));
                    entries.push(e);
                } else if action == 1 {
                    // Touch a random entry (a cache hit).
                    let i = rng.index(entries.len());
                    let e = &mut entries[i];
                    let before = EntryMeta::of(e);
                    e.last_used = now;
                    e.uses += 1;
                    index.on_update(before, EntryMeta::of(e));
                } else if action == 2 && entries.len() > 1 {
                    // Remove a random entry.
                    let i = rng.index(entries.len());
                    let e = entries.swap_remove(i);
                    index.on_remove(EntryMeta::of(&e));
                }
                let fast = index.victim(now);
                let slow = policy.choose_victim(entries.iter(), now);
                match (fast, slow) {
                    (VictimChoice::Found(a), Some(b)) => {
                        assert_eq!(a, b, "policy {policy} step {step}: index != full scan")
                    }
                    (VictimChoice::Empty, None) => {}
                    other => panic!("policy {policy} step {step}: {other:?}"),
                }
                assert_eq!(index.tracked(), entries.len(), "policy {policy}");
            }
        }
    }

    #[test]
    fn utility_requires_a_scan() {
        let index = VictimIndex::new(EvictionPolicy::Utility);
        assert_eq!(index.victim(SimTime::ZERO), VictimChoice::ScanRequired);
    }

    #[test]
    fn ttl_front_expiry_check_is_exact() {
        let max_age = SimDuration::from_millis(100);
        let mut index = VictimIndex::new(EvictionPolicy::Ttl { max_age });
        let fresh = entry(1, 950, 960, 0);
        let stale = entry(2, 0, 999, 9); // old insert, hot use
        index.on_insert(EntryMeta::of(&fresh));
        index.on_insert(EntryMeta::of(&stale));
        // Stale entry expired: expiry branch beats the recency order.
        assert_eq!(
            index.victim(SimTime::from_millis(1_000)),
            VictimChoice::Found(EntryId(2))
        );
        index.on_remove(EntryMeta::of(&stale));
        // Nothing expired: LRU fallback.
        assert_eq!(
            index.victim(SimTime::from_millis(1_000)),
            VictimChoice::Found(EntryId(1))
        );
    }
}
