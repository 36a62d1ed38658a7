//! The shard-merge algebra the fleet engine relies on.
//!
//! `fleet::run_fleet` folds per-shard results with `merge` and claims
//! the outcome is independent of shard count and completion order.
//! That holds iff every merged structure forms a commutative monoid:
//! `merge` must be commutative and associative with the default value
//! as identity. These properties are checked here for every structure
//! the fleet merges — cache stats, transport counters and resilience
//! counters — and for the edge counters, which `EdgeCache::apply_batch`
//! gathers per batch and merges into its shared total, plus the headline
//! theorem itself: an N-shard run's report is byte-for-byte the 1-shard
//! run's report. Frame outcomes, latencies included, are not merged: the
//! fleet concatenates them in device order.

use std::num::NonZeroUsize;

use approxcache::{run_fleet, FleetOptions, PipelineConfig, Scenario, SystemVariant};
use edge::EdgeCounters;
use imu::MotionProfile;
use p2pnet::{ResilienceCounters, TransportCounters};
use proptest::prelude::*;
use reuse::CacheStats;
use simcore::SimDuration;

/// A balanced `CacheStats`: `lookups == hits + misses()` is an invariant
/// the structure debug-asserts, so the generator derives `lookups`.
fn arb_cache_stats() -> impl Strategy<Value = CacheStats> {
    (
        proptest::collection::vec(0u64..1_000, 5),
        proptest::collection::vec(0u64..1_000, 6),
    )
        .prop_map(|(balance, rest)| {
            let mut stats = CacheStats::default();
            let mut balance = balance.into_iter();
            stats.hits = balance.next().unwrap_or(0);
            stats.miss_empty = balance.next().unwrap_or(0);
            stats.miss_too_far = balance.next().unwrap_or(0);
            stats.miss_not_homogeneous = balance.next().unwrap_or(0);
            stats.miss_insufficient_support = balance.next().unwrap_or(0);
            stats.lookups = stats.hits + stats.misses();
            let mut rest = rest.into_iter();
            stats.inserts = rest.next().unwrap_or(0);
            stats.refreshes = rest.next().unwrap_or(0);
            stats.rejected = rest.next().unwrap_or(0);
            stats.evictions = rest.next().unwrap_or(0);
            stats.removals = rest.next().unwrap_or(0);
            stats.expirations = rest.next().unwrap_or(0);
            stats
        })
}

fn arb_transport() -> impl Strategy<Value = TransportCounters> {
    (0u64..10_000, 0u64..10_000, 0u64..10_000, 0u64..1 << 32).prop_map(
        |(sent, delivered, lost, bytes)| TransportCounters {
            messages_sent: sent,
            messages_delivered: delivered,
            messages_lost: lost,
            bytes_sent: bytes,
        },
    )
}

fn arb_resilience() -> impl Strategy<Value = ResilienceCounters> {
    proptest::collection::vec(0u64..1_000, 9).prop_map(|v| {
        let mut it = v.into_iter();
        let mut next = || it.next().unwrap_or(0);
        ResilienceCounters {
            outage_frames: next(),
            crashes: next(),
            poisoned_ads: next(),
            ad_retries: next(),
            ad_abandoned: next(),
            quarantines: next(),
            reprobes: next(),
            breaker_skips: next(),
            peer_fallbacks: next(),
        }
    })
}

fn arb_edge_counters() -> impl Strategy<Value = EdgeCounters> {
    proptest::collection::vec(0u64..1_000, 9).prop_map(|v| {
        let mut it = v.into_iter();
        let mut next = || it.next().unwrap_or(0);
        EdgeCounters {
            batches: next(),
            lookups: next(),
            hits: next(),
            inserts: next(),
            gossip_entries: next(),
            overloads: next(),
            queries_sent: next(),
            query_timeouts: next(),
            hits_adopted: next(),
        }
    })
}

fn merged<T: Clone>(a: &T, b: &T, merge: impl Fn(&mut T, &T)) -> T {
    let mut out = a.clone();
    merge(&mut out, b);
    out
}

/// Checks the commutative-monoid laws for one `(T, merge, identity)`.
fn monoid_laws<T: Clone + PartialEq + std::fmt::Debug>(
    a: &T,
    b: &T,
    c: &T,
    identity: &T,
    merge: impl Fn(&mut T, &T) + Copy,
) -> Result<(), TestCaseError> {
    // Commutativity, associativity, and identity — in that order.
    prop_assert_eq!(merged(a, b, merge), merged(b, a, merge));
    prop_assert_eq!(
        merged(&merged(a, b, merge), c, merge),
        merged(a, &merged(b, c, merge), merge)
    );
    prop_assert_eq!(merged(a, identity, merge), a.clone());
    Ok(())
}

proptest! {
    #[test]
    fn cache_stats_merge_is_a_commutative_monoid(
        a in arb_cache_stats(),
        b in arb_cache_stats(),
        c in arb_cache_stats(),
    ) {
        monoid_laws(&a, &b, &c, &CacheStats::default(), |x, y| x.merge(y))?;
    }

    #[test]
    fn transport_counters_merge_is_a_commutative_monoid(
        a in arb_transport(),
        b in arb_transport(),
        c in arb_transport(),
    ) {
        monoid_laws(&a, &b, &c, &TransportCounters::default(), |x, y| x.merge(y))?;
    }

    #[test]
    fn resilience_counters_merge_is_a_commutative_monoid(
        a in arb_resilience(),
        b in arb_resilience(),
        c in arb_resilience(),
    ) {
        monoid_laws(&a, &b, &c, &ResilienceCounters::default(), |x, y| x.merge(y))?;
    }

    #[test]
    fn edge_counters_merge_is_a_commutative_monoid(
        a in arb_edge_counters(),
        b in arb_edge_counters(),
        c in arb_edge_counters(),
    ) {
        monoid_laws(&a, &b, &c, &EdgeCounters::default(), |x, y| x.merge(y))?;
    }
}

proptest! {
    // Each case plays out two full fleet simulations; a handful of
    // random (seed, population, shard-count) draws is plenty on top of
    // the pinned unit tests in `fleet::tests`.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline theorem: N shards on several workers produce the
    /// same bytes as 1 shard on 1 worker, for arbitrary seeds and
    /// populations.
    #[test]
    fn sharded_report_matches_single_shard(
        seed in 0u64..1_000,
        devices in 2usize..7,
        shards in 2usize..8,
    ) {
        let scenario = Scenario::multi_device(
            MotionProfile::SlowPan { deg_per_sec: 20.0 },
            devices,
        )
        .with_duration(SimDuration::from_secs(3));
        let config = PipelineConfig::calibrated(&scenario, seed);
        let single = run_fleet(
            &scenario,
            &config,
            SystemVariant::Full,
            seed,
            &FleetOptions::single(),
        )
        .expect("valid scenario");
        let sharded = run_fleet(
            &scenario,
            &config,
            SystemVariant::Full,
            seed,
            &FleetOptions {
                shards,
                threads: NonZeroUsize::new(3).expect("positive"),
            },
        )
        .expect("valid scenario");
        prop_assert_eq!(sharded.to_json(), single.to_json());
    }
}
