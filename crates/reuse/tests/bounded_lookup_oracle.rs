//! Store-level equivalence for the threshold-bounded lookup.
//!
//! `ApproxCache::lookup` asks its index only for neighbours within the
//! A-kNN distance threshold (`NnIndex::nearest_within_into`) and maps
//! "nothing within it" to `MissReason::TooFar`. The claim that makes
//! this a pure cost change is that no caller can tell: the in-threshold
//! members of the unbounded top-k are the top-k of the in-threshold
//! set, so the vote sees the same voters.
//!
//! This suite holds the store to that claim from outside. It drives a
//! [`SharedCache`] through random histories of inserts, lookups, expiry
//! sweeps and threshold moves, and checks every lookup against an oracle
//! that knows nothing of the bound: the **unbounded** top-k of
//! [`ReferenceLinearScan`] over every cached entry, fed to
//! [`ann::aknn::decide`]. Equal means the whole [`LookupResult`] (label,
//! served entry, nearest distance, support, homogeneity, or the exact
//! [`MissReason`]), the entry a hit touches and nothing else, and at the
//! end every [`CacheStats`] field.
//!
//! Half the cases put keys on an integer grid and thresholds on the
//! distances that grid produces (1, √2, √3, 2, √5, 3), so neighbours at
//! *exactly* the threshold — where an exclusive bound or a squared limit
//! a few ulps short would drop a voter — are the norm; the other half
//! move the threshold onto the last query's nearest distance and ask
//! again.

use ann::aknn::{decide, AknnOutcome};
use ann::linear::ReferenceLinearScan;
use ann::{AknnConfig, MissReason, NnIndex};
use features::FeatureVector;
use proptest::prelude::*;
use reuse::{
    AdmissionPolicy, CacheConfig, CacheEntry, CacheStats, EntryId, EntrySource, InsertOutcome,
    LookupResult, SharedCache,
};
use simcore::{SimDuration, SimTime};

const DIM: usize = 3;
const CAPACITY: usize = 16;

/// SplitMix64: one deterministic word per `(seed, salt)`, independent of
/// the proptest RNG so a failing history replays from its arguments.
fn word(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw from `[0, 1)`.
fn unit(seed: u64, salt: u64) -> f64 {
    (word(seed, salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// A key around one of four centres spaced 8 apart: on the grid, integer
/// offsets in `{-2, …, 2}` (duplicates and exact distances abound); off
/// it, jitter of about a threshold.
fn key(grid: bool, seed: u64, salt: u64) -> FeatureVector {
    let centre = (word(seed, salt) % 4) as f32 * 8.0;
    let components: Vec<f32> = (0..DIM as u64)
        .map(|d| {
            let u = unit(seed, salt ^ (d + 1) << 32) as f32;
            let offset = if grid {
                (u * 5.0).floor() - 2.0
            } else {
                (u - 0.5) * 1.6
            };
            if d == 0 {
                centre + offset
            } else {
                offset
            }
        })
        .collect();
    FeatureVector::from_vec(components).unwrap()
}

/// What an unbounded store would answer: the reference's top-k over
/// `entries`, through the vote, serving the nearest entry
/// that carries the winning label. Beside it, the distance of the
/// nearest entry, if there is one.
fn oracle_lookup(
    entries: &[&CacheEntry<u32>],
    query: &FeatureVector,
    aknn: &AknnConfig,
) -> (LookupResult<u32>, Option<f64>) {
    if entries.is_empty() {
        return (LookupResult::Miss(MissReason::EmptyIndex), None);
    }
    let mut reference = ReferenceLinearScan::new(DIM);
    for entry in entries {
        reference.insert(entry.id.0, entry.key.clone());
    }
    let entry_of = |id: u64| entries.iter().find(|e| e.id.0 == id).unwrap();
    let label_of = |id: u64| entry_of(id).label;
    let top = reference.nearest(query, aknn.k);
    let voters: Vec<(f64, u32)> = top.iter().map(|n| (n.distance, label_of(n.id))).collect();
    let verdict = match decide(&voters, aknn) {
        AknnOutcome::Hit {
            label,
            nearest_distance,
            support,
            homogeneity,
        } => {
            let served = top.iter().find(|n| label_of(n.id) == label).unwrap();
            LookupResult::Hit {
                label,
                entry: EntryId(served.id),
                confidence: entry_of(served.id).confidence,
                nearest_distance,
                support,
                homogeneity,
            }
        }
        AknnOutcome::Miss(reason) => LookupResult::Miss(reason),
    };
    (verdict, top.first().map(|n| n.distance))
}

/// The thresholds a grid history moves between: each is exactly the
/// distance between some pair of grid keys.
fn grid_thresholds() -> [f64; 6] {
    [1.0, 2f64.sqrt(), 3f64.sqrt(), 2.0, 5f64.sqrt(), 3.0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_lookup_equals_the_unbounded_oracle(
        seed in 0u64..1_000_000,
        grid in any::<bool>(),
        k in 1usize..6,
        min_support in 1usize..4,
        homogeneity_step in 0usize..3,
        ops in proptest::collection::vec(0u8..20, 1..160),
    ) {
        let mut aknn = AknnConfig {
            k,
            distance_threshold: 1.0,
            homogeneity: [0.5, 0.75, 1.0][homogeneity_step],
            min_support,
        };
        let config = CacheConfig::new(CAPACITY)
            .with_aknn(aknn)
            .with_admission(AdmissionPolicy {
                min_confidence: 0.6,
                min_peer_confidence: 0.7,
                dedup_distance: 0.25,
            });
        let cache: SharedCache<u32> = SharedCache::new(config);
        let mut want_stats = CacheStats::default();
        let mut last_query: Option<(FeatureVector, f64)> = None;

        for (step, &op) in ops.iter().enumerate() {
            let salt = step as u64;
            let now = SimTime::from_millis(salt * 10);
            match op {
                // Insert: three labels, so neighbourhoods mix.
                0..=8 => {
                    let label = (word(seed, salt ^ 0x1ABE1) % 3) as u32;
                    let confidence = 0.5 + unit(seed, salt ^ 0xC0F1) * 0.5;
                    let source = if word(seed, salt ^ 0x50CE).is_multiple_of(4) {
                        EntrySource::Peer
                    } else {
                        EntrySource::LocalInference
                    };
                    let before = cache.len();
                    match cache.insert(key(grid, seed, salt), label, confidence, source, now) {
                        InsertOutcome::Inserted(_) => {
                            want_stats.record_insert();
                            if cache.len() == before {
                                want_stats.record_eviction();
                            }
                        }
                        InsertOutcome::Refreshed(_) => want_stats.record_refresh(),
                        InsertOutcome::Rejected => want_stats.record_rejected(),
                    }
                }
                // Lookup: a fresh key, or the last query again
                // (after the threshold may have moved onto it).
                9..=15 => {
                    let query = match &last_query {
                        Some((q, _)) if op == 15 => q.clone(),
                        _ => key(grid, seed, salt),
                    };
                    let before = cache.snapshot(now);
                    let resident: Vec<&CacheEntry<u32>> = before.entries.iter().collect();
                    let (want, nearest) = oracle_lookup(&resident, &query, &aknn);
                    let got = cache.lookup(&query, now);
                    prop_assert!(
                        got == want,
                        "step {}: lookup of {:?} at threshold {:e} \
                         answered {:?}, the oracle {:?}",
                        step, query.as_slice(),
                        aknn.distance_threshold, got, want
                    );
                    want_stats.record_lookup();
                    let mut after_want = before.clone();
                    match want {
                        LookupResult::Hit { entry, .. } => {
                            want_stats.record_hit();
                            let touched = after_want
                                .entries
                                .iter_mut()
                                .find(|e| e.id == entry)
                                .unwrap();
                            touched.uses += 1;
                            touched.last_used = now;
                        }
                        LookupResult::Miss(reason) => want_stats.record_miss(reason),
                    }
                    if let Some(nearest) = nearest.filter(|&d| d > 0.0) {
                        last_query = Some((query, nearest));
                    }
                    // A hit touches the served entry; nothing
                    // else in the store moves.
                    prop_assert_eq!(&cache.snapshot(now).entries, &after_want.entries);
                }
                // Expire: sometimes everything, leaving an index
                // that exists but is empty.
                16 | 17 => {
                    let max_age = if op == 17 {
                        SimDuration::ZERO
                    } else {
                        SimDuration::from_millis(50 + word(seed, salt) % 400)
                    };
                    let dropped = cache.expire_older_than(now, max_age);
                    want_stats.record_expirations(dropped as u64);
                }
                // Move the threshold, as adaptive controllers do:
                // onto a grid distance, onto the last query's
                // nearest distance exactly, or anywhere.
                _ => {
                    let threshold = match (&last_query, grid) {
                        (Some((_, nearest)), false) if op == 18 => *nearest,
                        (_, true) => {
                            let choices = grid_thresholds();
                            choices[(word(seed, salt) % choices.len() as u64) as usize]
                        }
                        _ => 0.2 + unit(seed, salt) * 1.8,
                    };
                    cache.set_distance_threshold(threshold);
                    aknn.distance_threshold = threshold;
                }
            }
        }
        prop_assert_eq!(cache.stats(), want_stats);
    }
}

/// Every verdict on one legible history, the bound's own corners
/// included: a neighbour at exactly the threshold votes, one ulp tighter
/// it is `TooFar`, and an index emptied by expiry is still `EmptyIndex`.
#[test]
fn pinned_histories_reach_every_verdict_and_the_inclusive_boundary() {
    let fv = |c: [f32; DIM]| FeatureVector::from_vec(c.to_vec()).unwrap();
    let aknn = AknnConfig {
        k: 4,
        distance_threshold: 2.0,
        homogeneity: 0.75,
        min_support: 2,
    };
    let config = CacheConfig::new(CAPACITY)
        .with_aknn(aknn)
        .with_admission(AdmissionPolicy::admit_all());
    let cache: SharedCache<u32> = SharedCache::new(config);
    let at = SimTime::ZERO;
    let origin = fv([0.0, 0.0, 0.0]);
    assert_eq!(
        cache.lookup(&origin, at),
        LookupResult::Miss(MissReason::EmptyIndex)
    );
    // One neighbour at exactly the threshold: in (inclusive), but one
    // voter is short of min_support 2 — not TooFar, not EmptyIndex.
    cache.insert(fv([2.0, 0.0, 0.0]), 7, 1.0, EntrySource::LocalInference, at);
    assert_eq!(
        cache.lookup(&origin, at),
        LookupResult::Miss(MissReason::InsufficientSupport)
    );
    // Tighten by one ulp: the same neighbour is now beyond it, and a
    // non-empty index with nothing in range is TooFar.
    cache.set_distance_threshold(f64::from_bits(2.0f64.to_bits() - 1));
    assert_eq!(
        cache.lookup(&origin, at),
        LookupResult::Miss(MissReason::TooFar)
    );
    cache.set_distance_threshold(2.0);
    // A second label at the threshold: two voters, split.
    cache.insert(fv([0.0, 2.0, 0.0]), 8, 1.0, EntrySource::LocalInference, at);
    assert_eq!(
        cache.lookup(&origin, at),
        LookupResult::Miss(MissReason::NotHomogeneous)
    );
    // Two more of label 7 at the threshold make it 3 of 4.
    cache.insert(fv([0.0, 0.0, 2.0]), 7, 1.0, EntrySource::LocalInference, at);
    cache.insert(
        fv([-2.0, 0.0, 0.0]),
        7,
        1.0,
        EntrySource::LocalInference,
        at,
    );
    match cache.lookup(&origin, at) {
        LookupResult::Hit {
            label,
            entry,
            confidence,
            nearest_distance,
            support,
            homogeneity,
        } => {
            assert_eq!((label, entry, support), (7, EntryId(0), 3));
            assert_eq!(confidence.to_bits(), 1.0f64.to_bits());
            assert_eq!(nearest_distance.to_bits(), 2.0f64.to_bits());
            assert_eq!(homogeneity.to_bits(), 0.75f64.to_bits());
        }
        miss => panic!("expected a hit, got {miss:?}"),
    }
    // Expire everything: the index object survives, empty — the one
    // case where an empty answer still means EmptyIndex.
    cache.expire_older_than(SimTime::from_secs(1), SimDuration::ZERO);
    assert!(cache.is_empty());
    assert_eq!(
        cache.lookup(&origin, at),
        LookupResult::Miss(MissReason::EmptyIndex)
    );
    let stats = cache.stats();
    assert_eq!(
        (
            stats.miss_empty,
            stats.miss_insufficient_support,
            stats.miss_too_far,
            stats.miss_not_homogeneous,
            stats.hits
        ),
        (2, 1, 1, 1, 1)
    );
}
