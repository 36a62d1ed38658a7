//! A mergeable fixed-bucket latency digest.
//!
//! [`Summary`] needs the raw sample set, which a
//! sharded or swept run no longer has in one place. [`LatencyDigest`]
//! is the mergeable counterpart: samples land in a *fixed* bank of
//! log-spaced buckets (HDR-style: exact below 16 ns, eight sub-buckets
//! per octave above, ≤ 12.5 % relative width), and every piece of state
//! is an integer — bucket counts, nanosecond sum, nanosecond min/max.
//! Merging two digests is therefore plain integer addition and min/max,
//! which makes [`merge`](LatencyDigest::merge) exactly commutative and
//! associative: any tree of shard-merges yields the bit-identical
//! digest, independent of order. Derived statistics (mean, quantiles,
//! [`to_summary`](LatencyDigest::to_summary)) are pure functions of that
//! state, so they inherit the same order-independence.

use serde::{Deserialize, Serialize};

use crate::stats::Summary;

/// Sub-bucket resolution: eight sub-buckets per power-of-two octave.
const SUB_BITS: u32 = 3;
const SUBS: u64 = 1 << SUB_BITS;
/// Values below `2 * SUBS` get one exact bucket each.
const EXACT: u64 = SUBS * 2;
/// Total bucket count for the full `u64` nanosecond range.
const NUM_BUCKETS: usize = EXACT as usize + ((63 - SUB_BITS) as usize) * (SUBS as usize);

/// Bucket index for a nanosecond value. Monotone in `v`.
fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = (v >> (octave - SUB_BITS)) - SUBS;
    EXACT as usize + ((octave - SUB_BITS - 1) as usize) * (SUBS as usize) + sub as usize
}

/// Inclusive lower edge (ns) of bucket `b`.
fn bucket_lower(b: usize) -> u64 {
    if (b as u64) < EXACT {
        return b as u64;
    }
    let rel = b - EXACT as usize;
    let octave = SUB_BITS + 1 + (rel / SUBS as usize) as u32;
    let sub = (rel % SUBS as usize) as u64;
    (SUBS + sub) << (octave - SUB_BITS)
}

/// Representative value (ns) reported for samples in bucket `b`: the
/// exact value for exact buckets, the bucket midpoint otherwise.
fn bucket_representative(b: usize) -> f64 {
    if (b as u64) < EXACT {
        return b as f64;
    }
    let lower = bucket_lower(b);
    let upper = if b + 1 < NUM_BUCKETS {
        bucket_lower(b + 1)
    } else {
        u64::MAX
    };
    (lower as f64 + upper as f64) / 2.0
}

const NS_PER_MS: f64 = 1e6;

/// A mergeable fixed-bucket latency histogram (state is all-integer, so
/// merge order can never change the result).
///
/// # Example
///
/// ```
/// use simcore::LatencyDigest;
///
/// let mut a = LatencyDigest::new();
/// let mut b = LatencyDigest::new();
/// a.record_ms(1.5);
/// b.record_ms(40.0);
/// a.merge(&b);
/// assert_eq!(a.count(), 2);
/// assert!((a.mean_ms() - 20.75).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(from = "DigestRepr", into = "DigestRepr")]
pub struct LatencyDigest {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyDigest {
    fn default() -> Self {
        LatencyDigest::new()
    }
}

impl LatencyDigest {
    /// Creates an empty digest.
    pub fn new() -> LatencyDigest {
        LatencyDigest {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency sample in milliseconds (quantized to whole
    /// nanoseconds, which is below the digest's bucket resolution).
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn record_ms(&mut self, ms: f64) {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "record_ms: sample must be finite and non-negative, got {ms}"
        );
        // `as u64` saturates, so absurdly large samples land in the top
        // bucket instead of wrapping.
        let ns = (ms * NS_PER_MS).round() as u64;
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds another digest into this one. Pure integer sums and
    /// min/max: exactly commutative and associative.
    pub fn merge(&mut self, other: &LatencyDigest) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean in milliseconds (0.0 if empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_ns as f64 / self.count as f64) / NS_PER_MS
        }
    }

    /// Exact minimum in milliseconds (0.0 if empty).
    pub fn min_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min_ns as f64 / NS_PER_MS
        }
    }

    /// Exact maximum in milliseconds (0.0 if empty).
    pub fn max_ms(&self) -> f64 {
        self.max_ns as f64 / NS_PER_MS
    }

    /// Approximate `q`-quantile in milliseconds (bucket representative,
    /// ≤ 12.5 % relative error; exact min/max clamp the tails).
    ///
    /// # Panics
    ///
    /// Panics if the digest is empty or `q` is outside `[0, 1]`.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile_ms: empty digest");
        assert!((0.0..=1.0).contains(&q), "quantile_ms: q out of range: {q}");
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= target {
                let rep = bucket_representative(b) / NS_PER_MS;
                return rep.clamp(self.min_ms(), self.max_ms());
            }
        }
        self.max_ms()
    }

    /// Approximate population standard deviation in milliseconds,
    /// computed from bucket representatives (deterministic given the
    /// digest state).
    pub fn std_dev_ms(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let mean = self.mean_ms();
        let mut var = 0.0;
        for (b, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let rep = bucket_representative(b) / NS_PER_MS;
            var += n as f64 * (rep - mean) * (rep - mean);
        }
        (var / self.count as f64).sqrt()
    }

    /// Condenses the digest into a [`Summary`]-shaped record: count,
    /// mean, min and max are exact; percentiles and std-dev carry the
    /// bucket approximation.
    pub fn to_summary(&self) -> Summary {
        if self.count == 0 {
            return Summary::from_samples(&[]);
        }
        Summary {
            count: usize::try_from(self.count).unwrap_or(usize::MAX),
            mean: self.mean_ms(),
            std_dev: self.std_dev_ms(),
            min: self.min_ms(),
            max: self.max_ms(),
            p50: self.quantile_ms(0.50),
            p90: self.quantile_ms(0.90),
            p95: self.quantile_ms(0.95),
            p99: self.quantile_ms(0.99),
        }
    }
}

/// Sparse on-disk form: only non-empty buckets are written, so a job
/// state file stays readable.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DigestRepr {
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
    buckets: Vec<(u32, u64)>,
}

impl From<LatencyDigest> for DigestRepr {
    fn from(digest: LatencyDigest) -> DigestRepr {
        DigestRepr {
            sum_ns: digest.sum_ns,
            min_ns: digest.min_ns,
            max_ns: digest.max_ns,
            buckets: digest
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(b, &n)| (b as u32, n))
                .collect(),
        }
    }
}

impl From<DigestRepr> for LatencyDigest {
    fn from(repr: DigestRepr) -> LatencyDigest {
        let mut digest = LatencyDigest::new();
        for (b, n) in repr.buckets {
            let slot = (b as usize).min(NUM_BUCKETS - 1);
            digest.counts[slot] += n;
            digest.count += n;
        }
        digest.sum_ns = repr.sum_ns;
        digest.min_ns = repr.min_ns;
        digest.max_ns = repr.max_ns;
        digest
    }
}

#[cfg(test)]
// Tests compare exactly-constructed integer-backed floats.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn bucket_function_is_monotone_and_in_range() {
        for shift in 0..64u32 {
            for nudge in [0u64, 1, 3] {
                let v = (1u64 << shift).saturating_add(nudge);
                let b = bucket_of(v);
                assert!(b < NUM_BUCKETS, "bucket {b} out of range for {v}");
                if v < u64::MAX {
                    assert!(
                        bucket_of(v + 1) >= b,
                        "bucket must be monotone at {v} -> {}",
                        v + 1
                    );
                }
                if v > 0 {
                    assert!(
                        bucket_of(v - 1) <= b,
                        "bucket must be monotone at {} -> {v}",
                        v - 1
                    );
                }
            }
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_lower_inverts_bucket_of() {
        for b in 0..NUM_BUCKETS {
            let lower = bucket_lower(b);
            assert_eq!(bucket_of(lower), b, "lower edge of bucket {b}");
            if lower > 0 {
                assert_eq!(bucket_of(lower - 1), b - 1, "below lower edge of {b}");
            }
        }
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut d = LatencyDigest::new();
        for ms in [1.0, 2.0, 3.0, 10.0] {
            d.record_ms(ms);
        }
        assert_eq!(d.count(), 4);
        assert_eq!(d.mean_ms(), 4.0);
        assert_eq!(d.min_ms(), 1.0);
        assert_eq!(d.max_ms(), 10.0);
    }

    #[test]
    fn merge_equals_single_stream() {
        let samples: Vec<f64> = (1..200).map(|i| (i * i) as f64 * 0.013).collect();
        let mut whole = LatencyDigest::new();
        samples.iter().for_each(|&x| whole.record_ms(x));
        let mut left = LatencyDigest::new();
        let mut right = LatencyDigest::new();
        for (i, &x) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.record_ms(x);
            } else {
                right.record_ms(x);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut d = LatencyDigest::new();
        d.record_ms(5.0);
        let before = d.clone();
        d.merge(&LatencyDigest::new());
        assert_eq!(d, before);
        let mut empty = LatencyDigest::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn quantiles_are_close_to_exact() {
        let samples: Vec<f64> = (0..1000).map(|i| 1.0 + (i as f64) * 0.25).collect();
        let mut d = LatencyDigest::new();
        samples.iter().for_each(|&x| d.record_ms(x));
        let exact = Summary::from_samples(&samples);
        let approx = d.to_summary();
        for (a, e) in [
            (approx.p50, exact.p50),
            (approx.p90, exact.p90),
            (approx.p99, exact.p99),
        ] {
            let rel = (a - e).abs() / e;
            assert!(rel < 0.13, "quantile off by {rel}: approx {a} vs exact {e}");
        }
        assert_eq!(approx.count, exact.count);
        assert_eq!(approx.min, exact.min);
        assert_eq!(approx.max, exact.max);
    }

    #[test]
    fn empty_digest_summarizes_to_zeros() {
        let d = LatencyDigest::new();
        assert!(d.is_empty());
        let s = d.to_summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn serde_round_trip_is_lossless() {
        let mut d = LatencyDigest::new();
        for ms in [0.0, 0.5, 3.25, 17.0, 400.0, 12345.6] {
            d.record_ms(ms);
        }
        let json = serde_json::to_string(&d).expect("serialize");
        let back: LatencyDigest = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, d);
    }
}
