//! The edge cache: a shared [`reuse::SharedCache`] behind batched
//! operations with bounded-queue backpressure.
//!
//! One [`EdgeCache`] handle is cloned across every client of the tier —
//! simulated devices in one process, or worker threads of the real
//! `edge-server` binary. All mutation goes through
//! [`apply_batch`](EdgeCache::apply_batch), which admits a batch only
//! while the in-flight frame count stays under the configured queue
//! limit and otherwise rejects with [`BatchError::Overloaded`]
//! *immediately* — the edge tier never blocks a mobile caller, because
//! a device can always fall back to local inference for less than the
//! cost of waiting. A batch carrying a key of another dimension than
//! the cache's, or a confidence that is not a finite number, is turned
//! away whole, before the store sees any of it
//! ([`BatchError::KeyDimension`], [`BatchError::Confidence`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use ann::AknnConfig;
use reuse::{CacheConfig, EntrySource, LookupResult, SharedCache};
use simcore::SimTime;

use crate::protocol::{BatchRequest, BatchResponse, EdgeHit, Frame, Reply};

/// Configuration of an [`EdgeCache`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeCacheConfig {
    /// Maximum cached entries.
    pub capacity: usize,
    /// A-kNN distance threshold for the hit test (edge deployments copy
    /// the calibrated device threshold).
    pub distance_threshold: f64,
    /// Most request frames allowed in flight at once; a batch that would
    /// exceed this is rejected with [`BatchError::Overloaded`].
    pub queue_limit: usize,
}

impl Default for EdgeCacheConfig {
    fn default() -> Self {
        EdgeCacheConfig {
            capacity: 4_096,
            distance_threshold: 1.0,
            queue_limit: 1_024,
        }
    }
}

impl EdgeCacheConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.capacity == 0 {
            return Err("EdgeCacheConfig: capacity must be positive");
        }
        if !(self.distance_threshold > 0.0 && self.distance_threshold.is_finite()) {
            return Err("EdgeCacheConfig: distance_threshold must be positive and finite");
        }
        if self.queue_limit == 0 {
            return Err("EdgeCacheConfig: queue_limit must be positive");
        }
        Ok(())
    }
}

/// Why [`EdgeCache::apply_batch`] turned a whole batch away. Either way
/// the store was not touched and no reply was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// The batch would exceed the queue limit — shed it, retry later or
    /// fall back to local inference (`503` over HTTP).
    Overloaded,
    /// A frame's key has another dimension than the keys this cache
    /// holds; the first key a cache admits fixes its dimension. The
    /// request is well-formed on the wire but can never be served
    /// (`400` over HTTP).
    KeyDimension {
        /// Position of the offending frame in the batch.
        frame: usize,
        /// That frame's key dimension.
        got: usize,
        /// The dimension of the cache's keys.
        expected: usize,
    },
    /// An insert or gossip frame's confidence is NaN or infinite, which
    /// the wire decoder refuses too. An in-process caller can still build
    /// such a frame, and the store would panic on a NaN one (`400` over
    /// HTTP).
    Confidence {
        /// Position of the offending frame in the batch.
        frame: usize,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Overloaded => write!(f, "edge cache overloaded: queue limit exceeded"),
            BatchError::KeyDimension {
                frame,
                got,
                expected,
            } => write!(
                f,
                "frame {frame}: key dimension {got} does not match the cache's {expected}"
            ),
            BatchError::Confidence { frame } => {
                write!(f, "frame {frame}: confidence is not a finite number")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// A batch's claim on the bounded queue, given back when it drops — on
/// every way out of [`EdgeCache::apply_batch`], an unwinding panic
/// included, so a failed batch can never leak its slots.
struct QueueSlots<'a> {
    in_flight: &'a AtomicUsize,
    cost: usize,
}

impl Drop for QueueSlots<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(self.cost, Ordering::AcqRel);
    }
}

/// Totals of everything the edge tier did, merged into `RunReport`.
///
/// The first six fields are recorded server-side by [`EdgeCache`]; the
/// last three are recorded device-side by the pipeline (a device counts
/// a query when it *sends* one — the server only sees the ones the WAN
/// delivered). A healthy run reconciles as
/// `hits_adopted ≤ hits ≤ lookups ≤ queries_sent`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeCounters {
    /// Batches the server accepted.
    pub batches: u64,
    /// Lookup frames the server processed.
    pub lookups: u64,
    /// Lookup frames that hit the edge cache.
    pub hits: u64,
    /// Insert frames applied.
    pub inserts: u64,
    /// Gossip-advertisement frames applied.
    pub gossip_entries: u64,
    /// Batches rejected with [`BatchError::Overloaded`].
    pub overloads: u64,
    /// Lookup frames devices handed to the WAN (delivered or not).
    pub queries_sent: u64,
    /// Device-side exchanges the WAN lost (either leg).
    pub query_timeouts: u64,
    /// Edge hits a device adopted into its local cache.
    pub hits_adopted: u64,
}

impl EdgeCounters {
    /// Counts one accepted batch. The single increment site for
    /// `batches` (rule T: one `record_*` helper per field).
    pub fn record_batch(&mut self) {
        self.batches += 1;
    }

    /// Counts one processed lookup frame and, when it hit, the hit.
    pub fn record_lookup(&mut self, hit: bool) {
        self.lookups += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Counts one applied insert frame.
    pub fn record_insert(&mut self) {
        self.inserts += 1;
    }

    /// Counts one applied gossip-advertisement frame.
    pub fn record_gossip(&mut self) {
        self.gossip_entries += 1;
    }

    /// Counts one batch rejected for backpressure.
    pub fn record_overload(&mut self) {
        self.overloads += 1;
    }

    /// Counts lookup frames a device handed to the WAN.
    pub fn record_queries_sent(&mut self, lookups: u64) {
        self.queries_sent += lookups;
    }

    /// Counts one device-side exchange the WAN lost.
    pub fn record_query_timeout(&mut self) {
        self.query_timeouts += 1;
    }

    /// Counts one edge hit adopted into a device's local cache.
    pub fn record_hit_adopted(&mut self) {
        self.hits_adopted += 1;
    }

    /// Adds another counter block.
    pub fn merge(&mut self, other: &EdgeCounters) {
        self.batches += other.batches;
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.inserts += other.inserts;
        self.gossip_entries += other.gossip_entries;
        self.overloads += other.overloads;
        self.queries_sent += other.queries_sent;
        self.query_timeouts += other.query_timeouts;
        self.hits_adopted += other.hits_adopted;
    }

    /// True when the edge tier never ran (the serde skip predicate that
    /// keeps edge-free reports byte-identical to pre-edge goldens).
    pub fn is_idle(&self) -> bool {
        *self == EdgeCounters::default()
    }

    /// Whether the merged totals are mutually consistent (see the type
    /// docs for the inequality chain).
    pub fn reconciles(&self) -> bool {
        self.hits_adopted <= self.hits
            && self.hits <= self.lookups
            && self.lookups <= self.queries_sent
    }
}

impl std::fmt::Display for EdgeCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} batches ({} overloaded), {}/{} lookups hit, {} adopted, {} inserts, {} gossip, {} timeouts",
            self.batches,
            self.overloads,
            self.hits,
            self.lookups,
            self.hits_adopted,
            self.inserts,
            self.gossip_entries,
            self.query_timeouts,
        )
    }
}

/// A cloneable handle to the shared edge cache.
///
/// Lookups answer with the label, confidence and distance of the
/// nearest dominant-label entry; inserts and gossip ads feed the same
/// store with [`EntrySource::LocalInference`] / [`EntrySource::Peer`]
/// provenance respectively, so admission can distinguish first-party
/// results from relayed ones.
#[derive(Debug, Clone)]
pub struct EdgeCache {
    cache: SharedCache<u32>,
    counters: Arc<Mutex<EdgeCounters>>,
    in_flight: Arc<AtomicUsize>,
    queue_limit: usize,
    /// The dimension every key of this cache has: fixed by the first
    /// admitted request that carries a key, `0` until then.
    key_dim: Arc<AtomicUsize>,
}

impl EdgeCache {
    /// Builds the cache; rejects invalid configuration.
    pub fn new(config: EdgeCacheConfig) -> Result<EdgeCache, &'static str> {
        config.validate()?;
        let cache_config = CacheConfig::new(config.capacity).with_aknn(AknnConfig {
            distance_threshold: config.distance_threshold,
            ..AknnConfig::default()
        });
        Ok(EdgeCache {
            cache: SharedCache::new(cache_config),
            counters: Arc::new(Mutex::new(EdgeCounters::default())),
            in_flight: Arc::new(AtomicUsize::new(0)),
            queue_limit: config.queue_limit,
            key_dim: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// Applies one batch, answering every frame in order, or rejects it
    /// outright: when the in-flight frame count would exceed the queue
    /// limit, when a key's dimension is not the cache's (the store would
    /// panic on it), or when a confidence is not finite (the store would
    /// panic on a NaN). Never blocks: the caller decides whether to retry,
    /// shed, or fall back to local inference.
    ///
    /// The batch's counts are gathered apart and merged into the shared
    /// counters once, so the counters lock is never held while the store
    /// works.
    pub fn apply_batch(
        &self,
        request: &BatchRequest,
        now: SimTime,
    ) -> Result<BatchResponse, BatchError> {
        // An empty batch still occupies one queue slot: it costs a parse
        // and a reply, and a flood of them must still trip backpressure.
        let cost = request.frames.len().max(1);
        let before = self.in_flight.fetch_add(cost, Ordering::AcqRel);
        let _slots = QueueSlots {
            in_flight: &self.in_flight,
            cost,
        };
        if before + cost > self.queue_limit {
            self.counters.lock().record_overload();
            return Err(BatchError::Overloaded);
        }
        if let Some(frame) = request.frames.iter().position(|frame| match frame {
            Frame::Insert { confidence, .. } | Frame::GossipAd { confidence, .. } => {
                !confidence.is_finite()
            }
            Frame::Lookup { .. } => false,
        }) {
            return Err(BatchError::Confidence { frame });
        }
        self.admit_key_dims(request.frames.iter().map(|f| f.key().dim()))
            .map_err(|(frame, got, expected)| BatchError::KeyDimension {
                frame,
                got,
                expected,
            })?;
        let mut replies = Vec::with_capacity(request.frames.len());
        let mut counters = EdgeCounters::default();
        counters.record_batch();
        for frame in &request.frames {
            replies.push(self.apply_frame(frame, now, &mut counters));
        }
        self.counters.lock().merge(&counters);
        Ok(BatchResponse { replies })
    }

    /// Holds a request's key dimensions against the cache's, which the
    /// first admitted key fixes for good. `Err` is `(position, its
    /// dimension, the dimension expected)`; a refused request claims
    /// nothing.
    fn admit_key_dims(
        &self,
        dims: impl Iterator<Item = usize> + Clone,
    ) -> Result<(), (usize, usize, usize)> {
        let Some(first) = dims.clone().next() else {
            return Ok(());
        };
        // The atomic publishes nothing but itself.
        let claimed = self.key_dim.load(Ordering::Acquire);
        let expected = if claimed == 0 { first } else { claimed };
        if let Some((at, got)) = dims.enumerate().find(|&(_, dim)| dim != expected) {
            return Err((at, got, expected));
        }
        if claimed == 0 {
            // Two first requests may race; the loser must agree with the
            // winner like any later request.
            match self
                .key_dim
                .compare_exchange(0, expected, Ordering::AcqRel, Ordering::Acquire)
            {
                Err(winner) if winner != expected => return Err((0, expected, winner)),
                _ => {}
            }
        }
        Ok(())
    }

    fn apply_frame(&self, frame: &Frame, now: SimTime, counters: &mut EdgeCounters) -> Reply {
        match frame {
            Frame::Lookup { key } => match self.cache.lookup(key, now) {
                LookupResult::Hit {
                    label,
                    entry,
                    nearest_distance,
                    ..
                } => {
                    counters.record_lookup(true);
                    let confidence = self.cache.entry_confidence(entry).unwrap_or(0.5);
                    Reply::Hit(EdgeHit {
                        label,
                        confidence: confidence.clamp(0.0, 1.0),
                        distance: nearest_distance.max(0.0),
                    })
                }
                LookupResult::Miss(_) => {
                    counters.record_lookup(false);
                    Reply::Miss
                }
            },
            Frame::Insert {
                key,
                label,
                confidence,
            } => {
                counters.record_insert();
                self.cache.insert(
                    key.clone(),
                    *label,
                    confidence.clamp(0.0, 1.0),
                    EntrySource::LocalInference,
                    now,
                );
                Reply::Accepted
            }
            Frame::GossipAd {
                key,
                label,
                confidence,
            } => {
                counters.record_gossip();
                self.cache.insert(
                    key.clone(),
                    *label,
                    confidence.clamp(0.0, 1.0),
                    EntrySource::Peer,
                    now,
                );
                Reply::Accepted
            }
        }
    }

    /// Server-side counters so far.
    pub fn counters(&self) -> EdgeCounters {
        *self.counters.lock()
    }

    /// Request frames admitted and not yet answered — what the queue
    /// limit bounds. Back to zero whenever no batch is being applied.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Replaces the A-kNN distance threshold (used by the sim to copy
    /// the device-calibrated threshold onto the shared tier).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive and finite.
    pub fn set_distance_threshold(&self, threshold: f64) {
        self.cache.set_distance_threshold(threshold);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use features::FeatureVector;

    fn key(components: &[f32]) -> FeatureVector {
        FeatureVector::from_vec(components.to_vec()).unwrap()
    }

    fn cache_with_limit(queue_limit: usize) -> EdgeCache {
        EdgeCache::new(EdgeCacheConfig {
            capacity: 64,
            distance_threshold: 1.0,
            queue_limit,
        })
        .unwrap()
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(EdgeCacheConfig {
            capacity: 0,
            ..EdgeCacheConfig::default()
        }
        .validate()
        .is_err());
        assert!(EdgeCacheConfig {
            distance_threshold: f64::NAN,
            ..EdgeCacheConfig::default()
        }
        .validate()
        .is_err());
        assert!(EdgeCacheConfig {
            queue_limit: 0,
            ..EdgeCacheConfig::default()
        }
        .validate()
        .is_err());
        assert!(EdgeCacheConfig::default().validate().is_ok());
    }

    #[test]
    fn insert_then_lookup_hits_and_counts() {
        let edge = cache_with_limit(16);
        let req = BatchRequest {
            device: 1,
            frames: vec![
                Frame::Lookup {
                    key: key(&[0.0, 0.0]),
                },
                Frame::Insert {
                    key: key(&[0.0, 0.0]),
                    label: 9,
                    confidence: 0.9,
                },
                Frame::Lookup {
                    key: key(&[0.05, 0.0]),
                },
            ],
        };
        let resp = edge.apply_batch(&req, SimTime::ZERO).unwrap();
        assert_eq!(resp.replies.len(), 3);
        assert_eq!(resp.replies[0], Reply::Miss);
        assert_eq!(resp.replies[1], Reply::Accepted);
        match resp.replies[2] {
            Reply::Hit(hit) => {
                assert_eq!(hit.label, 9);
                assert!(hit.confidence > 0.8);
                assert!(hit.distance < 0.1);
            }
            other => panic!("expected a hit, got {other:?}"),
        }
        let c = edge.counters();
        assert_eq!(c.batches, 1);
        assert_eq!(c.lookups, 2);
        assert_eq!(c.hits, 1);
        assert_eq!(c.inserts, 1);
        assert_eq!(c.overloads, 0);
        assert!(!c.is_idle());
        assert!(c.hits <= c.lookups);
    }

    #[test]
    fn gossip_ads_land_with_peer_provenance() {
        let edge = cache_with_limit(16);
        let resp = edge
            .apply_batch(
                &BatchRequest {
                    device: 2,
                    frames: vec![Frame::GossipAd {
                        key: key(&[1.0, 1.0]),
                        label: 3,
                        confidence: 0.8,
                    }],
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(resp.replies, vec![Reply::Accepted]);
        assert_eq!(edge.counters().gossip_entries, 1);
        assert_eq!(edge.len(), 1);
    }

    #[test]
    fn oversized_batch_is_rejected_not_blocked() {
        let edge = cache_with_limit(4);
        let frames: Vec<Frame> = (0..5)
            .map(|i| Frame::Lookup {
                key: key(&[i as f32, 0.0]),
            })
            .collect();
        let err = edge
            .apply_batch(&BatchRequest { device: 1, frames }, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, BatchError::Overloaded);
        let c = edge.counters();
        assert_eq!(c.overloads, 1);
        assert_eq!(c.batches, 0, "rejected batches are not counted accepted");
        // The failed admission released its permits: a fitting batch
        // still goes through.
        let ok = edge.apply_batch(
            &BatchRequest {
                device: 1,
                frames: vec![Frame::Lookup {
                    key: key(&[0.0, 0.0]),
                }],
            },
            SimTime::ZERO,
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn mixed_dimension_batch_is_refused_whole_and_leaks_no_slots() {
        let edge = cache_with_limit(4);
        let insert = |components: &[f32]| Frame::Insert {
            key: key(components),
            label: 5,
            confidence: 0.9,
        };
        let lookup = |components: &[f32]| Frame::Lookup {
            key: key(components),
        };
        let batch = |frames: Vec<Frame>| BatchRequest { device: 1, frames };
        edge.apply_batch(&batch(vec![insert(&[0.0, 0.0])]), SimTime::ZERO)
            .unwrap();
        let before = edge.counters();

        // As many bad lookups as the queue has slots: on the parent each
        // one panicked inside the store and kept its slot for good.
        for _ in 0..4 {
            let err = edge
                .apply_batch(&batch(vec![lookup(&[0.0, 0.0, 0.0])]), SimTime::ZERO)
                .unwrap_err();
            assert_eq!(
                err,
                BatchError::KeyDimension {
                    frame: 0,
                    got: 3,
                    expected: 2
                }
            );
            assert_eq!(
                format!("{err}"),
                "frame 0: key dimension 3 does not match the cache's 2"
            );
            assert_eq!(edge.in_flight(), 0);
        }
        // A bad frame anywhere refuses the batch before the good frames
        // ahead of it reach the store.
        let err = edge
            .apply_batch(
                &batch(vec![insert(&[9.0, 9.0]), insert(&[1.0, 2.0, 3.0])]),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, BatchError::KeyDimension { frame: 1, .. }));
        assert_eq!(edge.len(), 1, "nothing of a refused batch is applied");
        assert_eq!(edge.counters(), before, "a refused batch counts nowhere");

        // Nor does it fix the dimension of a cache that had none yet.
        let fresh = cache_with_limit(4);
        let err = fresh
            .apply_batch(
                &batch(vec![lookup(&[1.0, 2.0, 3.0]), lookup(&[1.0, 2.0])]),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            BatchError::KeyDimension {
                frame: 1,
                got: 2,
                expected: 3
            }
        ));
        fresh
            .apply_batch(&batch(vec![insert(&[0.0, 0.0])]), SimTime::ZERO)
            .unwrap();

        // Every slot is free again: a full-width valid batch goes through.
        let full = batch((0..4).map(|_| lookup(&[0.0, 0.05])).collect());
        let resp = edge.apply_batch(&full, SimTime::ZERO).unwrap();
        assert!(resp.replies.iter().all(|r| matches!(r, Reply::Hit(_))));
        assert_eq!(edge.in_flight(), 0);
    }

    #[test]
    fn non_finite_confidence_batch_is_refused_whole_and_leaks_no_slots() {
        let edge = cache_with_limit(4);
        let insert = |components: &[f32], confidence: f64| Frame::Insert {
            key: key(components),
            label: 5,
            confidence,
        };
        let gossip = |components: &[f32], confidence: f64| Frame::GossipAd {
            key: key(components),
            label: 6,
            confidence,
        };
        let batch = |frames: Vec<Frame>| BatchRequest { device: 1, frames };
        edge.apply_batch(&batch(vec![insert(&[0.0, 0.0], 0.9)]), SimTime::ZERO)
            .unwrap();
        let before = edge.counters();

        // Each bad frame sits behind a good one. Unchecked, the good frame
        // would be applied, and a NaN would reach the store's `is_finite`
        // assert (`clamp` keeps it).
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for frames in [
                vec![insert(&[9.0, 9.0], 0.9), insert(&[1.0, 1.0], bad)],
                vec![gossip(&[9.0, 9.0], 0.9), gossip(&[1.0, 1.0], bad)],
            ] {
                let err = edge.apply_batch(&batch(frames), SimTime::ZERO).unwrap_err();
                assert_eq!(err, BatchError::Confidence { frame: 1 });
                assert_eq!(
                    format!("{err}"),
                    "frame 1: confidence is not a finite number"
                );
                assert_eq!(edge.in_flight(), 0);
            }
        }
        assert_eq!(edge.len(), 1, "nothing of a refused batch is applied");
        assert_eq!(edge.counters(), before, "a refused batch counts nowhere");

        // Nor does it fix the dimension of a cache that had none yet.
        let fresh = cache_with_limit(4);
        let err = fresh
            .apply_batch(
                &batch(vec![insert(&[1.0, 2.0, 3.0], f64::NAN)]),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, BatchError::Confidence { frame: 0 });
        fresh
            .apply_batch(&batch(vec![insert(&[0.0, 0.0], 0.9)]), SimTime::ZERO)
            .unwrap();

        // Every slot is free again: a full-width valid batch goes through,
        // out-of-range but finite confidences still clamped as before.
        let full = batch(vec![
            insert(&[0.0, 0.05], 7.0),
            gossip(&[0.05, 0.0], -1.0),
            Frame::Lookup {
                key: key(&[0.0, 0.0]),
            },
            Frame::Lookup {
                key: key(&[0.0, 0.0]),
            },
        ]);
        let resp = edge.apply_batch(&full, SimTime::ZERO).unwrap();
        assert!(matches!(resp.replies[2], Reply::Hit(_)));
        assert_eq!(edge.in_flight(), 0);
    }

    #[test]
    fn first_key_fixes_the_dimension_even_for_a_lookup() {
        let edge = cache_with_limit(8);
        let lookup = BatchRequest {
            device: 1,
            frames: vec![Frame::Lookup {
                key: key(&[0.0, 0.0, 0.0]),
            }],
        };
        assert_eq!(
            edge.apply_batch(&lookup, SimTime::ZERO).unwrap().replies,
            vec![Reply::Miss]
        );
        let narrow = BatchRequest {
            device: 1,
            frames: vec![Frame::Insert {
                key: key(&[1.0, 1.0]),
                label: 1,
                confidence: 0.9,
            }],
        };
        assert_eq!(
            edge.apply_batch(&narrow, SimTime::ZERO).unwrap_err(),
            BatchError::KeyDimension {
                frame: 0,
                got: 2,
                expected: 3,
            }
        );
        assert!(edge.is_empty());
    }

    #[test]
    fn queue_slots_come_back_when_a_batch_unwinds() {
        let edge = cache_with_limit(4);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            edge.in_flight.fetch_add(3, Ordering::AcqRel);
            let _slots = QueueSlots {
                in_flight: &edge.in_flight,
                cost: 3,
            };
            assert_eq!(edge.in_flight(), 3);
            panic!("worker died mid-batch");
        }));
        assert!(died.is_err());
        assert_eq!(edge.in_flight(), 0);
    }

    #[test]
    fn clones_share_contents_and_counters() {
        let edge = cache_with_limit(16);
        let other = edge.clone();
        edge.apply_batch(
            &BatchRequest {
                device: 1,
                frames: vec![Frame::Insert {
                    key: key(&[0.5, 0.5]),
                    label: 1,
                    confidence: 1.0,
                }],
            },
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(other.len(), 1);
        assert_eq!(other.counters().inserts, 1);
    }

    #[test]
    fn counters_merge_and_reconcile() {
        let mut total = EdgeCounters::default();
        assert!(total.is_idle());
        let mut server = EdgeCounters::default();
        server.record_batch();
        server.record_lookup(true);
        server.record_lookup(false);
        let mut device = EdgeCounters::default();
        device.record_queries_sent(3);
        device.record_query_timeout();
        device.record_hit_adopted();
        total.merge(&server);
        total.merge(&device);
        assert!(!total.is_idle());
        assert!(total.reconciles(), "{total}");
        assert_eq!(total.lookups, 2);
        assert_eq!(total.queries_sent, 3);
        // An impossible chain fails reconciliation.
        let mut bogus = EdgeCounters::default();
        bogus.record_lookup(true);
        assert!(!bogus.reconciles());
    }
}
