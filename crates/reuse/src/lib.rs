//! The in-memory approximate result cache.
//!
//! This crate is the data structure at the heart of the system: a bounded,
//! in-memory map from *approximate* feature-space keys to recognition
//! results. Unlike a hash cache, a lookup succeeds when the query is
//! *close enough* to cached keys with a *homogeneous* label (the adaptive
//! k-NN test from the `ann` crate), so one inference answers many
//! subsequent frames.
//!
//! Two types, stacked: [`ApproxCache`] is the single-threaded store and
//! [`SharedCache`] is what callers hold — a cloneable, thread-safe handle
//! over one `ApproxCache` behind one lock.
//!
//! - [`ApproxCache`] — the store: pluggable ANN index, bounded capacity,
//!   eviction, admission control, per-operation statistics. The body of
//!   every `SharedCache`, and the oracle it is tested against.
//! - [`EvictionPolicy`] — LRU / LFU / TTL / utility-aware victim choice.
//! - [`AdmissionPolicy`] — confidence floor plus near-duplicate refresh
//!   (a new observation of a cached subject refreshes the entry instead of
//!   polluting the index with clones).
//! - [`calibrate`] — distance-threshold calibration from sample
//!   same-subject vs cross-class distances.
//! - [`concurrent`] — [`SharedCache`]: one lock around one store, plus
//!   frozen point-in-time views for peer queries and a contents version
//!   that says when such a view went stale.
//!
//! # Example
//!
//! ```
//! use reuse::{ApproxCache, CacheConfig, EntrySource, LookupResult};
//! use features::FeatureVector;
//! use simcore::SimTime;
//!
//! let mut cache: ApproxCache<u32> = ApproxCache::new(CacheConfig::new(2));
//! let key = FeatureVector::from_vec(vec![1.0, 0.0]).unwrap();
//! cache.insert(key.clone(), 7, 0.9, EntrySource::LocalInference, SimTime::ZERO);
//! let near = FeatureVector::from_vec(vec![1.05, 0.0]).unwrap();
//! match cache.lookup(&near, SimTime::from_millis(33)) {
//!     LookupResult::Hit { label, .. } => assert_eq!(label, 7),
//!     LookupResult::Miss(reason) => panic!("expected hit, got {reason}"),
//! }
//! ```

pub mod admission;
pub mod calibrate;
pub mod concurrent;
pub mod entry;
pub mod evict;
pub mod snapshot;
pub mod stats;
pub mod store;
mod victim;

pub use admission::AdmissionPolicy;
pub use concurrent::SharedCache;
pub use entry::{CacheEntry, EntryId, EntrySource};
pub use evict::EvictionPolicy;
pub use snapshot::CacheSnapshot;
pub use stats::CacheStats;
pub use store::{ApproxCache, CacheConfig, IndexConfig, InsertOutcome, LookupResult};
