//! Nearest-neighbour search for the approximate cache.
//!
//! A cache lookup is a k-nearest-neighbour query over the cached
//! signatures. Two interchangeable **exact** indexes implement
//! [`NnIndex`], both scoring rows with the chunked flat distance kernel
//! and selecting through one bounded `(distance, id)` buffer, and both
//! constructed through one serde-able [`IndexConfig`] + [`build`]
//! factory:
//!
//! - [`LinearScan`] — `O(n)` per query over the contiguous
//!   [`FlatBuffer`], eight rows per step through its head blocks; the
//!   cache's default and what every workload runs.
//! - [`KdTree`] — branch-and-bound over median splits; prunes well for
//!   queries near a cluster of cache-shaped keys, degrades towards the
//!   scan on uniform high-dimensional keys, and falls behind it on
//!   queries far from every key (measured numbers on [`KdTree`]).
//!
//! Their answers are bit-identical — same ids, same order (distance
//! ties break by id), `to_bits`-equal distances — to each other and to
//! the never-optimized `ReferenceLinearScan` oracle, so which one a
//! cache uses is a cost decision only, never a behavioural one.
//!
//! The one search both implement is [`NnIndex::nearest_within_into`]:
//! the `k` nearest among the entries within a distance bound
//! (inclusive, exact), which is what the hit test below can use — a
//! cache lookup passes its distance threshold, and
//! [`NnIndex::nearest_into`] is the same search with the bound at
//! infinity. Callers hold a reusable output buffer and steady-state
//! lookups allocate nothing.
//!
//! On top of the raw neighbour list sits [`aknn`]: the *homogenized
//! adaptive k-NN* hit test (after FoggyCache's A-kNN) that decides whether
//! the neighbours are close and unanimous enough to trust their label
//! instead of running the DNN.
//!
//! # Example
//!
//! ```
//! use ann::{build, IndexConfig};
//! use features::FeatureVector;
//!
//! let mut index = build(2, &IndexConfig::Linear);
//! index.insert(1, FeatureVector::from_vec(vec![0.0, 0.0]).unwrap());
//! index.insert(2, FeatureVector::from_vec(vec![5.0, 5.0]).unwrap());
//! let hits = index.nearest(&FeatureVector::from_vec(vec![0.1, 0.0]).unwrap(), 1);
//! assert_eq!(hits[0].id, 1);
//! ```

pub mod aknn;
pub mod config;
pub mod flat;
pub mod index;
pub mod kdtree;
pub mod linear;

pub use aknn::{AknnConfig, AknnOutcome, DecideScratch, MissReason};
pub use config::{build, IndexConfig};
pub use flat::FlatBuffer;
pub use index::{IndexScratch, Neighbor, NnIndex};
pub use kdtree::KdTree;
pub use linear::LinearScan;
