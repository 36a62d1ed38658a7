//! Nearest-neighbour search for the approximate cache.
//!
//! A cache lookup is a k-nearest-neighbour query over the cached
//! signatures. Four interchangeable indexes implement [`NnIndex`], all
//! backed by the contiguous [`FlatBuffer`] key storage and the chunked
//! flat distance kernels, and all constructed through one serde-able
//! [`IndexConfig`] + [`build`] factory:
//!
//! - [`LinearScan`] — exact, `O(n)` per query; the correctness reference
//!   and the fastest choice below a few hundred entries.
//! - [`KdTree`] — exact, logarithmic-ish in low dimension; degrades
//!   towards linear as dimension grows (the classic curse).
//! - [`LshIndex`] — sign-random-projection LSH, sublinear candidate
//!   generation with quantized shortlist scoring; approximate but
//!   tunable via tables × bits.
//! - [`NswIndex`] — navigable-small-world graph; the scalable choice at
//!   fleet-size caches.
//!
//! The primary query path is [`NnIndex::nearest_into`]: callers hold a
//! reusable [`IndexScratch`] and output buffer, and steady-state lookups
//! allocate nothing. Approximate indexes may miss neighbours but never
//! report wrong distances — shortlists are always re-ranked with the
//! exact f64 kernel before anything is returned.
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
pub mod lsh;
pub mod nsw;

pub use aknn::{AknnConfig, AknnOutcome, DecideScratch, MissReason};
pub use config::{build, IndexConfig};
pub use flat::FlatBuffer;
pub use index::{IndexScratch, Neighbor, NnIndex};
pub use kdtree::KdTree;
pub use linear::LinearScan;
pub use lsh::{LshConfig, LshIndex};
pub use nsw::{NswConfig, NswIndex};
