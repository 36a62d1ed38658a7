//! Nearest-neighbour search for the approximate cache.
//!
//! A cache lookup is a k-nearest-neighbour query over the cached
//! signatures. [`LinearScan`] answers it **exactly**: `O(n)` per query
//! over a contiguous key store, eight rows per step through head blocks
//! of transposed first chunks, selecting through one bounded
//! `(distance, id)` buffer. Its answers are bit-identical — same ids,
//! same order (distance ties break by id), `to_bits`-equal distances —
//! to the never-optimized `ReferenceLinearScan` oracle; [`NnIndex`] is
//! the seam the two share.
//!
//! The one search is [`NnIndex::nearest_within_into`]: the `k` nearest
//! among the entries within a distance bound (inclusive, exact), which
//! is what the hit test below can use — a cache lookup passes its
//! distance threshold, and [`NnIndex::nearest_into`] is the same search
//! with the bound at infinity. Callers hold a reusable output buffer and
//! steady-state lookups allocate nothing.
//!
//! On top of the raw neighbour list sits [`aknn`]: the *homogenized
//! adaptive k-NN* hit test (after FoggyCache's A-kNN) that decides whether
//! the neighbours are close and unanimous enough to trust their label
//! instead of running the DNN.
//!
//! # Example
//!
//! ```
//! use ann::{LinearScan, NnIndex};
//! use features::FeatureVector;
//!
//! let mut index = LinearScan::new(2);
//! index.insert(1, FeatureVector::from_vec(vec![0.0, 0.0]).unwrap());
//! index.insert(2, FeatureVector::from_vec(vec![5.0, 5.0]).unwrap());
//! let hits = index.nearest(&FeatureVector::from_vec(vec![0.1, 0.0]).unwrap(), 1);
//! assert_eq!(hits[0].id, 1);
//! ```

pub mod aknn;
mod flat;
pub mod index;
pub mod linear;

pub use aknn::{AknnConfig, AknnOutcome, DecideScratch, MissReason};
pub use index::{build, IndexConfig, IndexScratch, Neighbor, NnIndex};
pub use linear::LinearScan;
