//! Locality-preserving cache keys for approximate caching.
//!
//! An approximate cache does not key on pixels; it keys on a compact
//! *signature* of the image such that visually similar inputs land close
//! together. This crate provides:
//!
//! - [`FeatureVector`] — the signature type used everywhere (cache keys,
//!   ANN indexes, wire messages).
//! - [`distance`] — the metrics the hit test can use (Euclidean, cosine,
//!   Manhattan).
//! - [`RandomProjection`] — a seeded Johnson–Lindenstrauss projection used
//!   to compress raw frame descriptors into low-dimensional keys while
//!   approximately preserving relative distances. Its matrix is stored in
//!   blocks of 8 rows, so [`RandomProjection::project`] runs 8 independent
//!   accumulators and still returns the bits of a row-at-a-time dot
//!   product.
//!
//! The float kernels (`project`, [`distance::squared_euclidean_flat`]
//! and the head-block kernel [`distance::squared_euclidean_head_block`],
//! which scores the first chunk of 8 rows at once) are pinned bit-for-bit
//! to scalar references by proptests; `ci.sh` runs them in release mode too,
//! because only optimized builds vectorize these loops.
//!
//! # Example
//!
//! ```
//! use features::{FeatureVector, RandomProjection, distance};
//!
//! let raw = FeatureVector::from_vec(vec![0.5; 256]).unwrap();
//! let proj = RandomProjection::new(256, 64, 42);
//! let key = proj.project(&raw);
//! assert_eq!(key.dim(), 64);
//! assert!(distance::euclidean(&key, &key) < 1e-6);
//! ```

pub mod distance;
pub mod projection;
pub mod vector;

pub use distance::Metric;
pub use projection::RandomProjection;
pub use vector::{FeatureError, FeatureVector};
