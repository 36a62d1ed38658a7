//! Index selection as data: one serde-able enum, one factory.
//!
//! Anything that wants a *configurable* index — the cache, the backend
//! tests that run the store over both — names an [`IndexConfig`], and
//! [`build`] is the only way to construct an index from one.

use serde::{Deserialize, Serialize};

use crate::kdtree::KdTree;
use crate::linear::LinearScan;
use crate::NnIndex;

/// Which exact nearest-neighbour index backs a cache. Both answer every
/// query identically; they differ only in cost.
///
/// Serializes as the bare variant name (`"Linear"`, `"KdTree"`) so
/// experiment configs can pin the backend in JSON.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum IndexConfig {
    /// Linear scan over the flat buffer — the cache's default.
    #[default]
    Linear,
    /// k-d tree; prunes on clustered keys, converges to the scan on
    /// uniform high-dimensional ones.
    KdTree,
}

impl IndexConfig {
    /// The `kind()` string of the index this config builds.
    pub fn name(&self) -> &'static str {
        match self {
            IndexConfig::Linear => "linear",
            IndexConfig::KdTree => "kdtree",
        }
    }
}

/// Builds an empty index for keys of dimension `dim` per `config` — the
/// single constructor every call site goes through.
///
/// # Panics
///
/// Panics if `dim == 0`.
pub fn build(dim: usize, config: &IndexConfig) -> Box<dyn NnIndex> {
    match config {
        IndexConfig::Linear => Box::new(LinearScan::with_dim(dim)),
        IndexConfig::KdTree => Box::new(KdTree::with_dim(dim)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use features::FeatureVector;

    #[test]
    fn builds_every_backend_with_matching_kind() {
        for config in [IndexConfig::Linear, IndexConfig::KdTree] {
            let mut index = build(4, &config);
            assert_eq!(index.kind(), config.name());
            assert_eq!(index.dim(), 4);
            index.insert(9, FeatureVector::zeros(4));
            let hits = index.nearest(&FeatureVector::zeros(4), 1);
            assert_eq!(hits[0].id, 9);
        }
    }

    #[test]
    fn default_is_linear() {
        assert_eq!(IndexConfig::default(), IndexConfig::Linear);
    }

    #[test]
    fn round_trips_through_json() {
        let config = IndexConfig::KdTree;
        let json = serde_json::to_string(&config).unwrap();
        let back: IndexConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        // Unit variants serialize as bare strings — stable config keys.
        assert_eq!(
            serde_json::to_string(&IndexConfig::Linear).unwrap(),
            "\"Linear\""
        );
        // A config written for a removed approximate backend is refused,
        // not quietly built as something else.
        for stale in ["\"Lsh\"", "{\"Nsw\":{\"m\":16,\"ef\":64}}"] {
            let err = serde_json::from_str::<IndexConfig>(stale).unwrap_err();
            assert!(
                err.to_string().contains("unknown variant"),
                "{stale}: {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn zero_dim_rejected() {
        build(0, &IndexConfig::Linear);
    }
}
