//! The concurrent store.
//!
//! [`SharedCache`] is the one type every device, peer view and edge
//! server holds: a cloneable handle that splits one logical cache into
//! `S` shards, each an [`ApproxCache`](crate::ApproxCache) behind its own
//! lock with its own flat-buffer ANN index. Keys route to a shard by a
//! *signature quantization bucket*: the key is projected onto a fixed
//! Rademacher (±1) direction, the 1-D projection is quantized into
//! cells, and the cell index hashes into a signature — near keys land in
//! the same cell, so a whole neighbourhood lives in one shard and a
//! lookup probes only its home shard's ~`n/S`-entry index.
//!
//! The same signature is the frequency key for TinyLFU admission
//! ([`sketch`]): lookups push signatures into a lossy ring, inserts
//! drain the ring into a count-min sketch behind a bloom doorkeeper, and
//! at the eviction point a candidate only displaces the victim when its
//! estimated frequency strictly beats the victim's.
//!
//! Determinism contract (see DESIGN.md, "Store layer"): sketch seeds
//! derive from the configured seed, shard merge order is fixed (ascending
//! shard index), per-shard id namespaces are disjoint arithmetic
//! progressions, and with one shard and no frequency config the whole
//! structure is operation-for-operation identical to the plain
//! single-threaded store — which is what keeps the golden results
//! byte-identical.
//!
//! [`SharedCache::frozen_view`] copies the contents into an independent
//! store for peer queries against a fixed point in time;
//! [`SharedCache::contents_version`] tells a holder of such a view when
//! it went stale.
//!
//! Lock discipline: no shard lock is ever held across a call into
//! another shard (enforced statically by xtask rule L on this module).

mod ring;
mod sharded;
mod sketch;

pub use sharded::{route_signature, ConcurrentConfig, SharedCache};
pub use sketch::FrequencyConfig;
