//! The edge cache tier.
//!
//! The poster's system is infrastructure-less, but its lineage
//! (FoggyCache before it, FluxShard and the GAN edge-cache work after)
//! adds a third tier between a device's local cache and its P2P
//! neighbourhood: a shared cache one WAN hop away. This crate is that
//! tier, split into two halves sharing one protocol core:
//!
//! - **Protocol + model half** (deterministic, sim-grade):
//!   [`protocol`] defines the batched lookup/insert/gossip wire format
//!   with varint+XOR-delta key coding; [`compress`](mod@compress) the
//!   LZ77 snapshot compressor; [`cache`] the [`EdgeCache`] wrapping
//!   [`reuse::SharedCache`] behind batched operations with
//!   bounded-queue backpressure ([`BatchError::Overloaded`], never
//!   blocking). The
//!   simulation drives these types directly — same code, virtual time.
//! - **Service half** (runtime): [`server`] is a hand-rolled threaded
//!   HTTP/1.1 server over `std::net::TcpListener` with a fixed worker
//!   pool, per-connection timeouts and `503` on backpressure;
//!   [`client`] the matching blocking client. The `edge-server` /
//!   `edge-client` binaries put the exact same `EdgeCache` + codec on
//!   real TCP — the production deployment story for the sim's
//!   `EdgeTier`.

pub mod cache;
pub mod client;
pub mod compress;
pub mod protocol;
pub mod server;

pub use cache::{BatchError, EdgeCache, EdgeCacheConfig, EdgeCounters};
pub use client::{ClientError, EdgeClient};
pub use compress::{compress, decompress, CompressError};
pub use protocol::{BatchRequest, BatchResponse, DecodeError, EdgeHit, Frame, Reply};
pub use server::{EdgeServer, ServerConfig};
