//! Approximate caching for mobile image recognition — umbrella crate.
//!
//! A reproduction of *"Poster: Approximate Caching for Mobile Image
//! Recognition"* (Mariani, Han & Xiao, ICDCS 2021): an in-memory caching
//! paradigm that reuses image-recognition results instead of re-running
//! the DNN, exploiting the inertial movement of smartphones, the locality
//! of video streams, and nearby peer-to-peer devices.
//!
//! This crate re-exports the whole workspace so applications can depend
//! on one name:
//!
//! | Module | Contents |
//! |---|---|
//! | [`system`] | The pipeline, baselines, simulator and reports (`approxcache`) |
//! | [`cache`] | The approximate cache data structure (`reuse`) |
//! | [`search`] | Nearest-neighbour indexes and the A-kNN hit test (`ann`) |
//! | [`keys`] | Feature vectors, projections, hashes (`features`) |
//! | [`inertial`] | IMU synthesis, estimation and gating (`imu`) |
//! | [`vision`] | The synthetic visual world (`scene`) |
//! | [`inference`] | The mobile DNN simulator (`dnnsim`) |
//! | [`network`] | Infrastructure-less peer networking (`p2pnet`) |
//! | [`edge`] | The optional edge cache tier: wire protocol, shared cache, HTTP server (`edge`) |
//! | [`workload`] | Named scenarios, sweeps and report JSON (`workloads`) |
//! | [`runtime`] | Simulation substrate: time, RNG, metrics (`simcore`) |
//!
//! # Quickstart
//!
//! ```
//! use approx_caching::system::{run, Detail, PipelineConfig, SystemVariant};
//! use approx_caching::workload::video;
//! use approx_caching::runtime::SimDuration;
//!
//! let scenario = video::stationary().with_duration(SimDuration::from_secs(5));
//! let config = PipelineConfig::calibrated(&scenario, 42);
//! let baseline = run(&scenario, &config, SystemVariant::NoCache, 42, Detail::Summary)
//!     .expect("valid scenario")
//!     .report;
//! let full = run(&scenario, &config, SystemVariant::Full, 42, Detail::Summary)
//!     .expect("valid scenario")
//!     .report;
//! assert!(full.latency_ms.mean < baseline.latency_ms.mean);
//! ```

/// Nearest-neighbour indexes and the adaptive k-NN hit test.
pub use ann as search;
/// The pipeline, baselines, simulator and reports.
pub use approxcache as system;
/// The mobile DNN inference simulator.
pub use dnnsim as inference;
/// The optional edge cache tier: batched wire protocol, the shared
/// `EdgeCache` service, and the threaded HTTP server/client.
pub use edge;
/// Feature vectors, random projections and perceptual hashes.
pub use features as keys;
/// IMU trace synthesis, motion estimation and the reuse gate.
pub use imu as inertial;
/// Infrastructure-less peer-to-peer networking.
pub use p2pnet as network;
/// The approximate cache data structure.
pub use reuse as cache;
/// The synthetic visual world.
pub use scene as vision;
/// Simulation substrate: virtual time, seeded RNG, metrics, tables.
pub use simcore as runtime;
/// Named scenarios, sweeps and report JSON.
pub use workloads as workload;
