//! Deterministic discrete-event simulation substrate.
//!
//! Everything in this reproduction that has a notion of *time*, *randomness*
//! or *measurement* goes through this crate so that entire multi-device
//! experiments are reproducible from a single seed:
//!
//! - [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! - [`EventQueue`] — a monotone event queue with deterministic FIFO
//!   tie-breaking for events scheduled at the same instant.
//! - [`SimRng`] — a seeded, *splittable* random source: child streams derived
//!   from a parent are independent of the order in which other children are
//!   used, which keeps per-device randomness stable as scenarios grow.
//! - [`metrics`] — counters and histograms collected during a run.
//! - [`stats`] — summaries (mean/std/percentiles/CDF) used by every
//!   experiment.
//! - [`table`] — aligned-text and CSV emission for experiment reports.
//!
//! # Example
//!
//! ```
//! use simcore::{EventQueue, SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "b");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(2), "a");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "a");
//! assert_eq!(t.as_millis(), 2);
//! ```

pub mod event;
pub mod metrics;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;
pub mod trace;
pub mod units;

pub use event::EventQueue;
pub use metrics::{Counter, Histogram, MetricSet};
pub use rng::SimRng;
pub use stats::{Cdf, OnlineStats, Summary};
pub use time::{SimDuration, SimTime};
pub use trace::{
    FrameTrace, TraceGate, TraceLookup, TraceMissReason, TracePath, TracePeer, TraceRing,
};
pub use units::{Micros, Millijoules, Millis};
