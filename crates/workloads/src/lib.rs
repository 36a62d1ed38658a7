//! Named workloads and sweep helpers for the experiment suite.
//!
//! Every `R-*` experiment in `EXPERIMENTS.md` runs one of these scenarios
//! (or a sweep over them), so their definitions live in one place:
//!
//! - [`video`] — the four standard single-device scenarios the abstract's
//!   mechanisms target (stationary, slow pan, walking tour, object churn)
//!   plus turn-and-look.
//! - [`multi`] — shared-world multi-device scenarios (museum, campus).
//! - [`sweep`] — parameter-sweep helpers and the scenario × variant run
//!   matrix.
//! - [`trace`] — JSON persistence of run reports.
//!
//! # Example
//!
//! ```
//! use workloads::video;
//!
//! let scenario = video::stationary();
//! assert_eq!(scenario.name, "stationary");
//! assert_eq!(scenario.devices, 1);
//! ```

pub mod multi;
pub mod sweep;
pub mod trace;
pub mod video;

pub use sweep::{run_matrix, MatrixCell};
