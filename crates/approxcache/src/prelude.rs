//! One-line import for experiments and examples.
//!
//! Every bench binary wants the same dozen names: the scenario builder,
//! the run entry point, the variant enum and the handful of foreign types
//! (motion profiles, durations, fault and resilience configs) that appear
//! in almost every experiment. `use approxcache::prelude::*;` brings in
//! exactly that set and nothing else.

pub use crate::baseline::SystemVariant;
pub use crate::config::PipelineConfig;
pub use crate::device::{Device, DeviceBuilder, DeviceId, ResolutionPath};
pub use crate::error::ConfigError;
pub use crate::report::RunReport;
pub use crate::sim::{run, ChurnSpec, Detail, Scenario, SimResult};

pub use imu::MotionProfile;
pub use p2pnet::{FaultConfig, ResilienceConfig};
pub use simcore::{SimDuration, SimRng, SimTime};
