//! Shared helpers for the experiment harness.
//!
//! Each `R-*` experiment from `EXPERIMENTS.md` is a binary in `src/bin/`
//! that prints its table and writes the same rows as CSV under
//! `results/`. The micro-benchmarks (`R-11`..`R-14`) are Criterion
//! benches under `benches/`.
//!
//! Experiment length is controlled by the `EXPERIMENT_SECONDS` environment
//! variable (default 30 simulated seconds), so `run_all` can do a quick
//! pass and a paper-faithful run can stretch it.

pub mod sweep;
pub mod verify;

use std::path::PathBuf;

use simcore::table::Table;
use simcore::SimDuration;

/// The master seed all experiments derive from, so the whole suite is
/// reproducible end to end.
pub const MASTER_SEED: u64 = 20210701; // ICDCS 2021 proceedings month

/// Simulated seconds per run (override with `EXPERIMENT_SECONDS`).
pub fn experiment_duration() -> SimDuration {
    let secs = std::env::var("EXPERIMENT_SECONDS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(30)
        .max(1);
    SimDuration::from_secs(secs)
}

/// Where result CSVs land: `results/` under the workspace root (or the
/// current directory when run elsewhere).
pub fn results_dir() -> PathBuf {
    // The bench crate sits at crates/bench; results/ is two levels up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|workspace| workspace.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Runs a scenario at summary detail, treating an invalid configuration
/// as a programming error (experiment configs are hand-written).
///
/// # Panics
///
/// Panics when the scenario or network configuration fails validation.
pub fn summary_run(
    scenario: &approxcache::Scenario,
    config: &approxcache::PipelineConfig,
    variant: approxcache::SystemVariant,
    seed: u64,
) -> approxcache::RunReport {
    match approxcache::run(
        scenario,
        config,
        variant,
        seed,
        approxcache::Detail::Summary,
    ) {
        Ok(result) => result.report,
        Err(e) => panic!("{e}"),
    }
}

/// Like [`summary_run`] but keeps per-device outcome logs and traces.
///
/// # Panics
///
/// Panics when the scenario or network configuration fails validation.
pub fn detailed_run(
    scenario: &approxcache::Scenario,
    config: &approxcache::PipelineConfig,
    variant: approxcache::SystemVariant,
    seed: u64,
) -> approxcache::SimResult {
    match approxcache::run(scenario, config, variant, seed, approxcache::Detail::Full) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

/// The fault regime of the R-21 resilience experiment: outages covering
/// the given fraction of each device's timeline, occasional crashes, and
/// a sprinkle of poisoned advertisements. Shared between the `verify`
/// harness and the `r21_resilience` binary so the claim checks exactly
/// what the experiment sweeps.
pub fn r21_faults(outage_fraction: f64) -> p2pnet::FaultConfig {
    p2pnet::FaultConfig {
        outage_fraction,
        outage_mean: SimDuration::from_secs(2),
        crashes_per_device_minute: 1.0,
        poison_prob: 0.02,
        ..p2pnet::FaultConfig::default()
    }
}

/// Prints the experiment header, the table, and writes the CSV.
pub fn emit(experiment: &str, title: &str, table: &Table) {
    println!("== {experiment}: {title} ==\n");
    println!("{table}");
    let path = results_dir().join(format!("{experiment}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("wrote {}\n", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}\n", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_defaults_and_clamps() {
        // Do not mutate the environment (tests run in parallel); exercise
        // only the default path here.
        let d = experiment_duration();
        assert!(d >= SimDuration::from_secs(1));
    }

    #[test]
    fn results_dir_ends_with_results() {
        assert!(results_dir().ends_with("results"));
    }
}
