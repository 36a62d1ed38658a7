//! Shared helpers for the experiment harness.
//!
//! Each macro `R-*` experiment from `EXPERIMENTS.md` is a row of
//! [`experiments::ALL`], run by the `experiments` binary, which prints
//! its tables, writes the same rows as CSV under `results/` and checks
//! the headline claims of [`claims::CLAIMS`] on the rows that carry
//! them. The micro-benchmarks (`R-11`..`R-14`) are probes of the
//! benchmark under `benchmark/`.
//!
//! Experiment length is controlled by the `EXPERIMENT_SECONDS` environment
//! variable (default 30 simulated seconds), so a quick pass and a
//! paper-faithful run differ only in that variable.

pub mod claims;
pub mod experiments;

use std::fmt::{self, Write as _};
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

/// One experiment's output (headers, tables, `wrote <path>` lines and
/// notes), collected instead of printed so that experiments running
/// concurrently cannot interleave.
#[derive(Debug, Default)]
pub struct Transcript(String);

impl Transcript {
    /// Records the `== name: title ==` header and the table, and writes
    /// the table as `results/<name>.csv`.
    pub(crate) fn emit(&mut self, name: &str, title: &str, table: &Table) {
        let text = &mut self.0;
        let path = results_dir().join(format!("{name}.csv"));
        // Writing to a `String` cannot fail.
        let _ = writeln!(text, "== {name}: {title} ==\n\n{table}");
        let _ = match table.write_csv(&path) {
            Ok(()) => writeln!(text, "wrote {}\n", path.display()),
            Err(e) => writeln!(text, "warning: could not write {}: {e}\n", path.display()),
        };
    }

    /// Records one line of free text after the tables.
    pub(crate) fn note(&mut self, line: fmt::Arguments<'_>) {
        let _ = writeln!(self.0, "{line}");
    }
}

impl fmt::Display for Transcript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
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
