//! Sweep helpers and the run matrix.

use std::num::NonZeroUsize;

use approxcache::{run, Detail, PipelineConfig, RunReport, Scenario, SystemVariant};
use simcore::parallel::run_jobs_on;

/// One cell of a scenario × variant matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// The scenario name.
    pub scenario: String,
    /// The variant that ran.
    pub variant: SystemVariant,
    /// The calibrated configuration it ran under.
    pub config: PipelineConfig,
    /// The seed it ran at.
    pub seed: u64,
    /// The run's report.
    pub report: RunReport,
}

/// Runs every `(scenario, variant)` combination with a per-scenario
/// calibrated configuration and a deterministic seed derived from `seed`
/// and the scenario index — so any single cell can be reproduced in
/// isolation. Cells run on up to `threads` workers and come back in
/// row-major order; each derives its own seed, so the result is
/// identical at every thread count.
pub fn run_matrix(
    scenarios: &[Scenario],
    variants: &[SystemVariant],
    seed: u64,
    threads: NonZeroUsize,
) -> Vec<MatrixCell> {
    let configs: Vec<PipelineConfig> = scenarios
        .iter()
        .map(|scenario| PipelineConfig::calibrated(scenario, seed))
        .collect();
    let jobs = scenarios
        .iter()
        .zip(&configs)
        .enumerate()
        .flat_map(|(scenario_index, (scenario, config))| {
            variants.iter().map(move |&variant| {
                move || {
                    let cell_seed = seed
                        .wrapping_mul(1_000_003)
                        .wrapping_add(scenario_index as u64);
                    let report = run(scenario, config, variant, cell_seed, Detail::Summary)
                        .expect("valid scenario")
                        .report;
                    MatrixCell {
                        scenario: scenario.name.clone(),
                        variant,
                        config: config.clone(),
                        seed: cell_seed,
                        report,
                    }
                }
            })
        })
        .collect();
    run_jobs_on(threads, jobs)
}

/// Finds the cell for a given scenario/variant pair.
pub fn cell<'a>(
    cells: &'a [MatrixCell],
    scenario: &str,
    variant: SystemVariant,
) -> Option<&'a MatrixCell> {
    cells
        .iter()
        .find(|c| c.scenario == scenario && c.variant == variant)
}

/// Geometrically spaced capacity values for the eviction experiment.
pub fn capacity_sweep(from: usize, to: usize) -> Vec<usize> {
    assert!(
        from > 0 && from <= to,
        "capacity_sweep: need 0 < from <= to"
    );
    let mut values = Vec::new();
    let mut v = from;
    while v < to {
        values.push(v);
        v *= 2;
    }
    values.push(to);
    values
}

/// Evenly spaced multipliers for threshold sweeps: `count` points from
/// `from` to `to` inclusive.
pub fn linear_sweep(from: f64, to: f64, count: usize) -> Vec<f64> {
    assert!(count >= 2, "linear_sweep: need at least 2 points");
    (0..count)
        .map(|i| from + (to - from) * i as f64 / (count - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video;
    use simcore::SimDuration;

    #[test]
    fn matrix_covers_all_cells() {
        let scenarios: Vec<Scenario> =
            vec![video::stationary().with_duration(SimDuration::from_secs(3))];
        let variants = [SystemVariant::NoCache, SystemVariant::Full];
        let cells = run_matrix(&scenarios, &variants, 1, NonZeroUsize::MIN);
        assert_eq!(cells.len(), 2);
        assert!(cell(&cells, "stationary", SystemVariant::Full).is_some());
        assert!(cell(&cells, "stationary", SystemVariant::NoImu).is_none());
        let no_cache = cell(&cells, "stationary", SystemVariant::NoCache).unwrap();
        let full = cell(&cells, "stationary", SystemVariant::Full).unwrap();
        assert!(full.report.latency_ms.mean < no_cache.report.latency_ms.mean);
        // A cell carries what it takes to run it again in isolation.
        let again = run(
            &scenarios[0],
            &full.config,
            full.variant,
            full.seed,
            Detail::Summary,
        )
        .unwrap();
        assert_eq!(again.report.latencies_ms, full.report.latencies_ms);
    }

    #[test]
    fn matrix_is_identical_at_every_thread_count() {
        let scenarios = vec![
            video::stationary().with_duration(SimDuration::from_secs(3)),
            video::slow_pan().with_duration(SimDuration::from_secs(3)),
        ];
        let variants = [SystemVariant::NoCache, SystemVariant::Full];
        let one = run_matrix(&scenarios, &variants, 5, NonZeroUsize::MIN);
        for threads in [1, 4] {
            let again = run_matrix(
                &scenarios,
                &variants,
                5,
                NonZeroUsize::new(threads).unwrap(),
            );
            assert_eq!(one.len(), again.len());
            for (a, b) in one.iter().zip(&again) {
                assert_eq!(a.scenario, b.scenario);
                assert_eq!(a.variant, b.variant);
                assert_eq!(a.report.latencies_ms, b.report.latencies_ms);
                assert_eq!(a.report.path_counts, b.report.path_counts);
            }
        }
    }

    #[test]
    fn capacity_sweep_is_geometric_and_inclusive() {
        assert_eq!(capacity_sweep(16, 256), vec![16, 32, 64, 128, 256]);
        assert_eq!(capacity_sweep(10, 100), vec![10, 20, 40, 80, 100]);
        assert_eq!(capacity_sweep(8, 8), vec![8]);
    }

    #[test]
    #[should_panic(expected = "need 0 < from <= to")]
    fn capacity_sweep_validates() {
        capacity_sweep(0, 8);
    }

    #[test]
    fn linear_sweep_hits_endpoints() {
        let v = linear_sweep(0.5, 2.5, 5);
        assert_eq!(v.len(), 5);
        assert!((v[0] - 0.5).abs() < 1e-12);
        assert!((v[4] - 2.5).abs() < 1e-12);
        assert!((v[2] - 1.5).abs() < 1e-12);
    }
}
