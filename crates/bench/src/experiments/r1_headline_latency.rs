//! R-1 — the headline result: average per-frame latency of NoCache vs
//! ExactCache vs LocalApprox vs Full across the four standard scenarios,
//! with the per-scenario latency reduction the abstract summarizes as
//! "up to 94%". Its cells carry the R-1 and R-2 claims.

use std::num::NonZeroUsize;

use crate::claims::{Cell, RowResult};
use crate::{experiment_duration, Transcript, MASTER_SEED};
use simcore::table::{fnum, fpct, Table};
use simcore::SimDuration;
use workloads::{run_matrix, video};

use approxcache::SystemVariant;

pub(crate) fn run(out: &mut Transcript) -> RowResult {
    let result = cells(experiment_duration(), simcore::parallel::default_threads());
    let mut table = Table::new(vec![
        "scenario",
        "variant",
        "mean_ms",
        "p95_ms",
        "accuracy",
        "reuse",
        "latency_reduction",
    ]);
    let mut best_reduction: f64 = 0.0;
    for cell in &result.cells {
        let baseline = &result.cell(&cell.scenario.name, "no-cache").report;
        let report = &cell.report;
        let reduction = report.latency_reduction_vs(baseline);
        if cell.variant == SystemVariant::Full {
            best_reduction = best_reduction.max(reduction);
        }
        table.row(vec![
            cell.scenario.name.clone(),
            cell.label.to_owned(),
            fnum(report.latency_ms.mean, 2),
            fnum(report.latency_ms.p95, 2),
            fpct(report.accuracy),
            fpct(report.reuse_rate()),
            fpct(reduction),
        ]);
    }
    out.emit(
        "r1_headline_latency",
        "average latency across scenarios",
        &table,
    );
    out.note(format_args!(
        "best full-system average-latency reduction: {} (paper: up to 94%)",
        fpct(best_reduction)
    ));
    result
}

/// Every headline scenario under every headline variant, scenario-major,
/// each cell labelled by its variant.
pub(crate) fn cells(duration: SimDuration, threads: NonZeroUsize) -> RowResult {
    let scenarios: Vec<_> = video::headline_set()
        .into_iter()
        .map(|s| s.with_duration(duration))
        .collect();
    let variants = SystemVariant::headline_set();
    let matrix = run_matrix(&scenarios, &variants, MASTER_SEED, threads);
    let cells = matrix
        .into_iter()
        .enumerate()
        .map(|(i, cell)| Cell {
            label: cell.variant.name(),
            scenario: scenarios[i / variants.len()].clone(),
            config: cell.config,
            variant: cell.variant,
            seed: cell.seed,
            report: cell.report,
        })
        .collect();
    RowResult { cells }
}
