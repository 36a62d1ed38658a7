//! R-1 — the headline result: average per-frame latency of NoCache vs
//! ExactCache vs LocalApprox vs Full across the four standard scenarios,
//! with the per-scenario latency reduction the abstract summarizes as
//! "up to 94%".

use crate::{experiment_duration, Transcript, MASTER_SEED};
use simcore::table::{fnum, fpct, Table};
use workloads::{run_matrix, sweep::cell, video};

use approxcache::SystemVariant;

pub(crate) fn run(out: &mut Transcript) {
    let duration = experiment_duration();
    let scenarios: Vec<_> = video::headline_set()
        .into_iter()
        .map(|s| s.with_duration(duration))
        .collect();
    let cells = run_matrix(
        &scenarios,
        &SystemVariant::headline_set(),
        MASTER_SEED,
        simcore::parallel::default_threads(),
    );

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
    for scenario in &scenarios {
        let baseline = cell(&cells, &scenario.name, SystemVariant::NoCache)
            .expect("baseline ran")
            .report
            .clone();
        for variant in SystemVariant::headline_set() {
            let report = &cell(&cells, &scenario.name, variant)
                .expect("cell ran")
                .report;
            let reduction = report.latency_reduction_vs(&baseline);
            if variant == SystemVariant::Full {
                best_reduction = best_reduction.max(reduction);
            }
            table.row(vec![
                scenario.name.clone(),
                variant.to_string(),
                fnum(report.latency_ms.mean, 2),
                fnum(report.latency_ms.p95, 2),
                fpct(report.accuracy),
                fpct(report.reuse_rate()),
                fpct(reduction),
            ]);
        }
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
}
