//! R-2 — the accuracy/threshold trade-off behind "minimal loss of
//! recognition accuracy": sweep the A-kNN distance threshold around the
//! calibrated value on a slow pan, reporting hit rate, reuse, accuracy
//! and the accuracy delta vs always-infer.

use crate::{claims::RowResult, experiment_duration, Transcript, MASTER_SEED};
use ann::AknnConfig;
use approxcache::prelude::*;
use simcore::table::{fnum, fpct, Table};
use workloads::{sweep, video};

pub(crate) fn run(out: &mut Transcript) -> RowResult {
    let scenario = video::slow_pan().with_duration(experiment_duration());
    let calibrated = PipelineConfig::calibrated(&scenario, MASTER_SEED);
    let calibrated_threshold = calibrated.cache.aknn.distance_threshold;
    let baseline = crate::summary_run(&scenario, &calibrated, SystemVariant::NoCache, MASTER_SEED);

    let mut table = Table::new(vec![
        "threshold",
        "multiplier",
        "hit_rate",
        "reuse",
        "accuracy",
        "accuracy_delta",
        "mean_ms",
    ]);
    for multiplier in sweep::linear_sweep(0.25, 2.5, 10) {
        let threshold = calibrated_threshold * multiplier;
        let config = calibrated
            .clone()
            .with_cache(calibrated.cache.clone().with_aknn(AknnConfig {
                distance_threshold: threshold,
                ..calibrated.cache.aknn
            }));
        let report = crate::summary_run(&scenario, &config, SystemVariant::Full, MASTER_SEED);
        table.row(vec![
            fnum(threshold, 2),
            fnum(multiplier, 2),
            fpct(report.cache.hit_rate()),
            fpct(report.reuse_rate()),
            fpct(report.accuracy),
            format!("{:+.1}pp", report.accuracy_delta_vs(&baseline) * 100.0),
            fnum(report.latency_ms.mean, 2),
        ]);
    }
    out.emit(
        "r2_accuracy_threshold",
        "accuracy and reuse vs distance threshold (slow pan)",
        &table,
    );
    out.note(format_args!(
        "calibrated threshold: {:.2} (multiplier 1.0); baseline accuracy {}",
        calibrated_threshold,
        fpct(baseline.accuracy)
    ));
    RowResult::default()
}
