//! R-17 (extension) — runtime threshold adaptation: start the system with
//! a badly miscalibrated distance threshold and watch the sampled-audit
//! controller recover accuracy, compared against the same miscalibration
//! without adaptation and against an offline-calibrated reference.

use crate::{claims::RowResult, experiment_duration, Transcript, MASTER_SEED};
use ann::AknnConfig;
use approxcache::prelude::*;
use approxcache::AdaptiveConfig;
use simcore::table::{fnum, fpct, Table};
use workloads::video;

pub(crate) fn run(out: &mut Transcript) -> RowResult {
    let scenario = video::slow_pan().with_duration(experiment_duration() * 2);
    let calibrated = PipelineConfig::calibrated(&scenario, MASTER_SEED);
    let good_threshold = calibrated.cache.aknn.distance_threshold;

    let mut table = Table::new(vec![
        "config",
        "start_threshold",
        "accuracy",
        "reuse",
        "mean_ms",
    ]);

    let mut run = |label: &str, start: f64, adaptive: Option<AdaptiveConfig>| {
        let config = calibrated
            .clone()
            .with_cache(calibrated.cache.clone().with_aknn(AknnConfig {
                distance_threshold: start,
                ..calibrated.cache.aknn
            }))
            .with_adaptive(adaptive);
        let report = crate::summary_run(&scenario, &config, SystemVariant::Full, MASTER_SEED);
        table.row(vec![
            label.into(),
            fnum(start, 2),
            fpct(report.accuracy),
            fpct(report.reuse_rate()),
            fnum(report.latency_ms.mean, 2),
        ]);
    };

    run("calibrated", good_threshold, None);
    let loose = good_threshold * 2.2;
    run("loose-static", loose, None);
    run("loose-adaptive", loose, Some(AdaptiveConfig::default()));
    let tight = good_threshold * 0.2;
    run("tight-static", tight, None);
    run("tight-adaptive", tight, Some(AdaptiveConfig::default()));

    out.emit(
        "r17_adaptive",
        "audit-driven threshold adaptation from a miscalibrated start (slow pan)",
        &table,
    );
    RowResult::default()
}
