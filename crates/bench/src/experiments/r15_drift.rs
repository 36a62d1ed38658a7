//! R-15 (extension) — lighting drift: as the scene's global appearance
//! drifts, cached keys age out of match range. Shows reuse/accuracy vs
//! drift rate, with and without periodic age-based expiry (which drops
//! stale entries that would otherwise dilute k-NN votes, at a reuse
//! cost).

use crate::{experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use approxcache::CacheExpiry;
use scene::SceneConfig;
use simcore::table::{fnum, fpct, Table};
use simcore::SimDuration;
use workloads::video;

pub(crate) fn run(out: &mut Transcript) {
    let duration = experiment_duration() * 2;
    let mut table = Table::new(vec![
        "drift_per_s",
        "expiry",
        "reuse",
        "hit_rate",
        "accuracy",
        "mean_ms",
        "expired",
    ]);
    for &drift in &[0.0, 0.1, 0.3, 1.0, 3.0] {
        let scenario = video::turn_and_look()
            .with_name(&format!("drift-{drift}"))
            .with_scene(SceneConfig {
                drift_rate: drift,
                ..SceneConfig::default()
            })
            .with_duration(duration);
        let base = PipelineConfig::calibrated(&scenario, MASTER_SEED);
        for (label, expiry) in [
            ("off", None),
            (
                "10s",
                Some(CacheExpiry {
                    interval: SimDuration::from_secs(2),
                    max_age: SimDuration::from_secs(10),
                }),
            ),
        ] {
            let config = base.clone().with_expiry(expiry);
            let report = crate::summary_run(&scenario, &config, SystemVariant::Full, MASTER_SEED);
            table.row(vec![
                fnum(drift, 1),
                label.into(),
                fpct(report.reuse_rate()),
                fpct(report.cache.hit_rate()),
                fpct(report.accuracy),
                fnum(report.latency_ms.mean, 2),
                report.cache.expirations.to_string(),
            ]);
        }
    }
    out.emit(
        "r15_drift",
        "lighting drift vs cache staleness (turn-and-look)",
        &table,
    );
}
