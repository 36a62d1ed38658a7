//! R-6 — cache capacity × eviction policy: hit rate and accuracy as the
//! cache shrinks, on a cyclic exhibit-ring stream with light churn (the
//! workload where victim choice matters most: LRU thrashes on cyclic
//! access below the working-set size, frequency-aware policies degrade
//! gracefully).

use crate::{claims::RowResult, experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use reuse::{CacheConfig, EvictionPolicy};
use simcore::table::{fnum, fpct, Table};
use simcore::SimDuration;
use workloads::sweep;

pub(crate) fn run(out: &mut Transcript) -> RowResult {
    // Eviction only matters when the stream *revisits* subjects after the
    // working set exceeds capacity. A fast turn-and-look sweeps a ring of
    // exhibits over and over (cyclic access — the workload where victim
    // choice is famously decisive), and light churn adds staleness
    // pressure for TTL to exploit.
    let scenario = approxcache::Scenario::single_device(imu::MotionProfile::TurnAndLook {
        dwell_secs: 1.5,
        turn_deg: 90.0,
    })
    .with_name("exhibit-ring")
    .with_churn(ChurnSpec {
        interval: SimDuration::from_secs(15),
        fraction: 0.1,
    })
    .with_duration(experiment_duration() * 2);
    let calibrated = PipelineConfig::calibrated(&scenario, MASTER_SEED);
    let capacities = sweep::capacity_sweep(2, 64);

    let mut table = Table::new(vec![
        "capacity",
        "policy",
        "hit_rate",
        "reuse",
        "accuracy",
        "evictions",
        "mean_ms",
    ]);
    for &capacity in &capacities {
        for policy in EvictionPolicy::standard_set() {
            let cache = CacheConfig::new(capacity)
                .with_aknn(calibrated.cache.aknn)
                .with_admission(calibrated.cache.admission)
                .with_eviction(policy);
            let config = calibrated.clone().with_cache(cache);
            let report = crate::summary_run(&scenario, &config, SystemVariant::Full, MASTER_SEED);
            table.row(vec![
                capacity.to_string(),
                policy.to_string(),
                fpct(report.cache.hit_rate()),
                fpct(report.reuse_rate()),
                fpct(report.accuracy),
                report.cache.evictions.to_string(),
                fnum(report.latency_ms.mean, 2),
            ]);
        }
    }
    out.emit(
        "r6_eviction",
        "capacity x eviction policy under object churn",
        &table,
    );
    RowResult::default()
}
