//! R-3 — where reuse comes from: per-scenario breakdown of frames answered
//! by the IMU fast path, the local approximate cache, peers, and the DNN.

use crate::{claims::RowResult, experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use simcore::table::{fpct, Table};
use workloads::{multi, video};

pub(crate) fn run(out: &mut Transcript) -> RowResult {
    let duration = experiment_duration();
    let mut scenarios = video::all();
    scenarios.push(multi::museum(8));
    let scenarios: Vec<_> = scenarios
        .into_iter()
        .map(|s| s.with_duration(duration))
        .collect();

    let mut table = Table::new(vec![
        "scenario",
        "devices",
        "imu_fast_path",
        "local_cache",
        "peer_cache",
        "full_inference",
        "reuse_total",
    ]);
    let mut latency_table = Table::new(vec![
        "scenario",
        "imu_ms",
        "local_ms",
        "peer_ms",
        "inference_ms",
    ]);
    for scenario in &scenarios {
        let config = PipelineConfig::calibrated(scenario, MASTER_SEED);
        let report = crate::summary_run(scenario, &config, SystemVariant::Full, MASTER_SEED);
        table.row(vec![
            scenario.name.clone(),
            scenario.devices.to_string(),
            fpct(report.path_fraction(ResolutionPath::ImuReuse)),
            fpct(report.path_fraction(ResolutionPath::LocalCache)),
            fpct(report.path_fraction(ResolutionPath::PeerCache)),
            fpct(report.path_fraction(ResolutionPath::FullInference)),
            fpct(report.reuse_rate()),
        ]);
        latency_table.row(vec![
            scenario.name.clone(),
            simcore::table::fnum(
                report.path_mean_latency(ResolutionPath::ImuReuse).value(),
                3,
            ),
            simcore::table::fnum(
                report.path_mean_latency(ResolutionPath::LocalCache).value(),
                3,
            ),
            simcore::table::fnum(
                report.path_mean_latency(ResolutionPath::PeerCache).value(),
                3,
            ),
            simcore::table::fnum(
                report
                    .path_mean_latency(ResolutionPath::FullInference)
                    .value(),
                2,
            ),
        ]);
    }
    out.emit(
        "r3_hit_breakdown",
        "reuse-source breakdown per scenario (full system)",
        &table,
    );
    out.emit(
        "r3_path_latency",
        "mean per-frame latency by answering path",
        &latency_table,
    );
    RowResult::default()
}
