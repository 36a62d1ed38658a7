//! R-5 — the value of neighbours: hit rate, latency and network cost as
//! the number of co-located devices grows in the museum scenario.

use crate::{claims::RowResult, experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use simcore::table::{fnum, fpct, Table};
use workloads::multi;

pub(crate) fn run(out: &mut Transcript) -> RowResult {
    let duration = experiment_duration();
    let counts = [1usize, 2, 4, 8, 16];
    let mut table = Table::new(vec![
        "devices",
        "peer_hits",
        "reuse",
        "mean_ms",
        "accuracy",
        "net_kB_per_device",
        "msgs_per_device",
    ]);
    for &count in &counts {
        let scenario = multi::museum(count).with_duration(duration);
        let config = PipelineConfig::calibrated(&scenario, MASTER_SEED);
        let report = crate::summary_run(&scenario, &config, SystemVariant::Full, MASTER_SEED);
        table.row(vec![
            count.to_string(),
            fpct(report.path_fraction(ResolutionPath::PeerCache)),
            fpct(report.reuse_rate()),
            fnum(report.latency_ms.mean, 2),
            fpct(report.accuracy),
            fnum(report.network.bytes_sent as f64 / 1e3 / count as f64, 1),
            fnum(report.network.messages_sent as f64 / count as f64, 0),
        ]);
    }
    out.emit(
        "r5_peer_scaling",
        "effect of peer count (museum, full system)",
        &table,
    );
    RowResult::default()
}
