//! R-4 — per-frame latency CDF, Full vs NoCache, on the walking tour
//! (the hardest single-device scenario, so the CDF shows both the reuse
//! mass near zero and the inference tail).

use crate::{claims::RowResult, experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use simcore::table::{fnum, Table};
use workloads::video;

pub(crate) fn run(out: &mut Transcript) -> RowResult {
    let scenario = video::walking_tour().with_duration(experiment_duration());
    let config = PipelineConfig::calibrated(&scenario, MASTER_SEED);
    let base = crate::summary_run(&scenario, &config, SystemVariant::NoCache, MASTER_SEED);
    let full = crate::summary_run(&scenario, &config, SystemVariant::Full, MASTER_SEED);

    let points = 21;
    let base_series = base.latency_cdf().series(points);
    let full_series = full.latency_cdf().series(points);

    let mut table = Table::new(vec![
        "cum_fraction",
        "no_cache_latency_ms",
        "full_latency_ms",
    ]);
    for (b, f) in base_series.iter().zip(&full_series) {
        table.row(vec![fnum(b.1, 2), fnum(b.0, 2), fnum(f.0, 2)]);
    }
    out.emit(
        "r4_latency_cdf",
        "per-frame latency CDF, walking tour",
        &table,
    );
    out.note(format_args!(
        "median: no-cache {:.1} ms vs full {:.2} ms; p99: {:.1} vs {:.1}",
        base.latency_ms.p50, full.latency_ms.p50, base.latency_ms.p99, full.latency_ms.p99
    ));
    RowResult::default()
}
