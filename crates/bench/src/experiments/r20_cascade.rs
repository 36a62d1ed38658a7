//! R-20 (extension) — big/little cascades × caching: the third classic
//! mobile-inference optimization (after quantization, R-18) composed with
//! the cache. The cascade cheapens misses; the cache removes repeats; the
//! combination is strictly better than either alone on miss-heavy
//! streams.

use crate::{claims::RowResult, experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use simcore::table::{fnum, fpct, Table};
use workloads::video;

pub(crate) fn run(out: &mut Transcript) -> RowResult {
    // Walking tour: the most miss-heavy standard scenario, with the
    // heavyweight model where a cascade matters most.
    let scenario = video::walking_tour().with_duration(experiment_duration());
    let big_only =
        PipelineConfig::calibrated(&scenario, MASTER_SEED).with_model(dnnsim::zoo::inception_v3());
    let cascaded = big_only
        .clone()
        .with_cascade(dnnsim::zoo::squeezenet(), 0.8);

    let mut table = Table::new(vec![
        "backend",
        "system",
        "mean_ms",
        "miss_path_ms",
        "accuracy",
        "energy_mJ",
    ]);
    for (label, config) in [
        ("inception_v3", &big_only),
        ("squeezenet+inception_v3", &cascaded),
    ] {
        for variant in [SystemVariant::NoCache, SystemVariant::Full] {
            let report = crate::summary_run(&scenario, config, variant, MASTER_SEED);
            table.row(vec![
                label.into(),
                variant.to_string(),
                fnum(report.latency_ms.mean, 2),
                fnum(
                    report
                        .path_mean_latency(ResolutionPath::FullInference)
                        .value(),
                    1,
                ),
                fpct(report.accuracy),
                fnum(report.mean_energy.value(), 1),
            ]);
        }
    }
    out.emit(
        "r20_cascade",
        "big/little cascade x approximate caching (walking tour)",
        &table,
    );
    RowResult::default()
}
