//! R-10 — ablation: the full system minus each mechanism, in the museum
//! (where all three mechanisms contribute). Shows what each mechanism is
//! worth and that no single one explains the result.

use crate::{experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use simcore::table::{fnum, fpct, Table};
use workloads::multi;

pub(crate) fn run(out: &mut Transcript) {
    let scenario = multi::museum(8).with_duration(experiment_duration());
    let config = PipelineConfig::calibrated(&scenario, MASTER_SEED);
    let baseline = crate::summary_run(&scenario, &config, SystemVariant::NoCache, MASTER_SEED);

    let mut table = Table::new(vec![
        "variant",
        "mean_ms",
        "latency_reduction",
        "accuracy",
        "imu",
        "local",
        "peer",
        "dnn",
    ]);
    for variant in SystemVariant::ablation_set() {
        let report = crate::summary_run(&scenario, &config, variant, MASTER_SEED);
        table.row(vec![
            variant.to_string(),
            fnum(report.latency_ms.mean, 2),
            fpct(report.latency_reduction_vs(&baseline)),
            fpct(report.accuracy),
            fpct(report.path_fraction(ResolutionPath::ImuReuse)),
            fpct(report.path_fraction(ResolutionPath::LocalCache)),
            fpct(report.path_fraction(ResolutionPath::PeerCache)),
            fpct(report.path_fraction(ResolutionPath::FullInference)),
        ]);
    }
    out.emit(
        "r10_ablation",
        "mechanism ablation in the museum (vs no-cache baseline)",
        &table,
    );
    out.note(format_args!(
        "no-cache baseline: {:.2} ms mean, accuracy {}",
        baseline.latency_ms.mean,
        fpct(baseline.accuracy)
    ));
}
