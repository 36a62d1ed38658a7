//! R-18 (extension) — quantization composes with caching: int8
//! quantization is the other standard answer to mobile inference cost.
//! This table shows the four combinations (fp32/int8 × no-cache/full) —
//! caching delivers a far larger latency cut than quantization, and the
//! two stack: the cached int8 system is the fastest configuration while
//! keeping accuracy above the uncached fp32 baseline.

use crate::{experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use simcore::table::{fnum, fpct, Table};
use workloads::video;

pub(crate) fn run(out: &mut Transcript) {
    let scenario = video::turn_and_look().with_duration(experiment_duration());
    let base = PipelineConfig::calibrated(&scenario, MASTER_SEED);

    let mut table = Table::new(vec![
        "model",
        "system",
        "mean_ms",
        "accuracy",
        "energy_mJ",
        "vs_fp32_nocache",
    ]);
    let fp32 = dnnsim::zoo::mobilenet_v2();
    let int8 = fp32.quantized();
    let reference = crate::summary_run(
        &scenario,
        &base.clone().with_model(fp32.clone()),
        SystemVariant::NoCache,
        MASTER_SEED,
    );
    for model in [fp32, int8] {
        for variant in [SystemVariant::NoCache, SystemVariant::Full] {
            let config = base.clone().with_model(model.clone());
            let report = crate::summary_run(&scenario, &config, variant, MASTER_SEED);
            table.row(vec![
                model.name.to_string(),
                variant.to_string(),
                fnum(report.latency_ms.mean, 2),
                fpct(report.accuracy),
                fnum(report.mean_energy.value(), 1),
                fpct(report.latency_reduction_vs(&reference)),
            ]);
        }
    }
    out.emit(
        "r18_quantization",
        "int8 quantization x approximate caching (turn-and-look)",
        &table,
    );
}
