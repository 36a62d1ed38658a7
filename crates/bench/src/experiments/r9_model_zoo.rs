//! R-9 — the model-zoo table: per-model baseline latency/accuracy, the
//! full system's speedup and accuracy delta, and the device-class effect.
//! Heavier models benefit *more* from caching — the avoided work is
//! bigger while the lookup cost is constant.

use crate::{experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use dnnsim::DeviceClass;
use simcore::table::{fnum, fpct, Table};
use workloads::video;

pub(crate) fn run(out: &mut Transcript) {
    let scenario = video::turn_and_look().with_duration(experiment_duration());
    let base_config = PipelineConfig::calibrated(&scenario, MASTER_SEED);

    let mut table = Table::new(vec![
        "model", "device", "base_ms", "full_ms", "speedup", "base_acc", "full_acc",
    ]);
    for model in dnnsim::zoo::all() {
        for device in [DeviceClass::MidRange, DeviceClass::Budget] {
            let mut config = base_config.clone().with_model(model.clone());
            config.device_class = device;
            let base = crate::summary_run(&scenario, &config, SystemVariant::NoCache, MASTER_SEED);
            let full = crate::summary_run(&scenario, &config, SystemVariant::Full, MASTER_SEED);
            table.row(vec![
                model.name.to_string(),
                device.to_string(),
                fnum(base.latency_ms.mean, 1),
                fnum(full.latency_ms.mean, 2),
                format!("{:.1}x", base.latency_ms.mean / full.latency_ms.mean),
                fpct(base.accuracy),
                fpct(full.accuracy),
            ]);
        }
    }
    out.emit(
        "r9_model_zoo",
        "model zoo x device class (turn-and-look)",
        &table,
    );
}
