//! R-8 — energy per frame: NoCache vs Full across the model zoo on a
//! slow pan. Inference power dominates, so energy savings track latency
//! savings minus the (small) radio cost of collaboration.

use crate::{claims::RowResult, experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use simcore::table::{fnum, fpct, Table};
use workloads::video;

pub(crate) fn run(out: &mut Transcript) -> RowResult {
    let scenario = video::slow_pan().with_duration(experiment_duration());
    let base_config = PipelineConfig::calibrated(&scenario, MASTER_SEED);

    // A typical 4000 mAh / 3.85 V phone battery.
    const BATTERY_MWH: f64 = 15_400.0;

    let mut table = Table::new(vec![
        "model",
        "no_cache_mJ",
        "full_mJ",
        "energy_reduction",
        "no_cache_batt_pct_h",
        "full_batt_pct_h",
    ]);
    for model in dnnsim::zoo::all() {
        let config = base_config.clone().with_model(model.clone());
        let base = crate::summary_run(&scenario, &config, SystemVariant::NoCache, MASTER_SEED);
        let full = crate::summary_run(&scenario, &config, SystemVariant::Full, MASTER_SEED);
        let reduction = 1.0 - full.mean_energy / base.mean_energy;
        table.row(vec![
            model.name.to_string(),
            fnum(base.mean_energy.value(), 1),
            fnum(full.mean_energy.value(), 1),
            fpct(reduction),
            fnum(base.battery_pct_per_hour(BATTERY_MWH), 1),
            fnum(full.battery_pct_per_hour(BATTERY_MWH), 1),
        ]);
    }
    out.emit(
        "r8_energy",
        "per-frame energy across the model zoo (slow pan)",
        &table,
    );
    RowResult::default()
}
