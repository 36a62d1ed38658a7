//! R-19 (extension) — heterogeneous fleets: a museum of mixed budget and
//! flagship phones. Collaboration is a progressive subsidy: slow devices
//! gain the most because their avoided inferences are the most expensive,
//! while flagships lose almost nothing by sharing.

use crate::{experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use dnnsim::DeviceClass;
use imu::MotionProfile;
use scene::SceneConfig;
use simcore::table::{fnum, fpct, Table};
use simcore::units::Millijoules;

pub(crate) fn run(out: &mut Transcript) {
    let scenario = Scenario::multi_device(
        MotionProfile::TurnAndLook {
            dwell_secs: 3.0,
            turn_deg: 45.0,
        },
        8,
    )
    .with_name("mixed-museum")
    .with_scene(SceneConfig {
        num_objects: 40,
        world_extent: 12.0,
        ..SceneConfig::default()
    })
    .with_duration(experiment_duration())
    .with_device_classes(vec![DeviceClass::Budget, DeviceClass::Flagship]);
    let config = PipelineConfig::calibrated(&scenario, MASTER_SEED);

    let mut table = Table::new(vec![
        "device_class",
        "system",
        "mean_ms",
        "accuracy",
        "energy_mJ",
    ]);
    for (label, variant) in [
        ("no-peer", SystemVariant::NoPeer),
        ("full", SystemVariant::Full),
    ] {
        let result = crate::detailed_run(&scenario, &config, variant, MASTER_SEED);
        for (class_name, offset) in [("budget", 0usize), ("flagship", 1)] {
            let outcomes: Vec<_> = result
                .per_device
                .iter()
                .skip(offset)
                .step_by(2)
                .flatten()
                .collect();
            let n = outcomes.len() as f64;
            let mean_ms = outcomes
                .iter()
                .map(|o| o.latency.as_millis_f64())
                .sum::<f64>()
                / n;
            let accuracy = outcomes.iter().filter(|o| o.is_correct()).count() as f64 / n;
            let energy = (outcomes.iter().map(|o| o.energy).sum::<Millijoules>() / n).value();
            table.row(vec![
                class_name.into(),
                label.into(),
                fnum(mean_ms, 2),
                fpct(accuracy),
                fnum(energy, 1),
            ]);
        }
    }
    out.emit(
        "r19_heterogeneous",
        "mixed budget/flagship museum: who gains from collaboration",
        &table,
    );
}
