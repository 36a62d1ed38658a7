//! R-7 — inertial-gate sensitivity: sweep the still-threshold and the
//! maximum reuse age on stationary and handheld streams, reporting the
//! fast-path share, the wrong-reuse rate it induces, and mean latency.

use crate::{experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use imu::{ImuGate, MotionProfile};
use simcore::table::{fnum, fpct, Table};
use simcore::SimDuration;

pub(crate) fn run(out: &mut Transcript) {
    let duration = experiment_duration();
    let scenarios = [
        Scenario::single_device(MotionProfile::Stationary).with_duration(duration),
        Scenario::single_device(MotionProfile::HandheldJitter)
            .with_name("handheld")
            .with_duration(duration),
    ];
    let thresholds = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

    let mut table = Table::new(vec![
        "scenario",
        "still_threshold",
        "imu_fast_path",
        "accuracy",
        "mean_ms",
    ]);
    for scenario in &scenarios {
        let calibrated = PipelineConfig::calibrated(scenario, MASTER_SEED);
        for &threshold in &thresholds {
            let gate = ImuGate {
                still_threshold: threshold,
                ..ImuGate::default()
            };
            let config = calibrated.clone().with_gate(gate);
            let report = crate::summary_run(scenario, &config, SystemVariant::Full, MASTER_SEED);
            table.row(vec![
                scenario.name.clone(),
                fnum(threshold, 2),
                fpct(report.path_fraction(ResolutionPath::ImuReuse)),
                fpct(report.accuracy),
                fnum(report.latency_ms.mean, 2),
            ]);
        }
    }
    out.emit(
        "r7_imu_gate",
        "still-threshold sensitivity of the inertial gate",
        &table,
    );

    // Second axis: the reuse-age bound on a stationary camera over a
    // churning scene (how long may the fast path echo before the world
    // moves on underneath it?).
    let churny = workloads::video::object_churn().with_duration(duration);
    let calibrated = PipelineConfig::calibrated(&churny, MASTER_SEED);
    let mut age_table = Table::new(vec![
        "max_reuse_age_ms",
        "imu_fast_path",
        "accuracy",
        "mean_ms",
    ]);
    for age_ms in [250u64, 500, 1_000, 2_000, 4_000, 8_000] {
        let gate = ImuGate {
            max_reuse_age: SimDuration::from_millis(age_ms),
            ..ImuGate::default()
        };
        let config = calibrated.clone().with_gate(gate);
        let report = crate::summary_run(&churny, &config, SystemVariant::Full, MASTER_SEED);
        age_table.row(vec![
            age_ms.to_string(),
            fpct(report.path_fraction(ResolutionPath::ImuReuse)),
            fpct(report.accuracy),
            fnum(report.latency_ms.mean, 2),
        ]);
    }
    out.emit(
        "r7_imu_gate_age",
        "reuse-age bound under object churn",
        &age_table,
    );
}
