//! R-21 (extension) — graceful degradation under injected faults: the
//! museum scenario swept over radio-outage fractions, with the full
//! system run both bare and with the resilience layer armed
//! (advertisement retry, dead-peer circuit breaker, dark fallback), vs
//! the no-cache baseline under the *same* faults. The fault counters in
//! the last columns reconcile the injected episodes with what the
//! devices actually absorbed. Its 30% cells carry the R-21 claim.

use std::num::NonZeroUsize;

use crate::claims::{Cell, RowResult};
use crate::{experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use simcore::table::{fnum, fpct, Table};
use simcore::SimDuration;

pub(crate) fn run(out: &mut Transcript) -> RowResult {
    let result = cells(experiment_duration(), simcore::parallel::default_threads());
    let mut table = Table::new(vec![
        "outage",
        "system",
        "mean_ms",
        "accuracy",
        "reuse",
        "peer_hits",
        "dark_frames",
        "crashes",
        "poisoned",
        "retries",
        "fallbacks",
    ]);
    for cell in &result.cells {
        let report = &cell.report;
        table.row(vec![
            fpct(cell.scenario.faults.outage_fraction),
            cell.label.to_owned(),
            fnum(report.latency_ms.mean, 2),
            fpct(report.accuracy),
            fpct(report.reuse_rate()),
            fpct(report.path_fraction(ResolutionPath::PeerCache)),
            report.faults.outage_frames.to_string(),
            report.faults.crashes.to_string(),
            report.faults.poisoned_ads.to_string(),
            report.faults.ad_retries.to_string(),
            report.faults.peer_fallbacks.to_string(),
        ]);
    }
    out.emit(
        "r21_resilience",
        "fault injection: outage sweep, bare vs resilient (museum x6)",
        &table,
    );
    result
}

/// For each outage fraction, no-cache, bare full and resilient full
/// under the same faults (`museum-outage<percent>`), on `threads`
/// workers.
pub(crate) fn cells(duration: SimDuration, threads: NonZeroUsize) -> RowResult {
    let mut jobs = Vec::new();
    for outage in [0.0, 0.15, 0.3] {
        let mut scenario = workloads::multi::museum(6)
            .with_name(&format!("museum-outage{}", (outage * 100.0) as u32))
            .with_duration(duration);
        if outage > 0.0 {
            scenario = scenario.with_faults(r21_faults(outage));
        }
        let base = PipelineConfig::calibrated(&scenario, MASTER_SEED);
        let mut armed = base.clone();
        if let Some(peer) = armed.peer.as_mut() {
            peer.resilience = Some(ResilienceConfig::recommended());
        }
        for (label, config, variant) in [
            ("no-cache", &base, SystemVariant::NoCache),
            ("full", &base, SystemVariant::Full),
            ("full+resilience", &armed, SystemVariant::Full),
        ] {
            let (scenario, config) = (scenario.clone(), config.clone());
            jobs.push(move || Cell::run(label, scenario, config, variant, MASTER_SEED));
        }
    }
    RowResult {
        cells: simcore::parallel::run_jobs_on(threads, jobs),
    }
}

/// The fault regime at `outage_fraction`: outages covering that fraction
/// of each device's timeline, occasional crashes, and a sprinkle of
/// poisoned advertisements.
fn r21_faults(outage_fraction: f64) -> p2pnet::FaultConfig {
    p2pnet::FaultConfig {
        outage_fraction,
        outage_mean: SimDuration::from_secs(2),
        crashes_per_device_minute: 1.0,
        poison_prob: 0.02,
        ..p2pnet::FaultConfig::default()
    }
}
