//! R-21 (extension) — graceful degradation under injected faults: the
//! museum scenario swept over radio-outage fractions, with the full
//! system run both bare and with the resilience layer armed
//! (advertisement retry, dead-peer circuit breaker, dark fallback), vs
//! the no-cache baseline under the *same* faults. The fault counters in
//! the last columns reconcile the injected episodes with what the
//! devices actually absorbed.

use crate::{experiment_duration, r21_faults, summary_run, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use simcore::table::{fnum, fpct, Table};

pub(crate) fn run(out: &mut Transcript) {
    let duration = experiment_duration();
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

        let no_cache = summary_run(&scenario, &base, SystemVariant::NoCache, MASTER_SEED);
        let bare = summary_run(&scenario, &base, SystemVariant::Full, MASTER_SEED);
        let resilient = summary_run(&scenario, &armed, SystemVariant::Full, MASTER_SEED);

        for (label, report) in [
            ("no-cache", &no_cache),
            ("full", &bare),
            ("full+resilience", &resilient),
        ] {
            table.row(vec![
                fpct(outage),
                label.into(),
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
    }
    out.emit(
        "r21_resilience",
        "fault injection: outage sweep, bare vs resilient (museum x6)",
        &table,
    );
}
