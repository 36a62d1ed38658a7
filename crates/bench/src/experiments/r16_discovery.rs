//! R-16 (extension) — what oracle-free discovery costs: the museum
//! scenario with the simulator's proximity oracle vs beacon-based
//! neighbour discovery at several beacon rates. Slower beacons delay peer
//! visibility (fewer peer hits) but cost less radio.

use crate::{experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use p2pnet::DiscoveryConfig;
use simcore::table::{fnum, fpct, Table};
use simcore::SimDuration;
use workloads::multi;

pub(crate) fn run(out: &mut Transcript) {
    let scenario = multi::museum(8).with_duration(experiment_duration());
    let base = PipelineConfig::calibrated(&scenario, MASTER_SEED);

    let mut table = Table::new(vec![
        "neighbor_source",
        "beacon_ms",
        "peer_hits",
        "reuse",
        "mean_ms",
        "net_kB_total",
        "msgs_total",
    ]);

    let oracle = crate::summary_run(&scenario, &base, SystemVariant::Full, MASTER_SEED);
    table.row(vec![
        "oracle".into(),
        "-".into(),
        fpct(oracle.path_fraction(ResolutionPath::PeerCache)),
        fpct(oracle.reuse_rate()),
        fnum(oracle.latency_ms.mean, 2),
        fnum(oracle.network.bytes_sent as f64 / 1e3, 1),
        oracle.network.messages_sent.to_string(),
    ]);

    for beacon_ms in [250u64, 500, 1_000, 2_000] {
        let mut config = base.clone();
        config.peer.as_mut().expect("peers enabled").discovery = Some(DiscoveryConfig {
            beacon_interval: SimDuration::from_millis(beacon_ms),
            neighbor_ttl: SimDuration::from_millis(beacon_ms * 3 + 100),
            ..DiscoveryConfig::default()
        });
        let report = crate::summary_run(&scenario, &config, SystemVariant::Full, MASTER_SEED);
        table.row(vec![
            "beacons".into(),
            beacon_ms.to_string(),
            fpct(report.path_fraction(ResolutionPath::PeerCache)),
            fpct(report.reuse_rate()),
            fnum(report.latency_ms.mean, 2),
            fnum(report.network.bytes_sent as f64 / 1e3, 1),
            report.network.messages_sent.to_string(),
        ]);
    }
    out.emit(
        "r16_discovery",
        "oracle proximity vs beacon discovery (museum x8)",
        &table,
    );
}
