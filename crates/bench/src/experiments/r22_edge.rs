//! R-22 — the edge tier: the museum scenario run without peers (the
//! population a WAN cache actually serves) and with the full peer tier,
//! each bare and with the default edge configuration armed. The edge
//! counters in the last columns reconcile what the devices sent with
//! what the shared cache answered.
//!
//! Its cells carry the peer-tier and R-22 claims.
//!
//! A second table quantifies the fleet engine's one-round staleness:
//! `run_fleet` serves peer queries from frozen per-round cache views
//! while `sim::run` reads peers live, so the same museum scenario gives
//! the two engines different hit rates. (The engines also derive their
//! noise streams differently, so the gap includes stream noise; the
//! reuse-rate column is the headline.)

use std::num::NonZeroUsize;

use crate::claims::{Cell, RowResult};
use crate::{experiment_duration, Transcript, MASTER_SEED};
use approxcache::prelude::*;
use approxcache::{run_fleet, EdgeConfig, FleetOptions};
use simcore::table::{fnum, fpct, Table};
use simcore::SimDuration;

pub(crate) fn run(out: &mut Transcript) -> RowResult {
    let result = cells(experiment_duration(), simcore::parallel::default_threads());
    let mut edge_table = Table::new(vec![
        "system",
        "edge",
        "mean_ms",
        "accuracy",
        "reuse",
        "peer_hits",
        "edge_queries",
        "edge_adopted",
        "edge_inserts",
        "edge_gossip",
        "edge_timeouts",
    ]);
    for cell in &result.cells {
        let (report, edge) = (&cell.report, cell.config.edge.is_some());
        edge_table.row(vec![
            cell.variant.to_string(),
            if edge { "on" } else { "off" }.into(),
            fnum(report.latency_ms.mean, 2),
            fpct(report.accuracy),
            fpct(report.reuse_rate()),
            fpct(report.path_fraction(ResolutionPath::PeerCache)),
            report.edge.queries_sent.to_string(),
            report.edge.hits_adopted.to_string(),
            report.edge.inserts.to_string(),
            report.edge.gossip_entries.to_string(),
            report.edge.query_timeouts.to_string(),
        ]);
    }
    out.emit(
        "r22_edge",
        "edge tier on/off, with and without the peer tier (museum x6)",
        &edge_table,
    );

    // Frozen-view staleness: the peer tier under live reads (sim::run,
    // the edge table's full/off cell) vs one-round-stale frozen views
    // (run_fleet). The edge tier stays off — run_fleet rejects it by
    // design.
    let mut staleness_table = Table::new(vec![
        "engine",
        "peer_reads",
        "mean_ms",
        "accuracy",
        "reuse",
        "peer_hits",
    ]);
    let live = result.cell("museum-x6", "full");
    let frozen = match run_fleet(
        &live.scenario,
        &live.config,
        SystemVariant::Full,
        MASTER_SEED,
        &FleetOptions::single()
            .with_threads(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)),
    ) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    };
    for (engine, reads, report) in [
        ("sim::run", "live", &live.report),
        ("run_fleet", "frozen/1-round", &frozen),
    ] {
        staleness_table.row(vec![
            engine.into(),
            reads.into(),
            fnum(report.latency_ms.mean, 2),
            fpct(report.accuracy),
            fpct(report.reuse_rate()),
            fpct(report.path_fraction(ResolutionPath::PeerCache)),
        ]);
    }
    out.emit(
        "r22_staleness",
        "live peer reads vs the fleet engine's frozen one-round views (museum x6)",
        &staleness_table,
    );
    result
}

/// The museum without and with the peer tier, each with the edge tier
/// off and on, on `threads` workers.
pub(crate) fn cells(duration: SimDuration, threads: NonZeroUsize) -> RowResult {
    let scenario = workloads::multi::museum(6).with_duration(duration);
    let base = PipelineConfig::calibrated(&scenario, MASTER_SEED);
    let assisted = base.clone().with_edge(Some(EdgeConfig::default()));
    let mut jobs = Vec::new();
    for (label, variant, config) in [
        ("no-peer", SystemVariant::NoPeer, &base),
        ("no-peer+edge", SystemVariant::NoPeer, &assisted),
        ("full", SystemVariant::Full, &base),
        ("full+edge", SystemVariant::Full, &assisted),
    ] {
        let (scenario, config) = (scenario.clone(), config.clone());
        jobs.push(move || Cell::run(label, scenario, config, variant, MASTER_SEED));
    }
    RowResult {
        cells: simcore::parallel::run_jobs_on(threads, jobs),
    }
}
