//! The claim-verification harness behind the `verify_claims` binary.
//!
//! Re-runs the headline checks (R-1 latency reduction, R-2 accuracy
//! retention, plus a peer-tier liveness check) against fresh simulations
//! and reports each as a [`ClaimCheck`]. Every run is traced, so a
//! failing claim carries a per-tier breakdown — path counts, per-path
//! latency, cache-miss reasons and peer-query outcomes — pointing at the
//! tier that regressed.

use std::num::NonZeroUsize;

use approxcache::{
    run, Detail, PipelineConfig, ResolutionPath, RunReport, Scenario, SimResult, SystemVariant,
};
use serde::Serialize;
use simcore::units::Millis;
use simcore::{SimDuration, TracePath};
use workloads::{multi, video};

/// R-1's bar: the full system must at least halve mean frame latency on
/// reuse-friendly scenarios.
pub const R1_MIN_LATENCY_REDUCTION: f64 = 0.5;

/// R-2's bar: accuracy may drop at most five points vs always-infer.
pub const R2_MIN_ACCURACY_DELTA: f64 = -0.05;

/// R-21's bar: with 30% of each device's timeline spent in radio
/// outages (plus crashes and poisoned advertisements), the resilient
/// full system must still cut mean latency by more than this vs
/// no-cache under the *same* faults.
pub const R21_MIN_OUTAGE_LATENCY_REDUCTION: f64 = 0.3;

/// The outage fraction the R-21 claim runs at.
pub const R21_OUTAGE_FRACTION: f64 = 0.3;

/// R-22's bar: with peers disabled, adding the shared edge cache must
/// lift the reuse rate by more than this (strictly positive — the edge
/// must contribute reuse the local caches alone cannot).
pub const R22_MIN_EDGE_REUSE_GAIN: f64 = 0.0;

/// One verified claim: `passed` iff `observed > required`.
#[derive(Debug, Clone, Serialize)]
pub struct ClaimCheck {
    /// Which headline claim this check belongs to.
    pub claim: &'static str,
    /// The scenario it ran on.
    pub scenario: String,
    /// Human-readable statement of the bar.
    pub requirement: String,
    /// The measured value.
    pub observed: f64,
    /// The bar the measured value must exceed.
    pub required: f64,
    /// Whether the bar was met.
    pub passed: bool,
    /// Trace-derived per-tier breakdown of the full-system run.
    pub breakdown: String,
}

/// Everything a verification pass produced: the checks plus the
/// full-variant reports (for JSON export).
#[derive(Debug)]
pub struct ClaimOutcome {
    /// All checks, in run order.
    pub checks: Vec<ClaimCheck>,
    /// The full-system report of every scenario that was verified.
    pub reports: Vec<RunReport>,
}

impl ClaimOutcome {
    /// True when every check met its bar.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The checks that failed.
    pub fn failures(&self) -> Vec<&ClaimCheck> {
        self.checks.iter().filter(|c| !c.passed).collect()
    }
}

fn traced_run(
    scenario: &Scenario,
    variant: SystemVariant,
    seed: u64,
    mutate: &dyn Fn(&mut PipelineConfig),
) -> SimResult {
    let mut config = PipelineConfig::calibrated(scenario, seed).with_trace_capacity(Some(65_536));
    mutate(&mut config);
    match run(scenario, &config, variant, seed, Detail::Full) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

/// Renders the per-tier breakdown of a traced run: how every frame was
/// resolved and at what cost, why local lookups missed, and how the peer
/// tier behaved. This is what a failing claim prints so the regressed
/// tier is identifiable without re-running anything.
pub fn tier_breakdown(result: &SimResult) -> String {
    let report = &result.report;
    let mut out = String::new();
    for path in ResolutionPath::all() {
        let stats = report.path_latency_stats(path);
        out.push_str(&format!(
            "  {path}: {} frames ({:.1}%), mean {}, p95 {}\n",
            stats.count,
            report.path_fraction(path) * 100.0,
            Millis::new(stats.mean),
            Millis::new(stats.p95),
        ));
    }
    let misses: Vec<String> = report
        .miss_breakdown()
        .iter()
        .map(|(name, n)| format!("{name} {n}"))
        .collect();
    out.push_str(&format!("  local misses: {}\n", misses.join(", ")));

    let traces: Vec<_> = result.traces.iter().flatten().collect();
    let attempts: u64 = traces.iter().map(|t| u64::from(t.peer.attempts)).sum();
    let timeouts: u64 = traces.iter().map(|t| u64::from(t.peer.timeouts)).sum();
    let bytes: u64 = traces.iter().map(|t| t.peer.bytes).sum();
    let peer_hits = traces
        .iter()
        .filter(|t| t.path == TracePath::PeerHit)
        .count();
    out.push_str(&format!(
        "  peer tier: {attempts} queries, {peer_hits} hits, {timeouts} timeouts, {bytes} B\n"
    ));
    if attempts > 0 && timeouts == attempts {
        out.push_str("  => peer tier unreachable: every peer query timed out\n");
    }
    out
}

/// Runs every headline claim at `duration` per scenario, seeding from
/// `seed`, fanning the simulations across one worker per available core.
/// `mutate` is applied to each calibrated config before the run (the
/// binary passes a no-op; tests use it to break a tier on purpose).
pub fn run_claim_checks(
    duration: SimDuration,
    seed: u64,
    mutate: &(dyn Fn(&mut PipelineConfig) + Sync),
) -> ClaimOutcome {
    run_claim_checks_on(simcore::parallel::default_threads(), duration, seed, mutate)
}

/// [`run_claim_checks`] on an explicit worker count. Every simulation is
/// an independent seeded job, so the outcome is byte-identical whatever
/// `threads` is — only the wall-clock changes.
pub fn run_claim_checks_on(
    threads: NonZeroUsize,
    duration: SimDuration,
    seed: u64,
    mutate: &(dyn Fn(&mut PipelineConfig) + Sync),
) -> ClaimOutcome {
    // Stage every scenario up front, submit all eleven simulations as one
    // batch, then assemble the checks from the in-order results. The
    // assembly below mirrors the sequential structure one-to-one; only
    // the execution is fanned out.
    let headline: Vec<Scenario> = video::headline_set()
        .into_iter()
        .map(|s| s.with_duration(duration))
        .collect();
    let museum = multi::museum(6).with_duration(duration);
    let stormy = multi::museum(6)
        .with_name("museum-x6-outage30")
        .with_duration(duration)
        .with_faults(crate::r21_faults(R21_OUTAGE_FRACTION));
    // R-21 runs with the resilience machinery armed on top of `mutate`.
    let resilient = |config: &mut PipelineConfig| {
        mutate(config);
        if let Some(peer) = config.peer.as_mut() {
            peer.resilience = Some(p2pnet::ResilienceConfig::recommended());
        }
    };

    let mut jobs: Vec<Box<dyn FnOnce() -> SimResult + Send + '_>> = Vec::new();
    for scenario in &headline {
        jobs.push(Box::new(move || {
            traced_run(scenario, SystemVariant::NoCache, seed, mutate)
        }));
        jobs.push(Box::new(move || {
            traced_run(scenario, SystemVariant::Full, seed, mutate)
        }));
    }
    jobs.push(Box::new(|| {
        traced_run(&museum, SystemVariant::Full, seed, mutate)
    }));
    jobs.push(Box::new(|| {
        traced_run(&stormy, SystemVariant::NoCache, seed, &resilient)
    }));
    jobs.push(Box::new(|| {
        traced_run(&stormy, SystemVariant::Full, seed, &resilient)
    }));
    // R-22 runs the museum with peers disabled, with and without the
    // shared edge tier, on top of `mutate`.
    let with_edge = |config: &mut PipelineConfig| {
        mutate(config);
        config.edge = Some(approxcache::EdgeConfig::default());
    };
    jobs.push(Box::new(|| {
        traced_run(&museum, SystemVariant::NoPeer, seed, mutate)
    }));
    jobs.push(Box::new(|| {
        traced_run(&museum, SystemVariant::NoPeer, seed, &with_edge)
    }));

    let mut results = simcore::parallel::run_jobs_on(threads, jobs).into_iter();
    let mut next = || match results.next() {
        Some(result) => result,
        None => unreachable!("one result per submitted job"),
    };

    let mut checks = Vec::new();
    let mut reports = Vec::new();

    // R-1 and R-2 share the headline scenarios; the reuse-friendly
    // subset carries the latency claim, all four carry the accuracy one.
    let reuse_friendly = ["stationary", "slow-pan", "turn-and-look"];
    for scenario in &headline {
        let base = next();
        let full = next();
        let breakdown = tier_breakdown(&full);

        if reuse_friendly.contains(&scenario.name.as_str()) {
            let reduction = full.report.latency_reduction_vs(&base.report);
            checks.push(ClaimCheck {
                claim: "R-1",
                scenario: scenario.name.clone(),
                requirement: format!(
                    "full system cuts mean latency by more than {:.0}% vs no-cache",
                    R1_MIN_LATENCY_REDUCTION * 100.0
                ),
                observed: reduction,
                required: R1_MIN_LATENCY_REDUCTION,
                passed: reduction > R1_MIN_LATENCY_REDUCTION,
                breakdown: breakdown.clone(),
            });
        }

        let delta = full.report.accuracy_delta_vs(&base.report);
        checks.push(ClaimCheck {
            claim: "R-2",
            scenario: scenario.name.clone(),
            requirement: format!(
                "accuracy drops less than {:.0} points vs always-infer",
                -R2_MIN_ACCURACY_DELTA * 100.0
            ),
            observed: delta,
            required: R2_MIN_ACCURACY_DELTA,
            passed: delta > R2_MIN_ACCURACY_DELTA,
            breakdown,
        });
        reports.push(full.report);
    }

    // Peer-tier liveness: in the museum, collaboration must answer at
    // least some frames. This is the check that catches a dead radio.
    let full = next();
    let peer_fraction = full.report.path_fraction(ResolutionPath::PeerCache);
    checks.push(ClaimCheck {
        claim: "peer-tier",
        scenario: museum.name.clone(),
        requirement: "peers answer a positive fraction of museum frames".to_owned(),
        observed: peer_fraction,
        required: 0.0,
        passed: peer_fraction > 0.0,
        breakdown: tier_breakdown(&full),
    });
    reports.push(full.report);

    // R-21 resilience: the same museum under 30% radio outage, crashes
    // and ad poisoning, with the resilience machinery armed. The system
    // must still clearly beat no-cache, and the fault counters in the
    // breakdown prove the faults actually fired.
    let base = next();
    let full = next();
    let reduction = full.report.latency_reduction_vs(&base.report);
    let mut breakdown = tier_breakdown(&full);
    let faults = &full.report.faults;
    breakdown.push_str(&format!(
        "  faults: dark-frames {} crashes {} poisoned {} retries {} fallbacks {}\n",
        faults.outage_frames,
        faults.crashes,
        faults.poisoned_ads,
        faults.ad_retries,
        faults.peer_fallbacks
    ));
    checks.push(ClaimCheck {
        claim: "R-21",
        scenario: stormy.name.clone(),
        requirement: format!(
            "under {:.0}% outage the resilient system cuts mean latency by more than {:.0}% vs no-cache",
            R21_OUTAGE_FRACTION * 100.0,
            R21_MIN_OUTAGE_LATENCY_REDUCTION * 100.0
        ),
        observed: reduction,
        required: R21_MIN_OUTAGE_LATENCY_REDUCTION,
        passed: reduction > R21_MIN_OUTAGE_LATENCY_REDUCTION && faults.outage_frames > 0,
        breakdown,
    });
    reports.push(full.report);

    // R-22 edge tier: same museum, peers off, local caches identical —
    // the only difference is the shared edge cache a WAN hop away. It
    // must add reuse the local tiers alone cannot, and the merged edge
    // books (server + devices) must reconcile.
    let local_only = next();
    let edge_assisted = next();
    let gain = edge_assisted.report.reuse_rate() - local_only.report.reuse_rate();
    let edge_counters = edge_assisted.report.edge;
    let mut breakdown = tier_breakdown(&edge_assisted);
    breakdown.push_str(&format!("  edge: {edge_counters}\n"));
    checks.push(ClaimCheck {
        claim: "R-22",
        scenario: museum.name.clone(),
        requirement: format!(
            "with peers off, the edge tier lifts reuse rate by more than {:.0}% \
             with nonzero reconciling counters",
            R22_MIN_EDGE_REUSE_GAIN * 100.0
        ),
        observed: gain,
        required: R22_MIN_EDGE_REUSE_GAIN,
        passed: gain > R22_MIN_EDGE_REUSE_GAIN
            && !edge_counters.is_idle()
            && edge_counters.reconciles(),
        breakdown,
    });
    reports.push(edge_assisted.report);

    ClaimOutcome { checks, reports }
}

#[cfg(test)]
// Tests compare exactly-constructed floats; exact equality is intentional.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::MASTER_SEED;
    use p2pnet::LinkSpec;

    fn short() -> SimDuration {
        SimDuration::from_secs(8)
    }

    #[test]
    fn healthy_configuration_passes_every_claim() {
        let outcome = run_claim_checks(short(), MASTER_SEED, &|_| {});
        assert!(outcome.all_passed(), "failures: {:#?}", outcome.failures());
        // Three reuse-friendly R-1 checks, four R-2 checks, one peer
        // check, one R-21 resilience check, one R-22 edge check.
        assert_eq!(outcome.checks.len(), 10);
        assert_eq!(outcome.reports.len(), 7);
        // The R-21 run must have actually injected faults — its report
        // carries the reconciling counters.
        let stormy = outcome
            .reports
            .iter()
            .find(|r| r.scenario == "museum-x6-outage30")
            .expect("R-21 report present");
        assert!(stormy.faults.outage_frames > 0, "outage never fired");
        // The R-22 run must have actually exercised the edge — its
        // report carries the reconciling edge books; every other report
        // stays edge-free.
        let edge_run = outcome
            .reports
            .iter()
            .find(|r| !r.edge.is_idle())
            .expect("R-22 report present");
        assert_eq!(edge_run.variant, "no-peer");
        assert!(edge_run.edge.reconciles(), "{}", edge_run.edge);
        assert!(edge_run.edge.queries_sent > 0);
        assert_eq!(
            outcome.reports.iter().filter(|r| !r.edge.is_idle()).count(),
            1,
            "only the edge-assisted run may carry edge counters"
        );
        // Every other report stays fault-free.
        for report in &outcome.reports {
            if report.scenario != "museum-x6-outage30" {
                assert!(
                    report.faults.is_idle(),
                    "{}: unexpected faults",
                    report.scenario
                );
            }
        }
        // Every check carries a usable breakdown.
        for check in &outcome.checks {
            assert!(
                check.breakdown.contains("peer tier:"),
                "{}",
                check.breakdown
            );
            assert!(check.breakdown.contains("local misses:"));
        }
    }

    #[test]
    fn parallel_checks_match_sequential_byte_for_byte() {
        let duration = SimDuration::from_secs(5);
        let sequential = run_claim_checks_on(
            NonZeroUsize::new(1).expect("positive"),
            duration,
            MASTER_SEED,
            &|_| {},
        );
        let parallel = run_claim_checks_on(
            NonZeroUsize::new(4).expect("positive"),
            duration,
            MASTER_SEED,
            &|_| {},
        );
        let as_json = |outcome: &ClaimOutcome| {
            let checks = serde_json::to_string(&outcome.checks).expect("serialize checks");
            let reports = serde_json::to_string(&outcome.reports).expect("serialize reports");
            (checks, reports)
        };
        assert_eq!(as_json(&sequential), as_json(&parallel));
    }

    #[test]
    fn dead_radio_fails_the_peer_claim_and_names_the_tier() {
        let outcome = run_claim_checks(short(), MASTER_SEED, &|config| {
            if let Some(peer) = config.peer.as_mut() {
                peer.link = LinkSpec {
                    loss_prob: 1.0,
                    ..LinkSpec::wifi_direct()
                };
            }
        });
        assert!(!outcome.all_passed());
        let peer_check = outcome
            .checks
            .iter()
            .find(|c| c.claim == "peer-tier")
            .expect("peer claim present");
        assert!(!peer_check.passed);
        assert_eq!(peer_check.observed, 0.0);
        assert!(
            peer_check.breakdown.contains("every peer query timed out"),
            "breakdown must identify the dead tier:\n{}",
            peer_check.breakdown
        );
        // The single-device claims are unaffected by a dead radio.
        assert!(outcome
            .checks
            .iter()
            .filter(|c| c.claim == "R-1")
            .all(|c| c.passed));
    }
}
