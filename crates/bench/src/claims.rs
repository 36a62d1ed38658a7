//! The headline claims as predicates over experiment rows.
//!
//! R-1, R-21 and R-22 hand back a [`RowResult`] beside their transcript:
//! the cells they ran, each with the scenario, config, variant and seed
//! that reproduce it. [`CLAIMS`] names every claim, the row it reads, its
//! bar and the predicate that measures it, so a claim is checked on
//! exactly the runs its row reports, at the row's own seeds. Only a
//! failing claim pays for a trace: [`Cell::breakdown`] runs the cell under
//! test once more, traced, and renders its per-tier breakdown.

use approxcache::{PipelineConfig, ResolutionPath, RunReport, Scenario, SystemVariant};
use serde::Serialize;
use simcore::units::Millis;
use simcore::TracePath;

use crate::{detailed_run, summary_run};

/// One simulation a row ran: what it takes to run it again, and its
/// report.
#[derive(Debug)]
pub struct Cell {
    /// The row's name for this cell's system, e.g. `full+resilience`.
    pub label: &'static str,
    /// The scenario it ran.
    pub scenario: Scenario,
    /// The configuration it ran under.
    pub config: PipelineConfig,
    /// The system variant it ran.
    pub variant: SystemVariant,
    /// The seed it ran at.
    pub seed: u64,
    /// The run's report.
    pub report: RunReport,
}

impl Cell {
    /// Runs `variant` of `scenario` under `config` at `seed`.
    ///
    /// # Panics
    ///
    /// Panics when the scenario or network configuration fails validation.
    pub(crate) fn run(
        label: &'static str,
        scenario: Scenario,
        config: PipelineConfig,
        variant: SystemVariant,
        seed: u64,
    ) -> Cell {
        let report = summary_run(&scenario, &config, variant, seed);
        Cell {
            label,
            scenario,
            config,
            variant,
            seed,
            report,
        }
    }

    /// Runs this cell again, traced, and renders its per-tier breakdown:
    /// how every frame was resolved and at what cost, why local lookups
    /// missed, how the peer tier behaved, and the fault and edge books
    /// when they are live.
    pub fn breakdown(&self) -> String {
        let config = self.config.clone().with_trace_capacity(Some(65_536));
        let result = detailed_run(&self.scenario, &config, self.variant, self.seed);
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
        let faults = &report.faults;
        if !faults.is_idle() {
            out.push_str(&format!(
                "  faults: dark-frames {} crashes {} poisoned {} retries {} fallbacks {}\n",
                faults.outage_frames,
                faults.crashes,
                faults.poisoned_ads,
                faults.ad_retries,
                faults.peer_fallbacks
            ));
        }
        if !report.edge.is_idle() {
            out.push_str(&format!("  edge: {}\n", report.edge));
        }
        out
    }
}

/// The cells a row ran, in its run order.
#[derive(Debug, Default)]
pub struct RowResult {
    /// Every cell the row ran.
    pub cells: Vec<Cell>,
}

impl RowResult {
    /// The cell of `scenario` that the row labels `label`.
    ///
    /// # Panics
    ///
    /// Panics when the row ran no such cell: a claim that names a cell
    /// its row does not run is a bug in [`CLAIMS`].
    pub(crate) fn cell(&self, scenario: &str, label: &str) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.scenario.name == scenario && c.label == label)
            .unwrap_or_else(|| panic!("the row ran no '{label}' cell of '{scenario}'"))
    }
}

/// One headline claim: a named predicate over one row's result.
#[derive(Debug)]
pub struct Claim {
    /// The claim's id.
    pub id: &'static str,
    /// The row of [`crate::experiments::ALL`] whose result it reads.
    pub row: &'static str,
    /// The cell under test, `(scenario, label)`: the system the claim is
    /// about, and the run a failure repeats traced.
    pub cell: (&'static str, &'static str),
    /// Human-readable statement of the bar.
    pub requirement: &'static str,
    /// The bar the measured value must exceed.
    pub bar: f64,
    /// Measures the claim on the cell under test and its row: the value
    /// held against the bar, and whether the run exercised what the claim
    /// is about (the faults fired, the edge books are live and reconcile).
    pub measure: fn(&RowResult, &Cell) -> (f64, bool),
}

/// One claim held against its row: `passed` iff the run exercised what
/// the claim is about and `observed > required`.
#[derive(Debug, Serialize)]
pub struct ClaimCheck {
    /// Which claim this is.
    pub claim: &'static str,
    /// The scenario of the cell under test.
    pub scenario: &'static str,
    /// Human-readable statement of the bar.
    pub requirement: &'static str,
    /// The measured value.
    pub observed: f64,
    /// The bar the measured value must exceed.
    pub required: f64,
    /// Whether the bar was met.
    pub passed: bool,
}

impl Claim {
    /// Holds the claim against `row`, returning the check and the cell
    /// under test.
    pub(crate) fn check<'a>(&self, row: &'a RowResult) -> (ClaimCheck, &'a Cell) {
        let (scenario, label) = self.cell;
        let cell = row.cell(scenario, label);
        let (observed, exercised) = (self.measure)(row, cell);
        let check = ClaimCheck {
            claim: self.id,
            scenario,
            requirement: self.requirement,
            observed,
            required: self.bar,
            passed: exercised && observed > self.bar,
        };
        (check, cell)
    }
}

/// Every headline claim, in report order. R-1 holds on the
/// reuse-friendly headline scenarios, R-2 on all four.
pub const CLAIMS: &[Claim] = &[
    r1("stationary"),
    r2("stationary"),
    r1("slow-pan"),
    r2("slow-pan"),
    r1("turn-and-look"),
    r2("turn-and-look"),
    r2("walking-tour"),
    Claim {
        id: "peer-tier",
        row: "R-22",
        cell: ("museum-x6", "full"),
        requirement: "peers answer a positive fraction of museum frames",
        bar: 0.0,
        measure: |_, cell| (cell.report.path_fraction(ResolutionPath::PeerCache), true),
    },
    Claim {
        id: "R-21",
        row: "R-21",
        cell: ("museum-outage30", "full+resilience"),
        requirement: "under 30% outage the resilient system cuts mean latency by more than 30% \
                      vs no-cache",
        bar: 0.3,
        measure: |row, cell| (latency_cut(row, cell), cell.report.faults.outage_frames > 0),
    },
    Claim {
        id: "R-22",
        row: "R-22",
        cell: ("museum-x6", "no-peer+edge"),
        requirement: "with peers off, the edge tier lifts reuse rate by more than 0% with \
                      nonzero reconciling counters",
        bar: 0.0,
        measure: edge_reuse_gain,
    },
];

const fn r1(scenario: &'static str) -> Claim {
    Claim {
        id: "R-1",
        row: "R-1",
        cell: (scenario, "full"),
        requirement: "full system cuts mean latency by more than 50% vs no-cache",
        bar: 0.5,
        measure: |row, cell| (latency_cut(row, cell), true),
    }
}

const fn r2(scenario: &'static str) -> Claim {
    Claim {
        id: "R-2",
        row: "R-1",
        cell: (scenario, "full"),
        requirement: "accuracy drops less than 5 points vs always-infer",
        bar: -0.05,
        measure: |row, cell| {
            let base = &row.cell(&cell.scenario.name, "no-cache").report;
            (cell.report.accuracy_delta_vs(base), true)
        },
    }
}

/// The cell's mean-latency cut vs the row's no-cache cell of its
/// scenario (R-1, and R-21 under the same faults).
fn latency_cut(row: &RowResult, cell: &Cell) -> f64 {
    let base = &row.cell(&cell.scenario.name, "no-cache").report;
    cell.report.latency_reduction_vs(base)
}

/// R-22: with peers off, the reuse the shared edge cache adds over the
/// local tiers alone. The merged edge books must be live and reconcile.
fn edge_reuse_gain(row: &RowResult, cell: &Cell) -> (f64, bool) {
    let local = &row.cell(&cell.scenario.name, "no-peer").report;
    let edge = &cell.report.edge;
    (
        cell.report.reuse_rate() - local.reuse_rate(),
        !edge.is_idle() && edge.reconciles(),
    )
}

/// Every claim whose row is among `rows` (`(row id, result)` pairs), in
/// [`CLAIMS`] order, each with its cell under test.
pub fn check_rows<'a>(rows: &'a [(&str, RowResult)]) -> Vec<(ClaimCheck, &'a Cell)> {
    CLAIMS
        .iter()
        .filter_map(|claim| {
            let (_, row) = rows.iter().find(|(id, _)| *id == claim.row)?;
            Some(claim.check(row))
        })
        .collect()
}

#[cfg(test)]
// The bars are checked at exactly-constructed observations.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use edge::EdgeCounters;
    use imu::MotionProfile;

    /// A hand-built report: mean latency `mean_ms`, `accuracy`, and
    /// `[imu, local, peer, inference]` frame counts.
    fn report(mean_ms: f64, accuracy: f64, path_counts: [u64; 4]) -> RunReport {
        let frame = approxcache::FrameOutcome {
            at: simcore::SimTime::ZERO,
            label: scene::ClassId(0),
            truth: scene::ClassId(0),
            latency: simcore::SimDuration::ZERO,
            energy: simcore::Millijoules::ZERO,
            path: ResolutionPath::FullInference,
        };
        let mut report =
            RunReport::from_outcomes("", "", 1, &[frame], Default::default(), Default::default());
        report.latency_ms.mean = mean_ms;
        report.accuracy = accuracy;
        report.path_counts = path_counts;
        report.frames = path_counts.iter().sum::<u64>() as usize;
        report
    }

    /// Checks claim `id` on a row of `(scenario, label, report)` cells.
    fn checks(id: &str, cells: &[(&str, &'static str, &RunReport)]) -> Vec<ClaimCheck> {
        let cells = cells
            .iter()
            .map(|&(scenario, label, report)| Cell {
                label,
                scenario: Scenario::single_device(MotionProfile::Stationary).with_name(scenario),
                config: PipelineConfig::new(),
                variant: SystemVariant::Full,
                seed: 0,
                report: report.clone(),
            })
            .collect();
        let row = RowResult { cells };
        CLAIMS
            .iter()
            .filter(|claim| claim.id == id)
            .map(|claim| claim.check(&row).0)
            .collect()
    }

    #[test]
    fn r1_and_r2_fail_at_their_bars_and_pass_just_above() {
        let frames = [0, 0, 0, 10];
        let no_cache = report(100.0, 0.1, frames);
        let headline = |id, full: RunReport| {
            let cells: Vec<_> = ["stationary", "slow-pan", "turn-and-look", "walking-tour"]
                .into_iter()
                .flat_map(|s| [(s, "no-cache", &no_cache), (s, "full", &full)])
                .collect();
            checks(id, &cells)
        };
        for (id, claims, at, above) in [
            (
                "R-1",
                3,
                report(50.0, 0.1, frames),
                report(49.9, 0.1, frames),
            ),
            (
                "R-2",
                4,
                report(100.0, 0.05, frames),
                report(100.0, 0.06, frames),
            ),
        ] {
            let at = headline(id, at);
            assert_eq!(at.len(), claims);
            assert!(
                at.iter().all(|c| c.observed == c.required && !c.passed),
                "{at:?}"
            );
            let above = headline(id, above);
            assert!(above.iter().all(|c| c.passed), "{above:?}");
        }
    }

    #[test]
    fn peer_tier_fails_at_its_bar_and_passes_just_above() {
        let check = |full| {
            checks(
                "peer-tier",
                &[("museum-x6", "full", &report(1.0, 1.0, full))],
            )
        };
        let at = check([0, 5, 0, 5]);
        assert_eq!((at[0].observed, at[0].passed), (0.0, false));
        assert!(check([0, 5, 1, 4])[0].passed);
    }

    #[test]
    fn r22_fails_at_its_bar_idle_or_unreconciled_and_passes_just_above() {
        let live = EdgeCounters {
            queries_sent: 4,
            lookups: 4,
            hits: 2,
            hits_adopted: 1,
            ..EdgeCounters::default()
        };
        let off = report(1.0, 1.0, [0, 5, 0, 5]);
        let check = |path_counts, edge| {
            let mut on = report(1.0, 1.0, path_counts);
            on.edge = edge;
            let cells = [
                ("museum-x6", "no-peer", &off),
                ("museum-x6", "no-peer+edge", &on),
            ];
            checks("R-22", &cells).remove(0)
        };
        let at = check([0, 5, 0, 5], live);
        assert_eq!((at.observed, at.passed), (0.0, false));
        assert!(check([0, 6, 0, 4], live).passed);
        assert!(!check([0, 6, 0, 4], EdgeCounters::default()).passed);
        let unreconciled = EdgeCounters {
            hits_adopted: 3,
            ..live
        };
        assert!(!check([0, 6, 0, 4], unreconciled).passed);
    }

    #[test]
    fn r21_fails_at_its_bar_or_without_outages_and_passes_just_above() {
        let no_cache = report(1.0, 1.0, [0, 0, 0, 10]);
        let check = |mean_ms, outage_frames| {
            let mut resilient = report(mean_ms, 1.0, [0, 5, 0, 5]);
            resilient.faults.outage_frames = outage_frames;
            let cells = [
                ("museum-outage30", "no-cache", &no_cache),
                ("museum-outage30", "full+resilience", &resilient),
            ];
            checks("R-21", &cells).remove(0)
        };
        // `1 − m/1` cannot be exactly 0.3: these are the observations
        // right below and right above it.
        let below = check(0.700_000_000_000_000_1, 1);
        assert!(
            below.observed < below.required && !below.passed,
            "{below:?}"
        );
        let above = check(0.7, 1);
        assert!(above.observed > above.required && above.passed, "{above:?}");
        assert!(!check(0.7, 0).passed);
    }
}
