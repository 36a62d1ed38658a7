//! The macro experiments (R-1 .. R-10, R-15 .. R-22) as one table.
//!
//! Each row of [`ALL`] pairs an `R-n` id from `EXPERIMENTS.md` with the
//! function that runs it. An experiment never prints: it collects its
//! header, tables, `wrote <path>` lines and notes in a [`Transcript`],
//! and writes its CSVs under [`results_dir`](crate::results_dir). It
//! returns a [`RowResult`]: the cells the headline claims read (R-1, R-21
//! and R-22), empty for every other row. [`run`] fans the selected rows
//! across one worker per core and hands the outputs back in table order,
//! so the output reads exactly as a sequential run would.
//!
//! ```sh
//! cargo run --release -p bench --bin experiments              # every row
//! cargo run --release -p bench --bin experiments -- R-2 R-6   # just these
//! ```

mod r10_ablation;
mod r15_drift;
mod r16_discovery;
mod r17_adaptive;
mod r18_quantization;
mod r19_heterogeneous;
mod r1_headline_latency;
mod r20_cascade;
mod r21_resilience;
mod r22_edge;
mod r2_accuracy_threshold;
mod r3_hit_breakdown;
mod r4_latency_cdf;
mod r5_peer_scaling;
mod r6_eviction;
mod r7_imu_gate;
mod r8_energy;
mod r9_model_zoo;

use simcore::parallel;

use crate::claims::RowResult;
use crate::Transcript;

/// One experiment: runs it to completion, appending its output and
/// returning the cells its claims read.
pub type Run = fn(&mut Transcript) -> RowResult;

/// Every macro experiment, in the order the suite reports them. The
/// micro-benchmarks R-11 .. R-14 are probes of the benchmark under
/// `benchmark/`, not rows.
pub const ALL: &[(&str, Run)] = &[
    ("R-1", r1_headline_latency::run),
    ("R-2", r2_accuracy_threshold::run),
    ("R-3", r3_hit_breakdown::run),
    ("R-4", r4_latency_cdf::run),
    ("R-5", r5_peer_scaling::run),
    ("R-6", r6_eviction::run),
    ("R-7", r7_imu_gate::run),
    ("R-8", r8_energy::run),
    ("R-9", r9_model_zoo::run),
    ("R-10", r10_ablation::run),
    ("R-15", r15_drift::run),
    ("R-16", r16_discovery::run),
    ("R-17", r17_adaptive::run),
    ("R-18", r18_quantization::run),
    ("R-19", r19_heterogeneous::run),
    ("R-20", r20_cascade::run),
    ("R-21", r21_resilience::run),
    ("R-22", r22_edge::run),
];

/// The rows of [`ALL`] whose ids are in `ids` (every row when `ids` is
/// empty), in table order.
///
/// # Errors
///
/// Returns the first id that names no row.
pub fn select(ids: &[String]) -> Result<Vec<(&'static str, Run)>, String> {
    if let Some(unknown) = ids.iter().find(|id| !ALL.iter().any(|(row, _)| row == id)) {
        return Err(unknown.clone());
    }
    Ok(ALL
        .iter()
        .filter(|(id, _)| ids.is_empty() || ids.iter().any(|wanted| wanted == id))
        .copied()
        .collect())
}

/// Runs `rows` on one worker per core and returns their transcripts and
/// results in the order given.
///
/// # Panics
///
/// Re-raises a panicking experiment as `job '<id>' panicked: <payload>`
/// once every other experiment has finished.
pub fn run(rows: &[(&'static str, Run)]) -> Vec<(Transcript, RowResult)> {
    let jobs = rows
        .iter()
        .map(|&(id, run)| {
            let job = move || {
                let mut transcript = Transcript::default();
                let result = run(&mut transcript);
                (transcript, result)
            };
            (id.to_owned(), job)
        })
        .collect();
    parallel::run_labeled_jobs_on(parallel::default_threads(), jobs)
}

#[cfg(test)]
// A dead radio's peer share is exactly zero.
#[allow(clippy::float_cmp)]
mod tests {
    use std::collections::BTreeSet;
    use std::num::NonZeroUsize;
    use std::sync::OnceLock;

    use super::*;
    use crate::claims::{check_rows, Cell, CLAIMS};
    use crate::results_dir;
    use p2pnet::LinkSpec;
    use simcore::SimDuration;

    /// The `R-n` ids of `EXPERIMENTS.md` headings of the form `R-n — …`.
    fn documented_ids() -> Vec<String> {
        let path = results_dir().with_file_name("EXPERIMENTS.md");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        text.lines()
            .filter_map(|line| line.strip_prefix('#'))
            .filter_map(|heading| heading.trim_start_matches('#').trim().strip_prefix("R-"))
            .filter_map(|rest| {
                let digits = rest.split(' ').next()?;
                rest[digits.len()..]
                    .starts_with(" —")
                    .then(|| format!("R-{digits}"))
            })
            .collect()
    }

    #[test]
    fn ids_are_unique() {
        let ids: BTreeSet<_> = ALL.iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), ALL.len());
    }

    #[test]
    fn table_and_experiments_md_list_the_same_ids() {
        let documented = documented_ids();
        for (id, _) in ALL {
            let headings = documented.iter().filter(|d| d == id).count();
            assert_eq!(
                headings, 1,
                "{id} has {headings} headings in EXPERIMENTS.md"
            );
        }
        let micro = 11..=14;
        for id in &documented {
            let n: u32 = id[2..].parse().expect("numeric id");
            assert!(
                micro.contains(&n) || ALL.iter().any(|(row, _)| row == id),
                "EXPERIMENTS.md documents {id}, which has no row in ALL"
            );
        }
    }

    #[test]
    fn select_keeps_table_order_and_rejects_unknown_ids() {
        let ids = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let picked = select(&ids(&["R-6", "R-2"])).expect("known ids");
        let picked: Vec<_> = picked.iter().map(|(id, _)| *id).collect();
        assert_eq!(picked, ["R-2", "R-6"]);
        assert_eq!(select(&[]).expect("all").len(), ALL.len());
        assert_eq!(
            select(&ids(&["R-2", "R-11"])).err().as_deref(),
            Some("R-11")
        );
    }

    #[test]
    fn a_panicking_experiment_is_reported_by_its_id() {
        let quiet: Run = |out| {
            out.note(format_args!("done"));
            RowResult::default()
        };
        let broken: Run = |_| panic!("boom");
        let payload = std::panic::catch_unwind(|| run(&[("R-1", quiet), ("R-6", broken)]))
            .expect_err("the panic is re-raised");
        let message = payload.downcast_ref::<String>().expect("formatted message");
        assert_eq!(message, "job 'R-6' panicked: boom");
    }

    type Rows = Vec<(&'static str, RowResult)>;

    /// The claim-bearing rows' cells at 8 simulated seconds on `threads`
    /// workers, computed without writing a CSV.
    fn claim_rows(threads: usize) -> Rows {
        let duration = SimDuration::from_secs(8);
        let threads = NonZeroUsize::new(threads).expect("positive");
        vec![
            ("R-1", r1_headline_latency::cells(duration, threads)),
            ("R-21", r21_resilience::cells(duration, threads)),
            ("R-22", r22_edge::cells(duration, threads)),
        ]
    }

    /// [`claim_rows`] on one worker, shared by the tests that read it.
    fn healthy() -> &'static Rows {
        static ROWS: OnceLock<Rows> = OnceLock::new();
        ROWS.get_or_init(|| claim_rows(1))
    }

    /// `cell` run again with every peer message lost.
    fn with_dead_radio(cell: &Cell) -> Cell {
        let mut config = cell.config.clone();
        if let Some(peer) = config.peer.as_mut() {
            peer.link = LinkSpec {
                loss_prob: 1.0,
                ..LinkSpec::wifi_direct()
            };
        }
        Cell::run(
            cell.label,
            cell.scenario.clone(),
            config,
            cell.variant,
            cell.seed,
        )
    }

    #[test]
    fn every_claim_holds_alike_on_one_and_four_workers() {
        // Every cell's scenario, config, seed and report, to the bit.
        assert_eq!(format!("{:?}", healthy()), format!("{:?}", claim_rows(4)));
        let checked = check_rows(healthy());
        assert_eq!(checked.len(), CLAIMS.len());
        let failures: Vec<_> = checked.iter().filter(|(c, _)| !c.passed).collect();
        assert!(failures.is_empty(), "failures: {failures:#?}");
    }

    #[test]
    fn a_dead_radio_fails_the_peer_claim_and_names_the_tier() {
        let dead: Rows = healthy()
            .iter()
            .map(|(id, row)| {
                let cells = row.cells.iter().map(with_dead_radio).collect();
                (*id, RowResult { cells })
            })
            .collect();
        let checked = check_rows(&dead);
        let (peer, cell) = checked
            .iter()
            .find(|(c, _)| c.claim == "peer-tier")
            .expect("peer claim checked");
        assert!(!peer.passed);
        assert_eq!(peer.observed, 0.0);
        let breakdown = cell.breakdown();
        assert!(
            breakdown.contains("every peer query timed out"),
            "the breakdown must name the dead tier:\n{breakdown}"
        );
        // The single-device claims do not touch the radio.
        assert!(checked
            .iter()
            .filter(|(c, _)| c.claim == "R-1")
            .all(|(c, _)| c.passed));
    }
}
