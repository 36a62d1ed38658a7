//! The macro experiments (R-1 .. R-10, R-15 .. R-22) as one table.
//!
//! Each row of [`ALL`] pairs an `R-n` id from `EXPERIMENTS.md` with the
//! function that runs it. An experiment never prints: it collects its
//! header, tables, `wrote <path>` lines and notes in a [`Transcript`],
//! and writes its CSVs under [`results_dir`](crate::results_dir). [`run`] fans the selected
//! rows across one worker per core and hands the transcripts back in
//! table order, so the output reads exactly as a sequential run would.
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

use crate::Transcript;

/// One experiment: runs it to completion, appending its output.
pub type Run = fn(&mut Transcript);

/// Every macro experiment, in the order the suite reports them. The
/// micro-benchmarks R-11 .. R-14 are Criterion benches, not rows.
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

/// Runs `rows` on one worker per core and returns their transcripts in
/// the order given.
///
/// # Panics
///
/// Re-raises a panicking experiment as `job '<id>' panicked: <payload>`
/// once every other experiment has finished.
pub fn run(rows: &[(&'static str, Run)]) -> Vec<Transcript> {
    let jobs = rows
        .iter()
        .map(|&(id, run)| {
            let job = move || {
                let mut transcript = Transcript::default();
                run(&mut transcript);
                transcript
            };
            (id.to_owned(), job)
        })
        .collect();
    parallel::run_labeled_jobs_on(parallel::default_threads(), jobs)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::results_dir;

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
        let quiet: Run = |out| out.note(format_args!("done"));
        let broken: Run = |_| panic!("boom");
        let payload = std::panic::catch_unwind(|| run(&[("R-1", quiet), ("R-6", broken)]))
            .expect_err("the panic is re-raised");
        let message = payload.downcast_ref::<String>().expect("formatted message");
        assert_eq!(message, "job 'R-6' panicked: boom");
    }
}
