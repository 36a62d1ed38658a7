//! Runs the macro experiments (R-1 .. R-22) in-process, writes their
//! CSVs under `results/`, and checks the headline claims of the rows that
//! ran. With no arguments every row of [`bench::experiments::ALL`] runs;
//! otherwise only the listed ids do. Transcripts are printed in table
//! order whatever order the workers finish in.
//!
//! Every claim of [`bench::claims::CLAIMS`] whose row ran is checked on
//! that row's cells, and the report of each cell under test lands in
//! `results/<scenario>-<variant>.json`. When every claim's row ran, the
//! checks land in `results/verify_claims.json`. A failing claim prints
//! the per-tier breakdown of one traced re-run of its cell and makes the
//! binary exit 1.
//!
//! ```sh
//! cargo run --release -p bench --bin experiments
//! cargo run --release -p bench --bin experiments -- R-2 R-6
//! EXPERIMENT_SECONDS=120 cargo run --release -p bench --bin experiments  # longer runs
//! ```

use std::process::ExitCode;

use bench::claims;
use bench::experiments::{self, ALL};
use bench::results_dir;
use simcore::table::{fnum, Table};

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let rows = match experiments::select(&ids) {
        Ok(rows) => rows,
        Err(unknown) => {
            let valid: Vec<_> = ALL.iter().map(|(id, _)| *id).collect();
            eprintln!(
                "unknown experiment '{unknown}'; valid ids: {}",
                valid.join(" ")
            );
            return ExitCode::from(2);
        }
    };
    let (transcripts, results): (Vec<_>, Vec<_>) = experiments::run(&rows).into_iter().unzip();
    for transcript in &transcripts {
        print!("{transcript}");
    }
    println!("all experiments completed; CSVs are under results/");

    let ran: Vec<_> = rows.iter().map(|(id, _)| *id).zip(results).collect();
    let checked = claims::check_rows(&ran);
    if checked.is_empty() {
        return ExitCode::SUCCESS;
    }

    let mut table = Table::new(vec!["claim", "scenario", "observed", "required", "status"]);
    for (check, _) in &checked {
        table.row(vec![
            check.claim.to_owned(),
            check.scenario.to_owned(),
            fnum(check.observed, 3),
            format!("> {}", fnum(check.required, 3)),
            if check.passed { "ok" } else { "FAIL" }.to_owned(),
        ]);
    }
    println!("\n== verify_claims: headline claims vs the rows above ==\n");
    println!("{table}");
    let dir = results_dir();
    for (i, (_, cell)) in checked.iter().enumerate() {
        // R-1 and R-2 share their cells under test.
        if checked[..i]
            .iter()
            .all(|(_, done)| !std::ptr::eq(*done, *cell))
        {
            match cell.report.write_json(&dir) {
                Ok(path) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write report JSON: {e}"),
            }
        }
    }
    // A subset of the rows must not overwrite the full summary.
    if checked.len() == claims::CLAIMS.len() {
        let checks: Vec<_> = checked.iter().map(|(check, _)| check).collect();
        let path = dir.join("verify_claims.json");
        let json = serde_json::to_string_pretty(&checks).expect("claim checks serialize");
        match std::fs::write(&path, json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    let failures: Vec<_> = checked.iter().filter(|(check, _)| !check.passed).collect();
    if failures.is_empty() {
        println!("\nall {} claims hold", checked.len());
        return ExitCode::SUCCESS;
    }
    eprintln!("\n{} claim(s) REGRESSED:", failures.len());
    for (check, cell) in failures {
        eprintln!(
            "\n{} on {}: {} (observed {:.3}, required > {:.3})",
            check.claim, check.scenario, check.requirement, check.observed, check.required
        );
        eprintln!("{}", cell.breakdown());
    }
    ExitCode::FAILURE
}
