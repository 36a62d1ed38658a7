//! Runs the macro experiments (R-1 .. R-22) in-process and writes their
//! CSVs under `results/`. With no arguments every row of
//! [`bench::experiments::ALL`] runs; otherwise only the listed ids do.
//! Transcripts are printed in table order whatever order the workers
//! finish in.
//!
//! ```sh
//! cargo run --release -p bench --bin experiments
//! cargo run --release -p bench --bin experiments -- R-2 R-6
//! EXPERIMENT_SECONDS=120 cargo run --release -p bench --bin experiments  # longer runs
//! ```

use std::process::ExitCode;

use bench::experiments::{self, ALL};

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
    for transcript in experiments::run(&rows) {
        print!("{transcript}");
    }
    println!("all experiments completed; CSVs are under results/");
    ExitCode::SUCCESS
}
