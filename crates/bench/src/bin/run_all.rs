//! Runs every macro experiment (R-1 .. R-22) and writes all CSVs under
//! `results/`, fanning the experiment binaries across one worker per
//! available core. Output is captured per experiment and printed in the
//! fixed submission order, so the transcript reads exactly as it would
//! sequentially — each binary writes its own CSV, so the files are
//! byte-identical too.
//!
//! ```sh
//! cargo run --release -p bench --bin run_all
//! EXPERIMENT_SECONDS=120 cargo run --release -p bench --bin run_all  # longer runs
//! ```

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use simcore::parallel;

const EXPERIMENTS: [&str; 18] = [
    "r1_headline_latency",
    "r2_accuracy_threshold",
    "r3_hit_breakdown",
    "r4_latency_cdf",
    "r5_peer_scaling",
    "r6_eviction",
    "r7_imu_gate",
    "r8_energy",
    "r9_model_zoo",
    "r10_ablation",
    "r15_drift",
    "r16_discovery",
    "r17_adaptive",
    "r18_quantization",
    "r19_heterogeneous",
    "r20_cascade",
    "r21_resilience",
    "r22_edge",
];

const BUILD_REMEDY: &str =
    "build the sibling experiment binaries first: cargo build --release -p bench";

/// Everything that can sink the whole suite, each naming the binary at
/// fault and (where a rebuild helps) the remedy.
#[derive(Debug)]
enum RunAllError {
    /// The OS would not reveal where run_all itself lives, so sibling
    /// binaries cannot be located.
    NoCurrentExe(io::Error),
    /// Preflight found experiment binaries missing next to run_all.
    MissingBinaries(Vec<String>),
    /// A binary existed at preflight but failed to launch.
    Launch {
        name: &'static str,
        path: PathBuf,
        source: io::Error,
    },
    /// Experiments ran but exited nonzero.
    Failed(Vec<&'static str>),
}

impl fmt::Display for RunAllError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunAllError::NoCurrentExe(e) => {
                write!(f, "could not locate the run_all executable: {e}")
            }
            RunAllError::MissingBinaries(missing) => {
                write!(
                    f,
                    "missing experiment binaries: {}\n{BUILD_REMEDY}",
                    missing.join(", ")
                )
            }
            RunAllError::Launch { name, path, source } => {
                write!(
                    f,
                    "could not launch {name} ({}): {source}\n{BUILD_REMEDY}",
                    path.display()
                )
            }
            RunAllError::Failed(names) => write!(f, "failed experiments: {}", names.join(", ")),
        }
    }
}

fn run() -> Result<(), RunAllError> {
    let exe = std::env::current_exe().map_err(RunAllError::NoCurrentExe)?;
    let paths: Vec<PathBuf> = EXPERIMENTS
        .iter()
        .map(|name| exe.with_file_name(name))
        .collect();

    // Preflight: name every missing binary up front instead of failing
    // partway through a long suite.
    let missing: Vec<String> = EXPERIMENTS
        .iter()
        .zip(&paths)
        .filter(|(_, path)| !path.exists())
        .map(|(name, path)| format!("{name} ({})", path.display()))
        .collect();
    if !missing.is_empty() {
        return Err(RunAllError::MissingBinaries(missing));
    }

    // Each experiment is an independent process writing its own CSV;
    // capture stdout/stderr and replay them in submission order.
    let jobs: Vec<_> = EXPERIMENTS
        .iter()
        .zip(paths)
        .map(|(&name, path)| {
            move || {
                let output = Command::new(&path).output();
                (name, path, output)
            }
        })
        .collect();

    let mut failures = Vec::new();
    for (name, path, output) in parallel::run_jobs(jobs) {
        println!("\n########## {name} ##########");
        match output {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                if !out.status.success() {
                    eprintln!("{name} exited with {}", out.status);
                    failures.push(name);
                }
            }
            Err(source) => return Err(RunAllError::Launch { name, path, source }),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(RunAllError::Failed(failures))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("\nall experiments completed; CSVs are under results/");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("\n{e}");
            ExitCode::FAILURE
        }
    }
}
