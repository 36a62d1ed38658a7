//! Manifest-driven sweep runner.
//!
//! ```sh
//! cargo run -p bench --bin sweep -- path/to/manifest.json [state-dir]
//! cargo run -p bench --bin sweep -- --smoke [state-dir]
//! ```
//!
//! Expands the manifest's scenario × cache-size × fault-storm ×
//! device-count grid into fleet jobs, runs the ones without a state file
//! under `state-dir` (default `results/sweeps/<name>/`), and writes the
//! merged report to `<state-dir>/sweep.json`. Rerunning skips completed
//! cells, so an interrupted sweep resumes where it stopped.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use bench::sweep::{run_sweep, SweepManifest};
use simcore::parallel::default_threads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (manifest, state_arg) = match args.first().map(String::as_str) {
        Some("--smoke") => (SweepManifest::smoke(), args.get(1)),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("sweep: cannot read {path}: {e}"));
            let manifest: SweepManifest = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("sweep: cannot parse {path}: {e}"));
            (manifest, args.get(1))
        }
        None => {
            eprintln!("usage: sweep <manifest.json> [state-dir]");
            eprintln!("       sweep --smoke [state-dir]");
            std::process::exit(2);
        }
    };
    let state_dir = state_arg
        .map(PathBuf::from)
        .unwrap_or_else(|| bench::results_dir().join("sweeps").join(&manifest.name));
    let threads: NonZeroUsize = default_threads();

    println!(
        "sweep '{}': {} profiles x {} cache sizes x {} storms x {} device counts, state in {}",
        manifest.name,
        manifest.profiles.len(),
        manifest.cache_sizes.len(),
        manifest.fault_storms.len(),
        manifest.device_counts.len(),
        state_dir.display(),
    );
    let report = run_sweep(&manifest, &state_dir, threads);
    println!(
        "{} cells: {} ran now, {} resumed from disk",
        report.jobs, report.completed_this_run, report.resumed_from_disk
    );
    for row in &report.rows {
        println!(
            "  {:<28} reuse {:>5.1}%  accuracy {:>5.1}%  latency {:>7.2} ms",
            row.slug,
            row.reuse_rate * 100.0,
            row.accuracy * 100.0,
            row.mean_latency_ms,
        );
    }
    println!(
        "grid-wide frame latency: mean {:.2} ms, p99 {:.2} ms over {} frames",
        report.frame_latency_ms.mean, report.frame_latency_ms.p99, report.frame_latency_ms.count
    );
}
