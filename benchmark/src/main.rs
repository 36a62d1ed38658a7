//! The repo's benchmark: four workloads over the simulator, the fleet
//! engine and the live edge server, measured from outside.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark [--seed <n>] [--runs <k>] [--seconds <s>] [--smoke] [--out <file>]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is one run: it prints what it saw and, as the last
//! line of standard output, one JSON object `{correct, attempted, failed,
//! metrics}` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The second runs every workload timed and
//! traced, each in a fresh process, and writes `benchmark/out/`. See
//! `benchmark/README.md`.

mod edge_load;
mod gen;
mod host;
mod names;
mod outcome;
mod probes;
mod sim;
mod spans;
mod spec;
mod stats;
mod suite;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::{Map, Value};

use edge_load::EdgeKind;
use names::{EDGE_INGEST, EDGE_LOOKUP, FLEET_GRID, SOLO_VIDEO};
use outcome::Outcome;
use spec::Spec;

/// Where traces and suite results go, relative to the root of the
/// checkout (`run.sh` changes into it).
const OUT_DIR: &str = "benchmark/out";
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// A run measuring for less than this is a smoke run: it checks outputs,
/// its numbers are not for comparison, and it sets up once.
const SMOKE_BELOW_S: f64 = 1.0;
/// `fleet-grid` traced pass: population and simulated seconds of the
/// crowd guard, at a quarter of the workload's size and when another
/// workload's traced run merely wants the fleet metrics.
const FLEET_TRACED: (usize, u64) = (250, 15);
const FLEET_MINI: (usize, u64) = (64, 4);

/// What one run is asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
}

impl Plan {
    pub fn is_smoke(&self) -> bool {
        self.seconds < SMOKE_BELOW_S
    }

    /// Set-ups this run times.
    pub fn setup_repeats(&self) -> usize {
        if self.is_smoke() {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

fn timed(workload: &str, plan: &Plan) -> Result<Outcome, String> {
    match workload {
        SOLO_VIDEO => Ok(sim::solo_timed(plan)),
        FLEET_GRID => Ok(sim::fleet_timed(plan)),
        EDGE_LOOKUP => Ok(edge_load::edge_timed(EdgeKind::Lookup, plan)),
        EDGE_INGEST => Ok(edge_load::edge_timed(EdgeKind::Ingest, plan)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The traced run of `workload`: its own pass at a quarter of the timed
/// size, writing `trace-<workload>.json`, plus the passes that own the
/// other layers' metrics at a thirty-second of it, because every traced
/// run reports every per-layer metric. A metric is authoritative on the
/// workload whose pass produces it at the quarter size.
fn traced(workload: &str, plan: &Plan) -> Result<Outcome, String> {
    if !names::WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let budget = |pass: &str| plan.seconds / if pass == workload { 4.0 } else { 32.0 };
    let trace_to = |pass: &str| -> Option<PathBuf> {
        (pass == workload).then(|| Path::new(OUT_DIR).join(format!("trace-{pass}.json")))
    };
    let mut out = Outcome::default();
    probes::index_probes(plan.seed, &mut out);
    probes::proximity_probes(&mut out);

    let solo = sim::solo_pass(
        plan.seed,
        budget(SOLO_VIDEO),
        trace_to(SOLO_VIDEO).as_deref(),
        &mut out,
    );
    if let Some(solo) = &solo {
        probes::frame_probes(plan.seed, solo, &mut out);
    }
    let (devices, crowd_secs) = if workload == FLEET_GRID {
        FLEET_TRACED
    } else {
        FLEET_MINI
    };
    let fleet = sim::fleet_pass(
        plan.seed,
        budget(FLEET_GRID),
        devices,
        crowd_secs,
        trace_to(FLEET_GRID).as_deref(),
        &mut out,
    );
    // Cache and inference ratios come from the sim workload asked for,
    // from `solo-video` when an edge workload was.
    match (&solo, &fleet) {
        (_, Some(fleet)) if workload == FLEET_GRID => {
            sim::reuse_metrics(std::slice::from_ref(fleet), &mut out);
        }
        (Some(solo), _) => sim::reuse_metrics(&solo.reports, &mut out),
        _ => {}
    }
    // The edge metrics come from the edge workload asked for; a sim
    // workload's traced run takes them from `edge-ingest`, whose server
    // is the quicker of the two to fill.
    let kind = if workload == EDGE_LOOKUP {
        EdgeKind::Lookup
    } else {
        EdgeKind::Ingest
    };
    edge_load::edge_pass(
        kind,
        plan.seed,
        budget(kind.name()),
        trace_to(kind.name()).as_deref(),
        &mut out,
    );
    Ok(out)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// the metrics being the ones `BENCHMARK.json` declares for this mode.
fn result_line(spec: &Spec, trace: bool, out: &mut Outcome) -> String {
    let mut metrics = Map::new();
    for metric in spec.metrics(trace) {
        match out.metrics.get(metric.name.as_str()) {
            Some(value) if value.is_finite() => {
                let mut entry = Map::new();
                entry.insert("value".to_owned(), Value::from(*value));
                entry.insert("unit".to_owned(), Value::from(metric.unit.as_str()));
                metrics.insert(metric.name.clone(), Value::Object(entry));
            }
            Some(value) => out
                .checks
                .fail(format!("metric {} is {value}", metric.name)),
            None => out
                .checks
                .fail(format!("metric {} was not measured", metric.name)),
        }
    }
    out.checks.require(out.attempted >= 1, || {
        "no operation was attempted".to_owned()
    });
    let mut line = Map::new();
    line.insert(
        "correct".to_owned(),
        Value::from(out.checks.failures().is_empty()),
    );
    line.insert("attempted".to_owned(), Value::from(out.attempted));
    line.insert("failed".to_owned(), Value::from(out.failed));
    line.insert("metrics".to_owned(), Value::Object(metrics));
    Value::Object(line).render_compact()
}

/// One run, as the driver and the suite ask for it.
fn single(args: &Args) -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let workload = args.text("--workload")?.ok_or("--workload is missing")?;
    let trace = match args.number::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let plan = Plan {
        seed: args.number("--seed")?.unwrap_or(42),
        seconds: args.number("--seconds")?.unwrap_or(spec.run_seconds as f64),
    };
    if !(plan.seconds > 0.0 && plan.seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    let mut out = if trace {
        traced(workload, &plan)?
    } else {
        timed(workload, &plan)?
    };
    println!(
        "{workload}: seed {}, {} s, trace {}, W = {}",
        plan.seed,
        plan.seconds,
        u8::from(trace),
        host::load_width()
    );
    for note in &out.notes {
        println!("{note}");
    }
    let line = result_line(&spec, trace, &mut out);
    for metric in spec.metrics(trace) {
        if let Some(value) = out.metrics.get(metric.name.as_str()) {
            println!("{} = {value} {}", metric.name, metric.unit);
        }
    }
    for failure in out.checks.failures() {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!("{line}");
    Ok(if out.checks.failures().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--flag value` pairs and bare flags, as given on the command line.
#[derive(Debug)]
pub struct Args {
    words: Vec<String>,
}

impl Args {
    fn position(&self, flag: &str) -> Option<usize> {
        self.words.iter().position(|w| w == flag)
    }

    pub fn has(&self, flag: &str) -> bool {
        self.position(flag).is_some()
    }

    pub fn text(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.position(flag) {
            None => Ok(None),
            Some(i) => self
                .words
                .get(i + 1)
                .map(|w| Some(w.as_str()))
                .ok_or_else(|| format!("{flag} expects a value")),
        }
    }

    pub fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.text(flag)? {
            None => Ok(None),
            Some(word) => word
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read {word:?}")),
        }
    }
}

fn main() -> ExitCode {
    let args = Args {
        words: std::env::args().skip(1).collect(),
    };
    let result = if args.words.first().is_some_and(|w| w == "compare") {
        suite::compare(&args.words[1..])
    } else if args.has("--workload") {
        single(&args)
    } else {
        suite::run(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
