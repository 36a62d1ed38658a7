//! The whole benchmark in one go, and the comparison of two such goes.
//!
//! `run` starts every workload in a fresh process of this binary, one
//! after another, never two at once: `--runs` timed runs on consecutive
//! seeds, then one traced run. It prints every metric by name with its
//! unit and writes all result lines to one file. `compare` holds two
//! such files against the bounds in `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::{Map, Value};

use crate::names::WORKLOADS;
use crate::spec::{Metric, Spec};
use crate::stats;
use crate::{Args, OUT_DIR};

/// Measured seconds of a `--smoke` run: about 1 % of a full one.
const SMOKE_SECONDS: f64 = 0.2;

/// One child run as the results file keeps it.
#[derive(Debug, Clone)]
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    correct: bool,
    /// Report digest the sim workloads print, to compare two commits
    /// exactly; empty for the edge workloads.
    digest: String,
    metrics: Vec<(String, f64)>,
}

fn object<'a>(value: &'a Value, what: &str) -> Result<&'a Map, String> {
    value
        .as_object()
        .ok_or_else(|| format!("{what}: not an object"))
}

fn metrics_of(line: &Value) -> Result<Vec<(String, f64)>, String> {
    let metrics = object(line, "result line")?
        .get("metrics")
        .ok_or("result line: no metrics")?;
    object(metrics, "metrics")?
        .iter()
        .map(|(name, entry)| {
            entry
                .as_object()
                .and_then(|e| e.get("value"))
                .and_then(Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name}: no value"))
        })
        .collect()
}

/// Runs one workload once in a child process, passing its output through.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let output = command
        .output()
        .map_err(|e| format!("{workload}: start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: the child printed nothing"))?;
    for line in &lines {
        println!("  {line}");
    }
    let parsed: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: last line is not a result ({e}): {last}"))?;
    let correct = object(&parsed, "result line")?
        .get("correct")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let digest = lines
        .iter()
        .find_map(|l| l.strip_prefix(&format!("digest {workload} ")))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or("")
        .to_owned();
    Ok(Run {
        workload: workload.to_owned(),
        seed,
        trace,
        correct: correct && output.status.success(),
        digest,
        metrics: metrics_of(&parsed)?,
    })
}

fn run_to_value(run: &Run) -> Value {
    let mut metrics = Map::new();
    for (name, value) in &run.metrics {
        metrics.insert(name.clone(), Value::from(*value));
    }
    let mut entry = Map::new();
    entry.insert("workload".to_owned(), Value::from(run.workload.as_str()));
    entry.insert("seed".to_owned(), Value::from(run.seed));
    entry.insert("trace".to_owned(), Value::from(run.trace));
    entry.insert("correct".to_owned(), Value::from(run.correct));
    entry.insert("digest".to_owned(), Value::from(run.digest.as_str()));
    entry.insert("metrics".to_owned(), Value::Object(metrics));
    Value::Object(entry)
}

fn values(runs: &[Run], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

fn print_table(spec: &Spec, runs: &[Run], trace: bool) {
    println!(
        "\n{:<40} {:<9} {}",
        if trace {
            "per-layer metric"
        } else {
            "end-to-end metric"
        },
        "unit",
        WORKLOADS.map(|w| format!("{w:>14}")).join(" ")
    );
    for metric in spec.metrics(trace) {
        let cells = WORKLOADS.map(|w| {
            let v = values(runs, w, trace, &metric.name);
            if v.is_empty() {
                format!("{:>14}", "-")
            } else {
                format!("{:>14.4}", stats::median(&v))
            }
        });
        println!("{:<40} {:<9} {}", metric.name, metric.unit, cells.join(" "));
    }
}

/// The suite: every workload timed (`--runs` times) and traced.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let smoke = args.has("--smoke");
    let seed: u64 = args.number("--seed")?.unwrap_or(42);
    let runs: u64 = if smoke {
        1
    } else {
        args.number("--runs")?.unwrap_or(1).max(1)
    };
    let seconds: f64 = match args.number("--seconds")? {
        Some(seconds) => seconds,
        None if smoke => SMOKE_SECONDS,
        None => spec.run_seconds as f64,
    };
    let out_path = args
        .text("--out")?
        .map_or_else(|| Path::new(OUT_DIR).join("results.json"), PathBuf::from);

    let mut all = Vec::new();
    for workload in WORKLOADS {
        for r in 0..runs {
            println!(
                "== {workload}: timed run {} of {runs}, seed {}",
                r + 1,
                seed + r
            );
            all.push(child(workload, seed + r, seconds, false)?);
        }
        println!("== {workload}: traced run, seed {seed}");
        all.push(child(workload, seed, seconds, true)?);
    }

    print_table(&spec, &all, false);
    print_table(&spec, &all, true);
    if runs > 1 {
        println!("\nspread of the {runs} timed runs (interquartile distance / median) against the bound:");
        for metric in &spec.end_to_end {
            for workload in WORKLOADS {
                let v = values(&all, workload, false, &metric.name);
                println!(
                    "  {:<24} {:<12} {:>7.3} %  (bound {:>5.1} %)",
                    metric.name,
                    workload,
                    stats::spread(&v) * 100.0,
                    metric.bound.unwrap_or(0.0) * 100.0
                );
            }
        }
    }
    // The same line a single run draws: below it a run sets up once.
    let comparable = seconds >= crate::SMOKE_BELOW_S;
    if !comparable {
        println!("\nsmoke run: checks only; these numbers are not for comparison");
    }

    let mut doc = Map::new();
    doc.insert("schema".to_owned(), Value::from(1u64));
    doc.insert("comparable".to_owned(), Value::from(comparable));
    doc.insert("seed".to_owned(), Value::from(seed));
    doc.insert("seconds".to_owned(), Value::from(seconds));
    doc.insert(
        "load_threads".to_owned(),
        Value::from(crate::host::load_width() as u64),
    );
    doc.insert(
        "runs".to_owned(),
        Value::Array(all.iter().map(run_to_value).collect()),
    );
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&Value::Object(doc)).map_err(|e| e.to_string())?;
    std::fs::write(&out_path, text + "\n")
        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    println!("wrote {}", out_path.display());

    let wrong: Vec<String> = all
        .iter()
        .filter(|r| !r.correct)
        .map(|r| format!("{} (trace {})", r.workload, u8::from(r.trace)))
        .collect();
    if wrong.is_empty() {
        println!("every output check passed");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("output checks failed in: {}", wrong.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let doc = object(&doc, path)?;
    if doc.get("comparable").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{path}: a smoke run, not for comparison"));
    }
    doc.get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no runs"))?
        .iter()
        .map(|entry| {
            let e = object(entry, path)?;
            let text = |k: &str| e.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
            Ok(Run {
                workload: text("workload"),
                seed: e.get("seed").and_then(Value::as_u64).unwrap_or(0),
                trace: e.get("trace").and_then(Value::as_bool).unwrap_or(false),
                correct: e.get("correct").and_then(Value::as_bool).unwrap_or(false),
                digest: text("digest"),
                metrics: object(e.get("metrics").ok_or("run without metrics")?, "metrics")?
                    .iter()
                    .filter_map(|(n, v)| v.as_f64().map(|v| (n.clone(), v)))
                    .collect(),
            })
        })
        .collect()
}

/// How set `b` of a metric's runs stands against set `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    WithinBound,
    Worse,
    /// The runs scatter wider than the bound and the two sets overlap:
    /// neither "unchanged" nor "worse" can be said.
    Unresolved,
}

fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let (base, other) = (stats::median(a), stats::median(b));
    let worse_by = if metric.higher_is_better {
        (base - other) / base.abs()
    } else {
        (other - base) / base.abs()
    };
    if worse_by > bound {
        return Verdict::Worse;
    }
    let (a, b) = (stats::sorted(a), stats::sorted(b));
    let all_better = if metric.higher_is_better {
        b[0] > a[a.len() - 1]
    } else {
        b[b.len() - 1] < a[0]
    };
    if stats::spread(&a).max(stats::spread(&b)) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

/// `compare <a.json> <b.json>`: per metric × workload, both sets'
/// quartiles, the ratio of the medians with its base, and a verdict.
pub fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = paths else {
        return Err("usage: benchmark compare <a.json> <b.json>".to_owned());
    };
    let spec = Spec::load()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("a = {a_path}\nb = {b_path}  (every ratio is b / a; the base is a's median)\n");
    let mut worst = Verdict::WithinBound;
    for workload in WORKLOADS {
        for metric in &spec.end_to_end {
            let (va, vb) = (
                values(&a, workload, false, &metric.name),
                values(&b, workload, false, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload} {}: missing from a file", metric.name));
            }
            let (qa, qb) = (stats::quartiles(&va), stats::quartiles(&vb));
            let v = verdict(metric, &va, &vb);
            println!(
                "{workload:<12} {:<22} a {:.4} / {:.4} / {:.4}  b {:.4} / {:.4} / {:.4} {}  b/a {:.4} (base {:.4} {}, n {} and {}, bound {:.1} %)  {}",
                metric.name,
                qa.0, qa.1, qa.2,
                qb.0, qb.1, qb.2,
                metric.unit,
                qb.1 / qa.1,
                qa.1,
                metric.unit,
                va.len(),
                vb.len(),
                metric.bound.unwrap_or(0.0) * 100.0,
                match v {
                    Verdict::WithinBound => "within-bound",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
            if v == Verdict::Worse || (v == Verdict::Unresolved && worst == Verdict::WithinBound) {
                worst = v;
            }
        }
        let digests = |runs: &[Run]| -> Vec<String> {
            let mut d: Vec<String> = runs
                .iter()
                .filter(|r| r.workload == workload && !r.trace && !r.digest.is_empty())
                .map(|r| format!("{}:{}", r.seed, r.digest))
                .collect();
            d.sort();
            d
        };
        let (da, db) = (digests(&a), digests(&b));
        if !da.is_empty() {
            println!(
                "{workload:<12} report digests (seed:digest) {}",
                if da == db { "agree exactly" } else { "DIFFER" }
            );
        }
    }
    println!(
        "\noverall: {}",
        match worst {
            Verdict::WithinBound => "every end-to-end metric within its bound",
            Verdict::Worse => "at least one metric is worse than its bound allows",
            Verdict::Unresolved => "no metric is worse, at least one is unresolved",
        }
    );
    Ok(if worst == Verdict::Worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: "m".to_owned(),
            unit: "u".to_owned(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdict_follows_the_bound_the_spread_and_the_overlap() {
        let rate = metric(true, 0.10);
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&rate, &tight, &[98.0, 99.0, 97.0, 98.5, 97.5]),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&rate, &tight, &[85.0, 86.0, 84.0, 85.5, 84.5]),
            Verdict::Worse
        );
        // Scatter wider than the bound, overlapping sets: no verdict.
        let wide = [100.0, 130.0, 70.0, 115.0, 85.0];
        assert_eq!(verdict(&rate, &wide, &wide), Verdict::Unresolved);
        // ... unless every run of b beats every run of a.
        assert_eq!(
            verdict(&rate, &wide, &[140.0, 190.0, 131.0, 165.0, 150.0]),
            Verdict::WithinBound
        );
        // For a time, up is worse.
        let time = metric(false, 0.10);
        assert_eq!(
            verdict(&time, &tight, &[115.0, 116.0, 114.0, 115.5, 114.5]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&time, &tight, &[90.0, 91.0, 89.0]),
            Verdict::WithinBound
        );
    }

    #[test]
    fn result_lines_round_trip_through_the_results_file() {
        let run = Run {
            workload: "solo-video".to_owned(),
            seed: 7,
            trace: false,
            correct: true,
            digest: "00ff".to_owned(),
            metrics: vec![("frames_per_s".to_owned(), 15_321.25)],
        };
        let value = run_to_value(&run);
        let line: Value = serde_json::from_str(
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"frames_per_s":{"value":15321.25,"unit":"frames/s"}}}"#,
        )
        .expect("parses");
        assert_eq!(metrics_of(&line).expect("metrics"), run.metrics);
        assert_eq!(
            value
                .as_object()
                .and_then(|o| o.get("seed"))
                .and_then(Value::as_u64),
            Some(7)
        );
        assert_eq!(
            values(&[run], "solo-video", false, "frames_per_s"),
            vec![15_321.25]
        );
    }
}
