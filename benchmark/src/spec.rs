//! `BENCHMARK.json` as the program sees it: the one place a metric's
//! unit, direction and bound are written down. The binary embeds the
//! file, so what it prints and what `compare` judges by cannot drift
//! from what the driver reads.

use serde_json::Value;

/// The contract file at the root of the repo.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// get worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the program uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<Metric>, String> {
    let list = doc
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))?;
    list.iter()
        .map(|entry| {
            let field = |name: &str| {
                entry
                    .as_object()
                    .and_then(|o| o.get(name))
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: `{key}` entry without `{name}`"))
            };
            let higher_is_better = match field("better")? {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("BENCHMARK.json: better = {other:?}")),
            };
            Ok(Metric {
                name: field("name")?.to_owned(),
                unit: field("unit")?.to_owned(),
                higher_is_better,
                bound: entry
                    .as_object()
                    .and_then(|o| o.get("bound"))
                    .and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the embedded `BENCHMARK.json`.
    pub fn load() -> Result<Spec, String> {
        let doc: Value =
            serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let object = doc.as_object().ok_or("BENCHMARK.json: not an object")?;
        let workloads = object
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json: no `workloads` list")?
            .iter()
            .filter_map(|w| w.as_object()?.get("name")?.as_str().map(str::to_owned))
            .collect();
        Ok(Spec {
            run_seconds: object
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// The metrics a run with `--trace <trace>` must print.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
