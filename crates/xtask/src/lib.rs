//! Workspace lint driver: static checks the compiler cannot express.
//!
//! `cargo run -p xtask -- lint` walks every `crates/*/src/**/*.rs` (plus
//! the designated reconciliation test files) and enforces the repo
//! invariants (see DESIGN.md, "Invariants & static checks"):
//!
//! - **D determinism** — no wall clock, ambient RNG, or hash-order
//!   dependence in simulation crates.
//! - **U unit-safety** — no raw arithmetic on `_ms`/`_us`/`_mj`-suffixed
//!   identifiers; units live in `simcore::units` newtypes.
//! - **T trace-counter discipline** — counter fields increment only
//!   through `record_*` registry helpers, every field has exactly one
//!   helper, and every field has a reconciliation assertion site.
//! - **P panic hygiene** — `unwrap`/`expect`/indexing on hot paths is
//!   budgeted by `panic_budget.toml`, and the budget only shrinks.
//! - **L lock discipline** — fast lexical pre-check: the concurrent core
//!   never takes a second lock in one statement or under a live guard.
//! - **G lock-order graph** — the cross-file acquired-while-held graph
//!   over `reuse::concurrent` is certified acyclic (subsumes L).
//! - **S seed-split discipline** — sibling `split(..)` labels are unique
//!   per parent scope, so no two RNG child streams silently correlate.
//! - **A hot-path allocations** — the per-frame kernels and the store's
//!   lookup/insert stay allocation-free.
//!
//! The per-file rules run lexically over the token stream; the
//! structural rules (G, S, A, T's census) sit on the token tree
//! ([`tree`]) and the cross-file model pass ([`model`]). Escape hatch:
//! `// xtask-allow(<rule>): <reason>` on the line above a flagged
//! statement. Built dependency-free on a hand-rolled lexer so it works
//! offline from the vendored workspace alone.

pub mod budget;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod tree;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use budget::PanicBudget;
use model::LockGraph;
use rules::{FileContext, Rule, Violation, LOCK_SCOPE_PREFIX};

/// Where the panic budget lives, relative to the repo root.
pub const BUDGET_PATH: &str = "crates/xtask/panic_budget.toml";

/// The outcome of one lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All violations, sorted by file then line.
    pub violations: Vec<Violation>,
    /// Observed panic-site counts per in-scope file (including zeros).
    pub panic_counts: BTreeMap<String, usize>,
    /// Files inspected.
    pub files_checked: usize,
    /// The lock-order graph over the concurrent core.
    pub lock_graph: LockGraph,
}

impl LintReport {
    /// True when the run found nothing.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report as JSON (hand-rolled — xtask stays
    /// dependency-free). Schema:
    /// `{"clean": bool, "files_checked": n, "violations": [...],
    ///   "panic_sites": {...}, "lock_graph": {"acyclic": bool,
    ///   "nodes": [...], "edges": [...]}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"clean\": {},\n", self.clean()));
        out.push_str(&format!("  \"files_checked\": {},\n", self.files_checked));
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \
                 \"hint\": {}}}",
                json_str(&v.file),
                v.line,
                json_str(v.rule.id()),
                json_str(&v.message),
                json_str(v.hint)
            ));
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"panic_sites\": {");
        let total: usize = self.panic_counts.values().sum();
        out.push_str(&format!("\n    \"total\": {total}"));
        for (file, count) in &self.panic_counts {
            out.push_str(&format!(",\n    {}: {count}", json_str(file)));
        }
        out.push_str("\n  },\n");
        let cycles = self.lock_graph.cycles();
        out.push_str("  \"lock_graph\": {\n");
        out.push_str(&format!("    \"acyclic\": {},\n", cycles.is_empty()));
        out.push_str("    \"nodes\": [");
        for (i, node) in self.lock_graph.nodes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(node));
        }
        out.push_str("],\n");
        out.push_str("    \"edges\": [");
        for (i, e) in self.lock_graph.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let via = match &e.via {
                Some(v) => json_str(v),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "\n      {{\"from\": {}, \"to\": {}, \"via\": {via}, \"site\": {}}}",
                json_str(&e.from),
                json_str(&e.to),
                json_str(&format!("{}:{}", e.file, e.line))
            ));
        }
        if !self.lock_graph.edges.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]\n");
        out.push_str("  }\n");
        out.push('}');
        out
    }
}

/// JSON string literal with the escapes the report can actually contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lints one file's source against the per-file rules. `allowed_panics`
/// is the budget for this path. Returns the violations plus the observed
/// panic-site count (`None` when the file is outside rule P's scope) so
/// callers can ratchet. The cross-file rules (G, T's census) need the
/// whole workspace and run in [`lint_repo`] / [`model`].
pub fn lint_source(
    rel_path: &str,
    source: &str,
    allowed_panics: usize,
) -> (Vec<Violation>, Option<usize>) {
    let ctx = FileContext::new(rel_path, source);
    let mut violations = Vec::new();
    rules::check_file(&ctx, &mut violations);
    if !rules::in_panic_scope(&ctx) {
        return (violations, None);
    }
    let count = rules::count_panic_sites(&ctx);
    if count > allowed_panics {
        violations.push(Violation {
            file: ctx.rel_path.clone(),
            line: 1,
            rule: Rule::Panics,
            message: format!(
                "{count} panic sites (unwrap/expect/indexing) exceed the budget of \
                 {allowed_panics}"
            ),
            hint: "restructure with if-let/get/total_cmp; the budget in \
                   crates/xtask/panic_budget.toml only shrinks",
        });
    }
    (violations, Some(count))
}

/// Recursively collects `.rs` files under `dir`, sorted for stable
/// output.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut children: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    children.sort();
    for child in children {
        if child.is_dir() {
            rs_files(&child, out)?;
        } else if child.extension().is_some_and(|e| e == "rs") {
            out.push(child);
        }
    }
    Ok(())
}

/// Runs the full lint — per-file rules plus the cross-file model pass —
/// over `repo_root`, using `budget` for rule P.
pub fn lint_repo(repo_root: &Path, budget: &PanicBudget) -> std::io::Result<LintReport> {
    let crates_dir = repo_root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut report = LintReport::default();
    // Contexts the cross-file pass needs a second look at: the
    // concurrent core (lock graph) and counter registry homes (census).
    let mut lock_ctxs: Vec<FileContext> = Vec::new();
    let mut home_ctxs: Vec<FileContext> = Vec::new();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rs_files(&src, &mut files)?;
        for file in files {
            let rel = file
                .strip_prefix(repo_root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let source = std::fs::read_to_string(&file)?;
            let (violations, count) = lint_source(&rel, &source, budget.allowed(&rel));
            if let Some(count) = count {
                report.panic_counts.insert(rel.clone(), count);
            }
            report.violations.extend(violations);
            report.files_checked += 1;
            if rel.starts_with(LOCK_SCOPE_PREFIX) {
                lock_ctxs.push(FileContext::new(&rel, &source));
            }
            if rules::is_counter_home(&rel) {
                home_ctxs.push(FileContext::new(&rel, &source));
            }
        }
    }

    // Reconciliation files live outside `crates/*/src` (workspace-level
    // tests); read them directly. A missing file simply contributes no
    // assertion sites — the census then reports the uncovered fields.
    let mut reconcile_ctxs: Vec<FileContext> = Vec::new();
    for rel in model::RECONCILE_FILES {
        let path = repo_root.join(rel);
        if let Ok(source) = std::fs::read_to_string(&path) {
            reconcile_ctxs.push(FileContext::new(rel, &source));
        }
    }

    let lock_refs: Vec<&FileContext> = lock_ctxs.iter().collect();
    let (graph, graph_violations) = model::lock_graph(&lock_refs);
    report.lock_graph = graph;
    report.violations.extend(graph_violations);

    let home_refs: Vec<&FileContext> = home_ctxs.iter().collect();
    let reconcile_refs: Vec<&FileContext> = reconcile_ctxs.iter().collect();
    report
        .violations
        .extend(model::check_counter_registry(&home_refs, &reconcile_refs));

    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Loads the checked-in budget (empty when the file does not exist yet).
pub fn load_budget(repo_root: &Path) -> Result<PanicBudget, String> {
    let path = repo_root.join(BUDGET_PATH);
    match std::fs::read_to_string(&path) {
        Ok(text) => PanicBudget::parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(PanicBudget::default()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}
