//! Self-lint: the shipped tree must pass every rule, the lock-order
//! graph must certify acyclic, the full pass must stay fast, and the
//! set of `xtask-allow` escape hatches must not grow silently.

use std::path::{Path, PathBuf};
use std::time::Instant;

use xtask::lexer::lex;
use xtask::rules::{HOT_FNS_ANYWHERE, HOT_FNS_CONCURRENT, LOCK_SCOPE_PREFIX};
use xtask::tree::Tree;
use xtask::{lint_repo, load_budget};

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels under the repo root")
        .to_path_buf()
}

#[test]
fn workspace_is_clean_under_every_rule() {
    let root = repo_root();
    let budget = load_budget(&root).expect("panic budget must parse");
    let started = Instant::now();
    let report = lint_repo(&root, &budget).expect("lint walks the workspace");
    let elapsed = started.elapsed();

    assert!(
        report.violations.is_empty(),
        "shipped tree must lint clean, got:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.rule.id(), v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_checked > 100,
        "walk looks truncated: {} files",
        report.files_checked
    );
    // The acceptance bar for the full structural pass is < 5 s; leave
    // headroom so a debug-profile CI box still clears it.
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "full lint took {elapsed:?}, budget is 5 s"
    );
}

#[test]
fn lock_order_graph_is_nonempty_and_acyclic() {
    let root = repo_root();
    let budget = load_budget(&root).unwrap();
    let report = lint_repo(&root, &budget).unwrap();
    assert_eq!(
        report.lock_graph.nodes,
        vec!["self.core.cache", "self.core.pending", "self.core.scratch"],
        "expected the store's read-write lock, its commit queue and its lookup buffers"
    );
    // The one nesting: queued commits are applied under the store's
    // write lock, so the store is always taken before the queue.
    assert!(
        !report.lock_graph.edges.is_empty()
            && report
                .lock_graph
                .edges
                .iter()
                .all(|e| (e.from.as_str(), e.to.as_str())
                    == ("self.core.cache", "self.core.pending")),
        "unexpected lock nesting: {:?}",
        report.lock_graph.edges
    );
    assert!(
        report.lock_graph.cycles().is_empty(),
        "lock-order cycles in the shipped tree: {:?}",
        report.lock_graph.cycles()
    );
}

#[test]
fn allow_census_is_pinned() {
    // Every `xtask-allow(rule)` in linted (non-fixture, non-xtask)
    // sources is an audited escape hatch. Adding one requires updating
    // this census — that is the review hook, not a formality.
    let mut sites: Vec<(String, String)> = Vec::new();
    for (rel, text) in linted_sources() {
        for line in text.lines() {
            let Some(idx) = line.find("xtask-allow(") else {
                continue;
            };
            let rest = &line[idx + "xtask-allow(".len()..];
            if let Some(end) = rest.find(')') {
                sites.push((rel.clone(), rest[..end].to_string()));
            }
        }
    }
    sites.sort();
    let census: Vec<String> = sites
        .iter()
        .map(|(file, rule)| format!("{file}: {rule}"))
        .collect();
    assert_eq!(census, Vec::<String>::new(), "allow census drifted");
}

#[test]
fn every_hot_fn_name_is_defined_in_the_tree() {
    // Rule A matches fns by name, so a name whose fn was renamed or
    // deleted stops guarding anything without a single test failing.
    let fns: Vec<(String, String)> = linted_sources()
        .into_iter()
        .flat_map(|(rel, text)| {
            let tree = Tree::new(&lex(&text).tokens);
            let names: Vec<String> = tree.fns().iter().map(|f| f.name.clone()).collect();
            names.into_iter().map(move |name| (rel.clone(), name))
        })
        .collect();
    let defined = |name: &str, prefix: &str| {
        fns.iter()
            .any(|(rel, f)| f == name && rel.starts_with(prefix))
    };
    for name in HOT_FNS_ANYWHERE {
        assert!(
            defined(name, "crates/"),
            "no `fn {name}` in the linted tree"
        );
    }
    for name in HOT_FNS_CONCURRENT {
        assert!(
            defined(name, LOCK_SCOPE_PREFIX),
            "no `fn {name}` in the concurrent core"
        );
    }
}

/// `(repo-relative path, text)` of every `crates/*/src/**/*.rs` the
/// linter walks (the xtask crate and fixtures are skipped).
fn linted_sources() -> Vec<(String, String)> {
    let root = repo_root();
    let mut out = Vec::new();
    collect_sources(&root.join("crates"), &root, &mut out);
    out
}

fn collect_sources(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if rel == "crates/xtask" || rel.ends_with("/fixtures") {
                continue;
            }
            collect_sources(&path, root, out);
        } else if rel.starts_with("crates/") && rel.contains("/src/") && rel.ends_with(".rs") {
            if let Ok(text) = std::fs::read_to_string(&path) {
                out.push((rel, text));
            }
        }
    }
}

#[test]
fn json_report_round_trips_the_key_facts() {
    let root = repo_root();
    let budget = load_budget(&root).unwrap();
    let report = lint_repo(&root, &budget).unwrap();
    let json = report.to_json();
    assert!(json.contains("\"clean\": true"), "{json}");
    assert!(json.contains("\"acyclic\": true"), "{json}");
    assert!(json.contains("\"files_checked\""), "{json}");
}
