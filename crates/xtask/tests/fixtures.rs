//! Fixture-based rule tests: every rule has a known-bad fixture that
//! must fire and a known-good fixture that must stay silent.

use xtask::lint_source;
use xtask::model;
use xtask::rules::{FileContext, Rule};

fn fixture(kind: &str, name: &str) -> String {
    let path = format!("{}/fixtures/{kind}/{name}.rs", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Lints a fixture as if it lived at `rel_path`, with a rule-P budget.
fn lint(kind: &str, name: &str, rel_path: &str, budget: usize) -> Vec<(Rule, usize)> {
    let (violations, _) = lint_source(rel_path, &fixture(kind, name), budget);
    violations.iter().map(|v| (v.rule, v.line)).collect()
}

#[test]
fn bad_determinism_fires() {
    let hits = lint("bad", "determinism", "crates/simcore/src/fixture.rs", 0);
    let rules: Vec<Rule> = hits.iter().map(|&(r, _)| r).collect();
    assert!(rules.contains(&Rule::Determinism), "got {hits:?}");
    // Wall clock, ambient rng, argless default rng, and hash iteration
    // must each be caught.
    let lines: Vec<usize> = hits
        .iter()
        .filter(|&&(r, _)| r == Rule::Determinism)
        .map(|&(_, l)| l)
        .collect();
    assert!(lines.contains(&11), "Instant::now line, got {lines:?}");
    assert!(lines.contains(&12), "SimRng::default line, got {lines:?}");
    assert!(lines.contains(&13), "thread_rng line, got {lines:?}");
    assert!(lines.contains(&15), "HashMap iteration line, got {lines:?}");
}

#[test]
fn good_determinism_is_clean() {
    let hits = lint("good", "determinism", "crates/simcore/src/fixture.rs", 0);
    assert!(hits.is_empty(), "got {hits:?}");
}

#[test]
fn determinism_only_applies_to_sim_crates() {
    // The same bad source in a non-simulation crate is out of scope.
    let hits = lint("bad", "determinism", "crates/features/src/fixture.rs", 0);
    assert!(
        !hits.iter().any(|&(r, _)| r == Rule::Determinism),
        "got {hits:?}"
    );
}

#[test]
fn harness_crate_gets_the_wall_clock_half_only() {
    // In the bench crate only the wall-clock check applies: Instant
    // (line 11) fires, while ambient RNG (13) and hash-order iteration
    // (15) are the simulation crates' concern.
    let hits = lint("bad", "determinism", "crates/bench/src/lib.rs", 0);
    let lines: Vec<usize> = hits
        .iter()
        .filter(|&&(r, _)| r == Rule::Determinism)
        .map(|&(_, l)| l)
        .collect();
    assert!(lines.contains(&11), "Instant::now line, got {lines:?}");
    assert!(
        !lines.contains(&13),
        "thread_rng out of scope, got {lines:?}"
    );
    assert!(
        !lines.contains(&15),
        "hash iteration out of scope, got {lines:?}"
    );
}

#[test]
fn edge_protocol_files_get_the_full_determinism_rule() {
    // The edge crate's protocol/codec/cache half feeds seeded sim runs,
    // so it is a simulation crate for rule D: all four checks fire.
    let hits = lint("bad", "determinism", "crates/edge/src/protocol.rs", 0);
    let lines: Vec<usize> = hits
        .iter()
        .filter(|&&(r, _)| r == Rule::Determinism)
        .map(|&(_, l)| l)
        .collect();
    for (line, what) in [
        (11, "Instant::now"),
        (12, "SimRng::default"),
        (13, "thread_rng"),
        (15, "HashMap iteration"),
    ] {
        assert!(lines.contains(&line), "{what} line, got {lines:?}");
    }
}

#[test]
fn edge_service_runtime_is_exempt_from_determinism() {
    // The server and client halves run real sockets with read/write
    // deadlines; rule D stays out entirely.
    for home in ["crates/edge/src/server.rs", "crates/edge/src/client.rs"] {
        let hits = lint("bad", "determinism", home, 0);
        assert!(
            !hits.iter().any(|&(r, _)| r == Rule::Determinism),
            "{home}: got {hits:?}"
        );
    }
}

#[test]
fn bad_units_fires() {
    let hits = lint("bad", "units", "crates/dnnsim/src/fixture.rs", 0);
    let lines: Vec<usize> = hits
        .iter()
        .filter(|&&(r, _)| r == Rule::Units)
        .map(|&(_, l)| l)
        .collect();
    assert!(lines.contains(&4), "base_ms * throttle, got {lines:?}");
    assert!(lines.contains(&5), "radio_mj + 1.5, got {lines:?}");
}

#[test]
fn good_units_is_clean() {
    let hits = lint("good", "units", "crates/dnnsim/src/fixture.rs", 0);
    assert!(hits.is_empty(), "got {hits:?}");
}

#[test]
fn units_exempts_the_newtype_home() {
    let hits = lint("bad", "units", "crates/simcore/src/units.rs", 0);
    assert!(!hits.iter().any(|&(r, _)| r == Rule::Units), "got {hits:?}");
}

#[test]
fn bad_counters_fires() {
    let hits = lint("bad", "counters", "crates/reuse/src/fixture.rs", 0);
    let lines: Vec<usize> = hits
        .iter()
        .filter(|&&(r, _)| r == Rule::Counters)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(lines, vec![9, 10, 14], "lookups, hits, messages_sent");
}

#[test]
fn good_counters_is_clean() {
    let hits = lint("good", "counters", "crates/reuse/src/fixture.rs", 0);
    assert!(hits.is_empty(), "got {hits:?}");
}

#[test]
fn counters_exempts_the_registry_itself() {
    let hits = lint("bad", "counters", "crates/reuse/src/stats.rs", 0);
    assert!(
        !hits.iter().any(|&(r, _)| r == Rule::Counters),
        "got {hits:?}"
    );
}

#[test]
fn bad_panics_exceeds_a_zero_budget() {
    let hits = lint("bad", "panics", "crates/reuse/src/fixture.rs", 0);
    assert!(hits.iter().any(|&(r, _)| r == Rule::Panics), "got {hits:?}");
}

#[test]
fn bad_panics_fits_a_sufficient_budget() {
    // The fixture has exactly three sites: one index, one expect, one
    // unwrap. A budget of three admits it; two does not.
    let hits = lint("bad", "panics", "crates/reuse/src/fixture.rs", 3);
    assert!(
        !hits.iter().any(|&(r, _)| r == Rule::Panics),
        "got {hits:?}"
    );
    let hits = lint("bad", "panics", "crates/reuse/src/fixture.rs", 2);
    assert!(hits.iter().any(|&(r, _)| r == Rule::Panics), "got {hits:?}");
}

#[test]
fn good_panics_is_clean_at_zero() {
    let hits = lint("good", "panics", "crates/reuse/src/fixture.rs", 0);
    assert!(hits.is_empty(), "got {hits:?}");
}

#[test]
fn panics_only_applies_to_hot_path_crates() {
    let (hits, count) = lint_source(
        "crates/workloads/src/fixture.rs",
        &fixture("bad", "panics"),
        0,
    );
    assert!(count.is_none());
    assert!(!hits.iter().any(|v| v.rule == Rule::Panics), "got {hits:?}");
}

#[test]
fn bad_locks_fires() {
    let hits = lint("bad", "locks", "crates/reuse/src/concurrent/fixture.rs", 0);
    let lines: Vec<usize> = hits
        .iter()
        .filter(|&&(r, _)| r == Rule::Locks)
        .map(|&(_, l)| l)
        .collect();
    assert!(lines.contains(&7), "lock under a live guard, got {lines:?}");
    assert!(
        lines.contains(&12),
        "second lock in one statement, got {lines:?}"
    );
    assert!(
        !lines.contains(&18),
        "allow marker must cover the justified pair, got {lines:?}"
    );
}

#[test]
fn good_locks_is_clean() {
    let hits = lint("good", "locks", "crates/reuse/src/concurrent/fixture.rs", 0);
    assert!(hits.is_empty(), "got {hits:?}");
}

#[test]
fn locks_only_applies_to_the_concurrent_core() {
    // The same bad source elsewhere in reuse is out of scope.
    let hits = lint("bad", "locks", "crates/reuse/src/store.rs", 0);
    assert!(!hits.iter().any(|&(r, _)| r == Rule::Locks), "got {hits:?}");
}

/// Runs the cross-file lock-graph pass over one fixture.
fn graph_of(kind: &str, name: &str, rel_path: &str) -> (model::LockGraph, Vec<(Rule, usize)>) {
    let ctx = FileContext::new(rel_path, &fixture(kind, name));
    let (graph, violations) = model::lock_graph(&[&ctx]);
    (graph, violations.iter().map(|v| (v.rule, v.line)).collect())
}

#[test]
fn lock_graph_catches_the_ordering_cycle_rule_l_misses() {
    // The lexical rule first: each fn textually takes one lock, so L
    // stays silent on this fixture.
    let hits = lint(
        "bad",
        "lock_graph",
        "crates/reuse/src/concurrent/fixture.rs",
        9,
    );
    assert!(!hits.iter().any(|&(r, _)| r == Rule::Locks), "got {hits:?}");
    // The graph propagates through the calls: alpha->beta (via
    // grab_beta) and beta->alpha (via grab_alpha) close a cycle.
    let (graph, violations) = graph_of(
        "bad",
        "lock_graph",
        "crates/reuse/src/concurrent/fixture.rs",
    );
    assert!(graph.nodes.contains(&"self.alpha".to_string()), "{graph:?}");
    assert!(graph.nodes.contains(&"self.beta".to_string()), "{graph:?}");
    assert!(!graph.cycles().is_empty(), "{graph:?}");
    assert!(
        violations.iter().any(|&(r, _)| r == Rule::LockGraph),
        "got {violations:?}"
    );
}

#[test]
fn good_lock_graph_has_nodes_but_no_cycles() {
    let (graph, violations) = graph_of(
        "good",
        "lock_graph",
        "crates/reuse/src/concurrent/fixture.rs",
    );
    assert!(!graph.nodes.is_empty(), "{graph:?}");
    assert!(graph.cycles().is_empty(), "{graph:?}");
    assert!(violations.is_empty(), "got {violations:?}");
}

#[test]
fn lock_graph_subsumes_the_legacy_lock_fixture() {
    // Rule L's known-bad fixture also trips rule G: two acquisitions of
    // the `self.shard(_)` family under one guard are a self-edge, the
    // degenerate ordering cycle.
    let (graph, violations) = graph_of("bad", "locks", "crates/reuse/src/concurrent/fixture.rs");
    assert!(
        violations.iter().any(|&(r, _)| r == Rule::LockGraph),
        "got {violations:?}"
    );
    assert!(
        graph
            .cycles()
            .iter()
            .any(|c| c.iter().all(|n| n == "self.shard(_)")),
        "{graph:?}"
    );
    // And the known-good fixture stays acyclic under the graph too.
    let (graph, violations) = graph_of("good", "locks", "crates/reuse/src/concurrent/fixture.rs");
    assert!(graph.cycles().is_empty(), "{graph:?}");
    assert!(violations.is_empty(), "got {violations:?}");
}

#[test]
fn lock_graph_honours_the_locks_allow_marker() {
    // bad/locks.rs `allowed_pair` carries an xtask-allow(locks) span;
    // the graph must not manufacture an edge from the justified pair, so
    // the only cycle is the `transfer` self-edge.
    let (graph, _) = graph_of("bad", "locks", "crates/reuse/src/concurrent/fixture.rs");
    assert!(
        !graph
            .edges
            .iter()
            .any(|e| e.from == "self.shard(_)" && e.to == "self.shard(_)" && e.line > 15),
        "allowed pair leaked an edge: {graph:?}"
    );
}

#[test]
fn bad_seed_split_fires() {
    let hits = lint("bad", "seed_split", "crates/approxcache/src/fixture.rs", 0);
    let lines: Vec<usize> = hits
        .iter()
        .filter(|&&(r, _)| r == Rule::SeedSplit)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(
        lines,
        vec![5, 7, 21],
        "duplicate label, duplicate (label, index), and duplicate \
         constructor-chain bank, got {hits:?}"
    );
}

#[test]
fn good_seed_split_is_clean() {
    let hits = lint("good", "seed_split", "crates/approxcache/src/fixture.rs", 0);
    assert!(hits.is_empty(), "got {hits:?}");
}

#[test]
fn reserved_shard_label_is_rejected_outside_the_fleet_engine() {
    let hits = lint(
        "bad",
        "seed_split_reserved",
        "crates/p2pnet/src/fixture.rs",
        0,
    );
    let lines: Vec<usize> = hits
        .iter()
        .filter(|&&(r, _)| r == Rule::SeedSplit)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(
        lines,
        vec![7, 12],
        "every out-of-home \"shard\" split must fire, got {hits:?}"
    );
}

#[test]
fn reserved_shard_label_is_keyed_file_globally_in_its_home() {
    // Same fixture linted as the fleet engine itself: the two sites sit
    // in different fns, which the ordinary per-fn key would allow — the
    // reserved label collapses the scope, so the second site collides.
    let hits = lint(
        "bad",
        "seed_split_reserved",
        "crates/approxcache/src/fleet.rs",
        0,
    );
    let lines: Vec<usize> = hits
        .iter()
        .filter(|&&(r, _)| r == Rule::SeedSplit)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(lines, vec![12], "got {hits:?}");
}

#[test]
fn good_reserved_shard_label_is_clean_in_its_home() {
    let hits = lint(
        "good",
        "seed_split_reserved",
        "crates/approxcache/src/fleet.rs",
        0,
    );
    assert!(hits.is_empty(), "got {hits:?}");
}

#[test]
fn bad_alloc_fires_in_the_concurrent_core() {
    let hits = lint("bad", "alloc", "crates/reuse/src/concurrent/fixture.rs", 9);
    let lines: Vec<usize> = hits
        .iter()
        .filter(|&&(r, _)| r == Rule::Alloc)
        .map(|&(_, l)| l)
        .collect();
    for line in [
        5, 6, 12, 13, 19, 23, 24, 28, 32, 34, 38, 42, 46, 52, 57, 61, 68,
    ] {
        assert!(lines.contains(&line), "line {line} missing from {lines:?}");
    }
}

#[test]
fn alloc_shard_fns_are_hot_only_in_the_concurrent_core() {
    // Outside concurrent/, `lookup`/`insert` are ordinary fns; the
    // A-kNN kernels (`nearest_within_into`, its wrapper `nearest_into`,
    // `decide_in`) and the per-lookup scan internals (`block_scan_into`,
    // its scan body `block_scan` and AVX2 wrapper `block_scan_avx2`,
    // `squared_euclidean_head_block`), the classifier's `predict` and
    // the device stream's per-frame steps (`step_motion`, `step_imu`,
    // `fill_imu_window`) stay hot everywhere.
    let hits = lint("bad", "alloc", "crates/reuse/src/fixture.rs", 9);
    let lines: Vec<usize> = hits
        .iter()
        .filter(|&&(r, _)| r == Rule::Alloc)
        .map(|&(_, l)| l)
        .collect();
    assert!(
        !lines.iter().any(|&l| l < 17),
        "shard fns flagged outside the core: {lines:?}"
    );
    for line in [19, 23, 24, 28, 32, 34, 38, 42, 46, 52, 57, 61, 68] {
        assert!(lines.contains(&line), "line {line} missing from {lines:?}");
    }
}

#[test]
fn good_alloc_is_clean() {
    let hits = lint("good", "alloc", "crates/reuse/src/concurrent/fixture.rs", 9);
    assert!(hits.is_empty(), "got {hits:?}");
}

#[test]
fn bad_counter_registry_census_fires() {
    let ctx = FileContext::new(
        "crates/reuse/src/stats.rs",
        &fixture("bad", "counter_registry"),
    );
    let violations = model::check_counter_registry(&[&ctx], &[]);
    let messages: Vec<&str> = violations.iter().map(|v| v.message.as_str()).collect();
    assert!(
        messages
            .iter()
            .any(|m| m.contains("`lookups` has 2 record_* helpers")),
        "got {messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("`.hits` outside a `record_*` helper")),
        "got {messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("`self.stats.inserts +=` bypasses")),
        "got {messages:?}"
    );
}

#[test]
fn good_counter_registry_census_is_clean() {
    let ctx = FileContext::new(
        "crates/reuse/src/stats.rs",
        &fixture("good", "counter_registry"),
    );
    let violations = model::check_counter_registry(&[&ctx], &[]);
    assert!(violations.is_empty(), "got {violations:#?}");
}

#[test]
fn counter_census_requires_reconciliation_sites() {
    // With a reconcile file in play, every field must appear inside an
    // assert-family span; here only `lookups` does.
    let ctx = FileContext::new(
        "crates/reuse/src/stats.rs",
        &fixture("good", "counter_registry"),
    );
    let reconcile = FileContext::new(
        "tests/trace_observability.rs",
        "fn t() { assert_eq!(stats.lookups, 1); }",
    );
    let violations = model::check_counter_registry(&[&ctx], &[&reconcile]);
    assert!(
        violations
            .iter()
            .any(|v| v.message.contains("`hits` has no reconciliation")),
        "got {violations:#?}"
    );
    assert!(
        !violations
            .iter()
            .any(|v| v.message.contains("`lookups` has no reconciliation")),
        "got {violations:#?}"
    );
}

#[test]
fn lexer_edges_panic_sites_are_counted_and_placed() {
    // Two real sites: a raw-identifier `r#unwrap` and an index. The
    // allow marker in `allowed_site` sits after a string continuation,
    // so it only covers its unwrap if line numbers survive `\`-escaped
    // newlines.
    let (_, count) = lint_source(
        "crates/reuse/src/fixture.rs",
        &fixture("bad", "lexer_edges"),
        9,
    );
    assert_eq!(count, Some(2));
    let hits = lint("bad", "lexer_edges", "crates/reuse/src/fixture.rs", 1);
    assert!(hits.iter().any(|&(r, _)| r == Rule::Panics), "got {hits:?}");
}

#[test]
fn good_lexer_edges_hides_panic_text_in_literals_and_comments() {
    // Raw strings, nested block comments, and multi-line strings carry
    // unwrap/index-looking text that must stay opaque.
    let (hits, count) = lint_source(
        "crates/reuse/src/fixture.rs",
        &fixture("good", "lexer_edges"),
        0,
    );
    assert_eq!(count, Some(0));
    assert!(hits.is_empty(), "got {hits:?}");
}

#[test]
fn violations_render_with_location_rule_and_hint() {
    let (violations, _) = lint_source(
        "crates/reuse/src/fixture.rs",
        &fixture("bad", "counters"),
        0,
    );
    let rendered = violations[0].to_string();
    assert!(rendered.starts_with("crates/reuse/src/fixture.rs:9: [counters]"));
    assert!(rendered.contains("fix:"), "{rendered}");
}
