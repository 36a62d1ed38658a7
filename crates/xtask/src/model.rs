//! The cross-file model pass: facts no single file can prove.
//!
//! Two analyses live here, both built on the token tree:
//!
//! - **Rule G, the lock-order graph.** Over the concurrent core
//!   (`crates/reuse/src/concurrent/`), nodes are named lock sites (the
//!   normalized receiver chain of each `.lock()` call) and edges are
//!   acquired-while-held relations: a direct second acquisition under a
//!   live guard, or a lock acquired inside a fn called while a guard is
//!   held (call edges propagate one level deep, through `self.method(..)`
//!   and bare-fn calls resolved by name within the core). A cycle —
//!   including a self-edge, two acquisitions of the same lock family —
//!   is a deadlock risk; DFS certifies the graph acyclic.
//!
//! - **Rule T's census.** Each counter registry field must be
//!   incremented by exactly one `record_*` helper inside the registry's
//!   own `impl` block (plus `merge`), and at least one reconciliation
//!   assertion must exercise the field in the designated reconciliation
//!   files — otherwise a drifting counter would never fail a test.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokenKind;
use crate::rules::{
    is_counter_home, registry_of, FileContext, Rule, Violation, COUNTER_REGISTRIES,
};
use crate::tree::receiver_chain;

/// Files whose `assert*!` spans count as reconciliation sites for the
/// counter census: the registry's own balance invariant and the
/// cross-crate trace-observability suite.
pub const RECONCILE_FILES: &[&str] = &["crates/reuse/src/stats.rs", "tests/trace_observability.rs"];

/// One acquired-while-held relation.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Lock held at the time.
    pub from: String,
    /// Lock acquired under it.
    pub to: String,
    /// Fn the edge crossed through (call propagation), if any.
    pub via: Option<String>,
    /// Repo-relative file of the acquiring site.
    pub file: String,
    /// 1-indexed line of the acquiring site.
    pub line: usize,
}

/// The lock-order graph over the concurrent core.
#[derive(Debug, Default, Clone)]
pub struct LockGraph {
    /// Sorted, deduplicated lock-site names.
    pub nodes: Vec<String>,
    /// Acquired-while-held edges.
    pub edges: Vec<LockEdge>,
}

impl LockGraph {
    /// All distinct cycles, each as the node sequence (first node
    /// repeated at the end). Deduplicated by node set.
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let index: BTreeMap<&str, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            if let (Some(&f), Some(&t)) = (index.get(e.from.as_str()), index.get(e.to.as_str())) {
                if !adj[f].contains(&t) {
                    adj[f].push(t);
                }
            }
        }
        let mut cycles: Vec<Vec<String>> = Vec::new();
        let mut seen_sets: BTreeSet<Vec<usize>> = BTreeSet::new();
        // Colors: 0 white, 1 on the current path, 2 done.
        let mut color = vec![0u8; self.nodes.len()];
        let mut path: Vec<usize> = Vec::new();
        for start in 0..self.nodes.len() {
            if color[start] != 0 {
                continue;
            }
            // Iterative DFS with an explicit edge cursor per frame.
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = 1;
            path.push(start);
            while let Some(top) = stack.last_mut() {
                let node = top.0;
                if top.1 < adj[node].len() {
                    let next = adj[node][top.1];
                    top.1 += 1;
                    match color[next] {
                        0 => {
                            color[next] = 1;
                            path.push(next);
                            stack.push((next, 0));
                        }
                        1 => {
                            // Back edge: the cycle is the path suffix
                            // from `next`.
                            let pos = path.iter().position(|&n| n == next).unwrap_or(0);
                            let mut ids: Vec<usize> = path[pos..].to_vec();
                            let mut key = ids.clone();
                            key.sort_unstable();
                            if seen_sets.insert(key) {
                                ids.push(next);
                                cycles.push(ids.iter().map(|&i| self.nodes[i].clone()).collect());
                            }
                        }
                        _ => {}
                    }
                } else {
                    color[node] = 2;
                    stack.pop();
                    path.pop();
                }
            }
        }
        cycles
    }

    /// A representative edge for the pair `from -> to`, if recorded.
    pub fn edge(&self, from: &str, to: &str) -> Option<&LockEdge> {
        self.edges.iter().find(|e| e.from == from && e.to == to)
    }
}

/// Lock facts extracted from one file's fn bodies.
#[derive(Debug, Default)]
struct LockFacts {
    /// fn name -> lock nodes it acquires directly, with their lines.
    acquires: BTreeMap<String, Vec<(String, String, usize)>>,
    /// (held node, acquired node, file, line) within one fn body.
    direct: Vec<(String, String, String, usize)>,
    /// (held node, callee fn name, file, line) — resolved one level.
    held_calls: Vec<(String, String, String, usize)>,
}

/// Keywords that can directly precede `(` without being a call.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "in", "move", "let", "else",
];

/// Walks one file's fns, mirroring rule L's guard-liveness bookkeeping
/// but keeping *names*: which lock is held, which lock or callee is
/// reached under it.
fn collect_lock_facts(ctx: &FileContext, facts: &mut LockFacts) {
    let tokens = ctx.tokens();
    let tree = ctx.tree();
    for f in tree.fns() {
        let Some((lo, hi)) = f.body else { continue };
        if ctx.in_test(lo) {
            continue;
        }
        let mut depth = 0usize;
        // (registration depth, node name) of live guard bindings.
        let mut guards: Vec<(usize, String)> = Vec::new();
        // Lock nodes acquired in the current statement.
        let mut stmt_locks: Vec<String> = Vec::new();
        let mut register_at_semi: Option<String> = None;
        let mut has_let = false;
        for i in lo..=hi.min(tokens.len().saturating_sub(1)) {
            let t = &tokens[i];
            if t.is_punct('{') {
                depth += 1;
                (stmt_locks, register_at_semi, has_let) = (Vec::new(), None, false);
                continue;
            }
            if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                guards.retain(|&(d, _)| depth >= d);
                (stmt_locks, register_at_semi, has_let) = (Vec::new(), None, false);
                continue;
            }
            if t.is_punct(';') {
                if let Some(node) = register_at_semi.take() {
                    guards.push((depth, node));
                }
                (stmt_locks, has_let) = (Vec::new(), false);
                continue;
            }
            if t.is_ident("let") {
                has_let = true;
                continue;
            }
            // `.lock(` acquisition.
            if t.is_punct('.')
                && i + 2 < tokens.len()
                && tokens[i + 1].is_ident("lock")
                && tokens[i + 2].is_punct('(')
            {
                let line = tokens[i + 1].line;
                let node = receiver_chain(tokens, tree, i);
                let suppressed = ctx.allowed(Rule::LockGraph, line)
                    || ctx.allowed(Rule::Locks, line)
                    || ctx.in_test(i);
                if !suppressed {
                    for held in guards.iter().map(|(_, n)| n).chain(stmt_locks.iter()) {
                        facts
                            .direct
                            .push((held.clone(), node.clone(), ctx.rel_path.clone(), line));
                    }
                    facts.acquires.entry(f.name.clone()).or_default().push((
                        node.clone(),
                        ctx.rel_path.clone(),
                        line,
                    ));
                }
                // Guard-binding shape: the call's `)` directly before `;`.
                if has_let {
                    if let Some(close) = tree.match_of(i + 2) {
                        if tokens.get(close + 1).is_some_and(|n| n.is_punct(';')) {
                            register_at_semi = Some(node.clone());
                        }
                    }
                }
                stmt_locks.push(node);
                continue;
            }
            // Call sites reached while a lock is held: `self.method(`
            // and bare `method(`. Other receivers are skipped — by-name
            // resolution cannot tell `cache.lookup(..)` (the inner
            // store, which takes no lock) from the handle's own method.
            if guards.is_empty() && stmt_locks.is_empty() {
                continue;
            }
            if t.kind != TokenKind::Ident
                || !tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                || CALL_KEYWORDS.contains(&t.ident_name())
            {
                continue;
            }
            let callee = t.ident_name().to_string();
            let bare = i == 0
                || !(tokens[i - 1].is_punct('.')
                    || tokens[i - 1].is_punct(':')
                    || tokens[i - 1].is_ident("fn"));
            let self_call = i >= 2 && tokens[i - 1].is_punct('.') && tokens[i - 2].is_ident("self");
            if !(bare || self_call) || ctx.in_test(i) {
                continue;
            }
            for held in guards.iter().map(|(_, n)| n).chain(stmt_locks.iter()) {
                facts
                    .held_calls
                    .push((held.clone(), callee.clone(), ctx.rel_path.clone(), t.line));
            }
        }
    }
}

/// Builds the lock-order graph over `files` (the concurrent core) and
/// reports every cycle as a rule-G violation.
pub fn lock_graph(files: &[&FileContext]) -> (LockGraph, Vec<Violation>) {
    let mut facts = LockFacts::default();
    for ctx in files {
        collect_lock_facts(ctx, &mut facts);
    }
    let mut graph = LockGraph::default();
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    for sites in facts.acquires.values() {
        for (node, _, _) in sites {
            nodes.insert(node.clone());
        }
    }
    for (from, to, file, line) in &facts.direct {
        graph.edges.push(LockEdge {
            from: from.clone(),
            to: to.clone(),
            via: None,
            file: file.clone(),
            line: *line,
        });
    }
    // One level of call propagation: a fn called under a held lock
    // contributes the locks it acquires directly.
    for (held, callee, file, line) in &facts.held_calls {
        let Some(sites) = facts.acquires.get(callee) else {
            continue;
        };
        for (node, _, _) in sites {
            graph.edges.push(LockEdge {
                from: held.clone(),
                to: node.clone(),
                via: Some(callee.clone()),
                file: file.clone(),
                line: *line,
            });
        }
    }
    graph.nodes = nodes.into_iter().collect();

    let mut violations = Vec::new();
    for cycle in graph.cycles() {
        let edge = cycle.windows(2).find_map(|w| graph.edge(&w[0], &w[1]));
        let (file, line, via) = match edge {
            Some(e) => (
                e.file.clone(),
                e.line,
                e.via
                    .as_ref()
                    .map(|v| format!(" (via fn `{v}`)"))
                    .unwrap_or_default(),
            ),
            None => (String::new(), 1, String::new()),
        };
        let message = if cycle.len() == 2 && cycle[0] == cycle[1] {
            format!(
                "lock-order cycle: `{}` acquired while already held{via} — two \
                 acquisitions of one lock family deadlock under contention",
                cycle[0]
            )
        } else {
            format!(
                "lock-order cycle: {}{via} — concurrent threads taking these locks in \
                 opposite orders deadlock",
                cycle.join(" -> ")
            )
        };
        violations.push(Violation {
            file,
            line,
            rule: Rule::LockGraph,
            message,
            hint: "impose one global acquisition order (or hold at most one lock); \
                   justify a provably ordered pair with `// xtask-allow(lock-graph): <reason>`",
        });
    }
    (graph, violations)
}

/// Assert-family macros whose spans count as reconciliation sites.
const ASSERT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Counter census over the registry home files plus the reconciliation
/// files. See the module docs for the contract.
pub fn check_counter_registry(
    homes: &[&FileContext],
    reconciles: &[&FileContext],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    // (registry, field) -> record_* helpers that increment it.
    let mut helpers: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();

    for ctx in homes {
        if !is_counter_home(&ctx.rel_path) {
            continue;
        }
        let tokens = ctx.tokens();
        let tree = ctx.tree();
        for i in 0..tokens.len() {
            if !tokens[i].is_punct('.') || i + 3 >= tokens.len() || ctx.in_test(i) {
                continue;
            }
            let field = &tokens[i + 1];
            if field.kind != TokenKind::Ident
                || !tokens[i + 2].is_punct('+')
                || !tokens[i + 3].is_punct('=')
            {
                continue;
            }
            // Registries may share field names (`EdgeCounters` and
            // `CacheStats` both count `lookups`); attribute the
            // increment to the registry whose `impl` block encloses it
            // before falling back to the first name match.
            let impl_name = tree.enclosing_impl(i).map(|im| im.name.as_str());
            let by_impl = COUNTER_REGISTRIES
                .iter()
                .find(|r| Some(r.name) == impl_name && r.fields.contains(&field.ident_name()));
            let Some(registry) = by_impl.or_else(|| registry_of(field.ident_name())) else {
                continue;
            };
            let fn_name = tree.enclosing_fn(i).map(|f| f.name.as_str()).unwrap_or("");
            if impl_name == Some(registry.name) && registry.home == ctx.rel_path {
                if fn_name.starts_with("record_") {
                    helpers
                        .entry((registry.name.to_string(), field.ident_name().to_string()))
                        .or_default()
                        .insert(fn_name.to_string());
                } else if fn_name != "merge" && !ctx.allowed(Rule::Counters, field.line) {
                    violations.push(Violation {
                        file: ctx.rel_path.clone(),
                        line: field.line,
                        rule: Rule::Counters,
                        message: format!(
                            "registry `{}` increments its own `.{}` outside a `record_*` \
                             helper (in `{fn_name}`)",
                            registry.name,
                            field.ident_name()
                        ),
                        hint: "route the increment through the field's record_* helper so \
                               every increment runs the balance checks",
                    });
                }
            } else {
                // Another type in a home file touching a registry field:
                // its *own* field of the same name (receiver is plain
                // `self`, e.g. CircuitBreaker's lifetime totals) is
                // fine; reaching through a path into an embedded
                // registry is the bypass rule T exists to stop.
                let recv = receiver_chain(tokens, tree, i);
                if recv != "self" && !ctx.allowed(Rule::Counters, field.line) {
                    violations.push(Violation {
                        file: ctx.rel_path.clone(),
                        line: field.line,
                        rule: Rule::Counters,
                        message: format!(
                            "direct counter increment `{recv}.{} +=` bypasses the \
                             `{}` registry helpers",
                            field.ident_name(),
                            registry.name
                        ),
                        hint: "call the matching record_* helper on the registry instead \
                               of reaching into its fields",
                    });
                }
            }
        }
    }

    // Reconciliation sites: field idents inside assert-family spans.
    let mut reconciled: BTreeSet<String> = BTreeSet::new();
    for ctx in reconciles {
        let tokens = ctx.tokens();
        let tree = ctx.tree();
        for i in 0..tokens.len() {
            if tokens[i].kind != TokenKind::Ident
                || !ASSERT_MACROS.contains(&tokens[i].ident_name())
                || !tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
                || !tokens.get(i + 2).is_some_and(|n| n.is_punct('('))
            {
                continue;
            }
            let Some(close) = tree.match_of(i + 2) else {
                continue;
            };
            for tok in &tokens[i + 3..close] {
                if tok.kind == TokenKind::Ident && registry_of(tok.ident_name()).is_some() {
                    reconciled.insert(tok.ident_name().to_string());
                }
            }
        }
    }

    // The census: exactly one helper, at least one reconciliation site.
    let homes_present: BTreeSet<&str> = homes.iter().map(|c| c.rel_path.as_str()).collect();
    for registry in COUNTER_REGISTRIES {
        if !homes_present.contains(registry.home) {
            continue; // fixture runs lint a single home file at a time
        }
        let decl_line = |field: &str| {
            homes
                .iter()
                .find(|c| c.rel_path == registry.home)
                .and_then(|c| {
                    c.tokens()
                        .iter()
                        .find(|t| t.is_ident(field))
                        .map(|t| t.line)
                })
                .unwrap_or(1)
        };
        for field in registry.fields {
            let count = helpers
                .get(&(registry.name.to_string(), field.to_string()))
                .map(BTreeSet::len)
                .unwrap_or(0);
            if count != 1 {
                violations.push(Violation {
                    file: registry.home.to_string(),
                    line: decl_line(field),
                    rule: Rule::Counters,
                    message: format!(
                        "registry `{}` field `{field}` has {count} record_* helpers \
                         (want exactly one)",
                        registry.name
                    ),
                    hint: "give every counter field exactly one record_* helper; merge \
                           stays the one sanctioned bulk path",
                });
            }
            if !reconciled.contains(*field) && !reconciles.is_empty() {
                violations.push(Violation {
                    file: registry.home.to_string(),
                    line: decl_line(field),
                    rule: Rule::Counters,
                    message: format!(
                        "registry `{}` field `{field}` has no reconciliation assertion \
                         in {}",
                        registry.name,
                        RECONCILE_FILES.join(" / ")
                    ),
                    hint: "assert a conservation relation over the field (see \
                           tests/trace_observability.rs) so a drifting counter fails a test",
                });
            }
        }
    }
    violations
}
