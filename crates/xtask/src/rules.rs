//! The lint rules: determinism (D), unit-safety (U), trace-counter
//! discipline (T), panic hygiene (P), lock discipline (L), seed-split
//! discipline (S), and hot-path allocations (A). The cross-file rules —
//! the lock-order graph (G) and the counter census behind the upgraded
//! rule T — live in [`crate::model`].
//!
//! Per-file rules run on the token stream from [`crate::lexer`], with
//! the structural rules consulting the token tree ([`crate::tree`]) for
//! fn/impl boundaries and receiver chains. All rules skip
//! `#[cfg(test)]` / `#[test]` regions and honour
//! `// xtask-allow(<rule>): <reason>` escape hatches. The heuristics are
//! deliberately simple; where a rule cannot be sure, it prefers a
//! justified allow-comment over silence, because every allow carries its
//! reason in the diff.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Lexed, Token, TokenKind};
use crate::tree::{lock_call, receiver_chain, Tree};

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D: no wall-clock, ambient randomness, or hash-order dependence in
    /// simulation crates.
    Determinism,
    /// U: no raw arithmetic on unit-suffixed identifiers; the unit lives
    /// in the type, not the name.
    Units,
    /// T: counter fields are incremented through registry helpers only.
    Counters,
    /// P: panic sites on hot paths are budgeted and only shrink.
    Panics,
    /// L: fast-path lexical pre-check — the concurrent store never
    /// takes a second lock in one statement or under a live guard.
    Locks,
    /// G: the cross-file lock-order graph over the concurrent core is
    /// acyclic (subsumes L's heuristic; L stays as the cheap pre-check).
    LockGraph,
    /// S: sibling `split(..)` / `split_index(..)` labels are unique per
    /// parent scope — a duplicate silently correlates two RNG streams.
    SeedSplit,
    /// A: no allocation in the designated hot-path fns.
    Alloc,
}

impl Rule {
    /// The id used in reports and `xtask-allow(...)` markers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::Units => "units",
            Rule::Counters => "counters",
            Rule::Panics => "panics",
            Rule::Locks => "locks",
            Rule::LockGraph => "lock-graph",
            Rule::SeedSplit => "seed-split",
            Rule::Alloc => "alloc",
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Repo-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    fix: {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message,
            self.hint
        )
    }
}

/// Simulation crates where rule D applies: anything whose output feeds a
/// seeded, replayable run.
const SIM_CRATES: &[&str] = &[
    "simcore",
    "approxcache",
    "reuse",
    "dnnsim",
    "scene",
    "workloads",
    "edge",
];

/// The edge crate's service runtime: the threaded HTTP server and its
/// blocking client drive real sockets with read/write deadlines, so
/// wall-clock reads are their job and rule D stays out entirely. The
/// protocol, codec, and cache half of the crate feeds seeded sim runs
/// and is held to the full rule.
const SERVICE_RUNTIME_FILES: &[&str] = &["crates/edge/src/server.rs", "crates/edge/src/client.rs"];

/// Harness crates where only rule D's wall-clock check applies: their
/// results must not depend on host timing, but they orchestrate rather
/// than simulate, so the RNG and hash-order checks stay out.
const WALL_CLOCK_CRATES: &[&str] = &["bench"];

/// Split labels reserved for one home file. The fleet engine's lane
/// streams own `"shard"`: a `split("shard")` anywhere else would read
/// as (and could silently correlate with) a per-shard stream, so rule S
/// rejects it outright, and inside the home file the label is keyed
/// file-globally — two `"shard"` sites in different fns still collide.
const RESERVED_SPLIT_LABELS: &[(&str, &str)] = &[("\"shard\"", "crates/approxcache/src/fleet.rs")];

/// Hot-path crates where rule P applies.
const PANIC_CRATES: &[&str] = &["reuse", "approxcache", "p2pnet"];

/// Directory where rules L and G apply: the concurrent store. Its one
/// lock is not reentrant, so a thread that takes it again while holding
/// it deadlocks; every acquisition must be the only live one.
pub const LOCK_SCOPE_PREFIX: &str = "crates/reuse/src/concurrent/";

/// Files that *define* unit newtypes: raw-number arithmetic on unit
/// names is their job.
const UNIT_HOME_FILES: &[&str] = &["crates/simcore/src/units.rs", "crates/simcore/src/time.rs"];

/// One counter registry: the struct that owns the fields, the file it
/// lives in, and the fields whose increments must go through `record_*`
/// helpers. The per-file half of rule T uses the field names; the
/// cross-file census in [`crate::model`] additionally checks that each
/// field has exactly one helper and a reconciliation assertion site.
#[derive(Debug, Clone, Copy)]
pub struct CounterRegistry {
    /// Struct name (`impl` blocks are matched by this name).
    pub name: &'static str,
    /// Repo-relative path of the registry's home file.
    pub home: &'static str,
    /// The counter fields.
    pub fields: &'static [&'static str],
}

/// The four counter registries of the workspace. `EdgeCounters` shares
/// the field names `lookups`/`hits`/`inserts` with `CacheStats`; the
/// census attributes an increment to the registry whose `impl` block
/// encloses it, so the collision is harmless.
pub const COUNTER_REGISTRIES: &[CounterRegistry] = &[
    CounterRegistry {
        name: "CacheStats",
        home: "crates/reuse/src/stats.rs",
        fields: &[
            "lookups",
            "hits",
            "miss_empty",
            "miss_too_far",
            "miss_not_homogeneous",
            "miss_insufficient_support",
            "inserts",
            "refreshes",
            "rejected",
            "evictions",
            "removals",
            "expirations",
        ],
    },
    CounterRegistry {
        name: "TransportCounters",
        home: "crates/p2pnet/src/transport.rs",
        fields: &[
            "messages_sent",
            "messages_delivered",
            "messages_lost",
            "bytes_sent",
        ],
    },
    CounterRegistry {
        name: "ResilienceCounters",
        home: "crates/p2pnet/src/faults.rs",
        fields: &[
            "outage_frames",
            "crashes",
            "poisoned_ads",
            "ad_retries",
            "ad_abandoned",
            "quarantines",
            "reprobes",
            "breaker_skips",
            "peer_fallbacks",
        ],
    },
    CounterRegistry {
        name: "EdgeCounters",
        home: "crates/edge/src/cache.rs",
        fields: &[
            "batches",
            "lookups",
            "hits",
            "inserts",
            "gossip_entries",
            "overloads",
            "queries_sent",
            "query_timeouts",
            "hits_adopted",
        ],
    },
];

/// True when `path` is a counter registry's home file.
pub(crate) fn is_counter_home(path: &str) -> bool {
    COUNTER_REGISTRIES.iter().any(|r| r.home == path)
}

/// The registry owning `field`, if any.
pub(crate) fn registry_of(field: &str) -> Option<&'static CounterRegistry> {
    COUNTER_REGISTRIES
        .iter()
        .find(|r| r.fields.contains(&field))
}

/// Everything the rules know about one file.
#[derive(Debug)]
pub struct FileContext {
    /// Repo-relative path with `/` separators.
    pub rel_path: String,
    lexed: Lexed,
    /// The token tree (delimiter matches, fn/impl boundaries).
    tree: Tree,
    /// Token-index ranges that are test code.
    test_ranges: Vec<(usize, usize)>,
    /// `(rule, first_line, last_line)` spans suppressed by allows.
    allows: Vec<(String, usize, usize)>,
}

impl FileContext {
    /// Lexes `source` and precomputes the token tree, test regions and
    /// allow spans.
    pub fn new(rel_path: &str, source: &str) -> FileContext {
        let lexed = lex(source);
        let tree = Tree::new(&lexed.tokens);
        let test_ranges = find_test_ranges(&lexed.tokens);
        let allows = find_allows(&lexed, source);
        FileContext {
            rel_path: rel_path.replace('\\', "/"),
            lexed,
            tree,
            test_ranges,
            allows,
        }
    }

    /// The crate name (`crates/<name>/…`), or "" outside `crates/`.
    fn crate_name(&self) -> &str {
        let mut parts = self.rel_path.split('/');
        match (parts.next(), parts.next()) {
            (Some("crates"), Some(name)) => name,
            _ => "",
        }
    }

    pub(crate) fn in_test(&self, token_idx: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| token_idx >= lo && token_idx <= hi)
    }

    pub(crate) fn allowed(&self, rule: Rule, line: usize) -> bool {
        self.allows
            .iter()
            .any(|(r, lo, hi)| r == rule.id() && line >= *lo && line <= *hi)
    }

    pub(crate) fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    pub(crate) fn tree(&self) -> &Tree {
        &self.tree
    }
}

/// Finds `#[cfg(test)]` / `#[test]` regions as token-index ranges
/// covering the gated item (attribute through matching close brace, or
/// the terminating semicolon for brace-less items).
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            // Collect idents inside the attribute.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut idents: Vec<&str> = Vec::new();
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct('[') {
                    depth += 1;
                } else if tokens[j].is_punct(']') {
                    depth -= 1;
                } else if tokens[j].kind == TokenKind::Ident {
                    idents.push(&tokens[j].text);
                }
                j += 1;
            }
            let gates_test =
                idents.iter().any(|s| *s == "test" || *s == "bench") && !idents.contains(&"not");
            if gates_test {
                // Skip to the item body: first `{` begins brace matching;
                // a `;` first means a brace-less item.
                let start = i;
                let mut k = j;
                let mut end = None;
                while k < tokens.len() {
                    if tokens[k].is_punct(';') {
                        end = Some(k);
                        break;
                    }
                    if tokens[k].is_punct('{') {
                        let mut brace = 1usize;
                        let mut m = k + 1;
                        while m < tokens.len() && brace > 0 {
                            if tokens[m].is_punct('{') {
                                brace += 1;
                            } else if tokens[m].is_punct('}') {
                                brace -= 1;
                            }
                            m += 1;
                        }
                        end = Some(m.saturating_sub(1));
                        break;
                    }
                    k += 1;
                }
                let end = end.unwrap_or(tokens.len().saturating_sub(1));
                ranges.push((start, end));
                i = end + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Extracts `// xtask-allow(<rule>): <reason>` markers. The allow spans
/// its own line through the end of the statement that follows: the first
/// subsequent non-comment line whose trimmed text ends with `;`, `{` or
/// `}` (multi-line builder chains stay covered).
fn find_allows(lexed: &Lexed, source: &str) -> Vec<(String, usize, usize)> {
    let lines: Vec<&str> = source.lines().collect();
    let mut allows = Vec::new();
    for comment in &lexed.comments {
        let Some(pos) = comment.text.find("xtask-allow(") else {
            continue;
        };
        let rest = &comment.text[pos + "xtask-allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let mut last = comment.line;
        for (offset, text) in lines.iter().enumerate().skip(comment.line) {
            let trimmed = text.trim();
            last = offset + 1;
            if trimmed.starts_with("//") || trimmed.is_empty() {
                continue;
            }
            if trimmed.ends_with(';') || trimmed.ends_with('{') || trimmed.ends_with('}') {
                break;
            }
        }
        allows.push((rule, comment.line, last));
    }
    allows
}

/// Runs the per-file rules (D, U, T's lexical half, L, S, A) on one
/// file, appending to `out`. The cross-file rules (G, T's census) run
/// in [`crate::model`] over the whole workspace.
pub fn check_file(ctx: &FileContext, out: &mut Vec<Violation>) {
    if ctx.crate_name() == "xtask" {
        return;
    }
    check_determinism(ctx, out);
    check_units(ctx, out);
    check_counters(ctx, out);
    check_locks(ctx, out);
    check_seed_splits(ctx, out);
    check_alloc(ctx, out);
}

fn push(
    ctx: &FileContext,
    out: &mut Vec<Violation>,
    rule: Rule,
    line: usize,
    message: String,
    hint: &'static str,
) {
    out.push(Violation {
        file: ctx.rel_path.clone(),
        line,
        rule,
        message,
        hint,
    });
}

/// Rule D. Flags wall-clock types, ambient RNG construction, and
/// iteration over identifiers declared as `HashMap`/`HashSet`. The full
/// rule applies to simulation crates (minus the
/// [`SERVICE_RUNTIME_FILES`] that run real sockets); harness crates get
/// the wall-clock half only.
fn check_determinism(ctx: &FileContext, out: &mut Vec<Violation>) {
    let sim = SIM_CRATES.contains(&ctx.crate_name())
        && !SERVICE_RUNTIME_FILES.contains(&ctx.rel_path.as_str());
    let wall_clock = sim || WALL_CLOCK_CRATES.contains(&ctx.crate_name());
    if !sim && !wall_clock {
        return;
    }
    let tokens = ctx.tokens();

    // Names declared with a HashMap/HashSet type ascription anywhere in
    // the file (fields and lets): `name : … HashMap`.
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over `path::` segments to the ascription colon, then
        // record the ascribed name: `name: [std::collections::]HashMap`.
        let mut j = i;
        while j >= 3
            && tokens[j - 1].is_punct(':')
            && tokens[j - 2].is_punct(':')
            && tokens[j - 3].kind == TokenKind::Ident
        {
            j -= 3;
        }
        if j >= 2
            && tokens[j - 1].is_punct(':')
            && !tokens[j - 2].is_punct(':')
            && tokens[j - 2].kind == TokenKind::Ident
        {
            hash_names.insert(&tokens[j - 2].text);
        }
    }

    const ORDERED_ITERS: &[&str] = &[
        "iter",
        "iter_mut",
        "values",
        "values_mut",
        "keys",
        "drain",
        "into_iter",
        "into_values",
        "into_keys",
    ];

    for (i, t) in tokens.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        let line = t.line;
        if wall_clock
            && (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && !ctx.allowed(Rule::Determinism, line)
        {
            push(
                ctx,
                out,
                Rule::Determinism,
                line,
                format!("wall-clock `{}` in a simulation or harness crate", t.text),
                "use the simulated clock (simcore::SimTime); real timing belongs in \
                 benchmark/, outside the workspace",
            );
        }
        if !sim {
            continue;
        }
        if (t.is_ident("thread_rng") || t.is_ident("from_entropy"))
            && !ctx.allowed(Rule::Determinism, line)
        {
            push(
                ctx,
                out,
                Rule::Determinism,
                line,
                format!("ambient randomness `{}` in a simulation crate", t.text),
                "derive randomness from the run seed: SimRng::seed(..) or rng.split(..)",
            );
        }
        // `SomethingRng::default()` — an unseeded generator.
        if t.kind == TokenKind::Ident
            && t.text.ends_with("Rng")
            && i + 3 < tokens.len()
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
            && tokens[i + 3].is_ident("default")
            && !ctx.allowed(Rule::Determinism, line)
        {
            push(
                ctx,
                out,
                Rule::Determinism,
                line,
                format!("argless `{}::default()` hides the seed", t.text),
                "construct RNGs from an explicit seed derived from the run seed",
            );
        }
        // `hash_name.iter()` and friends.
        if t.kind == TokenKind::Ident
            && hash_names.contains(t.text.as_str())
            && i + 3 < tokens.len()
            && tokens[i + 1].is_punct('.')
            && tokens[i + 2].kind == TokenKind::Ident
            && ORDERED_ITERS.contains(&tokens[i + 2].text.as_str())
            && tokens[i + 3].is_punct('(')
            && !ctx.allowed(Rule::Determinism, tokens[i + 2].line)
            && !ctx.allowed(Rule::Determinism, line)
        {
            push(
                ctx,
                out,
                Rule::Determinism,
                tokens[i + 2].line,
                format!(
                    "iteration over hash-ordered `{}.{}()` can leak HashMap order into results",
                    t.text,
                    tokens[i + 2].text
                ),
                "aggregate order-free, sort before use, switch to BTreeMap, or justify with \
                 `// xtask-allow(determinism): <reason>`",
            );
        }
    }
}

/// True when `name` encodes a physical unit this workspace newtypes.
///
/// Deliberately suffix-only: a unit suffix marks a *raw* magnitude (the
/// naming convention for bare `f64`s), which is the trap. Bare
/// `latency`/`energy` identifiers are the refactored state — values of
/// `SimDuration`/`Millis`/`Millijoules` whose operator arithmetic is
/// type-checked — and a lexical rule cannot tell those apart from raw
/// floats, so matching them would flag exactly the code the newtypes
/// fixed.
fn is_unit_name(name: &str) -> bool {
    name.ends_with("_ms") || name.ends_with("_us") || name.ends_with("_mj")
}

/// Rule U. Flags `+ - * /` adjacent to unit-suffixed identifiers outside
/// the newtype home modules and the experiment modules (whose `_ms`
/// names are report columns): raw numbers named `_ms`/`_us`/`_mj` are
/// the trap the `Millis`/`Micros`/`Millijoules` newtypes exist to remove.
fn check_units(ctx: &FileContext, out: &mut Vec<Violation>) {
    if UNIT_HOME_FILES.contains(&ctx.rel_path.as_str())
        || ctx.rel_path.starts_with("crates/bench/src/experiments/")
    {
        return;
    }
    let tokens = ctx.tokens();
    let ops = ['+', '-', '*', '/'];
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !is_unit_name(&t.text) || ctx.in_test(i) {
            continue;
        }
        let prev_op = i > 0
            && ops
                .iter()
                .any(|&c| tokens[i - 1].is_punct(c))
            // `*const`/`*mut`-style derefs and `->` arrows are not math.
            && !(tokens[i - 1].is_punct('-')
                && i > 1
                && (tokens[i - 2].is_punct(',')
                    || tokens[i - 2].is_punct('(')
                    || tokens[i - 2].is_punct('=')));
        let next_op = i + 1 < tokens.len()
            && ops.iter().any(|&c| tokens[i + 1].is_punct(c))
            // `a_ms / 2` is math; `a_ms ->` or `a_ms *=`-less contexts
            // like `..` are filtered by the single-char match already.
            && !(tokens[i + 1].is_punct('-')
                && i + 2 < tokens.len()
                && tokens[i + 2].is_punct('>'));
        if (prev_op || next_op) && !ctx.allowed(Rule::Units, t.line) {
            push(
                ctx,
                out,
                Rule::Units,
                t.line,
                format!("raw arithmetic on unit-suffixed `{}`", t.text),
                "wrap the value in simcore::units (Millis/Micros/Millijoules) — the unit \
                 belongs in the type, not the name",
            );
        }
    }
}

/// Rule T (lexical half). Flags `.field += …` for counter-registry
/// fields outside the registry home files: stats must flow through
/// `record_*` helpers so balance invariants run at every increment. The
/// home files get the sharper impl-scoped census in [`crate::model`].
fn check_counters(ctx: &FileContext, out: &mut Vec<Violation>) {
    if is_counter_home(&ctx.rel_path) {
        return;
    }
    let tokens = ctx.tokens();
    for i in 0..tokens.len() {
        if !tokens[i].is_punct('.') || i + 3 >= tokens.len() || ctx.in_test(i) {
            continue;
        }
        let field = &tokens[i + 1];
        if field.kind != TokenKind::Ident || registry_of(field.ident_name()).is_none() {
            continue;
        }
        if tokens[i + 2].is_punct('+') && tokens[i + 3].is_punct('=') {
            if ctx.allowed(Rule::Counters, field.line) {
                continue;
            }
            push(
                ctx,
                out,
                Rule::Counters,
                field.line,
                format!(
                    "direct counter increment `.{} +=` bypasses the registry",
                    field.text
                ),
                "call the matching CacheStats::record_* / TransportCounters::record_* helper",
            );
        }
    }
}

/// Rule L. Flags a lock acquisition (`.lock(`, `.try_lock(`, `.read(`,
/// `.write(`, `.try_read(`, `.try_write(`) while another guard binding is
/// live in an enclosing (or the same) scope, and a second acquisition
/// within one statement. No lock in the concurrent store is reentrant,
/// so a second acquisition under a live guard deadlocks the thread on
/// itself; this rule keeps every acquisition the only live one through
/// refactors.
///
/// A guard is considered live from the end of a statement of the exact
/// shape `let … = <expr>.lock();` until its enclosing block closes, and
/// through the block of an `if let … = <expr>.try_write() {`.
/// Statement-scoped temporaries (`…lock().len();`, chained in a larger
/// expression) are not registered — they die at the `;` — but still
/// count toward the one-lock-per-statement limit.
fn check_locks(ctx: &FileContext, out: &mut Vec<Violation>) {
    if !ctx.rel_path.starts_with(LOCK_SCOPE_PREFIX) {
        return;
    }
    let tokens = ctx.tokens();
    let mut depth = 0usize;
    // Registration depths of live guard bindings.
    let mut guards: Vec<usize> = Vec::new();
    // Lock calls seen in the current statement so far.
    let mut locks_this_stmt = 0usize;
    // The current statement is a guard binding; register at its `;`, or
    // inside the block that its `{` opens.
    let mut register_at_semi = false;
    let mut register_at_brace = false;
    let mut has_let = false;

    // Depth bookkeeping must see every brace (including test code), so
    // only the violation reports are gated on `in_test`.
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
            if register_at_brace {
                guards.push(depth);
            }
            (locks_this_stmt, has_let) = (0, false);
            (register_at_semi, register_at_brace) = (false, false);
            continue;
        }
        if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|&d| depth >= d);
            (locks_this_stmt, has_let) = (0, false);
            (register_at_semi, register_at_brace) = (false, false);
            continue;
        }
        if t.is_punct(';') {
            if register_at_semi {
                guards.push(depth);
            }
            (locks_this_stmt, has_let) = (0, false);
            (register_at_semi, register_at_brace) = (false, false);
            continue;
        }
        if t.is_ident("let") {
            has_let = true;
            continue;
        }
        let Some(method) = lock_call(tokens, i) else {
            continue;
        };
        let line = tokens[i + 1].line;
        if (!guards.is_empty() || locks_this_stmt > 0)
            && !ctx.in_test(i)
            && !ctx.allowed(Rule::Locks, line)
        {
            push(
                ctx,
                out,
                Rule::Locks,
                line,
                format!(
                    "`.{method}()` while another guard is live — holding two locks, or one \
                     twice, risks deadlock"
                ),
                "release the first guard before locking again (store methods take exactly \
                 one lock), or justify with `// xtask-allow(locks): <reason>`",
            );
        }
        locks_this_stmt += 1;
        // Guard-binding shape: the lock call's matching `)` is followed
        // directly by `;` (a `let`) or by `{` (an `if let`/`while let`).
        if has_let {
            let mut j = i + 3;
            let mut paren = 1usize;
            while j < tokens.len() && paren > 0 {
                if tokens[j].is_punct('(') {
                    paren += 1;
                } else if tokens[j].is_punct(')') {
                    paren -= 1;
                }
                j += 1;
            }
            match tokens.get(j) {
                Some(next) if next.is_punct(';') => register_at_semi = true,
                Some(next) if next.is_punct('{') => register_at_brace = true,
                _ => {}
            }
        }
    }
}

/// Rule S. The seed-split registry: every `split("…")` /
/// `split_index("…", i)` site is keyed by (enclosing fn, receiver
/// chain, method, label — plus the index argument for `split_index`);
/// two sites sharing a key derive the *same* child stream from the same
/// parent, silently correlating the RNG draws downstream. Non-literal
/// labels cannot be checked lexically and are skipped. Constructor
/// chains with a single literal argument (`SimRng::seed(7).split(..)`)
/// keep the literal in the parent key, so differently seeded banks with
/// the same label are not false positives. Labels in
/// [`RESERVED_SPLIT_LABELS`] are rejected outside their home file and
/// keyed file-globally inside it.
fn check_seed_splits(ctx: &FileContext, out: &mut Vec<Violation>) {
    let tokens = ctx.tokens();
    let tree = ctx.tree();
    // key -> (first line, sites so far)
    let mut sites: BTreeMap<(String, String, String, String), (usize, usize)> = BTreeMap::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_punct('.') || i + 3 >= tokens.len() || ctx.in_test(i) {
            continue;
        }
        let method = &tokens[i + 1];
        if !(method.is_ident("split") || method.is_ident("split_index"))
            || !tokens[i + 2].is_punct('(')
        {
            continue;
        }
        let label_tok = &tokens[i + 3];
        if label_tok.kind != TokenKind::Literal || !label_tok.text.starts_with('"') {
            continue;
        }
        // Reserved labels: outside the home file the split is rejected
        // outright; inside it the site is keyed file-globally (scope and
        // receiver dropped), so two sites in different fns still collide.
        let reserved = RESERVED_SPLIT_LABELS
            .iter()
            .find(|&&(label, _)| label == label_tok.text);
        if let Some(&(label, home)) = reserved {
            if ctx.rel_path != home {
                if !ctx.allowed(Rule::SeedSplit, method.line) {
                    push(
                        ctx,
                        out,
                        Rule::SeedSplit,
                        method.line,
                        format!(
                            "split label {label} is reserved for {home} — a stream split \
                             here would masquerade as a per-shard lane stream"
                        ),
                        "pick a label that names this stream's own purpose; \"shard\" \
                         belongs to the fleet engine's lane RNGs",
                    );
                }
                continue;
            }
        }
        let mut label = label_tok.text.clone();
        if method.is_ident("split_index") {
            // The index argument disambiguates: `("device", 0)` and
            // `("device", 1)` are distinct child streams.
            if let (Some(comma), Some(arg)) = (tokens.get(i + 4), tokens.get(i + 5)) {
                if comma.is_punct(',') {
                    label.push(',');
                    label.push_str(&arg.text);
                }
            }
        }
        let scope = if reserved.is_some() {
            "<file>".to_string()
        } else {
            tree.enclosing_fn(i)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| "<file>".to_string())
        };
        let mut recv = if reserved.is_some() {
            "<reserved>".to_string()
        } else {
            receiver_chain(tokens, tree, i)
        };
        // Constructor-chain parents: `receiver_chain` collapses call
        // groups, so `SimRng::seed(1).split("x")` and
        // `SimRng::seed(2).split("x")` would both key as
        // `SimRng::seed(_)` — distinct parent streams, not duplicates
        // (the index crates seed per-structure banks exactly this way).
        // When the call feeding the split takes a single literal
        // argument, keep the literal in the key; non-literal arguments
        // still collapse, so duplicated `seed(config.seed)` chains with
        // the same label are flagged as before.
        if reserved.is_none() && i > 0 && tokens[i - 1].is_punct(')') {
            if let Some(open) = tree.match_of(i - 1) {
                if open + 2 == i - 1 && tokens[open + 1].kind == TokenKind::Literal {
                    recv.push('#');
                    recv.push_str(&tokens[open + 1].text);
                }
            }
        }
        let line = method.line;
        let key = (scope, recv, method.ident_name().to_string(), label);
        match sites.get_mut(&key) {
            None => {
                sites.insert(key, (line, 1));
            }
            Some((first, n)) => {
                *n += 1;
                if ctx.allowed(Rule::SeedSplit, line) {
                    continue;
                }
                let (scope, recv, method, label) = &key;
                push(
                    ctx,
                    out,
                    Rule::SeedSplit,
                    line,
                    format!(
                        "duplicate sibling seed split `{recv}.{method}({label})` in `{scope}` \
                         — first at line {first}; identical labels derive identical child \
                         streams"
                    ),
                    "give every sibling split a unique label (or index); a duplicate \
                     silently correlates two RNG streams",
                );
            }
        }
    }
}

/// Fns that are hot-path everywhere: the per-frame A-kNN kernels plus
/// the per-lookup scan internals they fan out to (the flat-buffer block
/// scan and its head-block kernels). `nearest_within_into` is the search
/// every cache lookup calls; `nearest_into` is its unbounded wrapper.
/// `block_scan_into` only dispatches: the scan itself is `block_scan`,
/// run as the portable copy or through its AVX2 wrapper
/// `block_scan_avx2`. It tests each block with
/// `squared_euclidean_head_block_f32` against `head_skip_threshold`'s
/// bound, on the query head `pad_head` lays out, before scoring it with
/// `squared_euclidean_head_block`. All of these run on every cache lookup; the
/// caller-held output buffers exist precisely so they stay
/// allocation-free. `predict` is the stochastic classifier every
/// inference runs; its error draw reads the class universe's shared
/// rank weights instead of building them. `step_motion` and `step_imu`
/// advance a device's motion and IMU cursors one sample, and
/// `fill_imu_window` refills the stream's reused window buffer: the
/// simulation loops run them for every device on every frame.
/// `selflint` checks every name here is still a `fn` somewhere in the
/// linted tree.
pub const HOT_FNS_ANYWHERE: &[&str] = &[
    "nearest_within_into",
    "nearest_into",
    "decide_in",
    "block_scan_into",
    "block_scan",
    "block_scan_avx2",
    "squared_euclidean_head_block",
    "squared_euclidean_head_block_f32",
    "head_skip_threshold",
    "pad_head",
    "predict",
    "step_motion",
    "step_imu",
    "fill_imu_window",
];

/// Fns that are hot-path within the concurrent core and the store it
/// locks: the per-frame store operations and the two halves of a lookup,
/// the probe under the read lock and the commit under the write lock.
pub const HOT_FNS_CONCURRENT: &[&str] = &["lookup", "insert", "probe", "commit"];

/// Files where [`HOT_FNS_CONCURRENT`] are hot: the concurrent core and
/// the store whose operations it runs under its locks.
const HOT_SCOPE: &[&str] = &[LOCK_SCOPE_PREFIX, "crates/reuse/src/store.rs"];

/// Allocation patterns rule A flags inside hot fns.
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "collect"];

/// Rule A. Flags allocations (`Vec::new`, `Box::new`, `format!`,
/// `vec!`, `.clone()`, `.to_vec()`, `.collect()`) inside the designated
/// hot-path fn bodies. These fns run per frame — `nearest_within_into`
/// / `decide_in` on every lookup, the store's `lookup` / `insert` and a
/// lookup's `probe` / `commit` halves under the store lock — and the
/// flat-buffer kernels exist precisely so they stay allocation-free.
fn check_alloc(ctx: &FileContext, out: &mut Vec<Violation>) {
    let tokens = ctx.tokens();
    let concurrent = HOT_SCOPE
        .iter()
        .any(|scope| ctx.rel_path.starts_with(scope));
    for f in ctx.tree().fns() {
        let hot = HOT_FNS_ANYWHERE.contains(&f.name.as_str())
            || (concurrent && HOT_FNS_CONCURRENT.contains(&f.name.as_str()));
        let Some((lo, hi)) = f.body.filter(|_| hot) else {
            continue;
        };
        for i in lo..=hi.min(tokens.len().saturating_sub(1)) {
            if ctx.in_test(i) {
                continue;
            }
            let t = &tokens[i];
            let what = if (t.is_ident("Vec") || t.is_ident("Box"))
                && i + 3 < tokens.len()
                && tokens[i + 1].is_punct(':')
                && tokens[i + 2].is_punct(':')
                && tokens[i + 3].is_ident("new")
            {
                Some(format!("{}::new", t.ident_name()))
            } else if (t.is_ident("format") || t.is_ident("vec"))
                && i + 1 < tokens.len()
                && tokens[i + 1].is_punct('!')
            {
                Some(format!("{}!", t.ident_name()))
            } else if t.is_punct('.')
                && i + 2 < tokens.len()
                && tokens[i + 1].kind == TokenKind::Ident
                && ALLOC_METHODS.contains(&tokens[i + 1].ident_name())
                && tokens[i + 2].is_punct('(')
            {
                Some(format!(".{}()", tokens[i + 1].ident_name()))
            } else {
                None
            };
            let Some(what) = what else { continue };
            let line = t.line;
            if ctx.allowed(Rule::Alloc, line) {
                continue;
            }
            push(
                ctx,
                out,
                Rule::Alloc,
                line,
                format!("allocation `{what}` in hot-path fn `{}`", f.name),
                "reuse a caller-provided or member scratch buffer (clear + extend); \
                 justify unavoidable cases with `// xtask-allow(alloc): <reason>`",
            );
        }
    }
}

/// Rule P's site census for one file: `.unwrap()`, `.expect(`, and index
/// expressions in non-test code. Returns the count (the caller compares
/// it against the checked-in budget).
pub fn count_panic_sites(ctx: &FileContext) -> usize {
    if !PANIC_CRATES.contains(&ctx.crate_name()) {
        return 0;
    }
    let tokens = ctx.tokens();
    let mut count = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        // `.unwrap(` / `.expect(`.
        if t.is_punct('.')
            && i + 2 < tokens.len()
            && (tokens[i + 1].is_ident("unwrap") || tokens[i + 1].is_ident("expect"))
            && tokens[i + 2].is_punct('(')
            && !ctx.allowed(Rule::Panics, tokens[i + 1].line)
        {
            count += 1;
        }
        // Index expressions: `[` directly after an ident, `)` or `]`.
        // Attributes (`#[…]`, `#![…]`) and macros (`vec![…]`) put a
        // punct before the bracket; `let [a, b] = …` destructuring and
        // array literals after keywords are not index expressions.
        const KEYWORDS: &[&str] = &[
            "let", "mut", "ref", "return", "in", "match", "if", "else", "as", "box", "move",
            "break", "continue", "while", "for", "loop", "where", "yield",
        ];
        if t.is_punct('[') && i > 0 && !ctx.allowed(Rule::Panics, t.line) {
            let prev = &tokens[i - 1];
            let indexes = (prev.kind == TokenKind::Ident
                && !KEYWORDS.contains(&prev.text.as_str()))
                || prev.is_punct(')')
                || prev.is_punct(']');
            if indexes {
                count += 1;
            }
        }
    }
    count
}

/// True when rule P applies to this file at all.
pub fn in_panic_scope(ctx: &FileContext) -> bool {
    PANIC_CRATES.contains(&ctx.crate_name())
}
