#!/usr/bin/env bash
# Full local CI: formatting, lints, tests, and the headline-claim
# regression gate. Mirrors what a reviewer runs before merging.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, rustdoc warnings are errors) =="
# Catches intra-doc links left stale by a rename or a deletion, and
# public docs that link to private items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== xtask lint (structural: lock graph / seeds / allocs / counters / budget) =="
LINT_JSON="$(cargo run -q -p xtask -- lint --json)"
echo "$LINT_JSON"
# The lock-order graph must certify acyclic on every merge.
echo "$LINT_JSON" | grep -q '"acyclic": true' || {
    echo "lock-order graph is NOT acyclic" >&2
    exit 1
}

echo "== cargo test (tier-1: root integration suite) =="
cargo test -q

echo "== cargo test (workspace) =="
cargo test --workspace -q

echo "== cargo test (features, optimized: float-kernel exactness) =="
# LLVM vectorizes the distance and projection kernels only in release
# builds, so their bit-exactness proptests must also run on the code that
# ships.
cargo test --release -q -p features

echo "== cargo test (ann, optimized: block-scan exactness) =="
# The head-block scan vectorizes only in release builds too; its
# proptest against the row-at-a-time scan must run on that code.
cargo test --release -q -p ann

echo "== verify_claims (headline regression gate) =="
# At the default 30 simulated seconds it rewrites the tracked
# results/*-full.json and verify_claims.json goldens with the same bytes;
# any other length would overwrite them, so the run is pinned and gated.
EXPERIMENT_SECONDS=30 cargo run --release -q -p bench --bin verify_claims
git diff --exit-code -- results/

echo "== benchmark smoke (every workload's output checks, ~17 s) =="
# Gates: builds benchmark/ against the workspace's public API and runs
# all of its output checks at 1 % size. The numbers it prints are not
# for comparison — performance is measured by benchmark/run.sh alone
# (see benchmark/README.md).
bash benchmark/run.sh --smoke
# A PR may not change the benchmark. A build that rewrote
# benchmark/Cargo.lock (some crate's dependency list drifted) or a stray
# edit under benchmark/ fails here rather than at the driver.
git diff --exit-code -- BENCHMARK.json benchmark/

echo "== R-tables (gating: the tracked results/r*.csv are goldens) =="
# Every macro experiment at the default 30 simulated seconds must write
# exactly the CSVs in git; the run is deterministic on any core count.
EXPERIMENT_SECONDS=30 cargo run --release -q -p bench --bin experiments
git diff --exit-code -- 'results/r*.csv'

echo "== edge smoke (informational: real TCP server round-trip) =="
# Never gates: spawns edge-server on an ephemeral port, drives one
# batched insert/lookup/gossip session through edge-client, and asserts
# a clean /shutdown.
EDGE_DIR="$(mktemp -d)"
trap 'rm -rf "$EDGE_DIR"' EXIT
EDGE_LOG="$EDGE_DIR/edge-server.log"
if cargo build --release -q -p edge --bins; then
    ./target/release/edge-server --allow-shutdown >"$EDGE_LOG" &
    EDGE_PID=$!
    EDGE_ADDR=""
    for _ in $(seq 1 50); do
        EDGE_ADDR="$(sed -n 's/^listening on //p' "$EDGE_LOG")"
        [ -n "$EDGE_ADDR" ] && break
        sleep 0.1
    done
    if [ -n "$EDGE_ADDR" ]; then
        ./target/release/edge-client --addr "$EDGE_ADDR" smoke \
            || echo "warning: edge smoke round-trip failed (informational)" >&2
        ./target/release/edge-client --addr "$EDGE_ADDR" shutdown || true
        wait "$EDGE_PID" || true
        grep -q 'shut down cleanly' "$EDGE_LOG" \
            || echo "warning: edge-server did not shut down cleanly (informational)" >&2
    else
        kill "$EDGE_PID" 2>/dev/null || true
        echo "warning: edge-server never reported its address (informational)" >&2
    fi
else
    echo "warning: edge bins failed to build (informational)" >&2
fi

echo "== miri (informational: concurrent store under the interpreter) =="
# Never gates: nightly + Miri are optional on CI boxes. When present,
# interprets the concurrent-store suite to catch UB the type system can't.
if command -v rustup >/dev/null 2>&1 \
    && rustup toolchain list 2>/dev/null | grep -q nightly \
    && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'miri.*(installed)'; then
    cargo +nightly miri test -p reuse --test concurrent_store || true
else
    echo "nightly/miri not installed; skipping"
fi

echo "CI OK"
