#!/usr/bin/env bash
# The benchmark's one command. Builds `edge-server` (root workspace) and
# the benchmark (its own package, this directory) in release mode into one
# target directory, then hands every argument to the benchmark binary:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of stdout is the result as one JSON object
#   benchmark/run.sh [--seed <n>] [--runs <k>] [--smoke]
#       every workload timed and traced, each in a fresh process; prints
#       every metric by name and writes benchmark/out/results.json
#   benchmark/run.sh compare <a.json> <b.json>
#
# Exits non-zero when the build fails or an output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# CARGO_TARGET_DIR, when set, is relative to the caller's directory, which
# is the root of the checkout; default to the repo's own target directory.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo's progress goes to stderr; stdout stays the benchmark's. Naming
# the root manifest keeps cargo from adopting a workspace further up.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p edge --bin edge-server >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# glibc gives each new thread an arena of its own, up to 8 per core, and
# which of them a pool thread lands on differs from run to run: peak memory
# at the end of a 20 s `fleet-grid` run read 185, 241 or 255 MiB. With one
# arena per load thread (W = min(nproc, 4), as the benchmark counts them) no
# worker waits for another's arena, and on two cores it reads 181 to 184 MiB
# every time. The `edge-server` child is started without the setting.
width="$(nproc)"
export MALLOC_ARENA_MAX="$(( width < 4 ? width : 4 ))"

exec "$target/release/benchmark" "$@"
