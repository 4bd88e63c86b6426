#!/usr/bin/env bash
# Builds the benchmark in release and runs it from the checkout's root.
#
#   benchmark/run.sh                       every workload, one child process each
#   benchmark/run.sh --sets 2              twice, compared with the bounds
#   benchmark/run.sh --trace 1             per-layer metrics by staged replay
#   benchmark/run.sh --smoke               quarter-size runs of both, all gates on
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#                                          one workload; last line is the result JSON
#
# The build goes to $CARGO_TARGET_DIR when set, else to benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr so that stdout ends with the result line.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2

# Store directories and span files go here and nowhere else.
export PBC_BENCH_OUT="$here/out"
export PBC_BENCH_RUSTC="$(rustc -V)"
export PBC_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/pbc-benchmark" "$@"
