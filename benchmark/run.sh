#!/usr/bin/env bash
# The repo's benchmark in one command: build, run, validate, print.
#
#   benchmark/run.sh                      every workload, end to end
#   benchmark/run.sh --trace              ... and the per-layer traced runs
#   benchmark/run.sh --workload clk-e50k  one workload (add --trace 1 for its layers)
#   benchmark/run.sh --smoke              2 repetitions, n / 10: a quick check (< 20 s)
#   benchmark/run.sh --selfcheck          two full sets compared against the bounds
#
# Also: --seed N (default 4242), --seconds S (measuring window, default 20).
# Exits non-zero when an operation failed or an output was wrong. Results
# and traces land in benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Cargo's messages go to stderr; stdout carries only the benchmark's.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark" "$@"
