#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh                      every workload, 3 interleaved repetitions plus the traced
#                                         runs; tables to stdout, JSON to benchmark/results/latest.json
#   benchmark/run.sh --smoke              the same path in under 40 s on a toy graph (stamped "smoke")
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one measurement of one workload; the last line of output is
#                                         {"correct", "attempted", "failed", "metrics"}
#   benchmark/run.sh compare A.json B.json
#                                         two result files of one seed, row by row, with verdicts
#
# Everything is read and written inside the checkout: the build goes to
# $CARGO_TARGET_DIR (default .bench_build), per-run scratch directories
# live under it, results under benchmark/results/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bench="$CARGO_TARGET_DIR/release/bench"

case "${1:-}" in
    --workload | --seed | --seconds | --trace) exec "$bench" run "$@" ;;
    compare) exec "$bench" "$@" ;;
    *) exec "$bench" all "$@" ;;
esac
