#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through, e.g.
#   bash perfbench/run.sh --workload scan_rtl --seed 1 --seconds 12 --trace 0
# Build output goes to standard error, so the last line of standard output
# is the benchmark's result object.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/gnn4ip-perfbench" "$@"
