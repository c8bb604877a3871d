#!/usr/bin/env bash
# Build the benchmark and the an5d-serve binary it drives, then run it.
#
#   bash perfbench/run.sh --workload serve_mixed|compile_cold|execute_grid \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr; the last
# line on stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p an5d-service --bin an5d-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --serve-bin "$CARGO_TARGET_DIR/release/an5d-serve" "$@"
