#!/usr/bin/env bash
# Build campion-fleetd, tracecheck and the benchmark from source, then run
# the benchmark with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload acl_scale --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --self-test
#
# Build output goes to stderr; stdout carries only the benchmark's report,
# whose last line is the result object. CARGO_TARGET_DIR is honoured; both
# builds share it so the binaries land side by side.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/fleet ]; then
    echo "perfbench: run from a full checkout of the repository" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    -p campion-fleet --bin campion-fleetd -p campion-trace --bin tracecheck >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
