#!/usr/bin/env bash
# Builds the planner daemon (from the repository's own workspace) and the
# benchmark, then runs the benchmark with the given arguments:
#
#   bash e2ebench/run.sh --workload <plan-cold|plan-replan|train-step|all> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the result is the last line of stdout.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p bfpp-planner --bin planner_daemon
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml

exec "$CARGO_TARGET_DIR/release/e2ebench" \
    --daemon "$CARGO_TARGET_DIR/release/planner_daemon" "$@"
