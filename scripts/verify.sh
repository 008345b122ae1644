#!/usr/bin/env bash
# Offline verification: tier-1 build + tests, lint wall (rustfmt, clippy
# with the workspace clippy.toml; the source-rule and crate-graph checks
# run as tests), the benchmark package, and fixed-seed determinism smoke
# checks. No network access required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: workspace tests =="
cargo test -q --workspace

echo "== lint: rustfmt =="
cargo fmt --check

echo "== lint: clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== benchmark package: build and tests (perfbench is its own workspace) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== chaos: fixed-seed determinism smoke =="
out_a="$(cargo run --release -q -p experiments -- chaos --trials 1 --seed 7 2>/dev/null)"
out_b="$(cargo run --release -q -p experiments -- chaos --trials 1 --seed 7 2>/dev/null)"
if [ "$out_a" != "$out_b" ]; then
    echo "chaos sweep is not deterministic for a fixed seed" >&2
    exit 1
fi
echo "$out_a" | head -4

echo "== golden: traces, energy tables and seed matrix =="
cargo run --release -q -p experiments -- golden --check

echo "== supervise: fixed-seed determinism smoke =="
sup_a="$(cargo run --release -q -p experiments -- supervise --trials 1 --seed 7 2>/dev/null)"
sup_b="$(cargo run --release -q -p experiments -- supervise --trials 1 --seed 7 2>/dev/null)"
if [ "$sup_a" != "$sup_b" ]; then
    echo "supervise sweep is not deterministic for a fixed seed" >&2
    exit 1
fi
echo "$sup_a" | head -4

echo "== simserve: kill/resume smoke (1x replay, mid-run checkpoint) =="
cargo run --release -q -p experiments -- serve

echo "== simserve: hostile-input fuzz smoke (30 seeded streams) =="
cargo run --release -q -p experiments -- fuzz --streams 30

echo "== simpar: serial/parallel byte-equality smoke =="
par_1="$(cargo run --release -q -p experiments -- chaos fig18 --quick --threads 1 2>/dev/null)"
par_8="$(cargo run --release -q -p experiments -- chaos fig18 --quick --threads 8 2>/dev/null)"
if [ "$par_1" != "$par_8" ]; then
    echo "parallel fan-out diverges from serial (simpar merge bug)" >&2
    exit 1
fi

echo "verify: OK"
