#!/usr/bin/env bash
# Offline verification: tier-1 build + tests, lint wall (rustfmt, clippy
# with the workspace clippy.toml, rustdoc; the source-rule and crate-graph
# checks run as tests), the benchmark package, every example, and
# fixed-seed determinism smoke checks. No network access required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: workspace tests =="
cargo test -q --workspace

echo "== properties under release codegen (rounding, event queue) =="
# The per-event leaves are inlined and rounded without libm for the
# optimised build, and a float divergence can show only there.
cargo test --release -q --test properties

echo "== PowerScope pipeline against its string-keyed model under release codegen =="
# The collector's templates and the correlate accumulators must give
# bit-equal samples and profiles; float sums can differ only there.
cargo test --release -q -p powerscope --lib reference::

echo "== snapshot pins and bit-flip sweep under release codegen =="
# The envelope checksum folds whole words for the optimised build; the
# payload pins and every single- and paired-bit flip run there too.
cargo test --release -q --test bounded_state

echo "== lint: rustfmt =="
cargo fmt --check

echo "== lint: clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint: rustdoc -D warnings (no broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== benchmark package: build and tests (perfbench is its own workspace) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== examples: each builds and runs to a zero exit =="
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    if ! cargo run --release --offline -q --example "$name" >/dev/null; then
        echo "example $name failed" >&2
        exit 1
    fi
done

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

echo "== simserve: kill/resume smoke at 100x (dense sample splits) =="
# A hundred samples per input record: many advances follow no event and
# reuse the machine's interval, and the resume freezes and thaws.
cargo run --release -q -p experiments -- serve --multiple 100

echo "== perfbench: figures, batched ingest and failover against their references =="
# Each run exits 0 only with `correct: true`: `figures` must reproduce
# all 20 `results/*.txt` at every hardware thread, and 64-sample batches
# (and, for failover, freeze after every batch plus seeded kill/thaw)
# must give the reference digest, journal and golden trace.
for workload in figures serve failover; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0 --trace 0 | tail -1
done

echo "== perfbench: traced per-layer suite once =="
# Exercises the suite's own output checks and `queue_depths`, which
# parses the queue words at the head of a machine snapshot.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload serve --seed 1 --seconds 0 --trace 1 | tail -1

echo "== simserve: hostile-input fuzz smoke (30 seeded streams) =="
cargo run --release -q -p experiments -- fuzz --streams 30
# Every harness runs `Server` slots across the pool: the report must not
# depend on how many workers share the streams.
fuzz_1="$(cargo run --release -q -p experiments -- fuzz --streams 30 --threads 1 2>/dev/null)"
fuzz_2="$(cargo run --release -q -p experiments -- fuzz --streams 30 --threads 2 2>/dev/null)"
if [ "$fuzz_1" != "$fuzz_2" ]; then
    echo "fuzz report differs between 1 and 2 worker threads" >&2
    exit 1
fi

echo "== simpar: serial/parallel byte-equality smoke =="
# The sweeps and every figure on the harness trial grid (the bar and
# think-time figures, the fig16 summary and its headline, the
# goal-directed figures and the ablations), serial against 8 workers.
par_ids=(chaos supervise fig6 fig8 fig10 fig11 fig13 fig14 fig15 fig16 fig18 fig19 fig20 fig21 fig22 sec54 headline ablate)
par_1="$(cargo run --release -q -p experiments -- "${par_ids[@]}" --quick --threads 1 2>/dev/null)"
par_8="$(cargo run --release -q -p experiments -- "${par_ids[@]}" --quick --threads 8 2>/dev/null)"
if [ "$par_1" != "$par_8" ]; then
    echo "parallel fan-out diverges from serial (simpar merge bug)" >&2
    exit 1
fi

echo "== net non-test Rust lines (crates/ and src/) =="
scripts/netlines.sh | tail -1

echo "verify: OK"
