#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, doc links, release build, every workspace test.
# Mirrors .github/workflows/ci.yml so it can run locally or in CI.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# The vendored shims are path dependencies outside the workspace, so the
# steps above and `cargo test -q` below skip them. serde_json holds the
# JSON lexer every reader is built on (`serde_json::lex`): check its
# format and lints, and run the shims' own tests.
rustfmt --edition 2021 --check vendor/serde_json/src/*.rs
cargo clippy -p serde_json --all-targets -- -D warnings
cargo test -q -p serde_json -p serde -p rand -p rand_chacha -p proptest -p criterion
# Doc links must resolve: a link to a deleted or private item fails here.
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps
cargo build --release
# The workspace tests below run in debug; these check the unsafe matmul
# kernels bitwise against the naive loop, every tanh tier against the
# scalar fdlibm port and glibc's golden bits, the unsafe FM move
# selection against its scalar oracle, the pinned partitions and
# first-call allocator placements, the pinned warm re-allocation bits
# and allocation count, and the serve wire path's allocation counts, in
# the optimised codegen that ships.
cargo test --release -q -p spg-nn --test matmul_property
cargo test --release -q --test tanh_bits
cargo test --release -q --test partition_bits --test allocator_purity
cargo test --release -q --test realloc_bits --test realloc_allocs --test wire_allocs
cargo test --release -q -p spg-partition
# The root manifest's default-members cover every crate, so this runs
# the whole workspace's unit, integration and doc tests.
cargo test -q

# End-to-end smoke: generate -> train (with telemetry) -> report on a tiny
# dataset, exercising the CLI surface and the JSONL metrics pipeline.
SPG=target/release/spg
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$SPG" generate --setting small --scaled --count 3 --seed 1 --out "$SMOKE_DIR/ds.json"
"$SPG" train --dataset "$SMOKE_DIR/ds.json" --epochs 1 --seed 1 \
    --metrics "$SMOKE_DIR/metrics.jsonl" --out "$SMOKE_DIR/model.json"
"$SPG" report "$SMOKE_DIR/metrics.jsonl"
"$SPG" evaluate --dataset "$SMOKE_DIR/ds.json" --model "$SMOKE_DIR/model.json"
echo "e2e smoke OK"

# Run a command that must exit exactly 1: a refusal, not a panic (101)
# or a hang (`timeout` gives 124).
exits_1() {
    local code=0
    "$@" || code=$?
    if [ "$code" -ne 1 ]; then
        echo "expected exit 1, got $code: $*" >&2
        exit 1
    fi
}

# A checkpoint missing its last `params` entry is refused at load, before
# `allocate` runs a forward or `serve` binds its port.
sed 's/,{"rows":[^{}]*}\],"trainer"/],"trainer"/' "$SMOKE_DIR/model.json" \
    > "$SMOKE_DIR/short.json"
if cmp -s "$SMOKE_DIR/model.json" "$SMOKE_DIR/short.json"; then
    echo "could not drop a params entry from the smoke model" >&2
    exit 1
fi
exits_1 "$SPG" allocate --dataset "$SMOKE_DIR/ds.json" --model "$SMOKE_DIR/short.json"
exits_1 timeout 10 "$SPG" serve --model "$SMOKE_DIR/short.json" --addr 127.0.0.1:0 \
    > "$SMOKE_DIR/short_serve.log" 2>&1
if grep -q "listening on" "$SMOKE_DIR/short_serve.log"; then
    echo "spg serve bound its port with a mismatched checkpoint" >&2
    exit 1
fi
echo "bad checkpoint smoke OK"

# Fault-tolerance: a kill-and-resume smoke through the binary (the
# injection/resume suite ran with the workspace tests above) — a run
# killed after epoch 2 and resumed from its snapshot must produce a
# checkpoint byte-identical to an uninterrupted 4-epoch run.
"$SPG" train --dataset "$SMOKE_DIR/ds.json" --epochs 4 --seed 2 \
    --out "$SMOKE_DIR/straight.json"
if "$SPG" train --dataset "$SMOKE_DIR/ds.json" --epochs 4 --seed 2 \
    --checkpoint-every 2 --inject-kill-after 2 --out "$SMOKE_DIR/crashed.json"; then
    echo "expected the injected crash to exit nonzero" >&2
    exit 1
fi
test ! -e "$SMOKE_DIR/crashed.json"   # died before the final save
"$SPG" train --dataset "$SMOKE_DIR/ds.json" --epochs 4 --seed 2 \
    --checkpoint-every 2 --resume "$SMOKE_DIR/crashed.json.epoch-2" \
    --out "$SMOKE_DIR/crashed.json"
cmp "$SMOKE_DIR/straight.json" "$SMOKE_DIR/crashed.json"
echo "kill-and-resume smoke OK"

# Start `spg serve` on a random port with the model above plus the given
# flags, and wait up to 5 s for it to print its listen address. Sets
# SERVE_PID and ADDR.
start_server() {
    "$SPG" serve --model "$SMOKE_DIR/model.json" --addr 127.0.0.1:0 "$@" \
        > "$SMOKE_DIR/serve.log" 2>&1 &
    SERVE_PID=$!
    ADDR=""
    for _ in $(seq 1 50); do
        ADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/serve.log")
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "spg serve never printed its listen address" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
}

# Serving: a 1-replica and a 2-replica server, each on a random port,
# hammered by the open-loop load generator (the 2-replica run sweeps
# connection counts concurrently against one server instance).
# bench-serve exits nonzero unless all 64/64 responses parse and
# identical requests get bitwise-identical placements; `wait` under
# `set -e` requires the shutdown-triggered drain to reach a clean exit
# 0. Cross-replica bitwise identity and the 1000-idle-connection soak
# are pinned by tests/serve_cluster.rs in the `cargo test` run above.
# The sweep matches the checked-in BENCH_serve.json rows so the perf
# gate below compares like with like. Each smoke gets its own metrics
# file so one server's drained telemetry never pollutes another's
# encode/rollout time split.
serve_smoke() {
    local replicas=$1 connections=$2
    local metrics="$SMOKE_DIR/serve_metrics_r${replicas}.jsonl"
    start_server --replicas "$replicas" --metrics "$metrics"
    "$SPG" bench-serve --addr "$ADDR" --replicas "$replicas" \
        --connections "$connections" --requests 64 \
        --graphs 8 --rate 200 --seed 0 --shutdown \
        --serve-metrics "$metrics" \
        --out "$SMOKE_DIR/bench_serve.json"
    wait "$SERVE_PID"   # clean drain must exit 0
}
serve_smoke 1 4
serve_smoke 2 2,4
echo "serve smoke OK"

# Realloc smoke: a fresh server, the `spg realloc` demo client (alloc ->
# drift -> warm realloc), then the drift bench, which replays an empty
# delta (must reproduce the prior response byte-for-byte), races the
# warm-start realloc against a full re-allocation per scenario, and
# merges the `drift` row into the bench_serve.json the perf gate below
# reads. bench-serve --drift exits nonzero if any scenario errors, no
# scenario takes the warm path, or the empty-delta replay diverges.
start_server --metrics "$SMOKE_DIR/drift_metrics.jsonl"
"$SPG" realloc --addr "$ADDR" --seed 1
"$SPG" realloc --addr "$ADDR" --seed 2 --drift device-loss
"$SPG" bench-serve --addr "$ADDR" --drift --graphs 4 --seed 0 \
    --shutdown --serve-metrics "$SMOKE_DIR/drift_metrics.jsonl" \
    --out "$SMOKE_DIR/bench_serve.json"
wait "$SERVE_PID"   # clean drain must exit 0
echo "realloc smoke OK"

# Chaos smoke: a 2-replica server with seeded fault injection at every
# serve site — replica panics, replica kills (respawn from checkpoint),
# dropped and torn connection writes — audited by bench-serve --chaos,
# which exits nonzero unless every request got exactly one well-formed
# response or a named error (errors are expected; hangs and accounting
# gaps are not). The server process itself must still drain to exit 0.
start_server --replicas 2 \
    --metrics "$SMOKE_DIR/chaos_metrics.jsonl" \
    --inject-replica-panics 0.05 --inject-replica-kills 0.02 \
    --inject-replica-stalls 0.02 \
    --inject-conn-drops 0.05 --inject-torn-writes 0.05
"$SPG" bench-serve --addr "$ADDR" --chaos --replicas 2 --connections 4 \
    --requests 64 --graphs 8 --rate 200 --seed 0 --shutdown \
    --serve-metrics "$SMOKE_DIR/chaos_metrics.jsonl" \
    --out "$SMOKE_DIR/bench_serve.json"
wait "$SERVE_PID"   # a chaos-drilled server must still drain to exit 0
echo "chaos smoke OK"

# Perf-regression gate: re-measure the criterion microbenches (fast
# sampling) plus the serve latency above, then compare against the
# checked-in baselines. More than 25% slower on any tracked metric fails
# the gate on multi-core machines; on 1-core containers (or with
# SPG_PERF_STRICT=0) it only warns, because single-core microbench noise
# would make a hard gate flaky. SPG_PERF_STRICT=1 always enforces.
GATE=target/release/perf_gate
cp BENCH_train.json "$SMOKE_DIR/baseline_train.json"
SPG_BENCH_FAST=1 cargo bench -q -p spg-bench --bench train_epoch
mv BENCH_train.json "$SMOKE_DIR/new_train.json"
cp "$SMOKE_DIR/baseline_train.json" BENCH_train.json
"$GATE" --baseline BENCH_train.json --new "$SMOKE_DIR/new_train.json"
"$GATE" --baseline BENCH_serve.json --new "$SMOKE_DIR/bench_serve.json" \
    --metric latency_p50_ms --metric latency_p99_ms
echo "perf gate OK"
