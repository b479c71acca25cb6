#!/usr/bin/env bash
# The canonical offline gate: everything a change must pass before it
# lands. Runs entirely from the committed Cargo.lock with no network
# access — the workspace has zero crates-io dependencies, so a plain
# toolchain install is enough.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "=== build (release, all targets) ==="
cargo build --release --workspace --locked

echo "=== test (release) ==="
cargo test -q --release --workspace --locked

echo "=== clippy (-D warnings) ==="
cargo clippy --workspace --all-targets --locked -- -D warnings

echo "=== rustdoc (-D warnings, workspace) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

echo "=== benchmark tests (lrdbench, its own workspace) ==="
# lrdbench builds against the workspace crates by path: a workspace
# API change that breaks it fails here rather than in a benchmark run.
cargo test -q --release --offline --manifest-path lrdbench/Cargo.toml

echo "=== telemetry smoke (--telemetry JSONL capture) ==="
smokedir="$(mktemp -d -t lrd-telemetry.XXXXXX)"
trap 'rm -rf "$smokedir"' EXIT
capture="$smokedir/fig02.jsonl"
LRD_RESULTS_DIR="$smokedir" cargo run -q --release --locked \
    -p lrd-experiments --bin fig02_bounds -- \
    --quick --telemetry "$capture" > /dev/null
cargo run -q --release --locked --example telemetry_check -- "$capture" \
    --figure fig02_bounds --profile quick

echo "=== parallel smoke (--threads 2 figure run + telemetry check) ==="
# The same figure surface through the worker pool: two threads must
# produce a valid run and well-formed telemetry (determinism itself is
# pinned bit-for-bit by tests/parallel_determinism.rs).
par_capture="$smokedir/fig04_threads2.jsonl"
LRD_RESULTS_DIR="$smokedir" cargo run -q --release --locked \
    -p lrd-experiments --bin fig04_mtv_model -- \
    --quick --threads 2 --telemetry "$par_capture" > /dev/null
cargo run -q --release --locked --example telemetry_check -- "$par_capture" \
    --figure fig04_mtv_model --profile quick

echo "=== shard smoke (split / merge reproduces the unsharded surface) ==="
# Kill any stale checkpoints first: a leftover file from a previous run
# would be resumed from instead of solved, masking regressions.
rm -f "$smokedir"/fig04_shard*.jsonl
LRD_RESULTS_DIR="$smokedir" cargo run -q --release --locked \
    -p lrd-experiments --bin fig04_mtv_model -- --quick \
    > "$smokedir/fig04_full.csv"
LRD_RESULTS_DIR="$smokedir" cargo run -q --release --locked \
    -p lrd-experiments --bin fig04_mtv_model -- --quick \
    --shard 0/2 --checkpoint "$smokedir/fig04_shard0.jsonl" > /dev/null
LRD_RESULTS_DIR="$smokedir" cargo run -q --release --locked \
    -p lrd-experiments --bin fig04_mtv_model -- --quick \
    --shard 1/2 --checkpoint "$smokedir/fig04_shard1.jsonl" > /dev/null
LRD_RESULTS_DIR="$smokedir" cargo run -q --release --locked \
    -p lrd-experiments --bin sweep_merge -- \
    "$smokedir/fig04_shard0.jsonl" "$smokedir/fig04_shard1.jsonl" \
    > "$smokedir/fig04_merged.csv"
diff -u "$smokedir/fig04_full.csv" "$smokedir/fig04_merged.csv"

echo "=== scalar smoke (LRD_SIMD=off reproduces the SIMD surface) ==="
# The SIMD dispatch contract (DESIGN.md §14): vectorized and forced-
# scalar butterflies compute bit-identical transforms, so the figure
# CSV must be byte-identical to the default-dispatch run above.
LRD_RESULTS_DIR="$smokedir" LRD_SIMD=off cargo run -q --release --locked \
    -p lrd-experiments --bin fig04_mtv_model -- --quick \
    > "$smokedir/fig04_scalar.csv"
diff -u "$smokedir/fig04_full.csv" "$smokedir/fig04_scalar.csv"
# The level is read once per process, so in-process tests reach the
# scalar kernels only through direct calls; this re-runs the FFT
# crate's suite (golden bits, cascade oracle) with scalar dispatch.
LRD_SIMD=off cargo test -q --release --locked -p lrd-fft

echo "=== service smoke (lrd-serve: status, session/batch equivalence, shutdown) ==="
# A frozen-clock daemon (state is a pure function of the flags), two
# flows, queried through the bundled client: the roster must be fully
# warmed, a converged incremental loss_bound must match the one-shot
# solve of the same fitted model *textually* (write_json_f64 renders
# exact shortest decimals, so bit-equality is string equality), and a
# shutdown request must end the process cleanly with flushed telemetry.
servedir="$smokedir/serve"
mkdir -p "$servedir"
cargo run -q --release --locked -p lrd-serve --bin lrd-serve -- \
    --listen "unix:$servedir/daemon.sock" \
    --flow mtv,family=pareto,service=10.0 \
    --flow bc,family=markov,mean=0.05,service=10.0 \
    --tick-ms 0 --warmup-ticks 2048 --window 256 --refresh-every 64 \
    --seed 7 --telemetry "$servedir/serve-telemetry.jsonl" \
    > "$servedir/serve.out" 2> /dev/null &
serve_pid=$!
for _ in $(seq 100); do
    grep -q '^listening ' "$servedir/serve.out" 2>/dev/null && break
    sleep 0.1
done
serve_endpoint="$(awk '/^listening /{print $2}' "$servedir/serve.out")"
ask() {
    cargo run -q --release --locked -p lrd-serve --bin lrd-serve -- \
        --ask "$serve_endpoint" --request "$1"
}
serve_status="$(ask '{"kind":"status"}')"
grep -q '"tick":2048' <<<"$serve_status"
[ "$(grep -o '"warmed":true' <<<"$serve_status" | wc -l)" -eq 2 ]
serve_bound=""
for _ in $(seq 200); do
    serve_bound="$(ask '{"kind":"loss_bound","flow":"bc","buffer":1.0}')"
    grep -q '"converged":true' <<<"$serve_bound" && break
done
grep -q '"converged":true' <<<"$serve_bound"
serve_solve="$(ask '{"kind":"solve","flow":"bc","buffer":1.0}')"
extract_bracket() { sed -E 's/.*"lower":([^,]*),"upper":([^,]*),.*/\1 \2/' <<<"$1"; }
[ "$(extract_bracket "$serve_bound")" = "$(extract_bracket "$serve_solve")" ]
ask '{"kind":"provision","flow":"bc","target_loss":0.01}' \
    | grep -q '"kind":"provision"'
ask '{"kind":"shutdown"}' | grep -q '"kind":"bye"'
wait "$serve_pid"
grep -q '"name":"serve.queries"' "$servedir/serve-telemetry.jsonl"

echo "=== trace smoke (out-of-core corpus: gen, validate, ingest, figure) ==="
# A small synthetic packet corpus through the whole out-of-core path:
# byte-level validation (`info` streams and checks every record), the
# two-pass one-pass-estimator ingestion (`hurst`), and the
# trace-driven figure whose solver telemetry must meet the registry
# budget like every other figure.
tracedir="$smokedir/trace"
mkdir -p "$tracedir"
cargo run -q --release --locked -p lrd-trace --bin lrd-trace -- \
    gen --out "$tracedir/bc.lrdpkt" --kind bellcore --bins 4096 --seed 42 \
    > /dev/null
trace_info="$(cargo run -q --release --locked -p lrd-trace --bin lrd-trace -- \
    info --trace "$tracedir/bc.lrdpkt")"
grep -q '^validated' <<<"$trace_info"
trace_hurst="$(cargo run -q --release --locked -p lrd-trace --bin lrd-trace -- \
    hurst --trace "$tracedir/bc.lrdpkt" --dt 0.01)"
grep -q '^pooled       : H = 0\.' <<<"$trace_hurst"
trace_capture="$smokedir/trace_loss.jsonl"
LRD_RESULTS_DIR="$smokedir" cargo run -q --release --locked \
    -p lrd-experiments --bin trace_loss -- \
    --quick --telemetry "$trace_capture" > /dev/null
cargo run -q --release --locked --example telemetry_check -- "$trace_capture" \
    --figure trace_loss --profile quick

echo "ci: all gates passed"
