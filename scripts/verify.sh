#!/usr/bin/env sh
# Offline verification gate: build, test, lint. No network access needed.
set -eu
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo test =="
cargo test --workspace -q

echo "== splpg-lint (determinism & safety analyzer) =="
# --budget-ms turns "fast enough to run on every build" into a hard
# gate: the full workspace scan must finish inside 5 seconds.
cargo run -p splpg-lint --release -- check --timings --budget-ms 5000

if [ "${SPLPG_SANITIZE:-0}" = "1" ]; then
    echo "== sanitizers (Miri / ThreadSanitizer, nightly-only) =="
    sh scripts/sanitize.sh
fi

echo "== fault-injection e2e (drop=0.1 dup=0.05, crash, quorum p-1) =="
# The wire_chaos stdout is seed-determined only: identical across runs
# and thread counts, or the fault layer leaked wallclock into training.
chaos1=$(SPLPG_NUM_THREADS=1 cargo run -q -p splpg-examples --bin wire_chaos --release 2>/dev/null)
chaos4=$(SPLPG_NUM_THREADS=4 cargo run -q -p splpg-examples --bin wire_chaos --release 2>/dev/null)
if [ "$chaos1" != "$chaos4" ]; then
    echo "FAIL: wire_chaos metrics diverged between 1 and 4 threads" >&2
    printf '%s\n--- vs ---\n%s\n' "$chaos1" "$chaos4" >&2
    exit 1
fi
echo "$chaos1"

echo "== multi-process cluster smoke (real TCP sockets) =="
# Spawns worker child processes over loopback TCP and demands the
# outcome be bit-identical to the sequential reference (the binary
# exits nonzero otherwise). Bounded: ports come from the kernel
# (bind 127.0.0.1:0), rendezvous waits are attempt-counted, and the
# whole run is capped by `timeout` where available. Skips cleanly in
# sandboxes without loopback sockets — the binary prints SKIP.
if command -v timeout >/dev/null 2>&1; then
    timeout 300 cargo run -q -p splpg-examples --bin cluster_tcp --release
else
    cargo run -q -p splpg-examples --bin cluster_tcp --release
fi

echo "== train-step bench smoke (zero-realloc arena, lean tape) =="
# Exits nonzero if any steady-state step allocates arena buffers, or the
# tape backs more than half of the 13 927 168 B it did before the fused
# aggregate op and gradient-need pruning.
SPLPG_BENCH_MS=5 cargo run -q -p splpg-bench --release --bin train_step

echo "== sparsify bench smoke (solver engine gate) =="
# Exits nonzero if steady-state solves allocate, PCG iterations exceed
# the unpreconditioned baseline, matvec work drops < 5x, or resistances
# drift > 1e-6 from the per-edge reference.
SPLPG_BENCH_MS=5 cargo run -q -p splpg-bench --release --bin sparsify_bench

echo "== wire compression ablation (codec gate) =="
# Exits nonzero unless on-wire bytes <= raw bytes in every codec mode,
# the uncompressed mode prices wire bytes identically to the raw ledger
# model (bit-compatible with pre-compression numbers), varint structure
# packing reaches >= 2x, int8 feature quantization reaches >= 3.5x, and
# every cluster run's communication report matches its sequential
# reference. SPLPG_BENCH_MS=5 keeps it to the in-process rows.
SPLPG_BENCH_MS=5 cargo run -q -p splpg-bench --release --bin wire_compress

echo "== shared-memory feature bus (local-vs-wire gate) =="
# Exits nonzero unless the bus run moves the baseline's entire feature
# volume off the wire (>=10x fewer feature wire bytes) bit-identically,
# a deliberately torn segment degrades to the wire path with a typed
# fault, and the ledger-carried bus bytes reconcile exactly with the
# CommTracker meters. Skips itself (exit 0, prints SKIP) on hosts
# without usable POSIX shared memory. SPLPG_BENCH_MS=5 keeps it to the
# in-process rows.
SPLPG_BENCH_MS=5 cargo run -q -p splpg-bench --release --bin shm_bus

if [ "${SPLPG_BENCH_ASSERT:-0}" = "1" ]; then
    echo "== kernel bench speedup assertion =="
    # Fails if multi-threaded matmul/sampling lose to scalar, or the
    # cooperative batch build stops deduplicating frontier expansions.
    # Skips itself (exit 0) on single-core hosts.
    SPLPG_BENCH_MS=5 cargo run -q -p splpg-bench --release --bin kernel_bench -- --assert-speedup
fi

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: OK"
