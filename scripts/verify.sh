#!/usr/bin/env sh
# Offline verification gate: build, test, lint. No network access needed.
set -eu
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# No step may rewrite a file in the work tree: record its status now and
# compare at the end. Skipped outside a git work tree (e.g. an exported
# tarball).
in_git=0
if command -v git >/dev/null 2>&1 && git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    in_git=1
    status_before=$(git status --porcelain)
fi

echo "== cargo build --release =="
cargo build --workspace --release

echo "== instruction set (x86-64-v3) =="
# .cargo/config.toml builds the workspace for x86-64-v3. A deleted or
# shadowed config, or a stray RUSTFLAGS (which replaces config rustflags
# entirely), falls back to baseline SSE2 without a word: the same bits,
# with every kernel at half width. Ask rustc which target features the
# release build compiles with. (scripts/sanitize.sh sets its own
# RUSTFLAGS for the TSan pass on purpose: it checks races, not the
# release build's speed.)
if [ "$(uname -m)" = "x86_64" ]; then
    cfgs=$(cargo rustc -q --release -p splpg-tensor --lib -- --print cfg)
    for feature in avx2 fma; do
        if ! printf '%s\n' "$cfgs" | grep -qx "target_feature=\"$feature\""; then
            echo "FAIL: the release build is not compiled with target_feature=\"$feature\"." >&2
            echo "      .cargo/config.toml sets -C target-cpu=x86-64-v3; check that it exists," >&2
            echo "      and that RUSTFLAGS / CARGO_TARGET_*_RUSTFLAGS / CARGO_BUILD_RUSTFLAGS are unset." >&2
            exit 1
        fi
    done
    echo "release build: avx2 + fma"
fi

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
# Spawns worker child processes over loopback TCP, once under model
# averaging and once under per-batch gradient averaging, and demands
# each outcome be bit-identical to the sequential reference (the binary
# exits nonzero otherwise). Bounded: ports come from the kernel
# (bind 127.0.0.1:0), rendezvous waits are attempt-counted, and the
# whole run is capped by `timeout` where available. Skips cleanly in
# sandboxes without loopback sockets — the binary prints SKIP.
if command -v timeout >/dev/null 2>&1; then
    timeout 300 cargo run -q -p splpg-examples --bin cluster_tcp --release
else
    cargo run -q -p splpg-examples --bin cluster_tcp --release
fi

echo "== experiment suite smoke (repro --quick) =="
# Runs every figure/table experiment in-process on the smoke profile.
# Exits nonzero if any experiment fails; the rest still run first.
cargo run -q -p splpg-bench --release --bin repro -- --quick >/dev/null

echo "== benchmark smoke (benchmark/run.sh --smoke) =="
# Builds benchmark/ (its own package, through the splpg facade) against
# this checkout and runs every workload on a toy graph. Fails if an item
# the benchmark names is gone, or if the entry point, run_reference and
# the trace replay disagree on a single bit. Its build (.bench_build/)
# and its output (benchmark/results/smoke.json) are gitignored.
bash benchmark/run.sh --smoke >/dev/null

if [ "${SPLPG_BENCH_ASSERT:-0}" = "1" ]; then
    echo "== kernel bench speedup assertion =="
    # Fails if multi-threaded matmul/sampling lose to scalar, or the
    # cooperative batch build stops deduplicating frontier expansions.
    # Skips itself (exit 0) on single-core hosts. Checks and prints
    # only: a gate run leaves BENCH_kernels.json as it is.
    SPLPG_BENCH_MS=5 cargo run -q -p splpg-bench --release --bin kernel_bench -- --assert-speedup
fi

echo "== cargo clippy (deny warnings) =="
# Besides the usual lints, this carries the bans in clippy.toml (hash
# containers, ad-hoc threads, clock reads) and the print and
# undocumented-unsafe lints of [workspace.lints.clippy].
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

if [ "$in_git" = 1 ]; then
    echo "== work tree unchanged =="
    status_after=$(git status --porcelain)
    if [ "$status_before" != "$status_after" ]; then
        echo "FAIL: verification changed the work tree (git status --porcelain):" >&2
        printf 'before:\n%s\nafter:\n%s\n' "$status_before" "$status_after" >&2
        exit 1
    fi
fi

echo "verify: OK"
