#!/usr/bin/env sh
# Opt-in sanitizer pass: Miri (UB detection) and ThreadSanitizer (data
# races). Both need a nightly toolchain; on a stable-only host this
# script skips cleanly (exit 0) so verify.sh stays green offline.
#
# Invoke directly, or through verify.sh with SPLPG_SANITIZE=1.
set -eu
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

if ! command -v rustup >/dev/null 2>&1; then
    echo "sanitize: SKIP (rustup not installed; nightly toolchain unavailable)"
    exit 0
fi

if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    echo "sanitize: SKIP (no nightly toolchain installed)"
    exit 0
fi

ran_any=0

# --- Miri: interpret the deterministic core under the UB checker. ----
# Full-workspace Miri is far too slow; pin it to the crates whose unsafe
# and aliasing behaviour matters most (par owns the raw-pointer chunk
# dispatch, tensor owns the arena + SIMD-friendly kernels).
if rustup component list --toolchain nightly 2>/dev/null | grep -q 'miri.*(installed)'; then
    echo "== miri (splpg-par, splpg-tensor unit tests) =="
    # Isolation off: the pool reads SPLPG_NUM_THREADS and probes core
    # counts; neither affects determinism, which the tests assert.
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p splpg-par -p splpg-tensor --lib
    ran_any=1
else
    echo "sanitize: miri component not installed; skipping Miri"
fi

# --- ThreadSanitizer: race-check the thread pool under load. ---------
# TSan needs -Zbuild-std for an instrumented std; skip if the
# rust-src component is missing (offline hosts can't fetch it).
host_triple=$(rustc -vV | sed -n 's/^host: //p')
case "$host_triple" in
    x86_64-unknown-linux-gnu|aarch64-unknown-linux-gnu)
        if rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src (installed)'; then
            echo "== thread sanitizer (splpg-par unit tests) =="
            # RUSTFLAGS replaces .cargo/config.toml's x86-64-v3 flags for
            # this run; the race check does not need the wider vectors.
            RUSTFLAGS="-Zsanitizer=thread" \
                cargo +nightly test -p splpg-par --lib \
                -Zbuild-std --target "$host_triple"
            ran_any=1
        else
            echo "sanitize: rust-src component not installed; skipping TSan"
        fi
        ;;
    *)
        echo "sanitize: TSan unsupported on $host_triple; skipping TSan"
        ;;
esac

if [ "$ran_any" = "1" ]; then
    echo "sanitize: OK"
else
    echo "sanitize: SKIP (no sanitizer toolchain available)"
fi
