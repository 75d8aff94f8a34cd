//! Minimal in-tree timing harness.
//!
//! Replaces the criterion dev-dependency so the `kernel_bench` binary
//! builds offline: it calls [`bench()`] per case, and [`bench()`]
//! auto-calibrates an iteration count, times a few repetitions, and
//! reports the best ns/iter. (End-to-end and per-layer measurements are
//! the separate `benchmark/` package's job.)
//!
//! `SPLPG_BENCH_MS` overrides the per-repetition time budget
//! (milliseconds, default 100) — set it low (e.g. `5`) to smoke-test
//! that the bench runs without waiting for stable numbers.

use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per measurement; the best is reported.
const REPS: usize = 3;

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label.
    pub name: String,
    /// Iterations per timed repetition.
    pub iters: u64,
    /// Best-of-repetitions nanoseconds per iteration.
    pub ns_per_iter: f64,
}

fn target_rep_ns() -> u128 {
    let ms: u128 = std::env::var("SPLPG_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    ms.max(1) * 1_000_000
}

/// Times `f` (auto-calibrated iteration count, best of `REPS`
/// repetitions) and returns `(iters, ns_per_iter)`.
pub(crate) fn time_fn<T, F: FnMut() -> T>(mut f: F) -> (u64, f64) {
    let target = target_rep_ns();
    // Calibrate: double the batch until it costs >= a tenth of the
    // budget, then scale to the budget.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= target / 10 || iters >= (1 << 24) {
            if let Some(scaled) = (u128::from(iters) * target).checked_div(elapsed) {
                iters = (scaled.max(1) as u64).min(1 << 24);
            }
            break;
        }
        iters *= 2;
    }
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    (iters, best)
}

/// Runs one named benchmark and prints its row.
pub fn bench<T, F: FnMut() -> T>(name: &str, f: F) -> Measurement {
    let (iters, ns) = time_fn(f);
    println!("{name:<44} {:>14}  ({iters} iters/rep)", fmt_ns(ns));
    Measurement { name: name.to_string(), iters, ns_per_iter: ns }
}

/// Prints a section heading for a group of related benches.
pub fn section(title: &str) {
    println!("\n== {title} ==");
}

/// Formats nanoseconds-per-iteration with an adaptive unit.
pub(crate) fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns/iter")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us/iter", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms/iter", ns / 1_000_000.0)
    } else {
        format!("{:.3} s/iter", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_fn_returns_positive_measurement() {
        std::env::set_var("SPLPG_BENCH_MS", "1");
        let mut acc = 0u64;
        let (iters, ns) = time_fn(|| {
            acc = acc.wrapping_add(1);
            acc
        });
        assert!(iters >= 1);
        assert!(ns >= 0.0);
        assert!(ns.is_finite());
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert!(fmt_ns(12.0).contains("ns"));
        assert!(fmt_ns(12_000.0).contains("us"));
        assert!(fmt_ns(12_000_000.0).contains("ms"));
        assert!(fmt_ns(12_000_000_000.0).contains("s/iter"));
    }
}
