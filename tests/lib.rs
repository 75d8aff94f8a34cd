//! Integration-test package: shared helpers for the cross-crate tests.
//!
//! The star here is [`prop`], a miniature property-based testing harness
//! (random case generation + greedy shrinking) built on the workspace's
//! own deterministic RNG — the container has no network access, so
//! `proptest`/`quickcheck` are not options, and determinism is a feature:
//! a failing case always reproduces under the same configured seed.

/// Runs `f` with the global pool at `threads` workers, then restores the
/// default width. The pinned-output tests use it to check their values at
/// more than one pool size.
pub fn at_pool_size<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    splpg_par::set_num_threads(threads);
    let out = f();
    splpg_par::set_num_threads(0);
    out
}

pub mod prop {
    //! In-tree property-based testing: seeded generators and greedy
    //! shrinking.
    //!
    //! A property test draws `cases` random inputs from a generator,
    //! checks a predicate on each, and — on failure — repeatedly replaces
    //! the failing input with the first *smaller* candidate (produced by
    //! the `shrink` function) that still fails, until no candidate fails
    //! or the step budget runs out. The minimal failing input is reported
    //! in the panic message together with the case's seed.
    //!
    //! ```
    //! use splpg_rng::RngCore;
    //! use splpg_tests::prop::{check, Config};
    //!
    //! // Every u32 doubles to an even number; shrinking is never needed.
    //! check(
    //!     Config::default(),
    //!     |rng| rng.next_u64() as u32,
    //!     |&x| if x > 1 { vec![x / 2, x - 1] } else { vec![] },
    //!     |&x| {
    //!         if (x as u64 * 2) % 2 == 0 { Ok(()) } else { Err("odd double".to_string()) }
    //!     },
    //! );
    //! ```

    use splpg_rng::rngs::StdRng;
    #[cfg(test)]
    use splpg_rng::RngCore;

    /// How many cases to run, from which base seed, and how hard to
    /// shrink.
    #[derive(Debug, Clone, Copy)]
    pub struct Config {
        /// Number of random cases to generate and check.
        pub cases: usize,
        /// Base seed; case `i` draws from the derived stream `i`.
        pub seed: u64,
        /// Upper bound on accepted shrink steps (defense against cyclic
        /// shrinkers; greedy shrinking normally terminates well before).
        pub max_shrink_steps: usize,
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64, seed: 0x5eed_cafe, max_shrink_steps: 1024 }
        }
    }

    impl Config {
        /// Same configuration with a different base seed.
        pub fn with_seed(self, seed: u64) -> Self {
            Config { seed, ..self }
        }

        /// Same configuration with a different case count.
        pub fn with_cases(self, cases: usize) -> Self {
            Config { cases, ..self }
        }
    }

    /// Runs a property over `cfg.cases` generated inputs, greedily
    /// shrinking the first failure to a minimal reproducer.
    ///
    /// * `generate` draws a case from the given (seeded) RNG;
    /// * `shrink` proposes strictly-smaller variants of a failing case,
    ///   most aggressive first (return an empty vector when the value is
    ///   atomic);
    /// * `property` returns `Err(reason)` to fail a case.
    ///
    /// # Panics
    ///
    /// Panics with the minimal failing input, its seed, and the failure
    /// reason when the property does not hold.
    pub fn check<T, G, S, P>(cfg: Config, mut generate: G, shrink: S, mut property: P)
    where
        T: std::fmt::Debug,
        G: FnMut(&mut StdRng) -> T,
        S: Fn(&T) -> Vec<T>,
        P: FnMut(&T) -> Result<(), String>,
    {
        for case in 0..cfg.cases {
            let mut rng = splpg_rng::derive_stream(cfg.seed, case as u64);
            let value = generate(&mut rng);
            if let Err(reason) = property(&value) {
                let (minimal, reason, steps) =
                    shrink_failure(value, reason, &shrink, &mut property, cfg.max_shrink_steps);
                panic!(
                    "property failed (case {case} of seed {:#x}, {steps} shrink steps)\n\
                     minimal failing input: {minimal:?}\nreason: {reason}",
                    cfg.seed
                );
            }
        }
    }

    /// Greedy descent: take the first shrink candidate that still fails,
    /// repeat from there.
    fn shrink_failure<T, S, P>(
        mut value: T,
        mut reason: String,
        shrink: &S,
        property: &mut P,
        max_steps: usize,
    ) -> (T, String, usize)
    where
        S: Fn(&T) -> Vec<T>,
        P: FnMut(&T) -> Result<(), String>,
    {
        let mut steps = 0usize;
        'outer: while steps < max_steps {
            for candidate in shrink(&value) {
                if let Err(r) = property(&candidate) {
                    value = candidate;
                    reason = r;
                    steps += 1;
                    continue 'outer;
                }
            }
            break;
        }
        (value, reason, steps)
    }

    /// Standard shrink for a `usize` towards `lo`: halving steps first,
    /// then the decrement.
    pub fn shrink_usize(x: usize, lo: usize) -> Vec<usize> {
        let mut out = Vec::new();
        if x > lo {
            let half = lo + (x - lo) / 2;
            if half != x {
                out.push(half);
            }
            out.push(x - 1);
        }
        out.dedup();
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        #[test]
        fn passing_property_runs_all_cases() {
            let mut ran = 0usize;
            check(
                Config::default().with_cases(10),
                |rng| rng.next_u64(),
                |_| vec![],
                |_| {
                    ran += 1;
                    Ok(())
                },
            );
            assert_eq!(ran, 10);
        }

        #[test]
        fn failures_shrink_to_the_minimal_input() {
            // Property "x < 100" fails for any generated x >= 100; greedy
            // shrinking over shrink_usize must land exactly on 100.
            let result = catch_unwind(AssertUnwindSafe(|| {
                check(
                    Config::default(),
                    |rng| 100 + (rng.next_u64() % 1000) as usize,
                    |&x| shrink_usize(x, 0),
                    |&x| {
                        if x < 100 {
                            Ok(())
                        } else {
                            Err(format!("{x} >= 100"))
                        }
                    },
                );
            }));
            let msg = *result.expect_err("property must fail").downcast::<String>().unwrap();
            assert!(
                msg.contains("minimal failing input: 100"),
                "shrinking did not reach the boundary: {msg}"
            );
        }

        #[test]
        fn generation_is_deterministic_per_seed() {
            let draw = |seed| {
                let mut out = Vec::new();
                check(
                    Config::default().with_cases(5).with_seed(seed),
                    |rng| rng.next_u64(),
                    |_| vec![],
                    |&x| {
                        out.push(x);
                        Ok(())
                    },
                );
                out
            };
            assert_eq!(draw(1), draw(1));
            assert_ne!(draw(1), draw(2));
        }

        #[test]
        fn shrink_usize_descends_to_bound() {
            assert_eq!(shrink_usize(10, 0), vec![5, 9]);
            assert_eq!(shrink_usize(1, 0), vec![0]);
            assert!(shrink_usize(3, 3).is_empty());
        }
    }
}
