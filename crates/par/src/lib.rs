//! Scoped data-parallelism for the SpLPG workspace.
//!
//! The distributed trainer's `Barrier`-synchronized workers model the
//! paper's *cluster*; this crate supplies the parallelism *inside* one
//! worker: cache-blocked tensor kernels, per-seed fan-out sampling, and
//! per-partition setup all fan work out over a pool of OS threads.
//!
//! # Design
//!
//! * **Fork-join over [`std::thread::scope`].** Each [`Pool`] call splits
//!   its item range into at most `threads` contiguous chunks, runs one
//!   chunk on the calling thread and the rest on freshly-scoped threads,
//!   and joins before returning. The scope's implicit join is the barrier;
//!   borrowed data flows into the closures without `unsafe` or `'static`
//!   bounds. Spawn cost (tens of microseconds) is amortized by the
//!   per-call work thresholds at every call site.
//! * **Global sizing, local override.** [`global`] returns a pool sized by
//!   the `SPLPG_NUM_THREADS` environment variable (default: available
//!   parallelism); [`set_num_threads`] overrides it at runtime, which the
//!   kernel bench uses to sweep 1/2/4/8 threads inside one process.
//! * **Determinism by partitioning, not by luck.** Every helper assigns
//!   each item (or output row) to exactly one chunk, and chunk boundaries
//!   depend only on `(items, threads)`. Callers that need bit-identical
//!   results across thread counts simply make per-item work independent of
//!   its chunk — see `splpg-tensor`'s kernels, where each output row is
//!   accumulated in the same order no matter which thread owns it, and
//!   `splpg-gnn`'s sampler, where each seed node draws from its own
//!   derived RNG stream.
//!
//! # Examples
//!
//! ```
//! let pool = splpg_par::Pool::new(4);
//! let mut out = vec![0u64; 1000];
//! pool.parallel_for_mut(&mut out, 1, 1, |start, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (start + i) as u64 * 2;
//!     }
//! });
//! assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Runtime override for the global pool size (0 = not set).
static NUM_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Thread count for the global pool.
///
/// Resolution order: [`set_num_threads`] override, then the
/// `SPLPG_NUM_THREADS` environment variable, then
/// [`std::thread::available_parallelism`]. Always at least 1.
pub(crate) fn num_threads() -> usize {
    let over = NUM_THREADS_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    if let Ok(s) = std::env::var("SPLPG_NUM_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Overrides the global pool size for this process (`0` clears the
/// override). Used by benches and the determinism tests to sweep thread
/// counts without re-exec'ing.
pub fn set_num_threads(n: usize) {
    NUM_THREADS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Threads the hardware can actually run concurrently
/// ([`std::thread::available_parallelism`], min 1). Unlike
/// `num_threads`, this ignores `SPLPG_NUM_THREADS` and
/// [`set_num_threads`]: it answers "how many chunks can make progress at
/// once", not "how many the caller asked for".
pub fn hardware_threads() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Concurrency that fan-out can actually buy:
/// `min(num_threads(), hardware_threads())`.
///
/// Dispatch heuristics should consult this instead of `num_threads`:
/// an oversubscribed pool (e.g. `SPLPG_NUM_THREADS=8` inside a 1-CPU
/// container) pays full fork-join overhead while its chunks run
/// *serially*, so work that is only worth splitting across real cores
/// should fall back to the scalar path. Results are unaffected either
/// way — every kernel in the workspace is bit-identical at any thread
/// count — only the spawn overhead is.
pub fn effective_threads() -> usize {
    num_threads().min(hardware_threads())
}

/// The global pool, sized per `num_threads` at each call.
pub fn global() -> Pool {
    Pool::new(num_threads())
}

/// Balanced contiguous split of `0..items` into at most `parts` non-empty
/// ranges. The first `items % parts` ranges get one extra item, so sizes
/// differ by at most one and boundaries are a pure function of the inputs.
pub fn partition_items(items: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(items.max(1));
    if items == 0 {
        return Vec::new();
    }
    let base = items / parts;
    let extra = items % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Hosts `actors` long-lived actor bodies on dedicated scoped threads
/// while `master` runs on the calling thread; returns `master`'s result
/// after every actor has finished.
///
/// This is the *other* threading shape the workspace needs, next to the
/// fork-join [`Pool`]: the distributed cluster runtime (`splpg-net`) runs
/// one worker replica per actor for the whole lifetime of a training run,
/// exchanging messages with the master instead of joining after each work
/// item. Actors are identified by index and are never chunked, so the
/// actor count is a property of the cluster, not of the pool width —
/// thread-count invariance is unaffected.
///
/// Deadlock discipline is the caller's: `master` must, before returning,
/// release whatever the actors block on (e.g. drop its channel endpoints)
/// so the implicit join in this scope can complete.
///
/// # Examples
///
/// ```
/// use std::sync::mpsc::sync_channel;
/// let (tx, rx) = sync_channel(4);
/// let sum = splpg_par::actor_scope(
///     3,
///     |i| tx.clone().send(i as u64 + 1).unwrap(),
///     || (0..3).map(|_| rx.recv().unwrap()).sum::<u64>(),
/// );
/// assert_eq!(sum, 6);
/// ```
#[expect(clippy::disallowed_methods, reason = "the actor runtime itself: cluster actors are routed here")]
pub fn actor_scope<R>(actors: usize, actor: impl Fn(usize) + Sync, master: impl FnOnce() -> R) -> R {
    thread::scope(|s| {
        let actor = &actor;
        let handles: Vec<_> = (0..actors).map(|i| s.spawn(move || actor(i))).collect();
        let result = master();
        for h in handles {
            h.join().expect("actor panicked");
        }
        result
    })
}

/// A fixed-width fork-join worker pool.
///
/// `Pool` is a value, not a handle to live threads: each call spawns its
/// workers inside a [`std::thread::scope`] and joins them before
/// returning, so there is no shutdown protocol and no `'static` bound on
/// the work closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool running work on up to `threads` threads (min 1).
    pub fn new(threads: usize) -> Self {
        Pool { threads: threads.max(1) }
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Order-preserving parallel map: returns `items.iter().map(f)` with
    /// the work chunked across the pool.
    #[expect(clippy::disallowed_methods, reason = "the fork-join pool itself: parallel work is routed here")]
    pub fn parallel_map_chunks<T, U, F>(&self, items: &[T], min_per_thread: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let parts = self.effective_parts(n, min_per_thread);
        if parts <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let ranges = partition_items(n, parts);
        thread::scope(|s| {
            let f = &f;
            let (head, tail) = ranges.split_first().expect("non-empty partition");
            let handles: Vec<_> = tail
                .iter()
                .map(|r| {
                    let r = r.clone();
                    s.spawn(move || r.map(|i| f(i, &items[i])).collect::<Vec<U>>())
                })
                .collect();
            let mut out: Vec<U> = Vec::with_capacity(n);
            out.extend(head.clone().map(|i| f(i, &items[i])));
            for h in handles {
                out.extend(h.join().expect("pool worker panicked"));
            }
            out
        })
    }

    /// Splits `data` into contiguous runs of whole items (`item_len`
    /// elements each) and runs `f(first_item_index, chunk)` on each run in
    /// parallel. This is how kernels hand each thread exclusive ownership
    /// of its output rows.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `item_len`.
    #[expect(clippy::disallowed_methods, reason = "the fork-join pool itself: parallel work is routed here")]
    pub fn parallel_for_mut<T, F>(&self, data: &mut [T], item_len: usize, min_per_thread: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(item_len > 0, "item_len must be positive");
        assert_eq!(data.len() % item_len, 0, "data must hold whole items");
        let items = data.len() / item_len;
        if items == 0 {
            return;
        }
        let parts = self.effective_parts(items, min_per_thread);
        if parts <= 1 {
            f(0, data);
            return;
        }
        let ranges = partition_items(items, parts);
        thread::scope(|s| {
            let f = &f;
            // First chunk runs on the calling thread; spawn the rest.
            let (head, tail) = ranges.split_first().expect("non-empty partition");
            let (head_chunk, mut rest) = data.split_at_mut(head.len() * item_len);
            let mut handles = Vec::with_capacity(tail.len());
            for r in tail {
                let (chunk, after) = rest.split_at_mut(r.len() * item_len);
                rest = after;
                let start = r.start;
                handles.push(s.spawn(move || f(start, chunk)));
            }
            f(head.start, head_chunk);
            for h in handles {
                h.join().expect("pool worker panicked");
            }
        });
    }

    /// Number of chunks worth creating for `items` given the per-thread
    /// floor: 1 when parallelism wouldn't pay, else up to `threads`.
    fn effective_parts(&self, items: usize, min_per_thread: usize) -> usize {
        if self.threads <= 1 {
            return 1;
        }
        let floor = min_per_thread.max(1);
        // Chunks sized below the floor spend more on spawn than on work.
        (items / floor).clamp(1, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn partition_covers_all_items_once() {
        for items in [0usize, 1, 2, 7, 16, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = partition_items(items, parts);
                let mut covered = vec![0u8; items];
                for r in &ranges {
                    for i in r.clone() {
                        covered[i] += 1;
                    }
                }
                assert!(covered.iter().all(|&c| c == 1), "items {items} parts {parts}");
                if items > 0 {
                    assert!(ranges.len() <= parts.max(1));
                    let max = ranges.iter().map(|r| r.len()).max().unwrap();
                    let min = ranges.iter().map(|r| r.len()).min().unwrap();
                    assert!(max - min <= 1, "balanced split");
                }
            }
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let pool = Pool::new(3);
        let items: Vec<usize> = (0..997).collect();
        let out = pool.parallel_map_chunks(&items, 1, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_for_mut_writes_disjoint_rows() {
        let pool = Pool::new(8);
        let cols = 5;
        let mut data = vec![0usize; 64 * cols];
        pool.parallel_for_mut(&mut data, cols, 1, |start, chunk| {
            for (r, row) in chunk.chunks_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v = start + r;
                }
            }
        });
        for (r, row) in data.chunks(cols).enumerate() {
            assert!(row.iter().all(|&v| v == r), "row {r}");
        }
    }

    #[test]
    fn parallel_for_mut_runs_the_first_chunk_on_the_caller() {
        let pool = Pool::new(4);
        let caller = thread::current().id();
        let ids = std::sync::Mutex::new(Vec::new());
        let mut data = vec![0u8; 64];
        pool.parallel_for_mut(&mut data, 1, 1, |start, _| {
            ids.lock().unwrap().push((start, thread::current().id()));
        });
        let mut ids = ids.into_inner().unwrap();
        ids.sort_by_key(|&(start, _)| start);
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], (0, caller), "chunk 0 runs on the calling thread");
        assert!(ids[1..].iter().all(|&(_, id)| id != caller), "the rest are spawned");
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let mut sum = 0u64;
        // &mut capture proves f ran on the calling thread (Fn + Sync would
        // forbid this if it were spawned).
        let cell = std::sync::Mutex::new(&mut sum);
        pool.parallel_for_mut(&mut [0u8; 100], 1, 1, |_, chunk| {
            let mut guard = cell.lock().unwrap();
            **guard += chunk.len() as u64;
        });
        assert_eq!(sum, 100);
    }

    #[test]
    fn threshold_suppresses_parallelism() {
        let pool = Pool::new(8);
        assert_eq!(pool.effective_parts(10, 16), 1);
        assert_eq!(pool.effective_parts(32, 16), 2);
        assert_eq!(pool.effective_parts(1000, 1), 8);
    }

    #[test]
    fn num_threads_override_round_trip() {
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        assert_eq!(global().threads(), 3);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn hardware_and_effective_threads_are_sane() {
        // No override mutation here: these run concurrently with the
        // round-trip test, so only invariants that hold under any
        // override value are asserted.
        assert!(hardware_threads() >= 1);
        assert!(effective_threads() >= 1);
        assert!(effective_threads() <= hardware_threads().max(num_threads()));
    }

    #[test]
    fn actor_scope_joins_all_actors_and_returns_master_result() {
        let flags: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        let out = actor_scope(
            5,
            |i| {
                flags[i].fetch_add(1, Ordering::SeqCst);
            },
            || 42u32,
        );
        assert_eq!(out, 42);
        assert!(flags.iter().all(|f| f.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn actor_scope_with_zero_actors_runs_master_inline() {
        assert_eq!(actor_scope(0, |_| unreachable!(), || "done"), "done");
    }

    #[test]
    fn map_on_empty_and_tiny_inputs() {
        let pool = Pool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.parallel_map_chunks(&empty, 1, |_, &x| x).is_empty());
        let one = [7u32];
        assert_eq!(pool.parallel_map_chunks(&one, 1, |_, &x| x + 1), vec![8]);
        pool.parallel_for_mut(&mut [0u8; 0], 1, 1, |_, _| panic!("no items, no calls"));
    }
}
