//! Buffer pool backing [`Tape`](crate::Tape)'s zero-realloc steady state.
//!
//! Every intermediate the tape materializes — op values, op metadata
//! (gather indices, segment ids, dropout masks), gradient tensors and the
//! gradient slot table — is drawn from this arena and returned to it by
//! [`Tape::reset`](crate::Tape::reset) /
//! [`Tape::recycle_gradients`](crate::Tape::recycle_gradients). After a
//! warm-up step with the largest shapes, every request is served from
//! pooled capacity and the training step performs no heap allocation.
//!
//! The free lists are kept sorted by capacity and served best-fit: the
//! smallest pooled buffer that fits the request wins. When nothing fits,
//! the largest pooled buffer is grown to the requested size (bounding
//! the pool's buffer count when shapes drift upward from step to step) —
//! unless it is under half that size, in which case growing it would
//! free next to nothing and take a small buffer from the small requests
//! that come back for it next step, so a brand-new buffer is allocated
//! instead. The [`ArenaStats`] counters distinguish the three cases so
//! benches and tests can assert the steady state allocates nothing.

/// Counters describing how the tape arena served buffer requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Requests served by allocating a brand-new buffer (nothing pooled
    /// was worth growing).
    pub fresh: u64,
    /// Requests served by growing a pooled buffer whose capacity fell
    /// short of the request.
    pub grown: u64,
    /// Requests served entirely from pooled capacity — no allocator call.
    pub reused: u64,
}

impl ArenaStats {
    /// Requests that touched the system allocator (fresh + grown); the
    /// per-step delta of this is the "allocations per step" proxy and
    /// must be zero in steady state.
    pub fn allocations(&self) -> u64 {
        self.fresh + self.grown
    }
}

/// Takes a buffer with capacity for `len` elements from `pool` (sorted
/// ascending by capacity), preferring the smallest that fits. The buffer
/// still holds whatever its previous user left in it.
fn take_from<T>(pool: &mut Vec<Vec<T>>, len: usize, stats: &mut ArenaStats) -> Vec<T> {
    if len == 0 {
        // Zero-capacity vectors never allocate; don't disturb the pool.
        return Vec::new();
    }
    if let Some(i) = pool.iter().position(|b| b.capacity() >= len) {
        stats.reused += 1;
        return pool.remove(i);
    }
    // Growing a buffer far smaller than the request would save nothing and
    // cost the pool a size the next step asks for again.
    match pool.pop_if(|b| b.capacity() * 2 >= len) {
        Some(mut b) => {
            stats.grown += 1;
            // Stale contents need not survive the move to a larger block.
            b.clear();
            b.reserve_exact(len);
            b
        }
        None => {
            stats.fresh += 1;
            Vec::with_capacity(len)
        }
    }
}

/// Returns `buf` to `pool`, keeping the pool sorted ascending by capacity.
fn give_back<T>(pool: &mut Vec<Vec<T>>, buf: Vec<T>) {
    if buf.capacity() == 0 {
        return;
    }
    let at = pool.partition_point(|b| b.capacity() < buf.capacity());
    pool.insert(at, buf);
}

/// The buffer pool a [`Tape`](crate::Tape) owns across
/// [`reset`](crate::Tape::reset) calls.
#[derive(Debug, Default)]
pub(crate) struct TapeArena {
    free_f32: Vec<Vec<f32>>,
    free_u32: Vec<Vec<u32>>,
    /// Pooled backing for the [`Gradients`](crate::Gradients) slot table.
    pub(crate) grad_slots: Vec<Option<crate::Tensor>>,
    stats: ArenaStats,
}

impl TapeArena {
    /// Cleared `f32` buffer with capacity for at least `len` elements.
    pub(crate) fn take_f32(&mut self, len: usize) -> Vec<f32> {
        let mut b = take_from(&mut self.free_f32, len, &mut self.stats);
        b.clear();
        b
    }

    /// Cleared `u32` buffer with capacity for at least `len` elements.
    pub(crate) fn take_u32(&mut self, len: usize) -> Vec<u32> {
        let mut b = take_from(&mut self.free_u32, len, &mut self.stats);
        b.clear();
        b
    }

    /// `f32` buffer of exactly `len` elements with **unspecified
    /// contents** (whatever the pooled buffer last held, zeros beyond
    /// that): for outputs a kernel overwrites in full, which makes
    /// [`TapeArena::zeroed_f32`]'s fill a wasted pass over the buffer.
    pub(crate) fn stale_f32(&mut self, len: usize) -> Vec<f32> {
        let mut b = take_from(&mut self.free_f32, len, &mut self.stats);
        b.resize(len, 0.0);
        b
    }

    /// Zero-filled `f32` buffer of exactly `len` elements.
    pub(crate) fn zeroed_f32(&mut self, len: usize) -> Vec<f32> {
        let mut b = self.take_f32(len);
        b.resize(len, 0.0);
        b
    }

    /// Pooled copy of `src`.
    pub(crate) fn copy_f32(&mut self, src: &[f32]) -> Vec<f32> {
        let mut b = self.take_f32(src.len());
        b.extend_from_slice(src);
        b
    }

    /// Pooled copy of `src`.
    pub(crate) fn copy_u32(&mut self, src: &[u32]) -> Vec<u32> {
        let mut b = self.take_u32(src.len());
        b.extend_from_slice(src);
        b
    }

    /// Pooled tensor with every element set to `v`.
    pub(crate) fn filled_tensor(&mut self, rows: usize, cols: usize, v: f32) -> crate::Tensor {
        let mut data = self.take_f32(rows * cols);
        data.resize(rows * cols, v);
        crate::Tensor::from_raw(rows, cols, data)
    }

    /// Pooled copy of `t`.
    pub(crate) fn copy_tensor(&mut self, t: &crate::Tensor) -> crate::Tensor {
        let (rows, cols) = t.shape();
        let data = self.copy_f32(t.data());
        crate::Tensor::from_raw(rows, cols, data)
    }

    /// Returns an `f32` buffer to the pool.
    pub(crate) fn recycle_f32(&mut self, buf: Vec<f32>) {
        give_back(&mut self.free_f32, buf);
    }

    /// Returns a `u32` buffer to the pool.
    pub(crate) fn recycle_u32(&mut self, buf: Vec<u32>) {
        give_back(&mut self.free_u32, buf);
    }

    /// Returns a tensor's backing storage to the pool.
    pub(crate) fn recycle_tensor(&mut self, t: crate::Tensor) {
        self.recycle_f32(t.into_data());
    }

    /// Allocation counters since the arena was created.
    pub(crate) fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Bytes of backing capacity currently parked in the free lists and
    /// the pooled gradient slot table.
    pub(crate) fn pooled_bytes(&self) -> usize {
        let f: usize = self.free_f32.iter().map(|b| b.capacity() * 4).sum();
        let u: usize = self.free_u32.iter().map(|b| b.capacity() * 4).sum();
        let slots =
            self.grad_slots.capacity() * std::mem::size_of::<Option<crate::Tensor>>();
        f + u + slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut a = TapeArena::default();
        a.recycle_f32(Vec::with_capacity(100));
        a.recycle_f32(Vec::with_capacity(10));
        a.recycle_f32(Vec::with_capacity(50));
        let b = a.take_f32(30);
        assert_eq!(b.capacity(), 50, "smallest buffer that fits");
        assert_eq!(a.stats().reused, 1);
        assert_eq!(a.stats().allocations(), 0);
    }

    #[test]
    fn grows_largest_when_nothing_fits() {
        let mut a = TapeArena::default();
        a.recycle_f32(Vec::with_capacity(10));
        a.recycle_f32(Vec::with_capacity(40));
        let b = a.take_f32(64);
        assert_eq!(b.capacity(), 64, "grown to the request, not doubled");
        assert_eq!(a.stats().grown, 1);
        // The smaller buffer is still pooled.
        assert_eq!(a.take_f32(10).capacity(), 10);
    }

    #[test]
    fn far_smaller_buffers_are_left_alone() {
        let mut a = TapeArena::default();
        a.recycle_f32(Vec::with_capacity(10));
        a.recycle_f32(Vec::with_capacity(20));
        let b = a.take_f32(64);
        assert_eq!(b.capacity(), 64);
        assert_eq!((a.stats().fresh, a.stats().grown), (1, 0));
        assert_eq!(a.pooled_bytes(), 30 * 4, "both small buffers stay pooled");
    }

    #[test]
    fn steady_state_reuses_everything() {
        let mut a = TapeArena::default();
        for _ in 0..3 {
            let x = a.zeroed_f32(128);
            let y = a.copy_f32(&[1.0; 64]);
            a.recycle_f32(x);
            a.recycle_f32(y);
        }
        let s = a.stats();
        assert_eq!(s.fresh, 2, "one fresh allocation per distinct size");
        assert_eq!(s.grown, 0);
        assert_eq!(s.reused, 4);
    }

    #[test]
    fn zero_length_requests_bypass_the_pool() {
        let mut a = TapeArena::default();
        let b = a.take_f32(0);
        assert_eq!(b.capacity(), 0);
        assert_eq!(a.stats(), ArenaStats::default());
        a.recycle_f32(b);
        assert_eq!(a.pooled_bytes(), 0);
    }
}
