use splpg_rng::Rng;

use crate::arena::{ArenaStats, TapeArena};
use crate::kernels::{self, ConcatDims};
use crate::segment;
use crate::Tensor;

/// Handle to a value recorded on a [`Tape`].
///
/// `Var`s are indices into the tape's arena; they are `Copy` and only valid
/// for the tape that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// Gradients produced by [`Tape::backward`], addressable by [`Var`].
///
/// Only **leaves** hold a gradient here. The gradient of an interior node
/// is transient: [`Tape::backward`] returns its storage to the arena as
/// soon as the node has been differentiated through, so `get`/`take` on
/// an op's output yield `None`.
///
/// Hand the struct back to [`Tape::recycle_gradients`] once the wanted
/// gradients have been taken, so the next step reuses its storage.
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss with respect to the leaf `var`, if it needs
    /// one (see [`Tape::leaf_with`]) and participated in the loss.
    pub fn get(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }

    /// Takes ownership of the gradient for `var`.
    pub fn take(&mut self, var: Var) -> Option<Tensor> {
        self.grads.get_mut(var.0).and_then(|g| g.take())
    }
}

/// One recorded operation and how to backpropagate through it.
#[derive(Debug)]
enum Op {
    Leaf,
    MatMul { a: Var, b: Var },
    /// `[a[..n] ‖ b] · w + bias` with `n = rows(b)`, or `a · w + bias`.
    Linear { a: Var, b: Option<Var>, w: Var, bias: Var },
    Add { a: Var, b: Var },
    Mul { a: Var, b: Var },
    AddBias { a: Var, bias: Var },
    Relu { a: Var },
    LeakyRelu { a: Var, slope: f32 },
    Dropout { a: Var, mask: Vec<f32> },
    ConcatCols { a: Var, b: Var },
    GatherRows { a: Var, idx: Vec<u32> },
    SegmentSum { a: Var, seg: Vec<u32> },
    /// `scale` holds one factor per output row, or nothing for a plain sum.
    Aggregate { a: Var, src: Vec<u32>, dst: Vec<u32>, coeff: Vec<f32>, scale: Vec<f32> },
    ScaleRows { a: Var, factors: Vec<f32> },
    MulColBroadcast { a: Var, col: Var },
    SegmentSoftmax { a: Var, seg: Vec<u32> },
    RowSum { a: Var },
    SumAll { a: Var },
    BceWithLogits { a: Var, targets: Vec<f32> },
}

impl Op {
    /// The vars this op reads; a leaf reads none.
    fn inputs(&self) -> [Option<Var>; 4] {
        match self {
            Op::Leaf => [None; 4],
            Op::Linear { a, b, w, bias } => [Some(*a), *b, Some(*w), Some(*bias)],
            Op::MatMul { a, b }
            | Op::Add { a, b }
            | Op::Mul { a, b }
            | Op::ConcatCols { a, b }
            | Op::AddBias { a, bias: b }
            | Op::MulColBroadcast { a, col: b } => [Some(*a), Some(*b), None, None],
            Op::Relu { a }
            | Op::LeakyRelu { a, .. }
            | Op::Dropout { a, .. }
            | Op::GatherRows { a, .. }
            | Op::SegmentSum { a, .. }
            | Op::Aggregate { a, .. }
            | Op::ScaleRows { a, .. }
            | Op::SegmentSoftmax { a, .. }
            | Op::RowSum { a }
            | Op::SumAll { a }
            | Op::BceWithLogits { a, .. } => [Some(*a), None, None, None],
        }
    }

    /// Returns the metadata buffers only the backward pass reads (gather
    /// indices, segment ids, masks, factors) to the arena.
    fn release_meta(&mut self, arena: &mut TapeArena) {
        match self {
            Op::Dropout { mask: f, .. }
            | Op::ScaleRows { factors: f, .. }
            | Op::BceWithLogits { targets: f, .. } => arena.recycle_f32(std::mem::take(f)),
            Op::GatherRows { idx: u, .. }
            | Op::SegmentSum { seg: u, .. }
            | Op::SegmentSoftmax { seg: u, .. } => arena.recycle_u32(std::mem::take(u)),
            Op::Aggregate { src, dst, coeff, scale, .. } => {
                arena.recycle_u32(std::mem::take(src));
                arena.recycle_u32(std::mem::take(dst));
                arena.recycle_f32(std::mem::take(coeff));
                arena.recycle_f32(std::mem::take(scale));
            }
            _ => {}
        }
    }

    /// Elements of backing capacity held by the metadata buffers.
    fn meta_capacity(&self) -> usize {
        match self {
            Op::Dropout { mask: f, .. }
            | Op::ScaleRows { factors: f, .. }
            | Op::BceWithLogits { targets: f, .. } => f.capacity(),
            Op::GatherRows { idx: u, .. }
            | Op::SegmentSum { seg: u, .. }
            | Op::SegmentSoftmax { seg: u, .. } => u.capacity(),
            Op::Aggregate { src, dst, coeff, scale, .. } => {
                src.capacity() + dst.capacity() + coeff.capacity() + scale.capacity()
            }
            _ => 0,
        }
    }
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    op: Op,
    /// Whether the loss gradient with respect to this node is ever read:
    /// fixed when the node is recorded, `true` for [`Tape::leaf`] /
    /// [`Tape::leaf_copy`], `false` for [`Tape::leaf_with`], and for an op
    /// the OR over its inputs.
    needs_grad: bool,
}

/// Arena-based reverse-mode autograd tape.
///
/// Record operations through its methods, then call [`Tape::backward`] on
/// the scalar loss. The tape owns all intermediate values; leaves are
/// snapshots of parameters or inputs.
///
/// Trainers hold **one tape across steps**: [`Tape::reset`] clears the
/// recorded graph while keeping every backing buffer pooled in the
/// tape's arena, so step N+1 reuses step N's memory and the steady-state
/// step performs no heap allocation ([`Tape::arena_stats`] proves it).
/// The aggregation ops (`aggregate`, `gather_rows`, `segment_sum`,
/// `segment_softmax`, row-wise elementwise) fan out over the global
/// [`splpg_par`] pool with outputs bit-identical to the scalar kernels at
/// any thread count.
///
/// Every node carries a `needs_grad` bit fixed at record time: parameter
/// leaves ([`Tape::leaf`], [`Tape::leaf_copy`]) need a gradient, constant
/// inputs ([`Tape::leaf_with`]) do not, and an op needs one iff any of its
/// inputs does. [`Tape::backward`] computes nothing for a node whose bit
/// is clear, and a node recorded with a clear bit keeps no backward
/// metadata.
///
/// # Examples
///
/// ```
/// use splpg_tensor::{Tape, Tensor};
/// let mut t = Tape::new();
/// let x = t.leaf(Tensor::from_vec(2, 1, vec![3.0, -1.0]).unwrap());
/// let y = t.relu(x);
/// let loss = t.sum_all(y);
/// let grads = t.backward(loss);
/// assert_eq!(grads.get(x).unwrap().data(), &[1.0, 0.0]);
/// // Reuse the tape for the next step without reallocating:
/// t.recycle_gradients(grads);
/// t.reset();
/// ```
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    arena: TapeArena,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::new(), arena: TapeArena::default() }
    }

    /// Clears the recorded graph while keeping every backing buffer —
    /// values, op metadata, node table — pooled in the tape's arena for
    /// the next step.
    pub fn reset(&mut self) {
        let Tape { nodes, arena } = self;
        for mut node in nodes.drain(..) {
            node.op.release_meta(arena);
            arena.recycle_tensor(node.value);
        }
    }

    /// Returns a tensor's backing storage to the tape's arena (e.g.
    /// parameter gradients after the optimizer step consumed them).
    pub fn recycle(&mut self, t: Tensor) {
        self.arena.recycle_tensor(t);
    }

    /// Returns a [`Gradients`] table and all gradients still inside it to
    /// the arena, so the next [`Tape::backward`] reuses the storage.
    pub fn recycle_gradients(&mut self, mut g: Gradients) {
        for slot in g.grads.iter_mut() {
            if let Some(t) = slot.take() {
                self.arena.recycle_tensor(t);
            }
        }
        g.grads.clear();
        if g.grads.capacity() > self.arena.grad_slots.capacity() {
            self.arena.grad_slots = g.grads;
        }
    }

    /// Allocation counters for the tape's arena; the per-step delta of
    /// [`ArenaStats::allocations`] is zero once shapes have warmed up.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Bytes of backing capacity the tape currently holds: live node
    /// values and metadata, pooled free buffers, and the node/gradient
    /// tables. Stable across steps once shapes have warmed up.
    pub fn backing_bytes(&self) -> usize {
        let mut total = self.arena.pooled_bytes();
        total += self.nodes.capacity() * std::mem::size_of::<Node>();
        for node in &self.nodes {
            total += 4 * (node.value.data_capacity() + node.op.meta_capacity());
        }
        total
    }

    /// Current value of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` belongs to a different tape.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value
    }

    fn push_leaf(&mut self, value: Tensor, needs_grad: bool) -> Var {
        self.nodes.push(Node { value, op: Op::Leaf, needs_grad });
        Var(self.nodes.len() - 1)
    }

    fn push(&mut self, value: Tensor, mut op: Op) -> Var {
        let needs_grad = op.inputs().iter().flatten().any(|v| self.nodes[v.0].needs_grad);
        if !needs_grad {
            // Backward never visits this node.
            op.release_meta(&mut self.arena);
        }
        self.nodes.push(Node { value, op, needs_grad });
        Var(self.nodes.len() - 1)
    }

    /// Records a parameter leaf — one [`Tape::backward`] produces a
    /// gradient for — taking ownership of `value`.
    ///
    /// Prefer [`Tape::leaf_copy`] / [`Tape::leaf_with`] inside training
    /// loops: a moved-in tensor was allocated outside the arena, so its
    /// storage joins the pool on [`Tape::reset`] and the pool grows by
    /// one buffer per step instead of reaching a fixed point.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push_leaf(value, true)
    }

    /// Records a parameter leaf holding a pooled copy of `value` — the
    /// zero-realloc way to feed parameters into the tape every step.
    pub fn leaf_copy(&mut self, value: &Tensor) -> Var {
        let v = self.arena.copy_tensor(value);
        self.push_leaf(v, true)
    }

    /// Records a `rows x cols` **constant** leaf whose contents are
    /// produced by `fill` into a cleared pooled buffer (e.g. a feature
    /// gather writing straight into the arena). Nothing reads the
    /// gradient of an input, so [`Tape::backward`] computes none for it —
    /// nor for any op that depends on constants only.
    ///
    /// # Panics
    ///
    /// Panics if `fill` doesn't leave exactly `rows * cols` elements.
    pub fn leaf_with(
        &mut self,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut Vec<f32>),
    ) -> Var {
        let mut buf = self.arena.take_f32(rows * cols);
        fill(&mut buf);
        assert_eq!(buf.len(), rows * cols, "leaf_with fill length");
        self.push_leaf(Tensor::from_raw(rows, cols, buf), false)
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (n, _) = self.value(a).shape();
        let (_, m) = self.value(b).shape();
        let mut out = self.arena.zeroed_f32(n * m);
        self.value(a).matmul_into(self.value(b), &mut out);
        self.push(Tensor::from_raw(n, m, out), Op::MatMul { a, b })
    }

    /// The affine map `x · w + bias` as one op (`bias` is `[1, m]`):
    /// bit-identical, forward and backward, to `add_bias(matmul(x, w),
    /// bias)` without the intermediate product on the tape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn linear(&mut self, x: Var, w: Var, bias: Var) -> Var {
        self.record_linear(x, None, w, bias)
    }

    /// `[a[..n] ‖ b] · w + bias` with `n = rows(b)`: the affine map of
    /// `a`'s first `n` rows with `b` beside them, without building the
    /// row prefix or the concatenation (`w` is `[cols(a) + cols(b), m]`,
    /// `bias` is `[1, m]`). A GraphSAGE layer's `W · [h_v ‖ mean] + b`
    /// (a block's destinations are a prefix of its sources) and the MLP
    /// scorer's first layer over `[h_u ‖ h_v]` (`n = rows(a)`).
    ///
    /// Forward, weight gradient and input gradients are each one
    /// fork-join over both operands, and bit-identical to
    /// `add_bias(matmul(concat_cols(gather_rows(a, 0..n), b), w), bias)` (see
    /// [`kernels::concat_matmul_into`]). `a`'s gradient is zero below the
    /// prefix.
    ///
    /// # Panics
    ///
    /// Panics if `a` has fewer rows than `b` or the shapes disagree.
    pub fn concat_linear(&mut self, a: Var, b: Var, w: Var, bias: Var) -> Var {
        self.record_linear(a, Some(b), w, bias)
    }

    /// `[a[..n] ‖ b] · w + bias` with `n = rows(b)`, or `rows(a)` without
    /// `b`.
    fn record_linear(&mut self, a: Var, b: Option<Var>, w: Var, bias: Var) -> Var {
        let (na, ka) = self.value(a).shape();
        let (n, kb) = b.map_or((na, 0), |b| self.value(b).shape());
        let (kw, m) = self.value(w).shape();
        assert!(n <= na, "linear prefix of {n} rows from {na}");
        assert_eq!(kw, ka + kb, "linear weight must have {ka} + {kb} rows, got {kw}");
        let bshape = self.value(bias).shape();
        assert_eq!(bshape, (1, m), "bias must be [1, {m}], got {bshape:?}");
        let mut out = self.arena.zeroed_f32(n * m);
        kernels::concat_matmul_into(
            &self.value(a).data()[..n * ka],
            b.map_or(&[][..], |b| self.value(b).data()),
            self.value(w).data(),
            Some(self.value(bias).data()),
            ConcatDims { n, ka, kb, m },
            &mut out,
        );
        self.push(Tensor::from_raw(n, m, out), Op::Linear { a, b, w, bias })
    }

    /// Records `f` applied element-wise to `a`.
    fn map(&mut self, a: Var, f: impl Fn(f32) -> f32 + Sync, op: Op) -> Var {
        let (n, m) = self.value(a).shape();
        let mut out = self.arena.stale_f32(n * m);
        segment::unary_map(self.value(a).data(), &mut out, f, &splpg_par::global());
        self.push(Tensor::from_raw(n, m, out), op)
    }

    /// Records `f` applied element-wise to the same-shaped `a` and `b`.
    fn zip(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32 + Sync, op: Op) -> Var {
        let (n, m) = self.value(a).shape();
        assert_eq!((n, m), self.value(b).shape(), "element-wise shape mismatch");
        let mut out = self.arena.stale_f32(n * m);
        segment::binary_map(
            self.value(a).data(),
            self.value(b).data(),
            &mut out,
            f,
            &splpg_par::global(),
        );
        self.push(Tensor::from_raw(n, m, out), op)
    }

    /// Element-wise `a + b` (same shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, |x, y| x + y, Op::Add { a, b })
    }

    /// Element-wise `a * b` (same shapes).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, |x, y| x * y, Op::Mul { a, b })
    }

    /// Broadcast row addition: `[n, m] + [1, m]`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `[1, m]`.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let (n, m) = self.value(a).shape();
        let bshape = self.value(bias).shape();
        assert_eq!(bshape, (1, m), "bias must be [1, {m}], got {bshape:?}");
        let mut out = self.arena.stale_f32(n * m);
        segment::add_bias(
            self.value(a).data(),
            self.value(bias).data(),
            &mut out,
            &splpg_par::global(),
        );
        self.push(Tensor::from_raw(n, m, out), Op::AddBias { a, bias })
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.map(a, |x| x.max(0.0), Op::Relu { a })
    }

    /// Leaky ReLU with the given negative slope (GAT uses 0.2).
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        self.map(a, |x| if x > 0.0 { x } else { slope * x }, Op::LeakyRelu { a, slope })
    }

    /// Inverted dropout with keep-probability scaling. A no-op when
    /// `p <= 0`; during evaluation simply don't call it.
    ///
    /// The mask is drawn sequentially (one RNG call per element, in
    /// element order) so the stream is identical at every thread count;
    /// only the mask application fans out.
    ///
    /// # Panics
    ///
    /// Panics if `p >= 1`.
    pub fn dropout<R: Rng + ?Sized>(&mut self, a: Var, p: f32, rng: &mut R) -> Var {
        assert!(p < 1.0, "dropout probability must be < 1, got {p}");
        if p <= 0.0 {
            return a;
        }
        let keep = 1.0 - p;
        let (n, m) = self.value(a).shape();
        let mut mask = self.arena.take_f32(n * m);
        for _ in 0..n * m {
            mask.push(if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 });
        }
        let mut out = self.arena.stale_f32(n * m);
        segment::binary_map(
            self.value(a).data(),
            &mask,
            &mut out,
            |x, mk| x * mk,
            &splpg_par::global(),
        );
        self.push(Tensor::from_raw(n, m, out), Op::Dropout { a, mask })
    }

    /// Column-wise concatenation `[n, m1] ++ [n, m2] -> [n, m1 + m2]`
    /// (GAT's attention heads). A concatenation that only feeds an affine
    /// map is [`Tape::concat_linear`].
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (na, ma) = self.value(a).shape();
        let (nb, mb) = self.value(b).shape();
        assert_eq!(na, nb, "concat_cols row mismatch {na} vs {nb}");
        let mut out = self.arena.stale_f32(na * (ma + mb));
        segment::concat_cols(
            self.value(a).data(),
            ma,
            self.value(b).data(),
            mb,
            &mut out,
            &splpg_par::global(),
        );
        self.push(Tensor::from_raw(na, ma + mb, out), Op::ConcatCols { a, b })
    }

    /// Row gather: output row `i` is `a`'s row `idx[i]`. Rows may repeat
    /// (one gathered row per edge endpoint).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn gather_rows(&mut self, a: Var, idx: &[u32]) -> Var {
        self.gather_rows_with(a, idx.len(), |buf| buf.extend_from_slice(idx))
    }

    /// [`Tape::gather_rows`] with the `len` indices written by `fill`
    /// straight into a cleared pooled buffer, so a per-step index list
    /// never touches the allocator.
    ///
    /// # Panics
    ///
    /// Panics if `fill` doesn't leave exactly `len` indices or one is out
    /// of range.
    pub fn gather_rows_with(
        &mut self,
        a: Var,
        len: usize,
        fill: impl FnOnce(&mut Vec<u32>),
    ) -> Var {
        let (_, m) = self.value(a).shape();
        let mut idx = self.arena.take_u32(len);
        fill(&mut idx);
        assert_eq!(idx.len(), len, "gather_rows_with fill length");
        let mut out = self.arena.stale_f32(len * m);
        segment::gather_rows(self.value(a).data(), m, &idx, &mut out, &splpg_par::global());
        self.push(Tensor::from_raw(len, m, out), Op::GatherRows { a, idx })
    }

    /// Segment sum: output row `s` is the sum of input rows `i` with
    /// `seg[i] == s`.
    ///
    /// # Panics
    ///
    /// Panics if `seg.len()` differs from the row count or a segment id is
    /// `>= num_segments`.
    pub fn segment_sum(&mut self, a: Var, seg: &[u32], num_segments: usize) -> Var {
        let (n, m) = self.value(a).shape();
        assert_eq!(seg.len(), n, "segment ids must cover every row");
        let seg_copy = self.arena.copy_u32(seg);
        let mut out = self.arena.zeroed_f32(num_segments * m);
        segment::segment_sum(self.value(a).data(), m, seg, &mut out, &splpg_par::global());
        self.push(Tensor::from_raw(num_segments, m, out), Op::SegmentSum { a, seg: seg_copy })
    }

    /// Weighted neighborhood aggregation (Eq. (1)) as one op: output row
    /// `d` is `sum_e coeff[e] * h[edge_src[e]]` over the edges with
    /// `edge_dst[e] == d`, accumulated in ascending edge order.
    ///
    /// Bit-identical, forward and backward, to
    /// `segment_sum(scale_rows_with(gather_rows(h, edge_src), coeff),
    /// edge_dst, num_dst)` without the two `[edges, dim]` tensors that composition
    /// records (and the two more its backward pass produces). No gradient
    /// flows to `coeff`.
    ///
    /// # Panics
    ///
    /// Panics if the edge arrays differ in length or an index is out of
    /// range.
    pub fn aggregate(
        &mut self,
        h: Var,
        edge_src: &[u32],
        edge_dst: &[u32],
        coeff: &[f32],
        num_dst: usize,
    ) -> Var {
        self.aggregate_with(h, edge_src.len(), num_dst, |src, dst, c| {
            src.extend_from_slice(edge_src);
            dst.extend_from_slice(edge_dst);
            c.extend_from_slice(coeff);
        })
    }

    /// Weighted neighborhood mean: [`Tape::aggregate`] with output row
    /// `d` divided by `d`'s received weight, the sum of `weight[e]` over
    /// its edges (ascending edge order); a destination with no positive
    /// weight gets a zero row.
    ///
    /// Each row is scaled in place once its sum is complete, so values
    /// and gradients are bit-identical to `scale_rows_with(aggregate(h,
    /// edge_src, edge_dst, weight, num_dst), 1/Σw)` without the second
    /// `[num_dst, dim]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the edge arrays differ in length or an index is out of
    /// range.
    pub fn aggregate_mean(
        &mut self,
        h: Var,
        edge_src: &[u32],
        edge_dst: &[u32],
        weight: &[f32],
        num_dst: usize,
    ) -> Var {
        let mut scale = self.arena.take_f32(num_dst);
        scale.resize(num_dst, 0.0);
        for (&d, &w) in edge_dst.iter().zip(weight) {
            scale[d as usize] += w;
        }
        for s in scale.iter_mut() {
            *s = if *s > 0.0 { 1.0 / *s } else { 0.0 };
        }
        self.record_aggregate(h, edge_src.len(), num_dst, scale, |src, dst, c| {
            src.extend_from_slice(edge_src);
            dst.extend_from_slice(edge_dst);
            c.extend_from_slice(weight);
        })
    }

    /// [`Tape::aggregate`] with the edge list written by `fill(edge_src,
    /// edge_dst, coeff)` straight into cleared pooled buffers with room
    /// for `num_edges` entries each (e.g. GCN appending its self-loops
    /// and normalization without per-step `Vec`s).
    ///
    /// # Panics
    ///
    /// Panics if `fill` leaves arrays of different lengths or an index is
    /// out of range.
    pub fn aggregate_with(
        &mut self,
        h: Var,
        num_edges: usize,
        num_dst: usize,
        fill: impl FnOnce(&mut Vec<u32>, &mut Vec<u32>, &mut Vec<f32>),
    ) -> Var {
        self.record_aggregate(h, num_edges, num_dst, Vec::new(), fill)
    }

    /// Records an `Aggregate` whose output rows are scaled by `scale`, or
    /// left as sums when `scale` is empty.
    fn record_aggregate(
        &mut self,
        h: Var,
        num_edges: usize,
        num_dst: usize,
        scale: Vec<f32>,
        fill: impl FnOnce(&mut Vec<u32>, &mut Vec<u32>, &mut Vec<f32>),
    ) -> Var {
        let (_, m) = self.value(h).shape();
        let mut src = self.arena.take_u32(num_edges);
        let mut dst = self.arena.take_u32(num_edges);
        let mut coeff = self.arena.take_f32(num_edges);
        fill(&mut src, &mut dst, &mut coeff);
        let mut out = self.arena.zeroed_f32(num_dst * m);
        segment::aggregate(
            self.value(h).data(),
            m,
            &src,
            &dst,
            &coeff,
            (!scale.is_empty()).then_some(&scale[..]),
            &mut out,
            &splpg_par::global(),
        );
        let op = Op::Aggregate { a: h, src, dst, coeff, scale };
        self.push(Tensor::from_raw(num_dst, m, out), op)
    }

    /// Multiplies row `i` by the constant factor `fill` writes for it into
    /// a cleared pooled buffer with room for one factor per row (no
    /// gradient flows to the factors — they encode normalization
    /// coefficients). No model records it: it is the oracle
    /// [`Tape::aggregate_mean`] is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `fill` doesn't leave exactly one factor per row.
    pub fn scale_rows_with(&mut self, a: Var, fill: impl FnOnce(&mut Vec<f32>)) -> Var {
        let (n, m) = self.value(a).shape();
        let mut factors = self.arena.take_f32(n);
        fill(&mut factors);
        assert_eq!(factors.len(), n, "one factor per row required");
        let mut out = self.arena.stale_f32(n * m);
        segment::row_scale(self.value(a).data(), m, &factors, &mut out, &splpg_par::global());
        self.push(Tensor::from_raw(n, m, out), Op::ScaleRows { a, factors })
    }

    /// Multiplies each row of `a` (`[n, m]`) by the matching entry of the
    /// differentiable column `col` (`[n, 1]`) — attention weighting.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn mul_col_broadcast(&mut self, a: Var, col: Var) -> Var {
        let (n, m) = self.value(a).shape();
        assert_eq!(self.value(col).shape(), (n, 1), "col must be [{n}, 1]");
        let mut out = self.arena.stale_f32(n * m);
        segment::row_scale(
            self.value(a).data(),
            m,
            self.value(col).data(),
            &mut out,
            &splpg_par::global(),
        );
        self.push(Tensor::from_raw(n, m, out), Op::MulColBroadcast { a, col })
    }

    /// Numerically-stable softmax over segments of a `[n, 1]` column:
    /// entries sharing a segment id are normalized together (GAT attention
    /// over each destination's incoming edges).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a column or `seg.len()` mismatches.
    pub fn segment_softmax(&mut self, a: Var, seg: &[u32], num_segments: usize) -> Var {
        let (n, m) = self.value(a).shape();
        assert_eq!(m, 1, "segment_softmax expects a column tensor");
        assert_eq!(seg.len(), n, "segment ids must cover every row");
        let seg_copy = self.arena.copy_u32(seg);
        let mut max = self.arena.take_f32(num_segments);
        max.resize(num_segments, f32::NEG_INFINITY);
        let mut denom = self.arena.zeroed_f32(num_segments);
        let mut out = self.arena.stale_f32(n);
        segment::segment_softmax(
            self.value(a).data(),
            seg,
            &mut max,
            &mut denom,
            &mut out,
            &splpg_par::global(),
        );
        self.arena.recycle_f32(max);
        self.arena.recycle_f32(denom);
        self.push(Tensor::from_raw(n, 1, out), Op::SegmentSoftmax { a, seg: seg_copy })
    }

    /// Row-wise sum `[n, m] -> [n, 1]` (dot-product edge scores).
    pub fn row_sum(&mut self, a: Var) -> Var {
        let (n, m) = self.value(a).shape();
        let mut out = self.arena.stale_f32(n);
        segment::row_sums(self.value(a).data(), m, &mut out, &splpg_par::global());
        self.push(Tensor::from_raw(n, 1, out), Op::RowSum { a })
    }

    /// Sum of all elements as a `[1, 1]` scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = self.value(a).sum();
        let t = self.arena.filled_tensor(1, 1, v);
        self.push(t, Op::SumAll { a })
    }

    /// Mean binary cross-entropy between logits `a` (`[n, 1]`) and 0/1
    /// `targets`, computed in the numerically-stable fused form
    /// `max(z, 0) - z t + ln(1 + e^{-|z|})`.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch or `a` is empty.
    pub fn bce_with_logits(&mut self, a: Var, targets: &[f32]) -> Var {
        let (n, m) = self.value(a).shape();
        assert_eq!(m, 1, "logits must be a column");
        assert_eq!(targets.len(), n, "one target per logit");
        assert!(n > 0, "empty logits");
        let z = self.value(a).data();
        let mut total = 0.0f64;
        for (&zi, &ti) in z.iter().zip(targets) {
            let loss = zi.max(0.0) - zi * ti + (1.0 + (-zi.abs()).exp()).ln();
            total += loss as f64;
        }
        let t_copy = self.arena.copy_f32(targets);
        let v = self.arena.filled_tensor(1, 1, (total / n as f64) as f32);
        self.push(v, Op::BceWithLogits { a, targets: t_copy })
    }

    /// Runs reverse-mode differentiation from the scalar `loss` node and
    /// returns the gradients of the leaves that need one (backed by
    /// pooled arena storage; return them via [`Tape::recycle_gradients`]).
    ///
    /// Work follows the record-time `needs_grad` bits: an input whose bit
    /// is clear gets no gradient and costs nothing — the matmul half,
    /// concat split or scatter that would have produced it is skipped —
    /// and the gradient of an interior node goes back to the arena the
    /// moment the node has been differentiated through, so the pass holds
    /// one frontier of gradients rather than one per node.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a `[1, 1]` scalar.
    pub fn backward(&mut self, loss: Var) -> Gradients {
        assert_eq!(self.value(loss).shape(), (1, 1), "backward expects a scalar loss");
        let mut grads = std::mem::take(&mut self.arena.grad_slots);
        grads.clear();
        grads.resize_with(self.nodes.len(), || None);
        if self.nodes[loss.0].needs_grad {
            grads[loss.0] = Some(self.arena.filled_tensor(1, 1, 1.0));
        }
        let mut pass = Backward { nodes: &self.nodes, arena: &mut self.arena, grads: &mut grads };
        for id in (0..=loss.0).rev() {
            if let Some(grad) = pass.grads[id].take() {
                pass.step(id, grad);
            }
        }
        Gradients { grads }
    }
}

/// The state of one [`Tape::backward`] pass.
struct Backward<'a> {
    nodes: &'a [Node],
    arena: &'a mut TapeArena,
    grads: &'a mut [Option<Tensor>],
}

impl Backward<'_> {
    fn needs(&self, var: Var) -> bool {
        self.nodes[var.0].needs_grad
    }

    /// Accumulates `delta` into `var`'s gradient, taking its storage over
    /// when it is the first contribution.
    fn add(&mut self, var: Var, delta: Tensor) {
        match &mut self.grads[var.0] {
            Some(g) => {
                g.axpy(1.0, &delta);
                self.arena.recycle_tensor(delta);
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// Hands `grad` itself on to `var` if it needs a gradient, or back to
    /// the arena.
    fn pass_on(&mut self, var: Var, grad: Tensor) {
        if self.needs(var) {
            self.add(var, grad);
        } else {
            self.arena.recycle_tensor(grad);
        }
    }

    /// `to += f(grad, other)` element-wise, if `to` needs a gradient.
    fn add_zip(
        &mut self,
        to: Var,
        grad: &Tensor,
        other: &[f32],
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) {
        if !self.needs(to) {
            return;
        }
        let (n, m) = grad.shape();
        let mut d = self.arena.stale_f32(n * m);
        segment::binary_map(grad.data(), other, &mut d, f, &splpg_par::global());
        self.add(to, Tensor::from_raw(n, m, d));
    }

    /// The `[1, m]` gradient of a broadcast bias: `grad`'s column sums,
    /// rows in ascending order.
    fn bias_grad(&mut self, grad: &Tensor) -> Tensor {
        let (gn, gm) = grad.shape();
        let mut dbias = self.arena.zeroed_f32(gm);
        for r in 0..gn {
            for (o, &g) in dbias.iter_mut().zip(grad.row(r)) {
                *o += g;
            }
        }
        Tensor::from_raw(1, gm, dbias)
    }

    /// The gradients of `[a[..n] ‖ b] · w` (or `a · w`) for those of `a`,
    /// `b`, `w` that need one: `dw` as the two `tn` halves of one buffer,
    /// `da`'s prefix rows and `db` as the two `nt` blocks of one pass.
    ///
    /// `da` matches what `gather_rows(a, 0..n)`'s backward makes, `0.0 + g` on the
    /// prefix rows and zero below: the `nt` dot starts at `+0.0`, and an
    /// accumulator that starts at `+0.0` never becomes `-0.0`, so writing
    /// it straight into the prefix rows already is `0.0 + g`.
    fn linear_grads(&mut self, a: Var, b: Option<Var>, w: Var, grad: &Tensor) {
        let nodes = self.nodes;
        let (va, vw) = (&nodes[a.0].value, &nodes[w.0].value);
        let vb = b.map_or(&[][..], |b| nodes[b.0].value.data());
        let (na, ka) = va.shape();
        let (n, m) = grad.shape();
        let kb = vw.rows() - ka;
        let a_prefix = &va.data()[..n * ka];
        if self.needs(w) {
            let mut dw = self.arena.zeroed_f32((ka + kb) * m);
            let d = ConcatDims { n, ka, kb, m };
            kernels::concat_matmul_tn_into(a_prefix, vb, grad.data(), d, &mut dw);
            self.add(w, Tensor::from_raw(ka + kb, m, dw));
        }
        let need_a = self.needs(a);
        let need_b = b.is_some_and(|b| self.needs(b));
        if !need_a && !need_b {
            return;
        }
        // A block whose gradient nobody reads is computed zero wide,
        // against the rows of `w` that remain.
        let (ka_out, kb_out) = (if need_a { ka } else { 0 }, if need_b { kb } else { 0 });
        let w_out = &vw.data()[(ka - ka_out) * m..(ka + kb_out) * m];
        let mut da = if need_a { self.arena.stale_f32(na * ka) } else { Vec::new() };
        let mut db = if need_b { self.arena.stale_f32(n * kb) } else { Vec::new() };
        let (prefix, rest) = da.split_at_mut(n * ka_out);
        rest.fill(0.0);
        let d = ConcatDims { n, ka: ka_out, kb: kb_out, m };
        kernels::concat_matmul_nt_into(grad.data(), w_out, d, prefix, &mut db);
        if need_a {
            self.add(a, Tensor::from_raw(na, ka, da));
        }
        if let Some(b) = b.filter(|_| need_b) {
            self.add(b, Tensor::from_raw(n, kb, db));
        }
    }

    /// Propagates `grad`, the finished gradient of node `id`, to the
    /// inputs of its op that need one, then releases it (a leaf keeps
    /// it). Every node that reaches here has `needs_grad` set, so at
    /// least one input of an op does too.
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, id: usize, mut grad: Tensor) {
        let pool = splpg_par::global();
        let nodes = self.nodes;
        let val = |v: &Var| &nodes[v.0].value;
        match &nodes[id].op {
            Op::Leaf => {
                self.grads[id] = Some(grad);
                return;
            }
            Op::MatMul { a, b } => {
                if self.needs(*a) {
                    let (ar, ac) = val(a).shape();
                    let mut da = self.arena.stale_f32(ar * ac);
                    grad.matmul_nt_into(val(b), &mut da);
                    self.add(*a, Tensor::from_raw(ar, ac, da));
                }
                if self.needs(*b) {
                    let (br, bc) = val(b).shape();
                    let mut db = self.arena.zeroed_f32(br * bc);
                    val(a).matmul_tn_into(&grad, &mut db);
                    self.add(*b, Tensor::from_raw(br, bc, db));
                }
            }
            Op::Add { a, b } => {
                if self.needs(*a) && self.needs(*b) {
                    let da = self.arena.copy_tensor(&grad);
                    self.add(*a, da);
                }
                let last = if self.needs(*b) { *b } else { *a };
                return self.add(last, grad);
            }
            Op::Mul { a, b } => {
                self.add_zip(*a, &grad, val(b).data(), |g, y| g * y);
                self.add_zip(*b, &grad, val(a).data(), |g, x| g * x);
            }
            Op::AddBias { a, bias } => {
                if self.needs(*bias) {
                    let dbias = self.bias_grad(&grad);
                    self.add(*bias, dbias);
                }
                return self.pass_on(*a, grad);
            }
            Op::Relu { a } => {
                self.add_zip(*a, &grad, val(a).data(), |g, x| if x <= 0.0 { 0.0 } else { g });
            }
            Op::LeakyRelu { a, slope } => {
                let slope = *slope;
                self.add_zip(*a, &grad, val(a).data(), |g, x| if x <= 0.0 { g * slope } else { g });
            }
            Op::Dropout { a, mask } => self.add_zip(*a, &grad, mask, |g, mk| g * mk),
            Op::ConcatCols { a, b } => {
                let (n, ma) = val(a).shape();
                let (_, mb) = val(b).shape();
                if self.needs(*a) {
                    let mut da = self.arena.stale_f32(n * ma);
                    for (r, d) in da.chunks_exact_mut(ma.max(1)).enumerate() {
                        d.copy_from_slice(&grad.row(r)[..ma]);
                    }
                    self.add(*a, Tensor::from_raw(n, ma, da));
                }
                if self.needs(*b) {
                    let mut db = self.arena.stale_f32(n * mb);
                    for (r, d) in db.chunks_exact_mut(mb.max(1)).enumerate() {
                        d.copy_from_slice(&grad.row(r)[ma..]);
                    }
                    self.add(*b, Tensor::from_raw(n, mb, db));
                }
            }
            Op::Linear { a, b, w, bias } => {
                if self.needs(*bias) {
                    let dbias = self.bias_grad(&grad);
                    self.add(*bias, dbias);
                }
                self.linear_grads(*a, *b, *w, &grad);
            }
            Op::GatherRows { a, idx } => {
                let (n, m) = val(a).shape();
                let mut da = self.arena.zeroed_f32(n * m);
                segment::gather_rows_grad(grad.data(), m, idx, &mut da, &pool);
                self.add(*a, Tensor::from_raw(n, m, da));
            }
            Op::SegmentSum { a, seg } => {
                let (n, m) = val(a).shape();
                let mut da = self.arena.stale_f32(n * m);
                segment::segment_sum_grad(grad.data(), m, seg, &mut da, &pool);
                self.add(*a, Tensor::from_raw(n, m, da));
            }
            Op::Aggregate { a, src, dst, coeff, scale } => {
                // dh[src_e] += coeff_e * (scale ⊙ g)[dst_e]: the forward
                // kernel with the edge direction reversed, after the
                // row scaling's own backward.
                let (n, m) = val(a).shape();
                if !scale.is_empty() {
                    segment::row_scale_in_place(grad.data_mut(), m, scale, &pool);
                }
                let mut da = self.arena.zeroed_f32(n * m);
                segment::aggregate(grad.data(), m, dst, src, coeff, None, &mut da, &pool);
                self.add(*a, Tensor::from_raw(n, m, da));
            }
            Op::ScaleRows { a, factors } => {
                let (n, m) = grad.shape();
                let mut da = self.arena.stale_f32(n * m);
                segment::row_scale(grad.data(), m, factors, &mut da, &pool);
                self.add(*a, Tensor::from_raw(n, m, da));
            }
            Op::MulColBroadcast { a, col } => {
                let (n, m) = val(a).shape();
                if self.needs(*a) {
                    let mut da = self.arena.stale_f32(n * m);
                    segment::row_scale(grad.data(), m, val(col).data(), &mut da, &pool);
                    self.add(*a, Tensor::from_raw(n, m, da));
                }
                if self.needs(*col) {
                    let mut dcol = self.arena.stale_f32(n);
                    segment::row_dot(grad.data(), val(a).data(), m, &mut dcol, &pool);
                    self.add(*col, Tensor::from_raw(n, 1, dcol));
                }
            }
            Op::SegmentSoftmax { a, seg } => {
                // dx_i = y_i (g_i - sum_{j in segment} y_j g_j)
                let y = nodes[id].value.data();
                let n = y.len();
                let num_segments = seg.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
                let mut seg_dot = self.arena.zeroed_f32(num_segments);
                let mut da = self.arena.stale_f32(n);
                segment::segment_softmax_grad(y, grad.data(), seg, &mut seg_dot, &mut da, &pool);
                self.arena.recycle_f32(seg_dot);
                self.add(*a, Tensor::from_raw(n, 1, da));
            }
            Op::RowSum { a } => {
                let (n, m) = val(a).shape();
                let mut da = self.arena.stale_f32(n * m);
                segment::rows_from_col(grad.data(), m, &mut da, &pool);
                self.add(*a, Tensor::from_raw(n, m, da));
            }
            Op::SumAll { a } => {
                let (n, m) = val(a).shape();
                let da = self.arena.filled_tensor(n, m, grad.get(0, 0));
                self.add(*a, da);
            }
            Op::BceWithLogits { a, targets } => {
                let z = val(a).data();
                let n = z.len() as f32;
                let g = grad.get(0, 0);
                let mut da = self.arena.take_f32(z.len());
                for (&zi, &ti) in z.iter().zip(targets) {
                    da.push(g * (stable_sigmoid(zi) - ti) / n);
                }
                self.add(*a, Tensor::from_raw(z.len(), 1, da));
            }
        }
        self.arena.recycle_tensor(grad);
    }
}

fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::SeedableRng;

    fn t(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn matmul_backward_known() {
        let mut tape = Tape::new();
        let a = tape.leaf(t(1, 2, vec![2.0, 3.0]));
        let b = tape.leaf(t(2, 1, vec![5.0, 7.0]));
        let y = tape.matmul(a, b); // 2*5 + 3*7 = 31
        assert_eq!(tape.value(y).get(0, 0), 31.0);
        let g = tape.backward(y);
        assert_eq!(g.get(a).unwrap().data(), &[5.0, 7.0]);
        assert_eq!(g.get(b).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn add_bias_backward_sums_columns() {
        let mut tape = Tape::new();
        let a = tape.leaf(t(3, 2, vec![0.0; 6]));
        let b = tape.leaf(t(1, 2, vec![1.0, 2.0]));
        let y = tape.add_bias(a, b);
        let s = tape.sum_all(y);
        let g = tape.backward(s);
        assert_eq!(g.get(b).unwrap().data(), &[3.0, 3.0]);
    }

    #[test]
    fn gather_rows_forward_and_backward() {
        let mut tape = Tape::new();
        let a = tape.leaf(t(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let y = tape.gather_rows(a, &[2, 0, 2]);
        assert_eq!(tape.value(y).data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let s = tape.sum_all(y);
        let g = tape.backward(s);
        // Row 2 gathered twice => grad 2, row 0 once, row 1 never.
        assert_eq!(g.get(a).unwrap().data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn segment_sum_forward_and_backward() {
        let mut tape = Tape::new();
        let a = tape.leaf(t(3, 1, vec![1.0, 10.0, 100.0]));
        let y = tape.segment_sum(a, &[1, 0, 1], 2);
        assert_eq!(tape.value(y).data(), &[10.0, 101.0]);
        let s = tape.sum_all(y);
        let g = tape.backward(s);
        assert_eq!(g.get(a).unwrap().data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn segment_softmax_normalizes_per_segment() {
        let mut tape = Tape::new();
        let a = tape.leaf(t(4, 1, vec![1.0, 1.0, 2.0, 0.0]));
        let y = tape.segment_softmax(a, &[0, 0, 1, 1], 2);
        let v = tape.value(y).data();
        assert!((v[0] - 0.5).abs() < 1e-6);
        assert!((v[1] - 0.5).abs() < 1e-6);
        assert!((v[2] + v[3] - 1.0).abs() < 1e-6);
        assert!(v[2] > v[3]);
    }

    #[test]
    fn bce_matches_manual_computation() {
        let mut tape = Tape::new();
        let z = tape.leaf(t(2, 1, vec![0.0, 2.0]));
        let loss = tape.bce_with_logits(z, &[1.0, 0.0]);
        // loss = mean( ln 2 , 2 + ln(1 + e^-2) )
        let expect =
            (std::f32::consts::LN_2 + (2.0 + (1.0f32 + (-2.0f32).exp()).ln())) / 2.0;
        assert!((tape.value(loss).get(0, 0) - expect).abs() < 1e-5);
        let g = tape.backward(loss);
        let gd = g.get(z).unwrap().data().to_vec();
        // d/dz = (sigma(z) - t)/n
        assert!((gd[0] - (0.5 - 1.0) / 2.0).abs() < 1e-6);
        assert!((gd[1] - (stable_sigmoid(2.0) - 0.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn dropout_scales_by_keep_probability() {
        use splpg_rng::SeedableRng;
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(0);
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::ones(100, 10));
        let y = tape.dropout(a, 0.5, &mut rng);
        // E[output] = input; check the mean is near 1.
        let mean = tape.value(y).mean();
        assert!((mean - 1.0).abs() < 0.15, "dropout mean {mean}");
        // Entries are either 0 or 2.
        assert!(tape.value(y).data().iter().all(|&v| v == 0.0 || v == 2.0));
    }

    #[test]
    fn dropout_zero_probability_is_identity() {
        use splpg_rng::SeedableRng;
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(0);
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::ones(2, 2));
        let y = tape.dropout(a, 0.0, &mut rng);
        assert_eq!(y, a);
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let mut tape = Tape::new();
        let a = tape.leaf(t(2, 1, vec![1.0, 2.0]));
        let b = tape.leaf(t(2, 2, vec![3.0, 4.0, 5.0, 6.0]));
        let y = tape.concat_cols(a, b);
        assert_eq!(tape.value(y).data(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
        let s = tape.sum_all(y);
        let g = tape.backward(s);
        assert_eq!(g.get(a).unwrap().shape(), (2, 1));
        assert_eq!(g.get(b).unwrap().shape(), (2, 2));
    }

    #[test]
    fn reuse_of_var_accumulates_gradient() {
        let mut tape = Tape::new();
        let a = tape.leaf(t(1, 1, vec![3.0]));
        let y = tape.mul(a, a); // y = a^2, dy/da = 2a = 6
        let g = tape.backward(y);
        assert_eq!(g.get(a).unwrap().get(0, 0), 6.0);
    }

    #[test]
    fn scale_rows_has_no_factor_gradient() {
        let mut tape = Tape::new();
        let a = tape.leaf(t(2, 2, vec![1.0; 4]));
        let y = tape.scale_rows_with(a, |f| f.extend_from_slice(&[2.0, 3.0]));
        let s = tape.sum_all(y);
        let g = tape.backward(s);
        assert_eq!(g.get(a).unwrap().data(), &[2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let a = tape.leaf(t(2, 1, vec![1.0, 2.0]));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tape.backward(a);
        }));
        assert!(result.is_err());
    }

    /// A two-layer aggregate/linear chain over the input `x`, recorded as
    /// a constant (`leaf_with`) or as a gradient-carrying leaf: a
    /// GraphSAGE-style `[x_v ‖ mean] · w0 + b0`, then a weighted sum and
    /// `· w1`. Returns the input var, the loss, and the two weight vars.
    fn two_layer(tape: &mut Tape, x: &Tensor, ws: [&Tensor; 2], constant: bool) -> [Var; 4] {
        let xv = if constant {
            tape.leaf_with(x.rows(), x.cols(), |buf| buf.extend_from_slice(x.data()))
        } else {
            tape.leaf_copy(x)
        };
        let (w0, w1) = (tape.leaf_copy(ws[0]), tape.leaf_copy(ws[1]));
        let b0 = tape.leaf_with(1, ws[0].cols(), |buf| buf.resize(ws[0].cols(), 0.25));
        let (src, dst) = ([3u32, 1, 4, 1, 5, 2], [0u32, 0, 1, 2, 2, 2]);
        let mean = tape.aggregate_mean(xv, &src, &dst, &[0.5, 0.0, 2.0, 1.0, 0.25, 3.0], 4);
        let h = tape.concat_linear(xv, mean, w0, b0);
        let h = tape.relu(h);
        let agg = tape.aggregate(h, &[1, 3, 0], &[0, 0, 1], &[1.0, 2.0, -0.5], 2);
        let out = tape.matmul(agg, w1);
        let loss = tape.sum_all(out);
        [xv, loss, w0, w1]
    }

    #[test]
    fn constant_inputs_are_pruned_without_touching_parameter_gradients() {
        use splpg_rng::Rng;
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(21);
        let x = Tensor::from_fn(6, 3, |_, _| rng.gen_range(-1.0f32..1.0));
        let w0 = Tensor::from_fn(6, 4, |_, _| rng.gen_range(-1.0f32..1.0));
        let w1 = Tensor::from_fn(4, 2, |_, _| rng.gen_range(-1.0f32..1.0));
        let run = |constant: bool| {
            let mut tape = Tape::new();
            let [xv, loss, v0, v1] = two_layer(&mut tape, &x, [&w0, &w1], constant);
            let mut grads = tape.backward(loss);
            // Interior gradients are transient: only leaves still hold one.
            let held = (0..tape.nodes.len()).filter(|&i| grads.get(Var(i)).is_some());
            let leaves = [xv.0, v0.0, v1.0];
            assert_eq!(held.collect::<Vec<_>>(), leaves[usize::from(constant)..]);
            let dx = grads.take(xv);
            let dw: Vec<Vec<u32>> = [v0, v1]
                .iter()
                .map(|&v| grads.take(v).unwrap().data().iter().map(|g| g.to_bits()).collect())
                .collect();
            (dx, dw)
        };
        let (dx_pruned, dw_pruned) = run(true);
        let (dx_full, dw_full) = run(false);
        assert!(dx_pruned.is_none(), "a leaf_with input must receive no gradient");
        assert!(dx_full.is_some_and(|g| g.norm_sq() > 0.0));
        assert_eq!(dw_pruned, dw_full, "pruning changed a parameter gradient");
    }

    /// One training-like step: forward chain over every op family,
    /// backward, gradient harvest, recycle. Returns the loss.
    fn fake_step(tape: &mut Tape, x: &Tensor, w: &Tensor, seed: u64) -> f32 {
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(seed);
        tape.reset();
        let xv = tape.leaf_copy(x);
        let wv = tape.leaf_copy(w);
        let idx: Vec<u32> = (0..16).map(|i| (i * 7 % x.rows()) as u32).collect();
        let seg: Vec<u32> = (0..16).map(|i| (i % 5) as u32).collect();
        let gathered = tape.gather_rows(xv, &idx);
        let scaled = tape.scale_rows_with(gathered, |f| f.resize(16, 0.5));
        let agg = tape.segment_sum(scaled, &seg, 5);
        let h = tape.matmul(agg, wv);
        let act = tape.relu(h);
        let dropped = tape.dropout(act, 0.3, &mut rng);
        let scores = tape.row_sum(dropped);
        let att_in = tape.scale_rows_with(scores, |f| f.resize(5, 0.1));
        let att = tape.segment_softmax(att_in, &[0, 0, 1, 1, 1], 2);
        let weighted = tape.mul_col_broadcast(dropped, att);
        let logits = tape.row_sum(weighted);
        let loss = tape.bce_with_logits(logits, &[1.0, 0.0, 1.0, 0.0, 1.0]);
        let out = tape.value(loss).get(0, 0);
        let mut grads = tape.backward(loss);
        let gw = grads.take(wv).expect("weight gradient");
        tape.recycle(gw);
        tape.recycle_gradients(grads);
        out
    }

    #[test]
    fn backing_capacity_stable_from_step_two() {
        use splpg_rng::Rng;
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(9);
        let x = Tensor::from_fn(24, 6, |_, _| rng.gen_range(-1.0f32..1.0));
        let w = Tensor::from_fn(6, 6, |_, _| rng.gen_range(-1.0f32..1.0));
        let mut tape = Tape::new();
        let mut bytes = Vec::new();
        let mut allocs = Vec::new();
        for step in 0..6 {
            fake_step(&mut tape, &x, &w, step);
            bytes.push(tape.backing_bytes());
            allocs.push(tape.arena_stats().allocations());
        }
        // Identical shapes every step: backing capacity is a fixed point
        // from step 2 onward, and no step after warm-up allocates.
        assert_eq!(&bytes[1..], &vec![bytes[1]; bytes.len() - 1][..], "capacity plateau {bytes:?}");
        for w in allocs[1..].windows(2) {
            assert_eq!(w[0], w[1], "steady-state step allocated: {allocs:?}");
        }
    }

    #[test]
    fn reused_tape_reproduces_fresh_tape_losses() {
        use splpg_rng::Rng;
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(10);
        let x = Tensor::from_fn(24, 6, |_, _| rng.gen_range(-1.0f32..1.0));
        let w = Tensor::from_fn(6, 6, |_, _| rng.gen_range(-1.0f32..1.0));
        let mut reused = Tape::new();
        for step in 0..4 {
            let a = fake_step(&mut reused, &x, &w, step);
            let mut fresh = Tape::new();
            let b = fake_step(&mut fresh, &x, &w, step);
            assert_eq!(a.to_bits(), b.to_bits(), "step {step}: stale state leaked");
        }
    }
}
