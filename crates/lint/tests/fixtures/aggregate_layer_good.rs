// Fixture: the same pass with the gradient buffer drawn from the tape's
// arena (and the spent gradient returned to it), and the row count
// narrowed through `try_from`.
pub fn backward(
    nodes: &[Node],
    grads: &mut [Option<Tensor>],
    arena: &mut TapeArena,
    pool: &ThreadPool,
) {
    for id in (0..nodes.len()).rev() {
        let Op::Aggregate { a, src, dst, coeff } = &nodes[id].op else { continue };
        let Some(grad) = grads[id].take() else { continue };
        let (n, m) = nodes[a.0].value.shape();
        let rows = u32::try_from(n).expect("row ids are u32");
        assert!(src.iter().all(|&s| s < rows), "source row out of range");
        let mut da = arena.zeroed_f32(n * m);
        segment::aggregate(grad.data(), m, dst, src, coeff, &mut da, pool);
        grads[a.0] = Some(Tensor::from_raw(n, m, da));
        arena.recycle_tensor(grad);
    }
}
