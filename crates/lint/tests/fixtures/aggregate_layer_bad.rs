// Fixture: a backward pass through the fused `aggregate` op that takes
// each gradient buffer from the heap, once per node, and narrows a row
// count with `as`.
pub fn backward(nodes: &[Node], grads: &mut [Option<Tensor>], pool: &ThreadPool) {
    for id in (0..nodes.len()).rev() {
        let Op::Aggregate { a, src, dst, coeff } = &nodes[id].op else { continue };
        let Some(grad) = grads[id].take() else { continue };
        let (n, m) = nodes[a.0].value.shape();
        let rows = n as u32;
        assert!(src.iter().all(|&s| s < rows), "source row out of range");
        let mut da = vec![0.0f32; n * m];
        segment::aggregate(grad.data(), m, dst, src, coeff, &mut da, pool);
        grads[a.0] = Some(Tensor::from_raw(n, m, da));
    }
}
