// Fixture: the same pass with the output buffer hoisted out of the layer
// loop and cleared per layer, and every chunk's input written into one
// reused buffer.
fn evaluate(layers: &[Layer], rows: Vec<f32>, dsts: &[u32], width: usize) -> Vec<f32> {
    let mut rows = rows;
    let mut next = Vec::new();
    let mut input = Vec::with_capacity(1024 * width);
    for layer in layers {
        next.clear();
        for chunk in dsts.chunks(1024) {
            input.clear();
            copy_rows(chunk, &rows, width, &mut input);
            next.extend_from_slice(&layer.run(&input));
        }
        std::mem::swap(&mut rows, &mut next);
    }
    rows
}
