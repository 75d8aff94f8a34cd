// Fixture: a layer-wise evaluation pass that allocates a fresh output
// buffer for every layer and a fresh input buffer for every chunk.
fn evaluate(layers: &[Layer], rows: Vec<f32>, dsts: &[u32], width: usize) -> Vec<f32> {
    let mut rows = rows;
    for layer in layers {
        let mut next = Vec::new();
        for chunk in dsts.chunks(1024) {
            let mut input = vec![0.0; chunk.len() * width];
            copy_rows(chunk, &rows, width, &mut input);
            next.extend_from_slice(&layer.run(&input));
        }
        rows = next;
    }
    rows
}
