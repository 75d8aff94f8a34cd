// Fixture: an FM refinement pass loop that allocates its lock flags and
// move log afresh on every pass.
fn refine(graph: &WorkGraph, side: &mut [u8], passes: usize) {
    let n = graph.len();
    for _pass in 0..passes {
        let mut locked = vec![false; n];
        let mut moves: Vec<u32> = Vec::new();
        while let Some(v) = best_move(graph, side, &locked) {
            side[v] = 1 - side[v];
            locked[v] = true;
            moves.push(v as u32);
        }
        roll_back(side, &moves);
    }
}
