// Fixture: the same pass loop with both buffers allocated once and reset
// at the top of every pass.
fn refine(graph: &WorkGraph, side: &mut [u8], passes: usize) {
    let n = graph.len();
    let mut locked = vec![false; n];
    let mut moves: Vec<u32> = Vec::new();
    for _pass in 0..passes {
        locked.fill(false);
        moves.clear();
        while let Some(v) = best_move(graph, side, &locked) {
            side[v] = 1 - side[v];
            locked[v] = true;
            moves.push(v as u32);
        }
        roll_back(side, &moves);
    }
}
