use crate::{Graph, NodeId};

/// Connected-component labels (0-based, in order of discovery) and the
/// number of components.
///
/// # Examples
///
/// ```
/// use splpg_graph::{connected_components, Graph};
/// # fn main() -> Result<(), splpg_graph::GraphError> {
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2)])?;
/// let (labels, count) = connected_components(&g);
/// assert_eq!(labels, vec![0, 0, 0, 1]);
/// assert_eq!(count, 2);
/// # Ok(())
/// # }
/// ```
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let n = graph.num_nodes();
    let mut label = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut stack = Vec::new();
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = next;
        stack.push(start as NodeId);
        while let Some(v) = stack.pop() {
            for &u in graph.neighbors(v) {
                if label[u as usize] == usize::MAX {
                    label[u as usize] = next;
                    stack.push(u);
                }
            }
        }
        next += 1;
    }
    (label, next)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_count() {
        // 0-1-2-3 path plus isolated 4; 5-6 separate component.
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (5, 6)]).unwrap();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[4]);
        assert_eq!(labels[5], labels[6]);
    }
}
