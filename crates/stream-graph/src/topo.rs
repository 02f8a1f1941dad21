//! Topological ordering / cycle detection (Kahn's algorithm).

use crate::csr::Csr;

/// Return a topological order of the nodes of the out-adjacency `out`,
/// or `None` if the graph contains a directed cycle. Each node's
/// successors are released in bucket order, so the order is a function
/// of the edge list the buckets were filled from.
pub fn topological_order(out: &Csr) -> Option<Vec<u32>> {
    let n = out.num_nodes();
    let mut indeg = vec![0u32; n];
    for v in 0..n as u32 {
        for &w in out.neighbor_slice(v) {
            indeg[w as usize] += 1;
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    // Process as a FIFO for a BFS-like "wavefront" order (sources first).
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        order.push(v);
        for &w in out.neighbor_slice(v) {
            indeg[w as usize] -= 1;
            if indeg[w as usize] == 0 {
                queue.push(w);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Longest path length (in edges) from any source to each node; the "depth"
/// of a node in the dataflow. Panics if `order` is not a valid topological
/// order of the edges.
pub fn depths(n: usize, edges: &[(u32, u32)], order: &[u32]) -> Vec<u32> {
    let mut depth = vec![0u32; n];
    let mut pos = vec![u32::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v as usize] = i as u32;
    }
    // Iterate edges grouped by topological position of the source.
    let mut edges_by_pos: Vec<(u32, u32)> = edges.to_vec();
    edges_by_pos.sort_unstable_by_key(|&(s, _)| pos[s as usize]);
    for &(s, d) in &edges_by_pos {
        assert!(
            pos[s.max(d) as usize] != u32::MAX,
            "order must cover all nodes"
        );
        assert!(
            pos[s as usize] < pos[d as usize],
            "order must be topological"
        );
        depth[d as usize] = depth[d as usize].max(depth[s as usize] + 1);
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(n: usize, edges: &[(u32, u32)]) -> Option<Vec<u32>> {
        topological_order(&Csr::from_edges(n, edges.iter().copied()))
    }

    #[test]
    fn orders_chain() {
        assert_eq!(order(3, &[(0, 1), (1, 2)]).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn detects_cycle() {
        assert!(order(2, &[(0, 1), (1, 0)]).is_none());
    }

    #[test]
    fn handles_disconnected() {
        assert_eq!(order(4, &[(2, 3)]).unwrap().len(), 4);
    }

    #[test]
    fn depths_of_diamond() {
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3)];
        let order = order(4, &edges).unwrap();
        let d = depths(4, &edges, &order);
        assert_eq!(d, vec![0, 1, 1, 2]);
    }
}
