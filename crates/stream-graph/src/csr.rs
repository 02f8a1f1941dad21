//! Compressed sparse row adjacency used by [`crate::StreamGraph`].

use serde::{Deserialize, Serialize};

/// CSR adjacency: for each node, a contiguous slice of `(neighbor, edge_id)`
/// pairs. Construction counts degrees first so no intermediate per-node `Vec`
/// is allocated.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    edge_ids: Vec<u32>,
}

impl Csr {
    /// Build from an edge iterator of `(from, to)` pairs. The edge id stored
    /// alongside each neighbour is the index in the iteration order (so each
    /// node's bucket lists its edge ids in ascending order).
    pub fn from_edges(n: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut offsets = vec![0u32; n + 1];
        let mut m = 0usize;
        for (s, _) in edges.clone() {
            offsets[s as usize + 1] += 1;
            m += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut neighbors = vec![0u32; m];
        let mut edge_ids = vec![0u32; m];
        // `offsets[s]` doubles as the insertion cursor for bucket `s`; after
        // the fill it holds each bucket's end, which a right-shift turns
        // back into the start offsets — no separate cursor allocation.
        for (eid, (s, d)) in edges.enumerate() {
            let slot = offsets[s as usize] as usize;
            neighbors[slot] = d;
            edge_ids[slot] = eid as u32;
            offsets[s as usize] += 1;
        }
        for i in (1..=n).rev() {
            offsets[i] = offsets[i - 1];
        }
        offsets[0] = 0;
        Self {
            offsets,
            neighbors,
            edge_ids,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Iterate `(neighbor, edge_id)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.neighbors[lo..hi]
            .iter()
            .copied()
            .zip(self.edge_ids[lo..hi].iter().copied())
    }

    /// Neighbour slice of `v` (without edge ids).
    #[inline]
    pub fn neighbor_slice(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Edge-id slice of `v`'s bucket, ascending (construction preserves
    /// iteration order). This is what the padding-free segment passes walk.
    #[inline]
    pub fn edge_id_slice(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.edge_ids[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_queries() {
        let edges = [(0u32, 1u32), (0, 2), (2, 1), (1, 3)];
        let csr = Csr::from_edges(4, edges.iter().copied());
        assert_eq!(csr.num_nodes(), 4);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(3), 0);
        let n0: Vec<_> = csr.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 0), (2, 1)]);
        let n2: Vec<_> = csr.neighbors(2).collect();
        assert_eq!(n2, vec![(1, 2)]);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_edges(3, std::iter::empty());
        assert_eq!(csr.num_nodes(), 3);
        for v in 0..3 {
            assert_eq!(csr.degree(v), 0);
        }
    }

    #[test]
    fn preserves_edge_ids() {
        let edges = [(1u32, 0u32), (1, 2), (0, 2)];
        let csr = Csr::from_edges(3, edges.iter().copied());
        let n1: Vec<_> = csr.neighbors(1).collect();
        assert_eq!(n1, vec![(0, 0), (2, 1)]);
        assert_eq!(csr.edge_id_slice(1), &[0, 1]);
        assert_eq!(csr.edge_id_slice(2), &[] as &[u32]);
    }
}
