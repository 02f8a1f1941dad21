//! The undirected weighted view of a stream graph used by partitioners.
//!
//! A partitioner balances *CPU load* (node weight) while minimising *traffic
//! cut* (edge weight). Both are rate-dependent, so the conversion from a
//! [`StreamGraph`] takes the source rate. Anti-parallel directed edges are
//! merged into one undirected edge with summed traffic.

use crate::graph::StreamGraph;
use crate::rates::TupleRates;

/// An undirected weighted graph with CSR adjacency.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGraph {
    /// Node weights (CPU demand, instructions/second).
    pub node_weight: Vec<f64>,
    /// Unique undirected edges as `(u, v)` with `u < v`.
    pub edges: Vec<(u32, u32)>,
    /// Edge weights (traffic, bytes/second), parallel to `edges`.
    pub edge_weight: Vec<f64>,
    /// Node `v`'s `(neighbor, edge index)` pairs are
    /// `adj[offsets[v]..offsets[v + 1]]`, in ascending edge index.
    offsets: Vec<u32>,
    adj: Vec<(u32, u32)>,
}

impl WeightedGraph {
    /// Build from explicit parts; merges duplicate undirected edges by
    /// summing weights and drops self-loops (they never affect a cut).
    pub fn new(
        node_weight: Vec<f64>,
        raw_edges: impl IntoIterator<Item = (u32, u32, f64)>,
    ) -> Self {
        let n = node_weight.len();
        let (edges, edge_weight) = merge_edges(
            n,
            raw_edges
                .into_iter()
                .filter(|&(a, b, _)| a != b)
                .map(|(a, b, w)| ((a.min(b), a.max(b)), w))
                .collect(),
        );
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &edges {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Edges are visited in index order, so each node's slice lists its
        // edges in ascending index.
        let mut cursor = offsets[..n].to_vec();
        let mut adj = vec![(0u32, 0u32); 2 * edges.len()];
        for (i, &(a, b)) in edges.iter().enumerate() {
            adj[cursor[a as usize] as usize] = (b, i as u32);
            cursor[a as usize] += 1;
            adj[cursor[b as usize] as usize] = (a, i as u32);
            cursor[b as usize] += 1;
        }
        Self {
            node_weight,
            edges,
            edge_weight,
            offsets,
            adj,
        }
    }

    /// Convert a stream graph at a given source rate: node weight = CPU
    /// demand `R_v * ipt_v`, edge weight = traffic `R_e * payload_e`.
    pub fn from_stream(graph: &StreamGraph, source_rate: f64) -> Self {
        let rates = TupleRates::compute(graph, source_rate);
        Self::from_stream_with_rates(graph, &rates)
    }

    /// Same as [`Self::from_stream`] but reusing precomputed rates.
    pub fn from_stream_with_rates(graph: &StreamGraph, rates: &TupleRates) -> Self {
        let node_weight = rates.cpu_demand(graph);
        let traffic = rates.edge_traffic(graph);
        let raw = graph
            .edge_list()
            .iter()
            .zip(traffic)
            .map(|(&(s, d), w)| (s, d, w));
        Self::new(node_weight, raw)
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_weight.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `(neighbor, edge index)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[(u32, u32)] {
        &self.adj[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Total node weight.
    pub fn total_node_weight(&self) -> f64 {
        self.node_weight.iter().sum()
    }

    /// Weight of the cut induced by `part` (sum of weights of edges whose
    /// endpoints have different labels).
    pub fn cut_weight(&self, part: &[u32]) -> f64 {
        self.edges
            .iter()
            .zip(&self.edge_weight)
            .filter(|(&(a, b), _)| part[a as usize] != part[b as usize])
            .map(|(_, &w)| w)
            .sum()
    }

    /// Per-part node-weight sums for a labelling into `k` parts.
    pub fn part_weights(&self, part: &[u32], k: usize) -> Vec<f64> {
        let mut w = vec![0.0; k];
        for (v, &p) in part.iter().enumerate() {
            w[p as usize] += self.node_weight[v];
        }
        w
    }

    /// Contract nodes according to `node_map` (node -> coarse id, dense in
    /// `0..k`). Coarse node weight is the sum of member weights; coarse edges
    /// aggregate inter-group weights; intra-group edges disappear.
    pub fn contract(&self, node_map: &[u32], k: usize) -> WeightedGraph {
        assert_eq!(node_map.len(), self.num_nodes());
        let mut node_weight = vec![0.0; k];
        for (v, &c) in node_map.iter().enumerate() {
            node_weight[c as usize] += self.node_weight[v];
        }
        let raw = self
            .edges
            .iter()
            .zip(&self.edge_weight)
            .map(|(&(a, b), &w)| (node_map[a as usize], node_map[b as usize], w));
        WeightedGraph::new(node_weight, raw)
    }
}

/// Merge `(key, weight)` pairs, every endpoint below `n`, into unique keys
/// in ascending order. Two stable bucket passes, by second endpoint and
/// then by first, order the pairs in O(pairs + n) and keep equal keys in
/// input order, so each key's weight is summed from `0.0` in input order,
/// as one accumulator per key would, and a lone `-0.0` becomes `+0.0`.
pub(crate) fn merge_edges(
    n: usize,
    mut pairs: Vec<((u32, u32), f64)>,
) -> (Vec<(u32, u32)>, Vec<f64>) {
    let mut start = vec![0usize; n + 1];
    let mut by_second = vec![((0, 0), 0.0); pairs.len()];
    bucket_by(&mut start, &pairs, &mut by_second, |((_, b), _)| b);
    bucket_by(&mut start, &by_second, &mut pairs, |((a, _), _)| a);
    let mut keys: Vec<(u32, u32)> = Vec::with_capacity(pairs.len());
    let mut weights: Vec<f64> = Vec::with_capacity(pairs.len());
    for (key, w) in pairs {
        if keys.last() != Some(&key) {
            keys.push(key);
            weights.push(0.0);
        }
        *weights.last_mut().expect("pushed with its key") += w;
    }
    (keys, weights)
}

/// Stable counting sort of `src` into `dst` by `bucket`, whose values lie
/// below `start.len() - 1`; `start` is scratch.
fn bucket_by(
    start: &mut [usize],
    src: &[((u32, u32), f64)],
    dst: &mut [((u32, u32), f64)],
    bucket: impl Fn(((u32, u32), f64)) -> u32,
) {
    start.fill(0);
    for &p in src {
        start[bucket(p) as usize + 1] += 1;
    }
    for b in 1..start.len() {
        start[b] += start[b - 1];
    }
    // `start[b]` is bucket b's insertion cursor.
    for &p in src {
        let slot = &mut start[bucket(p) as usize];
        dst[*slot] = p;
        *slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Channel, Operator, StreamGraphBuilder};

    #[test]
    fn merges_duplicate_and_antiparallel_edges() {
        let g = WeightedGraph::new(vec![1.0; 3], vec![(0, 1, 2.0), (1, 0, 3.0), (1, 2, 1.0)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edges[0], (0, 1));
        assert!((g.edge_weight[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merged_weights_sum_from_zero_in_input_order() {
        // 1e16 + 1.0 rounds back to 1e16, so the sum depends on the order.
        let g = WeightedGraph::new(
            vec![1.0; 3],
            vec![(0, 1, 1e16), (1, 2, 5.0), (1, 0, 1.0), (0, 1, -1e16)],
        );
        assert_eq!(g.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(g.edge_weight, vec![0.0, 5.0]);
        let g = WeightedGraph::new(vec![1.0; 2], vec![(0, 1, 1e16), (0, 1, -1e16), (1, 0, 1.0)]);
        assert_eq!(g.edge_weight, vec![1.0]);
        assert_eq!(g.neighbors(0), &[(1, 0)]);
        assert_eq!(g.neighbors(1), &[(0, 0)]);
        // A lone -0.0 is summed from +0.0, as a fresh accumulator would.
        let g = WeightedGraph::new(vec![1.0; 2], vec![(1, 0, -0.0)]);
        assert_eq!(g.edge_weight[0].to_bits(), 0.0f64.to_bits());

        // Long runs of equal keys, past any small-input sorting path.
        let weights = [1e16, 1.0, -1e16, 3.0, -0.0, 1.0];
        let raw: Vec<(u32, u32, f64)> = (0..96u32)
            .map(|i| {
                let (a, b) = [(0, 1), (2, 1), (1, 2), (3, 0)][(i * 7 % 4) as usize];
                (a, b, weights[(i * 5 % 6) as usize])
            })
            .collect();
        let g = WeightedGraph::new(vec![1.0; 4], raw.clone());
        for (&(a, b), &w) in g.edges.iter().zip(&g.edge_weight) {
            let want = raw
                .iter()
                .filter(|&&(x, y, _)| (x.min(y), x.max(y)) == (a, b))
                .fold(0.0, |sum, &(_, _, w)| sum + w);
            assert_eq!(w.to_bits(), want.to_bits(), "edge ({a}, {b})");
        }
    }

    #[test]
    fn neighbors_list_edges_in_ascending_index() {
        let g = WeightedGraph::new(
            vec![1.0; 4],
            vec![(2, 3, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 1, 1.0)],
        );
        assert_eq!(g.edges, vec![(0, 2), (1, 2), (2, 3)]);
        assert_eq!(g.neighbors(2), &[(0, 0), (1, 1), (3, 2)]);
        assert_eq!(g.neighbors(3), &[(2, 2)]);
        assert!(WeightedGraph::new(vec![1.0], vec![])
            .neighbors(0)
            .is_empty());
    }

    #[test]
    fn drops_self_loops() {
        let g = WeightedGraph::new(vec![1.0; 2], vec![(0, 0, 9.0), (0, 1, 1.0)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn cut_weight_and_part_weights() {
        let g = WeightedGraph::new(vec![1.0, 2.0, 3.0], vec![(0, 1, 5.0), (1, 2, 7.0)]);
        let part = [0u32, 0, 1];
        assert!((g.cut_weight(&part) - 7.0).abs() < 1e-12);
        assert_eq!(g.part_weights(&part, 2), vec![3.0, 3.0]);
    }

    #[test]
    fn from_stream_uses_rates() {
        let mut b = StreamGraphBuilder::new();
        let a = b.add_node(Operator::new(2.0));
        let c = b.add_node(Operator::new(3.0));
        b.add_edge(a, c, Channel::new(10.0)).unwrap();
        let g = b.finish().unwrap();
        let w = WeightedGraph::from_stream(&g, 100.0);
        assert_eq!(w.node_weight, vec![200.0, 300.0]);
        assert_eq!(w.edge_weight, vec![1000.0]);
    }

    #[test]
    fn contract_aggregates() {
        let g = WeightedGraph::new(
            vec![1.0, 2.0, 4.0, 8.0],
            vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (0, 3, 8.0)],
        );
        // Groups {0,1} and {2,3}
        let c = g.contract(&[0, 0, 1, 1], 2);
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.node_weight, vec![3.0, 12.0]);
        assert_eq!(c.num_edges(), 1);
        assert!((c.edge_weight[0] - 10.0).abs() < 1e-12); // 2.0 + 8.0 cross edges
    }
}
