//! Numeric feature extraction for learned models.
//!
//! The paper's node feature vector contains the operator's *CPU
//! utilisation* `(ipt * R) / MIPS` and its emitted *payload*; the edge
//! feature vector contains the transmission load (the *data saturation
//! rate* `(P * R) / BW`). We add a few cheap structural features (degrees,
//! source/sink flags, dataflow depth) that every baseline gets equally.

use crate::cluster::ClusterSpec;
use crate::graph::{NodeId, StreamGraph};
use crate::rates::TupleRates;
use crate::topo;
use serde::{Deserialize, Serialize};

/// Number of per-node features.
pub const NODE_FEATURES: usize = 6;
/// Number of per-edge features.
pub const EDGE_FEATURES: usize = 4;

/// Row-major `[num_nodes x NODE_FEATURES]` feature matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeFeatures(pub Vec<f32>);

/// Row-major `[num_edges x EDGE_FEATURES]` feature matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeFeatures(pub Vec<f32>);

/// All features of a graph in one place.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphFeatures {
    /// Node feature matrix.
    pub node: NodeFeatures,
    /// Edge feature matrix.
    pub edge: EdgeFeatures,
    /// Number of nodes (rows of `node`).
    pub num_nodes: usize,
    /// Number of edges (rows of `edge`).
    pub num_edges: usize,
}

impl GraphFeatures {
    /// Extract features of `graph` under `cluster` at `source_rate`.
    pub fn extract(graph: &StreamGraph, cluster: &ClusterSpec, source_rate: f64) -> Self {
        let rates = TupleRates::compute(graph, source_rate);
        Self::extract_with_rates(graph, cluster, &rates)
    }

    /// Extract features reusing precomputed rates.
    pub fn extract_with_rates(
        graph: &StreamGraph,
        cluster: &ClusterSpec,
        rates: &TupleRates,
    ) -> Self {
        let n = graph.num_nodes();
        let m = graph.num_edges();
        let dev_capacity = cluster.instr_per_sec();
        let bw = cluster.link_bytes_per_sec();
        let source_rate = rates.source_rate.max(1e-9);

        let order = graph.topo_order();
        let depth = topo::depths(n, graph.edge_list(), order);
        let max_depth = depth.iter().copied().max().unwrap_or(0).max(1) as f32;

        let mut node = Vec::with_capacity(n * NODE_FEATURES);
        // Each node's outgoing traffic, kept for its out-edges' share.
        let mut out_payload = Vec::with_capacity(n);
        for v in graph.node_ids() {
            let r = rates.node[v.idx()];
            let cpu_util = (graph.op(v).ipt * r / dev_capacity) as f32;
            let payload: f64 = graph
                .out_edges(v)
                .map(|(_, e)| rates.edge[e.idx()] * graph.channel(e).payload)
                .sum();
            out_payload.push(payload);
            let out_sat = (payload / bw) as f32;
            node.push(cpu_util);
            node.push(out_sat);
            node.push(degree_feature(graph.in_degree(v)));
            node.push(degree_feature(graph.out_degree(v)));
            node.push(if graph.in_degree(v) == 0 { 1.0 } else { 0.0 });
            node.push(depth[v.idx()] as f32 / max_depth);
        }

        let mut edge = Vec::with_capacity(m * EDGE_FEATURES);
        for (e, s, _d) in graph.edges_iter() {
            let traffic = rates.edge[e.idx()] * graph.channel(e).payload;
            let sat = (traffic / bw) as f32;
            edge.push(sat);
            edge.push((1.0 + sat as f64).ln() as f32);
            edge.push((rates.edge[e.idx()] / source_rate) as f32);
            // How dominant is this edge among its source's outputs?
            let src_out = out_payload[s.idx()];
            edge.push(if src_out > 0.0 {
                (traffic / src_out) as f32
            } else {
                0.0
            });
        }

        Self {
            node: NodeFeatures(node),
            edge: EdgeFeatures(edge),
            num_nodes: n,
            num_edges: m,
        }
    }

    /// Feature row of node `v`.
    pub fn node_row(&self, v: NodeId) -> &[f32] {
        let i = v.idx() * NODE_FEATURES;
        &self.node.0[i..i + NODE_FEATURES]
    }

    /// Feature row of edge `e`.
    pub fn edge_row(&self, e: usize) -> &[f32] {
        let i = e * EDGE_FEATURES;
        &self.edge.0[i..i + EDGE_FEATURES]
    }
}

/// Compress a degree into a bounded feature.
#[inline]
fn degree_feature(d: usize) -> f32 {
    ((1 + d) as f32).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Channel, Operator, StreamGraphBuilder};

    fn simple() -> StreamGraph {
        let mut b = StreamGraphBuilder::new();
        let a = b.add_node(Operator::new(1000.0));
        let c = b.add_node(Operator::new(2000.0));
        b.add_edge(a, c, Channel::new(100.0)).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn shapes_match() {
        let g = simple();
        let f = GraphFeatures::extract(&g, &ClusterSpec::paper_medium(4), 1e4);
        assert_eq!(f.node.0.len(), 2 * NODE_FEATURES);
        assert_eq!(f.edge.0.len(), EDGE_FEATURES);
        assert_eq!(f.num_nodes, 2);
        assert_eq!(f.num_edges, 1);
    }

    #[test]
    fn cpu_utilisation_matches_paper_formula() {
        let g = simple();
        let cluster = ClusterSpec::paper_medium(4);
        let f = GraphFeatures::extract(&g, &cluster, 1e4);
        // (IPT * R) / (MIPS * 1e6) for the source: 1000 * 1e4 / 1.25e9
        let expect = 1000.0 * 1e4 / 1.25e9;
        assert!((f.node_row(NodeId(0))[0] as f64 - expect).abs() < 1e-9);
    }

    #[test]
    fn edge_saturation_matches_paper_formula() {
        let g = simple();
        let cluster = ClusterSpec::paper_medium(4);
        let f = GraphFeatures::extract(&g, &cluster, 1e4);
        // (P * R) / BW = 100 B * 1e4 /s / 125e6 B/s
        let expect = 100.0 * 1e4 / 125e6;
        assert!((f.edge_row(0)[0] as f64 - expect).abs() < 1e-9);
    }

    #[test]
    fn source_and_sink_flags() {
        let g = simple();
        let f = GraphFeatures::extract(&g, &ClusterSpec::paper_medium(4), 1e4);
        assert_eq!(f.node_row(NodeId(0))[4], 1.0); // source flag
        assert_eq!(f.node_row(NodeId(1))[4], 0.0);
        assert_eq!(f.node_row(NodeId(0))[5], 0.0); // depth 0
        assert_eq!(f.node_row(NodeId(1))[5], 1.0); // depth 1 of max 1
    }

    /// The edge share computed the way it was before the per-node sum
    /// was kept: re-summing the source's outgoing traffic per edge.
    fn share_per_edge(graph: &StreamGraph, rates: &TupleRates) -> Vec<u32> {
        graph
            .edges_iter()
            .map(|(e, s, _)| {
                let traffic = rates.edge[e.idx()] * graph.channel(e).payload;
                let src_out: f64 = graph
                    .out_edges(s)
                    .map(|(_, ee)| rates.edge[ee.idx()] * graph.channel(ee).payload)
                    .sum();
                let share = if src_out > 0.0 {
                    (traffic / src_out) as f32
                } else {
                    0.0
                };
                share.to_bits()
            })
            .collect()
    }

    /// A seeded DAG: node `v` draws up to 4 producers among earlier
    /// nodes, with channel payloads from a small set so sums repeat.
    fn random_dag(nodes: usize, seed: u64) -> StreamGraph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut b = StreamGraphBuilder::new();
        let ids: Vec<NodeId> = (0..nodes)
            .map(|_| b.add_node(Operator::new(rng.gen_range(10.0..5000.0))))
            .collect();
        for v in 1..nodes {
            let mut preds: Vec<usize> = (0..rng.gen_range(1..=4))
                .map(|_| rng.gen_range(0..v))
                .collect();
            preds.sort_unstable();
            preds.dedup();
            for u in preds {
                let payload = [0.0, 10.0, 64.0, 1500.0][rng.gen_range(0..4usize)];
                b.add_edge(ids[u], ids[v], Channel::new(payload)).unwrap();
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn edge_share_matches_per_edge_sum() {
        let cluster = ClusterSpec::paper_medium(4);
        let mut graphs: Vec<StreamGraph> = (0..8).map(|seed| random_dag(40, seed)).collect();
        let mut star = StreamGraphBuilder::new();
        let hub = star.add_node(Operator::new(100.0));
        for i in 0..3000 {
            let leaf = star.add_node(Operator::new(50.0));
            let payload = if i % 7 == 0 { 512.0 } else { 100.0 };
            star.add_edge(hub, leaf, Channel::new(payload)).unwrap();
        }
        graphs.push(star.finish().unwrap());
        for (i, g) in graphs.iter().enumerate() {
            let rates = TupleRates::compute(g, 1e4);
            let f = GraphFeatures::extract_with_rates(g, &cluster, &rates);
            let got: Vec<u32> = (0..g.num_edges())
                .map(|e| f.edge_row(e)[3].to_bits())
                .collect();
            assert_eq!(got, share_per_edge(g, &rates), "graph {i}");
        }
    }

    #[test]
    fn features_are_finite() {
        let g = simple();
        let f = GraphFeatures::extract(&g, &ClusterSpec::paper_medium(4), 0.0);
        assert!(f.node.0.iter().all(|x| x.is_finite()));
        assert!(f.edge.0.iter().all(|x| x.is_finite()));
    }
}
