//! Graph coarsening by edge collapsing.
//!
//! The action space of the paper's RL model is one Bernoulli decision per
//! directed edge: *collapse* (merge the endpoints into one coarse node) or
//! keep. [`Coarsening::from_collapse`] applies a decision vector with a
//! union-find, producing a [`CoarseGraph`] — aggregated CPU demand per coarse
//! node and aggregated inter-group traffic per coarse edge — plus the node
//! map needed to lift a coarse placement back (see
//! [`crate::Placement::lift`]).

use crate::graph::StreamGraph;
use crate::rates::TupleRates;
use crate::unionfind::UnionFind;
use crate::weighted::{merge_edges, WeightedGraph};
use serde::{Deserialize, Serialize};

/// The contracted form of a [`StreamGraph`].
///
/// Contraction of a DAG can create directed cycles between groups, so a
/// coarse graph is *not* a `StreamGraph`; it keeps directed aggregated
/// traffic edges (for learned partitioners that want directional features)
/// and converts to an undirected [`WeightedGraph`] for Metis-style
/// partitioning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoarseGraph {
    /// CPU demand of each coarse node (instructions/second): the sum of
    /// `R_v * ipt_v` over members.
    pub node_cpu: Vec<f64>,
    /// Number of original nodes merged into each coarse node.
    pub members: Vec<u32>,
    /// Directed inter-group edges `(src_group, dst_group)`, deduplicated.
    pub edges: Vec<(u32, u32)>,
    /// Aggregated traffic (bytes/second) per directed coarse edge.
    pub edge_traffic: Vec<f64>,
    /// Traffic (bytes/second) *internalised* by the coarsening — flow on
    /// original edges whose endpoints were merged. This is what a good
    /// coarsening maximises (Fig. 9 of the paper).
    pub internal_traffic: f64,
}

impl CoarseGraph {
    /// Number of coarse nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_cpu.len()
    }

    /// Number of directed coarse edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Undirected weighted view for partitioning (anti-parallel directed
    /// coarse edges merge; weights are traffic).
    pub fn to_weighted(&self) -> WeightedGraph {
        WeightedGraph::new(
            self.node_cpu.clone(),
            self.edges
                .iter()
                .zip(&self.edge_traffic)
                .map(|(&(a, b), &w)| (a, b, w)),
        )
    }

    /// Total inter-group traffic remaining after coarsening.
    pub fn total_external_traffic(&self) -> f64 {
        self.edge_traffic.iter().sum()
    }
}

/// A coarsening: the coarse graph plus the original→coarse node map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Coarsening {
    /// For each original node, its coarse node id (dense `0..coarse.num_nodes()`).
    pub node_map: Vec<u32>,
    /// The contracted graph.
    pub coarse: CoarseGraph,
}

impl Coarsening {
    /// Contract `graph` by merging the endpoints of every edge `e` with
    /// `collapse[e] == true`, using precomputed tuple rates for weights.
    ///
    /// `max_group_cpu` optionally caps the CPU demand of a coarse node:
    /// merges that would push a group past the cap are skipped (edges are
    /// considered in the given `priority` order if provided, otherwise in
    /// edge-id order). The paper relies on learning to avoid overload but a
    /// hard cap keeps rollouts feasible early in training.
    pub fn from_collapse(
        graph: &StreamGraph,
        rates: &TupleRates,
        collapse: &[bool],
        max_group_cpu: Option<f64>,
        priority: Option<&[u32]>,
    ) -> Self {
        assert_eq!(collapse.len(), graph.num_edges(), "one decision per edge");
        let n = graph.num_nodes();
        let cpu = rates.cpu_demand(graph);
        let mut group_cpu: Vec<f64> = cpu.clone();
        let mut uf = UnionFind::new(n);

        let order: Vec<u32> = match priority {
            Some(p) => {
                assert_eq!(p.len(), graph.num_edges());
                p.to_vec()
            }
            None => (0..graph.num_edges() as u32).collect(),
        };

        for &eid in &order {
            if !collapse[eid as usize] {
                continue;
            }
            let (s, d) = graph.edge(crate::graph::EdgeId(eid));
            let (rs, rd) = (uf.find(s.0), uf.find(d.0));
            if rs == rd {
                continue;
            }
            if let Some(cap) = max_group_cpu {
                if group_cpu[rs as usize] + group_cpu[rd as usize] > cap {
                    continue;
                }
            }
            let merged = group_cpu[rs as usize] + group_cpu[rd as usize];
            uf.union(rs, rd);
            let root = uf.find(rs);
            group_cpu[root as usize] = merged;
        }

        Self::from_union_find(graph, rates, &mut uf)
    }

    /// Contract `graph` according to an arbitrary grouping already held in a
    /// union-find (used by Metis-guided training and tests).
    pub fn from_union_find(graph: &StreamGraph, rates: &TupleRates, uf: &mut UnionFind) -> Self {
        let (node_map, k) = uf.dense_labels();
        Self::from_node_map(graph, rates, node_map, k)
    }

    /// Contract `graph` according to an explicit dense node map.
    pub fn from_node_map(
        graph: &StreamGraph,
        rates: &TupleRates,
        node_map: Vec<u32>,
        k: usize,
    ) -> Self {
        assert_eq!(node_map.len(), graph.num_nodes());
        let cpu = rates.cpu_demand(graph);
        let traffic = rates.edge_traffic(graph);

        let mut node_cpu = vec![0.0f64; k];
        let mut members = vec![0u32; k];
        for (v, &g) in node_map.iter().enumerate() {
            node_cpu[g as usize] += cpu[v];
            members[g as usize] += 1;
        }

        let mut internal_traffic = 0.0;
        let mut inter = Vec::with_capacity(graph.num_edges());
        for (i, &(s, d)) in graph.edge_list().iter().enumerate() {
            let (gs, gd) = (node_map[s as usize], node_map[d as usize]);
            if gs == gd {
                internal_traffic += traffic[i];
            } else {
                inter.push(((gs, gd), traffic[i]));
            }
        }
        let (edges, edge_traffic) = merge_edges(k, inter);

        Self {
            node_map,
            coarse: CoarseGraph {
                node_cpu,
                members,
                edges,
                edge_traffic,
                internal_traffic,
            },
        }
    }

    /// The identity coarsening (no edges collapsed).
    pub fn identity(graph: &StreamGraph, rates: &TupleRates) -> Self {
        let node_map: Vec<u32> = (0..graph.num_nodes() as u32).collect();
        Self::from_node_map(graph, rates, node_map, graph.num_nodes())
    }

    /// Compression ratio `|V| / |V_coarse|` (≥ 1).
    pub fn compression_ratio(&self) -> f64 {
        self.node_map.len() as f64 / self.coarse.num_nodes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Channel, Operator, StreamGraphBuilder};

    fn diamond() -> StreamGraph {
        let mut b = StreamGraphBuilder::new();
        let n0 = b.add_node(Operator::new(10.0));
        let n1 = b.add_node(Operator::new(20.0));
        let n2 = b.add_node(Operator::new(30.0));
        let n3 = b.add_node(Operator::new(40.0));
        b.add_edge(n0, n1, Channel::new(8.0)).unwrap();
        b.add_edge(n0, n2, Channel::new(8.0)).unwrap();
        b.add_edge(n1, n3, Channel::new(4.0)).unwrap();
        b.add_edge(n2, n3, Channel::new(4.0)).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn identity_preserves_everything() {
        let g = diamond();
        let rates = TupleRates::compute(&g, 100.0);
        let c = Coarsening::identity(&g, &rates);
        assert_eq!(c.coarse.num_nodes(), 4);
        assert_eq!(c.coarse.num_edges(), 4);
        assert_eq!(c.coarse.internal_traffic, 0.0);
        assert!((c.compression_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn collapsing_one_edge_merges_endpoints() {
        let g = diamond();
        let rates = TupleRates::compute(&g, 100.0);
        // Collapse edge 0 (n0 -> n1).
        let c = Coarsening::from_collapse(&g, &rates, &[true, false, false, false], None, None);
        assert_eq!(c.coarse.num_nodes(), 3);
        assert_eq!(c.node_map[0], c.node_map[1]);
        assert_ne!(c.node_map[0], c.node_map[2]);
        // Internal traffic = traffic of edge 0 = 100 * 8 = 800 B/s.
        assert!((c.coarse.internal_traffic - 800.0).abs() < 1e-9);
        // Merged node's CPU = R0*10 + R1*20 = 1000 + 2000.
        let merged = c.node_map[0] as usize;
        assert!((c.coarse.node_cpu[merged] - 3000.0).abs() < 1e-9);
        assert_eq!(c.coarse.members[merged], 2);
    }

    #[test]
    fn collapse_all_gives_single_node() {
        let g = diamond();
        let rates = TupleRates::compute(&g, 100.0);
        let c = Coarsening::from_collapse(&g, &rates, &[true; 4], None, None);
        assert_eq!(c.coarse.num_nodes(), 1);
        assert_eq!(c.coarse.num_edges(), 0);
        assert!((c.compression_ratio() - 4.0).abs() < 1e-12);
        let total = rates.total_edge_traffic(&g);
        assert!((c.coarse.internal_traffic - total).abs() < 1e-9);
    }

    #[test]
    fn cpu_cap_blocks_merges() {
        let g = diamond();
        let rates = TupleRates::compute(&g, 100.0);
        // Every node's demand is >= 1000; cap of 1.0 forbids all merges.
        let c = Coarsening::from_collapse(&g, &rates, &[true; 4], Some(1.0), None);
        assert_eq!(c.coarse.num_nodes(), 4);
    }

    #[test]
    fn priority_changes_which_merge_survives_cap() {
        let g = diamond();
        let rates = TupleRates::compute(&g, 100.0);
        // Cap allows exactly one merge of n0(1000)+n1(2000)=3000 or
        // n0+n2=1000+3000=4000; cap 3500 only allows the first.
        let c =
            Coarsening::from_collapse(&g, &rates, &[true, true, false, false], Some(3500.0), None);
        assert_eq!(c.coarse.num_nodes(), 3);
        assert_eq!(c.node_map[0], c.node_map[1]);
        // With priority reversed, edge 1 (n0->n2) is tried first but exceeds
        // the cap, so edge 0 still merges.
        let c2 = Coarsening::from_collapse(
            &g,
            &rates,
            &[true, true, false, false],
            Some(3500.0),
            Some(&[1, 0, 2, 3]),
        );
        assert_eq!(c2.node_map[0], c2.node_map[1]);
    }

    #[test]
    fn traffic_is_conserved() {
        let g = diamond();
        let rates = TupleRates::compute(&g, 100.0);
        let total = rates.total_edge_traffic(&g);
        for mask in 0u32..16 {
            let collapse: Vec<bool> = (0..4).map(|i| mask & (1 << i) != 0).collect();
            let c = Coarsening::from_collapse(&g, &rates, &collapse, None, None);
            let ext = c.coarse.total_external_traffic();
            assert!(
                (ext + c.coarse.internal_traffic - total).abs() < 1e-6,
                "mask {mask}: {ext} + {} != {total}",
                c.coarse.internal_traffic
            );
        }
    }

    #[test]
    fn weighted_view_merges_antiparallel() {
        let g = diamond();
        let rates = TupleRates::compute(&g, 100.0);
        // Merge n1 and n2: coarse graph has edges {0}->{1,2} (two directed
        // edges aggregate into one) and {1,2}->{3}.
        let c = Coarsening::from_collapse(&g, &rates, &[false, false, false, false], None, None);
        let mut uf = UnionFind::new(4);
        uf.union(1, 2);
        let c2 = Coarsening::from_union_find(&g, &rates, &mut uf);
        drop(c);
        assert_eq!(c2.coarse.num_nodes(), 3);
        let w = c2.coarse.to_weighted();
        assert_eq!(w.num_edges(), 2);
    }
}
