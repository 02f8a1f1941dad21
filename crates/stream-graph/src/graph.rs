//! The [`StreamGraph`] DAG of stream-processing operators.

use crate::csr::Csr;
use crate::topo;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of an operator (node) inside a [`StreamGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of a channel (directed edge) inside a [`StreamGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The node index as a `usize` (for slice indexing).
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge index as a `usize` (for slice indexing).
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A stream-processing operator.
///
/// The paper characterises an operator by its *CPU utilisation*
/// `(IPT * R) / MIPS`; the intrinsic quantity is `ipt` — the number of
/// instructions the operator executes per incoming tuple. The tuple rate `R`
/// is derived from the graph topology and the source rate (see
/// [`crate::rates`]), and MIPS comes from the [`crate::ClusterSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Operator {
    /// Instructions executed per processed tuple.
    pub ipt: f64,
}

impl Operator {
    /// Create an operator with the given instructions-per-tuple cost.
    pub fn new(ipt: f64) -> Self {
        Self { ipt }
    }
}

/// A communication channel (directed edge) between two operators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Channel {
    /// Bytes transmitted per tuple flowing along this edge.
    pub payload: f64,
    /// Fraction of the upstream operator's output tuples forwarded on this
    /// edge (1.0 = broadcast every tuple to this successor).
    pub selectivity: f64,
}

impl Channel {
    /// A channel forwarding every upstream tuple with the given payload.
    pub fn new(payload: f64) -> Self {
        Self {
            payload,
            selectivity: 1.0,
        }
    }

    /// A channel with explicit payload and selectivity.
    pub fn with_selectivity(payload: f64, selectivity: f64) -> Self {
        Self {
            payload,
            selectivity,
        }
    }
}

/// Errors raised while constructing a [`StreamGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referenced a node that does not exist.
    NodeOutOfRange { node: u32, len: usize },
    /// Self-loops are not valid in stream dataflow graphs.
    SelfLoop { node: u32 },
    /// The same (src, dst) pair was added twice.
    DuplicateEdge { src: u32, dst: u32 },
    /// The graph contains a directed cycle.
    Cycle,
    /// The graph has no nodes.
    Empty,
    /// The channel list is not parallel to the edge list.
    ChannelCount { edges: usize, channels: usize },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, len } => {
                write!(
                    f,
                    "edge endpoint n{node} out of range (graph has {len} nodes)"
                )
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop on n{node}"),
            GraphError::DuplicateEdge { src, dst } => {
                write!(f, "duplicate edge n{src} -> n{dst}")
            }
            GraphError::Cycle => write!(f, "graph contains a directed cycle"),
            GraphError::Empty => write!(f, "graph has no nodes"),
            GraphError::ChannelCount { edges, channels } => {
                write!(f, "{channels} channels for {edges} edges")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`StreamGraph`].
///
/// ```
/// use spg_graph::{StreamGraphBuilder, Operator, Channel};
///
/// let mut b = StreamGraphBuilder::new();
/// let src = b.add_node(Operator::new(100.0));
/// let map = b.add_node(Operator::new(500.0));
/// let sink = b.add_node(Operator::new(50.0));
/// b.add_edge(src, map, Channel::new(64.0)).unwrap();
/// b.add_edge(map, sink, Channel::new(32.0)).unwrap();
/// let g = b.finish().unwrap();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct StreamGraphBuilder {
    ops: Vec<Operator>,
    edges: Vec<(u32, u32)>,
    channels: Vec<Channel>,
}

impl StreamGraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            ops: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            channels: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.ops.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Append an operator; returns its id.
    pub fn add_node(&mut self, op: Operator) -> NodeId {
        let id = NodeId(self.ops.len() as u32);
        self.ops.push(op);
        id
    }

    /// Append a directed channel `src -> dst`.
    ///
    /// Fails fast on self-loops and out-of-range endpoints; duplicate edges
    /// and cycles are detected in [`Self::finish`].
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        ch: Channel,
    ) -> Result<EdgeId, GraphError> {
        let len = self.ops.len();
        for n in [src.0, dst.0] {
            if n as usize >= len {
                return Err(GraphError::NodeOutOfRange { node: n, len });
            }
        }
        if src == dst {
            return Err(GraphError::SelfLoop { node: src.0 });
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push((src.0, dst.0));
        self.channels.push(ch);
        Ok(id)
    }

    /// Validate and freeze into an immutable [`StreamGraph`].
    pub fn finish(self) -> Result<StreamGraph, GraphError> {
        StreamGraph::from_parts(self.ops, self.edges, self.channels)
    }
}

/// An immutable stream-processing DAG.
///
/// Nodes are operators, directed edges are tuple channels. Adjacency is
/// stored twice in CSR form (outgoing and incoming) so traversals in either
/// direction are cache-friendly — the GNN encoder of the paper needs both
/// upstream and downstream neighbourhoods.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamGraph {
    ops: Vec<Operator>,
    edges: Vec<(u32, u32)>,
    channels: Vec<Channel>,
    out_adj: Csr,
    in_adj: Csr,
    topo_order: Vec<u32>,
}

impl StreamGraph {
    /// Build from raw parts, validating DAG-ness, edge uniqueness and one
    /// channel per edge.
    pub fn from_parts(
        ops: Vec<Operator>,
        edges: Vec<(u32, u32)>,
        channels: Vec<Channel>,
    ) -> Result<Self, GraphError> {
        if edges.len() != channels.len() {
            return Err(GraphError::ChannelCount {
                edges: edges.len(),
                channels: channels.len(),
            });
        }
        if ops.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = ops.len();
        for &(s, d) in &edges {
            if s as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: s, len: n });
            }
            if d as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: d, len: n });
            }
            if s == d {
                return Err(GraphError::SelfLoop { node: s });
            }
        }
        // Duplicate-edge check via sort of a copy.
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(GraphError::DuplicateEdge {
                    src: w[0].0,
                    dst: w[0].1,
                });
            }
        }
        let out_adj = Csr::from_edges(n, edges.iter().map(|&(s, d)| (s, d)));
        let in_adj = Csr::from_edges(n, edges.iter().map(|&(s, d)| (d, s)));
        let topo_order = topo::topological_order(n, &edges).ok_or(GraphError::Cycle)?;
        Ok(Self {
            ops,
            edges,
            channels,
            out_adj,
            in_adj,
            topo_order,
        })
    }

    /// Number of operators.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.ops.len()
    }

    /// Number of channels.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The operator at `v`.
    #[inline]
    pub fn op(&self, v: NodeId) -> &Operator {
        &self.ops[v.idx()]
    }

    /// All operators, indexed by node id.
    #[inline]
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    /// The channel on edge `e`.
    #[inline]
    pub fn channel(&self, e: EdgeId) -> &Channel {
        &self.channels[e.idx()]
    }

    /// All channels, indexed by edge id.
    #[inline]
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Endpoints `(src, dst)` of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId) {
        let (s, d) = self.edges[e.idx()];
        (NodeId(s), NodeId(d))
    }

    /// Raw endpoint list, indexed by edge id.
    #[inline]
    pub fn edge_list(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Iterate over `(EdgeId, src, dst)`.
    pub fn edges_iter(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| (EdgeId(i as u32), NodeId(s), NodeId(d)))
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.ops.len() as u32).map(NodeId)
    }

    /// Forward CSR adjacency (edges bucketed by source node, ascending
    /// edge ids per bucket). The tape-free inference path pools over this
    /// directly instead of re-deriving adjacency from the edge list.
    #[inline]
    pub fn out_csr(&self) -> &Csr {
        &self.out_adj
    }

    /// Reverse CSR adjacency (edges bucketed by destination node).
    #[inline]
    pub fn in_csr(&self) -> &Csr {
        &self.in_adj
    }

    /// `(neighbour, edge)` pairs for outgoing edges of `v`.
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.out_adj
            .neighbors(v.0)
            .map(|(n, e)| (NodeId(n), EdgeId(e)))
    }

    /// `(neighbour, edge)` pairs for incoming edges of `v`.
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.in_adj
            .neighbors(v.0)
            .map(|(n, e)| (NodeId(n), EdgeId(e)))
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_adj.degree(v.0)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_adj.degree(v.0)
    }

    /// Nodes with no incoming edges (stream sources).
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.in_degree(v) == 0)
            .collect()
    }

    /// Nodes with no outgoing edges (stream sinks).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.out_degree(v) == 0)
            .collect()
    }

    /// A topological ordering of the nodes (sources first).
    #[inline]
    pub fn topo_order(&self) -> &[u32] {
        &self.topo_order
    }

    /// Total instructions per "wave" of tuples: `Σ_v ipt_v` (topology-free
    /// proxy for graph computational weight).
    pub fn total_ipt(&self) -> f64 {
        self.ops.iter().map(|o| o.ipt).sum()
    }

    /// Mutable access to operator costs (used by the workload assigner when
    /// normalising total load — topology is immutable).
    pub fn ops_mut(&mut self) -> &mut [Operator] {
        &mut self.ops
    }

    /// Mutable access to channel costs.
    pub fn channels_mut(&mut self) -> &mut [Channel] {
        &mut self.channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> StreamGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
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
    fn builds_diamond() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.sources(), vec![NodeId(0)]);
        assert_eq!(g.sinks(), vec![NodeId(3)]);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let pos: Vec<usize> = {
            let mut p = vec![0usize; g.num_nodes()];
            for (i, &v) in g.topo_order().iter().enumerate() {
                p[v as usize] = i;
            }
            p
        };
        for (_, s, d) in g.edges_iter() {
            assert!(pos[s.idx()] < pos[d.idx()], "{s} must precede {d}");
        }
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = StreamGraphBuilder::new();
        let n0 = b.add_node(Operator::new(1.0));
        assert_eq!(
            b.add_edge(n0, n0, Channel::new(1.0)),
            Err(GraphError::SelfLoop { node: 0 })
        );
    }

    #[test]
    fn rejects_cycle() {
        let ops = vec![Operator::new(1.0); 3];
        let edges = vec![(0, 1), (1, 2), (2, 0)];
        let chans = vec![Channel::new(1.0); 3];
        assert_eq!(
            StreamGraph::from_parts(ops, edges, chans),
            Err(GraphError::Cycle)
        );
    }

    #[test]
    fn rejects_duplicate_edge() {
        let ops = vec![Operator::new(1.0); 2];
        let edges = vec![(0, 1), (0, 1)];
        let chans = vec![Channel::new(1.0); 2];
        assert_eq!(
            StreamGraph::from_parts(ops, edges, chans),
            Err(GraphError::DuplicateEdge { src: 0, dst: 1 })
        );
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            StreamGraph::from_parts(vec![], vec![], vec![]),
            Err(GraphError::Empty)
        );
    }

    #[test]
    fn rejects_channel_count_mismatch() {
        let ops = vec![Operator::new(1.0); 2];
        let edges = vec![(0, 1)];
        assert_eq!(
            StreamGraph::from_parts(ops, edges, vec![]),
            Err(GraphError::ChannelCount {
                edges: 1,
                channels: 0
            })
        );
    }

    #[test]
    fn rejects_out_of_range_edge() {
        let ops = vec![Operator::new(1.0)];
        let edges = vec![(0, 5)];
        let chans = vec![Channel::new(1.0)];
        assert!(matches!(
            StreamGraph::from_parts(ops, edges, chans),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
    }

    #[test]
    fn adjacency_is_consistent_with_edge_list() {
        let g = diamond();
        for (e, s, d) in g.edges_iter() {
            assert!(g.out_edges(s).any(|(n, ee)| n == d && ee == e));
            assert!(g.in_edges(d).any(|(n, ee)| n == s && ee == e));
        }
    }
}
