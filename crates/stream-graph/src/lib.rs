//! # spg-graph
//!
//! Core data structures for stream-processing resource allocation:
//!
//! * [`StreamGraph`] — a directed acyclic graph of operators. Nodes carry the
//!   computational cost of an operator (instructions per tuple), edges carry
//!   the communication cost (payload bytes per tuple and selectivity).
//! * [`ClusterSpec`] — the homogeneous device cluster graphs are placed on
//!   (device count, per-device MIPS, link bandwidth).
//! * [`Placement`] — an assignment of every operator to a device.
//! * [`Coarsening`] — a contraction of a [`StreamGraph`] induced by a set of
//!   *collapsed edges* (the action space of the paper's RL coarsening model),
//!   producing a [`CoarseGraph`] plus the node mapping needed to lift a
//!   coarse placement back to the original graph.
//! * [`WeightedGraph`] — the undirected weighted view used by partitioners
//!   (node weight = CPU load, edge weight = traffic).
//!
//! The crate is dependency-light on purpose: every other crate in the
//! workspace (simulator, partitioner, RL model, baselines) builds on these
//! types.

pub mod cluster;
pub mod coarsen;
pub mod csr;
pub mod delta;
pub mod features;
pub mod graph;
pub mod hetero;
pub mod placement;
pub mod rates;
pub mod serialize;
pub mod topo;
pub mod unionfind;
pub mod view;
pub mod weighted;
pub mod wire;
mod wire_fast;

pub use cluster::{ClusterSpec, MAX_DEVICES};
pub use coarsen::{CoarseGraph, Coarsening};
pub use csr::Csr;
pub use delta::{AppliedDelta, DeltaError, GraphDelta, DEFAULT_CHURN_THRESHOLD};
pub use features::{EdgeFeatures, GraphFeatures, NodeFeatures};
pub use graph::{Channel, EdgeId, GraphError, NodeId, Operator, StreamGraph, StreamGraphBuilder};
pub use hetero::HeteroClusterSpec;
pub use placement::Placement;
pub use rates::TupleRates;
pub use view::TopoView;
pub use weighted::WeightedGraph;

/// An allocator maps a stream graph onto a device cluster.
///
/// Implemented by every method compared in the paper: the Metis-style
/// multilevel partitioner, the learned baselines (Graph-enc-dec, GDP,
/// Hierarchical) and the coarsening-partitioning framework itself.
pub trait Allocator {
    /// Produce a placement of `graph` on `cluster` given the source tuple
    /// rate (tuples/second entering each source operator).
    fn allocate(&self, graph: &StreamGraph, cluster: &ClusterSpec, source_rate: f64) -> Placement;

    /// Human-readable name used in experiment tables.
    fn name(&self) -> &str;
}
