//! Graph deltas: the mutation language of incremental re-allocation.
//!
//! A running stream job drifts — operators are hot-swapped, channels
//! rewired, rates ramp, devices drop out. A [`GraphDelta`] names one
//! such drift step against a *prior* [`StreamGraph`] so the allocator
//! can warm-start from the prior placement instead of re-running the
//! full pipeline (see `spg-partition`'s `incremental` module and
//! DESIGN.md §15).
//!
//! ## Id space
//!
//! Delta endpoints are expressed in the **prior** graph's node ids.
//! Nodes added by the delta get *virtual* ids `n..n+a` (where `n` is
//! the prior node count and `a = add_nodes.len()`), in `add_nodes`
//! order, so `add_edges` can wire new nodes to old ones and to each
//! other. [`GraphDelta::apply`] compacts surviving nodes in prior
//! order, appends the added nodes, and remaps every edge — the
//! [`AppliedDelta::origin`] table records where each new node came
//! from, which is exactly what placement projection needs.
//!
//! Removing a node implicitly removes its incident edges (the normal
//! case for operator removal); `remove_edges` is for rewiring between
//! surviving nodes and must name edges that exist.

use crate::cluster::MAX_DEVICES;
use crate::graph::{Channel, GraphError, Operator, StreamGraph};
use crate::serialize::validate_numbers;
use serde::{Serialize, Value};
use std::fmt;

/// Churn ratio above which warm-starting is not worth it and the
/// incremental path falls back to the full coarsening pipeline. Lives
/// here (not in `spg-partition`) so the drift generator in `spg-gen`
/// can target sub-threshold deltas without a dependency cycle.
pub const DEFAULT_CHURN_THRESHOLD: f64 = 0.25;

/// One drift step against a prior [`StreamGraph`]. All fields are
/// optional on the wire; the default is the empty delta (a pure
/// re-validation of the prior placement).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    /// Prior node ids to remove (incident edges go with them).
    pub remove_nodes: Vec<u32>,
    /// Operators to append; the `j`-th gets virtual id `n + j`.
    pub add_nodes: Vec<Operator>,
    /// Edges between surviving prior nodes to remove (must exist).
    pub remove_edges: Vec<(u32, u32)>,
    /// Edges to add, endpoints in the extended id space.
    pub add_edges: Vec<(u32, u32)>,
    /// Channel of each added edge (parallel to `add_edges`).
    pub add_channels: Vec<Channel>,
    /// Per-node cost overrides `(prior node, new ipt)`.
    pub set_ipt: Vec<(u32, f64)>,
    /// Prior edges whose channel is replaced (paired with
    /// `set_channels`).
    pub set_channel_edges: Vec<(u32, u32)>,
    /// Replacement channels (parallel to `set_channel_edges`).
    pub set_channels: Vec<Channel>,
    /// New device count (device loss/gain); `None` keeps the prior
    /// cluster.
    pub devices: Option<usize>,
    /// New source rate (rate ramp); `None` keeps the prior rate.
    pub source_rate: Option<f64>,
}

/// A delta applied to a prior graph: the mutated graph plus the
/// node-provenance table placement projection runs on.
#[derive(Debug, Clone)]
pub struct AppliedDelta {
    /// The validated post-delta graph.
    pub graph: StreamGraph,
    /// For each new node, the prior node it came from (`None` for nodes
    /// the delta added).
    pub origin: Vec<Option<u32>>,
}

/// Why a delta could not be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// The delta itself is inconsistent with the prior graph (bad
    /// index, missing edge, mismatched parallel arrays, ...).
    BadDelta(String),
    /// The delta is well-formed but the mutated graph fails structural
    /// or numeric validation (cycle, empty, non-finite cost, ...).
    InvalidResult(String),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::BadDelta(d) => write!(f, "bad delta: {d}"),
            DeltaError::InvalidResult(d) => write!(f, "delta result invalid: {d}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl GraphDelta {
    /// True when applying this delta is the identity (placement and
    /// throughput of the prior response remain exact).
    pub fn is_empty(&self) -> bool {
        self.keeps_graph() && self.devices.is_none() && self.source_rate.is_none()
    }

    /// Topological churn: mutated nodes + edges over the prior graph's
    /// size. Weight/rate/device changes are churn-free — they are the
    /// cases warm-started refinement handles best.
    pub fn churn(&self, prior: &StreamGraph) -> f64 {
        let mutated = self.remove_nodes.len()
            + self.add_nodes.len()
            + self.remove_edges.len()
            + self.add_edges.len();
        mutated as f64 / (prior.num_nodes() + prior.num_edges()).max(1) as f64
    }

    /// Cheap shape checks that need no prior graph: parallel arrays
    /// line up, overrides are sane. Used by the wire parser so a
    /// malformed delta is refused before it is routed.
    pub fn validate_shape(&self) -> Result<(), DeltaError> {
        if self.add_edges.len() != self.add_channels.len() {
            return Err(DeltaError::BadDelta(format!(
                "add_edges/add_channels length mismatch ({} vs {})",
                self.add_edges.len(),
                self.add_channels.len()
            )));
        }
        if self.set_channel_edges.len() != self.set_channels.len() {
            return Err(DeltaError::BadDelta(format!(
                "set_channel_edges/set_channels length mismatch ({} vs {})",
                self.set_channel_edges.len(),
                self.set_channels.len()
            )));
        }
        if self.devices == Some(0) {
            return Err(DeltaError::BadDelta(
                "devices must be at least 1".to_string(),
            ));
        }
        if let Some(d) = self.devices.filter(|&d| d > MAX_DEVICES) {
            return Err(DeltaError::BadDelta(format!(
                "devices must be at most {MAX_DEVICES}, got {d}"
            )));
        }
        if let Some(sr) = self.source_rate {
            if !(sr.is_finite() && sr > 0.0) {
                return Err(DeltaError::BadDelta(format!(
                    "source_rate must be finite positive, got {sr}"
                )));
            }
        }
        Ok(())
    }

    /// True when the delta removes, adds and overrides nothing — a rate
    /// ramp or a device-count change — so the mutated graph is the prior.
    fn keeps_graph(&self) -> bool {
        self.remove_nodes.is_empty()
            && self.add_nodes.is_empty()
            && self.remove_edges.is_empty()
            && self.add_edges.is_empty()
            && self.set_ipt.is_empty()
            && self.set_channel_edges.is_empty()
    }

    /// Apply to `prior`, producing the mutated graph (built once through
    /// the validating constructor, then given the numeric checks dataset
    /// and wire graphs get) and the provenance table. A delta that keeps
    /// the graph gets the same checks and a clone of `prior`, which is
    /// what the rebuild would produce.
    pub fn apply(&self, prior: &StreamGraph) -> Result<AppliedDelta, DeltaError> {
        self.validate_shape()?;
        let n = prior.num_nodes();
        if self.keeps_graph() {
            validate_numbers(prior).map_err(|e| DeltaError::InvalidResult(e.to_string()))?;
            return Ok(AppliedDelta {
                graph: prior.clone(),
                origin: (0..n as u32).map(Some).collect(),
            });
        }
        let bad = |msg: String| DeltaError::BadDelta(msg);

        let mut removed = vec![false; n];
        for &v in &self.remove_nodes {
            let Some(slot) = removed.get_mut(v as usize) else {
                return Err(bad(format!("remove_nodes: n{v} out of range ({n} nodes)")));
            };
            if *slot {
                return Err(bad(format!("remove_nodes: n{v} listed twice")));
            }
            *slot = true;
        }

        // Cost overrides act on the prior id space, before compaction.
        let mut ops: Vec<Operator> = prior.ops().to_vec();
        for &(v, ipt) in &self.set_ipt {
            match removed.get(v as usize) {
                None => return Err(bad(format!("set_ipt: n{v} out of range ({n} nodes)"))),
                Some(true) => return Err(bad(format!("set_ipt: n{v} is being removed"))),
                Some(false) => ops[v as usize].ipt = ipt,
            }
        }

        // Old id (extended with virtual ids for added nodes) → new id.
        let mut remap: Vec<Option<u32>> = Vec::with_capacity(n + self.add_nodes.len());
        let mut origin: Vec<Option<u32>> = Vec::with_capacity(n + self.add_nodes.len());
        let mut new_ops: Vec<Operator> = Vec::with_capacity(n + self.add_nodes.len());
        for (v, &gone) in removed.iter().enumerate() {
            if gone {
                remap.push(None);
            } else {
                remap.push(Some(new_ops.len() as u32));
                origin.push(Some(v as u32));
                new_ops.push(ops[v]);
            }
        }
        for op in &self.add_nodes {
            remap.push(Some(new_ops.len() as u32));
            origin.push(None);
            new_ops.push(*op);
        }

        // Prior edges: channel overrides, explicit removals, implicit
        // removals of edges touching removed nodes.
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(prior.num_edges());
        let mut channels: Vec<Channel> = Vec::with_capacity(prior.num_edges());
        let mut chan_override: Vec<Option<Channel>> = vec![None; prior.num_edges()];
        for (&(s, d), &ch) in self.set_channel_edges.iter().zip(&self.set_channels) {
            let Some(e) = prior.edge_list().iter().position(|&p| p == (s, d)) else {
                return Err(bad(format!("set_channel: no prior edge n{s} -> n{d}")));
            };
            chan_override[e] = Some(ch);
        }
        let mut drop_edge: Vec<bool> = vec![false; prior.num_edges()];
        for &(s, d) in &self.remove_edges {
            let Some(e) = prior.edge_list().iter().position(|&p| p == (s, d)) else {
                return Err(bad(format!("remove_edges: no prior edge n{s} -> n{d}")));
            };
            if drop_edge[e] {
                return Err(bad(format!("remove_edges: n{s} -> n{d} listed twice")));
            }
            drop_edge[e] = true;
        }
        for (e, &(s, d)) in prior.edge_list().iter().enumerate() {
            if drop_edge[e] {
                continue;
            }
            let (Some(ns), Some(nd)) = (remap[s as usize], remap[d as usize]) else {
                continue; // endpoint removed → edge goes with it
            };
            edges.push((ns, nd));
            channels.push(chan_override[e].unwrap_or(prior.channels()[e]));
        }

        // Added edges, endpoints in the extended id space.
        for (&(s, d), &ch) in self.add_edges.iter().zip(&self.add_channels) {
            let ext = remap.len();
            let lookup = |v: u32| -> Result<u32, DeltaError> {
                match remap.get(v as usize) {
                    None => Err(bad(format!(
                        "add_edges: n{v} out of range ({ext} incl. added)"
                    ))),
                    Some(None) => Err(bad(format!("add_edges: endpoint n{v} is being removed"))),
                    Some(Some(nv)) => Ok(*nv),
                }
            };
            edges.push((lookup(s)?, lookup(d)?));
            channels.push(ch);
        }

        let graph = StreamGraph::from_parts(new_ops, edges, channels).map_err(|e| match e {
            // An empty or cyclic result is the delta's fault in spirit,
            // but it is the *result* that is unusable — name it so.
            GraphError::Empty | GraphError::Cycle => DeltaError::InvalidResult(e.to_string()),
            other => DeltaError::BadDelta(other.to_string()),
        })?;
        validate_numbers(&graph).map_err(|e| DeltaError::InvalidResult(e.to_string()))?;
        Ok(AppliedDelta { graph, origin })
    }
}

// Hand-rolled wire encoding (the vendored serde derive has no
// optional-field support): empty fields are omitted so a small delta
// serializes small. The request scanner in `crate::wire_fast` reads it
// back, with every field optional.
impl Serialize for GraphDelta {
    fn serialize(&self) -> Value {
        let mut fields = Vec::new();
        if !self.remove_nodes.is_empty() {
            fields.push(("remove_nodes".to_string(), self.remove_nodes.serialize()));
        }
        if !self.add_nodes.is_empty() {
            fields.push(("add_nodes".to_string(), self.add_nodes.serialize()));
        }
        if !self.remove_edges.is_empty() {
            fields.push(("remove_edges".to_string(), self.remove_edges.serialize()));
        }
        if !self.add_edges.is_empty() {
            fields.push(("add_edges".to_string(), self.add_edges.serialize()));
            fields.push(("add_channels".to_string(), self.add_channels.serialize()));
        }
        if !self.set_ipt.is_empty() {
            fields.push(("set_ipt".to_string(), self.set_ipt.serialize()));
        }
        if !self.set_channel_edges.is_empty() {
            fields.push((
                "set_channel_edges".to_string(),
                self.set_channel_edges.serialize(),
            ));
            fields.push(("set_channels".to_string(), self.set_channels.serialize()));
        }
        if let Some(d) = self.devices {
            fields.push(("devices".to_string(), d.serialize()));
        }
        if let Some(sr) = self.source_rate {
            fields.push(("source_rate".to_string(), sr.serialize()));
        }
        Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::StreamGraphBuilder;

    /// 0 → 1 → 2 chain with one skip edge 0 → 2.
    fn diamondish() -> StreamGraph {
        let mut b = StreamGraphBuilder::new();
        let a = b.add_node(Operator::new(100.0));
        let c = b.add_node(Operator::new(200.0));
        let d = b.add_node(Operator::new(300.0));
        b.add_edge(a, c, Channel::new(8.0)).unwrap();
        b.add_edge(c, d, Channel::new(16.0)).unwrap();
        b.add_edge(a, d, Channel::new(4.0)).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = diamondish();
        let delta = GraphDelta::default();
        assert!(delta.is_empty());
        assert_eq!(delta.churn(&g), 0.0);
        let applied = delta.apply(&g).unwrap();
        assert_eq!(applied.graph, g);
        assert_eq!(applied.origin, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn node_removal_takes_incident_edges_and_compacts() {
        let g = diamondish();
        let delta = GraphDelta {
            remove_nodes: vec![1],
            ..GraphDelta::default()
        };
        let applied = delta.apply(&g).unwrap();
        assert_eq!(applied.graph.num_nodes(), 2);
        // Only the skip edge 0 → 2 survives, remapped to 0 → 1.
        assert_eq!(applied.graph.edge_list(), &[(0, 1)]);
        assert_eq!(applied.graph.channels()[0].payload, 4.0);
        assert_eq!(applied.origin, vec![Some(0), Some(2)]);
    }

    #[test]
    fn hot_swap_adds_node_under_virtual_id() {
        let g = diamondish();
        // Replace node 1 with a cheaper operator wired identically; the
        // replacement's virtual id is 3 (= prior node count).
        let delta = GraphDelta {
            remove_nodes: vec![1],
            add_nodes: vec![Operator::new(50.0)],
            add_edges: vec![(0, 3), (3, 2)],
            add_channels: vec![Channel::new(8.0), Channel::new(16.0)],
            ..GraphDelta::default()
        };
        let applied = delta.apply(&g).unwrap();
        assert_eq!(applied.graph.num_nodes(), 3);
        assert_eq!(applied.origin, vec![Some(0), Some(2), None]);
        let mut edges = applied.graph.edge_list().to_vec();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (2, 1)]);
        assert_eq!(applied.graph.ops()[2].ipt, 50.0);
    }

    #[test]
    fn weight_and_channel_overrides_apply_in_place() {
        let g = diamondish();
        let delta = GraphDelta {
            set_ipt: vec![(2, 999.0)],
            set_channel_edges: vec![(1, 2)],
            set_channels: vec![Channel::with_selectivity(64.0, 0.5)],
            source_rate: Some(123.0),
            ..GraphDelta::default()
        };
        assert!(!delta.is_empty());
        assert_eq!(delta.churn(&g), 0.0, "overrides are churn-free");
        let applied = delta.apply(&g).unwrap();
        assert_eq!(applied.graph.ops()[2].ipt, 999.0);
        let e = applied
            .graph
            .edge_list()
            .iter()
            .position(|&p| p == (1, 2))
            .unwrap();
        assert_eq!(applied.graph.channels()[e].payload, 64.0);
        assert_eq!(applied.graph.channels()[e].selectivity, 0.5);
    }

    #[test]
    fn churn_counts_topology_only() {
        let g = diamondish(); // 3 nodes + 3 edges
        let delta = GraphDelta {
            remove_edges: vec![(0, 2)],
            add_nodes: vec![Operator::new(1.0)],
            add_edges: vec![(2, 3)],
            add_channels: vec![Channel::new(1.0)],
            devices: Some(2),
            ..GraphDelta::default()
        };
        assert_eq!(delta.churn(&g), 3.0 / 6.0);
    }

    #[test]
    fn bad_deltas_are_named() {
        let g = diamondish();
        let cases = vec![
            GraphDelta {
                remove_nodes: vec![9],
                ..GraphDelta::default()
            },
            GraphDelta {
                remove_nodes: vec![1, 1],
                ..GraphDelta::default()
            },
            GraphDelta {
                remove_edges: vec![(2, 0)],
                ..GraphDelta::default()
            },
            GraphDelta {
                add_edges: vec![(0, 1)],
                add_channels: vec![],
                ..GraphDelta::default()
            },
            GraphDelta {
                set_ipt: vec![(1, 5.0)],
                remove_nodes: vec![1],
                ..GraphDelta::default()
            },
            GraphDelta {
                devices: Some(0),
                ..GraphDelta::default()
            },
            GraphDelta {
                source_rate: Some(f64::NAN),
                ..GraphDelta::default()
            },
            GraphDelta {
                add_edges: vec![(0, 7)],
                add_channels: vec![Channel::new(1.0)],
                ..GraphDelta::default()
            },
        ];
        for delta in cases {
            assert!(
                matches!(delta.apply(&g), Err(DeltaError::BadDelta(_))),
                "{delta:?} should be BadDelta"
            );
        }
    }

    #[test]
    fn unusable_results_are_invalid_not_bad() {
        let g = diamondish();
        // Removing every node empties the graph.
        let all_gone = GraphDelta {
            remove_nodes: vec![0, 1, 2],
            ..GraphDelta::default()
        };
        assert!(matches!(
            all_gone.apply(&g),
            Err(DeltaError::InvalidResult(_))
        ));
        // A back-edge closes a cycle.
        let cyclic = GraphDelta {
            add_edges: vec![(2, 0)],
            add_channels: vec![Channel::new(1.0)],
            ..GraphDelta::default()
        };
        assert!(matches!(
            cyclic.apply(&g),
            Err(DeltaError::InvalidResult(_))
        ));
        // A negative cost fails numeric validation.
        let negative = GraphDelta {
            set_ipt: vec![(0, -1.0)],
            ..GraphDelta::default()
        };
        assert!(matches!(
            negative.apply(&g),
            Err(DeltaError::InvalidResult(_))
        ));
    }
}
