//! Edge-aware stream graph encoding (§IV-A).
//!
//! Each node carries two directional embeddings: an *upstream-view* half
//! `h⁺` aggregated from producers and a *downstream-view* half `h⁻`
//! aggregated from consumers. One hop:
//!
//! ```text
//! msg(u→v) = tanh(W₁·h⁺_u + W_edge·f_{u,v})          (information aggregation)
//! h⁺_v ← tanh(W₂·[h⁺_v : mean_{u∈N⁺(v)} msg(u→v)])   (node update)
//! ```
//!
//! and symmetrically for the downstream half on reversed edges. As in the
//! paper, `W₁`/`W₂` are shared between directions. The final node
//! representation is `h_v = [h⁺_v : h⁻_v]`.

use crate::config::CoarsenConfig;
use rand::Rng;
use spg_graph::features::{EDGE_FEATURES, NODE_FEATURES};
use spg_graph::{GraphFeatures, TopoView};
use spg_nn::layers::{Activation, Linear, Mlp};
use spg_nn::{Matrix, ParamSet, Tape, Var};

/// The edge-aware GNN encoder.
#[derive(Debug, Clone)]
pub struct EdgeAwareGnn {
    pub(crate) input_proj: Linear,
    pub(crate) msg: Mlp,
    pub(crate) update: Linear,
    pub(crate) hidden: usize,
    pub(crate) hops: usize,
    pub(crate) edge_encoding: bool,
}

impl EdgeAwareGnn {
    /// Build with parameters registered into `set`.
    pub fn new<R: Rng>(cfg: &CoarsenConfig, set: &mut ParamSet, rng: &mut R) -> Self {
        let m = cfg.hidden;
        Self {
            input_proj: Linear::new(NODE_FEATURES, m, set, rng),
            // W₁·h + W_edge·f with a bias, as one linear over the concat.
            msg: Mlp::new(&[m + EDGE_FEATURES, m], Activation::Tanh, set, rng),
            update: Linear::new(2 * m, m, set, rng),
            hidden: m,
            hops: cfg.hops,
            edge_encoding: cfg.edge_encoding,
        }
    }

    /// Width of the final node representation (`2m`).
    pub fn output_dim(&self) -> usize {
        2 * self.hidden
    }

    /// Encode a topology; returns the `[N x 2m]` node representation.
    pub fn encode(&self, t: &mut Tape, view: &TopoView<'_>, feats: &GraphFeatures) -> Var {
        let n = view.num_nodes;
        let e = view.edges.len();

        let node_feats = t.input(Matrix::from_vec(n, NODE_FEATURES, feats.node.0.clone()));
        let edge_feats = if self.edge_encoding {
            Matrix::from_vec(
                e.max(1),
                EDGE_FEATURES,
                if e == 0 {
                    vec![0.0; EDGE_FEATURES]
                } else {
                    feats.edge.0.clone()
                },
            )
        } else {
            Matrix::zeros(e.max(1), EDGE_FEATURES)
        };
        let edge_feats = t.input(edge_feats);

        let h0 = self.input_proj.forward(t, node_feats);
        let mut h_up = t.tanh(h0);
        let mut h_down = h_up;

        if e == 0 {
            return t.concat_cols(&[h_up, h_down]);
        }

        let src: Vec<u32> = view.edges.iter().map(|&(s, _)| s).collect();
        let dst: Vec<u32> = view.edges.iter().map(|&(_, d)| d).collect();

        for _ in 0..self.hops {
            // Upstream view: messages flow along edge direction to dst.
            let up_in = t.gather_rows(h_up, &src);
            let up_cat = t.concat_cols(&[up_in, edge_feats]);
            let up_msg = self.msg.forward(t, up_cat);
            let up_msg = t.tanh(up_msg);
            let up_pool = t.segment_mean(up_msg, &dst, n);
            let up_cat2 = t.concat_cols(&[h_up, up_pool]);
            let up_new = self.update.forward(t, up_cat2);
            let up_new = t.tanh(up_new);

            // Downstream view: messages flow against edge direction to src.
            let down_in = t.gather_rows(h_down, &dst);
            let down_cat = t.concat_cols(&[down_in, edge_feats]);
            let down_msg = self.msg.forward(t, down_cat);
            let down_msg = t.tanh(down_msg);
            let down_pool = t.segment_mean(down_msg, &src, n);
            let down_cat2 = t.concat_cols(&[h_down, down_pool]);
            let down_new = self.update.forward(t, down_cat2);
            let down_new = t.tanh(down_new);

            h_up = up_new;
            h_down = down_new;
        }

        t.concat_cols(&[h_up, h_down])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spg_graph::{Channel, ClusterSpec, Operator, StreamGraph, StreamGraphBuilder};

    fn tiny() -> StreamGraph {
        let mut b = StreamGraphBuilder::new();
        let a = b.add_node(Operator::new(100.0));
        let c = b.add_node(Operator::new(200.0));
        let d = b.add_node(Operator::new(300.0));
        b.add_edge(a, c, Channel::new(10.0)).unwrap();
        b.add_edge(c, d, Channel::new(20.0)).unwrap();
        b.add_edge(a, d, Channel::new(5.0)).unwrap();
        b.finish().unwrap()
    }

    fn encode_tiny(cfg: &CoarsenConfig, seed: u64) -> Matrix {
        let g = tiny();
        let feats = GraphFeatures::extract(&g, &ClusterSpec::paper_medium(4), 1e4);
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let enc = EdgeAwareGnn::new(cfg, &mut set, &mut rng);
        let mut t = Tape::new();
        let h = enc.encode(&mut t, &g.topo_view(), &feats);
        t.value(h).clone()
    }

    #[test]
    fn output_shape_is_n_by_2m() {
        let cfg = CoarsenConfig::default();
        let h = encode_tiny(&cfg, 0);
        assert_eq!(h.rows, 3);
        assert_eq!(h.cols, 2 * cfg.hidden);
        assert!(h.is_finite());
    }

    #[test]
    fn edge_features_change_embeddings() {
        let with = encode_tiny(&CoarsenConfig::default(), 0);
        let without = encode_tiny(&CoarsenConfig::without_edge_encoding(), 0);
        // Same seeds => same weights; only the edge features differ.
        assert!(with != without, "ablation must change the encoding");
    }

    #[test]
    fn directional_halves_differ() {
        let cfg = CoarsenConfig::default();
        let h = encode_tiny(&cfg, 1);
        let m = cfg.hidden;
        // The source node has no upstream neighbours but two downstream
        // ones, so its two halves should differ.
        let up = &h.row(0)[..m];
        let down = &h.row(0)[m..];
        assert!(up != down, "directional views should differ");
    }

    #[test]
    fn single_node_graph_encodes() {
        let mut b = StreamGraphBuilder::new();
        b.add_node(Operator::new(1.0));
        let g = b.finish().unwrap();
        let feats = GraphFeatures::extract(&g, &ClusterSpec::paper_medium(2), 1e4);
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let enc = EdgeAwareGnn::new(&CoarsenConfig::default(), &mut set, &mut rng);
        let mut t = Tape::new();
        let h = enc.encode(&mut t, &g.topo_view(), &feats);
        assert_eq!(t.value(h).rows, 1);
        assert!(t.value(h).is_finite());
    }
}
