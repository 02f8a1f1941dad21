//! The complete coarsening model: encoder + collapse head.

use crate::collapse::CollapseHead;
use crate::config::CoarsenConfig;
use crate::encoder::EdgeAwareGnn;
use crate::infer::InferenceScratch;
use rand::Rng;
use spg_graph::{ClusterSpec, GraphFeatures, StreamGraph};
use spg_nn::{ParamSet, Tape, Var};

/// The edge-collapsing coarsening model (§IV): encoder and collapse
/// head.
#[derive(Debug, Clone)]
pub struct CoarsenModel {
    /// Hyperparameters (kept for checkpointing / ablation bookkeeping).
    pub config: CoarsenConfig,
    pub(crate) encoder: EdgeAwareGnn,
    pub(crate) head: CollapseHead,
    params: ParamSet,
}

impl CoarsenModel {
    /// Fresh model with Xavier-initialised weights.
    pub fn new<R: Rng>(config: CoarsenConfig, rng: &mut R) -> Self {
        let mut params = ParamSet::new();
        let encoder = EdgeAwareGnn::new(&config, &mut params, rng);
        let head = CollapseHead::new(&config, encoder.output_dim(), &mut params, rng);
        Self {
            config,
            encoder,
            head,
            params,
        }
    }

    /// The model's trainable parameters.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Differentiable forward pass: per-edge collapse logits (`[E x 1]`).
    /// Returns `None` for edgeless graphs (nothing to collapse).
    pub fn forward(&self, t: &mut Tape, graph: &StreamGraph, feats: &GraphFeatures) -> Option<Var> {
        if graph.num_edges() == 0 {
            return None;
        }
        let view = graph.topo_view();
        let h = self.encoder.encode(t, &view, feats);
        Some(self.head.logits(t, &view, feats, h))
    }

    /// Inference-only collapse probabilities per edge.
    pub fn predict_probs(
        &self,
        graph: &StreamGraph,
        cluster: &ClusterSpec,
        source_rate: f64,
    ) -> Vec<f32> {
        let feats = GraphFeatures::extract(graph, cluster, source_rate);
        self.predict_probs_with_features(graph, &feats)
    }

    /// Inference-only probabilities reusing extracted features. Runs the
    /// tape-free forward (see [`crate::infer`]), which is pinned bitwise
    /// identical to the tape path by the `tests/infer.rs` corpus.
    pub fn predict_probs_with_features(
        &self,
        graph: &StreamGraph,
        feats: &GraphFeatures,
    ) -> Vec<f32> {
        let mut scratch = InferenceScratch::new();
        self.infer_probs(graph, feats, &mut scratch)
    }

    /// Number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }
}

/// The numerically stable sigmoid shared with the tape ops (identical
/// bits between training-forward probabilities and inference).
pub(crate) use spg_nn::stable_sigmoid as sigmoid;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spg_graph::{Channel, Operator, StreamGraphBuilder};

    fn tiny() -> StreamGraph {
        let mut b = StreamGraphBuilder::new();
        let a = b.add_node(Operator::new(100.0));
        let c = b.add_node(Operator::new(200.0));
        b.add_edge(a, c, Channel::new(10.0)).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn probabilities_are_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        let probs = model.predict_probs(&tiny(), &ClusterSpec::paper_medium(4), 1e4);
        assert_eq!(probs.len(), 1);
        assert!(probs
            .iter()
            .all(|&p| (0.0..=1.0).contains(&p) && p.is_finite()));
    }

    #[test]
    fn edgeless_graph_gives_empty_probs() {
        let mut b = StreamGraphBuilder::new();
        b.add_node(Operator::new(1.0));
        let g = b.finish().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        assert!(model
            .predict_probs(&g, &ClusterSpec::paper_medium(2), 1e4)
            .is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(5);
        let mut r2 = ChaCha8Rng::seed_from_u64(5);
        let m1 = CoarsenModel::new(CoarsenConfig::default(), &mut r1);
        let m2 = CoarsenModel::new(CoarsenConfig::default(), &mut r2);
        let g = tiny();
        let c = ClusterSpec::paper_medium(4);
        assert_eq!(m1.predict_probs(&g, &c, 1e4), m2.predict_probs(&g, &c, 1e4));
    }

    #[test]
    fn has_plausible_parameter_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        let n = model.num_parameters();
        assert!(n > 1_000 && n < 1_000_000, "param count {n}");
    }
}
