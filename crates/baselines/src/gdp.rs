//! GDP-lite (Zhou et al. 2019): direct placement with a graph encoder
//! followed by an attention-based placement network. We keep the published
//! structure — graph embedding, one block of scaled dot-product
//! self-attention over the nodes, per-node softmax over devices — without
//! the Transformer-XL depth (a deliberate scale-down documented in
//! DESIGN.md; the baseline's failure mode on large graphs is architectural,
//! not capacity-bound).

use crate::trainer::{greedy_placement, pick_action, PolicyInput, PolicyModel, RolloutMode};
use rand::Rng;
use spg_core::config::CoarsenConfig;
use spg_core::encoder::EdgeAwareGnn;
use spg_graph::{Allocator, ClusterSpec, Placement, StreamGraph};
use spg_nn::layers::Linear;
use spg_nn::{ParamSet, Tape, Var};

/// The GDP-lite model.
pub struct GdpLite {
    /// Device count the output layer covers.
    pub devices: usize,
    encoder: EdgeAwareGnn,
    q_proj: Linear,
    k_proj: Linear,
    v_proj: Linear,
    out: Linear,
    params: ParamSet,
    name: String,
    scale: f32,
}

impl GdpLite {
    /// Fresh model.
    pub fn new<R: Rng>(cfg: &CoarsenConfig, devices: usize, rng: &mut R) -> Self {
        let mut params = ParamSet::new();
        let encoder = EdgeAwareGnn::new(cfg, &mut params, rng);
        let emb = encoder.output_dim();
        let att = cfg.hidden;
        Self {
            devices,
            q_proj: Linear::new(emb, att, &mut params, rng),
            k_proj: Linear::new(emb, att, &mut params, rng),
            v_proj: Linear::new(emb, att, &mut params, rng),
            out: Linear::new(emb + att, devices, &mut params, rng),
            encoder,
            params,
            name: "GDP".to_string(),
            scale: 1.0 / (att as f32).sqrt(),
        }
    }

    /// Per-node device logits (`[N x D]`).
    fn logits(&self, tape: &mut Tape, input: &PolicyInput<'_>) -> Var {
        let h = self.encoder.encode(tape, &input.view, input.feats);
        let q = self.q_proj.forward(tape, h);
        let k = self.k_proj.forward(tape, h);
        let v = self.v_proj.forward(tape, h);
        let scores = tape.matmul_t(q, k);
        let scores = tape.scale(scores, self.scale);
        let attn = tape.row_softmax(scores);
        let ctx = tape.matmul(attn, v);
        let cat = tape.concat_cols(&[h, ctx]);
        self.out.forward(tape, cat)
    }
}

impl PolicyModel for GdpLite {
    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn rollout<R: Rng>(
        &self,
        input: &PolicyInput<'_>,
        mode: RolloutMode,
        rng: &mut R,
    ) -> (Tape, Placement, Var) {
        assert_eq!(
            input.devices, self.devices,
            "model built for {} devices",
            self.devices
        );
        let mut tape = Tape::new();
        let logits = self.logits(&mut tape, input);
        let n = input.view.num_nodes;
        let mut assignment = Vec::with_capacity(n);
        for r in 0..n {
            let row = tape.value(logits).row(r).to_vec();
            assignment.push(pick_action(&row, mode, rng));
        }
        let ll = tape.categorical_log_prob(logits, &assignment);
        (tape, Placement::new(assignment), ll)
    }

    fn model_name(&self) -> &str {
        &self.name
    }
}

impl Allocator for GdpLite {
    fn allocate(&self, graph: &StreamGraph, cluster: &ClusterSpec, source_rate: f64) -> Placement {
        greedy_placement(self, graph, cluster, source_rate, self.devices)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{PolicyTrainOptions, PolicyTrainer};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spg_gen::{DatasetSpec, Setting};

    #[test]
    fn produces_valid_placements() {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let g = spg_gen::generate_graph(&spec, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = GdpLite::new(&CoarsenConfig::default(), cluster.devices, &mut rng);
        let p = model.allocate(&g, &cluster, spec.source_rate);
        assert!(p.validate(&g, cluster.devices));
    }

    #[test]
    fn greedy_is_deterministic_given_weights() {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let g = spg_gen::generate_graph(&spec, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let model = GdpLite::new(&CoarsenConfig::default(), cluster.devices, &mut rng);
        let a = model.allocate(&g, &cluster, spec.source_rate);
        let b = model.allocate(&g, &cluster, spec.source_rate);
        assert_eq!(a, b, "greedy decoding must not depend on the seed stream");
    }

    #[test]
    fn trains_one_epoch() {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let graphs: Vec<StreamGraph> = (0..2u64)
            .map(|s| spg_gen::generate_graph(&spec, s))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let model = GdpLite::new(&CoarsenConfig::default(), cluster.devices, &mut rng);
        let mut t = PolicyTrainer::new(
            model,
            graphs,
            cluster,
            spec.source_rate,
            PolicyTrainOptions::default(),
        );
        let r = t.train_epoch();
        assert!((0.0..=1.0).contains(&r));
    }
}
