//! Graph-enc-dec (Ni et al., AAAI'20): the state-of-the-art learned
//! baseline. A graph encoder embeds the nodes; an LSTM decoder walks the
//! nodes in topological order and assigns a device per node, conditioning
//! on the previous assignment (graph-to-sequence).
//!
//! Because it implements [`spg_core::pipeline::CoarsePlacer`], it can also
//! serve as the partitioning model `M` of the coarsening framework
//! (the paper's Coarsen+Graph-enc-dec configuration).

use crate::trainer::{greedy_placement, pick_action, PolicyInput, PolicyModel, RolloutMode};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_core::config::CoarsenConfig;
use spg_core::encoder::EdgeAwareGnn;
use spg_core::pipeline::CoarsePlacer;
use spg_graph::{Allocator, ClusterSpec, CoarseGraph, GraphFeatures, Placement, StreamGraph};
use spg_nn::layers::{Linear, LstmCell};
use spg_nn::{Matrix, ParamSet, Tape, Var};

/// The Graph-enc-dec model, built for a fixed device count.
pub struct GraphEncDec {
    /// Number of devices the decoder outputs over.
    pub devices: usize,
    encoder: EdgeAwareGnn,
    decoder: LstmCell,
    out: Linear,
    params: ParamSet,
    name: String,
}

impl GraphEncDec {
    /// Fresh model. `cfg.hidden` controls the encoder width.
    pub fn new<R: Rng>(cfg: &CoarsenConfig, devices: usize, rng: &mut R) -> Self {
        let mut params = ParamSet::new();
        let encoder = EdgeAwareGnn::new(cfg, &mut params, rng);
        let emb = encoder.output_dim();
        let hidden = emb;
        let decoder = LstmCell::new(emb + devices, hidden, &mut params, rng);
        let out = Linear::new(hidden, devices, &mut params, rng);
        Self {
            devices,
            encoder,
            decoder,
            out,
            params,
            name: "Graph-enc-dec".to_string(),
        }
    }
}

impl PolicyModel for GraphEncDec {
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
        let n = input.view.num_nodes;
        let mut tape = Tape::new();
        let h = self.encoder.encode(&mut tape, &input.view, input.feats);

        let (mut state_h, mut state_c) = self.decoder.zero_state(&mut tape, 1);
        let mut prev = tape.input(Matrix::zeros(1, self.devices));
        let mut assignment = vec![0u32; n];
        let mut ll_terms: Vec<Var> = Vec::with_capacity(n);

        for &v in input.order {
            let hv = tape.gather_rows(h, &[v]);
            let inp = tape.concat_cols(&[hv, prev]);
            let (h2, c2) = self.decoder.step(&mut tape, inp, state_h, state_c);
            state_h = h2;
            state_c = c2;
            let logits = self.out.forward(&mut tape, state_h); // [1 x D]
            let row = tape.value(logits).row(0).to_vec();
            let action = pick_action(&row, mode, rng);
            assignment[v as usize] = action;
            ll_terms.push(tape.categorical_log_prob(logits, &[action]));
            // Feed the chosen device back in as a one-hot.
            let mut onehot = Matrix::zeros(1, self.devices);
            onehot.set(0, action as usize, 1.0);
            prev = tape.input(onehot);
        }

        let mut ll = ll_terms[0];
        for &term in &ll_terms[1..] {
            ll = tape.add(ll, term);
        }
        (tape, Placement::new(assignment), ll)
    }

    fn model_name(&self) -> &str {
        &self.name
    }
}

impl Allocator for GraphEncDec {
    fn allocate(&self, graph: &StreamGraph, cluster: &ClusterSpec, source_rate: f64) -> Placement {
        let devices = cluster.devices.min(self.devices);
        greedy_placement(self, graph, cluster, source_rate, devices)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl CoarsePlacer for GraphEncDec {
    fn place_coarse(&self, coarse: &CoarseGraph, cluster: &ClusterSpec) -> Placement {
        let feats = GraphFeatures::from_coarse(coarse, cluster);
        // Coarse graphs may be cyclic; decode in node-id order.
        let order: Vec<u32> = (0..coarse.num_nodes() as u32).collect();
        let input = PolicyInput {
            view: coarse.topo_view(),
            feats: &feats,
            devices: self.devices,
            order: &order,
        };
        // Argmax decoding draws nothing from the RNG.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (_, placement, _) = self.rollout(&input, RolloutMode::Greedy, &mut rng);
        placement
    }

    fn placer_name(&self) -> &str {
        "Graph-enc-dec"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{PolicyTrainOptions, PolicyTrainer};
    use spg_gen::{DatasetSpec, Setting};

    #[test]
    fn rollout_assigns_every_node() {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let g = spg_gen::generate_graph(&spec, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = GraphEncDec::new(&CoarsenConfig::default(), cluster.devices, &mut rng);
        let p = model.allocate(&g, &cluster, spec.source_rate);
        assert!(p.validate(&g, cluster.devices));
    }

    #[test]
    fn trains_one_epoch() {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let graphs: Vec<StreamGraph> = (0..2u64)
            .map(|s| spg_gen::generate_graph(&spec, s))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = GraphEncDec::new(&CoarsenConfig::default(), cluster.devices, &mut rng);
        let mut t = PolicyTrainer::new(
            model,
            graphs,
            cluster,
            spec.source_rate,
            PolicyTrainOptions::default(),
        );
        let r = t.train_epoch();
        assert!((0.0..=1.0).contains(&r), "reward {r}");
    }

    #[test]
    fn places_coarse_graphs() {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let g = spg_gen::generate_graph(&spec, 2);
        let rates = spg_graph::TupleRates::compute(&g, spec.source_rate);
        let c = spg_graph::Coarsening::identity(&g, &rates);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let model = GraphEncDec::new(&CoarsenConfig::default(), cluster.devices, &mut rng);
        let p = model.place_coarse(&c.coarse, &cluster);
        assert_eq!(p.len(), c.coarse.num_nodes());
        assert!(p.max_device_bound() <= cluster.devices);
    }
}
