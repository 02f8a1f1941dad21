//! Hierarchical (Mirhoseini et al., ICLR'18): a Grouper assigns every node
//! to one of `G` groups (25 in the paper's comparison), a Placer assigns
//! every group to a device; both are trained jointly with REINFORCE.
//!
//! The paper's analysis (§VI-B) explains why this general-purpose
//! coarsening formulation underperforms for multi-graph stream allocation:
//! group ids carry no cross-graph semantics. We reproduce the architecture
//! faithfully so that the comparison can be reproduced too.

use crate::trainer::{greedy_placement, pick_action, PolicyInput, PolicyModel, RolloutMode};
use rand::Rng;
use spg_core::config::CoarsenConfig;
use spg_core::encoder::EdgeAwareGnn;
use spg_graph::{Allocator, ClusterSpec, Placement, StreamGraph};
use spg_nn::layers::{Activation, Mlp};
use spg_nn::{ParamSet, Tape, Var};

/// The Hierarchical grouper+placer model.
pub struct Hierarchical {
    /// Number of groups (paper comparison: 25).
    pub groups: usize,
    /// Device count.
    pub devices: usize,
    encoder: EdgeAwareGnn,
    grouper: Mlp,
    placer: Mlp,
    params: ParamSet,
    name: String,
}

impl Hierarchical {
    /// Fresh model.
    pub fn new<R: Rng>(cfg: &CoarsenConfig, groups: usize, devices: usize, rng: &mut R) -> Self {
        let mut params = ParamSet::new();
        let encoder = EdgeAwareGnn::new(cfg, &mut params, rng);
        let emb = encoder.output_dim();
        let grouper = Mlp::new(
            &[emb, cfg.head_hidden, groups],
            Activation::Tanh,
            &mut params,
            rng,
        );
        let placer = Mlp::new(
            &[emb, cfg.head_hidden, devices],
            Activation::Tanh,
            &mut params,
            rng,
        );
        Self {
            groups,
            devices,
            encoder,
            grouper,
            placer,
            params,
            name: "Hierarchical".to_string(),
        }
    }
}

impl PolicyModel for Hierarchical {
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

        // Grouper: sample a group per node.
        let group_logits = self.grouper.forward(&mut tape, h); // [N x G]
        let mut node_group = Vec::with_capacity(n);
        for r in 0..n {
            let row = tape.value(group_logits).row(r).to_vec();
            node_group.push(pick_action(&row, mode, rng));
        }
        let ll_groups = tape.categorical_log_prob(group_logits, &node_group);

        // Placer: group embedding = mean of member embeddings, then a
        // device per group. Empty groups get a zero embedding.
        let pooled = tape.segment_mean(h, &node_group, self.groups); // [G x emb]
        let device_logits = self.placer.forward(&mut tape, pooled); // [G x D]
        let mut group_device = Vec::with_capacity(self.groups);
        for g in 0..self.groups {
            let row = tape.value(device_logits).row(g).to_vec();
            group_device.push(pick_action(&row, mode, rng));
        }
        let ll_devices = tape.categorical_log_prob(device_logits, &group_device);

        let ll = tape.add(ll_groups, ll_devices);
        let assignment: Vec<u32> = node_group
            .iter()
            .map(|&g| group_device[g as usize])
            .collect();
        (tape, Placement::new(assignment), ll)
    }

    fn model_name(&self) -> &str {
        &self.name
    }
}

impl Allocator for Hierarchical {
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
    use spg_graph::GraphFeatures;

    #[test]
    fn placement_is_group_consistent() {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let g = spg_gen::generate_graph(&spec, 0);
        let feats = GraphFeatures::extract(&g, &cluster, spec.source_rate);
        let order = g.topo_order().to_vec();
        let input = PolicyInput {
            view: g.topo_view(),
            feats: &feats,
            devices: cluster.devices,
            order: &order,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = Hierarchical::new(&CoarsenConfig::default(), 8, cluster.devices, &mut rng);
        let (_, p, _) = model.rollout(&input, RolloutMode::Greedy, &mut rng);
        assert!(p.validate(&g, cluster.devices));
        // At most `groups` distinct devices can appear.
        assert!(p.devices_used() <= 8);
    }

    #[test]
    fn trains_one_epoch() {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let graphs: Vec<StreamGraph> = (0..2u64)
            .map(|s| spg_gen::generate_graph(&spec, s))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = Hierarchical::new(&CoarsenConfig::default(), 25, cluster.devices, &mut rng);
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
