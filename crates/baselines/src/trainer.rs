//! Shared REINFORCE loop for direct-placement policies.
//!
//! Every learned baseline implements [`PolicyModel`]: one differentiable
//! rollout producing a placement and its log-probability. The trainer
//! samples several rollouts per graph, uses the mean reward as the
//! baseline, and backpropagates `-(r - b)/N · log π` through each
//! rollout's own tape (gradients accumulate in the shared parameters).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_graph::{ClusterSpec, GraphFeatures, Placement, StreamGraph, TopoView, TupleRates};
use spg_nn::{Adam, ParamSet, Tape, Var};

/// Everything a policy needs to produce a placement.
pub struct PolicyInput<'a> {
    /// Topology (works for stream graphs and coarse graphs).
    pub view: TopoView<'a>,
    /// Node/edge features.
    pub feats: &'a GraphFeatures,
    /// Number of devices.
    pub devices: usize,
    /// Node visit order for sequential decoders (topological for DAGs;
    /// identity for possibly-cyclic coarse graphs).
    pub order: &'a [u32],
}

/// How a rollout picks actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutMode {
    /// Sample from the policy distribution (training).
    Sample,
    /// Argmax decoding (deployment).
    Greedy,
}

/// A differentiable direct-placement policy.
pub trait PolicyModel {
    /// Trainable parameters.
    fn params(&self) -> &ParamSet;

    /// Run one rollout on a fresh tape; returns the tape, the placement and
    /// the scalar log-probability node.
    fn rollout<R: Rng>(
        &self,
        input: &PolicyInput<'_>,
        mode: RolloutMode,
        rng: &mut R,
    ) -> (Tape, Placement, Var);

    /// Display name.
    fn model_name(&self) -> &str;
}

/// Options for [`PolicyTrainer`].
#[derive(Debug, Clone)]
pub struct PolicyTrainOptions {
    /// Rollouts per graph per step.
    pub samples: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PolicyTrainOptions {
    fn default() -> Self {
        Self {
            samples: 3,
            lr: 1e-3,
            seed: 0,
        }
    }
}

struct Instance {
    graph: StreamGraph,
    rates: TupleRates,
    feats: GraphFeatures,
    order: Vec<u32>,
}

/// REINFORCE trainer for a [`PolicyModel`].
pub struct PolicyTrainer<M: PolicyModel> {
    /// The policy being trained.
    pub model: M,
    /// Options.
    pub options: PolicyTrainOptions,
    adam: Adam,
    instances: Vec<Instance>,
    cluster: ClusterSpec,
    rng: ChaCha8Rng,
}

impl<M: PolicyModel> PolicyTrainer<M> {
    /// Prepare a trainer over `graphs`.
    pub fn new(
        model: M,
        graphs: Vec<StreamGraph>,
        cluster: ClusterSpec,
        source_rate: f64,
        options: PolicyTrainOptions,
    ) -> Self {
        let instances = graphs
            .into_iter()
            .map(|graph| {
                let rates = TupleRates::compute(&graph, source_rate);
                let feats = GraphFeatures::extract_with_rates(&graph, &cluster, &rates);
                let order = graph.topo_order().to_vec();
                Instance {
                    graph,
                    rates,
                    feats,
                    order,
                }
            })
            .collect();
        let rng = ChaCha8Rng::seed_from_u64(options.seed);
        let adam = Adam::new(options.lr);
        Self {
            model,
            options,
            adam,
            instances,
            cluster,
            rng,
        }
    }

    /// One epoch (one policy-gradient step per graph); returns the mean
    /// sampled reward.
    pub fn train_epoch(&mut self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for gi in 0..self.instances.len() {
            let samples = self.options.samples.max(1);
            let mut rollouts = Vec::with_capacity(samples);
            {
                let inst = &self.instances[gi];
                let input = PolicyInput {
                    view: inst.graph.topo_view(),
                    feats: &inst.feats,
                    devices: self.cluster.devices,
                    order: &inst.order,
                };
                for _ in 0..samples {
                    let (tape, placement, ll) =
                        self.model
                            .rollout(&input, RolloutMode::Sample, &mut self.rng);
                    let reward = spg_sim::reward::relative_throughput_with_rates(
                        &inst.graph,
                        &self.cluster,
                        &placement,
                        &inst.rates,
                    );
                    rollouts.push((tape, ll, reward));
                }
            }
            let baseline: f64 =
                rollouts.iter().map(|(_, _, r)| *r).sum::<f64>() / rollouts.len() as f64;
            self.model.params().zero_grad();
            for (mut tape, ll, reward) in rollouts {
                total += reward;
                count += 1;
                let coef = -((reward - baseline) as f32) / samples as f32;
                if coef == 0.0 {
                    continue;
                }
                let loss = tape.scale(ll, coef);
                tape.backward(loss);
            }
            self.adam.step(self.model.params());
        }
        if count > 0 {
            total / count as f64
        } else {
            0.0
        }
    }

    /// Mean greedy reward on `graphs`.
    pub fn evaluate(&self, graphs: &[StreamGraph], source_rate: f64) -> f64 {
        if graphs.is_empty() {
            return 0.0;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sum: f64 = graphs
            .iter()
            .map(|g| {
                let rates = TupleRates::compute(g, source_rate);
                let feats = GraphFeatures::extract_with_rates(g, &self.cluster, &rates);
                let order = g.topo_order().to_vec();
                let input = PolicyInput {
                    view: g.topo_view(),
                    feats: &feats,
                    devices: self.cluster.devices,
                    order: &order,
                };
                let (_, placement, _) = self.model.rollout(&input, RolloutMode::Greedy, &mut rng);
                spg_sim::reward::relative_throughput_with_rates(
                    g,
                    &self.cluster,
                    &placement,
                    &rates,
                )
            })
            .sum();
        sum / graphs.len() as f64
    }

    /// Consume the trainer, returning the trained model.
    pub fn into_model(self) -> M {
        self.model
    }
}

/// Greedy placement of `graph` over `devices` devices in topological
/// order, as the learned baselines deploy. Argmax decoding draws nothing,
/// so the answer depends on the model and the call's inputs alone.
pub(crate) fn greedy_placement<M: PolicyModel>(
    model: &M,
    graph: &StreamGraph,
    cluster: &ClusterSpec,
    source_rate: f64,
    devices: usize,
) -> Placement {
    let feats = GraphFeatures::extract(graph, cluster, source_rate);
    let input = PolicyInput {
        view: graph.topo_view(),
        feats: &feats,
        devices,
        order: graph.topo_order(),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    model.rollout(&input, RolloutMode::Greedy, &mut rng).1
}

/// Sample or argmax a device from one row of logits.
pub(crate) fn pick_action<R: Rng>(logits_row: &[f32], mode: RolloutMode, rng: &mut R) -> u32 {
    match mode {
        RolloutMode::Greedy => logits_row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i as u32)
            .unwrap_or(0),
        RolloutMode::Sample => {
            let max = logits_row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f64> = logits_row
                .iter()
                .map(|&z| ((z - max) as f64).exp())
                .collect();
            let total: f64 = exps.iter().sum();
            let mut u = rng.gen::<f64>() * total;
            for (i, &e) in exps.iter().enumerate() {
                u -= e;
                if u <= 0.0 {
                    return i as u32;
                }
            }
            (exps.len() - 1) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_action_greedy_takes_argmax() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(
            pick_action(&[0.1, 3.0, -1.0], RolloutMode::Greedy, &mut rng),
            1
        );
    }

    #[test]
    fn pick_action_sample_matches_softmax() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let logits = [0.0f32, (4.0f32).ln()]; // probs 0.2 / 0.8
        let n = 5000;
        let ones = (0..n)
            .filter(|_| pick_action(&logits, RolloutMode::Sample, &mut rng) == 1)
            .count();
        let rate = ones as f64 / n as f64;
        assert!((rate - 0.8).abs() < 0.03, "rate = {rate}");
    }

    #[test]
    fn pick_action_handles_extreme_logits() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let a = pick_action(&[-1e30, 1e30], RolloutMode::Sample, &mut rng);
        assert_eq!(a, 1);
    }
}
