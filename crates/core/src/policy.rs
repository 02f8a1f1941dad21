//! Turning per-edge collapse probabilities into coarsenings.

use crate::config::CoarsenConfig;
use rand::Rng;
use spg_graph::unionfind::UnionFind;
use spg_graph::{ClusterSpec, Coarsening, StreamGraph, TupleRates};

/// How decisions are decoded from probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecodeMode {
    /// Sample each edge's Bernoulli independently (training rollouts).
    Sample,
    /// Deterministic threshold at 0.5 (inference).
    Greedy,
    /// Deterministic threshold at the given probability.
    Threshold(f32),
}

/// Policy wrapper: decodes decisions and applies them as a contraction.
#[derive(Debug, Clone)]
pub struct CoarseningPolicy {
    /// Hard CPU cap multiple for coarse nodes (0 disables).
    pub max_group_cpu_factor: f64,
    /// Sampling temperature (applied to logits as `p' = p^(1/T)`-style
    /// sharpening on probabilities; 1.0 leaves them unchanged).
    pub temperature: f32,
}

impl CoarseningPolicy {
    /// Policy from a model config.
    pub fn from_config(cfg: &CoarsenConfig) -> Self {
        Self {
            max_group_cpu_factor: cfg.max_group_cpu_factor,
            temperature: cfg.temperature,
        }
    }

    /// Decode a decision vector from probabilities.
    pub fn decode<R: Rng>(&self, probs: &[f32], mode: DecodeMode, rng: &mut R) -> Vec<bool> {
        match mode {
            DecodeMode::Sample => probs
                .iter()
                .map(|&p| {
                    let p = temper(p, self.temperature);
                    rng.gen::<f32>() < p
                })
                .collect(),
            DecodeMode::Greedy => probs.iter().map(|&p| p >= 0.5).collect(),
            DecodeMode::Threshold(th) => probs.iter().map(|&p| p >= th).collect(),
        }
    }

    /// Contract `graph` under `decisions`, respecting the CPU cap. Edges
    /// are applied in `priority` order — [`priority_by_prob`] of the
    /// decoded probabilities, descending — so the cap keeps the most
    /// confident merges. Callers sort once and share the order across
    /// every sample decoded from the same probabilities.
    pub fn apply(
        &self,
        graph: &StreamGraph,
        rates: &TupleRates,
        cluster: &ClusterSpec,
        decisions: &[bool],
        priority: &[u32],
    ) -> Coarsening {
        let cap = if self.max_group_cpu_factor > 0.0 {
            Some(self.max_group_cpu_factor * cluster.instr_per_sec())
        } else {
            None
        };
        Coarsening::from_collapse(graph, rates, decisions, cap, Some(priority))
    }

    /// Coarsen-only mode (Table II ablation): keep merging the
    /// highest-probability edges until at most `cluster.devices` coarse
    /// nodes remain, then place each coarse node on its own device.
    pub fn coarsen_only(
        &self,
        graph: &StreamGraph,
        rates: &TupleRates,
        cluster: &ClusterSpec,
        probs: &[f32],
    ) -> Coarsening {
        let n = graph.num_nodes();
        let mut uf = UnionFind::new(n);
        let order = priority_by_prob(probs);
        let cpu = rates.cpu_demand(graph);
        let mut group_cpu = cpu.clone();
        // Two passes: first respect a soft CPU cap (avoids absurd merges),
        // then — if the cap stranded us above the device count — merge
        // without it. Reaching <= |devices| groups dominates, because each
        // coarse node becomes its own device.
        let soft_cap = cluster.instr_per_sec();
        for cap in [Some(soft_cap), None] {
            for &e in &order {
                if uf.num_sets() <= cluster.devices {
                    return Coarsening::from_union_find(graph, rates, &mut uf);
                }
                let (s, d) = graph.edge_list()[e as usize];
                let (rs, rd) = (uf.find(s), uf.find(d));
                if rs == rd {
                    continue;
                }
                if let Some(cap) = cap {
                    if group_cpu[rs as usize] + group_cpu[rd as usize] > cap
                        && uf.num_sets() > cluster.devices * 2
                    {
                        continue;
                    }
                }
                let merged = group_cpu[rs as usize] + group_cpu[rd as usize];
                uf.union(rs, rd);
                group_cpu[uf.find(rs) as usize] = merged;
            }
        }
        Coarsening::from_union_find(graph, rates, &mut uf)
    }
}

/// Edge ids sorted by descending probability — the order in which
/// [`CoarseningPolicy::apply`] attempts collapses. Together with the
/// decision vector it fully determines the coarsening (and, with a
/// content-seeded placer, the reward), which is what
/// [`crate::rollout::collapse_key`] exploits for memoization.
pub fn priority_by_prob(probs: &[f32]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..probs.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| probs[b as usize].total_cmp(&probs[a as usize]));
    order
}

#[inline]
fn temper(p: f32, temperature: f32) -> f32 {
    if (temperature - 1.0).abs() < 1e-6 {
        return p;
    }
    // Temperature on the logit.
    let p = p.clamp(1e-6, 1.0 - 1e-6);
    let z = (p / (1.0 - p)).ln() / temperature;
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spg_graph::{Channel, Operator, StreamGraphBuilder};

    fn chain(n: usize) -> StreamGraph {
        let mut b = StreamGraphBuilder::new();
        let mut prev = b.add_node(Operator::new(10.0));
        for _ in 1..n {
            let next = b.add_node(Operator::new(10.0));
            b.add_edge(prev, next, Channel::new(8.0)).unwrap();
            prev = next;
        }
        b.finish().unwrap()
    }

    #[test]
    fn greedy_thresholds_at_half() {
        let policy = CoarseningPolicy {
            max_group_cpu_factor: 0.0,
            temperature: 1.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let d = policy.decode(&[0.2, 0.5, 0.9], DecodeMode::Greedy, &mut rng);
        assert_eq!(d, vec![false, true, true]);
    }

    #[test]
    fn sampling_respects_extreme_probs() {
        let policy = CoarseningPolicy {
            max_group_cpu_factor: 0.0,
            temperature: 1.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..50 {
            let d = policy.decode(&[0.0, 1.0], DecodeMode::Sample, &mut rng);
            assert_eq!(d, vec![false, true]);
        }
    }

    #[test]
    fn sampling_rate_tracks_probability() {
        let policy = CoarseningPolicy {
            max_group_cpu_factor: 0.0,
            temperature: 1.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 5000;
        let mut ones = 0;
        for _ in 0..n {
            if policy.decode(&[0.3], DecodeMode::Sample, &mut rng)[0] {
                ones += 1;
            }
        }
        let rate = ones as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "rate = {rate}");
    }

    #[test]
    fn apply_respects_cpu_cap() {
        let g = chain(4);
        let rates = TupleRates::compute(&g, 1e4);
        // Each node demands 1e5 instr/s; device capacity 1.25e9. A factor
        // that allows only two nodes per group:
        let per_node = 1e5;
        let cluster = ClusterSpec::new(2, per_node * 2.0 / 1e6, 100.0);
        let policy = CoarseningPolicy {
            max_group_cpu_factor: 1.0,
            temperature: 1.0,
        };
        let priority = priority_by_prob(&[0.9, 0.8, 0.7]);
        let c = policy.apply(&g, &rates, &cluster, &[true, true, true], &priority);
        // Groups of at most 2 nodes.
        for &m in &c.coarse.members {
            assert!(m <= 2, "group of {m} nodes exceeds cap");
        }
    }

    #[test]
    fn coarsen_only_reaches_device_count() {
        let g = chain(10);
        let rates = TupleRates::compute(&g, 1e4);
        let cluster = ClusterSpec::paper_medium(3);
        let policy = CoarseningPolicy {
            max_group_cpu_factor: 1.0,
            temperature: 1.0,
        };
        let probs: Vec<f32> = (0..9).map(|i| 0.1 + 0.08 * i as f32).collect();
        let c = policy.coarsen_only(&g, &rates, &cluster, &probs);
        assert!(c.coarse.num_nodes() <= 3);
    }

    #[test]
    fn temper_is_identity_at_one_and_sharpens_below() {
        assert!((temper(0.7, 1.0) - 0.7).abs() < 1e-6);
        assert!(temper(0.7, 0.5) > 0.7, "low temperature must sharpen");
        assert!(temper(0.3, 0.5) < 0.3);
    }
}
