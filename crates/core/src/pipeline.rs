//! The coarsening-partitioning pipeline (§III, Fig. 2): coarsen with the
//! learned model, place the coarse graph with an existing partitioner, lift
//! the placement back.

use crate::model::CoarsenModel;
use crate::policy::{priority_by_prob, CoarseningPolicy, DecodeMode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_graph::{
    Allocator, ClusterSpec, CoarseGraph, Coarsening, GraphFeatures, Placement, StreamGraph,
    TupleRates,
};
use spg_partition::{kway_partition, PartitionConfig};
use std::sync::atomic::{AtomicU64, Ordering};

/// Places a coarse graph onto devices — the `M` of the paper's framework.
/// Metis and the learned Graph-enc-dec baseline both implement this.
/// (Not `Send`/`Sync`: learned placers hold `Rc`-shared parameters.)
pub trait CoarsePlacer {
    /// Assign each coarse node to a device in `0..cluster.devices`.
    fn place_coarse(&self, coarse: &CoarseGraph, cluster: &ClusterSpec) -> Placement;

    /// Name for experiment tables.
    fn placer_name(&self) -> &str;
}

/// Metis-style multilevel partitioning of the coarse graph.
#[derive(Debug, Clone)]
pub struct MetisCoarsePlacer {
    /// Partitioner tuning.
    pub config: PartitionConfig,
    seed: u64,
}

impl MetisCoarsePlacer {
    /// Placer whose partitioner RNG is seeded from `seed` and the coarse
    /// graph's content.
    pub fn new(seed: u64) -> Self {
        Self {
            config: PartitionConfig::default(),
            seed,
        }
    }
}

impl CoarsePlacer for MetisCoarsePlacer {
    fn place_coarse(&self, coarse: &CoarseGraph, cluster: &ClusterSpec) -> Placement {
        let w = coarse.to_weighted();
        let k = cluster.devices.min(coarse.num_nodes().max(1));
        // Seed from the coarse graph's content instead of a call counter:
        // identical coarsenings then get identical placements and rewards,
        // which removes a large variance term from the policy gradient and
        // keeps buffered sample rewards valid across steps.
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ fingerprint(coarse));
        Placement::new(kway_partition(&w, k, &self.config, &mut rng))
    }

    fn placer_name(&self) -> &str {
        "Metis"
    }
}

/// Cheap content fingerprint of a coarse graph (FNV-1a over its shape and
/// quantised weights).
fn fingerprint(coarse: &CoarseGraph) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(coarse.num_nodes() as u64);
    mix(coarse.num_edges() as u64);
    for &c in &coarse.node_cpu {
        mix(c.to_bits());
    }
    for (&(a, b), &t) in coarse.edges.iter().zip(&coarse.edge_traffic) {
        mix(((a as u64) << 32) | b as u64);
        mix(t.to_bits());
    }
    h
}

/// The full Coarsen+`M` allocator.
pub struct CoarsenAllocator<P: CoarsePlacer> {
    /// The trained coarsening model.
    pub model: CoarsenModel,
    /// The partitioning model `M`.
    pub placer: P,
    /// Decision decoding (greedy for deployment).
    pub mode: DecodeMode,
    /// When > 0, evaluate this many candidate coarsenings (greedy +
    /// samples + identity) in the simulator and keep the best.
    pub best_of: usize,
    name: String,
    seed: AtomicU64,
}

impl<P: CoarsePlacer> CoarsenAllocator<P> {
    /// Deployment allocator: greedy decoding.
    pub fn new(model: CoarsenModel, placer: P) -> Self {
        let name = format!("Coarsen+{}", placer.placer_name());
        Self {
            model,
            placer,
            mode: DecodeMode::Greedy,
            best_of: 0,
            name,
            seed: AtomicU64::new(7),
        }
    }

    /// Enable best-of-N inference: decode the greedy coarsening, `n - 2`
    /// sampled ones and the identity coarsening, place each, and keep the
    /// placement with the best simulated throughput. The analytic
    /// simulator costs microseconds, so this is cheap insurance in
    /// deployment (the identity candidate makes the allocator no worse
    /// than its placer alone). The paper's evaluation uses plain greedy
    /// decoding; benches keep `best_of = 0`.
    pub fn with_best_of(mut self, n: usize) -> Self {
        self.best_of = n;
        self
    }

    /// Coarsen `graph` with the model (no placement).
    pub fn coarsen(
        &self,
        graph: &StreamGraph,
        cluster: &ClusterSpec,
        source_rate: f64,
    ) -> Coarsening {
        let rates = TupleRates::compute(graph, source_rate);
        let feats = GraphFeatures::extract_with_rates(graph, cluster, &rates);
        let probs = self.model.predict_probs_with_features(graph, &feats);
        let policy = CoarseningPolicy::from_config(&self.model.config);
        let seed = self.seed.fetch_add(0x9E3779B97F4A7C15, Ordering::Relaxed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let decisions = policy.decode(&probs, self.mode, &mut rng);
        let priority = priority_by_prob(&probs);
        policy.apply(graph, &rates, cluster, &decisions, &priority)
    }
}

impl<P: CoarsePlacer> CoarsenAllocator<P> {
    fn place(&self, coarsening: &Coarsening, cluster: &ClusterSpec) -> Placement {
        let coarse_placement = self.placer.place_coarse(&coarsening.coarse, cluster);
        Placement::lift(&coarse_placement, &coarsening.node_map)
    }
}

impl<P: CoarsePlacer> Allocator for CoarsenAllocator<P> {
    fn allocate(&self, graph: &StreamGraph, cluster: &ClusterSpec, source_rate: f64) -> Placement {
        if self.best_of == 0 {
            let coarsening = self.coarsen(graph, cluster, source_rate);
            return self.place(&coarsening, cluster);
        }

        // Best-of-N: greedy + sampled + identity candidates, scored by the
        // analytic simulator.
        let rates = TupleRates::compute(graph, source_rate);
        let feats = GraphFeatures::extract_with_rates(graph, cluster, &rates);
        let probs = self.model.predict_probs_with_features(graph, &feats);
        let policy = CoarseningPolicy::from_config(&self.model.config);
        let seed = self.seed.fetch_add(0x9E3779B97F4A7C15, Ordering::Relaxed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        let priority = priority_by_prob(&probs);
        let mut candidates: Vec<Coarsening> = Vec::with_capacity(self.best_of);
        let greedy = policy.decode(&probs, DecodeMode::Greedy, &mut rng);
        candidates.push(policy.apply(graph, &rates, cluster, &greedy, &priority));
        candidates.push(Coarsening::identity(graph, &rates));
        while candidates.len() < self.best_of {
            let sampled = policy.decode(&probs, DecodeMode::Sample, &mut rng);
            candidates.push(policy.apply(graph, &rates, cluster, &sampled, &priority));
        }

        let mut best: Option<(f64, Placement)> = None;
        for c in &candidates {
            let placement = self.place(c, cluster);
            let r =
                spg_sim::reward::relative_throughput_with_rates(graph, cluster, &placement, &rates);
            if best.as_ref().is_none_or(|(br, _)| r > *br) {
                best = Some((r, placement));
            }
        }
        best.expect("at least one candidate").1
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Coarsen+Metis-oracle (Table I / Fig. 7): coarsen with the model, then
/// sweep the number of parts `k = 1..=D` on the coarse graph, simulate the
/// *lifted* placement for each, and keep the best — the coarsening
/// counterpart of [`spg_partition::MetisOracle`]. This is what lets the
/// framework pick the right device subset in the excess-device setting.
pub struct CoarsenOracleAllocator {
    /// The trained coarsening model.
    pub model: CoarsenModel,
    /// Partitioner tuning for the per-k partitions.
    pub config: PartitionConfig,
    seed: AtomicU64,
}

impl CoarsenOracleAllocator {
    /// Oracle allocator with a deterministic seed stream.
    pub fn new(model: CoarsenModel, seed: u64) -> Self {
        Self {
            model,
            config: PartitionConfig::default(),
            seed: AtomicU64::new(seed),
        }
    }
}

impl Allocator for CoarsenOracleAllocator {
    fn allocate(&self, graph: &StreamGraph, cluster: &ClusterSpec, source_rate: f64) -> Placement {
        let rates = TupleRates::compute(graph, source_rate);
        let feats = GraphFeatures::extract_with_rates(graph, cluster, &rates);
        let probs = self.model.predict_probs_with_features(graph, &feats);
        let policy = CoarseningPolicy::from_config(&self.model.config);
        let seed = self.seed.fetch_add(0x9E3779B97F4A7C15, Ordering::Relaxed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let decisions = policy.decode(&probs, DecodeMode::Greedy, &mut rng);
        let priority = priority_by_prob(&probs);
        let coarsening = policy.apply(graph, &rates, cluster, &decisions, &priority);

        let w = coarsening.coarse.to_weighted();
        let mut best: Option<(f64, Placement)> = None;
        for k in 1..=cluster.devices.min(coarsening.coarse.num_nodes()) {
            let part = kway_partition(&w, k, &self.config, &mut rng);
            let lifted = Placement::lift(&Placement::new(part), &coarsening.node_map);
            let r =
                spg_sim::reward::relative_throughput_with_rates(graph, cluster, &lifted, &rates);
            if best.as_ref().is_none_or(|(br, _)| r > *br) {
                best = Some((r, lifted));
            }
        }
        best.expect("at least one k").1
    }

    fn name(&self) -> &str {
        "Coarsen+Metis-oracle"
    }
}

/// Coarsen-only ablation (Table II): merge down to the device count with
/// the model alone; every coarse node gets its own device.
pub struct CoarsenOnlyAllocator {
    /// The trained coarsening model.
    pub model: CoarsenModel,
}

impl Allocator for CoarsenOnlyAllocator {
    fn allocate(&self, graph: &StreamGraph, cluster: &ClusterSpec, source_rate: f64) -> Placement {
        let rates = TupleRates::compute(graph, source_rate);
        let feats = GraphFeatures::extract_with_rates(graph, cluster, &rates);
        let probs = self.model.predict_probs_with_features(graph, &feats);
        let policy = CoarseningPolicy::from_config(&self.model.config);
        let coarsening = policy.coarsen_only(graph, &rates, cluster, &probs);
        // One device per coarse node. Disconnected graphs can end with
        // more groups than devices even after merging every edge; wrap
        // those round-robin.
        let d = cluster.devices as u32;
        let coarse_placement = Placement::new(
            (0..coarsening.coarse.num_nodes() as u32)
                .map(|i| i % d)
                .collect::<Vec<_>>(),
        );
        Placement::lift(&coarse_placement, &coarsening.node_map)
    }

    fn name(&self) -> &str {
        "Coarsen-only"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoarsenConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spg_gen::{DatasetSpec, Setting};

    #[test]
    fn pipeline_produces_valid_placements() {
        let spec = DatasetSpec::scaled_down(Setting::Medium);
        let cluster = spec.cluster();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        let alloc = CoarsenAllocator::new(model, MetisCoarsePlacer::new(1));
        for seed in 0..4 {
            let g = spg_gen::generate_graph(&spec, seed);
            let p = alloc.allocate(&g, &cluster, spec.source_rate);
            assert!(
                p.validate(&g, cluster.devices),
                "invalid placement (seed {seed})"
            );
            let r = spg_sim::relative_throughput(&g, &cluster, &p, spec.source_rate);
            assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn lifted_placement_matches_coarse_groups() {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        let alloc = CoarsenAllocator::new(model, MetisCoarsePlacer::new(2));
        let g = spg_gen::generate_graph(&spec, 0);
        let coarsening = alloc.coarsen(&g, &cluster, spec.source_rate);
        let coarse_placement = alloc.placer.place_coarse(&coarsening.coarse, &cluster);
        let lifted = Placement::lift(&coarse_placement, &coarsening.node_map);
        // Nodes in the same coarse group share a device.
        for v in 0..g.num_nodes() {
            for u in 0..g.num_nodes() {
                if coarsening.node_map[v] == coarsening.node_map[u] {
                    assert_eq!(lifted.device(v), lifted.device(u));
                }
            }
        }
    }

    #[test]
    fn oracle_allocator_at_least_matches_fixed_k() {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        let fixed = CoarsenAllocator::new(model.clone(), MetisCoarsePlacer::new(9));
        let oracle = CoarsenOracleAllocator::new(model, 9);
        let mut wins = 0;
        let n = 4;
        for seed in 0..n {
            let g = spg_gen::generate_graph(&spec, seed);
            let rf = spg_sim::relative_throughput(
                &g,
                &cluster,
                &fixed.allocate(&g, &cluster, spec.source_rate),
                spec.source_rate,
            );
            let ro = spg_sim::relative_throughput(
                &g,
                &cluster,
                &oracle.allocate(&g, &cluster, spec.source_rate),
                spec.source_rate,
            );
            if ro >= rf - 1e-9 {
                wins += 1;
            }
        }
        assert!(wins >= n - 1, "oracle won only {wins}/{n} against fixed k");
    }

    #[test]
    fn coarsen_only_uses_at_most_device_count() {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        let alloc = CoarsenOnlyAllocator { model };
        let g = spg_gen::generate_graph(&spec, 3);
        let p = alloc.allocate(&g, &cluster, spec.source_rate);
        assert!(p.devices_used() <= cluster.devices);
        assert!(p.validate(&g, cluster.devices));
    }
}
