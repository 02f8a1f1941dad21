//! End-to-end allocators built on the multilevel partitioner.

use crate::kway::{kway_partition, PartitionConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_graph::{Allocator, ClusterSpec, Placement, StreamGraph, WeightedGraph};

/// SplitMix64's output finalizer: decorrelates nearby seeds.
fn mix(seed: u64) -> u64 {
    let mut z = seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The Metis baseline: convert the stream graph to its weighted view and
/// run the multilevel k-way partitioner with `k = |devices|`.
///
/// Every call seeds its RNG from `seed` alone, so a graph's placement does
/// not depend on what the instance allocated before.
#[derive(Debug, Clone)]
pub struct MetisAllocator {
    seed: u64,
}

impl MetisAllocator {
    /// Allocator whose partitioner RNG seeds from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Allocator for MetisAllocator {
    fn allocate(&self, graph: &StreamGraph, cluster: &ClusterSpec, source_rate: f64) -> Placement {
        let w = WeightedGraph::from_stream(graph, source_rate);
        let mut rng = ChaCha8Rng::seed_from_u64(mix(self.seed));
        let part = kway_partition(&w, cluster.devices, &PartitionConfig::default(), &mut rng);
        Placement::new(part)
    }

    fn name(&self) -> &str {
        "Metis"
    }
}

/// Metis-oracle (§VI-B): run the partitioner for every device count
/// `1..=D` and keep the placement with the best simulated throughput. This
/// is the strongest non-learned baseline in the excess-device setting.
///
/// The partition into `k` parts seeds from the finalizer of
/// `seed + (k - 1)·φ` alone, φ being SplitMix64's increment
/// `0x9E3779B97F4A7C15`.
#[derive(Debug, Clone)]
pub struct MetisOracle {
    seed: u64,
}

impl MetisOracle {
    /// Oracle whose partitioner RNGs seed from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Allocator for MetisOracle {
    fn allocate(&self, graph: &StreamGraph, cluster: &ClusterSpec, source_rate: f64) -> Placement {
        let w = WeightedGraph::from_stream(graph, source_rate);
        let mut best: Option<(f64, Placement)> = None;
        for k in 1..=cluster.devices {
            let step = (k as u64 - 1).wrapping_mul(0x9E3779B97F4A7C15);
            let mut rng = ChaCha8Rng::seed_from_u64(mix(self.seed.wrapping_add(step)));
            let p = Placement::new(kway_partition(&w, k, &PartitionConfig::default(), &mut rng));
            let r = spg_sim::relative_throughput(graph, cluster, &p, source_rate);
            if best.as_ref().is_none_or(|(br, _)| r > *br) {
                best = Some((r, p));
            }
        }
        best.expect("at least one k tried").1
    }

    fn name(&self) -> &str {
        "Metis-oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_gen::{DatasetSpec, Setting};

    #[test]
    fn metis_beats_random_placement() {
        let spec = DatasetSpec::scaled_down(Setting::Medium);
        let cluster = spec.cluster();
        let metis = MetisAllocator::new(1);
        let mut metis_wins = 0;
        let n_graphs = 6;
        for seed in 0..n_graphs {
            let g = spg_gen::generate_graph(&spec, seed);
            let p = metis.allocate(&g, &cluster, spec.source_rate);
            assert!(p.validate(&g, cluster.devices));
            let r = spg_sim::relative_throughput(&g, &cluster, &p, spec.source_rate);
            // Random baseline: round-robin by node id.
            let rr = Placement::new(
                (0..g.num_nodes() as u32)
                    .map(|v| v % cluster.devices as u32)
                    .collect(),
            );
            let r_rr = spg_sim::relative_throughput(&g, &cluster, &rr, spec.source_rate);
            if r >= r_rr {
                metis_wins += 1;
            }
        }
        assert!(
            metis_wins * 2 > n_graphs,
            "metis won only {metis_wins}/{n_graphs} vs round-robin"
        );
    }

    #[test]
    fn oracle_at_least_matches_fixed_k() {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let metis = MetisAllocator::new(3);
        let oracle = MetisOracle::new(3);
        for seed in 0..4 {
            let g = spg_gen::generate_graph(&spec, seed);
            let rp = spg_sim::relative_throughput(
                &g,
                &cluster,
                &metis.allocate(&g, &cluster, spec.source_rate),
                spec.source_rate,
            );
            let ro = spg_sim::relative_throughput(
                &g,
                &cluster,
                &oracle.allocate(&g, &cluster, spec.source_rate),
                spec.source_rate,
            );
            assert!(ro >= rp - 0.05, "oracle {ro} much worse than fixed-k {rp}");
        }
    }
}
