//! End-to-end allocators built on the multilevel partitioner.

use crate::kway::{kway_partition, PartitionConfig};
use parking_lot_free::SeedCell;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_graph::{Allocator, ClusterSpec, Placement, StreamGraph, WeightedGraph};

/// The Metis baseline: convert the stream graph to its weighted view and
/// run the multilevel k-way partitioner with `k = |devices|`.
#[derive(Debug, Clone)]
pub struct MetisAllocator {
    /// Partitioner tuning.
    pub config: PartitionConfig,
    seed: SeedCell,
}

impl MetisAllocator {
    /// Default-configured allocator with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            config: PartitionConfig::default(),
            seed: SeedCell::new(seed),
        }
    }

    /// Partition a pre-built weighted graph into `k` parts.
    pub fn partition_weighted(&self, w: &WeightedGraph, k: usize) -> Vec<u32> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed.next());
        kway_partition(w, k, &self.config, &mut rng)
    }
}

impl Allocator for MetisAllocator {
    fn allocate(&self, graph: &StreamGraph, cluster: &ClusterSpec, source_rate: f64) -> Placement {
        let w = WeightedGraph::from_stream(graph, source_rate);
        Placement::new(self.partition_weighted(&w, cluster.devices))
    }

    fn name(&self) -> &str {
        "Metis"
    }
}

/// Metis-oracle (§VI-B): run the partitioner for every device count
/// `1..=D` and keep the placement with the best simulated throughput. This
/// is the strongest non-learned baseline in the excess-device setting.
#[derive(Debug, Clone)]
pub struct MetisOracle {
    /// Partitioner tuning.
    pub config: PartitionConfig,
    seed: SeedCell,
}

impl MetisOracle {
    /// Default-configured oracle.
    pub fn new(seed: u64) -> Self {
        Self {
            config: PartitionConfig::default(),
            seed: SeedCell::new(seed),
        }
    }
}

impl Allocator for MetisOracle {
    fn allocate(&self, graph: &StreamGraph, cluster: &ClusterSpec, source_rate: f64) -> Placement {
        let w = WeightedGraph::from_stream(graph, source_rate);
        let mut best: Option<(f64, Placement)> = None;
        for k in 1..=cluster.devices {
            let mut rng = ChaCha8Rng::seed_from_u64(self.seed.next());
            let part = kway_partition(&w, k, &self.config, &mut rng);
            let p = Placement::new(part);
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

/// Tiny atomically-stepped seed so `&self` allocators can derive fresh but
/// deterministic RNG streams per call.
mod parking_lot_free {
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Debug)]
    pub struct SeedCell(AtomicU64);

    impl SeedCell {
        pub fn new(seed: u64) -> Self {
            Self(AtomicU64::new(seed))
        }

        pub fn next(&self) -> u64 {
            // SplitMix64 step: decorrelates consecutive seeds.
            let mut z = self.0.fetch_add(0x9E3779B97F4A7C15, Ordering::Relaxed);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    impl Clone for SeedCell {
        fn clone(&self) -> Self {
            Self(AtomicU64::new(self.0.load(Ordering::Relaxed)))
        }
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

    #[test]
    fn seed_cell_is_deterministic_and_decorrelated() {
        let a = parking_lot_free::SeedCell::new(42);
        let b = parking_lot_free::SeedCell::new(42);
        let xs: Vec<u64> = (0..4).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        let mut uniq = xs.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), xs.len());
    }
}
