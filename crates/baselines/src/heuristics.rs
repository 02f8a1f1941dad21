//! Non-learned reference placements.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_graph::{Allocator, ClusterSpec, Placement, StreamGraph};

/// Uniform random device per node.
pub struct RandomPlacement {
    seed: u64,
}

impl RandomPlacement {
    /// Every call draws from a ChaCha8 stream seeded from `seed`, so one
    /// graph always gets one placement.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Allocator for RandomPlacement {
    fn allocate(&self, graph: &StreamGraph, cluster: &ClusterSpec, _rate: f64) -> Placement {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        Placement::new(
            (0..graph.num_nodes())
                .map(|_| rng.gen_range(0..cluster.devices as u32))
                .collect(),
        )
    }

    fn name(&self) -> &str {
        "Random"
    }
}

/// Round-robin by topological position: balances node *count* (not load)
/// and cuts almost every edge — a lower bound on communication awareness.
pub struct RoundRobin;

impl Allocator for RoundRobin {
    fn allocate(&self, graph: &StreamGraph, cluster: &ClusterSpec, _rate: f64) -> Placement {
        let mut assignment = vec![0u32; graph.num_nodes()];
        for (i, &v) in graph.topo_order().iter().enumerate() {
            assignment[v as usize] = (i % cluster.devices) as u32;
        }
        Placement::new(assignment)
    }

    fn name(&self) -> &str {
        "Round-robin"
    }
}

/// Everything on device 0: zero communication, maximal CPU contention.
pub struct AllOnOne;

impl Allocator for AllOnOne {
    fn allocate(&self, graph: &StreamGraph, _cluster: &ClusterSpec, _rate: f64) -> Placement {
        Placement::all_on_one(graph.num_nodes())
    }

    fn name(&self) -> &str {
        "All-on-one"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_gen::{DatasetSpec, Setting};

    fn graph_and_cluster() -> (StreamGraph, ClusterSpec, f64) {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        (
            spg_gen::generate_graph(&spec, 0),
            spec.cluster(),
            spec.source_rate,
        )
    }

    #[test]
    fn random_is_valid_and_varies() {
        let (g, c, r) = graph_and_cluster();
        let p0 = RandomPlacement::new(0).allocate(&g, &c, r);
        let p1 = RandomPlacement::new(1).allocate(&g, &c, r);
        assert!(p0.validate(&g, c.devices));
        assert!(p1.validate(&g, c.devices));
        assert_ne!(p0, p1, "seeds 0 and 1 should place differently");
        let alloc = RandomPlacement::new(0);
        alloc.allocate(&g, &c, r);
        assert_eq!(alloc.allocate(&g, &c, r), p0, "a repeat call must not move");
    }

    #[test]
    fn round_robin_balances_counts() {
        let (g, c, r) = graph_and_cluster();
        let p = RoundRobin.allocate(&g, &c, r);
        let mut counts = vec![0usize; c.devices];
        for v in 0..g.num_nodes() {
            counts[p.device(v) as usize] += 1;
        }
        let (min, max) = (
            counts.iter().copied().min().unwrap(),
            counts.iter().copied().max().unwrap(),
        );
        assert!(max - min <= 1);
    }

    #[test]
    fn all_on_one_uses_one_device() {
        let (g, c, r) = graph_and_cluster();
        let p = AllOnOne.allocate(&g, &c, r);
        assert_eq!(p.devices_used(), 1);
        assert_eq!(p.cut_edges(&g), 0);
    }
}
