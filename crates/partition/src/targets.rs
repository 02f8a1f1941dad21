//! Target-weighted k-way partitioning for heterogeneous clusters: part `p`
//! should receive `targets[p]` of the total node weight (the capacity share
//! of device `p`). Used by the future-work heterogeneous extension.

use crate::bisect::greedy_graph_growing;
use crate::coarsen::coarsen_to;
use crate::kway::PartitionConfig;
use crate::refine::rebalance_targets;
use rand::Rng;
use spg_graph::hetero::HeteroClusterSpec;
use spg_graph::{Placement, StreamGraph, WeightedGraph};

/// Partition `g` into `targets.len()` parts where part `p` receives
/// roughly a `targets[p]` fraction of total node weight (`targets` must be
/// positive; they are normalised internally).
pub fn kway_partition_targets<R: Rng>(
    g: &WeightedGraph,
    targets: &[f64],
    cfg: &PartitionConfig,
    rng: &mut R,
) -> Vec<u32> {
    let k = targets.len();
    assert!(k >= 1 && targets.iter().all(|&t| t > 0.0));
    if k == 1 || g.num_nodes() <= 1 {
        return vec![0; g.num_nodes()];
    }
    let total_t: f64 = targets.iter().sum();
    let shares: Vec<f64> = targets.iter().map(|&t| t / total_t).collect();

    // Coarsen, partition the coarsest graph recursively by target shares,
    // project down, then rebalance to per-part caps.
    let coarse_target = (cfg.coarse_factor * k).max(16);
    let max_share = shares.iter().copied().fold(0.0, f64::max);
    let cap_hint = g.total_node_weight() * max_share * cfg.balance_factor;
    let hierarchy = coarsen_to(g, coarse_target, Some(cap_hint), rng);

    let coarsest = hierarchy.coarsest();
    let mut part = vec![0u32; coarsest.num_nodes()];
    let parts: Vec<(u32, f64)> = shares
        .iter()
        .enumerate()
        .map(|(i, &s)| (i as u32, s))
        .collect();
    let all: Vec<u32> = (0..coarsest.num_nodes() as u32).collect();
    split(coarsest, &all, &parts, cfg, &mut part, rng);

    // Project to the finest level.
    let mut current = part;
    for level in hierarchy.levels.iter().rev().skip(1) {
        let map = level.node_map.as_ref().expect("inner levels have maps");
        current = map.iter().map(|&c| current[c as usize]).collect();
    }

    // Enforce per-part caps on the finest graph.
    let caps: Vec<f64> = shares
        .iter()
        .map(|&s| g.total_node_weight() * s * cfg.balance_factor)
        .collect();
    rebalance_targets(g, &mut current, &caps);
    current
}

/// Recursive bisection by grouped target shares.
fn split<R: Rng>(
    g: &WeightedGraph,
    nodes: &[u32],
    parts: &[(u32, f64)],
    cfg: &PartitionConfig,
    out: &mut [u32],
    rng: &mut R,
) {
    if parts.len() == 1 || nodes.len() <= 1 {
        let p = parts[0].0;
        for &v in nodes {
            out[v as usize] = p;
        }
        return;
    }
    let half = parts.len() / 2;
    let (left_parts, right_parts) = parts.split_at(half);
    let left_share: f64 = left_parts.iter().map(|&(_, s)| s).sum();
    let total_share: f64 = parts.iter().map(|&(_, s)| s).sum();
    let frac = left_share / total_share;

    // Induced subgraph.
    let mut index = vec![u32::MAX; g.num_nodes()];
    for (i, &v) in nodes.iter().enumerate() {
        index[v as usize] = i as u32;
    }
    let weights: Vec<f64> = nodes.iter().map(|&v| g.node_weight[v as usize]).collect();
    let mut edges = Vec::new();
    for (i, &(a, b)) in g.edges.iter().enumerate() {
        let (ia, ib) = (index[a as usize], index[b as usize]);
        if ia != u32::MAX && ib != u32::MAX {
            edges.push((ia, ib, g.edge_weight[i]));
        }
    }
    let sub = WeightedGraph::new(weights, edges);
    let bis = greedy_graph_growing(&sub, frac, cfg.bisection_tries, 0.05, rng);

    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, &p) in bis.part.iter().enumerate() {
        if p == 0 {
            left.push(nodes[i]);
        } else {
            right.push(nodes[i]);
        }
    }
    if left.is_empty() && !right.is_empty() {
        left.push(right.pop().expect("non-empty"));
    } else if right.is_empty() && !left.is_empty() {
        right.push(left.pop().expect("non-empty"));
    }
    split(g, &left, left_parts, cfg, out, rng);
    split(g, &right, right_parts, cfg, out, rng);
}

/// End-to-end heterogeneous Metis: partition the stream graph with device
/// capacity shares as targets.
#[derive(Debug, Clone)]
pub struct MetisHeteroAllocator {
    /// Seed for the RNG stream.
    pub seed: u64,
}

impl MetisHeteroAllocator {
    /// Allocator whose partitioner RNG seeds from `seed` on every call.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Place `graph` on a heterogeneous cluster.
    pub fn allocate_hetero(
        &self,
        graph: &StreamGraph,
        cluster: &HeteroClusterSpec,
        source_rate: f64,
    ) -> Placement {
        use rand::SeedableRng;
        let w = WeightedGraph::from_stream(graph, source_rate);
        let targets = cluster.capacity_shares();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(self.seed);
        let part = kway_partition_targets(&w, &targets, &PartitionConfig::default(), &mut rng);
        Placement::new(part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn respects_asymmetric_targets() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let g = random_graph(200, 400, &mut rng);
        let targets = [1.0, 3.0]; // 25% / 75%
        let part = kway_partition_targets(&g, &targets, &PartitionConfig::default(), &mut rng);
        let w = g.part_weights(&part, 2);
        let total = g.total_node_weight();
        let frac1 = w[1] / total;
        assert!(
            (0.55..=0.9).contains(&frac1),
            "part 1 got {frac1} of the weight, wanted ~0.75"
        );
    }

    #[test]
    fn uniform_targets_match_plain_kway_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = random_graph(150, 300, &mut rng);
        let part = kway_partition_targets(&g, &[1.0; 4], &PartitionConfig::default(), &mut rng);
        let weights = g.part_weights(&part, 4);
        let ideal = g.total_node_weight() / 4.0;
        for w in weights {
            assert!(w <= ideal * 1.7, "part weight {w} vs ideal {ideal}");
        }
    }

    #[test]
    fn hetero_allocator_feeds_big_devices() {
        let spec = spg_gen::DatasetSpec::scaled_down(spg_gen::Setting::Medium);
        let g = spg_gen::generate_graph(&spec, 3);
        let cluster = HeteroClusterSpec::new(vec![500.0, 500.0, 3000.0], 1500.0);
        let alloc = MetisHeteroAllocator::new(5);
        let p = alloc.allocate_hetero(&g, &cluster, spec.source_rate);
        let rates = spg_graph::TupleRates::compute(&g, spec.source_rate);
        let cpu = rates.cpu_demand(&g);
        let mut load = vec![0.0; 3];
        for v in 0..g.num_nodes() {
            load[p.device(v) as usize] += cpu[v];
        }
        assert!(
            load[2] > load[0] && load[2] > load[1],
            "big device should carry the most load: {load:?}"
        );
    }

    #[test]
    fn single_target_is_trivial() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = random_graph(20, 30, &mut rng);
        let part = kway_partition_targets(&g, &[1.0], &PartitionConfig::default(), &mut rng);
        assert!(part.iter().all(|&p| p == 0));
    }
}
