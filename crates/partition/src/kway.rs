//! The multilevel k-way driver.

use crate::bisect::greedy_graph_growing;
use crate::coarsen::coarsen_to;
use crate::refine::kway_refine;
use rand::Rng;
use spg_graph::WeightedGraph;

/// Tuning knobs of the partitioner.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Allowed part weight as a multiple of the perfect share (Metis uses
    /// ~1.03; we default a little looser because stream loads are lumpy).
    pub balance_factor: f64,
    /// Coarsening stops at `coarse_factor * k` nodes.
    pub coarse_factor: usize,
    /// Seeds tried per initial bisection.
    pub bisection_tries: usize,
    /// Refinement passes per uncoarsening level.
    pub refine_passes: usize,
    /// Skip uncoarsening refinement entirely (ablation).
    pub refine: bool,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            balance_factor: 1.10,
            coarse_factor: 8,
            bisection_tries: 4,
            refine_passes: 4,
            refine: true,
        }
    }
}

/// Partition `g` into `k` parts: multilevel coarsening, recursive-bisection
/// initial partitioning on the coarsest graph, then refined uncoarsening.
/// Returns part labels in `0..k`.
pub fn kway_partition<R: Rng>(
    g: &WeightedGraph,
    k: usize,
    cfg: &PartitionConfig,
    rng: &mut R,
) -> Vec<u32> {
    assert!(k >= 1);
    if k == 1 || g.num_nodes() <= 1 {
        return vec![0; g.num_nodes()];
    }
    let target = (cfg.coarse_factor * k).max(16);
    let cap = g.total_node_weight() / k as f64 * cfg.balance_factor;
    let hierarchy = coarsen_to(g, target, Some(cap), rng);

    // Initial k-way partition of the coarsest graph by recursive bisection.
    let coarsest = hierarchy.coarsest();
    let mut part = vec![0u32; coarsest.num_nodes()];
    recursive_bisect(
        coarsest,
        &(0..coarsest.num_nodes() as u32).collect::<Vec<_>>(),
        0,
        k,
        cfg,
        &mut part,
        rng,
    );

    // Uncoarsen with per-level refinement.
    let max_part_weight = g.total_node_weight() / k as f64 * cfg.balance_factor;
    let mut current = part;
    if cfg.refine {
        kway_refine(
            hierarchy.coarsest(),
            &mut current,
            k,
            max_part_weight,
            cfg.refine_passes,
        );
    }
    for level in hierarchy.levels.iter().rev().skip(1) {
        let map = level.node_map.as_ref().expect("inner levels have maps");
        let mut projected: Vec<u32> = map.iter().map(|&c| current[c as usize]).collect();
        if cfg.refine {
            kway_refine(
                &level.graph,
                &mut projected,
                k,
                max_part_weight,
                cfg.refine_passes,
            );
        }
        current = projected;
    }
    // Coarse nodes are lumpy; enforce the balance cap on the finest graph
    // and give refinement one last pass from the balanced state.
    crate::refine::rebalance(g, &mut current, k, max_part_weight);
    if cfg.refine {
        kway_refine(g, &mut current, k, max_part_weight, cfg.refine_passes);
    }
    current
}

/// Recursively bisect the sub-graph induced by `nodes` into parts
/// `[first_part, first_part + k)`.
fn recursive_bisect<R: Rng>(
    g: &WeightedGraph,
    nodes: &[u32],
    first_part: u32,
    k: usize,
    cfg: &PartitionConfig,
    out: &mut [u32],
    rng: &mut R,
) {
    if k <= 1 || nodes.len() <= 1 {
        for &v in nodes {
            out[v as usize] = first_part;
        }
        return;
    }
    let k0 = k / 2;
    let k1 = k - k0;
    let frac = k0 as f64 / k as f64;

    let (sub, back) = induced(g, nodes);
    let bis = greedy_graph_growing(
        &sub,
        frac,
        cfg.bisection_tries,
        0.10 * frac.min(1.0 - frac).max(0.2),
        rng,
    );
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, &p) in bis.part.iter().enumerate() {
        if p == 0 {
            left.push(back[i]);
        } else {
            right.push(back[i]);
        }
    }
    // Degenerate splits still need progress: steal one node if necessary.
    if left.is_empty() && !right.is_empty() {
        left.push(right.pop().expect("non-empty"));
    } else if right.is_empty() && !left.is_empty() {
        right.push(left.pop().expect("non-empty"));
    }
    recursive_bisect(g, &left, first_part, k0, cfg, out, rng);
    recursive_bisect(g, &right, first_part + k0 as u32, k1, cfg, out, rng);
}

/// Induced subgraph on `nodes`; returns the subgraph and the map from
/// subgraph index back to the original node id.
fn induced(g: &WeightedGraph, nodes: &[u32]) -> (WeightedGraph, Vec<u32>) {
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
    (WeightedGraph::new(weights, edges), nodes.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn produces_k_parts_with_reasonable_balance() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let g = random_graph(300, 600, &mut rng);
        for k in [2usize, 4, 7, 10] {
            let part = kway_partition(&g, k, &PartitionConfig::default(), &mut rng);
            assert_eq!(part.len(), 300);
            assert!(part.iter().all(|&p| (p as usize) < k));
            let weights = g.part_weights(&part, k);
            let ideal = g.total_node_weight() / k as f64;
            for (p, &w) in weights.iter().enumerate() {
                assert!(
                    w <= ideal * 1.7,
                    "part {p} weight {w} vs ideal {ideal} (k={k})"
                );
            }
            // Every part should be non-empty for connected graphs this size.
            assert!(weights.iter().all(|&w| w > 0.0), "empty part at k={k}");
        }
    }

    #[test]
    fn k1_is_trivial() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = random_graph(20, 30, &mut rng);
        let part = kway_partition(&g, 1, &PartitionConfig::default(), &mut rng);
        assert!(part.iter().all(|&p| p == 0));
    }

    #[test]
    fn refinement_helps_or_ties() {
        let mut rng_a = ChaCha8Rng::seed_from_u64(7);
        let mut rng_b = ChaCha8Rng::seed_from_u64(7);
        let g = random_graph(200, 500, &mut ChaCha8Rng::seed_from_u64(3));
        let with = kway_partition(&g, 5, &PartitionConfig::default(), &mut rng_a);
        let without = kway_partition(
            &g,
            5,
            &PartitionConfig {
                refine: false,
                ..Default::default()
            },
            &mut rng_b,
        );
        assert!(g.cut_weight(&with) <= g.cut_weight(&without) + 1e-6);
    }

    #[test]
    fn separates_clusters() {
        // Four 5-cliques chained by light edges must be split cleanly at k=4.
        let mut edges = Vec::new();
        for c in 0..4u32 {
            let base = c * 5;
            for a in 0..5 {
                for b in (a + 1)..5 {
                    edges.push((base + a, base + b, 100.0));
                }
            }
            if c < 3 {
                edges.push((base + 4, base + 5, 1.0));
            }
        }
        let g = WeightedGraph::new(vec![1.0; 20], edges);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let part = kway_partition(&g, 4, &PartitionConfig::default(), &mut rng);
        let cut = g.cut_weight(&part);
        assert!(cut <= 3.0 + 1e-9, "cut = {cut}");
    }

    #[test]
    fn more_parts_never_reduce_cut_dramatically_wrong() {
        // Sanity: cut at k=2 should not exceed cut at k=6 by a huge factor
        // on a random graph (monotonicity in expectation).
        let g = random_graph(150, 400, &mut ChaCha8Rng::seed_from_u64(11));
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let c2 = g.cut_weight(&kway_partition(
            &g,
            2,
            &PartitionConfig::default(),
            &mut rng,
        ));
        let c6 = g.cut_weight(&kway_partition(
            &g,
            6,
            &PartitionConfig::default(),
            &mut rng,
        ));
        assert!(c2 <= c6 * 1.5, "c2 = {c2}, c6 = {c6}");
    }
}
