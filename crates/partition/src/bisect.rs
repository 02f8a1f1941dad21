//! Initial bisection: greedy graph growing (GGGP).
//!
//! Grow a region from a random seed, always absorbing the frontier node
//! with the best gain (edge weight into the region minus edge weight out),
//! until the region holds the target share of total node weight. Several
//! seeds are tried; the best post-refinement cut wins.

use crate::refine::fm_bisection_refine;
use rand::Rng;
use spg_graph::WeightedGraph;

/// A two-way partition: labels in {0, 1}.
#[derive(Debug, Clone)]
pub struct Bisection {
    /// Part label per node.
    pub part: Vec<u32>,
    /// Cut weight.
    pub cut: f64,
    /// Node weight of part 0.
    pub weight0: f64,
}

/// Bisect `g` so part 0 holds roughly `target_frac` of the node weight.
/// `tries` independent seeds are grown and FM-refined.
pub fn greedy_graph_growing<R: Rng>(
    g: &WeightedGraph,
    target_frac: f64,
    tries: usize,
    balance_tol: f64,
    rng: &mut R,
) -> Bisection {
    assert!((0.0..=1.0).contains(&target_frac));
    let n = g.num_nodes();
    let total = g.total_node_weight();
    let target0 = total * target_frac;

    let mut best: Option<Bisection> = None;
    for _ in 0..tries.max(1) {
        // The region is part 0.
        let mut part = vec![1u32; n];
        let mut w0 = 0.0;
        // gain[v] = weight to region - weight to outside (for frontier nodes)
        let mut gain = vec![0.0f64; n];
        // A node enters the frontier at most once, on first contact, and
        // leaves it only to join the region.
        let mut seen = vec![false; n];
        let mut frontier: Vec<u32> = Vec::new();

        let seed = rng.gen_range(0..n as u32);
        add_to_region(
            g,
            seed,
            &mut part,
            &mut w0,
            &mut gain,
            &mut seen,
            &mut frontier,
        );

        while w0 < target0 && !frontier.is_empty() {
            // Pick the frontier node with max gain (linear scan; frontier is
            // small relative to n and this runs on coarse graphs).
            let (bi, _) = frontier
                .iter()
                .enumerate()
                .map(|(i, &v)| (i, gain[v as usize]))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("frontier non-empty");
            let v = frontier.swap_remove(bi);
            add_to_region(
                g,
                v,
                &mut part,
                &mut w0,
                &mut gain,
                &mut seen,
                &mut frontier,
            );
        }

        let mut bis = Bisection {
            cut: g.cut_weight(&part),
            part,
            weight0: w0,
        };
        fm_bisection_refine(g, &mut bis, target_frac, balance_tol, 4);
        if best.as_ref().is_none_or(|b| bis.cut < b.cut) {
            best = Some(bis);
        }
    }
    best.expect("at least one try")
}

fn add_to_region(
    g: &WeightedGraph,
    v: u32,
    part: &mut [u32],
    w0: &mut f64,
    gain: &mut [f64],
    seen: &mut [bool],
    frontier: &mut Vec<u32>,
) {
    part[v as usize] = 0;
    *w0 += g.node_weight[v as usize];
    for &(u, e) in g.neighbors(v) {
        if part[u as usize] == 0 {
            continue;
        }
        let w = g.edge_weight[e as usize];
        if !seen[u as usize] {
            // First contact: initialise gain with -Σ incident weight.
            seen[u as usize] = true;
            let ext: f64 = g
                .neighbors(u)
                .iter()
                .map(|&(_, ee)| g.edge_weight[ee as usize])
                .sum();
            gain[u as usize] = -ext;
            frontier.push(u);
        }
        gain[u as usize] += 2.0 * w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn bisection_is_roughly_balanced() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let g = random_graph(100, 200, &mut rng);
        let b = greedy_graph_growing(&g, 0.5, 4, 0.1, &mut rng);
        let total = g.total_node_weight();
        assert!(
            (b.weight0 / total - 0.5).abs() < 0.2,
            "weight0 frac = {}",
            b.weight0 / total
        );
        assert!((g.cut_weight(&b.part) - b.cut).abs() < 1e-6);
    }

    #[test]
    fn finds_obvious_cut() {
        // Two 4-cliques joined by one light edge.
        let mut edges = Vec::new();
        for base in [0u32, 4] {
            for a in 0..4 {
                for b in (a + 1)..4 {
                    edges.push((base + a, base + b, 100.0));
                }
            }
        }
        edges.push((0, 4, 1.0));
        let g = WeightedGraph::new(vec![1.0; 8], edges);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let b = greedy_graph_growing(&g, 0.5, 8, 0.1, &mut rng);
        assert!((b.cut - 1.0).abs() < 1e-9, "cut = {}", b.cut);
    }

    #[test]
    fn asymmetric_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = random_graph(90, 150, &mut rng);
        let b = greedy_graph_growing(&g, 1.0 / 3.0, 4, 0.15, &mut rng);
        let frac = b.weight0 / g.total_node_weight();
        assert!((frac - 1.0 / 3.0).abs() < 0.25, "frac = {frac}");
    }

    #[test]
    fn single_node_graph() {
        let g = WeightedGraph::new(vec![5.0], vec![]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let b = greedy_graph_growing(&g, 0.5, 2, 0.1, &mut rng);
        assert_eq!(b.part.len(), 1);
        assert_eq!(b.cut, 0.0);
    }
}
