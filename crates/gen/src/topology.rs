//! Recursive topology growth (Fig. 4).
//!
//! A seed `source -> stage -> sink` graph is grown by repeatedly replacing
//! an eligible node with a sampled [`Template`]: the node's incoming edges
//! are rewired to every template entry, outgoing edges from every exit, and
//! the template's fresh nodes become eligible themselves. With probability
//! `p_replicate` the template is instantiated 2–3 times in parallel and the
//! replicas share *property classes*, so the workload assigner later gives
//! them identical costs (the paper replicates sub-graph properties).

use crate::templates::{Template, TemplateConfig};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Growth parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrowthConfig {
    /// Target node-count range `(min, max)` inclusive.
    pub node_range: (usize, usize),
    /// Template families and sizes.
    pub templates: TemplateConfig,
    /// Probability of replicating a sampled template 2–3x in parallel.
    pub p_replicate: f64,
}

impl GrowthConfig {
    /// Paper-style growth for a node range.
    pub fn for_range(lo: usize, hi: usize) -> Self {
        assert!(3 <= lo && lo <= hi);
        Self {
            node_range: (lo, hi),
            templates: TemplateConfig::default(),
            p_replicate: 0.15,
        }
    }
}

/// A topology skeleton: structure plus property classes (no costs yet).
#[derive(Debug, Clone, PartialEq)]
pub struct Skeleton {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Directed edges.
    pub edges: Vec<(u32, u32)>,
    /// Property class of each node: nodes with equal class get identical
    /// operator costs (replication).
    pub node_class: Vec<u32>,
    /// Property class of each edge.
    pub edge_class: Vec<u32>,
}

impl Skeleton {
    fn seed() -> Self {
        Self {
            num_nodes: 3,
            edges: vec![(0, 1), (1, 2)],
            node_class: vec![0, 1, 2],
            edge_class: vec![0, 1],
        }
    }
}

/// Grows [`Skeleton`]s according to a [`GrowthConfig`].
#[derive(Debug, Clone)]
pub struct TopologyGenerator {
    cfg: GrowthConfig,
}

impl TopologyGenerator {
    /// Create a generator.
    pub fn new(cfg: GrowthConfig) -> Self {
        Self { cfg }
    }

    /// Grow one skeleton.
    pub fn generate<R: Rng>(&self, rng: &mut R) -> Skeleton {
        let (lo, hi) = self.cfg.node_range;
        let mut sk = Skeleton::seed();
        let mut next_node_class = 3u32;
        let mut next_edge_class = 2u32;
        // Node 1 (the middle stage) is the only initially replaceable node;
        // the global source and sink stay fixed.
        let mut eligible: Vec<u32> = vec![1];

        while sk.num_nodes < lo && !eligible.is_empty() {
            let slot = rng.gen_range(0..eligible.len());
            let v = eligible.swap_remove(slot);

            let budget = hi - sk.num_nodes + 1; // replacing v frees one slot
            let Some((tpl, _kind)) = Template::sample(&self.cfg.templates, budget, rng) else {
                continue;
            };

            // Decide replication.
            let mut replicas = 1usize;
            if rng.gen::<f64>() < self.cfg.p_replicate {
                for r in [3usize, 2] {
                    if r * tpl.nodes <= budget {
                        replicas = r;
                        break;
                    }
                }
            }

            self.substitute(
                &mut sk,
                v,
                &tpl,
                replicas,
                &mut next_node_class,
                &mut next_edge_class,
                &mut eligible,
            );
        }
        debug_assert!(sk.num_nodes <= hi, "{} > {hi}", sk.num_nodes);
        sk
    }

    /// Replace node `v` with `replicas` copies of `tpl` wired in parallel.
    #[allow(clippy::too_many_arguments)]
    fn substitute(
        &self,
        sk: &mut Skeleton,
        v: u32,
        tpl: &Template,
        replicas: usize,
        next_node_class: &mut u32,
        next_edge_class: &mut u32,
        eligible: &mut Vec<u32>,
    ) {
        // Fresh classes for the first instance; replicas reuse them.
        let node_class_base = *next_node_class;
        *next_node_class += tpl.nodes as u32;
        let edge_class_base = *next_edge_class;
        *next_edge_class += tpl.edges.len() as u32;

        // Allocate node ids for all instances.
        let mut instance_base = Vec::with_capacity(replicas);
        for _ in 0..replicas {
            let base = sk.num_nodes as u32;
            instance_base.push(base);
            for local in 0..tpl.nodes {
                sk.node_class.push(node_class_base + local as u32);
                eligible.push(base + local as u32);
                sk.num_nodes += 1;
            }
            for (ei, &(a, b)) in tpl.edges.iter().enumerate() {
                sk.edges.push((base + a, base + b));
                sk.edge_class.push(edge_class_base + ei as u32);
            }
        }

        // Rewire v's boundary edges to every entry/exit of every instance,
        // inheriting the original edge class (replicas share it).
        let old_edges = std::mem::take(&mut sk.edges);
        let old_classes = std::mem::take(&mut sk.edge_class);
        let mut edges = Vec::with_capacity(old_edges.len() + 8);
        let mut classes = Vec::with_capacity(old_edges.len() + 8);
        for (&(a, b), &cls) in old_edges.iter().zip(&old_classes) {
            if a != v && b != v {
                edges.push((a, b));
                classes.push(cls);
                continue;
            }
            for &base in &instance_base {
                if b == v {
                    for &entry in &tpl.entries {
                        edges.push((a, base + entry));
                        classes.push(cls);
                    }
                } else {
                    for &exit in &tpl.exits {
                        edges.push((base + exit, b));
                        classes.push(cls);
                    }
                }
            }
        }
        sk.edges = edges;
        sk.edge_class = classes;

        // Node v itself is gone: compact ids by swapping with the last node.
        self.remove_node(sk, v, eligible);
    }

    /// Remove node `v` from the skeleton by swap-remove relabelling.
    fn remove_node(&self, sk: &mut Skeleton, v: u32, eligible: &mut [u32]) {
        let last = (sk.num_nodes - 1) as u32;
        sk.node_class.swap(v as usize, last as usize);
        sk.node_class.pop();
        sk.num_nodes -= 1;
        if v != last {
            for e in sk.edges.iter_mut() {
                if e.0 == last {
                    e.0 = v;
                }
                if e.1 == last {
                    e.1 = v;
                }
            }
            for w in eligible.iter_mut() {
                if *w == last {
                    *w = v;
                }
            }
        }
        debug_assert!(sk
            .edges
            .iter()
            .all(|&(a, b)| a != last && b != last || sk.num_nodes as u32 > last));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashSet;

    fn grow(lo: usize, hi: usize, seed: u64) -> Skeleton {
        let gen = TopologyGenerator::new(GrowthConfig::for_range(lo, hi));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        gen.generate(&mut rng)
    }

    #[test]
    fn grows_into_range() {
        for seed in 0..20 {
            let sk = grow(20, 40, seed);
            assert!(
                (20..=40).contains(&sk.num_nodes),
                "{} outside range (seed {seed})",
                sk.num_nodes
            );
        }
    }

    #[test]
    fn result_is_acyclic_with_no_duplicate_edges() {
        for seed in 0..10 {
            let sk = grow(30, 60, seed);
            let set: HashSet<(u32, u32)> = sk.edges.iter().copied().collect();
            assert_eq!(set.len(), sk.edges.len(), "duplicate edges (seed {seed})");
            assert!(
                spg_graph::topo::topological_order(&spg_graph::Csr::from_edges(
                    sk.num_nodes,
                    sk.edges.iter().copied()
                ))
                .is_some(),
                "cycle introduced (seed {seed})"
            );
            assert!(
                sk.edges.iter().all(|&(a, b)| a != b),
                "self loop (seed {seed})"
            );
        }
    }

    #[test]
    fn single_source_and_sink_preserved() {
        for seed in 0..10 {
            let sk = grow(30, 60, seed);
            let mut indeg = vec![0; sk.num_nodes];
            let mut outdeg = vec![0; sk.num_nodes];
            for &(a, b) in &sk.edges {
                outdeg[a as usize] += 1;
                indeg[b as usize] += 1;
            }
            assert_eq!(indeg.iter().filter(|&&d| d == 0).count(), 1, "seed {seed}");
            assert_eq!(outdeg.iter().filter(|&&d| d == 0).count(), 1, "seed {seed}");
        }
    }

    #[test]
    fn replication_creates_shared_classes() {
        // With p_replicate = 1 some class must repeat across nodes.
        let mut cfg = GrowthConfig::for_range(40, 80);
        cfg.p_replicate = 1.0;
        let gen = TopologyGenerator::new(cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sk = gen.generate(&mut rng);
        let mut counts = std::collections::HashMap::new();
        for &c in &sk.node_class {
            *counts.entry(c).or_insert(0usize) += 1;
        }
        assert!(counts.values().any(|&c| c >= 2), "no replicated classes");
    }

    #[test]
    fn classes_cover_all_nodes_and_edges() {
        let sk = grow(20, 40, 5);
        assert_eq!(sk.node_class.len(), sk.num_nodes);
        assert_eq!(sk.edge_class.len(), sk.edges.len());
    }
}
