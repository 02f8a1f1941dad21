//! Partitioner bits pinned across commits: golden digests of the part
//! labels the multilevel partitioner produces, and of the weighted graphs
//! fed to it. Training rewards, serving answers and every other pin
//! downstream of placement depend on these labels, so a change to the
//! FM move order, graph growing, matching or the weighted-graph builds
//! that moves one label or one weight bit fails here first.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::gen::{generate_graph, DatasetSpec, Setting};
use spg::graph::{Coarsening, GraphFeatures, TupleRates, WeightedGraph};
use spg::model::pipeline::{CoarsePlacer, MetisCoarsePlacer};
use spg::model::policy::priority_by_prob;
use spg::model::{CoarsenConfig, CoarsenModel, CoarseningPolicy, DecodeMode};
use spg::partition::bisect::Bisection;
use spg::partition::refine::fm_bisection_refine;
use spg::partition::{kway_partition, kway_partition_targets, MetisAllocator, PartitionConfig};
use spg::{Allocator, StreamGraph};

/// FNV-1a-64 over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf29ce484222325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    fn labels(&mut self, part: &[u32]) {
        self.u32(part.len() as u32);
        for &p in part {
            self.u32(p);
        }
    }

    /// Node weights, edges with their weights, and every node's
    /// `(neighbor, edge)` list in order.
    fn weighted(&mut self, g: &WeightedGraph) {
        self.u32(g.num_nodes() as u32);
        for &w in &g.node_weight {
            self.f64(w);
        }
        self.u32(g.num_edges() as u32);
        for (&(a, b), &w) in g.edges.iter().zip(&g.edge_weight) {
            self.u32(a);
            self.u32(b);
            self.f64(w);
        }
        for v in 0..g.num_nodes() as u32 {
            for &(u, e) in g.neighbors(v) {
                self.u32(u);
                self.u32(e);
            }
        }
    }
}

/// Scaled small, medium, large and x-large graphs, seeds 0-7, with each
/// setting's spec.
fn scaled_graphs() -> Vec<(DatasetSpec, StreamGraph)> {
    let mut out = Vec::new();
    for setting in [
        Setting::Small,
        Setting::Medium,
        Setting::Large,
        Setting::XLarge,
    ] {
        let spec = DatasetSpec::scaled_down(setting);
        for seed in 0..8u64 {
            let graph = generate_graph(&spec, seed);
            out.push((spec.clone(), graph));
        }
    }
    out
}

/// Unit-weight paths, grids and cliques: every gain ties with many others,
/// so the move order decides the labels.
fn tie_heavy_graphs() -> Vec<WeightedGraph> {
    let mut out = Vec::new();
    for n in [2u32, 5, 17, 40] {
        let edges = (1..n).map(|v| (v - 1, v, 1.0));
        out.push(WeightedGraph::new(vec![1.0; n as usize], edges));
    }
    for (rows, cols) in [(3u32, 3u32), (4, 6), (7, 7), (5, 11)] {
        let id = |r: u32, c: u32| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((id(r, c), id(r, c + 1), 1.0));
                }
                if r + 1 < rows {
                    edges.push((id(r, c), id(r + 1, c), 1.0));
                }
            }
        }
        out.push(WeightedGraph::new(vec![1.0; (rows * cols) as usize], edges));
    }
    for n in [4u32, 7, 12] {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b, 1.0));
            }
        }
        out.push(WeightedGraph::new(vec![1.0; n as usize], edges));
    }
    out
}

/// Three `Sample` coarsenings of `graph` under a default model from
/// ChaCha8 seed 7, built the way a training rollout builds them: edges
/// collapse in descending probability under the policy's CPU cap.
fn sample_coarsenings(
    model: &CoarsenModel,
    spec: &DatasetSpec,
    graph: &StreamGraph,
    seed: u64,
) -> Vec<Coarsening> {
    let cluster = spec.cluster();
    let rates = TupleRates::compute(graph, spec.source_rate);
    let feats = GraphFeatures::extract_with_rates(graph, &cluster, &rates);
    let probs = model.predict_probs_with_features(graph, &feats);
    let priority = priority_by_prob(&probs);
    let policy = CoarseningPolicy::from_config(&model.config);
    let cap = policy.max_group_cpu_factor * cluster.instr_per_sec();
    assert!(cap > 0.0, "the default config caps coarse nodes");
    (0..3)
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed * 3 + i);
            let decisions = policy.decode(&probs, DecodeMode::Sample, &mut rng);
            Coarsening::from_collapse(graph, &rates, &decisions, Some(cap), Some(&priority))
        })
        .collect()
}

fn default_model() -> CoarsenModel {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    CoarsenModel::new(CoarsenConfig::default(), &mut rng)
}

#[test]
fn coarse_placement_bits_are_pinned() {
    let model = default_model();
    let placer = MetisCoarsePlacer::new(1);
    let mut h = Fnv::new();
    for (i, (spec, graph)) in scaled_graphs().into_iter().enumerate() {
        let cluster = spec.cluster();
        for c in sample_coarsenings(&model, &spec, &graph, i as u64) {
            h.labels(&c.node_map);
            h.labels(placer.place_coarse(&c.coarse, &cluster).as_slice());
        }
    }
    assert_eq!(
        h.0, 0x13aca80c1a3105ac,
        "coarse placement bits moved: {:#018x}",
        h.0
    );
}

#[test]
fn full_graph_placement_bits_are_pinned() {
    let mut h = Fnv::new();
    for (spec, graph) in scaled_graphs() {
        let alloc = MetisAllocator::new(1);
        let placement = alloc.allocate(&graph, &spec.cluster(), spec.source_rate);
        h.labels(placement.as_slice());
    }
    assert_eq!(
        h.0, 0x4e4e84340afa0eb6,
        "full-graph placement bits moved: {:#018x}",
        h.0
    );
}

#[test]
fn tie_heavy_kway_bits_are_pinned() {
    let mut h = Fnv::new();
    for (i, g) in tie_heavy_graphs().iter().enumerate() {
        for k in [2usize, 3, 5, 10] {
            let mut rng = ChaCha8Rng::seed_from_u64(100 + i as u64);
            h.labels(&kway_partition(g, k, &PartitionConfig::default(), &mut rng));
        }
    }
    assert_eq!(
        h.0, 0x7ab6bcabf50aa0fb,
        "tie-heavy k-way bits moved: {:#018x}",
        h.0
    );
}

#[test]
fn tie_heavy_fm_bits_are_pinned() {
    let mut h = Fnv::new();
    for g in tie_heavy_graphs() {
        let n = g.num_nodes();
        // Alternating labels start inside the window; everything in part 1
        // starts outside it, so only balance-improving moves are feasible
        // until part 0 is back in range.
        let starts: [Vec<u32>; 2] = [(0..n as u32).map(|v| v % 2).collect(), vec![1; n]];
        for start in starts {
            for (target, tol) in [(0.5, 0.1), (1.0 / 3.0, 0.05)] {
                let weight0 = start
                    .iter()
                    .zip(&g.node_weight)
                    .filter(|(&p, _)| p == 0)
                    .map(|(_, &w)| w)
                    .sum();
                let mut bis = Bisection {
                    cut: g.cut_weight(&start),
                    part: start.clone(),
                    weight0,
                };
                fm_bisection_refine(&g, &mut bis, target, tol, 4);
                h.labels(&bis.part);
                h.f64(bis.cut);
                h.f64(bis.weight0);
            }
        }
    }
    assert_eq!(
        h.0, 0x5de91d752017b25d,
        "tie-heavy FM bits moved: {:#018x}",
        h.0
    );
}

#[test]
fn heterogeneous_target_bits_are_pinned() {
    let mut h = Fnv::new();
    let spec = DatasetSpec::scaled_down(Setting::Medium);
    let targets: [&[f64]; 3] = [
        &[1.0, 2.0],
        &[3.0, 1.0, 1.0, 0.5],
        &[1.0, 1.5, 2.0, 2.5, 3.0],
    ];
    for seed in 0..4u64 {
        let graph = generate_graph(&spec, seed);
        let w = WeightedGraph::from_stream(&graph, spec.source_rate);
        for t in targets {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            h.labels(&kway_partition_targets(
                &w,
                t,
                &PartitionConfig::default(),
                &mut rng,
            ));
        }
    }
    for g in tie_heavy_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        h.labels(&kway_partition_targets(
            &g,
            &[1.0, 2.0, 3.0],
            &PartitionConfig::default(),
            &mut rng,
        ));
    }
    assert_eq!(
        h.0, 0x10b02705c13cacf4,
        "heterogeneous target bits moved: {:#018x}",
        h.0
    );
}

#[test]
fn weighted_graph_bits_are_pinned() {
    let model = default_model();
    let mut h = Fnv::new();
    for (i, (spec, graph)) in scaled_graphs().into_iter().enumerate() {
        let rates = TupleRates::compute(&graph, spec.source_rate);
        let full = WeightedGraph::from_stream_with_rates(&graph, &rates);
        h.weighted(&full);
        let c = &sample_coarsenings(&model, &spec, &graph, i as u64)[0];
        h.weighted(&c.coarse.to_weighted());
        h.weighted(&full.contract(&c.node_map, c.coarse.num_nodes()));
        // A many-to-few map merges many parallel edges per coarse pair.
        let k = 7.min(full.num_nodes());
        let map: Vec<u32> = (0..full.num_nodes() as u32)
            .map(|v| (v * 5 + 3) % k as u32)
            .collect();
        h.weighted(&full.contract(&map, k));
    }
    assert_eq!(
        h.0, 0xc3bab8c2696569a6,
        "weighted graph bits moved: {:#018x}",
        h.0
    );
}
