//! Property-based tests over the core invariants, spanning crates.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::gen::{DatasetSpec, Setting};
use spg::graph::{
    Allocator, Channel, ClusterSpec, Coarsening, Operator, Placement, StreamGraph, TupleRates,
    WeightedGraph,
};
use spg::partition::{kway_partition, MetisAllocator, PartitionConfig};
use spg::sim::relative_throughput;

/// A generated graph (scaled small or large setting) with its cluster,
/// source rate and Metis placement.
fn metis_case(large: bool, seed: u64) -> (StreamGraph, ClusterSpec, f64, Placement) {
    let setting = if large {
        Setting::Large
    } else {
        Setting::Small
    };
    let spec = DatasetSpec::scaled_down(setting);
    let cluster = spec.cluster();
    let g = spg::gen::generate_graph(&spec, seed);
    let p = MetisAllocator::new(seed).allocate(&g, &cluster, spec.source_rate);
    (g, cluster, spec.source_rate, p)
}

fn rebuild(ops: Vec<Operator>, edges: Vec<(u32, u32)>, channels: Vec<Channel>) -> StreamGraph {
    StreamGraph::from_parts(ops, edges, channels).expect("a relabelled or rescaled DAG stays valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated graphs are valid DAGs within the requested size range,
    /// with exactly one source and one sink.
    #[test]
    fn generator_produces_valid_graphs(seed in 0u64..5000) {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let g = spg::gen::generate_graph(&spec, seed);
        let (lo, hi) = spec.growth.node_range;
        prop_assert!(g.num_nodes() >= lo && g.num_nodes() <= hi);
        prop_assert_eq!(g.sources().len(), 1);
        prop_assert_eq!(g.sinks().len(), 1);
        // All costs positive.
        prop_assert!(g.ops().iter().all(|o| o.ipt > 0.0));
        prop_assert!(g.channels().iter().all(|c| c.payload > 0.0 && c.selectivity > 0.0));
    }

    /// Coarsening conserves total CPU demand and total traffic
    /// (internal + external), for arbitrary collapse decisions.
    #[test]
    fn coarsening_conserves_load(seed in 0u64..5000, mask in any::<u64>()) {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let g = spg::gen::generate_graph(&spec, seed);
        let rates = TupleRates::compute(&g, spec.source_rate);
        let decisions: Vec<bool> =
            (0..g.num_edges()).map(|e| mask & (1 << (e % 64)) != 0).collect();
        let c = Coarsening::from_collapse(&g, &rates, &decisions, None, None);

        let total_cpu: f64 = rates.cpu_demand(&g).iter().sum();
        let coarse_cpu: f64 = c.coarse.node_cpu.iter().sum();
        prop_assert!((total_cpu - coarse_cpu).abs() < 1e-6 * total_cpu.max(1.0));

        let total_traffic = rates.total_edge_traffic(&g);
        let accounted = c.coarse.total_external_traffic() + c.coarse.internal_traffic;
        prop_assert!((total_traffic - accounted).abs() < 1e-6 * total_traffic.max(1.0));

        // Node map must be dense.
        let k = c.coarse.num_nodes() as u32;
        prop_assert!(c.node_map.iter().all(|&m| m < k));
        let mut seen = vec![false; k as usize];
        for &m in &c.node_map { seen[m as usize] = true; }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Lifting a coarse placement preserves group co-location and the cut
    /// traffic equals the coarse graph's cross-group traffic.
    #[test]
    fn lift_preserves_grouping(seed in 0u64..5000, mask in any::<u64>(), devices in 2usize..6) {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let g = spg::gen::generate_graph(&spec, seed);
        let rates = TupleRates::compute(&g, spec.source_rate);
        let decisions: Vec<bool> =
            (0..g.num_edges()).map(|e| mask & (1 << (e % 64)) != 0).collect();
        let c = Coarsening::from_collapse(&g, &rates, &decisions, None, None);
        let coarse_placement = Placement::new(
            (0..c.coarse.num_nodes() as u32).map(|i| i % devices as u32).collect(),
        );
        let lifted = Placement::lift(&coarse_placement, &c.node_map);
        for v in 0..g.num_nodes() {
            prop_assert_eq!(
                lifted.device(v),
                coarse_placement.device(c.node_map[v] as usize)
            );
        }
    }

    /// The partitioner always produces a complete labelling within range
    /// and never leaves a part empty on connected graphs with n >= 4k.
    #[test]
    fn partitioner_labels_are_well_formed(seed in 0u64..5000, k in 2usize..6) {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let g = spg::gen::generate_graph(&spec, seed);
        let w = WeightedGraph::from_stream(&g, spec.source_rate);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let part = kway_partition(&w, k, &PartitionConfig::default(), &mut rng);
        prop_assert_eq!(part.len(), g.num_nodes());
        prop_assert!(part.iter().all(|&p| (p as usize) < k));
    }

    /// The analytic reward is scale-free: doubling the source rate halves
    /// the relative throughput of a saturated system (or keeps it at 1).
    #[test]
    fn reward_scales_inversely_with_rate(seed in 0u64..5000) {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let g = spg::gen::generate_graph(&spec, seed);
        let p = Placement::all_on_one(g.num_nodes());
        let r1 = spg::sim::relative_throughput(&g, &cluster, &p, spec.source_rate);
        let r2 = spg::sim::relative_throughput(&g, &cluster, &p, spec.source_rate * 2.0);
        if r1 < 1.0 {
            prop_assert!((r2 - r1 / 2.0).abs() < 1e-9, "r1 {} r2 {}", r1, r2);
        } else {
            prop_assert!(r2 <= 1.0);
        }
    }

    /// The reward sees CPU cost only as IPT / MIPS: scaling every
    /// operator's IPT and the devices' MIPS by one factor leaves the
    /// relative throughput of a Metis placement unchanged.
    #[test]
    fn reward_is_invariant_under_joint_cpu_scaling(
        seed in 0u64..5000,
        large in any::<bool>(),
        c in 0.1f64..10.0,
    ) {
        let (g, cluster, rate, p) = metis_case(large, seed);
        let ops = g.ops().iter().map(|o| Operator::new(o.ipt * c)).collect();
        let scaled = rebuild(ops, g.edge_list().to_vec(), g.channels().to_vec());
        let faster = ClusterSpec { mips: cluster.mips * c, ..cluster };
        let r = relative_throughput(&g, &cluster, &p, rate);
        let rc = relative_throughput(&scaled, &faster, &p, rate);
        prop_assert!((r - rc).abs() < 1e-12, "c {} r {} rc {}", c, r, rc);
    }

    /// Likewise for network cost, seen only as payload / bandwidth:
    /// scaling every channel's payload and the link bandwidth by one
    /// factor leaves the reward unchanged.
    #[test]
    fn reward_is_invariant_under_joint_network_scaling(
        seed in 0u64..5000,
        large in any::<bool>(),
        c in 0.1f64..10.0,
    ) {
        let (g, cluster, rate, p) = metis_case(large, seed);
        let channels = g
            .channels()
            .iter()
            .map(|ch| Channel { payload: ch.payload * c, ..*ch })
            .collect();
        let scaled = rebuild(g.ops().to_vec(), g.edge_list().to_vec(), channels);
        let wider = ClusterSpec { link_mbps: cluster.link_mbps * c, ..cluster };
        let r = relative_throughput(&g, &cluster, &p, rate);
        let rc = relative_throughput(&scaled, &wider, &p, rate);
        prop_assert!((r - rc).abs() < 1e-12, "c {} r {} rc {}", c, r, rc);
    }

    /// Node ids are names, not structure: relabelling the graph's nodes
    /// and permuting the placement alongside leaves the reward unchanged.
    /// (MetisAllocator itself is not relabelling-invariant — its matching
    /// and graph growing follow node order — so the placement is carried
    /// over, not recomputed.)
    #[test]
    fn reward_is_invariant_under_node_relabelling(seed in 0u64..5000, large in any::<bool>()) {
        let (g, cluster, rate, p) = metis_case(large, seed);
        let n = g.num_nodes();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        let mut ops = g.ops().to_vec();
        let mut devices = vec![0u32; n];
        for v in 0..n {
            ops[perm[v] as usize] = g.ops()[v];
            devices[perm[v] as usize] = p.device(v);
        }
        let edges = g
            .edge_list()
            .iter()
            .map(|&(s, d)| (perm[s as usize], perm[d as usize]))
            .collect();
        let relabelled = rebuild(ops, edges, g.channels().to_vec());
        let r = relative_throughput(&g, &cluster, &p, rate);
        let rp = relative_throughput(&relabelled, &cluster, &Placement::new(devices), rate);
        prop_assert!((r - rp).abs() < 1e-12, "r {} relabelled {}", r, rp);
    }

    /// CDF AUC is monotone: pointwise-better throughputs never raise AUC.
    #[test]
    fn auc_is_monotone(ts in prop::collection::vec(0.0f64..10_000.0, 1..40)) {
        let better: Vec<f64> = ts.iter().map(|&t| (t * 1.1).min(10_000.0)).collect();
        let a = spg::eval::ThroughputCdf::new(ts).auc(10_000.0);
        let b = spg::eval::ThroughputCdf::new(better).auc(10_000.0);
        prop_assert!(b <= a + 1e-9);
    }

    /// Device placements from the Metis allocator are always valid.
    #[test]
    fn metis_allocator_is_total(seed in 0u64..5000) {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let g = spg::gen::generate_graph(&spec, seed);
        let alloc = MetisAllocator::new(seed);
        let p = alloc.allocate(&g, &cluster, spec.source_rate);
        prop_assert!(p.validate(&g, cluster.devices));
    }
}
