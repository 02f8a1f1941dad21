//! The paper's future-work extension in action: allocating onto a
//! *heterogeneous* cluster (devices with different MIPS).
//!
//! The coarsening model is capacity-agnostic — it only decides which edges
//! to merge — so the same trained model carries over; only the partitioner
//! changes, using device capacity shares as target weights.
//!
//! Run with `cargo run --release --example heterogeneous_cluster`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::gen::{DatasetSpec, Setting};
use spg::graph::{HeteroClusterSpec, Placement};
use spg::model::pipeline::MetisCoarsePlacer;
use spg::model::{CoarsenConfig, CoarsenModel, ReinforceTrainer};
use spg::partition::MetisHeteroAllocator;
use spg::sim::hetero::simulate_hetero;

fn main() {
    // Cluster: two small devices, one big one (4x), one medium.
    let cluster = HeteroClusterSpec::new(vec![625.0, 625.0, 2500.0, 1250.0], 1000.0);
    println!(
        "heterogeneous cluster: {:?} MIPS, {} Mbps links",
        cluster.mips, cluster.link_mbps
    );

    // Train the coarsening model on the *homogeneous equivalent* — the
    // coarsening decisions transfer.
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let train: Vec<_> = (0..10u64)
        .map(|s| spg::gen::generate_graph(&spec, s))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
    let mut trainer = ReinforceTrainer::builder(model, MetisCoarsePlacer::new(1))
        .graphs(train)
        .cluster(spec.cluster())
        .source_rate(spec.source_rate)
        .build();
    for _ in 0..4 {
        trainer.train_epoch();
    }
    let model = trainer.into_model();

    // Evaluate on fresh graphs: coarsen with the model, then place the
    // coarse graph with capacity-share targets.
    let hetero_metis = MetisHeteroAllocator::new(7);
    let policy = spg::model::CoarseningPolicy::from_config(&model.config);
    let homo_equiv = cluster.equivalent_homogeneous();

    println!(
        "\n{:<8} {:>7} {:>9} {:>14} {:>14} {:>12}",
        "graph", "nodes", "coarse", "hetero-metis", "coarsen+het", "improvement"
    );
    for seed in 100..106u64 {
        let g = spg::gen::generate_graph(&spec, seed);
        let rates = spg::graph::TupleRates::compute(&g, spec.source_rate);

        // Baseline: target-weighted Metis directly on the full graph.
        let p_metis = hetero_metis.allocate_hetero(&g, &cluster, spec.source_rate);
        let r_metis = simulate_hetero(&g, &cluster, &p_metis, spec.source_rate).relative;

        // Coarsen + target-weighted Metis on the coarse graph.
        let feats = spg::graph::GraphFeatures::extract_with_rates(&g, &homo_equiv, &rates);
        let probs = model.predict_probs_with_features(&g, &feats);
        let mut drng = ChaCha8Rng::seed_from_u64(seed);
        let decisions = policy.decode(&probs, spg::model::DecodeMode::Greedy, &mut drng);
        let priority = spg::model::policy::priority_by_prob(&probs);
        let coarsening = policy.apply(&g, &rates, &homo_equiv, &decisions, &priority);
        let w = coarsening.coarse.to_weighted();
        let targets = cluster.capacity_shares();
        let coarse_part = spg::partition::kway_partition_targets(
            &w,
            &targets,
            &spg::partition::PartitionConfig::default(),
            &mut drng,
        );
        let p_ours = Placement::lift(&Placement::new(coarse_part), &coarsening.node_map);
        let r_ours = simulate_hetero(&g, &cluster, &p_ours, spec.source_rate).relative;

        println!(
            "{:<8} {:>7} {:>9} {:>13.3} {:>14.3} {:>11.0}%",
            seed,
            g.num_nodes(),
            coarsening.coarse.num_nodes(),
            r_metis,
            r_ours,
            (r_ours - r_metis) / r_metis.max(1e-9) * 100.0
        );
    }
}
