//! Partitioner microbenches: k-way partitioning cost vs graph size, the
//! FM-refinement ablation called out in DESIGN.md, and the shapes a
//! training rollout partitions (a policy coarsening of a scaled-large
//! graph, ~50 nodes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_core::policy::{priority_by_prob, CoarseningPolicy, DecodeMode};
use spg_core::{CoarsenConfig, CoarsenModel};
use spg_gen::{DatasetSpec, Setting};
use spg_graph::{GraphFeatures, TupleRates, WeightedGraph};
use spg_partition::bisect::Bisection;
use spg_partition::refine::fm_bisection_refine;
use spg_partition::{kway_partition, PartitionConfig};

fn weighted(setting: Setting, seed: u64) -> WeightedGraph {
    let spec = DatasetSpec::scaled_down(setting);
    let g = spg_gen::generate_graph(&spec, seed);
    WeightedGraph::from_stream(&g, spec.source_rate)
}

/// The weighted coarse graph of one sampled rollout on scaled-large graph
/// 3 under a default model from ChaCha8 seed 7: what the trainer's
/// placer partitions.
fn policy_coarse_large() -> WeightedGraph {
    let spec = DatasetSpec::scaled_down(Setting::Large);
    let cluster = spec.cluster();
    let g = spg_gen::generate_graph(&spec, 3);
    let rates = TupleRates::compute(&g, spec.source_rate);
    let feats = GraphFeatures::extract_with_rates(&g, &cluster, &rates);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut ChaCha8Rng::seed_from_u64(7));
    let probs = model.predict_probs_with_features(&g, &feats);
    let policy = CoarseningPolicy::from_config(&model.config);
    let decisions = policy.decode(
        &probs,
        DecodeMode::Sample,
        &mut ChaCha8Rng::seed_from_u64(1),
    );
    let coarsening = policy.apply(&g, &rates, &cluster, &decisions, &priority_by_prob(&probs));
    coarsening.coarse.to_weighted()
}

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("kway_partition");
    group.sample_size(20);

    for setting in [
        Setting::Small,
        Setting::Medium,
        Setting::Large,
        Setting::XLarge,
    ] {
        let w = weighted(setting, 3);
        group.bench_with_input(
            BenchmarkId::new("k10", format!("{}-{}n", setting.slug(), w.num_nodes())),
            &w,
            |b, w| {
                let mut rng = ChaCha8Rng::seed_from_u64(1);
                b.iter(|| {
                    std::hint::black_box(kway_partition(
                        w,
                        10,
                        &PartitionConfig::default(),
                        &mut rng,
                    ))
                })
            },
        );
    }

    // Refinement ablation: same graph, refinement on/off.
    let w = weighted(Setting::Large, 5);
    for (name, cfg) in [
        ("refine-on", PartitionConfig::default()),
        (
            "refine-off",
            PartitionConfig {
                refine: false,
                ..Default::default()
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::new(name, "large"), &w, |b, w| {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            b.iter(|| std::hint::black_box(kway_partition(w, 10, &cfg, &mut rng)))
        });
    }
    let coarse = policy_coarse_large();
    let id = format!("policy-coarse-large-{}n", coarse.num_nodes());
    group.bench_with_input(BenchmarkId::new("k10", &id), &coarse, |b, w| {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        b.iter(|| {
            std::hint::black_box(kway_partition(w, 10, &PartitionConfig::default(), &mut rng))
        })
    });
    group.finish();

    // One FM call as graph growing makes it: 4 passes toward an even
    // split, here from alternating labels.
    let mut group = c.benchmark_group("fm_bisection_refine");
    group.sample_size(20);
    let part: Vec<u32> = (0..coarse.num_nodes() as u32).map(|v| v % 2).collect();
    let start = Bisection {
        cut: coarse.cut_weight(&part),
        weight0: coarse.part_weights(&part, 2)[0],
        part,
    };
    group.bench_with_input(BenchmarkId::new("half", &id), &coarse, |b, w| {
        b.iter(|| {
            let mut bis = start.clone();
            fm_bisection_refine(w, &mut bis, 0.5, 0.1, 4);
            std::hint::black_box(bis.cut)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_partition);
criterion_main!(benches);
