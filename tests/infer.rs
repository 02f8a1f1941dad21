//! Tape-free inference must be **bitwise** identical to the autodiff-tape
//! forward — the optimisation contract of the serve path. Checked over a
//! generated corpus spanning the paper settings, plus the degenerate pins
//! (edgeless graph, single node, single edge), with one scratch arena
//! reused across the whole corpus the way a serve replica reuses it. The
//! tape-free forward computes each distinct
//! message row once, so the last tests aim at that dedup: stars whose
//! channels mostly repeat, both ablations, and feature rows that differ
//! only in the sign of a zero.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::gen::{DatasetSpec, Setting};
use spg::graph::{Channel, ClusterSpec, GraphFeatures, Operator, StreamGraph, StreamGraphBuilder};
use spg::model::pipeline::MetisCoarsePlacer;
use spg::model::{CoarsenConfig, CoarsenModel, InferenceScratch};
use spg::nn::{stable_sigmoid, Tape};

/// Collapse probabilities via the training path: tape forward, then the
/// same stable sigmoid over the logit values.
fn tape_probs(model: &CoarsenModel, graph: &StreamGraph, feats: &GraphFeatures) -> Vec<f32> {
    let mut tape = Tape::new();
    match model.forward(&mut tape, graph, feats) {
        Some(logits) => tape
            .value(logits)
            .data
            .iter()
            .map(|&x| stable_sigmoid(x))
            .collect(),
        None => Vec::new(),
    }
}

fn corpus() -> Vec<(StreamGraph, ClusterSpec, f64)> {
    let mut graphs = Vec::new();
    for setting in [Setting::Small, Setting::Medium, Setting::Large] {
        let spec = DatasetSpec::scaled_down(setting);
        let cluster = spec.cluster();
        for seed in 0..3u64 {
            graphs.push((
                spg::gen::generate_graph(&spec, seed),
                cluster,
                spec.source_rate,
            ));
        }
    }
    // Pins: a single node (no edges), an edgeless pair, a single edge.
    let cluster = ClusterSpec::paper_medium(3);
    let mut one = StreamGraphBuilder::new();
    one.add_node(Operator::new(5.0));
    graphs.push((one.finish().unwrap(), cluster, 1e4));
    let mut pair = StreamGraphBuilder::new();
    pair.add_node(Operator::new(1.0));
    pair.add_node(Operator::new(2.0));
    graphs.push((pair.finish().unwrap(), cluster, 1e4));
    let mut edge = StreamGraphBuilder::new();
    let a = edge.add_node(Operator::new(100.0));
    let b = edge.add_node(Operator::new(200.0));
    edge.add_edge(a, b, Channel::new(10.0)).unwrap();
    graphs.push((edge.finish().unwrap(), cluster, 1e4));
    graphs
}

/// A briefly-trained model, the same recipe as the serve-cluster
/// harness: serving always runs a trained checkpoint, whose collapse
/// probabilities training has moved away from the untrained ones.
fn trained_model() -> CoarsenModel {
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let graphs: Vec<_> = (0..4u64)
        .map(|s| spg::gen::generate_graph(&spec, 9 + s))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
    let mut trainer = spg::model::ReinforceTrainer::builder(model, MetisCoarsePlacer::new(9))
        .graphs(graphs)
        .cluster(spec.cluster())
        .source_rate(spec.source_rate)
        .options(spg::model::TrainOptions::new().seed(9))
        .build();
    trainer.train_epoch();
    trainer.into_model()
}

/// Fold every probability's `to_bits()` into an FNV-1a-64 hash, byte by
/// byte in little-endian order, continuing from `h`.
fn fnv1a_bits(mut h: u64, probs: &[f32]) -> u64 {
    for p in probs {
        for byte in p.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn probability_bits_are_pinned() {
    // Golden digest of every collapse probability of a trained model
    // over the corpus, in corpus order: any change to the forward — a
    // kernel, an activation, an accumulation order — moves it.
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    let model = trained_model();
    let mut scratch = InferenceScratch::new();
    let mut digest = FNV_OFFSET;
    for (graph, cluster, rate) in &corpus() {
        let feats = GraphFeatures::extract(graph, cluster, *rate);
        digest = fnv1a_bits(digest, &model.infer_probs(graph, &feats, &mut scratch));
    }
    assert_eq!(digest, 0xf41ba963eb60e3e7, "probability bits moved");
}

#[test]
fn tape_free_forward_is_bitwise_identical_to_tape() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
    let mut scratch = InferenceScratch::new();
    for (i, (graph, cluster, rate)) in corpus().iter().enumerate() {
        let feats = GraphFeatures::extract(graph, cluster, *rate);
        let expected = tape_probs(&model, graph, &feats);
        let got = model.infer_probs(graph, &feats, &mut scratch);
        assert_eq!(got.len(), graph.num_edges(), "graph {i} length");
        assert_eq!(
            got.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "graph {i} ({} nodes, {} edges): tape-free probs diverged",
            graph.num_nodes(),
            graph.num_edges()
        );
    }
}

/// A star of `leaves` channels around one hub, fanning out from it or in
/// to it. Every 97th channel carries another payload, so most channels
/// of the hub repeat one feature row.
fn star(leaves: usize, fan_out: bool) -> StreamGraph {
    let mut b = StreamGraphBuilder::new();
    let hub = b.add_node(Operator::new(300.0));
    for i in 0..leaves {
        let leaf = b.add_node(Operator::new(100.0));
        let ch = Channel::new(if i % 97 == 0 { 2048.0 } else { 64.0 });
        let (u, v) = if fan_out { (hub, leaf) } else { (leaf, hub) };
        b.add_edge(u, v, ch).unwrap();
    }
    b.finish().unwrap()
}

/// Tape-free probabilities of every item must equal the tape's bit for
/// bit.
fn assert_matches_tape(model: &CoarsenModel, items: &[(&StreamGraph, &GraphFeatures)], what: &str) {
    let mut scratch = InferenceScratch::new();
    let bits = |ps: &[f32]| ps.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    for (i, &(graph, feats)) in items.iter().enumerate() {
        let want = bits(&tape_probs(model, graph, feats));
        let solo = model.infer_probs(graph, feats, &mut scratch);
        assert_eq!(
            bits(&solo),
            want,
            "{what}, item {i}: solo diverged from tape"
        );
    }
}

#[test]
fn message_dedup_on_stars_and_ablations_is_bitwise_identical() {
    let cluster = ClusterSpec::paper_medium(4);
    let spec = DatasetSpec::scaled_down(Setting::Medium);
    let graphs = [
        star(2400, true),
        star(2100, false),
        spg::gen::generate_graph(&spec, 5),
    ];
    let feats: Vec<GraphFeatures> = graphs
        .iter()
        .map(|g| GraphFeatures::extract(g, &cluster, 1e4))
        .collect();
    let items: Vec<(&StreamGraph, &GraphFeatures)> = graphs.iter().zip(&feats).collect();
    for (what, cfg) in [
        ("default", CoarsenConfig::default()),
        ("no edge encoding", CoarsenConfig::without_edge_encoding()),
        (
            "no edge collapse features",
            CoarsenConfig::without_edge_collapse_features(),
        ),
    ] {
        let model = CoarsenModel::new(cfg, &mut ChaCha8Rng::seed_from_u64(3));
        assert_matches_tape(&model, &items, what);
    }
}

/// Two out-edges of one source whose feature rows differ only by +0.0
/// against -0.0 in one column are different rows to the dedup (it keys
/// on bits); the probabilities must still be the tape's.
#[test]
fn message_dedup_keeps_signed_zero_rows_apart() {
    let mut b = StreamGraphBuilder::new();
    let hub = b.add_node(Operator::new(100.0));
    let leaves: Vec<_> = (0..4).map(|_| b.add_node(Operator::new(50.0))).collect();
    for &leaf in &leaves {
        b.add_edge(hub, leaf, Channel::new(10.0)).unwrap();
    }
    b.add_edge(leaves[0], leaves[1], Channel::new(10.0))
        .unwrap();
    let graph = b.finish().unwrap();
    let mut feats = GraphFeatures::extract(&graph, &ClusterSpec::paper_medium(3), 1e4);
    let rows = [
        [0.5, 0.25, 0.0, 1.0],
        [0.5, 0.25, -0.0, 1.0],
        [0.5, 0.25, 0.0, 1.0],
        [-0.0, 0.0, -0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ];
    feats.edge.0 = rows.concat();
    let other = star(30, true);
    let other_feats = GraphFeatures::extract(&other, &ClusterSpec::paper_medium(3), 1e4);
    let items = [(&graph, &feats), (&other, &other_feats)];
    for cfg in [
        CoarsenConfig::default(),
        CoarsenConfig::without_edge_encoding(),
    ] {
        let model = CoarsenModel::new(cfg, &mut ChaCha8Rng::seed_from_u64(11));
        assert_matches_tape(&model, &items, "signed zeros");
    }
}
