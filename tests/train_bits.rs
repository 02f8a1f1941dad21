//! Training bits pinned across commits: golden digests of one backward
//! pass's parameter gradients and of the parameters after two REINFORCE
//! epochs. Kill-and-resume and worker-count tests only compare a run
//! with itself; these compare it with the run that produced the digests,
//! so any change to a kernel, an accumulation order or the optimiser that
//! moves a single gradient or weight bit fails here.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spg::gen::{generate_graph, DatasetSpec, Setting};
use spg::graph::GraphFeatures;
use spg::model::pipeline::MetisCoarsePlacer;
use spg::model::{CoarsenConfig, CoarsenModel, ReinforceTrainer, TrainOptions};
use spg::nn::{Matrix, Tape};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Fold every entry's `to_bits()` into an FNV-1a-64 hash, byte by byte in
/// little-endian order, continuing from `h`.
fn fnv1a_bits(mut h: u64, m: &Matrix) -> u64 {
    for x in &m.data {
        for byte in x.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn gradient_bits_of_one_backward_are_pinned() {
    let spec = DatasetSpec::scaled_down(Setting::Large);
    let graph = generate_graph(&spec, 3);
    let feats = GraphFeatures::extract(&graph, &spec.cluster(), spec.source_rate);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);

    // A REINFORCE-shaped loss: six seeded action vectors, each one's
    // log-likelihood scaled by a fixed advantage and summed.
    let mut tape = Tape::new();
    let logits = model
        .forward(&mut tape, &graph, &feats)
        .expect("the graph has edges");
    let mut actions_rng = ChaCha8Rng::seed_from_u64(11);
    let mut loss = None;
    for s in 0..6 {
        let actions: Vec<f32> = (0..graph.num_edges())
            .map(|_| {
                if actions_rng.gen::<f32>() < 0.5 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let ll = tape.bernoulli_log_prob(logits, &actions);
        let term = tape.scale(ll, (s as f32 - 2.5) / 6.0);
        loss = Some(match loss {
            Some(acc) => tape.add(acc, term),
            None => term,
        });
    }
    model.params().zero_grad();
    tape.backward(loss.unwrap());

    let digest = model
        .params()
        .params()
        .iter()
        .fold(FNV_OFFSET, |h, p| fnv1a_bits(h, &p.0.borrow().grad));
    assert_eq!(
        digest, 0x5df7ef3e0b2e67a7,
        "gradient bits moved: {digest:#018x}"
    );
}

#[test]
fn parameter_bits_after_two_epochs_are_pinned() {
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let graphs: Vec<_> = (0..4u64).map(|s| generate_graph(&spec, 20 + s)).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
    let mut trainer = ReinforceTrainer::builder(model, MetisCoarsePlacer::new(5))
        .graphs(graphs)
        .cluster(spec.cluster())
        .source_rate(spec.source_rate)
        .options(TrainOptions::new().seed(5).num_workers(1))
        .build();
    for _ in 0..2 {
        trainer.train_epoch();
    }

    let digest = trainer
        .model
        .params()
        .params()
        .iter()
        .fold(FNV_OFFSET, |h, p| fnv1a_bits(h, &p.0.borrow().value));
    assert_eq!(
        digest, 0x3989347b80480962,
        "parameter bits moved: {digest:#018x}"
    );
}
