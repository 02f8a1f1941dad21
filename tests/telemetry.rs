//! End-to-end telemetry tests: the sink must observe training without
//! perturbing it, and the event stream must be well-formed JSONL with the
//! documented metric names.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::gen::{DatasetSpec, Setting};
use spg::model::pipeline::MetisCoarsePlacer;
use spg::model::{
    CoarsenConfig, CoarsenModel, ReinforceTrainer, TelemetrySink, TrainOptions, TrainStats,
};
use spg::obs::{Event, Summary};
use spg::StreamGraph;

fn trainer(sink: TelemetrySink) -> ReinforceTrainer<MetisCoarsePlacer> {
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let graphs: Vec<StreamGraph> = (0..3u64)
        .map(|s| spg::gen::generate_graph(&spec, s))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
    ReinforceTrainer::builder(model, MetisCoarsePlacer::new(5))
        .graphs(graphs)
        .cluster(spec.cluster())
        .source_rate(spec.source_rate)
        .options(TrainOptions::new().seed(9).num_workers(2))
        .telemetry(sink)
        .build()
}

fn run_epochs(sink: TelemetrySink, epochs: usize) -> (Vec<TrainStats>, TelemetrySink) {
    let mut trainer = trainer(sink);
    let stats = (0..epochs).map(|_| trainer.train_epoch()).collect();
    (stats, trainer.telemetry().clone())
}

/// The tentpole invariant: telemetry is observe-only. Training with a live
/// sink must produce bitwise-identical results to training without one.
#[test]
fn telemetry_does_not_change_training_results() {
    let (off, _) = run_epochs(TelemetrySink::disabled(), 3);
    let (on, _) = run_epochs(TelemetrySink::memory(), 3);
    assert_eq!(off, on, "TrainStats diverged between sink off and sink on");
}

#[test]
fn event_stream_is_valid_jsonl_with_balanced_spans() {
    let (_, sink) = run_epochs(TelemetrySink::memory(), 2);
    let lines = sink.lines();
    assert!(!lines.is_empty(), "enabled sink must record events");

    let mut depth: i64 = 0;
    let mut open_stack: Vec<String> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let ev = Event::parse(line)
            .unwrap_or_else(|e| panic!("line {} is not a valid event ({e}): {line}", i + 1));
        match ev {
            Event::SpanOpen { name, depth: d, .. } => {
                assert_eq!(d as i64, depth, "open depth mismatch at line {}", i + 1);
                open_stack.push(name);
                depth += 1;
            }
            Event::SpanClose { name, depth: d, .. } => {
                depth -= 1;
                assert_eq!(d as i64, depth, "close depth mismatch at line {}", i + 1);
                let opened = open_stack.pop().unwrap_or_else(|| {
                    panic!("span_close without matching open at line {}", i + 1)
                });
                assert_eq!(opened, name, "mismatched span close at line {}", i + 1);
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced spans: {open_stack:?} left open");
}

#[test]
fn event_stream_carries_the_documented_metrics() {
    let (_, sink) = run_epochs(TelemetrySink::memory(), 2);
    let lines = sink.lines();
    let text = lines.join("\n");
    for name in [
        "\"epoch\"",
        "\"step.forward\"",
        "\"step.rollout\"",
        "\"step.backprop\"",
        "\"cache.hits\"",
        "\"cache.misses\"",
        "\"rollout.place_us\"",
        "\"rollout.simulate_us\"",
        "\"reward.mean\"",
        "\"reward.best\"",
        "\"reward.min\"",
        "\"reward.max\"",
        "\"baseline.mean\"",
        "\"entropy.mean\"",
        "\"grad_norm.mean\"",
        "\"buffer.size\"",
        "\"rollout.workers\"",
        "\"rollout.sample_us\"",
    ] {
        assert!(text.contains(name), "metric {name} missing from stream");
    }
}

#[test]
fn report_summarizes_a_training_run() {
    let (stats, sink) = run_epochs(TelemetrySink::memory(), 2);
    let lines = sink.lines();
    let summary = Summary::from_lines(lines.iter().map(String::as_str)).unwrap();
    let rendered = summary.render();
    assert!(rendered.contains("epoch"), "{rendered}");
    assert!(rendered.contains("cache hit rate"), "{rendered}");
    assert!(rendered.contains("reward.mean"), "{rendered}");
    // The reward curve in the stream must match the returned stats.
    let curve = summary
        .gauge_series("reward.mean")
        .expect("reward.mean gauge present");
    assert_eq!(curve.len(), stats.len());
    for (got, st) in curve.iter().zip(&stats) {
        assert!((got - st.mean_reward).abs() < 1e-6);
    }
}

/// Every simulator and partitioner call a run's metrics report is one of
/// that run's own reward-cache misses: one `rollout.place_us` and one
/// `rollout.simulate_us` observation each. Another trainer in the same
/// process, seeding its buffers with Metis and training in between, adds
/// nothing to them.
#[test]
fn telemetry_counts_only_its_own_run() {
    let mut a = trainer(TelemetrySink::memory());
    let mut b = trainer(TelemetrySink::disabled());
    a.train_epoch();
    b.train_epoch();
    b.train_epoch();
    a.train_epoch();

    let lines = a.telemetry().lines();
    // Per epoch of A: (cache.misses, place_us count, simulate_us count).
    let mut epochs: Vec<(u64, u64, u64)> = Vec::new();
    let mut cur = (0, 0, 0);
    for line in &lines {
        match Event::parse(line).expect("valid event") {
            Event::Counter { name, value, .. } if name == "cache.misses" => cur.0 += value,
            Event::Hist { name, .. } if name == "rollout.place_us" => cur.1 += 1,
            Event::Hist { name, .. } if name == "rollout.simulate_us" => cur.2 += 1,
            Event::SpanClose { name, .. } if name == "epoch" => {
                epochs.push(cur);
                cur = (0, 0, 0);
            }
            _ => {}
        }
    }
    assert_eq!(epochs.len(), 2, "{epochs:?}");
    for (i, &(misses, place, simulate)) in epochs.iter().enumerate() {
        assert!(misses > 0, "epoch {i} simulated nothing");
        assert_eq!(place, misses, "epoch {i}: rollout.place_us");
        assert_eq!(simulate, misses, "epoch {i}: rollout.simulate_us");
    }
}
