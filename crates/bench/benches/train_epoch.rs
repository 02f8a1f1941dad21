//! REINFORCE train-epoch throughput at 1 vs N rollout workers, plus the
//! blocked matmul kernel rate and the forward's tanh. Besides the usual
//! stdout report, writes `BENCH_train.json` at the workspace root with
//! ns/epoch per worker count, the matmul GFLOP/s and tanh ns/element, so
//! perf can be tracked across PRs.
//!
//! The worker counts share one RNG scheme (seed-per-sample), so every
//! row of this bench computes bitwise-identical training trajectories —
//! the comparison isolates scheduling cost/benefit only.

use criterion::{black_box, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_core::{
    CoarsenConfig, CoarsenModel, MetisCoarsePlacer, ReinforceTrainer, TelemetrySink, TrainOptions,
};
use spg_gen::{DatasetSpec, Setting};
use spg_graph::StreamGraph;
use spg_nn::quant::{gemm_i8, quantize_rows_i8};
use spg_nn::{MatmulMode, Matrix};
use std::path::Path;

const MATMUL_DIM: usize = 128;
/// Elements one scaled-large forward runs through tanh: the input
/// projection, msg and update of both views in both hops, the edge
/// projection and the merge hidden layer.
const TANH_ELEMENTS: usize = 119_202;

fn make_trainer(num_workers: usize) -> ReinforceTrainer<MetisCoarsePlacer> {
    make_trainer_with_sink(num_workers, TelemetrySink::disabled())
}

fn make_trainer_with_sink(
    num_workers: usize,
    sink: TelemetrySink,
) -> ReinforceTrainer<MetisCoarsePlacer> {
    let spec = DatasetSpec::scaled_down(Setting::Medium);
    let cluster = spec.cluster();
    let graphs: Vec<StreamGraph> = (0..6u64)
        .map(|s| spg_gen::generate_graph(&spec, s))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
    ReinforceTrainer::builder(model, MetisCoarsePlacer::new(5))
        .graphs(graphs)
        .cluster(cluster)
        .source_rate(spec.source_rate)
        .options(
            TrainOptions::new()
                .metis_guided(false)
                .seed(11)
                .num_workers(num_workers),
        )
        .telemetry(sink)
        .build()
}

fn bench_train_epoch(c: &mut Criterion, worker_counts: &[usize]) {
    let mut group = c.benchmark_group("train_epoch");
    group.sample_size(10);
    for &w in worker_counts {
        group.bench_with_input(BenchmarkId::new("workers", w), &w, |b, &w| {
            let mut t = make_trainer(w);
            b.iter(|| black_box(t.train_epoch()))
        });
    }
    // Telemetry overhead row: identical training, events discarded into a
    // null writer. Compare against `workers/1` — the budget is <5%.
    group.bench_function(BenchmarkId::new("telemetry", 1), |b| {
        let sink = TelemetrySink::to_writer(Box::new(std::io::sink()));
        let mut t = make_trainer_with_sink(1, sink);
        b.iter(|| black_box(t.train_epoch()))
    });
    group.finish();
}

fn matmul_operands(n: usize, k: usize, m: usize) -> (Matrix, Matrix) {
    let a = Matrix::from_vec(
        n,
        k,
        (0..n * k).map(|i| ((i % 17) as f32 - 8.0) * 0.1).collect(),
    );
    let b = Matrix::from_vec(
        k,
        m,
        (0..k * m).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect(),
    );
    (a, b)
}

fn bench_matmul(c: &mut Criterion) {
    let n = MATMUL_DIM;
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    // Square kernel-rate rows, strict vs fast-math (the `f32/128x128` id
    // is the key scripts/ci.sh's perf gate tracks across PRs).
    let (a, b) = matmul_operands(n, n, n);
    group.bench_function(BenchmarkId::new("f32", format!("{n}x{n}")), |bch| {
        bch.iter(|| black_box(a.matmul_with_mode(&b, MatmulMode::Strict)))
    });
    group.bench_function(BenchmarkId::new("f32-fast", format!("{n}x{n}")), |bch| {
        bch.iter(|| black_box(a.matmul_with_mode(&b, MatmulMode::Fast)))
    });
    // The shapes the inference path actually runs: [nodes x in]·[in x
    // hidden] of the encoder input projection and the per-hop update at
    // default config dims (ragged, not multiple-of-8 friendly).
    for (rows, cols, hidden) in [(320usize, 28usize, 24usize), (160, 48, 24)] {
        let (a, b) = matmul_operands(rows, cols, hidden);
        group.bench_function(
            BenchmarkId::new("f32", format!("{rows}x{cols}x{hidden}")),
            |bch| bch.iter(|| black_box(a.matmul_with_mode(&b, MatmulMode::Strict))),
        );
    }
    // Integer-accumulated kernel rate of the quantized serve path
    // (`spg serve --precision int8`): the i8×i8→i32 gemm on
    // pre-quantized operands, deterministic at any speed.
    {
        let (a, b) = matmul_operands(n, n, n);
        let mut bt = vec![0.0f32; n * n];
        for r in 0..n {
            for c in 0..n {
                bt[c * n + r] = b.data[r * n + c];
            }
        }
        let (mut a_q, mut a_scale) = (Vec::new(), Vec::new());
        let (mut bt_q, mut bt_scale) = (Vec::new(), Vec::new());
        quantize_rows_i8(&a.data, n, n, &mut a_q, &mut a_scale);
        quantize_rows_i8(&bt, n, n, &mut bt_q, &mut bt_scale);
        let mut out = vec![0i32; n * n];
        group.bench_function(BenchmarkId::new("int8", format!("{n}x{n}")), |bch| {
            bch.iter(|| {
                gemm_i8(&a_q, &bt_q, &mut out, n, n, n);
                black_box(&out);
            })
        });
    }
    group.finish();
}

fn bench_activation(c: &mut Criterion) {
    let mut group = c.benchmark_group("activation");
    group.sample_size(10);
    // The f32 forward's exact tanh over one scaled-large forward's worth
    // of elements, in [-2.93, 2.93]. Each iteration refills the input
    // (a 466 KiB copy) so every sample sees the same values.
    let input: Vec<f32> = (0..TANH_ELEMENTS)
        .map(|i| ((i % 977) as f32 - 488.0) * 0.006)
        .collect();
    let mut m = Matrix::from_vec(1, TANH_ELEMENTS, input.clone());
    group.bench_function(BenchmarkId::new("tanh", "f32"), |bch| {
        bch.iter(|| {
            m.data.copy_from_slice(&input);
            m.tanh_assign();
            black_box(&m);
        })
    });
    group.finish();
}

/// `NxK` (square-output `NxKxN` shorthand for the legacy `128x128` id) or
/// `NxKxM` dims from a `matmul/<kind>/<shape>` bench id.
fn matmul_flops(id: &str) -> Option<f64> {
    let shape = id.rsplit('/').next()?;
    let dims: Vec<f64> = shape
        .split('x')
        .map(|d| d.parse().ok())
        .collect::<Option<_>>()?;
    match dims.as_slice() {
        [n, k] => Some(2.0 * n * k * n),
        [n, k, m] => Some(2.0 * n * k * m),
        _ => None,
    }
}

fn emit_json(c: &Criterion, path: &Path) {
    let mut lines = Vec::new();
    for r in &c.results {
        let mut fields = format!("\"ns_per_iter\": {:.1}", r.ns_per_iter);
        if r.id.starts_with("matmul/") {
            if let Some(flops) = matmul_flops(&r.id) {
                fields.push_str(&format!(", \"gflops\": {:.3}", flops / r.ns_per_iter));
            }
        }
        if r.id.starts_with("activation/") {
            let per = r.ns_per_iter / TANH_ELEMENTS as f64;
            fields.push_str(&format!(", \"ns_per_element\": {per:.3}"));
        }
        lines.push(format!("  \"{}\": {{ {} }}", r.id, fields));
    }
    let json = format!("{{\n{}\n}}\n", lines.join(",\n"));
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

fn main() {
    let max = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let mut worker_counts = vec![1usize, 4];
    if max > 1 && max != 4 {
        worker_counts.push(max);
    }

    let mut c = Criterion::default();
    bench_train_epoch(&mut c, &worker_counts);
    bench_matmul(&mut c);
    bench_activation(&mut c);

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    emit_json(&c, &root.join("BENCH_train.json"));
}
