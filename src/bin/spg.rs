//! `spg` — command-line interface for the coarsening-partitioning
//! allocator: generate datasets, train models, allocate graphs, evaluate
//! methods, and inspect training telemetry.
//!
//! ```text
//! spg generate --setting medium --count 20 --seed 1 --out ds.json
//! spg train    --dataset ds.json --epochs 10 --metrics run.jsonl --out model.json
//! spg evaluate --dataset ds.json --model model.json
//! spg allocate --dataset ds.json --model model.json --index 0
//! spg report   run.jsonl
//! ```
//!
//! Argument parsing lives in [`spg::cli`]; this file only maps parsed
//! commands onto the library.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::cli::{
    AllocateArgs, BenchMatmulArgs, BenchServeArgs, CliError, Command, EvaluateArgs, GenerateArgs,
    ReallocArgs, ReportArgs, ServeArgs, TrainArgs,
};
use spg::eval::evaluate_allocator;
use spg::gen::DatasetSpec;
use spg::graph::serialize::Dataset;
use spg::graph::Allocator;
use spg::model::checkpoint::Checkpoint;
use spg::model::pipeline::MetisCoarsePlacer;
use spg::model::{CoarsenAllocator, CoarsenConfig, CoarsenModel, ReinforceTrainer, TrainOptions};
use spg::obs::{Summary, TelemetrySink};
use spg::partition::MetisAllocator;
use spg::sim::inject::{Fault, FaultInjector, Site};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match Command::parse(&args) {
        Ok(cmd) => cmd,
        Err(CliError::Help(text)) => {
            println!("{text}");
            return ExitCode::SUCCESS;
        }
        Err(CliError::Usage(text)) => {
            eprintln!("{text}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        Command::Generate(args) => generate(args),
        Command::Train(args) => train(args),
        Command::Evaluate(args) => evaluate(args),
        Command::Allocate(args) => allocate(args),
        Command::Report(args) => report(args),
        Command::Serve(args) => serve(args),
        Command::Realloc(args) => realloc(args),
        Command::BenchServe(args) => bench_serve(args),
        Command::BenchMatmul(args) => bench_matmul(args),
    }
}

fn load_dataset(path: &Path) -> Result<Dataset, ExitCode> {
    Dataset::load(path).map_err(|e| {
        // The error names the offending path.
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn load_checkpoint(path: &Path) -> Result<Checkpoint, ExitCode> {
    Checkpoint::load(path).map_err(|e| {
        // The error names the offending path.
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn generate(args: GenerateArgs) -> ExitCode {
    let spec = if args.scaled {
        DatasetSpec::scaled_down(args.setting)
    } else {
        DatasetSpec::for_setting(args.setting)
    };
    let ds = spg::gen::generate_dataset(&spec, args.count, args.seed);
    if let Err(e) = ds.save(&args.out) {
        eprintln!("failed to write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} graphs ({}-{} nodes, {} devices, {}/s) to {}",
        args.count,
        spec.growth.node_range.0,
        spec.growth.node_range.1,
        spec.devices,
        spec.source_rate,
        args.out.display()
    );
    ExitCode::SUCCESS
}

/// The fault plan of the `spg train --inject-*` rate flags (empty when
/// none is set).
fn train_faults(args: &TrainArgs) -> FaultInjector {
    FaultInjector::new(args.seed)
        .rate(Site::Rollout, Fault::NanReward, args.inject_nan_rewards)
        .rate(Site::Rollout, Fault::WorkerPanic, args.inject_worker_panics)
}

/// The fault plan of the `spg serve --inject-*` rate flags (empty when
/// none is set).
fn serve_faults(args: &ServeArgs) -> FaultInjector {
    FaultInjector::new(args.seed)
        .rate(
            Site::ReplicaWork,
            Fault::WorkerPanic,
            args.inject_replica_panics,
        )
        .rate(Site::ReplicaWork, Fault::Kill, args.inject_replica_kills)
        .rate(Site::ReplicaWork, Fault::Stall, args.inject_replica_stalls)
        .rate(Site::ConnWrite, Fault::ConnDrop, args.inject_conn_drops)
        .rate(Site::ConnWrite, Fault::TornWrite, args.inject_torn_writes)
}

fn train(args: TrainArgs) -> ExitCode {
    let ds = match load_dataset(&args.dataset) {
        Ok(ds) => ds,
        Err(code) => return code,
    };
    let sink = match &args.metrics {
        Some(path) => match TelemetrySink::jsonl_file(path) {
            Ok(sink) => sink,
            Err(e) => {
                eprintln!("failed to open {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => TelemetrySink::disabled(),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
    let mut options = TrainOptions::new()
        .metis_guided(args.guide)
        .seed(args.seed)
        .fault_policy(args.fault_policy)
        .checkpoint_every(args.checkpoint_every)
        .checkpoint_keep(args.checkpoint_keep)
        .faults(train_faults(&args));
    if let Some(workers) = args.workers {
        options = options.num_workers(workers);
    }
    let mut trainer = ReinforceTrainer::builder(model, MetisCoarsePlacer::new(args.seed ^ 1))
        .dataset(ds)
        .options(options)
        .telemetry(sink)
        .build();
    let manager = trainer.checkpoint_manager(&args.out);

    if let Some(path) = &args.resume {
        let ck = match load_checkpoint(path) {
            Ok(ck) => ck,
            Err(code) => return code,
        };
        if let Err(e) = trainer.resume_from(&ck) {
            eprintln!("cannot resume from {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "resumed from {} at epoch {}",
            path.display(),
            trainer.epochs_run()
        );
    }

    while trainer.epochs_run() < args.epochs as u64 {
        let e = trainer.epochs_run();
        let stats = match trainer.try_train_epoch() {
            Ok(stats) => stats,
            Err(fault) => {
                trainer.telemetry().flush();
                eprintln!("training aborted: {fault}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "epoch {e:>3}: mean reward {:.3}  best-in-buffer {:.3}",
            stats.mean_reward, stats.mean_best
        );
        let epoch = trainer.epochs_run();
        match manager.maybe_save(&trainer.checkpoint(), epoch) {
            Ok(Some(path)) => println!("snapshot written to {}", path.display()),
            Ok(None) => {}
            Err(e) => {
                eprintln!("failed to write snapshot for epoch {epoch}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if args.inject_kill_after == Some(epoch) {
            trainer.telemetry().flush();
            eprintln!("injected crash after epoch {epoch} (--inject-kill-after)");
            return ExitCode::FAILURE;
        }
    }
    trainer.telemetry().flush();
    let faults = trainer.fault_stats();
    if faults.skipped_samples + faults.quarantined_graphs + faults.rollbacks > 0 {
        println!(
            "faults recovered: {} samples skipped, {} graphs quarantined \
             ({:?}), {} epoch rollbacks",
            faults.skipped_samples,
            faults.quarantined_graphs,
            trainer.quarantined_graphs(),
            faults.rollbacks
        );
    }
    let ckpt = trainer.checkpoint();
    if let Err(e) = ckpt.save(&args.out) {
        eprintln!("failed to write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let model = trainer.into_model();
    println!(
        "saved model ({} parameters) to {}",
        model.num_parameters(),
        args.out.display()
    );
    if let Some(path) = &args.metrics {
        println!("telemetry written to {}", path.display());
    }
    ExitCode::SUCCESS
}

fn evaluate(args: EvaluateArgs) -> ExitCode {
    let ds = match load_dataset(&args.dataset) {
        Ok(ds) => ds,
        Err(code) => return code,
    };
    let mut results = Vec::new();
    results.push(evaluate_allocator(
        &MetisAllocator::new(1) as &dyn Allocator,
        &ds,
    ));
    if let Some(model_path) = &args.model {
        let ck = match load_checkpoint(model_path) {
            Ok(ck) => ck,
            Err(code) => return code,
        };
        let alloc = CoarsenAllocator::new(ck.into_model(), MetisCoarsePlacer::new(2));
        results.push(evaluate_allocator(&alloc as &dyn Allocator, &ds));
    }
    println!(
        "{}",
        spg::eval::render_table(
            &format!("evaluation on {}", args.dataset.display()),
            &results
        )
    );
    ExitCode::SUCCESS
}

fn allocate(args: AllocateArgs) -> ExitCode {
    let ds = match load_dataset(&args.dataset) {
        Ok(ds) => ds,
        Err(code) => return code,
    };
    let Some(graph) = ds.graphs.get(args.index) else {
        eprintln!(
            "dataset has {} graphs; index {} out of range",
            ds.graphs.len(),
            args.index
        );
        return ExitCode::FAILURE;
    };
    let ck = match load_checkpoint(&args.model) {
        Ok(ck) => ck,
        Err(code) => return code,
    };
    let alloc = CoarsenAllocator::new(ck.into_model(), MetisCoarsePlacer::new(3));
    let placement = alloc.allocate(graph, &ds.cluster, ds.source_rate);
    let sim = spg::sim::analytic::simulate(graph, &ds.cluster, &placement, ds.source_rate);
    println!(
        "graph {}: {} nodes, {} edges",
        args.index,
        graph.num_nodes(),
        graph.num_edges()
    );
    println!(
        "throughput {:.0}/s of {:.0}/s (relative {:.3}), bottleneck {:?}",
        sim.throughput, ds.source_rate, sim.relative, sim.bottleneck
    );
    println!("devices used: {}", placement.devices_used());
    println!("placement: {:?}", placement.as_slice());
    ExitCode::SUCCESS
}

fn serve(args: ServeArgs) -> ExitCode {
    let ck = match load_checkpoint(&args.model) {
        Ok(ck) => ck,
        Err(code) => return code,
    };
    let sink = match &args.metrics {
        Some(path) => match TelemetrySink::jsonl_file(path) {
            Ok(sink) => sink,
            Err(e) => {
                eprintln!("failed to open {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => TelemetrySink::disabled(),
    };
    let spec = DatasetSpec::for_setting(args.setting);
    let mut builder = spg::serve::ServeConfig::builder()
        .addr(args.addr.clone())
        .replicas(args.replicas)
        .max_batch(args.max_batch)
        .queue_capacity(args.queue)
        .request_timeout_ms(args.timeout_ms)
        .cache_capacity(args.cache)
        .shed_watermark(args.shed_watermark)
        .seed(args.seed)
        .faults(serve_faults(&args));
    if let Some(workers) = args.workers {
        builder = builder.workers(workers);
    }
    let cfg = match builder.build() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let server = match spg::serve::Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        // The exact `listening on ADDR` shape is what scripts/ci.sh and
        // harnesses parse to find a port-0 server.
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("failed to resolve listen address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run(ck, spec.cluster(), spec.source_rate, &sink) {
        Ok(report) => {
            println!(
                "drained: {} responses, {} errors, {} batches, \
                 cache {} hits / {} misses",
                report.responses,
                report.errors,
                report.batches,
                report.cache_hits,
                report.cache_misses
            );
            println!(
                "time split: encode {:.3} ms, rollout {:.3} ms",
                report.encode_ns as f64 / 1e6,
                report.rollout_ns as f64 / 1e6
            );
            if report.per_replica.len() > 1 {
                for (shard, r) in report.per_replica.iter().enumerate() {
                    println!(
                        "  replica {shard}: {} responses, {} batches, \
                         cache {} hits / {} misses",
                        r.responses, r.batches, r.cache_hits, r.cache_misses
                    );
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Demo client for the incremental re-allocation path: alloc one seeded
/// graph, build a drift delta against it, realloc warm-started from the
/// prior placement, and print what the server did.
fn realloc(args: ReallocArgs) -> ExitCode {
    use spg::graph::wire::{shutdown_line, AllocRequest, ReallocRequest, WireResponse};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let spec = DatasetSpec::scaled_down(spg::gen::Setting::Small);
    let devices = spec.cluster().devices;
    let rate = spec.source_rate;
    let graph = spg::gen::generate_graph(&spec, args.seed);
    let scenario = match args.drift {
        Some(kind) => spg::gen::DriftScenario {
            kind,
            delta: spg::gen::drift_delta(&graph, kind, devices, rate, args.seed),
        },
        None => spg::gen::drift_scenario(&graph, devices, rate, args.seed),
    };

    let stream = match TcpStream::connect(&args.addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to connect to {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = stream.set_read_timeout(Some(std::time::Duration::from_secs(30))) {
        eprintln!("failed to set read timeout: {e}");
        return ExitCode::FAILURE;
    }
    let _ = stream.set_nodelay(true);
    let mut out = match stream.try_clone() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("failed to clone connection: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: String| -> Result<spg::graph::wire::AllocResponse, String> {
        out.write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut buf = String::new();
        match reader.read_line(&mut buf) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(_) => {}
            Err(e) => return Err(format!("read failed: {e}")),
        }
        match WireResponse::parse(buf.trim()) {
            Ok(WireResponse::Ok(r)) => Ok(r),
            Ok(WireResponse::Err(e)) => Err(format!("server error: {} ({})", e.error, e.detail)),
            Err(e) => Err(format!("unparseable response: {e}")),
        }
    };

    let prior = match roundtrip(
        AllocRequest {
            id: "realloc-prior".to_string(),
            graph: graph.clone(),
            source_rate: Some(rate),
            devices: Some(devices),
            v: Some(2),
            deadline_ms: None,
        }
        .to_line(),
    ) {
        Ok(r) => r,
        Err(why) => {
            eprintln!("alloc failed: {why}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "alloc: {} nodes on {} devices, relative {:.3}",
        graph.num_nodes(),
        devices,
        prior.relative_throughput
    );
    println!(
        "drift: {} (churn {:.3})",
        scenario.kind.slug(),
        scenario.delta.churn(&graph)
    );

    let realloc = match roundtrip(
        ReallocRequest {
            id: "realloc-drift".to_string(),
            graph,
            prior_placement: prior.placement.clone(),
            delta: scenario.delta,
            source_rate: Some(rate),
            devices: Some(devices),
            v: Some(2),
            deadline_ms: None,
        }
        .to_line(),
    ) {
        Ok(r) => r,
        Err(why) => {
            eprintln!("realloc failed: {why}");
            return ExitCode::FAILURE;
        }
    };
    let moved = if realloc.placement.len() == prior.placement.len() {
        realloc
            .placement
            .iter()
            .zip(&prior.placement)
            .filter(|(a, b)| a != b)
            .count()
    } else {
        realloc.placement.len()
    };
    println!(
        "realloc ({}): relative {:.3}, {} of {} operators moved",
        realloc.realloc.as_deref().unwrap_or("unchanged"),
        realloc.relative_throughput,
        moved,
        realloc.placement.len()
    );

    if args.shutdown {
        let _ = out
            .write_all(shutdown_line().as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush());
    }
    ExitCode::SUCCESS
}

fn bench_serve(args: BenchServeArgs) -> ExitCode {
    use serde::{Serialize, Value};
    // `--out` holds an object of `"r<replicas>c<connections>"` rows (the
    // shape perf_gate compares); sweep runs merge into whatever rows the
    // file already has, replacing same-keyed ones.
    let mut rows: Vec<(String, Value)> = match std::fs::read_to_string(&args.out) {
        Ok(text) => match serde_json::from_str::<Value>(&text) {
            Ok(Value::Object(entries))
                if entries.iter().all(|(_, v)| matches!(v, Value::Object(_))) =>
            {
                entries
            }
            // Flat pre-sweep report or unparsable content: start fresh.
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };

    if args.drift {
        let cfg = spg::serve::BenchConfig {
            addr: args.addr.clone(),
            replicas: args.replicas,
            connections: 1,
            requests: args.requests,
            graphs: args.graphs,
            seed: args.seed,
            rate: args.rate,
            shutdown: args.shutdown,
            serve_metrics: args.serve_metrics.clone(),
        };
        let report = match spg::serve::run_drift_bench(&cfg) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("bench-serve --drift failed against {}: {e}", cfg.addr);
                return ExitCode::FAILURE;
            }
        };
        println!(
            "drift: {}/{} warm-started ({} full re-allocs ok, {} errors), \
             warm p50 {:.1} ms vs full p50 {:.1} ms (ratio {:.2}), \
             min reward ratio {:.3}, replay consistent: {}",
            report.warm_ok,
            report.scenarios,
            report.full_ok,
            report.errors,
            report.latency_p50_ms,
            report.full_p50_ms,
            report.latency_ratio,
            report.min_reward_ratio,
            report.consistent
        );
        if let (Some(e), Some(r)) = (report.encode_ms, report.rollout_ms) {
            println!("server time split: encode {e:.1} ms, rollout {r:.1} ms");
        }
        let failure = if !report.consistent {
            Some("empty-delta realloc diverged from the prior response")
        } else if report.warm_ok == 0 {
            Some("no realloc took the warm-start path")
        } else if report.errors > 0 {
            Some("drift scenarios returned errors")
        } else {
            None
        };
        rows.retain(|(k, _)| k != "drift");
        rows.push(("drift".to_string(), report.serialize()));
        rows.sort_by(|(a, _), (b, _)| a.cmp(b));
        let json = serde_json::to_string_pretty(&Value::Object(rows))
            .expect("report serialization is infallible");
        if let Err(e) = std::fs::write(&args.out, json + "\n") {
            eprintln!("failed to write {}: {e}", args.out.display());
            return ExitCode::FAILURE;
        }
        println!("report written to {}", args.out.display());
        if let Some(why) = failure {
            eprintln!("FAIL: {why}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if args.chaos {
        let cfg = spg::serve::BenchConfig {
            addr: args.addr.clone(),
            replicas: args.replicas,
            connections: args.connections[0],
            requests: args.requests,
            graphs: args.graphs,
            seed: args.seed,
            rate: args.rate,
            shutdown: args.shutdown,
            serve_metrics: args.serve_metrics.clone(),
        };
        let report = match spg::serve::run_bench(&cfg) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("bench-serve --chaos failed against {}: {e}", cfg.addr);
                return ExitCode::FAILURE;
            }
        };
        println!(
            "chaos: {}/{} ok, {} errors ({} timeouts, {} short reads, \
             {} parse errors) in {:.2}s — consistent: {}",
            report.ok,
            report.requests,
            report.errors,
            report.timeouts,
            report.short_reads,
            report.parse_errors,
            report.elapsed_s,
            report.consistent
        );
        // The fault invariant: every request gets exactly one response or
        // a named connection-level failure — never a hang. Errors are
        // EXPECTED here (the server is injecting faults); hangs and
        // unaccounted requests are not.
        let failure = if report.timeouts > 0 {
            Some("requests hung under injected faults (timeouts)")
        } else if report.ok + report.errors != report.requests {
            Some("chaos accounting broke: ok + errors != requests")
        } else if report.ok == 0 {
            Some("no successful responses under chaos")
        } else if !report.consistent {
            Some("identical requests received different placements under chaos")
        } else {
            None
        };
        rows.retain(|(k, _)| k != "chaos");
        rows.push(("chaos".to_string(), report.serialize()));
        rows.sort_by(|(a, _), (b, _)| a.cmp(b));
        let json = serde_json::to_string_pretty(&Value::Object(rows))
            .expect("report serialization is infallible");
        if let Err(e) = std::fs::write(&args.out, json + "\n") {
            eprintln!("failed to write {}: {e}", args.out.display());
            return ExitCode::FAILURE;
        }
        println!("report written to {}", args.out.display());
        if let Some(why) = failure {
            eprintln!("FAIL: {why}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let mut failure = None;
    let last = args.connections.len() - 1;
    for (i, &connections) in args.connections.iter().enumerate() {
        let cfg = spg::serve::BenchConfig {
            addr: args.addr.clone(),
            replicas: args.replicas,
            connections,
            requests: args.requests,
            graphs: args.graphs,
            seed: args.seed,
            rate: args.rate,
            // Only the final run may take the server down (and harvest
            // its drained telemetry).
            shutdown: args.shutdown && i == last,
            serve_metrics: args.serve_metrics.clone().filter(|_| i == last),
        };
        let report = match spg::serve::run_bench(&cfg) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("bench-serve failed against {}: {e}", cfg.addr);
                return ExitCode::FAILURE;
            }
        };
        let key = format!("r{}c{}", args.replicas, connections);
        println!(
            "{key}: {}/{} ok ({} cached, {} errors) in {:.2}s — {:.1} req/s \
             sustained, latency p50 {:.1} ms / p99 {:.1} ms",
            report.ok,
            report.requests,
            report.cached,
            report.errors,
            report.elapsed_s,
            report.sustained_rps,
            report.latency_p50_ms,
            report.latency_p99_ms
        );
        if let (Some(e), Some(r)) = (report.encode_ms, report.rollout_ms) {
            println!("server time split: encode {e:.1} ms, rollout {r:.1} ms");
        }
        if !report.consistent {
            failure = Some("identical requests received different placements");
        }
        if report.ok == 0 {
            failure = Some("no successful responses");
        }
        rows.retain(|(k, _)| *k != key);
        rows.push((key, report.serialize()));
    }

    rows.sort_by(|(a, _), (b, _)| a.cmp(b));
    let json = serde_json::to_string_pretty(&Value::Object(rows))
        .expect("report serialization is infallible");
    if let Err(e) = std::fs::write(&args.out, json + "\n") {
        eprintln!("failed to write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("report written to {}", args.out.display());
    if let Some(why) = failure {
        eprintln!("FAIL: {why}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn bench_matmul(args: BenchMatmulArgs) -> ExitCode {
    use spg::nn::Matrix;
    let (n, k, m) = (args.n, args.k, args.m);
    // The train-epoch bench's deterministic fill, generalised to ragged
    // shapes: small signed values so products stay well-conditioned.
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
    let mut out = Matrix::zeros(n, m);
    // Warm up: page in the buffers and settle the CPU-feature dispatch.
    for _ in 0..3 {
        a.matmul_into(&b, &mut out);
    }
    let start = std::time::Instant::now();
    for _ in 0..args.iters {
        a.matmul_into(&b, &mut out);
        std::hint::black_box(&out);
    }
    let ns_per_iter = start.elapsed().as_nanos() as f64 / args.iters as f64;
    let gflops = 2.0 * (n as f64) * (k as f64) * (m as f64) / ns_per_iter;
    println!(
        "matmul {n}x{k}x{m} (f32): {ns_per_iter:.0} ns/iter, {gflops:.2} GFLOP/s \
         over {} iters",
        args.iters
    );
    ExitCode::SUCCESS
}

fn report(args: ReportArgs) -> ExitCode {
    let text = match std::fs::read_to_string(&args.metrics) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("failed to read {}: {e}", args.metrics.display());
            return ExitCode::FAILURE;
        }
    };
    match Summary::from_lines(text.lines()) {
        Ok(summary) => {
            println!("telemetry report for {}", args.metrics.display());
            println!("{}", summary.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", args.metrics.display());
            ExitCode::FAILURE
        }
    }
}
