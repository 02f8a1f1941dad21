//! Cluster-mode serving tests: routing determinism across replica
//! counts, wire protocol v2 shard reporting, graceful drain under
//! replicated load, and an idle-connection soak over the event loop.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::gen::{drift_scenario, DatasetSpec, Setting};
use spg::graph::wire::{shutdown_line, AllocRequest, ReallocRequest, WireResponse};
use spg::graph::StreamGraph;
use spg::model::checkpoint::Checkpoint;
use spg::model::pipeline::MetisCoarsePlacer;
use spg::model::{CoarsenConfig, CoarsenModel, ReinforceTrainer, TrainOptions};
use spg::obs::TelemetrySink;
use spg::serve::{request_fingerprint, shard_of, ServeConfig, ServeReport, Server};
use spg::sim::inject;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn quick_checkpoint(seed: u64) -> Checkpoint {
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let graphs: Vec<_> = (0..4u64)
        .map(|s| spg::gen::generate_graph(&spec, seed + s))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
    let mut trainer = ReinforceTrainer::builder(model, MetisCoarsePlacer::new(seed))
        .graphs(graphs)
        .cluster(spec.cluster())
        .source_rate(spec.source_rate)
        .options(TrainOptions::new().seed(seed))
        .build();
    trainer.train_epoch();
    trainer.checkpoint()
}

fn spawn_server(
    cfg: ServeConfig,
    ck: Checkpoint,
) -> (String, std::thread::JoinHandle<ServeReport>) {
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        let sink = TelemetrySink::disabled();
        server
            .run(ck, spec.cluster(), spec.source_rate, &sink)
            .expect("serve run")
    });
    (addr, handle)
}

struct Client {
    out: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("read timeout");
        Self {
            out: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send_line(&mut self, line: &str) {
        self.out.write_all(line.as_bytes()).expect("write");
        self.out.write_all(b"\n").expect("write newline");
        self.out.flush().expect("flush");
    }

    /// Read one raw response line (bitwise, trailing newline stripped).
    fn read_raw_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read line");
        line.trim_end_matches('\n').to_string()
    }

    fn read_response(&mut self) -> WireResponse {
        WireResponse::parse(self.read_raw_line().trim()).expect("parse response")
    }

    fn shutdown(mut self) {
        self.send_line(shutdown_line());
    }
}

fn alloc_request(id: &str, graph: &StreamGraph) -> AllocRequest {
    AllocRequest {
        id: id.to_string(),
        graph: graph.clone(),
        source_rate: None,
        devices: None,
        v: None,
        deadline_ms: None,
    }
}

#[test]
fn replica_count_cannot_change_a_single_response_bit() {
    // One corpus — 8 distinct graphs plus repeats — sent sequentially
    // (await each answer, so cache-hit vs batch-dedup behavior is
    // deterministic) through 1-, 2-, and 4-replica servers. Response
    // LINES must be bitwise identical across all three: routing is an
    // implementation detail, the protocol output is pinned.
    let ck = quick_checkpoint(21);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let graphs: Vec<_> = (0..8u64)
        .map(|s| spg::gen::generate_graph(&spec, 300 + s))
        .collect();
    // Distinct graphs first, then repeats of the first three.
    let corpus: Vec<(String, &StreamGraph)> = (0..graphs.len())
        .map(|i| (format!("q{i}"), &graphs[i]))
        .chain((0..3).map(|i| (format!("rep{i}"), &graphs[i])))
        .collect();

    let mut transcripts: Vec<Vec<String>> = Vec::new();
    for replicas in [1usize, 2, 4] {
        let cfg = ServeConfig::builder().replicas(replicas).build().unwrap();
        let (addr, handle) = spawn_server(cfg, ck.clone());
        let mut client = Client::connect(&addr);
        let mut lines = Vec::new();
        for (id, g) in &corpus {
            client.send_line(&alloc_request(id, g).to_line());
            lines.push(client.read_raw_line());
        }
        client.shutdown();
        let report = handle.join().expect("server thread");
        assert_eq!(
            report.responses,
            corpus.len() as u64,
            "{replicas} replicas must answer the whole corpus"
        );
        assert_eq!(report.errors, 0);
        assert_eq!(report.per_replica.len(), replicas);
        let split: u64 = report.per_replica.iter().map(|r| r.responses).sum();
        assert_eq!(split, report.responses, "per-replica reports must add up");
        if replicas == 4 {
            let active = report.per_replica.iter().filter(|r| r.batches > 0).count();
            assert!(active >= 2, "corpus must actually spread across shards");
        }
        transcripts.push(lines);
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "1 vs 2 replicas: responses must be bitwise identical"
    );
    assert_eq!(
        transcripts[0], transcripts[2],
        "1 vs 4 replicas: responses must be bitwise identical"
    );
    // The repeats re-hit their original shard's warm cache.
    for lines in &transcripts {
        for rep in lines.iter().rev().take(3) {
            assert!(rep.contains("\"cached\":true"), "repeat not cached: {rep}");
        }
    }
}

/// Fold `bytes` into an FNV-1a-64 hash, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn f32_transcript_bytes_are_pinned() {
    // Golden digest of every response line a 1-replica server writes for
    // one sequential corpus: v1 and v2 allocs, a cached repeat, and a
    // warm realloc of one of the answers. The replica-count pin above
    // compares servers within one run; this one holds the bytes across
    // commits, so a change to the forward, the placer, the simulator or
    // the response encoding moves it.
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    let ck = quick_checkpoint(31);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let graphs: Vec<_> = (0..4u64)
        .map(|s| spg::gen::generate_graph(&spec, 600 + s))
        .collect();
    let cfg = ServeConfig::builder().replicas(1).build().unwrap();
    let (addr, handle) = spawn_server(cfg, ck);
    let mut client = Client::connect(&addr);
    let mut lines = Vec::new();
    let mut ask = |client: &mut Client, line: String| {
        client.send_line(&line);
        let answer = client.read_raw_line();
        lines.push(answer.clone());
        answer
    };
    ask(&mut client, alloc_request("v1-a", &graphs[0]).to_line());
    ask(&mut client, alloc_request("v1-b", &graphs[1]).to_line());
    let v2 = |id: &str, g: &StreamGraph| AllocRequest {
        v: Some(2),
        ..alloc_request(id, g)
    };
    ask(&mut client, v2("v2-a", &graphs[2]).to_line());
    let prior_line = ask(&mut client, v2("v2-b", &graphs[3]).to_line());
    let repeat = ask(&mut client, alloc_request("rep", &graphs[0]).to_line());
    assert!(
        repeat.contains("\"cached\":true"),
        "repeat not cached: {repeat}"
    );

    let WireResponse::Ok(prior) = WireResponse::parse(&prior_line).expect("parse") else {
        panic!("alloc must succeed: {prior_line}")
    };
    let drift = drift_scenario(&graphs[3], spec.cluster().devices, spec.source_rate, 1);
    let realloc = ReallocRequest {
        id: "warm".to_string(),
        graph: graphs[3].clone(),
        prior_placement: prior.placement,
        delta: drift.delta,
        source_rate: None,
        devices: None,
        v: Some(2),
        deadline_ms: None,
    };
    let warm = ask(&mut client, realloc.to_line());
    assert!(
        warm.contains("\"realloc\":\"warm\""),
        "realloc not warm: {warm}"
    );
    client.shutdown();
    let report = handle.join().expect("server thread");
    assert_eq!(report.errors, 0);

    let digest = lines.iter().fold(FNV_OFFSET, |h, line| {
        fnv1a(fnv1a(h, line.as_bytes()), b"\n")
    });
    assert_eq!(
        digest,
        0xcbfc807e5881b7d6,
        "f32 response bytes moved:\n{}",
        lines.join("\n")
    );
}

#[test]
fn wire_v2_reports_the_stable_shard_assignment() {
    let ck = quick_checkpoint(22);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let cluster = spec.cluster();
    let replicas = 2u32;
    let cfg = ServeConfig::builder()
        .replicas(replicas as usize)
        .build()
        .unwrap();
    let (addr, handle) = spawn_server(cfg, ck);

    // Pick one graph per shard by computing the assignment client-side —
    // the response's `shard` field must agree with the public hash.
    let mut picks: Vec<(StreamGraph, u32)> = Vec::new();
    let mut covered = [false; 2];
    for seed in 400u64..500 {
        let g = spg::gen::generate_graph(&spec, seed);
        let shard = shard_of(
            request_fingerprint(&g, cluster.devices, spec.source_rate),
            replicas,
        );
        if !covered[shard as usize] {
            covered[shard as usize] = true;
            picks.push((g, shard));
        }
        if covered.iter().all(|&c| c) {
            break;
        }
    }
    assert_eq!(picks.len(), 2, "100 seeds must cover both shards");

    let mut client = Client::connect(&addr);
    for (gi, (g, expected)) in picks.iter().enumerate() {
        // Same graph twice: fresh then cached, same shard both times.
        for round in 0..2 {
            let mut req = alloc_request(&format!("g{gi}-{round}"), g);
            req.v = Some(2);
            client.send_line(&req.to_line());
            let WireResponse::Ok(a) = client.read_response() else {
                panic!("v2 request must succeed")
            };
            assert_eq!(a.v, Some(2), "v2 response must echo the version");
            assert_eq!(
                a.shard,
                Some(*expected),
                "shard must match the rendezvous assignment"
            );
            assert_eq!(a.cached, round == 1);
        }
    }
    // A v1 request on the same connection stays byte-compatible: no new
    // fields leak into the default path.
    client.send_line(&alloc_request("v1", &picks[0].0).to_line());
    let line = client.read_raw_line();
    assert!(
        !line.contains("\"v\"") && !line.contains("shard"),
        "v1 responses must not grow fields: {line}"
    );
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn drain_completes_in_flight_work_and_refuses_late_arrivals() {
    let ck = quick_checkpoint(23);
    let medium = DatasetSpec::scaled_down(Setting::MediumFiveDevices);
    let graphs: Vec<_> = (0..16u64)
        .map(|s| spg::gen::generate_graph(&medium, 500 + s))
        .collect();
    // Pin an injected stall on the first backlog request so its replica
    // is parked while the post-shutdown probes land — the drain window
    // is deterministically open, instead of hoping 16 inferences
    // outlast the probes (a real race on fast machines).
    // The stalled request still completes, so the drain guarantee below
    // is unchanged. Fingerprints use the server's defaults (the Small
    // spec from spawn_server), not the graphs' generating spec.
    let small = DatasetSpec::scaled_down(Setting::Small);
    let fp0 = request_fingerprint(&graphs[0], small.cluster().devices, small.source_rate);
    let plan =
        inject::FaultInjector::new(0).at(inject::Site::ReplicaWork, fp0, inject::Fault::Stall);
    // max_batch 1 forces one inference pass per request. The timeout is
    // raised so queued backlog never expires on a slow machine.
    let cfg = ServeConfig::builder()
        .replicas(2)
        .max_batch(1)
        .request_timeout_ms(120_000)
        .faults(plan)
        .build()
        .unwrap();
    let (addr, handle) = spawn_server(cfg, ck);

    // Pre-open the late connection before shutdown is even sent.
    let mut late = Client::connect(&addr);

    let mut client = Client::connect(&addr);
    // Pipeline the full backlog, then shutdown, then one more alloc —
    // all on one connection, so line order guarantees the last request
    // is processed after the drain began and MUST get `draining`.
    for (i, g) in graphs.iter().enumerate() {
        client.send_line(&alloc_request(&format!("in-flight-{i}"), g).to_line());
    }
    client.send_line(shutdown_line());
    client.send_line(&alloc_request("after-shutdown", &graphs[0]).to_line());

    // Every in-flight request completes, plus exactly one refusal for
    // the post-shutdown request. The refusal is queued inline by the
    // router while the backlog is still computing, so it may arrive
    // ahead of the Ok responses — match by id, not by order.
    let mut seen = std::collections::HashMap::new();
    let mut refusals = Vec::new();
    // Records one response; true when it is the post-shutdown refusal.
    let mut record = |resp: WireResponse| match resp {
        WireResponse::Ok(a) => {
            seen.insert(a.id.clone(), a.placement.len());
            false
        }
        WireResponse::Err(e) => {
            let after_shutdown = e.id.as_deref() == Some("after-shutdown");
            refusals.push(e);
            after_shutdown
        }
    };
    // The router refuses `after-shutdown` only after it has handled the
    // shutdown line, so once that refusal is back the drain has begun —
    // no sleep racing the router's parse of the pipelined backlog.
    let mut read = 0;
    while read < graphs.len() + 1 {
        read += 1;
        if record(client.read_response()) {
            break;
        }
    }

    // While replicas chew through the backlog: the pre-opened
    // connection and a brand-new connect both get refused by name.
    late.send_line(&alloc_request("late-conn", &graphs[1]).to_line());
    let WireResponse::Err(e) = late.read_response() else {
        panic!("pre-opened late request must be refused")
    };
    assert_eq!(e.error, "draining");
    let mut fresh = Client::connect(&addr);
    fresh.send_line(&alloc_request("late-connect", &graphs[2]).to_line());
    let WireResponse::Err(e) = fresh.read_response() else {
        panic!("late connect must be refused, not ignored")
    };
    assert_eq!(e.error, "draining");

    for _ in read..graphs.len() + 1 {
        record(client.read_response());
    }
    for (i, g) in graphs.iter().enumerate() {
        assert_eq!(
            seen.get(&format!("in-flight-{i}")),
            Some(&g.num_nodes()),
            "request {i} must complete during drain"
        );
    }
    assert_eq!(
        refusals.len(),
        1,
        "exactly one request arrived post-shutdown"
    );
    assert_eq!(refusals[0].error, "draining");
    assert_eq!(refusals[0].id.as_deref(), Some("after-shutdown"));

    let report = handle.join().expect("server thread");
    assert_eq!(report.responses, graphs.len() as u64);
    assert!(
        report.errors >= 3,
        "three named refusals, got {}",
        report.errors
    );
    let active = report
        .per_replica
        .iter()
        .filter(|r| r.responses > 0)
        .count();
    assert_eq!(active, 2, "both replicas must have drained in-flight work");
}

#[test]
fn a_multi_request_batch_answers_each_request_as_a_solo_server_would() {
    // A stall pinned on the first request parks the one replica while
    // the rest queue behind it, so the next dequeue takes up to
    // max_batch jobs at once. Every answer of those batches must be the
    // byte-identical line a max_batch(1) server gives the same request
    // sent alone.
    let ck = quick_checkpoint(29);
    let medium = DatasetSpec::scaled_down(Setting::Medium);
    let graphs: Vec<_> = (0..12u64)
        .map(|s| spg::gen::generate_graph(&medium, 700 + s))
        .collect();
    // Fingerprints use the server's defaults (the Small spec from
    // spawn_server), not the graphs' generating spec.
    let small = DatasetSpec::scaled_down(Setting::Small);
    let fp0 = request_fingerprint(&graphs[0], small.cluster().devices, small.source_rate);
    let ids: Vec<String> = (0..graphs.len()).map(|i| format!("b{i}")).collect();

    let solo: Vec<String> = {
        let cfg = ServeConfig::builder()
            .replicas(1)
            .max_batch(1)
            .build()
            .unwrap();
        let (addr, handle) = spawn_server(cfg, ck.clone());
        let mut client = Client::connect(&addr);
        let lines = ids
            .iter()
            .zip(&graphs)
            .map(|(id, g)| {
                client.send_line(&alloc_request(id, g).to_line());
                client.read_raw_line()
            })
            .collect();
        client.shutdown();
        handle.join().expect("server thread");
        lines
    };

    let plan =
        inject::FaultInjector::new(0).at(inject::Site::ReplicaWork, fp0, inject::Fault::Stall);
    // The timeout is raised so the queue never expires behind the
    // stall on a slow machine.
    let cfg = ServeConfig::builder()
        .replicas(1)
        .max_batch(8)
        .request_timeout_ms(120_000)
        .faults(plan)
        .build()
        .unwrap();
    let (addr, handle) = spawn_server(cfg, ck);
    let mut client = Client::connect(&addr);
    for (id, g) in ids.iter().zip(&graphs) {
        client.send_line(&alloc_request(id, g).to_line());
    }
    let mut by_id = std::collections::HashMap::new();
    for _ in 0..graphs.len() {
        let line = client.read_raw_line();
        let WireResponse::Ok(a) = WireResponse::parse(line.trim()).expect("parse response") else {
            panic!("batched request failed: {line}")
        };
        by_id.insert(a.id, line);
    }
    client.shutdown();
    let report = handle.join().expect("server thread");

    for (id, want) in ids.iter().zip(&solo) {
        assert_eq!(
            by_id.get(id),
            Some(want),
            "{id} in a batch must match its solo answer byte for byte"
        );
    }
    assert_eq!(report.responses, graphs.len() as u64);
    assert_eq!(report.errors, 0);
    assert!(
        report.batches < graphs.len() as u64,
        "{} batches for {} requests, so no batch held two",
        report.batches,
        graphs.len()
    );
}

#[test]
fn a_killed_replica_is_respawned_and_the_retry_is_bitwise_identical() {
    let ck = quick_checkpoint(25);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let g = spg::gen::generate_graph(&spec, 900);
    let fp = request_fingerprint(&g, spec.cluster().devices, spec.source_rate);
    let cfg = |plan| {
        ServeConfig::builder()
            .replicas(2)
            .faults(plan)
            .build()
            .unwrap()
    };

    // Baseline: the response a healthy server gives this request.
    let baseline = {
        let (addr, handle) = spawn_server(cfg(inject::FaultInjector::default()), ck.clone());
        let mut client = Client::connect(&addr);
        client.send_line(&alloc_request("target", &g).to_line());
        let line = client.read_raw_line();
        client.shutdown();
        handle.join().expect("server thread");
        line
    };

    // Injected: the owning shard's generation-0 incarnation dies the
    // moment it dequeues this fingerprint.
    let plan = inject::FaultInjector::new(0).at(inject::Site::ReplicaWork, fp, inject::Fault::Kill);
    let (addr, handle) = spawn_server(cfg(plan), ck);
    let mut client = Client::connect(&addr);
    client.send_line(&alloc_request("target", &g).to_line());
    let WireResponse::Err(e) = client.read_response() else {
        panic!("the in-flight request must fail by name, not hang")
    };
    assert_eq!(e.error, "internal");
    assert_eq!(e.id.as_deref(), Some("target"));

    // The respawned incarnation (generation 1) no longer matches the
    // pinned fault: the retry must succeed, and — greedy decode,
    // content-seeded RNG, cold LRU both times — must reproduce the
    // healthy server's bytes exactly.
    client.send_line(&alloc_request("target", &g).to_line());
    let retry = client.read_raw_line();
    assert_eq!(
        retry, baseline,
        "post-restart retry must be bitwise identical to a clean run"
    );

    client.shutdown();
    let report = handle.join().expect("server thread");
    assert_eq!(report.replica_restarts, 1, "exactly one respawn");
    assert_eq!(report.responses, 1);
    assert_eq!(report.errors, 1, "exactly one orphaned request failed");
}

#[test]
fn an_injected_worker_panic_fails_one_request_without_a_restart() {
    let ck = quick_checkpoint(26);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let g_bad = spg::gen::generate_graph(&spec, 910);
    let g_ok = spg::gen::generate_graph(&spec, 911);
    let fp = request_fingerprint(&g_bad, spec.cluster().devices, spec.source_rate);
    let plan =
        inject::FaultInjector::new(0).at(inject::Site::ReplicaWork, fp, inject::Fault::WorkerPanic);
    let cfg = ServeConfig::builder().faults(plan).build().unwrap();
    let (addr, handle) = spawn_server(cfg, ck);
    let mut client = Client::connect(&addr);

    client.send_line(&alloc_request("bad", &g_bad).to_line());
    let WireResponse::Err(e) = client.read_response() else {
        panic!("an injected panic must fail the request by name")
    };
    assert_eq!(e.error, "internal");
    assert_eq!(e.id.as_deref(), Some("bad"));

    // Same incarnation, next request: the panic was isolated.
    client.send_line(&alloc_request("good", &g_ok).to_line());
    let WireResponse::Ok(a) = client.read_response() else {
        panic!("the incarnation must survive a caught panic")
    };
    assert_eq!(a.placement.len(), g_ok.num_nodes());

    client.shutdown();
    let report = handle.join().expect("server thread");
    assert_eq!(report.panics_caught, 1);
    assert_eq!(report.replica_restarts, 0, "caught panics must not respawn");
    assert_eq!((report.responses, report.errors), (1, 1));
}

#[test]
fn a_zero_deadline_is_shed_by_name_and_a_generous_one_is_not() {
    let ck = quick_checkpoint(27);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let g = spg::gen::generate_graph(&spec, 920);
    let (addr, handle) = spawn_server(ServeConfig::default(), ck);
    let mut client = Client::connect(&addr);

    // deadline_ms: 0 lapses by definition — shed before any inference,
    // deterministically, whatever the machine's speed.
    let mut req = alloc_request("impatient", &g);
    req.v = Some(2);
    req.deadline_ms = Some(0);
    client.send_line(&req.to_line());
    let WireResponse::Err(e) = client.read_response() else {
        panic!("a 0 ms budget must shed")
    };
    assert_eq!(e.error, "deadline-exceeded");
    assert_eq!(e.id.as_deref(), Some("impatient"));

    let mut req = alloc_request("patient", &g);
    req.v = Some(2);
    req.deadline_ms = Some(60_000);
    client.send_line(&req.to_line());
    let WireResponse::Ok(a) = client.read_response() else {
        panic!("a generous budget must be served")
    };
    assert_eq!(a.placement.len(), g.num_nodes());

    client.shutdown();
    let report = handle.join().expect("server thread");
    assert_eq!(report.shed_deadline, 1);
    assert_eq!((report.responses, report.errors), (1, 1));
}

#[test]
fn past_the_watermark_cache_hits_answer_and_misses_shed() {
    let ck = quick_checkpoint(28);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let g_hit = spg::gen::generate_graph(&spec, 930);
    let g_stall = spg::gen::generate_graph(&spec, 931);
    let g_miss = spg::gen::generate_graph(&spec, 932);
    let fp_stall = request_fingerprint(&g_stall, spec.cluster().devices, spec.source_rate);
    // Park the (single) replica on an injected stall so queue depth is
    // deterministically at the watermark when the follow-ups route.
    let plan =
        inject::FaultInjector::new(0).at(inject::Site::ReplicaWork, fp_stall, inject::Fault::Stall);
    let cfg = ServeConfig::builder()
        .replicas(1)
        .max_batch(1)
        .shed_watermark(1)
        .faults(plan)
        .build()
        .unwrap();
    let (addr, handle) = spawn_server(cfg, ck);
    let mut client = Client::connect(&addr);

    // Warm the shard's LRU below the watermark.
    client.send_line(&alloc_request("warm", &g_hit).to_line());
    let WireResponse::Ok(_) = client.read_response() else {
        panic!("warming request must succeed")
    };

    // Stall the replica, then pile on: with depth at the watermark the
    // router marks the followers cache-only.
    client.send_line(&alloc_request("stalled", &g_stall).to_line());
    client.send_line(&alloc_request("hit", &g_hit).to_line());
    client.send_line(&alloc_request("miss", &g_miss).to_line());

    let mut by_id: std::collections::HashMap<String, Result<_, _>> =
        std::collections::HashMap::new();
    for _ in 0..3 {
        match client.read_response() {
            WireResponse::Ok(a) => by_id.insert(a.id.clone(), Ok(a)),
            WireResponse::Err(e) => by_id.insert(e.id.clone().unwrap_or_default(), Err(e)),
        };
    }
    let Some(Ok(hit)) = by_id.get("hit") else {
        panic!("a cache hit must still be served past the watermark")
    };
    assert!(hit.cached, "the watermark answer must come from the LRU");
    let Some(Err(miss)) = by_id.get("miss") else {
        panic!("a cache miss past the watermark must shed")
    };
    assert_eq!(miss.error, "overloaded");
    let Some(Ok(stalled)) = by_id.get("stalled") else {
        panic!("the stalled request itself must complete")
    };
    assert_eq!(stalled.placement.len(), g_stall.num_nodes());

    client.shutdown();
    let report = handle.join().expect("server thread");
    assert_eq!(report.shed_overload, 1);
    assert_eq!(report.responses, 3, "warm, stalled, and the cache hit");
    assert_eq!(report.errors, 1, "only the shed miss failed");
}

#[test]
fn a_thousand_idle_connections_cost_no_threads_and_break_nothing() {
    let ck = quick_checkpoint(24);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let (addr, handle) = spawn_server(ServeConfig::default(), ck);

    // Open and hold 1000 idle connections. Under the old
    // thread-per-connection design this would be 2000 parked threads;
    // the event loop holds them as poll-set entries.
    let idle: Vec<TcpStream> = (0..1000)
        .map(|i| {
            TcpStream::connect(&addr).unwrap_or_else(|e| panic!("idle connect {i} failed: {e}"))
        })
        .collect();

    // Service must be unimpaired: a real request through the crowd, and
    // one of the idle sockets waking up mid-soak.
    let g = spg::gen::generate_graph(&spec, 777);
    let mut client = Client::connect(&addr);
    client.send_line(&alloc_request("through-the-crowd", &g).to_line());
    let WireResponse::Ok(a) = client.read_response() else {
        panic!("request must succeed with 1000 idle connections held open")
    };
    assert_eq!(a.placement.len(), g.num_nodes());

    let woken = idle.last().expect("idle pool nonempty");
    let mut woken = Client {
        out: woken.try_clone().expect("clone idle"),
        reader: BufReader::new(woken.try_clone().expect("clone idle")),
    };
    woken
        .out
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .ok();
    woken.send_line(&alloc_request("was-idle", &g).to_line());
    let WireResponse::Ok(a) = woken.read_response() else {
        panic!("formerly idle connection must still be serviceable")
    };
    assert!(a.cached, "repeat of the same graph must hit the cache");

    client.shutdown();
    drop(idle);
    let report = handle.join().expect("server thread");
    assert_eq!(report.responses, 2);
    assert_eq!(report.errors, 0);
}
