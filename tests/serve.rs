//! Integration tests for the allocation service: protocol round trips,
//! cache determinism, malformed-input resilience, degenerate graphs,
//! concurrent clients, and graceful drain.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::gen::{DatasetSpec, Setting};
use spg::graph::wire::{shutdown_line, AllocRequest, WireResponse};
use spg::graph::{Channel, ClusterSpec, Operator, StreamGraph, StreamGraphBuilder};
use spg::model::checkpoint::Checkpoint;
use spg::model::pipeline::MetisCoarsePlacer;
use spg::model::{CoarsenConfig, CoarsenModel, ReinforceTrainer, TrainOptions};
use spg::obs::TelemetrySink;
use spg::serve::{ServeConfig, ServeReport, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn quick_checkpoint(seed: u64, extra_graphs: Vec<StreamGraph>) -> Checkpoint {
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let mut graphs: Vec<_> = (0..4u64)
        .map(|s| spg::gen::generate_graph(&spec, seed + s))
        .collect();
    graphs.extend(extra_graphs);
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

/// Bind a server on a free port and run it on a background thread.
/// Returns the address and a join handle yielding the drain report.
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

    fn read_response(&mut self) -> WireResponse {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read line");
        WireResponse::parse(line.trim()).expect("parse response")
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

fn one_node_graph() -> StreamGraph {
    let mut b = StreamGraphBuilder::new();
    b.add_node(Operator::new(150.0));
    b.finish().expect("1-node graph is valid")
}

fn edgeless_graph(nodes: usize) -> StreamGraph {
    let mut b = StreamGraphBuilder::new();
    for i in 0..nodes {
        b.add_node(Operator::new(100.0 + i as f64));
    }
    b.finish().expect("edgeless graph is valid")
}

#[test]
fn identical_requests_get_bitwise_identical_placements_and_cache_hit() {
    let ck = quick_checkpoint(11, vec![]);
    let (addr, handle) = spawn_server(ServeConfig::default(), ck);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let g = spg::gen::generate_graph(&spec, 99);

    let mut client = Client::connect(&addr);
    // Await the first response before sending the repeat — otherwise both
    // can share a batch, where the repeat is deduped instead of cache-hit.
    client.send_line(&alloc_request("first", &g).to_line());
    let r1 = client.read_response();
    client.send_line(&alloc_request("second", &g).to_line());
    let r2 = client.read_response();
    let WireResponse::Ok(a) = r1 else {
        panic!("first response must be ok: {r1:?}")
    };
    let WireResponse::Ok(b) = r2 else {
        panic!("second response must be ok: {r2:?}")
    };
    assert_eq!(a.id, "first");
    assert_eq!(b.id, "second");
    assert_eq!(a.placement.len(), g.num_nodes());
    assert_eq!(
        a.placement, b.placement,
        "identical requests must receive bitwise-identical placements"
    );
    assert_eq!(
        a.relative_throughput.to_bits(),
        b.relative_throughput.to_bits()
    );
    assert!(b.cached, "repeat request must be served from the cache");
    client.shutdown();

    let report = handle.join().expect("server thread");
    assert_eq!(report.responses, 2);
    assert_eq!(report.errors, 0);
    assert!(report.cache_hits >= 1);
}

#[test]
fn malformed_input_gets_named_error_and_connection_survives() {
    let ck = quick_checkpoint(12, vec![]);
    let (addr, handle) = spawn_server(ServeConfig::default(), ck);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let g = spg::gen::generate_graph(&spec, 5);

    let mut client = Client::connect(&addr);
    client.send_line("this is not json");
    let WireResponse::Err(e) = client.read_response() else {
        panic!("garbage must produce an error response")
    };
    assert_eq!(e.error, "bad-request");

    // A structurally invalid graph (cycle) is a different named error.
    client.send_line(r#"{"id":"x","graph":{"ops":[{"ipt":1.0},{"ipt":1.0}],"edges":[[0,1],[1,0]],"channels":[{"payload":1.0,"selectivity":1.0},{"payload":1.0,"selectivity":1.0}]}}"#);
    let WireResponse::Err(e) = client.read_response() else {
        panic!("cyclic graph must produce an error response")
    };
    assert_eq!(e.error, "invalid-graph");

    // The connection must still be usable for a valid request.
    client.send_line(&alloc_request("ok", &g).to_line());
    let WireResponse::Ok(a) = client.read_response() else {
        panic!("valid request after errors must succeed")
    };
    assert_eq!(a.id, "ok");

    // Two lines that once ended the server process: an edge without a
    // channel, and an unknown field nested far past any sane depth.
    let deep = 200_000;
    let lines = [
        (
            r#"{"id":"y","graph":{"ops":[{"ipt":1.0},{"ipt":1.0}],"edges":[[0,1]],"channels":[]}}"#
                .to_string(),
            "invalid-graph",
        ),
        (
            format!(
                r#"{{"id":"z","graph":{{"ops":[{{"ipt":1.0}}],"edges":[],"channels":[]}},"x":{}{}}}"#,
                "[".repeat(deep),
                "]".repeat(deep)
            ),
            "bad-request",
        ),
    ];
    for (i, (line, code)) in lines.iter().enumerate() {
        client.send_line(line);
        let WireResponse::Err(e) = client.read_response() else {
            panic!("line {i} must produce an error response")
        };
        assert_eq!(e.error, *code, "line {i}: {}", e.detail);
        client.send_line(&alloc_request("again", &g).to_line());
        let WireResponse::Ok(a) = client.read_response() else {
            panic!("valid request after line {i} must succeed")
        };
        assert_eq!(a.id, "again");
    }
    client.shutdown();

    let report = handle.join().expect("server thread");
    assert_eq!(report.responses, 3);
    assert_eq!(report.errors, 4, "every protocol error must be counted");
}

#[test]
fn degenerate_graphs_round_trip_through_the_server() {
    // Train WITH the degenerate graphs in the buffer, then serve them:
    // the entire path must survive 0-edge and 1-node graphs.
    let one = one_node_graph();
    let edgeless = edgeless_graph(3);
    let ck = quick_checkpoint(13, vec![one.clone(), edgeless.clone()]);
    let (addr, handle) = spawn_server(ServeConfig::default(), ck);

    let mut client = Client::connect(&addr);
    for (id, g) in [("one-node", &one), ("edgeless", &edgeless)] {
        client.send_line(&alloc_request(id, g).to_line());
        let WireResponse::Ok(a) = client.read_response() else {
            panic!("degenerate graph `{id}` must be allocatable")
        };
        assert_eq!(a.id, id);
        assert_eq!(a.placement.len(), g.num_nodes());
        assert!(
            a.relative_throughput.is_finite() && a.relative_throughput >= 0.0,
            "throughput for `{id}` must be finite, got {}",
            a.relative_throughput
        );
    }
    client.shutdown();
    let report = handle.join().expect("server thread");
    assert_eq!(report.responses, 2);
    assert_eq!(report.errors, 0);
}

#[test]
fn request_overrides_devices_and_source_rate() {
    let ck = quick_checkpoint(14, vec![]);
    let (addr, handle) = spawn_server(ServeConfig::default(), ck);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let g = spg::gen::generate_graph(&spec, 17);

    let mut client = Client::connect(&addr);
    let mut req = alloc_request("override", &g);
    req.devices = Some(2);
    req.source_rate = Some(spec.source_rate * 2.0);
    client.send_line(&req.to_line());
    let WireResponse::Ok(a) = client.read_response() else {
        panic!("override request must succeed")
    };
    let used = a.placement.iter().collect::<std::collections::HashSet<_>>();
    assert!(
        used.len() <= 2,
        "placement must respect the devices override"
    );
    assert!(a.placement.iter().all(|&d| d < 2));

    // An unsatisfiable override is a named error, not a dropped connection.
    let mut bad = alloc_request("bad", &g);
    bad.source_rate = Some(-1.0);
    client.send_line(&bad.to_line());
    let WireResponse::Err(e) = client.read_response() else {
        panic!("negative rate must be rejected")
    };
    assert_eq!(e.error, "bad-request");
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn concurrent_clients_each_get_all_their_answers() {
    let ck = quick_checkpoint(15, vec![]);
    let (addr, handle) = spawn_server(ServeConfig::default(), ck);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let graphs: Vec<_> = (0..3u64)
        .map(|s| spg::gen::generate_graph(&spec, 40 + s))
        .collect();

    let clients: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            let graphs = graphs.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr);
                for (r, g) in graphs.iter().enumerate() {
                    let id = format!("c{c}-r{r}");
                    client.send_line(&alloc_request(&id, g).to_line());
                }
                // Cache hits answer ahead of computed batch-mates, so
                // responses may arrive out of order — match them by id.
                let mut seen = std::collections::HashMap::new();
                for _ in 0..graphs.len() {
                    let WireResponse::Ok(a) = client.read_response() else {
                        panic!("client {c} got an error response")
                    };
                    seen.insert(a.id.clone(), a);
                }
                for (r, g) in graphs.iter().enumerate() {
                    let a = seen
                        .get(&format!("c{c}-r{r}"))
                        .unwrap_or_else(|| panic!("client {c} missing response {r}"));
                    assert_eq!(a.placement.len(), g.num_nodes());
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    // Repeats sharing a batch are deduped rather than cache-hit, so the
    // hit count above is racy — but by now every graph is cached, and a
    // fresh request must say so.
    let mut control = Client::connect(&addr);
    control.send_line(&alloc_request("warm", &graphs[0]).to_line());
    let WireResponse::Ok(warm) = control.read_response() else {
        panic!("post-run request failed")
    };
    assert!(warm.cached, "every graph must be cached after the run");
    control.shutdown();

    let report = handle.join().expect("server thread");
    assert_eq!(report.responses, 13);
    assert_eq!(report.errors, 0);
    assert!(
        report.cache_hits >= 1,
        "expected ≥1 cache hit, got {}",
        report.cache_hits
    );
}

#[test]
fn shutdown_drains_and_run_returns() {
    let ck = quick_checkpoint(16, vec![]);
    let (addr, handle) = spawn_server(ServeConfig::default(), ck);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let g = spg::gen::generate_graph(&spec, 3);

    let mut client = Client::connect(&addr);
    client.send_line(&alloc_request("last", &g).to_line());
    let WireResponse::Ok(_) = client.read_response() else {
        panic!("request before shutdown must succeed")
    };
    client.shutdown();
    // run() returning at all IS the drain guarantee; a hang fails the
    // test harness timeout.
    let report = handle.join().expect("server thread");
    assert_eq!(report.responses, 1);

    // After drain the port is closed: new connections are refused or
    // reset rather than silently hanging.
    assert!(
        TcpStream::connect(&addr)
            .map(|s| {
                // Accepted by a lingering socket at most — writing must fail
                // or the peer closes immediately.
                let mut s2 = s;
                let _ = s2.write_all(b"{}\n");
                let mut buf = String::new();
                BufReader::new(s2)
                    .read_line(&mut buf)
                    .map(|n| n == 0)
                    .unwrap_or(true)
            })
            .unwrap_or(true),
        "server must stop answering after drain"
    );
}

#[test]
fn placements_are_bitwise_identical_across_server_restarts() {
    let ck = quick_checkpoint(18, vec![]);
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let g = spg::gen::generate_graph(&spec, 123);

    let mut placements = Vec::new();
    for _ in 0..2 {
        let (addr, handle) = spawn_server(ServeConfig::default(), ck.clone());
        let mut client = Client::connect(&addr);
        client.send_line(&alloc_request("restart", &g).to_line());
        let WireResponse::Ok(a) = client.read_response() else {
            panic!("request must succeed")
        };
        placements.push((a.placement, a.relative_throughput.to_bits()));
        client.shutdown();
        handle.join().expect("server thread");
    }
    assert_eq!(
        placements[0], placements[1],
        "same checkpoint + same config must place identically across restarts"
    );
}

#[test]
fn devices_override_keeps_cluster_capacities() {
    // A devices override must inherit the serve cluster's MIPS/link, not
    // reset them: verify via the public ClusterSpec semantics the server
    // uses (struct-update from the base cluster).
    let base = ClusterSpec::new(7, 999.0, 123.0);
    let overridden = ClusterSpec { devices: 3, ..base };
    assert_eq!(overridden.mips, 999.0);
    assert_eq!(overridden.link_mbps, 123.0);
    assert_eq!(overridden.devices, 3);
}

#[test]
fn wire_request_line_round_trips_through_parse() {
    let mut b = StreamGraphBuilder::new();
    let s = b.add_node(Operator::new(10.0));
    let t = b.add_node(Operator::new(20.0));
    b.add_edge(s, t, Channel::new(4.0)).unwrap();
    let g = b.finish().unwrap();
    let mut req = alloc_request("rt", &g);
    req.devices = Some(4);
    req.source_rate = Some(5e3);
    let line = req.to_line();
    let parsed = spg::graph::wire::parse_request(&line).expect("round trip");
    let spg::graph::wire::WireRequest::Alloc(a) = parsed else {
        panic!("expected alloc request")
    };
    assert_eq!(a.id, "rt");
    assert_eq!(a.graph.num_nodes(), 2);
    assert_eq!(a.devices, Some(4));
    assert_eq!(a.source_rate, Some(5e3));
}
