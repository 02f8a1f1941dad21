//! Open-loop, seeded load generator for the allocation server.
//!
//! Requests are scheduled on a fixed clock (`rate` req/s across all
//! connections) *before* any response arrives, so a slow server cannot
//! throttle the offered load — latency is measured from the scheduled
//! send time, the honest open-loop definition that includes coordinated
//! omission. Graphs come from the seeded generator; the request stream
//! cycles through `graphs` distinct graphs, so every graph after the
//! first round exercises the server's warm-cache path. The report also
//! cross-checks determinism: every response for the same graph must
//! carry the bitwise-identical placement.

use serde::Serialize;
use spg_gen::{drift_scenario, DatasetSpec, Setting};
use spg_graph::wire::{shutdown_line, AllocRequest, ReallocRequest, WireResponse};
use spg_graph::{GraphDelta, StreamGraph};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-generator tuning.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Replica count the *server* is running with — recorded in the
    /// report so sweep rows are self-describing (the load generator
    /// itself is replica-agnostic).
    pub replicas: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Distinct seeded graphs cycled through the request stream.
    pub graphs: usize,
    /// Generator seed.
    pub seed: u64,
    /// Offered load in requests/second (open loop).
    pub rate: f64,
    /// Send a shutdown command after the run.
    pub shutdown: bool,
    /// Telemetry JSONL file the *server* writes (`spg serve --metrics`).
    /// With `shutdown`, the drained server's `serve.encode_ns` /
    /// `serve.rollout_ns` counters are folded into the report as the
    /// encode-vs-rollout time split.
    pub serve_metrics: Option<std::path::PathBuf>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            replicas: 1,
            connections: 4,
            requests: 64,
            graphs: 8,
            seed: 0,
            rate: 200.0,
            shutdown: false,
            serve_metrics: None,
        }
    }
}

/// What the load generator measured.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Server replica count this row was measured against.
    pub replicas: usize,
    /// Concurrent client connections used.
    pub connections: usize,
    /// Requests sent.
    pub requests: usize,
    /// Successful allocation responses.
    pub ok: usize,
    /// Error responses plus requests whose response never arrived
    /// (`timeouts + short_reads`); malformed lines are tracked
    /// separately in `parse_errors` because the request they belonged
    /// to still shows up as a timeout or short read.
    pub errors: usize,
    /// Requests still unanswered when a connection's read timed out.
    pub timeouts: usize,
    /// Requests still unanswered when the server closed the connection.
    pub short_reads: usize,
    /// Response lines that failed to parse or carried an unknown id.
    pub parse_errors: usize,
    /// Responses flagged as served from the cache.
    pub cached: usize,
    /// Wall-clock from first scheduled send to last response (s).
    pub elapsed_s: f64,
    /// `ok / elapsed_s`.
    pub sustained_rps: f64,
    /// Median open-loop latency (ms).
    pub latency_p50_ms: f64,
    /// 99th-percentile open-loop latency (ms).
    pub latency_p99_ms: f64,
    /// True iff every same-graph response carried a bitwise-identical
    /// placement.
    pub consistent: bool,
    /// Server-side time in feature extraction + model forward (ms),
    /// parsed from the server's telemetry stream (`serve_metrics`).
    pub encode_ms: Option<f64>,
    /// Server-side time in decode → place → simulate (ms).
    pub rollout_ms: Option<f64>,
}

// Hand-written so the stage-split fields are *omitted* when the bench
// ran without `--serve-metrics` (or the mode cannot measure them),
// instead of the derive's `"encode_ms": null`. A `BENCH_serve.json` row
// either carries a real split or no split keys at all.
impl Serialize for BenchReport {
    fn serialize(&self) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> = vec![
            ("replicas".into(), self.replicas.serialize()),
            ("connections".into(), self.connections.serialize()),
            ("requests".into(), self.requests.serialize()),
            ("ok".into(), self.ok.serialize()),
            ("errors".into(), self.errors.serialize()),
            ("timeouts".into(), self.timeouts.serialize()),
            ("short_reads".into(), self.short_reads.serialize()),
            ("parse_errors".into(), self.parse_errors.serialize()),
            ("cached".into(), self.cached.serialize()),
            ("elapsed_s".into(), self.elapsed_s.serialize()),
            ("sustained_rps".into(), self.sustained_rps.serialize()),
            ("latency_p50_ms".into(), self.latency_p50_ms.serialize()),
            ("latency_p99_ms".into(), self.latency_p99_ms.serialize()),
            ("consistent".into(), self.consistent.serialize()),
        ];
        if let Some(e) = self.encode_ms {
            fields.push(("encode_ms".into(), e.serialize()));
        }
        if let Some(r) = self.rollout_ms {
            fields.push(("rollout_ms".into(), r.serialize()));
        }
        serde::Value::Object(fields)
    }
}

impl BenchReport {
    /// Pretty-printed JSON, the `BENCH_serve.json` format.
    pub fn to_json(&self) -> String {
        // Cannot fire: the struct is numbers, bools, and options of
        // numbers — none of which have a failing Serialize impl.
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }
}

struct Sample {
    graph_index: usize,
    latency_ms: f64,
    response: WireResponse,
}

/// Why responses went missing, split by failure mode so a bad run's
/// report says *what* went wrong instead of one undifferentiated
/// `errors` count.
#[derive(Default)]
struct WireCounts {
    /// Requests unanswered when a connection's read timed out.
    timeouts: AtomicUsize,
    /// Requests unanswered when the server closed the connection early.
    short_reads: AtomicUsize,
    /// Response lines that failed to parse or matched no pending id.
    parse_errors: AtomicUsize,
}

/// Run the load generator against a listening server.
pub fn run_bench(cfg: &BenchConfig) -> std::io::Result<BenchReport> {
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let graphs: Vec<StreamGraph> = (0..cfg.graphs.max(1) as u64)
        .map(|g| spg_gen::generate_graph(&spec, cfg.seed.wrapping_add(g)))
        .collect();

    let connections = cfg.connections.max(1);
    let interval = Duration::from_secs_f64(1.0 / cfg.rate.max(1e-6));
    let start = Instant::now() + Duration::from_millis(20);
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::with_capacity(cfg.requests));
    let counts = WireCounts::default();

    let mut elapsed_s = 0.0;
    std::thread::scope(|s| -> std::io::Result<()> {
        let mut handles = Vec::new();
        for conn in 0..connections {
            // Request i goes to connection i % connections at t = i·interval.
            let schedule: Vec<(usize, Instant)> = (0..cfg.requests)
                .filter(|i| i % connections == conn)
                .map(|i| (i, start + interval.mul_prec(i)))
                .collect();
            let (graphs, samples, counts) = (&graphs, &samples, &counts);
            handles.push(s.spawn(move || -> std::io::Result<()> {
                run_connection(&cfg.addr, conn, &schedule, graphs, samples, counts)
            }));
        }
        for h in handles {
            // A panicked connection thread is a bench bug; name it as
            // an I/O error instead of tearing down the process.
            match h.join() {
                Ok(res) => res?,
                Err(_) => {
                    return Err(std::io::Error::other("bench connection thread panicked"));
                }
            }
        }
        elapsed_s = (Instant::now().saturating_duration_since(start)).as_secs_f64();
        Ok(())
    })?;

    if cfg.shutdown {
        let mut ctl = TcpStream::connect(&cfg.addr)?;
        ctl.write_all(shutdown_line().as_bytes())?;
        ctl.write_all(b"\n")?;
        ctl.flush()?;
    }
    let (encode_ms, rollout_ms) = match &cfg.serve_metrics {
        Some(path) if cfg.shutdown => read_serve_split(path),
        _ => (None, None),
    };

    // Poisoning only marks that some thread panicked while holding the
    // lock; a `push` leaves the Vec valid either way, so unpoison.
    let samples = samples
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    assert!(
        samples.len() <= cfg.requests,
        "collected {} samples for {} requests — duplicate or phantom responses",
        samples.len(),
        cfg.requests
    );
    let timeouts = counts.timeouts.load(Ordering::Relaxed);
    let short_reads = counts.short_reads.load(Ordering::Relaxed);
    let parse_errors = counts.parse_errors.load(Ordering::Relaxed);
    let mut ok = 0;
    // Missing responses are exactly the pending requests each reader
    // classified on exit; error *responses* are added in the loop below.
    let mut errors = timeouts + short_reads;
    let mut cached = 0;
    let mut latencies: Vec<f64> = Vec::with_capacity(samples.len());
    let mut canonical: HashMap<usize, Vec<u32>> = HashMap::new();
    let mut consistent = true;
    for s in &samples {
        latencies.push(s.latency_ms);
        match &s.response {
            WireResponse::Ok(r) => {
                ok += 1;
                if r.cached {
                    cached += 1;
                }
                match canonical.get(&s.graph_index) {
                    Some(first) => consistent &= *first == r.placement,
                    None => {
                        canonical.insert(s.graph_index, r.placement.clone());
                    }
                }
            }
            WireResponse::Err(_) => errors += 1,
        }
    }
    Ok(BenchReport {
        replicas: cfg.replicas,
        connections,
        requests: cfg.requests,
        ok,
        errors,
        timeouts,
        short_reads,
        parse_errors,
        cached,
        elapsed_s,
        sustained_rps: if elapsed_s > 0.0 {
            ok as f64 / elapsed_s
        } else {
            0.0
        },
        latency_p50_ms: spg_obs::percentile(&latencies, 50.0),
        latency_p99_ms: spg_obs::percentile(&latencies, 99.0),
        consistent,
        encode_ms,
        rollout_ms,
    })
}

/// Extract the server's encode/rollout time split from its telemetry
/// JSONL. The server flushes the counters while draining, concurrently
/// with our shutdown command returning, so poll briefly for the file to
/// contain both.
fn read_serve_split(path: &std::path::Path) -> (Option<f64>, Option<f64>) {
    for _ in 0..20 {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(summary) = spg_obs::Summary::from_lines(text.lines()) {
                if let (Some(e), Some(r)) = (
                    summary.counter("serve.encode_ns"),
                    summary.counter("serve.rollout_ns"),
                ) {
                    return (Some(e as f64 / 1e6), Some(r as f64 / 1e6));
                }
            }
        }
        std::thread::sleep(Duration::from_millis(150));
    }
    (None, None)
}

/// One client connection: this thread paces the open-loop write schedule
/// while a reader thread collects responses **concurrently**. Reading as
/// responses arrive is what makes the latency samples server latency: a
/// sequential write-all-then-read phase would park early responses in
/// the socket buffer until the schedule finished, folding the schedule's
/// length into every early sample. (Requests and responses both carry
/// ids, so ordering is irrelevant.)
fn run_connection(
    addr: &str,
    conn: usize,
    schedule: &[(usize, Instant)],
    graphs: &[StreamGraph],
    samples: &Mutex<Vec<Sample>>,
    counts: &WireCounts,
) -> std::io::Result<()> {
    if schedule.is_empty() {
        return Ok(());
    }
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut out = stream.try_clone()?;
    // id → (graph index, scheduled send time), precomputed so the reader
    // can match responses while the writer is still pacing sends. The
    // writer never sends before the scheduled instant, so a latency
    // measured from it can only be late (open loop: queueing delay from
    // a late send is charged to the server, never hidden).
    let mut pending: HashMap<String, (usize, Instant)> = schedule
        .iter()
        .map(|&(i, at)| (format!("c{conn}-r{i}"), (i % graphs.len(), at)))
        .collect();
    std::thread::scope(|s| -> std::io::Result<()> {
        let reader = s.spawn(move || {
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while !pending.is_empty() {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => {
                        // Server closed the connection with requests
                        // still outstanding: short reads, not timeouts.
                        counts
                            .short_reads
                            .fetch_add(pending.len(), Ordering::Relaxed);
                        break;
                    }
                    Ok(_) => {
                        let Ok(resp) = WireResponse::parse(line.trim()) else {
                            counts.parse_errors.fetch_add(1, Ordering::Relaxed);
                            continue;
                        };
                        let Some((gi, at)) = resp.id().and_then(|id| pending.remove(id)) else {
                            counts.parse_errors.fetch_add(1, Ordering::Relaxed);
                            continue;
                        };
                        samples
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(Sample {
                                graph_index: gi,
                                latency_ms: at.elapsed().as_secs_f64() * 1e3,
                                response: resp,
                            });
                    }
                    Err(_) => {
                        counts.timeouts.fetch_add(pending.len(), Ordering::Relaxed);
                        break;
                    }
                }
            }
        });
        for &(i, at) in schedule {
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let req = AllocRequest {
                id: format!("c{conn}-r{i}"),
                graph: graphs[i % graphs.len()].clone(),
                source_rate: None,
                devices: None,
                v: None,
                deadline_ms: None,
            };
            // A send failure means the server cut this connection
            // (possibly by injected fault). Stop sending — the reader
            // sees EOF and classifies everything still pending as
            // short reads — instead of failing the whole bench.
            if out.write_all(req.to_line().as_bytes()).is_err()
                || out.write_all(b"\n").is_err()
                || out.flush().is_err()
            {
                break;
            }
        }
        let _ = out.shutdown(std::net::Shutdown::Write);
        reader
            .join()
            .map_err(|_| std::io::Error::other("bench reader thread panicked"))?;
        Ok(())
    })
}

/// What the drift bench measured: placement quality retained by the
/// warm-start path against the latency it saved, plus the empty-delta
/// replay consistency check.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Drift scenarios exercised (each: prior alloc → empty-delta
    /// replay → full re-alloc of the mutated graph → warm realloc).
    pub scenarios: usize,
    /// Reallocs answered by the warm-start path (`realloc: "warm"`).
    pub warm_ok: usize,
    /// Full re-allocations of the mutated graph that succeeded.
    pub full_ok: usize,
    /// Error responses or locally-unappliable deltas.
    pub errors: usize,
    /// True iff every empty-delta realloc returned the prior placement
    /// and bitwise-identical relative throughput, with no realloc
    /// marker.
    pub consistent: bool,
    /// Median warm-realloc round-trip latency (ms) — the gated metric.
    pub latency_p50_ms: f64,
    /// 99th-percentile warm-realloc round-trip latency (ms).
    pub latency_p99_ms: f64,
    /// Median full-pipeline round-trip latency on the mutated graph (ms).
    pub full_p50_ms: f64,
    /// `latency_p50_ms / full_p50_ms` — the acceptance bar is ≤ 0.25.
    pub latency_ratio: f64,
    /// Minimum over scenarios of warm relative throughput ÷ full
    /// relative throughput — the acceptance bar is ≥ 0.98.
    pub min_reward_ratio: f64,
    /// Server-side time in feature extraction + model forward (ms),
    /// parsed from the server's telemetry stream (`serve_metrics`).
    pub encode_ms: Option<f64>,
    /// Server-side time in decode → place → simulate (ms).
    pub rollout_ms: Option<f64>,
}

// Same omit-when-absent policy as [`BenchReport`]: a drift row without
// `--serve-metrics` simply has no split keys.
impl Serialize for DriftReport {
    fn serialize(&self) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> = vec![
            ("scenarios".into(), self.scenarios.serialize()),
            ("warm_ok".into(), self.warm_ok.serialize()),
            ("full_ok".into(), self.full_ok.serialize()),
            ("errors".into(), self.errors.serialize()),
            ("consistent".into(), self.consistent.serialize()),
            ("latency_p50_ms".into(), self.latency_p50_ms.serialize()),
            ("latency_p99_ms".into(), self.latency_p99_ms.serialize()),
            ("full_p50_ms".into(), self.full_p50_ms.serialize()),
            ("latency_ratio".into(), self.latency_ratio.serialize()),
            ("min_reward_ratio".into(), self.min_reward_ratio.serialize()),
        ];
        if let Some(e) = self.encode_ms {
            fields.push(("encode_ms".into(), e.serialize()));
        }
        if let Some(r) = self.rollout_ms {
            fields.push(("rollout_ms".into(), r.serialize()));
        }
        serde::Value::Object(fields)
    }
}

impl DriftReport {
    /// Pretty-printed JSON, the `BENCH_serve.json` row format.
    pub fn to_json(&self) -> String {
        // Cannot fire: the struct is all plain floats and integers.
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }
}

/// Run the drift bench: for each seeded scenario, allocate a graph,
/// verify the empty-delta replay reproduces the response, then race the
/// warm-start realloc against a full re-allocation of the mutated graph
/// and record the quality/latency trade. Requests are sequential on one
/// connection — this measures per-request service latency on a quiet
/// server, not throughput under load.
pub fn run_drift_bench(cfg: &BenchConfig) -> std::io::Result<DriftReport> {
    let spec = DatasetSpec::for_setting(Setting::XLarge);
    let devices = spec.cluster().devices;
    let rate = spec.source_rate;
    let stream = TcpStream::connect(&cfg.addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    // One request in flight at a time: without nodelay the measurement is
    // dominated by the Nagle/delayed-ACK stall (~40 ms), not the server.
    stream.set_nodelay(true)?;
    let mut out = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: String| -> std::io::Result<(WireResponse, f64)> {
        let t0 = Instant::now();
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
        let mut buf = String::new();
        if reader.read_line(&mut buf)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the drift-bench connection",
            ));
        }
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let resp = WireResponse::parse(buf.trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((resp, latency_ms))
    };

    let scenarios = cfg.graphs.max(1);
    let (mut warm_ok, mut full_ok, mut errors) = (0, 0, 0);
    let mut consistent = true;
    let mut warm_lat: Vec<f64> = Vec::with_capacity(scenarios);
    let mut full_lat: Vec<f64> = Vec::with_capacity(scenarios);
    let mut min_reward_ratio = f64::INFINITY;
    for i in 0..scenarios {
        let seed = cfg.seed.wrapping_add(i as u64);
        let g = spg_gen::generate_graph(&spec, seed);
        let prior_req = AllocRequest {
            id: format!("d{i}-prior"),
            graph: g.clone(),
            source_rate: Some(rate),
            devices: Some(devices),
            v: Some(2),
            deadline_ms: None,
        };
        let (resp, _) = roundtrip(prior_req.to_line())?;
        let WireResponse::Ok(prior) = resp else {
            errors += 1;
            continue;
        };

        // Empty-delta replay: must reproduce the prior response exactly.
        let replay = ReallocRequest {
            id: format!("d{i}-replay"),
            graph: g.clone(),
            prior_placement: prior.placement.clone(),
            delta: GraphDelta::default(),
            source_rate: Some(rate),
            devices: Some(devices),
            v: Some(2),
            deadline_ms: None,
        };
        match roundtrip(replay.to_line())? {
            (WireResponse::Ok(r), _) => {
                consistent &= r.placement == prior.placement
                    && r.relative_throughput.to_bits() == prior.relative_throughput.to_bits()
                    && r.realloc.is_none();
            }
            (WireResponse::Err(_), _) => errors += 1,
        }

        // Drift: full pipeline on the mutated graph vs warm realloc.
        let scenario = drift_scenario(&g, devices, rate, seed);
        let Ok(applied) = scenario.delta.apply(&g) else {
            errors += 1;
            continue;
        };
        let full_req = AllocRequest {
            id: format!("d{i}-full"),
            graph: applied.graph.clone(),
            source_rate: Some(scenario.delta.source_rate.unwrap_or(rate)),
            devices: Some(scenario.delta.devices.unwrap_or(devices)),
            v: Some(2),
            deadline_ms: None,
        };
        let (resp, full_ms) = roundtrip(full_req.to_line())?;
        let WireResponse::Ok(full) = resp else {
            errors += 1;
            continue;
        };
        full_ok += 1;
        full_lat.push(full_ms);

        let warm_req = ReallocRequest {
            id: format!("d{i}-warm"),
            graph: g.clone(),
            prior_placement: prior.placement.clone(),
            delta: scenario.delta.clone(),
            source_rate: Some(rate),
            devices: Some(devices),
            v: Some(2),
            deadline_ms: None,
        };
        let (resp, warm_ms) = roundtrip(warm_req.to_line())?;
        let WireResponse::Ok(warm) = resp else {
            errors += 1;
            continue;
        };
        warm_lat.push(warm_ms);
        if warm.realloc.as_deref() == Some("warm") {
            warm_ok += 1;
        }
        if full.relative_throughput > 0.0 {
            min_reward_ratio =
                min_reward_ratio.min(warm.relative_throughput / full.relative_throughput);
        }
    }
    if cfg.shutdown {
        out.write_all(shutdown_line().as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
    }
    // Same stage-split fold-in as `run_bench`: the drained server's
    // encode/rollout counters become the drift row's split.
    let (encode_ms, rollout_ms) = match &cfg.serve_metrics {
        Some(path) if cfg.shutdown => read_serve_split(path),
        _ => (None, None),
    };

    let latency_p50_ms = spg_obs::percentile(&warm_lat, 50.0);
    let full_p50_ms = spg_obs::percentile(&full_lat, 50.0);
    Ok(DriftReport {
        scenarios,
        warm_ok,
        full_ok,
        errors,
        consistent,
        latency_p50_ms,
        latency_p99_ms: spg_obs::percentile(&warm_lat, 99.0),
        full_p50_ms,
        latency_ratio: if full_p50_ms > 0.0 {
            latency_p50_ms / full_p50_ms
        } else {
            0.0
        },
        min_reward_ratio: if min_reward_ratio.is_finite() {
            min_reward_ratio
        } else {
            0.0
        },
        encode_ms,
        rollout_ms,
    })
}

/// `Duration * usize` without floating-point drift across thousands of
/// requests.
trait MulPrec {
    fn mul_prec(&self, n: usize) -> Duration;
}

impl MulPrec for Duration {
    fn mul_prec(&self, n: usize) -> Duration {
        Duration::from_nanos((self.as_nanos() as u64).saturating_mul(n as u64))
    }
}
