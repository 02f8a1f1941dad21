//! One shared-nothing serving replica: model copy, batcher, LRU shard.
//!
//! A replica owns everything its shard needs — a model materialized at
//! the configured precision from the (cloneable, `Send`) checkpoint, the
//! reusable [`InferenceScratch`] arena, the [`BatchUnion`] topology
//! cache, and an LRU shard — so replicas never share mutable state and
//! never lock.
//! The router consistent-hashes by content fingerprint, which means a
//! repeat request always lands on the shard whose LRU already holds its
//! placement.
//!
//! The loop is drain-by-construction: it blocks on the job channel and
//! exits when every sender is gone. The router drops its senders the
//! moment a shutdown request arrives, so `recv` yields the queued
//! backlog (std channels deliver buffered messages before reporting
//! disconnect), the replica answers it, and returns its
//! [`ServeReport`] — no drain flags, no timeout ticks.
//!
//! Determinism is inherited, not re-argued: every stage is the same
//! pure-per-request pipeline the single-threaded batcher ran (greedy
//! decode ignores the RNG, the placer seeds from content, batched
//! forwards equal solo forwards), so the replica count cannot change a
//! single placement bit.

use crate::error::ServeError;
use crate::lru::LruCache;
use crate::reactor::Waker;
use crate::server::{Precision, ServeConfig, ServeReport};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_core::checkpoint::Checkpoint;
use spg_core::policy::{CoarseningPolicy, DecodeMode};
use spg_core::{
    rollout, BatchUnion, CoarsePlacer, CoarsenModel, InferenceScratch, MetisCoarsePlacer,
    QuantizedModel,
};
use spg_graph::wire::AllocResponse;
use spg_graph::{
    ClusterSpec, DeltaError, GraphDelta, GraphFeatures, Placement, StreamGraph, TupleRates,
};
use spg_obs::TelemetrySink;
use spg_partition::{realloc_decide, IncrementalConfig, ReallocDecision};
use spg_sim::inject::{self, Fault, Site};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long an injected [`Fault::Stall`] parks the replica —
/// long enough to build observable queue depth, short enough for tests.
const INJECTED_STALL: Duration = Duration::from_millis(400);

/// What a [`Job`] asks for: a fresh allocation, or an incremental
/// re-allocation from a prior placement through a graph delta.
// Allocs dominate queue traffic, but a Job already owns a full
// StreamGraph, so the variant-size gap is noise next to the payload.
#[allow(clippy::large_enum_variant)]
pub(crate) enum JobKind {
    Alloc,
    Realloc {
        prior_placement: Vec<u32>,
        delta: GraphDelta,
    },
}

/// A validated allocation request, routed to this replica's queue.
pub(crate) struct Job {
    /// Router-assigned sequence number: the key under which the job is
    /// tracked in the shard's [`FlightTable`] while a replica holds it.
    pub seq: u64,
    pub id: String,
    /// For a realloc this is the *prior* graph; the replica applies the
    /// delta itself.
    pub graph: StreamGraph,
    pub devices: usize,
    pub source_rate: f64,
    pub fingerprint: u64,
    pub kind: JobKind,
    /// Negotiated protocol version (1 unless the request said otherwise).
    pub version: u64,
    /// The request's own usefulness budget (v2 `deadline_ms`): lapsed
    /// jobs are shed before encode with `deadline-exceeded`.
    pub deadline_ms: Option<u64>,
    /// Set by the router past the shed watermark: answer from the LRU
    /// or shed as `overloaded` — no inference for this job.
    pub cache_only: bool,
    /// Which connection to deliver the answer to.
    pub conn: u64,
    pub enqueued: Instant,
}

/// The in-flight ledger a shard supervisor shares with its replica
/// incarnations: `(conn, request id)` of every job dequeued but not yet
/// answered, keyed by [`Job::seq`]. When an incarnation dies, the
/// supervisor drains this and answers each entry with `internal` — the
/// one-response-per-request invariant survives the panic. Single
/// thread, two scopes (loop and supervisor), hence `RefCell` not a lock.
pub(crate) type FlightTable = RefCell<HashMap<u64, (u64, String)>>;

/// The model one replica incarnation serves, at the configured precision.
// One per incarnation and never moved on the request path.
#[allow(clippy::large_enum_variant)]
enum ServedModel {
    F32(CoarsenModel),
    Int8(QuantizedModel),
}

impl ServedModel {
    /// Collapse probabilities for a batch, one cache key per item.
    fn predict(
        &self,
        union: &mut BatchUnion,
        scratch: &mut InferenceScratch,
        keys: &[u64],
        items: &[(&StreamGraph, &GraphFeatures)],
    ) -> Vec<Vec<f32>> {
        match self {
            Self::F32(m) => m.predict_probs_batch_with(union, scratch, Some(keys), items),
            Self::Int8(m) => m.predict_probs_batch_with(union, scratch, Some(keys), items),
        }
    }
}

/// A finished response line, heading back to the I/O loop.
pub(crate) struct Completion {
    pub conn: u64,
    pub shard: u32,
    pub line: String,
}

/// Run one shard under supervision until the router hangs up; returns
/// the shard's share of the serve report.
///
/// Each iteration runs one replica *incarnation* ([`replica_loop`])
/// under `catch_unwind`. A clean return is the drain signal. A panic
/// answers every job the dead incarnation had dequeued (the
/// [`FlightTable`]) with `internal`, bumps the generation — which
/// remaps [`inject::replica_key`] so a pinned fault stops firing — and
/// respawns a fresh incarnation from the retained checkpoint: new model
/// materialization, new batcher state, new (cold) LRU shard. Jobs still
/// buffered in the queue are untouched and served by the successor.
#[allow(clippy::too_many_arguments)]
pub(crate) fn supervise_shard(
    shard: u32,
    checkpoint: Checkpoint,
    rx: mpsc::Receiver<Job>,
    done: mpsc::Sender<Completion>,
    waker: Waker,
    cfg: &ServeConfig,
    base_cluster: ClusterSpec,
    sink: &TelemetrySink,
) -> ServeReport {
    let mut report = ServeReport::default();
    let flight = FlightTable::default();
    let mut generation: u64 = 0;
    loop {
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            replica_loop(
                shard,
                checkpoint.clone(),
                &rx,
                &done,
                &waker,
                cfg,
                base_cluster,
                sink,
                &mut report,
                &flight,
                generation,
            )
        }));
        match run {
            Ok(()) => break,
            Err(_) => {
                // Answer everything the dead incarnation was holding:
                // the client gets `internal` now instead of silence.
                let orphans: Vec<(u64, String)> = flight
                    .borrow_mut()
                    .drain()
                    .map(|(_, entry)| entry)
                    .collect();
                let err = ServeError::Internal(format!("replica {shard} restarted after a panic"));
                for (conn, id) in orphans {
                    report.errors += 1;
                    sink.counter("serve.fault.inflight_failed", 1);
                    let line = err.response(Some(id)).to_line();
                    let _ = done.send(Completion { conn, shard, line });
                }
                report.replica_restarts += 1;
                sink.counter("serve.fault.replica_restarts", 1);
                generation += 1;
                waker.wake();
            }
        }
    }
    sink.counter(
        &format!("serve.replica.{shard}.responses"),
        report.responses,
    );
    sink.counter(&format!("serve.replica.{shard}.errors"), report.errors);
    sink.counter(&format!("serve.replica.{shard}.batches"), report.batches);
    sink.counter(
        &format!("serve.replica.{shard}.cache_hits"),
        report.cache_hits,
    );
    let lookups = report.cache_hits + report.cache_misses;
    if lookups > 0 {
        sink.gauge(
            &format!("serve.replica.{shard}.shard_hit_rate"),
            report.cache_hits as f64 / lookups as f64,
        );
    }
    // One last wake: the I/O loop notices this sender is gone and can
    // finish its drain bookkeeping.
    waker.wake();
    report
}

/// Run one replica incarnation until the router hangs up (clean drain)
/// or a panic unwinds into the supervisor. Cumulative counts go through
/// `report`, which lives in the supervisor so they survive a panic.
#[allow(clippy::too_many_arguments)]
fn replica_loop(
    shard: u32,
    checkpoint: Checkpoint,
    rx: &mpsc::Receiver<Job>,
    done: &mpsc::Sender<Completion>,
    waker: &Waker,
    cfg: &ServeConfig,
    base_cluster: ClusterSpec,
    sink: &TelemetrySink,
    report: &mut ServeReport,
    flight: &FlightTable,
    generation: u64,
) {
    let model = checkpoint.into_model();
    let policy = CoarseningPolicy::from_config(&model.config);
    // Quantized once per incarnation: scale selection never runs per
    // request.
    let model = match cfg.precision {
        Precision::F32 => ServedModel::F32(model),
        Precision::Int8 => ServedModel::Int8(model.quantize()),
    };
    let placer = MetisCoarsePlacer::new(cfg.seed);
    let mut cache: LruCache<(Vec<u32>, f64)> = LruCache::new(cfg.cache_capacity);
    let mut union = BatchUnion::new();
    let mut scratch = InferenceScratch::new();
    let timeout = Duration::from_millis(cfg.request_timeout_ms);
    let workers = cfg.workers.clamp(1, rollout::default_workers());
    let inc_cfg = IncrementalConfig::default();
    // Every answer path retires its flight entry *before* the send, so
    // a panic can never double-answer a request.
    let respond = |seq: u64, conn: u64, line: String| {
        flight.borrow_mut().remove(&seq);
        let _ = done.send(Completion { conn, shard, line });
    };
    let v2_fields = |version: u64| {
        if version >= 2 {
            (Some(2), Some(shard))
        } else {
            (None, None)
        }
    };

    while let Ok(first) = rx.recv() {
        let mut jobs = vec![first];
        while jobs.len() < cfg.max_batch.max(1) {
            match rx.try_recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        // Dequeued jobs enter the flight ledger before any fallible
        // work: from here on, a replica death answers them `internal`.
        {
            let mut inflight = flight.borrow_mut();
            for job in &jobs {
                inflight.insert(job.seq, (job.conn, job.id.clone()));
            }
        }

        let _batch_span = sink.span("serve.batch");
        sink.hist("serve.batch_size", jobs.len() as f64);
        report.batches += 1;

        // Admission: injected faults, the request's own deadline, the
        // server deadline, the shard LRU, then the watermark shed.
        let now = Instant::now();
        let mut todo: Vec<Job> = Vec::with_capacity(jobs.len());
        let mut reallocs: Vec<Job> = Vec::new();
        for job in jobs {
            match cfg.faults.decide(
                Site::ReplicaWork,
                inject::replica_key(job.fingerprint, generation),
            ) {
                // An unguarded panic: the incarnation dies and the
                // supervisor answers the flight ledger.
                Some(Fault::Kill) => {
                    panic!("injected replica kill (shard {shard})")
                }
                Some(Fault::Stall) => std::thread::sleep(INJECTED_STALL),
                // A panic through the same catch_unwind isolation an
                // organic per-request panic gets: this request fails
                // alone, the incarnation lives.
                Some(Fault::WorkerPanic) => {
                    let _ = std::panic::catch_unwind(|| {
                        panic!("injected worker panic (shard {shard})")
                    });
                    report.errors += 1;
                    report.panics_caught += 1;
                    sink.counter("serve.fault.panics_caught", 1);
                    let err =
                        ServeError::Internal(format!("replica {shard} caught an injected panic"));
                    respond(job.seq, job.conn, err.response(Some(job.id)).to_line());
                    continue;
                }
                _ => {}
            }
            let waited = now.duration_since(job.enqueued);
            sink.hist("serve.queue_wait_ms", waited.as_secs_f64() * 1e3);
            // The client's own budget first: a lapsed request is waste
            // either way, so it sheds before the server deadline and
            // before any inference. A budget of 0 sheds unconditionally.
            if let Some(budget) = job.deadline_ms {
                if waited.as_millis() >= budget as u128 {
                    report.errors += 1;
                    report.shed_deadline += 1;
                    sink.counter("serve.fault.shed_deadline", 1);
                    let err = ServeError::DeadlineExceeded {
                        waited_ms: waited.as_millis(),
                        deadline_ms: budget,
                    };
                    respond(job.seq, job.conn, err.response(Some(job.id)).to_line());
                    continue;
                }
            }
            if waited > timeout {
                report.errors += 1;
                let err = ServeError::Timeout {
                    waited_ms: waited.as_millis(),
                    deadline_ms: cfg.request_timeout_ms,
                };
                respond(job.seq, job.conn, err.response(Some(job.id)).to_line());
                continue;
            }
            if let Some((placement, relative)) = cache.get(job.fingerprint) {
                report.responses += 1;
                let (v, shard_tag) = v2_fields(job.version);
                let resp = AllocResponse {
                    id: job.id,
                    placement: placement.clone(),
                    relative_throughput: *relative,
                    cached: true,
                    v,
                    shard: shard_tag,
                    realloc: None,
                };
                respond(job.seq, job.conn, resp.to_line());
                continue;
            }
            // Past the watermark the router marks jobs cache-only:
            // hits (above) still answer, misses shed instead of
            // spending an encode on a queue that is already behind.
            if job.cache_only {
                report.errors += 1;
                report.shed_overload += 1;
                sink.counter("serve.fault.shed_overload", 1);
                let err = ServeError::Overloaded {
                    queue_capacity: cfg.queue_capacity,
                };
                respond(job.seq, job.conn, err.response(Some(job.id)).to_line());
                continue;
            }
            if matches!(job.kind, JobKind::Realloc { .. }) {
                reallocs.push(job);
                continue;
            }
            todo.push(job);
        }

        // Incremental re-allocations run outside the batch path: the
        // warm start is refinement-only (no model forward), and the
        // above-threshold fallback runs the identical solo pipeline an
        // alloc of the mutated graph would run — keyed and seeded by
        // that graph's own request fingerprint, so the fallback answer
        // is bit-identical to the equivalent alloc's.
        for job in reallocs {
            report.reallocs += 1;
            let JobKind::Realloc {
                prior_placement,
                delta,
            } = &job.kind
            else {
                unreachable!("reallocs holds only realloc jobs");
            };
            let base = ClusterSpec {
                devices: job.devices,
                ..base_cluster
            };
            // Per-request panic isolation: an organic panic anywhere in
            // decide/refine/fallback fails this request alone.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let decision = {
                    let _span = sink.span("serve.realloc");
                    realloc_decide(
                        &job.graph,
                        prior_placement,
                        delta,
                        &base,
                        job.source_rate,
                        &inc_cfg,
                    )
                };
                match decision {
                    Err(DeltaError::BadDelta(d)) => Err(ServeError::BadRequest(d)),
                    Err(DeltaError::InvalidResult(d)) => Err(ServeError::InvalidGraph(d)),
                    // An empty delta reproduces the prior response exactly
                    // (no path marker: the bytes must match the original).
                    Ok(ReallocDecision::Unchanged { relative }) => {
                        Ok((prior_placement.clone(), relative, None))
                    }
                    Ok(ReallocDecision::Warm {
                        placement,
                        relative,
                        ..
                    }) => {
                        report.warm_starts += 1;
                        Ok((placement.as_slice().to_vec(), relative, Some("warm")))
                    }
                    Ok(ReallocDecision::Full {
                        graph,
                        devices,
                        source_rate,
                    }) => {
                        let (placement, relative) = solo_alloc(
                            &graph,
                            devices,
                            source_rate,
                            base_cluster,
                            cfg.precision,
                            &model,
                            &policy,
                            &placer,
                            &mut union,
                            &mut scratch,
                            report,
                        );
                        Ok((placement, relative, Some("full")))
                    }
                }
            }));
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(_) => {
                    // The batcher state may be mid-update; rebuild it.
                    union = BatchUnion::new();
                    scratch = InferenceScratch::new();
                    report.panics_caught += 1;
                    sink.counter("serve.fault.panics_caught", 1);
                    Err(ServeError::Internal(format!(
                        "replica {shard} panicked during realloc; request failed"
                    )))
                }
            };
            let (placement, relative, path) = match outcome {
                Ok(t) => t,
                Err(err) => {
                    report.errors += 1;
                    respond(job.seq, job.conn, err.response(Some(job.id)).to_line());
                    continue;
                }
            };
            report.responses += 1;
            let (v, shard_tag) = v2_fields(job.version);
            let resp = AllocResponse {
                id: job.id,
                placement: placement.clone(),
                relative_throughput: relative,
                cached: false,
                v,
                shard: shard_tag,
                realloc: path.map(str::to_string),
            };
            respond(job.seq, job.conn, resp.to_line());
            cache.insert(job.fingerprint, (placement, relative));
        }

        if todo.is_empty() {
            waker.wake();
            continue;
        }

        // Identical requests sharing a batch share one computation.
        let mut unique: Vec<usize> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(todo.len());
        for (i, job) in todo.iter().enumerate() {
            match unique
                .iter()
                .position(|&u| todo[u].fingerprint == job.fingerprint)
            {
                Some(slot) => slot_of.push(slot),
                None => {
                    unique.push(i);
                    slot_of.push(unique.len() - 1);
                }
            }
        }

        // ONE forward pass over the disjoint union of the unique
        // graphs, then the decode → place → simulate fan-out. The whole
        // batch computation is panic-isolated: an organic panic fails
        // only this batch's requests with `internal`, the scratch state
        // is rebuilt, and the incarnation lives on.
        let work = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let encode_start = Instant::now();
            let (prepared, probs) = {
                let _span = sink.span("serve.encode");
                let prepared: Vec<(TupleRates, GraphFeatures, ClusterSpec)> = unique
                    .iter()
                    .map(|&i| {
                        let job = &todo[i];
                        // A `devices` override keeps the server cluster's
                        // per-device MIPS and link bandwidth.
                        let cluster = ClusterSpec {
                            devices: job.devices,
                            ..base_cluster
                        };
                        let rates = TupleRates::compute(&job.graph, job.source_rate);
                        let feats = GraphFeatures::extract_with_rates(&job.graph, &cluster, &rates);
                        (rates, feats, cluster)
                    })
                    .collect();
                let probs = {
                    let items: Vec<(&StreamGraph, &GraphFeatures)> = unique
                        .iter()
                        .zip(&prepared)
                        .map(|(&i, (_, feats, _))| (&todo[i].graph, feats))
                        .collect();
                    // The request fingerprint keys the union cache: it covers
                    // topology, devices, and rate — everything the features
                    // are derived from.
                    let keys: Vec<u64> = unique.iter().map(|&i| todo[i].fingerprint).collect();
                    model.predict(&mut union, &mut scratch, &keys, &items)
                };
                (prepared, probs)
            };
            report.encode_ns += encode_start.elapsed().as_nanos() as u64;

            let rollout_start = Instant::now();
            let results: Vec<(Vec<u32>, f64)> = {
                let _span = sink.span("serve.rollout");
                let (todo, unique, policy, placer) = (&todo, &unique, &policy, &placer);
                let (prepared, probs) = (&prepared, &probs);
                rollout::run_ordered(workers, unique.len(), move |u| {
                    let job = &todo[unique[u]];
                    let (rates, _, cluster) = &prepared[u];
                    let (graph, key) = (&job.graph, job.fingerprint);
                    place(policy, placer, graph, cluster, rates, &probs[u], key)
                })
            };
            report.rollout_ns += rollout_start.elapsed().as_nanos() as u64;
            results
        }));
        let results = match work {
            Ok(results) => results,
            Err(_) => {
                union = BatchUnion::new();
                scratch = InferenceScratch::new();
                report.panics_caught += 1;
                sink.counter("serve.fault.panics_caught", 1);
                let err = ServeError::Internal(format!(
                    "replica {shard} panicked during batch inference; request failed"
                ));
                for job in &todo {
                    report.errors += 1;
                    respond(
                        job.seq,
                        job.conn,
                        err.response(Some(job.id.clone())).to_line(),
                    );
                }
                waker.wake();
                continue;
            }
        };

        for (job, &slot) in todo.iter().zip(&slot_of) {
            let (placement, relative) = &results[slot];
            report.responses += 1;
            let (v, shard_tag) = v2_fields(job.version);
            let resp = AllocResponse {
                id: job.id.clone(),
                placement: placement.clone(),
                relative_throughput: *relative,
                cached: false,
                v,
                shard: shard_tag,
                realloc: None,
            };
            respond(job.seq, job.conn, resp.to_line());
            cache.insert(job.fingerprint, (placement.clone(), *relative));
        }
        waker.wake();
    }

    // Clean drain exit: fold this incarnation's cache stats into the
    // shard total. (A panicked incarnation loses its cache stats with
    // its cache — the counts are diagnostic, not load-bearing.)
    report.cache_hits += cache.hits();
    report.cache_misses += cache.misses();
    report.union_cache_hits += union.cache_hits();
    waker.wake();
}

/// The full pipeline for one graph — the above-threshold realloc
/// fallback. Keyed and RNG-seeded by the *mutated* graph's own request
/// fingerprint — precision-tagged exactly like the router keys — so the
/// result is bit-identical to what a plain alloc of that graph would
/// return on the same server (and the union cache is shared with it).
#[allow(clippy::too_many_arguments)]
fn solo_alloc(
    graph: &StreamGraph,
    devices: usize,
    source_rate: f64,
    base_cluster: ClusterSpec,
    precision: Precision,
    model: &ServedModel,
    policy: &CoarseningPolicy,
    placer: &MetisCoarsePlacer,
    union: &mut BatchUnion,
    scratch: &mut InferenceScratch,
    report: &mut ServeReport,
) -> (Vec<u32>, f64) {
    let key = precision.key(crate::lru::request_fingerprint(graph, devices, source_rate));
    let cluster = ClusterSpec {
        devices,
        ..base_cluster
    };
    let encode_start = Instant::now();
    let rates = TupleRates::compute(graph, source_rate);
    let feats = GraphFeatures::extract_with_rates(graph, &cluster, &rates);
    let probs = model.predict(union, scratch, &[key], &[(graph, &feats)]);
    report.encode_ns += encode_start.elapsed().as_nanos() as u64;

    let rollout_start = Instant::now();
    let result = place(policy, placer, graph, &cluster, &rates, &probs[0], key);
    report.rollout_ns += rollout_start.elapsed().as_nanos() as u64;
    result
}

/// Decode → place → lift → reward for one request: greedy collapse
/// decisions, the coarse placement lifted back to the graph, and its
/// analytic relative throughput. Greedy decoding ignores the RNG; it is
/// seeded from the request key so even a non-greedy mode would stay
/// request-deterministic.
fn place(
    policy: &CoarseningPolicy,
    placer: &MetisCoarsePlacer,
    graph: &StreamGraph,
    cluster: &ClusterSpec,
    rates: &TupleRates,
    probs: &[f32],
    key: u64,
) -> (Vec<u32>, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(key);
    let decisions = policy.decode(probs, DecodeMode::Greedy, &mut rng);
    let coarsening = policy.apply(graph, rates, cluster, &decisions, probs);
    let coarse = placer.place_coarse(&coarsening.coarse, cluster);
    let placement = Placement::lift(&coarse, &coarsening.node_map);
    let relative =
        spg_sim::reward::relative_throughput_with_rates(graph, cluster, &placement, rates);
    (placement.as_slice().to_vec(), relative)
}
