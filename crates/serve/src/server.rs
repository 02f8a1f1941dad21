//! The allocation server: JSONL over TCP, sharded replicas, a
//! readiness-driven I/O loop, graceful drain.
//!
//! ## Architecture
//!
//! One **I/O thread** (the caller of [`Server::run`]) runs the
//! `router::io_loop` event loop: it polls the listener, the wake pipe,
//! and every client socket through the `reactor`, assembles request
//! lines from nonblocking reads, and rendezvous-hashes each valid
//! request by its content fingerprint onto one of
//! [`ServeConfig::replicas`] **replica threads**. Each replica is
//! shared-nothing — its own `CoarsenModel` copy (materialized from the
//! checkpoint), `InferenceScratch`, batcher, and LRU shard — so repeat
//! graphs always land on a warm cache and replicas never contend on a
//! lock (see `replica.rs` for the batch pipeline, `router.rs` for
//! routing).
//!
//! Queues are bounded per replica; a full shard queue answers
//! `overloaded` (backpressure) instead of buffering without limit.
//! Every stage is pure per request, so identical requests produce
//! bitwise-identical placements whether they hit the cache, share a
//! batch, run on different replica counts, or arrive years apart.
//!
//! ## Shutdown
//!
//! A `{"cmd":"shutdown"}` line makes the I/O loop drop its job senders:
//! each replica finishes its queued backlog (channel buffers drain
//! before disconnect is reported) and exits; late connects are answered
//! with `draining`; the loop flushes every remaining response and
//! [`Server::run`] joins the replicas into one aggregated
//! [`ServeReport`] with the per-shard breakdown attached.

use crate::lru::quantized_fingerprint;
use crate::reactor::WakePipe;
use crate::replica::{supervise_shard, Completion, Job};
use crate::router::io_loop;
use spg_core::checkpoint::Checkpoint;
use spg_core::rollout;
use spg_graph::ClusterSpec;
use spg_obs::TelemetrySink;
use std::fmt;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;

/// Numeric precision of the inference path serving allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full f32 inference — bitwise identical to the training forward
    /// (the default).
    #[default]
    F32,
    /// Opt-in int8 quantized inference: per-row symmetric weights,
    /// integer-accumulated matmuls, dequantized at layer boundaries.
    /// Deterministic across replicas and SIMD tiers, but placements may
    /// differ from f32 within the agreement bounds pinned by
    /// `tests/quantized_agreement.rs`. Cache keys carry the precision so
    /// int8 entries can never answer an f32 request.
    Int8,
}

impl Precision {
    /// A request or realloc fingerprint in this precision's key space:
    /// int8 keys carry the [`quantized_fingerprint`] tag, so int8 cache
    /// entries (and rollout seeds) can never answer an f32 request; f32
    /// keys are untouched.
    pub fn key(self, fingerprint: u64) -> u64 {
        match self {
            Precision::F32 => fingerprint,
            Precision::Int8 => quantized_fingerprint(fingerprint),
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::F32 => write!(f, "f32"),
            Precision::Int8 => write!(f, "int8"),
        }
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(Precision::F32),
            "int8" => Ok(Precision::Int8),
            other => Err(format!("unknown precision `{other}` (expected f32|int8)")),
        }
    }
}

/// Tuning of one [`Server`]. Construct via [`ServeConfig::builder`] (or
/// start from [`ServeConfig::default`] and reconfigure through the
/// builder); the struct is non-exhaustive so new knobs can be added
/// without breaking callers.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an OS-assigned port.
    pub addr: String,
    /// Shared-nothing replica workers, each with its own model copy,
    /// batcher, and LRU shard.
    pub replicas: usize,
    /// Maximum requests folded into one encoder forward pass (per
    /// replica).
    pub max_batch: usize,
    /// Bound of each replica's request queue; a full queue answers
    /// `overloaded`.
    pub queue_capacity: usize,
    /// Per-request deadline covering queue wait (ms); exceeded requests
    /// are answered with a `timeout` error instead of stale work.
    pub request_timeout_ms: u64,
    /// LRU capacity in placements per replica shard (0 disables
    /// caching).
    pub cache_capacity: usize,
    /// Rollout worker threads per replica (clamped to available
    /// parallelism).
    pub workers: usize,
    /// Metis placer seed (placements stay content-deterministic for any
    /// fixed value).
    pub seed: u64,
    /// Graceful-degradation watermark: once a shard's queue depth
    /// reaches this, new arrivals are marked cache-only — LRU hits
    /// still answer, misses shed as `overloaded` without an encode.
    /// 0 disables the policy.
    pub shed_watermark: usize,
    /// Inference precision; [`Precision::Int8`] is opt-in and folds a
    /// precision tag into every cache fingerprint.
    pub precision: Precision,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            replicas: 1,
            max_batch: 8,
            queue_capacity: 64,
            request_timeout_ms: 5_000,
            cache_capacity: 256,
            workers: rollout::default_workers(),
            seed: 7,
            shed_watermark: 0,
            precision: Precision::F32,
        }
    }
}

impl ServeConfig {
    /// Start a fluent builder seeded with the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }
}

/// A rejected [`ServeConfigBuilder::build`]: names the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The `ServeConfig` field that failed validation.
    pub field: &'static str,
    message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ServeConfig: `{}` {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Fluent construction of a [`ServeConfig`], mirroring
/// [`ReinforceTrainer::builder`]; every knob is optional, `build`
/// validates the combination and names the bad field on failure.
///
/// ```
/// # use spg_serve::ServeConfig;
/// let cfg = ServeConfig::builder()
///     .addr("127.0.0.1:0")
///     .replicas(2)
///     .max_batch(8)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.replicas, 2);
/// ```
///
/// [`ReinforceTrainer::builder`]: spg_core::ReinforceTrainer::builder
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Bind address (port 0 for an OS-assigned port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.addr = addr.into();
        self
    }

    /// Number of shared-nothing replica workers.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.cfg.replicas = replicas;
        self
    }

    /// Maximum requests per encoder forward pass.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.cfg.max_batch = max_batch;
        self
    }

    /// Bound of each replica's request queue.
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.cfg.queue_capacity = queue_capacity;
        self
    }

    /// Per-request deadline covering queue wait (ms).
    pub fn request_timeout_ms(mut self, ms: u64) -> Self {
        self.cfg.request_timeout_ms = ms;
        self
    }

    /// LRU capacity per replica shard (0 disables caching).
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cfg.cache_capacity = cache_capacity;
        self
    }

    /// Rollout worker threads per replica.
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Metis placer seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Queue-depth watermark past which cache-missing requests shed as
    /// `overloaded` (0 disables).
    pub fn shed_watermark(mut self, shed_watermark: usize) -> Self {
        self.cfg.shed_watermark = shed_watermark;
        self
    }

    /// Inference precision ([`Precision::F32`] by default; int8 is
    /// opt-in).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.cfg.precision = precision;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.replicas == 0 {
            return Err(ConfigError {
                field: "replicas",
                message: "must be >= 1 (got 0)".to_string(),
            });
        }
        if cfg.max_batch == 0 {
            return Err(ConfigError {
                field: "max_batch",
                message: "must be >= 1 (got 0)".to_string(),
            });
        }
        if cfg.addr.is_empty() {
            return Err(ConfigError {
                field: "addr",
                message: "must not be empty".to_string(),
            });
        }
        Ok(cfg)
    }
}

/// What a finished [`Server::run`] did (aggregated over replicas; the
/// per-shard breakdown is in [`ServeReport::per_replica`]).
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Allocation requests answered successfully.
    pub responses: u64,
    /// Requests answered with a named error.
    pub errors: u64,
    /// Encoder batches executed.
    pub batches: u64,
    /// Responses served from a shard LRU.
    pub cache_hits: u64,
    /// Responses that required fresh inference.
    pub cache_misses: u64,
    /// Wall time spent in feature extraction + model forward (ns).
    pub encode_ns: u64,
    /// Wall time spent in decode → place → simulate (ns).
    pub rollout_ns: u64,
    /// Batches whose disjoint-union topology was reused from the
    /// fingerprint-keyed `BatchUnion` cache.
    pub union_cache_hits: u64,
    /// Incremental `realloc` requests handled (any path).
    pub reallocs: u64,
    /// Reallocs answered by warm-started refinement (no model forward).
    pub warm_starts: u64,
    /// Requests that panicked inside a replica and were answered
    /// `internal` without killing the incarnation.
    pub panics_caught: u64,
    /// Replica incarnations respawned after an uncaught panic.
    pub replica_restarts: u64,
    /// Requests shed because their own `deadline_ms` budget lapsed.
    pub shed_deadline: u64,
    /// Cache-missing requests shed `overloaded` past the queue-depth
    /// watermark.
    pub shed_overload: u64,
    /// Per-replica reports, indexed by shard (empty inside the entries
    /// themselves).
    pub per_replica: Vec<ServeReport>,
}

impl ServeReport {
    /// Sum `other` (one replica's share) into this aggregate.
    fn absorb(&mut self, other: &ServeReport) {
        self.responses += other.responses;
        self.errors += other.errors;
        self.batches += other.batches;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.encode_ns += other.encode_ns;
        self.rollout_ns += other.rollout_ns;
        self.union_cache_hits += other.union_cache_hits;
        self.reallocs += other.reallocs;
        self.warm_starts += other.warm_starts;
        self.panics_caught += other.panics_caught;
        self.replica_restarts += other.replica_restarts;
        self.shed_deadline += other.shed_deadline;
        self.shed_overload += other.shed_overload;
    }
}

/// A bound listener, ready to [`Server::run`].
pub struct Server {
    listener: TcpListener,
    cfg: ServeConfig,
}

impl Server {
    /// Bind the listener (so the caller can learn the OS-assigned port
    /// before the blocking run starts).
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self { listener, cfg })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a shutdown request drains every replica. Blocks the
    /// calling thread (which runs the I/O event loop; replicas run on
    /// scoped threads, each materializing its own model copy from the
    /// checkpoint).
    ///
    /// `cluster` and `source_rate` are the defaults a request inherits
    /// when it omits its `devices` / `source_rate` overrides.
    pub fn run(
        self,
        checkpoint: Checkpoint,
        cluster: ClusterSpec,
        source_rate: f64,
        sink: &TelemetrySink,
    ) -> std::io::Result<ServeReport> {
        let Server { listener, cfg } = self;
        let replicas = cfg.replicas.max(1);
        let wake = WakePipe::new()?;
        let wakers: Vec<_> = (0..replicas)
            .map(|_| wake.waker())
            .collect::<std::io::Result<_>>()?;

        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        let mut job_txs = Vec::with_capacity(replicas);
        let mut job_rxs = Vec::with_capacity(replicas);
        for _ in 0..replicas {
            let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_capacity.max(1));
            job_txs.push(tx);
            job_rxs.push(rx);
        }

        let report = std::thread::scope(|s| {
            let handles: Vec<_> = job_rxs
                .into_iter()
                .zip(wakers)
                .enumerate()
                .map(|(shard, (rx, waker))| {
                    let done = done_tx.clone();
                    let ckpt = checkpoint.clone();
                    let cfg = &cfg;
                    s.spawn(move || {
                        supervise_shard(shard as u32, ckpt, rx, done, waker, cfg, cluster, sink)
                    })
                })
                .collect();
            // The loop must see `Disconnected` once the replicas exit,
            // so it holds no completion sender of its own.
            drop(done_tx);
            let io = io_loop(
                &listener,
                job_txs,
                &done_rx,
                &wake,
                &cfg,
                cluster,
                source_rate,
                sink,
            );
            let mut report = ServeReport {
                errors: io.protocol_errors,
                ..ServeReport::default()
            };
            for handle in handles {
                // Replica panics are caught inside `supervise_shard`; a
                // join error means the supervisor itself panicked — a
                // bug, but one the server's own result survives.
                match handle.join() {
                    Ok(shard_report) => {
                        report.absorb(&shard_report);
                        report.per_replica.push(shard_report);
                    }
                    Err(_) => {
                        sink.counter("serve.fault.supervisor_panics", 1);
                        eprintln!("serve: BUG: a shard supervisor panicked; its report is lost");
                        report.per_replica.push(ServeReport::default());
                    }
                }
            }
            report
        });
        sink.counter("serve.responses", report.responses);
        sink.counter("serve.errors", report.errors);
        sink.counter("serve.encode_ns", report.encode_ns);
        sink.counter("serve.rollout_ns", report.rollout_ns);
        sink.flush();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_default() {
        let built = ServeConfig::builder().build().unwrap();
        let default = ServeConfig::default();
        assert_eq!(built.addr, default.addr);
        assert_eq!(built.replicas, default.replicas);
        assert_eq!(built.max_batch, default.max_batch);
        assert_eq!(built.queue_capacity, default.queue_capacity);
        assert_eq!(built.request_timeout_ms, default.request_timeout_ms);
        assert_eq!(built.cache_capacity, default.cache_capacity);
        assert_eq!(built.workers, default.workers);
        assert_eq!(built.seed, default.seed);
        assert_eq!(built.shed_watermark, default.shed_watermark);
        assert_eq!(built.shed_watermark, 0, "shedding must default off");
        assert_eq!(built.precision, default.precision);
        assert_eq!(built.precision, Precision::F32, "int8 must be opt-in");
    }

    #[test]
    fn builder_sets_every_field() {
        let cfg = ServeConfig::builder()
            .addr("0.0.0.0:9000")
            .replicas(4)
            .max_batch(16)
            .queue_capacity(128)
            .request_timeout_ms(250)
            .cache_capacity(0)
            .workers(2)
            .seed(42)
            .shed_watermark(32)
            .precision(Precision::Int8)
            .build()
            .unwrap();
        assert_eq!(cfg.addr, "0.0.0.0:9000");
        assert_eq!(cfg.replicas, 4);
        assert_eq!(cfg.max_batch, 16);
        assert_eq!(cfg.queue_capacity, 128);
        assert_eq!(cfg.request_timeout_ms, 250);
        assert_eq!(cfg.cache_capacity, 0);
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.shed_watermark, 32);
        assert_eq!(cfg.precision, Precision::Int8);
    }

    #[test]
    fn precision_parses_and_displays() {
        assert_eq!("f32".parse::<Precision>().unwrap(), Precision::F32);
        assert_eq!("int8".parse::<Precision>().unwrap(), Precision::Int8);
        assert!("fp16".parse::<Precision>().is_err());
        assert_eq!(Precision::F32.to_string(), "f32");
        assert_eq!(Precision::Int8.to_string(), "int8");
    }

    #[test]
    fn builder_rejections_name_the_field() {
        let err = ServeConfig::builder().replicas(0).build().unwrap_err();
        assert_eq!(err.field, "replicas");
        assert!(err.to_string().contains("`replicas`"), "{err}");

        let err = ServeConfig::builder().max_batch(0).build().unwrap_err();
        assert_eq!(err.field, "max_batch");
        assert!(err.to_string().contains("`max_batch`"), "{err}");

        let err = ServeConfig::builder().addr("").build().unwrap_err();
        assert_eq!(err.field, "addr");
    }
}
