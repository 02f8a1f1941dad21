//! Long-running allocation service over the trained coarsening model.
//!
//! The server loads a checkpoint once, listens on TCP, and speaks a
//! line-delimited JSON protocol (`spg_graph::wire`, v1 and v2). It is
//! built for scale-out on one box:
//!
//! * **I/O**: a single readiness-driven event loop ([`router`], on the
//!   hand-rolled [`reactor`]) multiplexes every connection through one
//!   poll set — thousands of idle clients cost poll-set entries, not
//!   threads.
//! * **Compute**: [`ServeConfig::replicas`] shared-nothing replica
//!   workers (the `replica` module), each owning its own model copy, batcher,
//!   scratch arena, and LRU shard. Requests are rendezvous-hashed by
//!   their content fingerprint ([`lru::request_fingerprint`] →
//!   [`router::shard_of`]), so a repeat graph always lands on the
//!   replica whose cache already holds its placement.
//!
//! Each replica coalesces up to `max_batch` queued requests, answers
//! repeats from its LRU shard, runs **one** encoder forward pass over
//! the batch (`CoarsenModel::predict_probs_batch`), and fans decode →
//! placement → simulation over the deterministic worker pool
//! (`spg_core::rollout`).
//!
//! Every stage is measured through the telemetry sink (including
//! per-replica counters and queue-depth gauges), overload is surfaced
//! as a named `overloaded` wire error instead of an unbounded queue
//! (all request-level failures live in [`error::ServeError`]), and a
//! `shutdown` command drains every replica's in-flight work before the
//! server returns. Because greedy decoding and the content-seeded
//! placer are pure functions of the request, identical requests always
//! receive bitwise-identical placements — cached or not, one replica or
//! eight.
//!
//! [`mod@bench`] is the matching open-loop load generator behind
//! `spg bench-serve`.

pub mod bench;
pub mod error;
pub mod lru;
pub mod reactor;
mod replica;
pub mod router;
pub mod server;

pub use bench::{run_bench, run_drift_bench, BenchConfig, BenchReport, DriftReport};
pub use error::ServeError;
pub use lru::{quantized_fingerprint, realloc_fingerprint, request_fingerprint, LruCache};
pub use router::shard_of;
pub use server::{ConfigError, Precision, ServeConfig, ServeConfigBuilder, ServeReport, Server};
