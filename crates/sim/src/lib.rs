//! # spg-sim
//!
//! Throughput simulation for stream-processing allocations, replacing the
//! CEPSim simulator used by the paper.
//!
//! Two models are provided:
//!
//! * [`analytic`] — an exact bottleneck model. Because every load (CPU
//!   demand, link traffic) is linear in the source rate, the sustainable
//!   throughput is the source rate scaled by the tightest
//!   capacity/load ratio. This is what RL training uses (microseconds per
//!   evaluation).
//! * [`des`] — a discrete-time simulator with per-device round-robin
//!   scheduling, bounded queues and backpressure. It converges to the same
//!   steady state and validates the analytic model (see the cross-check
//!   integration tests).
//!
//! The reward used for REINFORCE is the paper's *relative throughput*
//! `r = T(G_y) / I(G_x) ∈ [0, 1]` ([`reward::relative_throughput`]).

pub mod analytic;
pub mod des;
pub mod hetero;
pub mod inject;
pub mod metrics;
pub mod reward;

pub use analytic::{simulate, Bottleneck, SimResult};
pub use des::{DesConfig, DesResult};
pub use hetero::simulate_hetero;
pub use reward::relative_throughput;
