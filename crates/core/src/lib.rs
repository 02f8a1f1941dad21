//! # spg-core
//!
//! The paper's contribution: a **generalizable RL-based coarsening model**
//! for resource allocation over stream processing graphs, plus the
//! **coarsening-partitioning framework** around it.
//!
//! Pipeline (§III, Fig. 2):
//!
//! 1. [`encoder::EdgeAwareGnn`] encodes the graph with directional
//!    (upstream/downstream) node embeddings that mix in edge features
//!    (§IV-A).
//! 2. [`collapse::CollapseHead`] builds an edge representation from the
//!    head/tail node embeddings and the edge features, and predicts a
//!    Bernoulli *collapse* probability per directed edge (§IV-B).
//! 3. [`policy::CoarseningPolicy`] samples (training) or thresholds
//!    (inference) the decisions and contracts the graph.
//! 4. A [`pipeline::CoarsePlacer`] (Metis by default) places the coarse
//!    graph; the placement is lifted back to the original graph.
//! 5. [`reinforce::ReinforceTrainer`] trains everything end-to-end with
//!    REINFORCE on the relative-throughput reward, using a best-sample
//!    memory buffer and optional Metis-guided seeding (§III, §IV-C).
//! 6. [`curriculum`] implements the size-levels curriculum (§IV-C).

pub mod checkpoint;
pub mod collapse;
pub mod config;
pub mod curriculum;
pub mod encoder;
pub mod fault;
pub mod infer;
pub mod model;
pub mod pipeline;
pub mod policy;
pub mod reinforce;
pub mod rollout;

pub use checkpoint::{
    Checkpoint, CheckpointManager, ResumeError, TrainerState, CHECKPOINT_VERSION,
};
pub use config::CoarsenConfig;
pub use fault::{FaultError, FaultEvent, FaultKind, FaultPolicy, FaultStats, RecoveryAction};
pub use infer::{BatchUnion, InferenceScratch, QuantizedModel};
pub use model::{CoarsenModel, CoarsenNet};
pub use pipeline::{CoarsePlacer, CoarsenAllocator, CoarsenOracleAllocator, MetisCoarsePlacer};
pub use policy::{CoarseningPolicy, DecodeMode};
pub use reinforce::{ReinforceTrainer, ReinforceTrainerBuilder, TrainOptions, TrainStats};
pub use rollout::RewardCache;

/// Re-export of the observability crate so downstream users can build
/// sinks and parse event streams without a separate dependency.
pub use spg_obs as telemetry;
pub use spg_obs::TelemetrySink;
