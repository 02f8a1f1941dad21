//! REINFORCE training (§III) with a best-sample memory buffer and optional
//! Metis-guided seeding (§IV-C).
//!
//! Per graph and step: one differentiable forward pass produces the edge
//! logits; several on-policy decision vectors are sampled and evaluated by
//! the simulator; buffered historically-best samples (and, early on,
//! Metis-derived samples) are added; the policy gradient
//! `∇J = (1/N) Σ ∇log π(a_n) · (r_n − b)` uses the mean reward of the
//! considered samples as the baseline `b`.
//!
//! Rollouts run on the [`crate::rollout`] engine: the samples of a step
//! (and the graphs of an evaluation pass) fan out over
//! [`TrainOptions::num_workers`] threads with results bitwise identical
//! to the sequential path, and rewards are memoized per graph so
//! repeated decision vectors skip the simulator. Forward/backward passes
//! stay on the calling thread — model parameters are `Rc`-shared.

use crate::checkpoint::{Checkpoint, CheckpointManager, ResumeError, SampleState, TrainerState};
use crate::fault::{FaultError, FaultEvent, FaultKind, FaultPolicy, FaultStats, RecoveryAction};
use crate::model::CoarsenModel;
use crate::pipeline::CoarsePlacer;
use crate::policy::{priority_by_prob, CoarseningPolicy, DecodeMode};
use crate::rollout::{self, RewardCache, RolloutOutcome};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spg_graph::{ClusterSpec, GraphFeatures, Placement, StreamGraph, TupleRates};
use spg_nn::{Adam, Matrix, Tape};
use spg_obs::TelemetrySink;
use spg_sim::inject::{self, Fault, FaultInjector, Site};
use std::time::Instant;

/// Trainer options.
///
/// Construct fluently — the struct is `#[non_exhaustive]` so new knobs can
/// be added without breaking downstream code:
///
/// ```
/// use spg_core::TrainOptions;
/// let opts = TrainOptions::new().seed(7).metis_guided(false).num_workers(1);
/// assert_eq!(opts.seed, 7);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TrainOptions {
    /// On-policy samples per step (paper: 3).
    pub on_policy_samples: usize,
    /// Buffer samples mixed in per step (paper: up to 3).
    pub buffer_samples: usize,
    /// Historically-best samples kept per graph.
    pub buffer_capacity: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Seed the buffers with Metis-derived collapse decisions (§IV-C).
    pub metis_guided: bool,
    /// Drop Metis-guided samples once an on-policy sample beats them.
    pub drop_guided_when_beaten: bool,
    /// RNG seed.
    pub seed: u64,
    /// Requested rollout worker threads (default: available
    /// parallelism; `1` runs the sequential path). The count actually
    /// used is [`TrainOptions::effective_workers`], which clamps to the
    /// machine's available parallelism. Results are bitwise identical
    /// for every value — see [`crate::rollout`].
    pub num_workers: usize,
    /// What to do when a non-finite value or worker panic is detected
    /// during training (default: [`FaultPolicy::Abort`]).
    pub fault_policy: FaultPolicy,
    /// Write a periodic checkpoint snapshot every N epochs (0 disables;
    /// consumed by [`crate::checkpoint::CheckpointManager`] / the CLI).
    pub checkpoint_every: usize,
    /// How many periodic snapshots to retain (keep-last-K).
    pub checkpoint_keep: usize,
    /// Faults to inject into this run's rollouts and periodic snapshots
    /// (empty by default; see [`spg_sim::inject`]).
    pub faults: FaultInjector,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            on_policy_samples: 3,
            buffer_samples: 3,
            buffer_capacity: 3,
            lr: 1e-3,
            metis_guided: true,
            drop_guided_when_beaten: true,
            seed: 0,
            num_workers: rollout::default_workers(),
            fault_policy: FaultPolicy::default(),
            checkpoint_every: 0,
            checkpoint_keep: 3,
            faults: FaultInjector::default(),
        }
    }
}

impl TrainOptions {
    /// The paper's defaults (same as [`Default`]), as a fluent base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the number of on-policy samples per step.
    pub fn on_policy_samples(mut self, n: usize) -> Self {
        self.on_policy_samples = n;
        self
    }

    /// Set the number of buffer samples mixed in per step.
    pub fn buffer_samples(mut self, n: usize) -> Self {
        self.buffer_samples = n;
        self
    }

    /// Set the number of historically-best samples kept per graph.
    pub fn buffer_capacity(mut self, n: usize) -> Self {
        self.buffer_capacity = n;
        self
    }

    /// Set the Adam learning rate.
    pub fn lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Enable/disable Metis-guided buffer seeding.
    pub fn metis_guided(mut self, on: bool) -> Self {
        self.metis_guided = on;
        self
    }

    /// Enable/disable dropping guided samples once beaten.
    pub fn drop_guided_when_beaten(mut self, on: bool) -> Self {
        self.drop_guided_when_beaten = on;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the rollout worker-thread count.
    pub fn num_workers(mut self, n: usize) -> Self {
        self.num_workers = n;
        self
    }

    /// Worker count actually used for rollouts: [`Self::num_workers`]
    /// clamped to the machine's available parallelism. A pool wider
    /// than the core count only adds scheduling overhead (on a 1-core
    /// container `--workers 4` benched *slower* than `1`), so requests
    /// the hardware cannot honour degrade to the sequential path
    /// instead of a pessimization.
    pub fn effective_workers(&self) -> usize {
        self.num_workers.clamp(1, rollout::default_workers())
    }

    /// Set the fault-recovery policy.
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// Set the periodic-checkpoint interval in epochs (0 disables).
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Set the number of periodic snapshots to retain.
    pub fn checkpoint_keep(mut self, n: usize) -> Self {
        self.checkpoint_keep = n;
        self
    }

    /// Set the fault plan injected into this run.
    pub fn faults(mut self, plan: FaultInjector) -> Self {
        self.faults = plan;
        self
    }
}

/// Statistics of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Mean on-policy reward over the epoch.
    pub mean_reward: f64,
    /// Mean best-in-buffer reward over graphs.
    pub mean_best: f64,
    /// Number of policy-gradient steps taken.
    pub steps: usize,
}

/// A buffered sample: decisions, its reward, and whether it came from the
/// Metis guide.
#[derive(Debug, Clone)]
struct BufferedSample {
    decisions: Vec<bool>,
    reward: f64,
    guided: bool,
}

/// Everything precomputed per training graph.
struct Instance {
    graph: StreamGraph,
    rates: TupleRates,
    feats: GraphFeatures,
    buffer: Vec<BufferedSample>,
}

/// The REINFORCE trainer. Owns the model during training.
///
/// Construct with [`ReinforceTrainer::builder`]:
///
/// ```no_run
/// # use spg_core::{CoarsenConfig, CoarsenModel, MetisCoarsePlacer, ReinforceTrainer, TrainOptions};
/// # use rand::SeedableRng;
/// # let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// # let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
/// # let graphs = Vec::new();
/// # let cluster = spg_graph::ClusterSpec::paper_medium(4);
/// let mut trainer = ReinforceTrainer::builder(model, MetisCoarsePlacer::new(1))
///     .graphs(graphs)
///     .cluster(cluster)
///     .source_rate(1e4)
///     .options(TrainOptions::new().seed(7))
///     .build();
/// ```
pub struct ReinforceTrainer<P: CoarsePlacer> {
    /// The model being trained.
    pub model: CoarsenModel,
    /// Placement backend used inside the reward rollout.
    pub placer: P,
    /// Options.
    pub options: TrainOptions,
    policy: CoarseningPolicy,
    adam: Adam,
    instances: Vec<Instance>,
    cluster: ClusterSpec,
    source_rate: f64,
    rng: ChaCha8Rng,
    cache: RewardCache,
    sink: TelemetrySink,
    epochs_run: u64,
    /// Per-graph quarantine flags set by the fault policy.
    quarantined: Vec<bool>,
    fault_stats: FaultStats,
    fault_log: Vec<FaultEvent>,
    /// Cache counters at the end of the previous epoch (for deltas).
    prev_cache: (u64, u64),
}

/// Fluent construction of a [`ReinforceTrainer`]. Obtain via
/// [`ReinforceTrainer::builder`]; `graphs`, `cluster`, and `source_rate`
/// are required (or [`Self::dataset`] for all three), options and the
/// telemetry sink are optional.
pub struct ReinforceTrainerBuilder<P: CoarsePlacer> {
    model: CoarsenModel,
    placer: P,
    graphs: Vec<StreamGraph>,
    cluster: Option<ClusterSpec>,
    source_rate: Option<f64>,
    options: TrainOptions,
    sink: TelemetrySink,
}

impl<P: CoarsePlacer> ReinforceTrainerBuilder<P> {
    /// Set the training graphs.
    pub fn graphs(mut self, graphs: Vec<StreamGraph>) -> Self {
        self.graphs = graphs;
        self
    }

    /// Set the cluster environment.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Set the source tuple rate (tuples/second).
    pub fn source_rate(mut self, rate: f64) -> Self {
        self.source_rate = Some(rate);
        self
    }

    /// Take graphs, cluster, and source rate from a serialised dataset.
    pub fn dataset(mut self, ds: spg_graph::serialize::Dataset) -> Self {
        self.graphs = ds.graphs;
        self.cluster = Some(ds.cluster);
        self.source_rate = Some(ds.source_rate);
        self
    }

    /// Set all trainer options at once.
    pub fn options(mut self, options: TrainOptions) -> Self {
        self.options = options;
        self
    }

    /// Shorthand for setting only the RNG seed on the current options.
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Attach a telemetry sink (default: disabled). Telemetry is
    /// observability only — training results are bitwise identical with
    /// any sink.
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.sink = sink;
        self
    }

    /// Build the trainer: precomputes rates/features and, if configured,
    /// Metis-guided buffer seeds.
    ///
    /// # Panics
    /// If `cluster` or `source_rate` was not provided.
    pub fn build(self) -> ReinforceTrainer<P> {
        let cluster = self.cluster.expect(
            "ReinforceTrainer builder: cluster not set (call .cluster(..) or .dataset(..))",
        );
        let source_rate = self.source_rate.expect(
            "ReinforceTrainer builder: source_rate not set (call .source_rate(..) or .dataset(..))",
        );
        let (model, placer, options, sink) = (self.model, self.placer, self.options, self.sink);
        let policy = CoarseningPolicy::from_config(&model.config);
        let adam = Adam::new(options.lr);
        let mut rng = ChaCha8Rng::seed_from_u64(options.seed);

        let mut instances: Vec<Instance> = self
            .graphs
            .into_iter()
            .map(|graph| {
                let rates = TupleRates::compute(&graph, source_rate);
                let feats = GraphFeatures::extract_with_rates(&graph, &cluster, &rates);
                Instance {
                    graph,
                    rates,
                    feats,
                    buffer: Vec::new(),
                }
            })
            .collect();

        if options.metis_guided {
            for (i, inst) in instances.iter_mut().enumerate() {
                // Instance `i`'s guide seeds from the run seed and `i`.
                let step = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let seed = (options.seed ^ 0xC0FFEE).wrapping_add(step);
                let metis = spg_partition::MetisAllocator::new(seed);
                let placement =
                    spg_graph::Allocator::allocate(&metis, &inst.graph, &cluster, source_rate);
                let decisions = spg_partition::guided::infer_collapsed_edges(
                    &inst.graph,
                    &inst.rates,
                    placement.as_slice(),
                );
                // Reward of replaying the guided decisions through our own
                // pipeline (not of the raw Metis placement) — that is what
                // the policy is asked to imitate. Not timed, so every
                // rollout timing falls inside an epoch.
                let priority = priority_by_prob(&vec![0.5f32; decisions.len()]);
                let reward = rollout_reward(
                    &policy,
                    &inst.graph,
                    &inst.rates,
                    &cluster,
                    &decisions,
                    &priority,
                    &placer,
                    &TelemetrySink::disabled(),
                );
                inst.buffer.push(BufferedSample {
                    decisions,
                    reward,
                    guided: true,
                });
            }
        }

        // Fresh rng stream decoupled from seeding above.
        rng.set_word_pos(1 << 20);

        let cache = RewardCache::new(instances.len());
        let quarantined = vec![false; instances.len()];
        ReinforceTrainer {
            model,
            placer,
            options,
            policy,
            adam,
            instances,
            cluster,
            source_rate,
            rng,
            cache,
            sink,
            epochs_run: 0,
            quarantined,
            fault_stats: FaultStats::default(),
            fault_log: Vec::new(),
            prev_cache: (0, 0),
        }
    }
}

impl<P: CoarsePlacer> ReinforceTrainer<P> {
    /// Start building a trainer for `model` with `placer` as the placement
    /// backend. See [`ReinforceTrainerBuilder`].
    pub fn builder(model: CoarsenModel, placer: P) -> ReinforceTrainerBuilder<P> {
        ReinforceTrainerBuilder {
            model,
            placer,
            graphs: Vec::new(),
            cluster: None,
            source_rate: None,
            options: TrainOptions::default(),
            sink: TelemetrySink::disabled(),
        }
    }

    /// Number of training graphs.
    pub fn num_graphs(&self) -> usize {
        self.instances.len()
    }

    /// The reward memo-cache (hit/miss counters, memoized entries).
    pub fn reward_cache(&self) -> &RewardCache {
        &self.cache
    }

    /// The attached telemetry sink (disabled unless set on the builder).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.sink
    }

    /// Consume the trainer, returning the trained model.
    pub fn into_model(self) -> CoarsenModel {
        self.model
    }

    /// Epochs completed so far (resume restores this counter).
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// Running fault-handling totals.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Every recovery event of this process, in order of occurrence.
    pub fn fault_log(&self) -> &[FaultEvent] {
        &self.fault_log
    }

    /// Indices of graphs quarantined by the fault policy.
    pub fn quarantined_graphs(&self) -> Vec<usize> {
        self.quarantined
            .iter()
            .enumerate()
            .filter_map(|(i, &q)| q.then_some(i))
            .collect()
    }

    /// Snapshot the full training state — model, optimiser moments, RNG
    /// position, best-sample buffers, quarantine set — as a resumable
    /// [`Checkpoint`]. A run resumed from it via [`Self::resume_from`]
    /// continues bitwise-identically to one that never stopped.
    pub fn checkpoint(&self) -> Checkpoint {
        let (adam_m, adam_v) = self.model.params().snapshot_moments();
        let (hi, lo) = TrainerState::split_word_pos(self.rng.get_word_pos());
        Checkpoint {
            config: self.model.config.clone(),
            params: self.model.params().snapshot(),
            trainer: Some(TrainerState {
                epoch: self.epochs_run,
                seed: self.options.seed,
                rng_word_pos_hi: hi,
                rng_word_pos_lo: lo,
                adam_steps: self.adam.steps(),
                adam_m,
                adam_v,
                buffers: self
                    .instances
                    .iter()
                    .map(|inst| {
                        inst.buffer
                            .iter()
                            .map(|s| SampleState {
                                decisions: s.decisions.clone(),
                                reward: s.reward,
                                guided: s.guided,
                            })
                            .collect()
                    })
                    .collect(),
                quarantined: self
                    .quarantined
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &q)| q.then_some(i as u64))
                    .collect(),
                skipped_samples: self.fault_stats.skipped_samples,
                quarantined_graphs: self.fault_stats.quarantined_graphs,
                rollbacks: self.fault_stats.rollbacks,
            }),
        }
    }

    /// Periodic-snapshot manager for this trainer's options
    /// (`checkpoint_every` / `checkpoint_keep`, and the fault plan for
    /// [`Site::CheckpointSave`]), writing snapshots next to `base`. Call
    /// [`CheckpointManager::maybe_save`] with [`Self::checkpoint`] after
    /// each epoch.
    pub fn checkpoint_manager(&self, base: impl Into<std::path::PathBuf>) -> CheckpointManager {
        let mut manager = CheckpointManager::new(
            base,
            self.options.checkpoint_every,
            self.options.checkpoint_keep,
        );
        manager.faults = self.options.faults.clone();
        manager
    }

    /// Restore a [`Self::checkpoint`] into this trainer: parameters, Adam
    /// moments and step count, the master RNG stream position, best-sample
    /// buffers, quarantine flags, and the epoch counter. The trainer must
    /// have been built over the same graphs, config, and seed — mismatches
    /// are rejected, since resuming them would silently diverge.
    pub fn resume_from(&mut self, ckpt: &Checkpoint) -> Result<(), ResumeError> {
        let state = ckpt.trainer.as_ref().ok_or(ResumeError::NoTrainerState)?;
        if ckpt.config != self.model.config {
            return Err(ResumeError::ConfigMismatch);
        }
        let own = self.model.params().snapshot();
        let shapes_match = |mats: &[Matrix]| {
            mats.len() == own.len()
                && mats
                    .iter()
                    .zip(&own)
                    .all(|(a, b)| a.rows == b.rows && a.cols == b.cols)
        };
        if !shapes_match(&ckpt.params) {
            return Err(ResumeError::ParamShapeMismatch { what: "params" });
        }
        if !shapes_match(&state.adam_m) {
            return Err(ResumeError::ParamShapeMismatch {
                what: "adam_m moments",
            });
        }
        if !shapes_match(&state.adam_v) {
            return Err(ResumeError::ParamShapeMismatch {
                what: "adam_v moments",
            });
        }
        if state.buffers.len() != self.instances.len() {
            return Err(ResumeError::GraphCountMismatch {
                expected: state.buffers.len(),
                actual: self.instances.len(),
            });
        }
        if state.seed != self.options.seed {
            return Err(ResumeError::SeedMismatch {
                expected: state.seed,
                actual: self.options.seed,
            });
        }

        self.model.params().restore(&ckpt.params);
        self.model
            .params()
            .restore_moments(&state.adam_m, &state.adam_v);
        self.adam.set_steps(state.adam_steps);
        self.rng = ChaCha8Rng::seed_from_u64(state.seed);
        self.rng.set_word_pos(state.rng_word_pos());
        for (inst, buf) in self.instances.iter_mut().zip(&state.buffers) {
            inst.buffer = buf
                .iter()
                .map(|s| BufferedSample {
                    decisions: s.decisions.clone(),
                    reward: s.reward,
                    guided: s.guided,
                })
                .collect();
        }
        self.quarantined = vec![false; self.instances.len()];
        for &gi in &state.quarantined {
            if let Some(q) = self.quarantined.get_mut(gi as usize) {
                *q = true;
            }
        }
        self.epochs_run = state.epoch;
        self.fault_stats.skipped_samples = state.skipped_samples;
        self.fault_stats.quarantined_graphs = state.quarantined_graphs;
        self.fault_stats.rollbacks = state.rollbacks;
        self.fault_stats.resumes += 1;
        self.sink.counter("train.resumes", 1);
        Ok(())
    }
}

/// A fault detected inside one policy-gradient step, before the policy
/// decides how to recover.
struct StepFault {
    kind: FaultKind,
    sample: Option<usize>,
    detail: String,
}

/// Epoch-start state captured under [`FaultPolicy::RollbackToSnapshot`].
struct EpochSnapshot {
    params: Vec<Matrix>,
    adam_m: Vec<Matrix>,
    adam_v: Vec<Matrix>,
    adam_t: u64,
    rng: ChaCha8Rng,
    buffers: Vec<Vec<BufferedSample>>,
}

/// Per-epoch metric accumulators, only filled while a telemetry sink is
/// enabled (their inputs — entropy, gradient norms — cost extra compute).
struct EpochScratch {
    reward_min: f64,
    reward_max: f64,
    baseline_sum: f64,
    entropy_sum: f64,
    grad_norm_sum: f64,
    steps: usize,
}

impl Default for EpochScratch {
    fn default() -> Self {
        Self {
            reward_min: f64::INFINITY,
            reward_max: f64::NEG_INFINITY,
            baseline_sum: 0.0,
            entropy_sum: 0.0,
            grad_norm_sum: 0.0,
            steps: 0,
        }
    }
}

/// Training and evaluation fan rollouts out over worker threads, so the
/// placer must be shareable. Every shipped placer used for training
/// ([`crate::pipeline::MetisCoarsePlacer`]) is `Sync`; `Rc`-backed
/// learned placers remain usable for inference-side pipelines.
impl<P: CoarsePlacer + Sync> ReinforceTrainer<P> {
    /// Run one epoch (one policy-gradient step per graph).
    ///
    /// When a telemetry sink is attached, the epoch emits spans
    /// (`epoch` > `step.forward` / `step.rollout` / `step.backprop`),
    /// per-epoch reward/baseline/entropy/gradient gauges, reward-cache and
    /// simulator/partitioner counters, and per-sample rollout timing
    /// histograms. Telemetry never changes results: `TrainStats` is
    /// bitwise identical with the sink on or off.
    /// # Panics
    /// On a detected fault under [`FaultPolicy::Abort`] — use
    /// [`Self::try_train_epoch`] to handle the fault as an error instead.
    pub fn train_epoch(&mut self) -> TrainStats {
        match self.try_train_epoch() {
            Ok(stats) => stats,
            Err(e) => panic!("training fault (policy abort): {e}"),
        }
    }

    /// Run one epoch, surfacing detected faults according to
    /// [`TrainOptions::fault_policy`]:
    ///
    /// * `Abort` returns the named [`FaultError`] (nothing is retried);
    /// * `SkipSample` drops faulty samples, quarantines graphs whose
    ///   forward/backward/Adam step faults, and always returns `Ok`;
    /// * `RollbackToSnapshot` restores the epoch-start snapshot,
    ///   quarantines the offending graph, and retries the epoch (bounded:
    ///   every retry removes one graph).
    pub fn try_train_epoch(&mut self) -> Result<TrainStats, FaultError> {
        let epoch_span = self.sink.span("epoch");
        let policy = self.options.fault_policy;
        loop {
            let snapshot =
                (policy == FaultPolicy::RollbackToSnapshot).then(|| self.epoch_snapshot());
            let mut scratch = self.sink.enabled().then(EpochScratch::default);
            match self.epoch_attempt(scratch.as_mut()) {
                Ok((sum_reward, n_rewards, steps)) => {
                    let mean_best = if self.instances.is_empty() {
                        0.0
                    } else {
                        self.instances
                            .iter()
                            .map(|i| i.buffer.iter().map(|s| s.reward).fold(0.0, f64::max))
                            .sum::<f64>()
                            / self.instances.len() as f64
                    };
                    let stats = TrainStats {
                        mean_reward: if n_rewards > 0 {
                            sum_reward / n_rewards as f64
                        } else {
                            0.0
                        },
                        mean_best,
                        steps,
                    };
                    self.epochs_run += 1;
                    if let Some(sc) = scratch {
                        self.emit_epoch_telemetry(&stats, &sc);
                    }
                    drop(epoch_span);
                    return Ok(stats);
                }
                Err((gi, fault)) => match policy {
                    FaultPolicy::Abort => {
                        self.fault_log.push(FaultEvent {
                            kind: fault.kind,
                            epoch: self.epochs_run,
                            graph: gi,
                            sample: fault.sample,
                            detail: fault.detail.clone(),
                            action: RecoveryAction::Aborted,
                        });
                        return Err(FaultError {
                            kind: fault.kind,
                            epoch: self.epochs_run,
                            graph: gi,
                            sample: fault.sample,
                            detail: fault.detail,
                        });
                    }
                    FaultPolicy::RollbackToSnapshot => {
                        self.restore_epoch_snapshot(
                            snapshot.expect("snapshot taken under rollback policy"),
                        );
                        self.fault_stats.rollbacks += 1;
                        self.sink.counter("fault.rollbacks", 1);
                        self.fault_log.push(FaultEvent {
                            kind: fault.kind,
                            epoch: self.epochs_run,
                            graph: gi,
                            sample: fault.sample,
                            detail: fault.detail.clone(),
                            action: RecoveryAction::RolledBack,
                        });
                        // Quarantine after the restore so it sticks; the
                        // retry then skips the offending graph, which
                        // bounds the loop by the graph count.
                        self.quarantine_graph(gi, &fault);
                    }
                    FaultPolicy::SkipSample => {
                        unreachable!("skip policy recovers inside the attempt")
                    }
                },
            }
        }
    }

    /// One pass over the (non-quarantined) graphs. Returns the reward
    /// accumulators, or the first unrecovered fault with its graph index.
    fn epoch_attempt(
        &mut self,
        mut scratch: Option<&mut EpochScratch>,
    ) -> Result<(f64, usize, usize), (usize, StepFault)> {
        let mut sum_reward = 0.0;
        let mut n_rewards = 0usize;
        let mut steps = 0usize;
        for gi in 0..self.instances.len() {
            if self.quarantined[gi] {
                continue;
            }
            match self.step(gi, scratch.as_deref_mut()) {
                Ok(Some(mean_r)) => {
                    sum_reward += mean_r;
                    n_rewards += 1;
                    steps += 1;
                }
                Ok(None) => {}
                Err(fault) => {
                    if self.options.fault_policy == FaultPolicy::SkipSample {
                        // Sample-scoped faults were already skipped inside
                        // the step; what escapes is step-scoped, so the
                        // graph itself is the hazard — quarantine it.
                        self.quarantine_graph(gi, &fault);
                    } else {
                        return Err((gi, fault));
                    }
                }
            }
        }
        Ok((sum_reward, n_rewards, steps))
    }

    fn epoch_snapshot(&self) -> EpochSnapshot {
        let (adam_m, adam_v) = self.model.params().snapshot_moments();
        EpochSnapshot {
            params: self.model.params().snapshot(),
            adam_m,
            adam_v,
            adam_t: self.adam.steps(),
            rng: self.rng.clone(),
            buffers: self.instances.iter().map(|i| i.buffer.clone()).collect(),
        }
    }

    fn restore_epoch_snapshot(&mut self, snap: EpochSnapshot) {
        self.model.params().restore(&snap.params);
        self.model
            .params()
            .restore_moments(&snap.adam_m, &snap.adam_v);
        self.adam.set_steps(snap.adam_t);
        self.rng = snap.rng;
        for (inst, buf) in self.instances.iter_mut().zip(snap.buffers) {
            inst.buffer = buf;
        }
    }

    fn quarantine_graph(&mut self, gi: usize, fault: &StepFault) {
        if !self.quarantined[gi] {
            self.quarantined[gi] = true;
            self.fault_stats.quarantined_graphs += 1;
            self.sink.counter("fault.quarantined_graphs", 1);
        }
        self.fault_log.push(FaultEvent {
            kind: fault.kind,
            epoch: self.epochs_run,
            graph: gi,
            sample: fault.sample,
            detail: fault.detail.clone(),
            action: RecoveryAction::QuarantinedGraph,
        });
    }

    fn skip_sample(&mut self, gi: usize, fault: StepFault) {
        self.fault_stats.skipped_samples += 1;
        self.sink.counter("fault.skipped_samples", 1);
        self.fault_log.push(FaultEvent {
            kind: fault.kind,
            epoch: self.epochs_run,
            graph: gi,
            sample: fault.sample,
            detail: fault.detail,
            action: RecoveryAction::SkippedSample,
        });
    }

    /// Emit the per-epoch metric events (sink known to be enabled).
    fn emit_epoch_telemetry(&mut self, stats: &TrainStats, sc: &EpochScratch) {
        let sink = &self.sink;
        sink.gauge("epoch", self.epochs_run as f64);
        sink.gauge("reward.mean", stats.mean_reward);
        sink.gauge("reward.best", stats.mean_best);
        if sc.reward_min.is_finite() {
            sink.gauge("reward.min", sc.reward_min);
            sink.gauge("reward.max", sc.reward_max);
        }
        if sc.steps > 0 {
            let n = sc.steps as f64;
            sink.gauge("baseline.mean", sc.baseline_sum / n);
            sink.gauge("entropy.mean", sc.entropy_sum / n);
            sink.gauge("grad_norm.mean", sc.grad_norm_sum / n);
        }
        sink.gauge(
            "buffer.size",
            self.instances.iter().map(|i| i.buffer.len()).sum::<usize>() as f64,
        );
        sink.gauge("rollout.workers", self.options.effective_workers() as f64);

        // Reward memo-cache: per-epoch deltas + the absolute entry count.
        let (hits, misses) = (self.cache.hits(), self.cache.misses());
        sink.counter("cache.hits", hits - self.prev_cache.0);
        sink.counter("cache.misses", misses - self.prev_cache.1);
        self.prev_cache = (hits, misses);
        sink.gauge("cache.entries", self.cache.entries() as f64);
    }

    /// One policy-gradient step on graph `gi`. Returns the mean on-policy
    /// reward (`None` if the graph has no edges or the whole batch was
    /// skipped), or the first fault the [`FaultPolicy`] does not recover
    /// at sample scope. `scratch` collects telemetry-only metrics when a
    /// sink is enabled.
    fn step(
        &mut self,
        gi: usize,
        scratch: Option<&mut EpochScratch>,
    ) -> Result<Option<f64>, StepFault> {
        let opts = self.options.clone();

        // Forward pass (kept for the gradient).
        let forward_span = self.sink.span("step.forward");
        let mut tape = Tape::new();
        let (logits, probs) = {
            let inst = &self.instances[gi];
            let Some(logits) = self.model.forward(&mut tape, &inst.graph, &inst.feats) else {
                return Ok(None);
            };
            let probs: Vec<f32> = tape
                .value(logits)
                .data
                .iter()
                .map(|&z| crate::model::sigmoid(z))
                .collect();
            (logits, probs)
        };
        drop(forward_span);

        // Guard rail (forward boundary): non-finite collapse probabilities
        // mean the policy's log-probs are poisoned — no sample can be
        // salvaged, so this is always a step-scoped fault.
        if let Some(p) = probs.iter().find(|p| !p.is_finite()) {
            return Err(StepFault {
                kind: FaultKind::NonFiniteLogProb,
                sample: None,
                detail: format!("collapse probability {p} from the forward pass"),
            });
        }

        // On-policy rollouts on the deterministic engine: pre-draw one
        // decode seed per sample from the master RNG, so every sample's
        // stream is a pure function of its index and the batch runs on
        // any number of workers with bitwise identical results.
        let priority = priority_by_prob(&probs);
        let seeds: Vec<u64> = (0..opts.on_policy_samples)
            .map(|_| self.rng.gen())
            .collect();
        let rollout_span = self.sink.span("step.rollout");
        let epoch = self.epochs_run;
        let outcomes: Vec<Result<RolloutOutcome, String>> = {
            let inst = &self.instances[gi];
            let policy = &self.policy;
            let placer = &self.placer;
            let cluster = &self.cluster;
            let probs = &probs;
            let priority = &priority[..];
            // Per-sample wall-clock goes to the sink from worker threads;
            // the clock is only read while telemetry is on.
            let sink = &self.sink;
            let timed = sink.enabled();
            // Workers read one cache snapshot for the whole batch;
            // misses are inserted afterwards in sample order.
            let cache = self.cache.graph(gi);
            let faults = &opts.faults;
            // Worker panics are caught per sample, so one poisoned rollout
            // degrades to one `Err` slot instead of killing the epoch.
            rollout::run_ordered_catching(opts.effective_workers(), seeds.len(), |i| {
                let t0 = timed.then(Instant::now);
                let inject_key = inject::rollout_key(epoch, gi, i);
                let injected = faults.decide(Site::Rollout, inject_key);
                if injected == Some(Fault::WorkerPanic) {
                    panic!("injected worker panic (epoch {epoch}, graph {gi}, sample {i})");
                }
                let mut rng = ChaCha8Rng::seed_from_u64(seeds[i]);
                let decisions = policy.decode(probs, DecodeMode::Sample, &mut rng);
                let key = rollout::collapse_key(priority, &decisions);
                let outcome = if injected == Some(Fault::NanReward) {
                    RolloutOutcome {
                        decisions,
                        key,
                        reward: f64::NAN,
                        cached: false,
                    }
                } else {
                    match cache.get(&key).copied() {
                        Some(reward) => RolloutOutcome {
                            decisions,
                            key,
                            reward,
                            cached: true,
                        },
                        None => {
                            if let Some(Fault::SimError) =
                                faults.decide(Site::Simulator, inject_key)
                            {
                                panic!("injected simulator error (key {inject_key})");
                            }
                            let reward = rollout_reward(
                                policy,
                                &inst.graph,
                                &inst.rates,
                                cluster,
                                &decisions,
                                priority,
                                placer,
                                sink,
                            );
                            RolloutOutcome {
                                decisions,
                                key,
                                reward,
                                cached: false,
                            }
                        }
                    }
                };
                if let Some(t0) = t0 {
                    sink.hist("rollout.sample_us", t0.elapsed().as_secs_f64() * 1e6);
                }
                outcome
            })
        };
        drop(rollout_span);

        let mut samples: Vec<(Vec<bool>, f64, bool)> = Vec::new();
        let mut on_policy_sum = 0.0;
        let mut n_on_policy = 0usize;
        for (i, res) in outcomes.into_iter().enumerate() {
            // Guard rail (rollout boundary): non-finite rewards and worker
            // panics are sample-scoped — under the skip policy the batch
            // simply loses this sample.
            let fault = match res {
                Ok(out) if out.reward.is_finite() => {
                    self.cache.record(out.cached);
                    if !out.cached {
                        self.cache.insert(gi, out.key, out.reward);
                    }
                    on_policy_sum += out.reward;
                    n_on_policy += 1;
                    samples.push((out.decisions, out.reward, false));
                    continue;
                }
                Ok(out) => {
                    // The lookup happened and missed; never memoize a
                    // non-finite reward.
                    self.cache.record(out.cached);
                    StepFault {
                        kind: FaultKind::NonFiniteReward,
                        sample: Some(i),
                        detail: format!("rollout reward {}", out.reward),
                    }
                }
                Err(panic_msg) => StepFault {
                    kind: FaultKind::WorkerPanic,
                    sample: Some(i),
                    detail: panic_msg,
                },
            };
            if opts.fault_policy == FaultPolicy::SkipSample {
                self.skip_sample(gi, fault);
            } else {
                return Err(fault);
            }
        }
        let on_policy_mean = on_policy_sum / n_on_policy.max(1) as f64;

        // Mix in buffered best samples.
        {
            let inst = &self.instances[gi];
            for s in inst.buffer.iter().take(opts.buffer_samples) {
                samples.push((s.decisions.clone(), s.reward, s.guided));
            }
        }
        if samples.is_empty() {
            // Every on-policy sample was skipped and the buffer is empty:
            // there is nothing to form a gradient from.
            return Ok(None);
        }

        // Policy gradient with mean-reward baseline.
        let backprop_span = self.sink.span("step.backprop");
        let baseline: f64 = samples.iter().map(|(_, r, _)| *r).sum::<f64>() / samples.len() as f64;
        let n = samples.len() as f32;
        let mut loss_terms = Vec::with_capacity(samples.len());
        for (decisions, reward, _) in &samples {
            let actions: Vec<f32> = decisions
                .iter()
                .map(|&d| if d { 1.0 } else { 0.0 })
                .collect();
            let ll = tape.bernoulli_log_prob(logits, &actions);
            // Minimise -(r - b)/N * log π.
            let coef = -((reward - baseline) as f32) / n;
            loss_terms.push(tape.scale(ll, coef));
        }
        let mut loss = loss_terms[0];
        for &term in &loss_terms[1..] {
            loss = tape.add(loss, term);
        }
        self.model.params().zero_grad();
        tape.backward(loss);

        // Guard rail (gradient boundary): check the loss value and the
        // accumulated gradient norm before they can reach the optimiser.
        // Both scans are pure reads, so results stay bitwise identical
        // whether or not a fault ever fires.
        let loss_value: f32 = tape.value(loss).data.iter().sum();
        let grad_sq: f64 = self
            .model
            .params()
            .params()
            .iter()
            .map(|p| {
                p.0.borrow()
                    .grad
                    .data
                    .iter()
                    .map(|&g| f64::from(g) * f64::from(g))
                    .sum::<f64>()
            })
            .sum();
        if !loss_value.is_finite() || !grad_sq.is_finite() {
            // Leave no poisoned gradients behind for the next step.
            self.model.params().zero_grad();
            return Err(StepFault {
                kind: FaultKind::NonFiniteGradient,
                sample: None,
                detail: format!("loss {loss_value}, gradient norm² {grad_sq} after backward"),
            });
        }
        if let Some(sc) = scratch {
            // Telemetry-only metrics (the sink is enabled): min/max of the
            // on-policy rewards, the step baseline, mean Bernoulli entropy
            // of the policy, and the global gradient L2 norm. None of this
            // feeds back into the update.
            for (_, reward, guided) in &samples[..opts.on_policy_samples.min(samples.len())] {
                debug_assert!(!*guided);
                sc.reward_min = sc.reward_min.min(*reward);
                sc.reward_max = sc.reward_max.max(*reward);
            }
            sc.baseline_sum += baseline;
            let entropy: f64 = probs
                .iter()
                .map(|&p| {
                    let p = f64::from(p).clamp(1e-12, 1.0 - 1e-12);
                    -(p * p.ln() + (1.0 - p) * (1.0 - p).ln())
                })
                .sum::<f64>()
                / probs.len().max(1) as f64;
            sc.entropy_sum += entropy;
            sc.grad_norm_sum += grad_sq.sqrt();
            sc.steps += 1;
        }

        // Under the skip policy a corrupted optimiser step must be
        // undoable without an epoch snapshot, so stash the pre-step state.
        let undo = (opts.fault_policy == FaultPolicy::SkipSample).then(|| {
            let (m, v) = self.model.params().snapshot_moments();
            (self.model.params().snapshot(), m, v, self.adam.steps())
        });
        self.adam.step(self.model.params());

        // Guard rail (Adam-step boundary): a non-finite parameter norm
        // after the update means the model itself is corrupt.
        let param_sq: f64 = self
            .model
            .params()
            .params()
            .iter()
            .map(|p| {
                p.0.borrow()
                    .value
                    .data
                    .iter()
                    .map(|&x| f64::from(x) * f64::from(x))
                    .sum::<f64>()
            })
            .sum();
        if !param_sq.is_finite() {
            if let Some((values, m, v, t)) = undo {
                self.model.params().restore(&values);
                self.model.params().restore_moments(&m, &v);
                self.adam.set_steps(t);
            }
            return Err(StepFault {
                kind: FaultKind::NonFiniteParameters,
                sample: None,
                detail: format!("parameter norm² {param_sq} after the Adam step"),
            });
        }
        drop(backprop_span);

        // Buffer update: keep the top `buffer_capacity` by reward; drop
        // guided samples once an on-policy sample beats them.
        let inst = &mut self.instances[gi];
        for (decisions, reward, guided) in samples.into_iter().filter(|(_, _, g)| !*g) {
            inst.buffer.push(BufferedSample {
                decisions,
                reward,
                guided,
            });
        }
        inst.buffer.sort_by(|a, b| b.reward.total_cmp(&a.reward));
        inst.buffer.dedup_by(|a, b| a.decisions == b.decisions);
        if opts.drop_guided_when_beaten {
            let best_unguided = inst
                .buffer
                .iter()
                .filter(|s| !s.guided)
                .map(|s| s.reward)
                .fold(f64::NEG_INFINITY, f64::max);
            inst.buffer
                .retain(|s| !s.guided || s.reward > best_unguided);
        }
        inst.buffer.truncate(opts.buffer_capacity);

        // A step with every on-policy sample skipped contributes no mean
        // reward (a zero would skew the epoch statistics).
        Ok((n_on_policy > 0 || opts.on_policy_samples == 0).then_some(on_policy_mean))
    }

    /// Mean greedy-decode reward over an evaluation set. Per-graph work
    /// fans out over the rollout engine; the sum reduces in graph order,
    /// so the result does not depend on the worker count.
    pub fn evaluate(&self, graphs: &[StreamGraph]) -> f64 {
        if graphs.is_empty() {
            return 0.0;
        }
        let workers = self.options.effective_workers();
        // Borrow the shareable fields individually: capturing `self`
        // would drag the `Rc`-backed model into the worker closures.
        let (policy, placer, cluster) = (&self.policy, &self.placer, &self.cluster);
        let source_rate = self.source_rate;
        // Rates and features are model-free — compute them in parallel.
        let prepared: Vec<(TupleRates, GraphFeatures)> =
            rollout::run_ordered(workers, graphs.len(), |i| {
                let rates = TupleRates::compute(&graphs[i], source_rate);
                let feats = GraphFeatures::extract_with_rates(&graphs[i], cluster, &rates);
                (rates, feats)
            });
        // Forward passes stay on this thread (`Rc`-shared parameters);
        // greedy decoding ignores the RNG, so nothing couples graphs.
        let mut rng = ChaCha8Rng::seed_from_u64(0xEA7_5EED);
        let decoded: Vec<(Vec<u32>, Vec<bool>)> = graphs
            .iter()
            .zip(&prepared)
            .map(|(g, (_, feats))| {
                let probs = self.model.predict_probs_with_features(g, feats);
                let decisions = self.policy.decode(&probs, DecodeMode::Greedy, &mut rng);
                (priority_by_prob(&probs), decisions)
            })
            .collect();
        let rewards = rollout::run_ordered(workers, graphs.len(), |i| {
            rollout_reward(
                policy,
                &graphs[i],
                &prepared[i].0,
                cluster,
                &decoded[i].1,
                &decoded[i].0,
                placer,
                &TelemetrySink::disabled(),
            )
        });
        rewards.iter().sum::<f64>() / graphs.len() as f64
    }
}

/// Coarsen with `decisions` in `priority` order, place the coarse graph,
/// lift, simulate. While `sink` is enabled, the placement's wall-clock
/// goes to it as one `rollout.place_us` observation and the lift plus
/// simulation's as one `rollout.simulate_us` observation.
#[allow(clippy::too_many_arguments)]
fn rollout_reward<P: CoarsePlacer>(
    policy: &CoarseningPolicy,
    graph: &StreamGraph,
    rates: &TupleRates,
    cluster: &ClusterSpec,
    decisions: &[bool],
    priority: &[u32],
    placer: &P,
    sink: &TelemetrySink,
) -> f64 {
    let coarsening = policy.apply(graph, rates, cluster, decisions, priority);
    let t0 = sink.enabled().then(Instant::now);
    let coarse_placement = placer.place_coarse(&coarsening.coarse, cluster);
    let t1 = sink.enabled().then(Instant::now);
    let placement = Placement::lift(&coarse_placement, &coarsening.node_map);
    let reward = spg_sim::reward::relative_throughput_with_rates(graph, cluster, &placement, rates);
    if let (Some(t0), Some(t1)) = (t0, t1) {
        sink.hist("rollout.place_us", (t1 - t0).as_secs_f64() * 1e6);
        sink.hist("rollout.simulate_us", t1.elapsed().as_secs_f64() * 1e6);
    }
    reward
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoarsenConfig;
    use crate::pipeline::MetisCoarsePlacer;
    use spg_gen::{DatasetSpec, Setting};

    fn trainer_with(
        n_graphs: usize,
        metis_guided: bool,
        num_workers: usize,
    ) -> ReinforceTrainer<MetisCoarsePlacer> {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let graphs: Vec<StreamGraph> = (0..n_graphs as u64)
            .map(|s| spg_gen::generate_graph(&spec, s))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        ReinforceTrainer::builder(model, MetisCoarsePlacer::new(5))
            .graphs(graphs)
            .cluster(cluster)
            .source_rate(spec.source_rate)
            .options(
                TrainOptions::new()
                    .metis_guided(metis_guided)
                    .seed(9)
                    .num_workers(num_workers),
            )
            .build()
    }

    fn trainer(n_graphs: usize, metis_guided: bool) -> ReinforceTrainer<MetisCoarsePlacer> {
        trainer_with(n_graphs, metis_guided, 1)
    }

    #[test]
    fn effective_workers_clamps_to_available_parallelism() {
        let avail = rollout::default_workers();
        assert_eq!(TrainOptions::new().num_workers(0).effective_workers(), 1);
        assert_eq!(TrainOptions::new().num_workers(1).effective_workers(), 1);
        assert_eq!(
            TrainOptions::new()
                .num_workers(usize::MAX)
                .effective_workers(),
            avail,
            "oversubscription must clamp to the core count"
        );
        assert!(TrainOptions::new().effective_workers() <= avail);
    }

    #[test]
    fn epoch_runs_and_rewards_are_unit_interval() {
        let mut t = trainer(3, false);
        let stats = t.train_epoch();
        assert_eq!(stats.steps, 3);
        assert!((0.0..=1.0).contains(&stats.mean_reward), "{stats:?}");
        assert!((0.0..=1.0).contains(&stats.mean_best), "{stats:?}");
    }

    #[test]
    fn metis_guided_seeds_buffers() {
        let t = trainer(2, true);
        for inst in &t.instances {
            assert_eq!(inst.buffer.len(), 1);
            assert!(inst.buffer[0].guided);
            assert!((0.0..=1.0).contains(&inst.buffer[0].reward));
        }
    }

    #[test]
    fn training_improves_mean_best_reward() {
        let mut t = trainer(4, true);
        let first = t.train_epoch();
        let mut last = first;
        for _ in 0..5 {
            last = t.train_epoch();
        }
        // The buffer keeps the best sample ever seen per graph, so
        // mean_best is monotone; require it not to regress and training to
        // run without numerical blowups.
        assert!(last.mean_best >= first.mean_best - 1e-9);
        assert!(last.mean_reward.is_finite());
    }

    #[test]
    fn buffer_respects_capacity() {
        let mut t = trainer(2, false);
        for _ in 0..4 {
            t.train_epoch();
        }
        for inst in &t.instances {
            assert!(inst.buffer.len() <= t.options.buffer_capacity);
            // Buffer must be sorted descending by reward.
            for w in inst.buffer.windows(2) {
                assert!(w[0].reward >= w[1].reward);
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let mut t1 = trainer_with(3, true, 1);
        let mut t4 = trainer_with(3, true, 4);
        for _ in 0..3 {
            let s1 = t1.train_epoch();
            let s4 = t4.train_epoch();
            assert_eq!(s1, s4, "TrainStats diverged between 1 and 4 workers");
        }
        // Buffers must be bitwise identical: same decision vectors, same
        // reward bits, same provenance, in the same order.
        for (a, b) in t1.instances.iter().zip(&t4.instances) {
            assert_eq!(a.buffer.len(), b.buffer.len());
            for (x, y) in a.buffer.iter().zip(&b.buffer) {
                assert_eq!(x.decisions, y.decisions);
                assert_eq!(x.reward.to_bits(), y.reward.to_bits());
                assert_eq!(x.guided, y.guided);
            }
        }
        // Cache bookkeeping is scheduling-independent too.
        assert_eq!(t1.reward_cache().hits(), t4.reward_cache().hits());
        assert_eq!(t1.reward_cache().misses(), t4.reward_cache().misses());
        assert_eq!(t1.reward_cache().entries(), t4.reward_cache().entries());
        // And so is the parallel evaluation pass.
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let test_graphs: Vec<StreamGraph> = (50..54u64)
            .map(|s| spg_gen::generate_graph(&spec, s))
            .collect();
        assert_eq!(
            t1.evaluate(&test_graphs).to_bits(),
            t4.evaluate(&test_graphs).to_bits()
        );
    }

    #[test]
    fn repeated_decisions_hit_the_reward_cache() {
        use spg_graph::{Channel, Operator, StreamGraphBuilder};
        // A 2-edge chain admits at most 5 distinct collapse keys
        // ({}, [0], [1], [0,1], [1,0]), so after the first few epochs
        // every sampled vector must already be memoized.
        let mut b = StreamGraphBuilder::new();
        let mut prev = b.add_node(Operator::new(10.0));
        for _ in 1..3 {
            let next = b.add_node(Operator::new(10.0));
            b.add_edge(prev, next, Channel::new(8.0)).unwrap();
            prev = next;
        }
        let g = b.finish().unwrap();
        let cluster = spg_graph::ClusterSpec::new(2, 0.2, 100.0);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        let mut t = ReinforceTrainer::builder(model, MetisCoarsePlacer::new(5))
            .graphs(vec![g])
            .cluster(cluster)
            .source_rate(1e4)
            .options(
                TrainOptions::new()
                    .metis_guided(false)
                    .seed(9)
                    .num_workers(1),
            )
            .build();
        let epochs = 10;
        for _ in 0..epochs {
            t.train_epoch();
        }
        let cache = t.reward_cache();
        let total = (epochs * t.options.on_policy_samples) as u64;
        assert_eq!(cache.hits() + cache.misses(), total);
        assert!(cache.hits() > 0, "no rollout was ever served from cache");
        assert!(cache.entries() <= 5, "entries = {}", cache.entries());
        // A key can be evaluated at most once per batch it is missing in,
        // so distinct entries never exceed simulator invocations.
        assert!(cache.entries() as u64 <= cache.misses());
    }

    #[test]
    fn collapse_key_determines_reward() {
        // The memoization premise: the reward depends on (decisions,
        // probs) only through the collapse key. Two prob vectors with the
        // same induced priority must yield bitwise-equal rewards.
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let cluster = spec.cluster();
        let g = spg_gen::generate_graph(&spec, 0);
        let rates = TupleRates::compute(&g, spec.source_rate);
        let policy = CoarseningPolicy::from_config(&CoarsenConfig::default());
        let placer = MetisCoarsePlacer::new(5);
        let m = g.num_edges();
        let probs_a: Vec<f32> = (0..m).map(|e| 0.9 - e as f32 * (0.8 / m as f32)).collect();
        let probs_b: Vec<f32> = (0..m).map(|e| 0.6 - e as f32 * (0.5 / m as f32)).collect();
        let decisions: Vec<bool> = (0..m).map(|e| e % 3 == 0).collect();
        let (pa, pb) = (priority_by_prob(&probs_a), priority_by_prob(&probs_b));
        let ka = rollout::collapse_key(&pa, &decisions);
        let kb = rollout::collapse_key(&pb, &decisions);
        assert_eq!(ka, kb);
        let ra = rollout_reward(
            &policy,
            &g,
            &rates,
            &cluster,
            &decisions,
            &pa,
            &placer,
            &TelemetrySink::disabled(),
        );
        let rb = rollout_reward(
            &policy,
            &g,
            &rates,
            &cluster,
            &decisions,
            &pb,
            &placer,
            &TelemetrySink::disabled(),
        );
        assert_eq!(ra.to_bits(), rb.to_bits());
    }

    #[test]
    fn evaluate_returns_unit_interval() {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let t = trainer(2, false);
        let test_graphs: Vec<StreamGraph> = (100..103u64)
            .map(|s| spg_gen::generate_graph(&spec, s))
            .collect();
        let r = t.evaluate(&test_graphs);
        assert!((0.0..=1.0).contains(&r), "r = {r}");
    }
}
