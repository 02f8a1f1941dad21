//! Fault-tolerant training runtime, end to end: crash-safe resume that is
//! bitwise identical to an uninterrupted run, and the three fault
//! policies exercised through the deterministic fault injector.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::gen::{DatasetSpec, Setting};
use spg::model::pipeline::MetisCoarsePlacer;
use spg::model::{
    Checkpoint, CoarsenConfig, CoarsenModel, FaultKind, FaultPolicy, ReinforceTrainer, ResumeError,
    TrainOptions, TrainStats,
};
use spg::sim::inject::{self, FaultInjector};
use spg_core::fault::RecoveryAction;

fn build_trainer(seed: u64, policy: FaultPolicy) -> ReinforceTrainer<MetisCoarsePlacer> {
    build_faulty_trainer(seed, policy, FaultInjector::default())
}

fn build_faulty_trainer(
    seed: u64,
    policy: FaultPolicy,
    faults: FaultInjector,
) -> ReinforceTrainer<MetisCoarsePlacer> {
    let spec = DatasetSpec::scaled_down(Setting::Small);
    let graphs: Vec<_> = (0..4u64)
        .map(|s| spg::gen::generate_graph(&spec, 100 + s))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
    ReinforceTrainer::builder(model, MetisCoarsePlacer::new(seed ^ 1))
        .graphs(graphs)
        .cluster(spec.cluster())
        .source_rate(spec.source_rate)
        .options(
            TrainOptions::new()
                .seed(seed)
                .fault_policy(policy)
                .faults(faults),
        )
        .build()
}

/// The tentpole guarantee: N epochs, a checkpoint, a process boundary
/// (serialise + reparse), and N more epochs in a *fresh* trainer must be
/// indistinguishable — per-epoch stats and the final serialised
/// checkpoint byte for byte — from 2N epochs straight through.
#[test]
fn resume_continues_bitwise_identically() {
    const N: usize = 3;

    let mut straight = build_trainer(11, FaultPolicy::Abort);
    let mut straight_tail: Vec<TrainStats> = Vec::new();
    for e in 0..2 * N {
        let stats = straight.train_epoch();
        if e >= N {
            straight_tail.push(stats);
        }
    }
    let straight_json = serde_json::to_string(&straight.checkpoint()).unwrap();

    let mut first_half = build_trainer(11, FaultPolicy::Abort);
    for _ in 0..N {
        first_half.train_epoch();
    }
    // Cross the on-disk representation, as a real crash-and-restart would.
    let ckpt_json = serde_json::to_string(&first_half.checkpoint()).unwrap();
    drop(first_half);
    let ckpt: Checkpoint = serde_json::from_str(&ckpt_json).unwrap();

    let mut resumed = build_trainer(11, FaultPolicy::Abort);
    resumed.resume_from(&ckpt).unwrap();
    assert_eq!(resumed.epochs_run(), N as u64);
    assert_eq!(resumed.fault_stats().resumes, 1);
    let resumed_tail: Vec<TrainStats> = (0..N).map(|_| resumed.train_epoch()).collect();

    assert_eq!(
        straight_tail, resumed_tail,
        "per-epoch stats after resume must match the uninterrupted run exactly"
    );
    let resumed_json = serde_json::to_string(&resumed.checkpoint()).unwrap();
    assert_eq!(
        straight_json, resumed_json,
        "final checkpoints (weights, moments, RNG position, buffers) must be byte-identical"
    );
}

#[test]
fn resume_rejects_mismatched_runs() {
    let mut a = build_trainer(11, FaultPolicy::Abort);
    a.train_epoch();
    let ckpt = a.checkpoint();

    let mut wrong_seed = build_trainer(12, FaultPolicy::Abort);
    assert!(matches!(
        wrong_seed.resume_from(&ckpt),
        Err(ResumeError::SeedMismatch {
            expected: 11,
            actual: 12
        })
    ));

    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let model_only = Checkpoint::from_model(&CoarsenModel::new(CoarsenConfig::default(), &mut rng));
    let mut fresh = build_trainer(11, FaultPolicy::Abort);
    assert_eq!(
        fresh.resume_from(&model_only),
        Err(ResumeError::NoTrainerState)
    );
}

#[test]
fn skip_policy_drops_nan_rewards_and_keeps_training() {
    let mut t = build_faulty_trainer(
        21,
        FaultPolicy::SkipSample,
        FaultInjector::new(7).rate(inject::Site::Rollout, inject::Fault::NanReward, 0.5),
    );
    let stats = t.try_train_epoch().expect("skip policy must recover");
    assert!(stats.steps > 0, "surviving samples must still train");
    assert!(t.fault_stats().skipped_samples > 0);
    assert!(
        t.fault_log()
            .iter()
            .any(|e| e.kind == FaultKind::NonFiniteReward
                && e.action == RecoveryAction::SkippedSample)
    );
    // Plan cleared: the next epoch is fault-free and the counters stand
    // still.
    t.options.faults = FaultInjector::default();
    let skipped = t.fault_stats().skipped_samples;
    t.try_train_epoch().unwrap();
    assert_eq!(t.fault_stats().skipped_samples, skipped);
}

#[test]
fn worker_panic_is_isolated_per_sample() {
    let mut t = build_faulty_trainer(
        31,
        FaultPolicy::SkipSample,
        FaultInjector::new(0).at(
            inject::Site::Rollout,
            inject::rollout_key(0, 0, 0),
            inject::Fault::WorkerPanic,
        ),
    );
    let stats = t
        .try_train_epoch()
        .expect("a panicking worker must not take down the epoch under skip policy");
    assert_eq!(stats.steps, t.num_graphs(), "other samples carry the step");
    assert_eq!(t.fault_stats().skipped_samples, 1);
    assert!(t.fault_log().iter().any(|e| {
        e.kind == FaultKind::WorkerPanic
            && e.graph == 0
            && e.sample == Some(0)
            && e.detail.contains("injected worker panic")
    }));
}

#[test]
fn injected_simulator_error_is_contained() {
    let mut t = build_faulty_trainer(
        61,
        FaultPolicy::SkipSample,
        FaultInjector::new(0).at(
            inject::Site::Simulator,
            inject::rollout_key(0, 0, 1),
            inject::Fault::SimError,
        ),
    );
    t.try_train_epoch()
        .expect("simulator error must be contained");
    assert!(t.fault_log().iter().any(|e| {
        e.kind == FaultKind::WorkerPanic && e.detail.contains("injected simulator error")
    }));
}

#[test]
fn rollback_policy_restores_and_quarantines() {
    let mut t = build_faulty_trainer(
        41,
        FaultPolicy::RollbackToSnapshot,
        FaultInjector::new(0).at(
            inject::Site::Rollout,
            inject::rollout_key(0, 1, 0),
            inject::Fault::NanReward,
        ),
    );
    let stats = t.try_train_epoch().expect("rollback policy must recover");
    assert_eq!(t.fault_stats().rollbacks, 1);
    assert_eq!(t.quarantined_graphs(), vec![1]);
    assert_eq!(
        stats.steps,
        t.num_graphs() - 1,
        "the retried epoch trains every graph but the quarantined one"
    );
    assert!(t
        .fault_log()
        .iter()
        .any(|e| e.action == RecoveryAction::RolledBack && e.graph == 1));
}

#[test]
fn abort_policy_surfaces_the_fault_as_an_error() {
    let mut t = build_faulty_trainer(
        51,
        FaultPolicy::Abort,
        FaultInjector::new(0).at(
            inject::Site::Rollout,
            inject::rollout_key(0, 2, 1),
            inject::Fault::NanReward,
        ),
    );
    let err = t
        .try_train_epoch()
        .expect_err("abort policy must surface the fault");
    assert_eq!(err.kind, FaultKind::NonFiniteReward);
    assert_eq!((err.epoch, err.graph, err.sample), (0, 2, Some(1)));
    let msg = err.to_string();
    assert!(
        msg.contains("non_finite_reward") && msg.contains("graph 2"),
        "{msg}"
    );
    // Nothing was swallowed: no recovery counters moved.
    let stats = t.fault_stats();
    assert_eq!(
        (
            stats.skipped_samples,
            stats.quarantined_graphs,
            stats.rollbacks
        ),
        (0, 0, 0)
    );
}

/// A plan is owned by its run: a trainer with a wildcard NaN plan and a
/// clean trainer training concurrently in one process must not see each
/// other's faults.
#[test]
fn a_plan_fires_only_in_its_own_run() {
    let epoch = |mut t: ReinforceTrainer<MetisCoarsePlacer>| {
        let stats = t.try_train_epoch().expect("skip policy must recover");
        (stats, t.fault_stats().skipped_samples)
    };
    let solo = epoch(build_trainer(71, FaultPolicy::SkipSample));
    // Both runs start their epoch together, so the two epochs overlap.
    let start = std::sync::Barrier::new(2);
    let (clean, faulty) = std::thread::scope(|s| {
        let faulty = s.spawn(|| {
            let plan = FaultInjector::new(0).at(
                inject::Site::Rollout,
                inject::ANY_KEY,
                inject::Fault::NanReward,
            );
            let t = build_faulty_trainer(71, FaultPolicy::SkipSample, plan);
            start.wait();
            epoch(t)
        });
        let clean = s.spawn(|| {
            let t = build_trainer(71, FaultPolicy::SkipSample);
            start.wait();
            epoch(t)
        });
        (clean.join().unwrap(), faulty.join().unwrap())
    });
    assert_eq!(clean, solo, "the clean run must match a solo run exactly");
    assert_eq!(clean.1, 0);
    assert!(faulty.1 > 0, "the faulty run must skip its NaN samples");
}
