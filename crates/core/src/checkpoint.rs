//! Crash-safe checkpointing: config + parameters + optional trainer state
//! as versioned JSON, written atomically.
//!
//! The on-disk format carries a `version` field so that a file written by
//! an incompatible build fails with a clear error instead of a confusing
//! deserialisation panic deep inside the weight arrays. Version 2 adds an
//! optional [`TrainerState`] (epoch counter, RNG position, Adam moments,
//! best-sample buffers) so a resumed run continues bitwise-identically;
//! version 1 files still load as model-only checkpoints. The vendored
//! serde derive has no `#[serde(...)]` attributes, so [`Checkpoint`]
//! implements `Serialize`/`Deserialize` by hand over the `Value` model to
//! do the version check up front.
//!
//! [`Checkpoint::save`] is atomic: the JSON goes to `<path>.tmp`, is
//! flushed and fsynced, and only then renamed over `path`. A crash at any
//! point — including the kill-point between write and rename that a
//! [`CheckpointManager`] snapshot can inject — leaves the previous
//! checkpoint intact and loadable.

use crate::config::CoarsenConfig;
use crate::model::CoarsenModel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize, Value};
use spg_nn::Matrix;
use spg_sim::inject::{Fault, FaultInjector, Site};
use std::fmt;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Version written into every checkpoint; bump on breaking format changes.
pub const CHECKPOINT_VERSION: u64 = 2;

/// One buffered best-sample, as persisted in a checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleState {
    /// Per-edge collapse decisions.
    pub decisions: Vec<bool>,
    /// Reward the decisions earned.
    pub reward: f64,
    /// True if the sample came from the Metis guide.
    pub guided: bool,
}

/// Everything beyond the model that the trainer needs to continue a run
/// bitwise-identically: epoch counter, RNG stream position, optimiser
/// state, best-sample buffers, and the fault-handling history.
///
/// The reward memo-cache is deliberately *not* persisted: rewards are a
/// pure function of the collapse key (pinned by the
/// `collapse_key_determines_reward` test), so recomputing a dropped cache
/// entry yields the bitwise-identical value and only costs time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerState {
    /// Epochs completed when the checkpoint was taken.
    pub epoch: u64,
    /// Master seed the run was started with (resume refuses a mismatch).
    pub seed: u64,
    /// High 64 bits of the master RNG's word position.
    pub rng_word_pos_hi: u64,
    /// Low 64 bits of the master RNG's word position.
    pub rng_word_pos_lo: u64,
    /// Adam step counter (bias-correction schedule).
    pub adam_steps: u64,
    /// Adam first moments, in parameter registration order.
    pub adam_m: Vec<Matrix>,
    /// Adam second moments, in parameter registration order.
    pub adam_v: Vec<Matrix>,
    /// Best-sample memory buffer of each training graph.
    pub buffers: Vec<Vec<SampleState>>,
    /// Indices of graphs quarantined by the fault policy.
    pub quarantined: Vec<u64>,
    /// Samples skipped so far (fault policy `skip`).
    pub skipped_samples: u64,
    /// Graphs quarantined so far.
    pub quarantined_graphs: u64,
    /// Epoch rollbacks so far (fault policy `rollback`).
    pub rollbacks: u64,
}

impl TrainerState {
    /// Reassemble the RNG word position from its persisted halves.
    pub fn rng_word_pos(&self) -> u128 {
        (u128::from(self.rng_word_pos_hi) << 64) | u128::from(self.rng_word_pos_lo)
    }

    /// Split a word position into the persisted `(hi, lo)` halves.
    pub fn split_word_pos(pos: u128) -> (u64, u64) {
        ((pos >> 64) as u64, pos as u64)
    }
}

/// A serialised model, optionally with the trainer state needed to
/// resume training (see [`TrainerState`]).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Hyperparameters (architecture must match on load).
    pub config: CoarsenConfig,
    /// Parameter values in registration order.
    pub params: Vec<Matrix>,
    /// Trainer state for resume; `None` in model-only checkpoints.
    pub trainer: Option<TrainerState>,
}

impl Serialize for Checkpoint {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("version".to_string(), CHECKPOINT_VERSION.serialize()),
            ("config".to_string(), self.config.serialize()),
            ("params".to_string(), self.params.serialize()),
            ("trainer".to_string(), self.trainer.serialize()),
        ])
    }
}

impl Deserialize for Checkpoint {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let version = match v.field("version") {
            Ok(val) => u64::deserialize(val)?,
            Err(_) => {
                return Err(serde::Error(
                    "checkpoint has no `version` field (written by a pre-versioning \
                     build?); re-export it with a current build"
                        .to_string(),
                ))
            }
        };
        if version == 0 || version > CHECKPOINT_VERSION {
            return Err(serde::Error(format!(
                "unsupported checkpoint version {version} \
                 (this build supports {CHECKPOINT_VERSION}, and loads \
                 version 1 files as model-only)"
            )));
        }
        let trainer = if version >= 2 {
            Option::<TrainerState>::deserialize(v.field("trainer")?)?
        } else {
            None
        };
        Ok(Self {
            config: CoarsenConfig::deserialize(v.field("config")?)?,
            params: Vec::<Matrix>::deserialize(v.field("params")?)?,
            trainer,
        })
    }
}

impl Checkpoint {
    /// Snapshot a model (no trainer state).
    pub fn from_model(model: &CoarsenModel) -> Self {
        Self {
            config: model.config.clone(),
            params: model.params().snapshot(),
            trainer: None,
        }
    }

    /// Rebuild the model (architecture from `config`, weights restored).
    /// Any trainer state is dropped; resume instead via
    /// [`crate::reinforce::ReinforceTrainer::resume_from`].
    pub fn into_model(self) -> CoarsenModel {
        // Seed irrelevant: every weight is overwritten by the snapshot.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = CoarsenModel::new(self.config, &mut rng);
        model.params().restore(&self.params);
        model
    }

    /// The sibling temp path used during an atomic save.
    pub fn temp_path(path: &Path) -> PathBuf {
        let mut name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(".tmp");
        path.with_file_name(name)
    }

    /// Write JSON to `path` atomically: temp file, flush + fsync, rename.
    /// If the process dies anywhere before the rename (exercised through
    /// the `CheckpointSave` injection site of [`CheckpointManager`]), the
    /// previous file at `path` is untouched.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.write_atomic(path, false)
    }

    /// [`Self::save`], optionally simulating a crash between the temp
    /// write and the rename.
    fn write_atomic(&self, path: &Path, crash_before_rename: bool) -> std::io::Result<()> {
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        let tmp = Self::temp_path(path);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(json.as_bytes())?;
            f.sync_all()?;
        }
        if crash_before_rename {
            // Stop here, leaving the temp file behind exactly as a real
            // crash would.
            return Err(std::io::Error::other(format!(
                "injected crash during checkpoint save of {} \
                 (temp file written, rename skipped)",
                path.display()
            )));
        }
        std::fs::rename(&tmp, path)?;
        // Best-effort: make the rename itself durable.
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Read JSON from `path`.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let mut buf = String::new();
        std::io::BufReader::new(std::fs::File::open(path)?).read_to_string(&mut buf)?;
        serde_json::from_str(&buf)
            .map_err(|e| std::io::Error::other(format!("invalid checkpoint: {e}")))
    }
}

/// Why a checkpoint cannot resume a particular trainer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint is model-only (version 1 or saved without state).
    NoTrainerState,
    /// The model architecture in the checkpoint differs.
    ConfigMismatch,
    /// Parameter/moment count or shape differs from the model.
    ParamShapeMismatch {
        /// What is mismatched, e.g. "params" or "adam_m".
        what: &'static str,
    },
    /// The checkpoint holds buffers for a different number of graphs.
    GraphCountMismatch {
        /// Graphs in the checkpoint.
        expected: usize,
        /// Graphs in the trainer.
        actual: usize,
    },
    /// The run seed differs — resuming would silently diverge.
    SeedMismatch {
        /// Seed recorded in the checkpoint.
        expected: u64,
        /// Seed the trainer was built with.
        actual: u64,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::NoTrainerState => write!(
                f,
                "checkpoint is model-only (no trainer state); it can seed \
                 a fresh run but not resume one"
            ),
            ResumeError::ConfigMismatch => {
                write!(f, "checkpoint model config differs from the trainer's")
            }
            ResumeError::ParamShapeMismatch { what } => {
                write!(f, "checkpoint {what} do not match the model's parameters")
            }
            ResumeError::GraphCountMismatch { expected, actual } => write!(
                f,
                "checkpoint was taken over {expected} training graphs, \
                 trainer has {actual}"
            ),
            ResumeError::SeedMismatch { expected, actual } => write!(
                f,
                "checkpoint was written by a run with seed {expected}, \
                 trainer uses seed {actual}; resuming would diverge"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Periodic-snapshot policy: every `every` epochs write
/// `<base>.epoch-<N>` next to the final checkpoint and keep only the
/// newest `keep` snapshots.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    base: PathBuf,
    every: usize,
    keep: usize,
    /// The trainer's fault plan, consulted at [`Site::CheckpointSave`]
    /// with the snapshot's epoch as key (empty unless set by
    /// [`crate::reinforce::ReinforceTrainer::checkpoint_manager`]).
    pub(crate) faults: FaultInjector,
}

impl CheckpointManager {
    /// Snapshots of `base` every `every` epochs, keeping the last `keep`
    /// (at least 1). `every == 0` disables periodic snapshots.
    pub fn new(base: impl Into<PathBuf>, every: usize, keep: usize) -> Self {
        Self {
            base: base.into(),
            every,
            keep: keep.max(1),
            faults: FaultInjector::default(),
        }
    }

    /// The snapshot interval in epochs (0 = disabled).
    pub fn every(&self) -> usize {
        self.every
    }

    /// Path of the snapshot for `epoch`.
    pub fn snapshot_path(&self, epoch: u64) -> PathBuf {
        let mut name = self
            .base
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(format!(".epoch-{epoch}"));
        self.base.with_file_name(name)
    }

    /// Save a snapshot if `epoch` is on the interval; prunes old
    /// snapshots afterwards. Returns the path written, if any.
    pub fn maybe_save(&self, ckpt: &Checkpoint, epoch: u64) -> std::io::Result<Option<PathBuf>> {
        if self.every == 0 || epoch == 0 || !epoch.is_multiple_of(self.every as u64) {
            return Ok(None);
        }
        let path = self.snapshot_path(epoch);
        let kill = self.faults.decide(Site::CheckpointSave, epoch) == Some(Fault::Kill);
        ckpt.write_atomic(&path, kill)?;
        self.prune()?;
        Ok(Some(path))
    }

    /// Existing snapshots as `(epoch, path)`, oldest first.
    pub fn snapshots(&self) -> Vec<(u64, PathBuf)> {
        let dir = match self.base.parent() {
            Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let prefix = match self.base.file_name() {
            Some(n) => format!("{}.epoch-", n.to_string_lossy()),
            None => return Vec::new(),
        };
        let mut found = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(rest) = name.strip_prefix(&prefix) {
                    if let Ok(epoch) = rest.parse::<u64>() {
                        found.push((epoch, entry.path()));
                    }
                }
            }
        }
        found.sort();
        found
    }

    /// The newest snapshot on disk, if any.
    pub fn latest(&self) -> Option<PathBuf> {
        self.snapshots().pop().map(|(_, p)| p)
    }

    fn prune(&self) -> std::io::Result<()> {
        let snaps = self.snapshots();
        if snaps.len() > self.keep {
            for (_, path) in &snaps[..snaps.len() - self.keep] {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_graph::{Channel, ClusterSpec, Operator, StreamGraphBuilder};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spg-checkpoint-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);

        let mut b = StreamGraphBuilder::new();
        let a = b.add_node(Operator::new(100.0));
        let c = b.add_node(Operator::new(200.0));
        b.add_edge(a, c, Channel::new(50.0)).unwrap();
        let g = b.finish().unwrap();
        let cluster = ClusterSpec::paper_medium(4);
        let before = model.predict_probs(&g, &cluster, 1e4);

        let path = tmp_dir("roundtrip").join("ckpt.json");
        Checkpoint::from_model(&model).save(&path).unwrap();
        let restored = Checkpoint::load(&path).unwrap().into_model();
        std::fs::remove_file(&path).ok();

        let after = restored.predict_probs(&g, &cluster, 1e4);
        assert_eq!(before, after);
    }

    #[test]
    fn checkpoint_carries_version_and_roundtrips() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        let json = serde_json::to_string(&Checkpoint::from_model(&model)).unwrap();
        assert!(
            json.contains(&format!("\"version\":{CHECKPOINT_VERSION}")),
            "serialized checkpoint must carry the format version"
        );
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.params.len(), model.params().snapshot().len());
        assert!(back.trainer.is_none());
    }

    #[test]
    fn missing_version_is_a_clear_error() {
        let err = serde_json::from_str::<Checkpoint>("{\"config\":{},\"params\":[]}")
            .unwrap_err()
            .to_string();
        assert!(err.contains("no `version` field"), "got: {err}");
    }

    #[test]
    fn future_version_is_rejected_with_clear_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        let json = serde_json::to_string(&Checkpoint::from_model(&model)).unwrap();
        let bumped = json.replace(
            &format!("\"version\":{CHECKPOINT_VERSION}"),
            "\"version\":99",
        );
        let err = serde_json::from_str::<Checkpoint>(&bumped)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unsupported checkpoint version 99"),
            "got: {err}"
        );
        assert!(
            err.contains(&format!("supports {CHECKPOINT_VERSION}")),
            "got: {err}"
        );
    }

    #[test]
    fn version_1_loads_as_model_only() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        let json = serde_json::to_string(&Checkpoint::from_model(&model)).unwrap();
        // A v1 file has no `trainer` field at all.
        let v1 = json
            .replace(
                &format!("\"version\":{CHECKPOINT_VERSION}"),
                "\"version\":1",
            )
            .replace(",\"trainer\":null", "");
        let back: Checkpoint = serde_json::from_str(&v1).unwrap();
        assert_eq!(back.params.len(), model.params().snapshot().len());
        assert!(back.trainer.is_none());
    }

    #[test]
    fn checkpoint_keeps_config() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = CoarsenModel::new(CoarsenConfig::without_edge_encoding(), &mut rng);
        let ck = Checkpoint::from_model(&model);
        assert!(!ck.config.edge_encoding);
        let restored = ck.into_model();
        assert!(!restored.config.edge_encoding);
    }

    #[test]
    fn word_pos_split_roundtrips() {
        for pos in [0u128, 1, u128::from(u64::MAX) + 5, 1 << 80] {
            let (hi, lo) = TrainerState::split_word_pos(pos);
            let state = TrainerState {
                epoch: 0,
                seed: 0,
                rng_word_pos_hi: hi,
                rng_word_pos_lo: lo,
                adam_steps: 0,
                adam_m: vec![],
                adam_v: vec![],
                buffers: vec![],
                quarantined: vec![],
                skipped_samples: 0,
                quarantined_graphs: 0,
                rollbacks: 0,
            };
            assert_eq!(state.rng_word_pos(), pos);
        }
    }

    #[test]
    fn corrupt_checkpoints_fail_loudly() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let model = CoarsenModel::new(CoarsenConfig::default(), &mut rng);
        let json = serde_json::to_string(&Checkpoint::from_model(&model)).unwrap();
        let dir = tmp_dir("corrupt");

        // Truncated file (torn non-atomic write).
        let trunc = dir.join("trunc.json");
        std::fs::write(&trunc, &json[..json.len() / 2]).unwrap();
        let err = Checkpoint::load(&trunc).unwrap_err().to_string();
        assert!(err.contains("invalid checkpoint"), "got: {err}");

        // Garbage that is not JSON at all.
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, b"\x00\xffnot json").unwrap();
        assert!(Checkpoint::load(&garbage).is_err());

        // Valid JSON of the wrong shape.
        let shape = dir.join("shape.json");
        std::fs::write(&shape, "[1,2,3]").unwrap();
        let err = Checkpoint::load(&shape).unwrap_err().to_string();
        assert!(err.contains("invalid checkpoint"), "got: {err}");

        // Missing file names the OS error.
        assert!(Checkpoint::load(&dir.join("absent.json")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_save_leaves_previous_checkpoint_intact() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let old = Checkpoint::from_model(&CoarsenModel::new(CoarsenConfig::default(), &mut rng));
        let new = Checkpoint::from_model(&CoarsenModel::new(CoarsenConfig::default(), &mut rng));
        let dir = tmp_dir("interrupted");
        let mut mgr = CheckpointManager::new(dir.join("ckpt.json"), 1, 3);
        let path = mgr.snapshot_path(1);
        old.save(&path).unwrap();
        let old_bytes = std::fs::read(&path).unwrap();

        // Crash the epoch-1 snapshot between temp write and rename.
        mgr.faults = FaultInjector::new(0).at(Site::CheckpointSave, 1, Fault::Kill);
        let err = mgr.maybe_save(&new, 1).unwrap_err().to_string();
        assert!(err.contains("injected crash"), "got: {err}");

        // The previous checkpoint is untouched and loadable; the torn
        // temp file is present (as after a real crash) but ignored.
        assert_eq!(std::fs::read(&path).unwrap(), old_bytes);
        Checkpoint::load(&path).unwrap();
        assert!(Checkpoint::temp_path(&path).exists());

        // A later save (post-restart) succeeds and replaces the file.
        new.save(&path).unwrap();
        Checkpoint::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manager_snapshots_on_interval_and_prunes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let ckpt = Checkpoint::from_model(&CoarsenModel::new(CoarsenConfig::default(), &mut rng));
        let dir = tmp_dir("manager");
        let mgr = CheckpointManager::new(dir.join("model.json"), 2, 2);

        for epoch in 0..=8u64 {
            let wrote = mgr.maybe_save(&ckpt, epoch).unwrap();
            assert_eq!(
                wrote.is_some(),
                epoch > 0 && epoch % 2 == 0,
                "epoch {epoch}"
            );
        }
        let epochs: Vec<u64> = mgr.snapshots().iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, vec![6, 8], "keep-last-2 retention");
        assert_eq!(mgr.latest().unwrap(), mgr.snapshot_path(8));
        for (_, p) in mgr.snapshots() {
            Checkpoint::load(&p).unwrap();
        }

        let disabled = CheckpointManager::new(dir.join("other.json"), 0, 3);
        assert_eq!(disabled.maybe_save(&ckpt, 4).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
