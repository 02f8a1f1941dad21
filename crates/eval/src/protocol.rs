//! The shared experiment protocol used by every table/figure regenerator.
//!
//! Two scales are supported:
//!
//! * [`ExperimentScale::Quick`] (default) — graphs scaled to half the
//!   paper's node counts and small train/test splits, so every
//!   experiment finishes in minutes on one CPU core.
//! * [`ExperimentScale::Paper`] — the paper's dataset sizes (hundreds of
//!   graphs, 100–2000 nodes). The `expt_*` binaries select it with
//!   `--scale paper`.
//!
//! Trained coarsening models are cached as JSON checkpoints under the
//! artifact directory so consecutive experiments share them. A cached
//! file's name carries everything that decides its weights (see
//! [`Protocol::model_cache_path`]), so a changed seed, epoch count,
//! config or option trains a new model instead of loading a stale one.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_core::checkpoint::Checkpoint;
use spg_core::curriculum::CurriculumLevel;
use spg_core::pipeline::MetisCoarsePlacer;
use spg_core::{CoarsenConfig, CoarsenModel, ReinforceTrainer, TrainOptions};
use spg_gen::{DatasetSpec, Setting};
use spg_graph::serialize::Dataset;
use std::path::PathBuf;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Minutes-long CPU runs (half-size graphs, small splits).
    Quick,
    /// The paper's dataset sizes (long runs).
    Paper,
}

impl ExperimentScale {
    /// Parse a scale name: `quick` or `paper`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Self::Quick),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }
}

/// Shared protocol state.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Scale selection.
    pub scale: ExperimentScale,
    /// Directory for cached datasets/checkpoints and emitted artifacts.
    pub artifacts_dir: PathBuf,
    /// Base seed for all derived RNG streams.
    pub seed: u64,
}

impl Protocol {
    /// The protocol at `scale`, artifacts into `target/spg-artifacts`.
    pub fn new(scale: ExperimentScale) -> Self {
        Self {
            scale,
            artifacts_dir: PathBuf::from("target/spg-artifacts"),
            seed: 0xA11CA7E,
        }
    }

    /// Dataset spec for a setting at the current scale.
    pub fn spec(&self, setting: Setting) -> DatasetSpec {
        match self.scale {
            ExperimentScale::Quick => DatasetSpec::scaled_down(setting),
            ExperimentScale::Paper => DatasetSpec::for_setting(setting),
        }
    }

    /// `(train, test)` graph counts.
    pub fn split_sizes(&self, setting: Setting) -> (usize, usize) {
        match (self.scale, setting) {
            (ExperimentScale::Quick, _) => (32, 32),
            (ExperimentScale::Paper, Setting::Small) => (200, 100),
            // Paper: 1,500 medium / 1,100 large / 1,500 x-large graphs,
            // 300 of each held out for testing (§V).
            (ExperimentScale::Paper, Setting::Large | Setting::ExcessDevice) => (800, 300),
            (ExperimentScale::Paper, _) => (1200, 300),
        }
    }

    /// Training epochs at the current scale.
    pub fn epochs(&self) -> usize {
        match self.scale {
            ExperimentScale::Quick => 30,
            ExperimentScale::Paper => 20,
        }
    }

    /// Deterministic `(train, test)` datasets for a setting.
    pub fn datasets(&self, setting: Setting) -> (Dataset, Dataset) {
        let spec = self.spec(setting);
        let (n_train, n_test) = self.split_sizes(setting);
        let ds =
            spg_gen::generate_dataset(&spec, n_train + n_test, self.seed ^ setting_tag(setting));
        ds.split(n_test)
    }

    /// A curriculum level built from a setting's training split.
    pub fn level(&self, setting: Setting, epochs: usize) -> CurriculumLevel {
        let spec = self.spec(setting);
        let (train, _) = self.datasets(setting);
        CurriculumLevel {
            name: spec.name,
            graphs: train.graphs,
            cluster: train.cluster,
            source_rate: train.source_rate,
            epochs,
        }
    }

    /// The cache file of a model trained under this protocol: `name`
    /// (which model, e.g. `coarsen-small-ablation`), then the scale, the
    /// protocol seed, the epoch count and an FNV-1a digest of `config`
    /// and `options`. `options.num_workers` is left out of the digest
    /// because every worker count trains the same bits.
    pub fn model_cache_path(
        &self,
        name: &str,
        config: &CoarsenConfig,
        options: &TrainOptions,
    ) -> PathBuf {
        let mut options = options.clone();
        options.num_workers = 0;
        let mut digest: u64 = 0xcbf29ce484222325;
        for b in format!("{config:?} {options:?}").bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x100000001b3);
        }
        let scale = match self.scale {
            ExperimentScale::Quick => "quick",
            ExperimentScale::Paper => "paper",
        };
        self.artifacts_dir.join(format!(
            "{name}-{scale}-seed{}-e{}-{digest:016x}.json",
            self.seed,
            self.epochs()
        ))
    }

    /// Train (or load from cache) a coarsening model on a setting's
    /// training split with the Metis placer. `tag` distinguishes variants
    /// (e.g. ablations) in the cache.
    pub fn trained_coarsen_model(
        &self,
        setting: Setting,
        config: &CoarsenConfig,
        options: &TrainOptions,
        tag: &str,
    ) -> CoarsenModel {
        std::fs::create_dir_all(&self.artifacts_dir).ok();
        let name = format!("coarsen-{}-{tag}", setting_slug(setting));
        let path = self.model_cache_path(&name, config, options);
        if let Ok(ck) = Checkpoint::load(&path) {
            if ck.config == *config {
                return ck.into_model();
            }
        }

        let (train, _) = self.datasets(setting);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x7EA);
        let model = CoarsenModel::new(config.clone(), &mut rng);
        let mut trainer =
            ReinforceTrainer::builder(model, MetisCoarsePlacer::new(self.seed ^ 0x9A))
                .graphs(train.graphs)
                .cluster(train.cluster)
                .source_rate(train.source_rate)
                .options(options.clone())
                .build();
        for _ in 0..self.epochs() {
            trainer.train_epoch();
        }
        let model = trainer.into_model();
        Checkpoint::from_model(&model).save(&path).ok();
        model
    }
}

fn setting_tag(setting: Setting) -> u64 {
    match setting {
        Setting::Small => 0x51,
        Setting::MediumFiveDevices => 0x52,
        Setting::Medium => 0x53,
        Setting::Large => 0x54,
        Setting::XLarge => 0x55,
        Setting::ExcessDevice => 0x56,
    }
}

fn setting_slug(setting: Setting) -> &'static str {
    setting.slug()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_deterministic_and_split() {
        let p = Protocol {
            scale: ExperimentScale::Quick,
            artifacts_dir: "/tmp/spg-test-art".into(),
            seed: 1,
        };
        let (tr1, te1) = p.datasets(Setting::Small);
        let (tr2, te2) = p.datasets(Setting::Small);
        assert_eq!(tr1.graphs, tr2.graphs);
        assert_eq!(te1.graphs, te2.graphs);
        assert_eq!(tr1.graphs.len() + te1.graphs.len(), 64);
    }

    #[test]
    fn different_settings_get_different_graphs() {
        let p = Protocol {
            scale: ExperimentScale::Quick,
            artifacts_dir: "/tmp/spg-test-art".into(),
            seed: 1,
        };
        let (a, _) = p.datasets(Setting::Small);
        let (b, _) = p.datasets(Setting::Medium);
        assert!(a.graphs[0] != b.graphs[0]);
    }

    #[test]
    fn model_cache_path_keys_on_what_decides_the_model() {
        let protocol = |seed| Protocol {
            scale: ExperimentScale::Quick,
            artifacts_dir: "/tmp/spg-test-art".into(),
            seed,
        };
        let config = CoarsenConfig::default();
        let options = TrainOptions::new().num_workers(1);
        let path = protocol(1).model_cache_path("coarsen-small-x", &config, &options);
        let name = path.file_name().unwrap().to_str().unwrap();
        assert!(
            name.starts_with("coarsen-small-x-quick-seed1-e30-"),
            "{name}"
        );
        // Two seeds, scales, configs or option sets: two files.
        for other in [
            protocol(2).model_cache_path("coarsen-small-x", &config, &options),
            Protocol {
                scale: ExperimentScale::Paper,
                ..protocol(1)
            }
            .model_cache_path("coarsen-small-x", &config, &options),
            protocol(1).model_cache_path(
                "coarsen-small-x",
                &CoarsenConfig {
                    hidden: 16,
                    ..config.clone()
                },
                &options,
            ),
            protocol(1).model_cache_path("coarsen-small-x", &config, &options.clone().lr(2e-3)),
            protocol(1).model_cache_path("coarsen-small-x", &config, &options.clone().seed(5)),
        ] {
            assert_ne!(path, other);
        }
        // Two worker counts train the same bits: one file.
        for workers in [2, 4] {
            let options = options.clone().num_workers(workers);
            assert_eq!(
                path,
                protocol(1).model_cache_path("coarsen-small-x", &config, &options)
            );
        }
    }

    #[test]
    fn level_matches_training_split() {
        let p = Protocol {
            scale: ExperimentScale::Quick,
            artifacts_dir: "/tmp/spg-test-art".into(),
            seed: 2,
        };
        let lvl = p.level(Setting::Small, 3);
        let (train, _) = p.datasets(Setting::Small);
        assert_eq!(lvl.graphs.len(), train.graphs.len());
        assert_eq!(lvl.epochs, 3);
    }
}
