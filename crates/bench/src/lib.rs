//! # spg-bench
//!
//! The benchmark harness: one `expt_*` binary per table/figure of the
//! paper (see DESIGN.md's experiment index) plus Criterion microbenches.
//!
//! Every binary prints the same rows/series the paper reports and takes
//! `--scale quick|paper` (`quick` by default, `paper` for full-size runs).
//!
//! This library hosts the pieces the binaries share: training wrappers for
//! the learned baselines and the standard allocator line-ups.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_baselines::{GdpLite, GraphEncDec, Hierarchical, PolicyTrainOptions, PolicyTrainer};
use spg_core::pipeline::MetisCoarsePlacer;
use spg_core::{CoarsenAllocator, CoarsenConfig, TrainOptions};
use spg_eval::{ExperimentScale, Protocol};
use spg_gen::Setting;

/// The protocol of an `expt_*` binary from its command line,
/// `[--scale quick|paper]`. Any other argument prints usage and exits
/// with status 2.
pub fn protocol_from_args() -> Protocol {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_scale(&args) {
        Ok(scale) => Protocol::new(scale),
        Err(msg) => {
            eprintln!("{msg}\nusage: expt_* [--scale quick|paper]");
            std::process::exit(2);
        }
    }
}

/// The scale named by `[--scale quick|paper]`, `quick` when absent.
fn parse_scale(args: &[String]) -> Result<ExperimentScale, String> {
    match args {
        [] => Ok(ExperimentScale::Quick),
        [flag, name] if flag == "--scale" => ExperimentScale::parse(name)
            .ok_or_else(|| format!("unknown scale {name:?} (expected quick or paper)")),
        _ => Err(format!("unexpected arguments {args:?}")),
    }
}

/// Epochs for the learned direct-placement baselines at the given scale.
pub fn baseline_epochs(protocol: &Protocol) -> usize {
    match protocol.scale {
        spg_eval::ExperimentScale::Quick => 4,
        spg_eval::ExperimentScale::Paper => 20,
    }
}

/// Train a Graph-enc-dec baseline on a setting's training split.
pub fn trained_encdec(protocol: &Protocol, setting: Setting) -> GraphEncDec {
    let (train, _) = protocol.datasets(setting);
    let mut rng = ChaCha8Rng::seed_from_u64(protocol.seed ^ 0xE0);
    let model = GraphEncDec::new(&CoarsenConfig::default(), train.cluster.devices, &mut rng);
    let mut trainer = PolicyTrainer::new(
        model,
        train.graphs,
        train.cluster,
        train.source_rate,
        PolicyTrainOptions {
            seed: protocol.seed ^ 0xE1,
            ..Default::default()
        },
    );
    for _ in 0..baseline_epochs(protocol) {
        trainer.train_epoch();
    }
    trainer.into_model()
}

/// Train a GDP-lite baseline.
pub fn trained_gdp(protocol: &Protocol, setting: Setting) -> GdpLite {
    let (train, _) = protocol.datasets(setting);
    let mut rng = ChaCha8Rng::seed_from_u64(protocol.seed ^ 0xD0);
    let model = GdpLite::new(&CoarsenConfig::default(), train.cluster.devices, &mut rng);
    let mut trainer = PolicyTrainer::new(
        model,
        train.graphs,
        train.cluster,
        train.source_rate,
        PolicyTrainOptions {
            seed: protocol.seed ^ 0xD1,
            ..Default::default()
        },
    );
    for _ in 0..baseline_epochs(protocol) {
        trainer.train_epoch();
    }
    trainer.into_model()
}

/// Train a Hierarchical baseline (25 groups, as in the paper).
pub fn trained_hier(protocol: &Protocol, setting: Setting) -> Hierarchical {
    let (train, _) = protocol.datasets(setting);
    let mut rng = ChaCha8Rng::seed_from_u64(protocol.seed ^ 0xB0);
    let model = Hierarchical::new(
        &CoarsenConfig::default(),
        25,
        train.cluster.devices,
        &mut rng,
    );
    let mut trainer = PolicyTrainer::new(
        model,
        train.graphs,
        train.cluster,
        train.source_rate,
        PolicyTrainOptions {
            seed: protocol.seed ^ 0xB1,
            ..Default::default()
        },
    );
    for _ in 0..baseline_epochs(protocol) {
        trainer.train_epoch();
    }
    trainer.into_model()
}

/// The standard Coarsen+Metis allocator trained on `setting`.
pub fn coarsen_metis(
    protocol: &Protocol,
    setting: Setting,
    config: &CoarsenConfig,
    tag: &str,
) -> CoarsenAllocator<MetisCoarsePlacer> {
    let model = protocol.trained_coarsen_model(setting, config, &TrainOptions::default(), tag);
    CoarsenAllocator::new(model, MetisCoarsePlacer::new(protocol.seed ^ 0x31))
}

/// Train a coarsening model through a size curriculum (§IV-C), cached like
/// [`Protocol::trained_coarsen_model`]. `settings` are trained in order;
/// later levels fine-tune the earlier weights.
pub fn curriculum_coarsen_metis(
    protocol: &Protocol,
    settings: &[Setting],
    config: &CoarsenConfig,
    tag: &str,
) -> CoarsenAllocator<MetisCoarsePlacer> {
    use spg_core::checkpoint::Checkpoint;
    std::fs::create_dir_all(&protocol.artifacts_dir).ok();
    let options = TrainOptions::new().seed(protocol.seed ^ 0xC12);
    let slugs: Vec<&str> = settings.iter().map(|s| s.slug()).collect();
    let name = format!("curriculum-{tag}-{}", slugs.join("-"));
    let path = protocol.model_cache_path(&name, config, &options);
    if let Ok(ck) = Checkpoint::load(&path) {
        if ck.config == *config {
            return CoarsenAllocator::new(
                ck.into_model(),
                MetisCoarsePlacer::new(protocol.seed ^ 0x31),
            );
        }
    }
    let levels: Vec<spg_core::curriculum::CurriculumLevel> = settings
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            // First level trains longest; later levels fine-tune (1-3
            // epochs in the paper).
            let epochs = if i == 0 {
                protocol.epochs()
            } else {
                protocol.epochs().div_ceil(2)
            };
            protocol.level(s, epochs)
        })
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(protocol.seed ^ 0xC11);
    let model = spg_core::CoarsenModel::new(config.clone(), &mut rng);
    let placer = MetisCoarsePlacer::new(protocol.seed ^ 0x32);
    let (model, _history) =
        spg_core::curriculum::train_curriculum(model, &placer, &levels, &options);
    Checkpoint::from_model(&model).save(&path).ok();
    CoarsenAllocator::new(model, MetisCoarsePlacer::new(protocol.seed ^ 0x31))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_flag_defaults_to_quick_and_rejects_the_rest() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_scale(&args(&[])), Ok(ExperimentScale::Quick));
        assert_eq!(
            parse_scale(&args(&["--scale", "quick"])),
            Ok(ExperimentScale::Quick)
        );
        assert_eq!(
            parse_scale(&args(&["--scale", "paper"])),
            Ok(ExperimentScale::Paper)
        );
        for bad in [
            &["--scale"][..],
            &["--scale", "full"],
            &["--scale", "PAPER"],
            &["paper"],
            &["--scale", "paper", "--scale", "quick"],
        ] {
            assert!(parse_scale(&args(bad)).is_err(), "{bad:?}");
        }
    }

    fn tiny_protocol() -> Protocol {
        Protocol {
            scale: ExperimentScale::Quick,
            artifacts_dir: std::env::temp_dir().join("spg-bench-test"),
            seed: 3,
        }
    }

    #[test]
    fn coarsen_metis_is_buildable() {
        // One training run at quick scale must complete and produce a
        // usable allocator.
        let p = tiny_protocol();
        let alloc = coarsen_metis(&p, Setting::Small, &CoarsenConfig::default(), "test");
        let (_, test) = p.datasets(Setting::Small);
        let r = spg_eval::evaluate_allocator(&alloc as &dyn spg_graph::Allocator, &test);
        assert_eq!(r.throughputs.len(), test.graphs.len());
    }
}
