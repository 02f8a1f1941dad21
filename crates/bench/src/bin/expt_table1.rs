//! Table I — AUC and relative improvement w.r.t. Metis across all
//! settings:
//!
//! * small (10K/s, 5 devices, 4–26 nodes): Metis, Graph-enc-dec,
//!   Coarsen+Metis
//! * medium (5K/s, 5 devices): Metis, Coarsen+Metis, Coarsen+Graph-enc-dec
//! * medium (10K/s, 10 devices): same line-up
//! * large (10K/s, 10 devices): same line-up
//! * x-large (10K/s, 20 devices): Metis, Coarsen+Metis direct,
//!   Coarsen+Metis (+curriculum), Coarsen+Metis-oracle (+curriculum)
//!
//! Run: `cargo run --release -p spg-bench --bin expt_table1`
//! (add `-- --scale paper` for full size).

use spg_core::{CoarsenAllocator, CoarsenConfig};
use spg_eval::{evaluate_allocator, render_table, MethodResult};
use spg_gen::Setting;
use spg_graph::Allocator;
use spg_partition::{MetisAllocator, MetisOracle};

fn block(title: &str, results: Vec<MethodResult>) {
    println!("{}", render_table(title, &results));
}

fn main() {
    let protocol = spg_bench::protocol_from_args();
    let cfg = CoarsenConfig::default();

    // ---- Small graphs -------------------------------------------------
    {
        let setting = Setting::Small;
        let (_, test) = protocol.datasets(setting);
        let metis = MetisAllocator::new(protocol.seed);
        let encdec = spg_bench::trained_encdec(&protocol, setting);
        let ours = spg_bench::coarsen_metis(&protocol, setting, &cfg, "t1-small");
        block(
            "Table I (10K/s, 5 devices, 4~26 nodes)",
            vec![
                evaluate_allocator(&metis as &dyn Allocator, &test),
                evaluate_allocator(&encdec as &dyn Allocator, &test),
                evaluate_allocator(&ours as &dyn Allocator, &test),
            ],
        );
    }

    // ---- Medium blocks -------------------------------------------------
    for (setting, title) in [
        (
            Setting::MediumFiveDevices,
            "Table I (5K/s, 5 devices, 100~200 nodes)",
        ),
        (
            Setting::Medium,
            "Table I (10K/s, 10 devices, 100~200 nodes)",
        ),
        (Setting::Large, "Table I (10K/s, 10 devices, 400~500 nodes)"),
    ] {
        let (_, test) = protocol.datasets(setting);
        let metis = MetisAllocator::new(protocol.seed);
        let ours =
            spg_bench::coarsen_metis(&protocol, setting, &cfg, &format!("t1-{}", setting.slug()));
        let encdec_placer = spg_bench::trained_encdec(&protocol, setting);
        let ours_encdec = CoarsenAllocator::new(
            protocol.trained_coarsen_model(
                setting,
                &cfg,
                &Default::default(),
                &format!("t1-{}", setting.slug()),
            ),
            encdec_placer,
        );
        block(
            title,
            vec![
                evaluate_allocator(&metis as &dyn Allocator, &test),
                evaluate_allocator(&ours as &dyn Allocator, &test),
                evaluate_allocator(&ours_encdec as &dyn Allocator, &test),
            ],
        );
    }

    // ---- X-large with curriculum ---------------------------------------
    {
        let setting = Setting::XLarge;
        let (_, test) = protocol.datasets(setting);
        let metis = MetisAllocator::new(protocol.seed);
        // Direct prediction: model trained on large graphs, applied here.
        let direct = spg_bench::coarsen_metis(&protocol, Setting::Large, &cfg, "t1-large");
        // Curriculum: medium -> large -> x-large.
        let curriculum = spg_bench::curriculum_coarsen_metis(
            &protocol,
            &[Setting::Medium, Setting::Large, Setting::XLarge],
            &cfg,
            "t1-xl",
        );
        let oracle_pipeline = spg_core::CoarsenOracleAllocator::new(
            spg_bench::curriculum_coarsen_metis(
                &protocol,
                &[Setting::Medium, Setting::Large, Setting::XLarge],
                &cfg,
                "t1-xl",
            )
            .model,
            protocol.seed ^ 0x77,
        );
        let oracle = MetisOracle::new(protocol.seed ^ 0x78);
        block(
            "Table I (10K/s, 20 devices, 1K~2K nodes)",
            vec![
                evaluate_allocator(&metis as &dyn Allocator, &test),
                evaluate_allocator(&direct as &dyn Allocator, &test),
                evaluate_allocator(&curriculum as &dyn Allocator, &test),
                evaluate_allocator(&oracle_pipeline as &dyn Allocator, &test),
                evaluate_allocator(&oracle as &dyn Allocator, &test),
            ],
        );
    }
}
