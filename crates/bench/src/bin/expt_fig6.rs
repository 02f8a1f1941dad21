//! Figure 6 — generalizability to larger unseen graphs.
//!
//! * (a) models trained on medium graphs (100–200 nodes, 10 devices),
//!   evaluated on large graphs (400–500 nodes, 10 devices), against Metis
//!   and the learned direct-placement baselines (also transferred).
//! * (b) curriculum ablation on the large setting: Coarsen-Fromscratch,
//!   Coarsen-Fromscratch+Metis-sample, transfer-from-medium (no
//!   fine-tuning), and the size curriculum.
//! * (c) transfer from large to x-large (1000–2000 nodes, 20 devices).
//!
//! Run: `cargo run --release -p spg-bench --bin expt_fig6`
//! (add `-- --scale paper` for full size).

use spg_core::{CoarsenConfig, TrainOptions};
use spg_eval::{evaluate_allocator, render_cdf_series, render_table, MethodResult};
use spg_gen::Setting;
use spg_graph::Allocator;
use spg_partition::MetisAllocator;

fn renamed(mut r: MethodResult, name: &str) -> MethodResult {
    r.name = name.to_string();
    r
}

fn main() {
    let protocol = spg_bench::protocol_from_args();
    let cfg = CoarsenConfig::default();

    // ---- (a) medium -> large transfer ---------------------------------
    {
        let (_, test) = protocol.datasets(Setting::Large);
        eprintln!("[fig6a] eval on {} large graphs", test.graphs.len());
        let metis = MetisAllocator::new(protocol.seed);
        // All learned models trained on the medium setting only.
        let encdec = spg_bench::trained_encdec(&protocol, Setting::Medium);
        let gdp = spg_bench::trained_gdp(&protocol, Setting::Medium);
        let ours_medium = spg_bench::coarsen_metis(&protocol, Setting::Medium, &cfg, "f6-med");

        // NOTE: Graph-enc-dec/GDP are built for 10 devices; Medium and
        // Large both use 10 devices, so direct transfer is well-defined.
        let results = vec![
            evaluate_allocator(&metis as &dyn Allocator, &test),
            renamed(
                evaluate_allocator(&encdec as &dyn Allocator, &test),
                "Graph-enc-dec (trained on medium)",
            ),
            renamed(
                evaluate_allocator(&gdp as &dyn Allocator, &test),
                "GDP (trained on medium)",
            ),
            renamed(
                evaluate_allocator(&ours_medium as &dyn Allocator, &test),
                "Coarsen+Metis (trained on medium)",
            ),
        ];
        println!(
            "{}",
            render_table("Fig. 6(a) medium-trained models on large graphs", &results)
        );
        println!("{}", render_cdf_series(&results, 20));
    }

    // ---- (b) curriculum ablation on large -----------------------------
    {
        let (_, test) = protocol.datasets(Setting::Large);
        let metis = MetisAllocator::new(protocol.seed);

        // From scratch, no Metis guide.
        let scratch_model = protocol.trained_coarsen_model(
            Setting::Large,
            &cfg,
            &TrainOptions::new().metis_guided(false),
            "f6-scratch",
        );
        let scratch = spg_core::CoarsenAllocator::new(
            scratch_model,
            spg_core::pipeline::MetisCoarsePlacer::new(protocol.seed ^ 0x41),
        );
        // From scratch with Metis-guided samples.
        let guided = spg_bench::coarsen_metis(&protocol, Setting::Large, &cfg, "f6-guided");
        // Transfer from medium without fine-tuning.
        let transfer = spg_bench::coarsen_metis(&protocol, Setting::Medium, &cfg, "f6-med");
        // Size curriculum medium -> large.
        let curriculum = spg_bench::curriculum_coarsen_metis(
            &protocol,
            &[Setting::Medium, Setting::Large],
            &cfg,
            "f6-curr",
        );

        let results = vec![
            evaluate_allocator(&metis as &dyn Allocator, &test),
            renamed(
                evaluate_allocator(&scratch as &dyn Allocator, &test),
                "Coarsen-Fromscratch",
            ),
            renamed(
                evaluate_allocator(&guided as &dyn Allocator, &test),
                "Coarsen-Fromscratch+Metis-sample",
            ),
            renamed(
                evaluate_allocator(&transfer as &dyn Allocator, &test),
                "Coarsen (transfer, no fine-tune)",
            ),
            renamed(
                evaluate_allocator(&curriculum as &dyn Allocator, &test),
                "Coarsen (+curriculum)",
            ),
        ];
        println!(
            "{}",
            render_table("Fig. 6(b) curriculum ablation on large graphs", &results)
        );
        println!("{}", render_cdf_series(&results, 20));
    }

    // ---- (c) large -> x-large transfer ---------------------------------
    {
        let (_, test) = protocol.datasets(Setting::XLarge);
        eprintln!("[fig6c] eval on {} x-large graphs", test.graphs.len());
        let metis = MetisAllocator::new(protocol.seed);
        let transfer = spg_bench::coarsen_metis(&protocol, Setting::Large, &cfg, "f6-large");
        let curriculum = spg_bench::curriculum_coarsen_metis(
            &protocol,
            &[Setting::Medium, Setting::Large, Setting::XLarge],
            &cfg,
            "f6c-curr",
        );
        let results = vec![
            evaluate_allocator(&metis as &dyn Allocator, &test),
            renamed(
                evaluate_allocator(&transfer as &dyn Allocator, &test),
                "Coarsen+Metis (trained on large)",
            ),
            renamed(
                evaluate_allocator(&curriculum as &dyn Allocator, &test),
                "Coarsen+Metis (+curriculum)",
            ),
        ];
        println!(
            "{}",
            render_table("Fig. 6(c) transfer to x-large graphs", &results)
        );
        println!("{}", render_cdf_series(&results, 20));
    }
}
