//! Figure 5 — throughput CDFs on medium graphs (100–200 nodes) under
//! three (tuple rate, devices) settings, comparing Metis, Graph-enc-dec,
//! GDP, Hierarchical, and Coarsen+Metis / Coarsen+Graph-enc-dec.
//!
//! Run: `cargo run --release -p spg-bench --bin expt_fig5`
//! (add `-- --scale paper` for full size).

use spg_core::{CoarsenAllocator, CoarsenConfig};
use spg_eval::{evaluate_allocator, render_cdf_series, render_table};
use spg_gen::Setting;
use spg_graph::Allocator;
use spg_partition::MetisAllocator;

fn main() {
    let protocol = spg_bench::protocol_from_args();
    let cfg = CoarsenConfig::default();

    for (setting, title) in [
        (
            Setting::MediumFiveDevices,
            "Fig. 5(a) 5K/s, 5 devices, 100~200 nodes",
        ),
        (
            Setting::Medium,
            "Fig. 5(b) 10K/s, 10 devices, 100~200 nodes",
        ),
    ] {
        let (_, test) = protocol.datasets(setting);
        eprintln!("[fig5] {title}: {} test graphs", test.graphs.len());

        let metis = MetisAllocator::new(protocol.seed);
        let encdec = spg_bench::trained_encdec(&protocol, setting);
        let gdp = spg_bench::trained_gdp(&protocol, setting);
        let hier = spg_bench::trained_hier(&protocol, setting);
        let ours =
            spg_bench::coarsen_metis(&protocol, setting, &cfg, &format!("f5-{}", setting.slug()));
        let ours_encdec = CoarsenAllocator::new(
            protocol.trained_coarsen_model(
                setting,
                &cfg,
                &Default::default(),
                &format!("f5-{}", setting.slug()),
            ),
            spg_bench::trained_encdec(&protocol, setting),
        );

        let results = vec![
            evaluate_allocator(&metis as &dyn Allocator, &test),
            evaluate_allocator(&encdec as &dyn Allocator, &test),
            evaluate_allocator(&gdp as &dyn Allocator, &test),
            evaluate_allocator(&hier as &dyn Allocator, &test),
            evaluate_allocator(&ours as &dyn Allocator, &test),
            evaluate_allocator(&ours_encdec as &dyn Allocator, &test),
        ];
        println!("{}", render_table(title, &results));
        println!("{}", render_cdf_series(&results, 20));
    }
}
