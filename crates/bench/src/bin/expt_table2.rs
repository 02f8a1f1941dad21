//! Table II — ablation study at 5K/s, 5 devices, 100–200 nodes:
//!
//! * Metis (baseline)
//! * Our best model (Coarsen+Metis)
//! * w/o edge features in the graph encoder
//! * w/o edge features in the edge-collapsing head
//! * Coarsen+Graph-enc-dec (swap the placer)
//! * Coarsen-only (no partitioning module)
//! * Graph-enc-dec (direct placement)
//!
//! Run: `cargo run --release -p spg-bench --bin expt_table2`
//! (add `-- --scale paper` for full size).

use spg_core::pipeline::CoarsenOnlyAllocator;
use spg_core::{CoarsenAllocator, CoarsenConfig};
use spg_eval::{evaluate_allocator, render_table, MethodResult};
use spg_gen::Setting;
use spg_graph::Allocator;
use spg_partition::MetisAllocator;

fn renamed(mut r: MethodResult, name: &str) -> MethodResult {
    r.name = name.to_string();
    r
}

fn main() {
    let protocol = spg_bench::protocol_from_args();
    let setting = Setting::MediumFiveDevices;
    let (_, test) = protocol.datasets(setting);
    eprintln!("[table2] {} test graphs", test.graphs.len());

    let metis = MetisAllocator::new(protocol.seed);
    let full = spg_bench::coarsen_metis(&protocol, setting, &CoarsenConfig::default(), "t2-full");
    let no_enc = spg_bench::coarsen_metis(
        &protocol,
        setting,
        &CoarsenConfig::without_edge_encoding(),
        "t2-noenc",
    );
    let no_head = spg_bench::coarsen_metis(
        &protocol,
        setting,
        &CoarsenConfig::without_edge_collapse_features(),
        "t2-nohead",
    );
    let coarsen_encdec = CoarsenAllocator::new(
        protocol.trained_coarsen_model(
            setting,
            &CoarsenConfig::default(),
            &Default::default(),
            "t2-full",
        ),
        spg_bench::trained_encdec(&protocol, setting),
    );
    let coarsen_only = CoarsenOnlyAllocator {
        model: protocol.trained_coarsen_model(
            setting,
            &CoarsenConfig::default(),
            &Default::default(),
            "t2-full",
        ),
    };
    let encdec = spg_bench::trained_encdec(&protocol, setting);

    let results = vec![
        evaluate_allocator(&metis as &dyn Allocator, &test),
        renamed(
            evaluate_allocator(&full as &dyn Allocator, &test),
            "Our best model (Coarsen+Metis)",
        ),
        renamed(
            evaluate_allocator(&no_enc as &dyn Allocator, &test),
            "Our best model w/o edge-encoding",
        ),
        renamed(
            evaluate_allocator(&no_head as &dyn Allocator, &test),
            "Our best model w/o edge-collapsing",
        ),
        evaluate_allocator(&coarsen_encdec as &dyn Allocator, &test),
        evaluate_allocator(&coarsen_only as &dyn Allocator, &test),
        evaluate_allocator(&encdec as &dyn Allocator, &test),
    ];
    println!(
        "{}",
        render_table(
            "Table II: ablations (5K/s, 5 devices, 100~200 nodes)",
            &results
        )
    );
}
