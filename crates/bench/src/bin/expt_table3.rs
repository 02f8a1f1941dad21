//! Table III — average inference time per graph (seconds) for datasets
//! with 100–200 and 400–500 nodes. The paper's shape: Metis is milliseconds,
//! the coarsening pipeline is a fraction of a second, sequential neural
//! decoders (Graph-enc-dec, GDP) are the slowest.
//!
//! Wall-clock timing with `std::time::Instant`; the Criterion bench
//! `inference_time` measures the same operations with statistical rigor.
//!
//! Run: `cargo run --release -p spg-bench --bin expt_table3`
//! (add `-- --scale paper` for full size).

use spg_core::CoarsenConfig;
use spg_gen::Setting;
use spg_graph::serialize::Dataset;
use spg_graph::Allocator;
use spg_partition::MetisAllocator;
use std::time::Instant;

fn mean_inference_secs(alloc: &dyn Allocator, ds: &Dataset) -> f64 {
    let start = Instant::now();
    for g in &ds.graphs {
        let p = alloc.allocate(g, &ds.cluster, ds.source_rate);
        std::hint::black_box(p);
    }
    start.elapsed().as_secs_f64() / ds.graphs.len() as f64
}

fn main() {
    let protocol = spg_bench::protocol_from_args();
    let cfg = CoarsenConfig::default();

    let mut columns = Vec::new();
    for setting in [Setting::Medium, Setting::Large] {
        let (_, test) = protocol.datasets(setting);
        eprintln!(
            "[table3] timing on {} ({} graphs)",
            setting.slug(),
            test.graphs.len()
        );

        let metis = MetisAllocator::new(protocol.seed);
        let ours =
            spg_bench::coarsen_metis(&protocol, setting, &cfg, &format!("t3-{}", setting.slug()));
        let hier = spg_bench::trained_hier(&protocol, setting);
        let gdp = spg_bench::trained_gdp(&protocol, setting);
        let encdec = spg_bench::trained_encdec(&protocol, setting);

        let rows: Vec<(&str, f64)> = vec![
            ("Coarsen+Metis", mean_inference_secs(&ours, &test)),
            ("Metis", mean_inference_secs(&metis, &test)),
            ("Hierarchical", mean_inference_secs(&hier, &test)),
            ("GDP", mean_inference_secs(&gdp, &test)),
            ("Graph-enc-dec", mean_inference_secs(&encdec, &test)),
        ];
        columns.push((setting.slug(), rows));
    }

    println!("## Table III: average inference time (seconds per graph)");
    print!("{:<16}", "method");
    for (slug, _) in &columns {
        print!(" {slug:>14}");
    }
    println!();
    for i in 0..columns[0].1.len() {
        print!("{:<16}", columns[0].1[i].0);
        for (_, rows) in &columns {
            print!(" {:>14.4}", rows[i].1);
        }
        println!();
    }
}
