//! Figure 1 — the motivating comparison: throughput CDFs of Metis vs a
//! graph-encoder-decoder on medium graphs (100–200 nodes). The paper's
//! point: the learned direct-placement model that wins on small graphs
//! falls behind the classical partitioner once graphs grow.
//!
//! Run: `cargo run --release -p spg-bench --bin expt_fig1`
//! (add `-- --scale paper` for full size).

use spg_eval::{evaluate_allocator, render_cdf_series, render_table};
use spg_gen::Setting;
use spg_graph::Allocator;
use spg_partition::MetisAllocator;

fn main() {
    let protocol = spg_bench::protocol_from_args();
    let setting = Setting::Medium;
    let (_, test) = protocol.datasets(setting);
    eprintln!(
        "[fig1] medium graphs: {} test graphs, {} devices, rate {}/s",
        test.graphs.len(),
        test.cluster.devices,
        test.source_rate
    );

    let metis = MetisAllocator::new(protocol.seed);
    let encdec = spg_bench::trained_encdec(&protocol, setting);

    let results = vec![
        evaluate_allocator(&metis as &dyn Allocator, &test),
        evaluate_allocator(&encdec as &dyn Allocator, &test),
    ];

    println!(
        "{}",
        render_table("Figure 1: Metis vs Graph-enc-dec (medium graphs)", &results)
    );
    println!("{}", render_cdf_series(&results, 20));
}
