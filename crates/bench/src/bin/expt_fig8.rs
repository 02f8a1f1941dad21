//! Figure 8 — where the learned coarsening wins: throughput as a function
//! of the achieved *compression ratio* `|V| / |V_coarse|`. The paper bins
//! graphs by compression ratio and shows boxplots of Coarsen+Metis vs
//! Metis throughputs per bin; the learned model pulls ahead at ratios ≥ 4x.
//!
//! Run: `cargo run --release -p spg-bench --bin expt_fig8`
//! (add `-- --scale paper` for full size).

use spg_core::CoarsenConfig;
use spg_eval::stats::{bucket_by, BoxStats};
use spg_gen::Setting;
use spg_graph::Allocator;
use spg_partition::MetisAllocator;

fn main() {
    let protocol = spg_bench::protocol_from_args();
    let cfg = CoarsenConfig::default();
    // The paper's compression-ratio analysis needs graphs with coarsening
    // headroom; use the large setting and the curriculum-trained model.
    let setting = Setting::Large;
    let (_, test) = protocol.datasets(setting);

    let ours = spg_bench::curriculum_coarsen_metis(
        &protocol,
        &[Setting::Medium, Setting::Large],
        &cfg,
        "f6-curr",
    );
    let metis = MetisAllocator::new(protocol.seed);

    let mut ratios = Vec::new();
    let mut ours_tp = Vec::new();
    let mut metis_tp = Vec::new();
    for g in &test.graphs {
        let coarsening = ours.coarsen(g, &test.cluster, test.source_rate);
        ratios.push(coarsening.compression_ratio());

        let p = ours.allocate(g, &test.cluster, test.source_rate);
        ours_tp
            .push(spg_sim::analytic::simulate(g, &test.cluster, &p, test.source_rate).throughput);
        let pm = metis.allocate(g, &test.cluster, test.source_rate);
        metis_tp
            .push(spg_sim::analytic::simulate(g, &test.cluster, &pm, test.source_rate).throughput);
    }

    // Ratio bins roughly equalising graph counts, as in the paper.
    let mut sorted = ratios.clone();
    sorted.sort_by(f64::total_cmp);
    let edges = vec![
        0.0,
        spg_eval::stats::quantile(&sorted, 0.25),
        spg_eval::stats::quantile(&sorted, 0.5),
        spg_eval::stats::quantile(&sorted, 0.75),
        f64::INFINITY,
    ];

    println!("## Fig. 8: throughput vs compression ratio (boxplot five-number summaries)");
    println!("ratio bin edges: {:?}", &edges[1..4]);
    for (name, tps) in [("Coarsen+Metis", &ours_tp), ("Metis", &metis_tp)] {
        println!("# {name}");
        let buckets = bucket_by(tps, &ratios, &edges);
        for (i, b) in buckets.iter().enumerate() {
            let s = BoxStats::of(b);
            println!(
                "bin{} (n={:>3}): min {:>8.0}  q1 {:>8.0}  med {:>8.0}  q3 {:>8.0}  max {:>8.0}",
                i, s.n, s.min, s.q1, s.median, s.q3, s.max
            );
        }
    }
}
