//! Figure 9 — data saturation rates of coarsened-graph edges: Metis's
//! heavy-edge-matching coarsening vs the learned coarsening model. The
//! paper's claim: the learned model internalises the heavy flows, so the
//! *remaining* coarse edges have lower saturation.
//!
//! Run: `cargo run --release -p spg-bench --bin expt_fig9`
//! (add `-- --scale paper` for full size).

use spg_core::CoarsenConfig;
use spg_gen::Setting;
use spg_graph::{Coarsening, TupleRates, WeightedGraph};
use spg_sim::metrics::{coarse_edge_saturations, histogram, Summary};

fn main() {
    let protocol = spg_bench::protocol_from_args();
    let cfg = CoarsenConfig::default();
    let setting = Setting::Medium;
    let (_, test) = protocol.datasets(setting);

    let ours = spg_bench::coarsen_metis(&protocol, setting, &cfg, "f9");

    let mut ours_sats: Vec<f64> = Vec::new();
    let mut metis_sats: Vec<f64> = Vec::new();
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(protocol.seed);

    for g in &test.graphs {
        // Learned coarsening.
        let c = ours.coarsen(g, &test.cluster, test.source_rate);
        ours_sats.extend(coarse_edge_saturations(&c.coarse, &test.cluster));

        // Metis coarsening phase, matched to the same coarse size.
        let rates = TupleRates::compute(g, test.source_rate);
        let w = WeightedGraph::from_stream_with_rates(g, &rates);
        let target = c.coarse.num_nodes().max(2);
        let h = spg_partition::coarsen::coarsen_to(&w, target, None, &mut rng);
        // Map the hierarchy down to a node map on the original graph.
        let coarsest_n = h.coarsest().num_nodes();
        let coarse_ids: Vec<u32> = (0..coarsest_n as u32).collect();
        let node_map = h.project_to_finest(&coarse_ids);
        let mc = Coarsening::from_node_map(g, &rates, node_map, coarsest_n);
        metis_sats.extend(coarse_edge_saturations(&mc.coarse, &test.cluster));
    }

    println!("## Fig. 9: saturation of coarse edges (traffic / bandwidth)");
    for (name, sats) in [("Coarsening model", &ours_sats), ("Metis", &metis_sats)] {
        let s = Summary::of(sats);
        println!(
            "{name:<20} edges {:>6}  mean {:.4}  std {:.4}  max {:.4}",
            s.n, s.mean, s.std, s.max
        );
    }

    // Histogram series (the figure's distribution comparison).
    let max_sat = ours_sats
        .iter()
        .chain(metis_sats.iter())
        .copied()
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let bins = 10;
    println!(
        "\nsaturation-bin  model  metis   (bin width {:.4})",
        max_sat / bins as f64
    );
    let ho = histogram(&ours_sats, 0.0, max_sat, bins);
    let hm = histogram(&metis_sats, 0.0, max_sat, bins);
    for i in 0..bins {
        println!(
            "{:>12.4} {:>6} {:>6}",
            (i as f64 + 0.5) * max_sat / bins as f64,
            ho[i],
            hm[i]
        );
    }
}
