//! Figure 7 — the excess-device setting: large topologies with node CPU
//! utilisation and bandwidth reduced by 33%, so the optimal allocation
//! uses a *subset* of the 10 devices.
//!
//! * (a) throughput CDFs: Metis, Metis-oracle (sweeps the device count),
//!   Coarsen+Metis transferred from medium, and Coarsen+Metis fine-tuned
//!   on the excess setting.
//! * (b) histogram of the number of devices actually used per graph.
//!
//! Run: `cargo run --release -p spg-bench --bin expt_fig7`
//! (add `-- --scale paper` for full size).

use spg_core::CoarsenConfig;
use spg_eval::stats::count_histogram;
use spg_eval::{evaluate_allocator, render_cdf_series, render_table, MethodResult};
use spg_gen::Setting;
use spg_graph::Allocator;
use spg_partition::{MetisAllocator, MetisOracle};

fn renamed(mut r: MethodResult, name: &str) -> MethodResult {
    r.name = name.to_string();
    r
}

fn main() {
    let protocol = spg_bench::protocol_from_args();
    let cfg = CoarsenConfig::default();
    let (_, test) = protocol.datasets(Setting::ExcessDevice);
    eprintln!(
        "[fig7] excess-device setting: {} graphs, {} devices",
        test.graphs.len(),
        test.cluster.devices
    );

    let metis = MetisAllocator::new(protocol.seed);
    let oracle = MetisOracle::new(protocol.seed ^ 0x51);
    // Direct transfer from the medium setting (no fine-tuning).
    let transfer = spg_bench::coarsen_metis(&protocol, Setting::Medium, &cfg, "f7-med");
    // Fine-tuned on the excess setting (the paper's curriculum transfer).
    let finetuned = spg_bench::curriculum_coarsen_metis(
        &protocol,
        &[Setting::Medium, Setting::ExcessDevice],
        &cfg,
        "f7-ft",
    );

    // Coarsen+Metis-oracle with the fine-tuned model (the paper's best
    // configuration in this setting).
    let coarsen_oracle = spg_core::CoarsenOracleAllocator::new(
        spg_bench::curriculum_coarsen_metis(
            &protocol,
            &[Setting::Medium, Setting::ExcessDevice],
            &cfg,
            "f7-ft",
        )
        .model,
        protocol.seed ^ 0x52,
    );

    let results = vec![
        evaluate_allocator(&metis as &dyn Allocator, &test),
        evaluate_allocator(&oracle as &dyn Allocator, &test),
        renamed(
            evaluate_allocator(&transfer as &dyn Allocator, &test),
            "Coarsen+Metis (no fine-tune)",
        ),
        renamed(
            evaluate_allocator(&finetuned as &dyn Allocator, &test),
            "Coarsen+Metis+Finetuning",
        ),
        renamed(
            evaluate_allocator(&coarsen_oracle as &dyn Allocator, &test),
            "Coarsen+Metis-oracle (+curriculum)",
        ),
    ];

    println!(
        "{}",
        render_table("Fig. 7(a) excess-device throughput CDFs", &results)
    );
    println!("{}", render_cdf_series(&results, 20));

    println!("## Fig. 7(b) devices-used histogram (graphs per device count)");
    print!("{:<34}", "method");
    for d in 0..=test.cluster.devices {
        print!(" {d:>4}");
    }
    println!();
    for r in &results {
        let h = count_histogram(r.devices_used.iter().copied(), test.cluster.devices);
        print!("{:<34}", r.name);
        for c in h {
            print!(" {c:>4}");
        }
        println!();
    }

    // Device / bandwidth utilisation comparison (§VI-B's analysis).
    println!("\n## Utilisation of used devices (mean ± std over graphs)");
    for (name, alloc) in [
        ("Metis-oracle", &oracle as &dyn Allocator),
        ("Coarsen+Metis+Finetuning", &finetuned as &dyn Allocator),
    ] {
        let mut cpu = Vec::new();
        let mut bw = Vec::new();
        for g in &test.graphs {
            let p = alloc.allocate(g, &test.cluster, test.source_rate);
            let sim = spg_sim::analytic::simulate(g, &test.cluster, &p, test.source_rate);
            cpu.push(sim.mean_used_cpu_utilisation(&test.cluster));
            bw.push(sim.mean_used_bw_utilisation(&test.cluster));
        }
        let cpu_s = spg_sim::metrics::Summary::of(&cpu);
        let bw_s = spg_sim::metrics::Summary::of(&bw);
        println!(
            "{name:<34} cpu {:.2} ({:.2})   bw {:.2} ({:.2})",
            cpu_s.mean, cpu_s.std, bw_s.mean, bw_s.std
        );
    }
}
