//! # spg-gen
//!
//! Synthetic stream-graph generation following §V / Fig. 4 of the paper:
//! a seed graph is grown by recursively replacing nodes with one of three
//! basic subgraph templates — **linear**, **branch**, and **fully
//! connected** — with probabilities 0.45 / 0.45 / 0.1, until the node count
//! falls inside the target range. Subgraphs may additionally be
//! *replicated* in place (multi-stage parallelism).
//!
//! Workloads are then assigned: operator `ipt` and edge payloads are drawn
//! from log-normal distributions and rescaled so that the total computing
//! load of every graph in a dataset follows the same distribution relative
//! to cluster capacity (§V: "we set the total computing load for each graph
//! in the data set to have the same distribution").

pub mod catalog;
pub mod drift;
pub mod settings;
pub mod templates;
pub mod topology;
pub mod workload;

pub use drift::{drift_delta, drift_scenario, DriftKind, DriftScenario};
pub use settings::{DatasetSpec, Setting};
pub use topology::{GrowthConfig, TopologyGenerator};
pub use workload::{WorkloadConfig, WorkloadParams};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg_graph::serialize::Dataset;
use spg_graph::StreamGraph;

/// Generate one stream graph for `spec` from `seed`.
pub fn generate_graph(spec: &DatasetSpec, seed: u64) -> StreamGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let topo = TopologyGenerator::new(spec.growth.clone());
    let skeleton = topo.generate(&mut rng);
    workload::assign_workload(
        skeleton,
        &spec.workload,
        &spec.cluster(),
        spec.source_rate,
        &mut rng,
    )
}

/// Generate a whole dataset (deterministic in `base_seed`).
pub fn generate_dataset(spec: &DatasetSpec, count: usize, base_seed: u64) -> Dataset {
    let graphs: Vec<StreamGraph> = (0..count)
        .map(|i| generate_graph(spec, base_seed.wrapping_add(i as u64)))
        .collect();
    Dataset {
        name: spec.name.clone(),
        cluster: spec.cluster(),
        source_rate: spec.source_rate,
        graphs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_graphs_are_valid_and_in_range() {
        let spec = DatasetSpec::for_setting(Setting::Small);
        for seed in 0..8 {
            let g = generate_graph(&spec, seed);
            let (lo, hi) = spec.growth.node_range;
            assert!(
                g.num_nodes() >= lo && g.num_nodes() <= hi,
                "{} nodes outside [{lo}, {hi}]",
                g.num_nodes()
            );
            // DAG-ness is enforced by StreamGraph::from_parts; reaching here
            // means the graph is valid.
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::for_setting(Setting::Small);
        let a = generate_graph(&spec, 42);
        let b = generate_graph(&spec, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = DatasetSpec::for_setting(Setting::Small);
        let a = generate_graph(&spec, 1);
        let b = generate_graph(&spec, 2);
        assert!(a != b);
    }

    #[test]
    fn dataset_has_requested_count() {
        let spec = DatasetSpec::for_setting(Setting::Small);
        let ds = generate_dataset(&spec, 5, 7);
        assert_eq!(ds.graphs.len(), 5);
        assert_eq!(ds.source_rate, spec.source_rate);
    }
}
