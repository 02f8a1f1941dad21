//! Analytic throughput on heterogeneous clusters (the paper's future-work
//! extension): same bottleneck model as [`crate::analytic`], with
//! per-device CPU capacities and the same tie rule.

use crate::analytic::Bottleneck;
use spg_graph::hetero::HeteroClusterSpec;
use spg_graph::{Placement, StreamGraph, TupleRates};

/// Result of a heterogeneous simulation.
#[derive(Debug, Clone)]
pub struct HeteroSimResult {
    /// Sustained throughput in tuples/second.
    pub throughput: f64,
    /// `throughput / source_rate ∈ [0, 1]`.
    pub relative: f64,
    /// Which resource saturated; ties resolve as in
    /// [`crate::analytic::SimResult::bottleneck`].
    pub bottleneck: Bottleneck,
    /// Per-device CPU demand at full rate (instr/s).
    pub cpu_load: Vec<f64>,
}

/// Simulate `placement` on a heterogeneous cluster.
pub fn simulate_hetero(
    graph: &StreamGraph,
    cluster: &HeteroClusterSpec,
    placement: &Placement,
    source_rate: f64,
) -> HeteroSimResult {
    assert!(
        placement.len() == graph.num_nodes() && placement.max_device_bound() <= cluster.devices(),
        "placement must cover the graph and respect the device count"
    );
    let rates = TupleRates::compute(graph, source_rate);
    let d = cluster.devices();
    let mut cpu_load = vec![0.0f64; d];
    for (v, op) in graph.ops().iter().enumerate() {
        cpu_load[placement.device(v) as usize] += rates.node[v] * op.ipt;
    }

    let mut egress = vec![0.0f64; d];
    let mut ingress = vec![0.0f64; d];
    for (i, &(s, t)) in graph.edge_list().iter().enumerate() {
        let (ds, dt) = (
            placement.device(s as usize) as usize,
            placement.device(t as usize) as usize,
        );
        if ds == dt {
            continue;
        }
        let traffic = rates.edge[i] * graph.channels()[i].payload;
        egress[ds] += traffic;
        ingress[dt] += traffic;
    }

    let bw = cluster.link_bytes_per_sec();
    let mut alpha = 1.0f64;
    let mut bottleneck = Bottleneck::None;
    for (dev, &load) in cpu_load.iter().enumerate() {
        if load > 0.0 {
            let a = cluster.instr_per_sec(dev) / load;
            if a < alpha {
                alpha = a;
                bottleneck = Bottleneck::DeviceCpu(dev as u32);
            }
        }
    }
    for (dev, &load) in egress.iter().enumerate() {
        if load > 0.0 {
            let a = bw / load;
            if a < alpha {
                alpha = a;
                bottleneck = Bottleneck::NicEgress(dev as u32);
            }
        }
    }
    for (dev, &load) in ingress.iter().enumerate() {
        if load > 0.0 {
            let a = bw / load;
            if a < alpha {
                alpha = a;
                bottleneck = Bottleneck::NicIngress(dev as u32);
            }
        }
    }

    HeteroSimResult {
        throughput: alpha * source_rate,
        relative: alpha,
        bottleneck,
        cpu_load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_graph::{Channel, ClusterSpec, Operator, Placement, StreamGraphBuilder};

    fn two_workers() -> StreamGraph {
        // source -> heavy, source -> light
        let mut b = StreamGraphBuilder::new();
        let s = b.add_node(Operator::new(10.0));
        let heavy = b.add_node(Operator::new(2e5));
        let light = b.add_node(Operator::new(5e4));
        b.add_edge(s, heavy, Channel::with_selectivity(8.0, 0.5))
            .unwrap();
        b.add_edge(s, light, Channel::with_selectivity(8.0, 0.5))
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn matches_homogeneous_simulation_when_uniform() {
        let g = two_workers();
        let homo = ClusterSpec::paper_medium(3);
        let het = HeteroClusterSpec::homogeneous(&homo);
        let p = Placement::new(vec![0, 1, 2]);
        let a = crate::analytic::simulate(&g, &homo, &p, 1e4);
        let h = simulate_hetero(&g, &het, &p, 1e4);
        assert!((a.relative - h.relative).abs() < 1e-12);
    }

    #[test]
    fn big_device_for_heavy_operator_wins() {
        let g = two_workers();
        // Device 0: small, device 1: 4x larger.
        let het = HeteroClusterSpec::new(vec![500.0, 2000.0], 1000.0);
        // Heavy on the big device.
        let good = Placement::new(vec![0, 1, 0]);
        // Heavy on the small device.
        let bad = Placement::new(vec![1, 0, 1]);
        let rg = simulate_hetero(&g, &het, &good, 1e4).relative;
        let rb = simulate_hetero(&g, &het, &bad, 1e4).relative;
        assert!(rg > rb, "matching capacities must help: {rg} vs {rb}");
    }

    #[test]
    fn cpu_bottleneck_identifies_device() {
        let g = two_workers();
        let het = HeteroClusterSpec::new(vec![1000.0, 10.0], 10_000.0);
        let p = Placement::new(vec![0, 1, 0]);
        let r = simulate_hetero(&g, &het, &p, 1e4);
        assert_eq!(r.bottleneck, Bottleneck::DeviceCpu(1));
        assert!(r.relative < 1.0);
    }
}
