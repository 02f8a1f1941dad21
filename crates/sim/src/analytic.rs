//! Analytic bottleneck throughput model.
//!
//! Every resource load is linear in the source rate `I`:
//!
//! * CPU demand of device `d`: `Σ_{v on d} R_v · ipt_v`
//! * NIC load of device `d`: total egress plus total ingress, each capped by
//!   the link bandwidth (devices have one full-duplex NIC).
//!
//! The sustainable fraction of the offered load is therefore
//! `α = min(1, min_c capacity_c / load_c)` and the throughput is `α · I`.
//! A stream system under backpressure stabilises at exactly this rate — the
//! discrete-time simulator in [`crate::des`] confirms it empirically.
//!
//! The directional traffic `d1 → d2` of every device pair is reported too,
//! summed into a dense row-major `devices × devices` matrix in edge order,
//! but it never binds: a link's traffic sums a subset of the terms of its
//! source's egress, in the same order and over the same bandwidth, and
//! every term is ≥ 0, so that egress is always at least as tight. The
//! bottleneck scan reads resources in a fixed order, so a tie resolves
//! the same way in every process (see [`SimResult::bottleneck`]).

use spg_graph::{ClusterSpec, Placement, StreamGraph, TupleRates};

/// What limited the throughput of a placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bottleneck {
    /// Source rate fully sustained (no resource saturated).
    None,
    /// CPU of device `d` saturates first.
    DeviceCpu(u32),
    /// Egress NIC bandwidth of device `d` saturates first.
    NicEgress(u32),
    /// Ingress NIC bandwidth of device `d` saturates first.
    NicIngress(u32),
}

/// Result of an analytic simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Sustained throughput in tuples/second (per source).
    pub throughput: f64,
    /// `throughput / source_rate ∈ [0, 1]` — the paper's reward.
    pub relative: f64,
    /// Which resource saturated. Resources are scanned in a fixed order —
    /// device CPUs, NIC egress, then NIC ingress — each by ascending
    /// device id, and only a strictly lower ratio replaces the current
    /// one. So a tie goes to the first resource in that order. Links are
    /// not scanned: a link's traffic is part of its source's egress and
    /// shares its bandwidth, so that egress is always at least as tight.
    pub bottleneck: Bottleneck,
    /// CPU demand offered to each device at full source rate (instr/s).
    pub cpu_load: Vec<f64>,
    /// Egress bytes/s offered by each device at full source rate.
    pub egress: Vec<f64>,
    /// Ingress bytes/s offered to each device at full source rate.
    pub ingress: Vec<f64>,
    /// Directional inter-device traffic at full source rate (bytes/s),
    /// row-major `devices × devices`: entry `src * devices + dst` is the
    /// traffic from `src` to `dst`, zero for pairs no edge crosses.
    pub link_traffic: Vec<f64>,
}

impl SimResult {
    /// Average CPU utilisation over devices that received any load,
    /// at the *sustained* rate (matching the paper's §VI-B analysis).
    pub fn mean_used_cpu_utilisation(&self, cluster: &ClusterSpec) -> f64 {
        let cap = cluster.instr_per_sec();
        let used: Vec<f64> = self
            .cpu_load
            .iter()
            .filter(|&&l| l > 0.0)
            .map(|&l| l * self.relative / cap)
            .collect();
        if used.is_empty() {
            0.0
        } else {
            used.iter().sum::<f64>() / used.len() as f64
        }
    }

    /// Average bandwidth utilisation (egress+ingress over 2·BW) of devices
    /// that exchanged any traffic, at the sustained rate.
    pub fn mean_used_bw_utilisation(&self, cluster: &ClusterSpec) -> f64 {
        let bw = cluster.link_bytes_per_sec();
        let used: Vec<f64> = self
            .egress
            .iter()
            .zip(&self.ingress)
            .filter(|(&e, &i)| e + i > 0.0)
            .map(|(&e, &i)| (e + i) * self.relative / (2.0 * bw))
            .collect();
        if used.is_empty() {
            0.0
        } else {
            used.iter().sum::<f64>() / used.len() as f64
        }
    }
}

/// Simulate `placement` of `graph` on `cluster` at `source_rate`.
pub fn simulate(
    graph: &StreamGraph,
    cluster: &ClusterSpec,
    placement: &Placement,
    source_rate: f64,
) -> SimResult {
    let rates = TupleRates::compute(graph, source_rate);
    simulate_with_rates(graph, cluster, placement, &rates)
}

/// Simulate reusing precomputed tuple rates.
pub fn simulate_with_rates(
    graph: &StreamGraph,
    cluster: &ClusterSpec,
    placement: &Placement,
    rates: &TupleRates,
) -> SimResult {
    assert!(
        placement.validate(graph, cluster.devices),
        "placement must cover the graph and respect the device count"
    );
    let d = cluster.devices;
    let mut cpu_load = vec![0.0f64; d];
    for (v, op) in graph.ops().iter().enumerate() {
        cpu_load[placement.device(v) as usize] += rates.node[v] * op.ipt;
    }

    let mut egress = vec![0.0f64; d];
    let mut ingress = vec![0.0f64; d];
    let mut link_traffic = vec![0.0f64; d * d];
    for (i, &(s, t)) in graph.edge_list().iter().enumerate() {
        let (ds, dt) = (
            placement.device(s as usize) as usize,
            placement.device(t as usize) as usize,
        );
        if ds == dt {
            continue;
        }
        let traffic = rates.edge[i] * graph.channel(spg_graph::EdgeId(i as u32)).payload;
        egress[ds] += traffic;
        ingress[dt] += traffic;
        link_traffic[ds * d + dt] += traffic;
    }

    let cpu_cap = cluster.instr_per_sec();
    let bw = cluster.link_bytes_per_sec();

    let mut alpha = 1.0f64;
    let mut bottleneck = Bottleneck::None;
    for (dev, &load) in cpu_load.iter().enumerate() {
        if load > 0.0 {
            let a = cpu_cap / load;
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

    SimResult {
        throughput: alpha * rates.source_rate,
        relative: alpha,
        bottleneck,
        cpu_load,
        egress,
        ingress,
        link_traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_graph::{Channel, Operator, StreamGraphBuilder};

    /// source(ipt 100) -> worker(ipt heavy) -> sink(ipt 100), payload 1000 B.
    fn pipeline(worker_ipt: f64, payload: f64) -> StreamGraph {
        let mut b = StreamGraphBuilder::new();
        let s = b.add_node(Operator::new(100.0));
        let w = b.add_node(Operator::new(worker_ipt));
        let k = b.add_node(Operator::new(100.0));
        b.add_edge(s, w, Channel::new(payload)).unwrap();
        b.add_edge(w, k, Channel::new(payload)).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn unconstrained_graph_sustains_full_rate() {
        let g = pipeline(100.0, 10.0);
        let cluster = ClusterSpec::paper_medium(2);
        let p = Placement::all_on_one(3);
        let r = simulate(&g, &cluster, &p, 1e4);
        assert_eq!(r.bottleneck, Bottleneck::None);
        assert!((r.relative - 1.0).abs() < 1e-12);
        assert!((r.throughput - 1e4).abs() < 1e-9);
    }

    #[test]
    fn cpu_bottleneck_scales_throughput() {
        // Worker needs 2.5e9 instr/s at 1e4 t/s vs 1.25e9 capacity -> α = 0.5
        let g = pipeline(2.5e5, 10.0);
        let cluster = ClusterSpec::paper_medium(3);
        let p = Placement::new(vec![0, 1, 2]);
        let r = simulate(&g, &cluster, &p, 1e4);
        assert_eq!(r.bottleneck, Bottleneck::DeviceCpu(1));
        assert!((r.relative - 0.5).abs() < 1e-9);
        assert!((r.throughput - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn colocating_removes_network_bottleneck() {
        // Payload 1e5 B at 1e4 t/s = 1e9 B/s over a 125e6 B/s link.
        let g = pipeline(100.0, 1e5);
        let cluster = ClusterSpec::paper_medium(2);
        let split = simulate(&g, &cluster, &Placement::new(vec![0, 1, 0]), 1e4);
        assert!(split.relative < 0.2, "link saturation should throttle");
        let merged = simulate(&g, &cluster, &Placement::all_on_one(3), 1e4);
        assert!((merged.relative - 1.0).abs() < 1e-12);
        assert!(merged.throughput > split.throughput * 5.0);
    }

    #[test]
    fn nic_aggregates_multiple_flows() {
        // One source fans out to two workers on two other devices; egress of
        // the source device carries both flows.
        let mut b = StreamGraphBuilder::new();
        let s = b.add_node(Operator::new(10.0));
        let w1 = b.add_node(Operator::new(10.0));
        let w2 = b.add_node(Operator::new(10.0));
        b.add_edge(s, w1, Channel::new(8000.0)).unwrap();
        b.add_edge(s, w2, Channel::new(8000.0)).unwrap();
        let g = b.finish().unwrap();
        let cluster = ClusterSpec::paper_medium(3);
        let p = Placement::new(vec![0, 1, 2]);
        let r = simulate(&g, &cluster, &p, 1e4);
        // Each flow: 8e7 B/s; NIC egress 1.6e8 > 1.25e8 = BW, links fine.
        assert_eq!(r.bottleneck, Bottleneck::NicEgress(0));
        assert!((r.relative - 125e6 / 160e6).abs() < 1e-9);
    }

    #[test]
    fn tied_links_resolve_in_scan_order() {
        // Two equal flows, listed so the higher device pair comes first:
        // n0 -> n1 crosses 2 -> 1 and n2 -> n3 crosses 0 -> 3. Each link
        // ties with its source's egress and its destination's ingress.
        let mut b = StreamGraphBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(Operator::new(1.0))).collect();
        b.add_edge(n[0], n[1], Channel::new(1e5)).unwrap();
        b.add_edge(n[2], n[3], Channel::new(1e5)).unwrap();
        let g = b.finish().unwrap();
        let cluster = ClusterSpec::paper_medium(4);
        let r = simulate(&g, &cluster, &Placement::new(vec![2, 1, 0, 3]), 1e4);
        let d = cluster.devices;
        assert_eq!(r.link_traffic.len(), d * d);
        let links: Vec<usize> = (0..d * d).filter(|&c| r.link_traffic[c] > 0.0).collect();
        assert_eq!(links, vec![3, 2 * d + 1], "cells 0 -> 3 and 2 -> 1");
        assert_eq!(
            r.link_traffic[3].to_bits(),
            r.link_traffic[2 * d + 1].to_bits()
        );
        assert!((r.relative - 125e6 / 1e9).abs() < 1e-12);
        // Links are not scanned, and tied egresses go to device 0 first.
        assert_eq!(r.bottleneck, Bottleneck::NicEgress(0));
        // Listing the flows the other way round names the same resource.
        let mut b = StreamGraphBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(Operator::new(1.0))).collect();
        b.add_edge(n[2], n[3], Channel::new(1e5)).unwrap();
        b.add_edge(n[0], n[1], Channel::new(1e5)).unwrap();
        let g = b.finish().unwrap();
        let again = simulate(&g, &cluster, &Placement::new(vec![2, 1, 0, 3]), 1e4);
        assert_eq!(again.bottleneck, r.bottleneck);
        assert_eq!(again.link_traffic, r.link_traffic);
    }

    #[test]
    fn relative_is_at_most_one() {
        let g = pipeline(1.0, 1.0);
        let cluster = ClusterSpec::paper_medium(2);
        let r = simulate(&g, &cluster, &Placement::new(vec![0, 1, 0]), 1.0);
        assert!(r.relative <= 1.0);
    }

    #[test]
    fn utilisation_metrics() {
        let g = pipeline(2.5e5, 10.0);
        let cluster = ClusterSpec::paper_medium(3);
        let p = Placement::new(vec![0, 1, 2]);
        let r = simulate(&g, &cluster, &p, 1e4);
        let mu = r.mean_used_cpu_utilisation(&cluster);
        assert!(mu > 0.0 && mu <= 1.0);
        // The saturated device runs at exactly 100% of capacity.
        let cap = cluster.instr_per_sec();
        let worker_util = r.cpu_load[1] * r.relative / cap;
        assert!((worker_util - 1.0).abs() < 1e-9);
    }
}
