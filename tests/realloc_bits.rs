//! Warm re-allocation bits pinned across commits: one digest over what
//! `realloc_decide` answers for seeded drift on allocated priors, the
//! text of every delta and graph-construction refusal, and the analytic
//! simulator's loads. `tests/realloc.rs` compares the server with the
//! library; this file pins the library itself, so a change to delta
//! application, the weighted-graph build, warm refinement, the polish or
//! the simulator that moves one label, move count, message or load bit
//! fails here.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::gen::{drift_delta, generate_graph, DatasetSpec, DriftKind, Setting};
use spg::graph::{Channel, GraphDelta, Operator, TupleRates, WeightedGraph};
use spg::partition::{
    kway_partition, realloc_decide, IncrementalConfig, PartitionConfig, ReallocDecision,
};
use spg::sim::analytic::simulate_with_rates;
use spg::{ClusterSpec, Placement, StreamGraph};
use std::collections::HashMap;

/// FNV-1a-64 over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf29ce484222325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn labels(&mut self, part: &[u32]) {
        self.u32(part.len() as u32);
        for &p in part {
            self.u32(p);
        }
    }

    /// Operators, edges, channels, topological order and both adjacency
    /// lists of `g`.
    fn graph(&mut self, g: &StreamGraph) {
        self.u32(g.num_nodes() as u32);
        for op in g.ops() {
            self.f64(op.ipt);
        }
        self.u32(g.num_edges() as u32);
        for (&(s, d), ch) in g.edge_list().iter().zip(g.channels()) {
            self.u32(s);
            self.u32(d);
            self.f64(ch.payload);
            self.f64(ch.selectivity);
        }
        self.labels(g.topo_order());
        for v in 0..g.num_nodes() as u32 {
            for csr in [g.out_csr(), g.in_csr()] {
                self.labels(csr.neighbor_slice(v));
                self.labels(csr.edge_id_slice(v));
            }
        }
    }
}

/// Every positive link load as `(src, dst, load)`, ascending in
/// `(src, dst)`. `SimResult::link_traffic` has been both a `(src, dst)`
/// map and a dense row-major `devices × devices` matrix; reading either
/// lets one digest span both layouts.
trait PositiveLinks {
    fn positive_links(&self, devices: usize) -> Vec<(u32, u32, f64)>;
}

impl PositiveLinks for HashMap<(u32, u32), f64> {
    fn positive_links(&self, _devices: usize) -> Vec<(u32, u32, f64)> {
        let mut links: Vec<(u32, u32, f64)> = self
            .iter()
            .filter(|&(_, &load)| load > 0.0)
            .map(|(&(s, t), &load)| (s, t, load))
            .collect();
        links.sort_by_key(|&(s, t, _)| (s, t));
        links
    }
}

impl PositiveLinks for Vec<f64> {
    fn positive_links(&self, devices: usize) -> Vec<(u32, u32, f64)> {
        assert_eq!(self.len(), devices * devices, "one cell per device pair");
        (0..devices * devices)
            .filter(|&c| self[c] > 0.0)
            .map(|c| ((c / devices) as u32, (c % devices) as u32, self[c]))
            .collect()
    }
}

/// Fold the analytic simulation of `placement`: the reward, every
/// per-device load and every positive link load.
fn fold_sim(
    h: &mut Fnv,
    graph: &StreamGraph,
    cluster: &ClusterSpec,
    placement: &Placement,
    rates: &TupleRates,
) {
    let r = simulate_with_rates(graph, cluster, placement, rates);
    h.f64(r.relative);
    h.f64(r.throughput);
    for loads in [&r.cpu_load, &r.egress, &r.ingress] {
        h.u32(loads.len() as u32);
        for &l in loads {
            h.f64(l);
        }
    }
    let links = r.link_traffic.positive_links(cluster.devices);
    h.u32(links.len() as u32);
    for (s, t, load) in links {
        h.u32(s);
        h.u32(t);
        h.f64(load);
    }
}

/// A seeded graph with its spec and a prior from a freshly seeded
/// `kway_partition`.
struct Case {
    spec: DatasetSpec,
    graph: StreamGraph,
    prior: Vec<u32>,
}

/// Scaled medium and large graphs, seeds 0-5.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for setting in [Setting::Medium, Setting::Large] {
        let spec = DatasetSpec::scaled_down(setting);
        for seed in 0..6u64 {
            let graph = generate_graph(&spec, seed);
            let wg = WeightedGraph::from_stream(&graph, spec.source_rate);
            let mut rng = ChaCha8Rng::seed_from_u64(100 + seed);
            let prior = kway_partition(&wg, spec.devices, &PartitionConfig::default(), &mut rng);
            out.push(Case {
                spec: spec.clone(),
                graph,
                prior,
            });
        }
    }
    out
}

/// The first `count` pairs `(topo[i], topo[i + gap])`, by growing gap,
/// that are not edges yet: adding them keeps the graph acyclic.
fn new_forward_edges(g: &StreamGraph, count: usize) -> Vec<(u32, u32)> {
    let topo = g.topo_order();
    let mut out = Vec::new();
    for gap in 2..topo.len() {
        for i in 0..topo.len() - gap {
            let pair = (topo[i], topo[i + gap]);
            if !g.edge_list().contains(&pair) && !out.contains(&pair) {
                out.push(pair);
                if out.len() == count {
                    return out;
                }
            }
        }
    }
    out
}

/// Every drift kind at three seeds, then hand-built deltas: a device
/// gain with a rate drop, cost overrides, channel overrides, an edge
/// removal, an edge addition, the empty delta and an overhaul past the
/// churn threshold.
fn deltas(c: &Case) -> Vec<GraphDelta> {
    let g = &c.graph;
    let (k, rate) = (c.spec.devices, c.spec.source_rate);
    let n = g.num_nodes() as u32;
    let edges = g.edge_list();
    let mut out = Vec::new();
    for kind in DriftKind::ALL {
        for seed in 0..3 {
            out.push(drift_delta(g, kind, k, rate, seed));
        }
    }
    out.push(GraphDelta {
        devices: Some(k + 2),
        source_rate: Some(rate * 0.7),
        ..GraphDelta::default()
    });
    out.push(GraphDelta {
        set_ipt: (0..3u32)
            .map(|j| {
                let v = (j * n / 3 + 1) % n;
                (v, g.ops()[v as usize].ipt * (1.5 + j as f64))
            })
            .collect(),
        ..GraphDelta::default()
    });
    let mid = edges.len() / 2;
    out.push(GraphDelta {
        set_channel_edges: vec![edges[0], edges[mid]],
        set_channels: vec![
            Channel::with_selectivity(g.channels()[0].payload * 4.0, 0.5),
            Channel::new(1.0),
        ],
        ..GraphDelta::default()
    });
    out.push(GraphDelta {
        remove_edges: vec![edges[1], edges[edges.len() - 1]],
        ..GraphDelta::default()
    });
    let added = new_forward_edges(g, 3);
    out.push(GraphDelta {
        add_channels: vec![Channel::new(64.0); added.len()],
        add_edges: added,
        ..GraphDelta::default()
    });
    out.push(GraphDelta::default());
    let extra = (g.num_nodes() + g.num_edges()) as u32 / 3 + 1;
    out.push(GraphDelta {
        add_nodes: (0..extra).map(|j| Operator::new(10.0 + j as f64)).collect(),
        add_edges: (0..extra)
            .map(|j| if j == 0 { (0, n) } else { (n + j - 1, n + j) })
            .collect(),
        add_channels: vec![Channel::new(8.0); extra as usize],
        source_rate: Some(rate * 1.2),
        ..GraphDelta::default()
    });
    out
}

#[test]
fn warm_reallocation_bits_are_pinned() {
    let cfg = IncrementalConfig::default();
    let mut h = Fnv::new();
    let mut paths = [0usize; 3];
    for c in cases() {
        let cluster = c.spec.cluster();
        let rates = TupleRates::compute(&c.graph, c.spec.source_rate);
        fold_sim(
            &mut h,
            &c.graph,
            &cluster,
            &Placement::new(c.prior.clone()),
            &rates,
        );
        for delta in deltas(&c) {
            let decision = realloc_decide(
                &c.graph,
                &c.prior,
                &delta,
                &cluster,
                c.spec.source_rate,
                &cfg,
            )
            .expect("every pinned delta applies");
            match decision {
                ReallocDecision::Unchanged { relative } => {
                    paths[0] += 1;
                    h.u32(0);
                    h.f64(relative);
                }
                ReallocDecision::Warm {
                    graph,
                    placement,
                    relative,
                    moves,
                } => {
                    paths[1] += 1;
                    h.u32(1);
                    h.graph(&graph);
                    h.labels(placement.as_slice());
                    h.f64(relative);
                    h.u64(moves as u64);
                    let cluster = ClusterSpec {
                        devices: delta.devices.unwrap_or(cluster.devices),
                        ..cluster
                    };
                    let rate = delta.source_rate.unwrap_or(c.spec.source_rate);
                    let rates = TupleRates::compute(&graph, rate);
                    fold_sim(&mut h, &graph, &cluster, &placement, &rates);
                }
                ReallocDecision::Full {
                    graph,
                    devices,
                    source_rate,
                } => {
                    paths[2] += 1;
                    h.u32(2);
                    h.graph(&graph);
                    h.u64(devices as u64);
                    h.f64(source_rate);
                }
            }
        }
    }
    // 12 graphs with 16 deltas each: one empty, one overhaul, the rest warm.
    assert_eq!(paths, [12, 168, 12], "unchanged / warm / full counts");
    assert_eq!(
        h.0, 0x6a7f91387ceb2fdd,
        "warm re-allocation bits moved: {:#018x}",
        h.0
    );
}

/// Graph-preserving deltas (a rate or device change) still refuse a
/// prior whose numbers are invalid, as a rebuilt graph would.
fn invalid_number_prior() -> StreamGraph {
    StreamGraph::from_parts(
        vec![
            Operator::new(1.0),
            Operator::new(f64::NAN),
            Operator::new(2.0),
        ],
        vec![(0, 1), (1, 2)],
        vec![Channel::new(8.0); 2],
    )
    .expect("numbers are not checked by the constructor")
}

#[test]
fn refusal_texts_are_pinned() {
    let c = cases().swap_remove(0);
    let g = &c.graph;
    let n = g.num_nodes() as u32;
    let edges = g.edge_list();
    let (a, b) = edges[0];
    let fresh = new_forward_edges(g, 1)[0];
    let topo = g.topo_order();
    let (first, last) = (topo[0], topo[topo.len() - 1]);
    let one = || Channel::new(1.0);
    let bad: Vec<GraphDelta> = vec![
        GraphDelta {
            remove_nodes: vec![n + 5],
            ..GraphDelta::default()
        },
        GraphDelta {
            remove_nodes: vec![3, 7, 3],
            ..GraphDelta::default()
        },
        GraphDelta {
            remove_edges: vec![(b, a)],
            ..GraphDelta::default()
        },
        GraphDelta {
            remove_edges: vec![edges[2], edges[2]],
            ..GraphDelta::default()
        },
        GraphDelta {
            set_channel_edges: vec![(b, a)],
            set_channels: vec![one()],
            ..GraphDelta::default()
        },
        GraphDelta {
            set_ipt: vec![(n + 1, 1.0)],
            ..GraphDelta::default()
        },
        GraphDelta {
            set_ipt: vec![(4, 1.0)],
            remove_nodes: vec![4],
            ..GraphDelta::default()
        },
        // Self loops, on a prior node and on an added one.
        GraphDelta {
            add_edges: vec![(fresh.0, fresh.1), (5, 5)],
            add_channels: vec![one(), one()],
            ..GraphDelta::default()
        },
        GraphDelta {
            add_nodes: vec![Operator::new(3.0)],
            add_edges: vec![(n, n)],
            add_channels: vec![one()],
            ..GraphDelta::default()
        },
        // Several duplicated pairs, the smallest listed last.
        GraphDelta {
            add_edges: vec![edges[5], edges[edges.len() - 1], edges[2], edges[0]],
            add_channels: vec![one(); 4],
            ..GraphDelta::default()
        },
        // A new pair added twice, and a duplicate under compacted ids.
        GraphDelta {
            add_edges: vec![fresh, (first, last), fresh],
            add_channels: vec![one(); 3],
            ..GraphDelta::default()
        },
        GraphDelta {
            remove_nodes: vec![0],
            add_edges: vec![edges[edges.len() - 1]],
            add_channels: vec![one()],
            ..GraphDelta::default()
        },
        // A back edge closes a cycle.
        GraphDelta {
            add_edges: vec![(last, first)],
            add_channels: vec![one()],
            ..GraphDelta::default()
        },
        GraphDelta {
            add_edges: vec![(0, n + 3)],
            add_channels: vec![one()],
            ..GraphDelta::default()
        },
        GraphDelta {
            remove_nodes: vec![2],
            add_edges: vec![(2, 9)],
            add_channels: vec![one()],
            ..GraphDelta::default()
        },
        GraphDelta {
            remove_nodes: (0..n).collect(),
            ..GraphDelta::default()
        },
        GraphDelta {
            add_edges: vec![fresh],
            ..GraphDelta::default()
        },
        GraphDelta {
            set_channel_edges: vec![edges[0]],
            ..GraphDelta::default()
        },
        GraphDelta {
            devices: Some(0),
            ..GraphDelta::default()
        },
        GraphDelta {
            source_rate: Some(f64::NAN),
            ..GraphDelta::default()
        },
        GraphDelta {
            source_rate: Some(-2.0),
            devices: Some(3),
            ..GraphDelta::default()
        },
        GraphDelta {
            set_ipt: vec![(1, -1.0)],
            ..GraphDelta::default()
        },
        GraphDelta {
            set_channel_edges: vec![edges[3]],
            set_channels: vec![Channel::new(f64::INFINITY)],
            ..GraphDelta::default()
        },
        GraphDelta {
            set_channel_edges: vec![edges[4]],
            set_channels: vec![Channel::with_selectivity(1.0, -0.5)],
            ..GraphDelta::default()
        },
    ];
    let mut h = Fnv::new();
    let mut texts = 0;
    for delta in &bad {
        let e = delta.apply(g).expect_err("every corpus delta is refused");
        h.str(&e.to_string());
        texts += 1;
    }
    let broken = invalid_number_prior();
    for delta in [
        GraphDelta {
            devices: Some(2),
            ..GraphDelta::default()
        },
        GraphDelta {
            source_rate: Some(5.0),
            ..GraphDelta::default()
        },
    ] {
        let e = delta.apply(&broken).expect_err("a NaN cost is refused");
        h.str(&e.to_string());
        texts += 1;
    }

    // `realloc_decide`'s own refusals of the prior placement.
    let cluster = c.spec.cluster();
    let cfg = IncrementalConfig::default();
    let rate = c.spec.source_rate;
    let short = &c.prior[..c.prior.len() - 1];
    let mut off = c.prior.clone();
    off[3] = cluster.devices as u32 + 4;
    for prior in [short, &off[..]] {
        let e = realloc_decide(g, prior, &GraphDelta::default(), &cluster, rate, &cfg)
            .expect_err("a bad prior is refused");
        h.str(&e.to_string());
        texts += 1;
    }

    // `StreamGraph::from_parts` refusals. The duplicate reported is the
    // smallest duplicated `(src, dst)`, and every earlier check wins.
    let ops = |n: usize| vec![Operator::new(1.0); n];
    let parts = [
        (
            8,
            vec![(4, 5), (2, 3), (4, 5), (1, 6), (2, 3), (1, 6), (0, 7)],
            7,
        ),
        (10, vec![(2, 9), (2, 5), (3, 4), (2, 9), (2, 5)], 5),
        (6, vec![(5, 1), (0, 1), (1, 2), (2, 0), (5, 1)], 5),
        (4, vec![(1, 2), (1, 2), (3, 3)], 3),
        (4, vec![(1, 1), (0, 9)], 2),
        (4, vec![(0, 9), (1, 1)], 2),
        (3, vec![(0, 1), (1, 2), (2, 0)], 3),
        (3, vec![(0, 1), (1, 2)], 1),
        (0, vec![], 0),
    ];
    for (n, edges, channels) in parts {
        let e = StreamGraph::from_parts(ops(n), edges, vec![Channel::new(1.0); channels])
            .expect_err("every corpus graph is refused");
        h.str(&e.to_string());
        texts += 1;
    }
    assert_eq!(texts, 37);
    assert_eq!(
        h.0, 0x5d0578debe83203a,
        "refusal texts moved: {:#018x}",
        h.0
    );
}
