//! Incremental re-allocation: warm-start refinement from a prior
//! placement after a [`GraphDelta`] (DESIGN.md §15).
//!
//! A drifting job rarely needs the full coarsen→partition→simulate
//! pipeline again: the prior placement is already a near-optimum of a
//! near-identical problem. [`realloc_decide`] projects the prior
//! placement onto the mutated graph through the delta's provenance
//! table, seeds the handful of unplaced nodes next to their heaviest
//! already-placed neighbour, restores the balance invariant with
//! [`rebalance_targets`], and polishes with [`kway_refine`] — the same
//! boundary refinement the full partitioner ends with, just started
//! from the projected solution instead of an uncoarsened one.
//!
//! Above a churn threshold the projection stops being a useful prior
//! and the caller is told to re-run the full pipeline instead. The
//! whole path is RNG-free: the same `(prior, placement, delta)` always
//! yields bit-identical output.

use crate::refine::{kway_refine, rebalance_targets};
use spg_graph::delta::DEFAULT_CHURN_THRESHOLD;
use spg_graph::WeightedGraph;
use spg_graph::{ClusterSpec, DeltaError, GraphDelta, Placement, StreamGraph, TupleRates};
use spg_sim::reward::relative_throughput_with_rates;

/// Tuning of the warm-start path. Mirrors `PartitionConfig` where the
/// knobs overlap so warm-started refinement optimises the same
/// objective the full partitioner does.
#[derive(Debug, Clone)]
pub struct IncrementalConfig {
    /// Churn ratio (see [`GraphDelta::churn`]) above which the prior
    /// placement is discarded and the full pipeline re-runs.
    pub churn_threshold: f64,
    /// Allowed part-weight imbalance, as in `PartitionConfig`.
    pub balance_factor: f64,
    /// Boundary-refinement pass budget (warm starts converge in a few
    /// passes, so this is a backstop, not a tuning knob).
    pub refine_passes: usize,
    /// Single-node move budget for the reward-guided polish that runs
    /// after cut-based refinement (see `throughput_polish`).
    pub polish_moves: usize,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        Self {
            churn_threshold: DEFAULT_CHURN_THRESHOLD,
            balance_factor: 1.10,
            refine_passes: 8,
            polish_moves: 32,
        }
    }
}

/// Dense per-resource loads of a placement, mirroring the analytic
/// simulator's model (`spg_sim::analytic`): per-device CPU demand and
/// NIC egress/ingress, plus a `k×k` directional link-traffic matrix.
/// Small enough (k ≤ tens) to clone per candidate move, which keeps the
/// polish evaluator allocation-free and exact (no apply/revert float
/// drift).
struct LoadModel {
    k: usize,
    cpu: Vec<f64>,
    egress: Vec<f64>,
    ingress: Vec<f64>,
    link: Vec<f64>,
}

impl LoadModel {
    fn build(graph: &StreamGraph, rates: &TupleRates, part: &[u32], k: usize) -> Self {
        let mut m = Self {
            k,
            cpu: vec![0.0; k],
            egress: vec![0.0; k],
            ingress: vec![0.0; k],
            link: vec![0.0; k * k],
        };
        for (v, op) in graph.ops().iter().enumerate() {
            m.cpu[part[v] as usize] += rates.node[v] * op.ipt;
        }
        for (i, &(s, t)) in graph.edge_list().iter().enumerate() {
            let (ds, dt) = (part[s as usize] as usize, part[t as usize] as usize);
            if ds == dt {
                continue;
            }
            let traffic = rates.edge[i] * graph.channel(spg_graph::EdgeId(i as u32)).payload;
            m.egress[ds] += traffic;
            m.ingress[dt] += traffic;
            m.link[ds * k + dt] += traffic;
        }
        m
    }

    /// The sustained fraction `α = min(1, min_c capacity_c / load_c)`.
    fn alpha(&self, cpu_cap: f64, bw: f64) -> f64 {
        let mut a = 1.0f64;
        for &l in &self.cpu {
            if l > 0.0 {
                a = a.min(cpu_cap / l);
            }
        }
        for &l in self.egress.iter().chain(&self.ingress).chain(&self.link) {
            if l > 0.0 {
                a = a.min(bw / l);
            }
        }
        a
    }

    /// Route `traffic` of the edge `(src_dev, dst_dev)` in (`sign` +1)
    /// or out (`sign` -1) of the model, journalling every touched cell
    /// into `undo` so [`LoadModel::restore`] can rewind exactly.
    fn route(
        &mut self,
        src_dev: usize,
        dst_dev: usize,
        traffic: f64,
        sign: f64,
        undo: &mut Vec<(Slot, f64)>,
    ) {
        if src_dev == dst_dev {
            return;
        }
        undo.push((Slot::Egress(src_dev), self.egress[src_dev]));
        self.egress[src_dev] += sign * traffic;
        undo.push((Slot::Ingress(dst_dev), self.ingress[dst_dev]));
        self.ingress[dst_dev] += sign * traffic;
        let cell = src_dev * self.k + dst_dev;
        undo.push((Slot::Link(cell), self.link[cell]));
        self.link[cell] += sign * traffic;
    }

    /// Rewind a candidate move by writing the journalled prior values
    /// back verbatim (in reverse, so double-touched cells end correct).
    /// Bit-exact — unlike arithmetic reversal, which would accumulate
    /// float round-off across candidates.
    fn restore(&mut self, undo: &mut Vec<(Slot, f64)>) {
        while let Some((slot, prior)) = undo.pop() {
            match slot {
                Slot::Cpu(d) => self.cpu[d] = prior,
                Slot::Egress(d) => self.egress[d] = prior,
                Slot::Ingress(d) => self.ingress[d] = prior,
                Slot::Link(c) => self.link[c] = prior,
            }
        }
    }
}

/// Address of one load cell in a [`LoadModel`] undo journal.
#[derive(Clone, Copy)]
enum Slot {
    Cpu(usize),
    Egress(usize),
    Ingress(usize),
    Link(usize),
}

/// Hill-climb single-node moves off the saturated resource, scored by
/// the *actual* analytic reward rather than cut weight.
///
/// Cut-based refinement stops at local optima of the wrong objective:
/// the reward is `min` over per-resource capacity/load ratios, so only
/// moves that relieve the binding resource help at all. Each round
/// marks every device that sits on a binding ratio (CPU, NIC, or
/// either endpoint of a saturated link — marking a *set* keeps the
/// result independent of any bottleneck tie-break), then evaluates
/// moving each node on a marked device to a pruned deterministic
/// target set — the devices hosting its neighbours (relieves link and
/// NIC pressure) plus the least-loaded CPU and NIC devices (relieves
/// compute) — and applies the strictly best improving move. Stops at
/// `max_moves`, at reward 1.0, when no single move improves, or when
/// the evaluation budget runs dry (the hard latency bound: a bad prior
/// can otherwise make every round scan half the graph). Pure and
/// RNG-free; ties prefer the lowest `(node, device)` pair. The model
/// is rebuilt from scratch after every applied move, so float
/// round-off never accumulates across rounds.
fn throughput_polish(
    graph: &StreamGraph,
    cluster: &ClusterSpec,
    rates: &TupleRates,
    part: &mut [u32],
    max_moves: usize,
) -> usize {
    let k = cluster.devices;
    let cpu_cap = cluster.instr_per_sec();
    let bw = cluster.link_bytes_per_sec();
    // Incident edges of each node as (other endpoint, traffic, v-is-src).
    let mut incident: Vec<Vec<(u32, f64, bool)>> = vec![Vec::new(); graph.num_nodes()];
    for (i, &(s, t)) in graph.edge_list().iter().enumerate() {
        let traffic = rates.edge[i] * graph.channel(spg_graph::EdgeId(i as u32)).payload;
        incident[s as usize].push((t, traffic, true));
        incident[t as usize].push((s, traffic, false));
    }

    // Hard bound on total candidate evaluations across all rounds: the
    // latency backstop for priors so unbalanced that a binding device
    // hosts a large fraction of the graph. Deterministic — the budget
    // runs out at the same candidate for the same input.
    let mut evals: usize = 6_000;

    let mut moves = 0;
    while moves < max_moves && evals > 0 {
        let model = LoadModel::build(graph, rates, part, k);
        let alpha = model.alpha(cpu_cap, bw);
        if alpha >= 1.0 {
            break;
        }
        // A ratio is binding when capacity/load matches the sustained
        // fraction; the tolerance absorbs division round-off.
        let binding = |cap: f64, load: f64| load > 0.0 && cap / load <= alpha * (1.0 + 1e-9);
        let mut marked = vec![false; k];
        for (d, m) in marked.iter_mut().enumerate() {
            if binding(cpu_cap, model.cpu[d])
                || binding(bw, model.egress[d])
                || binding(bw, model.ingress[d])
            {
                *m = true;
            }
        }
        for s in 0..k {
            for t in 0..k {
                if binding(bw, model.link[s * k + t]) {
                    marked[s] = true;
                    marked[t] = true;
                }
            }
        }

        // A candidate move touches O(degree) load cells, so its reward
        // needs only those cells' new ratios plus the minimum over the
        // *untouched* cells — which is the first untouched entry of the
        // per-round ratio ordering below. This replaces a full
        // O(k²)-cell scan per candidate and is bit-exact: the same
        // `cap/load` divisions feed the same `min`, just without the
        // entries that provably cannot be it.
        let cell_count = 3 * k + k * k;
        let mut order: Vec<(f64, u32)> = Vec::with_capacity(cell_count);
        for d in 0..k {
            if model.cpu[d] > 0.0 {
                order.push((cpu_cap / model.cpu[d], d as u32));
            }
            if model.egress[d] > 0.0 {
                order.push((bw / model.egress[d], (k + d) as u32));
            }
            if model.ingress[d] > 0.0 {
                order.push((bw / model.ingress[d], (2 * k + d) as u32));
            }
        }
        for c in 0..k * k {
            if model.link[c] > 0.0 {
                order.push((bw / model.link[c], (3 * k + c) as u32));
            }
        }
        order.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Pruned target set anchors: the least-loaded CPU device and
        // the least-busy NIC device (strict `<` keeps the lowest index
        // on ties, so the choice is deterministic).
        let mut dmin_cpu = 0;
        let mut dmin_nic = 0;
        for d in 1..k {
            if model.cpu[d] < model.cpu[dmin_cpu] {
                dmin_cpu = d;
            }
            if model.egress[d] + model.ingress[d] < model.egress[dmin_nic] + model.ingress[dmin_nic]
            {
                dmin_nic = d;
            }
        }

        let mut best: Option<(usize, u32, f64)> = None;
        // Candidate moves are applied to the one shared model and then
        // rewound from the undo journal, so the inner loop is
        // allocation-free and every evaluation sees exact loads.
        let mut cand = model;
        let mut undo: Vec<(Slot, f64)> = Vec::with_capacity(32);
        let mut touched: Vec<u32> = vec![0; cell_count];
        let mut generation: u32 = 0;
        let mut targets: Vec<usize> = Vec::with_capacity(8);
        'nodes: for v in 0..part.len() {
            let from = part[v] as usize;
            if !marked[from] {
                continue;
            }
            // Ascending order keeps the lowest-device tie preference of
            // the former exhaustive scan.
            targets.clear();
            for &(u, _, _) in &incident[v] {
                targets.push(part[u as usize] as usize);
            }
            targets.push(dmin_cpu);
            targets.push(dmin_nic);
            targets.sort_unstable();
            targets.dedup();
            let w = rates.node[v] * graph.ops()[v].ipt;
            for &to in &targets {
                if to == from {
                    continue;
                }
                if evals == 0 {
                    break 'nodes;
                }
                evals -= 1;
                undo.push((Slot::Cpu(from), cand.cpu[from]));
                cand.cpu[from] -= w;
                undo.push((Slot::Cpu(to), cand.cpu[to]));
                cand.cpu[to] += w;
                for &(u, traffic, v_is_src) in &incident[v] {
                    let du = part[u as usize] as usize;
                    if v_is_src {
                        cand.route(from, du, traffic, -1.0, &mut undo);
                        cand.route(to, du, traffic, 1.0, &mut undo);
                    } else {
                        cand.route(du, from, traffic, -1.0, &mut undo);
                        cand.route(du, to, traffic, 1.0, &mut undo);
                    }
                }
                generation += 1;
                let mut rel = 1.0f64;
                for &(slot, _) in undo.iter() {
                    let (cell, cap, load) = match slot {
                        Slot::Cpu(d) => (d, cpu_cap, cand.cpu[d]),
                        Slot::Egress(d) => (k + d, bw, cand.egress[d]),
                        Slot::Ingress(d) => (2 * k + d, bw, cand.ingress[d]),
                        Slot::Link(c) => (3 * k + c, bw, cand.link[c]),
                    };
                    if touched[cell] == generation {
                        continue;
                    }
                    touched[cell] = generation;
                    if load > 0.0 {
                        rel = rel.min(cap / load);
                    }
                }
                for &(ratio, cell) in &order {
                    if touched[cell as usize] != generation {
                        rel = rel.min(ratio);
                        break;
                    }
                }
                cand.restore(&mut undo);
                if rel > best.map_or(alpha, |(_, _, r)| r) {
                    best = Some((v, to as u32, rel));
                }
            }
        }
        let Some((v, to, _)) = best else { break };
        part[v] = to;
        moves += 1;
    }
    moves
}

/// What [`realloc_decide`] concluded.
#[derive(Debug, Clone)]
pub enum ReallocDecision {
    /// The delta was empty: the prior placement stands verbatim.
    /// `relative` is recomputed through the same pure reward function
    /// the full pipeline uses, so it is bit-identical to the prior
    /// response's value.
    Unchanged { relative: f64 },
    /// Sub-threshold churn: the projected-and-refined placement of the
    /// mutated graph.
    Warm {
        /// The validated post-delta graph.
        graph: StreamGraph,
        /// Warm-started placement of `graph`.
        placement: Placement,
        /// Analytic relative throughput of `placement`.
        relative: f64,
        /// Refinement moves applied on top of the projection.
        moves: usize,
    },
    /// Churn exceeded the threshold: the caller should run the full
    /// pipeline on `graph` with these effective parameters.
    Full {
        /// The validated post-delta graph.
        graph: StreamGraph,
        /// Effective device count (delta override applied).
        devices: usize,
        /// Effective source rate (delta override applied).
        source_rate: f64,
    },
}

/// Decide and (when churn allows) execute an incremental re-allocation.
///
/// `prior_placement` is the placement the prior response assigned to
/// `prior` on `base_cluster` at `base_rate`; the delta's `devices` /
/// `source_rate` overrides apply on top of those. Pure and RNG-free.
pub fn realloc_decide(
    prior: &StreamGraph,
    prior_placement: &[u32],
    delta: &GraphDelta,
    base_cluster: &ClusterSpec,
    base_rate: f64,
    cfg: &IncrementalConfig,
) -> Result<ReallocDecision, DeltaError> {
    if prior_placement.len() != prior.num_nodes() {
        return Err(DeltaError::BadDelta(format!(
            "prior_placement has {} entries for a {}-node graph",
            prior_placement.len(),
            prior.num_nodes()
        )));
    }
    if let Some(&d) = prior_placement
        .iter()
        .find(|&&d| d as usize >= base_cluster.devices)
    {
        return Err(DeltaError::BadDelta(format!(
            "prior_placement uses device {d} but the cluster has {} devices",
            base_cluster.devices
        )));
    }

    if delta.is_empty() {
        let rates = TupleRates::compute(prior, base_rate);
        let placement = Placement::new(prior_placement.to_vec());
        let relative = relative_throughput_with_rates(prior, base_cluster, &placement, &rates);
        return Ok(ReallocDecision::Unchanged { relative });
    }

    let applied = delta.apply(prior)?;
    let devices = delta.devices.unwrap_or(base_cluster.devices);
    let source_rate = delta.source_rate.unwrap_or(base_rate);
    if delta.churn(prior) > cfg.churn_threshold {
        return Ok(ReallocDecision::Full {
            graph: applied.graph,
            devices,
            source_rate,
        });
    }

    let cluster = ClusterSpec {
        devices,
        ..*base_cluster
    };
    let rates = TupleRates::compute(&applied.graph, source_rate);
    let wg = WeightedGraph::from_stream_with_rates(&applied.graph, &rates);
    let k = devices;

    // Project: survivors keep their device (if it still exists), new
    // and evicted nodes are seeded next to their heaviest placed
    // neighbour (falling back to the lightest part).
    const UNPLACED: u32 = u32::MAX;
    let mut part: Vec<u32> = applied
        .origin
        .iter()
        .map(|o| match o {
            Some(prev) => {
                let d = prior_placement[*prev as usize];
                if (d as usize) < devices {
                    d
                } else {
                    UNPLACED
                }
            }
            None => UNPLACED,
        })
        .collect();
    let mut part_weight = vec![0.0; k];
    for (v, &p) in part.iter().enumerate() {
        if p != UNPLACED {
            part_weight[p as usize] += wg.node_weight[v];
        }
    }
    for v in 0..part.len() {
        if part[v] != UNPLACED {
            continue;
        }
        let mut conn: Vec<(u32, f64)> = Vec::new();
        for &(u, e) in wg.neighbors(v as u32) {
            let p = part[u as usize];
            if p == UNPLACED {
                continue;
            }
            let w = wg.edge_weight[e as usize];
            match conn.iter_mut().find(|(pp, _)| *pp == p) {
                Some((_, cw)) => *cw += w,
                None => conn.push((p, w)),
            }
        }
        // Ties break toward the lowest part id, keeping the choice
        // independent of neighbor iteration order.
        let by_weight = conn
            .iter()
            .copied()
            .max_by(|(pa, wa), (pb, wb)| wa.partial_cmp(wb).unwrap().then(pb.cmp(pa)));
        let p = match by_weight {
            Some((p, _)) => p,
            None => {
                let lightest = part_weight
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
                    .map(|(i, _)| i as u32)
                    .unwrap_or(0);
                lightest
            }
        };
        part[v] = p;
        part_weight[p as usize] += wg.node_weight[v];
    }

    // Score three candidates by the actual throughput reward and keep
    // the best: the raw projection (the prior placement may violate the
    // uniform weight caps yet still be the throughput optimum — forcing
    // it through rebalance first would destroy it, e.g. on a pure rate
    // ramp where the graph is unchanged), the cap-restored rebalance,
    // and the boundary-refined polish (refinement is greedy on cut
    // weight, which is correlated with — not identical to — the
    // reward). Ties prefer the more-refined candidate so the balance
    // invariant is restored whenever doing so is reward-free.
    let projected = Placement::new(part.clone());
    let projected_rel =
        relative_throughput_with_rates(&applied.graph, &cluster, &projected, &rates);

    // A stage that made no moves left the placement bit-identical, so
    // its reward is its predecessor's — skip the redundant simulation.
    let cap = wg.total_node_weight() / k as f64 * cfg.balance_factor;
    let caps = vec![cap; k];
    let rebalance_moves = rebalance_targets(&wg, &mut part, &caps);
    let rebalanced = Placement::new(part.clone());
    let rebalanced_rel = if rebalance_moves == 0 {
        projected_rel
    } else {
        relative_throughput_with_rates(&applied.graph, &cluster, &rebalanced, &rates)
    };

    let refine_moves = kway_refine(&wg, &mut part, k, cap, cfg.refine_passes);
    let refined = Placement::new(part);
    let refined_rel = if refine_moves == 0 {
        rebalanced_rel
    } else {
        relative_throughput_with_rates(&applied.graph, &cluster, &refined, &rates)
    };

    let mut placement = projected;
    let mut relative = projected_rel;
    let mut moves = 0;
    if rebalanced_rel >= relative {
        placement = rebalanced;
        relative = rebalanced_rel;
        moves = rebalance_moves;
    }
    if refined_rel >= relative {
        placement = refined;
        relative = refined_rel;
        moves = rebalance_moves + refine_moves;
    }

    // Final polish on the winner, scored by the real objective. Move
    // selection uses the lean in-crate load model; the result is
    // re-scored with the official reward and adopted only if it did
    // not regress (guarding against round-off disagreements between
    // the two evaluators).
    let mut part = placement.as_slice().to_vec();
    let polish_moves = throughput_polish(
        &applied.graph,
        &cluster,
        &rates,
        &mut part,
        cfg.polish_moves,
    );
    if polish_moves > 0 {
        let polished = Placement::new(part);
        let polished_rel =
            relative_throughput_with_rates(&applied.graph, &cluster, &polished, &rates);
        if polished_rel >= relative {
            placement = polished;
            relative = polished_rel;
            moves += polish_moves;
        }
    }
    Ok(ReallocDecision::Warm {
        graph: applied.graph,
        placement,
        relative,
        moves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_gen::{generate_graph, DatasetSpec, Setting};
    use spg_graph::{Channel, Operator};

    fn setup() -> (StreamGraph, ClusterSpec, f64, Vec<u32>) {
        let spec = DatasetSpec::scaled_down(Setting::Small);
        let graph = generate_graph(&spec, 11);
        let cluster = spec.cluster();
        let rate = spec.source_rate;
        // A plausible prior: the Metis baseline's placement.
        let alloc = crate::MetisAllocator::new(7);
        let placement = spg_graph::Allocator::allocate(&alloc, &graph, &cluster, rate);
        (graph, cluster, rate, placement.as_slice().to_vec())
    }

    #[test]
    fn empty_delta_is_unchanged_with_exact_reward() {
        let (graph, cluster, rate, prior) = setup();
        let decision = realloc_decide(
            &graph,
            &prior,
            &GraphDelta::default(),
            &cluster,
            rate,
            &IncrementalConfig::default(),
        )
        .unwrap();
        let ReallocDecision::Unchanged { relative } = decision else {
            panic!("empty delta must be Unchanged");
        };
        let rates = TupleRates::compute(&graph, rate);
        let direct = relative_throughput_with_rates(
            &graph,
            &cluster,
            &Placement::new(prior.clone()),
            &rates,
        );
        assert_eq!(relative.to_bits(), direct.to_bits());
    }

    #[test]
    fn sub_threshold_delta_warm_starts_deterministically() {
        let (graph, cluster, rate, prior) = setup();
        let delta = GraphDelta {
            set_ipt: vec![(0, graph.ops()[0].ipt * 2.0)],
            source_rate: Some(rate * 1.5),
            ..GraphDelta::default()
        };
        let run = || {
            realloc_decide(
                &graph,
                &prior,
                &delta,
                &cluster,
                rate,
                &IncrementalConfig::default(),
            )
            .unwrap()
        };
        let (
            ReallocDecision::Warm {
                graph: g1,
                placement: p1,
                relative: r1,
                ..
            },
            ReallocDecision::Warm {
                placement: p2,
                relative: r2,
                ..
            },
        ) = (run(), run())
        else {
            panic!("sub-threshold delta must warm-start");
        };
        assert_eq!(p1.as_slice(), p2.as_slice(), "warm start must be pure");
        assert_eq!(r1.to_bits(), r2.to_bits());
        assert!(p1.validate(&g1, cluster.devices));
        assert!((0.0..=1.0).contains(&r1));
    }

    #[test]
    fn device_loss_evicts_off_the_lost_device() {
        let (graph, cluster, rate, prior) = setup();
        assert!(cluster.devices >= 2);
        let delta = GraphDelta {
            devices: Some(cluster.devices - 1),
            ..GraphDelta::default()
        };
        let ReallocDecision::Warm {
            graph: g,
            placement,
            ..
        } = realloc_decide(
            &graph,
            &prior,
            &delta,
            &cluster,
            rate,
            &IncrementalConfig::default(),
        )
        .unwrap()
        else {
            panic!("device loss is churn-free and must warm-start");
        };
        assert!(placement.validate(&g, cluster.devices - 1));
    }

    #[test]
    fn high_churn_falls_back_to_full() {
        let (graph, cluster, rate, prior) = setup();
        let n = graph.num_nodes() as u32;
        // Add a long fresh chain: churn > threshold by construction.
        let extra = (graph.num_nodes() + graph.num_edges()) as u32;
        let add_nodes: Vec<Operator> = (0..extra).map(|_| Operator::new(10.0)).collect();
        let add_edges: Vec<(u32, u32)> = (0..extra)
            .map(|j| if j == 0 { (0, n) } else { (n + j - 1, n + j) })
            .collect();
        let delta = GraphDelta {
            add_channels: vec![Channel::new(1.0); add_edges.len()],
            add_nodes,
            add_edges,
            source_rate: Some(rate * 2.0),
            ..GraphDelta::default()
        };
        let decision = realloc_decide(
            &graph,
            &prior,
            &delta,
            &cluster,
            rate,
            &IncrementalConfig::default(),
        )
        .unwrap();
        let ReallocDecision::Full {
            graph: g,
            devices,
            source_rate,
        } = decision
        else {
            panic!("high churn must fall back to the full pipeline");
        };
        assert_eq!(g.num_nodes(), graph.num_nodes() + extra as usize);
        assert_eq!(devices, cluster.devices);
        assert_eq!(source_rate, rate * 2.0);
    }

    #[test]
    fn bad_priors_are_refused() {
        let (graph, cluster, rate, mut prior) = setup();
        let cfg = IncrementalConfig::default();
        let short = &prior[..prior.len() - 1];
        assert!(matches!(
            realloc_decide(&graph, short, &GraphDelta::default(), &cluster, rate, &cfg),
            Err(DeltaError::BadDelta(_))
        ));
        prior[0] = cluster.devices as u32;
        assert!(matches!(
            realloc_decide(&graph, &prior, &GraphDelta::default(), &cluster, rate, &cfg),
            Err(DeltaError::BadDelta(_))
        ));
    }
}
