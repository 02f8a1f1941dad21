//! Discrete-time stream simulator with bounded queues and backpressure.
//!
//! This is the executable counterpart of the analytic bottleneck model: a
//! fluid-flow simulation stepped at `dt` where
//!
//! * each device has a per-step CPU budget shared by resident operators,
//! * each directed edge has a bounded downstream buffer,
//! * cross-device edges additionally consume per-step egress/ingress NIC and
//!   per-link budgets when tuples move,
//! * an operator can only process as many tuples as its inputs, its CPU
//!   share, and the space/bandwidth of *all* its outputs allow — blocked
//!   outputs fill buffers, which stalls upstream operators and ultimately
//!   throttles the sources (backpressure).
//!
//! The measured steady-state accepted source rate converges to the analytic
//! `α · I`; the `sim_crosscheck` integration tests quantify agreement.
//!
//! ## Measurement: waiting out the fill transient
//!
//! Until backpressure reaches the sources, they accept tuples *above* the
//! sustainable rate — the excess is absorbed by the bounded edge buffers,
//! not processed. That fill transient lasts on the order of
//! `queue_capacity / excess_rate` simulated seconds *per hop* between the
//! bottleneck and the sources, so a fixed warmup can be arbitrarily short
//! of equilibrium when a bottleneck is nearly balanced (historically this
//! produced a persistent +0.05..0.08 over-estimate vs the analytic model
//! on hot random placements). The simulator therefore measures in blocks
//! of [`DesConfig::measure_steps`] and keeps extending until two
//! equilibrium signals agree (or [`DesConfig::max_measure_blocks`] is
//! exhausted):
//!
//! * the accepted rate changed less than [`DesConfig::converge_rate_tol`]
//!   (in `throughput / source_rate` units) between consecutive blocks, and
//! * the total buffered tuple mass is no longer growing: its net change
//!   over the block, normalised by the tuples offered in the block, is
//!   below [`DesConfig::converge_mass_tol`]. This is what distinguishes a
//!   mid-transient plateau (buffers still filling) from steady state.
//!
//! Only the final block is reported, so the estimate carries no transient
//! bias. The loop is deterministic — pure function of graph, placement and
//! config.

use crate::analytic::Bottleneck;
use spg_graph::{ClusterSpec, NodeId, Placement, StreamGraph};
use std::collections::HashMap;

/// Configuration for the discrete-time simulation.
#[derive(Debug, Clone, Copy)]
pub struct DesConfig {
    /// Step length in seconds.
    pub dt: f64,
    /// Steps discarded before measuring (fills the pipeline / reaches
    /// backpressure equilibrium).
    pub warmup_steps: usize,
    /// Steps per measurement block. Blocks are repeated until the
    /// convergence criteria below hold (see the module docs).
    pub measure_steps: usize,
    /// Capacity of each edge buffer, in tuples.
    pub queue_capacity: f64,
    /// Upper bound on measurement blocks; the last executed block is
    /// reported even if convergence was not reached.
    pub max_measure_blocks: usize,
    /// Maximum change of relative accepted rate between consecutive
    /// blocks for the run to count as converged.
    pub converge_rate_tol: f64,
    /// Maximum net change of total buffered tuple mass over a block,
    /// normalised by the tuples offered in the block
    /// (`measure_steps · dt · source_rate`), for convergence.
    pub converge_mass_tol: f64,
}

impl Default for DesConfig {
    fn default() -> Self {
        Self {
            dt: 1e-3,
            warmup_steps: 4_000,
            measure_steps: 4_000,
            queue_capacity: 200.0,
            max_measure_blocks: 16,
            converge_rate_tol: 0.0075,
            converge_mass_tol: 0.002,
        }
    }
}

/// Result of a discrete-time simulation.
#[derive(Debug, Clone)]
pub struct DesResult {
    /// Mean accepted source rate over the measurement window (tuples/s).
    pub throughput: f64,
    /// `throughput / source_rate`.
    pub relative: f64,
    /// Mean sink completion rate over the window (tuples/s) — equals the
    /// accepted source rate in steady state for selectivity-1 graphs.
    pub sink_rate: f64,
    /// Fraction of steps in which each device exhausted its CPU budget.
    pub cpu_saturation: Vec<f64>,
}

/// Run the discrete-time simulation.
///
/// Calls (and, when telemetry is live, wall-clock time) are counted on
/// [`spg_obs::probe::SIM_DES`]; results are untouched.
pub fn simulate_des(
    graph: &StreamGraph,
    cluster: &ClusterSpec,
    placement: &Placement,
    source_rate: f64,
    cfg: &DesConfig,
) -> DesResult {
    spg_obs::probe::SIM_DES.time(|| simulate_des_impl(graph, cluster, placement, source_rate, cfg))
}

/// Mutable state of one simulation run plus the immutable inputs it
/// steps over; lets the block-measurement loop in [`simulate_des_impl`]
/// re-enter the stepping kernel without replumbing a dozen locals.
struct Sim<'a> {
    graph: &'a StreamGraph,
    placement: &'a Placement,
    cfg: &'a DesConfig,
    source_rate: f64,
    cpu_cap: f64,
    bw_cap: f64,
    order: Vec<NodeId>,
    sink_set: Vec<bool>,
    buf: Vec<f64>,
    egress: Vec<f64>,
    ingress: Vec<f64>,
    link: HashMap<(u32, u32), f64>,
    desire: Vec<f64>,
    demand: Vec<f64>,
    cpu_saturated: Vec<usize>,
    executed_steps: usize,
    /// Accepted source tuples in the current measurement block.
    accepted: f64,
    /// Sink completions in the current measurement block.
    completed: f64,
}

impl<'a> Sim<'a> {
    fn new(
        graph: &'a StreamGraph,
        cluster: &ClusterSpec,
        placement: &'a Placement,
        source_rate: f64,
        cfg: &'a DesConfig,
    ) -> Self {
        let n = graph.num_nodes();
        let dt = cfg.dt;
        Sim {
            graph,
            placement,
            cfg,
            source_rate,
            cpu_cap: cluster.instr_per_sec() * dt,
            bw_cap: cluster.link_bytes_per_sec() * dt,
            order: graph.topo_order().iter().map(|&v| NodeId(v)).collect(),
            sink_set: {
                let mut s = vec![false; n];
                for v in graph.sinks() {
                    s[v.idx()] = true;
                }
                s
            },
            buf: vec![0.0f64; graph.num_edges()],
            egress: vec![0.0f64; cluster.devices],
            ingress: vec![0.0f64; cluster.devices],
            link: HashMap::new(),
            desire: vec![0.0f64; n],
            demand: vec![0.0f64; cluster.devices],
            cpu_saturated: vec![0usize; cluster.devices],
            executed_steps: 0,
            accepted: 0.0,
            completed: 0.0,
        }
    }

    /// Total tuples currently sitting in edge buffers.
    fn buffered_mass(&self) -> f64 {
        self.buf.iter().sum()
    }

    /// Advance the simulation by `steps`; accepted/completed tuples are
    /// accumulated only when `measuring`.
    fn run(&mut self, steps: usize, measuring: bool) {
        let graph = self.graph;
        let placement = self.placement;
        let cfg = self.cfg;
        let dt = cfg.dt;
        let source_rate = self.source_rate;
        let cpu_cap = self.cpu_cap;
        let bw_cap = self.bw_cap;
        let order = &self.order;
        let sink_set = &self.sink_set;
        let buf = &mut self.buf;
        let egress = &mut self.egress;
        let ingress = &mut self.ingress;
        let link = &mut self.link;
        let desire = &mut self.desire;
        let demand = &mut self.demand;
        let cpu_saturated = &mut self.cpu_saturated;
        let accepted = &mut self.accepted;
        let completed = &mut self.completed;
        self.executed_steps += steps;
        for _ in 0..steps {
            egress.fill(bw_cap);
            ingress.fill(bw_cap);
            link.clear();

            // Phase A: how much would each operator process with unlimited
            // CPU, bounded by its inputs and per-edge output space?
            demand.fill(0.0);
            for &v in order {
                let is_source = graph.in_degree(v) == 0;
                let mut want = if is_source {
                    source_rate * dt
                } else {
                    graph.in_edges(v).map(|(_, e)| buf[e.idx()]).sum::<f64>()
                };
                for (_, e) in graph.out_edges(v) {
                    let ch = graph.channel(e);
                    if ch.selectivity <= 0.0 {
                        continue;
                    }
                    let space = (cfg.queue_capacity - buf[e.idx()]).max(0.0);
                    want = want.min(space / ch.selectivity);
                }
                desire[v.idx()] = want.max(0.0);
                demand[placement.device(v.idx()) as usize] += desire[v.idx()] * graph.op(v).ipt;
            }

            // Proportional-share CPU: every operator on a device gets the same
            // fraction of its demand (fluid fair scheduling, matching the
            // shared-CPU assumption of the analytic model).
            let scale: Vec<f64> = demand
                .iter()
                .map(|&d| if d > cpu_cap { cpu_cap / d } else { 1.0 })
                .collect();
            for (dev, &d) in demand.iter().enumerate() {
                if d >= cpu_cap * (1.0 - 1e-9) && d > 0.0 {
                    cpu_saturated[dev] += 1;
                }
            }

            // Phase B: commit in topological order, respecting shared
            // bandwidth budgets as tuples actually move.
            for &v in order {
                let dev = placement.device(v.idx()) as usize;
                let mut tuples = desire[v.idx()] * scale[dev];
                if tuples <= 0.0 {
                    continue;
                }
                let is_source = graph.in_degree(v) == 0;
                let available = if is_source {
                    source_rate * dt
                } else {
                    graph.in_edges(v).map(|(_, e)| buf[e.idx()]).sum::<f64>()
                };
                tuples = tuples.min(available);
                // Bandwidth constraints at commit time (shared budgets).
                for (w, e) in graph.out_edges(v) {
                    let ch = graph.channel(e);
                    if ch.selectivity <= 0.0 {
                        continue;
                    }
                    let space = (cfg.queue_capacity - buf[e.idx()]).max(0.0);
                    tuples = tuples.min(space / ch.selectivity);
                    let wdev = placement.device(w.idx()) as usize;
                    if wdev != dev && ch.payload > 0.0 {
                        let lb = link.entry((dev as u32, wdev as u32)).or_insert(bw_cap);
                        let bw_tuples = egress[dev].min(ingress[wdev]).min(*lb) / ch.payload;
                        tuples = tuples.min(bw_tuples / ch.selectivity);
                    }
                }
                if tuples <= 0.0 {
                    continue;
                }

                if !is_source {
                    let scale_in = tuples / available;
                    for (_, e) in graph.in_edges(v) {
                        buf[e.idx()] -= buf[e.idx()] * scale_in;
                    }
                } else if measuring {
                    *accepted += tuples;
                }
                for (w, e) in graph.out_edges(v) {
                    let ch = graph.channel(e);
                    let amount = tuples * ch.selectivity;
                    if amount <= 0.0 {
                        continue;
                    }
                    let wdev = placement.device(w.idx()) as usize;
                    if wdev != dev {
                        let bytes = amount * ch.payload;
                        egress[dev] -= bytes;
                        ingress[wdev] -= bytes;
                        *link.get_mut(&(dev as u32, wdev as u32)).unwrap() -= bytes;
                    }
                    buf[e.idx()] += amount;
                }
                if sink_set[v.idx()] && measuring {
                    *completed += tuples;
                }
            }
        }
    }
}

/// Measure in blocks until the accepted rate stops moving AND the
/// buffered mass stops growing (see module docs), then report the last
/// block only — it is the one closest to equilibrium.
///
/// Convergence state (`prev_rel`) starts fresh on every call. That
/// freshness is load-bearing at a mid-stream re-allocation boundary: a
/// previous phase's settled rate must never pre-satisfy the new phase's
/// rate-settled criterion, or a phase whose first block happens to land
/// near the old equilibrium would stop measuring while its buffers are
/// still re-draining toward the *new* one.
fn measure_blocks(sim: &mut Sim, sink_count: usize) -> (f64, f64, f64) {
    let cfg = sim.cfg;
    let window = cfg.measure_steps as f64 * cfg.dt;
    let source_rate = sim.source_rate;
    let offered = window * source_rate;
    let mut prev_rel: Option<f64> = None;
    let mut throughput = 0.0;
    let mut relative = 0.0;
    let mut sink_rate = 0.0;
    for _ in 0..cfg.max_measure_blocks.max(1) {
        sim.accepted = 0.0;
        sim.completed = 0.0;
        let mass_before = sim.buffered_mass();
        sim.run(cfg.measure_steps, true);
        let mass_delta = if offered > 0.0 {
            (sim.buffered_mass() - mass_before).abs() / offered
        } else {
            0.0
        };
        throughput = sim.accepted / window;
        relative = if source_rate > 0.0 {
            throughput / source_rate
        } else {
            0.0
        };
        sink_rate = sim.completed / (window * sink_count.max(1) as f64);
        let rate_settled = prev_rel.is_some_and(|p| (relative - p).abs() <= cfg.converge_rate_tol);
        if rate_settled && mass_delta <= cfg.converge_mass_tol {
            break;
        }
        prev_rel = Some(relative);
    }
    (throughput, relative, sink_rate)
}

fn simulate_des_impl(
    graph: &StreamGraph,
    cluster: &ClusterSpec,
    placement: &Placement,
    source_rate: f64,
    cfg: &DesConfig,
) -> DesResult {
    assert!(
        placement.validate(graph, cluster.devices),
        "placement must cover the graph and respect the device count"
    );
    let sink_count = graph.sinks().len();
    let mut sim = Sim::new(graph, cluster, placement, source_rate, cfg);
    sim.run(cfg.warmup_steps, false);
    let (throughput, relative, sink_rate) = measure_blocks(&mut sim, sink_count);
    DesResult {
        throughput,
        relative,
        sink_rate,
        cpu_saturation: sim
            .cpu_saturated
            .iter()
            .map(|&c| c as f64 / sim.executed_steps.max(1) as f64)
            .collect(),
    }
}

/// One phase of a drifting workload: the placement and source rate in
/// effect from one re-allocation boundary to the next.
#[derive(Debug, Clone)]
pub struct DesPhase {
    /// Placement in effect during the phase.
    pub placement: Placement,
    /// Offered source rate during the phase.
    pub source_rate: f64,
}

/// Simulate a sequence of re-allocation phases over one live stream.
///
/// Edge buffers persist across phase boundaries — a re-allocation swaps
/// the placement (and possibly the rate) *under* whatever tuple mass
/// the previous phase left in flight, which is exactly the transient a
/// drifting deployment pays. Everything that describes *measurement*,
/// however, restarts per phase: an unmeasured warmup absorbs the
/// switch-over transient, the adaptive converged-block window begins
/// with fresh convergence state (see [`measure_blocks`]), and CPU
/// saturation counters are zeroed so each [`DesResult`] describes its
/// own phase only.
///
/// Returns one [`DesResult`] per phase, in order. Deterministic — a
/// pure function of graph, phases, and config.
pub fn simulate_des_phases(
    graph: &StreamGraph,
    cluster: &ClusterSpec,
    phases: &[DesPhase],
    cfg: &DesConfig,
) -> Vec<DesResult> {
    assert!(!phases.is_empty(), "at least one phase is required");
    for (i, ph) in phases.iter().enumerate() {
        assert!(
            ph.placement.validate(graph, cluster.devices),
            "phase {i} placement must cover the graph and respect the device count"
        );
    }
    spg_obs::probe::SIM_DES.time(|| {
        let sink_count = graph.sinks().len();
        let mut sim = Sim::new(
            graph,
            cluster,
            &phases[0].placement,
            phases[0].source_rate,
            cfg,
        );
        let mut results = Vec::with_capacity(phases.len());
        for ph in phases {
            sim.placement = &ph.placement;
            sim.source_rate = ph.source_rate;
            sim.cpu_saturated.fill(0);
            sim.executed_steps = 0;
            sim.run(cfg.warmup_steps, false);
            let (throughput, relative, sink_rate) = measure_blocks(&mut sim, sink_count);
            results.push(DesResult {
                throughput,
                relative,
                sink_rate,
                cpu_saturation: sim
                    .cpu_saturated
                    .iter()
                    .map(|&c| c as f64 / sim.executed_steps.max(1) as f64)
                    .collect(),
            });
        }
        results
    })
}

/// Convenience: classify the analytic bottleneck and check that the DES
/// agrees with the analytic relative throughput within `tol`.
pub fn cross_check(
    graph: &StreamGraph,
    cluster: &ClusterSpec,
    placement: &Placement,
    source_rate: f64,
    cfg: &DesConfig,
    tol: f64,
) -> (f64, f64, Bottleneck) {
    let a = crate::analytic::simulate(graph, cluster, placement, source_rate);
    let d = simulate_des(graph, cluster, placement, source_rate, cfg);
    assert!(
        (a.relative - d.relative).abs() <= tol,
        "analytic {} vs des {} differ by more than {tol}",
        a.relative,
        d.relative
    );
    (a.relative, d.relative, a.bottleneck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_graph::{Channel, Operator, StreamGraphBuilder};

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
    fn unconstrained_matches_source_rate() {
        let g = pipeline(100.0, 10.0);
        let cluster = ClusterSpec::paper_medium(2);
        let r = simulate_des(
            &g,
            &cluster,
            &Placement::all_on_one(3),
            1e4,
            &DesConfig::default(),
        );
        assert!((r.relative - 1.0).abs() < 0.02, "relative = {}", r.relative);
    }

    #[test]
    fn cpu_bottleneck_halves_throughput() {
        let g = pipeline(2.5e5, 10.0);
        let cluster = ClusterSpec::paper_medium(3);
        let p = Placement::new(vec![0, 1, 2]);
        let r = simulate_des(&g, &cluster, &p, 1e4, &DesConfig::default());
        assert!((r.relative - 0.5).abs() < 0.05, "relative = {}", r.relative);
        // Worker device should be CPU-saturated most steps once warmed up.
        assert!(r.cpu_saturation[1] > 0.5);
    }

    #[test]
    fn network_bottleneck_throttles_source() {
        let g = pipeline(100.0, 1e5);
        let cluster = ClusterSpec::paper_medium(2);
        let p = Placement::new(vec![0, 1, 0]);
        let a = crate::analytic::simulate(&g, &cluster, &p, 1e4);
        let r = simulate_des(&g, &cluster, &p, 1e4, &DesConfig::default());
        assert!(
            (r.relative - a.relative).abs() < 0.05,
            "des {} vs analytic {}",
            r.relative,
            a.relative
        );
    }

    #[test]
    fn sink_rate_tracks_accepted_rate() {
        let g = pipeline(2.5e5, 10.0);
        let cluster = ClusterSpec::paper_medium(3);
        let p = Placement::new(vec![0, 1, 2]);
        let r = simulate_des(&g, &cluster, &p, 1e4, &DesConfig::default());
        assert!(
            (r.sink_rate - r.throughput).abs() / r.throughput < 0.1,
            "sink {} vs accepted {}",
            r.sink_rate,
            r.throughput
        );
    }

    #[test]
    fn phase_results_track_fresh_runs() {
        // Rate ramp across a re-allocation boundary: each phase must
        // converge to (near) what a fresh single-phase run reports,
        // even though buffers persist across the boundary.
        let g = pipeline(2.5e5, 10.0);
        let cluster = ClusterSpec::paper_medium(3);
        let cfg = DesConfig::default();
        let phases = vec![
            DesPhase {
                placement: Placement::new(vec![0, 1, 2]),
                source_rate: 1e4,
            },
            DesPhase {
                placement: Placement::new(vec![0, 1, 2]),
                source_rate: 2e4,
            },
        ];
        let rs = simulate_des_phases(&g, &cluster, &phases, &cfg);
        assert_eq!(rs.len(), 2);
        for (ph, r) in phases.iter().zip(&rs) {
            let fresh = simulate_des(&g, &cluster, &ph.placement, ph.source_rate, &cfg);
            assert!(
                (r.relative - fresh.relative).abs() < 0.05,
                "phase at rate {}: {} vs fresh {}",
                ph.source_rate,
                r.relative,
                fresh.relative
            );
        }
    }

    #[test]
    fn reallocation_boundary_resets_convergence_state() {
        // Phase 1 settles at relative ≈ 1.0 (unconstrained); phase 2
        // moves the whole pipeline onto one device where the worker is
        // CPU-bound. If convergence state leaked across the boundary,
        // phase 2 could stop at its first block while buffers are still
        // filling and report a stale near-1.0 rate; with the reset it
        // must land near its own fresh equilibrium.
        let g = pipeline(2.5e5, 10.0);
        let cluster = ClusterSpec::paper_medium(3);
        let cfg = DesConfig::default();
        let phases = vec![
            DesPhase {
                placement: Placement::new(vec![0, 1, 2]),
                source_rate: 1e3,
            },
            DesPhase {
                placement: Placement::all_on_one(3),
                source_rate: 2e4,
            },
        ];
        let rs = simulate_des_phases(&g, &cluster, &phases, &cfg);
        let fresh = simulate_des(&g, &cluster, &phases[1].placement, 2e4, &cfg);
        assert!((rs[0].relative - 1.0).abs() < 0.02, "{}", rs[0].relative);
        assert!(
            (rs[1].relative - fresh.relative).abs() < 0.05,
            "post-boundary {} vs fresh {}",
            rs[1].relative,
            fresh.relative
        );
        // Per-phase saturation accounting: phase 2's device 0 hosts the
        // CPU-bound worker; phase 1's does not.
        assert!(rs[1].cpu_saturation[0] > rs[0].cpu_saturation[0]);
    }

    #[test]
    fn zero_rate_runs_cleanly() {
        let g = pipeline(100.0, 10.0);
        let cluster = ClusterSpec::paper_medium(2);
        let r = simulate_des(
            &g,
            &cluster,
            &Placement::all_on_one(3),
            0.0,
            &DesConfig::default(),
        );
        assert_eq!(r.throughput, 0.0);
        assert_eq!(r.relative, 0.0);
    }
}
