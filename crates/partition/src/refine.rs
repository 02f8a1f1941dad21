//! Partition refinement.
//!
//! * [`fm_bisection_refine`] — Fiduccia–Mattheyses passes for 2-way
//!   partitions: tentatively move every node once in best-gain order, then
//!   roll back to the best prefix. Climbs out of local minima by accepting
//!   temporarily-negative moves inside a pass.
//! * [`kway_refine`] — greedy boundary refinement for k-way partitions:
//!   repeatedly move the boundary node with the best (gain, balance-ok)
//!   move until a pass yields no improvement.

use crate::bisect::Bisection;
use spg_graph::WeightedGraph;

/// FM refinement of a bisection toward `target_frac` balance with
/// `balance_tol` slack (part-0 weight must stay within
/// `target ± tol·total`). `max_passes` bounds the outer loop.
pub fn fm_bisection_refine(
    g: &WeightedGraph,
    bis: &mut Bisection,
    target_frac: f64,
    balance_tol: f64,
    max_passes: usize,
) {
    let n = g.num_nodes();
    if n < 2 {
        return;
    }
    let total = g.total_node_weight();
    let lo = (target_frac - balance_tol) * total;
    let hi = (target_frac + balance_tol) * total;
    let target = target_frac * total;
    let select = selection_tier(g);

    let mut gain = vec![0.0f64; n];
    // Change in part-0 weight if the node moves; NaN once it has moved
    // in this pass, which fails every balance comparison.
    let mut delta = vec![0.0f64; n];
    let mut moves: Vec<u32> = Vec::with_capacity(n);
    for _ in 0..max_passes {
        for v in 0..n {
            gain[v] = move_gain2(g, &bis.part, v as u32);
            let wv = g.node_weight[v];
            delta[v] = if bis.part[v] == 0 { -wv } else { wv };
        }

        // Moves are applied to `bis.part` tentatively and undone past the
        // best prefix; cut and weight are tracked on the side.
        moves.clear();
        let mut cut = bis.cut;
        let mut w0 = bis.weight0;
        let mut best = (cut, w0, 0usize);
        for _ in 0..n {
            let balance = Balance::new(lo, hi, target, w0);
            let Some(v) = select(&gain, &delta, &balance) else {
                break;
            };
            let to = 1 - bis.part[v];
            bis.part[v] = to;
            cut -= gain[v];
            w0 += delta[v];
            delta[v] = f64::NAN;
            moves.push(v as u32);
            for &(u, e) in g.neighbors(v as u32) {
                // A moved node's gain is not read again this pass, so it
                // need not be skipped. u's gain changes by ±2w depending on
                // whether v joined or left u's side.
                let w = g.edge_weight[e as usize];
                if bis.part[u as usize] == to {
                    gain[u as usize] -= 2.0 * w;
                } else {
                    gain[u as usize] += 2.0 * w;
                }
            }

            if cut < best.0 - 1e-12 {
                best = (cut, w0, moves.len());
            }
        }

        // Roll back to the best prefix.
        let (best_cut, best_w0, best_prefix) = best;
        for &v in &moves[best_prefix..] {
            bis.part[v as usize] = 1 - bis.part[v as usize];
        }
        if best_prefix == 0 {
            break; // pass produced no improvement
        }
        bis.weight0 = best_w0;
        bis.cut = best_cut;
    }
}

/// The balance test of one FM move at part-0 weight `w0`.
#[derive(Debug, Clone, Copy)]
struct Balance {
    lo: f64,
    hi: f64,
    target: f64,
    w0: f64,
    /// A move strictly improves the balance if it lands part 0 closer to
    /// `target` than this.
    slack: f64,
}

impl Balance {
    fn new(lo: f64, hi: f64, target: f64, w0: f64) -> Self {
        Self {
            lo,
            hi,
            target,
            w0,
            slack: (w0 - target).abs() - 1e-12,
        }
    }

    /// Feasible if part 0 lands inside the window, or strictly improves an
    /// out-of-window balance (lets FM recover from overshoot). False
    /// whenever the new weight is NaN.
    #[inline]
    fn feasible(&self, delta: f64) -> bool {
        let new_w0 = self.w0 + delta;
        (new_w0 >= self.lo && new_w0 <= self.hi) || (new_w0 - self.target).abs() < self.slack
    }
}

/// A move-selection tier: `best_move` or a vector kernel that returns the
/// same node.
type Select = fn(&[f64], &[f64], &Balance) -> Option<usize>;

/// The widest exact tier for FM passes on `g`, chosen once per call. The
/// vector tier needs gains that are never NaN: each gain is a sum of
/// incident weights and of their doubles as neighbours move, so its
/// partial sums stay below `3 × Σ|w|`, and a finite `4 × Σ|w|` leaves room
/// for rounding. Node weights only enter the balance test, which every
/// tier evaluates with the same operations, so they need no check.
fn selection_tier(g: &WeightedGraph) -> Select {
    #[cfg(target_arch = "x86_64")]
    {
        let abs_sum: f64 = g.edge_weight.iter().map(|w| w.abs()).sum();
        if (4.0 * abs_sum).is_finite() && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected just above; the kernel asserts the
            // slice lengths it reads.
            return |gain, delta, balance| unsafe { x86::best_move_avx2(gain, delta, balance) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = g;
    best_move
}

/// The FM move: the feasible node with the highest gain, the lowest index
/// among equal gains (`-0.0` equals `+0.0`); with no earlier candidate,
/// the first feasible node wins whatever its gain. The scalar tier, and
/// the oracle the vector tier is tested against.
fn best_move(gain: &[f64], delta: &[f64], balance: &Balance) -> Option<usize> {
    scan(gain, delta, balance, 0, None).map(|(v, _)| v)
}

/// Continue `best_move`'s scan at node `from` with the best `(node, gain)`
/// so far.
fn scan(
    gain: &[f64],
    delta: &[f64],
    balance: &Balance,
    from: usize,
    mut best: Option<(usize, f64)>,
) -> Option<(usize, f64)> {
    for (v, (&g, &d)) in gain.iter().zip(delta).enumerate().skip(from) {
        if balance.feasible(d) && best.is_none_or(|(_, bg)| g > bg) {
            best = Some((v, g));
        }
    }
    best
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{scan, Balance};
    use std::arch::x86_64::*;

    /// `best_move` four nodes at a time. Lane `j` scans nodes `j, j + 4,
    /// …` with the scalar rule (its first feasible node, then a strictly
    /// greater gain), so each lane holds its highest gain at its lowest
    /// index; the lanes then merge by gain, then by lowest index, and the
    /// `n % 4` tail continues the scalar scan. Returns `best_move`'s node
    /// whenever no gain is NaN: `>` then orders every gain, so both find
    /// the highest gain at its lowest index.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn best_move_avx2(
        gain: &[f64],
        delta: &[f64],
        balance: &Balance,
    ) -> Option<usize> {
        assert_eq!(gain.len(), delta.len(), "one delta per gain");
        let chunks = gain.len() / 4;
        let w0 = _mm256_set1_pd(balance.w0);
        let lo = _mm256_set1_pd(balance.lo);
        let hi = _mm256_set1_pd(balance.hi);
        let target = _mm256_set1_pd(balance.target);
        let slack = _mm256_set1_pd(balance.slack);
        let sign = _mm256_set1_pd(-0.0);
        let four = _mm256_set1_pd(4.0);
        let mut idx = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
        let mut best_gain = _mm256_setzero_pd();
        let mut best_idx = _mm256_setzero_pd();
        // All-ones while the lane has no candidate yet.
        let mut none = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        for c in 0..chunks {
            // SAFETY: 4c + 3 < 4·chunks <= gain.len() == delta.len().
            let (g, d) = unsafe {
                (
                    _mm256_loadu_pd(gain.as_ptr().add(4 * c)),
                    _mm256_loadu_pd(delta.as_ptr().add(4 * c)),
                )
            };
            // The scalar balance test, lane-wise: ordered compares are false
            // on NaN, like Rust's, and abs clears the sign bit.
            let new_w0 = _mm256_add_pd(w0, d);
            let inside = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(new_w0, lo),
                _mm256_cmp_pd::<_CMP_LE_OQ>(new_w0, hi),
            );
            let dist = _mm256_andnot_pd(sign, _mm256_sub_pd(new_w0, target));
            let feasible = _mm256_or_pd(inside, _mm256_cmp_pd::<_CMP_LT_OQ>(dist, slack));
            let better = _mm256_or_pd(none, _mm256_cmp_pd::<_CMP_GT_OQ>(g, best_gain));
            let take = _mm256_and_pd(feasible, better);
            best_gain = _mm256_blendv_pd(best_gain, g, take);
            best_idx = _mm256_blendv_pd(best_idx, idx, take);
            none = _mm256_andnot_pd(take, none);
            idx = _mm256_add_pd(idx, four);
        }

        let mut gains = [0.0f64; 4];
        let mut idxs = [0.0f64; 4];
        // SAFETY: each array holds four f64.
        unsafe {
            _mm256_storeu_pd(gains.as_mut_ptr(), best_gain);
            _mm256_storeu_pd(idxs.as_mut_ptr(), best_idx);
        }
        let none = _mm256_movemask_pd(none);
        let mut best: Option<(usize, f64)> = None;
        for lane in 0..4 {
            if none & (1 << lane) != 0 {
                continue;
            }
            let (v, g) = (idxs[lane] as usize, gains[lane]);
            if best.is_none_or(|(bv, bg)| g > bg || (g == bg && v < bv)) {
                best = Some((v, g));
            }
        }
        scan(gain, delta, balance, 4 * chunks, best).map(|(v, _)| v)
    }
}

/// Gain of moving `v` to the other side in a 2-way partition.
fn move_gain2(g: &WeightedGraph, part: &[u32], v: u32) -> f64 {
    let mut ext = 0.0;
    let mut int = 0.0;
    for &(u, e) in g.neighbors(v) {
        let w = g.edge_weight[e as usize];
        if part[u as usize] == part[v as usize] {
            int += w;
        } else {
            ext += w;
        }
    }
    ext - int
}

/// Greedy k-way boundary refinement. Moves a node to the neighbouring part
/// with the highest positive gain, subject to every part staying below
/// `max_part_weight`. Returns the number of moves applied.
pub fn kway_refine(
    g: &WeightedGraph,
    part: &mut [u32],
    k: usize,
    max_part_weight: f64,
    max_passes: usize,
) -> usize {
    let n = g.num_nodes();
    let mut part_weight = g.part_weights(part, k);
    let mut total_moves = 0usize;
    // Connectivity of one node to each part among its neighbours, in
    // first-seen order; one buffer serves every node.
    let mut conn: Vec<(u32, f64)> = Vec::new();

    for _ in 0..max_passes {
        let mut moved = 0usize;
        for v in 0..n as u32 {
            conn.clear();
            for &(u, e) in g.neighbors(v) {
                let p = part[u as usize];
                let w = g.edge_weight[e as usize];
                match conn.iter_mut().find(|(pp, _)| *pp == p) {
                    Some((_, cw)) => *cw += w,
                    None => conn.push((p, w)),
                }
            }
            let from = part[v as usize];
            let own = conn
                .iter()
                .find(|(p, _)| *p == from)
                .map(|&(_, w)| w)
                .unwrap_or(0.0);
            let wv = g.node_weight[v as usize];
            let mut best: Option<(u32, f64)> = None;
            for &(p, w) in &conn {
                if p == from {
                    continue;
                }
                if part_weight[p as usize] + wv > max_part_weight {
                    continue;
                }
                let gain = w - own;
                if gain > 1e-12 && best.is_none_or(|(_, bg)| gain > bg) {
                    best = Some((p, gain));
                }
            }
            if let Some((p, _)) = best {
                part_weight[from as usize] -= wv;
                part_weight[p as usize] += wv;
                part[v as usize] = p;
                moved += 1;
            }
        }
        total_moves += moved;
        if moved == 0 {
            break;
        }
    }
    total_moves
}

/// Force every part below `max_part_weight` by evicting nodes from
/// overweight parts into the lightest feasible part, choosing evictions
/// with the smallest cut penalty. Used after uncoarsening projection where
/// coarse nodes can be lumpy. Returns the number of moves.
pub fn rebalance(g: &WeightedGraph, part: &mut [u32], k: usize, max_part_weight: f64) -> usize {
    let n = g.num_nodes();
    let mut part_weight = g.part_weights(part, k);
    let mut moves = 0usize;
    // Connectivity of one candidate to each part, reused per candidate.
    let mut conn = vec![0.0f64; k];
    // Bounded: each node moves at most a few times.
    for _round in 0..4 * n {
        // Heaviest overweight part.
        let Some((from, _)) = part_weight
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > max_part_weight)
            .max_by(|a, b| a.1.total_cmp(b.1))
        else {
            break;
        };
        // Cheapest eviction: node in `from` and target part minimising the
        // cut increase, target must have room (or be the globally lightest).
        let mut best: Option<(u32, u32, f64)> = None; // (node, to, penalty)
        for v in 0..n as u32 {
            if part[v as usize] as usize != from {
                continue;
            }
            let wv = g.node_weight[v as usize];
            conn.fill(0.0);
            for &(u, e) in g.neighbors(v) {
                conn[part[u as usize] as usize] += g.edge_weight[e as usize];
            }
            for to in 0..k {
                if to == from {
                    continue;
                }
                if part_weight[to] + wv > max_part_weight {
                    continue;
                }
                let penalty = conn[from] - conn[to];
                if best.is_none_or(|(_, _, bp)| penalty < bp) {
                    best = Some((v, to as u32, penalty));
                }
            }
        }
        let Some((v, to, _)) = best else { break };
        let wv = g.node_weight[v as usize];
        part_weight[from] -= wv;
        part_weight[to as usize] += wv;
        part[v as usize] = to;
        moves += 1;
    }
    moves
}

/// Per-part-cap variant of [`rebalance`]: part `p` must stay below
/// `caps[p]` (heterogeneous device capacities).
pub fn rebalance_targets(g: &WeightedGraph, part: &mut [u32], caps: &[f64]) -> usize {
    let n = g.num_nodes();
    let k = caps.len();
    let mut part_weight = g.part_weights(part, k);
    let mut moves = 0usize;
    // Connectivity of one candidate to each part, reused per candidate.
    let mut conn = vec![0.0f64; k];
    for _round in 0..4 * n {
        let Some((from, _)) = part_weight
            .iter()
            .enumerate()
            .filter(|&(p, &w)| w > caps[p])
            .max_by(|a, b| (a.1 / caps[a.0]).total_cmp(&(b.1 / caps[b.0])))
        else {
            break;
        };
        let mut best: Option<(u32, u32, f64)> = None;
        for v in 0..n as u32 {
            if part[v as usize] as usize != from {
                continue;
            }
            let wv = g.node_weight[v as usize];
            conn.fill(0.0);
            for &(u, e) in g.neighbors(v) {
                conn[part[u as usize] as usize] += g.edge_weight[e as usize];
            }
            for to in 0..k {
                if to == from || part_weight[to] + wv > caps[to] {
                    continue;
                }
                let penalty = conn[from] - conn[to];
                if best.is_none_or(|(_, _, bp)| penalty < bp) {
                    best = Some((v, to as u32, penalty));
                }
            }
        }
        let Some((v, to, _)) = best else { break };
        let wv = g.node_weight[v as usize];
        part_weight[from] -= wv;
        part_weight[to as usize] += wv;
        part[v as usize] = to;
        moves += 1;
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_graph;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn fm_never_worsens_cut() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for seed in 0..5 {
            let mut rng2 = ChaCha8Rng::seed_from_u64(seed);
            let g = random_graph(60, 120, &mut rng2);
            let part: Vec<u32> = (0..60).map(|_| rng.gen_range(0..2u32)).collect();
            let w0 = part
                .iter()
                .enumerate()
                .filter(|(_, &p)| p == 0)
                .map(|(v, _)| g.node_weight[v])
                .sum();
            let cut0 = g.cut_weight(&part);
            let mut bis = Bisection {
                part,
                cut: cut0,
                weight0: w0,
            };
            fm_bisection_refine(&g, &mut bis, 0.5, 0.3, 4);
            assert!(
                bis.cut <= cut0 + 1e-9,
                "cut rose from {cut0} to {}",
                bis.cut
            );
            assert!((g.cut_weight(&bis.part) - bis.cut).abs() < 1e-6);
        }
    }

    #[test]
    fn fm_fixes_obviously_bad_split() {
        // Two triangles joined by a light edge, started with a bad split.
        let g = WeightedGraph::new(
            vec![1.0; 6],
            vec![
                (0, 1, 10.0),
                (1, 2, 10.0),
                (0, 2, 10.0),
                (3, 4, 10.0),
                (4, 5, 10.0),
                (3, 5, 10.0),
                (2, 3, 1.0),
            ],
        );
        let part = vec![0, 1, 0, 1, 0, 1];
        let cut0 = g.cut_weight(&part);
        let mut bis = Bisection {
            weight0: 3.0,
            cut: cut0,
            part,
        };
        fm_bisection_refine(&g, &mut bis, 0.5, 0.2, 8);
        assert!((bis.cut - 1.0).abs() < 1e-9, "cut = {}", bis.cut);
    }

    #[test]
    fn every_selection_tier_matches_best_move() {
        let mut tiers: Vec<Select> = vec![best_move];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 verified just above; the kernel asserts the
            // slice lengths it reads.
            tiers.push(|gain, delta, balance| unsafe { x86::best_move_avx2(gain, delta, balance) });
        }
        let balances = [
            // w0 inside the window.
            Balance::new(4.0, 8.0, 6.0, 6.0),
            // w0 outside it: only moves toward the target are feasible.
            Balance::new(4.0, 8.0, 6.0, 20.0),
            Balance::new(4.0, 8.0, 6.0, -3.0),
            // An empty window at the target: no move is feasible.
            Balance::new(1.0, 0.0, 0.5, 0.5),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for n in 1..=67usize {
            for (bi, balance) in balances.iter().enumerate() {
                for moved_share in [0.0, 0.5, 1.0] {
                    // Few distinct gains, so most tie; zeros of both signs
                    // must tie as well.
                    let gain: Vec<f64> = (0..n)
                        .map(|_| [-2.0, -0.0, 0.0, 0.0, 1.5, 3.0, 3.0][rng.gen_range(0..7)])
                        .collect();
                    let delta: Vec<f64> = (0..n)
                        .map(|_| {
                            if rng.gen_bool(moved_share) {
                                f64::NAN
                            } else {
                                [-3.0, -1.0, -0.5, 1.0, 2.0, 4.0][rng.gen_range(0..6)]
                            }
                        })
                        .collect();
                    let want = best_move(&gain, &delta, balance);
                    if moved_share == 1.0 || bi == 3 {
                        assert_eq!(want, None);
                    }
                    for (t, tier) in tiers.iter().enumerate() {
                        assert_eq!(
                            tier(&gain, &delta, balance),
                            want,
                            "tier {t}, n = {n}, balance {bi}, moved {moved_share}"
                        );
                    }
                }
            }
        }
        // -0.0 and +0.0 tie, so the lower index wins in every lane order.
        for n in 1..=9usize {
            for first in 0..n {
                let gain: Vec<f64> = (0..n)
                    .map(|v| if v == first { 0.0 } else { -0.0 })
                    .collect();
                let delta = vec![1.0; n];
                let balance = Balance::new(0.0, 10.0, 5.0, 5.0);
                for tier in &tiers {
                    assert_eq!(tier(&gain, &delta, &balance), Some(0));
                }
            }
        }
    }

    #[test]
    fn kway_refine_respects_balance_cap() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = random_graph(80, 160, &mut rng);
        let k = 4;
        let mut part: Vec<u32> = (0..80u32).map(|v| v % k as u32).collect();
        let cap = g.total_node_weight() / k as f64 * 1.2;
        let cut0 = g.cut_weight(&part);
        kway_refine(&g, &mut part, k, cap, 6);
        let cut1 = g.cut_weight(&part);
        assert!(cut1 <= cut0 + 1e-9);
        for w in g.part_weights(&part, k) {
            assert!(w <= cap + 1e-6, "part weight {w} above cap {cap}");
        }
    }

    #[test]
    fn kway_refine_converges() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = random_graph(50, 80, &mut rng);
        let mut part: Vec<u32> = (0..50u32).map(|v| v % 3).collect();
        // Cap strictly above any reachable weight so the boundary is not
        // float-sensitive (cap == total is degenerate: incremental weight
        // accounting can land an epsilon above it).
        let cap = g.total_node_weight() * 2.0;
        kway_refine(&g, &mut part, 3, cap, 50);
        // Re-running from the converged state must make zero moves.
        let moves = kway_refine(&g, &mut part, 3, cap, 1);
        assert_eq!(moves, 0);
    }
}
