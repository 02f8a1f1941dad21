//! Tape-free inference for [`CoarsenModel`], one graph per forward.
//!
//! The training forward builds a [`spg_nn::Tape`]: every op allocates a
//! node, every parameter use clones its matrix, and gather/segment passes
//! walk COO index vectors rebuilt per call. None of that is needed at
//! serve time — inference never backprops — so this module re-implements
//! the encoder and collapse head as plain [`Matrix`] ops over the same
//! [`Linear`](spg_nn::Linear) layers, with the exact matmul and tanh.
//! The forward has four properties:
//!
//! * **Zero steady-state allocation**: intermediates and index maps come
//!   from an [`InferenceScratch`] arena reused across calls (a serve
//!   replica holds one for its lifetime), weights are read in place
//!   through `RefCell` borrows.
//! * **CSR-backed pooling**: segment means pull over the graph's own
//!   [`spg_graph::Csr`] buckets (ascending edge ids) instead of
//!   scattering over a COO segment vector.
//! * **Each distinct message once**: a message `tanh(W·[h_u : f_e] + b)`
//!   depends only on its sender and the bits of its channel's features.
//!   Once per forward, each view groups its edges into distinct (sender,
//!   feature bits) rows; the message layer and its tanh run on those
//!   rows, and the segment mean pulls each edge's row through an
//!   edge→row map. The message layer and the merge layer's head segment
//!   take their node columns through
//!   [`Linear::forward_gathered`](spg_nn::Linear::forward_gathered),
//!   which projects every node once ([`Matrix::matmul_gathered_into`]).
//! * **Bitwise identity**: every op replicates its tape counterpart's
//!   accumulation order exactly (CSR buckets list edge ids ascending, so
//!   per-segment sums add in the same order the COO loop did; divisions
//!   use the same `/= count`; a shared message row has the bits each of
//!   its edges' rows would have had, since every layer is row-wise). The
//!   `tests/infer.rs` corpus pins tape-vs-tape-free equality bit for bit.

use crate::collapse::CollapseHead;
use crate::encoder::EdgeAwareGnn;
use crate::model::{sigmoid, CoarsenModel};
use spg_graph::features::{EDGE_FEATURES, NODE_FEATURES};
use spg_graph::{Csr, GraphFeatures, StreamGraph};
use spg_nn::{Matrix, Mlp};

pub use spg_nn::InferenceScratch;

/// The distinct message rows of one view, shared by every hop of a
/// forward. A message is a row-wise function of `[h[sender] : ef[e]]`,
/// so the edges of one sender whose feature rows have the same bits get
/// one row, and identical rows give identical bits through any row-wise
/// layer.
struct MessageRows {
    /// Sender node of each row.
    sender: Vec<u32>,
    /// Row of each edge, by edge id.
    of_edge: Vec<u32>,
    /// Edge feature row of each row (`rows x EDGE_FEATURES`).
    feats: Matrix,
}

impl MessageRows {
    /// Group each sender's bucket of `by_sender` by the bits of its
    /// edges' `ef` rows. A bucket is sorted on those bits, so a
    /// high-fan-out sender costs O(d log d), never a pairwise scan.
    fn build(by_sender: &Csr, ef: &Matrix, s: &mut InferenceScratch) -> Self {
        let bits = |eid: u32| -> [u32; EDGE_FEATURES] {
            std::array::from_fn(|c| ef.row(eid as usize)[c].to_bits())
        };
        let mut sender = s.take_idx();
        let mut of_edge = s.take_idx();
        of_edge.resize(ef.rows, 0);
        // The first edge of each row, whose features the row carries.
        let mut first = s.take_idx();
        let mut bucket = s.take_idx();
        for u in 0..by_sender.num_nodes() as u32 {
            bucket.clear();
            bucket.extend_from_slice(by_sender.edge_id_slice(u));
            bucket.sort_unstable_by_key(|&eid| bits(eid));
            let mut prev = None;
            for &eid in &bucket {
                let key = bits(eid);
                if prev != Some(key) {
                    prev = Some(key);
                    sender.push(u);
                    first.push(eid);
                }
                of_edge[eid as usize] = (sender.len() - 1) as u32;
            }
        }
        let mut feats = s.take(first.len(), EDGE_FEATURES);
        for (r, &eid) in first.iter().enumerate() {
            feats.row_mut(r).copy_from_slice(ef.row(eid as usize));
        }
        s.put_idx(first);
        s.put_idx(bucket);
        Self {
            sender,
            of_edge,
            feats,
        }
    }

    /// The messages `layer([h[sender] : feats])`, one per row, through
    /// the layer's gathered forward and its tanh.
    fn messages(&self, layer: &Mlp, h: &Matrix, s: &mut InferenceScratch) -> Matrix {
        let mut msg = layer.forward_gathered_infer(h, &self.sender, &self.feats, s);
        msg.tanh_assign();
        msg
    }

    /// Return the buffers to the arena.
    fn put(self, s: &mut InferenceScratch) {
        s.put_idx(self.sender);
        s.put_idx(self.of_edge);
        s.put(self.feats);
    }
}

/// Per-segment mean via a CSR pull: out row `v` accumulates the message
/// row of each edge in `v`'s bucket (`msg.row(row_of[eid])`) in
/// ascending edge-id order, then divides by the bucket size — exactly
/// the order and rounding of `Tape::segment_mean` over per-edge
/// messages. `out` must be zeroed (empty buckets stay zero rows).
fn segment_mean_csr(msg: &Matrix, row_of: &[u32], csr: &Csr, out: &mut Matrix) {
    debug_assert_eq!(out.rows, csr.num_nodes());
    for v in 0..csr.num_nodes() {
        let ids = csr.edge_id_slice(v as u32);
        if ids.is_empty() {
            continue;
        }
        let row = out.row_mut(v);
        for &eid in ids {
            for (o, &x) in row.iter_mut().zip(msg.row(row_of[eid as usize] as usize)) {
                *o += x;
            }
        }
        let c = ids.len() as f32;
        for x in row {
            *x /= c;
        }
    }
}

/// `out = [a : b]` column-wise (both `n x m`, out `n x 2m`).
fn concat2(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    debug_assert_eq!((a.rows, a.cols), (b.rows, b.cols));
    debug_assert_eq!((out.rows, out.cols), (a.rows, 2 * a.cols));
    let m = a.cols;
    for r in 0..a.rows {
        let row = out.row_mut(r);
        row[..m].copy_from_slice(a.row(r));
        row[m..].copy_from_slice(b.row(r));
    }
}

impl EdgeAwareGnn {
    /// Tape-free [`EdgeAwareGnn::encode`] of a graph with at least one
    /// edge: returns the `[N x 2m]` node representation as an arena
    /// matrix (bitwise identical to the tape path). `put` it back when
    /// done.
    fn encode_infer(
        &self,
        graph: &StreamGraph,
        feats: &GraphFeatures,
        s: &mut InferenceScratch,
    ) -> Matrix {
        let n = graph.num_nodes();
        let e = graph.num_edges();
        let m = self.hidden;

        let mut nf = s.take(n, NODE_FEATURES);
        nf.data.copy_from_slice(&feats.node.0);
        let mut h_up = s.take(n, m);
        self.input_proj.forward_infer(&nf, &mut h_up);
        s.put(nf);
        h_up.tanh_assign();

        let mut h_down = s.take(n, m);
        h_down.data.copy_from_slice(&h_up.data);

        // Zeroed when the edge-encoding ablation is off, like the tape path.
        let mut ef = s.take(e, EDGE_FEATURES);
        if self.edge_encoding {
            ef.data.copy_from_slice(&feats.edge.0);
        }
        // Upstream messages are sent by edge sources (out-CSR buckets),
        // downstream ones by edge destinations (in-CSR buckets).
        let up = MessageRows::build(graph.out_csr(), &ef, s);
        let down = MessageRows::build(graph.in_csr(), &ef, s);
        s.put(ef);

        let mut pool = s.take(n, m);
        let mut cat2 = s.take(n, 2 * m);
        for _ in 0..self.hops {
            // Upstream view: messages flow along edge direction to dst.
            let msg = up.messages(&self.msg, &h_up, s);
            pool.fill_zero();
            segment_mean_csr(&msg, &up.of_edge, graph.in_csr(), &mut pool);
            s.put(msg);
            concat2(&h_up, &pool, &mut cat2);
            let mut up_new = s.take(n, m);
            self.update.forward_infer(&cat2, &mut up_new);
            up_new.tanh_assign();

            // Downstream view: messages flow against edge direction to src.
            let msg = down.messages(&self.msg, &h_down, s);
            pool.fill_zero();
            segment_mean_csr(&msg, &down.of_edge, graph.out_csr(), &mut pool);
            s.put(msg);
            concat2(&h_down, &pool, &mut cat2);
            let mut down_new = s.take(n, m);
            self.update.forward_infer(&cat2, &mut down_new);
            down_new.tanh_assign();

            s.put(h_up);
            s.put(h_down);
            h_up = up_new;
            h_down = down_new;
        }
        up.put(s);
        down.put(s);
        s.put(pool);
        s.put(cat2);

        let mut out = s.take(n, 2 * m);
        concat2(&h_up, &h_down, &mut out);
        s.put(h_up);
        s.put(h_down);
        out
    }
}

impl CollapseHead {
    /// Tape-free [`CollapseHead::logits`]: per-edge logits `[E x 1]` as
    /// an arena matrix (bitwise identical to the tape path).
    fn logits_infer(
        &self,
        graph: &StreamGraph,
        feats: &GraphFeatures,
        h: &Matrix,
        s: &mut InferenceScratch,
    ) -> Matrix {
        let e = graph.num_edges();
        assert!(e > 0, "logits need at least one edge");
        let n = h.rows;
        let m = self.head_proj.output_dim();
        let eh = self.edge_proj.output_dim();

        let mut head_all = s.take(n, m);
        self.head_proj.forward_infer(h, &mut head_all);
        let mut tail_all = s.take(n, m);
        self.tail_proj.forward_infer(h, &mut tail_all);

        let mut ef_in = s.take(e, EDGE_FEATURES);
        if self.edge_collapse_features {
            ef_in.data.copy_from_slice(&feats.edge.0);
        }
        let mut ef = s.take(e, eh);
        self.edge_proj.forward_infer(&ef_in, &mut ef);
        ef.tanh_assign();
        s.put(ef_in);

        // The merge MLP's input is `[head_all[u] : tail_all[v] : ef]`;
        // its head segment goes through the gathered forward.
        let mut tail = s.take(e, m + eh);
        let mut src = s.take_idx();
        for (i, &(u, v)) in graph.edge_list().iter().enumerate() {
            let row = tail.row_mut(i);
            row[..m].copy_from_slice(tail_all.row(v as usize));
            row[m..].copy_from_slice(ef.row(i));
            src.push(u);
        }
        s.put(tail_all);
        s.put(ef);

        let logits = self.merge.forward_gathered_infer(&head_all, &src, &tail, s);
        s.put(head_all);
        s.put(tail);
        s.put_idx(src);
        logits
    }
}

impl CoarsenModel {
    /// Tape-free inference probabilities for one graph, reusing a scratch
    /// arena across calls. Bitwise identical to the tape forward
    /// ([`CoarsenModel::forward`] + sigmoid); empty for edgeless graphs.
    pub fn infer_probs(
        &self,
        graph: &StreamGraph,
        feats: &GraphFeatures,
        scratch: &mut InferenceScratch,
    ) -> Vec<f32> {
        if graph.num_edges() == 0 {
            return Vec::new();
        }
        let h = self.encoder.encode_infer(graph, feats, scratch);
        let z = self.head.logits_infer(graph, feats, &h, scratch);
        scratch.put(h);
        let probs = z.data.iter().map(|&x| sigmoid(x)).collect();
        scratch.put(z);
        probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_graph::{Channel, Operator, StreamGraphBuilder};

    /// Distinct message rows of both views of `edges` over `n` nodes
    /// whose edge feature rows are `feats`, after checking that each
    /// edge's row carries its sender and its feature bits.
    fn row_counts(n: usize, edges: &[(u32, u32)], feats: &[[f32; EDGE_FEATURES]]) -> [usize; 2] {
        let fwd = Csr::from_edges(n, edges.iter().copied());
        let rev = Csr::from_edges(n, edges.iter().map(|&(u, v)| (v, u)));
        let ef = Matrix::from_vec(edges.len(), EDGE_FEATURES, feats.concat());
        let mut s = InferenceScratch::new();
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        [(&fwd, true), (&rev, false)].map(|(csr, by_source)| {
            let rows = MessageRows::build(csr, &ef, &mut s);
            let r = rows.sender.len();
            assert_eq!(rows.feats.rows, r);
            for (eid, &row) in rows.of_edge.iter().enumerate() {
                let (u, v) = edges[eid];
                let sender = if by_source { u } else { v };
                assert_eq!(rows.sender[row as usize], sender);
                assert_eq!(bits(rows.feats.row(row as usize)), bits(ef.row(eid)));
            }
            rows.put(&mut s);
            r
        })
    }

    #[test]
    fn rows_key_on_sender_and_feature_bits() {
        // Hub 0 sends to 1..=4; node 1 also sends to 2.
        let edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)];
        let feats = [
            [0.5, 0.25, 0.0, 1.0],
            [0.5, 0.25, -0.0, 1.0],
            [0.5, 0.25, 0.0, 1.0],
            [-0.0, 0.0, -0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ];
        // Upstream: the hub's four channels hold three distinct bit rows
        // (+0.0 and -0.0 stay apart), node 1 one. Downstream: node 2
        // receives two distinct rows, every other receiver one.
        assert_eq!(row_counts(5, &edges, &feats), [4, 5]);
        // All-zero features (the edge-encoding ablation): one row per
        // bucket.
        assert_eq!(row_counts(5, &edges, &[[0.0; EDGE_FEATURES]; 5]), [2, 4]);
    }

    #[test]
    fn a_wide_star_hub_sends_one_row_per_distinct_channel() {
        let mut b = StreamGraphBuilder::new();
        let hub = b.add_node(Operator::new(300.0));
        for i in 0..16_000 {
            let leaf = b.add_node(Operator::new(100.0));
            let payload = if i % 2 == 0 { 64.0 } else { 2048.0 };
            b.add_edge(hub, leaf, Channel::new(payload)).unwrap();
        }
        let g = b.finish().unwrap();
        let f = GraphFeatures::extract(&g, &spg_graph::ClusterSpec::paper_medium(4), 1e4);
        let feats: Vec<[f32; EDGE_FEATURES]> = (0..g.num_edges())
            .map(|e| f.edge_row(e).try_into().unwrap())
            .collect();
        let edges = g.topo_view().edges;
        // The hub sends two distinct rows; each leaf receives one.
        assert_eq!(row_counts(g.num_nodes(), edges, &feats), [2, 16_000]);
    }
}
