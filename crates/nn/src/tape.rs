//! The gradient tape.
//!
//! Forward ops append nodes (so the node list is already in topological
//! order); [`Tape::backward`] walks it in reverse accumulating gradients.
//! Parameter gradients are accumulated directly into the shared
//! [`Param`] storage, so a training step is: build tape → `backward` →
//! `Adam::step` → drop tape.

use crate::matrix::Matrix;
use crate::param::Param;

/// Handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    /// Constant input (no gradient flows out).
    Leaf,
    /// Trainable parameter; backward accumulates into the `Param`.
    Param(Param),
    /// `C = A @ B`.
    MatMul(usize, usize),
    /// `C = A @ B^T`.
    MatMulT(usize, usize),
    /// Elementwise sum of same-shape matrices.
    Add(usize, usize),
    /// `[n×d] + [1×d]` broadcast add (bias).
    AddRow(usize, usize),
    /// Elementwise product.
    Mul(usize, usize),
    /// Scalar scale.
    Scale(usize, f32),
    /// tanh.
    Tanh(usize),
    /// Logistic sigmoid.
    Sigmoid(usize),
    /// max(0, x).
    Relu(usize),
    /// Horizontal concatenation.
    ConcatCols(Vec<usize>),
    /// Column slice `[start, start+len)`.
    SliceCols(usize, usize),
    /// Output row i = input row idx[i].
    GatherRows(usize, Vec<u32>),
    /// Output row s = mean of input rows with seg[i] == s (empty: zero).
    SegmentMean(usize, Vec<u32>, Vec<f32>),
    /// Sum of all entries, 1x1.
    SumAll(usize),
    /// Row-wise softmax.
    RowSoftmax(usize),
    /// Σ_i a_i·logσ(z_i) + (1-a_i)·log(1-σ(z_i)) over a column vector of
    /// logits; 1x1 output.
    BernoulliLogProb(usize, Vec<f32>),
    /// Σ_i log softmax(z_i)[a_i] over rows of logits; 1x1 output.
    CategoricalLogProb(usize, Vec<u32>),
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// A gradient tape. Build with forward ops, differentiate with
/// [`Tape::backward`].
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of a node after `backward` (None if it never received one).
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Constant input.
    pub fn input(&mut self, m: Matrix) -> Var {
        self.push(m, Op::Leaf)
    }

    /// Trainable parameter (gradient accumulates into `p`).
    pub fn param(&mut self, p: &Param) -> Var {
        let value = p.value();
        self.push(value, Op::Param(p.clone()))
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(v, Op::MatMul(a.0, b.0))
    }

    /// `a @ b^T`.
    pub fn matmul_t(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul_t(&self.nodes[b.0].value);
        self.push(v, Op::MatMulT(a.0, b.0))
    }

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (ma, mb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!((ma.rows, ma.cols), (mb.rows, mb.cols), "add shape mismatch");
        let mut v = ma.clone();
        v.add_assign(mb);
        self.push(v, Op::Add(a.0, b.0))
    }

    /// `[n×d] + [1×d]` broadcast (bias add).
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let (ma, mb) = (&self.nodes[a.0].value, &self.nodes[bias.0].value);
        assert_eq!(mb.rows, 1, "bias must be a row vector");
        assert_eq!(ma.cols, mb.cols, "bias width mismatch");
        let mut v = ma.clone();
        for r in 0..v.rows {
            for c in 0..v.cols {
                v.data[r * v.cols + c] += mb.data[c];
            }
        }
        self.push(v, Op::AddRow(a.0, bias.0))
    }

    /// Elementwise `a * b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (ma, mb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!((ma.rows, ma.cols), (mb.rows, mb.cols), "mul shape mismatch");
        let data = ma.data.iter().zip(&mb.data).map(|(&x, &y)| x * y).collect();
        let v = Matrix::from_vec(ma.rows, ma.cols, data);
        self.push(v, Op::Mul(a.0, b.0))
    }

    /// `a * s` for scalar `s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let mut v = self.nodes[a.0].value.clone();
        v.scale_assign(s);
        self.push(v, Op::Scale(a.0, s))
    }

    /// Elementwise tanh (the same kernel as `Matrix::tanh_assign`).
    pub fn tanh(&mut self, a: Var) -> Var {
        let mut v = self.nodes[a.0].value.clone();
        v.tanh_assign();
        self.push(v, Op::Tanh(a.0))
    }

    /// Elementwise sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let m = &self.nodes[a.0].value;
        let data = m.data.iter().map(|&x| sigmoid(x)).collect();
        let v = Matrix::from_vec(m.rows, m.cols, data);
        self.push(v, Op::Sigmoid(a.0))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let m = &self.nodes[a.0].value;
        let data = m.data.iter().map(|&x| x.max(0.0)).collect();
        let v = Matrix::from_vec(m.rows, m.cols, data);
        self.push(v, Op::Relu(a.0))
    }

    /// Concatenate matrices horizontally (equal row counts).
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty());
        let rows = self.nodes[parts[0].0].value.rows;
        let total: usize = parts.iter().map(|p| self.nodes[p.0].value.cols).sum();
        let mut v = Matrix::zeros(rows, total);
        let mut off = 0usize;
        for p in parts {
            let m = &self.nodes[p.0].value;
            assert_eq!(m.rows, rows, "concat_cols row mismatch");
            for r in 0..rows {
                v.data[r * total + off..r * total + off + m.cols].copy_from_slice(m.row(r));
            }
            off += m.cols;
        }
        self.push(v, Op::ConcatCols(parts.iter().map(|p| p.0).collect()))
    }

    /// Columns `[start, start+len)` of `a`.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let m = &self.nodes[a.0].value;
        assert!(start + len <= m.cols, "slice out of range");
        let mut v = Matrix::zeros(m.rows, len);
        for r in 0..m.rows {
            v.row_mut(r).copy_from_slice(&m.row(r)[start..start + len]);
        }
        self.push(v, Op::SliceCols(a.0, start))
    }

    /// Output row `i` = input row `idx[i]` (rows may repeat).
    pub fn gather_rows(&mut self, a: Var, idx: &[u32]) -> Var {
        let m = &self.nodes[a.0].value;
        let mut v = Matrix::zeros(idx.len(), m.cols);
        for (i, &r) in idx.iter().enumerate() {
            v.row_mut(i).copy_from_slice(m.row(r as usize));
        }
        self.push(v, Op::GatherRows(a.0, idx.to_vec()))
    }

    /// Segment mean: output row `s` is the mean of input rows `i` with
    /// `seg[i] == s`; segments with no members produce a zero row.
    pub fn segment_mean(&mut self, a: Var, seg: &[u32], num_segments: usize) -> Var {
        let m = &self.nodes[a.0].value;
        assert_eq!(seg.len(), m.rows, "one segment id per row");
        let mut counts = vec![0.0f32; num_segments];
        for &s in seg {
            counts[s as usize] += 1.0;
        }
        let mut v = Matrix::zeros(num_segments, m.cols);
        for (i, &s) in seg.iter().enumerate() {
            let row = m.row(i);
            let out = v.row_mut(s as usize);
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        for (s, &c) in counts.iter().enumerate() {
            if c > 0.0 {
                for x in v.row_mut(s) {
                    *x /= c;
                }
            }
        }
        self.push(v, Op::SegmentMean(a.0, seg.to_vec(), counts))
    }

    /// Sum of all entries (1x1).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s: f32 = self.nodes[a.0].value.data.iter().sum();
        self.push(Matrix::scalar(s), Op::SumAll(a.0))
    }

    /// Row-wise softmax.
    pub fn row_softmax(&mut self, a: Var) -> Var {
        let m = &self.nodes[a.0].value;
        let mut v = Matrix::zeros(m.rows, m.cols);
        for r in 0..m.rows {
            let row = m.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (o, &x) in v.row_mut(r).iter_mut().zip(row) {
                *o = (x - max).exp();
                denom += *o;
            }
            for o in v.row_mut(r) {
                *o /= denom;
            }
        }
        self.push(v, Op::RowSoftmax(a.0))
    }

    /// Log-likelihood of Bernoulli `actions` (0.0/1.0) under a column of
    /// `logits`: `Σ a·logσ(z) + (1-a)·log(1-σ(z))`, numerically stable.
    pub fn bernoulli_log_prob(&mut self, logits: Var, actions: &[f32]) -> Var {
        let m = &self.nodes[logits.0].value;
        assert_eq!(m.cols, 1, "logits must be a column vector");
        assert_eq!(m.rows, actions.len(), "one action per logit");
        let mut ll = 0.0f64;
        for (&z, &a) in m.data.iter().zip(actions) {
            // a·logσ(z) + (1-a)·log(1-σ(z)) = a·z - softplus(z)
            ll += (a as f64) * (z as f64) - softplus(z as f64);
        }
        self.push(
            Matrix::scalar(ll as f32),
            Op::BernoulliLogProb(logits.0, actions.to_vec()),
        )
    }

    /// Log-likelihood of categorical `actions` under rows of `logits`:
    /// `Σ_i log softmax(z_i)[a_i]`.
    pub fn categorical_log_prob(&mut self, logits: Var, actions: &[u32]) -> Var {
        let m = &self.nodes[logits.0].value;
        assert_eq!(m.rows, actions.len(), "one action per row");
        let mut ll = 0.0f64;
        for (r, &a) in actions.iter().enumerate() {
            let row = m.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
            let lse: f64 = max
                + row
                    .iter()
                    .map(|&x| ((x as f64) - max).exp())
                    .sum::<f64>()
                    .ln();
            ll += row[a as usize] as f64 - lse;
        }
        self.push(
            Matrix::scalar(ll as f32),
            Op::CategoricalLogProb(logits.0, actions.to_vec()),
        )
    }

    fn accumulate(&mut self, idx: usize, g: Matrix) {
        match &mut self.nodes[idx].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Run reverse-mode accumulation from `loss` (must be 1x1) with seed
    /// gradient 1. Parameter gradients accumulate into their `Param`s.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            (self.nodes[loss.0].value.rows, self.nodes[loss.0].value.cols),
            (1, 1),
            "backward seed must be scalar"
        );
        self.nodes[loss.0].grad = Some(Matrix::scalar(1.0));

        for i in (0..self.nodes.len()).rev() {
            let Some(g) = self.nodes[i].grad.take() else {
                continue;
            };
            // Re-insert so callers can inspect grads afterwards.
            self.nodes[i].grad = Some(g.clone());

            // Split borrows: clone small things we need from the node.
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::Param(p) => {
                    p.0.borrow_mut().grad.add_assign(&g);
                }
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    let da = g.matmul_t(&self.nodes[b].value);
                    let db = self.nodes[a].value.t_matmul(&g);
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::MatMulT(a, b) => {
                    let (a, b) = (*a, *b);
                    let da = g.matmul(&self.nodes[b].value);
                    let db = g.t_matmul(&self.nodes[a].value);
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate(a, g.clone());
                    self.accumulate(b, g);
                }
                Op::AddRow(a, bias) => {
                    let (a, bias) = (*a, *bias);
                    let mut db = Matrix::zeros(1, g.cols);
                    for r in 0..g.rows {
                        for c in 0..g.cols {
                            db.data[c] += g.data[r * g.cols + c];
                        }
                    }
                    self.accumulate(a, g);
                    self.accumulate(bias, db);
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    let da = {
                        let mb = &self.nodes[b].value;
                        let data = g.data.iter().zip(&mb.data).map(|(&x, &y)| x * y).collect();
                        Matrix::from_vec(g.rows, g.cols, data)
                    };
                    let db = {
                        let ma = &self.nodes[a].value;
                        let data = g.data.iter().zip(&ma.data).map(|(&x, &y)| x * y).collect();
                        Matrix::from_vec(g.rows, g.cols, data)
                    };
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::Scale(a, s) => {
                    let (a, s) = (*a, *s);
                    let mut da = g;
                    da.scale_assign(s);
                    self.accumulate(a, da);
                }
                Op::Tanh(a) => {
                    let a = *a;
                    let y = &self.nodes[i].value;
                    let data = g
                        .data
                        .iter()
                        .zip(&y.data)
                        .map(|(&gg, &yy)| gg * (1.0 - yy * yy))
                        .collect();
                    let da = Matrix::from_vec(g.rows, g.cols, data);
                    self.accumulate(a, da);
                }
                Op::Sigmoid(a) => {
                    let a = *a;
                    let y = &self.nodes[i].value;
                    let data = g
                        .data
                        .iter()
                        .zip(&y.data)
                        .map(|(&gg, &yy)| gg * yy * (1.0 - yy))
                        .collect();
                    let da = Matrix::from_vec(g.rows, g.cols, data);
                    self.accumulate(a, da);
                }
                Op::Relu(a) => {
                    let a = *a;
                    let y = &self.nodes[i].value;
                    let data = g
                        .data
                        .iter()
                        .zip(&y.data)
                        .map(|(&gg, &yy)| if yy > 0.0 { gg } else { 0.0 })
                        .collect();
                    let da = Matrix::from_vec(g.rows, g.cols, data);
                    self.accumulate(a, da);
                }
                Op::ConcatCols(parts) => {
                    let parts = parts.clone();
                    let mut off = 0usize;
                    for p in parts {
                        let cols = self.nodes[p].value.cols;
                        let mut dp = Matrix::zeros(g.rows, cols);
                        for r in 0..g.rows {
                            dp.row_mut(r).copy_from_slice(&g.row(r)[off..off + cols]);
                        }
                        off += cols;
                        self.accumulate(p, dp);
                    }
                }
                Op::SliceCols(a, start) => {
                    let (a, start) = (*a, *start);
                    let src_cols = self.nodes[a].value.cols;
                    let mut da = Matrix::zeros(g.rows, src_cols);
                    for r in 0..g.rows {
                        da.row_mut(r)[start..start + g.cols].copy_from_slice(g.row(r));
                    }
                    self.accumulate(a, da);
                }
                Op::GatherRows(a, idx) => {
                    let a = *a;
                    let idx = idx.clone();
                    let src_rows = self.nodes[a].value.rows;
                    let mut da = Matrix::zeros(src_rows, g.cols);
                    for (i2, &r) in idx.iter().enumerate() {
                        let dst = da.row_mut(r as usize);
                        for (o, &x) in dst.iter_mut().zip(g.row(i2)) {
                            *o += x;
                        }
                    }
                    self.accumulate(a, da);
                }
                Op::SegmentMean(a, seg, counts) => {
                    let a = *a;
                    let (seg, counts) = (seg.clone(), counts.clone());
                    let src_rows = self.nodes[a].value.rows;
                    let mut da = Matrix::zeros(src_rows, g.cols);
                    for (i2, &s) in seg.iter().enumerate() {
                        let c = counts[s as usize];
                        if c == 0.0 {
                            continue;
                        }
                        let grow = g.row(s as usize);
                        let drow = da.row_mut(i2);
                        for (o, &x) in drow.iter_mut().zip(grow) {
                            *o += x / c;
                        }
                    }
                    self.accumulate(a, da);
                }
                Op::SumAll(a) => {
                    let a = *a;
                    let (r, c) = (self.nodes[a].value.rows, self.nodes[a].value.cols);
                    let da = Matrix::from_vec(r, c, vec![g.item(); r * c]);
                    self.accumulate(a, da);
                }
                Op::RowSoftmax(a) => {
                    let a = *a;
                    let y = self.nodes[i].value.clone();
                    let mut da = Matrix::zeros(g.rows, g.cols);
                    for r in 0..g.rows {
                        let dot: f32 = g
                            .row(r)
                            .iter()
                            .zip(y.row(r))
                            .map(|(&gg, &yy)| gg * yy)
                            .sum();
                        for c in 0..g.cols {
                            da.data[r * g.cols + c] = (g.get(r, c) - dot) * y.get(r, c);
                        }
                    }
                    self.accumulate(a, da);
                }
                Op::BernoulliLogProb(a, actions) => {
                    let a = *a;
                    let actions = actions.clone();
                    let z = &self.nodes[a].value;
                    let gi = g.item();
                    let data = z
                        .data
                        .iter()
                        .zip(&actions)
                        .map(|(&zz, &aa)| gi * (aa - sigmoid(zz)))
                        .collect();
                    let da = Matrix::from_vec(z.rows, 1, data);
                    self.accumulate(a, da);
                }
                Op::CategoricalLogProb(a, actions) => {
                    let a = *a;
                    let actions = actions.clone();
                    let z = self.nodes[a].value.clone();
                    let gi = g.item();
                    let mut da = Matrix::zeros(z.rows, z.cols);
                    for (r, &act) in actions.iter().enumerate() {
                        let row = z.row(r);
                        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                        let denom: f32 = row.iter().map(|&x| (x - max).exp()).sum();
                        for c in 0..z.cols {
                            let p = (z.get(r, c) - max).exp() / denom;
                            let onehot = if c as u32 == act { 1.0 } else { 0.0 };
                            da.set(r, c, gi * (onehot - p));
                        }
                    }
                    self.accumulate(a, da);
                }
            }
        }
    }
}

use crate::matrix::stable_sigmoid as sigmoid;

#[inline]
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else {
        (1.0 + x.exp()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    /// Finite-difference check: perturb each entry of `p`, recompute the
    /// scalar loss with `f`, compare to the recorded gradient.
    fn grad_check<F: Fn(&mut Tape) -> Var>(p: &Param, f: F, tol: f32) {
        p.zero_grad();
        let mut tape = Tape::new();
        let loss = f(&mut tape);
        tape.backward(loss);
        let analytic = p.0.borrow().grad.clone();

        let eps = 1e-3f32;
        let base = p.value();
        for i in 0..base.data.len() {
            let mut up = base.clone();
            up.data[i] += eps;
            p.set_value(up);
            let mut t1 = Tape::new();
            let l1 = f(&mut t1);
            let f1 = t1.value(l1).item();

            let mut down = base.clone();
            down.data[i] -= eps;
            p.set_value(down);
            let mut t2 = Tape::new();
            let l2 = f(&mut t2);
            let f2 = t2.value(l2).item();

            p.set_value(base.clone());
            let numeric = (f1 - f2) / (2.0 * eps);
            let a = analytic.data[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad[{i}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn matmul_grad() {
        let p = Param::new(Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]));
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, -1.0, 0.5]);
        grad_check(
            &p,
            |t| {
                let xv = t.input(x.clone());
                let pv = t.param(&p);
                let y = t.matmul(xv, pv);
                let y = t.tanh(y);
                t.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn matmul_t_grad() {
        let p = Param::new(Matrix::from_vec(3, 2, vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]));
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, -1.0, 0.5]);
        grad_check(
            &p,
            |t| {
                let xv = t.input(x.clone());
                let pv = t.param(&p);
                let y = t.matmul_t(xv, pv);
                let y = t.sigmoid(y);
                t.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn add_row_and_mul_grad() {
        let p = Param::new(Matrix::from_vec(1, 3, vec![0.5, -0.5, 0.25]));
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        grad_check(
            &p,
            |t| {
                let xv = t.input(x.clone());
                let pv = t.param(&p);
                let y = t.add_row(xv, pv);
                let y2 = t.mul(y, y);
                t.sum_all(y2)
            },
            1e-2,
        );
    }

    #[test]
    fn concat_slice_relu_grad() {
        let p = Param::new(Matrix::from_vec(2, 2, vec![0.3, -0.7, 0.2, 0.9]));
        grad_check(
            &p,
            |t| {
                let pv = t.param(&p);
                let both = t.concat_cols(&[pv, pv]);
                let sl = t.slice_cols(both, 1, 2);
                let r = t.relu(sl);
                t.sum_all(r)
            },
            1e-2,
        );
    }

    #[test]
    fn gather_segment_grad() {
        let p = Param::new(Matrix::from_vec(3, 2, vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6]));
        let idx = vec![0u32, 2, 1, 0];
        let seg = vec![0u32, 1, 1, 0];
        grad_check(
            &p,
            |t| {
                let pv = t.param(&p);
                let gathered = t.gather_rows(pv, &idx);
                let pooled = t.segment_mean(gathered, &seg, 3); // seg 2 empty
                let th = t.tanh(pooled);
                t.sum_all(th)
            },
            1e-2,
        );
    }

    #[test]
    fn bernoulli_log_prob_grad() {
        let p = Param::new(Matrix::from_vec(4, 1, vec![0.5, -1.0, 2.0, 0.0]));
        let actions = vec![1.0f32, 0.0, 1.0, 0.0];
        grad_check(
            &p,
            |t| {
                let z = t.param(&p);
                t.bernoulli_log_prob(z, &actions)
            },
            1e-2,
        );
    }

    #[test]
    fn bernoulli_log_prob_value() {
        let mut t = Tape::new();
        let z = t.input(Matrix::from_vec(2, 1, vec![0.0, 0.0]));
        let ll = t.bernoulli_log_prob(z, &[1.0, 0.0]);
        // log 0.5 + log 0.5
        assert!((t.value(ll).item() - (0.5f32.ln() * 2.0)).abs() < 1e-6);
    }

    #[test]
    fn categorical_log_prob_grad() {
        let p = Param::new(Matrix::from_vec(2, 3, vec![0.5, -1.0, 0.3, 2.0, 0.1, -0.2]));
        let actions = vec![2u32, 0];
        grad_check(
            &p,
            |t| {
                let z = t.param(&p);
                t.categorical_log_prob(z, &actions)
            },
            1e-2,
        );
    }

    #[test]
    fn categorical_log_prob_value() {
        let mut t = Tape::new();
        let z = t.input(Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        let ll = t.categorical_log_prob(z, &[1]);
        assert!((t.value(ll).item() - 0.5f32.ln()).abs() < 1e-6);
    }

    #[test]
    fn row_softmax_grad() {
        let p = Param::new(Matrix::from_vec(2, 3, vec![0.5, -1.0, 0.3, 2.0, 0.1, -0.2]));
        let w = Matrix::from_vec(3, 1, vec![1.0, -2.0, 0.5]);
        grad_check(
            &p,
            |t| {
                let z = t.param(&p);
                let sm = t.row_softmax(z);
                let wv = t.input(w.clone());
                let y = t.matmul(sm, wv);
                t.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn row_softmax_rows_sum_to_one() {
        let mut t = Tape::new();
        let z = t.input(Matrix::from_vec(2, 3, vec![5.0, 1.0, -3.0, 0.0, 0.0, 0.0]));
        let sm = t.row_softmax(z);
        for r in 0..2 {
            let s: f32 = t.value(sm).row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn grad_accumulates_on_reuse() {
        // Using the same param twice must double its gradient.
        let p = Param::new(Matrix::scalar(3.0));
        p.zero_grad();
        let mut t = Tape::new();
        let a = t.param(&p);
        let b = t.param(&p);
        let s = t.add(a, b);
        let loss = t.sum_all(s);
        t.backward(loss);
        assert_eq!(p.0.borrow().grad.item(), 2.0);
    }

    #[test]
    fn scale_grad() {
        let p = Param::new(Matrix::scalar(2.0));
        grad_check(
            &p,
            |t| {
                let a = t.param(&p);
                let b = t.scale(a, -3.5);
                t.sum_all(b)
            },
            1e-3,
        );
    }

    #[test]
    fn deep_chain_grad() {
        // GNN-like composition: two rounds of gather + segment mean + matmul.
        let p = Param::new(Matrix::from_vec(2, 2, vec![0.2, -0.1, 0.3, 0.05]));
        let x = Matrix::from_vec(3, 2, vec![1.0, 0.5, -0.5, 1.5, 0.7, -0.2]);
        let idx = vec![0u32, 1, 2, 0];
        let seg = vec![1u32, 2, 0, 2];
        grad_check(
            &p,
            |t| {
                let xv = t.input(x.clone());
                let w = t.param(&p);
                let mut h = xv;
                for _ in 0..2 {
                    let msgs = t.gather_rows(h, &idx);
                    let msgs = t.matmul(msgs, w);
                    let msgs = t.tanh(msgs);
                    let pooled = t.segment_mean(msgs, &seg, 3);
                    h = t.add(h, pooled);
                }
                t.sum_all(h)
            },
            2e-2,
        );
    }
}
