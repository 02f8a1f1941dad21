//! Layers built on the tape: `Linear`, `Mlp`, and an `LstmCell` (used by
//! the Graph-enc-dec baseline's sequential device decoder). `Linear` and
//! `Mlp` also have the tape-free forwards that inference runs.

use crate::init::xavier;
use crate::matrix::Matrix;
use crate::param::{Param, ParamSet};
use crate::scratch::InferenceScratch;
use crate::tape::{Tape, Var};
use rand::Rng;

/// Fully connected layer `y = x @ W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight `[in x out]`.
    pub w: Param,
    /// Bias `[1 x out]`.
    pub b: Param,
}

impl Linear {
    /// Xavier-initialised layer registered into `set`.
    pub fn new<R: Rng>(input: usize, output: usize, set: &mut ParamSet, rng: &mut R) -> Self {
        let w = set.register(Param::new(xavier(input, output, rng)));
        let b = set.register(Param::new(Matrix::zeros(1, output)));
        Self { w, b }
    }

    /// Forward pass.
    pub fn forward(&self, t: &mut Tape, x: Var) -> Var {
        let w = t.param(&self.w);
        let b = t.param(&self.b);
        let y = t.matmul(x, w);
        t.add_row(y, b)
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.w.shape().1
    }

    /// Tape-free forward into a preallocated `out` (`x.rows x
    /// output_dim`). Reads the weights in place — no parameter clone, no
    /// tape node — and produces bitwise-identical values to
    /// [`Linear::forward`].
    pub fn forward_infer(&self, x: &Matrix, out: &mut Matrix) {
        let w = self.w.0.borrow();
        let b = self.b.0.borrow();
        x.matmul_into(&w.value, out);
        out.add_row_assign(&b.value);
    }

    /// [`Self::forward_infer`] over the rows `[nodes[idx[i]] : tail[i]]`,
    /// into `out` (`idx.len() x output_dim`). Projects every node row
    /// once through the weight rows that face the node columns, then
    /// continues each gathered row's chains over the tail columns from
    /// its node's projection ([`Matrix::matmul_gathered_into`]) and adds
    /// the bias last: the same chain of roundings as the concatenated
    /// row would take through [`Self::forward_infer`].
    pub fn forward_gathered(
        &self,
        nodes: &Matrix,
        idx: &[u32],
        tail: &Matrix,
        scratch: &mut InferenceScratch,
        out: &mut Matrix,
    ) {
        let w = self.w.0.borrow();
        let b = self.b.0.borrow();
        assert_eq!(
            nodes.cols + tail.cols,
            w.value.rows,
            "gathered width mismatch"
        );
        let mut proj = scratch.take(nodes.rows, w.value.cols);
        nodes.matmul_rows_into(&w.value, 0, &mut proj);
        tail.matmul_gathered_into(&w.value, nodes.cols, &proj, idx, out);
        scratch.put(proj);
        out.add_row_assign(&b.value);
    }
}

/// Activation selector for [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent (paper's default).
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    fn apply(self, t: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Tanh => t.tanh(x),
            Activation::Relu => t.relu(x),
            Activation::Sigmoid => t.sigmoid(x),
        }
    }
}

/// Multi-layer perceptron: hidden layers with activation, linear output.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// MLP with dims `[in, h1, ..., out]`.
    pub fn new<R: Rng>(
        dims: &[usize],
        activation: Activation,
        set: &mut ParamSet,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], set, rng))
            .collect();
        Self { layers, activation }
    }

    /// Forward: activation after every layer except the last.
    pub fn forward(&self, t: &mut Tape, mut x: Var) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(t, x);
            if i != last {
                x = self.activation.apply(t, x);
            }
        }
        x
    }

    /// Tape-free forward; intermediates ping-pong through `scratch`,
    /// bitwise identical to [`Mlp::forward`]. The returned matrix comes
    /// from the arena — `put` it back when done.
    pub fn forward_infer(&self, x: &Matrix, scratch: &mut InferenceScratch) -> Matrix {
        let mut out = scratch.take(x.rows, self.layers[0].output_dim());
        self.layers[0].forward_infer(x, &mut out);
        self.forward_rest(out, scratch)
    }

    /// [`Self::forward_infer`] over the rows `[nodes[idx[i]] : tail[i]]`:
    /// the first layer takes them through [`Linear::forward_gathered`].
    pub fn forward_gathered_infer(
        &self,
        nodes: &Matrix,
        idx: &[u32],
        tail: &Matrix,
        scratch: &mut InferenceScratch,
    ) -> Matrix {
        let mut out = scratch.take(idx.len(), self.layers[0].output_dim());
        self.layers[0].forward_gathered(nodes, idx, tail, scratch, &mut out);
        self.forward_rest(out, scratch)
    }

    /// Everything after the first layer's affine map, given its output.
    fn forward_rest(&self, mut cur: Matrix, scratch: &mut InferenceScratch) -> Matrix {
        for layer in &self.layers[1..] {
            self.activate(&mut cur);
            let mut out = scratch.take(cur.rows, layer.output_dim());
            layer.forward_infer(&cur, &mut out);
            scratch.put(cur);
            cur = out;
        }
        cur
    }

    /// The hidden-layer activation, in place.
    fn activate(&self, m: &mut Matrix) {
        match self.activation {
            Activation::Tanh => m.tanh_assign(),
            Activation::Relu => m.relu_assign(),
            Activation::Sigmoid => m.sigmoid_assign(),
        }
    }
}

/// A single-layer LSTM cell.
#[derive(Debug, Clone)]
pub struct LstmCell {
    wx: Param,
    wh: Param,
    b: Param,
    hidden: usize,
}

impl LstmCell {
    /// Cell with `input`-wide inputs and `hidden`-wide state.
    pub fn new<R: Rng>(input: usize, hidden: usize, set: &mut ParamSet, rng: &mut R) -> Self {
        let wx = set.register(Param::new(xavier(input, 4 * hidden, rng)));
        let wh = set.register(Param::new(xavier(hidden, 4 * hidden, rng)));
        let b = set.register(Param::new(Matrix::zeros(1, 4 * hidden)));
        Self { wx, wh, b, hidden }
    }

    /// Zero state `(h, c)` for a batch of `rows`.
    pub fn zero_state(&self, t: &mut Tape, rows: usize) -> (Var, Var) {
        let h = t.input(Matrix::zeros(rows, self.hidden));
        let c = t.input(Matrix::zeros(rows, self.hidden));
        (h, c)
    }

    /// One step: gates in i,f,g,o order.
    pub fn step(&self, t: &mut Tape, x: Var, h: Var, c: Var) -> (Var, Var) {
        let wx = t.param(&self.wx);
        let wh = t.param(&self.wh);
        let b = t.param(&self.b);
        let zx = t.matmul(x, wx);
        let zh = t.matmul(h, wh);
        let z = t.add(zx, zh);
        let z = t.add_row(z, b);
        let hd = self.hidden;
        let zi = t.slice_cols(z, 0, hd);
        let zf = t.slice_cols(z, hd, hd);
        let zg = t.slice_cols(z, 2 * hd, hd);
        let zo = t.slice_cols(z, 3 * hd, hd);
        let i = t.sigmoid(zi);
        let f = t.sigmoid(zf);
        let g = t.tanh(zg);
        let o = t.sigmoid(zo);
        let fc = t.mul(f, c);
        let ig = t.mul(i, g);
        let c2 = t.add(fc, ig);
        let tc = t.tanh(c2);
        let h2 = t.mul(o, tc);
        (h2, c2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_shapes() {
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let l = Linear::new(4, 3, &mut set, &mut rng);
        assert_eq!(l.output_dim(), 3);
        let mut t = Tape::new();
        let x = t.input(Matrix::zeros(5, 4));
        let y = l.forward(&mut t, x);
        assert_eq!((t.value(y).rows, t.value(y).cols), (5, 3));
    }

    #[test]
    fn mlp_learns_xor() {
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, &mut set, &mut rng);
        let xs = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let ys = [0.0f32, 1.0, 1.0, 0.0];
        let mut adam = Adam::new(0.05);
        let mut last_loss = f32::INFINITY;
        for _ in 0..400 {
            let mut t = Tape::new();
            let x = t.input(xs.clone());
            let out = mlp.forward(&mut t, x); // [4x1] logits
            let probs = t.sigmoid(out);
            let target = t.input(Matrix::from_vec(4, 1, ys.to_vec()));
            let neg = t.scale(target, -1.0);
            let diff = t.add(probs, neg);
            let sq = t.mul(diff, diff);
            let loss = t.sum_all(sq);
            last_loss = t.value(loss).item();
            t.backward(loss);
            adam.step(&set);
        }
        assert!(last_loss < 0.05, "xor loss = {last_loss}");
    }

    #[test]
    fn lstm_step_shapes_and_state_evolution() {
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let cell = LstmCell::new(3, 5, &mut set, &mut rng);
        let mut t = Tape::new();
        let (h0, c0) = cell.zero_state(&mut t, 1);
        let x = t.input(Matrix::from_vec(1, 3, vec![1.0, -1.0, 0.5]));
        let (h1, c1) = cell.step(&mut t, x, h0, c0);
        assert_eq!((t.value(h1).rows, t.value(h1).cols), (1, 5));
        assert_eq!((t.value(c1).rows, t.value(c1).cols), (1, 5));
        // Non-zero input should move the state off zero.
        assert!(t.value(h1).norm() > 0.0);
    }

    #[test]
    fn lstm_gradients_flow_through_time() {
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let cell = LstmCell::new(2, 4, &mut set, &mut rng);
        set.zero_grad();
        let mut t = Tape::new();
        let (mut h, mut c) = cell.zero_state(&mut t, 1);
        for i in 0..3 {
            let x = t.input(Matrix::from_vec(1, 2, vec![i as f32, 1.0]));
            let (h2, c2) = cell.step(&mut t, x, h, c);
            h = h2;
            c = c2;
        }
        let loss = t.sum_all(h);
        t.backward(loss);
        // All three weight tensors must receive gradient.
        for p in set.params() {
            assert!(p.0.borrow().grad.norm() > 0.0, "parameter got no gradient");
        }
    }
}
