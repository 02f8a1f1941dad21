//! Dense row-major `f32` matrices and the vectorized matmul kernel.
//!
//! # Kernel determinism policy
//!
//! `matmul`, `t_matmul` and `matmul_t` run one GEMM kernel, and every
//! tier of it is bitwise identical to the naive reference loop: each
//! output element starts at +0.0 and adds its `k` terms in ascending
//! inner index, rounding one `mul` and one `add` per term. SIMD still
//! pays because vector lanes hold *different* output elements —
//! broadcasting `a[i][kk]` against a row panel of `b` leaves every
//! element's own chain untouched — so there is no FMA contraction, no
//! split partial sum and no horizontal reduction anywhere.
//!
//! The kernel reads its left operand through strides, element `(i, kk)`
//! at `a[i*rs + kk*cs]`: `matmul` passes `(k, 1)` and `t_matmul`
//! `(1, n)`. `matmul_t` copies its right operand transposed and runs
//! `matmul`, so its lanes too hold different output elements instead of
//! one dot product's terms.
//!
//! [`Matrix::matmul_gathered_into`] runs the same kernel with a different
//! start: output row `i`'s chains begin at row `idx[i]` of an `init`
//! matrix instead of +0.0. Splitting a product's inner dimension, running
//! the first part as a plain product and passing its rows as `init` to
//! the second, therefore reproduces the unsplit product's bits; the
//! tape-free forward uses this to project each node once instead of once
//! per gathered row.
//!
//! Dispatch picks the widest instruction set at runtime
//! (`is_x86_feature_detected!`, cached): the register-blocked AVX2
//! kernel, an SSE2 panel kernel, or a portable 8-wide unrolled loop. See
//! DESIGN.md § "f32 kernels" for how to add a kernel without breaking
//! the contract.

use serde::{Deserialize, Serialize};

/// Numerically stable logistic function, shared by the tape ops and the
/// tape-free inference path so both produce identical bits.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major data, `rows * cols` entries.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// 1x1 matrix.
    pub fn scalar(x: f32) -> Self {
        Self::from_vec(1, 1, vec![x])
    }

    /// The single element of a 1x1 matrix.
    pub fn item(&self) -> f32 {
        assert_eq!((self.rows, self.cols), (1, 1), "item() requires 1x1");
        self.data[0]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, x: f32) {
        self.data[r * self.cols + c] = x;
    }

    /// `self @ other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self @ other` into a preallocated `out`, which is overwritten.
    /// The workhorse of the tape-free inference path — no allocation when
    /// `out` comes from a scratch arena.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        self.matmul_rows_into(other, 0, out);
    }

    /// `self @ other[first..first + self.cols]` into `out`: the product
    /// with a band of `other`'s rows, read in place.
    pub(crate) fn matmul_rows_into(&self, other: &Matrix, first: usize, out: &mut Matrix) {
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let b = other.row_band(first, k);
        assert_eq!((out.rows, out.cols), (n, m), "matmul out shape mismatch");
        gemm(&self.data, (k, 1), b, &mut out.data, n, k, m, Start::Zero);
    }

    /// `out[i] = init[idx[i]] + self[i] @ other[first..first + self.cols]`:
    /// each element's chain starts at its gathered `init` value instead of
    /// +0.0, then adds its `self.cols` terms in ascending order. So with
    /// `init = x @ other[..first]`, row `i` gets the bits `matmul_into`
    /// gives the concatenated row `[x[idx[i]] : self[i]]`.
    pub fn matmul_gathered_into(
        &self,
        other: &Matrix,
        first: usize,
        init: &Matrix,
        idx: &[u32],
        out: &mut Matrix,
    ) {
        // SAFETY: `widest` returns a tier this CPU runs.
        unsafe { self.matmul_gathered_on(widest(), other, first, init, idx, out) }
    }

    /// [`Self::matmul_gathered_into`] on `tier`.
    ///
    /// # Safety
    /// The CPU must run `tier`.
    unsafe fn matmul_gathered_on(
        &self,
        tier: Tier,
        other: &Matrix,
        first: usize,
        init: &Matrix,
        idx: &[u32],
        out: &mut Matrix,
    ) {
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let b = other.row_band(first, k);
        assert_eq!((out.rows, out.cols), (n, m), "matmul out shape mismatch");
        assert_eq!(init.cols, m, "gathered init width mismatch");
        assert_eq!(idx.len(), n, "one init row index per output row");
        let start = Start::Rows(&init.data, idx);
        gemm_on(tier, &self.data, (k, 1), b, &mut out.data, n, k, m, start);
    }

    /// Rows `first..first + count` as one row-major slice.
    fn row_band(&self, first: usize, count: usize) -> &[f32] {
        assert!(first + count <= self.rows, "matmul shape mismatch");
        &self.data[first * self.cols..(first + count) * self.cols]
    }

    /// `self^T @ other` without materialising the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(n, m);
        gemm(
            &self.data,
            (1, n),
            &other.data,
            &mut out.data,
            n,
            k,
            m,
            Start::Zero,
        );
        out
    }

    /// `self @ other^T`, as `self @ t` for a transposed copy `t` of
    /// `other`. In backward `other` is the weight-sized operand, so the
    /// copy is small next to the product.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let mut t = Matrix::zeros(other.cols, other.rows);
        for r in 0..other.rows {
            for c in 0..other.cols {
                t.data[c * other.rows + r] = other.data[r * other.cols + c];
            }
        }
        self.matmul(&t)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place broadcast add of a `1 x cols` bias row to every row.
    /// Same element order as `Tape::add_row`, so bitwise identical.
    pub fn add_row_assign(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "add_row_assign needs a 1-row bias");
        assert_eq!(self.cols, bias.cols, "add_row_assign width mismatch");
        for r in 0..self.rows {
            for (x, &b) in self.row_mut(r).iter_mut().zip(&bias.data) {
                *x += b;
            }
        }
    }

    /// In-place elementwise tanh ([`crate::tanh::tanh_in_place`], which
    /// `Tape::tanh` also runs).
    pub fn tanh_assign(&mut self) {
        crate::tanh::tanh_in_place(&mut self.data);
    }

    /// In-place elementwise ReLU (same `max(0.0)` as `Tape::relu`).
    pub fn relu_assign(&mut self) {
        for x in &mut self.data {
            *x = x.max(0.0);
        }
    }

    /// In-place elementwise sigmoid (same two-branch formula as
    /// `Tape::sigmoid`).
    pub fn sigmoid_assign(&mut self) {
        for x in &mut self.data {
            *x = stable_sigmoid(*x);
        }
    }

    /// In-place `self *= s`.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Fill with zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

// ---- dispatch -------------------------------------------------------------

/// Where each output element's chain starts.
#[derive(Clone, Copy)]
pub(crate) enum Start<'a> {
    /// +0.0, the naive loop's start.
    Zero,
    /// Output row `i` starts from row `idx[i]` of `init`, which is
    /// row-major with the output's width.
    Rows(&'a [f32], &'a [u32]),
}

/// One tier of the GEMM: `out = start + a @ b`, overwriting `out` (`n x
/// m`), where the left operand's element `(i, kk)` is `a[i*rs + kk*cs]`
/// and `b` is row-major `k x m`. `unsafe` because a SIMD tier needs its
/// instruction set, and every tier reads and writes unchecked within the
/// bounds [`gemm_on`] asserts.
type Tier = unsafe fn(&[f32], (usize, usize), &[f32], &mut [f32], usize, usize, usize, Start<'_>);

/// The widest tier this CPU runs, the one every product dispatches to.
fn widest() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        let lvl = x86::level();
        if lvl >= x86::LVL_AVX2 {
            return x86::gemm_avx2;
        }
        if lvl >= x86::LVL_SSE2 {
            return x86::gemm_sse2;
        }
    }
    portable::gemm
}

/// Every tier this CPU runs, named, portable first and [`widest`] last.
/// Dispatch only ever runs the widest, so tests reach the others
/// through this list.
fn tiers() -> Vec<(&'static str, Tier)> {
    let mut tiers: Vec<(&'static str, Tier)> = vec![("portable", portable::gemm)];
    #[cfg(target_arch = "x86_64")]
    {
        if x86::level() >= x86::LVL_SSE2 {
            tiers.push(("sse2", x86::gemm_sse2));
        }
        if x86::level() >= x86::LVL_AVX2 {
            tiers.push(("avx2", x86::gemm_avx2));
        }
    }
    tiers
}

/// The GEMM on the widest tier; every tier is bitwise identical to the
/// naive loop started at `start`.
#[allow(clippy::too_many_arguments)]
fn gemm(
    a: &[f32],
    strides: (usize, usize),
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
    start: Start<'_>,
) {
    // SAFETY: `widest` returns a tier this CPU runs.
    unsafe { gemm_on(widest(), a, strides, b, out, n, k, m, start) }
}

/// The GEMM on `tier`, after asserting the bounds every tier reads and
/// writes within.
///
/// # Safety
/// The CPU must run `tier`: it comes from [`widest`] or [`tiers`].
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_on(
    tier: Tier,
    a: &[f32],
    (rs, cs): (usize, usize),
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
    start: Start<'_>,
) {
    assert!(n == 0 || k == 0 || (n - 1) * rs + (k - 1) * cs < a.len());
    assert!(b.len() >= k * m && out.len() >= n * m);
    if let Start::Rows(init, idx) = start {
        assert!(idx.len() >= n, "one init row index per output row");
        let rows = init.len().checked_div(m).unwrap_or(usize::MAX);
        assert!(
            idx[..n].iter().all(|&r| (r as usize) < rows),
            "init row index out of range"
        );
    }
    tier(a, (rs, cs), b, out, n, k, m, start);
}

/// One tier of [`Matrix::matmul_gathered_into`], taking its arguments
/// with `self` first.
pub type GatheredKernel = Box<dyn Fn(&Matrix, &Matrix, usize, &Matrix, &[u32], &mut Matrix)>;

/// Every tier of [`Matrix::matmul_gathered_into`] this CPU runs, named,
/// portable first. The method dispatches to the widest only, so tests
/// reach the others through this list.
pub fn gathered_tiers() -> Vec<(&'static str, GatheredKernel)> {
    tiers()
        .into_iter()
        .map(|(name, tier)| {
            let kernel: GatheredKernel = Box::new(move |a, other, first, init, idx, out| {
                // SAFETY: `tiers` lists only tiers this CPU runs.
                unsafe { a.matmul_gathered_on(tier, other, first, init, idx, out) }
            });
            (name, kernel)
        })
        .collect()
}

// ---- portable kernel ------------------------------------------------------

mod portable {
    use super::Start;

    /// Row by row: start `out` row `i` (zero or its `init` row), then one
    /// `axpy` per ascending `kk`, which is the naive loop's chain for
    /// every element of the row.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm(
        a: &[f32],
        (rs, cs): (usize, usize),
        b: &[f32],
        out: &mut [f32],
        n: usize,
        k: usize,
        m: usize,
        start: Start<'_>,
    ) {
        for i in 0..n {
            let out_row = &mut out[i * m..(i + 1) * m];
            match start {
                Start::Zero => out_row.fill(0.0),
                Start::Rows(init, idx) => {
                    let r = idx[i] as usize;
                    out_row.copy_from_slice(&init[r * m..(r + 1) * m]);
                }
            }
            for kk in 0..k {
                axpy(out_row, a[i * rs + kk * cs], &b[kk * m..(kk + 1) * m]);
            }
        }
    }

    /// `out[j] += a * b[j]`, unrolled 8-wide. Each `out[j]` receives
    /// exactly one add, so this is bitwise equivalent to the scalar loop.
    #[inline]
    fn axpy(out: &mut [f32], a: f32, b: &[f32]) {
        let n = out.len();
        let n8 = n / 8 * 8;
        let (o8, o_tail) = out.split_at_mut(n8);
        let (b8, b_tail) = b[..n].split_at(n8);
        for (oc, bc) in o8.chunks_exact_mut(8).zip(b8.chunks_exact(8)) {
            oc[0] += a * bc[0];
            oc[1] += a * bc[1];
            oc[2] += a * bc[2];
            oc[3] += a * bc[3];
            oc[4] += a * bc[4];
            oc[5] += a * bc[5];
            oc[6] += a * bc[6];
            oc[7] += a * bc[7];
        }
        for (o, &bb) in o_tail.iter_mut().zip(b_tail) {
            *o += a * bb;
        }
    }
}

// ---- x86-64 SIMD kernels --------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::Start;
    use std::arch::x86_64::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    pub const LVL_SSE2: u8 = 2;
    pub const LVL_AVX2: u8 = 3;
    /// AVX2 plus AVX-512F and DQ: only the tanh kernel has a tier here;
    /// every other kernel runs its AVX2 tier.
    pub const LVL_AVX512: u8 = 4;
    const LVL_NONE: u8 = 1;
    const LVL_UNKNOWN: u8 = 0;

    static LEVEL: AtomicU8 = AtomicU8::new(LVL_UNKNOWN);

    /// Widest supported kernel tier, detected once and cached.
    pub fn level() -> u8 {
        match LEVEL.load(Ordering::Relaxed) {
            LVL_UNKNOWN => {
                let l = if is_x86_feature_detected!("avx2") {
                    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                        LVL_AVX512
                    } else {
                        LVL_AVX2
                    }
                } else if is_x86_feature_detected!("sse2") {
                    LVL_SSE2
                } else {
                    LVL_NONE
                };
                LEVEL.store(l, Ordering::Relaxed);
                l
            }
            l => l,
        }
    }

    /// One GEMM call's operands, shared by its tiles: `a` strided as in
    /// `gemm`, `b` row-major `k x m`, `out` row-major `n x m`, and the
    /// `init` rows with their per-output-row `idx` (both null for a +0.0
    /// start).
    struct Operands {
        a: *const f32,
        rs: usize,
        cs: usize,
        b: *const f32,
        out: *mut f32,
        init: *const f32,
        idx: *const u32,
        k: usize,
        m: usize,
    }

    /// Register-blocked strict GEMM over a strided left operand; `out` is
    /// overwritten.
    ///
    /// Tiles are 4 rows × 24 columns: 12 ymm accumulators, and each `kk`'s
    /// three `b` loads are shared by the 4 rows. `n % 4` rows run as 1-row
    /// tiles. The last `m % 24` columns run as up to three 8-lane panels
    /// through masked loads and stores, which never touch memory past the
    /// row, so no width falls back to scalar code. Every accumulator
    /// starts at +0.0 (or loads its `init` element) and adds `mul(a, b)`
    /// once per `kk` in ascending order: each output element gets exactly
    /// the naive loop's chain of roundings.
    ///
    /// # Safety
    /// Caller must verify AVX2 at runtime and pass operands that hold the
    /// `n x k` / `k x m` / `n x m` shapes and in-range `init` rows
    /// (asserted by `gemm_on`).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_avx2(
        a: &[f32],
        (rs, cs): (usize, usize),
        b: &[f32],
        out: &mut [f32],
        n: usize,
        k: usize,
        m: usize,
        start: Start<'_>,
    ) {
        let (init, idx) = match start {
            Start::Zero => (std::ptr::null(), std::ptr::null()),
            Start::Rows(init, idx) => (init.as_ptr(), idx.as_ptr()),
        };
        let ops = Operands {
            a: a.as_ptr(),
            rs,
            cs,
            b: b.as_ptr(),
            out: out.as_mut_ptr(),
            init,
            idx,
            k,
            m,
        };
        // A const start keeps the +0.0 kernel free of init code.
        if idx.is_null() {
            column_blocks::<false>(&ops, n);
        } else {
            column_blocks::<true>(&ops, n);
        }
    }

    /// Every column of `out`: 24-column blocks, then one masked block for
    /// the last `m % 24`. `INIT` says whether chains start from `init`.
    #[target_feature(enable = "avx2")]
    unsafe fn column_blocks<const INIT: bool>(ops: &Operands, n: usize) {
        let all = _mm256_set1_epi32(-1);
        let mut j = 0;
        while j + 24 <= ops.m {
            column_block::<3, false, INIT>(ops, n, j, [all; 3]);
            j += 24;
        }
        let rest = ops.m - j;
        let mask = |skip: usize| lane_mask(rest.saturating_sub(skip));
        match rest.div_ceil(8) {
            0 => {}
            1 => column_block::<1, true, INIT>(ops, n, j, [mask(0)]),
            2 => column_block::<2, true, INIT>(ops, n, j, [mask(0), mask(8)]),
            _ => column_block::<3, true, INIT>(ops, n, j, [mask(0), mask(8), mask(16)]),
        }
    }

    /// Lanes `0..w` set (all eight when `w >= 8`): the mask of an 8-lane
    /// panel whose row ends `w` columns in.
    #[target_feature(enable = "avx2")]
    unsafe fn lane_mask(w: usize) -> __m256i {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(w.min(8) as i32), lanes)
    }

    /// Every row of the `8 * P` output columns from `j`: 4-row tiles,
    /// then 1-row tiles for `n % 4`.
    #[target_feature(enable = "avx2")]
    unsafe fn column_block<const P: usize, const MASKED: bool, const INIT: bool>(
        ops: &Operands,
        n: usize,
        j: usize,
        masks: [__m256i; P],
    ) {
        let mut i = 0;
        while i + 4 <= n {
            tile::<4, P, MASKED, INIT>(ops, i, j, masks);
            i += 4;
        }
        while i < n {
            tile::<1, P, MASKED, INIT>(ops, i, j, masks);
            i += 1;
        }
    }

    /// Rows `i..i+R` × columns `j..j+8P` of `out`, accumulated in
    /// registers over every `kk` and stored once. With `INIT` the
    /// accumulators first load row `idx[i + r]` of `init`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile<const R: usize, const P: usize, const MASKED: bool, const INIT: bool>(
        ops: &Operands,
        i: usize,
        j: usize,
        masks: [__m256i; P],
    ) {
        let mut acc = [[_mm256_setzero_ps(); P]; R];
        if INIT {
            for (r, row) in acc.iter_mut().enumerate() {
                let src = ops.init.add(*ops.idx.add(i + r) as usize * ops.m + j);
                for (p, (c, &mask)) in row.iter_mut().zip(&masks).enumerate() {
                    *c = if MASKED {
                        _mm256_maskload_ps(src.add(8 * p), mask)
                    } else {
                        _mm256_loadu_ps(src.add(8 * p))
                    };
                }
            }
        }
        for kk in 0..ops.k {
            let b_row = ops.b.add(kk * ops.m + j);
            let mut bv = [_mm256_setzero_ps(); P];
            for (p, (v, &mask)) in bv.iter_mut().zip(&masks).enumerate() {
                *v = if MASKED {
                    _mm256_maskload_ps(b_row.add(8 * p), mask)
                } else {
                    _mm256_loadu_ps(b_row.add(8 * p))
                };
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ops.a.add((i + r) * ops.rs + kk * ops.cs));
                for (c, &bb) in row.iter_mut().zip(&bv) {
                    *c = _mm256_add_ps(*c, _mm256_mul_ps(av, bb));
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            let o = ops.out.add((i + r) * ops.m + j);
            for (p, (&c, &mask)) in row.iter().zip(&masks).enumerate() {
                if MASKED {
                    _mm256_maskstore_ps(o.add(8 * p), mask, c);
                } else {
                    _mm256_storeu_ps(o.add(8 * p), c);
                }
            }
        }
    }

    /// SSE2 tier of the same kernel, one row at a time: 16-column panels
    /// (4 xmm accumulators), then 4-column panels, then scalar tail
    /// columns, each with the naive loop's chain from its start.
    ///
    /// # Safety
    /// Caller must verify SSE2 at runtime and pass operands that hold the
    /// `n x k` / `k x m` / `n x m` shapes and in-range `init` rows
    /// (asserted by `gemm_on`).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    pub unsafe fn gemm_sse2(
        a: &[f32],
        (rs, cs): (usize, usize),
        b: &[f32],
        out: &mut [f32],
        n: usize,
        k: usize,
        m: usize,
        start: Start<'_>,
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        // Row `i`'s start, read from column `j` on: +0.0 or its init row.
        let init = |i: usize, j: usize| match start {
            Start::Zero => None,
            Start::Rows(init, idx) => Some(init.as_ptr().add(idx[i] as usize * m + j)),
        };
        let load = |src: Option<*const f32>, off: usize| match src {
            None => _mm_setzero_ps(),
            Some(p) => _mm_loadu_ps(p.add(off)),
        };
        let mut j = 0usize;
        while j + 16 <= m {
            for i in 0..n {
                let s = init(i, j);
                let mut c0 = load(s, 0);
                let mut c1 = load(s, 4);
                let mut c2 = load(s, 8);
                let mut c3 = load(s, 12);
                for kk in 0..k {
                    let av = _mm_set1_ps(*ap.add(i * rs + kk * cs));
                    let bb = bp.add(kk * m + j);
                    c0 = _mm_add_ps(c0, _mm_mul_ps(av, _mm_loadu_ps(bb)));
                    c1 = _mm_add_ps(c1, _mm_mul_ps(av, _mm_loadu_ps(bb.add(4))));
                    c2 = _mm_add_ps(c2, _mm_mul_ps(av, _mm_loadu_ps(bb.add(8))));
                    c3 = _mm_add_ps(c3, _mm_mul_ps(av, _mm_loadu_ps(bb.add(12))));
                }
                let o = op.add(i * m + j);
                _mm_storeu_ps(o, c0);
                _mm_storeu_ps(o.add(4), c1);
                _mm_storeu_ps(o.add(8), c2);
                _mm_storeu_ps(o.add(12), c3);
            }
            j += 16;
        }
        while j + 4 <= m {
            for i in 0..n {
                let mut c0 = load(init(i, j), 0);
                for kk in 0..k {
                    let av = _mm_set1_ps(*ap.add(i * rs + kk * cs));
                    c0 = _mm_add_ps(c0, _mm_mul_ps(av, _mm_loadu_ps(bp.add(kk * m + j))));
                }
                _mm_storeu_ps(op.add(i * m + j), c0);
            }
            j += 4;
        }
        for j in j..m {
            for i in 0..n {
                let mut acc = init(i, j).map_or(0.0, |p| *p);
                for kk in 0..k {
                    acc += *ap.add(i * rs + kk * cs) * *bp.add(kk * m + j);
                }
                *op.add(i * m + j) = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![1.0, 0.5, -1.0, 2.0, 0.0, 3.0]);
        // a^T @ b computed by hand: a^T is 2x3.
        let at = Matrix::from_vec(2, 3, vec![1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        assert_eq!(a.t_matmul(&b), at.matmul(&b));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32).collect());
        let bt = Matrix::from_vec(
            3,
            4,
            vec![0.0, 3.0, 6.0, 9.0, 1.0, 4.0, 7.0, 10.0, 2.0, 5.0, 8.0, 11.0],
        );
        assert_eq!(a.matmul_t(&b), a.matmul(&bt));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Deterministic pseudo-random fill with exact zeros sprinkled in so
    /// the kernels see the same value mix the old zero-skip path did.
    fn filled(rows: usize, cols: usize, salt: u32) -> Matrix {
        let mut x = salt.wrapping_mul(2654435761).wrapping_add(1);
        let data = (0..rows * cols)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                if x.is_multiple_of(7) {
                    0.0
                } else {
                    ((x >> 8) % 2003) as f32 / 1001.0 - 1.0
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// The plain ikj loop, kept as the bitwise reference. Note there is no
    /// zero-skip: for finite inputs skipping `av == 0.0` is bitwise
    /// neutral (a partial sum seeded at +0.0 stays unchanged under
    /// `s += 0.0 * b`), so the old skipping reference pinned the same
    /// bits this one does — but the branch made kernel cost
    /// data-dependent and blocked vectorization, so the kernels dropped it.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (n, k, m) = (a.rows, a.cols, b.cols);
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            for kk in 0..k {
                let av = a.get(i, kk);
                for j in 0..m {
                    out.data[i * m + j] += av * b.get(kk, j);
                }
            }
        }
        out
    }

    fn naive_t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (k, n, m) = (a.rows, a.cols, b.cols);
        let mut out = Matrix::zeros(n, m);
        for kk in 0..k {
            for i in 0..n {
                let av = a.get(kk, i);
                for j in 0..m {
                    out.data[i * m + j] += av * b.get(kk, j);
                }
            }
        }
        out
    }

    fn naive_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        let (n, k, m) = (a.rows, a.cols, b.rows);
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.get(i, kk) * b.get(j, kk);
                }
                out.data[i * m + j] = acc;
            }
        }
        out
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols));
        for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    /// Shapes straddling the AVX2 kernel's 4-row tile, its 24-column tile
    /// and 8-lane masked panels, the SSE2 16/4-column panels and scalar
    /// tail, plus an empty inner dimension.
    const SHAPES: [(usize, usize, usize); 11] = [
        (1, 1, 1),
        (3, 5, 2),
        (17, 64, 9),
        (65, 63, 66),
        (70, 129, 67),
        (2, 3, 33),
        (5, 40, 8),
        (1, 130, 1),
        (33, 7, 40),
        (6, 9, 47),
        (3, 0, 5),
    ];

    #[test]
    fn strict_matmul_is_bitwise_identical_to_naive() {
        for (si, &(n, k, m)) in SHAPES.iter().enumerate() {
            let a = filled(n, k, si as u32);
            let b = filled(k, m, 100 + si as u32);
            assert_bits_eq(&a.matmul(&b), &naive_matmul(&a, &b));
        }
    }

    #[test]
    fn strict_t_matmul_is_bitwise_identical_to_naive() {
        for (si, &(n, k, m)) in SHAPES.iter().enumerate() {
            let a = filled(k, n, 200 + si as u32);
            let b = filled(k, m, 300 + si as u32);
            assert_bits_eq(&a.t_matmul(&b), &naive_t_matmul(&a, &b));
        }
    }

    #[test]
    fn strict_matmul_t_is_bitwise_identical_to_naive() {
        for (si, &(n, k, m)) in SHAPES.iter().enumerate() {
            let a = filled(n, k, 400 + si as u32);
            let b = filled(m, k, 500 + si as u32);
            assert_bits_eq(&a.matmul_t(&b), &naive_matmul_t(&a, &b));
        }
    }

    /// Dispatch runs only the widest tier, so call every tier the CPU
    /// supports directly, in both strided layouts, into a NaN-filled
    /// `out` that each must overwrite.
    #[test]
    fn every_kernel_tier_is_bitwise_identical_to_naive() {
        for (si, &(n, k, m)) in SHAPES.iter().enumerate() {
            let a = filled(n, k, 600 + si as u32);
            let at = filled(k, n, 700 + si as u32);
            let b = filled(k, m, 800 + si as u32);
            for (_, tier) in tiers() {
                for (lhs, strides, want) in [
                    (&a, (k, 1), naive_matmul(&a, &b)),
                    (&at, (1, n), naive_t_matmul(&at, &b)),
                ] {
                    let mut out = Matrix::from_vec(n, m, vec![f32::NAN; n * m]);
                    let (o, start) = (&mut out.data, Start::Zero);
                    // SAFETY: `tiers` lists only tiers this CPU runs.
                    unsafe { gemm_on(tier, &lhs.data, strides, &b.data, o, n, k, m, start) };
                    assert_bits_eq(&out, &want);
                }
            }
        }
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches() {
        let a = filled(7, 33, 1);
        let b = filled(33, 19, 2);
        let mut out = Matrix::from_vec(7, 19, vec![f32::NAN; 7 * 19]);
        a.matmul_into(&b, &mut out);
        assert_bits_eq(&out, &naive_matmul(&a, &b));
    }

    #[test]
    fn add_row_and_activations_in_place() {
        let mut m = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, -0.25, 0.0, 1.5]);
        m.add_row_assign(&Matrix::from_vec(1, 3, vec![0.5, 1.0, -2.0]));
        assert_eq!(m.data, vec![1.0, 0.0, 0.0, 0.25, 1.0, -0.5]);
        let mut r = m.clone();
        r.relu_assign();
        assert_eq!(r.data, vec![1.0, 0.0, 0.0, 0.25, 1.0, 0.0]);
        let mut t = m.clone();
        t.tanh_assign();
        assert_eq!(t.data[0].to_bits(), crate::tanh::tanhf(1.0).to_bits());
        let mut s = m.clone();
        s.sigmoid_assign();
        assert_eq!(s.data[0].to_bits(), stable_sigmoid(1.0).to_bits());
    }

    #[test]
    fn norm_and_scale() {
        let mut a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        a.scale_assign(2.0);
        assert_eq!(a.data, vec![6.0, 8.0]);
    }
}
