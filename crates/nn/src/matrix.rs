//! Dense row-major `f32` matrices and the vectorized matmul kernels.
//!
//! # Kernel determinism policy
//!
//! Every kernel has two modes (see [`MatmulMode`]):
//!
//! * **Strict** (default): bitwise identical to the naive reference loop.
//!   Each output element accumulates its `k` terms in ascending order with
//!   one `mul` + one `add` rounding per term. SIMD is still possible
//!   because vector lanes hold *different* output elements — broadcasting
//!   `a[i][kk]` against a row panel of `b` keeps every element's own
//!   accumulation chain untouched. The strict AVX2/SSE2 paths therefore
//!   produce the same bits as the scalar loop, just faster.
//! * **Fast** (opt-in via `SPG_FAST_MATH=1` or [`set_matmul_mode`]): allows
//!   FMA contraction (one rounding per term instead of two) and, for the
//!   dot-product kernel, multiple independent accumulators (reassociation).
//!   Results are deterministic for a given CPU but *not* bitwise equal to
//!   strict mode; the property tests bound the divergence at 1e-5 relative.
//!
//! Dispatch picks the widest instruction set at runtime
//! (`is_x86_feature_detected!`, cached) and falls back to a portable
//! 8-wide unrolled path on other architectures. See DESIGN.md §
//! "Kernel vectorization policy" for how to add a kernel without breaking
//! the determinism guarantees.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU8, Ordering};

/// Floating-point contract for the matmul kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulMode {
    /// Bitwise identical to the naive reference loops (default).
    Strict,
    /// FMA + reassociation allowed; deterministic but not bitwise equal
    /// to strict. Opt-in via `SPG_FAST_MATH=1` or [`set_matmul_mode`].
    Fast,
}

const MODE_UNSET: u8 = 0;
const MODE_STRICT: u8 = 1;
const MODE_FAST: u8 = 2;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// The process-wide kernel mode. First call reads `SPG_FAST_MATH`
/// (`1`/`true` enables fast math); later calls are a single atomic load.
pub fn matmul_mode() -> MatmulMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_STRICT => MatmulMode::Strict,
        MODE_FAST => MatmulMode::Fast,
        _ => {
            let fast = std::env::var("SPG_FAST_MATH")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false);
            let mode = if fast {
                MatmulMode::Fast
            } else {
                MatmulMode::Strict
            };
            set_matmul_mode(mode);
            mode
        }
    }
}

/// Override the process-wide kernel mode (wins over `SPG_FAST_MATH`).
pub fn set_matmul_mode(mode: MatmulMode) {
    let tag = match mode {
        MatmulMode::Strict => MODE_STRICT,
        MatmulMode::Fast => MODE_FAST,
    };
    MODE.store(tag, Ordering::Relaxed);
}

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

    /// `self @ other` under the process-wide [`matmul_mode`].
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_with_mode(other, matmul_mode())
    }

    /// `self @ other` under an explicit mode (tests and benches use this
    /// so parallel test threads never race on the global mode).
    pub fn matmul_with_mode(&self, other: &Matrix, mode: MatmulMode) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into_mode(other, &mut out, mode);
        out
    }

    /// `self @ other` into a preallocated (and re-zeroed) `out`, under the
    /// process-wide mode. The workhorse of the tape-free inference path —
    /// no allocation when `out` comes from a scratch arena.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_into_mode(other, out, matmul_mode());
    }

    /// `self @ other` into `out` under an explicit mode.
    pub fn matmul_into_mode(&self, other: &Matrix, out: &mut Matrix, mode: MatmulMode) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul out shape mismatch"
        );
        out.fill_zero();
        matmul_kernel(self, other, out, mode);
    }

    /// `self^T @ other` without materialising the transpose, under the
    /// process-wide mode.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        self.t_matmul_with_mode(other, matmul_mode())
    }

    /// `self^T @ other` under an explicit mode.
    pub fn t_matmul_with_mode(&self, other: &Matrix, mode: MatmulMode) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        t_matmul_kernel(self, other, &mut out, mode);
        out
    }

    /// `self @ other^T` without materialising the transpose, under the
    /// process-wide mode.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        self.matmul_t_with_mode(other, matmul_mode())
    }

    /// `self @ other^T` under an explicit mode.
    pub fn matmul_t_with_mode(&self, other: &Matrix, mode: MatmulMode) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        matmul_t_kernel(self, other, &mut out, mode);
        out
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

/// `out += a @ b` for zeroed `out`. Picks the widest runtime-detected
/// instruction set; the strict variants are bitwise identical to
/// `portable::matmul`, the FMA variant is Fast-mode only.
fn matmul_kernel(a: &Matrix, b: &Matrix, out: &mut Matrix, mode: MatmulMode) {
    let (n, k, m) = (a.rows, a.cols, b.cols);
    #[cfg(target_arch = "x86_64")]
    {
        let lvl = x86::level();
        if lvl >= x86::LVL_AVX2 {
            // SAFETY: AVX2 (and FMA for the fast variant) verified by
            // `x86::level`; slice lengths checked by the callers' asserts.
            unsafe {
                if mode == MatmulMode::Fast && lvl >= x86::LVL_AVX2_FMA {
                    x86::matmul_avx2_fma(&a.data, &b.data, &mut out.data, n, k, m);
                } else {
                    x86::matmul_avx2(&a.data, &b.data, &mut out.data, n, k, m);
                }
            }
            return;
        }
        if lvl >= x86::LVL_SSE2 {
            // SAFETY: SSE2 verified by `x86::level`.
            unsafe { x86::matmul_sse2(&a.data, &b.data, &mut out.data, n, k, m) };
            return;
        }
    }
    let _ = mode; // non-x86 targets only have the strict portable path
    portable::matmul(&a.data, &b.data, &mut out.data, n, k, m);
}

/// `out += a^T @ b` for zeroed `out` (`a` is `k x n`, column-broadcast).
fn t_matmul_kernel(a: &Matrix, b: &Matrix, out: &mut Matrix, mode: MatmulMode) {
    let (k, n, m) = (a.rows, a.cols, b.cols);
    #[cfg(target_arch = "x86_64")]
    {
        let lvl = x86::level();
        if lvl >= x86::LVL_AVX2 {
            // SAFETY: features verified by `x86::level`.
            unsafe {
                if mode == MatmulMode::Fast && lvl >= x86::LVL_AVX2_FMA {
                    x86::t_matmul_avx2_fma(&a.data, &b.data, &mut out.data, n, k, m);
                } else {
                    x86::t_matmul_avx2(&a.data, &b.data, &mut out.data, n, k, m);
                }
            }
            return;
        }
        if lvl >= x86::LVL_SSE2 {
            // SAFETY: SSE2 verified by `x86::level`.
            unsafe { x86::t_matmul_sse2(&a.data, &b.data, &mut out.data, n, k, m) };
            return;
        }
    }
    let _ = mode;
    portable::t_matmul(&a.data, &b.data, &mut out.data, n, k, m);
}

/// `out = a @ b^T`. Strict mode keeps a single sequential accumulator per
/// element (vector lanes cannot help without reassociating), so it stays
/// on the portable 8-wide unrolled dot. Fast mode uses 4 independent
/// 8-lane FMA accumulators with a fixed-order reduction.
fn matmul_t_kernel(a: &Matrix, b: &Matrix, out: &mut Matrix, mode: MatmulMode) {
    let (n, k, m) = (a.rows, a.cols, b.rows);
    #[cfg(target_arch = "x86_64")]
    if mode == MatmulMode::Fast && x86::level() >= x86::LVL_AVX2_FMA {
        // SAFETY: AVX2+FMA verified by `x86::level`.
        unsafe { x86::matmul_t_avx2_fma(&a.data, &b.data, &mut out.data, n, k, m) };
        return;
    }
    let _ = mode;
    portable::matmul_t(&a.data, &b.data, &mut out.data, n, k, m);
}

// ---- portable kernels -----------------------------------------------------

/// Cache-block edge for the portable kernels: 64×64 f32 tiles (16 KiB per
/// operand) fit in L1 alongside the streamed operand.
const BLOCK: usize = 64;

mod portable {
    use super::BLOCK;

    /// Blocked ikj matmul; ascending-`k` accumulation per element, so
    /// bitwise identical to the naive triple loop.
    pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
        for i0 in (0..n).step_by(BLOCK) {
            let i1 = (i0 + BLOCK).min(n);
            for k0 in (0..k).step_by(BLOCK) {
                let k1 = (k0 + BLOCK).min(k);
                for i in i0..i1 {
                    let a_row = &a[i * k..(i + 1) * k];
                    let out_row = &mut out[i * m..(i + 1) * m];
                    for (kk, &av) in a_row.iter().enumerate().take(k1).skip(k0) {
                        axpy(out_row, av, &b[kk * m..(kk + 1) * m]);
                    }
                }
            }
        }
    }

    /// Blocked kij transpose-matmul; same ascending-`k` order as naive.
    pub fn t_matmul(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
        for k0 in (0..k).step_by(BLOCK) {
            let k1 = (k0 + BLOCK).min(k);
            for i0 in (0..n).step_by(BLOCK) {
                let i1 = (i0 + BLOCK).min(n);
                for kk in k0..k1 {
                    let a_row = &a[kk * n..(kk + 1) * n];
                    let b_row = &b[kk * m..(kk + 1) * m];
                    for (i, &av) in a_row.iter().enumerate().take(i1).skip(i0) {
                        axpy(&mut out[i * m..(i + 1) * m], av, b_row);
                    }
                }
            }
        }
    }

    /// Blocked dot-product matmul against `b^T`; single sequential
    /// accumulator per element (bitwise identical to naive).
    pub fn matmul_t(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
        for i0 in (0..n).step_by(BLOCK) {
            let i1 = (i0 + BLOCK).min(n);
            for j0 in (0..m).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(m);
                for i in i0..i1 {
                    let a_row = &a[i * k..(i + 1) * k];
                    for j in j0..j1 {
                        out[i * m + j] = dot(a_row, &b[j * k..(j + 1) * k]);
                    }
                }
            }
        }
    }

    /// `out[j] += a * b[j]`, unrolled 8-wide. Each `out[j]` receives
    /// exactly one add, so this is bitwise equivalent to the scalar loop.
    #[inline]
    pub fn axpy(out: &mut [f32], a: f32, b: &[f32]) {
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

    /// Sequential-order dot product, unrolled 8-wide into a single
    /// accumulator (no partial-sum reassociation: the float result
    /// matches the naive `for kk { acc += a[kk] * b[kk] }` loop exactly).
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n8 = a.len() / 8 * 8;
        let (a8, a_tail) = a.split_at(n8);
        let (b8, b_tail) = b[..a.len()].split_at(n8);
        let mut acc = 0.0f32;
        for (ac, bc) in a8.chunks_exact(8).zip(b8.chunks_exact(8)) {
            acc += ac[0] * bc[0];
            acc += ac[1] * bc[1];
            acc += ac[2] * bc[2];
            acc += ac[3] * bc[3];
            acc += ac[4] * bc[4];
            acc += ac[5] * bc[5];
            acc += ac[6] * bc[6];
            acc += ac[7] * bc[7];
        }
        for (&x, &y) in a_tail.iter().zip(b_tail) {
            acc += x * y;
        }
        acc
    }
}

// ---- x86-64 SIMD kernels --------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use std::arch::x86_64::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    pub const LVL_SSE2: u8 = 2;
    pub const LVL_AVX2: u8 = 3;
    pub const LVL_AVX2_FMA: u8 = 4;
    const LVL_NONE: u8 = 1;
    const LVL_UNKNOWN: u8 = 0;

    static LEVEL: AtomicU8 = AtomicU8::new(LVL_UNKNOWN);

    /// Widest supported kernel tier, detected once and cached.
    pub fn level() -> u8 {
        match LEVEL.load(Ordering::Relaxed) {
            LVL_UNKNOWN => {
                let l = if is_x86_feature_detected!("avx2") {
                    if is_x86_feature_detected!("fma") {
                        LVL_AVX2_FMA
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

    /// Strict multiply-add: two roundings, exactly like the scalar loop.
    macro_rules! madd256_strict {
        ($x:expr, $y:expr, $acc:expr) => {
            _mm256_add_ps($acc, _mm256_mul_ps($x, $y))
        };
    }
    /// Fused multiply-add: one rounding (Fast mode only).
    macro_rules! madd256_fma {
        ($x:expr, $y:expr, $acc:expr) => {
            _mm256_fmadd_ps($x, $y, $acc)
        };
    }

    /// `a[i][kk]` for the row-major `n x k` left operand of `matmul`.
    macro_rules! aload_row {
        ($a:ident, $i:ident, $kk:ident, $k:ident, $n:ident) => {
            *$a.get_unchecked($i * $k + $kk)
        };
    }
    /// `a[kk][i]` for the `k x n` left operand of `t_matmul`.
    macro_rules! aload_col {
        ($a:ident, $i:ident, $kk:ident, $k:ident, $n:ident) => {
            *$a.get_unchecked($kk * $n + $i)
        };
    }

    /// Register-blocked AVX2 panel kernel over 32 output columns (4 ymm
    /// accumulators), then an 8-wide panel, then scalar tail columns.
    /// Each output element accumulates its `k` terms in ascending order
    /// into a register, so the strict variant is bitwise identical to the
    /// naive loop; the FMA variant contracts mul+add into one rounding.
    macro_rules! panel_kernel_256 {
        ($name:ident, [$($feat:literal),+], $madd:ident, $aload:ident) => {
            /// # Safety
            /// Caller must verify the listed target features at runtime and
            /// pass slices of length `n*k` / `k*m` / `n*m` with `out` zeroed.
            #[target_feature($(enable = $feat),+)]
            pub unsafe fn $name(
                a: &[f32],
                b: &[f32],
                out: &mut [f32],
                n: usize,
                k: usize,
                m: usize,
            ) {
                debug_assert!(b.len() >= k * m && out.len() >= n * m);
                let bp = b.as_ptr();
                let op = out.as_mut_ptr();
                let mut j = 0usize;
                while j + 32 <= m {
                    for i in 0..n {
                        let mut c0 = _mm256_setzero_ps();
                        let mut c1 = _mm256_setzero_ps();
                        let mut c2 = _mm256_setzero_ps();
                        let mut c3 = _mm256_setzero_ps();
                        for kk in 0..k {
                            let av = _mm256_set1_ps($aload!(a, i, kk, k, n));
                            let bb = bp.add(kk * m + j);
                            c0 = $madd!(av, _mm256_loadu_ps(bb), c0);
                            c1 = $madd!(av, _mm256_loadu_ps(bb.add(8)), c1);
                            c2 = $madd!(av, _mm256_loadu_ps(bb.add(16)), c2);
                            c3 = $madd!(av, _mm256_loadu_ps(bb.add(24)), c3);
                        }
                        let o = op.add(i * m + j);
                        _mm256_storeu_ps(o, c0);
                        _mm256_storeu_ps(o.add(8), c1);
                        _mm256_storeu_ps(o.add(16), c2);
                        _mm256_storeu_ps(o.add(24), c3);
                    }
                    j += 32;
                }
                while j + 8 <= m {
                    for i in 0..n {
                        let mut c0 = _mm256_setzero_ps();
                        for kk in 0..k {
                            let av = _mm256_set1_ps($aload!(a, i, kk, k, n));
                            c0 = $madd!(av, _mm256_loadu_ps(bp.add(kk * m + j)), c0);
                        }
                        _mm256_storeu_ps(op.add(i * m + j), c0);
                    }
                    j += 8;
                }
                scalar_tail_cols(b, out, n, k, m, j, |i, kk| $aload!(a, i, kk, k, n));
            }
        };
    }

    panel_kernel_256!(matmul_avx2, ["avx2"], madd256_strict, aload_row);
    panel_kernel_256!(matmul_avx2_fma, ["avx2", "fma"], madd256_fma, aload_row);
    panel_kernel_256!(t_matmul_avx2, ["avx2"], madd256_strict, aload_col);
    panel_kernel_256!(t_matmul_avx2_fma, ["avx2", "fma"], madd256_fma, aload_col);

    /// SSE2 variant of the panel kernel: 16 output columns per pass
    /// (4 xmm accumulators), then 4-wide, then scalar tail. Strict only —
    /// same two-rounding multiply-add order as the naive loop.
    macro_rules! panel_kernel_128 {
        ($name:ident, $aload:ident) => {
            /// # Safety
            /// Caller must verify SSE2 at runtime and pass slices of length
            /// `n*k` / `k*m` / `n*m` with `out` zeroed.
            #[target_feature(enable = "sse2")]
            pub unsafe fn $name(
                a: &[f32],
                b: &[f32],
                out: &mut [f32],
                n: usize,
                k: usize,
                m: usize,
            ) {
                debug_assert!(b.len() >= k * m && out.len() >= n * m);
                let bp = b.as_ptr();
                let op = out.as_mut_ptr();
                let mut j = 0usize;
                while j + 16 <= m {
                    for i in 0..n {
                        let mut c0 = _mm_setzero_ps();
                        let mut c1 = _mm_setzero_ps();
                        let mut c2 = _mm_setzero_ps();
                        let mut c3 = _mm_setzero_ps();
                        for kk in 0..k {
                            let av = _mm_set1_ps($aload!(a, i, kk, k, n));
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
                        let mut c0 = _mm_setzero_ps();
                        for kk in 0..k {
                            let av = _mm_set1_ps($aload!(a, i, kk, k, n));
                            c0 = _mm_add_ps(c0, _mm_mul_ps(av, _mm_loadu_ps(bp.add(kk * m + j))));
                        }
                        _mm_storeu_ps(op.add(i * m + j), c0);
                    }
                    j += 4;
                }
                scalar_tail_cols(b, out, n, k, m, j, |i, kk| $aload!(a, i, kk, k, n));
            }
        };
    }

    panel_kernel_128!(matmul_sse2, aload_row);
    panel_kernel_128!(t_matmul_sse2, aload_col);

    /// Scalar fallback for the last `m - j0` output columns: single
    /// accumulator over ascending `kk` per element, matching naive.
    #[inline]
    fn scalar_tail_cols(
        b: &[f32],
        out: &mut [f32],
        n: usize,
        k: usize,
        m: usize,
        j0: usize,
        aload: impl Fn(usize, usize) -> f32,
    ) {
        for j in j0..m {
            for i in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += aload(i, kk) * b[kk * m + j];
                }
                out[i * m + j] = acc;
            }
        }
    }

    /// Fast-mode `a @ b^T`: 4 independent 8-lane FMA accumulators per dot
    /// product, reduced in a fixed order (deterministic, but reassociated —
    /// never used in strict mode).
    ///
    /// # Safety
    /// Caller must verify AVX2+FMA at runtime and pass slices of length
    /// `n*k` / `m*k` / `n*m`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_t_avx2_fma(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        n: usize,
        k: usize,
        m: usize,
    ) {
        debug_assert!(a.len() >= n * k && b.len() >= m * k && out.len() >= n * m);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        for i in 0..n {
            let ar = ap.add(i * k);
            for j in 0..m {
                let br = bp.add(j * k);
                let mut c0 = _mm256_setzero_ps();
                let mut c1 = _mm256_setzero_ps();
                let mut c2 = _mm256_setzero_ps();
                let mut c3 = _mm256_setzero_ps();
                let mut kk = 0usize;
                while kk + 32 <= k {
                    c0 = _mm256_fmadd_ps(
                        _mm256_loadu_ps(ar.add(kk)),
                        _mm256_loadu_ps(br.add(kk)),
                        c0,
                    );
                    c1 = _mm256_fmadd_ps(
                        _mm256_loadu_ps(ar.add(kk + 8)),
                        _mm256_loadu_ps(br.add(kk + 8)),
                        c1,
                    );
                    c2 = _mm256_fmadd_ps(
                        _mm256_loadu_ps(ar.add(kk + 16)),
                        _mm256_loadu_ps(br.add(kk + 16)),
                        c2,
                    );
                    c3 = _mm256_fmadd_ps(
                        _mm256_loadu_ps(ar.add(kk + 24)),
                        _mm256_loadu_ps(br.add(kk + 24)),
                        c3,
                    );
                    kk += 32;
                }
                while kk + 8 <= k {
                    c0 = _mm256_fmadd_ps(
                        _mm256_loadu_ps(ar.add(kk)),
                        _mm256_loadu_ps(br.add(kk)),
                        c0,
                    );
                    kk += 8;
                }
                let v = _mm256_add_ps(_mm256_add_ps(c0, c1), _mm256_add_ps(c2, c3));
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), v);
                let mut acc = 0.0f32;
                for &l in &lanes {
                    acc += l;
                }
                while kk < k {
                    acc += *ar.add(kk) * *br.add(kk);
                    kk += 1;
                }
                out[i * m + j] = acc;
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

    /// Shapes straddling the 32-wide AVX2 panel, the 8-wide sub-panel, the
    /// scalar column tail, and the 64-wide portable block edge.
    const SHAPES: [(usize, usize, usize); 9] = [
        (1, 1, 1),
        (3, 5, 2),
        (17, 64, 9),
        (65, 63, 66),
        (70, 129, 67),
        (2, 3, 33),
        (5, 40, 8),
        (1, 130, 1),
        (33, 7, 40),
    ];

    #[test]
    fn strict_matmul_is_bitwise_identical_to_naive() {
        for (si, &(n, k, m)) in SHAPES.iter().enumerate() {
            let a = filled(n, k, si as u32);
            let b = filled(k, m, 100 + si as u32);
            assert_bits_eq(
                &a.matmul_with_mode(&b, MatmulMode::Strict),
                &naive_matmul(&a, &b),
            );
        }
    }

    #[test]
    fn strict_t_matmul_is_bitwise_identical_to_naive() {
        for (si, &(n, k, m)) in SHAPES.iter().enumerate() {
            let a = filled(k, n, 200 + si as u32);
            let b = filled(k, m, 300 + si as u32);
            assert_bits_eq(
                &a.t_matmul_with_mode(&b, MatmulMode::Strict),
                &naive_t_matmul(&a, &b),
            );
        }
    }

    #[test]
    fn strict_matmul_t_is_bitwise_identical_to_naive() {
        for (si, &(n, k, m)) in SHAPES.iter().enumerate() {
            let a = filled(n, k, 400 + si as u32);
            let b = filled(m, k, 500 + si as u32);
            assert_bits_eq(
                &a.matmul_t_with_mode(&b, MatmulMode::Strict),
                &naive_matmul_t(&a, &b),
            );
        }
    }

    #[test]
    fn fast_mode_stays_close_to_strict() {
        for (si, &(n, k, m)) in SHAPES.iter().enumerate() {
            let a = filled(n, k, 600 + si as u32);
            let b = filled(k, m, 700 + si as u32);
            let strict = a.matmul_with_mode(&b, MatmulMode::Strict);
            let fast = a.matmul_with_mode(&b, MatmulMode::Fast);
            for (x, y) in strict.data.iter().zip(&fast.data) {
                let tol = 1e-5 * x.abs().max(1.0);
                assert!((x - y).abs() <= tol, "strict {x} vs fast {y}");
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
    fn default_mode_is_strict_without_env_override() {
        if std::env::var("SPG_FAST_MATH").is_err() {
            assert_eq!(matmul_mode(), MatmulMode::Strict);
        }
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
