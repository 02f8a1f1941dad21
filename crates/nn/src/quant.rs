//! Int8 quantized inference: per-row symmetric weights, dynamic per-row
//! activation quantization, and i8×i8→i32 integer-accumulated dot kernels.
//!
//! # Determinism policy
//!
//! Unlike the f32 kernels in [`crate::matrix`], which must keep each
//! sum's accumulation order, the quantized path is deterministic *by
//! construction*: every dot product accumulates `i32` terms, and integer
//! addition is associative and commutative, so the AVX2 panel and the
//! portable loop produce identical sums no matter how the lanes are
//! grouped. The only floating-point work is one scale per row/column at
//! the layer boundary — `(acc as f32) * x_scale * w_scale + bias` — a
//! fixed scalar expression with one rounding per op on every platform.
//!
//! # Scale selection
//!
//! Weights are quantized once, per *output channel* (one scale per row of
//! the transposed `[out x in]` weight block): `scale = max_abs / 127`,
//! `q = round_ties_even(v * (1/scale))` clamped to `[-127, 127]` —
//! ties-to-even because that is the rounding the vector instruction
//! implements, so the AVX2 and scalar quantizers emit identical codes.
//! Activations are quantized per input row with the same rule at every
//! layer boundary. All-zero rows get `scale = 1.0` so the dequantized
//! output stays an exact zero. Rows are zero-padded to the 16-lane SIMD
//! step: zero codes add zero products, so padded sums equal unpadded
//! ones bit-for-bit while the kernels run tail-free.
//!
//! The quantized path also swaps the exact tanh ([`crate::tanh`], an
//! fdlibm port the f32 path keeps because its response bytes are pinned)
//! for [`tanh_fast`], a fixed rational approximation (~1e-7 absolute
//! error, three orders below the 1/127 activation grid) that needs no
//! range reduction or blends and so costs a fraction of it.
//!
//! # Overflow bound
//!
//! Each product is at most `127 * 127 = 16129`, so a `k`-term i32
//! accumulator is exact for `k < 2^31 / 16129 ≈ 133_000` — far above any
//! layer width in this model family. The widest intermediate inside the
//! AVX2 kernel is the `_mm256_madd_epi16` pair-sum, bounded by
//! `2 * 16129`, which also fits i32 with the same slack.

use crate::layers::{InferLayer, Linear, Mlp};
use crate::matrix::Matrix;
use crate::scratch::InferenceScratch;

/// Quantize `rows x cols` row-major f32 data with a per-row symmetric
/// scale. Appends `rows * cols` i8 values to `out_q` and `rows` scales to
/// `out_scale` (both cleared first). All-zero rows get scale `1.0`.
pub fn quantize_rows_i8(
    data: &[f32],
    rows: usize,
    cols: usize,
    out_q: &mut Vec<i8>,
    out_scale: &mut Vec<f32>,
) {
    quantize_rows_i8_padded(data, rows, cols, cols, out_q, out_scale);
}

/// [`quantize_rows_i8`] with each output row zero-padded to `padded_cols`
/// (`>= cols`). Zero codes contribute zero products, so a dot over padded
/// rows returns exactly the unpadded i32 sum — padding to the SIMD step
/// (16) lets the kernels drop their scalar tails without changing a bit.
pub fn quantize_rows_i8_padded(
    data: &[f32],
    rows: usize,
    cols: usize,
    padded_cols: usize,
    out_q: &mut Vec<i8>,
    out_scale: &mut Vec<f32>,
) {
    assert_eq!(data.len(), rows * cols, "quantize shape mismatch");
    assert!(padded_cols >= cols, "padding cannot truncate");
    out_q.clear();
    out_scale.clear();
    out_q.reserve(rows * padded_cols);
    out_scale.reserve(rows);
    out_q.resize(rows * padded_cols, 0);
    #[cfg(target_arch = "x86_64")]
    let avx2 = crate::matrix::x86::level() >= crate::matrix::x86::LVL_AVX2;
    for r in 0..rows {
        let row = &data[r * cols..(r + 1) * cols];
        let out_row = &mut out_q[r * padded_cols..r * padded_cols + cols];
        // SAFETY (both calls): AVX2 verified by `x86::level` above;
        // slices are equal-length by construction.
        #[cfg(target_arch = "x86_64")]
        let max_abs = if avx2 {
            unsafe { max_abs_avx2(row) }
        } else {
            row.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
        };
        #[cfg(not(target_arch = "x86_64"))]
        let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        out_scale.push(scale);
        // One division per row, then multiplies: `x * (1/scale)` is the
        // same fixed IEEE expression on every platform, so codes stay
        // bit-reproducible. Rounding is ties-to-even — the mode the
        // vector rounding instruction implements — so the AVX2 and
        // scalar quantizers emit identical codes.
        let inv = 1.0 / scale;
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            unsafe { quantize_row_avx2(row, inv, out_row) };
            continue;
        }
        for (o, &x) in out_row.iter_mut().zip(row) {
            *o = (x * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
        }
    }
}

/// Maximum absolute value of `row` (exact — comparisons don't round, so
/// lane order is irrelevant and the result matches the scalar fold).
///
/// # Safety
/// Caller must verify AVX2 at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn max_abs_avx2(row: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = row.len();
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut m = _mm256_setzero_ps();
    let mut k = 0usize;
    while k + 8 <= n {
        let v = _mm256_and_ps(_mm256_loadu_ps(row.as_ptr().add(k)), abs_mask);
        m = _mm256_max_ps(m, v);
        k += 8;
    }
    let hi = _mm256_extractf128_ps(m, 1);
    let lo = _mm256_castps256_ps128(m);
    let s = _mm_max_ps(hi, lo);
    let s = _mm_max_ps(s, _mm_shuffle_ps(s, s, 0b01_00_11_10));
    let s = _mm_max_ps(s, _mm_shuffle_ps(s, s, 0b00_00_00_01));
    let mut best = _mm_cvtss_f32(s);
    while k < n {
        best = best.max(row.get_unchecked(k).abs());
        k += 1;
    }
    best
}

/// AVX2 row quantizer: 8 lanes of `x * inv`, round-to-nearest-even,
/// clamp, then pack to i8. Bit-identical to the scalar ties-even loop.
///
/// # Safety
/// Caller must verify AVX2 at runtime; `out.len() == row.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_avx2(row: &[f32], inv: f32, out: &mut [i8]) {
    use std::arch::x86_64::*;
    let n = row.len();
    let invv = _mm256_set1_ps(inv);
    let lo = _mm256_set1_ps(-127.0);
    let hi = _mm256_set1_ps(127.0);
    let mut k = 0usize;
    while k + 8 <= n {
        let x = _mm256_loadu_ps(row.as_ptr().add(k));
        let scaled = _mm256_round_ps(
            _mm256_mul_ps(x, invv),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        let clamped = _mm256_min_ps(_mm256_max_ps(scaled, lo), hi);
        let q = _mm256_cvtps_epi32(clamped);
        // 8 i32 -> 8 i8: pack through i16 (values are within ±127, so
        // the saturating packs are exact).
        let q16 = _mm256_packs_epi32(q, _mm256_setzero_si256());
        let q16 = _mm256_permute4x64_epi64(q16, 0b11_01_10_00);
        let q8 = _mm_packs_epi16(_mm256_castsi256_si128(q16), _mm_setzero_si128());
        let bytes = _mm_cvtsi128_si64(q8) as u64;
        std::ptr::copy_nonoverlapping(
            bytes.to_le_bytes().as_ptr() as *const i8,
            out.as_mut_ptr().add(k),
            8,
        );
        k += 8;
    }
    while k < n {
        *out.get_unchecked_mut(k) = (row.get_unchecked(k) * inv)
            .round_ties_even()
            .clamp(-127.0, 127.0) as i8;
        k += 1;
    }
}

/// Round `k` up to the 16-lane SIMD step the i8 kernels consume.
pub fn padded_width(k: usize) -> usize {
    k.div_ceil(16) * 16
}

/// Integer dot product `sum(a[i] * b[i])` with an i32 accumulator.
/// Dispatches to the AVX2 kernel when available; both paths return the
/// same i32 by integer associativity.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if crate::matrix::x86::level() >= crate::matrix::x86::LVL_AVX2 {
        // SAFETY: AVX2 verified by `x86::level`; equal slice lengths
        // checked above.
        return unsafe { dot_i8_avx2(a, b) };
    }
    dot_i8_portable(a, b)
}

/// Portable reference dot: plain scalar loop.
pub fn dot_i8_portable(a: &[i8], b: &[i8]) -> i32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| x as i32 * y as i32)
        .sum::<i32>()
}

/// AVX2 dot: sign-extend 16 i8 lanes to i16, `madd` adjacent pairs into
/// 8 i32 lanes, accumulate, then horizontal-sum. Exactly equal to the
/// portable loop because i32 addition is associative.
///
/// # Safety
/// Caller must verify AVX2 at runtime and pass equal-length slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = _mm256_setzero_si256();
    let mut k = 0usize;
    while k + 16 <= n {
        let av = _mm256_cvtepi8_epi16(_mm_loadu_si128(ap.add(k) as *const __m128i));
        let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.add(k) as *const __m128i));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
        k += 16;
    }
    let mut sum = hsum_i32_avx2(acc);
    while k < n {
        sum += *ap.add(k) as i32 * *bp.add(k) as i32;
        k += 1;
    }
    sum
}

/// Sum the 8 i32 lanes of `v` (lane grouping is free to vary — integer
/// addition associates, so any reduction tree gives the same i32).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum_i32_avx2(v: std::arch::x86_64::__m256i) -> i32 {
    use std::arch::x86_64::*;
    let hi = _mm256_extracti128_si256(v, 1);
    let lo = _mm256_castsi256_si128(v);
    let s = _mm_add_epi32(hi, lo);
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
    _mm_cvtsi128_si32(s)
}

/// `out[i][j] = dot(a row i, bt row j)` — an i8 GEMM against a
/// pre-transposed `[m x k]` right operand, writing i32 accumulators.
/// Both operands are k-contiguous so every dot streams both rows.
/// Dispatches to a 4-column AVX2 micro-kernel when available; both paths
/// produce identical i32 sums by integer associativity.
pub fn gemm_i8(a: &[i8], bt: &[i8], out: &mut [i32], n: usize, k: usize, m: usize) {
    assert!(a.len() >= n * k && bt.len() >= m * k && out.len() >= n * m);
    #[cfg(target_arch = "x86_64")]
    if crate::matrix::x86::level() >= crate::matrix::x86::LVL_AVX2 {
        // SAFETY: AVX2 verified by `x86::level`; bounds asserted above.
        return unsafe { gemm_i8_avx2(a, bt, out, n, k, m) };
    }
    for i in 0..n {
        let ar = &a[i * k..(i + 1) * k];
        let or = &mut out[i * m..(i + 1) * m];
        for (j, o) in or.iter_mut().enumerate() {
            *o = dot_i8(ar, &bt[j * k..(j + 1) * k]);
        }
    }
}

/// AVX2 GEMM micro-kernel: 4 output columns per pass share each 16-lane
/// activation load, quartering the dominant load traffic of the
/// dot-at-a-time loop. Accumulation is i32 throughout, so the result is
/// bit-identical to the portable path regardless of blocking.
///
/// # Safety
/// Caller must verify AVX2 at runtime and the bounds `a >= n*k`,
/// `bt >= m*k`, `out >= n*m`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_i8_avx2(a: &[i8], bt: &[i8], out: &mut [i32], n: usize, k: usize, m: usize) {
    use std::arch::x86_64::*;
    let ap = a.as_ptr();
    let bp = bt.as_ptr();
    for i in 0..n {
        let ar = ap.add(i * k);
        let or = &mut out[i * m..(i + 1) * m];
        let mut j = 0usize;
        while j + 4 <= m {
            let b0 = bp.add(j * k);
            let b1 = bp.add((j + 1) * k);
            let b2 = bp.add((j + 2) * k);
            let b3 = bp.add((j + 3) * k);
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            let mut acc2 = _mm256_setzero_si256();
            let mut acc3 = _mm256_setzero_si256();
            let mut p = 0usize;
            while p + 16 <= k {
                let av = _mm256_cvtepi8_epi16(_mm_loadu_si128(ar.add(p) as *const __m128i));
                let b0v = _mm256_cvtepi8_epi16(_mm_loadu_si128(b0.add(p) as *const __m128i));
                let b1v = _mm256_cvtepi8_epi16(_mm_loadu_si128(b1.add(p) as *const __m128i));
                let b2v = _mm256_cvtepi8_epi16(_mm_loadu_si128(b2.add(p) as *const __m128i));
                let b3v = _mm256_cvtepi8_epi16(_mm_loadu_si128(b3.add(p) as *const __m128i));
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(av, b0v));
                acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(av, b1v));
                acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(av, b2v));
                acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(av, b3v));
                p += 16;
            }
            // One hadd tree reduces all four accumulators at once:
            // t2 = [s0..s3 of lanes 0-3 | s0..s3 of lanes 4-7], one
            // cross-lane add finishes all four sums (integer adds — any
            // grouping gives the same i32s).
            let t0 = _mm256_hadd_epi32(acc0, acc1);
            let t1 = _mm256_hadd_epi32(acc2, acc3);
            let t2 = _mm256_hadd_epi32(t0, t1);
            let mut sums =
                _mm_add_epi32(_mm256_castsi256_si128(t2), _mm256_extracti128_si256(t2, 1));
            while p < k {
                let x = *ar.add(p) as i32;
                let tail = _mm_mullo_epi32(
                    _mm_set1_epi32(x),
                    _mm_set_epi32(
                        *b3.add(p) as i32,
                        *b2.add(p) as i32,
                        *b1.add(p) as i32,
                        *b0.add(p) as i32,
                    ),
                );
                sums = _mm_add_epi32(sums, tail);
                p += 1;
            }
            _mm_storeu_si128(or.as_mut_ptr().add(j) as *mut __m128i, sums);
            j += 4;
        }
        while j < m {
            or[j] = dot_i8_avx2(
                std::slice::from_raw_parts(ar, k),
                std::slice::from_raw_parts(bp.add(j * k), k),
            );
            j += 1;
        }
    }
}

// Rational tanh approximation (the widely used 13/6-degree float
// fit): tanh(x) ≈ x·P(x²)/Q(x²) on the clamped range, max absolute
// error ~1e-7 — three orders of magnitude below the int8 path's 1/127
// activation grid. One clamp, two short Horner chains and a divide
// cost ~1 ns/element, several times less than the exact tanh of
// `crate::tanh`, which reduces its argument and blends every branch.
const TANH_CLAMP: f32 = 7.905_311;
const TANH_ALPHA: [f32; 7] = [
    -2.760_768_4e-16,
    2.000_188e-13,
    -8.604_672e-11,
    5.122_297_2e-8,
    1.485_722_4e-5,
    6.372_619_3e-4,
    4.893_525_5e-3,
];
const TANH_BETA: [f32; 4] = [1.198_258_4e-6, 1.185_347_1e-4, 2.268_434_7e-3, 4.893_525e-3];

/// Scalar fast tanh: fixed clamp → Horner → divide sequence, exactly
/// the operation order of the AVX2 variant, so both produce identical
/// bits on every platform.
#[inline]
pub fn tanh_fast(x: f32) -> f32 {
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    let mut p = TANH_ALPHA[0];
    for &a in &TANH_ALPHA[1..] {
        p = p * x2 + a;
    }
    let mut q = TANH_BETA[0];
    for &b in &TANH_BETA[1..] {
        q = q * x2 + b;
    }
    (x * p) / q
}

/// In-place fast tanh over a matrix — the quantized path's activation.
/// The f32 serving path keeps the exact [`crate::tanh`] (its bytes are
/// pinned); the quantized path trades that for this approximation,
/// which is noise relative to its own quantization error.
pub fn tanh_assign_fast(m: &mut Matrix) {
    #[cfg(target_arch = "x86_64")]
    if crate::matrix::x86::level() >= crate::matrix::x86::LVL_AVX2 {
        // SAFETY: AVX2 verified by `x86::level`.
        unsafe { tanh_fast_avx2(&mut m.data) };
        return;
    }
    for v in &mut m.data {
        *v = tanh_fast(*v);
    }
}

/// # Safety
/// Caller must verify AVX2 at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_fast_avx2(data: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = data.len();
    let clamp_hi = _mm256_set1_ps(TANH_CLAMP);
    let clamp_lo = _mm256_set1_ps(-TANH_CLAMP);
    let mut k = 0usize;
    while k + 8 <= n {
        let x = _mm256_loadu_ps(data.as_ptr().add(k));
        // Identical sequence to `tanh_fast`: clamp, Horner in x² with
        // separate mul/add (no FMA), one divide.
        let x = _mm256_min_ps(_mm256_max_ps(x, clamp_lo), clamp_hi);
        let x2 = _mm256_mul_ps(x, x);
        let mut p = _mm256_set1_ps(TANH_ALPHA[0]);
        for &a in &TANH_ALPHA[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(a));
        }
        let mut q = _mm256_set1_ps(TANH_BETA[0]);
        for &b in &TANH_BETA[1..] {
            q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(b));
        }
        let r = _mm256_div_ps(_mm256_mul_ps(x, p), q);
        _mm256_storeu_ps(data.as_mut_ptr().add(k), r);
        k += 8;
    }
    while k < n {
        let v = data.get_unchecked_mut(k);
        *v = tanh_fast(*v);
        k += 1;
    }
}

/// Dequantize one output row: `out[j] = acc[j] as f32 * sx *
/// w_scale[j] + bias[j]`. The AVX2 variant issues the same
/// cvt/mul/mul/add sequence per element (no FMA), so its bits match
/// this loop exactly.
fn dequant_row(acc: &[i32], sx: f32, w_scale: &[f32], bias: &[f32], out: &mut [f32]) {
    for (j, o) in out.iter_mut().enumerate() {
        *o = acc[j] as f32 * sx * w_scale[j] + bias[j];
    }
}

/// # Safety
/// Caller must verify AVX2 at runtime and pass equal-length slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dequant_row_avx2(acc: &[i32], sx: f32, w_scale: &[f32], bias: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let sxv = _mm256_set1_ps(sx);
    let mut j = 0usize;
    while j + 8 <= n {
        let a = _mm256_cvtepi32_ps(_mm256_loadu_si256(acc.as_ptr().add(j) as *const __m256i));
        let v = _mm256_add_ps(
            _mm256_mul_ps(
                _mm256_mul_ps(a, sxv),
                _mm256_loadu_ps(w_scale.as_ptr().add(j)),
            ),
            _mm256_loadu_ps(bias.as_ptr().add(j)),
        );
        _mm256_storeu_ps(out.as_mut_ptr().add(j), v);
        j += 8;
    }
    while j < n {
        *out.get_unchecked_mut(j) =
            *acc.get_unchecked(j) as f32 * sx * *w_scale.get_unchecked(j) + *bias.get_unchecked(j);
        j += 1;
    }
}

/// Reusable staging buffers for dynamic activation quantization and the
/// integer accumulators of one layer forward; lives in
/// [`InferenceScratch`].
#[derive(Debug, Default)]
pub(crate) struct QuantScratch {
    x_q: Vec<i8>,
    x_scale: Vec<f32>,
    acc: Vec<i32>,
}

impl QuantScratch {
    /// Quantize `x` per-row into the internal buffers, each row padded to
    /// `padded_cols` so the kernels run tail-free.
    fn quantize(&mut self, x: &Matrix, padded_cols: usize) {
        quantize_rows_i8_padded(
            &x.data,
            x.rows,
            x.cols,
            padded_cols,
            &mut self.x_q,
            &mut self.x_scale,
        );
    }
}

/// An int8-quantized [`Linear`]: weights stored transposed `[out x in]`
/// with one symmetric scale per output channel, bias kept f32. Rows are
/// zero-padded to the SIMD step (a padded lane multiplies two zero codes,
/// adding exactly 0 to the i32 sum).
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    w_q: Vec<i8>,
    w_scale: Vec<f32>,
    bias: Vec<f32>,
    in_dim: usize,
    padded_in: usize,
    out_dim: usize,
}

impl QuantizedLinear {
    /// Quantize a trained layer. The `[in x out]` weight is transposed so
    /// each output channel's weights are contiguous for the dot kernel.
    pub fn from_linear(l: &Linear) -> Self {
        let w = l.w.0.borrow();
        let b = l.b.0.borrow();
        let (in_dim, out_dim) = (w.value.rows, w.value.cols);
        let mut wt = vec![0.0f32; in_dim * out_dim];
        for i in 0..in_dim {
            for j in 0..out_dim {
                wt[j * in_dim + i] = w.value.get(i, j);
            }
        }
        let padded_in = padded_width(in_dim);
        let mut w_q = Vec::new();
        let mut w_scale = Vec::new();
        quantize_rows_i8_padded(&wt, out_dim, in_dim, padded_in, &mut w_q, &mut w_scale);
        Self {
            w_q,
            w_scale,
            bias: b.value.data.clone(),
            in_dim,
            padded_in,
            out_dim,
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.in_dim
    }
}

impl InferLayer for QuantizedLinear {
    fn output_dim(&self) -> usize {
        self.out_dim
    }

    /// Per-row activation quantization, integer GEMM, then dequantize at
    /// the boundary as `(acc as f32) * x_scale * w_scale + bias`.
    fn forward_infer(&self, x: &Matrix, scratch: &mut InferenceScratch, out: &mut Matrix) {
        let q = &mut scratch.quant;
        assert_eq!(x.cols, self.in_dim, "quantized forward width mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (x.rows, self.out_dim),
            "quantized forward out shape mismatch"
        );
        q.quantize(x, self.padded_in);
        // `gemm_i8` overwrites every accumulator, so grow-only: no zero
        // fill of memory that is about to be written anyway.
        let need = x.rows * self.out_dim;
        if q.acc.len() < need {
            q.acc.resize(need, 0);
        }
        gemm_i8(
            &q.x_q,
            &self.w_q,
            &mut q.acc[..need],
            x.rows,
            self.padded_in,
            self.out_dim,
        );
        #[cfg(target_arch = "x86_64")]
        let avx2 = crate::matrix::x86::level() >= crate::matrix::x86::LVL_AVX2;
        for i in 0..x.rows {
            let sx = q.x_scale[i];
            let ar = &q.acc[i * self.out_dim..(i + 1) * self.out_dim];
            let or = out.row_mut(i);
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: AVX2 verified above; rows share the layer's
                // out_dim length.
                unsafe { dequant_row_avx2(ar, sx, &self.w_scale, &self.bias, or) };
                continue;
            }
            dequant_row(ar, sx, &self.w_scale, &self.bias, or);
        }
    }

    /// The fast rational tanh: its ~1e-7 error is noise next to the
    /// layer's own quantization error.
    fn tanh_assign(m: &mut Matrix) {
        tanh_assign_fast(m);
    }
}

impl Mlp {
    /// Quantize every layer of a trained MLP. The activations stay f32
    /// between layers and re-quantize per row at the next boundary.
    pub fn quantize(&self) -> Mlp<QuantizedLinear> {
        Mlp {
            layers: self
                .layers
                .iter()
                .map(QuantizedLinear::from_linear)
                .collect(),
            activation: self.activation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Activation;
    use crate::param::ParamSet;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Deterministic i8 fill covering the full range including ±127.
    fn filled_i8(n: usize, salt: u32) -> Vec<i8> {
        let mut x = salt.wrapping_mul(2654435761).wrapping_add(7);
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                ((x >> 16) % 255) as i32 as i8
            })
            .collect()
    }

    #[test]
    fn portable_dot_matches_naive() {
        let a: Vec<i8> = vec![1, -2, 3, 127, -127];
        let b: Vec<i8> = vec![-1, 2, 3, 127, 127];
        assert_eq!(dot_i8_portable(&a, &b), -1 - 4 + 9 + 127 * 127 - 127 * 127);
    }

    #[test]
    fn dispatched_dot_is_exactly_portable() {
        // Lengths straddling the 16-wide AVX2 step and its scalar tail.
        for &n in &[0usize, 1, 15, 16, 17, 31, 32, 100, 257, 1024] {
            let a = filled_i8(n, n as u32);
            let b = filled_i8(n, 1000 + n as u32);
            assert_eq!(dot_i8(&a, &b), dot_i8_portable(&a, &b), "len {n}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_dot_is_exactly_portable() {
        if crate::matrix::x86::level() < crate::matrix::x86::LVL_AVX2 {
            return; // no AVX2 on this machine; the dispatch test covers it
        }
        for &n in &[1usize, 16, 17, 48, 129, 333] {
            let a = filled_i8(n, 7 + n as u32);
            let b = filled_i8(n, 9000 + n as u32);
            // SAFETY: AVX2 presence checked above.
            let simd = unsafe { dot_i8_avx2(&a, &b) };
            assert_eq!(simd, dot_i8_portable(&a, &b), "len {n}");
        }
    }

    #[test]
    fn gemm_matches_per_element_dots() {
        let (n, k, m) = (5, 33, 7);
        let a = filled_i8(n * k, 1);
        let bt = filled_i8(m * k, 2);
        let mut out = vec![0i32; n * m];
        gemm_i8(&a, &bt, &mut out, n, k, m);
        for i in 0..n {
            for j in 0..m {
                assert_eq!(
                    out[i * m + j],
                    dot_i8_portable(&a[i * k..(i + 1) * k], &bt[j * k..(j + 1) * k])
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_quantizer_matches_scalar_ties_even() {
        if crate::matrix::x86::level() < crate::matrix::x86::LVL_AVX2 {
            return;
        }
        // Widths straddling the 8-lane step, values landing exactly on
        // .5 boundaries where ties-even and ties-away disagree.
        for &n in &[1usize, 7, 8, 9, 23, 64] {
            let row: Vec<f32> = (0..n)
                .map(|i| (i as f32 - n as f32 / 2.0) * 0.5 + if i % 3 == 0 { 0.5 } else { 0.0 })
                .collect();
            let inv = 0.731f32;
            let scalar: Vec<i8> = row
                .iter()
                .map(|&x| (x * inv).round_ties_even().clamp(-127.0, 127.0) as i8)
                .collect();
            let mut simd = vec![0i8; n];
            // SAFETY: AVX2 presence checked above; equal lengths.
            unsafe { quantize_row_avx2(&row, inv, &mut simd) };
            assert_eq!(simd, scalar, "width {n}");
        }
    }

    #[test]
    fn fast_tanh_tracks_exact_tanh_and_simd_matches_scalar() {
        // Accuracy: within 1e-6 of the f32 path's exact tanh across the
        // active range and saturated beyond the clamp — noise next to
        // the 1/127 grid.
        let xs: Vec<f32> = (-1000..=1000).map(|i| i as f32 * 0.01).collect();
        for &x in &xs {
            let exact = crate::tanh::tanhf(x);
            assert!(
                (tanh_fast(x) - exact).abs() <= 1e-6,
                "x {x}: {} vs {exact}",
                tanh_fast(x)
            );
        }
        assert!((tanh_fast(50.0) - 1.0).abs() < 1e-6);
        assert!((tanh_fast(-50.0) + 1.0).abs() < 1e-6);
        // Bit-identity between the dispatched matrix path and the scalar
        // expression (on AVX2 machines this exercises the SIMD variant,
        // including its 8-lane/tail split).
        let mut m = Matrix::from_vec(1, xs.len(), xs.clone());
        tanh_assign_fast(&mut m);
        for (&x, &y) in xs.iter().zip(&m.data) {
            assert_eq!(y.to_bits(), tanh_fast(x).to_bits(), "x {x}");
        }
    }

    #[test]
    fn padding_never_changes_a_dot() {
        // Zero pad codes multiply to zero products: the padded dot is the
        // exact i32 the unpadded dot produces, at every ragged width.
        for &k in &[1usize, 7, 17, 28, 48] {
            let data: Vec<f32> = (0..2 * k).map(|i| ((i % 19) as f32 - 9.0) * 0.3).collect();
            let kp = padded_width(k);
            assert_eq!(kp % 16, 0);
            assert!(kp >= k && kp < k + 16);
            let (mut q, mut s) = (Vec::new(), Vec::new());
            let (mut qp, mut sp) = (Vec::new(), Vec::new());
            quantize_rows_i8(&data, 2, k, &mut q, &mut s);
            quantize_rows_i8_padded(&data, 2, k, kp, &mut qp, &mut sp);
            assert_eq!(s, sp, "k {k}: padding changed scales");
            assert_eq!(
                dot_i8(&q[..k], &q[k..]),
                dot_i8(&qp[..kp], &qp[kp..]),
                "k {k}: padded dot diverged"
            );
        }
    }

    #[test]
    fn gemm_dispatch_matches_portable_dots_at_ragged_shapes() {
        // Shapes exercising the 4-column micro-kernel's j tail (m % 4)
        // and k tails on both sides of the 16-lane step.
        for &(n, k, m) in &[
            (3usize, 16usize, 4usize),
            (5, 28, 24),
            (2, 48, 1),
            (7, 15, 6),
        ] {
            let a = filled_i8(n * k, 3);
            let bt = filled_i8(m * k, 4);
            let mut out = vec![0i32; n * m];
            gemm_i8(&a, &bt, &mut out, n, k, m);
            for i in 0..n {
                for j in 0..m {
                    assert_eq!(
                        out[i * m + j],
                        dot_i8_portable(&a[i * k..(i + 1) * k], &bt[j * k..(j + 1) * k]),
                        "({n},{k},{m}) at [{i},{j}]"
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_rows_round_trips_representable_values() {
        // Values that are exact multiples of max_abs/127 survive the
        // round trip exactly.
        let data = vec![127.0f32, -127.0, 0.0, 64.0];
        let mut q = Vec::new();
        let mut s = Vec::new();
        quantize_rows_i8(&data, 1, 4, &mut q, &mut s);
        assert_eq!(s, vec![1.0]);
        assert_eq!(q, vec![127, -127, 0, 64]);
    }

    #[test]
    fn all_zero_row_gets_unit_scale_and_zero_codes() {
        let data = vec![0.0f32; 6];
        let mut q = Vec::new();
        let mut s = Vec::new();
        quantize_rows_i8(&data, 2, 3, &mut q, &mut s);
        assert_eq!(s, vec![1.0, 1.0]);
        assert!(q.iter().all(|&x| x == 0));
    }

    #[test]
    fn quantized_linear_tracks_f32_linear() {
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let l = Linear::new(24, 16, &mut set, &mut rng);
        let ql = QuantizedLinear::from_linear(&l);
        assert_eq!((ql.input_dim(), ql.output_dim()), (24, 16));

        let x = Matrix::from_vec(
            5,
            24,
            (0..5 * 24).map(|i| ((i % 17) as f32 - 8.0) * 0.1).collect(),
        );
        let mut scratch = InferenceScratch::new();
        let mut exact = Matrix::zeros(5, 16);
        l.forward_infer(&x, &mut scratch, &mut exact);
        let mut quant = Matrix::zeros(5, 16);
        ql.forward_infer(&x, &mut scratch, &mut quant);

        // Two 1/127 relative quantization grids (weights + activations)
        // compose to roughly 2% of the row magnitude.
        for r in 0..5 {
            let bound = x.row(r).iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            for (e, q) in exact.row(r).iter().zip(quant.row(r)) {
                assert!(
                    (e - q).abs() <= 0.05 * bound.max(1.0),
                    "row {r}: exact {e} vs quant {q}"
                );
            }
        }
    }

    #[test]
    fn quantized_forward_is_deterministic_across_calls() {
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mlp = Mlp::new(&[10, 12, 4], Activation::Tanh, &mut set, &mut rng);
        let qmlp = mlp.quantize();
        let x = Matrix::from_vec(
            3,
            10,
            (0..30).map(|i| ((i % 13) as f32 - 6.0) * 0.25).collect(),
        );
        let mut scratch = InferenceScratch::new();
        let a = qmlp.forward_infer(&x, &mut scratch);
        let first = a.data.clone();
        scratch.put(a);
        let b = qmlp.forward_infer(&x, &mut scratch);
        assert_eq!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "repeat quantized forward changed bits"
        );
        scratch.put(b);

        // The Tanh hidden layer takes the fast tanh, not the exact one:
        // layer → tanh_assign_fast → layer, bit for bit.
        let mut hidden = Matrix::zeros(3, 12);
        qmlp.layers[0].forward_infer(&x, &mut scratch, &mut hidden);
        tanh_assign_fast(&mut hidden);
        let mut by_hand = Matrix::zeros(3, 4);
        qmlp.layers[1].forward_infer(&hidden, &mut scratch, &mut by_hand);
        assert_eq!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            by_hand.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "quantized Tanh hidden layer must apply tanh_fast"
        );
    }

    #[test]
    fn quantized_mlp_tracks_f32_mlp() {
        let mut set = ParamSet::new();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mlp = Mlp::new(&[8, 16, 8, 1], Activation::Relu, &mut set, &mut rng);
        let qmlp = mlp.quantize();
        let x = Matrix::from_vec(
            4,
            8,
            (0..32).map(|i| ((i % 11) as f32 - 5.0) * 0.2).collect(),
        );
        let mut scratch = InferenceScratch::new();
        let exact = mlp.forward_infer(&x, &mut scratch);
        let quant = qmlp.forward_infer(&x, &mut scratch);
        for (e, q) in exact.data.iter().zip(&quant.data) {
            assert!((e - q).abs() <= 0.1, "exact {e} vs quant {q}");
        }
        scratch.put(exact);
        scratch.put(quant);
    }
}
