//! The workspace's single-precision `tanh`: a port of fdlibm's `tanhf`
//! (and the slice of `expm1f` it calls), plus an AVX2 kernel that runs
//! the same single-precision operations on eight lanes at once.
//!
//! # Why a port, and why these exact operations
//!
//! The f32 forward's bytes are pinned (`tests/infer.rs`, the serve
//! transcripts, kill-and-resume `cmp`), and those bytes were first
//! produced by glibc's `tanhf`, which is fdlibm's `s_tanhf.c` +
//! `s_expm1f.c` compiled as plain scalar SSE code: every operation is a
//! correctly rounded IEEE single-precision `add`/`sub`/`mul`/`div`, with
//! no FMA contraction. Repeating the same operations in the same order,
//! on the same constants, therefore yields the same bits on any IEEE
//! machine — the forward stops depending on the host's libm, and the
//! vector kernel, whose lanes each repeat that scalar chain, returns
//! exactly what [`tanhf`] returns.
//!
//! # Branches as lane masks
//!
//! fdlibm picks a formula per input range (tiny, `|x| < 1`, `|x| >= 1`,
//! saturated, non-finite) and, inside `expm1f`, per reduction exponent
//! `k`. The AVX2 kernel evaluates every formula on all eight lanes and
//! blends the results by comparison masks (DESIGN.md §13: never branch on
//! operand values), so its cost is independent of the data and each lane
//! still gets the bits of the one branch fdlibm would take for it. Tails
//! shorter than a vector go through [`tanhf`], which is bit-identical.

// fdlibm `s_expm1f.c` constants, as bit patterns so no decimal-literal
// rounding can creep in.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180); // 6.9313812256e-01
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1); // 9.0580006145e-06
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b); // 1.4426950216e+00
const Q1: f32 = f32::from_bits(0xbd08_8889); // -3.3333335072e-02
const Q2: f32 = f32::from_bits(0x3ad0_0d01); // 1.5873016091e-03
const Q3: f32 = f32::from_bits(0xb8a6_70cd); // -7.9365076090e-05
const Q4: f32 = f32::from_bits(0x3686_7e54); // 4.0082177293e-06
const Q5: f32 = f32::from_bits(0xb457_edbb); // -2.0109921195e-07

// Branch thresholds on the magnitude bits `|x|.to_bits()`.
/// `tanhf`: `|x| >= 2^-55` leaves the `x * (1 + x)` shortcut.
const TANH_TINY: u32 = 0x2400_0000;
/// `tanhf`: `|x| >= 1` switches to `1 - 2 / (expm1(2|x|) + 2)`.
const TANH_ONE: u32 = 0x3f80_0000;
/// `tanhf`: `|x| >= 22` saturates to `±1`.
const TANH_SAT: u32 = 0x41b0_0000;
/// `±inf` and NaN.
const NON_FINITE: u32 = 0x7f80_0000;
/// `expm1f`: `|x| < 2^-25` returns `x`.
const EXPM1_TINY: u32 = 0x3300_0000;
/// `expm1f`: `|x| > 0.5 ln2` is reduced to `k ln2 + r`.
const EXPM1_REDUCE: u32 = 0x3eb1_7218;
/// `expm1f`: `|x| < 1.5 ln2` reduces with `k = ±1` directly.
const EXPM1_NEAR: u32 = 0x3f85_1592;

/// fdlibm `tanhf`: the reference for the AVX2 kernel and its tail path.
pub fn tanhf(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let negative = x.is_sign_negative();
    if ix >= NON_FINITE {
        // tanh(±inf) = ±1; NaN propagates through the division.
        return if negative {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    if ix < TANH_TINY {
        // fdlibm returns `x` for ±0 first; `±0 * (1 ± 0)` is that same ±0.
        return x * (1.0 + x);
    }
    let ax = x.abs();
    let z = if ix >= TANH_SAT {
        1.0 // fdlibm's `one - tiny`, which rounds to 1
    } else if ix >= TANH_ONE {
        let t = expm1f(2.0 * ax);
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1f(-2.0 * ax);
        -t / (t + 2.0)
    };
    if negative {
        -z
    } else {
        z
    }
}

/// fdlibm `expm1f` on the inputs [`tanhf`] passes it: `-2|x|` in
/// `(-2, -2^-54]` and `2|x|` in `[2, 44)`. Over that domain the
/// reduction exponent `k` is in `-3..=0` or `3..=63`, so fdlibm's
/// overflow, `-inf`/NaN and `k == 1` branches are unreachable and left
/// out.
fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    if hx < EXPM1_TINY {
        return x;
    }
    // Argument reduction, x = k ln2 + (x - c) with `x` now in
    // [-0.5 ln2, 0.5 ln2]. For |x| < 1.5 ln2 fdlibm writes the k = ±1
    // case out as `x ∓ ln2_hi` and `±ln2_lo`; multiplying by t = ±1 is
    // exact and `x - (-y)` is `x + y` in IEEE arithmetic, so the one
    // formula below covers it.
    let (k, x, c) = if hx > EXPM1_REDUCE {
        let t: f32 = if hx < EXPM1_NEAR {
            1.0f32.copysign(x)
        } else {
            (INV_LN2 * x + 0.5f32.copysign(x)) as i32 as f32
        };
        let hi = x - t * LN2_HI;
        let lo = t * LN2_LO;
        let r = hi - lo;
        (t as i32, r, (hi - r) - lo)
    } else {
        (0, x, 0.0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = x * (e - c) - c - hxs;
    debug_assert_ne!(k, 1, "tanhf never reduces with k == 1");
    // `y * 2^k` by adding k to the exponent field (no over/underflow
    // for the k above).
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    if k == -1 {
        0.5 * (x - e) - 0.5
    } else if k <= -2 || k > 56 {
        scale(1.0 - (e - x)) - 1.0
    } else if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 - 2^-k
        scale(t - (e - x))
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^-k
        scale(x - (e + t) + 1.0)
    }
}

/// In-place [`tanhf`] over `data`: the AVX2 kernel where the CPU has it
/// (detected once, see `matrix::x86::level`), [`tanhf`] otherwise and
/// for the last `len % 8` elements. Bit-identical to mapping [`tanhf`].
pub fn tanh_in_place(data: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::matrix::x86::level() >= crate::matrix::x86::LVL_AVX2 {
        // SAFETY: AVX2 verified by `x86::level`.
        unsafe { tanh_avx2(data) };
        return;
    }
    for v in data {
        *v = tanhf(*v);
    }
}

/// # Safety
/// Caller must verify AVX2 at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_avx2(data: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut chunks = data.chunks_exact_mut(8);
    for chunk in &mut chunks {
        let p = chunk.as_mut_ptr();
        _mm256_storeu_ps(p, tanh8(_mm256_loadu_ps(p)));
    }
    for v in chunks.into_remainder() {
        *v = tanhf(*v);
    }
}

/// Eight lanes of [`tanhf`]: every branch computed, then blended.
///
/// # Safety
/// Caller must verify AVX2 at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn tanh8(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let ps = _mm256_set1_ps;
    let epi = |v: u32| _mm256_set1_epi32(v as i32);
    // Lane masks from signed compares of non-negative magnitude bits.
    let below =
        |bits: __m256i, bound: u32| _mm256_castsi256_ps(_mm256_cmpgt_epi32(epi(bound), bits));
    let at_least =
        |bits: __m256i, bound: u32| _mm256_castsi256_ps(_mm256_cmpgt_epi32(bits, epi(bound - 1)));
    let sign_bit = ps(-0.0);

    let sign = _mm256_and_ps(x, sign_bit);
    let ax = _mm256_andnot_ps(sign_bit, x);
    let ix = _mm256_castps_si256(ax);
    let big = at_least(ix, TANH_ONE);

    // expm1f(a) with a = 2|x| for |x| >= 1, a = -2|x| below.
    let a_abs = _mm256_mul_ps(ps(2.0), ax);
    let a_sign = _mm256_andnot_ps(big, sign_bit);
    let a = _mm256_or_ps(a_abs, a_sign);
    let ha = _mm256_castps_si256(a_abs);
    // t = k as f32: ±1 near, trunc(a/ln2 ± 0.5) further out, and 0 (no
    // reduction) at or below 0.5 ln2 — where hi = a, lo = 0, r = a and
    // c = 0 fall out of the same formulas exactly.
    let t_far = _mm256_cvtepi32_ps(_mm256_cvttps_epi32(_mm256_add_ps(
        _mm256_mul_ps(ps(INV_LN2), a),
        _mm256_or_ps(ps(0.5), a_sign),
    )));
    let t = _mm256_blendv_ps(t_far, _mm256_or_ps(ps(1.0), a_sign), below(ha, EXPM1_NEAR));
    let t = _mm256_and_ps(t, at_least(ha, EXPM1_REDUCE + 1));
    let k = _mm256_cvttps_epi32(t);
    let hi = _mm256_sub_ps(a, _mm256_mul_ps(t, ps(LN2_HI)));
    let lo = _mm256_mul_ps(t, ps(LN2_LO));
    let r = _mm256_sub_ps(hi, lo);
    let c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

    let hfx = _mm256_mul_ps(ps(0.5), r);
    let hxs = _mm256_mul_ps(r, hfx);
    let mut r1 = _mm256_mul_ps(hxs, ps(Q5));
    for q in [Q4, Q3, Q2, Q1] {
        r1 = _mm256_mul_ps(hxs, _mm256_add_ps(ps(q), r1));
    }
    let r1 = _mm256_add_ps(ps(1.0), r1);
    let tt = _mm256_sub_ps(ps(3.0), _mm256_mul_ps(r1, hfx));
    let e = _mm256_mul_ps(
        hxs,
        _mm256_div_ps(
            _mm256_sub_ps(r1, tt),
            _mm256_sub_ps(ps(6.0), _mm256_mul_ps(r, tt)),
        ),
    );
    // k == 0
    let em1_k0 = _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));
    // k != 0
    let e = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c), hxs);
    let e_minus_r = _mm256_sub_ps(e, r);
    let k_exp = _mm256_slli_epi32::<23>(k);
    let scale = |y: __m256| _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), k_exp));
    let em1_m1 = _mm256_sub_ps(_mm256_mul_ps(ps(0.5), _mm256_sub_ps(r, e)), ps(0.5));
    let em1_wide = _mm256_sub_ps(scale(_mm256_sub_ps(ps(1.0), e_minus_r)), ps(1.0));
    // 1 - 2^-k. A negative k is a shift count of 32 or more, which
    // `srlv` turns into 0; those lanes are blended away below.
    let one_minus = _mm256_castsi256_ps(_mm256_sub_epi32(
        epi(0x3f80_0000),
        _mm256_srlv_epi32(epi(0x0100_0000), k),
    ));
    let em1_mid = scale(_mm256_sub_ps(one_minus, e_minus_r));
    let two_pow_neg_k =
        _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(epi(0x7f), k)));
    let em1_high = scale(_mm256_add_ps(
        _mm256_sub_ps(r, _mm256_add_ps(e, two_pow_neg_k)),
        ps(1.0),
    ));
    let k_is = |v: i32| _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(v)));
    let k_above = |v: i32| _mm256_castsi256_ps(_mm256_cmpgt_epi32(k, _mm256_set1_epi32(v)));
    let k_below = |v: i32| _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(v), k));
    let mut em1 = _mm256_blendv_ps(em1_mid, em1_high, k_above(22));
    em1 = _mm256_blendv_ps(em1, em1_wide, _mm256_or_ps(k_above(56), k_below(-1)));
    em1 = _mm256_blendv_ps(em1, em1_m1, k_is(-1));
    em1 = _mm256_blendv_ps(em1, em1_k0, k_is(0));
    em1 = _mm256_blendv_ps(em1, a, below(ha, EXPM1_TINY));

    // tanh from expm1: 1 - 2/(t+2) for |x| >= 1, -t/(t+2) below — one
    // division with the numerator picked per lane.
    let num = _mm256_blendv_ps(_mm256_xor_ps(em1, sign_bit), ps(2.0), big);
    let q = _mm256_div_ps(num, _mm256_add_ps(em1, ps(2.0)));
    let mut z = _mm256_blendv_ps(q, _mm256_sub_ps(ps(1.0), q), big);
    z = _mm256_blendv_ps(z, ps(1.0), at_least(ix, TANH_SAT));
    z = _mm256_xor_ps(z, sign);
    let tiny = _mm256_mul_ps(x, _mm256_add_ps(ps(1.0), x));
    z = _mm256_blendv_ps(z, tiny, below(ix, TANH_TINY));
    // ±inf took the saturated ±1 above, which is fdlibm's `1/x ± 1` for
    // them. For NaN that expression returns the input NaN quieted, and
    // so does `x + x`, without a second division.
    _mm256_blendv_ps(z, _mm256_add_ps(x, x), at_least(ix, NON_FINITE + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place, over the sign-magnitude order.
    fn ulps(a: f32, b: f32) -> u32 {
        let ordered = |x: f32| {
            let b = x.to_bits() as i32;
            if b < 0 {
                i32::MIN - b
            } else {
                b
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    #[test]
    fn port_is_a_faithful_tanh() {
        // Bit-exactness against glibc is pinned in the root tests; this
        // checks, without any libm's bits, that the port is a tanh at
        // all: within 2 ulp of the f64 result rounded to f32 (over every
        // 7th positive float, about 1 in 6,000 is 2 ulp off, none more).
        for bits in (0..0x7f80_0000u32).step_by(4093) {
            for x in [f32::from_bits(bits), -f32::from_bits(bits)] {
                let want = (x as f64).tanh() as f32;
                assert!(ulps(tanhf(x), want) <= 2, "x {x:e}: {} vs {want}", tanhf(x));
            }
        }
        assert_eq!(tanhf(f32::INFINITY), 1.0);
        assert_eq!(tanhf(f32::NEG_INFINITY), -1.0);
        assert!(tanhf(f32::NAN).is_nan());
    }
}
