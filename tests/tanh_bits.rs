//! The forward's tanh is bit-exact. Every slice kernel the CPU can run
//! (the scalar fdlibm port, and the AVX2 and AVX-512 tiers where
//! present) must return the port's per-element bits for every input
//! (the vector lanes run the same single-precision operations), and the
//! port must return the bits of the golden table below, captured from
//! glibc 2.36's `tanhf` — the function whose outputs the pinned f32
//! forwards were first produced with. The table keeps those pins
//! independent of the host's libm. `tanh_in_place` dispatches to the
//! widest tier only, so each tier is called directly through
//! [`tiers`].
//!
//! The exhaustive 2^32 comparison against the host's `f32::tanh` is
//! `#[ignore]`d; run it in release mode:
//! `cargo test --release --test tanh_bits -- --ignored`.

use spg::nn::tanh::{tanh_in_place, tanhf, tiers, Kernel};
use std::f32::consts::LN_2;

/// `(input bits, glibc tanhf output bits)`, at least one per branch of
/// `tanhf` and of the `expm1f` reduction exponent `k` it goes through.
const GOLDEN: [(u32, u32); 42] = [
    (0x00000000, 0x00000000), // +0
    (0x80000000, 0x80000000), // -0
    (0x00000001, 0x00000001), // smallest subnormal
    (0x807fffff, 0x807fffff), // largest subnormal, negative
    (0x23ffffff, 0x23ffffff), // just below 2^-55
    (0x24000000, 0x24000000), // 2^-55
    (0xb089705f, 0xb089705f), // |x| < 2^-26
    (0x32800000, 0x32800000), // 2^-26
    (0x38d1b717, 0x38d1b718), // k = 0
    (0xbd800000, 0xbd7faacd), // k = 0
    (0x3e2e147b, 0x3e2c6c15), // k = 0
    (0x3e317218, 0x3e2fb0cd), // 0.25 ln2
    (0x3e317219, 0x3e2fb0cd), // just above 0.25 ln2
    (0x3e99999a, 0x3e9526ed), // k = -1
    (0xbf000000, 0xbeec9a9f), // k = -1
    (0x3f051591, 0x3ef486f8), // just below 0.75 ln2
    (0x3f051592, 0x3ef486f8), // 0.75 ln2
    (0x3f19999a, 0x3f097c15), // k = -2
    (0xbf4ccccd, 0xbf29fe50), // k = -2
    (0x3f666666, 0x3f375f4c), // k = -3
    (0x3f7fffff, 0x3f42f7d5), // just below 1
    (0x3f800000, 0x3f42f7d6), // 1, k = 3
    (0xbf800000, 0xbf42f7d6), // -1
    (0x3fc00000, 0x3f67b7cc), // k = 4
    (0xc0200000, 0xbf7c92c1), // k < 23
    (0x40a00000, 0x3f7ffa0d), // k < 23
    (0x40f98872, 0x3f7ffffa), // k crosses 22/23
    (0xc0f9999a, 0xbf7ffffa), // k = 23
    (0xc1000000, 0xbf7ffffc), // k = 23
    (0x41080000, 0x3f7fffff), // k = 24
    (0x41200000, 0x3f800000), // 23 <= k <= 56
    (0x41700000, 0x3f800000), // 23 <= k <= 56
    (0x419ca6b9, 0x3f800000), // k crosses 56/57
    (0xc1a00000, 0xbf800000), // k > 56
    (0x41afffff, 0x3f800000), // just below 22
    (0x41b00000, 0x3f800000), // 22, saturated
    (0xc2c80000, 0xbf800000), // saturated
    (0x7f7fffff, 0x3f800000), // saturated
    (0x7f800000, 0x3f800000), // +inf
    (0xff800000, 0xbf800000), // -inf
    (0x7fc00000, 0x7fc00000), // quiet NaN
    (0xff800001, 0xffc00001), // signalling NaN, negative
];

/// Written before and after each slice a kernel runs on; a kernel that
/// stores past its slice turns it into tanh(0.5) ≠ 0.5.
const GUARD: f32 = 0.5;

/// Run `inputs` through `kernel` in consecutive slices of `len` (the
/// last may be shorter), each inside a guarded buffer, and compare every
/// output with [`tanhf`].
fn assert_tier_matches_port(tier: &str, kernel: Kernel, inputs: &[f32], len: usize) {
    let mut buf = Vec::with_capacity(len + 2);
    for chunk in inputs.chunks(len) {
        buf.clear();
        buf.push(GUARD);
        buf.extend_from_slice(chunk);
        buf.push(GUARD);
        kernel(&mut buf[1..=chunk.len()]);
        for (&x, &y) in chunk.iter().zip(&buf[1..]) {
            assert_eq!(
                y.to_bits(),
                tanhf(x).to_bits(),
                "{tier}: x = {x:e} ({:#010x}) in a slice of {}",
                x.to_bits(),
                chunk.len()
            );
        }
        assert_eq!(
            (buf[0], buf[chunk.len() + 1]),
            (GUARD, GUARD),
            "{tier} wrote outside a slice of {}",
            chunk.len()
        );
    }
}

/// `x` and its `ulps` nearest neighbours on each side, both signs.
fn around(x: f32, ulps: u32) -> impl Iterator<Item = f32> {
    let b = x.to_bits();
    (b.saturating_sub(ulps)..=b + ulps).flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
}

/// Every branch threshold of `tanhf` and `expm1f`, as `|x|` of the tanh
/// input, with neighbours; plus zeros, subnormals, infinities and NaNs.
fn edge_inputs() -> Vec<f32> {
    let mut inputs: Vec<f32> = [
        f32::from_bits(0x2400_0000),       // 2^-55: x * (1 + x) ends
        f32::from_bits(0x3280_0000),       // 2^-26: expm1 returns its input below
        f32::from_bits(0x3eb1_7218) / 2.0, // 0.25 ln2: expm1 starts reducing
        f32::from_bits(0x3f85_1592) / 2.0, // 0.75 ln2: k = -1 ends
        f32::from_bits(0x4195_b844) / 2.0, // 13.5 ln2: expm1's large-argument cut
        1.0,                               // expm1(2|x|) instead of expm1(-2|x|)
        22.0,                              // saturation
        f32::MIN_POSITIVE,
    ]
    .into_iter()
    .flat_map(|x| around(x, 2))
    .collect();
    // Where k = trunc(2|x| / ln2 ± 0.5) steps: -2/-3 at 1.25 ln2, 3/4,
    // 22/23, 56/57. The crossing sits within a few ulps of m ln2 / 2.
    for m in [2.5f32, 3.5, 22.5, 56.5] {
        inputs.extend(around(m * LN_2 / 2.0, 64));
    }
    inputs.extend(around(0.0, 3)); // ±0 and the smallest subnormals

    // Inputs whose bits change if expm1's `1 + hxs * (Q1 + ...)` is
    // contracted to a fused multiply-add: 70 of the 2^32 inputs do, too
    // few for the strided sweep to meet one.
    for bits in [
        0x3dc2_562e,
        0x3df7_ab22,
        0x3e0d_4d10,
        0x3e20_e9cd,
        0x3e42_c9b2,
        0x3e6d_aba9,
    ] {
        inputs.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
    }
    for bits in [
        0x0040_0000, // mid subnormal
        0x007f_ffff, // largest subnormal
        0x7f7f_ffff, // f32::MAX
        0x7f80_0000, // inf
        0x7f80_0001, // signalling NaN
        0x7fc0_0000, // quiet NaN
        0x7fff_ffff, // NaN, full payload
    ] {
        inputs.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
    }
    inputs
}

#[test]
fn every_tier_matches_scalar_port_bitwise() {
    let tiers = tiers();
    eprintln!(
        "tanh tiers on this CPU: {:?}",
        tiers.iter().map(|&(name, _)| name).collect::<Vec<_>>()
    );
    // A strided sweep over all 2^32 bit patterns (~2^22 of them).
    let sweep: Vec<f32> = (0..=u32::MAX).step_by(1031).map(f32::from_bits).collect();
    // Branch edges at every slice length 1..=40: 8- and 16-lane bodies,
    // scalar and masked tails, and slices with no full vector at all.
    let edges = edge_inputs();
    for &(tier, kernel) in &tiers {
        assert_tier_matches_port(tier, kernel, &sweep, 4096);
        for len in 1..=40 {
            assert_tier_matches_port(tier, kernel, &edges, len);
        }
        kernel(&mut []);
    }
    tanh_in_place(&mut []);
}

#[test]
fn port_and_kernel_reproduce_glibc_golden_bits() {
    for (x, y) in GOLDEN {
        let x = f32::from_bits(x);
        assert_eq!(
            tanhf(x).to_bits(),
            y,
            "tanhf({x:e}) ({:#010x})",
            x.to_bits()
        );
    }
    // The whole table through each slice kernel and the dispatch, at
    // every alignment of a 16-lane body against the table.
    let xs: Vec<f32> = GOLDEN.iter().map(|&(x, _)| f32::from_bits(x)).collect();
    let dispatched: (&str, Kernel) = ("dispatch", tanh_in_place);
    for (tier, kernel) in tiers().into_iter().chain([dispatched]) {
        for start in 0..16 {
            let mut out = xs[start..].to_vec();
            kernel(&mut out);
            for (&(x, y), &got) in GOLDEN[start..].iter().zip(&out) {
                assert_eq!(got.to_bits(), y, "{tier} at {x:#010x}, offset {start}");
            }
        }
    }
}

/// All 2^32 inputs, every tier and the port against the host's
/// `f32::tanh`. About a minute in release mode on 2 threads.
#[test]
#[ignore = "exhaustive; run with --release -- --ignored"]
fn exhaustive_match_with_host_libm() {
    const BLOCK: u64 = 1 << 16;
    let tiers = tiers();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let mismatches: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let tiers = &tiers;
                s.spawn(move || {
                    let mut bad = 0u64;
                    let mut want = vec![0u32; BLOCK as usize];
                    let mut buf = vec![0.0f32; BLOCK as usize];
                    let mut start = w * BLOCK;
                    while start < 1 << 32 {
                        let x = |i: usize| f32::from_bits((start + i as u64) as u32);
                        for (i, w) in want.iter_mut().enumerate() {
                            *w = x(i).tanh().to_bits();
                        }
                        let mut report = |what: &str, i: usize, got: f32| {
                            if got.to_bits() != want[i] {
                                if bad < 8 {
                                    eprintln!(
                                        "x {:#010x}: {what} {:#010x}, libm {:#010x}",
                                        x(i).to_bits(),
                                        got.to_bits(),
                                        want[i]
                                    );
                                }
                                bad += 1;
                            }
                        };
                        for i in 0..BLOCK as usize {
                            report("tanhf", i, tanhf(x(i)));
                        }
                        for &(tier, kernel) in tiers {
                            for (i, v) in buf.iter_mut().enumerate() {
                                *v = x(i);
                            }
                            kernel(&mut buf);
                            for (i, &y) in buf.iter().enumerate() {
                                report(tier, i, y);
                            }
                        }
                        start += threads * BLOCK;
                    }
                    bad
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(
        mismatches, 0,
        "tier outputs whose tanh bits differ from the host libm"
    );
}
