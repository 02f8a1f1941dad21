//! Randomized kernel properties with shrinking.
//!
//! The vendored mini-proptest has no shrinker, so these tests hand-roll
//! one: cases are drawn from a seeded stream (reproducible run-to-run),
//! and on failure the dimensions are shrunk toward the smallest failing
//! `(n, k, m)` before panicking — the report names dims and the data
//! seed, which replays the exact case.
//!
//! Property: `matmul` / `t_matmul` / `matmul_t` are **bitwise** identical
//! to the naive reference loops (single accumulator starting at +0.0,
//! ascending inner index, no zero-skip) across ragged shapes and at every
//! layer shape of the default model. Every tier of the gathered-start
//! GEMM is bitwise identical to the same chain started at its gathered
//! `init` row.

use proptest::TestRng;
use spg_nn::matrix::gathered_tiers;
use spg_nn::Matrix;

/// Ragged-leaning dimension pool: 1 and Nx1/1xN shapes, non-multiples of
/// 8, and sizes straddling the AVX2 kernel's 4-row and 24-column tiles,
/// its 8-lane panels and the SSE2 16-column panel.
const DIMS: &[usize] = &[
    1, 2, 3, 4, 5, 7, 8, 9, 15, 17, 23, 24, 25, 31, 32, 33, 40, 63, 64, 65, 70, 129,
];

fn draw_dim(rng: &mut TestRng) -> usize {
    if rng.below(4) == 0 {
        rng.below(70) as usize + 1
    } else {
        DIMS[rng.below(DIMS.len() as u64) as usize]
    }
}

/// Deterministic fill for a given seed: mostly uniform in [-2, 2], with
/// exact zeros of both signs mixed in and exact powers of two. The
/// kernels must not special-case zeros (see the zero-skip removal note in
/// `matrix.rs`), and an element whose products are all -0.0 pins the
/// +0.0 start of its chain: naive gives +0.0 + -0.0 = +0.0.
fn fill(rows: usize, cols: usize, rng: &mut TestRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| match rng.below(8) {
            0 => [0.0f32, -0.0][rng.below(2) as usize],
            1 => [-1.0f32, 0.5, 2.0, -0.25][rng.below(4) as usize],
            _ => (rng.unit_f64() * 4.0 - 2.0) as f32,
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        for j in 0..b.cols {
            let mut s = 0.0f32;
            for kk in 0..a.cols {
                s += a.get(i, kk) * b.get(kk, j);
            }
            out.set(i, j, s);
        }
    }
    out
}

fn naive_t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols, b.cols);
    for i in 0..a.cols {
        for j in 0..b.cols {
            let mut s = 0.0f32;
            for kk in 0..a.rows {
                s += a.get(kk, i) * b.get(kk, j);
            }
            out.set(i, j, s);
        }
    }
    out
}

fn naive_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.rows);
    for i in 0..a.rows {
        for j in 0..b.rows {
            let mut s = 0.0f32;
            for kk in 0..a.cols {
                s += a.get(i, kk) * b.get(j, kk);
            }
            out.set(i, j, s);
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data.iter().map(|x| x.to_bits()).collect()
}

/// One case: all three products, bitwise against naive.
fn check_strict(n: usize, k: usize, m: usize, seed: u64) -> Result<(), String> {
    let mut rng = TestRng::new(seed);
    let a = fill(n, k, &mut rng);
    let b = fill(k, m, &mut rng);
    if bits(&a.matmul(&b)) != bits(&naive_matmul(&a, &b)) {
        return Err("matmul".into());
    }
    let at = fill(k, n, &mut rng);
    if bits(&at.t_matmul(&b)) != bits(&naive_t_matmul(&at, &b)) {
        return Err("t_matmul".into());
    }
    let bt = fill(m, k, &mut rng);
    if bits(&a.matmul_t(&bt)) != bits(&naive_matmul_t(&a, &bt)) {
        return Err("matmul_t".into());
    }
    Ok(())
}

/// The naive chain of `Matrix::matmul_gathered_into`: element `(i, j)`
/// starts at `init[idx[i]][j]`, then adds `a[i][kk] * b[kk][j]` for
/// ascending `kk`.
fn naive_gathered(a: &Matrix, b: &Matrix, init: &Matrix, idx: &[u32]) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    for (i, &r) in idx.iter().enumerate() {
        for j in 0..b.cols {
            let mut s = init.get(r as usize, j);
            for kk in 0..a.cols {
                s += a.get(i, kk) * b.get(kk, j);
            }
            out.set(i, j, s);
        }
    }
    out
}

/// One gathered case: `n` output rows over an `init` of `rows` rows,
/// indices drawn with repeats and in no order, every tier called
/// directly into a NaN-filled `out`, then the dispatched entry.
fn check_gathered(n: usize, k: usize, m: usize, rows: usize, seed: u64) -> Result<(), String> {
    let mut rng = TestRng::new(seed);
    let a = fill(n, k, &mut rng);
    let b = fill(k, m, &mut rng);
    let init = fill(rows, m, &mut rng);
    let idx: Vec<u32> = (0..n).map(|_| rng.below(rows as u64) as u32).collect();
    let want = bits(&naive_gathered(&a, &b, &init, &idx));
    // `b` as a band below three other rows, as the layers read it.
    let mut stacked = fill(3, m, &mut rng);
    stacked.data.extend_from_slice(&b.data);
    stacked.rows += k;
    for (name, kernel) in gathered_tiers() {
        let mut out = Matrix::from_vec(n, m, vec![f32::NAN; n * m]);
        kernel(&a, &stacked, 3, &init, &idx, &mut out);
        if bits(&out) != want {
            return Err(format!("gathered {name} tier"));
        }
    }
    let mut out = Matrix::from_vec(n, m, vec![f32::NAN; n * m]);
    a.matmul_gathered_into(&stacked, 3, &init, &idx, &mut out);
    if bits(&out) != want {
        return Err("matmul_gathered_into".into());
    }
    Ok(())
}

/// Shrink a failing `(n, k, m)` toward minimal: repeatedly halve, then
/// decrement, each dimension while the case still fails.
fn shrink(
    mut dims: [usize; 3],
    seed: u64,
    check: &dyn Fn(usize, usize, usize, u64) -> Result<(), String>,
) -> [usize; 3] {
    let fails = |d: [usize; 3]| check(d[0], d[1], d[2], seed).is_err();
    loop {
        let mut shrunk = false;
        for i in 0..3 {
            while dims[i] > 1 {
                let mut cand = dims;
                cand[i] = (dims[i] / 2).max(1);
                if cand[i] == dims[i] || !fails(cand) {
                    break;
                }
                dims = cand;
                shrunk = true;
            }
            let mut cand = dims;
            if cand[i] > 1 {
                cand[i] -= 1;
                if fails(cand) {
                    dims = cand;
                    shrunk = true;
                }
            }
        }
        if !shrunk {
            return dims;
        }
    }
}

fn run_cases(
    name: &str,
    cases: u64,
    check: impl Fn(usize, usize, usize, u64) -> Result<(), String>,
) {
    let mut rng = TestRng::new(proptest::seed_of(name));
    for case in 0..cases {
        let (n, k, m) = (draw_dim(&mut rng), draw_dim(&mut rng), draw_dim(&mut rng));
        let seed = rng.next_u64();
        if let Err(msg) = check(n, k, m, seed) {
            let min = shrink([n, k, m], seed, &check);
            panic!(
                "{name} case {case}: {msg} at dims {n}x{k}x{m} (seed {seed}); \
                 shrunk to {}x{}x{}",
                min[0], min[1], min[2]
            );
        }
    }
}

#[test]
fn strict_kernels_match_naive_bitwise() {
    run_cases("strict_kernels_match_naive_bitwise", 150, check_strict);
}

/// The classic ragged pins: row/column vectors and widths just off the
/// 8/32-lane boundaries. Then every product the default model runs,
/// forward and backward: a layer `[rows x in]·[in x out]` gives its
/// forward `(rows, in, out)`, its `dA = g·Wᵀ` `(rows, out, in)` and its
/// `dW = Xᵀ·g` `(in, rows, out)`, at edge counts `E` and node counts `N`
/// that hit every `n % 4` row remainder of the 4-row tile.
/// (`check_strict` runs all three products at each triple.)
#[test]
fn ragged_shape_pins() {
    let mut shapes = vec![
        (1, 130, 1),
        (1, 1, 130),
        (130, 1, 1),
        (1, 7, 9),
        (9, 7, 1),
        (3, 33, 31),
        (33, 31, 33),
    ];
    for e in [797, 798, 799, 800, 1700] {
        shapes.extend([
            (e, 28, 24),
            (e, 24, 28),
            (28, e, 24),
            (e, 56, 24),
            (e, 24, 56),
            (56, e, 24),
            (e, 24, 1),
            (24, e, 1),
            (e, 4, 8),
        ]);
    }
    for v in [201, 202, 203, 204] {
        shapes.extend([(v, 48, 24), (v, 24, 48), (48, v, 24), (v, 6, 24)]);
    }
    for (n, k, m) in shapes {
        check_strict(n, k, m, 42).unwrap_or_else(|op| panic!("{op} at {n}x{k}x{m}"));
    }
}

#[test]
fn gathered_kernels_match_naive_bitwise() {
    run_cases(
        "gathered_kernels_match_naive_bitwise",
        150,
        |n, k, m, seed| {
            // As many init rows as output rows, fewer, or more.
            let rows = [n, n.div_ceil(3), 2 * n + 1][(seed % 3) as usize];
            check_gathered(n, k, m, rows, seed)
        },
    );
}

/// k = 0 copies the gathered init rows exactly, −0.0 included; a chain
/// started at −0.0 whose every product is ±0.0 stays −0.0, where the
/// plain kernel's +0.0 start would give +0.0. The model's shapes follow:
/// the message layer's node band `(N, 24, 24)` then edge band
/// `(R, 4, 24)`, and the merge layer's head band then its tail.
#[test]
fn gathered_pins() {
    for (n, m, rows) in [(1, 1, 1), (5, 9, 2), (33, 24, 7), (4, 40, 4)] {
        let init = Matrix::from_vec(
            rows,
            m,
            (0..rows * m).map(|x| [-0.0, 0.0, 1.5][x % 3]).collect(),
        );
        let idx: Vec<u32> = (0..n).map(|i| ((i * 5 + 3) % rows) as u32).collect();
        let (empty, none) = (Matrix::zeros(n, 0), Matrix::zeros(0, m));
        let want = bits(&naive_gathered(&empty, &none, &init, &idx));
        let zeros = Matrix::from_vec(n, 2, vec![-0.0; 2 * n]);
        let want_zero_terms = bits(&naive_gathered(&zeros, &Matrix::zeros(2, m), &init, &idx));
        for (name, kernel) in gathered_tiers() {
            let mut out = Matrix::from_vec(n, m, vec![f32::NAN; n * m]);
            kernel(&empty, &none, 0, &init, &idx, &mut out);
            assert_eq!(bits(&out), want, "{name}: k = 0 at {n}x{m}");
            assert!(out.data.iter().any(|x| x.to_bits() == (-0.0f32).to_bits()));
            kernel(&zeros, &Matrix::zeros(2, m), 0, &init, &idx, &mut out);
            assert_eq!(bits(&out), want_zero_terms, "{name}: ±0.0 terms at {n}x{m}");
        }
    }
    for v in [201, 202, 203, 204] {
        for rows in [344, 394, 797, 800] {
            for (k, m) in [(24, 24), (4, 24), (32, 24)] {
                check_gathered(rows, k, m, v, 42)
                    .unwrap_or_else(|op| panic!("{op} at {rows}x{k}x{m} from {v}"));
            }
        }
    }
}
