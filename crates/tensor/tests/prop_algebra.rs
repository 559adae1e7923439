//! Property-based tests of the algebraic identities the rest of the
//! workspace silently relies on.

use cascn_tensor::Matrix;
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// One matrix entry: mostly ordinary values, with exact zeros of both
/// signs, values whose products underflow, and subnormals mixed in.
fn entry() -> impl Strategy<Value = f32> {
    prop_oneof![
        -2.0f32..2.0,
        -2.0f32..2.0,
        -2.0f32..2.0,
        -2.0f32..2.0,
        Just(0.0f32),
        Just(-0.0f32),
        // Products of two of these underflow to a subnormal or to ±0.
        -1e-22f32..1e-22,
        // Subnormals.
        -1e-39f32..1e-39,
    ]
}

/// A `rows x cols` matrix of [`entry`] values with up to two entries
/// overwritten by NaN, `+inf` or `-inf` (`poison` holds a flat index and a
/// choice among the three).
fn poisoned(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    let poison = proptest::collection::vec((0..rows * cols, 0usize..3), 0..3);
    (proptest::collection::vec(entry(), rows * cols), poison).prop_map(move |(mut v, poison)| {
        for (at, kind) in poison {
            v[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind];
        }
        Matrix::from_vec(rows, cols, v)
    })
}

/// The textbook product `Σ_p a(i, p)·b(p, j)` of an `m x k` and a `k x n`
/// operand given as element accessors: each sum runs in ascending `p` from
/// `+0.0` with a separate multiply and add.
fn naive(
    (m, k, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Matrix {
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0f32;
        for p in 0..k {
            acc += a(i, p) * b(p, j);
        }
        acc
    })
}

/// Bit-for-bit equality, except that a NaN only has to meet a NaN: which
/// payload and sign a NaN carries out of an operation on two NaNs is left
/// open by IEEE 754, and the compiler may commute the operands.
fn same_bits(got: &Matrix, want: &Matrix) -> Result<(), String> {
    if got.shape() != want.shape() {
        return Err(format!("shape {:?} vs {:?}", got.shape(), want.shape()));
    }
    for (at, (&g, &w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        let same = if w.is_nan() { g.is_nan() } else { g.to_bits() == w.to_bits() };
        if !same {
            let (gb, wb) = (g.to_bits(), w.to_bits());
            return Err(format!("entry {at}: got {g:e} ({gb:#x}), want {w:e} ({wb:#x})"));
        }
    }
    Ok(())
}

/// Sizes of the three matmul operands, 1..=70 per side, so every
/// remainder row and column of the kernel's tiles occurs.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=70, 1usize..=70, 1usize..=70)
}

/// Elementwise comparison with a tolerance scaled for f32 accumulation.
fn close(a: &Matrix, b: &Matrix, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(&x, &y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_associative(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(close(&left, &right, 1e-4), "\n{left:?}\nvs\n{right:?}");
    }

    #[test]
    fn matmul_distributes_over_add(a in matrix(3, 4), b in matrix(4, 2), c in matrix(4, 2)) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(close(&left, &right, 1e-4));
    }

    #[test]
    fn transpose_is_an_involution(a in matrix(4, 6)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_reverses_products(a in matrix(3, 4), b in matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(close(&left, &right, 1e-4));
    }

    #[test]
    fn fused_transpose_matmuls_agree(a in matrix(4, 3), b in matrix(4, 5)) {
        // Aᵀ·B via the fused kernel equals the explicit version.
        let fused = a.matmul_at_b(&b);
        let explicit = a.transpose().matmul(&b);
        prop_assert!(close(&fused, &explicit, 1e-4));
        // A·Bᵀ likewise.
        let c = Matrix::from_fn(5, 3, |r, q| (r + q) as f32 * 0.3 - 0.7);
        let fused2 = c.matmul_a_bt(&a);
        let explicit2 = c.matmul(&a.transpose());
        prop_assert!(close(&fused2, &explicit2, 1e-4));
    }

    #[test]
    fn sum_decomposes_over_rows_and_cols(a in matrix(5, 3)) {
        let total = a.sum();
        let by_rows = a.sum_rows().sum();
        let by_cols = a.sum_cols().sum();
        prop_assert!((total - by_rows).abs() < 1e-4 * (1.0 + total.abs()));
        prop_assert!((total - by_cols).abs() < 1e-4 * (1.0 + total.abs()));
    }

    #[test]
    fn hadamard_is_commutative(a in matrix(4, 4), b in matrix(4, 4)) {
        prop_assert_eq!(a.hadamard(&b), b.hadamard(&a));
    }

    #[test]
    fn scale_matches_hadamard_with_constant(a in matrix(3, 3), s in -3.0f32..3.0) {
        let scaled = a.scale(s);
        let constant = Matrix::full(3, 3, s);
        prop_assert!(close(&scaled, &a.hadamard(&constant), 1e-5));
    }

    #[test]
    fn solve_inverts_matmul(x in matrix(4, 1)) {
        // Build a well-conditioned matrix (diagonally dominant).
        let a = Matrix::from_fn(4, 4, |r, c| {
            if r == c { 6.0 } else { ((r * 3 + c) % 5) as f32 * 0.3 - 0.6 }
        });
        let b = a.matmul(&x);
        let solved = a.solve(&b).expect("diagonally dominant ⇒ non-singular");
        prop_assert!(close(&solved, &x, 1e-2), "\n{solved:?}\nvs\n{x:?}");
    }

    #[test]
    fn frobenius_norm_is_subadditive(a in matrix(3, 4), b in matrix(3, 4)) {
        let lhs = a.add(&b).frobenius_norm();
        let rhs = a.frobenius_norm() + b.frobenius_norm();
        prop_assert!(lhs <= rhs + 1e-4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_forms_match_the_naive_loop_bit_for_bit(
        case in dims().prop_flat_map(|(m, k, n)| {
            (Just((m, k, n)), poisoned(m, k), poisoned(k, n), poisoned(k, m), poisoned(n, k))
        })
    ) {
        let (dims, a, b, a_t, b_t) = case;
        // A·B, Aᵀ·B (with `a_t` as the stored k x m operand) and A·Bᵀ (with
        // `b_t` as the stored n x k operand), each against the naive loop.
        let want = naive(dims, |i, p| a[(i, p)], |p, j| b[(p, j)]);
        same_bits(&a.matmul(&b), &want).map_err(|e| format!("matmul {dims:?}: {e}"))?;
        let want = naive(dims, |i, p| a_t[(p, i)], |p, j| b[(p, j)]);
        same_bits(&a_t.matmul_at_b(&b), &want).map_err(|e| format!("matmul_at_b {dims:?}: {e}"))?;
        let want = naive(dims, |i, p| a[(i, p)], |p, j| b_t[(j, p)]);
        same_bits(&a.matmul_a_bt(&b_t), &want).map_err(|e| format!("matmul_a_bt {dims:?}: {e}"))?;
    }
}

#[test]
fn zero_times_nan_is_nan_in_every_matmul_form() {
    // A zero row of `A` meeting a NaN of `B` must poison its output row,
    // in full tiles (rows 0..4, columns 0..8) and in remainders alike.
    let a = Matrix::zeros(5, 9);
    let mut b = Matrix::full(9, 9, 1.0);
    b[(3, 0)] = f32::NAN;
    b[(3, 8)] = f32::NAN;
    for c in [a.matmul(&b), a.transpose().matmul_at_b(&b), a.matmul_a_bt(&b.transpose())] {
        for i in 0..5 {
            assert!(c[(i, 0)].is_nan() && c[(i, 8)].is_nan(), "0 · NaN lost in row {i}: {c:?}");
            assert_eq!(c[(i, 1)].to_bits(), 0.0f32.to_bits(), "0 · 1 must be +0.0");
        }
    }
}

/// A reduction of length 1 (an outer product) takes the kernel's rank-1
/// path. Each output must still be `+0.0 + a·b`, the tiles' value: a `-0.0`
/// product comes out `+0.0`, and NaN and `0 · inf` poison their entries.
#[test]
fn rank_one_products_keep_the_tiled_zero_sign_and_nan() {
    let col = Matrix::from_vec(5, 1, vec![-0.0, 0.0, 2.0, f32::NAN, -1.5]);
    let row = Matrix::from_vec(
        1,
        9,
        vec![0.0, -0.0, 1.0, -3.0, f32::INFINITY, 0.5, -0.0, 7.0, 1e-39],
    );
    let dims = (5, 1, 9);
    let want = naive(dims, |i, _| col[(i, 0)], |_, j| row[(0, j)]);
    same_bits(&col.matmul(&row), &want).unwrap();
    same_bits(&col.transpose().matmul_at_b(&row), &want).unwrap();
    same_bits(&col.matmul_a_bt(&row.transpose()), &want).unwrap();
    // -0.0 · 0.0 and 2.0 · -0.0 are -0.0 products; the sum from +0.0 is +0.0.
    assert_eq!(want[(0, 0)].to_bits(), 0.0f32.to_bits());
    assert_eq!(want[(2, 1)].to_bits(), 0.0f32.to_bits());
    assert!(want[(3, 2)].is_nan() && want[(1, 4)].is_nan(), "NaN and 0 · inf poison");
    let mut acc = Matrix::full(5, 9, -0.0);
    acc.add_matmul(&col, &row);
    same_bits(&acc, &Matrix::full(5, 9, -0.0).add(&want)).unwrap();
}
