//! Dense `f32` matrix algebra used throughout the CasCN reproduction.
//!
//! This crate deliberately implements the *small* subset of tensor algebra
//! the paper's models need — row-major dense matrices, the matmul variants
//! required by reverse-mode differentiation, elementwise maps and
//! reductions — with no external dependencies. Its only `unsafe` is the
//! two calls into the AVX2 and AVX-512F instantiations of the matmul
//! kernel, each made after run-time detection of its feature (`ops.rs`).
//!
//! Shape errors are programming errors, not recoverable conditions, so all
//! operations assert their shape contracts and panic with a descriptive
//! message on violation (the same convention ndarray and nalgebra use for
//! mismatched dimensions).
//!
//! # Example
//!
//! ```
//! use cascn_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! assert_eq!(c.sum(), 10.0);
//! ```

mod matrix;
mod ops;
mod reduce;
mod solve;
mod sparse;

pub use matrix::Matrix;
pub use ops::{dot, gemm_isa};
pub use sparse::{Csr, SparseOp};

// `Matrix` buffers cross thread boundaries in the parallel training engine
// (worker threads ship snapshots, Chebyshev bases, and gradients back to the
// reducer), so losing `Send + Sync` — e.g. by introducing interior
// mutability or a raw pointer — must be a compile error, not a distant
// trait-bound failure in `cascn::parallel`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Matrix>();
    // Sparse spectral operators are shared across worker threads (and across
    // autograd tapes via `Arc`) the same way.
    assert_send_sync::<Csr>();
    assert_send_sync::<SparseOp>();
};

/// Tolerance-based float comparison used by tests across the workspace.
///
/// Returns `true` when `a` and `b` differ by at most `tol` absolutely, or
/// relatively for large magnitudes.
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    diff <= tol * a.abs().max(b.abs())
}

/// Asserts two matrices are elementwise equal within `tol`.
///
/// # Panics
/// Panics with the offending index and values if shapes differ or any entry
/// deviates by more than `tol`.
pub fn assert_matrix_eq(a: &Matrix, b: &Matrix, tol: f32) {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "matrix shape mismatch: {}x{} vs {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let (x, y) = (a[(r, c)], b[(r, c)]);
            assert!(
                approx_eq(x, y, tol),
                "matrices differ at ({r},{c}): {x} vs {y} (tol {tol})"
            );
        }
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-7, 1e-6));
        assert!(approx_eq(1e6, 1e6 * (1.0 + 1e-7), 1e-6));
        assert!(!approx_eq(1.0, 1.1, 1e-6));
    }

    #[test]
    fn assert_matrix_eq_accepts_close_matrices() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let mut b = a.clone();
        b[(0, 1)] += 1e-8;
        assert_matrix_eq(&a, &b, 1e-6);
    }

    #[test]
    #[should_panic(expected = "matrices differ")]
    fn assert_matrix_eq_rejects_distant_matrices() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0, 3.0]]);
        assert_matrix_eq(&a, &b, 1e-6);
    }
}
