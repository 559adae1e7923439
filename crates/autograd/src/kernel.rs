//! Forward values of the ops that are not a single [`Matrix`] method.
//!
//! [`Tape`](crate::Tape) and [`Eval`](crate::Eval) both compute through
//! these functions (or the same `Matrix` method), so the two executors
//! produce bit-identical values by construction.

use cascn_tensor::Matrix;

pub(crate) fn sigmoid(a: &Matrix) -> Matrix {
    a.map(|x| 1.0 / (1.0 + (-x).exp()))
}

pub(crate) fn tanh(a: &Matrix) -> Matrix {
    a.map(f32::tanh)
}

pub(crate) fn relu(a: &Matrix) -> Matrix {
    a.map(|x| x.max(0.0))
}

/// `s · a` for a `1x1` scalar `s`.
pub(crate) fn scalar_mul(s: &Matrix, a: &Matrix) -> Matrix {
    assert_eq!(s.shape(), (1, 1), "scalar_mul: scalar operand must be 1x1");
    a.scale(s[(0, 0)])
}

/// Entry `(r, c)` of `a` as a `1x1` matrix.
pub(crate) fn pick(a: &Matrix, r: usize, c: usize) -> Matrix {
    assert!(
        r < a.rows() && c < a.cols(),
        "pick: ({r}, {c}) out of bounds for {:?}",
        a.shape()
    );
    Matrix::from_vec(1, 1, vec![a[(r, c)]])
}

pub(crate) fn gather(table: &Matrix, rows: &[usize]) -> Matrix {
    let mut value = Matrix::zeros(rows.len(), table.cols());
    for (i, &r) in rows.iter().enumerate() {
        assert!(
            r < table.rows(),
            "gather: row {r} out of bounds ({} rows)",
            table.rows()
        );
        value.row_mut(i).copy_from_slice(table.row(r));
    }
    value
}

pub(crate) fn concat_rows(parts: &[&Matrix]) -> Matrix {
    assert!(!parts.is_empty(), "concat_rows: need at least one part");
    let cols = parts[0].cols();
    let total: usize = parts.iter().map(|p| p.rows()).sum();
    let mut value = Matrix::zeros(total, cols);
    let mut at = 0;
    for p in parts {
        assert_eq!(p.cols(), cols, "concat_rows: column mismatch");
        for r in 0..p.rows() {
            value.row_mut(at + r).copy_from_slice(p.row(r));
        }
        at += p.rows();
    }
    value
}

pub(crate) fn concat_cols(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "concat_cols: row mismatch");
    let mut value = Matrix::zeros(a.rows(), a.cols() + b.cols());
    for r in 0..a.rows() {
        let row = value.row_mut(r);
        row[..a.cols()].copy_from_slice(a.row(r));
        row[a.cols()..].copy_from_slice(b.row(r));
    }
    value
}

pub(crate) fn slice_cols(a: &Matrix, start: usize, len: usize) -> Matrix {
    assert!(
        start + len <= a.cols(),
        "slice_cols: {start}+{len} exceeds {} cols",
        a.cols()
    );
    let mut value = Matrix::zeros(a.rows(), len);
    for r in 0..a.rows() {
        value
            .row_mut(r)
            .copy_from_slice(&a.row(r)[start..start + len]);
    }
    value
}

pub(crate) fn softmax_col(a: &Matrix) -> Matrix {
    assert_eq!(a.cols(), 1, "softmax_col: expected n x 1 input");
    let max = a.max();
    let exps: Vec<f32> = a.as_slice().iter().map(|&x| (x - max).exp()).collect();
    let z: f32 = exps.iter().sum();
    Matrix::from_vec(a.rows(), 1, exps.into_iter().map(|e| e / z).collect())
}

pub(crate) fn log_softmax_row(a: &Matrix) -> Matrix {
    assert!(a.cols() > 0, "log_softmax_row: empty rows");
    let mut value = Matrix::zeros(a.rows(), a.cols());
    for r in 0..a.rows() {
        let row = a.row(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let z: f32 = row.iter().map(|&x| (x - max).exp()).sum();
        let lse = max + z.ln();
        for (out, &x) in value.row_mut(r).iter_mut().zip(row) {
            *out = x - lse;
        }
    }
    value
}
