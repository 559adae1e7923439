//! Every [`Exec`] op gives bit-identical values on a [`Tape`] and on an
//! [`Eval`], over random shapes that include zero-row matrices and sparse
//! operands with empty rows and non-0/1 values, the fused recurrent ops
//! included.

use std::sync::Arc;

use cascn_autograd::{Eval, EvalVar, Exec, ParamStore, Tape, Var};
use cascn_tensor::{Csr, Matrix, SparseOp};
use proptest::prelude::*;

/// One trait op with its non-value arguments.
#[derive(Debug, Clone)]
enum Op {
    MatMul,
    Add,
    Sub,
    Hadamard,
    AddBias,
    Sigmoid,
    Tanh,
    Relu,
    Scale(f32),
    ScalarMul,
    SumRows,
    MeanRows,
    Gather(Vec<usize>),
    ConcatRows,
    ConcatCols,
    SliceRows(usize, usize),
    SliceCols(usize, usize),
    SparseApply(Arc<SparseOp>),
    Spmm(Arc<Csr>),
    SoftmaxCol,
    LogSoftmaxRow,
    ChebInput(Arc<SparseOp>, Arc<Csr>),
    ChebFilter(Arc<SparseOp>),
    LstmMemory,
    LstmHidden,
}

fn apply<'s, E: Exec<'s>>(ex: &mut E, op: &Op, v: &[E::Value]) -> E::Value {
    match op {
        Op::MatMul => ex.matmul(&v[0], &v[1]),
        Op::Add => ex.add(&v[0], &v[1]),
        Op::Sub => ex.sub(&v[0], &v[1]),
        Op::Hadamard => ex.hadamard(&v[0], &v[1]),
        Op::AddBias => ex.add_bias(&v[0], &v[1]),
        Op::Sigmoid => ex.sigmoid(&v[0]),
        Op::Tanh => ex.tanh(&v[0]),
        Op::Relu => ex.relu(&v[0]),
        Op::Scale(s) => ex.scale(&v[0], *s),
        Op::ScalarMul => ex.scalar_mul(&v[0], &v[1]),
        Op::SumRows => ex.sum_rows(&v[0]),
        Op::MeanRows => ex.mean_rows(&v[0]),
        Op::Gather(rows) => ex.gather(&v[0], rows.clone()),
        Op::ConcatRows => ex.concat_rows(v),
        Op::ConcatCols => ex.concat_cols(&v[0], &v[1]),
        Op::SliceRows(start, len) => ex.slice_rows(&v[0], *start, *len),
        Op::SliceCols(start, len) => ex.slice_cols(&v[0], *start, *len),
        Op::SparseApply(a) => ex.sparse_apply(Arc::clone(a), &v[0]),
        Op::Spmm(a) => ex.spmm(Arc::clone(a), &v[0]),
        Op::SoftmaxCol => ex.softmax_col(&v[0]),
        Op::LogSoftmaxRow => ex.log_softmax_row(&v[0]),
        Op::ChebInput(op, x) => ex.cheb_input(Arc::clone(op), Arc::clone(x), v),
        Op::ChebFilter(op) => ex.cheb_filter(Arc::clone(op), &v[0], &v[1..]),
        Op::LstmMemory => ex.lstm_memory(&v[0], &v[1], &v[2], &v[3]),
        Op::LstmHidden => ex.lstm_hidden(&v[0], &v[1], &v[2]),
    }
}

fn bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
    (
        m.rows(),
        m.cols(),
        m.as_slice().iter().map(|x| x.to_bits()).collect(),
    )
}

/// `op` on the tape (inputs entered as owned constants) and on an `Eval`
/// (inputs borrowed), as `(tape, eval)` values.
fn on_both(op: &Op, inputs: &[Matrix]) -> (Matrix, Matrix) {
    let mut tape = Tape::new();
    let tv: Vec<Var> = inputs.iter().map(|m| tape.constant(m.clone())).collect();
    let t = apply(&mut tape, op, &tv);
    let mut eval = Eval::new();
    let ev: Vec<EvalVar> = inputs.iter().map(|m| eval.constant_ref(m)).collect();
    let e = apply(&mut eval, op, &ev);
    (tape.value(t).clone(), eval.value(&e).clone())
}

fn check(op: Op, inputs: &[Matrix]) -> Result<(), String> {
    let (t, e) = on_both(&op, inputs);
    prop_assert_eq!(bits(&t), bits(&e), "{op:?} diverged");
    Ok(())
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// A `rows x cols` sparse matrix with real (non-0/1) values, about 40%
/// dense, whose last row is always empty.
fn csr(rows: usize, cols: usize) -> impl Strategy<Value = Csr> {
    proptest::collection::vec((0.0f32..1.0, -2.0f32..2.0), rows * cols).prop_map(move |cells| {
        let values = cells
            .into_iter()
            .enumerate()
            .map(|(i, (keep, x))| {
                if keep < 0.4 && i / cols + 1 < rows {
                    x
                } else {
                    0.0
                }
            })
            .collect();
        Csr::from_dense(&Matrix::from_vec(rows, cols, values))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul(ab in (0usize..5, 1usize..6, 1usize..5)
        .prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n))))
    {
        check(Op::MatMul, &[ab.0, ab.1])?;
    }

    #[test]
    fn elementwise_binary(which in 0usize..3, ab in (0usize..5, 1usize..6)
        .prop_flat_map(|(m, n)| (matrix(m, n), matrix(m, n))))
    {
        let op = [Op::Add, Op::Sub, Op::Hadamard][which].clone();
        check(op, &[ab.0, ab.1])?;
    }

    #[test]
    fn add_bias_and_scalar_mul(ab in (0usize..5, 1usize..6)
        .prop_flat_map(|(m, n)| (matrix(m, n), matrix(1, n), matrix(1, 1))))
    {
        check(Op::AddBias, &[ab.0.clone(), ab.1])?;
        check(Op::ScalarMul, &[ab.2, ab.0])?;
    }

    #[test]
    fn unary(which in 0usize..8, s in -2.0f32..2.0, a in (0usize..5, 1usize..6)
        .prop_flat_map(|(m, n)| matrix(m, n)))
    {
        let op = [
            Op::Sigmoid,
            Op::Tanh,
            Op::Relu,
            Op::Scale(s),
            Op::SumRows,
            Op::MeanRows,
            Op::LogSoftmaxRow,
            Op::SoftmaxCol,
        ][which]
            .clone();
        // softmax_col takes a column: feed it the first column.
        let a = if matches!(op, Op::SoftmaxCol) {
            Matrix::from_fn(a.rows(), 1, |r, _| a[(r, 0)])
        } else {
            a
        };
        check(op, &[a])?;
    }

    #[test]
    fn gather(table in (1usize..6, 1usize..5).prop_flat_map(|(r, c)| matrix(r, c)),
        picks in proptest::collection::vec(0.0f32..1.0, 0..7))
    {
        let rows = picks
            .iter()
            .map(|&p| ((p * table.rows() as f32) as usize).min(table.rows() - 1))
            .collect();
        check(Op::Gather(rows), &[table])?;
    }

    #[test]
    fn concat_rows(parts in (1usize..5, 1usize..4).prop_flat_map(|(count, c)| {
        (0..count).map(|_| (0usize..4).prop_flat_map(move |r| matrix(r, c)).boxed()).collect::<Vec<_>>()
    })) {
        check(Op::ConcatRows, &parts)?;
    }

    #[test]
    fn concat_cols(ab in (0usize..5, 1usize..5, 1usize..5)
        .prop_flat_map(|(m, ca, cb)| (matrix(m, ca), matrix(m, cb))))
    {
        check(Op::ConcatCols, &[ab.0, ab.1])?;
    }

    #[test]
    fn slice_rows(case in (0usize..5, 1usize..6)
        .prop_flat_map(|(m, c)| (matrix(m, c), 0..=m))
        .prop_flat_map(|(a, start)| {
            let rest = a.rows() - start;
            (Just(a), Just(start), 0..=rest)
        }))
    {
        let (a, start, len) = case;
        check(Op::SliceRows(start, len), &[a])?;
    }

    #[test]
    fn slice_cols(case in (0usize..5, 1usize..6)
        .prop_flat_map(|(m, c)| (matrix(m, c), 0..=c))
        .prop_flat_map(|(a, start)| {
            let rest = a.cols() - start;
            (Just(a), Just(start), 0..=rest)
        }))
    {
        let (a, start, len) = case;
        check(Op::SliceCols(start, len), &[a])?;
    }

    #[test]
    fn sparse_apply(ax in (1usize..6, 1usize..5)
        .prop_flat_map(|(n, d)| (csr(n, n), matrix(n, d), proptest::collection::vec(-1.0f32..1.0, 2 * n))),
        scale in -1.0f32..1.0)
    {
        let (a, x, uv) = ax;
        let n = a.rows();
        let plain = Arc::new(SparseOp::from_csr(a.clone()));
        check(Op::SparseApply(plain), std::slice::from_ref(&x))?;
        let rank1 = (scale, uv[..n].to_vec(), uv[n..].to_vec());
        let corrected = Arc::new(SparseOp::new(a, Some(rank1)));
        check(Op::SparseApply(corrected), &[x])?;
    }

    #[test]
    fn spmm(ax in (1usize..6, 1usize..6, 1usize..5)
        .prop_flat_map(|(m, k, d)| (csr(m, k), matrix(k, d))))
    {
        check(Op::Spmm(Arc::new(ax.0)), &[ax.1])?;
    }

    /// The fused Chebyshev convolutions on a square operator with a rank-1
    /// term, `K = 0..=3` (`K + 1` filters).
    #[test]
    fn cheb_input_and_filter(case in (1usize..6, 1usize..6, 1usize..5, 1usize..5)
        .prop_flat_map(|(n, d_in, d_h, d_out)| (
            csr(n, n),
            proptest::collection::vec(-1.0f32..1.0, 2 * n),
            csr(n, d_in),
            matrix(n, d_h),
            (1usize..5).prop_flat_map(move |orders| (
                proptest::collection::vec(matrix(d_in, d_out), orders),
                proptest::collection::vec(matrix(d_h, d_out), orders),
            )),
        )),
        scale in -1.0f32..1.0)
    {
        let (a, uv, x, h, (w, u)) = case;
        let n = a.rows();
        let op = Arc::new(SparseOp::new(a, Some((scale, uv[..n].to_vec(), uv[n..].to_vec()))));
        check(Op::ChebInput(Arc::clone(&op), Arc::new(x)), &w)?;
        let mut inputs = vec![h];
        inputs.extend(u);
        check(Op::ChebFilter(op), &inputs)?;
    }

    #[test]
    fn lstm_memory_and_hidden(ins in (0usize..5, 1usize..5)
        .prop_flat_map(|(n, d)| (matrix(n, 4 * d), matrix(n, d), matrix(n, d), matrix(n, d))))
    {
        let (pre, c, p1, p2) = ins;
        check(Op::LstmMemory, &[pre.clone(), c.clone(), p1.clone(), p2])?;
        check(Op::LstmHidden, &[pre, c, p1])?;
    }

    #[test]
    fn param_cols_joins_the_bank_in_one_input(
        parts in (0usize..4, 1usize..4).prop_flat_map(|(rows, count)| {
            proptest::collection::vec((1usize..4).prop_flat_map(move |c| matrix(rows, c)), count)
        }))
    {
        let mut store = ParamStore::new();
        let ids: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(i, m)| store.register(format!("p{i}"), m.clone()))
            .collect();
        let mut tape = Tape::new();
        let t = tape.param_cols(&store, &ids);
        let mut eval = Eval::new();
        let e = eval.param_cols(&store, &ids);
        prop_assert_eq!(bits(tape.value(t)), bits(eval.value(&e)));
        let mut at = 0;
        for m in &parts {
            for r in 0..m.rows() {
                prop_assert_eq!(&tape.value(t).row(r)[at..at + m.cols()], m.row(r));
            }
            at += m.cols();
        }
    }

    #[test]
    fn params_are_read_in_place_and_equal_the_bound_copy(
        ab in (0usize..5, 1usize..5, 1usize..5)
            .prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n))))
    {
        let mut store = ParamStore::new();
        let w = store.register("w", ab.1);
        let mut tape = Tape::new();
        let (xt, wt) = (tape.constant(ab.0.clone()), tape.param(&store, w));
        let t = tape.matmul(xt, wt);
        let mut eval = Eval::new();
        let (xe, we) = (eval.constant(ab.0), eval.param(&store, w));
        prop_assert_eq!(eval.live(), 1, "only the owned constant is counted");
        let e = eval.matmul(&xe, &we);
        prop_assert_eq!(bits(tape.value(t)), bits(eval.value(&e)));
        prop_assert_eq!(bits(tape.value(wt)), bits(eval.value(&we)));
    }
}
