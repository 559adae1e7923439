//! Property-based finite-difference verification of every backward rule.
//!
//! For each op (and for a deep composite resembling a recurrent cell) we draw
//! random small matrices, run forward+backward, and compare analytic
//! gradients to central differences. Tolerances reflect `f32` precision.

use std::sync::Arc;

use cascn_autograd::{assert_gradients_close, ParamStore, Tape, Var};
use cascn_tensor::{Csr, Matrix};
use proptest::prelude::*;

/// Strategy: a rows x cols matrix with entries in [-1, 1].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Runs forward+backward with `build`, then checks all parameter gradients
/// against finite differences of the same computation.
fn gradcheck_model(
    params: Vec<(&str, Matrix)>,
    build: impl Fn(&mut Tape, &[Var]) -> Var + Copy,
) {
    let mut store = ParamStore::new();
    let ids: Vec<_> = params
        .into_iter()
        .map(|(n, m)| store.register(n, m))
        .collect();

    // Analytic gradients.
    {
        let mut t = Tape::new();
        let vars: Vec<_> = ids.iter().map(|&id| t.param(&store, id)).collect();
        let loss = build(&mut t, &vars);
        t.backward(loss);
        t.accumulate_param_grads(&mut store);
    }

    let ids_clone = ids.clone();
    assert_gradients_close(&mut store, 5e-3, 4e-2, move |s| {
        let mut t = Tape::new();
        let vars: Vec<_> = ids_clone
            .iter()
            .map(|&id| t.constant(s.value(id).clone()))
            .collect();
        let loss = build(&mut t, &vars);
        t.scalar(loss)
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_chain(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 3)) {
        gradcheck_model(vec![("a", a), ("b", b), ("c", c)], |t, v| {
            let ab = t.matmul(v[0], v[1]);
            let abc = t.matmul(ab, v[2]);
            let sq = t.sqr(abc);
            t.sum_all(sq)
        });
    }

    #[test]
    fn elementwise_mix(a in matrix(3, 3), b in matrix(3, 3)) {
        gradcheck_model(vec![("a", a), ("b", b)], |t, v| {
            let h = t.hadamard(v[0], v[1]);
            let s = t.sub(h, v[1]);
            let p = t.add(s, v[0]);
            let sq = t.sqr(p);
            t.sum_all(sq)
        });
    }

    #[test]
    fn activations(a in matrix(2, 5)) {
        gradcheck_model(vec![("a", a)], |t, v| {
            let s = t.sigmoid(v[0]);
            let th = t.tanh(s);
            let sc = t.scale(th, 1.5);
            t.sum_all(sc)
        });
    }

    // ReLU is non-differentiable at zero, so probe away from the kink.
    #[test]
    fn relu_away_from_kink(sign in proptest::collection::vec(prop_oneof![Just(-1.0f32), Just(1.0f32)], 6)) {
        let a = Matrix::from_vec(2, 3, sign.iter().map(|s| s * 0.5).collect());
        gradcheck_model(vec![("a", a)], |t, v| {
            let r = t.relu(v[0]);
            let sq = t.sqr(r);
            t.sum_all(sq)
        });
    }

    #[test]
    fn bias_and_reductions(x in matrix(4, 3), b in matrix(1, 3)) {
        gradcheck_model(vec![("x", x), ("b", b)], |t, v| {
            let y = t.add_bias(v[0], v[1]);
            let rows = t.sum_rows(y);
            let sq = t.sqr(rows);
            t.sum_all(sq)
        });
    }

    #[test]
    fn mean_rows_gradient(x in matrix(5, 2)) {
        gradcheck_model(vec![("x", x)], |t, v| {
            let m = t.mean_rows(v[0]);
            let sq = t.sqr(m);
            t.sum_all(sq)
        });
    }

    #[test]
    fn scalar_broadcast(s in -0.9f32..0.9, a in matrix(3, 2)) {
        let sm = Matrix::from_vec(1, 1, vec![s]);
        gradcheck_model(vec![("s", sm), ("a", a)], |t, v| {
            let y = t.scalar_mul(v[0], v[1]);
            let sq = t.sqr(y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gather_with_repeats(table in matrix(4, 3)) {
        gradcheck_model(vec![("table", table)], |t, v| {
            let picked = t.gather(v[0], vec![0, 2, 2, 3]);
            let sq = t.sqr(picked);
            t.sum_all(sq)
        });
    }

    #[test]
    fn concat_and_slice(a in matrix(2, 3), b in matrix(3, 3)) {
        gradcheck_model(vec![("a", a), ("b", b)], |t, v| {
            let c = t.concat_rows(&[v[0], v[1]]);
            let mid = t.slice_rows(c, 1, 3);
            let sq = t.sqr(mid);
            t.sum_all(sq)
        });
    }

    #[test]
    fn concat_cols_gradcheck(a in matrix(3, 2), b in matrix(3, 4)) {
        gradcheck_model(vec![("a", a), ("b", b)], |t, v| {
            let c = t.concat_cols(v[0], v[1]);
            let th = t.tanh(c);
            let sq = t.sqr(th);
            t.sum_all(sq)
        });
    }

    #[test]
    fn slice_cols_gradcheck(a in matrix(3, 5)) {
        gradcheck_model(vec![("a", a)], |t, v| {
            let left = t.slice_cols(v[0], 0, 2);
            let right = t.slice_cols(v[0], 1, 4);
            let th = t.tanh(right);
            let sq = t.sqr(left);
            let l = t.sum_all(sq);
            let r = t.sum_all(th);
            t.add(l, r)
        });
    }

    /// A constant rectangular sparse matrix (4 x 5, row 2 empty, arbitrary
    /// real values — a general snapshot signal, not a 0/1 adjacency) times
    /// a differentiable block.
    #[test]
    fn spmm_rectangular_gradcheck(
        w in matrix(5, 3),
        vals in matrix(1, 6),
    ) {
        let vals: [f32; 6] = vals.as_slice().try_into().expect("six values");
        gradcheck_model(vec![("w", w)], move |t, v| {
            let a = Csr::from_triplets(
                4,
                5,
                [
                    (0, 0, vals[0]),
                    (0, 3, vals[1]),
                    (1, 4, vals[2]),
                    (1, 0, vals[3]),
                    (3, 1, vals[4]),
                    (3, 2, vals[5]),
                ],
            );
            let y = t.spmm(Arc::new(a), v[0]);
            let th = t.tanh(y);
            let sq = t.sqr(th);
            t.sum_all(sq)
        });
    }

    #[test]
    fn softmax_attention_pattern(scores in matrix(4, 1), values in matrix(4, 3)) {
        gradcheck_model(vec![("scores", scores), ("values", values)], |t, v| {
            let w = t.softmax_col(v[0]);
            // Attention: weighted sum of value rows = wᵀ · V (1 x d)
            let pooled = t.matmul_t_first(w, v[1]);
            let sq = t.sqr(pooled);
            t.sum_all(sq)
        });
    }

    /// A composite mirroring one LSTM-style gate update — the shape of
    /// computation the CasCN cell performs at every timestep.
    #[test]
    fn recurrent_cell_composite(
        w in matrix(3, 2),
        u in matrix(2, 2),
        bias in matrix(1, 2),
        x in matrix(4, 3),
        h in matrix(4, 2),
    ) {
        gradcheck_model(
            vec![("w", w), ("u", u), ("b", bias), ("x", x), ("h", h)],
            |t, v| {
                let xw = t.matmul(v[3], v[0]);
                let hu = t.matmul(v[4], v[1]);
                let pre = t.add(xw, hu);
                let pre = t.add_bias(pre, v[2]);
                let gate = t.sigmoid(pre);
                let cand_pre = t.matmul(v[3], v[0]);
                let cand = t.tanh(cand_pre);
                let out = t.hadamard(gate, cand);
                let pooled = t.sum_rows(out);
                let sq = t.sqr(pooled);
                t.sum_all(sq)
            },
        );
    }
}

/// Helper extension used by the attention test: `aᵀ · b` via existing ops.
trait TapeExt {
    fn matmul_t_first(&mut self, a: Var, b: Var) -> Var;
}

impl TapeExt for Tape {
    fn matmul_t_first(&mut self, a: Var, b: Var) -> Var {
        // (n x 1)ᵀ · (n x d): transpose via hadamard trick is awkward, so
        // broadcast-multiply then sum rows: Σ_i a_i * b_i,:
        let n = self.value(a).rows();
        let d = self.value(b).cols();
        // Tile the column vector across d columns using matmul with ones.
        let ones = self.constant(Matrix::full(1, d, 1.0));
        let tiled = self.matmul(a, ones); // n x d
        debug_assert_eq!(self.value(tiled).shape(), (n, d));
        let prod = self.hadamard(tiled, b);
        self.sum_rows(prod)
    }
}
