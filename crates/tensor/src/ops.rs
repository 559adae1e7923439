//! Arithmetic on matrices: matmul variants, elementwise ops, broadcasts.
//!
//! The three matmul forms (`matmul`, `matmul_at_b`, `matmul_a_bt`) are thin
//! callers of one register-tiled micro-kernel. Each form only picks the
//! strides through which the kernel reads its operands, so a transposed
//! operand is read in place and never materialized: reverse-mode
//! differentiation of `C = A·B` computes `∂A = ∂C·Bᵀ` with `matmul_a_bt`
//! and `∂B = Aᵀ·∂C` with `matmul_at_b`.
//!
//! The kernel keeps an `MR × NR` tile of the output in local accumulators
//! for the whole reduction. It reads `A` through its row/column strides
//! and `B` from a packed `k × NR` panel. Every output element is the
//! sequential sum of its products in ascending `p`, starting from `+0.0`,
//! with a separate multiply and add. That order does not depend on the
//! tile shape, the operand layout or the thread count, so all three forms
//! give the same bits as the textbook triple loop (the payload of a NaN
//! aside, which IEEE 754 leaves open). Products of an exact
//! zero are added like any other: `0 · NaN = NaN` propagates, and adding
//! `±0.0` never changes an accumulator that started from `+0.0`.
//!
//! The one kernel body is compiled three times: portable with a `4 × 8`
//! tile, and under `#[target_feature]` for AVX2 and AVX-512F with wider
//! tiles. [`gemm`] picks the widest one the running CPU supports, once per
//! process. Rust never contracts a multiply and an add into an FMA, so a
//! wider vector only computes more of the same sums at once, and every
//! instantiation gives the same bits.

use crate::Matrix;
use isa::{Isa, Kind};

/// A read-only strided view of a matrix operand: element `(i, j)` is
/// `data[i * rs + j * cs]`. A row-major matrix and its transpose are the
/// same buffer under swapped strides.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> Strided<'a> {
    fn of(m: &'a Matrix) -> Self {
        Self {
            data: m.as_slice(),
            rs: m.cols(),
            cs: 1,
        }
    }

    fn transposed(m: &'a Matrix) -> Self {
        Self {
            data: m.as_slice(),
            rs: 1,
            cs: m.cols(),
        }
    }
}

/// The instruction sets the kernel is compiled for, and which of them the
/// running CPU can execute.
mod isa {
    use std::sync::OnceLock;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) enum Kind {
        Portable,
        Avx2,
        Avx512,
    }

    /// An instruction set the running CPU supports. Its field is private
    /// to this module, so a wide `Isa` exists only after
    /// `is_x86_feature_detected!` reported its feature: the condition the
    /// `unsafe` calls in `gemm_on` rely on.
    #[derive(Clone, Copy, Debug)]
    pub(super) struct Isa(Kind);

    impl Isa {
        /// Every instruction set the running CPU supports, narrowest first.
        pub(super) fn supported() -> impl Iterator<Item = Isa> {
            [Kind::Portable, Kind::Avx2, Kind::Avx512]
                .into_iter()
                .filter(|&kind| detected(kind))
                .map(Isa)
        }

        /// The widest supported instruction set, detected once per process.
        pub(super) fn widest() -> Isa {
            static WIDEST: OnceLock<Isa> = OnceLock::new();
            *WIDEST.get_or_init(|| Isa::supported().last().unwrap_or(Isa(Kind::Portable)))
        }

        pub(super) fn kind(self) -> Kind {
            self.0
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn detected(kind: Kind) -> bool {
        match kind {
            Kind::Portable => true,
            Kind::Avx2 => is_x86_feature_detected!("avx2"),
            Kind::Avx512 => is_x86_feature_detected!("avx512f"),
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn detected(kind: Kind) -> bool {
        kind == Kind::Portable
    }
}

/// The instruction set every matmul of this process runs on: `"avx512f"`,
/// `"avx2"` or `"portable"`. All three give the same bits; they differ only
/// in speed.
pub fn gemm_isa() -> &'static str {
    match Isa::widest().kind() {
        Kind::Portable => "portable",
        Kind::Avx2 => "avx2",
        Kind::Avx512 => "avx512f",
    }
}

/// `A·B` for an `m × k` view `a` and a `k × n` view `b`, stored into the
/// row-major `m × n` slice `c`: the one kernel behind the three matmul
/// forms, on the widest instruction set the CPU supports.
///
/// With `ADD` each finished output `t` is added to the entry already in
/// `c` (`o = o + t`), so a sum of products `(m₀ + m₁) + m₂` needs no
/// buffer per product; without it, `t` overwrites the entry.
fn gemm<const ADD: bool>(
    c: &mut [f32],
    a: Strided<'_>,
    b: Strided<'_>,
    dims: (usize, usize, usize),
) {
    gemm_on::<ADD>(Isa::widest(), c, a, b, dims);
}

/// [`gemm`] on the instantiation compiled for `isa`.
fn gemm_on<const ADD: bool>(
    isa: Isa,
    c: &mut [f32],
    a: Strided<'_>,
    b: Strided<'_>,
    dims: (usize, usize, usize),
) {
    match isa.kind() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` of kind `Avx512` is only built by
        // `Isa::supported`, after `is_x86_feature_detected!("avx512f")`
        // returned true on this CPU.
        Kind::Avx512 => unsafe { gemm_avx512::<ADD>(c, a, b, dims) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` of kind `Avx2` is only built by
        // `Isa::supported`, after `is_x86_feature_detected!("avx2")`
        // returned true on this CPU.
        Kind::Avx2 => unsafe { gemm_avx2::<ADD>(c, a, b, dims) },
        _ => gemm_body::<ADD, 4, 8>(c, a, b, dims),
    }
}

/// The kernel body compiled with AVX2: a `4 × 16` tile in 8 `ymm`
/// registers, 8 independent accumulator chains. (`6 × 16` measured no
/// faster on the recurrent cell's products.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2<const ADD: bool>(
    c: &mut [f32],
    a: Strided<'_>,
    b: Strided<'_>,
    dims: (usize, usize, usize),
) {
    gemm_body::<ADD, 4, 16>(c, a, b, dims);
}

/// The kernel body compiled with AVX-512F: a `4 × 32` tile in 8 `zmm`
/// registers. (`6 × 32` and `8 × 32` measured no faster.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512<const ADD: bool>(
    c: &mut [f32],
    a: Strided<'_>,
    b: Strided<'_>,
    dims: (usize, usize, usize),
) {
    gemm_body::<ADD, 4, 32>(c, a, b, dims);
}

/// The kernel body with an `MR × NR` tile. `B` is packed one `k × NR`
/// panel at a time (zero-padded past column `n`), and every `MR`-row block
/// of `A` sweeps the panel; the rows left over take one-row tiles. A
/// reduction of length 1 (an outer product) skips the tiles: each output
/// is `+0.0 + a·b`, the value a tile would hold.
///
/// Always inlined, so each `#[target_feature]` wrapper compiles its own
/// copy with its own instruction set.
#[inline(always)]
fn gemm_body<const ADD: bool, const MR: usize, const NR: usize>(
    c: &mut [f32],
    a: Strided<'_>,
    b: Strided<'_>,
    (m, k, n): (usize, usize, usize),
) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || (k == 0 && !ADD) {
        c.fill(0.0);
        return;
    }
    if k == 1 {
        let b_row: Vec<f32> = (0..n).map(|j| b.data[j * b.cs]).collect();
        for (i, row) in c.chunks_exact_mut(n).enumerate() {
            let av = a.data[i * a.rs];
            for (o, &bv) in row.iter_mut().zip(&b_row) {
                let t = 0.0 + av * bv;
                *o = if ADD { *o + t } else { t };
            }
        }
        return;
    }
    let mut panel = vec![0.0f32; k * NR];
    for j0 in (0..n).step_by(NR) {
        let w = NR.min(n - j0);
        pack_panel::<NR>(b, j0, w, &mut panel);
        let mut i = 0;
        while i + MR <= m {
            store_tile::<MR, NR, ADD>(c, n, (i, j0, w), &tile::<MR, NR>(a, i, &panel));
            i += MR;
        }
        for i in i..m {
            store_tile::<1, NR, ADD>(c, n, (i, j0, w), &tile::<1, NR>(a, i, &panel));
        }
    }
}

/// Copies columns `j0..j0 + w` of `b` into `panel`, `NR` entries per row
/// of `b`, with zeros past `w`.
#[inline(always)]
fn pack_panel<const NR: usize>(b: Strided<'_>, j0: usize, w: usize, panel: &mut [f32]) {
    let (rows, _) = panel.as_chunks_mut::<NR>();
    for (p, row) in rows.iter_mut().enumerate() {
        let start = p * b.rs + j0 * b.cs;
        if b.cs == 1 && w == NR {
            // A fixed-size copy, where a `w`-long one would call `memcpy`.
            row.copy_from_slice(&b.data[start..start + NR]);
            continue;
        }
        if b.cs == 1 {
            row[..w].copy_from_slice(&b.data[start..start + w]);
        } else {
            for (c, slot) in row[..w].iter_mut().enumerate() {
                *slot = b.data[start + c * b.cs];
            }
        }
        row[w..].fill(0.0);
    }
}

/// The micro-kernel: the `R × NR` output tile at rows `i..i + R` over one
/// packed panel, summed in ascending `p` from `+0.0`.
#[inline(always)]
fn tile<const R: usize, const NR: usize>(
    a: Strided<'_>,
    i: usize,
    panel: &[f32],
) -> [[f32; NR]; R] {
    let mut acc = [[0.0f32; NR]; R];
    let (rows, _) = panel.as_chunks::<NR>();
    for (p, b_row) in rows.iter().enumerate() {
        let base = i * a.rs + p * a.cs;
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = a.data[base + r * a.rs];
            for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// Writes the first `w` columns of a tile to rows `i..` of the `n`-wide
/// output, starting at column `j0`, adding them to it under `ADD`.
#[inline(always)]
fn store_tile<const R: usize, const NR: usize, const ADD: bool>(
    c: &mut [f32],
    n: usize,
    (i, j0, w): (usize, usize, usize),
    acc: &[[f32; NR]; R],
) {
    for (r, acc_row) in acc.iter().enumerate() {
        let start = (i + r) * n + j0;
        if ADD {
            for (o, &t) in c[start..start + w].iter_mut().zip(acc_row) {
                *o += t;
            }
        } else if w == NR {
            c[start..start + NR].copy_from_slice(acc_row);
        } else {
            c[start..start + w].copy_from_slice(&acc_row[..w]);
        }
    }
}
/// [`gemm`] into a new `m × n` matrix.
fn product(a: Strided<'_>, b: Strided<'_>, dims: (usize, usize, usize)) -> Matrix {
    let mut out = Matrix::zeros(dims.0, dims.2);
    gemm::<false>(out.as_mut_slice(), a, b, dims);
    out
}

impl Matrix {
    /// `self · other` through the shared micro-kernel (see the module
    /// docs for its summation order and NaN behavior).
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul: {}x{} · {}x{} mismatch",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        product(
            Strided::of(self),
            Strided::of(other),
            (self.rows(), self.cols(), other.cols()),
        )
    }

    /// [`Matrix::matmul`] that surfaces poisoned operands to the caller:
    /// returns `None` when either operand contains NaN/±inf, `Some(product)`
    /// otherwise.
    ///
    /// This is the variant for guard paths (e.g. the training anomaly guard)
    /// that must *detect* non-finite inputs rather than merely propagate
    /// them — `matmul` guarantees propagation, `matmul_checked` additionally
    /// reports which call first saw the poison.
    pub fn matmul_checked(&self, other: &Matrix) -> Option<Matrix> {
        if !self.all_finite() || !other.all_finite() {
            return None;
        }
        Some(self.matmul(other))
    }

    /// `selfᵀ · other`, reading `self` in place through transposed
    /// strides.
    ///
    /// # Panics
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_at_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_at_b: {}x{} ᵀ· {}x{} mismatch",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        product(
            Strided::transposed(self),
            Strided::of(other),
            (self.cols(), self.rows(), other.cols()),
        )
    }

    /// `self · otherᵀ`, packing `other`'s rows as columns of the panels.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_a_bt: {}x{} · {}x{}ᵀ mismatch",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        product(
            Strided::of(self),
            Strided::transposed(other),
            (self.rows(), self.cols(), other.rows()),
        )
    }

    /// `self += a · b`, where `a · b` is summed exactly as
    /// [`Matrix::matmul`] sums it and then added entry by entry: the result
    /// equals `self.add(&a.matmul(b))` bit for bit, without the product
    /// buffer.
    ///
    /// # Panics
    /// Panics if `a.cols() != b.rows()` or `self` is not `a.rows() × b.cols()`.
    pub fn add_matmul(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(
            (a.cols(), self.shape()),
            (b.rows(), (a.rows(), b.cols())),
            "add_matmul: {}x{} += {}x{} · {}x{} mismatch",
            self.rows(),
            self.cols(),
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        gemm::<true>(
            self.as_mut_slice(),
            Strided::of(a),
            Strided::of(b),
            (a.rows(), a.cols(), b.cols()),
        );
    }

    /// Elementwise sum.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b, "add")
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b, "sub")
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b, "hadamard")
    }

    /// `self + alpha * other`, in place (BLAS axpy).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every entry by `s`, returning a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Multiplies every entry by `s` in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for x in self.as_mut_slice() {
            *x *= s;
        }
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix::from_vec(
            self.rows(),
            self.cols(),
            self.as_slice().iter().map(|&x| f(x)).collect(),
        )
    }

    /// Adds a `1 x cols` row vector to every row (bias broadcast).
    ///
    /// # Panics
    /// Panics unless `bias` is `1 x self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(
            (1, self.cols()),
            bias.shape(),
            "add_row_broadcast: bias must be 1x{}, got {}x{}",
            self.cols(),
            bias.rows(),
            bias.cols()
        );
        let mut out = self.clone();
        let b = bias.as_slice();
        for r in 0..out.rows() {
            for (o, &bv) in out.row_mut(r).iter_mut().zip(b) {
                *o += bv;
            }
        }
        out
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32, op: &str) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: {}x{} vs {}x{} shape mismatch",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        debug_assert_eq!(
            self.as_slice().len(),
            other.as_slice().len(),
            "{op}: buffer length"
        );
        Matrix::from_vec(
            self.rows(),
            self.cols(),
            self.as_slice()
                .iter()
                .zip(other.as_slice())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use crate::{assert_matrix_eq, Matrix};

    fn a() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    fn b() -> Matrix {
        Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]])
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let c = a().matmul(&b());
        let expect = Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]);
        assert_matrix_eq(&c, &expect, 1e-6);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = a();
        assert_matrix_eq(&m.matmul(&Matrix::eye(3)), &m, 1e-6);
        assert_matrix_eq(&Matrix::eye(2).matmul(&m), &m, 1e-6);
    }

    #[test]
    fn matmul_at_b_equals_explicit_transpose() {
        let x = Matrix::from_fn(4, 3, |r, c| (r + 2 * c) as f32 - 2.5);
        let y = Matrix::from_fn(4, 5, |r, c| (2 * r + c) as f32 * 0.5);
        assert_matrix_eq(&x.matmul_at_b(&y), &x.transpose().matmul(&y), 1e-4);
    }

    #[test]
    fn matmul_a_bt_equals_explicit_transpose() {
        let x = Matrix::from_fn(4, 3, |r, c| (r + 2 * c) as f32 - 2.5);
        let y = Matrix::from_fn(5, 3, |r, c| (2 * r + c) as f32 * 0.5);
        assert_matrix_eq(&x.matmul_a_bt(&y), &x.matmul(&y.transpose()), 1e-4);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_rejects_mismatched_shapes() {
        let _ = a().matmul(&a());
    }

    #[test]
    #[should_panic(expected = "matmul_at_b")]
    fn matmul_at_b_rejects_mismatched_shapes() {
        // 2x3 ᵀ· 3x2: row counts 2 vs 3 differ, so the dimension check
        // (assert in every profile, reinforced by debug_assert_eq! row-width
        // checks in debug builds) must fire.
        let _ = a().matmul_at_b(&b());
    }

    #[test]
    #[should_panic(expected = "matmul_a_bt")]
    fn matmul_a_bt_rejects_mismatched_shapes() {
        let _ = a().matmul_a_bt(&b());
    }

    #[test]
    #[should_panic(expected = "hadamard")]
    fn elementwise_rejects_mismatched_shapes() {
        let _ = a().hadamard(&b());
    }

    #[test]
    #[should_panic(expected = "axpy")]
    fn axpy_rejects_mismatched_shapes() {
        a().axpy(1.0, &b());
    }

    #[test]
    #[should_panic(expected = "add_row_broadcast")]
    fn broadcast_rejects_non_row_bias() {
        let _ = a().add_row_broadcast(&b());
    }

    #[test]
    fn matmul_propagates_nan_under_zero_row() {
        // Regression: the zero-skip fast path used to drop `0 · NaN`
        // contributions, so a poisoned B under a zero row of A produced a
        // fully finite product and the anomaly guard never fired.
        let a = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0]]);
        let mut b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        b[(0, 0)] = f32::NAN;
        let c = a.matmul(&b);
        assert!(
            !c.all_finite(),
            "NaN in B must propagate through a zero row of A: {c:?}"
        );
        assert!(c[(0, 0)].is_nan(), "0 · NaN must be NaN");
        assert!(
            a.matmul_checked(&b).is_none(),
            "checked matmul must detect the poison"
        );
        assert!(
            b.matmul_checked(&a).is_none(),
            "poison in either operand is detected"
        );
    }

    #[test]
    fn matmul_at_b_propagates_inf_under_zero_column() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 2.0]]);
        let mut b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        b[(0, 1)] = f32::INFINITY;
        // Column 0 of A is all zeros; row 0 of the Aᵀ·B result used to be
        // silently finite despite the Inf in B's row 0.
        let c = a.matmul_at_b(&b);
        assert!(!c.all_finite(), "Inf in B must propagate: {c:?}");
        assert!(c[(0, 1)].is_nan(), "0 · inf must be NaN");
    }

    #[test]
    fn matmul_checked_matches_matmul_on_finite_inputs() {
        let c = a().matmul_checked(&b()).expect("finite inputs");
        assert_matrix_eq(&c, &a().matmul(&b()), 0.0);
    }

    #[test]
    fn elementwise_ops() {
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let y = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(x.add(&y).as_slice(), &[4.0, 6.0]);
        assert_eq!(y.sub(&x).as_slice(), &[2.0, 2.0]);
        assert_eq!(x.hadamard(&y).as_slice(), &[3.0, 8.0]);
        assert_eq!(x.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut x = Matrix::from_rows(&[&[1.0, 2.0]]);
        x.axpy(0.5, &Matrix::from_rows(&[&[2.0, 4.0]]));
        assert_eq!(x.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn bias_broadcast_adds_to_each_row() {
        let m = Matrix::zeros(3, 2);
        let bias = Matrix::row_vector(&[1.0, -1.0]);
        let out = m.add_row_broadcast(&bias);
        for r in 0..3 {
            assert_eq!(out.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn map_applies_function() {
        let m = a().map(|x| x * x);
        assert_eq!(m[(1, 2)], 36.0);
    }

    // ---- micro-kernel bit-identity regressions --------------------------
    //
    // The tiled micro-kernel promises the *exact* accumulation order of
    // the untiled loops (the spectral-cache fingerprint and the
    // thread-parity contract both lean on this). These references are the
    // original unblocked kernels, zero-skips included, kept verbatim.

    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, n) = (a.rows(), b.cols());
        let skip_zeros = b.all_finite();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (p, &a_ip) in a_row.iter().enumerate() {
                // lint: allow(float-eq) — test reference mirrors the untiled kernel's exact-zero skip
                if skip_zeros && a_ip == 0.0 {
                    continue;
                }
                let b_row = &b.as_slice()[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * bv;
                }
            }
        }
        out
    }

    fn reference_at_b(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, n) = (a.cols(), b.cols());
        let skip_zeros = b.all_finite();
        let mut out = Matrix::zeros(m, n);
        for p in 0..a.rows() {
            let a_row = a.row(p);
            let b_row = b.row(p);
            for (i, &av) in a_row.iter().enumerate() {
                // lint: allow(float-eq) — test reference mirrors the untiled kernel's exact-zero skip
                if skip_zeros && av == 0.0 {
                    continue;
                }
                let out_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    fn reference_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, n) = (a.rows(), b.rows());
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = crate::dot(a_row, b.row(j));
            }
        }
        out
    }

    /// Awkward shapes (tile remainders in every dimension) with values
    /// spread across magnitudes, plus exact zeros and negative zeros
    /// sprinkled in so the references' zero skips and the ±0.0 argument are
    /// both exercised.
    fn irregular(rows: usize, cols: usize, seed: u32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let i = (r * cols + c) as u32 + seed;
            match i % 7 {
                0 => 0.0,
                3 => -0.0,
                _ => ((i as f32) * 0.61803) % 5.0 - 2.5,
            }
        })
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_reference() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 2, 5),
            (4, 4, 4),
            (5, 7, 3),
            (9, 6, 10),
            (8, 1, 2),
        ] {
            let a = irregular(m, k, 1);
            let b = irregular(k, n, 11);
            assert_eq!(
                a.matmul(&b).as_slice(),
                reference_matmul(&a, &b).as_slice(),
                "matmul {m}x{k}·{k}x{n} diverged from the unblocked kernel"
            );
        }
    }

    #[test]
    fn blocked_matmul_at_b_is_bit_identical_to_reference() {
        for &(k, m, n) in &[
            (1, 1, 1),
            (4, 3, 2),
            (5, 2, 7),
            (8, 4, 4),
            (10, 6, 3),
            (2, 9, 5),
        ] {
            let a = irregular(k, m, 3);
            let b = irregular(k, n, 17);
            assert_eq!(
                a.matmul_at_b(&b).as_slice(),
                reference_at_b(&a, &b).as_slice(),
                "matmul_at_b {k}x{m}ᵀ·{k}x{n} diverged from the unblocked kernel"
            );
        }
    }

    #[test]
    fn blocked_matmul_a_bt_is_bit_identical_to_reference() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 4),
            (4, 4, 4),
            (3, 5, 9),
            (6, 2, 7),
            (5, 8, 1),
        ] {
            let a = irregular(m, k, 5);
            let b = irregular(n, k, 23);
            assert_eq!(
                a.matmul_a_bt(&b).as_slice(),
                reference_a_bt(&a, &b).as_slice(),
                "matmul_a_bt {m}x{k}·{n}x{k}ᵀ diverged from the unblocked kernel"
            );
        }
    }

    #[test]
    fn add_matmul_equals_add_of_matmul_bit_for_bit() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 2, 5),
            (4, 4, 9),
            (5, 7, 3),
            (9, 1, 10),
            (6, 0, 2),
        ] {
            let a = irregular(m, k, 2);
            let b = irregular(k, n, 7);
            let base = irregular(m, n, 19);
            let mut got = base.clone();
            got.add_matmul(&a, &b);
            let want = base.add(&a.matmul(&b));
            let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "add_matmul {m}x{k}·{k}x{n}");
        }
    }

    #[test]
    #[should_panic(expected = "add_matmul")]
    fn add_matmul_rejects_mismatched_accumulator() {
        Matrix::zeros(2, 3).add_matmul(&a(), &b());
    }

    #[test]
    fn blocked_kernels_match_reference_under_non_finite_rhs() {
        // skip_zeros off: the dense loops must still agree bit-for-bit,
        // NaN placement included.
        let a = irregular(6, 5, 7);
        let mut b = irregular(5, 6, 29);
        b[(2, 3)] = f32::NAN;
        b[(4, 0)] = f32::INFINITY;
        let (got, want) = (a.matmul(&b), reference_matmul(&a, &b));
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits(), "matmul NaN path diverged");
        }
        let a2 = irregular(5, 6, 13);
        let (got, want) = (a2.matmul_at_b(&b), reference_at_b(&a2, &b));
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits(), "matmul_at_b NaN path diverged");
        }
    }

    // ---- every instantiation against the naive loop ---------------------
    //
    // `gemm` runs one instantiation per process, so these tests call each
    // one the host supports directly, in every form, with and without
    // `ADD`, and compare it with the textbook loop bit for bit.

    use super::{gemm_on, Isa, Kind, Strided};
    use proptest::prelude::*;

    /// The reductions a cell uses, plus the short ones where the rank-1
    /// path and a one-row panel differ from the tiles.
    const DEPTHS: [usize; 5] = [0, 1, 2, 3, 129];

    /// Operand entries from a xorshift stream: finite values across six
    /// orders of magnitude, with `+0.0`, `-0.0`, NaN, `+inf` and `-inf`
    /// at a rate of one in `special` (none when `special == 0`).
    fn operand(len: usize, seed: u64, special: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let r = state >> 8;
                if special > 0 && r.is_multiple_of(special) {
                    [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(r >> 24) as usize % 5]
                } else {
                    let scale = [1e-3, 1.0, 1e3][(r >> 32) as usize % 3];
                    ((r % 2001) as f32 / 97.0 - 10.3) * scale
                }
            })
            .collect()
    }

    /// `C = A·B` (`ADD`: `C = base + A·B`) by the textbook loop: each
    /// output the ascending-`p` sum from `+0.0`, then added to `base`.
    fn naive(
        a: Strided<'_>,
        b: Strided<'_>,
        (m, k, n): (usize, usize, usize),
        base: Option<&[f32]>,
    ) -> Vec<f32> {
        (0..m * n)
            .map(|idx| {
                let (i, j) = (idx / n, idx % n);
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.data[i * a.rs + p * a.cs] * b.data[p * b.rs + j * b.cs];
                }
                base.map_or(acc, |c| c[idx] + acc)
            })
            .collect()
    }

    /// Equal bits, or both NaN: IEEE 754 leaves a NaN's payload open.
    fn same(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Runs `form` (0: `A·B`, 1: `Aᵀ·B`, 2: `A·Bᵀ`, as the three matmul
    /// methods read their operands) at `m × k · k × n` on every supported
    /// instantiation, with and without `ADD`, and returns the first
    /// mismatch with the naive loop.
    fn check_all_paths(
        form: usize,
        (m, k, n): (usize, usize, usize),
        seed: u64,
        special: u64,
    ) -> Result<(), String> {
        let a_data = operand(m * k, seed, special);
        let b_data = operand(k * n, seed ^ 0x5151, special);
        let base = operand(m * n, seed ^ 0xA7A7, special);
        let (a, b) = match form {
            0 => (
                Strided {
                    data: &a_data,
                    rs: k,
                    cs: 1,
                },
                Strided {
                    data: &b_data,
                    rs: n,
                    cs: 1,
                },
            ),
            1 => (
                Strided {
                    data: &a_data,
                    rs: 1,
                    cs: m,
                },
                Strided {
                    data: &b_data,
                    rs: n,
                    cs: 1,
                },
            ),
            _ => (
                Strided {
                    data: &a_data,
                    rs: k,
                    cs: 1,
                },
                Strided {
                    data: &b_data,
                    rs: 1,
                    cs: k,
                },
            ),
        };
        let (want, want_add) = (
            naive(a, b, (m, k, n), None),
            naive(a, b, (m, k, n), Some(&base)),
        );
        for isa in Isa::supported() {
            let mut got = vec![f32::NAN; m * n];
            gemm_on::<false>(isa, &mut got, a, b, (m, k, n));
            let mut got_add = base.clone();
            gemm_on::<true>(isa, &mut got_add, a, b, (m, k, n));
            for (add, got, want) in [(false, &got, &want), (true, &got_add, &want_add)] {
                if let Some(at) = (0..m * n).find(|&i| !same(got[i], want[i])) {
                    return Err(format!(
                        "{isa:?} form {form} ADD {add} {m}x{k}·{k}x{n} seed {seed}: entry {at} is {:?}, naive {:?}",
                        got[at], want[at]
                    ));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn every_path_matches_naive_on_every_edge_shape() {
        let supported: Vec<Kind> = Isa::supported().map(Isa::kind).collect();
        for kind in [Kind::Portable, Kind::Avx2, Kind::Avx512] {
            if !supported.contains(&kind) {
                eprintln!("note: this CPU cannot run the {kind:?} gemm; its checks are skipped");
            }
        }
        assert_eq!(
            Isa::widest().kind(),
            *supported.last().expect("portable is always supported")
        );
        // Rows cover every remainder modulo 4; columns every panel edge of
        // the 8-, 16- and 32-wide panels.
        for m in 0..=9 {
            for n in [1, 5, 8, 9, 15, 16, 17, 31, 32, 33, 40] {
                for k in DEPTHS {
                    for form in 0..3 {
                        let seed = (m * 1000 + n * 10 + k) as u64;
                        check_all_paths(form, (m, k, n), seed, 9).unwrap_or_else(|e| panic!("{e}"));
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn every_path_matches_naive(
            m in 0usize..14,
            n in 0usize..70,
            k in prop_oneof![0usize..4, Just(129usize), 4usize..40],
            form in 0usize..3,
            seed in 0u64..u64::MAX,
            special in prop_oneof![Just(0u64), Just(7u64), Just(50u64), Just(1000u64)],
        ) {
            check_all_paths(form, (m, k, n), seed, special)?;
        }
    }
}
