//! Transition matrices, stationary distributions, and the CasLaplacian
//! (paper Section IV-B, Eq. 5–11, Algorithm 1).

use std::sync::Arc;

use cascn_tensor::{dot, Csr, Matrix, SparseOp};

use crate::DiGraph;

/// Default teleport probability `α` of Eq. 7. The paper leaves the value
/// unstated; 0.85 is the standard PageRank choice and keeps `P_c`
/// irreducible as the equation requires.
pub const DEFAULT_ALPHA: f32 = 0.85;

/// Builds the cascade transition matrix of Eq. 7:
/// `P_c = (1 − α)·E/n + α·D⁻¹W`.
///
/// Rows whose out-degree is zero (cascade leaves) receive a self-loop before
/// normalization — the same fix the paper applies to the cascade initiator in
/// Section IV-A — so `D⁻¹` is always defined.
///
/// # Panics
/// Panics if the graph has no nodes or `alpha` is outside `(0, 1)`.
pub fn transition_matrix(g: &DiGraph, alpha: f32) -> Matrix {
    assert!(g.node_count() > 0, "transition_matrix: empty graph");
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "transition_matrix: alpha must be in (0,1), got {alpha}"
    );
    let n = g.node_count();
    let mut w = g.adjacency();
    let deg = g.weighted_out_degrees();
    for (i, &d) in deg.iter().enumerate() {
        // lint: allow(float-eq) — dangling nodes have an exactly-zero out-degree by construction
        if d == 0.0 {
            w[(i, i)] = 1.0; // self-loop for dangling nodes
        }
    }
    let teleport = (1.0 - alpha) / n as f32;
    let mut p = Matrix::full(n, n, teleport);
    for r in 0..n {
        let row_sum: f32 = w.row(r).iter().sum();
        for c in 0..n {
            p[(r, c)] += alpha * w[(r, c)] / row_sum;
        }
    }
    p
}

/// Iteration cap of the dense stationary-distribution power iteration.
const STATIONARY_MAX_ITERS: usize = 10_000;

/// What a stationary-distribution solve actually did — callers on the
/// preprocessing hot path need to distinguish a converged φ from a
/// best-effort iterate or a degeneracy fallback.
#[derive(Debug, Clone, PartialEq)]
pub struct StationaryOutcome {
    /// The distribution: converged φ, the last iterate, or uniform when
    /// `fallback` is set. Always finite with entries summing to ~1.
    pub phi: Vec<f32>,
    /// Whether the solve met its tolerance: a `1e-10` max-norm step for
    /// the dense power iteration, a `1e-6` ℓ1 sweep change for the sparse
    /// Gauss–Seidel solve.
    pub converged: bool,
    /// Whether a non-finite `P` or a degenerate (NaN/Inf/zero/negative)
    /// normalizer forced the uniform-distribution fallback.
    pub fallback: bool,
    /// Power-iteration rounds (dense) or Gauss–Seidel sweeps (sparse)
    /// performed before returning.
    pub iterations: usize,
}

impl StationaryOutcome {
    fn uniform_fallback(n: usize, iterations: usize) -> Self {
        Self { phi: vec![1.0 / n as f32; n], converged: false, fallback: true, iterations }
    }
}

/// Solves `φᵀ P = φᵀ` with `φᵀe = 1` by power iteration on the dense `P`
/// (step 3 of Algorithm 1 as the paper states it), reporting convergence
/// and degeneracy explicitly. The directed operator path uses the exact
/// sparse solve ([`stationary_distribution_sparse`]); this dense loop is
/// its test oracle.
///
/// `P` should be row-stochastic and irreducible (which Eq. 7 guarantees);
/// convergence is then geometric, though the `1e-10` tolerance sits below
/// f32 resolution for entries near `1/n`, so larger cascades can exhaust
/// the round cap. Inputs that violate the contract — a NaN-poisoned `P`,
/// or one whose iterate normalizer becomes non-finite or non-positive — do
/// **not** poison the result: the uniform distribution is returned with
/// `fallback` set, so `cas_laplacian` and every Chebyshev basis built from
/// it stay finite.
///
/// # Panics
/// Panics if `p` is not square or empty.
pub fn stationary_distribution_checked(p: &Matrix) -> StationaryOutcome {
    assert_eq!(p.rows(), p.cols(), "stationary_distribution: non-square P");
    assert!(p.rows() > 0, "stationary_distribution: empty P");
    let n = p.rows();
    if !p.all_finite() {
        return StationaryOutcome::uniform_fallback(n, 0);
    }
    // `φᵀP` is `Pᵀ·φ`; `spmv_transpose` scatters in ascending-(r, c) order.
    let pt = Csr::from_dense(p);
    let mut phi = vec![1.0 / n as f32; n];
    let mut converged = false;
    let mut iterations = 0;
    for it in 0..STATIONARY_MAX_ITERS {
        iterations = it + 1;
        let mut next = pt.spmv_transpose(&phi);
        let sum: f32 = next.iter().sum();
        if !sum.is_finite() || sum <= 0.0 {
            // Overflow/underflow mid-iteration: normalizing by this sum
            // would spread NaN/Inf into φ and from there into the
            // CasLaplacian. Give up on this P instead.
            return StationaryOutcome::uniform_fallback(n, iterations);
        }
        for x in &mut next {
            *x /= sum;
        }
        let delta: f32 = phi
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        std::mem::swap(&mut phi, &mut next);
        if delta < 1e-10 {
            converged = true;
            break;
        }
    }
    StationaryOutcome {
        phi,
        converged,
        fallback: false,
        iterations,
    }
}

/// Computes the CasLaplacian of Eq. 8 / Algorithm 1 densely:
/// `Δ_c = Φ^{1/2} (I − P_c) Φ^{-1/2}` with `Φ = diag(φ)`.
///
/// Unlike the undirected normalized Laplacian (Eq. 9), `Δ_c` preserves the
/// directionality of the cascade — the property Table IV's
/// `CasCN-Undirected` ablation shows to matter.
///
/// Test oracle: [`SpectralBasis::directed`] builds the same operator in
/// `O(nnz)` without forming this `n×n` matrix.
pub fn cas_laplacian(g: &DiGraph, alpha: f32) -> Matrix {
    let p = transition_matrix(g, alpha);
    let phi = stationary_distribution_checked(&p).phi;
    let n = p.rows();
    let mut lap = Matrix::zeros(n, n);
    for r in 0..n {
        let sr = phi[r].max(1e-12).sqrt();
        for c in 0..n {
            let sc = phi[c].max(1e-12).sqrt();
            let i_minus_p = if r == c { 1.0 - p[(r, c)] } else { -p[(r, c)] };
            lap[(r, c)] = sr * i_minus_p / sc;
        }
    }
    lap
}

/// The square-rooted stationary vector `Φ^{1/2}·e`. `Δ_c` annihilates this
/// vector by construction — a fact the property tests exploit.
pub fn sqrt_stationary(g: &DiGraph, alpha: f32) -> Vec<f32> {
    let p = transition_matrix(g, alpha);
    stationary_distribution_checked(&p)
        .phi
        .into_iter()
        .map(|x| x.max(0.0).sqrt())
        .collect()
}

/// The symmetric normalized Laplacian of Eq. 9,
/// `L = I − D^{-1/2} W_sym D^{-1/2}`, after symmetrizing the cascade
/// (`W_sym = W + Wᵀ`), densely.
///
/// Isolated nodes get a self-loop so `D^{-1/2}` is defined.
///
/// Test oracle: the `CasCN-Undirected` variant runs
/// [`SpectralBasis::undirected`], which builds the same operator in
/// `O(nnz)`.
pub fn undirected_normalized_laplacian(g: &DiGraph) -> Matrix {
    let n = g.node_count();
    let w = g.adjacency();
    let mut sym = Matrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            sym[(r, c)] = w[(r, c)] + w[(c, r)];
        }
    }
    for i in 0..n {
        let row_sum: f32 = sym.row(i).iter().sum();
        // lint: allow(float-eq) — isolated nodes have an exactly-zero row sum; NaN falls through to the general path
        if row_sum == 0.0 {
            sym[(i, i)] = 1.0;
        }
    }
    let dinv_sqrt: Vec<f32> = (0..n)
        .map(|i| 1.0 / sym.row(i).iter().sum::<f32>().sqrt())
        .collect();
    let mut lap = Matrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            let v = dinv_sqrt[r] * sym[(r, c)] * dinv_sqrt[c];
            lap[(r, c)] = if r == c { 1.0 - v } else { -v };
        }
    }
    lap
}

/// Estimates the largest eigenvalue of a Laplacian for Chebyshev scaling.
///
/// `Δ_c` is not symmetric, so we take the largest eigenvalue of its
/// symmetric part `(Δ_c + Δ_cᵀ)/2` — the maximum Rayleigh quotient of `Δ_c`
/// over real vectors, which is exactly the quantity that must bound the
/// Chebyshev domain. Power iteration runs on the positively shifted
/// operator `S + cI` so the dominant eigenvalue is the largest (not merely
/// largest-magnitude) one.
///
/// Returns 2.0 (the paper's `λ_max ≈ 2` shortcut) for degenerate inputs.
///
/// Test oracle of the sparse estimator both [`SpectralBasis`] builders run.
pub fn largest_eigenvalue(lap: &Matrix) -> f32 {
    let n = lap.rows();
    assert_eq!(n, lap.cols(), "largest_eigenvalue: non-square input");
    if n == 0 {
        return 2.0;
    }
    if n == 1 {
        return if lap[(0, 0)].abs() > 1e-6 { lap[(0, 0)].abs() } else { 2.0 };
    }
    // Symmetric part.
    let mut s = Matrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            s[(r, c)] = 0.5 * (lap[(r, c)] + lap[(c, r)]);
        }
    }
    // Shift by the max absolute row sum (Gershgorin bound) to make the
    // target eigenvalue dominant and positive.
    let shift: f32 = (0..n)
        .map(|r| s.row(r).iter().map(|x| x.abs()).sum::<f32>())
        .fold(0.0, f32::max);
    for i in 0..n {
        s[(i, i)] += shift;
    }
    let mut x = vec![1.0f32; n];
    let mut lambda = 0.0f32;
    for _ in 0..200 {
        let y = mat_vec(&s, &x);
        let norm = y.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm < 1e-20 {
            return 2.0;
        }
        let xn: Vec<f32> = y.iter().map(|v| v / norm).collect();
        let new_lambda = dot(&mat_vec(&s, &xn), &xn);
        let done = (new_lambda - lambda).abs() < 1e-7 * new_lambda.abs().max(1.0);
        lambda = new_lambda;
        x = xn;
        if done {
            break;
        }
    }
    let result = lambda - shift;
    if result.is_finite() && result > 1e-3 {
        result
    } else {
        2.0
    }
}

/// Scales a Laplacian to the Chebyshev domain `[-1, 1]`:
/// `Δ̃ = (2/λ_max)·Δ − I` (Eq. 2). Test oracle of the row scaling both
/// [`SpectralBasis`] builders share.
///
/// # Panics
/// Panics if `lambda_max <= 0`.
pub fn scale_laplacian(lap: &Matrix, lambda_max: f32) -> Matrix {
    assert!(
        lambda_max > 0.0,
        "scale_laplacian: lambda_max must be positive, got {lambda_max}"
    );
    let mut out = lap.scale(2.0 / lambda_max);
    for i in 0..out.rows().min(out.cols()) {
        out[(i, i)] -= 1.0;
    }
    out
}

/// Sweep cap of the sparse stationary solve. Forward-ordered cascades
/// finish in two sweeps; any other graph contracts by at least `α` per
/// sweep, so the cap only bounds pathological inputs.
const PHI_MAX_SWEEPS: usize = 500;

/// ℓ1 change of one Gauss–Seidel sweep at or below which the sparse φ
/// counts as converged: a few f32 ulps of a distribution summing to 1.
const PHI_SWEEP_TOL: f32 = 1e-6;

/// Out-adjacency of a cascade graph in the form the sparse directed
/// pipeline runs on: `rows[r]` holds `(child, weight)` with strictly
/// ascending children, parallel edges summed in insertion order and exact
/// zeros dropped — the sparse image of [`DiGraph::adjacency`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Adjacency {
    rows: Vec<Vec<(usize, f32)>>,
}

impl Adjacency {
    pub(crate) fn from_graph(g: &DiGraph) -> Self {
        let mut rows: Vec<Vec<(usize, f32)>> = vec![Vec::new(); g.node_count()];
        for (u, v, w) in g.edges() {
            rows[u].push((v, w));
        }
        for row in &mut rows {
            // Stable sort: parallel edges keep insertion order, so they sum
            // in the same order as the dense adjacency accumulates them.
            row.sort_by_key(|&(c, _)| c);
            row.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 += next.1;
                }
                same
            });
            // lint: allow(float-eq) — exact-zero sparsity test: only true zeros leave the adjacency
            row.retain(|&(_, w)| w != 0.0);
        }
        Self { rows }
    }

    fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// The symmetrized adjacency `W + Wᵀ` of Eq. 9, rows ascending, with a
    /// unit self-loop on every isolated node so `D^{-1/2}` is defined —
    /// the sparse image of what [`undirected_normalized_laplacian`] forms.
    fn symmetrized(&self) -> Vec<Vec<(usize, f32)>> {
        let mut rows = self.rows.clone();
        for (r, row) in self.rows.iter().enumerate() {
            for &(c, w) in row {
                rows[c].push((r, w));
            }
        }
        for (i, row) in rows.iter_mut().enumerate() {
            // Each column appears at most twice (once per direction), so the
            // merge is one commutative addition: `w_rc + w_cr` bit for bit.
            row.sort_by_key(|&(c, _)| c);
            row.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 += next.1;
                }
                same
            });
            // lint: allow(float-eq) — exact-zero sparsity test: only true zeros leave the adjacency
            row.retain(|&(_, w)| w != 0.0);
            let degree: f32 = row.iter().map(|&(_, w)| w).sum();
            // lint: allow(float-eq) — isolated nodes have an exactly-zero degree; NaN falls through to the general path
            if degree == 0.0 {
                set_diagonal(row, i, 1.0);
            }
        }
        rows
    }
}

/// Sets entry `(r, r)` of an ascending row to `value`, inserting it if
/// absent.
fn set_diagonal(row: &mut Vec<(usize, f32)>, r: usize, value: f32) {
    match row.binary_search_by_key(&r, |&(c, _)| c) {
        Ok(i) => row[i].1 = value,
        Err(i) => row.insert(i, (r, value)),
    }
}

/// One ascending row of an unscaled Laplacian `I − M` from the row's
/// entries of `M`. The identity diagonal is stored even where `M` has none,
/// so a row's structure — and the persisted text form — never depends on
/// its values (it stays when scaling by a pinned `λ_max = 2` zeroes it).
fn identity_minus(r: usize, m: impl Iterator<Item = (usize, f32)>) -> Vec<(usize, f32)> {
    let mut entries: Vec<(usize, f32)> =
        m.map(|(c, v)| (c, if c == r { 1.0 - v } else { -v })).collect();
    if let Err(pos) = entries.binary_search_by_key(&r, |&(c, _)| c) {
        entries.insert(pos, (r, 1.0));
    }
    entries
}

/// The sparse part `α·D⁻¹W` of Eq. 7's `P_c` over the self-loop-patched
/// adjacency, one ascending row per node, and what the directed spectral
/// pipeline derives from it: φ and the CasLaplacian's sparse core.
struct Transition {
    teleport: f32,
    rows: Vec<Vec<(usize, f32)>>,
}

impl Transition {
    /// # Panics
    /// Panics if the graph is empty or `alpha` is outside `(0, 1)` (the
    /// [`transition_matrix`] contract).
    fn new(adj: &Adjacency, alpha: f32) -> Self {
        let n = adj.node_count();
        assert!(n > 0, "transition_matrix: empty graph");
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "transition_matrix: alpha must be in (0,1), got {alpha}"
        );
        let rows = adj
            .rows
            .iter()
            .enumerate()
            .map(|(r, row)| {
                let mut row = row.clone();
                let out: f32 = row.iter().map(|&(_, w)| w).sum();
                // lint: allow(float-eq) — dangling nodes have an exactly-zero out-degree by construction
                if out == 0.0 {
                    // Self-loop for dangling nodes, as in `transition_matrix`.
                    set_diagonal(&mut row, r, 1.0);
                }
                let row_sum: f32 = row.iter().map(|&(_, w)| w).sum();
                row.into_iter().map(|(c, w)| (c, alpha * w / row_sum)).collect()
            })
            .collect();
        Self { teleport: (1.0 - alpha) / n as f32, rows }
    }

    /// Solves `φ = α·Aᵀφ + (1−α)/n` by Gauss–Seidel sweeps over in-edges
    /// in node order (self-loops solved for on the diagonal), then
    /// normalizes. When every edge goes from a lower to a higher index — a
    /// validated cascade, where a parent always precedes its child — the
    /// first sweep is exact forward substitution and the second changes
    /// nothing bit for bit. Other graphs converge geometrically (rate ≤ α)
    /// under [`PHI_MAX_SWEEPS`]. Degeneracy handling matches
    /// [`stationary_distribution_checked`].
    fn stationary(&self) -> StationaryOutcome {
        let n = self.rows.len();
        if !self.rows.iter().flatten().all(|&(_, a)| a.is_finite()) {
            return StationaryOutcome::uniform_fallback(n, 0);
        }
        let mut into: Vec<Vec<(usize, f32)>> = vec![Vec::new(); n];
        let mut diag = vec![0.0f32; n];
        for (r, row) in self.rows.iter().enumerate() {
            for &(c, a) in row {
                if c == r {
                    diag[c] = a;
                } else {
                    into[c].push((r, a));
                }
            }
        }
        let mut phi = vec![1.0 / n as f32; n];
        let mut converged = false;
        let mut sweeps = 0;
        while !converged && sweeps < PHI_MAX_SWEEPS {
            sweeps += 1;
            let mut change = 0.0f32;
            for c in 0..n {
                let inflow = into[c].iter().fold(self.teleport, |acc, &(r, a)| acc + a * phi[r]);
                let next = inflow / (1.0 - diag[c]);
                change += (next - phi[c]).abs();
                phi[c] = next;
            }
            if !change.is_finite() {
                break;
            }
            converged = change <= PHI_SWEEP_TOL;
        }
        let sum: f32 = phi.iter().sum();
        if !sum.is_finite() || sum <= 0.0 {
            return StationaryOutcome::uniform_fallback(n, sweeps);
        }
        for x in &mut phi {
            *x /= sum;
        }
        StationaryOutcome { phi, converged, fallback: false, iterations: sweeps }
    }

    /// The sparse core `Φ^{1/2}(I − α·D⁻¹W)Φ^{-1/2}` of the unscaled
    /// CasLaplacian (`s = φ^{1/2}`): `Δ_c` without its rank-1 teleport
    /// term `−teleport·s·(1/s)ᵀ`, identity diagonal stored on every row.
    fn laplacian_core(&self, s: &[f32]) -> Csr {
        let rows: Vec<Vec<(usize, f32)>> = self
            .rows
            .iter()
            .enumerate()
            .map(|(r, row)| {
                let m = row.iter().map(|&(c, a)| (c, if c == r { a } else { s[r] * a / s[c] }));
                identity_minus(r, m)
            })
            .collect();
        Csr::from_rows(self.rows.len(), &rows)
    }
}

/// Sparse counterpart of [`largest_eigenvalue`] for `Δ = core −
/// teleport·s·(1/s)ᵀ` (see [`Transition::laplacian_core`]; the undirected
/// Laplacian passes `s = 1`, `teleport = 0`): power iteration on the
/// positively shifted symmetric part, `O(nnz + n)` per round. The
/// Gershgorin shift is computed exactly from `Δ`'s sign structure
/// (non-negative diagonal, non-positive off-diagonals), so no dense matrix
/// is formed.
fn largest_eigenvalue_sparse(core: &Csr, s: &[f32], teleport: f32) -> f32 {
    let n = core.rows();
    let inv_s: Vec<f32> = s.iter().map(|&x| 1.0 / x).collect();
    let sum_s: f32 = s.iter().sum();
    let sum_inv: f32 = inv_s.iter().sum();
    // y = ½(Δ_c + Δ_cᵀ)·x, the teleport term folded in on both sides;
    // `fwd` and `bwd` are scratch.
    let sym_into = |x: &[f32], fwd: &mut [f32], bwd: &mut [f32], y: &mut [f32]| {
        core.spmv_into(x, fwd);
        core.spmv_transpose_into(x, bwd);
        let fold_fwd: f32 = inv_s.iter().zip(x).map(|(&v, &xi)| v * xi).sum();
        let fold_bwd: f32 = s.iter().zip(x).map(|(&u, &xi)| u * xi).sum();
        for i in 0..n {
            let f = fwd[i] - teleport * s[i] * fold_fwd;
            let b = bwd[i] - teleport * inv_s[i] * fold_bwd;
            y[i] = 0.5 * (f + b);
        }
    };
    let (mut fwd, mut bwd) = (vec![0.0f32; n], vec![0.0f32; n]);
    if n == 1 {
        let mut d = [0.0f32];
        sym_into(&[1.0], &mut fwd, &mut bwd, &mut d);
        let d = d[0];
        return if d.abs() > 1e-6 { d.abs() } else { 2.0 };
    }
    // Gershgorin bound on the symmetric part via sign structure:
    // Σ_c |sym_rc| = 2·Δ_rr − ½·(rowΣ_r(Δ) + colΣ_r(Δ)).
    let mut row_sum = vec![0.0f32; n];
    let mut col_sum = vec![0.0f32; n];
    let mut diag = vec![0.0f32; n];
    for r in 0..n {
        for &(c, v) in core.row(r) {
            row_sum[r] += v;
            col_sum[c] += v;
            if c == r {
                diag[r] += v;
            }
        }
    }
    let mut shift = 0.0f32;
    for r in 0..n {
        let row_t = row_sum[r] - teleport * s[r] * sum_inv;
        let col_t = col_sum[r] - teleport * inv_s[r] * sum_s;
        let d = diag[r] - teleport * (s[r] * inv_s[r]);
        shift = shift.max(2.0 * d - 0.5 * (row_t + col_t));
    }
    shift = shift.max(0.0);

    let mut shifted_into = |x: &[f32], y: &mut [f32]| {
        sym_into(x, &mut fwd, &mut bwd, y);
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += shift * xi;
        }
    };
    // `y` is the shifted image of the current `x`. A round's image of its
    // normalized vector is the next round's `y`, so each round takes one
    // product.
    let mut x = vec![1.0f32; n];
    let mut y = vec![0.0f32; n];
    let mut next_y = vec![0.0f32; n];
    shifted_into(&x, &mut y);
    let mut lambda = 0.0f32;
    for _ in 0..200 {
        let norm = y.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm < 1e-20 {
            return 2.0;
        }
        for (xi, &v) in x.iter_mut().zip(&y) {
            *xi = v / norm;
        }
        shifted_into(&x, &mut next_y);
        let new_lambda = dot(&next_y, &x);
        let done = (new_lambda - lambda).abs() < 1e-7 * new_lambda.abs().max(1.0);
        lambda = new_lambda;
        std::mem::swap(&mut y, &mut next_y);
        if done {
            break;
        }
    }
    let result = lambda - shift;
    if result.is_finite() && result > 1e-3 {
        result
    } else {
        2.0
    }
}

/// Stationary distribution of Eq. 7's `P_c` by the exact sparse solve the
/// directed operator uses — `O(nnz)` per sweep and two sweeps on any
/// cascade — reported like [`stationary_distribution_checked`], whose
/// dense power iteration is its test oracle.
///
/// # Panics
/// Panics if the graph is empty or `alpha` is outside `(0, 1)`.
pub fn stationary_distribution_sparse(g: &DiGraph, alpha: f32) -> StationaryOutcome {
    Transition::new(&Adjacency::from_graph(g), alpha).stationary()
}

/// The directed spectral pipeline: φ, λ_max (unless pinned) and the scaled
/// CasLaplacian operator of a cascade graph, all in `O(nnz)` per step with
/// no `n×n` matrix, plus what the φ solve did. [`SpectralBasis::directed`]
/// is this without the solve report.
///
/// # Panics
/// Panics if the graph is empty or `alpha` is outside `(0, 1)` (the
/// [`transition_matrix`] contract), or a pinned `lambda_max` is not
/// positive.
pub fn directed_operator(
    g: &DiGraph,
    alpha: f32,
    lambda_max: Option<f32>,
    k: usize,
) -> (SpectralBasis, StationaryOutcome) {
    let t = Transition::new(&Adjacency::from_graph(g), alpha);
    let stationary = t.stationary();
    let s: Vec<f32> = stationary.phi.iter().map(|&x| x.max(1e-12).sqrt()).collect();
    let core = t.laplacian_core(&s);
    let lambda_max =
        lambda_max.unwrap_or_else(|| largest_eigenvalue_sparse(&core, &s, t.teleport));
    let csr = scale_rows(&core, lambda_max);
    // The teleport term scales into the rank-1 coefficient.
    let v: Vec<f32> = s.iter().map(|&x| 1.0 / x).collect();
    let coeff = -(2.0 / lambda_max * t.teleport);
    let op = Arc::new(SparseOp::new(csr, Some((coeff, s, v))));
    (SpectralBasis { lambda_max, k, op }, stationary)
}

/// `Δ̃ = (2/λ)·Δ − I` (Eq. 2) row by row over an unscaled Laplacian core
/// that stores every diagonal entry — [`scale_laplacian`] without the
/// dense matrix, and with the same arithmetic per entry.
///
/// # Panics
/// Panics if `lambda_max` is not positive.
fn scale_rows(core: &Csr, lambda_max: f32) -> Csr {
    assert!(
        lambda_max > 0.0,
        "spectral basis: lambda_max must be positive, got {lambda_max}"
    );
    let two_over = 2.0 / lambda_max;
    let rows: Vec<Vec<(usize, f32)>> = (0..core.rows())
        .map(|r| {
            let scale = |&(c, v): &(usize, f32)| {
                (c, if c == r { two_over * v - 1.0 } else { two_over * v })
            };
            core.row(r).iter().map(scale).collect()
        })
        .collect();
    Csr::from_rows(core.cols(), &rows)
}

/// The spectral quantity CasCN derives from one cascade Laplacian: the
/// scaled operator `Δ̃` in sparse-plus-rank-1 form, ready to drive the
/// operator-form Chebyshev recurrence — bundled into a single cacheable
/// handle.
///
/// Every basis comes from one `O(nnz)` pipeline: a Laplacian core built
/// from the cascade's sparse adjacency — the directed CasLaplacian of
/// Eq. 8 ([`SpectralBasis::directed`]) or the undirected normalized
/// Laplacian of Eq. 9 ([`SpectralBasis::undirected`]) — a sparse `λ_max`
/// estimate, and one row scaling (Eq. 2). The handle stores only `Δ̃`
/// (`O(nnz + n)`), and the convolution layer carries the recurrence on
/// `n×d` feature blocks: `T_k·X = 2·Δ̃·(T_{k-1}·X) − T_{k-2}·X`.
/// [`SpectralBasis::materialize`] produces the dense bases `T_k(Δ̃)` for
/// the dense test oracle and gradient checking.
///
/// Building the operator (Eq. 2–9) dominates inference preprocessing, yet it
/// depends only on the observed cascade structure, never on model
/// parameters. A cascade re-queried across requests therefore reuses the
/// same handle: the serving layer's spectral cache stores
/// `Arc<SpectralBasis>` keyed by (cascade id, window) and every consumer
/// shares it read-only.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralBasis {
    /// The λ_max the Laplacian was scaled by.
    pub lambda_max: f32,
    /// The Chebyshev order `K` of the convolution this operator feeds.
    pub k: usize,
    /// The scaled Laplacian `Δ̃ = (2/λ_max)·Δ − I` (Eq. 2) as a sparse
    /// operator, shared with every tape node that applies it.
    pub op: Arc<SparseOp>,
}

impl SpectralBasis {
    /// Builds the scaled **directed** CasLaplacian operator straight from
    /// the cascade graph, without forming any `n×n` matrix:
    ///
    /// `Δ̃ = S + coeff·u·vᵀ` where `S` carries the adjacency-supported part
    /// (`S_rr = (2/λ)·(1 − a_rr) − 1`, `S_rc = −(2/λ)·s_r·a_rc/s_c` with
    /// `a_rc = α·w_rc/rowsum` over the self-loop-patched adjacency and
    /// `s = φ^{1/2}`), and the rank-1 term is the PageRank teleport mass:
    /// `coeff = −(2/λ)·(1−α)/n`, `u = s`, `v = 1/s`.
    ///
    /// `φ` comes from the exact sparse solve
    /// ([`stationary_distribution_sparse`]) and, when `lambda_max` is
    /// `None`, `λ_max` from the sparse estimator of the same quantity as
    /// [`largest_eigenvalue`]; the dense [`cas_laplacian`] pipeline agrees
    /// to within f32 noise and serves as the test oracle.
    ///
    /// # Panics
    /// Panics if the graph is empty or `alpha` is outside `(0, 1)` (the
    /// [`transition_matrix`] contract), or a pinned `lambda_max` is not
    /// positive.
    pub fn directed(g: &DiGraph, alpha: f32, lambda_max: Option<f32>, k: usize) -> Self {
        directed_operator(g, alpha, lambda_max, k).0
    }

    /// Builds the scaled **undirected** normalized Laplacian operator of
    /// Eq. 9 (the `CasCN-Undirected` variant) straight from the cascade
    /// graph: `Δ̃ = (2/λ)·(I − D^{-1/2}·W_sym·D^{-1/2}) − I` over the
    /// symmetrized adjacency `W_sym = W + Wᵀ`, isolated nodes patched with a
    /// self-loop. The operator is as sparse as the cascade (no rank-1
    /// part).
    ///
    /// When `lambda_max` is `None`, `λ_max` comes from the same sparse
    /// estimator the directed operator uses (unit `s`, no teleport term).
    /// Every entry is computed exactly as the dense oracle
    /// ([`undirected_normalized_laplacian`] → [`scale_laplacian`]) computes
    /// it, so under a pinned `λ_max` the two agree entry for entry.
    ///
    /// # Panics
    /// Panics if a pinned `lambda_max` is not positive.
    pub fn undirected(g: &DiGraph, lambda_max: Option<f32>, k: usize) -> Self {
        let sym = Adjacency::from_graph(g).symmetrized();
        let n = sym.len();
        let dinv_sqrt: Vec<f32> = sym
            .iter()
            .map(|row| 1.0 / row.iter().map(|&(_, w)| w).sum::<f32>().sqrt())
            .collect();
        let rows: Vec<Vec<(usize, f32)>> = sym
            .iter()
            .enumerate()
            .map(|(r, row)| {
                identity_minus(r, row.iter().map(|&(c, w)| (c, dinv_sqrt[r] * w * dinv_sqrt[c])))
            })
            .collect();
        let core = Csr::from_rows(n, &rows);
        let lambda_max =
            lambda_max.unwrap_or_else(|| largest_eigenvalue_sparse(&core, &vec![1.0; n], 0.0));
        let op = Arc::new(SparseOp::from_csr(scale_rows(&core, lambda_max)));
        Self { lambda_max, k, op }
    }

    /// Rebuilds a handle from persisted parts (the snapshot loader).
    pub fn from_parts(lambda_max: f32, k: usize, op: Arc<SparseOp>) -> Self {
        Self { lambda_max, k, op }
    }

    /// Number of nodes the operator covers.
    pub fn num_nodes(&self) -> usize {
        self.op.dim()
    }

    /// The Chebyshev order `K` (the operator drives `K + 1` recurrence
    /// terms).
    pub fn order(&self) -> usize {
        self.k
    }

    /// Approximate heap footprint in bytes — the sparse operator — used by
    /// cache-budget accounting. Compare `O(K·n²·4)` for the materialized
    /// bases this replaces.
    pub fn approx_bytes(&self) -> usize {
        self.op.approx_bytes()
    }

    /// The dense scaled Laplacian `Δ̃` (tests and diagnostics).
    pub fn scaled_dense(&self) -> Matrix {
        self.op.to_dense()
    }

    /// Materializes the dense Chebyshev bases `[T_0(Δ̃), …, T_K(Δ̃)]` the
    /// way earlier revisions stored them — the dense test oracle
    /// (`PreprocessedCascade::with_dense_bases`) and gradient checking use
    /// this; no production path does.
    pub fn materialize(&self) -> Vec<Matrix> {
        chebyshev_bases(&self.op.to_dense(), self.k)
    }
}

/// Chebyshev polynomial bases `[T_0(L̃), …, T_K(L̃)]` via the recursion
/// `T_k = 2 L̃ T_{k-1} − T_{k-2}` (Eq. 2/3). Returns `K + 1` matrices.
pub fn chebyshev_bases(scaled: &Matrix, k: usize) -> Vec<Matrix> {
    let n = scaled.rows();
    let mut bases = Vec::with_capacity(k + 1);
    bases.push(Matrix::eye(n));
    if k >= 1 {
        bases.push(scaled.clone());
    }
    for i in 2..=k {
        let mut next = scaled.matmul(&bases[i - 1]).scale(2.0);
        next.axpy(-1.0, &bases[i - 2]);
        bases.push(next);
    }
    bases
}

/// Dense matrix–vector product through the shared [`cascn_tensor::dot`]
/// kernel. Each output element is one strictly sequential dot product, so
/// the power iterations above stay bit-identical across refactors of the
/// surrounding code.
fn mat_vec(m: &Matrix, x: &[f32]) -> Vec<f32> {
    (0..m.rows()).map(|r| dot(m.row(r), x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_tensor::assert_matrix_eq;

    fn fig1() -> DiGraph {
        let mut g = DiGraph::new(6);
        for &(u, v) in &[(0, 1), (0, 2), (1, 3), (1, 4), (3, 5)] {
            g.add_edge(u, v, 1.0);
        }
        g
    }

    #[test]
    fn transition_rows_are_stochastic_and_positive() {
        let p = transition_matrix(&fig1(), 0.85);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            assert!(p.row(r).iter().all(|&x| x > 0.0), "row {r} has a zero entry");
        }
    }

    #[test]
    fn stationary_is_a_fixed_point() {
        let p = transition_matrix(&fig1(), 0.85);
        let phi = stationary_distribution_checked(&p).phi;
        assert!((phi.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // φᵀ P ≈ φᵀ
        let n = p.rows();
        for c in 0..n {
            let projected: f32 = (0..n).map(|r| phi[r] * p[(r, c)]).sum();
            assert!(
                (projected - phi[c]).abs() < 1e-4,
                "column {c}: {projected} vs {}",
                phi[c]
            );
        }
    }

    #[test]
    fn stationary_reports_convergence_on_healthy_input() {
        let p = transition_matrix(&fig1(), 0.85);
        let out = stationary_distribution_checked(&p);
        assert!(out.converged, "Eq. 7 transition matrices converge geometrically");
        assert!(!out.fallback);
        assert!(out.iterations < 10_000, "converged after {} rounds", out.iterations);
        assert!((out.phi.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn stationary_falls_back_to_uniform_on_nan_input() {
        // Regression: a NaN-poisoned P used to flow straight through the
        // `sum` normalizer into φ — and from there into cas_laplacian and
        // every Chebyshev basis.
        let mut p = transition_matrix(&fig1(), 0.85);
        p[(2, 3)] = f32::NAN;
        let out = stationary_distribution_checked(&p);
        assert!(out.fallback, "NaN P must trigger the uniform fallback");
        assert!(!out.converged);
        let n = p.rows();
        assert_eq!(out.phi, vec![1.0 / n as f32; n]);
        assert!(out.phi.iter().all(|x| x.is_finite()), "fallback φ must be finite");
    }

    #[test]
    fn stationary_falls_back_on_degenerate_normalizer() {
        // An all-zero "transition matrix" drives the iterate sum to 0.
        let p = Matrix::zeros(4, 4);
        let out = stationary_distribution_checked(&p);
        assert!(out.fallback);
        assert_eq!(out.phi, vec![0.25; 4]);
        assert_eq!(out.iterations, 1, "degeneracy is detected on the first round");
    }

    #[test]
    fn sparse_stationary_is_exact_in_two_sweeps_on_a_cascade() {
        let g = fig1();
        let sparse = stationary_distribution_sparse(&g, 0.85);
        assert!(sparse.converged && !sparse.fallback);
        assert_eq!(sparse.iterations, 2, "forward substitution, then a no-op sweep");
        assert!((sparse.phi.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        let dense = stationary_distribution_checked(&transition_matrix(&g, 0.85));
        for (a, b) in sparse.phi.iter().zip(&dense.phi) {
            assert!((a - b).abs() < 1e-6, "sparse {a} vs dense {b}");
        }
    }

    #[test]
    fn sparse_stationary_converges_on_cycles_and_self_loops() {
        // Back edges and a self-loop: Gauss–Seidel needs more than two
        // sweeps but still lands on the dense answer.
        let mut g = fig1();
        g.add_edge(5, 0, 1.0);
        g.add_edge(4, 1, 2.0);
        g.add_edge(2, 2, 0.5);
        g.add_edge(2, 3, 1.0);
        let sparse = stationary_distribution_sparse(&g, 0.85);
        assert!(sparse.converged && !sparse.fallback);
        assert!(sparse.iterations > 2 && sparse.iterations < 100, "{} sweeps", sparse.iterations);
        let dense = stationary_distribution_checked(&transition_matrix(&g, 0.85));
        for (a, b) in sparse.phi.iter().zip(&dense.phi) {
            assert!((a - b).abs() < 1e-5, "sparse {a} vs dense {b}");
        }
    }

    #[test]
    fn sparse_stationary_falls_back_to_uniform_on_nan_weight() {
        let mut g = fig1();
        g.add_edge(2, 3, f32::NAN);
        let out = stationary_distribution_sparse(&g, 0.85);
        assert!(out.fallback && !out.converged);
        assert_eq!(out.phi, vec![1.0 / 6.0; 6]);
    }

    #[test]
    fn cas_laplacian_stays_finite_for_degenerate_stationary_input() {
        // End-to-end: even when φ falls back, the Laplacian built from it
        // must be finite (the anomaly guard depends on preprocessing never
        // emitting NaN bases for structurally valid cascades).
        let g = fig1();
        let lap = cas_laplacian(&g, 0.85);
        assert!(lap.all_finite());
    }

    #[test]
    fn cas_laplacian_annihilates_sqrt_stationary() {
        let g = fig1();
        let lap = cas_laplacian(&g, 0.85);
        let v = sqrt_stationary(&g, 0.85);
        for r in 0..lap.rows() {
            let y: f32 = lap.row(r).iter().zip(&v).map(|(&a, &b)| a * b).sum();
            assert!(y.abs() < 1e-4, "row {r} maps sqrt-stationary to {y}");
        }
    }

    #[test]
    fn cas_laplacian_is_asymmetric_for_directed_input() {
        let lap = cas_laplacian(&fig1(), 0.85);
        let mut asym = 0.0f32;
        for r in 0..lap.rows() {
            for c in 0..r {
                asym = asym.max((lap[(r, c)] - lap[(c, r)]).abs());
            }
        }
        assert!(asym > 1e-4, "CasLaplacian should retain directionality");
    }

    #[test]
    fn single_node_cascade_is_handled() {
        let g = DiGraph::new(1);
        let lap = cas_laplacian(&g, 0.85);
        assert_eq!(lap.shape(), (1, 1));
        assert!(lap[(0, 0)].abs() < 1e-5, "1-node laplacian should be ~0");
    }

    #[test]
    fn undirected_laplacian_is_symmetric_psd() {
        let lap = undirected_normalized_laplacian(&fig1());
        for r in 0..lap.rows() {
            for c in 0..lap.cols() {
                assert!((lap[(r, c)] - lap[(c, r)]).abs() < 1e-6);
            }
        }
        // Rayleigh quotients of a normalized Laplacian lie in [0, 2].
        let lmax = largest_eigenvalue(&lap);
        assert!(lmax > 0.0 && lmax <= 2.0 + 1e-4, "λmax = {lmax}");
    }

    #[test]
    fn largest_eigenvalue_of_diag_matrix() {
        let m = Matrix::diag(&[0.5, 1.7, 0.3]);
        let l = largest_eigenvalue(&m);
        assert!((l - 1.7).abs() < 1e-3, "got {l}");
    }

    #[test]
    fn scale_laplacian_maps_spectrum() {
        // For L = diag(0, 2) and λmax = 2: scaled = diag(-1, 1).
        let l = Matrix::diag(&[0.0, 2.0]);
        let s = scale_laplacian(&l, 2.0);
        assert_matrix_eq(&s, &Matrix::diag(&[-1.0, 1.0]), 1e-6);
    }

    #[test]
    fn chebyshev_matches_cosine_formula_on_diagonal() {
        // For diagonal L̃ with entries x ∈ [-1, 1], T_k(L̃) must be diagonal
        // with entries cos(k·arccos(x)).
        let xs = [-0.9f32, -0.2, 0.4, 1.0];
        let l = Matrix::diag(&xs);
        let bases = chebyshev_bases(&l, 4);
        for (k, t) in bases.iter().enumerate() {
            for (i, &x) in xs.iter().enumerate() {
                let expect = (k as f32 * x.acos()).cos();
                assert!(
                    (t[(i, i)] - expect).abs() < 1e-4,
                    "T_{k}({x}) = {} vs cos formula {expect}",
                    t[(i, i)]
                );
            }
        }
    }

    #[test]
    fn chebyshev_t0_t1_identities() {
        let lap = cas_laplacian(&fig1(), 0.85);
        let scaled = scale_laplacian(&lap, largest_eigenvalue(&lap));
        let bases = chebyshev_bases(&scaled, 2);
        assert_matrix_eq(&bases[0], &Matrix::eye(6), 1e-6);
        assert_matrix_eq(&bases[1], &scaled, 1e-6);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1)")]
    fn transition_rejects_bad_alpha() {
        let _ = transition_matrix(&fig1(), 1.5);
    }

    /// Fig. 1 plus the shapes Eq. 9's patching exists for: an isolated
    /// node, a self-loop, parallel edges and a back edge.
    fn irregular() -> DiGraph {
        let mut g = DiGraph::new(8);
        for &(u, v, w) in &[(0, 1, 1.0), (0, 2, 0.5), (1, 3, 1.0), (3, 1, 2.0), (2, 4, 1.0)] {
            g.add_edge(u, v, w);
        }
        g.add_edge(2, 4, 1.5);
        g.add_edge(5, 5, 0.7);
        g.add_edge(4, 6, 1.0); // node 7 stays isolated
        g
    }

    /// The undirected operator against the dense Eq. 9 oracle: λ within
    /// 1e-3 relative, entries within 1e-4, exactly the oracle's entries
    /// under the same λ, and a core no denser than the cascade.
    fn assert_undirected_matches_oracle(g: &DiGraph) {
        let lap = undirected_normalized_laplacian(g);
        let handle = SpectralBasis::undirected(g, None, 3);
        let dense_lmax = largest_eigenvalue(&lap);
        let rel = (handle.lambda_max - dense_lmax).abs() / dense_lmax;
        assert!(rel < 1e-3, "sparse λ {} vs dense {dense_lmax}", handle.lambda_max);
        let got = handle.scaled_dense();
        assert_matrix_eq(&got, &scale_laplacian(&lap, dense_lmax), 1e-4);
        assert_matrix_eq(&got, &scale_laplacian(&lap, handle.lambda_max), 0.0);
        assert!(handle.op.rank1().is_none(), "Eq. 9 has no teleport term");
        assert!(
            handle.op.nnz() <= 2 * g.edge_count() + g.node_count(),
            "core nnz {} is not sparse",
            handle.op.nnz()
        );
    }

    #[test]
    fn spectral_basis_matches_manual_pipeline() {
        assert_undirected_matches_oracle(&fig1());
        assert_undirected_matches_oracle(&irregular());
        assert_undirected_matches_oracle(&DiGraph::new(1));
        let handle = SpectralBasis::undirected(&fig1(), None, 3);
        let manual = chebyshev_bases(&handle.scaled_dense(), 3);
        assert_eq!(handle.materialize(), manual);
        assert_eq!(handle.num_nodes(), 6);
        assert_eq!(handle.order(), 3);
        // Operator storage beats the 4 dense 6x6 bases the old handle held.
        assert!(handle.approx_bytes() < 4 * 6 * 6 * 4);
    }

    #[test]
    fn spectral_basis_pins_lambda_max() {
        for g in [fig1(), irregular()] {
            let lap = undirected_normalized_laplacian(&g);
            let handle = SpectralBasis::undirected(&g, Some(2.0), 2);
            assert_eq!(handle.lambda_max, 2.0);
            // Same arithmetic per entry as the dense oracle: exactly equal.
            assert_eq!(handle.scaled_dense(), scale_laplacian(&lap, 2.0));
            assert_eq!(handle.materialize().len(), 3, "K + 1 bases");
        }
    }

    #[test]
    fn directed_operator_matches_dense_scaled_laplacian() {
        let g = fig1();
        for lmax in [None, Some(2.0)] {
            let handle = SpectralBasis::directed(&g, 0.85, lmax, 2);
            let lap = cas_laplacian(&g, 0.85);
            let dense = scale_laplacian(&lap, handle.lambda_max);
            assert_matrix_eq(&handle.scaled_dense(), &dense, 1e-5);
            // The core must stay as sparse as the cascade: 5 edges + 6
            // diagonal entries + dangling self-loops, nowhere near 36.
            assert!(
                handle.op.nnz() <= 2 * g.edge_count() + g.node_count(),
                "core nnz {} is not sparse",
                handle.op.nnz()
            );
            assert!(handle.op.rank1().is_some(), "teleport mass must be rank-1");
        }
    }

    #[test]
    fn directed_operator_lambda_matches_dense_estimate() {
        let g = fig1();
        let handle = SpectralBasis::directed(&g, 0.85, None, 2);
        let dense_lmax = largest_eigenvalue(&cas_laplacian(&g, 0.85));
        let rel = (handle.lambda_max - dense_lmax).abs() / dense_lmax;
        assert!(
            rel < 1e-3,
            "sparse λ {} vs dense oracle {dense_lmax} (rel {rel})",
            handle.lambda_max
        );
    }

    #[test]
    fn directed_operator_apply_matches_materialized_products() {
        let g = fig1();
        let handle = SpectralBasis::directed(&g, 0.85, None, 3);
        let x = Matrix::from_fn(6, 4, |r, c| ((r * 4 + c) as f32).sin());
        let got = handle.op.apply(&x);
        let expect = handle.scaled_dense().matmul(&x);
        assert_matrix_eq(&got, &expect, 1e-5);
    }

    #[test]
    fn directed_operator_single_node() {
        let g = DiGraph::new(1);
        let handle = SpectralBasis::directed(&g, 0.85, None, 2);
        assert_eq!(handle.num_nodes(), 1);
        let x = Matrix::row_vector(&[1.0, 2.0]);
        assert!(handle.op.apply(&x).all_finite());
    }
}
