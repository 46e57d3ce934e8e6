//! The dense symmetric eigensolver.
//!
//! [`top_eigenpairs`] returns the `k` algebraically largest eigenpairs of a
//! dense symmetric matrix: Householder tridiagonalisation in place,
//! eigenvalues by implicit QL, eigenvectors of only the wanted values by
//! inverse iteration on the tridiagonal, then back-transformation of those
//! `k` vectors (the route of LAPACK's `dsyevx`). It costs one O(n³)
//! reduction and has no iteration budget to exhaust. Every dense
//! eigenproblem of the pipeline goes through it, whatever its size:
//!
//! * the spectral clustering affinity (T×T, `k` = the concept budget);
//! * the Rayleigh–Ritz matrices of subspace iteration (b×b, b ≈ k +
//!   oversampling, every pair);
//! * the core-tensor Gram matrix `Σ = S₍₂₎S₍₂₎ᵀ` (J₂×J₂, every pair);
//! * the Gram of a HOOI product's smaller side (s×s, `k` = Jₙ), where
//!   [`crate::svd::dense_truncated_svd`] takes the exact route.
//!
//! Operators that can only be *applied* — the Tucker unfoldings' Gram
//! operators, LSI's sparse matrix — go through [`crate::subspace`]. The
//! tests hold the solver against cyclic Jacobi, kept there as the oracle.

use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::Result;

/// Result of a symmetric eigendecomposition `A = V Λ Vᵀ`.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues sorted in descending order.
    pub values: Vec<f64>,
    /// Matrix whose *columns* are the corresponding eigenvectors.
    pub vectors: Matrix,
}

/// Implicit QL sweeps allowed per eigenvalue; two or three is typical.
const MAX_QL_SWEEPS: usize = 30;

/// Inverse-iteration solves allowed per eigenvector, and the extra solves
/// run once the iterate has grown past the stopping test (LAPACK's
/// `dstein` constants).
const MAX_INVERSE_SOLVES: usize = 5;
const EXTRA_INVERSE_SOLVES: usize = 2;

/// The `k` algebraically largest eigenpairs of the dense symmetric matrix
/// `a`, which is consumed: its storage holds the Householder reflectors,
/// so the solve needs no second `n × n` buffer. Values come back in
/// descending order, `vectors` is `n × k` with orthonormal columns.
///
/// 1. **Tridiagonalisation.** Step `j` reflects row `j` right of the
///    diagonal onto its first entry and applies the reflector to the
///    trailing block from both sides as a rank-2 update. The reflector is
///    then kept in that part of row `j`, which no later step reads. The
///    update of step `j` and the matrix–vector product of step `j + 1`
///    share one pass over the trailing rows (the next reflector is known
///    as soon as the first trailing row is updated), so a step streams
///    its block once. Only the symmetric input's rows are read, and the
///    update keeps them exactly symmetric.
/// 2. **Splitting.** An off-diagonal entry of at most `ε‖T‖` is set to
///    zero — a perturbation the size of the reduction's own round-off —
///    and the tridiagonal falls apart into unreduced blocks. A repeated
///    eigenvalue (λ = 1 of a normalised affinity once per connected
///    component of its graph) lives in several blocks, one copy each.
/// 3. **Eigenvalues** of every block by implicit QL, without vectors.
/// 4. **Eigenvectors** of the wanted values only, each by inverse iteration
///    on its own block from a fixed start vector: LU with partial pivoting
///    of `T − λI`, solves until the iterate has grown past `√(0.1/m)`, and
///    modified Gram–Schmidt against the block's earlier vectors whose
///    values lie within `10⁻³‖T‖` (a cluster). A value equal to its
///    predecessor's to round-off is nudged apart by ten ulps first.
/// 5. **Back-transformation** of the `k` vectors through the reflectors.
///
/// Fails with [`LinAlgError::InvalidArgument`] when `a` is not square,
/// holds a non-finite entry or `k` is outside `1..=n`, and with
/// [`LinAlgError::NotConverged`] when a QL eigenvalue or an inverse
/// iteration does not converge — never with a partial result.
pub fn top_eigenpairs(mut a: Matrix, k: usize) -> Result<EigenDecomposition> {
    let (n, m) = a.shape();
    if n != m {
        return Err(LinAlgError::InvalidArgument(format!(
            "top_eigenpairs requires a square matrix, got {n}x{m}"
        )));
    }
    if k == 0 || k > n {
        return Err(LinAlgError::InvalidArgument(format!(
            "requested {k} eigenpairs of a {n}x{n} matrix"
        )));
    }
    if a.as_slice().iter().any(|x| !x.is_finite()) {
        return Err(LinAlgError::InvalidArgument(
            "top_eigenpairs requires finite entries".into(),
        ));
    }
    let mut tri = tridiagonalize(&mut a);
    let blocks = tri.split();

    // Every eigenvalue with its block; the top k in descending order, ties
    // broken by block so the order is a function of the input alone.
    let mut all: Vec<(f64, usize)> = Vec::with_capacity(n);
    for (b, &(lo, hi)) in blocks.iter().enumerate() {
        let values = ql_eigenvalues(&tri.diag[lo..hi], &tri.off[lo..hi - 1])?;
        all.extend(values.into_iter().map(|v| (v, b)));
    }
    all.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
    all.truncate(k);

    let mut vectors = Matrix::zeros(n, k);
    let mut start = StartVectors::default();
    for (b, &(lo, hi)) in blocks.iter().enumerate() {
        // The block's wanted values in ascending order, with their columns.
        let mut wanted: Vec<(f64, usize)> = all
            .iter()
            .enumerate()
            .filter(|(_, &(_, vb))| vb == b)
            .map(|(col, &(v, _))| (v, col))
            .collect();
        wanted.reverse();
        if !wanted.is_empty() {
            inverse_iteration(&tri, lo, hi, &wanted, &mut vectors, &mut start)?;
        }
    }
    back_transform(&a, &tri.tau, &mut vectors);
    Ok(EigenDecomposition {
        values: all.into_iter().map(|(v, _)| v).collect(),
        vectors,
    })
}

/// A symmetric tridiagonal `T = Qᵀ A Q` and the scalars of the reflectors
/// `Q = H₀ H₁ ⋯ H_{n−2}`, `Hⱼ = I − τⱼ vⱼ vⱼᵀ`, whose vectors stay in `A`.
struct Tridiagonal {
    diag: Vec<f64>,
    /// `off[i]` couples rows `i` and `i + 1`.
    off: Vec<f64>,
    tau: Vec<f64>,
}

/// `‖T‖₁` of the symmetric tridiagonal with diagonal `d` and off-diagonal
/// `e`: its largest absolute row sum.
fn tridiagonal_norm(d: &[f64], e: &[f64]) -> f64 {
    (0..d.len())
        .map(|i| {
            let left = if i > 0 { e[i - 1].abs() } else { 0.0 };
            let right = e.get(i).map_or(0.0, |x| x.abs());
            d[i].abs() + left + right
        })
        .fold(0.0, f64::max)
}

impl Tridiagonal {
    /// Zeroes every off-diagonal entry of at most `ε‖T‖₁` and returns the
    /// unreduced blocks as half-open row ranges, in order.
    fn split(&mut self) -> Vec<(usize, usize)> {
        let n = self.diag.len();
        let norm = tridiagonal_norm(&self.diag, &self.off);
        let mut blocks = Vec::new();
        let mut lo = 0;
        for i in 0..n {
            let last = i + 1 == n;
            if !last && self.off[i].abs() <= f64::EPSILON * norm {
                self.off[i] = 0.0;
            }
            if last || self.off[i] == 0.0 {
                blocks.push((lo, i + 1));
                lo = i + 1;
            }
        }
        blocks
    }
}

/// Householder-reduces the symmetric `a` to tridiagonal form in place,
/// leaving reflector `j`'s vector in row `j`, columns `j + 1..` (its first
/// entry, 1, stored explicitly). Everything else `a` holds afterwards is
/// dead.
fn tridiagonalize(a: &mut Matrix) -> Tridiagonal {
    let n = a.rows();
    let data = a.as_mut_slice();
    let mut tri = Tridiagonal {
        diag: vec![0.0; n],
        off: vec![0.0; n.saturating_sub(1)],
        tau: vec![0.0; n.saturating_sub(1)],
    };
    if n == 0 {
        return tri;
    }
    tri.diag[0] = data[0];
    if n == 1 {
        return tri;
    }
    // Scratch of length ≤ n − 1: this step's reflector v and p = τ·A₂₂v
    // (then w), and the next step's vector and product.
    let mut v = vec![0.0; n - 1];
    let mut p = vec![0.0; n - 1];
    let mut next_v = vec![0.0; n - 1];
    let mut next_p = vec![0.0; n - 1];

    // Step 0's reflector and product, in a pass of its own.
    let (head, tail) = data.split_at_mut(n);
    let (beta, tau) = make_reflector(&mut head[1..]);
    tri.off[0] = beta;
    tri.tau[0] = tau;
    v.copy_from_slice(&head[1..]);
    if tau != 0.0 {
        for (row, &vi) in tail.chunks_exact(n).zip(&v) {
            for (pj, &x) in p.iter_mut().zip(&row[1..]) {
                *pj += vi * x;
            }
        }
        for pj in p.iter_mut() {
            *pj *= tau;
        }
    }

    for j in 0..n - 1 {
        // Step j: A₂₂ = A[j+1.., j+1..] of order m; v and p = τ·A₂₂v known.
        let m = n - j - 1;
        let (vs, w) = (&v[..m], &mut p[..m]);
        // w = p − (τ/2)(pᵀv)v, and A₂₂ ← A₂₂ − v wᵀ − w vᵀ.
        let half = 0.5 * tri.tau[j] * w.iter().zip(vs).map(|(a, b)| a * b).sum::<f64>();
        for (wi, &vi) in w.iter_mut().zip(vs) {
            *wi -= half * vi;
        }
        let (first, rest) = data[(j + 1) * n..].split_at_mut(n);
        // The first trailing row: its update yields the next diagonal entry
        // and the next reflector.
        let (v0, w0) = (vs[0], w[0]);
        for ((x, &wc), &vc) in first[j + 1..].iter_mut().zip(w.iter()).zip(vs) {
            *x -= v0 * wc + w0 * vc;
        }
        tri.diag[j + 1] = first[j + 1];
        if m == 1 {
            break;
        }
        let (beta, next_tau) = make_reflector(&mut first[j + 2..]);
        tri.off[j + 1] = beta;
        tri.tau[j + 1] = next_tau;
        let nv = &mut next_v[..m - 1];
        let np = &mut next_p[..m - 1];
        nv.copy_from_slice(&first[j + 2..]);
        np.fill(0.0);
        // The other trailing rows: this step's update, restricted to the
        // columns the next step reads, fused with the next product.
        let (vt, wt) = (&vs[1..], &w[1..]);
        for (r, row) in rest.chunks_exact_mut(n).enumerate() {
            let (vi, wi, ui) = (vs[r + 1], w[r + 1], nv[r]);
            let row = &mut row[j + 2..];
            if next_tau == 0.0 {
                for ((x, &wc), &vc) in row.iter_mut().zip(wt).zip(vt) {
                    *x -= vi * wc + wi * vc;
                }
                continue;
            }
            for (((x, &wc), &vc), pc) in row.iter_mut().zip(wt).zip(vt).zip(np.iter_mut()) {
                *x -= vi * wc + wi * vc;
                *pc += ui * *x;
            }
        }
        for pc in np.iter_mut() {
            *pc *= next_tau;
        }
        std::mem::swap(&mut v, &mut next_v);
        std::mem::swap(&mut p, &mut next_p);
    }
    tri
}

/// Turns `x` into the vector of the Householder reflector `H = I − τvvᵀ`
/// with `Hx = βe₁` (LAPACK's `dlarfg`: `v₀ = 1`, stored in `x[0]`) and
/// returns `(β, τ)`. A vector already along `e₁` gets `τ = 0`, `H = I`.
fn make_reflector(x: &mut [f64]) -> (f64, f64) {
    let alpha = x[0];
    let tail_sq: f64 = x[1..].iter().map(|t| t * t).sum();
    if tail_sq == 0.0 {
        x[0] = 1.0;
        return (alpha, 0.0);
    }
    let beta = -alpha.hypot(tail_sq.sqrt()).copysign(alpha);
    let scale = 1.0 / (alpha - beta);
    for t in x[1..].iter_mut() {
        *t *= scale;
    }
    x[0] = 1.0;
    (beta, (beta - alpha) / beta)
}

/// Eigenvalues of the unreduced symmetric tridiagonal with diagonal `d`
/// and off-diagonal `e` (`e.len() + 1 == d.len()`), by implicit QL with
/// Wilkinson shifts, in no particular order. An off-diagonal entry
/// deflates once it is at most `ε‖T‖₁`, as in EISPACK's `tql1`: a test
/// relative to its two diagonal neighbours alone can never pass for an
/// eigenvalue at round-off level in a block that also holds large ones,
/// because each sweep's round-off (≈ ε‖T‖) refills that entry.
fn ql_eigenvalues(d: &[f64], e: &[f64]) -> Result<Vec<f64>> {
    let n = d.len();
    let small = f64::EPSILON * tridiagonal_norm(d, e);
    let mut d = d.to_vec();
    let mut e: Vec<f64> = e.iter().copied().chain([0.0]).collect();
    for l in 0..n {
        let mut sweeps = 0;
        loop {
            let mut m = l;
            while m + 1 < n && e[m].abs() > small {
                m += 1;
            }
            if m == l {
                break;
            }
            if sweeps == MAX_QL_SWEEPS {
                return Err(LinAlgError::NotConverged {
                    method: "tridiagonal QL",
                    iterations: sweeps,
                    residual: e[l].abs(),
                });
            }
            sweeps += 1;
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow: the rotation deflated.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(d)
}

/// The fixed start vectors of inverse iteration: one stream of uniform
/// draws from `[−1, 1)` (SplitMix64), so the solve has no seed to choose.
struct StartVectors(u64);

impl Default for StartVectors {
    fn default() -> Self {
        StartVectors(0x7472_6964_6961_6721)
    }
}

impl StartVectors {
    fn fill(&mut self, x: &mut [f64]) {
        for slot in x.iter_mut() {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            *slot = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        }
    }
}

/// `T − λI = P L U` of an unreduced tridiagonal block by Gaussian
/// elimination with partial pivoting (LAPACK's `dgttrf`): `U` has two
/// superdiagonals, `L` one multiplier per row, `swapped[i]` whether rows
/// `i` and `i + 1` were interchanged. Pivots smaller than `tiny` are raised
/// to it, so a shift that *is* an eigenvalue still solves.
struct ShiftedLu {
    mult: Vec<f64>,
    u0: Vec<f64>,
    u1: Vec<f64>,
    u2: Vec<f64>,
    swapped: Vec<bool>,
}

impl ShiftedLu {
    fn factor(d: &[f64], e: &[f64], shift: f64, tiny: f64) -> Self {
        let m = d.len();
        let mut u0: Vec<f64> = d.iter().map(|x| x - shift).collect();
        let mut u1 = e.to_vec();
        let mut u2 = vec![0.0; m.saturating_sub(2)];
        let mut mult = vec![0.0; m - 1];
        let mut swapped = vec![false; m - 1];
        for i in 0..m - 1 {
            let sub = e[i];
            if u0[i].abs() >= sub.abs() {
                if u0[i] != 0.0 {
                    mult[i] = sub / u0[i];
                    u0[i + 1] -= mult[i] * u1[i];
                }
            } else {
                let f = u0[i] / sub;
                u0[i] = sub;
                mult[i] = f;
                let t = u1[i];
                u1[i] = u0[i + 1];
                u0[i + 1] = t - f * u0[i + 1];
                if i + 2 < m {
                    u2[i] = u1[i + 1];
                    u1[i + 1] *= -f;
                }
                swapped[i] = true;
            }
        }
        for u in u0.iter_mut() {
            if u.abs() < tiny {
                *u = tiny.copysign(*u);
            }
        }
        ShiftedLu {
            mult,
            u0,
            u1,
            u2,
            swapped,
        }
    }

    /// `b ← (T − λI)⁻¹ b` through the factors.
    fn solve(&self, b: &mut [f64]) {
        let m = b.len();
        for i in 0..m - 1 {
            if self.swapped[i] {
                let t = b[i];
                b[i] = b[i + 1];
                b[i + 1] = t - self.mult[i] * b[i];
            } else {
                b[i + 1] -= self.mult[i] * b[i];
            }
        }
        b[m - 1] /= self.u0[m - 1];
        b[m - 2] = (b[m - 2] - self.u1[m - 2] * b[m - 1]) / self.u0[m - 2];
        for i in (0..m.saturating_sub(2)).rev() {
            b[i] = (b[i] - self.u1[i] * b[i + 1] - self.u2[i] * b[i + 2]) / self.u0[i];
        }
    }
}

/// Inverse iteration for the `wanted` eigenvalues (ascending, each with
/// its output column) of the unreduced block `lo..hi` of `tri`, after
/// LAPACK's `dstein`. Each vector is written into rows `lo..hi` of its
/// column of `out`, normalised, its largest entry positive.
fn inverse_iteration(
    tri: &Tridiagonal,
    lo: usize,
    hi: usize,
    wanted: &[(f64, usize)],
    out: &mut Matrix,
    start: &mut StartVectors,
) -> Result<()> {
    let m = hi - lo;
    if m == 1 {
        out[(lo, wanted[0].1)] = 1.0;
        return Ok(());
    }
    let (d, e) = (&tri.diag[lo..hi], &tri.off[lo..hi - 1]);
    let norm = tridiagonal_norm(d, e);
    let eps = f64::EPSILON;
    let cluster_gap = 1e-3 * norm;
    let grown = (0.1 / m as f64).sqrt();
    let tiny = eps * norm;
    // The current cluster's vectors, for its Gram–Schmidt.
    let mut cluster: Vec<Vec<f64>> = Vec::new();
    let mut prev = f64::NEG_INFINITY;
    let mut b = vec![0.0; m];
    for (idx, &(value, col)) in wanted.iter().enumerate() {
        let mut shift = value;
        if idx > 0 {
            let nudge = 10.0 * (eps * shift).abs();
            if shift - prev < nudge {
                shift = prev + nudge;
            }
            if shift - prev > cluster_gap {
                cluster.clear();
            }
        }
        prev = shift;
        let lu = ShiftedLu::factor(d, e, shift, tiny);
        let last_pivot = lu.u0[m - 1].abs();
        start.fill(&mut b);
        let mut solves = 0;
        let mut past = 0;
        loop {
            if solves == MAX_INVERSE_SOLVES {
                return Err(LinAlgError::NotConverged {
                    method: "tridiagonal inverse iteration",
                    iterations: solves,
                    residual: b.iter().fold(0.0, |acc: f64, x| acc.max(x.abs())),
                });
            }
            solves += 1;
            let top = b.iter().fold(0.0, |acc: f64, x| acc.max(x.abs()));
            if top == 0.0 || !top.is_finite() {
                start.fill(&mut b);
                continue;
            }
            let scale = m as f64 * norm * eps.max(last_pivot) / top;
            for x in b.iter_mut() {
                *x *= scale;
            }
            lu.solve(&mut b);
            for z in &cluster {
                let dot: f64 = b.iter().zip(z).map(|(x, y)| x * y).sum();
                for (x, &y) in b.iter_mut().zip(z) {
                    *x -= dot * y;
                }
            }
            let top = b.iter().fold(0.0, |acc: f64, x| acc.max(x.abs()));
            if top.is_finite() && top >= grown {
                past += 1;
                if past > EXTRA_INVERSE_SOLVES {
                    break;
                }
            }
        }
        let norm2 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
        let largest = b
            .iter()
            .copied()
            .fold(0.0, |acc: f64, x| if x.abs() > acc.abs() { x } else { acc });
        let scale = (1.0 / norm2).copysign(largest);
        for x in b.iter_mut() {
            *x *= scale;
        }
        for (i, &x) in b.iter().enumerate() {
            out[(lo + i, col)] = x;
        }
        cluster.push(b.clone());
    }
    Ok(())
}

/// `Z ← Q Z = H₀ H₁ ⋯ H_{n−2} Z` for the reflectors left in `a` by
/// [`tridiagonalize`], applied last to first.
fn back_transform(a: &Matrix, tau: &[f64], z: &mut Matrix) {
    let k = z.cols();
    let mut dots = vec![0.0; k];
    for (j, &t) in tau.iter().enumerate().rev() {
        if t == 0.0 {
            continue;
        }
        let v = &a.row(j)[j + 1..];
        let rows = &mut z.as_mut_slice()[(j + 1) * k..];
        dots.fill(0.0);
        for (row, &vi) in rows.chunks_exact(k).zip(v) {
            for (s, &x) in dots.iter_mut().zip(row) {
                *s += vi * x;
            }
        }
        for (row, &vi) in rows.chunks_exact_mut(k).zip(v) {
            let f = t * vi;
            for (x, &s) in row.iter_mut().zip(&dots) {
                *x -= f * s;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::qr::orthonormality_error;
    use proptest::prelude::*;

    /// Every eigenpair of the symmetric `a` by cyclic Jacobi rotations,
    /// values descending: the oracle [`top_eigenpairs`] and the subspace
    /// solvers are held against. Plain indexed loops, simple to check by
    /// reading; it stops after 64 sweeps whether or not the off-diagonal
    /// mass has fallen below `tol · ‖A‖_F`.
    pub(crate) fn jacobi_eigen_reference(a: &Matrix, tol: f64) -> EigenDecomposition {
        let n = a.rows();
        let mut a = a.clone();
        let mut v = Matrix::identity(n);
        let threshold = tol * a.frobenius_norm().max(f64::MIN_POSITIVE);
        for _ in 0..64 {
            let mut off = 0.0;
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        off += a[(i, j)] * a[(i, j)];
                    }
                }
            }
            if off.sqrt() <= threshold {
                break;
            }
            for p in 0..n - 1 {
                for q in p + 1..n {
                    let apq = a[(p, q)];
                    if apq.abs() <= threshold / (n as f64) {
                        continue;
                    }
                    let theta = (a[(q, q)] - a[(p, p)]) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let (akp, akq) = (a[(k, p)], a[(k, q)]);
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let (apk, aqk) = (a[(p, k)], a[(q, k)]);
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let (vkp, vkq) = (v[(k, p)], v[(k, q)]);
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| a[(j, j)].total_cmp(&a[(i, i)]));
        EigenDecomposition {
            values: order.iter().map(|&i| a[(i, i)]).collect(),
            vectors: Matrix::from_fn(n, n, |i, j| v[(i, order[j])]),
        }
    }

    /// All `n` pairs of `a` by the product solver.
    fn all_pairs(a: &Matrix) -> EigenDecomposition {
        top_eigenpairs(a.clone(), a.rows()).unwrap()
    }

    #[test]
    fn eigen_of_diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let e = all_pairs(&a);
        assert_eq!(e.values.len(), 3);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 2.0).abs() < 1e-10);
        assert!((e.values[2] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_2x2_known() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = all_pairs(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        // Eigenvector for λ=3 is ±(1,1)/√2.
        let v0 = e.vectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-8);
        assert!((v0[0] - v0[1]).abs() < 1e-8);
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, -2.0, 0.5],
            vec![1.0, 3.0, 0.0, 1.0],
            vec![-2.0, 0.0, 5.0, -1.0],
            vec![0.5, 1.0, -1.0, 2.0],
        ])
        .unwrap();
        let e = all_pairs(&a);
        // A = V Λ Vᵀ
        let lambda = Matrix::from_diag(&e.values);
        let recon = e
            .vectors
            .matmul(&lambda)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap();
        assert!(recon.approx_eq(&a, 1e-8));
        assert!(orthonormality_error(&e.vectors) < 1e-9);
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.2, 0.0],
            vec![0.2, 7.0, -0.3],
            vec![0.0, -0.3, 4.0],
        ])
        .unwrap();
        let e = all_pairs(&a);
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn trace_is_preserved() {
        let a = Matrix::from_rows(&[
            vec![2.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ])
        .unwrap();
        let e = all_pairs(&a);
        let trace = 6.0;
        let sum: f64 = e.values.iter().sum();
        assert!((sum - trace).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_square() {
        assert!(matches!(
            top_eigenpairs(Matrix::zeros(2, 3), 2),
            Err(LinAlgError::InvalidArgument(_))
        ));
    }

    /// Uniform draws from `[−0.5, 0.5)` off a fixed LCG.
    fn draws(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        }
    }

    /// The inputs the direct solver is held to at order `n`: random
    /// symmetric, diagonal (a tridiagonal split everywhere), zero, rank 3,
    /// and block diagonal with its top eigenvalue (3) repeated once per
    /// 2 × 2 block, the blocks contiguous and then interleaved by a
    /// permutation, as a graph's components are.
    fn solver_inputs(n: usize) -> Vec<(&'static str, Matrix)> {
        let mut next = draws(0x5eed ^ n as u64);
        let raw = Matrix::from_fn(n, n, |_, _| next());
        let random = raw.add(&raw.transpose()).unwrap().scale(0.5);
        let diagonal = Matrix::from_diag(
            &(0..n)
                .map(|i| ((i * 7) % 5) as f64 - 2.0)
                .collect::<Vec<_>>(),
        );
        let g = Matrix::from_fn(n, 3.min(n), |_, _| next());
        let rank_deficient = g.gram_t();
        let blocks = Matrix::from_fn(n, n, |i, j| match (i / 2 == j / 2, i == j) {
            _ if i / 2 == n / 2 => f64::from(u8::from(i == j)) * 0.5,
            (true, true) => 2.0,
            (true, false) => 1.0,
            _ => 0.0,
        });
        let perm: Vec<usize> = (0..n).map(|i| (i * 37 + 11) % n).collect();
        let interleaved = Matrix::from_fn(n, n, |i, j| blocks[(perm[i], perm[j])]);
        vec![
            ("random", random),
            ("diagonal", diagonal),
            ("zero", Matrix::zeros(n, n)),
            ("rank 3", rank_deficient),
            ("blocks", blocks),
            ("interleaved blocks", interleaved),
        ]
    }

    #[test]
    fn top_eigenpairs_match_jacobi_on_every_input_shape() {
        for n in [1usize, 2, 5, 40, 200] {
            for (what, a) in solver_inputs(n) {
                let full = jacobi_eigen_reference(&a, 1e-15);
                let scale = a.frobenius_norm().max(1.0);
                for k in [1, n] {
                    let top = top_eigenpairs(a.clone(), k).unwrap();
                    assert_eq!(top.values.len(), k);
                    assert_eq!(top.vectors.shape(), (n, k));
                    let ortho = orthonormality_error(&top.vectors);
                    assert!(
                        ortho <= 1e-12,
                        "{what} n={n} k={k}: orthonormality {ortho:e}"
                    );
                    for j in 0..k {
                        let lambda = top.values[j];
                        assert!(
                            (lambda - full.values[j]).abs() <= 1e-12 * scale,
                            "{what} n={n} k={k}: value {j} is {lambda}, Jacobi says {}",
                            full.values[j]
                        );
                        let v = top.vectors.col(j);
                        let av = a.matvec(&v).unwrap();
                        let residual = av
                            .iter()
                            .zip(&v)
                            .map(|(x, y)| (x - lambda * y).powi(2))
                            .sum::<f64>()
                            .sqrt();
                        assert!(
                            residual <= 1e-12 * scale,
                            "{what} n={n} k={k}: residual {residual:e} of pair {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn top_eigenpairs_keep_one_copy_of_a_repeated_value_per_block() {
        // Five components of the same 2 × 2 block: λ = 3 five times.
        let a = Matrix::from_fn(10, 10, |i, j| match (i / 2 == j / 2, i == j) {
            (true, true) => 2.0,
            (true, false) => 1.0,
            _ => 0.0,
        });
        let top = top_eigenpairs(a, 5).unwrap();
        assert!(top.values.iter().all(|&v| (v - 3.0).abs() < 1e-14));
        // Each vector is one block's (1, 1)/√2, with its largest entry
        // positive: the blocks are separated exactly.
        for j in 0..5 {
            let support: Vec<usize> = (0..10)
                .filter(|&i| top.vectors[(i, j)].abs() > 1e-14)
                .collect();
            assert_eq!(support.len(), 2, "vector {j}: {support:?}");
            assert_eq!(support[0] / 2, support[1] / 2);
            assert!(top.vectors[(support[0], j)] > 0.0);
        }
    }

    #[test]
    fn top_eigenpairs_are_a_function_of_the_input() {
        let mut next = draws(7);
        let raw = Matrix::from_fn(30, 30, |_, _| next());
        let a = raw.add(&raw.transpose()).unwrap();
        let first = top_eigenpairs(a.clone(), 4).unwrap();
        let second = top_eigenpairs(a, 4).unwrap();
        assert_eq!(first.values, second.values);
        assert!(first.vectors.approx_eq(&second.vectors, 0.0));
    }

    #[test]
    fn top_eigenpairs_reject_bad_arguments() {
        let a = Matrix::identity(3);
        assert!(top_eigenpairs(a.clone(), 0).is_err());
        assert!(top_eigenpairs(a.clone(), 4).is_err());
        assert!(top_eigenpairs(Matrix::zeros(2, 3), 1).is_err());
        let mut bad = a;
        bad[(1, 2)] = f64::NAN;
        assert!(matches!(
            top_eigenpairs(bad, 1),
            Err(LinAlgError::InvalidArgument(_))
        ));
    }

    #[test]
    fn psd_matrix_has_nonnegative_eigenvalues() {
        // G = BᵀB is PSD by construction.
        let b = Matrix::from_rows(&[vec![1.0, 2.0], vec![-1.0, 0.5], vec![0.0, 3.0]]).unwrap();
        let g = b.gram();
        let e = all_pairs(&g);
        for &v in &e.values {
            assert!(v >= -1e-10);
        }
    }

    /// An `n × n` symmetric matrix with about half of its entries zero and
    /// the rest in {1} ∪ [−3, 3], so decoupled blocks and repeated
    /// eigenvalues come up as often as generic spectra.
    fn sparse_symmetric(n: usize) -> impl Strategy<Value = Matrix> {
        (
            proptest::collection::vec(-3.0f64..3.0, n * n),
            proptest::collection::vec(0u32..4, n * n),
        )
            .prop_map(move |(values, kinds)| {
                let raw = Matrix::from_fn(n, n, |i, j| match kinds[i * n + j] {
                    0 | 1 => 0.0,
                    2 => 1.0,
                    _ => values[i * n + j],
                });
                raw.add(&raw.transpose()).unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn top_eigenpairs_agree_with_jacobi(
            (a, k) in (1usize..=10).prop_flat_map(|n| (sparse_symmetric(n), 1usize..=n))
        ) {
            let full = jacobi_eigen_reference(&a, 1e-15);
            let top = top_eigenpairs(a.clone(), k).unwrap();
            let scale = a.frobenius_norm().max(1.0);
            prop_assert!(orthonormality_error(&top.vectors) <= 1e-12);
            for j in 0..k {
                let lambda = top.values[j];
                prop_assert!((lambda - full.values[j]).abs() <= 1e-12 * scale);
                let v = top.vectors.col(j);
                let av = a.matvec(&v).unwrap();
                let residual: f64 = av.iter().zip(&v).map(|(x, y)| (x - lambda * y).powi(2)).sum();
                prop_assert!(residual.sqrt() <= 1e-12 * scale, "pair {j}: residual {}", residual.sqrt());
            }
        }
    }
}
