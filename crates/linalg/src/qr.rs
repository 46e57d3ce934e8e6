//! QR factorization and column orthonormalization.
//!
//! Subspace iteration (see [`crate::subspace`]) re-orthonormalizes its block
//! every step; Householder QR provides the numerically robust path and a
//! twice-applied modified Gram–Schmidt provides a cheaper alternative for
//! tall-skinny blocks.

use crate::error::LinAlgError;
use crate::matrix::{dot, norm2, Matrix};
use crate::Result;

/// Thin Householder QR factorization `A = Q R` of an `m x n` matrix with
/// `m >= n`. Returns `(Q, R)` where `Q` is `m x n` with orthonormal columns
/// and `R` is `n x n` upper triangular.
pub fn householder_qr(a: &Matrix) -> Result<(Matrix, Matrix)> {
    let (m, n) = a.shape();
    if m < n {
        return Err(LinAlgError::InvalidArgument(format!(
            "householder_qr requires rows >= cols, got {m}x{n}"
        )));
    }
    let mut r = a.clone();
    // Householder vectors, stored column by column.
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(n);
    for k in 0..n {
        // Build the reflector for column k from rows k..m.
        let mut v: Vec<f64> = (k..m).map(|i| r[(i, k)]).collect();
        let alpha = norm2(&v);
        if alpha == 0.0 {
            // Zero column below the diagonal: identity reflector.
            vs.push(vec![0.0; m - k]);
            continue;
        }
        let sign = if v[0] >= 0.0 { 1.0 } else { -1.0 };
        v[0] += sign * alpha;
        let vnorm = norm2(&v);
        if vnorm > 0.0 {
            for x in &mut v {
                *x /= vnorm;
            }
        }
        // Apply the reflector to the trailing block of R: R ← (I - 2vvᵀ)R.
        for j in k..n {
            let mut proj = 0.0;
            for (t, &vt) in v.iter().enumerate() {
                proj += vt * r[(k + t, j)];
            }
            proj *= 2.0;
            for (t, &vt) in v.iter().enumerate() {
                r[(k + t, j)] -= proj * vt;
            }
        }
        vs.push(v);
    }
    // Accumulate Q = H₀ H₁ … H_{n-1} applied to the first n columns of I.
    let mut q = Matrix::zeros(m, n);
    for j in 0..n {
        // e_j
        let mut col = vec![0.0; m];
        col[j] = 1.0;
        // Apply reflectors in reverse order.
        for k in (0..n).rev() {
            let v = &vs[k];
            if v.iter().all(|&x| x == 0.0) {
                continue;
            }
            let mut proj = 0.0;
            for (t, &vt) in v.iter().enumerate() {
                proj += vt * col[k + t];
            }
            proj *= 2.0;
            for (t, &vt) in v.iter().enumerate() {
                col[k + t] -= proj * vt;
            }
        }
        q.set_col(j, &col);
    }
    // Zero the strictly-lower triangle of R and truncate to n x n.
    let mut r_out = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            r_out[(i, j)] = r[(i, j)];
        }
    }
    Ok((q, r_out))
}

/// Orthonormalizes the columns of `a` in place using modified Gram–Schmidt,
/// applied twice for numerical stability ("MGS2").
///
/// Columns that become numerically zero (rank deficiency) are replaced with
/// deterministic pseudo-random directions re-orthogonalized against the
/// basis, so the result always has exactly `a.cols()` orthonormal columns —
/// a requirement of subspace iteration, which must not lose block width.
pub fn orthonormalize_columns(a: &mut Matrix) {
    let (m, n) = a.shape();
    debug_assert!(m >= n, "cannot orthonormalize more columns than rows");
    // Work on the transpose so columns are contiguous.
    let mut at = a.transpose();
    let mut fill_seed = 0x9e37_79b9_7f4a_7c15u64;
    for _pass in 0..2 {
        for j in 0..n {
            // Re-orthogonalize column j against all previous columns.
            for i in 0..j {
                let (head, tail) = at.as_mut_slice().split_at_mut(j * m);
                let qi = &head[i * m..(i + 1) * m];
                let cj = &mut tail[..m];
                let r = dot(qi, cj);
                for (c, &q) in cj.iter_mut().zip(qi.iter()) {
                    *c -= r * q;
                }
            }
            let cj = &mut at.as_mut_slice()[j * m..(j + 1) * m];
            let nrm = norm2(cj);
            if nrm <= 1e-13 {
                // Rank deficient: inject a fresh deterministic direction and
                // re-run the projection for this column.
                for x in cj.iter_mut() {
                    fill_seed = fill_seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    *x = ((fill_seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                }
                for i in 0..j {
                    let (head, tail) = at.as_mut_slice().split_at_mut(j * m);
                    let qi = &head[i * m..(i + 1) * m];
                    let cj = &mut tail[..m];
                    let r = dot(qi, cj);
                    for (c, &q) in cj.iter_mut().zip(qi.iter()) {
                        *c -= r * q;
                    }
                }
                let cj = &mut at.as_mut_slice()[j * m..(j + 1) * m];
                let nrm2 = norm2(cj);
                let inv = if nrm2 > 0.0 { 1.0 / nrm2 } else { 0.0 };
                for x in cj.iter_mut() {
                    *x *= inv;
                }
            } else {
                let inv = 1.0 / nrm;
                for x in cj.iter_mut() {
                    *x *= inv;
                }
            }
        }
    }
    at.transpose_into(a);
}

/// Measures how far the columns of `q` are from orthonormal:
/// `‖QᵀQ − I‖_F`. Useful in tests and convergence diagnostics.
pub fn orthonormality_error(q: &Matrix) -> f64 {
    let g = q.gram();
    let n = g.rows();
    let mut err = 0.0;
    for i in 0..n {
        for j in 0..n {
            let target = if i == j { 1.0 } else { 0.0 };
            let d = g[(i, j)] - target;
            err += d * d;
        }
    }
    err.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tall_matrix() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![0.0, 1.0, -1.0],
            vec![2.0, -1.0, 3.0],
            vec![1.0, 1.0, 1.0],
            vec![-2.0, 0.5, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn qr_reconstructs_input() {
        let a = tall_matrix();
        let (q, r) = householder_qr(&a).unwrap();
        let qr = q.matmul(&r).unwrap();
        assert!(qr.approx_eq(&a, 1e-10), "QR must reconstruct A");
    }

    #[test]
    fn qr_q_is_orthonormal() {
        let a = tall_matrix();
        let (q, _) = householder_qr(&a).unwrap();
        assert!(orthonormality_error(&q) < 1e-10);
    }

    #[test]
    fn qr_r_is_upper_triangular() {
        let a = tall_matrix();
        let (_, r) = householder_qr(&a).unwrap();
        for i in 0..r.rows() {
            for j in 0..i {
                assert!(r[(i, j)].abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qr_rejects_wide_matrices() {
        let wide = Matrix::zeros(2, 3);
        assert!(householder_qr(&wide).is_err());
    }

    #[test]
    fn qr_handles_zero_column() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let (q, r) = householder_qr(&a).unwrap();
        let qr = q.matmul(&r).unwrap();
        assert!(qr.approx_eq(&a, 1e-10));
    }

    #[test]
    fn mgs_orthonormalizes() {
        let mut a = tall_matrix();
        orthonormalize_columns(&mut a);
        assert!(orthonormality_error(&a) < 1e-10);
    }

    #[test]
    fn mgs_spans_same_space() {
        // Orthonormalized columns must span the original column space:
        // projecting the original columns onto the new basis must be lossless.
        let a = tall_matrix();
        let mut q = a.clone();
        orthonormalize_columns(&mut q);
        // P = Q Qᵀ A should equal A.
        let qt_a = q.transpose().matmul(&a).unwrap();
        let p = q.matmul(&qt_a).unwrap();
        assert!(p.approx_eq(&a, 1e-9));
    }

    #[test]
    fn mgs_recovers_from_rank_deficiency() {
        // Two identical columns: the second must be replaced by something
        // orthogonal rather than collapsing to zero.
        let mut a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        orthonormalize_columns(&mut a);
        assert!(orthonormality_error(&a) < 1e-8);
    }

    #[test]
    fn mgs_on_square_identity_is_stable() {
        let mut a = Matrix::identity(4);
        orthonormalize_columns(&mut a);
        assert!(a.approx_eq(&Matrix::identity(4), 1e-12));
    }
}
