//! Row-major dense `f64` matrix with the operations needed by Tucker/HOOI,
//! LSI, spectral clustering, and FolkRank.

use crate::error::LinAlgError;
use crate::parallel;
use crate::Result;
use std::ops::{Index, IndexMut, Range};

/// Minimum number of multiply–add operations before [`Matrix::matmul`]
/// switches to the multi-threaded kernel. Below this the thread spawn cost
/// dominates.
const PAR_FLOP_THRESHOLD: usize = 4_000_000;

/// A dense, row-major matrix of `f64` values.
///
/// The layout is a single contiguous `Vec<f64>` of length `rows * cols`,
/// with element `(i, j)` stored at `data[i * cols + j]`. Row-major layout
/// keeps the inner loops of the `ikj`-ordered multiplication kernels
/// sequential in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a closure evaluated at every `(row, col)` pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix taking ownership of a row-major buffer.
    ///
    /// Returns an error when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinAlgError::InvalidArgument(format!(
                "buffer of length {} cannot back a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// Returns an error when the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(LinAlgError::InvalidArgument(
                    "ragged rows passed to Matrix::from_rows".into(),
                ));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Overwrites column `j` with `v`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        debug_assert_eq!(v.len(), self.rows);
        for (i, &x) in v.iter().enumerate() {
            self.data[i * self.cols + j] = x;
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// [`Self::transpose`] writing into a caller-owned buffer (resized and
    /// overwritten), so a round trip through the transposed layout can land
    /// back in the allocation it started from.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        // Blocked transpose: better cache behaviour on large matrices.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                for i in ib..(ib + B).min(self.rows) {
                    for j in jb..(jb + B).min(self.cols) {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// Uses an `ikj` loop order (sequential access to both operands' rows)
    /// and transparently switches to a row-partitioned multi-threaded kernel
    /// for large problems.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Self::matmul`] writing into a caller-owned output buffer, so hot
    /// loops (subspace iteration, HOOI sweeps) can reuse one allocation.
    /// `out` is resized and overwritten; its previous contents are ignored.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(LinAlgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        out.reset(self.rows, other.cols);
        let n = other.cols;
        if self.rows * self.cols * n >= PAR_FLOP_THRESHOLD {
            parallel::for_each_band(
                self.rows,
                |i| i * n,
                out.data.as_mut_slice(),
                |rows, band| self.matmul_rows_into(other, rows, band),
            );
        } else {
            self.matmul_rows_into(other, 0..self.rows, &mut out.data);
        }
        Ok(())
    }

    /// Transposed matrix–matrix product `selfᵀ * other`, computed without
    /// materializing the transpose.
    ///
    /// Loop order is `kij` with the zero-skip on `self[k][i]`, which makes
    /// every output element accumulate its `k` terms in exactly the order
    /// (and with exactly the skips) of `self.transpose().matmul(other)` —
    /// the result is bit-identical to that reference while saving the
    /// transpose copy per call.
    pub fn matmul_tn(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_tn_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Self::matmul_tn`] writing into a caller-owned buffer (resized and
    /// overwritten).
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.rows != other.rows {
            return Err(LinAlgError::DimensionMismatch {
                op: "matmul_tn",
                lhs: (self.cols, self.rows),
                rhs: other.shape(),
            });
        }
        out.reset(self.cols, other.cols);
        let n = other.cols;
        // Output row i is column i of `self` against all of `other`; every
        // band scans the rows of `self` in ascending k, so each element
        // accumulates in the same order whatever the banding.
        let kernel = |rows: Range<usize>, band: &mut [f64]| {
            for k in 0..self.rows {
                let a_row = &self.row(k)[rows.clone()];
                let b_row = other.row(k);
                for (bi, &aki) in a_row.iter().enumerate() {
                    if aki == 0.0 {
                        continue;
                    }
                    let out_row = &mut band[bi * n..(bi + 1) * n];
                    for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += aki * b;
                    }
                }
            }
        };
        if self.rows * self.cols * n >= PAR_FLOP_THRESHOLD {
            parallel::for_each_band(self.cols, |i| i * n, out.data.as_mut_slice(), kernel);
        } else {
            kernel(0..self.cols, &mut out.data);
        }
        Ok(())
    }

    /// Resizes to `rows x cols` (reusing the allocation when possible) and
    /// zero-fills.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Rows `rows` of `self * other` by the `ikj` kernel, accumulated into
    /// `band` (those rows of the zeroed output, row-major).
    fn matmul_rows_into(&self, other: &Matrix, rows: Range<usize>, band: &mut [f64]) {
        let n = other.cols;
        for (bi, i) in rows.enumerate() {
            let a_row = self.row(i);
            let out_row = &mut band[bi * n..(bi + 1) * n];
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * n..(k + 1) * n];
                for j in 0..n {
                    out_row[j] += aik * b_row[j];
                }
            }
        }
    }

    /// Matrix–vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinAlgError::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *o = acc;
        }
        Ok(out)
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinAlgError::DimensionMismatch {
                op: "matvec_t",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (o, &r) in out.iter_mut().zip(row.iter()) {
                *o += xi * r;
            }
        }
        Ok(out)
    }

    /// Gram matrix `selfᵀ * self` (`cols x cols`), exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for i in 0..self.rows {
            let row = self.row(i);
            for a in 0..n {
                let ra = row[a];
                if ra == 0.0 {
                    continue;
                }
                let grow = &mut g.data[a * n..(a + 1) * n];
                for b in a..n {
                    grow[b] += ra * row[b];
                }
            }
        }
        // Mirror the upper triangle.
        for a in 0..n {
            for b in (a + 1)..n {
                g.data[b * n + a] = g.data[a * n + b];
            }
        }
        g
    }

    /// Outer Gram matrix `self * selfᵀ` (`rows x rows`).
    pub fn gram_t(&self) -> Matrix {
        let m = self.rows;
        let mut g = Matrix::zeros(m, m);
        for i in 0..m {
            let ri = self.row(i);
            for j in i..m {
                let rj = self.row(j);
                let mut acc = 0.0;
                for (a, b) in ri.iter().zip(rj.iter()) {
                    acc += a * b;
                }
                g.data[i * m + j] = acc;
                g.data[j * m + i] = acc;
            }
        }
        g
    }

    /// Frobenius norm `sqrt(sum of squared entries)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Sum of squared entries (squared Frobenius norm).
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>()
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinAlgError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every entry by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns `self * s` as a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(s);
        out
    }

    /// Extracts the sub-matrix with rows `r0..r1` and columns `c0..c1`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Result<Matrix> {
        if r1 > self.rows || c1 > self.cols || r0 > r1 || c0 > c1 {
            return Err(LinAlgError::InvalidArgument(format!(
                "submatrix [{r0}..{r1}, {c0}..{c1}] out of bounds for {}x{}",
                self.rows, self.cols
            )));
        }
        let mut out = Matrix::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            let src = &self.data[i * self.cols + c0..i * self.cols + c1];
            out.row_mut(i - r0).copy_from_slice(src);
        }
        Ok(out)
    }

    /// Keeps only the first `k` columns.
    pub fn truncate_cols(&self, k: usize) -> Result<Matrix> {
        self.submatrix(0, self.rows, 0, k.min(self.cols))
    }

    /// `true` when every corresponding entry differs by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Euclidean (L2) distance between rows `i` and `j`.
    pub fn row_distance(&self, i: usize, j: usize) -> f64 {
        let ri = self.row(i);
        let rj = self.row(j);
        ri.iter()
            .zip(rj.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2x3() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_indexing() {
        let m = m2x3();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn identity_and_diag() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3[(0, 0)], 1.0);
        assert_eq!(i3[(0, 1)], 0.0);
        let d = Matrix::from_diag(&[2.0, 3.0]);
        assert_eq!(d[(1, 1)], 3.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = m2x3();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
        // Into a buffer of another shape with stale contents: reshaped and
        // overwritten, no entry left behind.
        let mut back = Matrix::from_fn(3, 2, |_, _| 9.0);
        t.transpose_into(&mut back);
        assert_eq!(back, m);
    }

    #[test]
    fn matmul_small_known_result() {
        let a = m2x3();
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]]).unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m2x3();
        let c = a.matmul(&Matrix::identity(3)).unwrap();
        assert!(c.approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = m2x3();
        assert!(matches!(
            a.matmul(&m2x3()),
            Err(LinAlgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // Big enough to trip the threaded kernel.
        let n = 180;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let par = a.matmul(&b).unwrap();
        let mut serial = Matrix::zeros(n, n);
        a.matmul_rows_into(&b, 0..n, serial.as_mut_slice());
        assert!(par.approx_eq(&serial, 1e-9));
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let a = m2x3();
        assert_eq!(a.matvec(&[1.0, 0.0, 0.0]).unwrap(), vec![1.0, 4.0]);
        assert_eq!(a.matvec_t(&[1.0, 1.0]).unwrap(), vec![5.0, 7.0, 9.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.matvec_t(&[1.0]).is_err());
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = m2x3();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.approx_eq(&explicit, 1e-12));
        let gt = a.gram_t();
        let explicit_t = a.matmul(&a.transpose()).unwrap();
        assert!(gt.approx_eq(&explicit_t, 1e-12));
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((a.frobenius_norm_sq() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn add_sub_scale() {
        let a = m2x3();
        let b = a.scale(2.0);
        let s = b.sub(&a).unwrap();
        assert!(s.approx_eq(&a, 1e-12));
        let sum = a.add(&a).unwrap();
        assert!(sum.approx_eq(&b, 1e-12));
        assert!(a.add(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn submatrix_and_truncate() {
        let a = m2x3();
        let s = a.submatrix(0, 2, 1, 3).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s[(0, 0)], 2.0);
        assert_eq!(s[(1, 1)], 6.0);
        let t = a.truncate_cols(2).unwrap();
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t[(1, 1)], 5.0);
        assert!(a.submatrix(0, 3, 0, 1).is_err());
    }

    #[test]
    fn row_distance_known_value() {
        let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0]]).unwrap();
        assert!((a.row_distance(0, 1) - 5.0).abs() < 1e-12);
        assert_eq!(a.row_distance(1, 1), 0.0);
    }

    #[test]
    fn set_col_overwrites() {
        let mut a = m2x3();
        a.set_col(0, &[9.0, 8.0]);
        assert_eq!(a[(0, 0)], 9.0);
        assert_eq!(a[(1, 0)], 8.0);
    }

    #[test]
    fn dot_and_norm_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    /// A deterministic pseudo-random matrix with a sprinkling of exact
    /// zeros, so the zero-skip paths are exercised.
    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state.is_multiple_of(7) {
                0.0
            } else {
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            }
        })
    }

    #[test]
    fn matmul_tn_bit_identical_to_materialized_transpose() {
        for (m, k, n, seed) in [(17, 5, 9, 1), (64, 24, 24, 2), (3, 1, 7, 3), (1, 6, 1, 4)] {
            let a = pseudo_random(m, k, seed);
            let b = pseudo_random(m, n, seed ^ 0xabcd);
            let fused = a.matmul_tn(&b).unwrap();
            let reference = a.transpose().matmul(&b).unwrap();
            assert_eq!(fused.shape(), (k, n));
            assert!(
                fused.approx_eq(&reference, 0.0),
                "matmul_tn diverged from transpose+matmul at {m}x{k}x{n}"
            );
        }
        assert!(Matrix::zeros(2, 3).matmul_tn(&Matrix::zeros(4, 2)).is_err());
    }

    #[test]
    fn matmul_tn_parallel_band_path_matches_serial() {
        let _guard = parallel::TEST_THREAD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Big enough to cross PAR_FLOP_THRESHOLD when threads > 1.
        let a = pseudo_random(400, 120, 11);
        let b = pseudo_random(400, 100, 12);
        let serial = {
            parallel::set_num_threads(1);
            a.matmul_tn(&b).unwrap()
        };
        parallel::set_num_threads(4);
        let par = a.matmul_tn(&b).unwrap();
        parallel::set_num_threads(0);
        assert!(
            par.approx_eq(&serial, 0.0),
            "parallel matmul_tn not bit-identical"
        );
    }

    #[test]
    fn matmul_into_reuses_dirty_buffer() {
        let a = m2x3();
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let fresh = a.matmul(&b).unwrap();
        let mut scratch = Matrix::from_fn(7, 7, |i, j| (i + j) as f64);
        a.matmul_into(&b, &mut scratch).unwrap();
        assert!(scratch.approx_eq(&fresh, 0.0));
        let mut scratch_tn = Matrix::from_fn(1, 1, |_, _| 42.0);
        a.matmul_tn_into(&fresh, &mut scratch_tn).unwrap();
        assert!(scratch_tn.approx_eq(&a.transpose().matmul(&fresh).unwrap(), 0.0));
    }
}
