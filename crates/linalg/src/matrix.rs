//! Row-major dense `f64` matrix with the operations needed by Tucker/HOOI,
//! LSI, spectral clustering, and FolkRank.

use crate::dispatch::{self, Level};
use crate::error::LinAlgError;
use crate::parallel;
use crate::Result;
use std::ops::{Index, IndexMut, Range};

/// Minimum number of multiply–add operations before [`Matrix::matmul`]
/// switches to the multi-threaded kernel. Below this the thread spawn cost
/// dominates.
const PAR_FLOP_THRESHOLD: usize = 4_000_000;

/// Output columns of the tile the dense products keep in registers: one
/// AVX-512 register of doubles. The tile has four rows at AVX2 and
/// AVX-512 and two at the baseline, whose sixteen SSE2 registers would
/// spill a 4 × 8 tile.
const TILE_COLS: usize = 8;

/// Rows of both operands [`Matrix::matmul_tn`] runs through every output
/// tile of its band before moving on: two 48 × 72 blocks are 54 KiB and
/// stay in cache while every tile reads them. Without the blocking each
/// tile streams both whole operands and the tiled loop runs slower than
/// the untiled one.
const TN_K_BLOCK: usize = 48;

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
        out
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// Every output element accumulates its `k` terms in ascending order
    /// from +0.0, skipping those with `self[i][k] == 0.0` (the textbook
    /// `ikj` loop's order and skips), in register tiles run at the
    /// [`dispatch`] level; large problems are split into row bands. The
    /// result is the same bits at every level and thread count.
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
        let kernel = |rows: Range<usize>, band: &mut [f64]| {
            dispatch::run(
                #[inline(always)]
                || match dispatch::level() {
                    Level::Baseline => self.matmul_band::<2>(other, rows, band),
                    _ => self.matmul_band::<4>(other, rows, band),
                },
            )
        };
        if self.rows * self.cols * n >= PAR_FLOP_THRESHOLD {
            parallel::for_each_band(self.rows, |i| i * n, out.data.as_mut_slice(), kernel);
        } else {
            kernel(0..self.rows, &mut out.data);
        }
        Ok(())
    }

    /// Transposed matrix–matrix product `selfᵀ * other`, computed without
    /// materializing the transpose.
    ///
    /// Every output element accumulates its `k` terms in ascending order
    /// from +0.0, skipping those with `self[k][i] == 0.0`: exactly the
    /// order and the skips of `self.transpose().matmul(other)`, so the
    /// result is bit-identical to that reference while saving the transpose
    /// copy per call.
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
        let kernel = |rows: Range<usize>, band: &mut [f64]| {
            dispatch::run(
                #[inline(always)]
                || match dispatch::level() {
                    Level::Baseline => self.matmul_tn_band::<2>(other, rows, band),
                    _ => self.matmul_tn_band::<4>(other, rows, band),
                },
            )
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

    /// Resizes to `rows x cols` (reusing the allocation when possible) for
    /// a caller that then writes every element: the contents are left
    /// unspecified — what the allocation held, zeros past it — which
    /// spares [`Self::reset`]'s zero-fill pass.
    pub(crate) fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Gives back the allocation's capacity beyond `rows × cols`.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
    }

    /// Rows `rows` of `self * other` into `band` (those rows of the zeroed
    /// output, row-major), one register tile at a time: each tile runs
    /// through all of `k`.
    #[inline(always)]
    fn matmul_band<const R: usize>(&self, other: &Matrix, rows: Range<usize>, band: &mut [f64]) {
        let (kk, n) = (self.cols, other.cols);
        for i0 in rows.clone().step_by(R) {
            let h = R.min(rows.end - i0);
            let a: [&[f64]; R] =
                std::array::from_fn(|r| if r < h { self.row(i0 + r) } else { &[] });
            let out = &mut band[(i0 - rows.start) * n..];
            for j0 in (0..n).step_by(TILE_COLS) {
                let w = TILE_COLS.min(n - j0);
                if h == R && w == TILE_COLS {
                    tile_update(
                        out,
                        n,
                        j0,
                        (R, TILE_COLS),
                        0..kk,
                        |k| a.map(|row| row[k]),
                        |k| {
                            other.data[k * n + j0..][..TILE_COLS]
                                .try_into()
                                .expect("8 wide")
                        },
                    );
                } else {
                    tile_update(
                        out,
                        n,
                        j0,
                        (h, w),
                        0..kk,
                        |k| a.map(|row| row.get(k).copied().unwrap_or(0.0)),
                        |k| padded(&other.data[k * n + j0..][..w]),
                    );
                }
            }
        }
    }

    /// Rows `rows` of `selfᵀ * other` into `band` (those rows of the zeroed
    /// output, row-major): `TN_K_BLOCK` rows of both operands at a time,
    /// each block run through every register tile of the band, in
    /// ascending `k`.
    #[inline(always)]
    fn matmul_tn_band<const R: usize>(&self, other: &Matrix, rows: Range<usize>, band: &mut [f64]) {
        let (m, p, n) = (self.rows, self.cols, other.cols);
        for k0 in (0..m).step_by(TN_K_BLOCK) {
            let ks = k0..(k0 + TN_K_BLOCK).min(m);
            for i0 in rows.clone().step_by(R) {
                let h = R.min(rows.end - i0);
                let out = &mut band[(i0 - rows.start) * n..];
                for j0 in (0..n).step_by(TILE_COLS) {
                    let w = TILE_COLS.min(n - j0);
                    if h == R && w == TILE_COLS {
                        tile_update(
                            out,
                            n,
                            j0,
                            (R, TILE_COLS),
                            ks.clone(),
                            |k| -> [f64; R] {
                                self.data[k * p + i0..][..R].try_into().expect("R wide")
                            },
                            |k| {
                                other.data[k * n + j0..][..TILE_COLS]
                                    .try_into()
                                    .expect("8 wide")
                            },
                        );
                    } else {
                        tile_update(
                            out,
                            n,
                            j0,
                            (h, w),
                            ks.clone(),
                            |k| padded::<R>(&self.data[k * p + i0..][..h]),
                            |k| padded(&other.data[k * n + j0..][..w]),
                        );
                    }
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

/// Adds `a(k)[r] · b(k)[c]` for every `k` of `ks`, in ascending order, to
/// the `h × w` tile of `out` (row stride `n`) at column `j0`, skipping the
/// terms whose `a(k)[r]` is zero: the sums and skips of the textbook loop,
/// with the tile held in registers for the whole run. `a` pads rows past
/// `h` with zeros (so they are skipped) and `b` pads columns past `w`
/// (whose sums are dropped).
#[inline(always)]
fn tile_update<const R: usize>(
    out: &mut [f64],
    n: usize,
    j0: usize,
    (h, w): (usize, usize),
    ks: Range<usize>,
    a: impl Fn(usize) -> [f64; R],
    b: impl Fn(usize) -> [f64; TILE_COLS],
) {
    let mut tile = [[0.0; TILE_COLS]; R];
    for (r, sums) in tile.iter_mut().enumerate().take(h) {
        sums[..w].copy_from_slice(&out[r * n + j0..][..w]);
    }
    for k in ks {
        let (a, b) = (a(k), b(k));
        for (sums, &x) in tile.iter_mut().zip(&a) {
            if x != 0.0 {
                for (s, &y) in sums.iter_mut().zip(&b) {
                    *s += x * y;
                }
            }
        }
    }
    for (r, sums) in tile.iter().enumerate().take(h) {
        out[r * n + j0..][..w].copy_from_slice(&sums[..w]);
    }
}

/// `v` followed by zeros, `N` wide.
#[inline(always)]
fn padded<const N: usize>(v: &[f64]) -> [f64; N] {
    let mut out = [0.0; N];
    out[..v.len()].copy_from_slice(v);
    out
}

/// A copy, so that a function taking `impl Into<Matrix>` (a buffer it
/// will overwrite) accepts a borrowed matrix too.
impl From<&Matrix> for Matrix {
    fn from(m: &Matrix) -> Self {
        m.clone()
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

/// `out[j·a.len() + i] += (v · b[j]) · a[i]`: adds `v` times the Kronecker
/// product `b ⊗ a` to `out`, one `a`-long segment per `j` in ascending
/// order, skipping a segment whose weight `v · b[j]` is zero. The inner
/// step of the sparse tensor-times-matrix chain, where `v` is a non-zero of
/// the tensor and `a`, `b` are rows of two factors; it sits here so the
/// tests can run it at every level of [`crate::dispatch`].
#[inline(always)]
pub fn add_scaled_kron(out: &mut [f64], v: f64, a: &[f64], b: &[f64]) {
    debug_assert_eq!(out.len(), a.len() * b.len());
    for (&bv, segment) in b.iter().zip(out.chunks_exact_mut(a.len().max(1))) {
        let w = v * bv;
        if w == 0.0 {
            continue;
        }
        for (o, &av) in segment.iter_mut().zip(a) {
            *o += w * av;
        }
    }
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::tests::for_each_level;
    use crate::dispatch::Level;

    impl Matrix {
        /// The untiled `ikj` loop the tiled [`Matrix::matmul`] replaced:
        /// rows `rows` of `self * other`, accumulated into `band` (those
        /// rows of the zeroed output).
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

        /// The untiled `kij` loop the tiled [`Matrix::matmul_tn`] replaced.
        fn matmul_tn_reference(&self, other: &Matrix) -> Matrix {
            let n = other.cols;
            let mut out = Matrix::zeros(self.cols, n);
            for k in 0..self.rows {
                let b_row = other.row(k);
                for (i, &aki) in self.row(k).iter().enumerate() {
                    if aki == 0.0 {
                        continue;
                    }
                    for (o, &b) in out.row_mut(i).iter_mut().zip(b_row) {
                        *o += aki * b;
                    }
                }
            }
            out
        }
    }

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

    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.data
                .iter()
                .zip(&b.data)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Row, column and `k` counts off the 4 × 8 tile and the 48-row `k`
    /// block.
    const ODD_DIMS: [usize; 7] = [1, 3, 5, 9, 47, 49, 73];

    /// A left factor whose zeros come in both signs, and whose line
    /// `zero` (a column when `zero_col`, else a row) is all zeros.
    fn left_factor(rows: usize, cols: usize, zero: usize, zero_col: bool, seed: u64) -> Matrix {
        let mut m = pseudo_random(rows, cols, seed);
        for i in 0..rows {
            for j in 0..cols {
                let signed_zero = if (i + j) % 2 == 0 { 0.0 } else { -0.0 };
                if (if zero_col { j } else { i }) == zero || m[(i, j)] == 0.0 {
                    m[(i, j)] = signed_zero;
                }
            }
        }
        m
    }

    /// A right factor whose row `bad` holds ±inf and NaN.
    fn right_factor(rows: usize, cols: usize, bad: usize, seed: u64) -> Matrix {
        let mut m = pseudo_random(rows, cols, seed);
        for (j, x) in m.row_mut(bad).iter_mut().enumerate() {
            *x = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][j % 3];
        }
        m
    }

    /// Both tiled products, at every level the host supports and at 1, 2
    /// and 4 threads, against the untiled loops, `transpose().matmul` and
    /// the baseline level, bit for bit. The zeros of the left factor face
    /// the right factor's infinities and NaNs: the zero skip keeps every
    /// output finite. The largest shape crosses the threading threshold.
    #[test]
    fn tiled_products_are_bit_identical_at_every_level() {
        let mut shapes: Vec<(usize, usize, usize)> = ODD_DIMS
            .iter()
            .flat_map(|&m| {
                ODD_DIMS
                    .iter()
                    .flat_map(move |&k| ODD_DIMS.iter().map(move |&n| (m, k, n)))
            })
            .collect();
        shapes.push((193, 149, 147));
        let cases: Vec<_> = shapes
            .iter()
            .enumerate()
            .map(|(seed, &(m, k, n))| {
                let seed = seed as u64;
                let bad = k / 2;
                // `a * b` (m × k by k × n) and `ta^T * tb` (k × m by k × n).
                let a = left_factor(m, k, bad, true, seed);
                let b = right_factor(k, n, bad, seed ^ 0x5a5a);
                let ta = left_factor(k, m, bad, false, seed ^ 0xa5a5);
                let mut want = Matrix::zeros(m, n);
                a.matmul_rows_into(&b, 0..m, &mut want.data);
                let want_tn = ta.matmul_tn_reference(&b);
                assert!(want.data.iter().chain(&want_tn.data).all(|x| x.is_finite()));
                (a, b, ta, want, want_tn)
            })
            .collect();
        let _guard = parallel::TEST_THREAD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for threads in [1, 2, 4] {
            parallel::set_num_threads(threads);
            let mut baseline = Vec::new();
            for_each_level(|level| {
                for (i, (a, b, ta, want, want_tn)) in cases.iter().enumerate() {
                    let got = a.matmul(b).unwrap();
                    let got_tn = ta.matmul_tn(b).unwrap();
                    let at = format!("{:?} at {level:?}, {threads} threads", shapes[i]);
                    assert!(same_bits(&got, want), "matmul {at}");
                    assert!(same_bits(&got_tn, want_tn), "matmul_tn {at}");
                    assert!(
                        same_bits(&got_tn, &ta.transpose().matmul(b).unwrap()),
                        "matmul_tn against transpose().matmul {at}"
                    );
                    if level == Level::Baseline {
                        baseline.push((got, got_tn));
                    } else {
                        assert!(same_bits(&got, &baseline[i].0), "matmul vs baseline {at}");
                        assert!(same_bits(&got_tn, &baseline[i].1), "tn vs baseline {at}");
                    }
                }
            });
        }
        parallel::set_num_threads(0);
    }

    /// The tensor chain's Kronecker step at every level: zero weights
    /// (a zero `v`, or a ±0 in `b`) skip the segments their `a` holds
    /// infinities and NaNs against.
    #[test]
    fn scaled_kron_is_bit_identical_at_every_level() {
        let reference = |out: &mut [f64], v: f64, a: &[f64], b: &[f64]| {
            for (j, &bv) in b.iter().enumerate() {
                let w = v * bv;
                if w == 0.0 {
                    continue;
                }
                for (i, &av) in a.iter().enumerate() {
                    out[j * a.len() + i] += w * av;
                }
            }
        };
        // Per case: the terms `(v, a, b)` and the sum they make. Terms 1
        // and 3 have v = ±0 and an `a` holding infinities and NaNs; column
        // `jb / 2` of every `b` is ±0, and so is the first entry of term 0.
        let mut cases = Vec::new();
        for &ja in &ODD_DIMS {
            for &jb in &ODD_DIMS {
                let seed = (ja * 100 + jb) as u64;
                let rows = pseudo_random(6, ja, seed);
                let mut weights = left_factor(6, jb, jb / 2, true, seed ^ 1);
                weights[(0, 0)] = 0.0;
                let terms: Vec<(f64, Vec<f64>, Vec<f64>)> = [1.5, -0.0, -2.25, 0.0, 0.75, 3.0]
                    .into_iter()
                    .enumerate()
                    .map(|(t, v)| {
                        let mut a = rows.row(t).to_vec();
                        if v == 0.0 {
                            for (e, x) in a.iter_mut().enumerate() {
                                *x = [f64::INFINITY, f64::NAN, f64::NEG_INFINITY][e % 3];
                            }
                        }
                        (v, a, weights.row(t).to_vec())
                    })
                    .collect();
                let mut want = vec![0.0; ja * jb];
                for (v, a, b) in &terms {
                    reference(&mut want, *v, a, b);
                }
                assert!(want.iter().all(|x| x.is_finite()));
                cases.push((terms, want));
            }
        }
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let _guard = parallel::TEST_THREAD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut baseline = Vec::new();
        for_each_level(|level| {
            for (i, (terms, want)) in cases.iter().enumerate() {
                let mut got = vec![0.0; want.len()];
                crate::dispatch::run(
                    #[inline(always)]
                    || {
                        for (v, a, b) in terms {
                            add_scaled_kron(&mut got, *v, a, b);
                        }
                    },
                );
                assert_eq!(bits(&got), bits(want), "case {i} at {level:?}");
                if level == Level::Baseline {
                    baseline.push(got);
                } else {
                    assert_eq!(bits(&got), bits(&baseline[i]), "case {i} at {level:?}");
                }
            }
        });
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
