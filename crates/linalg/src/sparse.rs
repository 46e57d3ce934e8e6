//! Sparse CSR matrices for the tag-assignment data.
//!
//! Social-tagging relations are extremely sparse — the cleaned Delicious
//! dataset in the paper has 1.36M assignments inside a 28939x7342x4118
//! tensor (density ~1.5e-6) — so the LSI baseline and the HOSVD
//! initialization must never densify. [`CsrMatrix`] provides exactly the
//! products those algorithms need: `A*x`, `Aᵀ*x`, `A*B` and `Aᵀ*B` against
//! dense blocks.

use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::Result;
use crate::{dispatch, parallel};
use std::ops::Range;

/// Multiply–adds of a sparse–dense product below which
/// [`CsrMatrix::matmul_dense_into`] stays on the calling thread.
const PAR_APPLY_THRESHOLD: usize = 1 << 20;

/// Output columns [`CsrMatrix::matmul_dense_into`] keeps in registers
/// across a row's non-zeros: four AVX-512 registers, eight AVX2 ones.
const GATHER_COLS: usize = 32;

/// A coordinate-format sparse matrix, a list of `(row, col, value)`
/// triples: how [`CsrMatrix::from_triples`] sorts and sums its input.
struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooMatrix {
    /// Creates an empty `rows x cols` COO matrix.
    fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Appends an entry; duplicate coordinates are *summed* on conversion.
    fn push(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.entries.push((row as u32, col as u32, value));
    }

    /// Converts to CSR, summing duplicate coordinates.
    fn into_csr(self) -> CsrMatrix {
        let mut entries = self.entries;
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        row_ptr.push(0u32);
        let mut current_row = 0usize;
        for &(r, c, v) in &entries {
            let r = r as usize;
            while current_row < r {
                row_ptr.push(col_idx.len() as u32);
                current_row += 1;
            }
            if let (Some(&last_c), Some(last_v)) = (col_idx.last(), values.last_mut()) {
                if current_row == r
                    && last_c == c
                    && row_ptr.last().copied().unwrap() as usize != col_idx.len()
                {
                    *last_v += v;
                    continue;
                }
            }
            col_idx.push(c);
            values.push(v);
        }
        while current_row < self.rows {
            row_ptr.push(col_idx.len() as u32);
            current_row += 1;
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// A compressed-sparse-row matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from unsorted triples, summing duplicates.
    pub fn from_triples(rows: usize, cols: usize, triples: &[(usize, usize, f64)]) -> Result<Self> {
        let mut coo = CooMatrix::new(rows, cols);
        for &(r, c, v) in triples {
            if r >= rows || c >= cols {
                return Err(LinAlgError::InvalidArgument(format!(
                    "triple ({r},{c}) out of bounds for {rows}x{cols}"
                )));
            }
            coo.push(r, c, v);
        }
        Ok(coo.into_csr())
    }

    /// An empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CooMatrix::new(rows, cols).into_csr()
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let start = self.row_ptr[i] as usize;
        let end = self.row_ptr[i + 1] as usize;
        self.col_idx[start..end]
            .iter()
            .zip(self.values[start..end].iter())
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Iterator over all `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| self.row_iter(i).map(move |(c, v)| (i, c, v)))
    }

    /// Looks up entry `(i, j)` (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let start = self.row_ptr[i] as usize;
        let end = self.row_ptr[i + 1] as usize;
        match self.col_idx[start..end].binary_search(&(j as u32)) {
            Ok(pos) => self.values[start + pos],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix–vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinAlgError::DimensionMismatch {
                op: "csr_matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.row_iter(i) {
                acc += v * x[c];
            }
            *slot = acc;
        }
        Ok(out)
    }

    /// Transposed sparse matrix–vector product `selfᵀ * x`.
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinAlgError::DimensionMismatch {
                op: "csr_matvec_t",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (c, v) in self.row_iter(i) {
                out[c] += v * xi;
            }
        }
        Ok(out)
    }

    /// Sparse–dense product `self * b` (`rows x b.cols()`).
    pub fn matmul_dense(&self, b: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, b.cols());
        self.matmul_dense_into(b, &mut out)?;
        Ok(out)
    }

    /// [`Self::matmul_dense`] writing into a caller-owned buffer (resized
    /// and overwritten), so iterative solvers can reuse one allocation.
    ///
    /// Output row `i` sums row `i`'s terms in CSR order from +0.0, so above
    /// `PAR_APPLY_THRESHOLD` the rows are split into bands
    /// ([`parallel::for_each_band`]) and the result does not depend on the
    /// thread count. A row is gathered `GATHER_COLS` output columns at a
    /// time, their sums held in registers across the row's non-zeros.
    pub fn matmul_dense_into(&self, b: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != b.rows() {
            return Err(LinAlgError::DimensionMismatch {
                op: "csr_matmul_dense",
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        let n = b.cols();
        // Every element is written: a row's sums start from +0.0.
        out.resize_for_overwrite(self.rows, n);
        let whole = Window {
            stride: n,
            start: 0,
        };
        self.gather_window(
            b.as_slice(),
            whole,
            out.as_mut_slice(),
            whole,
            n,
            self.nnz() * n >= PAR_APPLY_THRESHOLD,
        );
        Ok(())
    }

    /// `self · (t · x)` into `out` (resized and overwritten), for `t`
    /// the stored transpose of `self`: the outer Gram apply `A (Aᵀ X)`.
    /// It runs one column panel of `x` at a time, both products through
    /// `panel`, so the intermediate is `t.rows()` by a panel's width, not
    /// by `x`'s. Panels are `GATHER_COLS` wide, and the last one also takes
    /// the columns left over (up to `2·GATHER_COLS − 1` in all): a narrow
    /// tail panel would pay two fork–joins for little work. Each output
    /// element is the sum [`Self::matmul_dense_into`] forms, over the same
    /// terms in the same order, so the result is bit-identical to the two
    /// materialised products at any thread count. Whether the gathers
    /// split into row bands is decided once, for the whole apply, as the
    /// two products would decide it.
    pub(crate) fn gram_apply_into(
        &self,
        t: &CsrMatrix,
        x: &Matrix,
        panel: &mut Matrix,
        out: &mut Matrix,
    ) {
        debug_assert!(
            t.rows == self.cols && t.cols == self.rows && t.nnz() == self.nnz(),
            "gram_apply_into: t must be the transpose of self"
        );
        assert_eq!(x.rows(), self.rows, "gram_apply_into: x must have A's rows");
        let n = x.cols();
        // The panels cover every column of every row of both products.
        out.resize_for_overwrite(self.rows, n);
        let parallel = self.nnz() * n >= PAR_APPLY_THRESHOLD;
        let panels = (n / GATHER_COLS).max(1);
        for p in 0..panels {
            let j0 = p * GATHER_COLS;
            let width = if p + 1 == panels { n - j0 } else { GATHER_COLS };
            let cut = Window {
                stride: n,
                start: j0,
            };
            let own = Window {
                stride: width,
                start: 0,
            };
            panel.resize_for_overwrite(t.rows, width);
            t.gather_window(
                x.as_slice(),
                cut,
                panel.as_mut_slice(),
                own,
                width,
                parallel,
            );
            self.gather_window(
                panel.as_slice(),
                own,
                out.as_mut_slice(),
                cut,
                width,
                parallel,
            );
        }
    }

    /// `width` columns of `self * b` from column window `from` of `b` into
    /// window `to` of `out` (both row-major), by row bands when
    /// `parallel`.
    fn gather_window(
        &self,
        b: &[f64],
        from: Window,
        out: &mut [f64],
        to: Window,
        width: usize,
        parallel: bool,
    ) {
        if width == 0 {
            return;
        }
        let kernel = |rows: Range<usize>, band: &mut [f64]| {
            dispatch::run(
                #[inline(always)]
                || self.gather_band(b, from, rows, band, to, width),
            )
        };
        if parallel {
            parallel::for_each_band(self.rows, |i| i * to.stride, out, kernel);
        } else {
            kernel(0..self.rows, out);
        }
    }

    /// Rows `rows` of `self * b`, `width` columns from window `from` of
    /// `b`, into window `to` of `band` (those rows of the output): per
    /// row, `GATHER_COLS` columns at a time, then 8, then 1.
    #[inline(always)]
    fn gather_band(
        &self,
        b: &[f64],
        from: Window,
        rows: Range<usize>,
        band: &mut [f64],
        to: Window,
        width: usize,
    ) {
        for (i, out_row) in rows.zip(band.chunks_mut(to.stride)) {
            let nz = self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize;
            let (cols, vals) = (&self.col_idx[nz.clone()], &self.values[nz]);
            let out_row = &mut out_row[to.start..to.start + width];
            let mut j0 = 0;
            while j0 + GATHER_COLS <= width {
                gather::<GATHER_COLS>(cols, vals, b, from, j0, out_row);
                j0 += GATHER_COLS;
            }
            while j0 + 8 <= width {
                gather::<8>(cols, vals, b, from, j0, out_row);
                j0 += 8;
            }
            for j in j0..width {
                gather::<1>(cols, vals, b, from, j, out_row);
            }
        }
    }

    /// Transposed sparse–dense product `selfᵀ * b` (`cols x b.cols()`).
    pub fn matmul_dense_t(&self, b: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.cols, b.cols());
        self.matmul_dense_t_into(b, &mut out)?;
        Ok(out)
    }

    /// [`Self::matmul_dense_t`] writing into a caller-owned buffer (resized
    /// and overwritten).
    pub fn matmul_dense_t_into(&self, b: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.rows != b.rows() {
            return Err(LinAlgError::DimensionMismatch {
                op: "csr_matmul_dense_t",
                lhs: (self.cols, self.rows),
                rhs: b.shape(),
            });
        }
        let n = b.cols();
        out.reset(self.cols, n);
        for i in 0..self.rows {
            let b_row = b.row(i);
            for (c, v) in self.row_iter(i) {
                let out_row = &mut out.as_mut_slice()[c * n..(c + 1) * n];
                for j in 0..n {
                    out_row[j] += v * b_row[j];
                }
            }
        }
        Ok(())
    }

    /// Builds a CSR matrix directly from its raw parts: `row_ptr` of length
    /// `rows + 1`, and per-row column indices sorted strictly ascending
    /// (i.e. already deduplicated). This is the allocation-light path for
    /// producers that construct rows in order — the sparse tensor unfoldings
    /// — and skips the COO sort entirely.
    pub fn from_sorted_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1
            || row_ptr.first() != Some(&0)
            || *row_ptr.last().expect("row_ptr non-empty") as usize != col_idx.len()
            || col_idx.len() != values.len()
        {
            return Err(LinAlgError::InvalidArgument(
                "from_sorted_parts: inconsistent CSR structure".into(),
            ));
        }
        for w in row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(LinAlgError::InvalidArgument(
                    "from_sorted_parts: row_ptr must be non-decreasing".into(),
                ));
            }
        }
        for r in 0..rows {
            let row = &col_idx[row_ptr[r] as usize..row_ptr[r + 1] as usize];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(LinAlgError::InvalidArgument(format!(
                        "from_sorted_parts: row {r} columns not strictly ascending"
                    )));
                }
            }
            if row.last().is_some_and(|&c| c as usize >= cols) {
                return Err(LinAlgError::InvalidArgument(format!(
                    "from_sorted_parts: row {r} column out of bounds"
                )));
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Returns the transpose as a new CSR matrix, by a counting sort in
    /// `O(nnz + rows + cols)`: row `c` of the transpose lists the rows that
    /// hold column `c`, in ascending order.
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0u32; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut next = row_ptr[..self.cols].to_vec();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                let slot = next[c] as usize;
                next[c] += 1;
                col_idx[slot] = r as u32;
                values[slot] = v;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Materializes the matrix densely. Intended for tests and tiny inputs.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            m[(r, c)] += v;
        }
        m
    }

    /// Squared Frobenius norm.
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }
}

/// A window of columns of a row-major buffer: rows `stride` elements
/// apart, the window's first column at `start`.
#[derive(Clone, Copy)]
struct Window {
    stride: usize,
    start: usize,
}

/// Writes columns `j0..j0 + W` of one output row (`out_row` is the
/// window's part of it): `Σ vals[e] · b[cols[e]]` over the row's non-zeros
/// in order, from +0.0, held in registers; `b`'s rows are read through
/// window `from`.
#[inline(always)]
fn gather<const W: usize>(
    cols: &[u32],
    vals: &[f64],
    b: &[f64],
    from: Window,
    j0: usize,
    out_row: &mut [f64],
) {
    let mut sums = [0.0; W];
    for (&c, &v) in cols.iter().zip(vals) {
        let x = &b[c as usize * from.stride + from.start + j0..][..W];
        for (s, &x) in sums.iter_mut().zip(x) {
            *s += v * x;
        }
    }
    out_row[j0..j0 + W].copy_from_slice(&sums);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 3 0]
        // [1 0 0]
        // [0 0 2]
        CsrMatrix::from_triples(3, 3, &[(0, 0, 1.0), (0, 1, 3.0), (1, 0, 1.0), (2, 2, 2.0)])
            .unwrap()
    }

    #[test]
    fn construction_and_get() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(2, 2), 2.0);
    }

    #[test]
    fn duplicate_triples_are_summed() {
        let m = CsrMatrix::from_triples(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 3.5);
    }

    #[test]
    fn out_of_bounds_triple_rejected() {
        assert!(CsrMatrix::from_triples(2, 2, &[(2, 0, 1.0)]).is_err());
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let sparse = m.matvec(&x).unwrap();
        let dense = m.to_dense().matvec(&x).unwrap();
        assert_eq!(sparse, dense);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matvec_t_matches_dense() {
        let m = sample();
        let x = vec![1.0, -1.0, 0.5];
        let sparse = m.matvec_t(&x).unwrap();
        let dense = m.to_dense().matvec_t(&x).unwrap();
        assert_eq!(sparse, dense);
        assert!(m.matvec_t(&[1.0]).is_err());
    }

    #[test]
    fn matmul_dense_matches_dense() {
        let m = sample();
        let b = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0], vec![3.0, 0.0]]).unwrap();
        let sparse = m.matmul_dense(&b).unwrap();
        let dense = m.to_dense().matmul(&b).unwrap();
        assert!(sparse.approx_eq(&dense, 1e-12));
    }

    #[test]
    fn matmul_dense_t_matches_dense() {
        let m = sample();
        let b = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0], vec![3.0, 0.0]]).unwrap();
        let sparse = m.matmul_dense_t(&b).unwrap();
        let dense = m.to_dense().transpose().matmul(&b).unwrap();
        assert!(sparse.approx_eq(&dense, 1e-12));
    }

    /// The row-at-a-time loop [`CsrMatrix::matmul_dense_into`] replaced.
    fn matmul_dense_reference(a: &CsrMatrix, b: &Matrix) -> Matrix {
        let n = b.cols();
        let mut out = Matrix::zeros(a.rows(), n);
        for i in 0..a.rows() {
            for (c, v) in a.row_iter(i) {
                for (o, &x) in out.row_mut(i).iter_mut().zip(b.row(c)) {
                    *o += v * x;
                }
            }
        }
        out
    }

    /// The register gather at every level the host supports and at 1, 2
    /// and 4 threads, against the row-at-a-time loop and the baseline
    /// level, bit for bit: output widths off 32 and 8 (1 to 73 columns),
    /// explicit ±0 values, and a dense factor holding ±inf and NaN (the
    /// gather has no zero skip, so those reach the output). The last case
    /// crosses the threading threshold.
    #[test]
    fn gather_is_bit_identical_at_every_level() {
        use crate::dispatch::tests::for_each_level;
        use crate::dispatch::Level;
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut cases = Vec::new();
        let mut shapes: Vec<(usize, usize, usize, usize)> = Vec::new();
        for &rows in &[1usize, 3, 5, 9, 47, 49, 73] {
            for &n in &[1usize, 3, 5, 9, 47, 49, 73] {
                shapes.push((rows, 31, n, rows * 3));
            }
        }
        shapes.push((600, 400, 72, 20_000));
        for (rows, cols, n, nnz) in shapes {
            let triples: Vec<(usize, usize, f64)> = (0..nnz)
                .map(|e| {
                    let v = match e % 11 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => next() as f64 / (1u64 << 53) as f64 - 0.5,
                    };
                    (next() as usize % rows, next() as usize % cols, v)
                })
                .collect();
            let a = CsrMatrix::from_triples(rows, cols, &triples).unwrap();
            let b = Matrix::from_fn(cols, n, |i, j| match (i * n + j) % 97 {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                2 => f64::NAN,
                _ => next() as f64 / (1u64 << 53) as f64 - 0.5,
            });
            let want = matmul_dense_reference(&a, &b);
            cases.push((a, b, want));
        }
        // A NaN's sign and payload depend on which operand the compiled
        // add happens to take first (Rust leaves them unspecified), so
        // every NaN compares as one; everything else compares by its bits.
        let bits = |m: &Matrix| {
            m.as_slice()
                .iter()
                .map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() })
                .collect::<Vec<_>>()
        };
        let _guard = parallel::TEST_THREAD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for threads in [1, 2, 4] {
            parallel::set_num_threads(threads);
            let mut baseline = Vec::new();
            for_each_level(|level| {
                for (i, (a, b, want)) in cases.iter().enumerate() {
                    let got = a.matmul_dense(b).unwrap();
                    let at = format!("case {i} at {level:?}, {threads} threads");
                    assert_eq!(bits(&got), bits(want), "{at}");
                    if level == Level::Baseline {
                        baseline.push(got);
                    } else {
                        assert_eq!(bits(&got), bits(&baseline[i]), "{at}");
                    }
                }
            });
        }
        parallel::set_num_threads(0);
    }

    /// The panelled Gram apply against the two products it replaces, each
    /// by the row-at-a-time loop, bit for bit: block widths inside one
    /// panel (1, 7, 8, 17), a merged tail (33 = 32 + 1, 72 = 32 + 40), two
    /// whole panels (64); at 1 and 2 threads, the wider blocks above the
    /// banding threshold; into output and panel buffers that hold stale
    /// values of another shape.
    #[test]
    fn panelled_gram_apply_is_bit_identical_to_the_two_products() {
        let mut state = 0x6a09_e667u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let (rows, cols) = (900, 700);
        let triples: Vec<(usize, usize, f64)> = (0..30_000)
            .map(|_| {
                let r = next() as usize % rows;
                let c = next() as usize % cols;
                (r, c, next() as f64 / (1u64 << 53) as f64 - 0.5)
            })
            // Empty rows and columns, as a compacted unfolding never has
            // but a caller's matrix may.
            .filter(|&(r, c, _)| r % 11 != 4 && c % 13 != 6)
            .collect();
        let a = CsrMatrix::from_triples(rows, cols, &triples).unwrap();
        let t = a.transpose();
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let _guard = parallel::TEST_THREAD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for width in [1usize, 7, 8, 17, 33, 64, 72] {
            let x = Matrix::from_fn(rows, width, |_, _| {
                next() as f64 / (1u64 << 53) as f64 - 0.5
            });
            let want = matmul_dense_reference(&a, &matmul_dense_reference(&t, &x));
            for threads in [1, 2] {
                parallel::set_num_threads(threads);
                let mut panel = Matrix::from_fn(cols + 3, 40, |i, j| (i * j) as f64 - 7.5);
                let mut out = Matrix::from_fn(rows, width + 5, |i, j| f64::from((i + j) as u32));
                a.gram_apply_into(&t, &x, &mut panel, &mut out);
                assert_eq!(out.shape(), (rows, width));
                assert_eq!(bits(&out), bits(&want), "width {width}, {threads} threads");
                // Reused as they are left.
                a.gram_apply_into(&t, &x, &mut panel, &mut out);
                assert_eq!(
                    bits(&out),
                    bits(&want),
                    "width {width} again, {threads} threads"
                );
            }
        }
        parallel::set_num_threads(0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert!(m.to_dense().approx_eq(&tt.to_dense(), 0.0));
    }

    #[test]
    fn transpose_equals_dense_transpose() {
        for (rows, cols, nnz, seed) in [
            (1usize, 2usize, 1usize, 1u64),
            (9, 4, 12, 2),
            (40, 60, 300, 3),
            (200, 30, 900, 4),
        ] {
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 11
            };
            // Rows ≡ 1 (mod 3) stay empty, and so does the last column.
            let triples: Vec<(usize, usize, f64)> = (0..nnz)
                .map(|_| {
                    let r = next() as usize % rows;
                    let c = next() as usize % (cols - 1).max(1);
                    (r, c, next() as f64 / (1u64 << 53) as f64 - 0.5)
                })
                .filter(|&(r, _, _)| r % 3 != 1)
                .collect();
            let m = CsrMatrix::from_triples(rows, cols, &triples).unwrap();
            let t = m.transpose();
            assert_eq!(t.shape(), (cols, rows));
            assert_eq!(t.nnz(), m.nnz());
            assert!(t.to_dense().approx_eq(&m.to_dense().transpose(), 0.0));
            // The same CSR a sort of the transposed triples builds.
            let swapped: Vec<(usize, usize, f64)> = m.iter().map(|(r, c, v)| (c, r, v)).collect();
            assert_eq!(t, CsrMatrix::from_triples(cols, rows, &swapped).unwrap());
        }
    }

    #[test]
    fn frobenius_norms() {
        let m = sample();
        assert!((m.frobenius_norm_sq() - (1.0 + 9.0 + 1.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_rows_handled() {
        let m = CsrMatrix::from_triples(4, 3, &[(3, 2, 1.0)]).unwrap();
        assert_eq!(m.row_iter(0).count(), 0);
        assert_eq!(m.row_iter(3).count(), 1);
        assert_eq!(
            m.matvec(&[0.0, 0.0, 2.0]).unwrap(),
            vec![0.0, 0.0, 0.0, 2.0]
        );
    }

    #[test]
    fn zeros_matrix() {
        let m = CsrMatrix::zeros(2, 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.shape(), (2, 5));
        assert_eq!(m.matvec(&[1.0; 5]).unwrap(), vec![0.0, 0.0]);
    }
}
