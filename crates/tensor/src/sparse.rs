//! Sparse third-order tensors in coordinate format with per-mode indexes.
//!
//! The tag-assignment tensor `F` is binary and extremely sparse (§IV-A of
//! the paper: 36.9 *billion* cells but only 335,782 non-zeros for Last.fm).
//! Every algorithm in this repository therefore works off this type; dense
//! materialization is reserved for test-scale fixtures.
//!
//! For each mode the constructor builds a CSR-style grouping of the
//! non-zeros by that mode's index. This gives two things:
//!
//! * mode-n unfoldings as [`CsrMatrix`] — full width, or compacted to the
//!   non-empty columns for the HOSVD Gram operators — and
//! * fused tensor-times-matrix kernels ([`SparseTensor3::ttm_except_unfolded`])
//!   whose output rows are disjoint per mode index, enabling clean
//!   fork–join parallelism.

use cubelsi_linalg::matrix::add_scaled_kron;
use cubelsi_linalg::{dispatch, parallel};
use cubelsi_linalg::{CsrMatrix, LinAlgError, Matrix};
use std::ops::Range;

use crate::dense::DenseTensor3;

/// A sparse third-order tensor.
///
/// Mode numbering follows the paper: mode 1 = users, mode 2 = tags,
/// mode 3 = resources.
#[derive(Debug, Clone)]
pub struct SparseTensor3 {
    dims: (usize, usize, usize),
    /// Non-zeros sorted by (i, j, k); duplicates summed at construction.
    entries: Vec<Entry>,
    /// For each mode m (0-indexed), a permutation of `entries` grouped by
    /// that mode's index, plus group boundaries.
    mode_index: [ModeIndex; 3],
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    i: u32,
    j: u32,
    k: u32,
    v: f64,
}

#[derive(Debug, Clone, Default)]
struct ModeIndex {
    /// `ptr[x]..ptr[x+1]` indexes `order` for mode-index `x`.
    ptr: Vec<u32>,
    /// Positions into `entries`.
    order: Vec<u32>,
}

impl SparseTensor3 {
    /// Builds a sparse tensor from `(i, j, k, value)` quadruples; duplicate
    /// coordinates are summed. Returns an error on out-of-bounds indices.
    pub fn from_entries(
        dims: (usize, usize, usize),
        quads: &[(usize, usize, usize, f64)],
    ) -> Result<Self, LinAlgError> {
        let (d1, d2, d3) = dims;
        let mut entries: Vec<Entry> = Vec::with_capacity(quads.len());
        for &(i, j, k, v) in quads {
            if i >= d1 || j >= d2 || k >= d3 {
                return Err(LinAlgError::InvalidArgument(format!(
                    "entry ({i},{j},{k}) out of bounds for dims {dims:?}"
                )));
            }
            entries.push(Entry {
                i: i as u32,
                j: j as u32,
                k: k as u32,
                v,
            });
        }
        entries.sort_unstable_by_key(|e| (e.i, e.j, e.k));
        // Sum duplicates in place.
        let mut deduped: Vec<Entry> = Vec::with_capacity(entries.len());
        for e in entries {
            match deduped.last_mut() {
                Some(last) if last.i == e.i && last.j == e.j && last.k == e.k => last.v += e.v,
                _ => deduped.push(e),
            }
        }
        let mode_index = [
            build_mode_index(&deduped, d1, |e| e.i as usize),
            build_mode_index(&deduped, d2, |e| e.j as usize),
            build_mode_index(&deduped, d3, |e| e.k as usize),
        ];
        Ok(SparseTensor3 {
            dims,
            entries: deduped,
            mode_index,
        })
    }

    /// Tensor dimensions.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Dimension of a (1-based) mode.
    pub fn dim(&self, mode: usize) -> usize {
        match mode {
            1 => self.dims.0,
            2 => self.dims.1,
            3 => self.dims.2,
            _ => panic!("mode must be 1, 2 or 3, got {mode}"),
        }
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Iterator over `(i, j, k, value)` quadruples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize, f64)> + '_ {
        self.entries
            .iter()
            .map(|e| (e.i as usize, e.j as usize, e.k as usize, e.v))
    }

    /// Squared Frobenius norm.
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.entries.iter().map(|e| e.v * e.v).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.frobenius_norm_sq().sqrt()
    }

    /// Materializes the tensor densely (tests / tiny fixtures only).
    pub fn to_dense(&self) -> DenseTensor3 {
        let (d1, d2, d3) = self.dims;
        let mut t = DenseTensor3::zeros(d1, d2, d3);
        for (i, j, k, v) in self.iter() {
            let cur = t.get(i, j, k);
            t.set(i, j, k, cur + v);
        }
        t
    }

    /// Number of columns of the full mode-n unfolding, `∏ₘ≠ₙ Iₘ`. Taken in
    /// `u64`: at 10⁵ resources × 10⁵ users it no longer fits 32 bits.
    pub fn unfold_width(&self, mode: usize) -> u64 {
        let (d1, d2, d3) = self.dims;
        let (a, b) = match mode {
            1 => (d2, d3),
            2 => (d1, d3),
            3 => (d1, d2),
            _ => panic!("mode must be 1, 2 or 3, got {mode}"),
        };
        a as u64 * b as u64
    }

    /// Kolda–Bader column of an entry in the mode-n unfolding.
    #[inline]
    fn unfold_key(&self, mode: usize, e: &Entry) -> u64 {
        let (d1, d2, _) = self.dims;
        match mode {
            1 => e.j as u64 + e.k as u64 * d2 as u64,
            2 => e.i as u64 + e.k as u64 * d1 as u64,
            3 => e.i as u64 + e.j as u64 * d1 as u64,
            _ => panic!("mode must be 1, 2 or 3, got {mode}"),
        }
    }

    /// Mode-n unfolding as a sparse CSR matrix (Kolda–Bader column order,
    /// identical to [`DenseTensor3::unfold`]).
    ///
    /// The matrix is as wide as the product of the other two dimensions,
    /// and anything dense over its columns costs that width whatever the
    /// data holds; the solver works on [`Self::unfold_csr_compact`]. Fails
    /// with `InvalidArgument` when the width does not fit the 32-bit column
    /// index of [`CsrMatrix`].
    pub fn unfold_csr(&self, mode: usize) -> Result<CsrMatrix, LinAlgError> {
        let width = self.unfold_width(mode);
        if width > u32::MAX as u64 {
            return Err(LinAlgError::InvalidArgument(format!(
                "mode-{mode} unfolding of a {:?} tensor is {width} columns wide, \
                 more than a CSR column index holds; use the compacted unfolding",
                self.dims
            )));
        }
        Ok(self.unfold_with(mode, width as usize, |key| key as u32))
    }

    /// The mode-n unfolding with its empty columns dropped: the non-empty
    /// columns keep their relative order and are renumbered `0..cols`, so
    /// `cols ≤ nnz` however wide [`Self::unfold_width`] is.
    ///
    /// The rows of `A Aᵀ` only ever meet in columns that hold a non-zero,
    /// and an order-preserving renumbering leaves every row's entries in
    /// the same sequence: `A(AᵀX)` accumulates the same terms in the same
    /// order as on the full unfolding and is bit-identical to it, over a
    /// `cols × block` intermediate instead of a `∏Iₘ × block` one.
    pub fn unfold_csr_compact(&self, mode: usize) -> CsrMatrix {
        let mut occupied: Vec<u64> = self
            .entries
            .iter()
            .map(|e| self.unfold_key(mode, e))
            .collect();
        occupied.sort_unstable();
        occupied.dedup();
        self.unfold_with(mode, occupied.len(), |key| {
            occupied
                .binary_search(&key)
                .expect("every entry's column is occupied") as u32
        })
    }

    /// Assembles a mode-n unfolding whose column of an entry is
    /// `col_of(unfold_key)`; `col_of` must be strictly increasing.
    ///
    /// Rows are assembled directly from the per-mode index — no COO
    /// round-trip and no global sort — with the per-row column sorts fanned
    /// out across parallel row bands. Each row is computed identically no
    /// matter how the bands fall, so the result is independent of the
    /// thread count.
    fn unfold_with(
        &self,
        mode: usize,
        cols: usize,
        col_of: impl Fn(u64) -> u32 + Sync,
    ) -> CsrMatrix {
        let rows = self.dim(mode);
        let idx = &self.mode_index[mode - 1];
        let entries = &self.entries;
        let nnz = entries.len();
        let row_ptr: Vec<u32> = idx.ptr.clone();
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];

        // A band holds whole rows, so its column and value arrays are cut
        // at the row pointer and start at entry `ptr[band.start]`.
        let fill_rows = |band: Range<usize>, (col_band, val_band): (&mut [u32], &mut [f64])| {
            let band_offset = idx.ptr[band.start] as usize;
            let mut scratch: Vec<(u32, f64)> = Vec::new();
            for row in band {
                let start = idx.ptr[row] as usize;
                let end = idx.ptr[row + 1] as usize;
                scratch.clear();
                for &pos in &idx.order[start..end] {
                    let e = &entries[pos as usize];
                    scratch.push((col_of(self.unfold_key(mode, e)), e.v));
                }
                // Distinct coordinates map to distinct columns within a
                // row, so an unstable sort is deterministic here.
                scratch.sort_unstable_by_key(|&(c, _)| c);
                for (slot, &(c, v)) in scratch.iter().enumerate() {
                    col_band[start - band_offset + slot] = c;
                    val_band[start - band_offset + slot] = v;
                }
            }
        };
        let out = (col_idx.as_mut_slice(), values.as_mut_slice());
        if nnz < 4096 {
            fill_rows(0..rows, out);
        } else {
            parallel::for_each_band(rows, |row| idx.ptr[row] as usize, out, fill_rows);
        }
        CsrMatrix::from_sorted_parts(rows, cols, row_ptr, col_idx, values)
            .expect("unfold rows are sorted and in bounds")
    }

    /// The mode-2 slice `F[:, j, :]` as a sparse user×resource matrix —
    /// the per-tag feature matrix of §IV-A, used by the CubeSim baseline.
    pub fn slice_mode2_csr(&self, j: usize) -> CsrMatrix {
        let (d1, _, d3) = self.dims;
        let idx = &self.mode_index[1];
        let triples: Vec<(usize, usize, f64)> = idx.order
            [idx.ptr[j] as usize..idx.ptr[j + 1] as usize]
            .iter()
            .map(|&pos| {
                let e = &self.entries[pos as usize];
                (e.i as usize, e.k as usize, e.v)
            })
            .collect();
        CsrMatrix::from_triples(d1, d3, &triples).expect("slice indices in bounds")
    }

    /// Fused tensor-times-matrix chain, unfolded along `mode`:
    ///
    /// * mode 1: returns `W₍₁₎` of `F ×₂ Y₂ᵀ ×₃ Y₃ᵀ` — shape `I₁ x (J₂·J₃)`,
    ///   column index `j₂ + j₃·J₂`;
    /// * mode 2: returns `W₍₂₎` of `F ×₁ Y₁ᵀ ×₃ Y₃ᵀ` — shape `I₂ x (J₁·J₃)`,
    ///   column index `j₁ + j₃·J₁`;
    /// * mode 3: returns `W₍₃₎` of `F ×₁ Y₁ᵀ ×₂ Y₂ᵀ` — shape `I₃ x (J₁·J₂)`,
    ///   column index `j₁ + j₂·J₁`.
    ///
    /// `ya` and `yb` are the factor matrices of the two *other* modes in
    /// ascending mode order (for mode 2: `ya = Y⁽¹⁾ ∈ R^{I₁×J₁}`,
    /// `yb = Y⁽³⁾ ∈ R^{I₃×J₃}`).
    ///
    /// Cost is `O(nnz · Jₐ · J_b)`; work is parallelized over mode-index
    /// groups whose output rows are disjoint.
    pub fn ttm_except_unfolded(
        &self,
        mode: usize,
        ya: &Matrix,
        yb: &Matrix,
    ) -> Result<Matrix, LinAlgError> {
        let mut out = Matrix::zeros(0, 0);
        self.ttm_except_unfolded_into(mode, ya, yb, &mut out)?;
        Ok(out)
    }

    /// [`Self::ttm_except_unfolded`] writing into a caller-owned buffer
    /// (resized and overwritten), so HOOI sweeps can reuse one `W` matrix
    /// per mode across iterations instead of allocating `Iₙ x ∏Jₘ` every
    /// update.
    pub fn ttm_except_unfolded_into(
        &self,
        mode: usize,
        ya: &Matrix,
        yb: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), LinAlgError> {
        let (d1, d2, d3) = self.dims;
        let (expect_a, expect_b, out_rows) = match mode {
            1 => (d2, d3, d1),
            2 => (d1, d3, d2),
            3 => (d1, d2, d3),
            _ => {
                return Err(LinAlgError::InvalidArgument(format!(
                    "mode must be 1, 2 or 3, got {mode}"
                )))
            }
        };
        if ya.rows() != expect_a || yb.rows() != expect_b {
            return Err(LinAlgError::DimensionMismatch {
                op: "ttm_except_unfolded",
                lhs: ya.shape(),
                rhs: yb.shape(),
            });
        }
        let ja = ya.cols();
        let jb = yb.cols();
        let out_cols = ja * jb;
        out.reset(out_rows, out_cols);
        // Each row's fiber only touches that row of the output, so bands of
        // rows are independent.
        parallel::for_each_band(
            out_rows,
            |row| row * out_cols,
            out.as_mut_slice(),
            |rows, band| {
                dispatch::run(
                    #[inline(always)]
                    || self.ttm_rows(mode, ya, yb, rows, band),
                )
            },
        );
        Ok(())
    }

    /// Rows `rows` of [`Self::ttm_except_unfolded_into`]'s output into
    /// `band` (those rows, zeroed): each row's non-zeros in fiber order.
    #[inline(always)]
    fn ttm_rows(
        &self,
        mode: usize,
        ya: &Matrix,
        yb: &Matrix,
        rows: Range<usize>,
        band: &mut [f64],
    ) {
        let idx = &self.mode_index[mode - 1];
        let out_cols = ya.cols() * yb.cols();
        for (row, out_row) in rows.zip(band.chunks_exact_mut(out_cols.max(1))) {
            for &pos in &idx.order[idx.ptr[row] as usize..idx.ptr[row + 1] as usize] {
                let e = &self.entries[pos as usize];
                let (a_idx, b_idx) = match mode {
                    1 => (e.j as usize, e.k as usize),
                    2 => (e.i as usize, e.k as usize),
                    3 => (e.i as usize, e.j as usize),
                    _ => unreachable!(),
                };
                add_scaled_kron(out_row, e.v, ya.row(a_idx), yb.row(b_idx));
            }
        }
    }

    /// Full three-way contraction `F ×₁ Y₁ᵀ ×₂ Y₂ᵀ ×₃ Y₃ᵀ` returning the
    /// (small, dense) core-sized tensor. Used for Eq. 16 of the paper.
    pub fn core_contract(
        &self,
        y1: &Matrix,
        y2: &Matrix,
        y3: &Matrix,
    ) -> Result<DenseTensor3, LinAlgError> {
        let (d1, d2, d3) = self.dims;
        if y1.rows() != d1 || y2.rows() != d2 || y3.rows() != d3 {
            return Err(LinAlgError::DimensionMismatch {
                op: "core_contract",
                lhs: (y1.rows(), y2.rows()),
                rhs: (y3.rows(), 0),
            });
        }
        // W₍₂₎ = (F ×₁ Y₁ᵀ ×₃ Y₃ᵀ)₍₂₎ is I₂ x (J₁·J₃); then S₍₂₎ = Y₂ᵀ W₍₂₎.
        let w2 = self.ttm_except_unfolded(2, y1, y3)?;
        let s2 = y2.transpose().matmul(&w2)?;
        DenseTensor3::fold(2, &s2, (y1.cols(), y2.cols(), y3.cols()))
    }
}

fn build_mode_index(entries: &[Entry], dim: usize, key: impl Fn(&Entry) -> usize) -> ModeIndex {
    let mut counts = vec![0u32; dim + 1];
    for e in entries {
        counts[key(e) + 1] += 1;
    }
    for x in 0..dim {
        counts[x + 1] += counts[x];
    }
    let ptr = counts.clone();
    let mut cursor = counts;
    let mut order = vec![0u32; entries.len()];
    for (pos, e) in entries.iter().enumerate() {
        let x = key(e);
        order[cursor[x] as usize] = pos as u32;
        cursor[x] += 1;
    }
    ModeIndex { ptr, order }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 running example: 3 users, 3 tags, 3 resources,
    /// 7 assignments.
    pub(crate) fn figure2_tensor() -> SparseTensor3 {
        // (u, t, r) triples, 0-indexed: records 1-7 of Figure 2(a).
        let quads = [
            (0, 0, 0, 1.0), // u1, t1(folk), r1
            (0, 0, 1, 1.0), // u1, t1, r2
            (1, 0, 1, 1.0), // u2, t1, r2
            (2, 0, 1, 1.0), // u3, t1, r2
            (0, 1, 0, 1.0), // u1, t2(people), r1
            (1, 2, 2, 1.0), // u2, t3(laptop), r3
            (2, 2, 2, 1.0), // u3, t3, r3
        ];
        SparseTensor3::from_entries((3, 3, 3), &quads).unwrap()
    }

    #[test]
    fn figure2_statistics() {
        let t = figure2_tensor();
        assert_eq!(t.dims(), (3, 3, 3));
        assert_eq!(t.nnz(), 7);
        assert_eq!(t.frobenius_norm_sq(), 7.0);
    }

    #[test]
    fn duplicates_summed_and_bounds_checked() {
        let t = SparseTensor3::from_entries((2, 2, 2), &[(0, 0, 0, 1.0), (0, 0, 0, 2.0)]).unwrap();
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.to_dense().get(0, 0, 0), 3.0);
        assert!(SparseTensor3::from_entries((2, 2, 2), &[(2, 0, 0, 1.0)]).is_err());
    }

    #[test]
    fn unfold_csr_matches_dense_unfold() {
        let t = figure2_tensor();
        let dense = t.to_dense();
        for mode in 1..=3 {
            let sparse_unf = t.unfold_csr(mode).unwrap().to_dense();
            let dense_unf = dense.unfold(mode);
            assert!(
                sparse_unf.approx_eq(&dense_unf, 0.0),
                "mode {mode} unfolding mismatch"
            );
        }
    }

    #[test]
    fn mode2_unfolding_matches_paper_example() {
        // The paper's F(2) rows are the per-tag aggregates; check tag t1's
        // slice F[:,1,:] (Figure 2(b)): users u1..u3 tagged r2, u1 also r1.
        let t = figure2_tensor();
        let slice = t.slice_mode2_csr(0).to_dense();
        let expected = Matrix::from_rows(&[
            vec![1.0, 1.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 1.0, 0.0],
        ])
        .unwrap();
        assert!(slice.approx_eq(&expected, 0.0));
    }

    #[test]
    fn slice_frobenius_distances_match_paper_eq_9_12_13() {
        let t = figure2_tensor();
        let s1 = t.slice_mode2_csr(0).to_dense();
        let s2 = t.slice_mode2_csr(1).to_dense();
        let s3 = t.slice_mode2_csr(2).to_dense();
        let d12 = s1.sub(&s2).unwrap().frobenius_norm();
        let d13 = s1.sub(&s3).unwrap().frobenius_norm();
        let d23 = s2.sub(&s3).unwrap().frobenius_norm();
        assert!((d12 - 3.0f64.sqrt()).abs() < 1e-12, "D12 = √3 (Eq. 9)");
        assert!((d13 - 6.0f64.sqrt()).abs() < 1e-12, "D13 = √6 (Eq. 12)");
        assert!((d23 - 3.0f64.sqrt()).abs() < 1e-12, "D23 = √3 (Eq. 13)");
    }

    #[test]
    fn ttm_except_matches_dense_reference() {
        let t = figure2_tensor();
        let dense = t.to_dense();
        let y1 = Matrix::from_fn(3, 2, |i, j| ((i + 1) * (j + 2)) as f64 * 0.1);
        let y2 = Matrix::from_fn(3, 2, |i, j| (i as f64 - j as f64) * 0.3 + 0.2);
        let y3 = Matrix::from_fn(3, 2, |i, j| ((i * j) as f64).sin() + 0.5);

        // mode 2: F ×1 Y1ᵀ ×3 Y3ᵀ, unfolded along mode 2.
        let fused = t.ttm_except_unfolded(2, &y1, &y3).unwrap();
        let reference = dense
            .mode_product(1, &y1.transpose())
            .unwrap()
            .mode_product(3, &y3.transpose())
            .unwrap()
            .unfold(2);
        assert!(fused.approx_eq(&reference, 1e-12), "mode 2 fused TTM");

        // mode 1: F ×2 Y2ᵀ ×3 Y3ᵀ.
        let fused = t.ttm_except_unfolded(1, &y2, &y3).unwrap();
        let reference = dense
            .mode_product(2, &y2.transpose())
            .unwrap()
            .mode_product(3, &y3.transpose())
            .unwrap()
            .unfold(1);
        assert!(fused.approx_eq(&reference, 1e-12), "mode 1 fused TTM");

        // mode 3: F ×1 Y1ᵀ ×2 Y2ᵀ.
        let fused = t.ttm_except_unfolded(3, &y1, &y2).unwrap();
        let reference = dense
            .mode_product(1, &y1.transpose())
            .unwrap()
            .mode_product(2, &y2.transpose())
            .unwrap()
            .unfold(3);
        assert!(fused.approx_eq(&reference, 1e-12), "mode 3 fused TTM");
    }

    #[test]
    fn ttm_into_reuses_dirty_scratch() {
        let t = figure2_tensor();
        let y1 = Matrix::from_fn(3, 2, |i, j| ((i + 1) * (j + 2)) as f64 * 0.1);
        let y3 = Matrix::from_fn(3, 2, |i, j| ((i * j) as f64).sin() + 0.5);
        let fresh = t.ttm_except_unfolded(2, &y1, &y3).unwrap();
        let mut scratch = Matrix::from_fn(5, 9, |i, j| (i * j) as f64 + 1.0);
        t.ttm_except_unfolded_into(2, &y1, &y3, &mut scratch)
            .unwrap();
        assert!(
            scratch.approx_eq(&fresh, 0.0),
            "scratch reuse changed the TTM result"
        );
        // Reuse again with different factors; stale contents must not leak.
        t.ttm_except_unfolded_into(1, &y1, &y3, &mut scratch)
            .unwrap();
        let reference = t.ttm_except_unfolded(1, &y1, &y3).unwrap();
        assert!(scratch.approx_eq(&reference, 0.0));
    }

    /// 6 000 seeded draws: large enough to cross the parallel banding
    /// threshold of the unfoldings.
    fn seeded_tensor(dims: (usize, usize, usize)) -> SparseTensor3 {
        let mut quads = Vec::new();
        let mut state = 0xfeedu64;
        for _ in 0..6000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (state >> 7) as usize % dims.0;
            let j = (state >> 23) as usize % dims.1;
            let k = (state >> 41) as usize % dims.2;
            quads.push((i, j, k, ((state >> 11) as f64 / (1u64 << 53) as f64) + 0.1));
        }
        SparseTensor3::from_entries(dims, &quads).unwrap()
    }

    #[test]
    fn unfold_csr_identical_across_thread_counts() {
        let t = seeded_tensor((40, 30, 25));
        for mode in 1..=3 {
            cubelsi_linalg::parallel::set_num_threads(1);
            let serial = t.unfold_csr(mode).unwrap();
            cubelsi_linalg::parallel::set_num_threads(4);
            let par = t.unfold_csr(mode).unwrap();
            cubelsi_linalg::parallel::set_num_threads(0);
            assert_eq!(serial, par, "mode {mode} unfolding depends on thread count");
            // And the fast path still matches the dense reference.
            assert!(serial.to_dense().approx_eq(&t.to_dense().unfold(mode), 0.0));
        }
    }

    #[test]
    fn compact_unfolding_gram_apply_bit_identical_to_full_width() {
        use cubelsi_linalg::{GramOp, SymOp};
        // Resources ≫ users: most columns of every unfolding are empty.
        let t = seeded_tensor((60, 50, 900));
        for mode in 1..=3 {
            let x = Matrix::from_fn(t.dim(mode), 5, |i, j| ((i * 7 + j * 3) % 11) as f64 - 4.5);
            for threads in [1, 4] {
                cubelsi_linalg::parallel::set_num_threads(threads);
                let full = t.unfold_csr(mode).unwrap();
                let compact = t.unfold_csr_compact(mode);
                cubelsi_linalg::parallel::set_num_threads(0);
                assert_eq!(full.cols() as u64, t.unfold_width(mode));
                assert!(compact.cols() < full.cols() && compact.cols() <= t.nnz());
                assert_eq!(compact.nnz(), full.nnz());
                let wide = GramOp::outer(&full).apply_block(&x);
                let narrow = GramOp::outer(&compact).apply_block(&x);
                assert!(
                    narrow.approx_eq(&wide, 0.0),
                    "mode {mode}, {threads} thread(s): compacted apply differs"
                );
            }
        }
    }

    #[test]
    fn compact_unfolding_keeps_column_order() {
        // Columns 1, 4 and 7 of the mode-1 unfolding (j + 3k) are occupied;
        // they become 0, 1, 2 in that order.
        let t = SparseTensor3::from_entries(
            (2, 3, 3),
            &[
                (0, 1, 2, 7.0),
                (0, 1, 0, 1.0),
                (1, 1, 1, 4.0),
                (1, 1, 2, 5.0),
            ],
        )
        .unwrap();
        let compact = t.unfold_csr_compact(1);
        assert_eq!(compact.shape(), (2, 3));
        let expected = Matrix::from_rows(&[vec![1.0, 0.0, 7.0], vec![0.0, 4.0, 5.0]]).unwrap();
        assert!(compact.to_dense().approx_eq(&expected, 0.0));
    }

    #[test]
    fn ttm_except_rejects_bad_dims() {
        let t = figure2_tensor();
        let bad = Matrix::zeros(5, 2);
        let ok = Matrix::zeros(3, 2);
        assert!(t.ttm_except_unfolded(2, &bad, &ok).is_err());
        assert!(t.ttm_except_unfolded(9, &ok, &ok).is_err());
    }

    #[test]
    fn core_contract_matches_dense_reference() {
        let t = figure2_tensor();
        let dense = t.to_dense();
        let y1 = Matrix::from_fn(3, 2, |i, j| (i + j) as f64 * 0.25 + 0.1);
        let y2 = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.1 });
        let y3 = Matrix::from_fn(3, 2, |i, j| (i as f64 * 0.5 - j as f64 * 0.2).cos());
        let core = t.core_contract(&y1, &y2, &y3).unwrap();
        let reference = dense
            .mode_product(1, &y1.transpose())
            .unwrap()
            .mode_product(2, &y2.transpose())
            .unwrap()
            .mode_product(3, &y3.transpose())
            .unwrap();
        assert!(core.approx_eq(&reference, 1e-12));
        assert_eq!(core.dims(), (2, 3, 2));
    }

    #[test]
    fn empty_tensor_is_fine() {
        let t = SparseTensor3::from_entries((4, 5, 6), &[]).unwrap();
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.frobenius_norm(), 0.0);
        let y1 = Matrix::zeros(4, 2);
        let y3 = Matrix::zeros(6, 2);
        let w = t.ttm_except_unfolded(2, &y1, &y3).unwrap();
        assert_eq!(w.shape(), (5, 4));
        assert_eq!(w.frobenius_norm(), 0.0);
    }

    #[test]
    fn iter_yields_sorted_unique_coords() {
        let t = figure2_tensor();
        let coords: Vec<(usize, usize, usize)> = t.iter().map(|(i, j, k, _)| (i, j, k)).collect();
        let mut sorted = coords.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(coords, sorted);
    }
}
