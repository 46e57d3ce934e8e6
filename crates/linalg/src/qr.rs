//! Column orthonormalization.
//!
//! Subspace iteration (see [`crate::subspace`]) re-orthonormalizes its block
//! every step, and the SVD completes a rank-deficient basis, with a
//! twice-applied modified Gram–Schmidt.

use crate::matrix::Matrix;
use crate::{dispatch, parallel};
use std::ops::Range;

/// Columns per block of the interleaved layout [`orthonormalize_columns`]
/// works in: row `t` of a block holds element `t` of eight consecutive
/// columns, one cache line, so eight columns take their projections side by
/// side, one sequential sum each.
const LANES: usize = 8;

/// One row of a block: element `t` of each of its `LANES` columns.
type Row = [f64; LANES];

/// Multiply–adds of one panel's trailing update below which it stays on the
/// calling thread (a band costs a thread spawn, tens of µs).
const PAR_UPDATE_THRESHOLD: usize = 1 << 18;

/// Orthonormalizes the columns of `a` in place using modified Gram–Schmidt,
/// applied twice for numerical stability ("MGS2").
///
/// Columns that become numerically zero (rank deficiency) are replaced with
/// deterministic pseudo-random directions re-orthogonalized against the
/// basis, so the result always has exactly `a.cols()` orthonormal columns —
/// a requirement of subspace iteration, which must not lose block width.
///
/// Each pass is right-looking over panels of `LANES` columns: a panel's
/// columns are finished one after another (norm test, fill, scaling, each
/// then projected out of the panel's later columns), and the finished panel
/// is projected out of every column to its right, `INTERLEAVE` blocks of
/// eight columns a pass, the trailing blocks split into row bands by
/// [`parallel::for_each_band`]. A column still takes its projections on
/// columns `0..j` in ascending order, each a sequential dot product from
/// −0.0 and the same axpy as the textbook left-looking loop, and fills draw
/// from the seed in column order, so the result is bit-identical to that
/// loop at any thread count and at every [`dispatch`] level.
pub fn orthonormalize_columns(a: &mut Matrix) {
    orthonormalize_columns_in(a, &mut Matrix::zeros(0, 0));
}

/// [`orthonormalize_columns`] working in the storage of `scratch`, a
/// matrix whose contents the caller no longer needs: its shape and
/// contents are left unspecified, and its allocation is reused when it
/// holds [`panel_scratch`]`(a.rows(), a.cols())`'s elements. The result
/// is the same bits.
pub fn orthonormalize_columns_in(a: &mut Matrix, scratch: &mut Matrix) {
    let (m, n) = a.shape();
    debug_assert!(m >= n, "cannot orthonormalize more columns than rows");
    if m == 0 || n == 0 {
        return;
    }
    let blocks = n.div_ceil(LANES);
    // Block `b` is rows `b·m..(b+1)·m`; its row `t`, lane `l` holds
    // `a[(t, b·LANES + l)]`. Lanes past the last column stay unused.
    scratch.reset(blocks * m, LANES);
    let (cols, _) = scratch.as_mut_slice().as_chunks_mut::<LANES>();
    for (t, a_row) in a.as_slice().chunks_exact(n).enumerate() {
        for (b, chunk) in a_row.chunks(LANES).enumerate() {
            cols[b * m + t][..chunk.len()].copy_from_slice(chunk);
        }
    }
    let mut fill_seed = 0x9e37_79b9_7f4a_7c15u64;
    for _pass in 0..2 {
        for b in 0..blocks {
            let (done, rest) = cols.split_at_mut(b * m);
            let (panel, trailing) = rest.split_at_mut(m);
            let width = (n - b * LANES).min(LANES);
            dispatch::run(
                #[inline(always)]
                || finish_panel(done, panel, width, &mut fill_seed),
            );
            let panel = &*panel;
            let update = |_: Range<usize>, band: &mut [Row]| {
                dispatch::run(
                    #[inline(always)]
                    || {
                        let mut groups = band.chunks_exact_mut(INTERLEAVE * m);
                        for group in groups.by_ref() {
                            let mut blocks = group.chunks_exact_mut(m);
                            let blocks: [&mut [Row]; INTERLEAVE] =
                                std::array::from_fn(|_| blocks.next().expect("INTERLEAVE blocks"));
                            subtract_panel(panel, width, blocks);
                        }
                        for block in groups.into_remainder().chunks_exact_mut(m) {
                            subtract_panel(panel, width, [block]);
                        }
                    },
                )
            };
            let trailing_blocks = blocks - b - 1;
            if 2 * trailing_blocks * m * width * LANES < PAR_UPDATE_THRESHOLD {
                update(0..trailing_blocks, trailing);
            } else {
                parallel::for_each_band(trailing_blocks, |r| r * m, trailing, update);
            }
        }
    }
    for (t, a_row) in a.as_mut_slice().chunks_exact_mut(n).enumerate() {
        for (b, chunk) in a_row.chunks_mut(LANES).enumerate() {
            chunk.copy_from_slice(&cols[b * m + t][..chunk.len()]);
        }
    }
}

/// A zeroed matrix with the elements [`orthonormalize_columns_in`] needs
/// to orthonormalize `m × n` without allocating: `n` rounded up to whole
/// panels of eight columns, times `m`.
pub fn panel_scratch(m: usize, n: usize) -> Matrix {
    Matrix::zeros(m, n.div_ceil(LANES) * LANES)
}

/// Finishes the first `width` lanes of `panel`, whose columns hold every
/// projection on the finished blocks `done`: lane by lane, the norm test
/// (and fill), the scaling, and that lane's projection out of the lanes to
/// its right. A lane's squared norm is summed in the pass that applies its
/// last projection.
#[inline(always)]
fn finish_panel(done: &[Row], panel: &mut [Row], width: usize, fill_seed: &mut u64) {
    let mut norm_sq = panel.iter().map(|row| row[0] * row[0]).sum::<f64>();
    for l in 0..width {
        let nrm = norm_sq.sqrt();
        let scale = if nrm <= 1e-13 {
            refill(done, panel, l, fill_seed);
            1.0
        } else {
            1.0 / nrm
        };
        let mut r = [-0.0; LANES];
        for row in panel.iter_mut() {
            let q = row[l] * scale;
            row[l] = q;
            for (acc, &x) in r[l + 1..width].iter_mut().zip(&row[l + 1..width]) {
                *acc += q * x;
            }
        }
        if l + 1 == width {
            break;
        }
        norm_sq = -0.0;
        for row in panel.iter_mut() {
            let q = row[l];
            for (x, &rk) in row[l + 1..width].iter_mut().zip(&r[l + 1..width]) {
                *x -= rk * q;
            }
            norm_sq += row[l + 1] * row[l + 1];
        }
    }
}

/// Rank deficiency: replaces lane `l` of `panel` with a fresh deterministic
/// direction, projects it on every earlier column (the finished blocks
/// `done`, then the panel's lanes before `l`) in column order, and scales
/// it to unit norm (or to zero, if nothing is left).
fn refill(done: &[Row], panel: &mut [Row], l: usize, fill_seed: &mut u64) {
    for row in panel.iter_mut() {
        *fill_seed = fill_seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        row[l] = ((*fill_seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
    }
    let m = panel.len();
    let column = |panel: &[Row], i: usize, t: usize| match done.get((i / LANES) * m + t) {
        Some(row) => row[i % LANES],
        None => panel[t][i % LANES],
    };
    for i in 0..done.len() / m * LANES + l {
        let r = (0..m)
            .map(|t| column(panel, i, t) * panel[t][l])
            .sum::<f64>();
        for t in 0..m {
            let q = column(panel, i, t);
            panel[t][l] -= r * q;
        }
    }
    let nrm = panel.iter().map(|row| row[l] * row[l]).sum::<f64>().sqrt();
    let inv = if nrm > 0.0 { 1.0 / nrm } else { 0.0 };
    for row in panel.iter_mut() {
        row[l] *= inv;
    }
}

/// Trailing blocks [`subtract_panel`] takes in one pass, so that as many
/// independent sums advance per row.
const INTERLEAVE: usize = 2;

/// Projects the first `width` (finished) lanes of `panel` out of every lane
/// of each of `blocks`, in lane order. The axpy of one lane and the dot
/// products of the next share a pass: each element is updated, then read.
/// The blocks share the passes; each of their columns keeps its own
/// sequential sums. Rows are copied into locals so that the compiler sees
/// they do not alias the panel.
#[inline(always)]
fn subtract_panel<const B: usize>(panel: &[Row], width: usize, mut blocks: [&mut [Row]; B]) {
    let mut r = [[-0.0; LANES]; B];
    for (t, q) in panel.iter().enumerate() {
        let q0 = q[0];
        for (rb, block) in r.iter_mut().zip(&blocks) {
            let row = block[t];
            for (acc, &x) in rb.iter_mut().zip(&row) {
                *acc += q0 * x;
            }
        }
    }
    for i in 1..width {
        let mut next = [[-0.0; LANES]; B];
        for (t, q) in panel.iter().enumerate() {
            let (q_done, q_next) = (q[i - 1], q[i]);
            for ((nb, rb), block) in next.iter_mut().zip(&r).zip(blocks.iter_mut()) {
                let mut row = block[t];
                for ((x, acc), &rk) in row.iter_mut().zip(nb.iter_mut()).zip(rb) {
                    *x -= rk * q_done;
                    *acc += q_next * *x;
                }
                block[t] = row;
            }
        }
        r = next;
    }
    for (t, q) in panel.iter().enumerate() {
        let q_last = q[width - 1];
        for (rb, block) in r.iter().zip(blocks.iter_mut()) {
            let mut row = block[t];
            for (x, &rk) in row.iter_mut().zip(rb) {
                *x -= rk * q_last;
            }
            block[t] = row;
        }
    }
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
    use crate::matrix::{dot, norm2};
    use crate::parallel::{set_num_threads, TEST_THREAD_LOCK};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The left-looking MGS2 that [`orthonormalize_columns`] reorganises:
    /// column by column, each projected on every earlier column in turn.
    fn left_looking_mgs2(a: &mut Matrix) {
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
        *a = at.transpose();
    }

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

    fn seeded(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(m, n, |_, _| rng.gen::<f64>() - 0.5)
    }

    #[test]
    fn mgs2_is_bit_identical_to_the_left_looking_loop() {
        // Column counts off the panel width, and 17 and 33 with a panel of
        // one column at the end; 1 500 rows put the trailing updates above
        // the banding threshold.
        let mut cases: Vec<Matrix> = [1, 5, 13, 17, 33, 37]
            .iter()
            .map(|&n| seeded(1500, n, n as u64))
            .collect();
        // Square.
        cases.extend([1, 8, 9, 24].iter().map(|&n| seeded(n, n, 100 + n as u64)));
        // Rank deficiency. A zero column and a duplicated column are filled
        // in the first pass. A column whose squared norm overflows is
        // scaled to zero in the first pass and filled in the second.
        for (m, n) in [(1200, 21), (12, 12)] {
            let mut a = seeded(m, n, 7);
            for t in 0..m {
                a[(t, 3)] = 0.0;
                a[(t, 10)] = a[(t, 2)];
                a[(t, n - 1)] = 1e200;
            }
            cases.push(a);
        }
        let _guard = TEST_THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1, 2, 4] {
            set_num_threads(threads);
            for (i, a) in cases.iter().enumerate() {
                let mut want = a.clone();
                left_looking_mgs2(&mut want);
                let mut got = a.clone();
                orthonormalize_columns(&mut got);
                let same_bits = got
                    .as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same_bits, "case {i} ({:?}) at {threads} threads", a.shape());
                assert!(orthonormality_error(&got) < 1e-8, "case {i}");
            }
        }
        set_num_threads(0);
    }

    /// Gram–Schmidt in borrowed storage against [`orthonormalize_columns`],
    /// bit for bit, at 1 and 2 threads: column counts off the panel
    /// width, rank deficiency (a zero and a duplicated column, refilled),
    /// and scratch that is empty, too small, of another shape with stale
    /// values, or [`panel_scratch`]-sized — which is used without being
    /// reallocated.
    #[test]
    fn borrowed_storage_is_bit_identical_and_not_reallocated() {
        let mut cases: Vec<Matrix> = [1, 7, 8, 17, 33, 72]
            .iter()
            .map(|&n| seeded(1100, n, 400 + n as u64))
            .collect();
        let mut deficient = seeded(900, 21, 11);
        for t in 0..900 {
            deficient[(t, 4)] = 0.0;
            deficient[(t, 13)] = deficient[(t, 9)];
        }
        cases.push(deficient);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let _guard = TEST_THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1, 2] {
            set_num_threads(threads);
            for (i, a) in cases.iter().enumerate() {
                let (m, n) = a.shape();
                let mut want = a.clone();
                orthonormalize_columns(&mut want);
                let stale = Matrix::from_fn(m / 2 + 1, n + 3, |r, c| (r * c) as f64 - 1e3);
                for mut scratch in [Matrix::zeros(0, 0), stale, panel_scratch(m, n)] {
                    let sized = scratch.as_slice().len() >= m * n.div_ceil(LANES) * LANES;
                    let storage = scratch.as_slice().as_ptr();
                    let mut got = a.clone();
                    orthonormalize_columns_in(&mut got, &mut scratch);
                    let at = format!("case {i} ({m}x{n}), {threads} threads");
                    assert_eq!(bits(&got), bits(&want), "{at}");
                    if sized {
                        assert_eq!(scratch.as_slice().as_ptr(), storage, "{at}: reallocated");
                    }
                }
            }
        }
        set_num_threads(0);
    }

    /// Every level the host supports, at 1, 2 and 4 threads, against the
    /// left-looking loop and the baseline level: column counts off the
    /// panel width and the block interleave (an odd and an even number of
    /// trailing blocks), 700 rows to band the wider ones, and rank
    /// deficiency.
    #[test]
    fn mgs2_is_bit_identical_at_every_level() {
        use crate::dispatch::tests::for_each_level;
        use crate::dispatch::Level;
        let mut cases: Vec<Matrix> = [1, 3, 5, 9, 47, 49, 73]
            .iter()
            .map(|&n| seeded(700, n, 200 + n as u64))
            .collect();
        cases.extend([3, 9].iter().map(|&n| seeded(n, n, 300 + n as u64)));
        let mut deficient = seeded(700, 41, 9);
        for t in 0..700 {
            deficient[(t, 5)] = 0.0;
            deficient[(t, 20)] = deficient[(t, 12)];
        }
        cases.push(deficient);
        let wants: Vec<Matrix> = cases
            .iter()
            .map(|a| {
                let mut want = a.clone();
                left_looking_mgs2(&mut want);
                want
            })
            .collect();
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let _guard = TEST_THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1, 2, 4] {
            set_num_threads(threads);
            let mut baseline = Vec::new();
            for_each_level(|level| {
                for (i, (a, want)) in cases.iter().zip(&wants).enumerate() {
                    let mut got = a.clone();
                    orthonormalize_columns(&mut got);
                    let at = format!("case {i} ({:?}) at {level:?}, {threads} threads", a.shape());
                    assert_eq!(bits(&got), bits(want), "{at}");
                    if level == Level::Baseline {
                        baseline.push(got);
                    } else {
                        assert_eq!(bits(&got), bits(&baseline[i]), "{at}");
                    }
                }
            });
        }
        set_num_threads(0);
    }
}
