//! Property-based tests for the linear-algebra substrate, driven through
//! the public facade. These complement the unit tests inside
//! `cubelsi-linalg` with randomized coverage of algebraic laws.

use cubelsi::linalg::subspace::SubspaceOptions;
use cubelsi::linalg::{top_eigenpairs, truncated_svd, CsrMatrix, Matrix};
use proptest::prelude::*;

/// Strategy: a dense matrix with entries in [-3, 3].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f64..3.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

/// Strategy: dims in 1..=6 plus a matching buffer.
fn sized_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=6, 1usize..=6).prop_flat_map(|(r, c)| matrix_strategy(r, c))
}

/// Strategy: an `n × n` symmetric matrix with about half of its entries
/// zero and the rest in {1} ∪ [−3, 3], so decoupled blocks and repeated
/// eigenvalues come up as often as generic spectra.
fn sparse_symmetric(n: usize) -> impl Strategy<Value = Matrix> {
    (
        matrix_strategy(n, n),
        proptest::collection::vec(0u32..4, n * n),
    )
        .prop_map(move |(a, kinds)| {
            let raw = Matrix::from_fn(n, n, |i, j| match kinds[i * n + j] {
                0 | 1 => 0.0,
                2 => 1.0,
                _ => a[(i, j)],
            });
            raw.add(&raw.transpose()).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_associative(a in matrix_strategy(4, 3), b in matrix_strategy(3, 5), c in matrix_strategy(5, 2)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn matmul_distributes_over_add(a in matrix_strategy(3, 4), b in matrix_strategy(4, 3), c in matrix_strategy(4, 3)) {
        let left = a.matmul(&b.add(&c).unwrap()).unwrap();
        let right = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn transpose_is_involutive(a in sized_matrix()) {
        prop_assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn transpose_reverses_products(a in matrix_strategy(3, 4), b in matrix_strategy(4, 5)) {
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-10));
    }

    #[test]
    fn frobenius_norm_is_subadditive(a in matrix_strategy(4, 4), b in matrix_strategy(4, 4)) {
        let sum = a.add(&b).unwrap();
        prop_assert!(sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-9);
    }

    #[test]
    fn top_eigenpairs_reconstruct_symmetric(a in (1usize..=10).prop_flat_map(sparse_symmetric)) {
        let n = a.rows();
        let e = top_eigenpairs(a.clone(), n).unwrap();
        let lambda = Matrix::from_diag(&e.values);
        let recon = e.vectors.matmul(&lambda).unwrap().matmul(&e.vectors.transpose()).unwrap();
        prop_assert!(recon.approx_eq(&a, 1e-9 * a.frobenius_norm().max(1.0)));
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn truncated_svd_error_bounded_by_discarded_sigma(a in matrix_strategy(5, 4)) {
        // Every σ², descending: the eigenvalues of AᵀA.
        let sigma_sq = top_eigenpairs(a.gram(), a.cols()).unwrap().values;
        let k = 2;
        let trunc = truncated_svd(&a, k, &SubspaceOptions::default()).unwrap();
        let err = trunc.reconstruct().unwrap().sub(&a).unwrap().frobenius_norm();
        // ‖A − A_k‖_F = √(σ_{k+1}² + …) for the optimal rank-k approx.
        let optimal: f64 = sigma_sq.iter().skip(k).map(|s| s.max(0.0)).sum::<f64>().sqrt();
        prop_assert!(err <= optimal + 1e-5, "err {err} vs optimal {optimal}");
    }

    #[test]
    fn csr_round_trips_and_matches_dense_ops(
        triples in proptest::collection::vec((0usize..5, 0usize..4, -2.0f64..2.0), 0..20),
        x in proptest::collection::vec(-1.0f64..1.0, 4)
    ) {
        let sp = CsrMatrix::from_triples(5, 4, &triples).unwrap();
        let dense = sp.to_dense();
        prop_assert_eq!(sp.matvec(&x).unwrap(), dense.matvec(&x).unwrap());
        let spt = sp.transpose().to_dense();
        prop_assert!(spt.approx_eq(&dense.transpose(), 0.0));
    }
}
