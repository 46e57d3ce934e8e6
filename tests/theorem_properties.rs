//! Property-based verification of the paper's two theorems on randomized
//! tensors — the correctness core of the whole reproduction:
//!
//! * **Theorem 1**: `D̂ᵢⱼ = √((Y⁽²⁾ᵢ−Y⁽²⁾ⱼ) Σ (Y⁽²⁾ᵢ−Y⁽²⁾ⱼ)ᵀ)` with
//!   `Σ = S₍₂₎S₍₂₎ᵀ` equals the brute-force Frobenius distance between
//!   mode-2 slices of the materialized `F̂`.
//! * **Theorem 2**: at the ALS fixed point, `Σ = Λ₂²`.
//!
//! The product embeds tags as `Y⁽²⁾ diag(Λ₂)`, i.e. it uses `Σ = Λ₂²`;
//! Theorem 1's literal formula with `Σ = S₍₂₎S₍₂₎ᵀ` is the oracle it is held
//! to, at convergence and without it.

use cubelsi::core::distance::distance_pair_literal;
use cubelsi::core::{
    brute_force_distances, pairwise_distances_from_embedding, tag_embedding, SigmaSource,
    TagDistances,
};
use cubelsi::linalg::qr::orthonormality_error;
use cubelsi::linalg::subspace::SubspaceOptions;
use cubelsi::linalg::svd::SvdRoute;
use cubelsi::linalg::Matrix;
use cubelsi::tensor::{tucker_als, DenseTensor3, SparseTensor3, TuckerConfig, TuckerDecomposition};
use proptest::prelude::*;

/// Strategy: a random sparse third-order tensor with at least one non-zero
/// per mode-2 index (so every "tag" exists).
fn tensor_strategy() -> impl Strategy<Value = SparseTensor3> {
    (2usize..=4, 2usize..=4, 2usize..=4)
        .prop_flat_map(|(d1, d2, d3)| {
            let extra = proptest::collection::vec((0..d1, 0..d2, 0..d3, 0.5f64..2.0), d2..(d2 * 4));
            (Just((d1, d2, d3)), extra)
        })
        .prop_map(|((d1, d2, d3), mut quads)| {
            // Guarantee every mode-2 slice is non-empty.
            for j in 0..d2 {
                quads.push((j % d1, j, j % d3, 1.0));
            }
            SparseTensor3::from_entries((d1, d2, d3), &quads).unwrap()
        })
}

fn converged_config(dims: (usize, usize, usize), trim: bool) -> TuckerConfig {
    let core = if trim {
        (
            dims.0.saturating_sub(1).max(1),
            dims.1, // keep the tag mode full so distances stay comparable
            dims.2.saturating_sub(1).max(1),
        )
    } else {
        dims
    };
    TuckerConfig {
        core_dims: core,
        max_iters: 60,
        fit_tol: 1e-13,
        subspace: SubspaceOptions::default(),
    }
}

/// The product's distances: the embedding `Y⁽²⁾ diag(Λ₂)`.
fn product_distances(decomp: &TuckerDecomposition) -> TagDistances {
    pairwise_distances_from_embedding(&tag_embedding(decomp, SigmaSource::Lambda2).unwrap())
}

/// Theorem 1's literal `√(XΣXᵀ)` for every pair, `Σ = S₍₂₎S₍₂₎ᵀ`.
fn literal_distances(decomp: &TuckerDecomposition) -> Matrix {
    let sigma = decomp.sigma_from_core().unwrap();
    let t = decomp.factors[1].rows();
    Matrix::from_fn(t, t, |i, j| distance_pair_literal(decomp, &sigma, i, j))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn theorem1_matches_brute_force_on_random_tensors(tensor in tensor_strategy()) {
        let decomp = tucker_als(&tensor, &converged_config(tensor.dims(), true)).unwrap();
        let brute = brute_force_distances(&decomp).unwrap();
        let literal = literal_distances(&decomp);
        prop_assert!(
            literal.approx_eq(brute.matrix(), 1e-6),
            "Theorem 1 violated\nliteral: {:?}\nbrute: {:?}",
            literal,
            brute.matrix()
        );
        let fast = product_distances(&decomp);
        prop_assert!(
            fast.matrix().approx_eq(brute.matrix(), 1e-6),
            "Theorem 1 violated\nfast: {:?}\nbrute: {:?}",
            fast.matrix(),
            brute.matrix()
        );
    }

    #[test]
    fn theorem2_sigma_sources_agree_at_convergence(tensor in tensor_strategy()) {
        let decomp = tucker_als(&tensor, &converged_config(tensor.dims(), true)).unwrap();
        let d1 = literal_distances(&decomp);
        let d2 = product_distances(&decomp);
        prop_assert!(
            d1.approx_eq(d2.matrix(), 1e-5),
            "Theorem 2 violated\ncore: {:?}\nlambda2: {:?}",
            d1,
            d2.matrix()
        );
    }

    #[test]
    fn tucker_factors_orthonormal_and_fit_valid(tensor in tensor_strategy()) {
        let decomp = tucker_als(&tensor, &converged_config(tensor.dims(), true)).unwrap();
        for y in &decomp.factors {
            prop_assert!(orthonormality_error(y) < 1e-7);
        }
        prop_assert!(decomp.fit <= 1.0 + 1e-9);
        // Norm identity: ‖F−F̂‖² = ‖F‖² − ‖S‖².
        let recon = decomp.reconstruct().unwrap();
        let err_sq = recon
            .sub(&tensor.to_dense())
            .unwrap()
            .frobenius_norm_sq();
        let identity = tensor.frobenius_norm_sq() - decomp.core.frobenius_norm_sq();
        prop_assert!((err_sq - identity).abs() < 1e-6, "{err_sq} vs {identity}");
    }

    #[test]
    fn full_rank_decomposition_is_lossless(tensor in tensor_strategy()) {
        let decomp = tucker_als(&tensor, &converged_config(tensor.dims(), false)).unwrap();
        prop_assert!(decomp.fit > 1.0 - 1e-6, "full-rank fit {}", decomp.fit);
        let recon = decomp.reconstruct().unwrap();
        prop_assert!(recon.approx_eq(&tensor.to_dense(), 1e-5));
    }

    #[test]
    fn unfold_fold_round_trip(
        dims in (1usize..=5, 1usize..=5, 1usize..=5),
        seed in 0u64..1000
    ) {
        let (d1, d2, d3) = dims;
        let t = DenseTensor3::from_fn(d1, d2, d3, |i, j, k| {
            ((i * 31 + j * 17 + k * 7 + seed as usize) % 23) as f64 - 11.0
        });
        for mode in 1..=3 {
            let u = t.unfold(mode);
            let back = DenseTensor3::fold(mode, &u, t.dims()).unwrap();
            prop_assert!(back.approx_eq(&t, 0.0), "mode {mode}");
        }
    }

    #[test]
    fn mode_product_matches_unfolded_matmul(
        dims in (2usize..=4, 2usize..=4, 2usize..=4),
        seed in 0u64..1000
    ) {
        let (d1, d2, d3) = dims;
        let t = DenseTensor3::from_fn(d1, d2, d3, |i, j, k| {
            ((i + 2 * j + 3 * k + seed as usize) % 7) as f64 * 0.5 - 1.0
        });
        for mode in 1..=3usize {
            let in_dim = t.dim(mode);
            let w = cubelsi::linalg::Matrix::from_fn(2, in_dim, |i, j| {
                ((i * 5 + j * 3 + seed as usize) % 11) as f64 / 11.0 - 0.5
            });
            let product = t.mode_product(mode, &w).unwrap();
            let reference = w.matmul(&t.unfold(mode)).unwrap();
            prop_assert!(product.unfold(mode).approx_eq(&reference, 1e-10));
        }
    }
}

/// A seeded long-tail tensor (`I₁ × I₂ × I₃`, `draws` entries): six planted
/// (user group, tag group, resource group) blocks of falling weight with
/// skewed popularity inside each, and 10 % noise entries for the flat tail
/// of a folksonomy.
fn long_tail_tensor(dims: (usize, usize, usize), draws: usize, seed: u64) -> SparseTensor3 {
    let mut state = seed;
    let mut next = |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    let (g1, g2, g3) = (dims.0 / 6, dims.1 / 6, dims.2 / 6);
    let quads: Vec<_> = (0..draws)
        .map(|n| {
            if n % 10 == 0 {
                return (next(dims.0), next(dims.1), next(dims.2), 1.0);
            }
            let g = next(6);
            let weight = 1.0 + (6 - g) as f64 * 0.5;
            (
                g * g1 + next(g1).min(next(g1)),
                g * g2 + next(g2).min(next(g2)),
                g * g3 + next(g3) * next(g3) / g3,
                weight,
            )
        })
        .collect();
    SparseTensor3::from_entries(dims, &quads).unwrap()
}

/// `S₍₂₎S₍₂₎ᵀ = diag(Λ₂²)` holds after 1, 2 or 8 sweeps, not only at the
/// ALS fixed point: `tucker_als` ends by taking `Y⁽²⁾` as the top-`J₂` left
/// singular vectors of the final `W₍₂₎` and contracting `S₍₂₎ = Y⁽²⁾ᵀW₍₂₎`.
/// So Theorem 1's literal distances equal the product's, which use
/// `Σ = Λ₂²`, converged or not.
///
/// The final mode-2 refresh solves a `W₍₂₎` of the same shape as every
/// sweep's mode-2 update, so it takes that update's route, which
/// `TuckerTrace` records. Both routes are covered:
/// * 30 × 25 × 1 500 (6 000 draws), core 6 × 6 × 12: `W₍₂₎` is 25 × 72,
///   the exact Gram route;
/// * 30 × 120 × 400 (8 000 draws), core 10 × 4 × 12: `W₍₂₎` is 120 × 120,
///   subspace iteration.
///
/// Tolerances, both relative: `‖S₍₂₎S₍₂₎ᵀ − diag(Λ₂²)‖_max ≤ 1e-9·λ₁²` and
/// `max |D̂_literal − D̂_product| ≤ 1e-9·max D̂`. Measured when the test was
/// added (x86-64): at most 1.3e-15 and 7.4e-16 on the Gram route (distances
/// up to 115.9), and 2.9e-15 and 1.6e-15 on the iterative one (up to 65.9),
/// whose `Y⁽²⁾` is exact only to the subspace solve's tolerance.
#[test]
fn sigma_from_core_is_lambda2_squared_without_convergence() {
    let max_abs = |m: &Matrix| m.as_slice().iter().fold(0.0f64, |a, x| a.max(x.abs()));
    // (dims, draws, core, whether mode 2 takes the Gram route)
    let cases = [
        ((30, 25, 1_500), 6_000, (6, 6, 12), true),
        ((30, 120, 400), 8_000, (10, 4, 12), false),
    ];
    for (dims, draws, core, gram) in cases {
        let tensor = long_tail_tensor(dims, draws, 0x5eed_2011);
        for max_iters in [1, 2, 8] {
            let config = TuckerConfig {
                core_dims: core,
                max_iters,
                // Never met: every run stops at its sweep budget.
                fit_tol: 0.0,
                subspace: SubspaceOptions::default(),
            };
            let decomp = tucker_als(&tensor, &config).unwrap();
            let what = format!("{dims:?} after {max_iters} sweep(s)");
            assert_eq!(decomp.iterations, max_iters, "{what}");
            let mode2 = decomp.trace.sweeps.last().unwrap().updates[1];
            assert_eq!(mode2 == SvdRoute::Gram, gram, "{what}: {mode2:?}");

            let squares: Vec<f64> = decomp.lambda2.iter().map(|l| l * l).collect();
            let sigma = decomp.sigma_from_core().unwrap();
            let sigma_err = max_abs(&sigma.sub(&Matrix::from_diag(&squares)).unwrap());
            assert!(
                sigma_err <= 1e-9 * squares[0],
                "{what}: |S2 S2ᵀ − Λ₂²| = {sigma_err:e}"
            );
            let product = product_distances(&decomp);
            let dist_err = max_abs(&literal_distances(&decomp).sub(product.matrix()).unwrap());
            let dist_max = max_abs(product.matrix());
            assert!(
                dist_err <= 1e-9 * dist_max,
                "{what}: |literal − product| = {dist_err:e}"
            );
        }
    }
}
