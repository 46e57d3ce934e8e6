//! Property-based verification of the paper's two theorems on randomized
//! tensors — the correctness core of the whole reproduction:
//!
//! * **Theorem 1**: `D̂ᵢⱼ = √((Y⁽²⁾ᵢ−Y⁽²⁾ⱼ) Σ (Y⁽²⁾ᵢ−Y⁽²⁾ⱼ)ᵀ)` with
//!   `Σ = S₍₂₎S₍₂₎ᵀ` equals the brute-force Frobenius distance between
//!   mode-2 slices of the materialized `F̂`.
//! * **Theorem 2**: at the ALS fixed point, `Σ = Λ₂²`.

use cubelsi::core::{
    brute_force_distances, pairwise_distances_from_embedding, tag_embedding, SigmaSource,
};
use cubelsi::linalg::qr::orthonormality_error;
use cubelsi::linalg::subspace::SubspaceOptions;
use cubelsi::tensor::{tucker_als, DenseTensor3, SparseTensor3, TuckerConfig};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn theorem1_matches_brute_force_on_random_tensors(tensor in tensor_strategy()) {
        let decomp = tucker_als(&tensor, &converged_config(tensor.dims(), true)).unwrap();
        let brute = brute_force_distances(&decomp).unwrap();
        let z = tag_embedding(&decomp, SigmaSource::CoreGram).unwrap();
        let fast = pairwise_distances_from_embedding(&z);
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
        let z1 = tag_embedding(&decomp, SigmaSource::CoreGram).unwrap();
        let z2 = tag_embedding(&decomp, SigmaSource::Lambda2).unwrap();
        let d1 = pairwise_distances_from_embedding(&z1);
        let d2 = pairwise_distances_from_embedding(&z2);
        prop_assert!(
            d1.matrix().approx_eq(d2.matrix(), 1e-5),
            "Theorem 2 violated\ncore: {:?}\nlambda2: {:?}",
            d1.matrix(),
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
