//! Configuration of the CubeLSI pipeline. Nothing here chooses the
//! distances' `Σ`: there is one, `diag(Λ₂²)` ([`crate::TagModel`]).

use crate::query::PruningStrategy;
use cubelsi_linalg::kmeans::KMeansConfig;
use cubelsi_linalg::spectral::{KSelection, SpectralConfig};
use cubelsi_linalg::subspace::SubspaceOptions;
use cubelsi_linalg::LinAlgError;
use cubelsi_tensor::TuckerConfig;

/// Shim for the frozen `perfbench/`, which passes
/// [`CubeLsiConfig::sigma_source`] to [`crate::tag_embedding`]: it selects
/// nothing. The distances use one `Σ`, `diag(Λ₂²)` ([`crate::TagModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigmaSource {
    /// `Σ = ((Λ₂)₁:J₂,₁:J₂)²`, Theorem 2's diagonal.
    Lambda2,
}

/// Tunable parameters of [`crate::CubeLsi`].
#[derive(Debug, Clone)]
pub struct CubeLsiConfig {
    /// Reduction ratios `(c₁, c₂, c₃)` determining the core dimensions
    /// `Jₙ = Iₙ/cₙ` (§IV-C; the paper's experiments use 50).
    pub reduction_ratios: (f64, f64, f64),
    /// Overrides the ratio-derived core dimensions when set.
    pub core_dims: Option<(usize, usize, usize)>,
    /// Maximum HOOI/ALS iterations.
    pub max_als_iters: usize,
    /// ALS fit tolerance.
    pub als_fit_tol: f64,
    /// Shim for the frozen `perfbench/`, which reads it: selects nothing
    /// ([`SigmaSource`]).
    #[doc(hidden)]
    pub sigma_source: SigmaSource,
    /// Number of concepts. `None` → 95 %-variance rule of §V step 3.
    pub num_concepts: Option<usize>,
    /// Upper bound on concepts when using the variance rule.
    pub max_concepts: usize,
    /// Gaussian affinity bandwidth σ (§V step 1). `None` → median heuristic.
    pub sigma: Option<f64>,
    /// Seed for all stochastic components.
    pub seed: u64,
    /// Shim for the frozen `perfbench/`, which reads it: ignored, as the
    /// engine has one posting source ([`PruningStrategy`]).
    #[doc(hidden)]
    pub pruning: PruningStrategy,
}

impl Default for CubeLsiConfig {
    fn default() -> Self {
        CubeLsiConfig {
            reduction_ratios: (50.0, 50.0, 50.0),
            core_dims: None,
            max_als_iters: 10,
            als_fit_tol: 1e-4,
            sigma_source: SigmaSource::Lambda2,
            num_concepts: None,
            max_concepts: 64,
            sigma: None,
            seed: 0xc0be_15e1,
            pruning: PruningStrategy::default(),
        }
    }
}

impl CubeLsiConfig {
    /// Resolves the Tucker configuration for a tensor of the given dims.
    pub fn tucker_config(&self, dims: (usize, usize, usize)) -> Result<TuckerConfig, LinAlgError> {
        let mut cfg = match self.core_dims {
            Some(core) => TuckerConfig {
                core_dims: core,
                ..Default::default()
            },
            None => {
                let (c1, c2, c3) = self.reduction_ratios;
                TuckerConfig::from_reduction_ratios(dims, c1, c2, c3)?
            }
        };
        cfg.max_iters = self.max_als_iters;
        cfg.fit_tol = self.als_fit_tol;
        cfg.subspace = SubspaceOptions {
            seed: self.seed ^ 0x717c_4e12,
            ..Default::default()
        };
        Ok(cfg)
    }

    /// Resolves the spectral-clustering configuration.
    pub fn spectral_config(&self) -> SpectralConfig {
        SpectralConfig {
            sigma: self.sigma,
            k: match self.num_concepts {
                Some(k) => KSelection::Fixed(k),
                None => KSelection::VarianceCovered {
                    fraction: 0.95,
                    max_k: self.max_concepts,
                },
            },
            kmeans: KMeansConfig {
                seed: self.seed ^ 0x6b6d,
                ..Default::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tucker_config_from_ratios() {
        let cfg = CubeLsiConfig::default();
        let t = cfg.tucker_config((3897, 3326, 2849)).unwrap();
        assert_eq!(t.core_dims, (78, 67, 57));
        assert_eq!(t.max_iters, cfg.max_als_iters);
    }

    #[test]
    fn explicit_core_dims_win() {
        let cfg = CubeLsiConfig {
            core_dims: Some((4, 5, 6)),
            ..Default::default()
        };
        let t = cfg.tucker_config((100, 100, 100)).unwrap();
        assert_eq!(t.core_dims, (4, 5, 6));
    }

    #[test]
    fn invalid_ratios_error() {
        let cfg = CubeLsiConfig {
            reduction_ratios: (0.1, 50.0, 50.0),
            ..Default::default()
        };
        assert!(cfg.tucker_config((10, 10, 10)).is_err());
    }

    #[test]
    fn spectral_config_resolution() {
        let auto = CubeLsiConfig::default().spectral_config();
        assert!(matches!(auto.k, KSelection::VarianceCovered { .. }));
        let fixed = CubeLsiConfig {
            num_concepts: Some(7),
            ..Default::default()
        }
        .spectral_config();
        assert!(matches!(fixed.k, KSelection::Fixed(7)));
    }
}
