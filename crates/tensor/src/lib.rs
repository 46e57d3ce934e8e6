//! Third-order tensors and Tucker decomposition for CubeLSI.
//!
//! The paper represents a social tagging system as a third-order binary
//! tensor `F ∈ {0,1}^{|U|×|T|×|R|}` (§IV-A) and purifies it with a Tucker
//! decomposition computed by alternating least squares (§IV-C). Because no
//! tensor-decomposition crates exist for Rust, this crate implements the
//! whole stack:
//!
//! * [`SparseTensor3`] — coordinate-format sparse tensor with (compacted)
//!   mode unfoldings exposed as [`cubelsi_linalg::CsrMatrix`] and fused
//!   tensor-times-matrix (TTM) kernels that never densify `F`;
//! * [`DenseTensor3`] — small dense tensors (core tensors, test fixtures)
//!   with n-mode products and unfoldings;
//! * [`tucker`] — HOSVD initialization + HOOI/ALS iterations producing the
//!   trimmed core `S`, factor matrices `Y⁽ⁿ⁾`, and the `Λ₂` by-product that
//!   Theorem 2 of the paper turns into the distance shortcut.
//!
//! Everything is exercised against brute-force dense references in the unit
//! and property tests.

pub mod dense;
pub mod sparse;
pub mod tucker;

pub use dense::DenseTensor3;
pub use sparse::SparseTensor3;
pub use tucker::{
    peak_rss_bytes, tucker_als, ModeInit, SweepTrace, TuckerConfig, TuckerDecomposition,
    TuckerTrace,
};
