//! Experiment harness for the CubeLSI reproduction.
//!
//! [`experiments`] implements every table and figure of the paper's §VI;
//! the one binary, `paper <table1..7|figure4|figure5|all>`, prints them.
//!
//! `--scale` multiplies the Table II dataset sizes; the default of 0.02
//! keeps every experiment laptop-sized while preserving the evaluation's
//! shape. `--seed` overrides the master seed.

pub mod experiments;

pub use experiments::*;
