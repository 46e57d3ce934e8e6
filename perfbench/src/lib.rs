//! The modules of the benchmark `BENCHMARK.json` names; `main.rs` is the
//! command line over them. See `README.md` for the metrics.

pub mod ctx;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod offline;
pub mod oracle;
pub mod proc;
pub mod report;
pub mod stats;
pub mod trace;
pub mod wl_build;
pub mod wl_query;
pub mod wl_serve;
