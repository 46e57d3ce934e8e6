//! The CubeLSI algorithm (Bi, Lee, Kao, Cheng — ICDE 2011).
//!
//! CubeLSI is an offline/online retrieval pipeline for social tagging
//! systems (Figure 1 of the paper):
//!
//! **Offline** — represent the tag assignments as a third-order tensor
//! `F ∈ {0,1}^{|U|×|T|×|R|}` (Eq. 5); Tucker-decompose it (§IV-C); derive
//! pairwise *purified* tag distances `D̂` from the decomposition via the
//! Theorem 1/2 shortcuts — never materializing the dense purified tensor
//! `F̂` (§IV-D); distill *concepts* by spectral clustering of tags (§V);
//! re-represent every resource as a tf-idf weighted bag of concepts (§III).
//!
//! **Online** — map a tag query to the same concept space and rank
//! resources by cosine similarity (Eq. 4).
//!
//! Modules follow the paper's structure:
//!
//! * [`tensor_build`] — Eq. 5 tensor construction;
//! * [`distance`] — §IV-D distances: Theorem-1 fast path, literal Eq. 21
//!   per-pair evaluation, and the brute-force `F̂` reference (tests only);
//! * [`concepts`] — §V concept distillation;
//! * [`index`] — §III bag-of-concepts tf-idf index and cosine ranking;
//! * [`query`] — the online top-k engine: one exact block-max pruning
//!   skeleton over impact-ordered SoA postings,
//!   bounded-heap selection, zero-allocation sessions, and parallel
//!   batched search;
//! * [`pipeline`] — the [`CubeLsi`] facade wiring everything, with
//!   per-phase timings for the efficiency experiments (Tables V–VII);
//! * [`persist`] — versioned, checksummed binary save/load of a complete
//!   built engine (one load path; the index is built at load from the
//!   stored corpus and concept map), splitting the
//!   expensive offline build from cheap online serving across process
//!   lifetimes;
//! * [`shard`] — serving sources (one artifact, or a versioned manifest
//!   of identical replicas) loaded into one engine, with hot
//!   generation-swapped reload under live traffic;
//! * [`exec`] — the query dispatch counters (inline or fanned out)
//!   surfaced by the `serve` STATS command; query batches fork–join on
//!   `cubelsi_linalg::parallel`, and a single query runs on its caller's
//!   thread.

pub mod concepts;
pub mod config;
pub mod distance;
pub mod exec;
pub mod index;
pub mod persist;
pub mod pipeline;
pub mod query;
pub mod shard;
pub mod tensor_build;

pub use concepts::{ConceptModel, TagClusterSummary};
pub use config::{CubeLsiConfig, SigmaSource};
pub use distance::{
    brute_force_distances, pairwise_distances_from_embedding, tag_embedding, TagDistances, TagModel,
};
pub use exec::ExecutorStats;
pub use index::{
    ConceptAssignment, ConceptIndex, PostingsRef, PreparedQuery, RankedResource, BLOCK_LEN,
};
pub use persist::{Artifact, PersistError};
pub use pipeline::{BuildReport, BuildTrace, CubeLsi, HosvdCounts, PhasePeaks, PhaseTimings};
pub use query::{PruningStrategy, QueryEngine, QuerySession};
pub use shard::{
    ShardEntry, ShardGeneration, ShardManifest, ShardSet, ShardedEngine, ShardedSession, SourceKind,
};
pub use tensor_build::build_tensor;
