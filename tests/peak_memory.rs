//! Pins four memory shapes with the counting global allocator of
//! `tests/common/counting_alloc.rs`.
//!
//! **Tucker initialisation**: the most `tucker_als` holds at once scales
//! with the non-zeros and the solver's block, not with the width of a mode
//! unfolding. The HOSVD eigensolve of mode n keeps three `Iₙ × block`
//! blocks (the iterate, the applied block, and the rotation target that
//! Gram–Schmidt also works in) and applies `Aₙ(AₙᵀX)` through a
//! `cols × panel` intermediate (a column panel of at most 63). Over the
//! full Kolda–Bader unfolding that intermediate would be `∏ₘ≠ₙ Iₘ × block`
//! doubles — 40·4 000·16·8 B = 20 MB for mode 2 of the tensor below,
//! 300 MB on the benchmark's corpus — whatever the data holds.
//!
//! **Spectral clustering**: the distances, the affinity and `L` are one
//! `T × T` buffer, which the eigensolve consumes; the rest is `O(T·k)`.
//!
//! **Concept index**: a built `ConceptIndex` keeps its posting arrays,
//! block maxima and idf, and nothing else; the resources' tf-idf vectors
//! it is formed from live only inside the build.
//!
//! **Sharded load**: every shard file carries the whole folksonomy and
//! model, and `load_source` keeps one copy, not one a shard — its peak is a
//! server's peak. It also reads the files into two buffers whatever the
//! shard count, so what the allocator is left holding does not depend on
//! it either.
//!
//! The first three are peaks of live bytes above the level at entry; the
//! index's is the live bytes the build leaves behind. The counters are
//! global to the process, so the tests take turns under a lock.

use cubelsi::core::distance::pairwise_distances_from_embedding;
use cubelsi::core::shard::{self, LoadMode};
use cubelsi::core::{ConceptIndex, ConceptModel, CubeLsi, CubeLsiConfig};
use cubelsi::datagen::{generate, GeneratorConfig};
use cubelsi::linalg::spectral::{spectral_clustering, KSelection, SpectralConfig};
use cubelsi::linalg::Matrix;
use cubelsi::tensor::{tucker_als, SparseTensor3, TuckerConfig};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{large_allocations_of, peak_of, retained_by};

static TURN: Mutex<()> = Mutex::new(());

#[test]
fn tucker_peak_memory_scales_with_nnz_not_unfolding_width() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dims = (40usize, 30usize, 4_000usize);
    let mut state = 0x7ac4_e25eu64;
    let mut next = |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    let quads: Vec<_> = (0..5_000)
        .map(|_| (next(dims.0), next(dims.1), next(dims.2), 1.0))
        .collect();
    let f = SparseTensor3::from_entries(dims, &quads).unwrap();
    // J₁J₂ = J₃ = 8: HOOI's mode-3 product is I₃ × 8, a third of one of
    // the eigensolve's I₃ × 16 blocks, so the HOSVD is the peak.
    let config = TuckerConfig {
        core_dims: (2, 4, 8),
        max_iters: 3,
        ..Default::default()
    };
    let block = 8 + config.subspace.oversample;
    let cols = f.unfold_csr_compact(3).cols();

    let (d, peak) = peak_of(|| tucker_als(&f, &config).unwrap());
    assert_eq!(d.factors[2].shape(), (dims.2, 8));

    // Three I₃ × block blocks (1 536 000 B), one cols × block panel of
    // `Aᵀ X` (cols = 1 175: 150 400 B), and 64 B a non-zero for the
    // unfolding, its transpose and the rest: 2 006 272 B. This peaks at
    // 1 836 659 B; the five-block solve it replaced (Gram–Schmidt's own
    // panel-major copy and a fresh `n × k` for the closing rotation on
    // top) peaked at 2 345 076 B.
    let bound = (3 * dims.2 * block + cols * block.min(63)) * 8 + 64 * f.nnz();
    let wide = dims.0 * dims.2 * block * 8;
    assert!(bound * 8 < wide, "the bound must tell the two shapes apart");
    assert!(
        peak <= bound,
        "tucker_als peaked at {peak} B, over {bound} B = (3·I₃·block + \
         cols·block)·8 + 64·nnz (a full-width intermediate would be {wide} B)"
    );
}

#[test]
fn spectral_clustering_holds_one_t_by_t_buffer() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (tags, dims, k) = (600usize, 8usize, 6usize);
    let mut state = 0x5bd1_e995u64;
    let z = Matrix::from_fn(tags, dims, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    });
    let config = SpectralConfig {
        k: KSelection::Fixed(k),
        ..Default::default()
    };
    // The distances are made inside, as the build makes them: D̂, A and L
    // share their buffer, and σ's median is selected inside it.
    let (result, peak) = peak_of(|| {
        let distances = pairwise_distances_from_embedding(&z);
        spectral_clustering(distances.into_matrix(), &config).unwrap()
    });
    assert_eq!(result.assignments.len(), tags);
    // One T × T (2 880 000 B) and 16 doubles per tag and cluster
    // (460 800 B): 3 340 800 B. This peaks at 2 972 039 B; with the
    // distances borrowed and a second T × T for A → L it peaked at
    // 5 852 039 B.
    let t_by_t = tags * tags * 8;
    let bound = t_by_t + 16 * tags * k * 8;
    assert!(
        peak <= bound,
        "spectral clustering peaked at {peak} B, over {bound} B = T²·8 + 16·T·k·8"
    );
}

#[test]
fn concept_index_retains_its_posting_arrays_only() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let ds = generate(&GeneratorConfig {
        users: 80,
        resources: 3_000,
        concepts: 8,
        assignments: 30_000,
        seed: 7,
        ..Default::default()
    });
    let f = &ds.folksonomy;
    let concepts = 8;
    let model = ConceptModel::from_parts(
        (0..f.num_tags()).map(|t| t % concepts).collect(),
        concepts,
        1.0,
    );
    let (index, retained) = retained_by(|| ConceptIndex::build(f, &model));
    let (postings, blocks) = (
        index.num_postings(),
        (0..concepts)
            .map(|l| index.block_maxima(l).len())
            .sum::<usize>(),
    );
    // A `u32` id and an `f64` impact a posting, an `f64` maximum a block,
    // and an idf and two offsets a concept; the constant covers the two
    // offset arrays' closing entries, and every array is allocated at its
    // exact length. Here P = 8 109, B = 130, C = 8 (R = 3 000
    // resources): the bound is 98 604 B, and the build retains 98 556 B.
    // With the per-resource tf-idf vectors and norms and a per-list
    // maximum array beside the postings it retained 244 240 B: 12 B more
    // a vector entry (one a posting), 16 B more a resource, 8 B more a
    // concept, and 304 B of block-maxima capacity slack.
    let bound = 12 * postings + 8 * blocks + 24 * concepts + 64;
    assert!(
        retained <= bound,
        "a built index retains {retained} B, over {bound} B = 12·P + 8·B + 24·C + 64 \
         (P = {postings} postings, B = {blocks} blocks, C = {concepts} concepts)"
    );
}

/// Writes one small model as a manifest of each of the `shard_counts`
/// into `dir`, returning the manifests' paths in the same order.
fn save_manifests(dir: &Path, shard_counts: &[usize]) -> Vec<PathBuf> {
    let ds = generate(&GeneratorConfig {
        users: 80,
        resources: 400,
        concepts: 6,
        assignments: 12_000,
        seed: 5,
        ..Default::default()
    });
    let f = &ds.folksonomy;
    let config = CubeLsiConfig {
        core_dims: Some((6, 6, 6)),
        num_concepts: Some(6),
        max_als_iters: 3,
        ..Default::default()
    };
    let model = CubeLsi::build(f, &config).unwrap();
    std::fs::create_dir_all(dir).unwrap();
    shard_counts
        .iter()
        .map(|&shards| {
            let manifest = dir.join(format!("m{shards}.shards"));
            shard::save_sharded(&manifest, &model, f, shards).unwrap();
            manifest
        })
        .collect()
}

#[test]
fn sharded_load_peak_does_not_grow_with_shard_count() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("cubelsi-load-peak-{}", std::process::id()));
    let manifests = save_manifests(&dir, &[1, 8]);
    let peak_with = |manifest: &Path, shards: usize| {
        let (set, peak) = peak_of(|| shard::load_source(manifest, LoadMode::Owned).unwrap());
        assert_eq!(set.num_shards(), shards);
        peak
    };
    let (one, eight) = (peak_with(&manifests[0], 1), peak_with(&manifests[1], 8));
    std::fs::remove_dir_all(&dir).ok();
    // Eight shards hold the index once, cut eight ways, and one shard's
    // file and decoded copy at a time; all eight copies would be ≈ 8×.
    assert!(
        eight < 2 * one,
        "loading 8 shards peaked at {eight} B, one shard at {one} B"
    );
}

#[test]
fn manifest_load_reads_every_shard_through_two_buffers() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("cubelsi-load-buffers-{}", std::process::id()));
    let manifest = save_manifests(&dir, &[4]).remove(0);
    let smallest = shard::load_manifest(&manifest)
        .unwrap()
        .entries
        .iter()
        .map(|e| e.file_len as usize)
        .min()
        .unwrap();
    let (set, large) = large_allocations_of(smallest, || {
        shard::load_source(&manifest, LoadMode::Owned).unwrap()
    });
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(set.num_shards(), 4);
    // Shard 0's buffer and one reused for shards 1–3; a buffer per file
    // would be four.
    assert!(
        large <= 2,
        "loading 4 shards made {large} allocations of a shard file's size ({smallest} B) or more"
    );
}
