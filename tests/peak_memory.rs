//! Pins two memory shapes with the counting global allocator of
//! `tests/common/counting_alloc.rs`, each as the peak of live bytes above
//! the level at entry.
//!
//! **Tucker initialisation**: the most `tucker_als` holds at once scales
//! with the non-zeros, `O(nnz · block)`, and not with the width of a mode
//! unfolding. The HOSVD eigensolve of mode n applies `Aₙ(AₙᵀX)` through a
//! `cols × block` intermediate. Over the full Kolda–Bader unfolding that is
//! `∏ₘ≠ₙ Iₘ × block` doubles — 40·4 000·16·8 B = 20 MB for mode 2 of the
//! tensor below, 300 MB on the benchmark's corpus — whatever the data holds;
//! over the compacted unfolding it is at most `nnz × block`.
//!
//! **Sharded load**: every shard file carries the whole folksonomy and
//! model, and `load_source` keeps one copy, not one a shard — its peak is a
//! server's peak. It also reads the files into two buffers whatever the
//! shard count, so what the allocator is left holding does not depend on
//! it either.
//!
//! The counters are global to the process, so the tests take turns under
//! a lock.

use cubelsi::core::shard::{self, LoadMode};
use cubelsi::core::{CubeLsi, CubeLsiConfig};
use cubelsi::datagen::{generate, GeneratorConfig};
use cubelsi::tensor::{tucker_als, SparseTensor3, TuckerConfig};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{large_allocations_of, peak_of};

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
    let config = TuckerConfig {
        core_dims: (8, 8, 8),
        max_iters: 3,
        ..Default::default()
    };
    let block = 8 + config.subspace.oversample;

    let (d, peak) = peak_of(|| tucker_als(&f, &config).unwrap());
    assert_eq!(d.factors[2].shape(), (dims.2, 8));

    // The solver's own blocks are `I₃ × block` (I₃ ≤ nnz; the iterate, the
    // applied block, the rotation target and Gram–Schmidt's transposes) and
    // HOOI's product matrix is `I₃ × J₁J₂`: 3.4 MB at the peak. 8 · nnz ·
    // block doubles (5.1 MB) covers them and stays a factor of four under
    // what the full-width mode-2 intermediate alone would take.
    let bound = 8 * f.nnz() * block * 8;
    let wide = dims.0 * dims.2 * block * 8;
    assert!(bound * 2 < wide, "the bound must tell the two shapes apart");
    assert!(
        peak < bound,
        "tucker_als peaked at {peak} B, over {bound} B = 8·nnz·block·8 \
         (a full-width intermediate would be {wide} B)"
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
