//! The persistence contract of `cubelsi_core::persist`:
//!
//! 1. **Round-trip bit-identity** — over randomized small corpora, a
//!    saved-then-loaded engine's `search_ids` output (resources, scores,
//!    tie-breaks) is bit-for-bit identical to the freshly built engine's.
//!    This is what makes `build` + `query` a pure deployment split, never
//!    an approximation.
//! 2. **Adversarial robustness** — truncated files, flipped bytes (CRC
//!    failure), CRC-repaired semantic corruption inside the SoA index
//!    section (broken impact order, falsified block maxima), inside the
//!    compressed mirror (flipped bit widths, out-of-range quantization
//!    scales, understated impact bounds) and inside the model section
//!    (shapes that disagree with the corpus or with each other, non-finite
//!    values, unknown tags, trailing bytes), negative or non-finite term
//!    weights, misaligned sections, wrong magic, and any format version
//!    but the current one each yield a descriptive typed [`PersistError`],
//!    never a panic or a silent misranking.
//! 3. **The serving load reads what serving uses** — `shard::load_source`
//!    checksums and decodes meta, folksonomy, concepts and the index
//!    sections only: damage inside the model payload (or its absence)
//!    does not fail it, damage anywhere it reads does, an entry of the
//!    model's running past the file still does, and whatever it accepts
//!    answers bit-identically to the undamaged artifact.
//! 4. **The model is the distances** — a full load derives the purified
//!    distances from the model section bit-identically to the built
//!    engine's, at any thread count and under either Σ source, and
//!    re-saves to the bytes it read.
//! 5. **Degenerate corpora** — a single assignment, all-zero idf, more
//!    shards than resources, more concepts requested than tags: a typed
//!    error or an artifact that reloads and answers like the engine it
//!    was saved from.

use cubelsi::core::shard::{self, LoadMode};
use cubelsi::core::{persist, CubeLsi, CubeLsiConfig, PersistError, RankedResource, SigmaSource};
use cubelsi::datagen::{generate, GeneratorConfig};
use cubelsi::folksonomy::{Folksonomy, FolksonomyBuilder, TagId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_random(seed: u64) -> (Folksonomy, CubeLsi) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA57F_AC75);
    let ds = generate(&GeneratorConfig {
        users: rng.gen_range(15..40),
        resources: rng.gen_range(10..30),
        concepts: rng.gen_range(3..7),
        assignments: rng.gen_range(800..2_000),
        noise_rate: 0.05,
        seed,
        ..Default::default()
    });
    let config = CubeLsiConfig {
        core_dims: Some((6, 6, 6)),
        num_concepts: Some(rng.gen_range(3..7)),
        max_als_iters: 6,
        seed,
        ..Default::default()
    };
    let model = CubeLsi::build(&ds.folksonomy, &config).unwrap();
    (ds.folksonomy, model)
}

/// The purified distances of an engine, as bit patterns.
fn distance_bits(model: &CubeLsi) -> Vec<u64> {
    let d = model.distances().matrix();
    d.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn random_query(rng: &mut StdRng, num_tags: usize) -> Vec<TagId> {
    let len = rng.gen_range(1usize..=4);
    (0..len)
        .map(|_| TagId::from_index(rng.gen_range(0..num_tags)))
        .collect()
}

/// Proptest-style sweep: many seeds, many queries, several k values; the
/// loaded engine must be indistinguishable from the built one down to
/// the last score bit.
#[test]
fn round_trip_search_is_bit_identical_on_random_corpora() {
    for seed in 0..8u64 {
        let (folksonomy, built) = build_random(seed);
        let bytes = persist::save_to_vec(&built, &folksonomy);
        let loaded = persist::load_from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("seed {seed}: load failed: {e}"));

        assert_eq!(loaded.folksonomy.stats(), folksonomy.stats());
        assert_eq!(
            loaded.model.trace(),
            built.trace(),
            "seed {seed}: build trace"
        );
        assert!(!built.trace().hosvd.is_empty());
        assert_eq!(built.trace().sweeps, built.tag_model().sweeps());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0D0_F00D);
        for case in 0..25 {
            let query = random_query(&mut rng, folksonomy.num_tags());
            for k in [1usize, 5, 0] {
                let expect = built.search_ids(&query, k);
                let got = loaded.model.search_ids(&query, k);
                assert_eq!(
                    got.len(),
                    expect.len(),
                    "seed {seed} case {case} k {k}: result count"
                );
                for (rank, (g, e)) in got.iter().zip(expect.iter()).enumerate() {
                    assert_eq!(
                        g.resource, e.resource,
                        "seed {seed} case {case} k {k} rank {rank}: resource"
                    );
                    assert_eq!(
                        g.score.to_bits(),
                        e.score.to_bits(),
                        "seed {seed} case {case} k {k} rank {rank}: score bits"
                    );
                }
            }
        }
    }
}

/// Saving is deterministic: the same engine always serializes to the same
/// bytes (there is no timestamp, map ordering, or other hidden state in
/// the format).
#[test]
fn save_is_deterministic() {
    let (folksonomy, model) = build_random(99);
    let a = persist::save_to_vec(&model, &folksonomy);
    let b = persist::save_to_vec(&model, &folksonomy);
    assert_eq!(a, b);
}

/// A second-generation artifact (save → load → save) is byte-identical to
/// the first: nothing is lost or reordered by a round trip.
#[test]
fn double_round_trip_is_byte_stable() {
    let (folksonomy, model) = build_random(7);
    let first = persist::save_to_vec(&model, &folksonomy);
    let loaded = persist::load_from_bytes(&first).unwrap();
    let second = persist::save_to_vec(&loaded.model, &loaded.folksonomy);
    assert_eq!(first, second);
}

#[test]
fn truncated_files_error_at_every_length() {
    let (folksonomy, model) = build_random(3);
    let bytes = persist::save_to_vec(&model, &folksonomy);
    // Sample prefix lengths densely near the header/table and sparsely
    // through the payload (testing all ~100k prefixes would be slow).
    let mut cuts: Vec<usize> = (0..256.min(bytes.len())).collect();
    cuts.extend((256..bytes.len()).step_by(997));
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        let err = persist::load_from_bytes(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("prefix of {cut} bytes must not load"));
        assert!(
            matches!(
                err,
                PersistError::Truncated { .. }
                    | PersistError::BadMagic
                    | PersistError::ChecksumMismatch { .. }
                    | PersistError::Malformed { .. }
            ),
            "prefix {cut}: unexpected error {err}"
        );
        assert!(!err.to_string().is_empty());
    }
}

// ---------------------------------------------------------------------------
// SoA index section adversaries
// ---------------------------------------------------------------------------

/// Locates a section's table entry; returns
/// `(entry offset, payload offset, payload length)`.
fn find_section(bytes: &[u8], id: u32) -> (usize, usize, usize) {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    for i in 0..count {
        let e = persist::HEADER_LEN + i * persist::TABLE_ENTRY_LEN;
        if u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == id {
            let off = u64::from_le_bytes(bytes[e + 4..e + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[e + 12..e + 20].try_into().unwrap()) as usize;
            return (e, off, len);
        }
    }
    panic!("section {id} not found");
}

/// Re-records a section's CRC after deliberate payload surgery, so the
/// corruption reaches the semantic validators instead of the checksum.
fn refresh_crc(bytes: &mut [u8], entry: usize, off: usize, len: usize) {
    let crc = persist::crc32(&bytes[off..off + len]);
    bytes[entry + 20..entry + 24].copy_from_slice(&crc.to_le_bytes());
}

/// The byte offsets (relative to the SoA payload start) of every array
/// boundary, recomputed from the documented layout: 6-field u64
/// header, then idf, norms, rv_offsets, rv_concepts (padded), rv_weights,
/// post_offsets, post_ids (padded), post_scores, block_offsets,
/// block_max, max_impact.
struct SoaOffsets {
    boundaries: Vec<usize>,
    post_scores: usize,
    block_max: usize,
    n_blocks: usize,
}

fn soa_offsets(payload: &[u8]) -> SoaOffsets {
    let field =
        |i: usize| u64::from_le_bytes(payload[i * 8..(i + 1) * 8].try_into().unwrap()) as usize;
    let (r, c, rv_nnz, n_post, n_blocks) = (field(0), field(1), field(3), field(4), field(5));
    assert_eq!(field(2), cubelsi::core::BLOCK_LEN, "block length field");
    // (array byte length, pad-to-8 afterwards) in on-disk order.
    let arrays: [(usize, bool); 11] = [
        (c * 8, false),        // idf
        (r * 8, false),        // resource_norms
        ((r + 1) * 8, false),  // rv_offsets
        (rv_nnz * 4, true),    // rv_concepts
        (rv_nnz * 8, false),   // rv_weights
        ((c + 1) * 8, false),  // post_offsets
        (n_post * 4, true),    // post_ids
        (n_post * 8, false),   // post_scores
        ((c + 1) * 8, false),  // block_offsets
        (n_blocks * 8, false), // block_max
        (c * 8, false),        // max_impact
    ];
    let mut cursor = 48usize;
    let mut boundaries = vec![cursor];
    for (bytes, pad) in arrays {
        cursor += bytes;
        if pad {
            cursor = cursor.div_ceil(8) * 8;
        }
        boundaries.push(cursor);
    }
    assert_eq!(cursor, payload.len(), "layout must cover the payload");
    SoaOffsets {
        // boundaries[i] = start of array i (0-based); boundaries[7] is
        // post_scores, boundaries[9] is block_max.
        post_scores: boundaries[7],
        block_max: boundaries[9],
        boundaries,
        n_blocks,
    }
}

fn assert_load_rejects(bytes: &[u8], what: &str) -> PersistError {
    persist::load_from_bytes(bytes)
        .err()
        .unwrap_or_else(|| panic!("{what}: load must fail"))
}

/// Truncating the file at (and just past) every SoA array boundary must
/// produce a typed error — never a panic.
#[test]
fn truncation_at_every_soa_array_boundary_errors() {
    let (folksonomy, model) = build_random(31);
    let bytes = persist::save_to_vec(&model, &folksonomy);
    let (_, off, len) = find_section(&bytes, persist::SECTION_INDEX_SOA);
    let offsets = soa_offsets(&bytes[off..off + len]);
    for &b in &offsets.boundaries {
        // A cut at or past the end of the recorded payload is not a
        // truncation (trailing file padding is not covered by the length),
        // so only strictly-inside cuts are adversarial.
        for cut in [off + b, off + b + 4] {
            if cut >= off + len {
                continue;
            }
            let err = assert_load_rejects(&bytes[..cut], &format!("cut at {cut}"));
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. } | PersistError::ChecksumMismatch { .. }
                ),
                "cut {cut}: unexpected error {err}"
            );
        }
    }
}

/// A flipped byte inside the block-max array is caught by the CRC; the
/// same flip with a freshly recorded CRC is caught by the semantic
/// validator (block max must equal its block's head impact). Either way:
/// a typed error, never a silent misranking.
#[test]
fn flipped_block_max_bytes_are_detected() {
    let (folksonomy, model) = build_random(32);
    let bytes = persist::save_to_vec(&model, &folksonomy);
    let (entry, off, len) = find_section(&bytes, persist::SECTION_INDEX_SOA);
    let offsets = soa_offsets(&bytes[off..off + len]);
    assert!(offsets.n_blocks > 0, "corpus must produce posting blocks");

    for block in 0..offsets.n_blocks {
        let pos = off + offsets.block_max + block * 8 + 3;
        // CRC catches the raw flip.
        let mut bad = bytes.clone();
        bad[pos] ^= 0x5A;
        match assert_load_rejects(&bad, &format!("block {block} flip")) {
            PersistError::ChecksumMismatch { section, .. } => {
                assert_eq!(section, persist::SECTION_INDEX_SOA);
            }
            other => panic!("block {block}: expected ChecksumMismatch, got {other}"),
        }
        // The semantic validator catches the CRC-repaired flip.
        refresh_crc(&mut bad, entry, off, len);
        match assert_load_rejects(&bad, &format!("block {block} flip + CRC fix")) {
            PersistError::Malformed { section, detail } => {
                assert_eq!(section, persist::SECTION_INDEX_SOA);
                assert!(!detail.is_empty());
            }
            other => panic!("block {block}: expected Malformed, got {other}"),
        }
    }
}

/// CRC-repaired corruption of the impact order itself (a zeroed head
/// score) must be rejected by the order/consistency validation — this is
/// the "never misrank" guarantee for hostile-but-checksummed files.
#[test]
fn broken_impact_order_is_rejected_after_crc_repair() {
    let (folksonomy, model) = build_random(33);
    let mut bytes = persist::save_to_vec(&model, &folksonomy);
    let (entry, off, len) = find_section(&bytes, persist::SECTION_INDEX_SOA);
    let offsets = soa_offsets(&bytes[off..off + len]);
    // Zero the first posting score: its list is no longer descending (or,
    // for a single-posting list, disagrees with block max / max impact).
    let pos = off + offsets.post_scores;
    bytes[pos..pos + 8].copy_from_slice(&0.0f64.to_le_bytes());
    refresh_crc(&mut bytes, entry, off, len);
    match assert_load_rejects(&bytes, "zeroed head score") {
        PersistError::Malformed { section, .. } => {
            assert_eq!(section, persist::SECTION_INDEX_SOA);
        }
        other => panic!("expected Malformed, got {other}"),
    }
}

/// CRC-repaired corruption of the `idf` array (the first array of the SoA
/// payload, right after the 48-byte header): negated, NaN or infinite
/// term weights break the non-negative-weight premise of the pruned
/// engine's bounds — negated, the pruned path returns negative-score hits
/// the exhaustive path drops; non-finite, both emit NaN scores — so the
/// validator must refuse them.
#[test]
fn hostile_idf_is_rejected_after_crc_repair() {
    let (folksonomy, model) = build_random(39);
    let bytes = persist::save_to_vec(&model, &folksonomy);
    let (entry, off, len) = find_section(&bytes, persist::SECTION_INDEX_SOA);
    let idf = off + 48;
    let num_concepts = model.index().num_concepts();
    assert!((0..num_concepts).any(|l| model.index().idf(l) > 0.0));

    let mut negated = bytes.clone();
    for l in 0..num_concepts {
        negated[idf + l * 8 + 7] ^= 0x80;
    }
    let mut patched = vec![("negated idf", negated)];
    for (what, value) in [("NaN idf", f64::NAN), ("infinite idf", f64::INFINITY)] {
        let mut bad = bytes.clone();
        bad[idf..idf + 8].copy_from_slice(&value.to_le_bytes());
        patched.push((what, bad));
    }
    for (what, mut bad) in patched {
        refresh_crc(&mut bad, entry, off, len);
        match assert_load_rejects(&bad, what) {
            PersistError::Malformed { section, detail } => {
                assert_eq!(section, persist::SECTION_INDEX_SOA, "{what}");
                assert!(detail.contains("idf"), "{what}: {detail}");
            }
            other => panic!("{what}: expected Malformed, got {other}"),
        }
    }
}

/// A section table pointing the SoA payload at a non-8-aligned offset is
/// a typed [`PersistError::MisalignedSection`]: the format promises
/// arrays viewable in place, and the loader holds writers to it.
#[test]
fn misaligned_soa_section_is_a_typed_error() {
    let (folksonomy, model) = build_random(34);
    let mut bytes = persist::save_to_vec(&model, &folksonomy);
    let (entry, off, len) = find_section(&bytes, persist::SECTION_INDEX_SOA);
    // Shift the recorded payload offset back by 4: same length, CRC
    // re-recorded over the shifted window, so the only defect left is the
    // alignment.
    let new_off = off - 4;
    bytes[entry + 4..entry + 12].copy_from_slice(&(new_off as u64).to_le_bytes());
    refresh_crc(&mut bytes, entry, new_off, len);
    match assert_load_rejects(&bytes, "shifted section offset") {
        PersistError::MisalignedSection { section, offset } => {
            assert_eq!(section, persist::SECTION_INDEX_SOA);
            assert_eq!(offset as usize, new_off);
        }
        other => panic!("expected MisalignedSection, got {other}"),
    }
}

// ---------------------------------------------------------------------------
// Compressed index section adversaries
// ---------------------------------------------------------------------------

/// The byte offsets (relative to the compressed payload start) of every
/// array boundary, recomputed from the documented layout: 4-field u64
/// header, then blk_pack_start, blk_base, blk_scale, blk_offset,
/// blk_bits, quant, packed_ids — every array padded to 8 bytes.
struct CompressedOffsets {
    boundaries: Vec<usize>,
    blk_scale: usize,
    blk_bits: usize,
    quant: usize,
    n_blocks: usize,
    n_postings: usize,
}

fn compressed_offsets(payload: &[u8]) -> CompressedOffsets {
    let field =
        |i: usize| u64::from_le_bytes(payload[i * 8..(i + 1) * 8].try_into().unwrap()) as usize;
    let (n_blocks, n_postings, packed_len) = (field(0), field(1), field(2));
    assert_eq!(field(3), cubelsi::core::BLOCK_LEN, "block length field");
    let arrays: [usize; 7] = [
        (n_blocks + 1) * 8, // blk_pack_start
        n_blocks * 4,       // blk_base
        n_blocks * 4,       // blk_scale
        n_blocks * 4,       // blk_offset
        n_blocks,           // blk_bits
        n_postings,         // quant
        packed_len,         // packed_ids
    ];
    let mut cursor = 32usize;
    let mut boundaries = vec![cursor];
    for bytes in arrays {
        cursor = (cursor + bytes).div_ceil(8) * 8;
        boundaries.push(cursor);
    }
    assert_eq!(cursor, payload.len(), "layout must cover the payload");
    CompressedOffsets {
        blk_scale: boundaries[2],
        blk_bits: boundaries[4],
        quant: boundaries[5],
        boundaries,
        n_blocks,
        n_postings,
    }
}

/// Compressed artifacts round-trip deterministically and
/// byte-stably, and the loaded engine answers bit-identically to the
/// built one over random corpora.
#[test]
fn compressed_round_trip_is_bit_identical_and_byte_stable() {
    for seed in [13u64, 14, 15] {
        let (folksonomy, built) = build_random(seed);
        let bytes = persist::save_to_vec_with(&built, &folksonomy, true);
        assert_eq!(
            bytes,
            persist::save_to_vec_with(&built, &folksonomy, true),
            "seed {seed}: compressed save must be deterministic"
        );
        let loaded = persist::load_from_bytes(&bytes).unwrap();
        assert_eq!(
            bytes,
            persist::save_to_vec_with(&loaded.model, &loaded.folksonomy, true),
            "seed {seed}: compressed double round-trip must be byte-stable"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_FFEE);
        for _ in 0..15 {
            let query = random_query(&mut rng, folksonomy.num_tags());
            for k in [1usize, 5, 0] {
                let expect = built.search_ids(&query, k);
                let got = loaded.model.search_ids(&query, k);
                assert_eq!(got.len(), expect.len(), "seed {seed} k {k}");
                for (g, e) in got.iter().zip(expect.iter()) {
                    assert_eq!(g.resource, e.resource, "seed {seed} k {k}");
                    assert_eq!(g.score.to_bits(), e.score.to_bits(), "seed {seed} k {k}");
                }
            }
        }
    }
}

/// Truncating the file at (and just past) every compressed-array boundary
/// must produce a typed error — never a panic or an OOM-sized
/// allocation.
#[test]
fn truncation_at_every_compressed_array_boundary_errors() {
    let (folksonomy, model) = build_random(35);
    let bytes = persist::save_to_vec_with(&model, &folksonomy, true);
    let (_, off, len) = find_section(&bytes, persist::SECTION_INDEX_COMPRESSED);
    let offsets = compressed_offsets(&bytes[off..off + len]);
    for &b in &offsets.boundaries {
        for cut in [off + b, off + b + 4] {
            if cut >= off + len {
                continue;
            }
            let err = assert_load_rejects(&bytes[..cut], &format!("cut at {cut}"));
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. } | PersistError::ChecksumMismatch { .. }
                ),
                "cut {cut}: unexpected error {err}"
            );
        }
    }
}

/// A flipped bit-width byte is caught by the CRC; the same flip with a
/// freshly recorded CRC is caught by the mirror validator (the packed-run
/// chain no longer matches, or the width exceeds 32) — it can never make
/// the compressed strategy decode different ids than the exact arrays.
#[test]
fn flipped_bit_width_byte_is_rejected() {
    let (folksonomy, model) = build_random(36);
    let bytes = persist::save_to_vec_with(&model, &folksonomy, true);
    let (entry, off, len) = find_section(&bytes, persist::SECTION_INDEX_COMPRESSED);
    let offsets = compressed_offsets(&bytes[off..off + len]);
    assert!(offsets.n_blocks > 0, "corpus must produce posting blocks");

    let pos = off + offsets.blk_bits;
    let orig = bytes[pos];
    for (what, patch) in [
        // A width over 32 bits can never be honest.
        ("width 33 > 32", 33u8),
        // Shifting the width by 8 moves this block's packed-run length by
        // exactly its posting count, so the recorded run chain must break.
        (
            "width shifted by 8",
            if orig < 25 { orig + 8 } else { orig - 8 },
        ),
    ] {
        let mut bad = bytes.clone();
        bad[pos] = patch;
        match assert_load_rejects(&bad, what) {
            PersistError::ChecksumMismatch { section, .. } => {
                assert_eq!(section, persist::SECTION_INDEX_COMPRESSED, "{what}");
            }
            other => panic!("{what}: expected ChecksumMismatch, got {other}"),
        }
        refresh_crc(&mut bad, entry, off, len);
        match assert_load_rejects(&bad, &format!("{what} + CRC fix")) {
            PersistError::Malformed { section, detail } => {
                assert_eq!(section, persist::SECTION_INDEX_COMPRESSED, "{what}");
                assert!(!detail.is_empty());
            }
            other => panic!("{what}: expected Malformed, got {other}"),
        }
    }
}

/// CRC-repaired corruption of the quantization constants and the
/// per-posting quantized impacts: a non-finite or negative scale, and a
/// quantized value whose dequantized bound understates the exact impact,
/// are each rejected — the "quantize to reject" side can therefore never
/// skip a posting the exact engine would keep.
#[test]
fn out_of_range_quantization_is_rejected_after_crc_repair() {
    // The first random build with a posting that quantizes above 0 (the
    // understated-impact case below needs one); which seed that is depends
    // on how the build clusters, so it is searched for, not pinned.
    let (bytes, entry, off, len, offsets) = (37..)
        .map(|seed| {
            let (folksonomy, model) = build_random(seed);
            let bytes = persist::save_to_vec_with(&model, &folksonomy, true);
            let (entry, off, len) = find_section(&bytes, persist::SECTION_INDEX_COMPRESSED);
            let offsets = compressed_offsets(&bytes[off..off + len]);
            (bytes, entry, off, len, offsets)
        })
        .take(50)
        .find(|(bytes, _, off, _, offsets)| {
            let quant = off + offsets.quant;
            bytes[quant..quant + offsets.n_postings]
                .iter()
                .any(|&q| q > 0)
        })
        .expect("some build in 50 has a posting that quantizes above 0");
    assert!(offsets.n_blocks > 0 && offsets.n_postings > 0);

    for (what, pos, patch) in [
        ("NaN scale", off + offsets.blk_scale, f32::NAN.to_le_bytes()),
        (
            "negative scale",
            off + offsets.blk_scale,
            (-1.0f32).to_le_bytes(),
        ),
    ] {
        let mut bad = bytes.clone();
        bad[pos..pos + 4].copy_from_slice(&patch);
        refresh_crc(&mut bad, entry, off, len);
        match assert_load_rejects(&bad, what) {
            PersistError::Malformed { section, detail } => {
                assert_eq!(section, persist::SECTION_INDEX_COMPRESSED, "{what}");
                assert!(!detail.is_empty());
            }
            other => panic!("{what}: expected Malformed, got {other}"),
        }
    }

    // Understate one quantized impact (quant values are upper bounds, so
    // lowering a nonzero one below its exact impact must be caught).
    let quant_start = off + offsets.quant;
    let pos = (0..offsets.n_postings)
        .map(|j| quant_start + j)
        .find(|&p| bytes[p] > 0)
        .expect("some posting quantizes above 0");
    let mut bad = bytes.clone();
    bad[pos] = 0;
    refresh_crc(&mut bad, entry, off, len);
    match assert_load_rejects(&bad, "understated quantized impact") {
        PersistError::Malformed { section, detail } => {
            assert_eq!(section, persist::SECTION_INDEX_COMPRESSED);
            assert!(detail.contains("bound"), "detail: {detail}");
        }
        other => panic!("expected Malformed, got {other}"),
    }
}

/// The every-flipped-byte sweep over a compressed artifact: same contract
/// as the uncompressed sweep — typed error or consistent load, no panic.
#[test]
fn every_flipped_byte_is_detected_in_compressed_artifacts() {
    let (folksonomy, model) = build_random(38);
    let bytes = persist::save_to_vec_with(&model, &folksonomy, true);
    for pos in (0..bytes.len()).step_by(131) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        match persist::load_from_bytes(&bad) {
            Err(e) => assert!(!e.to_string().is_empty(), "pos {pos}: empty error message"),
            Ok(loaded) => {
                assert_eq!(loaded.folksonomy.stats(), folksonomy.stats(), "pos {pos}");
            }
        }
    }
}

#[test]
fn every_flipped_byte_is_detected() {
    let (folksonomy, model) = build_random(4);
    let bytes = persist::save_to_vec(&model, &folksonomy);
    // Flip one byte at a sample of positions covering header, table and
    // every section payload; the loader must error (CRC catches payload
    // damage, structural checks catch header/table damage) — or, for the
    // handful of table bytes that only describe layout slack, load data
    // that still decodes consistently. It must never panic.
    for pos in (0..bytes.len()).step_by(131) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        match persist::load_from_bytes(&bad) {
            Err(e) => assert!(!e.to_string().is_empty(), "pos {pos}: empty error message"),
            Ok(loaded) => {
                // Extremely rare (e.g. flipping an unused high bit that
                // still passes CRC is impossible; this arm only fires if a
                // flip leaves the file semantically valid). Sanity-check
                // the result rather than fail blindly.
                assert_eq!(loaded.folksonomy.stats(), folksonomy.stats(), "pos {pos}");
            }
        }
    }
}

/// The *exhaustive* hostile-byte sweep: over a deliberately tiny corpus
/// (so the O(len²) total work stays fast), flip one byte at **every**
/// offset of a plain and a compressed artifact, under both Σ sources, and
/// feed the mutant to the loader under `catch_unwind`. Each mutant must
/// either return a typed error with a non-empty message, or — possible
/// only where the flip lands in bytes the format does not interpret, such
/// as inter-section padding not covered by a section CRC — load an engine
/// whose `search_ids` output and purified distances are bit-for-bit
/// identical to the pristine build's. A flip inside the model payload is
/// always that section's checksum mismatch. A panic at any offset fails
/// the sweep with the offset named.
#[test]
fn exhaustive_single_byte_flips_never_panic_either_loader() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let ds = generate(&GeneratorConfig {
        users: 8,
        resources: 10,
        concepts: 3,
        assignments: 120,
        seed: 41,
        ..Default::default()
    });
    let folksonomy = &ds.folksonomy;
    let queries: Vec<Vec<TagId>> = (0..4usize)
        .map(|t| vec![TagId::from_index(t % folksonomy.num_tags())])
        .collect();
    for (format, compress, sigma_source) in [
        ("plain", false, SigmaSource::Lambda2),
        ("compressed", true, SigmaSource::Lambda2),
        ("plain CoreGram", false, SigmaSource::CoreGram),
    ] {
        let config = CubeLsiConfig {
            core_dims: Some((3, 3, 3)),
            num_concepts: Some(3),
            max_als_iters: 3,
            seed: 41,
            sigma_source,
            ..Default::default()
        };
        let model = CubeLsi::build(folksonomy, &config).unwrap();
        let expect: Vec<_> = queries.iter().map(|q| model.search_ids(q, 5)).collect();
        let bytes = persist::save_to_vec_with(&model, folksonomy, compress);
        let (_, off, len) = find_section(&bytes, persist::SECTION_MODEL);
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            // Rotate the flipped bit with the offset so the sweep probes
            // every bit lane, not just one mask.
            bad[pos] ^= 1u8 << (pos % 8);
            let outcome = catch_unwind(AssertUnwindSafe(|| persist::load_from_bytes(&bad)))
                .unwrap_or_else(|_| panic!("{format}: loader panicked at offset {pos}"));
            if (off..off + len).contains(&pos) {
                assert!(
                    matches!(
                        outcome,
                        Err(PersistError::ChecksumMismatch {
                            section: persist::SECTION_MODEL,
                            ..
                        })
                    ),
                    "{format} offset {pos}: a flip in the model payload must fail its CRC"
                );
            }
            match outcome {
                Err(e) => assert!(
                    !e.to_string().is_empty(),
                    "{format} offset {pos}: empty error message"
                ),
                Ok(loaded) => {
                    assert_eq!(
                        distance_bits(&loaded.model),
                        distance_bits(&model),
                        "{format} offset {pos}: distances diverged"
                    );
                    for (query, expect) in queries.iter().zip(&expect) {
                        let got = loaded.model.search_ids(query, 5);
                        assert_eq!(
                            got.len(),
                            expect.len(),
                            "{format} offset {pos}: result count diverged"
                        );
                        for (g, e) in got.iter().zip(expect.iter()) {
                            assert_eq!(
                                (g.resource, g.score.to_bits()),
                                (e.resource, e.score.to_bits()),
                                "{format} offset {pos}: ranking diverged"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn payload_corruption_reports_checksum_mismatch() {
    let (folksonomy, model) = build_random(5);
    let bytes = persist::save_to_vec(&model, &folksonomy);
    // Corrupt the very last byte: always inside the final section payload.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xFF;
    match persist::load_from_bytes(&bad) {
        Err(PersistError::ChecksumMismatch { expected, got, .. }) => {
            assert_ne!(expected, got);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let (folksonomy, model) = build_random(6);
    let mut bytes = persist::save_to_vec(&model, &folksonomy);
    bytes[0] = b'X';
    assert!(matches!(
        persist::load_from_bytes(&bytes),
        Err(PersistError::BadMagic)
    ));
    // An unrelated small file is also BadMagic, not a panic.
    assert!(matches!(
        persist::load_from_bytes(b"not an artifact at all"),
        Err(PersistError::BadMagic)
    ));
}

/// Only version 4 is read. A future stamp, a zeroed one, and every
/// earlier one — v1's per-posting pairs, v2 and v3's Tucker and distances
/// sections — must be refused at the header, before any section is looked
/// at, with the found and the supported version named.
#[test]
fn future_version_is_rejected_with_both_versions_named() {
    let (folksonomy, model) = build_random(8);
    let mut bytes = persist::save_to_vec(&model, &folksonomy);
    assert_eq!(persist::FORMAT_VERSION, 4);
    for stamp in [5u32, 0, 1, 2, 3] {
        // The version field is bytes 8..12 (after the 8-byte magic).
        bytes[8..12].copy_from_slice(&stamp.to_le_bytes());
        match assert_load_rejects(&bytes, &format!("version {stamp}")) {
            PersistError::UnsupportedVersion { found, supported } => {
                assert_eq!(found, stamp);
                assert_eq!(supported, persist::FORMAT_VERSION);
            }
            other => panic!("version {stamp}: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn file_round_trip_through_disk() {
    let (folksonomy, model) = build_random(11);
    let path = std::env::temp_dir().join(format!(
        "cubelsi-roundtrip-{}-{:x}.cubelsi",
        std::process::id(),
        11u32
    ));
    persist::save_to_path(&path, &model, &folksonomy).unwrap();
    let loaded = persist::load_from_path(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let tag = TagId::from_index(0);
    let a = model.search_ids(&[tag], 10);
    let b = loaded.model.search_ids(&[tag], 10);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.resource, y.resource);
        assert_eq!(x.score.to_bits(), y.score.to_bits());
    }
}

// ---------------------------------------------------------------------------
// The model section
// ---------------------------------------------------------------------------

/// `build_random(seed)`'s corpus and configuration under a chosen Σ source.
fn build_with(seed: u64, sigma_source: SigmaSource) -> (Folksonomy, CubeLsi) {
    let (folksonomy, _) = build_random(seed);
    let config = CubeLsiConfig {
        core_dims: Some((6, 6, 6)),
        num_concepts: Some(4),
        max_als_iters: 6,
        seed,
        sigma_source,
        ..Default::default()
    };
    let model = CubeLsi::build(&folksonomy, &config).unwrap();
    (folksonomy, model)
}

/// D̂ is not stored: a full load derives it from the model section. At one
/// thread and at two (the serial and the banded kernel), under either Σ
/// source, it equals the matrix the build clustered, bit for bit.
#[test]
fn full_load_distances_equal_the_built_engines_bit_for_bit() {
    use cubelsi::linalg::parallel;
    for sigma_source in [SigmaSource::Lambda2, SigmaSource::CoreGram] {
        let (folksonomy, built) = build_with(51, sigma_source);
        assert_eq!(built.tag_model().sigma_source(), sigma_source);
        let bytes = persist::save_to_vec(&built, &folksonomy);
        let expect = distance_bits(&built);
        for threads in [1, 2] {
            let loaded = persist::load_from_bytes(&bytes).unwrap();
            parallel::set_num_threads(threads);
            let got = distance_bits(&loaded.model);
            parallel::set_num_threads(0);
            assert_eq!(got, expect, "{sigma_source:?} at {threads} thread(s)");
        }
    }
}

/// A full load is the engine that was saved: re-saved — through the path
/// API, before and after its distances are derived, plain and compressed,
/// under either Σ source — it writes the file it was read from.
#[test]
fn full_load_resaves_to_the_same_bytes() {
    let dir = std::env::temp_dir().join(format!("cubelsi-resave-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for sigma_source in [SigmaSource::Lambda2, SigmaSource::CoreGram] {
        let (folksonomy, built) = build_with(52, sigma_source);
        for compress in [false, true] {
            let (original, resaved) = (dir.join("original"), dir.join("resaved"));
            persist::save_to_path_with(&original, &built, &folksonomy, compress).unwrap();
            let bytes = std::fs::read(&original).unwrap();
            let loaded = persist::load_from_path(&original).unwrap();
            for when in ["before distances", "after distances"] {
                persist::save_to_path_with(&resaved, &loaded.model, &loaded.folksonomy, compress)
                    .unwrap();
                assert_eq!(
                    std::fs::read(&resaved).unwrap(),
                    bytes,
                    "{sigma_source:?} compress {compress}, {when}"
                );
                loaded.model.distances();
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Rebuilds an artifact with section `id`'s payload replaced: offsets
/// re-laid on 8-byte boundaries, every CRC recorded afresh — so only the
/// new payload's content can make the load fail.
fn with_section(bytes: &[u8], id: u32, payload: &[u8]) -> Vec<u8> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let sections: Vec<(u32, Vec<u8>)> = (0..count)
        .map(|i| {
            let e = persist::HEADER_LEN + i * persist::TABLE_ENTRY_LEN;
            let sid = u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap());
            let (_, off, len) = find_section(bytes, sid);
            let body = if sid == id {
                payload
            } else {
                &bytes[off..off + len]
            };
            (sid, body.to_vec())
        })
        .collect();
    let mut out = bytes[..persist::HEADER_LEN].to_vec();
    let mut offset = persist::HEADER_LEN + count * persist::TABLE_ENTRY_LEN;
    for (sid, body) in &sections {
        out.extend_from_slice(&sid.to_le_bytes());
        out.extend_from_slice(&(offset as u64).to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&persist::crc32(body).to_le_bytes());
        offset += body.len().div_ceil(8) * 8;
    }
    for (_, body) in &sections {
        out.extend_from_slice(body);
        out.resize(out.len().div_ceil(8) * 8, 0);
    }
    out
}

/// Every way a CRC-valid model section can disagree with the corpus or
/// with itself is `Malformed` on the full load — never a panic, and never
/// an allocation sized by the hostile field (several fields below are set
/// to 2⁴⁰ and up, which an unchecked decoder would try to allocate). The
/// serving load, which does not read the section, still answers.
#[test]
fn hostile_model_sections_are_malformed() {
    // Model payload fields: source tag @0, fit @8, sweeps @16, Y2 rows @24,
    // Y2 cols (J2) @32, Y2 data @40, then Λ₂'s length, Λ₂, Σ's shape, Σ.
    let field = |p: &[u8], at: usize| u64::from_le_bytes(p[at..at + 8].try_into().unwrap());
    let put = |p: &mut Vec<u8>, at: usize, v: u64| p[at..at + 8].copy_from_slice(&v.to_le_bytes());
    let file = ServedFile::new("hostile-model");
    for sigma_source in [SigmaSource::Lambda2, SigmaSource::CoreGram] {
        let (folksonomy, built) = build_with(53, sigma_source);
        let bytes = persist::save_to_vec(&built, &folksonomy);
        let served = answers(&file.load(&bytes).unwrap(), &[vec![TagId::from_index(0)]]);
        let (_, off, len) = find_section(&bytes, persist::SECTION_MODEL);
        let model = bytes[off..off + len].to_vec();
        let (tags, j2) = (field(&model, 24) as usize, field(&model, 32) as usize);
        assert_eq!(tags, folksonomy.num_tags());
        let lambda_at = 40 + 8 * tags * j2;
        let sigma_at = lambda_at + 8 + 8 * j2;
        assert_eq!(field(&model, lambda_at) as usize, j2);
        let core_gram = sigma_source == SigmaSource::CoreGram;
        assert_eq!(
            (field(&model, sigma_at), field(&model, sigma_at + 8)),
            if core_gram {
                (j2 as u64, j2 as u64)
            } else {
                (0, 0)
            }
        );

        let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
        let mut patched = |what: &str, f: &dyn Fn(&mut Vec<u8>)| {
            let mut p = model.clone();
            f(&mut p);
            cases.push((what.to_owned(), p));
        };
        patched("Y2 rows = tags + 1", &|p| put(p, 24, tags as u64 + 1));
        patched("Y2 rows = tags - 1", &|p| put(p, 24, tags as u64 - 1));
        patched("Y2 rows = 2^40", &|p| put(p, 24, 1 << 40));
        patched("J2 = 0", &|p| put(p, 32, 0));
        patched("J2 = tags + 1", &|p| put(p, 32, tags as u64 + 1));
        patched("J2 = 2^50", &|p| put(p, 32, 1 << 50));
        patched("Λ₂ length J2 - 1", &|p| put(p, lambda_at, j2 as u64 - 1));
        patched("Λ₂ length J2 + 1", &|p| put(p, lambda_at, j2 as u64 + 1));
        patched("Λ₂ length 2^61", &|p| put(p, lambda_at, 1 << 61));
        patched("unknown sigma source 0", &|p| put(p, 0, 0));
        patched("unknown sigma source 7", &|p| put(p, 0, 7));
        patched("the other sigma source", &|p| {
            put(p, 0, if core_gram { 1 } else { 2 })
        });
        patched("sweeps disagree with meta", &|p| {
            put(p, 16, field(p, 16) + 1)
        });
        patched("Σ rows 2^40", &|p| put(p, sigma_at, 1 << 40));
        patched("Σ J2 x (J2 + 1)", &|p| put(p, sigma_at + 8, j2 as u64 + 1));
        for (what, at) in [
            ("fit", 8),
            ("Y2[0][0]", 40),
            ("last Y2", lambda_at - 8),
            ("Λ₂[0]", lambda_at + 8),
        ] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                patched(&format!("{what} = {bad}"), &|p| put(p, at, bad.to_bits()));
            }
        }
        if core_gram {
            patched("Σ[0][1] = NaN", &|p| {
                put(p, sigma_at + 24, f64::NAN.to_bits())
            });
        }
        let mut trailing = model.clone();
        trailing.extend_from_slice(&[0; 8]);
        cases.push(("8 trailing bytes".to_owned(), trailing));
        cases.push(("truncated".to_owned(), model[..model.len() - 8].to_vec()));
        if !core_gram {
            // A real J2 × J2 Σ appended after the empty one's shape.
            let mut present = model[..sigma_at].to_vec();
            present.extend_from_slice(&(j2 as u64).to_le_bytes());
            present.extend_from_slice(&(j2 as u64).to_le_bytes());
            for i in 0..j2 * j2 {
                present.extend_from_slice(&((i % (j2 + 1) == 0) as u8 as f64).to_le_bytes());
            }
            cases.push(("Σ present under Lambda2".to_owned(), present));
        }

        for (what, payload) in cases {
            let bad = with_section(&bytes, persist::SECTION_MODEL, &payload);
            match persist::load_from_bytes(&bad) {
                Err(PersistError::Malformed { section, detail }) => {
                    assert_eq!(section, persist::SECTION_MODEL, "{sigma_source:?} {what}");
                    assert!(!detail.is_empty(), "{sigma_source:?} {what}");
                }
                other => panic!(
                    "{sigma_source:?} {what}: expected Malformed, got {:?}",
                    other.map(|_| ())
                ),
            }
            let set = file.load(&bad).unwrap();
            assert_eq!(
                answers(&set, &[vec![TagId::from_index(0)]]),
                served,
                "{sigma_source:?} {what}"
            );
        }
        // The reassembly itself is sound: an untouched payload loads.
        let same = with_section(&bytes, persist::SECTION_MODEL, &model);
        assert_eq!(same, bytes);
    }
}

// ---------------------------------------------------------------------------
// The serving load
// ---------------------------------------------------------------------------

/// A deliberately tiny model (every-offset sweeps are O(len²)) and a
/// fixed query mix over it.
fn tiny_model() -> (Folksonomy, CubeLsi, Vec<Vec<TagId>>) {
    let ds = generate(&GeneratorConfig {
        users: 8,
        resources: 10,
        concepts: 3,
        assignments: 120,
        seed: 43,
        ..Default::default()
    });
    let config = CubeLsiConfig {
        core_dims: Some((3, 3, 3)),
        num_concepts: Some(3),
        max_als_iters: 3,
        seed: 43,
        ..Default::default()
    };
    let model = CubeLsi::build(&ds.folksonomy, &config).unwrap();
    let tags = ds.folksonomy.num_tags();
    let queries = (0..6usize)
        .map(|q| {
            (0..=q % 3)
                .map(|j| TagId::from_index((q + 5 * j) % tags))
                .collect()
        })
        .collect();
    (ds.folksonomy, model, queries)
}

/// A scratch file the serving loader — which takes a path — reads from.
struct ServedFile(std::path::PathBuf);

impl ServedFile {
    fn new(tag: &str) -> Self {
        ServedFile(std::env::temp_dir().join(format!(
            "cubelsi-serving-load-{tag}-{}.cubelsi",
            std::process::id()
        )))
    }

    fn load(&self, bytes: &[u8]) -> Result<shard::ShardSet, PersistError> {
        std::fs::write(&self.0, bytes).unwrap();
        shard::load_source(&self.0, LoadMode::Owned)
    }
}

impl Drop for ServedFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The query mix's answers, all matches and top-3, down to the score bits.
fn answers(set: &shard::ShardSet, queries: &[Vec<TagId>]) -> Vec<Vec<(usize, u64)>> {
    let mut session = set.session();
    let mut out = Vec::new();
    let mut all = Vec::new();
    for q in queries {
        for k in [0usize, 3] {
            set.search_tags_with(&mut session, set.concepts(), q, k, &mut out);
            all.push(
                out.iter()
                    .map(|h| (h.resource.index(), h.score.to_bits()))
                    .collect(),
            );
        }
    }
    all
}

/// The fault sweep of the exhaustive test above, through the serving
/// load: cut a plain and a compressed artifact at every length and flip
/// one bit at every offset. A cut is always a typed error. A flip is a
/// typed error or — where it lands in bytes the serving load does not
/// read: the model payload, its table row, padding — a set that answers
/// the query mix exactly as the undamaged artifact does. Never a panic,
/// never another ranking. And the flips it tolerates inside the model
/// payload are exactly the ones the full load still refuses.
#[test]
fn serving_load_fault_sweep() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let (folksonomy, model, queries) = tiny_model();
    let file = ServedFile::new("sweep");
    for (format, compress) in [("plain", false), ("compressed", true)] {
        let bytes = persist::save_to_vec_with(&model, &folksonomy, compress);
        let expect = answers(&file.load(&bytes).unwrap(), &queries);
        assert!(expect.iter().any(|hits| !hits.is_empty()));
        let guarded = |bad: &[u8], what: &str| {
            catch_unwind(AssertUnwindSafe(|| file.load(bad)))
                .unwrap_or_else(|_| panic!("{format}: serving load panicked, {what}"))
        };

        for cut in 0..bytes.len() {
            match guarded(&bytes[..cut], &format!("cut at {cut}")) {
                Err(e) => assert!(!e.to_string().is_empty(), "{format} cut {cut}"),
                Ok(_) => panic!("{format}: a prefix of {cut} bytes must not load"),
            }
        }

        let (_, off, len) = find_section(&bytes, persist::SECTION_MODEL);
        let unread = off..off + len;
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 1u8 << (pos % 8);
            let in_unread_payload = unread.contains(&pos);
            match guarded(&bad, &format!("flip at {pos}")) {
                Err(e) => {
                    assert!(!e.to_string().is_empty(), "{format} offset {pos}");
                    assert!(
                        !in_unread_payload,
                        "{format} offset {pos}: the serving load read a model payload: {e}"
                    );
                }
                Ok(set) => {
                    assert_eq!(
                        answers(&set, &queries),
                        expect,
                        "{format} offset {pos}: ranking diverged"
                    );
                    if in_unread_payload {
                        match persist::load_from_bytes(&bad) {
                            Err(PersistError::ChecksumMismatch { section, .. }) => {
                                assert_eq!(section, persist::SECTION_MODEL, "{format} offset {pos}")
                            }
                            other => panic!(
                                "{format} offset {pos}: the full load must refuse, got {:?}",
                                other.map(|_| ())
                            ),
                        }
                    }
                }
            }
        }
    }
}

/// A table entry is bounds-checked whether or not its section is read:
/// the model row made to run past the end of the file is `Truncated` for
/// the serving load as for the full load.
#[test]
fn unread_section_running_past_eof_is_truncated_in_both_loads() {
    let (folksonomy, model, _) = tiny_model();
    let file = ServedFile::new("past-eof");
    for compress in [false, true] {
        let mut bytes = persist::save_to_vec_with(&model, &folksonomy, compress);
        let (entry, _, _) = find_section(&bytes, persist::SECTION_MODEL);
        let file_len = bytes.len() as u64;
        bytes[entry + 12..entry + 20].copy_from_slice(&file_len.to_le_bytes());
        for (load, got) in [
            ("serving", file.load(&bytes).map(|_| ())),
            ("full", persist::load_from_bytes(&bytes).map(|_| ())),
        ] {
            assert!(
                matches!(got, Err(PersistError::Truncated { .. })),
                "{load} load, compress {compress}: got {got:?}"
            );
        }
    }
}

/// The serving load does not require the section it does not read: with
/// the model taken out of the table (payload left where it was) the
/// artifact serves the same answers, and the full load reports it
/// missing.
#[test]
fn serving_load_does_not_need_the_model_sections() {
    let (folksonomy, model, queries) = tiny_model();
    let file = ServedFile::new("no-model");
    for compress in [false, true] {
        let bytes = persist::save_to_vec_with(&model, &folksonomy, compress);
        let expect = answers(&file.load(&bytes).unwrap(), &queries);

        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let table_end = persist::HEADER_LEN + count * persist::TABLE_ENTRY_LEN;
        let mut cut = bytes[..persist::HEADER_LEN].to_vec();
        let mut kept = 0u32;
        for row in bytes[persist::HEADER_LEN..table_end].chunks(persist::TABLE_ENTRY_LEN) {
            let id = u32::from_le_bytes(row[..4].try_into().unwrap());
            if id != persist::SECTION_MODEL {
                cut.extend_from_slice(row);
                kept += 1;
            }
        }
        assert_eq!(kept as usize, count - 1);
        cut[12..16].copy_from_slice(&kept.to_le_bytes());
        // The vacated row becomes slack in front of the payloads, whose
        // absolute offsets therefore still hold.
        cut.resize(table_end, 0);
        cut.extend_from_slice(&bytes[table_end..]);

        let set = file.load(&cut).unwrap();
        assert_eq!(answers(&set, &queries), expect, "compress {compress}");
        assert_eq!(set.folksonomy().assignments(), folksonomy.assignments());
        assert!(matches!(
            persist::load_from_bytes(&cut),
            Err(PersistError::MissingSection(persist::SECTION_MODEL))
        ));
    }
}

// ---------------------------------------------------------------------------
// Degenerate corpora
// ---------------------------------------------------------------------------

/// Corpora at the edges of the model: each must either fail to build with
/// a typed error or produce an artifact — plain, compressed, and sharded
/// across more shards than it has resources — that reloads and answers
/// bit-identically to the in-memory engine. Never a panic or a NaN score.
#[test]
fn degenerate_corpora_round_trip_or_fail_typed() {
    let corpus = |rows: &[(&str, &str, &str)]| {
        let mut b = FolksonomyBuilder::new();
        for &(u, t, r) in rows {
            b.add(u, t, r);
        }
        b.build()
    };
    let identical_tags: Vec<(&str, &str, &str)> = ["r0", "r1", "r2", "r3", "r4", "r5"]
        .into_iter()
        .enumerate()
        .flat_map(|(i, r)| ["x", "y"].map(|t| (["u0", "u1"][i % 2], t, r)))
        .collect();
    let two_resources = [
        ("u1", "a", "r1"),
        ("u2", "a", "r1"),
        ("u1", "b", "r2"),
        ("u2", "c", "r2"),
    ];
    let cases: [(&str, Folksonomy, Option<usize>); 5] = [
        ("single assignment", corpus(&[("u", "t", "r")]), None),
        (
            "one assignment repeated",
            corpus(&[("u", "t", "r"), ("u", "t", "r"), ("u", "t", "r")]),
            None,
        ),
        // Every concept annotates every resource: all idf 0, no postings.
        (
            "identical tags everywhere",
            corpus(&identical_tags),
            Some(2),
        ),
        ("two resources", corpus(&two_resources), Some(2)),
        ("more concepts than tags", corpus(&two_resources), Some(10)),
    ];

    let dir = std::env::temp_dir().join(format!("cubelsi-degenerate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (what, folksonomy, num_concepts) in cases {
        let config = CubeLsiConfig {
            num_concepts,
            max_als_iters: 4,
            ..Default::default()
        };
        let built = match CubeLsi::build(&folksonomy, &config) {
            Ok(built) => built,
            Err(e) => {
                assert!(!e.to_string().is_empty(), "{what}: empty build error");
                continue;
            }
        };
        let tags: Vec<TagId> = (0..folksonomy.num_tags()).map(TagId::from_index).collect();
        let mut queries: Vec<Vec<TagId>> = tags.iter().map(|&t| vec![t]).collect();
        queries.push(tags.clone());
        let check = |got: &[RankedResource], q: &[TagId], k: usize, how: &str| {
            let expect = built.search_ids(q, k);
            assert_eq!(got.len(), expect.len(), "{what} {how} {q:?} k {k}");
            for (g, e) in got.iter().zip(&expect) {
                assert!(!g.score.is_nan(), "{what} {how} {q:?} k {k}: NaN score");
                assert_eq!(
                    (g.resource, g.score.to_bits()),
                    (e.resource, e.score.to_bits()),
                    "{what} {how} {q:?} k {k}"
                );
            }
        };

        for compress in [false, true] {
            let how = if compress { "compressed" } else { "plain" };
            let bytes = persist::save_to_vec_with(&built, &folksonomy, compress);
            let loaded = persist::load_from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{what} {how}: load failed: {e}"));
            for q in &queries {
                for k in [0usize, 1, 10] {
                    check(&loaded.model.search_ids(q, k), q, k, how);
                }
            }

            // More shards than resources: some shards index nothing.
            let shards = folksonomy.num_resources() + 3;
            let manifest = dir.join(format!("{}-{how}.shards", what.replace(' ', "-")));
            shard::save_sharded_with(&manifest, &built, &folksonomy, shards, compress).unwrap();
            let set = shard::load_source(&manifest, LoadMode::Owned)
                .unwrap_or_else(|e| panic!("{what} {how}: sharded load failed: {e}"));
            assert_eq!(set.num_shards(), shards);
            let mut session = set.session();
            let mut out = Vec::new();
            for q in &queries {
                for k in [0usize, 1, 10] {
                    set.search_tags_with(&mut session, set.concepts(), q, k, &mut out);
                    check(&out, q, k, &format!("{how} {shards} shards"));
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
