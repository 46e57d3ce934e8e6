//! The bag-of-concepts retrieval model (§III of the paper).
//!
//! After concept distillation every resource's bag of tags is mapped to a
//! bag of concepts. Resources are vectors of tf-idf weights over concepts
//! (Eqs. 1–3); queries are transformed the same way; ranking is by cosine
//! similarity (Eq. 4), served from an inverted index over concepts.
//!
//! # Posting layout
//!
//! The inverted index is laid out for cache-friendly top-k pruning:
//!
//! * **Structure of arrays** — resource ids (`u32`) and cosine-normalized
//!   impacts (`f64`, `w(l, r) / ‖r‖`) live in two parallel flat arrays
//!   shared by all concepts, with a per-concept offset table. A pruning
//!   scan that only needs ids (the update-only tail of a list) touches
//!   4 bytes per posting instead of a padded 16-byte `(u32, f64)` pair.
//! * **Impact order** — each list is sorted by descending impact (ties by
//!   ascending resource id, the ranking tie-break), so a prefix of a list
//!   is already in final ranked order for single-term queries and the
//!   per-list maximum is simply the first impact.
//! * **Block maxima** — every list is carved into fixed [`BLOCK_LEN`]
//!   posting blocks, each carrying its maximum impact in a separate dense
//!   array. The block-max query path checks one bound per block instead of
//!   one per posting, and skips whole blocks that cannot beat the current
//!   top-k threshold. Per-list maxima (`max_impact`) remain as the
//!   MaxScore term-ordering metadata.
//!
//! All arrays are plain `Vec`s, whether the index was just built or
//! restored from an artifact, and one validator guards them
//! (`IndexArrays::validate` plus its mirror half,
//! `CompressedPostings::validate_against`): the artifact loader runs it on
//! every restored index before the index may serve, and debug builds run
//! it on every assembled one. The actual pruned query engine lives in
//! [`crate::query`]; this module keeps the exhaustive
//! [`ConceptIndex::rank_exact`] path as the reference implementation the
//! engine is tested against.

use crate::concepts::ConceptModel;
use cubelsi_folksonomy::{Folksonomy, ResourceId, TagId};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Number of postings per block-max block. 64 keeps a block's ids within a
/// single 256-byte stretch (four cache lines) and amortizes one bound
/// check and one branch over 64 postings.
pub const BLOCK_LEN: usize = 64;

/// A tag→concepts mapping as the index build and the query paths see it:
/// every tag belongs to one or more concepts with a weight each. The
/// paper's hard clustering ([`ConceptModel`]) is the one-concept,
/// weight-1 case.
///
/// `Sync` is required so the batched query engine can share an assignment
/// across worker threads.
pub trait ConceptAssignment: Sync {
    /// Number of concepts in the space.
    fn num_concepts(&self) -> usize;
    /// Number of tags covered.
    fn num_tags(&self) -> usize;
    /// Calls `f(concept, weight)` for every concept the tag belongs to;
    /// weights sum to 1 per tag. Every weight must be finite and ≥ 0 and
    /// every concept `< num_concepts()`: the pruned query paths' bounds
    /// rest on non-negative term weights, and nothing downstream
    /// re-checks them.
    fn for_each_weight(&self, tag: usize, f: &mut dyn FnMut(usize, f64));
}

impl ConceptAssignment for ConceptModel {
    fn num_concepts(&self) -> usize {
        ConceptModel::num_concepts(self)
    }
    fn num_tags(&self) -> usize {
        ConceptModel::num_tags(self)
    }
    fn for_each_weight(&self, tag: usize, f: &mut dyn FnMut(usize, f64)) {
        f(self.concept_of(tag), 1.0);
    }
}

/// One ranked search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedResource {
    /// The resource.
    pub resource: ResourceId,
    /// Cosine similarity to the query (Eq. 4).
    pub score: f64,
}

/// The single ranking total order every path must agree on — score
/// descending, resource id ascending. The posting-list sort, the exact
/// reference sort, the pruned engine's heap, and the final result sort
/// all route through this function; the pruned-vs-exact bit-identity
/// contract depends on them never diverging.
#[inline]
pub(crate) fn cmp_ranked(a_score: f64, a_id: u32, b_score: f64, b_id: u32) -> std::cmp::Ordering {
    b_score
        .partial_cmp(&a_score)
        .unwrap_or_else(|| cmp_nan_last(a_score, b_score))
        .then(a_id.cmp(&b_id))
}

/// Tie-break for score comparisons involving NaN: NaN ranks strictly
/// below every number and NaNs tie with each other, which keeps the
/// comparator a total order. Without this, a non-finite query weight
/// reaching the exact reference path (`rank_exact` divides by a possibly
/// non-finite norm *after* its positivity filter) would hand
/// `sort_unstable_by` an intransitive comparator — allowed to panic.
#[inline]
fn cmp_nan_last(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        _ => std::cmp::Ordering::Equal,
    }
}

/// Sorts query terms by descending `weight * max_impact[concept]` (ties
/// by ascending concept id) — the MaxScore processing order. This is the
/// single comparator behind [`ConceptIndex::order_terms`] *and* the
/// sharded engine's global term order: the engines consume terms in this
/// order, which makes their floating-point accumulation sequences — and
/// hence scores — identical for every surviving resource. `max_impact`
/// entries may be a shard-local or a global maximum; the order is exact
/// either way, it only has to be *the same* for every engine whose
/// results are merged. NaN products (possible only through the raw
/// weighted entry points) sort last, keeping the comparator total.
pub(crate) fn order_terms_with(terms: &mut [(u32, f64)], max_impact: &[f64]) {
    terms.sort_unstable_by(|a, b| {
        let ba = a.1 * max_impact[a.0 as usize];
        let bb = b.1 * max_impact[b.0 as usize];
        bb.partial_cmp(&ba)
            .unwrap_or_else(|| cmp_nan_last(ba, bb))
            .then(a.0.cmp(&b.0))
    });
}

/// A query mapped into concept space: non-negative `(concept, weight)`
/// terms sorted by descending maximum score contribution (the MaxScore
/// processing order), plus the query vector's L2 norm.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// `(concept, weight)` pairs, weights > 0, sorted by descending
    /// `weight * max_impact(concept)` (ties by concept id).
    pub terms: Vec<(u32, f64)>,
    /// L2 norm of the query weight vector (denominator of Eq. 4).
    pub norm: f64,
}

/// A borrowed view of one concept's posting list: parallel id/impact
/// slices of equal length, impact-descending.
#[derive(Debug, Clone, Copy)]
pub struct PostingsRef<'a> {
    /// Resource ids.
    pub ids: &'a [u32],
    /// Cosine-normalized impacts (`w(l, r) / ‖r‖`), descending.
    pub scores: &'a [f64],
}

impl<'a> PostingsRef<'a> {
    /// Number of postings in the list.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates `(resource, impact)` pairs in impact order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + 'a {
        self.ids.iter().copied().zip(self.scores.iter().copied())
    }
}

/// A borrowed view of one resource's sparse tf-idf vector: parallel
/// concept-id/weight slices, ascending concept id.
#[derive(Debug, Clone, Copy)]
pub struct ResourceVectorRef<'a> {
    /// Concept ids, ascending.
    pub concepts: &'a [u32],
    /// tf-idf weights (Eq. 3).
    pub weights: &'a [f64],
}

impl<'a> ResourceVectorRef<'a> {
    /// Number of nonzero concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Iterates `(concept, weight)` pairs in ascending concept order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + 'a {
        self.concepts
            .iter()
            .copied()
            .zip(self.weights.iter().copied())
    }
}

/// Compressed block postings: the hot, cache-dense mirror of the posting
/// arrays the [`crate::query::PruningStrategy::CompressedBlockMax`] path
/// streams instead of `post_ids`/`post_scores`.
///
/// Blocks share the global block index space of `block_max` (concept `l`
/// owns blocks `block_offsets[l]..block_offsets[l+1]`). Per block of up
/// to [`BLOCK_LEN`] postings:
///
/// * **ids** are frame-of-reference coded: `blk_base` holds the block's
///   minimum resource id and `packed_ids` stores `id - base` for each
///   posting at the block's fixed bit width `blk_bits` (the width of the
///   largest delta; 0 when all ids in the block are equal). Ids within a
///   block are impact-ordered, *not* monotone, which is why deltas are
///   taken against the block minimum rather than the previous id. Every
///   block's packed run starts at a byte boundary (`blk_pack_start`).
/// * **impacts** are 8-bit quantized *upper bounds*: posting `j` with
///   quantized value `q = quant[j]` satisfies
///   `blk_offset + blk_scale · q ≥ post_scores[j]` (evaluated exactly as
///   written, in f64 after widening the f32 block constants). The query
///   path uses the dequantized value only to *reject* candidates; every
///   accumulated contribution reads the exact f64 impact, which is what
///   keeps compressed results bit-identical to the uncompressed paths.
///
/// `packed_ids` carries 8 zero guard bytes past the last used byte so
/// every 8-byte window the decoder reads from inside a run is in range.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompressedPostings {
    /// Per-block minimum resource id (the frame of reference).
    pub blk_base: Vec<u32>,
    /// Per-block packed bit width, `0..=32`.
    pub blk_bits: Vec<u8>,
    /// Per-block quantization scale (f32, widened to f64 at use).
    pub blk_scale: Vec<f32>,
    /// Per-block quantization offset (f32, widened to f64 at use).
    pub blk_offset: Vec<f32>,
    /// Byte offset of each block's packed run inside `packed_ids`;
    /// `n_blocks + 1` entries, monotone, last = used bytes (excluding
    /// the guard bytes).
    pub blk_pack_start: Vec<u64>,
    /// Per-posting 8-bit quantized impact (upper bound when dequantized).
    pub quant: Vec<u8>,
    /// Bit-packed id deltas, plus 8 zero guard bytes.
    pub packed_ids: Vec<u8>,
}

impl CompressedPostings {
    /// Number of blocks described.
    pub fn num_blocks(&self) -> usize {
        self.blk_base.len()
    }

    /// Streams the decoded ids of block `blk` (holding `len ≤ BLOCK_LEN`
    /// postings) to `f(j, id)` — the one decode of the mirror, shared by
    /// the query path, [`Self::validate_against`] and the tests. Each
    /// 8-byte window starting at bit `b` holds every bit of the `G` ids
    /// beginning there as long as `(b & 7) + G·bits ≤ 64`, so narrow
    /// widths decode several ids per load; the windows stay independent
    /// (no reservoir carry), which keeps the loads pipelined. Width 0
    /// (every id equal to the base) masks every window to 0.
    /// `wrapping_add` keeps a hostile id payload free of arithmetic
    /// panics, and [`window`] cannot read out of bounds.
    #[inline]
    pub fn for_each_block_id(&self, blk: usize, len: usize, f: impl FnMut(usize, u32)) {
        let base = self.blk_base[blk];
        let bits = self.blk_bits[blk] as usize;
        let start = self.blk_pack_start[blk] as usize;
        let bytes = self.packed_ids.get(start..).unwrap_or_default();
        // Monomorphized per group size so each inner loop unrolls to
        // straight-line code instead of a runtime-bounded loop.
        match bits {
            ..=14 => stream_grouped::<4>(bytes, bits, base, len, f),
            15..=19 => stream_grouped::<3>(bytes, bits, base, len, f),
            20..=28 => stream_grouped::<2>(bytes, bits, base, len, f),
            _ => stream_grouped::<1>(bytes, bits, base, len, f),
        }
    }
}

/// The 8 little-endian bytes at bit offset `bit` of `bytes`, shifted so
/// the value starting at `bit` sits at bit 0, or 0 when fewer than 8
/// bytes remain. The fallback is never taken on a mirror the decode can
/// trust: [`compress_postings`] appends 8 zero guard bytes after the
/// final run, so every window starting inside a run is in range, and
/// [`CompressedPostings::validate_against`] rejects any loaded mirror
/// whose decoded ids differ from the exact ids.
#[inline]
fn window(bytes: &[u8], bit: usize) -> u64 {
    bytes
        .get(bit >> 3..)
        .and_then(<[u8]>::first_chunk::<8>)
        .map_or(0, |w| u64::from_le_bytes(*w) >> (bit & 7))
}

/// Walks `len` bit-packed values of width `bits` from `bytes`, reading
/// `G` values per 8-byte [`window`] and handing `base + value` to
/// `f(j, id)`.
#[inline]
fn stream_grouped<const G: usize>(
    bytes: &[u8],
    bits: usize,
    base: u32,
    len: usize,
    mut f: impl FnMut(usize, u32),
) {
    debug_assert!(7 + G * bits <= 64);
    let mask = (1u64 << bits) - 1;
    let mut j = 0;
    while j + G <= len {
        let mut w = window(bytes, j * bits);
        for g in 0..G {
            f(j + g, base.wrapping_add((w & mask) as u32));
            w >>= bits;
        }
        j += G;
    }
    while j < len {
        f(
            j,
            base.wrapping_add((window(bytes, j * bits) & mask) as u32),
        );
        j += 1;
    }
}

/// The posting range of every block, in global block order: each list of
/// (valid) posting offsets carved into [`BLOCK_LEN`]-posting blocks, the
/// last of a list possibly short.
fn block_ranges(post_offsets: &[u64]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    post_offsets.windows(2).flat_map(|w| {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        (lo..hi)
            .step_by(BLOCK_LEN)
            .map(move |b| b..(b + BLOCK_LEN).min(hi))
    })
}

/// Derives the compressed block mirror from (valid) exact arrays. This
/// is the single source of the compressed layout: the index build, the
/// uncompressed-artifact load path, and shard partitioning all route
/// through it, so `CompressedBlockMax` is available on every index
/// regardless of provenance.
fn compress_postings(exact: &IndexArrays) -> CompressedPostings {
    let n_postings = exact.post_ids.len();
    let n_blocks = exact.block_max.len();
    let mut blk_base = Vec::with_capacity(n_blocks);
    let mut blk_bits = Vec::with_capacity(n_blocks);
    let mut blk_scale = Vec::with_capacity(n_blocks);
    let mut blk_offset = Vec::with_capacity(n_blocks);
    let mut blk_pack_start = Vec::with_capacity(n_blocks + 1);
    let mut quant = Vec::with_capacity(n_postings);
    let mut packed: Vec<u8> = Vec::new();
    blk_pack_start.push(0u64);
    for range in block_ranges(&exact.post_offsets) {
        let ids = &exact.post_ids[range.clone()];
        let base = ids.iter().copied().min().unwrap();
        let max_delta = ids.iter().map(|&r| r - base).max().unwrap();
        let bits = (32 - max_delta.leading_zeros()) as usize;
        blk_base.push(base);
        blk_bits.push(bits as u8);
        pack_block_ids(&mut packed, ids, base, bits);
        blk_pack_start.push(packed.len() as u64);
        let (scale, offset) = quantize_block(&exact.post_scores[range], &mut quant);
        blk_scale.push(scale);
        blk_offset.push(offset);
    }
    packed.extend_from_slice(&[0u8; 8]);
    CompressedPostings {
        blk_base,
        blk_bits,
        blk_scale,
        blk_offset,
        blk_pack_start,
        quant,
        packed_ids: packed,
    }
}

/// Appends one block's `id - base` deltas at the fixed `bits` width.
fn pack_block_ids(out: &mut Vec<u8>, ids: &[u32], base: u32, bits: usize) {
    if bits == 0 {
        return;
    }
    let start = out.len();
    out.resize(start + (ids.len() * bits).div_ceil(8), 0);
    let bytes = &mut out[start..];
    let mut bitpos = 0usize;
    for &r in ids {
        let byte = bitpos >> 3;
        let shift = bitpos & 7;
        // shift + bits ≤ 7 + 32 < 64, so the shifted delta fits in u64.
        let v = (((r - base) as u64) << shift).to_le_bytes();
        for (i, vb) in v.iter().take((shift + bits).div_ceil(8)).enumerate() {
            bytes[byte + i] |= vb;
        }
        bitpos += bits;
    }
}

/// Largest f32 whose f64 widening does not exceed `x` (for `x ≥ 0`).
fn f32_at_most(x: f64) -> f32 {
    let mut v = x as f32;
    while (v as f64) > x {
        // v widened above a non-negative x, so v is strictly positive
        // and finite: stepping its bit pattern down moves toward 0.
        v = f32::from_bits(v.to_bits() - 1);
    }
    v
}

/// Quantizes one block of exact impacts to 8-bit per-posting upper
/// bounds, appending to `quant`; returns the block's `(scale, offset)`.
/// The contract — `offset + scale · q ≥ score`, evaluated in f64 — is
/// enforced per posting by construction (and re-checked by
/// [`CompressedPostings::validate_against`] on load). Non-finite impacts
/// (possible only from hostile artifacts) saturate harmlessly instead of
/// panicking.
fn quantize_block(scores: &[f64], quant: &mut Vec<u8>) -> (f32, f32) {
    // Impact order: the block's max is its first score, min its last.
    let max = scores[0];
    let min = *scores.last().unwrap();
    let offset = f32_at_most(min);
    let mut scale = ((max - offset as f64) / 255.0) as f32;
    // Nearest-rounding of the division may undershoot; bump until the
    // top of the quantized range covers the block max (≤ 2 steps).
    while (offset as f64) + (scale as f64) * 255.0 < max {
        scale = f32::from_bits(scale.to_bits() + 1);
    }
    for &s in scores {
        let mut q = if scale == 0.0 {
            // Loop exit above proved offset ≥ max, so q = 0 covers all.
            0u8
        } else {
            (((s - offset as f64) / scale as f64).ceil()).clamp(0.0, 255.0) as u8
        };
        // The f64 division can still undershoot by an ulp; restore the
        // per-posting bound exactly as the query path evaluates it.
        while q < 255 && (offset as f64) + (scale as f64) * (q as f64) < s {
            q += 1;
        }
        quant.push(q);
    }
    (scale, offset)
}

/// The exact SoA arrays of an index: what a build assembles, what the
/// persist layer writes and reads back, and what [`Self::validate`]
/// guards. Offsets are `u64` so the in-memory shape matches the on-disk
/// shape exactly.
#[derive(Debug, Clone)]
pub(crate) struct IndexArrays {
    pub num_resources: usize,
    pub num_concepts: usize,
    /// `idf[l] = log(N / n_l)`; 0 for unseen concepts (Eq. 1).
    pub idf: Vec<f64>,
    /// Per-resource vector L2 norms (denominator of Eq. 4).
    pub resource_norms: Vec<f64>,
    /// Resource tf-idf vectors, ragged SoA: resource `r` owns
    /// `rv_concepts/rv_weights[rv_offsets[r]..rv_offsets[r+1]]`,
    /// ascending concept id.
    pub rv_offsets: Vec<u64>,
    pub rv_concepts: Vec<u32>,
    pub rv_weights: Vec<f64>,
    /// Inverted index, ragged SoA: concept `l` owns
    /// `post_ids/post_scores[post_offsets[l]..post_offsets[l+1]]`,
    /// descending impact (ties by ascending resource id).
    pub post_offsets: Vec<u64>,
    pub post_ids: Vec<u32>,
    pub post_scores: Vec<f64>,
    /// Block maxima, ragged per concept: concept `l` owns
    /// `block_max[block_offsets[l]..block_offsets[l+1]]`, one entry per
    /// [`BLOCK_LEN`] postings (the last block may be short). Because the
    /// list is impact-descending, block `b`'s max is the impact at the
    /// block's first posting.
    pub block_offsets: Vec<u64>,
    pub block_max: Vec<f64>,
    /// Per-posting-list maximum impact (upper-bound metadata and the
    /// term-ordering key); 0 for empty lists.
    pub max_impact: Vec<f64>,
}

/// Which half of an index failed validation, with a description of the
/// first violation. The persist layer maps the halves to the artifact
/// sections they were read from.
#[derive(Debug, PartialEq)]
pub(crate) enum IndexDefect {
    /// The exact arrays break an invariant of their own.
    Exact(String),
    /// The compressed mirror is malformed or disagrees with the exact
    /// arrays.
    Mirror(String),
}

// The two validators below take typed arrays of any content — a hostile
// artifact's included. Shape coherence is checked first, and every index
// after it is in bounds on the strength of an earlier check; that
// arithmetic is proven by the exhaustive byte-flip sweeps in
// tests/persist_roundtrip.rs.

impl IndexArrays {
    /// The one validator of the exact arrays, run by the artifact loader
    /// on every restored index and by debug builds on every assembled
    /// one: shape coherence, offset monotonicity, id ranges, finite
    /// non-negative idf / weights / norms (the pruned engine's bounds
    /// assume non-negative term weights), per-list impact order (the
    /// pruning loops' exactness relies on it), block geometry, block-max
    /// / max-impact consistency with the score arrays, and posting ↔
    /// resource-vector cross-consistency (the block-max engine's
    /// candidate-side updates recompute `w/‖r‖` from the vectors, so the
    /// two representations must agree bit for bit). A CRC-valid but
    /// semantically hostile file fails here and can therefore never
    /// misrank silently. Returns a description of the first violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let IndexArrays {
            num_resources,
            num_concepts,
            idf,
            resource_norms,
            rv_offsets,
            rv_concepts,
            rv_weights,
            post_offsets,
            post_ids,
            post_scores,
            block_offsets,
            block_max,
            max_impact,
        } = self;
        let (num_resources, num_concepts) = (*num_resources, *num_concepts);

        // Shape coherence first: everything below indexes on the
        // strength of it. (A count that equals a `Vec` length cannot
        // overflow the `+ 1` after it.)
        if idf.len() != num_concepts
            || max_impact.len() != num_concepts
            || post_offsets.len() != num_concepts + 1
            || block_offsets.len() != num_concepts + 1
            || post_ids.len() != post_scores.len()
        {
            return Err("posting arrays out of shape".to_owned());
        }
        if resource_norms.len() != num_resources
            || rv_offsets.len() != num_resources + 1
            || rv_concepts.len() != rv_weights.len()
        {
            return Err("resource-vector arrays out of shape".to_owned());
        }
        let check_offsets = |offsets: &[u64], total: usize, what: &str| -> Result<(), String> {
            if offsets.first() != Some(&0) {
                return Err(format!("{what} offsets must start at 0"));
            }
            if offsets.last() != Some(&(total as u64)) {
                return Err(format!(
                    "{what} offsets must end at {total}, found {:?}",
                    offsets.last()
                ));
            }
            for w in offsets.windows(2) {
                if w[0] > w[1] {
                    return Err(format!("{what} offsets decrease ({} > {})", w[0], w[1]));
                }
            }
            Ok(())
        };
        check_offsets(rv_offsets, rv_concepts.len(), "resource-vector")?;
        check_offsets(post_offsets, post_ids.len(), "posting")?;
        check_offsets(block_offsets, block_max.len(), "block")?;

        if let Some(&l) = rv_concepts.iter().find(|&&l| l as usize >= num_concepts) {
            return Err(format!(
                "resource vector references unknown concept {l} of {num_concepts}"
            ));
        }
        if let Some(&r) = post_ids.iter().find(|&&r| r as usize >= num_resources) {
            return Err(format!(
                "posting references unknown resource {r} of {num_resources}"
            ));
        }
        for (what, xs) in [
            ("idf", idf),
            ("resource-vector weight", rv_weights),
            ("resource norm", resource_norms),
        ] {
            if let Some(x) = xs.iter().find(|x| !x.is_finite() || **x < 0.0) {
                return Err(format!("{what} {x} is negative or not finite"));
            }
        }

        // Resource vectors must be strictly ascending in concept id: the
        // candidate-side update path binary-searches them.
        for r in 0..num_resources {
            let lo = rv_offsets[r] as usize;
            let hi = rv_offsets[r + 1] as usize;
            for j in lo + 1..hi {
                if rv_concepts[j - 1] >= rv_concepts[j] {
                    return Err(format!(
                        "resource {r} vector concepts not strictly ascending"
                    ));
                }
            }
        }
        // Every posting of a resource must correspond to one of its
        // vector entries with the bitwise-identical normalized impact;
        // together with the count equality below this makes postings ↔
        // vector entries a bijection for resources with a positive norm,
        // so candidate-side updates and posting-list scans are
        // interchangeable.
        let expected_postings: u64 = (0..num_resources)
            .filter(|&r| resource_norms[r] > 0.0)
            .map(|r| rv_offsets[r + 1] - rv_offsets[r])
            .sum();
        if expected_postings != post_ids.len() as u64 {
            return Err(format!(
                "{} postings for {expected_postings} vector entries of positive-norm resources",
                post_ids.len()
            ));
        }

        for l in 0..num_concepts {
            let lo = post_offsets[l] as usize;
            let hi = post_offsets[l + 1] as usize;
            let blo = block_offsets[l] as usize;
            let bhi = block_offsets[l + 1] as usize;
            if bhi - blo != (hi - lo).div_ceil(BLOCK_LEN) {
                return Err(format!(
                    "concept {l} has {} postings but {} blocks",
                    hi - lo,
                    bhi - blo
                ));
            }
            // Impact order: score descending, ties by ascending resource
            // id (the shared ranking tie-break). NaN scores fail both
            // branches.
            for j in lo + 1..hi {
                let ordered = post_scores[j - 1] > post_scores[j]
                    || (post_scores[j - 1] == post_scores[j] && post_ids[j - 1] < post_ids[j]);
                if !ordered {
                    return Err(format!(
                        "concept {l} postings out of impact order at position {}",
                        j - lo
                    ));
                }
            }
            // Block maxima must equal the head impact of their block
            // (lists are descending), and the list max must equal the
            // first impact.
            for (bi, b) in (blo..bhi).enumerate() {
                let head = post_scores[lo + bi * BLOCK_LEN];
                if block_max[b].to_bits() != head.to_bits() {
                    return Err(format!(
                        "concept {l} block {bi} max {} disagrees with head impact {head}",
                        block_max[b]
                    ));
                }
            }
            let expect_max = if hi > lo { post_scores[lo] } else { 0.0 };
            if max_impact[l].to_bits() != expect_max.to_bits() {
                return Err(format!(
                    "concept {l} max impact {} disagrees with list head {expect_max}",
                    max_impact[l]
                ));
            }
            // Posting ↔ vector cross-check (see above).
            for j in lo..hi {
                let r = post_ids[j] as usize;
                let rlo = rv_offsets[r] as usize;
                let rhi = rv_offsets[r + 1] as usize;
                let Ok(p) = rv_concepts[rlo..rhi].binary_search(&(l as u32)) else {
                    return Err(format!(
                        "concept {l} posts resource {r} whose vector lacks the concept"
                    ));
                };
                let norm = resource_norms[r];
                if norm <= 0.0 {
                    return Err(format!("posted resource {r} has non-positive norm {norm}"));
                }
                let recomputed = rv_weights[rlo + p] / norm;
                if recomputed.to_bits() != post_scores[j].to_bits() {
                    return Err(format!(
                        "concept {l} posting for resource {r}: impact {} disagrees with \
                         vector-derived {recomputed}",
                        post_scores[j]
                    ));
                }
            }
        }
        Ok(())
    }
}

impl CompressedPostings {
    /// The mirror half of the validator: proves a compressed mirror
    /// honest against exact arrays that already passed
    /// [`IndexArrays::validate`]. Order matters: shapes and the
    /// packed-run chain are verified first — `blk_pack_start` starts at
    /// 0, each block's run is exactly `ceil(len·bits / 8)` bytes, the
    /// chain's end plus 8 zero guard bytes is the whole stream — so
    /// every window the id decode below reads is in range; then every
    /// decoded id must equal its exact counterpart bitwise and every
    /// dequantized impact must upper-bound its exact impact — exactly
    /// the two properties the `CompressedBlockMax` strategy's
    /// bit-identity argument rests on.
    pub(crate) fn validate_against(&self, exact: &IndexArrays) -> Result<(), String> {
        let IndexArrays {
            post_offsets,
            post_ids,
            post_scores,
            ..
        } = exact;
        let n_blocks = exact.block_max.len();
        if self.num_blocks() != n_blocks {
            return Err(format!(
                "{} blocks, index has {n_blocks}",
                self.num_blocks()
            ));
        }
        if self.quant.len() != post_ids.len() {
            return Err(format!(
                "{} quantized impacts for {} postings",
                self.quant.len(),
                post_ids.len()
            ));
        }
        if self.blk_bits.len() != n_blocks
            || self.blk_scale.len() != n_blocks
            || self.blk_offset.len() != n_blocks
            || self.blk_pack_start.len() != n_blocks + 1
        {
            return Err("per-block arrays out of shape".to_owned());
        }
        let Some(packed_used) = self.packed_ids.len().checked_sub(8) else {
            return Err(format!(
                "packed id stream of {} bytes lacks the 8 guard bytes",
                self.packed_ids.len()
            ));
        };
        if self.blk_pack_start[0] != 0 {
            return Err("packed runs must start at 0".to_owned());
        }
        // Pass 1: the packed-run chain. Fixing each run's length also
        // forces monotonicity.
        for (blk, range) in block_ranges(post_offsets).enumerate() {
            let bits = self.blk_bits[blk] as usize;
            if bits > 32 {
                return Err(format!("block {blk} packed at {bits} bits"));
            }
            let expect = (range.len() * bits).div_ceil(8) as u64;
            if self.blk_pack_start[blk + 1] != self.blk_pack_start[blk] + expect {
                return Err(format!(
                    "block {blk} packed run is {} bytes, {bits}-bit packing of {} ids needs {expect}",
                    self.blk_pack_start[blk + 1].wrapping_sub(self.blk_pack_start[blk]),
                    range.len()
                ));
            }
        }
        if self.blk_pack_start[n_blocks] != packed_used as u64 {
            return Err(format!(
                "packed runs end at {}, stream has {packed_used} used bytes",
                self.blk_pack_start[n_blocks]
            ));
        }
        if self.packed_ids[packed_used..].iter().any(|&g| g != 0) {
            return Err("nonzero guard bytes".to_owned());
        }
        // Pass 2: decoded ids must equal the exact ids bitwise, and
        // every dequantized impact must upper-bound its exact impact,
        // evaluated in f64 exactly as the query path evaluates it.
        for (blk, range) in block_ranges(post_offsets).enumerate() {
            let exact_ids = &post_ids[range.clone()];
            let mut same = true;
            self.for_each_block_id(blk, range.len(), |j, r| same &= r == exact_ids[j]);
            if !same {
                return Err(format!("block {blk} ids decode differently"));
            }
            let scale = self.blk_scale[blk];
            let offset = self.blk_offset[blk];
            if !scale.is_finite() || !offset.is_finite() || scale < 0.0 {
                return Err(format!(
                    "block {blk} quantization scale {scale} / offset {offset} out of range"
                ));
            }
            for j in range {
                let bound = offset as f64 + scale as f64 * self.quant[j] as f64;
                if bound < post_scores[j] {
                    return Err(format!(
                        "posting {j} dequantized bound {bound} below exact impact {}",
                        post_scores[j]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Ragged lists in flat SoA form, as [`IndexArrays`] stores them: list
/// `i` owns `ids/values[offsets[i]..offsets[i + 1]]`.
struct Ragged {
    offsets: Vec<u64>,
    ids: Vec<u32>,
    values: Vec<f64>,
}

impl Ragged {
    fn with_capacity(lists: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(lists + 1);
        offsets.push(0);
        Ragged {
            offsets,
            ids: Vec::with_capacity(entries),
            values: Vec::with_capacity(entries),
        }
    }

    fn from_lists(lists: &[Vec<(u32, f64)>]) -> Self {
        let mut flat = Ragged::with_capacity(lists.len(), lists.iter().map(Vec::len).sum());
        for list in lists {
            flat.ids.extend(list.iter().map(|&(id, _)| id));
            flat.values.extend(list.iter().map(|&(_, v)| v));
            flat.close();
        }
        flat
    }

    /// Appends entries to the open (last) list.
    fn extend(&mut self, ids: &[u32], values: &[f64]) {
        self.ids.extend_from_slice(ids);
        self.values.extend_from_slice(values);
    }

    /// Closes the open list; later entries start the next one.
    fn close(&mut self) {
        self.offsets.push(self.ids.len() as u64);
    }
}

/// The unmerged rest of one shard's posting list in
/// [`ConceptIndex::coalesce`]'s k-way merge: never empty, and ordered so
/// that the max-heap's top is the best head under [`cmp_ranked`].
struct MergeHead<'a> {
    ids: &'a [u32],
    scores: &'a [f64],
}

impl Ord for MergeHead<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_ranked(other.scores[0], other.ids[0], self.scores[0], self.ids[0])
    }
}

impl PartialOrd for MergeHead<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for MergeHead<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for MergeHead<'_> {}

/// The offline concept index: tf-idf resource vectors plus a
/// block-structured SoA inverted index from concepts to resources.
#[derive(Debug, Clone)]
pub struct ConceptIndex {
    exact: IndexArrays,
    /// Compressed hot mirror of the posting arrays (bit-packed ids,
    /// quantized impact bounds), always present — derived at build/load
    /// or restored verbatim from a compressed artifact.
    compressed: CompressedPostings,
}

impl ConceptIndex {
    /// Builds the index: for every resource, tag occurrence counts
    /// `c(t, r)` are aggregated into concept counts `c(l, r)`, normalized
    /// to `tf` (Eq. 2) and weighted by `idf` (Eq. 1). A tag's count is
    /// spread over its concepts by their [`ConceptAssignment`] weights.
    pub fn build(folksonomy: &Folksonomy, concepts: &dyn ConceptAssignment) -> Self {
        let n_resources = folksonomy.num_resources();
        let n_concepts = concepts.num_concepts();

        // Concept counts per resource + document frequencies. One dense
        // scratch accumulator with a touched-list is reused across all
        // resources (cleared sparsely), instead of a fresh zeroed
        // `vec![0.0; n_concepts]` per resource.
        let mut doc_freq = vec![0usize; n_concepts];
        let mut raw_counts: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n_resources);
        let mut scratch = vec![0.0f64; n_concepts];
        let mut touched: Vec<u32> = Vec::new();
        for r in 0..n_resources {
            touched.clear();
            for (t, c) in folksonomy.resource_tag_counts(ResourceId::from_index(r)) {
                concepts.for_each_weight(t.index(), &mut |l, w| {
                    if scratch[l] == 0.0 {
                        touched.push(l as u32);
                    }
                    scratch[l] += w * c as f64;
                });
            }
            touched.sort_unstable();
            let mut sparse: Vec<(u32, f64)> = Vec::with_capacity(touched.len());
            for &l in &touched {
                let c = scratch[l as usize];
                scratch[l as usize] = 0.0;
                if c > 0.0 {
                    sparse.push((l, c));
                    doc_freq[l as usize] += 1;
                }
            }
            raw_counts.push(sparse);
        }

        let n = n_resources as f64;
        let idf: Vec<f64> = doc_freq
            .iter()
            .map(|&df| if df == 0 { 0.0 } else { (n / df as f64).ln() })
            .collect();

        // tf-idf vectors, norms, impact-ordered inverted index.
        let mut resource_vectors = Vec::with_capacity(n_resources);
        let mut resource_norms = Vec::with_capacity(n_resources);
        let mut postings: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_concepts];
        for (r, counts) in raw_counts.into_iter().enumerate() {
            let total: f64 = counts.iter().map(|&(_, c)| c).sum();
            let vector: Vec<(u32, f64)> = counts
                .into_iter()
                .map(|(l, c)| {
                    let tf = if total > 0.0 { c / total } else { 0.0 };
                    (l, tf * idf[l as usize])
                })
                .filter(|&(_, w)| w != 0.0)
                .collect();
            let norm: f64 = vector.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
            if norm > 0.0 {
                for &(l, w) in &vector {
                    postings[l as usize].push((r as u32, w / norm));
                }
            }
            resource_vectors.push(vector);
            resource_norms.push(norm);
        }
        for list in &mut postings {
            // Impact order; equal impacts fall back to the ranking
            // tie-break (ascending resource id) so a prefix of a list is
            // already in final ranked order for single-term queries.
            list.sort_unstable_by(|a, b| cmp_ranked(a.1, a.0, b.1, b.0));
        }

        Self::from_ragged(
            n_resources,
            n_concepts,
            idf,
            Ragged::from_lists(&resource_vectors),
            resource_norms,
            Ragged::from_lists(&postings),
        )
    }

    /// Assembles the SoA layout from flat resource vectors and posting
    /// lists. This is the single place the block structure is derived,
    /// shared by [`Self::build`], [`Self::partition_by_resource`] and
    /// [`Self::coalesce`]; posting lists must already be impact-ordered.
    /// Block maxima and per-list maxima are derived from the sorted lists
    /// (the first impact of each block / list).
    fn from_ragged(
        num_resources: usize,
        num_concepts: usize,
        idf: Vec<f64>,
        vectors: Ragged,
        resource_norms: Vec<f64>,
        postings: Ragged,
    ) -> Self {
        let mut block_offsets = Vec::with_capacity(num_concepts + 1);
        let mut block_max = Vec::new();
        let mut max_impact = Vec::with_capacity(num_concepts);
        block_offsets.push(0u64);
        for span in postings.offsets.windows(2) {
            let scores = &postings.values[span[0] as usize..span[1] as usize];
            // Lists are impact-descending, so a block's first impact is
            // its maximum.
            block_max.extend(scores.iter().step_by(BLOCK_LEN));
            block_offsets.push(block_max.len() as u64);
            max_impact.push(scores.first().copied().unwrap_or(0.0));
        }
        let Ragged {
            offsets: rv_offsets,
            ids: rv_concepts,
            values: rv_weights,
        } = vectors;
        let Ragged {
            offsets: post_offsets,
            ids: post_ids,
            values: post_scores,
        } = postings;

        let exact = IndexArrays {
            num_resources,
            num_concepts,
            idf,
            resource_norms,
            rv_offsets,
            rv_concepts,
            rv_weights,
            post_offsets,
            post_ids,
            post_scores,
            block_offsets,
            block_max,
            max_impact,
        };
        let compressed = compress_postings(&exact);
        let index = ConceptIndex { exact, compressed };
        debug_assert_eq!(index.validate(), Ok(()));
        index
    }

    /// The checked constructor behind every artifact load: restores an
    /// index from exact arrays exactly as a previous build laid them out
    /// — every array (including the impact-sorted posting order, the
    /// block maxima, and the precomputed norms) verbatim, so a loaded
    /// index answers queries bit-identically to the one that was saved —
    /// after [`IndexArrays::validate`] accepted them. `mirror` is `Some`
    /// when the artifact carried a compressed posting section (restored
    /// verbatim once proven honest against the exact arrays); `None`
    /// rederives the mirror from the validated arrays, so every restored
    /// index serves `CompressedBlockMax` either way.
    pub(crate) fn from_arrays(
        exact: IndexArrays,
        mirror: Option<CompressedPostings>,
    ) -> Result<Self, IndexDefect> {
        exact.validate().map_err(IndexDefect::Exact)?;
        let compressed = match mirror {
            Some(mirror) => {
                mirror
                    .validate_against(&exact)
                    .map_err(IndexDefect::Mirror)?;
                mirror
            }
            None => compress_postings(&exact),
        };
        Ok(ConceptIndex { exact, compressed })
    }

    /// Both halves of the validator over an assembled index — what
    /// [`Self::from_arrays`] establishes, re-checked.
    pub(crate) fn validate(&self) -> Result<(), IndexDefect> {
        self.exact.validate().map_err(IndexDefect::Exact)?;
        self.compressed
            .validate_against(&self.exact)
            .map_err(IndexDefect::Mirror)
    }

    /// The exact SoA arrays (for serialization).
    pub(crate) fn as_arrays(&self) -> &IndexArrays {
        &self.exact
    }

    /// Number of indexed resources.
    pub fn num_resources(&self) -> usize {
        self.exact.num_resources
    }

    /// Number of concepts in the space.
    pub fn num_concepts(&self) -> usize {
        self.exact.num_concepts
    }

    /// Total number of postings across all concepts.
    pub fn num_postings(&self) -> usize {
        self.exact.post_ids.len()
    }

    /// `idf` of a concept (Eq. 1's `log(N/n_l)`).
    pub fn idf(&self, concept: usize) -> f64 {
        self.exact.idf[concept]
    }

    /// The sparse tf-idf vector of a resource (Eq. 3), ascending concept
    /// id.
    pub fn resource_vector(&self, r: usize) -> ResourceVectorRef<'_> {
        let lo = self.exact.rv_offsets[r] as usize;
        let hi = self.exact.rv_offsets[r + 1] as usize;
        ResourceVectorRef {
            concepts: &self.exact.rv_concepts[lo..hi],
            weights: &self.exact.rv_weights[lo..hi],
        }
    }

    /// L2 norm of a resource's tf-idf vector.
    pub fn resource_norm(&self, r: usize) -> f64 {
        self.exact.resource_norms[r]
    }

    /// The impact-ordered posting list of a concept: parallel
    /// `(resource, impact)` arrays with `impact = w(l, r) / ‖r‖`,
    /// descending.
    pub fn postings(&self, concept: usize) -> PostingsRef<'_> {
        let lo = self.exact.post_offsets[concept] as usize;
        let hi = self.exact.post_offsets[concept + 1] as usize;
        PostingsRef {
            ids: &self.exact.post_ids[lo..hi],
            scores: &self.exact.post_scores[lo..hi],
        }
    }

    /// The block maxima of a concept's posting list: entry `b` is the
    /// maximum impact among postings `[b·BLOCK_LEN, (b+1)·BLOCK_LEN)` of
    /// the list (the last block may be short).
    pub fn block_maxima(&self, concept: usize) -> &[f64] {
        let lo = self.exact.block_offsets[concept] as usize;
        let hi = self.exact.block_offsets[concept + 1] as usize;
        &self.exact.block_max[lo..hi]
    }

    /// Maximum impact in a concept's posting list (0 if empty).
    pub fn max_impact(&self, concept: usize) -> f64 {
        self.exact.max_impact[concept]
    }

    /// The compressed hot mirror of the posting arrays.
    pub(crate) fn compressed(&self) -> &CompressedPostings {
        &self.compressed
    }

    /// Global index of a concept's first block (its block-maxima slice
    /// and its compressed per-block metadata start here).
    pub(crate) fn first_block(&self, concept: usize) -> usize {
        self.exact.block_offsets[concept] as usize
    }

    /// Offset of a concept's first posting in the flat posting arrays
    /// (indexes the per-posting `quant` array of the compressed mirror).
    pub(crate) fn posting_start(&self, concept: usize) -> usize {
        self.exact.post_offsets[concept] as usize
    }

    /// Bytes the compressed query path keeps hot per steady-state scan:
    /// packed ids, quantized impacts, and the per-block metadata. The
    /// exact `post_ids`/`post_scores` arrays (the rescore side) and the
    /// shared `block_max` bounds are excluded, mirroring how
    /// [`Self::uncompressed_hot_bytes`] counts only the id/score
    /// streams.
    pub fn compressed_hot_bytes(&self) -> usize {
        let c = &self.compressed;
        c.packed_ids.len()
            + c.quant.len()
            + c.blk_base.len() * std::mem::size_of::<u32>()
            + c.blk_bits.len()
            + c.blk_scale.len() * std::mem::size_of::<f32>()
            + c.blk_offset.len() * std::mem::size_of::<f32>()
            + c.blk_pack_start.len() * std::mem::size_of::<u64>()
    }

    /// Bytes the uncompressed paths stream per steady-state scan: the
    /// exact id and impact arrays (12 bytes per posting).
    pub fn uncompressed_hot_bytes(&self) -> usize {
        self.exact.post_ids.len() * std::mem::size_of::<u32>()
            + self.exact.post_scores.len() * std::mem::size_of::<f64>()
    }

    /// Maps query tags to a [`PreparedQuery`]: each tag occurrence counts
    /// 1, spread over its concept memberships, normalized and idf-weighted
    /// exactly like resource vectors. Returns `None` when
    /// no known tag or no positively-weighted concept survives.
    pub fn prepare_query(
        &self,
        concepts: &dyn ConceptAssignment,
        tags: &[TagId],
    ) -> Option<PreparedQuery> {
        let mut counts = vec![0.0f64; self.exact.num_concepts];
        let mut total = 0.0;
        for t in tags {
            if t.index() < concepts.num_tags() {
                concepts.for_each_weight(t.index(), &mut |l, w| {
                    counts[l] += w;
                });
                total += 1.0;
            }
        }
        if total == 0.0 {
            return None;
        }
        // Terms — and the norm's sum — run in ascending concept order, so
        // every query path sums the norm identically; the MaxScore term
        // order is applied after.
        let mut terms: Vec<(u32, f64)> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0.0)
            .map(|(l, &c)| (l as u32, (c / total) * self.exact.idf[l]))
            .filter(|&(_, w)| w != 0.0)
            .collect();
        let norm: f64 = terms.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        if norm == 0.0 {
            return None;
        }
        self.order_terms(&mut terms);
        Some(PreparedQuery { terms, norm })
    }

    /// Sorts query terms by descending `weight * max_impact` — the shared
    /// MaxScore processing order. The exact reference path and both pruned
    /// engine paths consume terms in this order, which makes their
    /// floating-point accumulation sequences — and hence scores —
    /// identical for every surviving resource.
    pub(crate) fn order_terms(&self, terms: &mut [(u32, f64)]) {
        order_terms_with(terms, &self.exact.max_impact);
    }

    /// Copies out the shard of this index owned by `shard` of
    /// `num_shards` under the deterministic modulo partition
    /// (resource `r` belongs to shard `r % num_shards`).
    ///
    /// The shard keeps the **global** resource-id space and the
    /// **global** idf array verbatim, so a query prepared against any
    /// shard is bit-identical to one prepared against the full index;
    /// only the postings, resource vectors, and norms of member
    /// resources are retained (non-members read as unindexed: empty
    /// vector, zero norm, no postings). Per-list metadata — block
    /// structure, block maxima, per-list maxima — is rederived from the
    /// filtered lists, whose impact order is inherited from the full
    /// index, so every per-shard structural invariant the index
    /// validator checks holds by construction. Kept impacts are the
    /// full index's bytes, untouched: a resource scores bit-identically
    /// in its shard and in the full index.
    pub fn partition_by_resource(&self, shard: usize, num_shards: usize) -> ConceptIndex {
        assert!(num_shards >= 1, "num_shards must be >= 1");
        assert!(shard < num_shards, "shard {shard} out of {num_shards}");
        let member = |r: usize| r % num_shards == shard;
        let mut resource_vectors = Vec::with_capacity(self.exact.num_resources);
        let mut resource_norms = Vec::with_capacity(self.exact.num_resources);
        for r in 0..self.exact.num_resources {
            if member(r) {
                resource_vectors.push(self.resource_vector(r).iter().collect());
                resource_norms.push(self.resource_norm(r));
            } else {
                resource_vectors.push(Vec::new());
                resource_norms.push(0.0);
            }
        }
        let postings: Vec<Vec<(u32, f64)>> = (0..self.exact.num_concepts)
            .map(|l| {
                self.postings(l)
                    .iter()
                    .filter(|&(r, _)| member(r as usize))
                    .collect()
            })
            .collect();
        Self::from_ragged(
            self.exact.num_resources,
            self.exact.num_concepts,
            self.exact.idf.clone(),
            Ragged::from_lists(&resource_vectors),
            resource_norms,
            Ragged::from_lists(&postings),
        )
    }

    /// Merges resource-partitioned shard indices (the output of
    /// [`Self::partition_by_resource`], or shard artifacts loaded from a
    /// manifest) back into one unsharded index — the inverse of
    /// partitioning, used by the shard layer to serve small corpora
    /// through a single coalesced engine instead of an N-way scatter.
    ///
    /// Exactness: every resource's vector and norm are copied verbatim
    /// from its owning shard (`r % shards.len()`), and each concept's
    /// posting list is a k-way merge of the shards' lists. Each of those
    /// is already sorted under [`cmp_ranked`], a *total* order (impact
    /// descending, ties ascending by resource id), and the shards hold
    /// disjoint resources, so the merge emits exactly the list that
    /// sorting their concatenation gives — byte-identical to the one
    /// [`Self::build`] would emit, however the postings were spread
    /// across shards. Per-list metadata is rederived by
    /// [`Self::from_ragged`] exactly as at build time. Cost: O(V + P log
    /// k + C·k) for V resource-vector entries, P postings, C concepts
    /// and k shards, where sorting the concatenation is O(P log P). The
    /// caller (`ShardSet::from_parts`) has already validated matching
    /// shapes, identical idf arrays, and modulo membership.
    pub(crate) fn coalesce(shards: &[&ConceptIndex]) -> ConceptIndex {
        assert!(!shards.is_empty(), "coalesce needs at least one shard");
        let n = shards.len();
        let num_resources = shards[0].num_resources();
        let num_concepts = shards[0].num_concepts();
        let rv_nnz = shards.iter().map(|s| s.exact.rv_concepts.len()).sum();
        let mut vectors = Ragged::with_capacity(num_resources, rv_nnz);
        let mut resource_norms = Vec::with_capacity(num_resources);
        for r in 0..num_resources {
            let owner = &shards[r % n].exact;
            let span = owner.rv_offsets[r] as usize..owner.rv_offsets[r + 1] as usize;
            vectors.extend(&owner.rv_concepts[span.clone()], &owner.rv_weights[span]);
            vectors.close();
            resource_norms.push(owner.resource_norms[r]);
        }
        let n_postings = shards.iter().map(|s| s.num_postings()).sum();
        let mut postings = Ragged::with_capacity(num_concepts, n_postings);
        let mut heads = BinaryHeap::with_capacity(n);
        for l in 0..num_concepts {
            heads.extend(
                shards
                    .iter()
                    .map(|s| s.postings(l))
                    .filter(|p| !p.is_empty())
                    .map(|p| MergeHead {
                        ids: p.ids,
                        scores: p.scores,
                    }),
            );
            while heads.len() > 1 {
                if let Some(mut best) = heads.peek_mut() {
                    postings.extend(&best.ids[..1], &best.scores[..1]);
                    if best.ids.len() == 1 {
                        PeekMut::pop(best);
                    } else {
                        best.ids = &best.ids[1..];
                        best.scores = &best.scores[1..];
                    }
                }
            }
            if let Some(last) = heads.pop() {
                postings.extend(last.ids, last.scores);
            }
            postings.close();
        }
        Self::from_ragged(
            num_resources,
            num_concepts,
            shards[0].exact.idf.clone(),
            vectors,
            resource_norms,
            postings,
        )
    }

    /// Exhaustive reference ranking: dense accumulation over every posting
    /// of every term, full sort, truncate. `top_k = 0` returns all
    /// matches. This is the path the paper describes (Eq. 4 over the
    /// inverted index) and the ground truth for the pruned engine.
    pub fn rank_exact(&self, query: &PreparedQuery, top_k: usize) -> Vec<RankedResource> {
        let mut scores = vec![0.0f64; self.exact.num_resources];
        for &(l, wq) in &query.terms {
            let p = self.postings(l as usize);
            for (r, w) in p.iter() {
                scores[r as usize] += wq * w;
            }
        }
        let mut ranked: Vec<RankedResource> = scores
            .iter()
            .enumerate()
            .filter(|(_, &s)| s > 0.0)
            .map(|(r, &s)| RankedResource {
                resource: ResourceId::from_index(r),
                score: s / query.norm,
            })
            .collect();
        ranked.sort_unstable_by(|a, b| {
            cmp_ranked(
                a.score,
                a.resource.index() as u32,
                b.score,
                b.resource.index() as u32,
            )
        });
        if top_k > 0 {
            ranked.truncate(top_k);
        }
        ranked
    }

    /// Transforms query tags into the concept space and ranks resources by
    /// cosine similarity. Unknown concepts (empty `idf`) contribute nothing;
    /// resources with zero similarity are omitted. Ties break by resource id
    /// for determinism. `top_k = 0` returns all matches.
    ///
    /// Convenience wrapper over the exact reference path; latency-critical
    /// callers should use [`crate::query::QueryEngine`] instead.
    pub fn query_tag_ids(
        &self,
        concepts: &dyn ConceptAssignment,
        tags: &[TagId],
        top_k: usize,
    ) -> Vec<RankedResource> {
        match self.prepare_query(concepts, tags) {
            Some(query) => self.rank_exact(&query, top_k),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubelsi_folksonomy::FolksonomyBuilder;

    /// The ids of block `blk` (holding `len` postings), through the one
    /// decode the query path and the validator use.
    fn decode_ids(c: &CompressedPostings, blk: usize, len: usize) -> Vec<u32> {
        let mut ids = vec![0; len];
        c.for_each_block_id(blk, len, |j, r| ids[j] = r);
        ids
    }

    /// Corpus: r1 tagged with music-ish tags, r2 with both, r3 with tech.
    fn corpus() -> (Folksonomy, ConceptModel) {
        let mut b = FolksonomyBuilder::new();
        // music concept tags: audio(0), mp3(1); tech: laptop(2), wifi(3).
        b.add("u1", "audio", "r1");
        b.add("u2", "audio", "r1");
        b.add("u3", "mp3", "r1");
        b.add("u1", "audio", "r2");
        b.add("u2", "laptop", "r2");
        b.add("u1", "laptop", "r3");
        b.add("u2", "wifi", "r3");
        b.add("u3", "laptop", "r3");
        let f = b.build();
        let concepts = ConceptModel::from_assignments(vec![0, 0, 1, 1], 1.0);
        (f, concepts)
    }

    /// Concatenate-and-sort: the reference [`ConceptIndex::coalesce`]'s
    /// k-way merge must equal.
    fn coalesce_by_sort(shards: &[&ConceptIndex]) -> ConceptIndex {
        let n = shards.len();
        let num_resources = shards[0].num_resources();
        let num_concepts = shards[0].num_concepts();
        let owner = |r: usize| shards[r % n];
        let postings: Vec<Vec<(u32, f64)>> = (0..num_concepts)
            .map(|l| {
                let mut list: Vec<(u32, f64)> =
                    shards.iter().flat_map(|s| s.postings(l).iter()).collect();
                list.sort_unstable_by(|a, b| cmp_ranked(a.1, a.0, b.1, b.0));
                list
            })
            .collect();
        let vectors: Vec<Vec<(u32, f64)>> = (0..num_resources)
            .map(|r| owner(r).resource_vector(r).iter().collect())
            .collect();
        ConceptIndex::from_ragged(
            num_resources,
            num_concepts,
            shards[0].exact.idf.clone(),
            Ragged::from_lists(&vectors),
            (0..num_resources)
                .map(|r| owner(r).resource_norm(r))
                .collect(),
            Ragged::from_lists(&postings),
        )
    }

    /// Every array of two indexes, floats compared by their bits.
    fn assert_same_index(a: &ConceptIndex, b: &ConceptIndex, what: &str) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let (a, b, mirrors) = (
            &a.exact,
            &b.exact,
            [format!("{:?}", a.compressed), format!("{:?}", b.compressed)],
        );
        assert_eq!(a.num_resources, b.num_resources, "{what}");
        assert_eq!(a.num_concepts, b.num_concepts, "{what}");
        for (x, y) in [
            (&a.idf, &b.idf),
            (&a.resource_norms, &b.resource_norms),
            (&a.rv_weights, &b.rv_weights),
            (&a.post_scores, &b.post_scores),
            (&a.block_max, &b.block_max),
            (&a.max_impact, &b.max_impact),
        ] {
            assert_eq!(bits(x), bits(y), "{what}");
        }
        for (x, y) in [
            (&a.rv_offsets, &b.rv_offsets),
            (&a.post_offsets, &b.post_offsets),
            (&a.block_offsets, &b.block_offsets),
        ] {
            assert_eq!(x, y, "{what}");
        }
        assert_eq!(a.rv_concepts, b.rv_concepts, "{what}");
        assert_eq!(a.post_ids, b.post_ids, "{what}");
        assert_eq!(mirrors[0], mirrors[1], "{what}");
    }

    #[test]
    fn coalesce_merge_equals_concatenate_and_sort() {
        let mut state = 0x2011_c0a1_e5ceu64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let mut cross_shard_ties = 0;
        for case in 0..40 {
            let (resources, tags, concepts) = (1 + next(200), 1 + next(12), 1 + next(5));
            // One to three assignments per resource over a few tags: many
            // resources share a vector, so equal impacts land in
            // different shards.
            let mut b = FolksonomyBuilder::new();
            for r in 0..resources {
                for _ in 0..1 + next(3) {
                    let (u, t) = (next(4), next(tags));
                    b.add(&format!("u{u}"), &format!("t{t}"), &format!("r{r}"));
                }
            }
            let f = b.build();
            let model = ConceptModel::from_assignments(
                (0..f.num_tags()).map(|t| t % concepts).collect(),
                1.0,
            );
            let index = ConceptIndex::build(&f, &model);
            for n in [1, 2, 3, 4, 7] {
                let shards: Vec<ConceptIndex> =
                    (0..n).map(|i| index.partition_by_resource(i, n)).collect();
                let refs: Vec<&ConceptIndex> = shards.iter().collect();
                let merged = ConceptIndex::coalesce(&refs);
                let what = format!("case {case}, {n} shards");
                assert_same_index(&merged, &coalesce_by_sort(&refs), &what);
                assert_same_index(&merged, &index, &what);
                for l in 0..index.num_concepts() {
                    let p = merged.postings(l);
                    cross_shard_ties += (1..p.len())
                        .filter(|&j| {
                            p.scores[j] == p.scores[j - 1]
                                && p.ids[j] as usize % n != p.ids[j - 1] as usize % n
                        })
                        .count();
                }
            }
        }
        assert!(
            cross_shard_ties > 100,
            "only {cross_shard_ties} cross-shard ties"
        );
    }

    #[test]
    fn tfidf_weights_follow_eq1_eq2() {
        let (f, concepts) = corpus();
        let index = ConceptIndex::build(&f, &concepts);
        // Concept 0 (music) appears in r1, r2 → df = 2 of N = 3.
        assert!((index.idf(0) - (3.0f64 / 2.0).ln()).abs() < 1e-12);
        // Concept 1 (tech) appears in r2, r3 → same idf.
        assert!((index.idf(1) - (3.0f64 / 2.0).ln()).abs() < 1e-12);
        // r1: 3 music occurrences, 0 tech → tf(music) = 1.
        let r1 = f.resource_id("r1").unwrap().index();
        let v1 = index.resource_vector(r1);
        assert_eq!(v1.len(), 1);
        assert_eq!(v1.concepts[0], 0);
        assert!((v1.weights[0] - 1.0 * (1.5f64).ln()).abs() < 1e-12);
        // r2: 1 music + 1 tech → tf = 0.5 each.
        let r2 = f.resource_id("r2").unwrap().index();
        let v2 = index.resource_vector(r2);
        assert_eq!(v2.len(), 2);
        assert!((v2.weights[0] - 0.5 * (1.5f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn music_query_ranks_music_resource_first() {
        let (f, concepts) = corpus();
        let index = ConceptIndex::build(&f, &concepts);
        let audio = f.tag_id("audio").unwrap();
        let ranked = index.query_tag_ids(&concepts, &[audio], 0);
        assert_eq!(ranked.len(), 2, "r1 and r2 match the music concept");
        assert_eq!(f.resource_name(ranked[0].resource), "r1");
        assert!(ranked[0].score > ranked[1].score);
        // Pure-concept resource has cosine exactly 1 with a pure query.
        assert!((ranked[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn synonym_query_matches_via_concepts() {
        // The whole point of CubeLSI: querying "mp3" must retrieve r2 even
        // though r2 was never tagged "mp3" — they share the music concept.
        let (f, concepts) = corpus();
        let index = ConceptIndex::build(&f, &concepts);
        let mp3 = f.tag_id("mp3").unwrap();
        let ranked = index.query_tag_ids(&concepts, &[mp3], 0);
        let names: Vec<&str> = ranked.iter().map(|r| f.resource_name(r.resource)).collect();
        assert!(names.contains(&"r2"), "concept match must reach r2");
    }

    #[test]
    fn multi_tag_query_blends_concepts() {
        let (f, concepts) = corpus();
        let index = ConceptIndex::build(&f, &concepts);
        let audio = f.tag_id("audio").unwrap();
        let laptop = f.tag_id("laptop").unwrap();
        let ranked = index.query_tag_ids(&concepts, &[audio, laptop], 0);
        // r2 holds both concepts → best match.
        assert_eq!(f.resource_name(ranked[0].resource), "r2");
        assert_eq!(ranked.len(), 3);
    }

    #[test]
    fn top_k_truncates() {
        let (f, concepts) = corpus();
        let index = ConceptIndex::build(&f, &concepts);
        let audio = f.tag_id("audio").unwrap();
        let ranked = index.query_tag_ids(&concepts, &[audio], 1);
        assert_eq!(ranked.len(), 1);
    }

    #[test]
    fn empty_and_unknown_queries() {
        let (f, concepts) = corpus();
        let index = ConceptIndex::build(&f, &concepts);
        assert!(index.query_tag_ids(&concepts, &[], 0).is_empty());
        // A tag id beyond the concept model is ignored defensively.
        let bogus = TagId::from_index(99);
        assert!(index.query_tag_ids(&concepts, &[bogus], 0).is_empty());
        let _ = f;
    }

    #[test]
    fn scores_ranked_descending_with_deterministic_ties() {
        let (f, concepts) = corpus();
        let index = ConceptIndex::build(&f, &concepts);
        let laptop = f.tag_id("laptop").unwrap();
        let ranked = index.query_tag_ids(&concepts, &[laptop], 0);
        for w in ranked.windows(2) {
            assert!(
                w[0].score > w[1].score
                    || (w[0].score == w[1].score && w[0].resource < w[1].resource)
            );
        }
    }

    #[test]
    fn postings_are_impact_ordered_with_max_metadata() {
        let (f, concepts) = corpus();
        let index = ConceptIndex::build(&f, &concepts);
        for l in 0..index.num_concepts() {
            let list = index.postings(l);
            for j in 1..list.len() {
                assert!(
                    list.scores[j - 1] > list.scores[j]
                        || (list.scores[j - 1] == list.scores[j] && list.ids[j - 1] < list.ids[j]),
                    "postings of concept {l} not impact-ordered"
                );
            }
            let expected_max = list.scores.first().copied().unwrap_or(0.0);
            assert_eq!(index.max_impact(l), expected_max);
            // Every impact is a normalized weight: within (0, 1].
            for (r, w) in list.iter() {
                assert!(w > 0.0 && w <= 1.0 + 1e-12, "impact out of range");
                let norm = index.resource_norm(r as usize);
                assert!(norm > 0.0);
            }
        }
    }

    #[test]
    fn block_maxima_match_block_heads() {
        // Long single-concept lists spanning several blocks: block maxima
        // must equal the first impact of every block.
        let mut b = FolksonomyBuilder::new();
        for r in 0..300 {
            b.add("u1", "t", &format!("r{r}"));
            if r % 3 == 0 {
                b.add("u2", "other", &format!("r{r}"));
            }
        }
        let f = b.build();
        let concepts = ConceptModel::from_assignments(vec![0, 1], 1.0);
        let index = ConceptIndex::build(&f, &concepts);
        for l in 0..index.num_concepts() {
            let list = index.postings(l);
            let blocks = index.block_maxima(l);
            assert_eq!(blocks.len(), list.len().div_ceil(BLOCK_LEN));
            for (bi, &bm) in blocks.iter().enumerate() {
                let lo = bi * BLOCK_LEN;
                let hi = (lo + BLOCK_LEN).min(list.len());
                let head = list.scores[lo];
                assert_eq!(bm.to_bits(), head.to_bits(), "block {bi} of concept {l}");
                for &w in &list.scores[lo..hi] {
                    assert!(w <= bm, "block max must dominate its block");
                }
            }
        }
    }

    #[test]
    fn compressed_blocks_decode_exactly_and_bound_impacts() {
        // Multi-block lists: decoded ids must equal the exact id array
        // bitwise, every dequantized impact must dominate its exact
        // impact, and the byte layout must honor the pack offsets.
        let mut b = FolksonomyBuilder::new();
        for r in 0..517 {
            b.add("u1", "t", &format!("r{r}"));
            if r % 3 == 0 {
                b.add("u2", "other", &format!("r{r}"));
            }
            if r % 7 == 0 {
                b.add("u3", "t", &format!("r{r}"));
            }
        }
        let f = b.build();
        let concepts = ConceptModel::from_assignments(vec![0, 1], 1.0);
        let index = ConceptIndex::build(&f, &concepts);
        let c = index.compressed();
        assert_eq!(c.num_blocks(), index.exact.block_max.len());
        assert_eq!(c.quant.len(), index.num_postings());
        assert_eq!(c.blk_pack_start.len(), c.num_blocks() + 1);
        assert_eq!(
            *c.blk_pack_start.last().unwrap() as usize + 8,
            c.packed_ids.len(),
            "pack offsets must end at the guard bytes"
        );
        for l in 0..index.num_concepts() {
            let list = index.postings(l);
            let first_blk = index.exact.block_offsets[l] as usize;
            let base_post = index.exact.post_offsets[l] as usize;
            for local in 0..list.len().div_ceil(BLOCK_LEN) {
                let lo = local * BLOCK_LEN;
                let hi = (lo + BLOCK_LEN).min(list.len());
                let blk = first_blk + local;
                assert_eq!(
                    decode_ids(c, blk, hi - lo),
                    &list.ids[lo..hi],
                    "block {blk}"
                );
                let scale = c.blk_scale[blk] as f64;
                let offset = c.blk_offset[blk] as f64;
                for j in lo..hi {
                    let q = c.quant[base_post + j] as f64;
                    assert!(
                        offset + scale * q >= list.scores[j],
                        "dequantized bound must dominate exact impact \
                         (block {blk}, posting {j})"
                    );
                }
                assert!(c.blk_bits[blk] <= 32);
            }
        }
        // Hot footprint: strictly below the 12 B/posting exact streams
        // (and below the 4 B/posting acceptance target on this corpus).
        assert!(index.compressed_hot_bytes() < index.uncompressed_hot_bytes());
        assert!(index.compressed_hot_bytes() <= 4 * index.num_postings());
    }

    #[test]
    fn compression_handles_degenerate_blocks() {
        // Single-posting lists (width-0 blocks, scale-0 quantization) and
        // an empty concept must compress without panicking.
        let mut b = FolksonomyBuilder::new();
        b.add("u1", "only", "r5");
        b.add("u1", "pair", "r5");
        b.add("u2", "pair", "r9");
        let f = b.build();
        let concepts = ConceptModel::from_assignments(vec![0, 1], 1.0);
        let index = ConceptIndex::build(&f, &concepts);
        for l in 0..index.num_concepts() {
            let list = index.postings(l);
            if list.is_empty() {
                continue;
            }
            let blk = index.exact.block_offsets[l] as usize;
            assert_eq!(decode_ids(&index.compressed, blk, list.len()), list.ids);
        }
    }

    #[test]
    fn prepared_terms_follow_maxscore_order() {
        let (f, concepts) = corpus();
        let index = ConceptIndex::build(&f, &concepts);
        let audio = f.tag_id("audio").unwrap();
        let laptop = f.tag_id("laptop").unwrap();
        let wifi = f.tag_id("wifi").unwrap();
        let q = index
            .prepare_query(&concepts, &[audio, laptop, wifi])
            .unwrap();
        assert!(!q.terms.is_empty());
        assert!(q.norm > 0.0);
        for w in q.terms.windows(2) {
            let b0 = w[0].1 * index.max_impact(w[0].0 as usize);
            let b1 = w[1].1 * index.max_impact(w[1].0 as usize);
            assert!(b0 >= b1, "terms must be in descending bound order");
        }
    }

    #[test]
    fn idf_zero_concept_is_inert() {
        // A concept that annotates every resource gets idf 0 and must not
        // influence ranking.
        let mut b = FolksonomyBuilder::new();
        b.add("u1", "common", "r1");
        b.add("u1", "common", "r2");
        b.add("u1", "niche", "r2");
        let f = b.build();
        let concepts = ConceptModel::from_assignments(vec![0, 1], 1.0);
        let index = ConceptIndex::build(&f, &concepts);
        assert_eq!(index.idf(0), 0.0);
        let common = f.tag_id("common").unwrap();
        assert!(index.query_tag_ids(&concepts, &[common], 0).is_empty());
        let niche = f.tag_id("niche").unwrap();
        let ranked = index.query_tag_ids(&concepts, &[niche], 0);
        assert_eq!(ranked.len(), 1);
        assert_eq!(f.resource_name(ranked[0].resource), "r2");
    }

    /// Every width 0..=32 and every block length 1..=64 survives
    /// `pack_block_ids` → [`CompressedPostings::for_each_block_id`],
    /// each run ending flush against the 8 guard bytes (the tightest
    /// layout `compress_postings` emits), with the block's largest delta
    /// in its last slot, whose window reaches into the guard bytes.
    #[test]
    fn packed_ids_round_trip_at_every_width() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for bits in 0..=32usize {
            let mask = ((1u64 << bits) - 1) as u32;
            for len in 1..=BLOCK_LEN {
                let base = next() as u32 & (u64::from(u32::MAX) >> bits) as u32;
                let mut ids: Vec<u32> = (0..len).map(|_| base + (next() as u32 & mask)).collect();
                ids[0] = base;
                ids[len - 1] = base + mask;
                let mut packed_ids = Vec::new();
                pack_block_ids(&mut packed_ids, &ids, base, bits);
                let used = packed_ids.len() as u64;
                assert_eq!(used, (len * bits).div_ceil(8) as u64);
                packed_ids.extend_from_slice(&[0u8; 8]);
                let mirror = CompressedPostings {
                    blk_base: vec![base],
                    blk_bits: vec![bits as u8],
                    blk_pack_start: vec![0, used],
                    packed_ids,
                    ..CompressedPostings::default()
                };
                assert_eq!(decode_ids(&mirror, 0, len), ids, "bits={bits} len={len}");
            }
        }
    }

    #[test]
    fn structural_validator_accepts_builds_and_flags_corruption() {
        let (f, concepts) = corpus();
        let index = ConceptIndex::build(&f, &concepts);
        assert_eq!(index.validate(), Ok(()));
        let exact_err = |bad: &ConceptIndex| match bad.validate() {
            Err(IndexDefect::Exact(err)) => err,
            other => panic!("expected an exact-array defect, got {other:?}"),
        };
        let mirror_err = |bad: &ConceptIndex| match bad.validate() {
            Err(IndexDefect::Mirror(err)) => err,
            other => panic!("expected a mirror defect, got {other:?}"),
        };

        // Block-max drift: one cached maximum no longer matches its
        // block's first impact.
        let mut bad = index.clone();
        bad.exact.block_max[0] += 1.0;
        let err = exact_err(&bad);
        assert!(err.contains("disagrees with head impact"), "{err}");

        // Stale per-concept bound.
        let mut bad = index.clone();
        bad.exact.max_impact[0] *= 0.5;
        let err = exact_err(&bad);
        assert!(err.contains("disagrees with list head"), "{err}");

        // Impact order broken: reverse one posting list in place.
        let mut bad = index.clone();
        let (lo, hi) = (
            bad.exact.post_offsets[0] as usize,
            bad.exact.post_offsets[1] as usize,
        );
        assert!(hi - lo >= 2 && bad.exact.post_scores[lo] != bad.exact.post_scores[hi - 1]);
        bad.exact.post_scores[lo..hi].reverse();
        let err = exact_err(&bad);
        assert!(err.contains("out of impact order"), "{err}");

        // Pack-run chain: dropping a byte breaks the chain-end + guard
        // accounting the decode's windows rely on.
        let mut bad = index.clone();
        bad.compressed.packed_ids.pop();
        let err = mirror_err(&bad);
        assert!(err.contains("packed runs end at"), "{err}");

        // Dirty guard byte.
        let mut bad = index.clone();
        *bad.compressed.packed_ids.last_mut().unwrap() = 1;
        let err = mirror_err(&bad);
        assert!(err.contains("nonzero guard bytes"), "{err}");

        // Non-monotone offsets.
        let mut bad = index.clone();
        let end = *bad.exact.post_offsets.last().unwrap();
        bad.exact.post_offsets[1] = end + 1;
        let err = exact_err(&bad);
        assert!(err.contains("posting offsets"), "{err}");

        // Term weights the pruned engine's bounds do not survive.
        for hostile in [-1.0, f64::NAN, f64::INFINITY] {
            let mut bad = index.clone();
            bad.exact.idf[0] = hostile;
            let err = exact_err(&bad);
            assert!(err.contains("idf"), "{err}");
        }
    }
}
