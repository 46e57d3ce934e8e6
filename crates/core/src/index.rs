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
//!   ascending resource id, the ranking tie-break), so the per-list
//!   maximum is simply the first impact.
//! * **Block maxima** — every list is carved into fixed [`BLOCK_LEN`]
//!   posting blocks, each carrying its maximum impact in a separate dense
//!   array. The block-max query path checks one bound per block instead of
//!   one per posting, and skips whole blocks that cannot beat the current
//!   top-k threshold. A list's maximum ([`ConceptIndex::max_impact`], the
//!   MaxScore term-ordering key) is its first block's maximum.
//!
//! The index holds these posting arrays, the `idf` table and nothing
//! else: the resources' tf-idf vectors (Eq. 3) and norms exist only
//! inside [`ConceptIndex::build`], which forms the impacts from them and
//! drops them. All arrays are plain `Vec`s, and [`ConceptIndex::build`]
//! is the one way to make them: an artifact stores the corpus and the
//! concept map,
//! and every load builds the index from those, so a loaded index is the
//! built one bit for bit. Debug builds check every assembled index with
//! `IndexArrays::validate`. The actual pruned query engine lives in
//! [`crate::query`]; this module keeps the exhaustive
//! [`ConceptIndex::rank_exact`] path as the reference implementation the
//! engine is tested against.

use crate::concepts::ConceptModel;
use cubelsi_folksonomy::{Folksonomy, ResourceId, TagId};

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

/// The SoA arrays of an index: what a build assembles and what
/// [`Self::validate`] guards.
#[derive(Debug, Clone)]
pub(crate) struct IndexArrays {
    pub num_resources: usize,
    pub num_concepts: usize,
    /// `idf[l] = log(N / n_l)`; 0 for unseen concepts (Eq. 1).
    pub idf: Vec<f64>,
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
}

impl IndexArrays {
    /// The structural validator debug builds run on every assembled
    /// index: shape coherence (checked first, so every index after it is
    /// in bounds), offset monotonicity, id ranges, finite non-negative
    /// idf (the pruned engine's bounds assume non-negative term weights),
    /// finite impacts with a clear sign bit, per-list impact order (the
    /// pruning loops' exactness relies on both), and block geometry and
    /// block maxima consistent with the score arrays. Returns a
    /// description of the first violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let IndexArrays {
            num_resources,
            num_concepts,
            idf,
            post_offsets,
            post_ids,
            post_scores,
            block_offsets,
            block_max,
        } = self;
        let (num_resources, num_concepts) = (*num_resources, *num_concepts);

        // Shape coherence first: everything below indexes on the
        // strength of it. (A count that equals a `Vec` length cannot
        // overflow the `+ 1` after it.)
        if idf.len() != num_concepts
            || post_offsets.len() != num_concepts + 1
            || block_offsets.len() != num_concepts + 1
            || post_ids.len() != post_scores.len()
        {
            return Err("posting arrays out of shape".to_owned());
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
        check_offsets(post_offsets, post_ids.len(), "posting")?;
        check_offsets(block_offsets, block_max.len(), "block")?;

        if let Some(&r) = post_ids.iter().find(|&&r| r as usize >= num_resources) {
            return Err(format!(
                "posting references unknown resource {r} of {num_resources}"
            ));
        }
        if let Some(x) = idf.iter().find(|x| !x.is_finite() || **x < 0.0) {
            return Err(format!("idf {x} is negative or not finite"));
        }
        // The pruning bounds add impacts as non-negative numbers.
        if let Some(x) = post_scores
            .iter()
            .find(|x| !x.is_finite() || x.is_sign_negative())
        {
            return Err(format!("impact {x} is not finite with a clear sign bit"));
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
            // id (the shared ranking tie-break).
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
            // (lists are descending).
            for (bi, b) in (blo..bhi).enumerate() {
                let head = post_scores[lo + bi * BLOCK_LEN];
                if block_max[b].to_bits() != head.to_bits() {
                    return Err(format!(
                        "concept {l} block {bi} max {} disagrees with head impact {head}",
                        block_max[b]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Lists shorter than this are ordered by a comparison sort, where the
/// radix passes' fixed cost (eight 256-entry histograms, a prefix sum
/// per pass) would outweigh the work per posting.
const RADIX_MIN_LEN: usize = 256;

/// Orders one posting list — ids strictly ascending on entry — into
/// [`cmp_ranked`] order: impact descending, ties by ascending id.
///
/// For a finite `f64` with its sign bit clear the bit pattern read as a
/// `u64` orders exactly as the value, so the key `!bits` sorts descending
/// impacts ascending, and a *stable* sort on it keeps the entry order —
/// ascending id — among equal impacts. Long lists get an LSD radix sort
/// that skips every pass whose byte is the same in all keys; short ones
/// sort the distinct `(key, id)` pairs, the same order. A list holding
/// a non-finite or negative-signed impact (which a build from a hostile
/// [`ConceptAssignment`] could make) falls back to sorting by
/// [`cmp_ranked`] itself. `keys` and `spare` are reused buffers.
fn sort_by_impact(
    ids: &mut [u32],
    scores: &mut [f64],
    keys: &mut Vec<(u64, u32)>,
    spare: &mut Vec<(u64, u32)>,
) {
    if !scores.iter().all(|s| s.is_finite() && s.is_sign_positive()) {
        let mut list: Vec<(u32, f64)> = ids.iter().copied().zip(scores.iter().copied()).collect();
        list.sort_unstable_by(|a, b| cmp_ranked(a.1, a.0, b.1, b.0));
        for (j, (r, s)) in list.into_iter().enumerate() {
            ids[j] = r;
            scores[j] = s;
        }
        return;
    }
    keys.clear();
    keys.extend(
        ids.iter()
            .zip(scores.iter())
            .map(|(&r, &s)| (!s.to_bits(), r)),
    );
    if keys.len() < RADIX_MIN_LEN {
        keys.sort_unstable();
    } else {
        radix_sort_keys(keys, spare);
    }
    for (j, &(key, r)) in keys.iter().enumerate() {
        ids[j] = r;
        scores[j] = f64::from_bits(!key);
    }
}

/// Stable LSD radix sort of `keys` by their `u64` key, one byte a pass,
/// skipping the passes whose byte is constant; `spare` is the second
/// buffer.
fn radix_sort_keys(keys: &mut Vec<(u64, u32)>, spare: &mut Vec<(u64, u32)>) {
    let n = keys.len();
    let mut counts = [[0usize; 256]; 8];
    for &(key, _) in keys.iter() {
        for (d, count) in counts.iter_mut().enumerate() {
            count[(key >> (8 * d)) as u8 as usize] += 1;
        }
    }
    spare.clear();
    spare.resize(n, (0, 0));
    for (d, count) in counts.iter().enumerate() {
        let shift = 8 * d;
        if count[(keys[0].0 >> shift) as u8 as usize] == n {
            continue;
        }
        let mut next = [0usize; 256];
        let mut sum = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = sum;
            sum += c;
        }
        for &entry in keys.iter() {
            let slot = &mut next[(entry.0 >> shift) as u8 as usize];
            spare[*slot] = entry;
            *slot += 1;
        }
        std::mem::swap(keys, spare);
    }
}

/// The offline concept index: a block-structured SoA inverted index from
/// concepts to resources, with the concepts' `idf`.
#[derive(Debug, Clone)]
pub struct ConceptIndex {
    arrays: IndexArrays,
}

impl ConceptIndex {
    /// Builds the index: for every resource, tag occurrence counts
    /// `c(t, r)` are aggregated into concept counts `c(l, r)`, normalized
    /// to `tf` (Eq. 2) and weighted by `idf` (Eq. 1). A tag's count is
    /// spread over its concepts by their [`ConceptAssignment`] weights.
    ///
    /// Linear passes over flat arrays: counts are written straight into
    /// local resource-vector arrays, tf-idf rewrites them in place, and
    /// each resource's impacts `w / ‖r‖` are scattered into its concepts'
    /// posting lists in ascending resource order, after which the vectors
    /// are dropped. Each list is then ordered by a stable sort on its
    /// impacts ([`sort_by_impact`]), so equal impacts keep the
    /// ascending-id tie-break of [`cmp_ranked`].
    pub fn build(folksonomy: &Folksonomy, concepts: &dyn ConceptAssignment) -> Self {
        let n_resources = folksonomy.num_resources();
        let n_concepts = concepts.num_concepts();

        // Concept counts per resource, ascending concept id, straight into
        // the resource-vector arrays (the weights array holds counts until
        // the tf-idf pass), plus document frequencies. One dense scratch
        // accumulator with a touched-list is reused across all resources
        // (cleared sparsely).
        let mut doc_freq = vec![0usize; n_concepts];
        let mut rv_offsets = Vec::with_capacity(n_resources + 1);
        let mut rv_concepts: Vec<u32> = Vec::with_capacity(folksonomy.num_assignments());
        let mut rv_weights: Vec<f64> = Vec::with_capacity(folksonomy.num_assignments());
        let mut scratch = vec![0.0f64; n_concepts];
        let mut touched: Vec<u32> = Vec::new();
        rv_offsets.push(0u64);
        for r in 0..n_resources {
            touched.clear();
            // Assignments are sorted by (tag, user): a tag's run length is
            // its count c(t, r).
            for run in folksonomy
                .resource_assignments(ResourceId::from_index(r))
                .chunk_by(|a, b| a.tag == b.tag)
            {
                let c = run.len() as f64;
                concepts.for_each_weight(run[0].tag.index(), &mut |l, w| {
                    if scratch[l] == 0.0 {
                        touched.push(l as u32);
                    }
                    scratch[l] += w * c;
                });
            }
            touched.sort_unstable();
            for &l in &touched {
                let c = std::mem::take(&mut scratch[l as usize]);
                if c > 0.0 {
                    rv_concepts.push(l);
                    rv_weights.push(c);
                    doc_freq[l as usize] += 1;
                }
            }
            rv_offsets.push(rv_concepts.len() as u64);
        }

        let n = n_resources as f64;
        let idf: Vec<f64> = doc_freq
            .iter()
            .map(|&df| if df == 0 { 0.0 } else { (n / df as f64).ln() })
            .collect();

        // tf-idf in place: each vector is compacted to its nonzero weights
        // (writes never pass reads) and its norm summed in concept order.
        // Posting-list lengths are counted on the way.
        let mut resource_norms = Vec::with_capacity(n_resources);
        let mut post_offsets = vec![0u64; n_concepts + 1];
        let mut kept = 0usize;
        for r in 0..n_resources {
            let (lo, hi) = (rv_offsets[r] as usize, rv_offsets[r + 1] as usize);
            rv_offsets[r] = kept as u64;
            let start = kept;
            let total: f64 = rv_weights[lo..hi].iter().sum();
            for j in lo..hi {
                let l = rv_concepts[j];
                let tf = if total > 0.0 {
                    rv_weights[j] / total
                } else {
                    0.0
                };
                let w = tf * idf[l as usize];
                if w != 0.0 {
                    rv_concepts[kept] = l;
                    rv_weights[kept] = w;
                    kept += 1;
                }
            }
            let norm: f64 = rv_weights[start..kept]
                .iter()
                .map(|&w| w * w)
                .sum::<f64>()
                .sqrt();
            if norm > 0.0 {
                for &l in &rv_concepts[start..kept] {
                    post_offsets[l as usize + 1] += 1;
                }
            }
            resource_norms.push(norm);
        }
        rv_offsets[n_resources] = kept as u64;

        // Posting lists: offsets from the counts, then every resource's
        // impacts scattered in ascending resource order.
        for l in 0..n_concepts {
            post_offsets[l + 1] += post_offsets[l];
        }
        let n_postings = post_offsets[n_concepts] as usize;
        let mut cursor: Vec<usize> = post_offsets[..n_concepts]
            .iter()
            .map(|&o| o as usize)
            .collect();
        let mut post_ids = vec![0u32; n_postings];
        let mut post_scores = vec![0.0f64; n_postings];
        for (r, &norm) in resource_norms.iter().enumerate() {
            if norm > 0.0 {
                let span = rv_offsets[r] as usize..rv_offsets[r + 1] as usize;
                for (&l, &w) in rv_concepts[span.clone()].iter().zip(&rv_weights[span]) {
                    let at = &mut cursor[l as usize];
                    post_ids[*at] = r as u32;
                    post_scores[*at] = w / norm;
                    *at += 1;
                }
            }
        }
        // The vectors served only to form the impacts: free them before
        // the sort's buffers grow.
        drop((rv_offsets, rv_concepts, rv_weights, resource_norms));
        let (mut keys, mut spare) = (Vec::new(), Vec::new());
        for span in post_offsets.windows(2) {
            let span = span[0] as usize..span[1] as usize;
            sort_by_impact(
                &mut post_ids[span.clone()],
                &mut post_scores[span],
                &mut keys,
                &mut spare,
            );
        }

        Self::with_blocks(IndexArrays {
            num_resources: n_resources,
            num_concepts: n_concepts,
            idf,
            post_offsets,
            post_ids,
            post_scores,
            block_offsets: Vec::new(),
            block_max: Vec::new(),
        })
    }

    /// Derives the block structure of impact-ordered posting lists: a
    /// block's maximum is its first impact. `arrays` arrives with its two
    /// block arrays empty.
    fn with_blocks(mut arrays: IndexArrays) -> Self {
        // Exact capacity: the index holds its element bytes and no more
        // (`tests/peak_memory.rs`).
        let blocks = arrays
            .post_offsets
            .windows(2)
            .map(|span| ((span[1] - span[0]) as usize).div_ceil(BLOCK_LEN))
            .sum();
        arrays.block_max.reserve_exact(blocks);
        arrays.block_offsets.reserve_exact(arrays.num_concepts + 1);
        arrays.block_offsets.push(0u64);
        for span in arrays.post_offsets.windows(2) {
            let scores = &arrays.post_scores[span[0] as usize..span[1] as usize];
            // Lists are impact-descending, so a block's first impact is
            // its maximum.
            arrays.block_max.extend(scores.iter().step_by(BLOCK_LEN));
            arrays.block_offsets.push(arrays.block_max.len() as u64);
        }
        debug_assert_eq!(arrays.validate(), Ok(()));
        ConceptIndex { arrays }
    }

    /// The SoA arrays.
    pub(crate) fn as_arrays(&self) -> &IndexArrays {
        &self.arrays
    }

    /// Number of indexed resources.
    pub fn num_resources(&self) -> usize {
        self.arrays.num_resources
    }

    /// Number of concepts in the space.
    pub fn num_concepts(&self) -> usize {
        self.arrays.num_concepts
    }

    /// Total number of postings across all concepts.
    pub fn num_postings(&self) -> usize {
        self.arrays.post_ids.len()
    }

    /// `idf` of a concept (Eq. 1's `log(N/n_l)`).
    pub fn idf(&self, concept: usize) -> f64 {
        self.arrays.idf[concept]
    }

    /// The impact-ordered posting list of a concept: parallel
    /// `(resource, impact)` arrays with `impact = w(l, r) / ‖r‖`,
    /// descending.
    pub fn postings(&self, concept: usize) -> PostingsRef<'_> {
        let lo = self.arrays.post_offsets[concept] as usize;
        let hi = self.arrays.post_offsets[concept + 1] as usize;
        PostingsRef {
            ids: &self.arrays.post_ids[lo..hi],
            scores: &self.arrays.post_scores[lo..hi],
        }
    }

    /// The block maxima of a concept's posting list: entry `b` is the
    /// maximum impact among postings `[b·BLOCK_LEN, (b+1)·BLOCK_LEN)` of
    /// the list (the last block may be short).
    pub fn block_maxima(&self, concept: usize) -> &[f64] {
        let lo = self.arrays.block_offsets[concept] as usize;
        let hi = self.arrays.block_offsets[concept + 1] as usize;
        &self.arrays.block_max[lo..hi]
    }

    /// Maximum impact in a concept's posting list (0 if empty): its
    /// first block's maximum.
    pub fn max_impact(&self, concept: usize) -> f64 {
        self.block_maxima(concept).first().copied().unwrap_or(0.0)
    }

    /// Shim for the frozen benchmark's `index.hot_bytes_per_posting` row,
    /// from when a compressed posting mirror existed: the bytes the one
    /// scan streams, [`Self::uncompressed_hot_bytes`].
    #[doc(hidden)]
    pub fn compressed_hot_bytes(&self) -> usize {
        self.uncompressed_hot_bytes()
    }

    /// Bytes the scan streams per steady-state query: the id and impact
    /// arrays (12 bytes per posting).
    pub fn uncompressed_hot_bytes(&self) -> usize {
        self.arrays.post_ids.len() * std::mem::size_of::<u32>()
            + self.arrays.post_scores.len() * std::mem::size_of::<f64>()
    }

    /// Maps query tags to a [`PreparedQuery`]: each tag occurrence counts
    /// 1, spread over its concept memberships, normalized and idf-weighted
    /// exactly like the build's resource vectors. Returns `None` when
    /// no known tag or no positively-weighted concept survives.
    pub fn prepare_query(
        &self,
        concepts: &dyn ConceptAssignment,
        tags: &[TagId],
    ) -> Option<PreparedQuery> {
        let mut counts = vec![0.0f64; self.arrays.num_concepts];
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
            .map(|(l, &c)| (l as u32, (c / total) * self.arrays.idf[l]))
            .filter(|&(_, w)| w != 0.0)
            .collect();
        let norm: f64 = terms.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        if norm == 0.0 {
            return None;
        }
        self.order_terms(&mut terms);
        Some(PreparedQuery { terms, norm })
    }

    /// Sorts query terms by descending `weight * max_impact` (ties by
    /// ascending concept id) — the shared MaxScore processing order. The
    /// exact reference path and the pruned engine consume terms in this
    /// order, which makes their floating-point accumulation sequences —
    /// and hence scores — identical for every surviving resource. NaN
    /// products sort last, keeping the comparator total.
    pub(crate) fn order_terms(&self, terms: &mut [(u32, f64)]) {
        terms.sort_unstable_by(|a, b| {
            let ba = a.1 * self.max_impact(a.0 as usize);
            let bb = b.1 * self.max_impact(b.0 as usize);
            bb.partial_cmp(&ba)
                .unwrap_or_else(|| cmp_nan_last(ba, bb))
                .then(a.0.cmp(&b.0))
        });
    }

    /// Exhaustive reference ranking: dense accumulation over every posting
    /// of every term, full sort, truncate. `top_k = 0` returns all
    /// matches. This is the path the paper describes (Eq. 4 over the
    /// inverted index) and the ground truth for the pruned engine.
    pub fn rank_exact(&self, query: &PreparedQuery, top_k: usize) -> Vec<RankedResource> {
        let mut scores = vec![0.0f64; self.arrays.num_resources];
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

    /// Lists in flat form: `(offsets, ids, values)`, list `i` owning
    /// `ids/values[offsets[i]..offsets[i + 1]]`.
    fn flatten(lists: &[Vec<(u32, f64)>]) -> (Vec<u64>, Vec<u32>, Vec<f64>) {
        let mut offsets = vec![0u64];
        let (mut ids, mut values) = (Vec::new(), Vec::new());
        for list in lists {
            ids.extend(list.iter().map(|&(id, _)| id));
            values.extend(list.iter().map(|&(_, v)| v));
            offsets.push(ids.len() as u64);
        }
        (offsets, ids, values)
    }

    /// The reference build [`ConceptIndex::build`] must equal bit for
    /// bit: a count vector per resource, a tf-idf vector per resource,
    /// a posting list per concept sorted by [`cmp_ranked`], flattened at
    /// the end. The vectors stay local, as in the build.
    fn reference_build(folksonomy: &Folksonomy, concepts: &dyn ConceptAssignment) -> ConceptIndex {
        let n_resources = folksonomy.num_resources();
        let n_concepts = concepts.num_concepts();
        let mut doc_freq = vec![0usize; n_concepts];
        let mut raw_counts: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n_resources);
        let mut scratch = vec![0.0f64; n_concepts];
        let mut touched: Vec<u32> = Vec::new();
        for r in 0..n_resources {
            touched.clear();
            let mut tag_counts: Vec<(usize, usize)> = Vec::new();
            for a in folksonomy.resource_assignments(ResourceId::from_index(r)) {
                match tag_counts.last_mut() {
                    Some((t, c)) if *t == a.tag.index() => *c += 1,
                    _ => tag_counts.push((a.tag.index(), 1)),
                }
            }
            for (t, c) in tag_counts {
                concepts.for_each_weight(t, &mut |l, w| {
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
        }
        for list in &mut postings {
            list.sort_unstable_by(|a, b| cmp_ranked(a.1, a.0, b.1, b.0));
        }
        let (post_offsets, post_ids, post_scores) = flatten(&postings);
        ConceptIndex::with_blocks(IndexArrays {
            num_resources: n_resources,
            num_concepts: n_concepts,
            idf,
            post_offsets,
            post_ids,
            post_scores,
            block_offsets: Vec::new(),
            block_max: Vec::new(),
        })
    }

    /// Every array of two indexes, floats compared by their bits.
    fn assert_same_index(a: &ConceptIndex, b: &ConceptIndex, what: &str) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let (a, b) = (&a.arrays, &b.arrays);
        assert_eq!(a.num_resources, b.num_resources, "{what}");
        assert_eq!(a.num_concepts, b.num_concepts, "{what}");
        for (x, y) in [
            (&a.idf, &b.idf),
            (&a.post_scores, &b.post_scores),
            (&a.block_max, &b.block_max),
        ] {
            assert_eq!(bits(x), bits(y), "{what}");
        }
        for (x, y) in [
            (&a.post_offsets, &b.post_offsets),
            (&a.block_offsets, &b.block_offsets),
        ] {
            assert_eq!(x, y, "{what}");
        }
        assert_eq!(a.post_ids, b.post_ids, "{what}");
    }

    /// Several weighted concepts per tag, weights summing to 1; a zero
    /// weight now and then (allowed by the contract) leaves its concept
    /// touched but empty.
    struct WeightedTags {
        weights: Vec<Vec<(usize, f64)>>,
        num_concepts: usize,
    }

    impl ConceptAssignment for WeightedTags {
        fn num_concepts(&self) -> usize {
            self.num_concepts
        }
        fn num_tags(&self) -> usize {
            self.weights.len()
        }
        fn for_each_weight(&self, tag: usize, f: &mut dyn FnMut(usize, f64)) {
            for &(l, w) in &self.weights[tag] {
                f(l, w);
            }
        }
    }

    #[test]
    fn build_equals_the_reference_build_bit_for_bit() {
        let mut state = 0x1d3c_b11d_5eedu64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let (mut radix_lists, mut zero_norm, mut ties) = (0, 0, 0);
        for case in 0..48 {
            // Long lists (past the radix threshold) every fourth case;
            // few tags and users elsewhere, so many resources share a
            // vector and impacts tie.
            let resources = match case {
                0 => 0,
                _ if case % 4 == 1 => 300 + next(500),
                _ => 1 + next(120),
            };
            let (tags, users, concepts) = (1 + next(10), 1 + next(4), 1 + next(6));
            let mut b = FolksonomyBuilder::new();
            for r in 0..resources {
                for _ in 0..1 + next(4) {
                    b.add(
                        &format!("u{}", next(users)),
                        &format!("t{}", next(tags)),
                        &format!("r{r}"),
                    );
                }
                // A tag on every resource: its concept has idf 0, and a
                // resource holding only it has no postings.
                if case % 3 == 0 {
                    b.add("u0", "everywhere", &format!("r{r}"));
                }
            }
            let f = b.build();
            let hard = ConceptModel::from_parts(
                (0..f.num_tags()).map(|t| t % concepts).collect(),
                concepts,
                1.0,
            );
            let weighted = WeightedTags {
                weights: (0..f.num_tags())
                    .map(|_| {
                        let mut ws: Vec<(usize, f64)> = Vec::new();
                        for l in 0..concepts {
                            if next(2) == 0 {
                                ws.push((l, next(4) as f64));
                            }
                        }
                        if ws.is_empty() {
                            ws.push((next(concepts), 1.0));
                        }
                        let sum: f64 = ws.iter().map(|&(_, w)| w).sum();
                        for (_, w) in &mut ws {
                            *w = if sum > 0.0 { *w / sum } else { 1.0 };
                        }
                        ws
                    })
                    .collect(),
                num_concepts: concepts,
            };
            for (assignment, model) in [
                ("hard", &hard as &dyn ConceptAssignment),
                ("weighted", &weighted),
            ] {
                let what = format!("case {case}, {assignment}");
                let index = ConceptIndex::build(&f, model);
                let reference = reference_build(&f, model);
                assert_same_index(&index, &reference, &what);
                let mut posted = vec![false; index.num_resources()];
                for &r in &index.arrays.post_ids {
                    posted[r as usize] = true;
                }
                zero_norm += posted.iter().filter(|&&p| !p).count();
                for l in 0..index.num_concepts() {
                    let p = index.postings(l);
                    radix_lists += usize::from(p.len() >= RADIX_MIN_LEN);
                    ties += (1..p.len())
                        .filter(|&j| p.scores[j] == p.scores[j - 1])
                        .count();
                }
            }
        }
        assert!(radix_lists > 10, "only {radix_lists} radix-sorted lists");
        assert!(
            zero_norm > 100,
            "only {zero_norm} resources without postings"
        );
        assert!(ties > 1000, "only {ties} tied impacts");
    }

    /// A list with a non-finite impact is ordered by [`cmp_ranked`]
    /// itself: NaN last, ties by ascending id.
    #[test]
    fn impact_sort_falls_back_on_non_finite_impacts() {
        let mut ids: Vec<u32> = (0..300).collect();
        let mut scores: Vec<f64> = ids.iter().map(|&r| f64::from(r % 7) / 8.0).collect();
        scores[5] = f64::NAN;
        scores[9] = f64::INFINITY;
        let mut expect: Vec<(u32, f64)> = ids.iter().copied().zip(scores.iter().copied()).collect();
        expect.sort_unstable_by(|a, b| cmp_ranked(a.1, a.0, b.1, b.0));
        sort_by_impact(&mut ids, &mut scores, &mut Vec::new(), &mut Vec::new());
        let got: Vec<(u32, u64)> = ids
            .iter()
            .zip(&scores)
            .map(|(&r, s)| (r, s.to_bits()))
            .collect();
        let want: Vec<(u32, u64)> = expect.iter().map(|&(r, s)| (r, s.to_bits())).collect();
        assert_eq!(got, want);
        assert_eq!((ids[0], ids[299]), (9, 5));
    }

    #[test]
    fn tfidf_weights_follow_eq1_eq2() {
        let (f, concepts) = corpus();
        let index = ConceptIndex::build(&f, &concepts);
        // Concept 0 (music) appears in r1, r2 → df = 2 of N = 3.
        assert!((index.idf(0) - (3.0f64 / 2.0).ln()).abs() < 1e-12);
        // Concept 1 (tech) appears in r2, r3 → same idf.
        assert!((index.idf(1) - (3.0f64 / 2.0).ln()).abs() < 1e-12);
        // Impacts are w / ‖r‖. r1: 3 music occurrences, 0 tech → its
        // vector is (ln 1.5, 0), impact 1 in the music list only.
        let impact = |l: usize, name: &str| {
            let r = f.resource_id(name).unwrap().index() as u32;
            index
                .postings(l)
                .iter()
                .find(|&(id, _)| id == r)
                .map(|(_, w)| w)
        };
        assert!((impact(0, "r1").unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(impact(1, "r1"), None);
        // r2: 1 music + 1 tech → tf = 0.5 each, so equal weights and an
        // impact of 1/√2 in both lists.
        for l in [0, 1] {
            assert!((impact(l, "r2").unwrap() - 0.5f64.sqrt()).abs() < 1e-12);
        }
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
            for (_, w) in list.iter() {
                assert!(w > 0.0 && w <= 1.0 + 1e-12, "impact out of range");
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

    #[test]
    fn structural_validator_accepts_builds_and_flags_corruption() {
        let (f, concepts) = corpus();
        let index = ConceptIndex::build(&f, &concepts);
        assert_eq!(index.arrays.validate(), Ok(()));
        let exact_err = |bad: &ConceptIndex| match bad.arrays.validate() {
            Err(err) => err,
            Ok(()) => panic!("expected a defect"),
        };

        // Block-max drift: one cached maximum no longer matches its
        // block's first impact.
        let mut bad = index.clone();
        bad.arrays.block_max[0] += 1.0;
        let err = exact_err(&bad);
        assert!(err.contains("disagrees with head impact"), "{err}");

        // Impact order broken: reverse one posting list in place.
        let mut bad = index.clone();
        let (lo, hi) = (
            bad.arrays.post_offsets[0] as usize,
            bad.arrays.post_offsets[1] as usize,
        );
        assert!(hi - lo >= 2 && bad.arrays.post_scores[lo] != bad.arrays.post_scores[hi - 1]);
        bad.arrays.post_scores[lo..hi].reverse();
        let err = exact_err(&bad);
        assert!(err.contains("out of impact order"), "{err}");

        // Non-monotone offsets.
        let mut bad = index.clone();
        let end = *bad.arrays.post_offsets.last().unwrap();
        bad.arrays.post_offsets[1] = end + 1;
        let err = exact_err(&bad);
        assert!(err.contains("posting offsets"), "{err}");

        // Term weights the pruned engine's bounds do not survive.
        for hostile in [-1.0, f64::NAN, f64::INFINITY] {
            let mut bad = index.clone();
            bad.arrays.idf[0] = hostile;
            let err = exact_err(&bad);
            assert!(err.contains("idf"), "{err}");
        }

        // An impact the bounds cannot add at the head of a list, with
        // the block maximum — and so the list maximum — set to match, so
        // only the impact check can catch it.
        for hostile in [f64::NAN, -1.0, -0.0] {
            let mut bad = index.clone();
            let (lo, blo) = (
                bad.arrays.post_offsets[0] as usize,
                bad.arrays.block_offsets[0] as usize,
            );
            bad.arrays.post_scores[lo] = hostile;
            bad.arrays.block_max[blo] = hostile;
            assert_eq!(bad.max_impact(0).to_bits(), hostile.to_bits());
            let err = exact_err(&bad);
            assert!(err.contains("clear sign bit"), "{err}");
        }
    }
}
