//! The online top-k query engine: one exact block-max pruning skeleton
//! over impact-ordered SoA postings, bounded-heap selection, and reusable
//! zero-allocation scratch.
//!
//! # Why this exists
//!
//! CubeLSI's online component (Table VI of the paper) is cosine matching
//! over the concept index. The textbook implementation — allocate a dense
//! `O(num_resources)` accumulator, score every matching resource, sort
//! them all, truncate to `k` — wastes most of its time when `k` is small,
//! which is the common serving case. This module replaces it with:
//!
//! * **Impact-ordered SoA postings** ([`ConceptIndex`] stores
//!   `w(l, r) / ‖r‖` in separate id/score arrays, sorted descending, with
//!   per-[`BLOCK_LEN`]-block and per-list maxima), enabling block-max
//!   early termination with minimal memory traffic;
//! * **Bounded-heap selection**: a `k`-element min-heap replaces the full
//!   sort, so selection is `O(matches · log k)` instead of
//!   `O(matches · log matches)`;
//! * **[`QuerySession`] scratch**: epoch-tagged dense accumulators and
//!   reusable buffers make steady-state queries allocation-free;
//! * **[`QueryEngine::search_batch`]**: fans a slice of queries across
//!   worker threads (one session per worker), for throughput workloads.
//!
//! # The skeleton
//!
//! Every pruned query runs one accumulation skeleton
//! (`QueryEngine::accumulate`) over the exact `u32` id and `f64` impact
//! arrays; the exhaustive [`ConceptIndex::rank_exact`] is the oracle it is
//! tested against. Passing blocks run tight loops with **no per-posting
//! bound checks**. The skeleton:
//!
//! * **block-granular bounds**: one admission check per
//!   [`BLOCK_LEN`]-posting block against the block's own maximum; a
//!   failing block ends admission for the whole remaining list (block
//!   maxima only decrease down an impact-ordered list);
//! * **dense accumulators**: one `(epoch, slot)` word per resource maps
//!   into a compact per-query score array, so accumulation costs one
//!   random cache line per posting and every candidate-wide pass
//!   (k-th-partial selection, final top-k selection) is a dense scan;
//! * **an admission heap**: the k largest admission contributions form
//!   a continuously-valid threshold that improves *mid-list* — the
//!   first processed term seeds it from its first k postings (its
//!   contributions only descend, so later offers are skipped), its
//!   remaining admissions are bulk copies with vectorized products,
//!   and at the second term the heap minimum *is* the exact k-th
//!   partial, replacing the O(touched) selection;
//! * **division-filtered selection**: candidates are compared against
//!   a conservative undivided bound first, so only near-top-k
//!   candidates pay the `acc/norm` division.
//!
//! # Pruning invariants (why early termination is exact)
//!
//! All query term weights and posting impacts are **non-negative**, so a
//! resource's partial score only grows as terms are processed. The engine
//! processes terms in descending `weight × max_impact` order and maintains
//! `threshold` = the k-th largest *partial* score among touched resources
//! — a valid lower bound on the final k-th largest score. Prunes apply
//! only to resources that have not been touched yet:
//!
//! 1. **Term prune**: if the summed bound of all remaining terms is below
//!    `threshold`, no new resource can enter the top k; stop admitting new
//!    accumulators (existing ones still receive every update).
//! 2. **In-list prune**: within an impact-ordered list, once the admission
//!    bound (`wq·block_max + rest_bound` per block) drops below
//!    `threshold`, no later posting can admit a new resource either
//!    (impacts and block maxima only decrease); the rest of the list is
//!    scanned in update-only mode, which touches only the id stream for
//!    misses.
//!
//! Bound comparisons require the candidate's upper bound to be *relatively*
//! below the threshold (`bound · (1 + 1e-9) < threshold`), which absorbs
//! floating-point rounding in the bound sums — ties at the boundary are
//! therefore never pruned, and a pruned resource is strictly below the
//! k-th result even after the final division by the query norm.
//!
//! A skipped resource's upper bound is strictly below the final k-th
//! score (the block maximum that skipped it dominates its total), so it
//! can never displace a true top-k member in the final heap. A resource
//! skipped by one term may be admitted by a *later* term with an
//! incomplete (smaller) accumulator; the same argument covers it, and
//! every true top-k member keeps a complete accumulator (its bound can
//! never lose to the threshold). Whenever a threshold exists, at least
//! `k` touched resources already exist, so missing admissions can only
//! occur in the heap-selection regime, never in the emit-everything
//! regime. Because pruning never changes the order or the set of
//! additions applied to a resource that reaches the output, the engine
//! returns bit-identical scores — and an identical ranked list, including
//! tie-breaks — to [`ConceptIndex::rank_exact`]. The equivalence is
//! enforced by the `query_engine_equivalence` integration test over
//! randomized corpora.
//!
//! Tags are the one way to ask. Every term weight is a sum of
//! [`ConceptAssignment::for_each_weight`] weights (finite and ≥ 0 by that
//! trait's contract) scaled by an `idf` the index validated as finite and
//! ≥ 0, so the non-negativity the bounds above rest on holds for every
//! query the engine can be handed.

use crate::exec;
use crate::index::{ConceptAssignment, ConceptIndex, RankedResource, BLOCK_LEN};
use cubelsi_folksonomy::{ResourceId, TagId};
use cubelsi_linalg::parallel;
use std::ops::Range;

/// Relative slack applied to upper bounds before pruning: a candidate is
/// discarded only when `bound * PRUNE_SLACK < threshold`, so accumulated
/// float rounding (≈1e-16 per op) can never prune a true top-k member.
const PRUNE_SLACK: f64 = 1.0 + 1e-9;

/// Queries in one chunk of a [`QueryEngine::search_batch`] (and
/// `ShardSet::search_batch`): a participant claims a chunk under one lock,
/// which costs well under a microsecond against eight queries' work, and
/// small chunks keep the participants busy to the end of the batch.
pub(crate) const MIN_QUERIES_PER_TASK: usize = 8;

/// Shim for the frozen `perfbench/` and [`crate::CubeLsiConfig::pruning`],
/// from when the skeleton also read a compressed posting mirror: there is
/// one posting source, and [`QueryEngine::set_strategy`] ignores the
/// choice. Goes with those callers when the benchmark next changes.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruningStrategy {
    /// The exact `u32` id array (the one source).
    #[default]
    BlockMax,
    /// Formerly the compressed posting mirror; answers as `BlockMax`.
    CompressedBlockMax,
}

/// The online query engine over a built [`ConceptIndex`].
#[derive(Debug, Clone)]
pub struct QueryEngine {
    index: ConceptIndex,
}

/// Reusable per-thread scratch for query processing. Create one with
/// [`QueryEngine::session`] and reuse it across queries: after warm-up
/// (buffers grown to their steady sizes) a
/// [`QueryEngine::search_tags_with`] call performs **zero heap
/// allocations**.
#[derive(Debug, Default)]
pub struct QuerySession {
    // Concept-space scratch (query construction).
    concept_weight: Vec<f64>,
    concept_epoch: Vec<u32>,
    concept_touched: Vec<u32>,
    concept_cur: u32,
    // Resource-space scratch (accumulation): one combined
    // `(epoch << 32) | slot` word per resource, accumulating into
    // `acc_dense[slot]`, where `slot` is the admission index into
    // `touched` — one random cache line per posting, and every
    // candidate-wide pass (k-th partial selection, final selection) runs
    // over the compact dense array instead of gathering across the full
    // resource space.
    slot_map: Vec<u64>,
    acc_dense: Vec<f64>,
    touched: Vec<u32>,
    res_cur: u32,
    // Per-query term list, suffix bounds, selection scratch.
    terms: Vec<(u32, f64)>,
    suffix: Vec<f64>,
    select_scratch: Vec<f64>,
    heap: Vec<(f64, u32)>,
    // Bounded min-heap of the top-k admission-time contributions,
    // maintained while scanning so the pruning threshold improves
    // *mid-list* instead of only between terms.
    cand_heap: Vec<f64>,
}

impl QuerySession {
    fn for_index(index: &ConceptIndex) -> Self {
        QuerySession {
            concept_weight: vec![0.0; index.num_concepts()],
            concept_epoch: vec![0; index.num_concepts()],
            slot_map: vec![0; index.num_resources()],
            ..QuerySession::default()
        }
    }

    // xtask:no-alloc:begin — steady-state session reset: epoch bumps and
    // length-only clears on retained buffers; reuse must never grow them.
    /// Starts a new query: bumps the epochs so all scratch reads as
    /// untouched, without clearing the dense arrays.
    fn begin(&mut self) {
        self.concept_cur = bump_epoch(self.concept_cur, &mut self.concept_epoch);
        self.res_cur = if self.res_cur == u32::MAX {
            // Wraparound (once per 2^32 queries): hard-reset the slot
            // words (their high 32 bits carry the epoch counter).
            self.slot_map.fill(0);
            1
        } else {
            self.res_cur + 1
        };
        self.concept_touched.clear();
        self.touched.clear();
        self.acc_dense.clear();
        self.terms.clear();
        self.heap.clear();
        self.cand_heap.clear();
    }
    // xtask:no-alloc:end

    /// Grows the dense scratch to the engine's dimensions if needed, so a
    /// `Default`-constructed session — or one created for a smaller
    /// engine — is safe to use (steady-state reuse on one engine never
    /// resizes). New slots carry epoch 0, which reads as untouched.
    fn ensure_capacity(&mut self, index: &ConceptIndex) {
        if self.concept_epoch.len() < index.num_concepts() {
            self.concept_weight.resize(index.num_concepts(), 0.0);
            self.concept_epoch.resize(index.num_concepts(), 0);
        }
        if self.slot_map.len() < index.num_resources() {
            self.slot_map.resize(index.num_resources(), 0);
        }
    }

    /// The combined slot word for an admission at the current epoch.
    #[inline]
    fn slot_word(&self, slot: usize) -> u64 {
        ((self.res_cur as u64) << 32) | slot as u64
    }

    /// Debug-build epoch-coherence checker for the scratch arrays,
    /// shared between the `debug_assert!` after every pruned run and the
    /// test suite. The epoch scheme lets [`Self::begin`] invalidate the
    /// dense per-concept and per-resource scratch in O(1); everything
    /// downstream assumes the tags, the touched lists, and the slot
    /// words agree. Checks, returning the first violation:
    ///
    /// * no epoch tag (concept, or slot-word high bits) is ever ahead
    ///   of its counter;
    /// * `concept_touched` lists exactly the concepts whose tag equals
    ///   the current epoch, with no duplicates;
    /// * `acc_dense` is exactly parallel to `touched`;
    /// * `slot_map[touched[s]]` is exactly `(res_cur << 32) | s` and no
    ///   *other* resource carries a current-epoch slot word.
    pub(crate) fn check_epochs(&self) -> Result<(), String> {
        if let Some(c) = self
            .concept_epoch
            .iter()
            .position(|&e| e > self.concept_cur)
        {
            return Err(format!("concept {c} epoch tag is ahead of the counter"));
        }
        for &c in &self.concept_touched {
            let c = c as usize;
            if self.concept_epoch.get(c) != Some(&self.concept_cur) {
                return Err(format!(
                    "touched concept {c} does not carry the current epoch"
                ));
            }
        }
        let live_concepts = if self.concept_cur == 0 {
            0
        } else {
            self.concept_epoch
                .iter()
                .filter(|&&e| e == self.concept_cur)
                .count()
        };
        if live_concepts != self.concept_touched.len() {
            return Err("concept_touched and current-epoch tags disagree".to_owned());
        }

        if let Some(r) = self
            .slot_map
            .iter()
            .position(|&w| (w >> 32) as u32 > self.res_cur)
        {
            return Err(format!("resource {r} slot word is ahead of the counter"));
        }
        if self.acc_dense.len() != self.touched.len() {
            return Err("acc_dense and touched lengths diverge".to_owned());
        }
        for (slot, &r) in self.touched.iter().enumerate() {
            if self.slot_map.get(r as usize) != Some(&self.slot_word(slot)) {
                return Err(format!(
                    "touched resource {r} slot word does not point back at slot {slot}"
                ));
            }
        }
        let current = if self.res_cur == 0 {
            0
        } else {
            let bits = (self.res_cur as u64) << 32;
            self.slot_map
                .iter()
                .filter(|&&w| w & 0xFFFF_FFFF_0000_0000 == bits)
                .count()
        };
        if current != self.touched.len() {
            return Err("a resource outside touched carries a current-epoch slot word".to_owned());
        }
        Ok(())
    }
}

fn bump_epoch(cur: u32, epochs: &mut [u32]) -> u32 {
    if cur == u32::MAX {
        // Wraparound (once per 2^32 queries): hard-reset the tags.
        epochs.fill(0);
        1
    } else {
        cur + 1
    }
}

/// `a` ranks strictly worse than `b` under the shared ranking order
/// ([`crate::index::cmp_ranked`]: score descending, resource id
/// ascending).
#[inline]
fn worse(a: (f64, u32), b: (f64, u32)) -> bool {
    crate::index::cmp_ranked(a.0, a.1, b.0, b.1) == std::cmp::Ordering::Greater
}

impl QueryEngine {
    /// Wraps a built index.
    pub fn new(index: ConceptIndex) -> Self {
        QueryEngine { index }
    }

    /// Shim for the frozen `perfbench/` ([`PruningStrategy`]): it is
    /// [`Self::new`].
    #[doc(hidden)]
    pub fn with_strategy(index: ConceptIndex, _strategy: PruningStrategy) -> Self {
        Self::new(index)
    }

    /// Shim for the frozen `perfbench/` ([`PruningStrategy`]): does
    /// nothing.
    #[doc(hidden)]
    pub fn set_strategy(&mut self, _strategy: PruningStrategy) {}

    /// The underlying concept index.
    pub fn index(&self) -> &ConceptIndex {
        &self.index
    }

    /// Creates a scratch session sized for this engine's index.
    pub fn session(&self) -> QuerySession {
        QuerySession::for_index(&self.index)
    }

    /// Convenience single query: allocates a fresh session. Prefer
    /// [`Self::search_tags_with`] on a reused session in serving loops.
    pub fn search_tags(
        &self,
        concepts: &dyn ConceptAssignment,
        tags: &[TagId],
        top_k: usize,
    ) -> Vec<RankedResource> {
        let mut session = self.session();
        let mut out = Vec::new();
        self.search_tags_with(&mut session, concepts, tags, top_k, &mut out);
        out
    }

    /// Ranks resources for a tag query using the pruned top-k path,
    /// writing results (score descending, resource id ascending) into
    /// `out`. `top_k = 0` returns all matches. Steady-state calls on a
    /// warmed session and reused `out` buffer perform no heap allocation.
    pub fn search_tags_with(
        &self,
        session: &mut QuerySession,
        concepts: &dyn ConceptAssignment,
        tags: &[TagId],
        top_k: usize,
        out: &mut Vec<RankedResource>,
    ) {
        out.clear();
        session.begin();
        session.ensure_capacity(&self.index);
        let Some(norm) = self.build_query(session, concepts, tags) else {
            return;
        };
        self.index.order_terms(&mut session.terms);
        self.run_pruned(session, norm, top_k, out);
        debug_assert_eq!(session.check_epochs(), Ok(()));
    }

    /// The exact reference path behind the engine API: identical term
    /// preparation, exhaustive accumulation, full sort.
    pub fn search_tags_exact(
        &self,
        concepts: &dyn ConceptAssignment,
        tags: &[TagId],
        top_k: usize,
    ) -> Vec<RankedResource> {
        match self.index.prepare_query(concepts, tags) {
            Some(q) => self.index.rank_exact(&q, top_k),
            None => Vec::new(),
        }
    }

    /// Answers a batch of queries in chunks of [`MIN_QUERIES_PER_TASK`],
    /// which the caller and up to `num_threads() - 1` scoped threads claim
    /// in order (`cubelsi_linalg::parallel::for_each_chunk`). Each
    /// participant answers its chunks on one [`QuerySession`] of its own
    /// and writes straight into each query's result slot, so results come
    /// back in query order and are bit-identical at any thread count. One
    /// thread, or a batch of one chunk, runs on the caller alone.
    pub fn search_batch<Q>(
        &self,
        concepts: &dyn ConceptAssignment,
        queries: &[Q],
        top_k: usize,
    ) -> Vec<Vec<RankedResource>>
    where
        Q: AsRef<[TagId]> + Sync,
    {
        let mut results: Vec<Vec<RankedResource>> = Vec::new();
        results.resize_with(queries.len(), Vec::new);
        let participants = parallel::for_each_chunk(
            &mut results,
            MIN_QUERIES_PER_TASK,
            || self.session(),
            |session, start, chunk| {
                for (out, query) in chunk.iter_mut().zip(&queries[start..]) {
                    self.search_tags_with(session, concepts, query.as_ref(), top_k, out);
                }
            },
        );
        exec::note_dispatch(participants);
        results
    }

    // ---- internals -----------------------------------------------------

    /// Accumulates the tag query into concept scratch and finalizes the
    /// term list; returns the query norm (`None` → empty result).
    fn build_query(
        &self,
        session: &mut QuerySession,
        concepts: &dyn ConceptAssignment,
        tags: &[TagId],
    ) -> Option<f64> {
        let mut total = 0.0;
        for t in tags {
            if t.index() < concepts.num_tags() {
                let s = &mut *session;
                concepts.for_each_weight(t.index(), &mut |l, w| {
                    accumulate_concept(s, l, w);
                });
                total += 1.0;
            }
        }
        if total == 0.0 {
            return None;
        }
        // tf normalization + idf weighting, with the same float ops
        // (`c / total`, not `c * (1/total)`) as
        // `ConceptIndex::prepare_query`; terms are emitted — and the norm
        // summed — in ascending concept order, so they match it
        // bit-for-bit. The caller applies the MaxScore processing order
        // afterwards (`ConceptIndex::order_terms`).
        session.concept_touched.sort_unstable();
        for i in 0..session.concept_touched.len() {
            let l = session.concept_touched[i] as usize;
            let c = session.concept_weight[l];
            let wq = if c > 0.0 {
                (c / total) * self.index.idf(l)
            } else {
                0.0
            };
            if wq != 0.0 {
                session.terms.push((l as u32, wq));
            }
        }
        let norm: f64 = session
            .terms
            .iter()
            .map(|&(_, w)| w * w)
            .sum::<f64>()
            .sqrt();
        if norm == 0.0 {
            session.terms.clear();
            return None;
        }
        Some(norm)
    }

    /// Pruned accumulation + bounded-heap selection. Terms must be in MaxScore order with
    /// non-negative weights; `session` must hold the current query's
    /// terms.
    fn run_pruned(
        &self,
        session: &mut QuerySession,
        norm: f64,
        top_k: usize,
        out: &mut Vec<RankedResource>,
    ) {
        let m = session.terms.len();
        if m == 0 {
            return;
        }
        // Suffix bounds: suffix[i] = Σ_{j ≥ i} wq_j · max_impact_j.
        session.suffix.clear();
        session.suffix.resize(m + 1, 0.0);
        for i in (0..m).rev() {
            let (l, wq) = session.terms[i];
            session.suffix[i] = session.suffix[i + 1] + wq * self.index.max_impact(l as usize);
        }

        self.accumulate(session, top_k);
        select_emit(session, norm, top_k, out);
    }

    /// The block-max accumulation skeleton (see the module docs for the
    /// full list of refinements over a per-posting scan). A bounded
    /// min-heap of the top-k admission
    /// contributions provides a threshold that is valid at any instant
    /// (k distinct resources each have a final score at or above the
    /// heap minimum) and improves *while* a list is scanned — in
    /// particular the first term establishes a threshold after its k-th
    /// posting instead of admitting its whole list, and once a block
    /// bound falls below the threshold the rest of the first term's list
    /// is skipped outright (no earlier term exists whose accumulators
    /// could need the tail).
    ///
    /// Not inlined: the scan keeps the machine code of its own function,
    /// as it was measured. When a second posting source was inlined
    /// into `run_pruned` beside it, editing that source cost this scan
    /// 11–16 % in `p50_ms` on `query_single` and `query_sharded_batch`
    /// (2-vCPU AVX-512F guest).
    #[inline(never)]
    fn accumulate(&self, session: &mut QuerySession, top_k: usize) {
        let m = session.terms.len();
        // The admission heap only pays off when k is small relative to
        // the corpus — when most matches end up in the top k anyway,
        // nothing can be pruned and its maintenance is pure overhead, so
        // it is disabled (a performance guard only; every threshold in
        // this loop is optional and the result is exact either way).
        let heap_k = if top_k > 0 && top_k * 4 <= self.index.num_resources() {
            top_k
        } else {
            0
        };
        let mut admitting = true;
        for i in 0..m {
            let (l, wq) = session.terms[i];
            let l = l as usize;
            let rest = session.suffix[i + 1];
            let list = self.index.postings(l);
            let term = Term {
                ids: list.ids,
                scores: list.scores,
                wq,
                heap_k,
            };
            let n = term.scores.len();
            // Strongest threshold at term start: the k-th largest current
            // partial (includes growth from updates), computed over the
            // compact dense accumulator array. After exactly one
            // processed term the partials *are* the admission values, so
            // a full admission heap already holds the answer and the
            // O(touched) selection is skipped.
            let mut threshold = if top_k == 0 {
                None
            } else if i == 1 && session.cand_heap.len() == top_k {
                Some(session.cand_heap[0])
            } else {
                kth_partial(session, top_k)
            };
            raise_to_heap_threshold(session, heap_k, &mut threshold);
            if admitting {
                if let Some(th) = threshold {
                    if session.suffix[i] * PRUNE_SLACK < th {
                        admitting = false;
                    }
                }
            }
            let start_len = session.touched.len();
            if !admitting {
                term.update_only(session, 0);
                continue;
            }
            let mut pos = 0usize;
            for &bm in self.index.block_maxima(l) {
                raise_to_heap_threshold(session, heap_k, &mut threshold);
                if threshold.is_some_and(|th| (wq * bm + rest) * PRUNE_SLACK < th) {
                    // No posting from here on can admit. The touched set
                    // still needs the tail — except resources admitted
                    // earlier in *this* list, which cannot reappear in
                    // it, so with no earlier touched resources the tail
                    // is dead weight.
                    if start_len > 0 {
                        term.update_only(session, pos);
                    }
                    break;
                }
                let block = pos..(pos + BLOCK_LEN).min(n);
                pos = block.end;
                if start_len == 0 {
                    // First processed term: every posting is a fresh
                    // admission (a resource appears once per list).
                    term.admit_first(session, block);
                } else {
                    term.scan_block(session, block);
                }
            }
        }
    }
}

/// Emits the results from the dense accumulators. The heap pre-filters
/// in *undivided* space: a candidate is divided (and
/// exactly compared) only when its raw accumulator could possibly reach
/// the heap minimum. `reject_bound = heap_min · norm · (1 − 1e-9)` is
/// conservative: any candidate whose divided score ties or beats the
/// heap minimum satisfies `acc ≥ heap_min · norm` up to one rounding
/// ulp, so it always survives the filter; rejected candidates are
/// strictly below the minimum and the exact comparator would discard
/// them anyway. This removes the per-candidate division — a dominant
/// selection cost on large candidate sets — and scans only the compact
/// dense array.
fn select_emit(session: &mut QuerySession, norm: f64, top_k: usize, out: &mut Vec<RankedResource>) {
    let matched = session.touched.len();
    if top_k == 0 || matched <= top_k {
        out.extend(
            session
                .touched
                .iter()
                .zip(&session.acc_dense)
                .map(|(&r, &a)| RankedResource {
                    resource: ResourceId::from_index(r as usize),
                    score: a / norm,
                }),
        );
        sort_ranked(out);
        return;
    }
    const REJECT_SLACK: f64 = 1.0 - 1e-9;
    let QuerySession {
        acc_dense,
        touched,
        heap,
        ..
    } = session;
    heap.clear();
    let mut reject_bound = f64::NEG_INFINITY;
    for (&acc, &r) in acc_dense.iter().zip(touched.iter()) {
        if heap.len() == top_k && acc < reject_bound {
            continue;
        }
        let cand = (acc / norm, r);
        if heap.len() < top_k {
            heap_push(heap, cand);
            if heap.len() == top_k {
                reject_bound = heap[0].0 * norm * REJECT_SLACK;
            }
        } else if worse(heap[0], cand) {
            heap[0] = cand;
            heap_sift_down(heap, 0);
            reject_bound = heap[0].0 * norm * REJECT_SLACK;
        }
    }
    out.extend(heap.iter().map(|&(s, r)| RankedResource {
        resource: ResourceId::from_index(r as usize),
        score: s,
    }));
    sort_ranked(out);
}

/// Raises `threshold` to the admission-heap bound when the heap holds a
/// full top-k complement: `k` distinct resources were admitted with
/// contributions at least `heap[0]`, and scores only grow, so the final
/// k-th largest score is at least `heap[0]`.
#[inline]
fn raise_to_heap_threshold(session: &QuerySession, top_k: usize, threshold: &mut Option<f64>) {
    if top_k > 0 && session.cand_heap.len() == top_k {
        let h = session.cand_heap[0];
        *threshold = Some(threshold.map_or(h, |t| t.max(h)));
    }
}

/// Adds `w` to concept `l`'s scratch weight.
fn accumulate_concept(session: &mut QuerySession, l: usize, w: f64) {
    if session.concept_epoch[l] != session.concept_cur {
        session.concept_epoch[l] = session.concept_cur;
        session.concept_weight[l] = 0.0;
        session.concept_touched.push(l as u32);
    }
    session.concept_weight[l] += w;
}

// xtask:no-alloc:begin — per-query inner-loop helpers: scratch buffers
// reach steady capacity after warmup; growth here would defeat session
// reuse. Escapes below are grow-only appends into retained buffers.
/// Admits `r` as a fresh candidate with its first contribution, feeding
/// the bounded threshold heap when enabled.
#[inline]
fn admit(session: &mut QuerySession, r: u32, contribution: f64, heap_k: usize) {
    session.slot_map[r as usize] = session.slot_word(session.touched.len());
    session.touched.push(r); // ALLOC-OK: grow-only reused scratch.
    session.acc_dense.push(contribution); // ALLOC-OK: grow-only reused scratch.
    if heap_k > 0 {
        offer_admission(&mut session.cand_heap, heap_k, contribution);
    }
}

/// One query term as the skeleton's inner loops see it.
struct Term<'a> {
    /// The list's resource ids.
    ids: &'a [u32],
    /// The list's exact impacts, parallel to the ids.
    scores: &'a [f64],
    /// The term's query weight.
    wq: f64,
    /// Capacity of the admission heap (0 = disabled).
    heap_k: usize,
}

impl Term<'_> {
    /// The skeleton's inner loop over one `block` of the list, with no
    /// block bound check: fresh resources are admitted, and touched ones
    /// take the exact update. One random cache line (`slot_map[r]`) per
    /// posting.
    #[inline]
    fn scan_block(&self, session: &mut QuerySession, block: Range<usize>) {
        let (wq, heap_k) = (self.wq, self.heap_k);
        let epoch_bits = (session.res_cur as u64) << 32;
        let scores = &self.scores[block.start..block.end];
        for (j, &r) in self.ids[block].iter().enumerate() {
            let word = session.slot_map[r as usize];
            if word & 0xFFFF_FFFF_0000_0000 == epoch_bits {
                session.acc_dense[(word & 0xFFFF_FFFF) as usize] += wq * scores[j];
                continue;
            }
            admit(session, r, wq * scores[j], heap_k);
        }
    }

    /// First-term admission of one `block`: nothing is touched yet, so
    /// every posting admits without reading its slot word — the ids land
    /// in `touched` as one bulk copy (or one in-place decode), the
    /// contribution products vectorize, and only the slot writes need a
    /// scalar pass. Because contributions arrive in descending order the
    /// admission heap is exactly the first `heap_k` of them; later
    /// postings are at most the heap minimum and are not offered.
    #[inline]
    fn admit_first(&self, session: &mut QuerySession, block: Range<usize>) {
        let base = session.touched.len();
        debug_assert_eq!(base, session.acc_dense.len());
        let scores = &self.scores[block.start..block.end];
        session.touched.extend_from_slice(&self.ids[block]); // ALLOC-OK: grow-only reused scratch.
        let mut j = 0;
        while j < scores.len() && session.cand_heap.len() < self.heap_k {
            offer_admission(&mut session.cand_heap, self.heap_k, self.wq * scores[j]);
            j += 1;
        }
        session
            .acc_dense
            .extend(scores.iter().map(|&s| self.wq * s)); // ALLOC-OK: grow-only reused scratch.
        let epoch_bits = (session.res_cur as u64) << 32;
        let (touched, slot_map) = (&session.touched, &mut session.slot_map);
        for (ofs, &r) in touched[base..].iter().enumerate() {
            slot_map[r as usize] = epoch_bits | (base + ofs) as u64;
        }
    }

    /// Adds the term's contributions to already-touched resources only,
    /// over postings `from..` of the list (`from` on a block boundary):
    /// one random 8-byte read per posting, with hits accumulating into
    /// the dense array; misses read nothing but the id stream.
    fn update_only(&self, session: &mut QuerySession, from: usize) {
        let wq = self.wq;
        let epoch_bits = (session.res_cur as u64) << 32;
        let scores = &self.scores[from..];
        let (slot_map, acc_dense) = (&session.slot_map, &mut session.acc_dense);
        for (j, &r) in self.ids[from..].iter().enumerate() {
            let word = slot_map[r as usize];
            if word & 0xFFFF_FFFF_0000_0000 == epoch_bits {
                acc_dense[(word & 0xFFFF_FFFF) as usize] += wq * scores[j];
            }
        }
    }
}

/// K-th largest partial score, or `None` while fewer than `k` resources
/// are touched. Operates on the compact per-query accumulator array (a
/// bulk copy + select, no gathers).
fn kth_partial(session: &mut QuerySession, k: usize) -> Option<f64> {
    if session.acc_dense.len() < k {
        return None;
    }
    session.select_scratch.clear();
    session.select_scratch.extend_from_slice(&session.acc_dense); // ALLOC-OK: grow-only reused scratch.
    let idx = k - 1;
    session.select_scratch.select_nth_unstable_by(idx, |a, b| {
        b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
    });
    Some(session.select_scratch[idx])
}

/// Feeds one admission contribution into the bounded min-heap of the k
/// largest admission values (each entry corresponds to one distinct
/// resource, so a full heap certifies k resources at or above `heap[0]`).
/// Until the heap reaches `k` entries it is a plain buffer (nothing is
/// pruned against it before it is full anyway); one O(k) Floyd heapify
/// establishes the invariant at the moment it fills — pushing the first
/// term's *descending* contributions one-by-one would instead sift every
/// element all the way to the root.
#[inline]
fn offer_admission(heap: &mut Vec<f64>, k: usize, c: f64) {
    if heap.len() < k {
        heap.push(c); // ALLOC-OK: bounded at k entries; reused across queries.
        if heap.len() == k {
            heapify_min(heap);
        }
    } else if c > heap[0] {
        heap[0] = c;
        min_sift_down(heap, 0);
    }
}

/// Floyd's bottom-up heapify for the admission min-heap.
fn heapify_min(heap: &mut [f64]) {
    for i in (0..heap.len() / 2).rev() {
        min_sift_down(heap, i);
    }
}

fn min_sift_down(heap: &mut [f64], mut i: usize) {
    let n = heap.len();
    loop {
        let l = 2 * i + 1;
        let r = l + 1;
        let mut smallest = i;
        if l < n && heap[l] < heap[smallest] {
            smallest = l;
        }
        if r < n && heap[r] < heap[smallest] {
            smallest = r;
        }
        if smallest == i {
            break;
        }
        heap.swap(i, smallest);
        i = smallest;
    }
}

/// Final result order: the shared ranking comparator.
fn sort_ranked(out: &mut [RankedResource]) {
    out.sort_unstable_by(|a, b| {
        crate::index::cmp_ranked(
            a.score,
            a.resource.index() as u32,
            b.score,
            b.resource.index() as u32,
        )
    });
}

fn heap_push(heap: &mut Vec<(f64, u32)>, item: (f64, u32)) {
    heap.push(item); // ALLOC-OK: bounded at k entries; reused across queries.
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if worse(heap[i], heap[parent]) {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn heap_sift_down(heap: &mut [(f64, u32)], mut i: usize) {
    let n = heap.len();
    loop {
        let l = 2 * i + 1;
        let r = l + 1;
        let mut worst = i;
        if l < n && worse(heap[l], heap[worst]) {
            worst = l;
        }
        if r < n && worse(heap[r], heap[worst]) {
            worst = r;
        }
        if worst == i {
            return;
        }
        heap.swap(i, worst);
        i = worst;
    }
}
// xtask:no-alloc:end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concepts::ConceptModel;
    use cubelsi_folksonomy::FolksonomyBuilder;

    fn corpus() -> (cubelsi_folksonomy::Folksonomy, ConceptModel) {
        let mut b = FolksonomyBuilder::new();
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

    fn engine() -> (cubelsi_folksonomy::Folksonomy, ConceptModel, QueryEngine) {
        let (f, concepts) = corpus();
        let index = ConceptIndex::build(&f, &concepts);
        let engine = QueryEngine::new(index);
        (f, concepts, engine)
    }

    /// `PruningStrategy` and `set_strategy` are shims: the default is
    /// `BlockMax`, and switching leaves every answer as it was.
    #[test]
    fn default_strategy_is_blockmax_and_switchable() {
        let (f, concepts, mut engine) = engine();
        assert_eq!(PruningStrategy::default(), PruningStrategy::BlockMax);
        let tags = [f.tag_id("audio").unwrap(), f.tag_id("laptop").unwrap()];
        let before = engine.search_tags(&concepts, &tags, 2);
        engine.set_strategy(PruningStrategy::CompressedBlockMax);
        assert_eq!(engine.search_tags(&concepts, &tags, 2), before);
        let e2 =
            QueryEngine::with_strategy(engine.index().clone(), PruningStrategy::CompressedBlockMax);
        assert_eq!(e2.search_tags(&concepts, &tags, 2), before);
    }

    #[test]
    fn pruned_matches_exact_on_toy_corpus() {
        let (f, concepts, engine) = engine();
        let tag_sets: Vec<Vec<TagId>> = vec![
            vec![f.tag_id("audio").unwrap()],
            vec![f.tag_id("laptop").unwrap()],
            vec![f.tag_id("audio").unwrap(), f.tag_id("laptop").unwrap()],
            vec![
                f.tag_id("audio").unwrap(),
                f.tag_id("wifi").unwrap(),
                f.tag_id("mp3").unwrap(),
            ],
        ];
        for tags in &tag_sets {
            for k in [0usize, 1, 2, 3, 10] {
                let exact = engine.search_tags_exact(&concepts, tags, k);
                let pruned = engine.search_tags(&concepts, tags, k);
                assert_eq!(pruned.len(), exact.len(), "k={k} tags={tags:?}");
                for (p, e) in pruned.iter().zip(exact.iter()) {
                    assert_eq!(p.resource, e.resource, "k={k} tags={tags:?}");
                    assert_eq!(p.score.to_bits(), e.score.to_bits(), "k={k}");
                }
            }
        }
    }

    #[test]
    fn session_reuse_is_consistent() {
        let (f, concepts, engine) = engine();
        let mut session = engine.session();
        let mut out = Vec::new();
        let audio = f.tag_id("audio").unwrap();
        let laptop = f.tag_id("laptop").unwrap();
        // Interleave different queries on one session; answers must be
        // independent of history.
        let fresh_audio = engine.search_tags(&concepts, &[audio], 2);
        let fresh_laptop = engine.search_tags(&concepts, &[laptop], 2);
        for _ in 0..5 {
            engine.search_tags_with(&mut session, &concepts, &[audio], 2, &mut out);
            assert_eq!(out, fresh_audio);
            engine.search_tags_with(&mut session, &concepts, &[laptop], 2, &mut out);
            assert_eq!(out, fresh_laptop);
        }
    }

    #[test]
    fn batch_matches_sequential() {
        let (f, concepts, engine) = engine();
        let queries: Vec<Vec<TagId>> = vec![
            vec![f.tag_id("audio").unwrap()],
            vec![f.tag_id("laptop").unwrap()],
            vec![f.tag_id("mp3").unwrap(), f.tag_id("wifi").unwrap()],
            vec![],
            vec![f.tag_id("audio").unwrap(), f.tag_id("laptop").unwrap()],
        ];
        let batch = engine.search_batch(&concepts, &queries, 2);
        assert_eq!(batch.len(), queries.len());
        for (q, got) in queries.iter().zip(batch.iter()) {
            let want = engine.search_tags(&concepts, q, 2);
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn default_session_is_safe_and_correct() {
        // A Default-constructed session (or one sized for a smaller
        // engine) must grow on first use instead of panicking.
        let (f, concepts, engine) = engine();
        let mut session = QuerySession::default();
        let mut out = Vec::new();
        let audio = f.tag_id("audio").unwrap();
        engine.search_tags_with(&mut session, &concepts, &[audio], 2, &mut out);
        let fresh = engine.search_tags(&concepts, &[audio], 2);
        assert_eq!(out, fresh);
    }

    #[test]
    fn empty_and_unknown_queries_are_empty() {
        let (_, concepts, engine) = engine();
        let mut session = engine.session();
        let mut out = vec![RankedResource {
            resource: ResourceId::from_index(0),
            score: 1.0,
        }];
        engine.search_tags_with(&mut session, &concepts, &[], 5, &mut out);
        assert!(out.is_empty(), "out must be cleared for empty queries");
        engine.search_tags_with(
            &mut session,
            &concepts,
            &[TagId::from_index(99)],
            5,
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn blockmax_handles_multi_block_lists() {
        // Three lists far longer than BLOCK_LEN (a: 1000 postings,
        // b: 667, neither a multiple of it) and a short one (c: 40), with
        // impacts spread by varying tag counts and a filler concept.
        // Repeating a tag in the query shifts weight between the terms,
        // which is what steers the skeleton: traced once with probes,
        //   * `[b, b, b, c, a]` at k = 10 admits c, then list-scans b
        //     until the admission bound fails after 3 of its 11 blocks
        //     and b's tail is update-only, then settles a without
        //     admitting: 232 of the query's 1 333 matches are admitted;
        //   * `[a, b, c]` / `[c, a]` / `[b, c]` at k = 65 admit c, then
        //     list-scan the next term until the admission heap — which
        //     fills part-way through a block — ends admission mid-list
        //     (after 10, 9 and 1 blocks) and the tail is update-only;
        //   * `[a, b]` and `[a]` break off the *first* term's list the
        //     same way and skip its tail, and `[a, b, c]` at small k
        //     settles both long lists with update-only scans, admitting
        //     nothing from them.
        let mut b = FolksonomyBuilder::new();
        for r in 0..2000usize {
            let name = format!("r{r}");
            let mut tag = |t: &str, users: usize| {
                for u in 0..users {
                    b.add(&format!("u{u}"), t, &name);
                }
            };
            if r % 2 == 0 {
                tag("a", 1 + r % 7);
            }
            if r % 3 == 0 {
                tag("b", 1 + r % 5);
            }
            if r % 50 == 0 {
                tag("c", 1 + r % 3);
            }
            if r % 2 == 1 || r % 7 == 0 {
                tag("z", 1 + r % 4);
            }
        }
        let f = b.build();
        let model = ConceptModel::from_assignments(vec![0, 1, 2, 3], 1.0);
        let engine = QueryEngine::new(ConceptIndex::build(&f, &model));
        let [a, b, c] = ["a", "b", "c"].map(|t| f.tag_id(t).unwrap());
        let mid_list = vec![b, b, b, c, a];
        let queries = [
            vec![a, b],
            vec![a, b, c],
            vec![c, a],
            vec![b, c],
            vec![b, b, b, b, c, a],
            mid_list.clone(),
            vec![a],
        ];
        let mut session = engine.session();
        let mut pruned = Vec::new();
        // Candidates the mid-list query admits at k = 10.
        let mut admitted = 0;
        for k in [1usize, 3, 10, 64, 65, 128, 0] {
            for tags in &queries {
                let exact = engine.search_tags_exact(&model, tags, k);
                engine.search_tags_with(&mut session, &model, tags, k, &mut pruned);
                assert_eq!(pruned.len(), exact.len(), "k={k}");
                for (p, e) in pruned.iter().zip(exact.iter()) {
                    assert_eq!(p.resource, e.resource, "k={k}");
                    assert_eq!(p.score.to_bits(), e.score.to_bits(), "k={k}");
                }
                if k == 10 && *tags == mid_list {
                    admitted = session.touched.len();
                }
            }
        }
        // Admission really ended mid-list.
        let matches = engine.search_tags_exact(&model, &mid_list, 0).len();
        assert!(admitted < matches, "{admitted} of {matches}");
    }

    #[test]
    fn heap_order_is_total_and_matches_sort() {
        // Randomized heap-vs-sort cross-check with score ties.
        let scores = [0.5, 0.25, 0.5, 1.0, 0.125, 0.25, 0.75, 0.5];
        let mut heap: Vec<(f64, u32)> = Vec::new();
        let k = 4;
        for (r, &s) in scores.iter().enumerate() {
            let cand = (s, r as u32);
            if heap.len() < k {
                heap_push(&mut heap, cand);
            } else if worse(heap[0], cand) {
                heap[0] = cand;
                heap_sift_down(&mut heap, 0);
            }
        }
        let mut got: Vec<(f64, u32)> = heap.clone();
        got.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut all: Vec<(f64, u32)> = scores
            .iter()
            .enumerate()
            .map(|(r, &s)| (s, r as u32))
            .collect();
        all.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        assert_eq!(got, all[..k]);
    }

    #[test]
    fn epoch_checker_accepts_runs_and_flags_corruption() {
        let (f, concepts, engine) = engine();
        let mut session = engine.session();
        let mut out = Vec::new();
        let tags = [f.tag_id("audio").unwrap(), f.tag_id("laptop").unwrap()];
        engine.search_tags_with(&mut session, &concepts, &tags, 0, &mut out);
        assert_eq!(session.check_epochs(), Ok(()));

        // A touched resource whose slot word was lost (e.g. a stray
        // overwrite) must be flagged.
        let saved = session.slot_map[session.touched[0] as usize];
        session.slot_map[session.touched[0] as usize] = 0;
        let err = session.check_epochs().unwrap_err();
        assert!(err.contains("does not point back"), "{err}");
        session.slot_map[session.touched[0] as usize] = saved;
        assert_eq!(session.check_epochs(), Ok(()));

        // A resource still carrying a current-epoch slot word after its
        // admission record vanished.
        let (r, a) = (
            session.touched.pop().unwrap(),
            session.acc_dense.pop().unwrap(),
        );
        let err = session.check_epochs().unwrap_err();
        assert!(err.contains("outside touched"), "{err}");
        session.touched.push(r);
        session.acc_dense.push(a);
        assert_eq!(session.check_epochs(), Ok(()));

        // An epoch tag from the future (counter rolled back / stale
        // session state) on either tag array.
        let saved = session.concept_epoch[0];
        session.concept_epoch[0] = session.concept_cur + 1;
        assert!(session
            .check_epochs()
            .unwrap_err()
            .contains("ahead of the counter"));
        session.concept_epoch[0] = saved;
        let saved = session.slot_map[0];
        session.slot_map[0] = (session.res_cur as u64 + 1) << 32;
        assert!(session
            .check_epochs()
            .unwrap_err()
            .contains("ahead of the counter"));
        session.slot_map[0] = saved;

        // A touched concept whose tag was invalidated.
        session.concept_epoch[session.concept_touched[0] as usize] = 0;
        let err = session.check_epochs().unwrap_err();
        assert!(err.contains("does not carry the current epoch"), "{err}");
    }
}
