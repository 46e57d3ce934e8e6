//! What a correct answer is: the exhaustive ranking for in-process
//! results, the in-process rendering for replies off the wire, and a
//! digest of probe answers for built artifacts.

use cubelsi_core::{ConceptAssignment, QueryEngine, RankedResource};
use cubelsi_folksonomy::{Folksonomy, TagId};
use std::fmt::Write as _;

/// Same hits, same order, scores equal to the bit.
pub fn same_ranking(a: &[RankedResource], b: &[RankedResource]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.resource == y.resource && x.score.to_bits() == y.score.to_bits())
}

/// Compares a pruned result with the exhaustive full-sort reference.
pub fn matches_exact(
    engine: &QueryEngine,
    concepts: &dyn ConceptAssignment,
    tags: &[TagId],
    k: usize,
    got: &[RankedResource],
) -> bool {
    same_ranking(got, &engine.search_tags_exact(concepts, tags, k))
}

/// The reply line `serve` sends for these hits, without the newline:
/// `OK\t<n>` then `\t<name>  (<score>)` per hit.
pub fn render_reply(corpus: &Folksonomy, hits: &[RankedResource], line: &mut String) {
    line.clear();
    let _ = write!(line, "OK\t{}", hits.len());
    for hit in hits {
        let _ = write!(
            line,
            "\t{}  ({:.4})",
            corpus.resource_name(hit.resource),
            hit.score
        );
    }
}

/// FNV-1a over resource names and score bits of a sequence of answers.
/// Names, not ids: the digest must not depend on interning order beyond
/// what the answers themselves depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn answer(&mut self, corpus: &Folksonomy, hits: &[RankedResource]) {
        self.bytes(&(hits.len() as u64).to_le_bytes());
        for hit in hits {
            self.bytes(corpus.resource_name(hit.resource).as_bytes());
            self.bytes(&hit.score.to_bits().to_le_bytes());
        }
    }
}
