//! Persistent model artifacts: versioned binary save/load of a complete
//! built engine.
//!
//! CubeLSI's entire value proposition (Table V vs Table VI of the paper)
//! is that the offline component — tensor build → Tucker → Theorem-1/2
//! distances → spectral concepts → index — is expensive while online
//! serving is cheap. A production deployment therefore builds the model
//! *once*, persists it, and serves queries from the loaded artifact. This
//! module provides that artifact: a single self-contained binary file
//! holding the cleaned [`Folksonomy`] (interned name tables + assignment
//! set), the [`TagModel`] the purified distances derive from (Table VII's
//! `Y⁽²⁾` and `Σ`), the distilled [`ConceptModel`], the block-structured
//! SoA [`ConceptIndex`], and the offline [`PhaseTimings`] and
//! [`BuildTrace`].
//!
//! # Format (`.cubelsi`)
//!
//! Everything is little-endian; no external serialization crates are used.
//!
//! ```text
//! header   8 B  magic             = "CUBELSI\0"
//!          4 B  format version    (u32, 4 — the only version read)
//!          4 B  section count     (u32)
//! table    per section, 24 B:
//!          4 B  section id        (u32, see SECTION_* constants)
//!          8 B  payload offset    (u64, absolute file offset)
//!          8 B  payload length    (u64, bytes)
//!          4 B  CRC-32 (IEEE)     of the payload bytes
//! payload  the section payloads, in table order, each starting at an
//!          8-byte-aligned file offset (zero padding in between; the
//!          recorded lengths exclude the padding)
//! ```
//!
//! Within the classic sections, integers are `u32`/`u64` LE, floats are
//! `f64` LE bit patterns (round-tripping exactly, NaN payloads included),
//! strings are `u32` byte length + UTF-8 bytes, and sequences are a `u64`
//! count followed by the elements.
//!
//! ## The meta section
//!
//! ```text
//! u64 × 4  num_users, num_tags, num_resources, num_assignments
//! u64 × 5  phase durations in ns: tensor build, Tucker, distances,
//!          clustering, indexing
//! u64      HOOI sweeps
//! u64      HOSVD-initialised modes (at most 3), then for each:
//!          u64 mode, u64 operator applies, u64 projections,
//!          u64 converged (0 or 1)
//! ```
//!
//! ## The model section
//!
//! Section [`SECTION_MODEL`] stores the [`TagModel`] — what Theorems 1–2
//! need to reproduce every purified tag distance, and nothing else (no
//! core tensor, no user or resource factor, no T×T matrix):
//!
//! ```text
//! u64      Σ source: 1 = Lambda2, 2 = CoreGram
//! f64      fit
//! u64      HOOI sweeps
//! u64 × 2  rows (= num_tags), J₂; then f64 × rows·J₂   Y⁽²⁾, row-major
//! u64      length (= J₂); then f64 × J₂                Λ₂
//! u64 × 2  rows, cols (J₂, J₂ under CoreGram, 0, 0 under Lambda2);
//!          then f64 × rows·cols                        Σ, row-major
//! ```
//!
//! The distances are not stored: a full load derives them from this
//! section, on the first `CubeLsi::distances` call, through the
//! arithmetic the build used, so they equal the built engine's bit for
//! bit. The decoder checks every shape against meta's `num_tags` before
//! it allocates, and every value for finiteness.
//!
//! Versions 2 and 3 stored the whole decomposition (core and all three
//! factors) and the T×T distances in two sections instead. On the
//! benchmark's artifacts the change took `build_tucker_bound`'s file from
//! 5 261 848 to 1 453 056 bytes (its model section is 15 232),
//! `build_cluster_bound`'s from 1 893 288 to 203 784, and the served
//! 4-shard manifest from 4 311 260 to 2 220 764.
//!
//! ## The SoA index section
//!
//! Section [`SECTION_INDEX_SOA`] stores the [`ConceptIndex`] as the exact
//! flat arrays the query engine scans, so loading is array-granular (a
//! handful of bounded reads) instead of posting-granular:
//!
//! ```text
//! u64 × 6  num_resources, num_concepts, block_len (= 64),
//!          rv_nnz, n_postings, n_blocks
//! then, in order, each array at an 8-byte-aligned offset from the
//! payload start (u32 arrays are zero-padded up to the next boundary):
//!   idf             f64 × num_concepts
//!   resource_norms  f64 × num_resources
//!   rv_offsets      u64 × (num_resources + 1)
//!   rv_concepts     u32 × rv_nnz
//!   rv_weights      f64 × rv_nnz
//!   post_offsets    u64 × (num_concepts + 1)
//!   post_ids        u32 × n_postings
//!   post_scores     f64 × n_postings
//!   block_offsets   u64 × (num_concepts + 1)
//!   block_max       f64 × n_blocks
//!   max_impact      f64 × num_concepts
//! ```
//!
//! Whichever load reads the section (see *What a load reads* below), one
//! decoder does it: it bulk-copies each array into a `Vec` and hands them
//! to the index's one checked constructor, which runs the full read-only
//! semantic validation (offset monotonicity, id ranges, finite non-negative
//! weights, impact order, block-max consistency, posting ↔ vector
//! cross-checks; see `crate::index`) before the index is allowed to
//! serve — a linear scan of the postings, accepted so that a
//! checksummed-but-hostile file can never misrank. The section payload
//! starts 8-aligned in the file and so does every array inside it; the
//! loader still insists on that ([`PersistError::MisalignedSection`]),
//! which keeps the arrays viewable in place by any reader of the format.
//!
//! ## The compressed index section
//!
//! [`save_to_vec_with`] with `compress = true` appends
//! [`SECTION_INDEX_COMPRESSED`]: the bit-packed / 8-bit-quantized mirror
//! of the posting arrays that the `CompressedBlockMax` strategy streams
//! (see `crate::index`). Layout:
//!
//! ```text
//! u64 × 4  n_blocks, n_postings, packed_len (incl. 8 guard bytes),
//!          block_len (= 64)
//! then, each array 8-aligned from the payload start:
//!   blk_pack_start  u64 × (n_blocks + 1)
//!   blk_base        u32 × n_blocks
//!   blk_scale       f32 × n_blocks
//!   blk_offset      f32 × n_blocks
//!   blk_bits        u8  × n_blocks
//!   quant           u8  × n_postings
//!   packed_ids      u8  × packed_len
//! ```
//!
//! The section is a *mirror*, not a replacement: the exact SoA section
//! is always present, and the loader proves the mirror honest against it
//! — decoded ids must equal `post_ids` bitwise and every dequantized
//! impact must upper-bound its exact impact — before the index may
//! serve. Without the section the loader rederives the mirror from the
//! exact arrays.
//!
//! ## What a load reads
//!
//! There is one load path with a section selector. Every load validates
//! the header, the version and the bounds of **every** table entry (an
//! entry running past the file is [`PersistError::Truncated`] whether or
//! not its section is wanted); it then checksums and decodes only the
//! sections its caller names, through the same decoders:
//!
//! | section | `build` writes | full load | serving load | shard *i* > 0 of a manifest |
//! |---|---|---|---|---|
//! | 1 meta | yes | CRC + decode | CRC + decode | CRC + decode (counts must equal shard 0's) |
//! | 2 folksonomy | yes | CRC + decode | CRC + decode | bytes compared with shard 0's |
//! | 9 model | yes | CRC + decode | — | — |
//! | 5 concepts | yes | CRC + decode | CRC + decode | bytes compared with shard 0's |
//! | 7 SoA index | yes | CRC + decode + validate | CRC + decode + validate | CRC + decode + validate |
//! | 8 compressed mirror | with `--compress` | CRC + decode + prove | CRC + decode + prove | CRC + decode + prove |
//!
//! The *full load* is [`load_from_bytes`] / [`load_from_path`]: what a
//! tool that inspects or re-saves a model wants; it re-saves to the bytes
//! it read. The *serving load* is what `crate::shard::load_source` — the
//! one function behind `query`, `serve` start-up and `RELOAD` — runs: no
//! query touches the model section, so it neither looks it up nor
//! requires it. The consequences are decided, and pinned by
//! `tests/persist_roundtrip.rs`: a damaged byte inside the model payload
//! of a single artifact does not fail the serving load (it fails the full
//! load; under a manifest the per-file CRC catches it first), and an
//! artifact without the section serves. Under a manifest the shards'
//! shared sections are decoded once, from shard 0, and the other shards'
//! copies must equal them byte for byte.
//!
//! Only version 4 is read: anything else — an earlier version (whose
//! sections 3 and 4 held the whole Tucker decomposition and the T×T
//! distance matrix), a future one, or a zero-stamped header — is rejected
//! with [`PersistError::UnsupportedVersion`].
//!
//! # Guarantees
//!
//! * **Bit-identical serving.** Every query-relevant structure (postings
//!   order, block maxima, norms, idf, concept assignment, tag-name
//!   lookup) is restored verbatim, so a loaded engine's
//!   [`CubeLsi::search_ids`] output — scores, order, and tie-breaks — is
//!   bit-for-bit identical to the engine that was saved. Enforced by the
//!   `persist_roundtrip` integration tests over randomized corpora.
//! * **No panics on bad input.** Corrupt, truncated, misaligned, or
//!   version-mismatched files return a typed [`PersistError`]; every
//!   length is bounds-checked before allocation and every id is validated
//!   before it can index anything.

use std::io::{Read, Write};
use std::path::Path;
use std::time::Duration;

use cubelsi_folksonomy::{Folksonomy, Interner, ResourceId, TagAssignment, TagId, UserId};
use cubelsi_linalg::Matrix;

use crate::concepts::ConceptModel;
use crate::distance::TagModel;
use crate::index::{CompressedPostings, ConceptIndex, IndexArrays, IndexDefect, BLOCK_LEN};
use crate::pipeline::{BuildTrace, CubeLsi, HosvdCounts, PhaseTimings};
use crate::query::QueryEngine;

/// File magic: identifies a CubeLSI artifact regardless of extension.
pub const MAGIC: [u8; 8] = *b"CUBELSI\0";

/// The artifact format version: the one every save stamps and the only
/// one a load accepts (anything else is
/// [`PersistError::UnsupportedVersion`]). Bump on any layout change.
pub const FORMAT_VERSION: u32 = 4;

/// Byte length of the fixed file header (magic + version + count).
pub const HEADER_LEN: usize = 16;

/// Byte length of one section-table entry.
pub const TABLE_ENTRY_LEN: usize = 24;

const SECTION_META: u32 = 1;
const SECTION_FOLKSONOMY: u32 = 2;
const SECTION_CONCEPTS: u32 = 5;
/// The SoA index section.
pub const SECTION_INDEX_SOA: u32 = 7;
/// The compressed posting mirror, written when compression is requested
/// (optional; always accompanied by [`SECTION_INDEX_SOA`]).
pub const SECTION_INDEX_COMPRESSED: u32 = 8;
/// The [`TagModel`]: `Y⁽²⁾`, `Λ₂`, and `Σ` under `CoreGram`.
pub const SECTION_MODEL: u32 = 9;

/// The model section's Σ-source tags.
const SIGMA_LAMBDA2: u64 = 1;
const SIGMA_CORE_GRAM: u64 = 2;

/// At most modes 2 and 3 are HOSVD-initialised; a meta section claiming
/// more is malformed.
const MAX_HOSVD_MODES: usize = 3;

/// Number of `u64` fields in the SoA index section header.
const SOA_HEADER_FIELDS: usize = 6;

/// Number of `u64` fields in the compressed index section header.
const COMPRESSED_HEADER_FIELDS: usize = 4;

/// Errors raised while saving or loading an artifact. Loading never
/// panics: every failure mode of a hostile or damaged file maps to one of
/// these variants.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure (open, read, write).
    Io(std::io::Error),
    /// The file does not start with the CubeLSI magic bytes.
    BadMagic,
    /// The file's format version is not the one this reader understands.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// The file ends before the advertised data (header, table, or a
    /// section payload extends past EOF).
    Truncated {
        /// What was being read when the file ran out.
        context: &'static str,
    },
    /// A section's payload does not match its recorded CRC-32.
    ChecksumMismatch {
        /// Section id whose payload is damaged.
        section: u32,
        /// CRC recorded in the section table.
        expected: u32,
        /// CRC computed over the payload actually present.
        got: u32,
    },
    /// A required section is absent from the section table.
    MissingSection(u32),
    /// A section that must start at an 8-byte-aligned file offset (the
    /// index sections, whose arrays the format keeps viewable in place)
    /// does not.
    MisalignedSection {
        /// Section id with the misaligned payload.
        section: u32,
        /// The offending file offset.
        offset: u64,
    },
    /// A section decoded to structurally invalid data (bad lengths,
    /// out-of-range ids, broken impact order, inconsistent block maxima,
    /// non-UTF-8 names, …).
    Malformed {
        /// Section id that failed to decode.
        section: u32,
        /// Human-readable description of the defect.
        detail: String,
    },
    /// A shard set is inconsistent: shards disagree on corpus, model, or
    /// dimensions, a resource is indexed by the wrong shard under the
    /// declared partition, or the shard count is out of range (see
    /// `crate::shard`).
    Shard {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::BadMagic => {
                write!(f, "not a CubeLSI artifact (bad magic bytes)")
            }
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not supported (this build reads version \
                 {supported} only)"
            ),
            PersistError::Truncated { context } => {
                write!(f, "artifact truncated while reading {context}")
            }
            PersistError::ChecksumMismatch {
                section,
                expected,
                got,
            } => write!(
                f,
                "section {section} corrupt: CRC-32 {got:#010x} != recorded {expected:#010x}"
            ),
            PersistError::MissingSection(id) => {
                write!(f, "artifact is missing required section {id}")
            }
            PersistError::MisalignedSection { section, offset } => write!(
                f,
                "section {section} payload at offset {offset} is not 8-byte aligned"
            ),
            PersistError::Malformed { section, detail } => {
                write!(f, "section {section} malformed: {detail}")
            }
            PersistError::Shard { detail } => {
                write!(f, "shard set inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// A loaded artifact: the serving-ready engine plus the folksonomy it was
/// built over (needed online to resolve query tag names and to print
/// result resource names).
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The restored engine; answers queries bit-identically to the one
    /// that was saved.
    pub model: CubeLsi,
    /// The cleaned corpus the model was built from (name tables +
    /// assignment set).
    pub folksonomy: Folksonomy,
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slicing-by-16 over tables computed at compile time.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC register after byte `b` followed by `k` zero bytes, which is
/// what lets sixteen input bytes be folded in with sixteen independent
/// lookups instead of a chain of sixteen dependent ones.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 16 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte through the CRC register — the tail of [`crc32`] and, in
/// tests, the whole of the reference it is compared against.
#[inline]
fn crc32_step(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC-32 (IEEE) of a byte slice — the per-section, per-shard-file and
/// manifest integrity check. Sixteen bytes a step; the values are those
/// of the bytewise loop, so every stored checksum stays valid.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let (blocks, tail) = data.as_chunks::<16>();
    for b in blocks {
        // Byte `k` of the step still has `15 - k` bytes to pass through.
        let v = u128::from_le_bytes(*b) ^ u128::from(c);
        c = (0..16).fold(0, |acc, k| {
            acc ^ t[15 - k][((v >> (8 * k)) & 0xFF) as usize]
        });
    }
    for &b in tail {
        c = crc32_step(c, b);
    }
    c ^ 0xFFFF_FFFF
}

/// `a · b` modulo the CRC-32 polynomial, both bit-reflected (bit 31 is
/// the coefficient of `x⁰`), as zlib's `multmodp`.
const fn mult_mod_p(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut k = 0;
    while k < 32 {
        if a & (1 << (31 - k)) != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 {
            0xEDB8_8320 ^ (b >> 1)
        } else {
            b >> 1
        };
        k += 1;
    }
    p
}

/// `X2N[k]` is `x^(2^k)` modulo the CRC-32 polynomial (zlib's
/// `x2n_table`); `x¹` is `1 << 30` in the reflected order.
const X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    table[0] = 1 << 30;
    let mut k = 1;
    while k < 32 {
        table[k] = mult_mod_p(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

/// CRC-32 of `A ‖ B` from `crc32(A)`, `crc32(B)` and `B`'s length —
/// zlib's `crc32_combine`: `crc(A)` shifted past `len_b` zero bytes (a
/// multiplication by `x^(8·len_b)`, built from the squares in [`X2N`])
/// plus `crc(B)`. O(log len_b), whatever the lengths.
pub(crate) fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    // x^(8·n) = Π x^(2^k) over the set bits 2^(k−3) of n. The powers
    // repeat with period 32 in k, as x has an order dividing 2³² − 1.
    let mut shift = 1u32 << 31;
    let (mut n, mut k) = (len_b as u64, 3usize);
    while n != 0 {
        if n & 1 != 0 {
            shift = mult_mod_p(X2N[k & 31], shift);
        }
        n >>= 1;
        k += 1;
    }
    mult_mod_p(shift, crc_a) ^ crc_b
}

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }
    fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_usize(xs.len());
        for &x in xs {
            self.put_f64(x);
        }
    }
    fn put_matrix(&mut self, m: &Matrix) {
        self.put_usize(m.rows());
        self.put_usize(m.cols());
        for &x in m.as_slice() {
            self.put_f64(x);
        }
    }
    /// Zero-pads to the next 8-byte boundary (SoA array alignment).
    fn pad_to_8(&mut self) {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }
}

/// Lossless `u32` -> `usize` widening for untrusted id/count fields.
/// The hostile-input lint bans bare `as usize` casts in the parsing
/// regions below; this is the single audited widening point, sound on
/// every platform the crate supports.
const _: () = assert!(
    usize::BITS >= 32,
    "cubelsi requires at least a 32-bit usize"
);
#[inline]
pub(crate) fn widen(v: u32) -> usize {
    v as usize
}

/// Reads a little-endian `u32` at `at`, `None` when out of bounds.
#[inline]
fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..)?
        .first_chunk::<4>()
        .map(|c| u32::from_le_bytes(*c))
}

/// Reads a little-endian `u64` at `at`, `None` when out of bounds.
#[inline]
fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    bytes
        .get(at..)?
        .first_chunk::<8>()
        .map(|c| u64::from_le_bytes(*c))
}

// xtask:hostile-input:begin — every byte below comes from an untrusted
// artifact; typed errors only (no panics, no truncating casts, no raw
// indexing) until the matching end marker.

/// Bounds-checked reader over one section's payload. Every accessor
/// returns [`PersistError::Malformed`] instead of panicking when the
/// payload runs short, and collection reads verify that the advertised
/// element count fits in the remaining bytes *before* allocating, so a
/// corrupt length can neither panic nor trigger a pathological
/// allocation.
struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    section: u32,
}

impl<'a> Decoder<'a> {
    fn new(buf: &'a [u8], section: u32) -> Self {
        Decoder {
            buf,
            pos: 0,
            section,
        }
    }

    fn err(&self, detail: impl Into<String>) -> PersistError {
        PersistError::Malformed {
            section: self.section,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let Some(out) = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
        else {
            return Err(self.err(format!(
                "payload exhausted at offset {} (need {n} more bytes of {})",
                self.pos,
                self.buf.len()
            )));
        };
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        match self.take(4)?.first_chunk::<4>() {
            Some(c) => Ok(u32::from_le_bytes(*c)),
            None => Err(self.err("short u32 read")),
        }
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        match self.take(8)?.first_chunk::<8>() {
            Some(c) => Ok(u64::from_le_bytes(*c)),
            None => Err(self.err("short u64 read")),
        }
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.err(format!("value {v} exceeds usize")))
    }

    /// A length prefix for elements of `elem_size` bytes each, validated
    /// against the bytes actually remaining.
    fn len_prefix(&mut self, elem_size: usize) -> Result<usize, PersistError> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(elem_size).is_none_or(|need| need > remaining) {
            return Err(self.err(format!(
                "length {n} x {elem_size} B exceeds the {remaining} B remaining"
            )));
        }
        Ok(n)
    }

    /// A `u32`-length-prefixed UTF-8 string, borrowed from the payload.
    fn str(&mut self) -> Result<&'a str, PersistError> {
        let n = widen(self.u32()?);
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| self.err("non-UTF-8 string"))
    }

    fn finite_f64(&mut self, what: &str) -> Result<f64, PersistError> {
        let x = self.f64()?;
        if !x.is_finite() {
            return Err(self.err(format!("non-finite {what} {x}")));
        }
        Ok(x)
    }

    /// `n` finite doubles, allocated only once they fit in the payload.
    fn finite_f64s(&mut self, n: usize, what: &str) -> Result<Vec<f64>, PersistError> {
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(8).is_none_or(|need| need > remaining) {
            return Err(self.err(format!(
                "{n} values of {what} exceed the {remaining} B remaining"
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.finite_f64(what)?);
        }
        Ok(out)
    }

    /// A `rows × cols` row-major matrix of finite doubles.
    fn finite_matrix(
        &mut self,
        rows: usize,
        cols: usize,
        what: &str,
    ) -> Result<Matrix, PersistError> {
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| self.err(format!("{rows}x{cols} {what} overflows")))?;
        let data = self.finite_f64s(n, what)?;
        Matrix::from_vec(rows, cols, data).map_err(|e| self.err(e.to_string()))
    }

    fn finish(&self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return Err(self.err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// xtask:hostile-input:end — the save path below serializes trusted
// in-memory structures.

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

/// Serializes a built engine and its corpus to the `.cubelsi` byte
/// format, without the compressed posting section.
pub fn save_to_vec(model: &CubeLsi, folksonomy: &Folksonomy) -> Vec<u8> {
    save_to_vec_with(model, folksonomy, false)
}

/// Serializes a built engine, optionally appending the compressed
/// posting mirror ([`SECTION_INDEX_COMPRESSED`]). Either way the file is
/// stamped [`FORMAT_VERSION`].
pub fn save_to_vec_with(model: &CubeLsi, folksonomy: &Folksonomy, compress: bool) -> Vec<u8> {
    ModelSections::encode(model, folksonomy).with_index(model.index(), compress)
}

/// One encoded section: its payload and the CRC the table records for it.
struct EncodedSection {
    id: u32,
    payload: Vec<u8>,
    crc: u32,
}

impl EncodedSection {
    fn new(id: u32, payload: Vec<u8>) -> Self {
        let crc = crc32(&payload);
        EncodedSection { id, payload, crc }
    }
}

/// The sections of an artifact that do not depend on the index — meta,
/// folksonomy, model, concepts — encoded and checksummed once. A sharded save writes them into every shard file, next to that
/// shard's own index sections.
pub(crate) struct ModelSections(Vec<EncodedSection>);

impl ModelSections {
    pub(crate) fn encode(model: &CubeLsi, folksonomy: &Folksonomy) -> Self {
        ModelSections(vec![
            EncodedSection::new(SECTION_META, encode_meta(model, folksonomy)),
            EncodedSection::new(SECTION_FOLKSONOMY, encode_folksonomy(folksonomy)),
            EncodedSection::new(SECTION_MODEL, encode_model(model.tag_model())),
            EncodedSection::new(SECTION_CONCEPTS, encode_concepts(model.concepts())),
        ])
    }

    /// The complete artifact file around `index`: these sections, then
    /// the SoA index and, with `compress`, its mirror.
    pub(crate) fn with_index(&self, index: &ConceptIndex, compress: bool) -> Vec<u8> {
        let mut own = vec![EncodedSection::new(
            SECTION_INDEX_SOA,
            encode_index_soa(index),
        )];
        if compress {
            own.push(EncodedSection::new(
                SECTION_INDEX_COMPRESSED,
                encode_index_compressed(index),
            ));
        }
        let sections: Vec<&EncodedSection> = self.0.iter().chain(&own).collect();
        assemble_file(&sections)
    }
}

/// Lays out header + table + payloads, starting every payload at an
/// 8-byte-aligned file offset (zero padding in between), so the index
/// arrays are aligned in the file as they are in memory.
fn assemble_file(sections: &[&EncodedSection]) -> Vec<u8> {
    let table_len = sections.len() * TABLE_ENTRY_LEN;
    let payload_base = HEADER_LEN + table_len;
    // HEADER_LEN = 16 and TABLE_ENTRY_LEN = 24, so payload_base is always
    // a multiple of 8; padding each payload to a multiple of 8 keeps every
    // later payload aligned too.
    debug_assert_eq!(payload_base % 8, 0);
    let padded = |len: usize| len.div_ceil(8) * 8;
    let total: usize = payload_base
        + sections
            .iter()
            .map(|s| padded(s.payload.len()))
            .sum::<usize>();

    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = payload_base as u64;
    for s in sections {
        out.extend_from_slice(&s.id.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&s.crc.to_le_bytes());
        offset += padded(s.payload.len()) as u64;
    }
    for s in sections {
        out.extend_from_slice(&s.payload);
        out.resize(padded(out.len() - payload_base) + payload_base, 0);
    }
    out
}

/// Writes the artifact to an arbitrary sink.
pub fn save(
    writer: &mut impl Write,
    model: &CubeLsi,
    folksonomy: &Folksonomy,
) -> Result<(), PersistError> {
    writer.write_all(&save_to_vec(model, folksonomy))?;
    Ok(())
}

/// Writes the artifact to a file path, atomically: the bytes go to a
/// temporary sibling first and are renamed into place only after a
/// successful sync, so a crash mid-save can never destroy a previous
/// good artifact at the same path.
pub fn save_to_path(
    path: impl AsRef<Path>,
    model: &CubeLsi,
    folksonomy: &Folksonomy,
) -> Result<(), PersistError> {
    save_to_path_with(path, model, folksonomy, false)
}

/// [`save_to_path`] with the compression choice of [`save_to_vec_with`].
pub fn save_to_path_with(
    path: impl AsRef<Path>,
    model: &CubeLsi,
    folksonomy: &Folksonomy,
    compress: bool,
) -> Result<(), PersistError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&save_to_vec_with(model, folksonomy, compress))?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

fn encode_meta(model: &CubeLsi, folksonomy: &Folksonomy) -> Vec<u8> {
    let mut e = Encoder::default();
    e.put_usize(folksonomy.num_users());
    e.put_usize(folksonomy.num_tags());
    e.put_usize(folksonomy.num_resources());
    e.put_usize(folksonomy.num_assignments());
    let t = model.timings();
    for d in [
        t.tensor_build,
        t.tucker,
        t.distances,
        t.clustering,
        t.indexing,
    ] {
        e.put_u64(d.as_nanos().min(u64::MAX as u128) as u64);
    }
    let trace = model.trace();
    e.put_usize(trace.sweeps);
    e.put_usize(trace.hosvd.len());
    for m in &trace.hosvd {
        e.put_usize(m.mode);
        e.put_usize(m.applies);
        e.put_usize(m.projections);
        e.put_u64(m.converged as u64);
    }
    e.buf
}

fn encode_folksonomy(f: &Folksonomy) -> Vec<u8> {
    let mut e = Encoder::default();
    e.put_usize(f.num_users());
    for u in 0..f.num_users() {
        e.put_str(f.user_name(UserId::from_index(u)));
    }
    e.put_usize(f.num_tags());
    for t in 0..f.num_tags() {
        e.put_str(f.tag_name(TagId::from_index(t)));
    }
    e.put_usize(f.num_resources());
    for r in 0..f.num_resources() {
        e.put_str(f.resource_name(ResourceId::from_index(r)));
    }
    e.put_usize(f.num_assignments());
    for a in f.assignments() {
        e.put_u32(a.user.index() as u32);
        e.put_u32(a.tag.index() as u32);
        e.put_u32(a.resource.index() as u32);
    }
    e.buf
}

fn encode_model(m: &TagModel) -> Vec<u8> {
    let mut e = Encoder::default();
    e.put_u64(match m.sigma() {
        None => SIGMA_LAMBDA2,
        Some(_) => SIGMA_CORE_GRAM,
    });
    e.put_f64(m.fit());
    e.put_usize(m.sweeps());
    e.put_matrix(m.y2());
    e.put_f64_slice(m.lambda2());
    e.put_matrix(m.sigma().unwrap_or(&Matrix::zeros(0, 0)));
    e.buf
}

/// Byte length of the model section [`save_to_vec`] writes for `m`.
pub(crate) fn model_section_len(m: &TagModel) -> usize {
    encode_model(m).len()
}

fn encode_concepts(c: &ConceptModel) -> Vec<u8> {
    let mut e = Encoder::default();
    e.put_usize(c.num_concepts());
    e.put_f64(c.sigma());
    e.put_usize(c.num_tags());
    for &a in c.assignments() {
        e.put_u64(a as u64);
    }
    e.buf
}

/// Encodes the SoA index section: the 6-field header followed by the raw
/// arrays, each 8-aligned relative to the payload start (which the file
/// writer in turn places at an 8-aligned file offset).
pub(crate) fn encode_index_soa(ix: &ConceptIndex) -> Vec<u8> {
    let a = ix.as_arrays();
    let mut e = Encoder::default();
    e.put_usize(ix.num_resources());
    e.put_usize(ix.num_concepts());
    e.put_usize(BLOCK_LEN);
    e.put_usize(a.rv_concepts.len());
    e.put_usize(a.post_ids.len());
    e.put_usize(a.block_max.len());
    for xs in [
        &a.idf,
        &a.resource_norms,
        // rv_offsets interleaves below (u64), keep field order explicit.
    ] {
        for &x in xs {
            e.put_f64(x);
        }
    }
    for &x in &a.rv_offsets {
        e.put_u64(x);
    }
    for &x in &a.rv_concepts {
        e.put_u32(x);
    }
    e.pad_to_8();
    for &x in &a.rv_weights {
        e.put_f64(x);
    }
    for &x in &a.post_offsets {
        e.put_u64(x);
    }
    for &x in &a.post_ids {
        e.put_u32(x);
    }
    e.pad_to_8();
    for &x in &a.post_scores {
        e.put_f64(x);
    }
    for &x in &a.block_offsets {
        e.put_u64(x);
    }
    for &x in &a.block_max {
        e.put_f64(x);
    }
    for &x in &a.max_impact {
        e.put_f64(x);
    }
    e.buf
}

/// Encodes the compressed posting mirror: the 4-field header followed by
/// the mirror's arrays, each 8-aligned relative to the payload start.
pub(crate) fn encode_index_compressed(ix: &ConceptIndex) -> Vec<u8> {
    let c = ix.compressed();
    let mut e = Encoder::default();
    e.put_usize(c.num_blocks());
    e.put_usize(c.quant.len());
    e.put_usize(c.packed_ids.len());
    e.put_usize(BLOCK_LEN);
    for &x in &c.blk_pack_start {
        e.put_u64(x);
    }
    for &x in &c.blk_base {
        e.put_u32(x);
    }
    e.pad_to_8();
    for &x in &c.blk_scale {
        e.put_f32(x);
    }
    e.pad_to_8();
    for &x in &c.blk_offset {
        e.put_f32(x);
    }
    e.pad_to_8();
    e.buf.extend_from_slice(&c.blk_bits);
    e.pad_to_8();
    e.buf.extend_from_slice(&c.quant);
    e.pad_to_8();
    e.buf.extend_from_slice(&c.packed_ids);
    e.pad_to_8();
    e.buf
}

/// Serialized byte size of the index section(s) an artifact would carry
/// for this index: the exact SoA section plus, with `compress`, the
/// compressed mirror. Exposed so the benchmark can report artifact
/// footprint for synthetic indexes that have no full model around them.
pub fn index_artifact_bytes(ix: &ConceptIndex, compress: bool) -> usize {
    let mut n = encode_index_soa(ix).len();
    if compress {
        n += encode_index_compressed(ix).len();
    }
    n
}

// ---------------------------------------------------------------------------
// SoA index section layout
// ---------------------------------------------------------------------------

// xtask:hostile-input:begin — layout arithmetic and the load path run
// on untrusted header counts and raw artifact bytes.

/// Byte offset + element count of one array inside an index payload.
#[derive(Debug, Clone, Copy)]
struct ArraySpan {
    offset: usize,
    len: usize,
}

/// The computed layout of every array in the SoA index payload. A single
/// source of truth shared by the encoder (implicitly, via field order) and
/// the decoder; all arithmetic is checked so hostile header counts cannot
/// overflow.
struct SoaLayout {
    idf: ArraySpan,
    resource_norms: ArraySpan,
    rv_offsets: ArraySpan,
    rv_concepts: ArraySpan,
    rv_weights: ArraySpan,
    post_offsets: ArraySpan,
    post_ids: ArraySpan,
    post_scores: ArraySpan,
    block_offsets: ArraySpan,
    block_max: ArraySpan,
    max_impact: ArraySpan,
    /// Total payload length in bytes (including trailing padding of u32
    /// arrays, excluding nothing else).
    total_len: usize,
}

fn soa_layout(
    num_resources: usize,
    num_concepts: usize,
    rv_nnz: usize,
    n_postings: usize,
    n_blocks: usize,
) -> Option<SoaLayout> {
    let mut cursor = SOA_HEADER_FIELDS.checked_mul(8)?;
    let mut span = |elem_size: usize, len: usize, pad: bool| -> Option<ArraySpan> {
        let offset = cursor;
        let bytes = len.checked_mul(elem_size)?;
        cursor = cursor.checked_add(bytes)?;
        if pad {
            cursor = cursor.checked_add(7)? / 8 * 8;
        }
        Some(ArraySpan { offset, len })
    };
    let idf = span(8, num_concepts, false)?;
    let resource_norms = span(8, num_resources, false)?;
    let rv_offsets = span(8, num_resources.checked_add(1)?, false)?;
    let rv_concepts = span(4, rv_nnz, true)?;
    let rv_weights = span(8, rv_nnz, false)?;
    let post_offsets = span(8, num_concepts.checked_add(1)?, false)?;
    let post_ids = span(4, n_postings, true)?;
    let post_scores = span(8, n_postings, false)?;
    let block_offsets = span(8, num_concepts.checked_add(1)?, false)?;
    let block_max = span(8, n_blocks, false)?;
    let max_impact = span(8, num_concepts, false)?;
    Some(SoaLayout {
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
        total_len: cursor,
    })
}

/// The computed layout of every array in the compressed index payload;
/// same contract as [`SoaLayout`] (checked arithmetic, encoder field
/// order is the source of truth).
struct CompressedLayout {
    blk_pack_start: ArraySpan,
    blk_base: ArraySpan,
    blk_scale: ArraySpan,
    blk_offset: ArraySpan,
    blk_bits: ArraySpan,
    quant: ArraySpan,
    packed_ids: ArraySpan,
    total_len: usize,
}

fn compressed_layout(
    n_blocks: usize,
    n_postings: usize,
    packed_len: usize,
) -> Option<CompressedLayout> {
    let mut cursor = COMPRESSED_HEADER_FIELDS.checked_mul(8)?;
    let mut span = |elem_size: usize, len: usize| -> Option<ArraySpan> {
        let offset = cursor;
        let bytes = len.checked_mul(elem_size)?;
        cursor = cursor.checked_add(bytes)?;
        cursor = cursor.checked_add(7)? / 8 * 8;
        Some(ArraySpan { offset, len })
    };
    let blk_pack_start = span(8, n_blocks.checked_add(1)?)?;
    let blk_base = span(4, n_blocks)?;
    let blk_scale = span(4, n_blocks)?;
    let blk_offset = span(4, n_blocks)?;
    let blk_bits = span(1, n_blocks)?;
    let quant = span(1, n_postings)?;
    let packed_ids = span(1, packed_len)?;
    Some(CompressedLayout {
        blk_pack_start,
        blk_base,
        blk_scale,
        blk_offset,
        blk_bits,
        quant,
        packed_ids,
        total_len: cursor,
    })
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

/// Parses an artifact from bytes already in memory; nothing in the
/// returned artifact borrows from `bytes`. This is the full load: every
/// section is checksummed, and the model section is decoded on top of
/// what a serving load ([`load_serving`]) reads. It is `O(T·J₂)` in the
/// model: the T×T distances are derived on first use, not here.
pub fn load_from_bytes(bytes: &[u8]) -> Result<Artifact, PersistError> {
    let sections = parse_sections(bytes, |_| true, &KnownCrcs::default())?;
    let Serving {
        folksonomy,
        concepts,
        index,
        meta,
        ..
    } = decode_serving(&sections)?;
    let tag_model = decode_model(sections.payload(SECTION_MODEL)?, &meta)?;
    let model = CubeLsi::from_parts(
        tag_model,
        concepts,
        QueryEngine::new(index),
        meta.timings,
        meta.trace,
        &folksonomy,
    );
    Ok(Artifact { model, folksonomy })
}

/// Reads an artifact from an arbitrary source.
pub fn load(reader: &mut impl Read) -> Result<Artifact, PersistError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    load_from_bytes(&bytes)
}

/// Reads an artifact from a file path.
pub fn load_from_path(path: impl AsRef<Path>) -> Result<Artifact, PersistError> {
    let bytes = std::fs::read(path)?;
    load_from_bytes(&bytes)
}

/// Shim for the frozen `perfbench/`, whose `persist.load_zero_copy_ms`
/// row still calls this name; it is [`load_from_path`]. Goes with that
/// row in the next benchmark PR.
#[doc(hidden)]
pub fn load_from_path_zero_copy(path: impl AsRef<Path>) -> Result<Artifact, PersistError> {
    load_from_path(path)
}

/// The sections a serving load reads. The model section is the other
/// one: the offline model, which no query touches.
const SERVING_SECTIONS: [u32; 5] = [
    SECTION_META,
    SECTION_FOLKSONOMY,
    SECTION_CONCEPTS,
    SECTION_INDEX_SOA,
    SECTION_INDEX_COMPRESSED,
];

/// The sections shard `i > 0` of a manifest reads for itself; its
/// folksonomy and concepts payloads are compared with shard 0's instead.
const SHARD_OWN_SECTIONS: [u32; 3] = [SECTION_META, SECTION_INDEX_SOA, SECTION_INDEX_COMPRESSED];

/// What serving keeps of an artifact — corpus, concept model, index —
/// plus what a manifest's later shards are checked against.
pub(crate) struct Serving<'a> {
    pub(crate) folksonomy: Folksonomy,
    pub(crate) concepts: ConceptModel,
    pub(crate) index: ConceptIndex,
    meta: Meta,
    /// The folksonomy and concepts payloads as stored (checksummed).
    stored_folksonomy: &'a [u8],
    stored_concepts: &'a [u8],
}

/// The serving load of one artifact: header, version and every table
/// entry's bounds are validated, but only [`SERVING_SECTIONS`] are
/// checksummed and decoded. A damaged byte inside the model payload
/// therefore does not fail it (it fails [`load_from_bytes`], and under a
/// manifest the file checksum), and neither does its absence.
/// `known` carries payload CRCs already computed over `bytes`
/// ([`file_crc`]).
pub(crate) fn load_serving<'a>(
    bytes: &'a [u8],
    known: &KnownCrcs,
) -> Result<Serving<'a>, PersistError> {
    decode_serving(&parse_sections(
        bytes,
        |id| SERVING_SECTIONS.contains(&id),
        known,
    )?)
}

/// Loads the index of shard `shard > 0` of a manifest whose shard 0
/// loaded as `first`. The shard's corpus and concept model are not
/// decoded a second time: their stored bytes must equal shard 0's, which
/// also catches what comparing decoded counts cannot — the same corpus
/// under other names.
pub(crate) fn load_shard_index(
    bytes: &[u8],
    known: &KnownCrcs,
    first: &Serving<'_>,
    shard: usize,
) -> Result<ConceptIndex, PersistError> {
    let sections = parse_sections(bytes, |id| SHARD_OWN_SECTIONS.contains(&id), known)?;
    let meta = decode_meta(sections.payload(SECTION_META)?)?;
    if meta.counts() != first.meta.counts() {
        return Err(PersistError::Shard {
            detail: format!(
                "shard {shard} corpus counts {:?} disagree with shard 0's {:?}",
                meta.counts(),
                first.meta.counts()
            ),
        });
    }
    for (id, what, expected) in [
        (SECTION_FOLKSONOMY, "folksonomy", first.stored_folksonomy),
        (SECTION_CONCEPTS, "concept model", first.stored_concepts),
    ] {
        if sections.unverified(id)? != expected {
            return Err(PersistError::Shard {
                detail: format!("shard {shard}'s {what} section differs from shard 0's"),
            });
        }
    }
    decode_index(&sections, meta.num_resources, first.concepts.num_concepts())
}

fn decode_serving<'a>(sections: &Sections<'a>) -> Result<Serving<'a>, PersistError> {
    let meta = decode_meta(sections.payload(SECTION_META)?)?;
    let stored_folksonomy = sections.payload(SECTION_FOLKSONOMY)?;
    let folksonomy = decode_folksonomy(stored_folksonomy, &meta)?;
    let stored_concepts = sections.payload(SECTION_CONCEPTS)?;
    let concepts = decode_concepts(stored_concepts, meta.num_tags)?;
    let index = decode_index(sections, meta.num_resources, concepts.num_concepts())?;
    Ok(Serving {
        folksonomy,
        concepts,
        index,
        meta,
        stored_folksonomy,
        stored_concepts,
    })
}

fn decode_index(
    sections: &Sections<'_>,
    num_resources: usize,
    num_concepts: usize,
) -> Result<ConceptIndex, PersistError> {
    let (offset, payload) = sections
        .find(SECTION_INDEX_SOA)
        .ok_or(PersistError::MissingSection(SECTION_INDEX_SOA))?;
    decode_index_soa(
        payload,
        offset,
        sections.find(SECTION_INDEX_COMPRESSED),
        num_resources,
        num_concepts,
    )
}

/// One section-table row whose payload lies inside the file.
struct SectionView<'a> {
    id: u32,
    offset: usize,
    payload: &'a [u8],
    /// Whether the payload was checked against the row's CRC.
    verified: bool,
}

/// An artifact's section table. Decoders only ever see checksummed
/// payloads: [`Sections::find`] and [`Sections::payload`] pass over rows
/// the caller of [`parse_sections`] did not name.
struct Sections<'a>(Vec<SectionView<'a>>);

impl<'a> Sections<'a> {
    /// `(file offset, payload)` of the first checksummed section `id`.
    fn find(&self, id: u32) -> Option<(usize, &'a [u8])> {
        self.0
            .iter()
            .find(|s| s.id == id && s.verified)
            .map(|s| (s.offset, s.payload))
    }

    fn payload(&self, id: u32) -> Result<&'a [u8], PersistError> {
        self.find(id)
            .map(|(_, p)| p)
            .ok_or(PersistError::MissingSection(id))
    }

    /// The stored bytes of section `id`, checksummed or not — only for
    /// comparing with bytes that were.
    fn unverified(&self, id: u32) -> Result<&'a [u8], PersistError> {
        self.0
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.payload)
            .ok_or(PersistError::MissingSection(id))
    }
}

/// The CRC-32 of section payloads already computed over the same bytes,
/// by section-table row; a row without one is checksummed when read.
#[derive(Debug, Default)]
pub(crate) struct KnownCrcs(Vec<Option<u32>>);

/// The CRC-32 of a whole file, computed range by range — header and
/// table, each section payload in file order, the padding between —
/// and combined with [`crc32_combine`], so each payload's own CRC comes
/// out of the same single read of its bytes. [`parse_sections`] then
/// compares those with the table instead of reading the payloads again.
/// A file whose table does not parse is checksummed whole; a payload
/// overlapping one already summed is left to be checksummed when read.
pub(crate) fn file_crc(bytes: &[u8]) -> (u32, KnownCrcs) {
    let Ok(Sections(rows)) = parse_sections(bytes, |_| false, &KnownCrcs::default()) else {
        return (crc32(bytes), KnownCrcs::default());
    };
    let mut known = vec![None; rows.len()];
    let mut in_file_order: Vec<(usize, usize, &[u8])> = rows
        .iter()
        .enumerate()
        .map(|(row, s)| (s.offset, row, s.payload))
        .collect();
    in_file_order.sort_unstable_by_key(|&(offset, row, _)| (offset, row));
    // `crc` is the CRC of `bytes[..done]`.
    let (mut crc, mut done) = (0u32, 0usize);
    for (offset, row, payload) in in_file_order {
        // `None` when this payload starts inside one already summed.
        let (Some(gap), Some(slot)) = (bytes.get(done..offset), known.get_mut(row)) else {
            continue;
        };
        let own = crc32(payload);
        crc = crc32_combine(crc, crc32(gap), gap.len());
        crc = crc32_combine(crc, own, payload.len());
        *slot = Some(own);
        done = offset + payload.len();
    }
    let tail = bytes.get(done..).unwrap_or_default();
    let crc = crc32_combine(crc, crc32(tail), tail.len());
    (crc, KnownCrcs(known))
}

/// Validates the header, the version and the bounds of **every** table
/// entry, and checksums the payloads of the sections `wanted` names —
/// against the CRC `known` holds for the row when there is one.
fn parse_sections<'a>(
    bytes: &'a [u8],
    wanted: impl Fn(u32) -> bool,
    known: &KnownCrcs,
) -> Result<Sections<'a>, PersistError> {
    if bytes.len() < HEADER_LEN {
        if bytes.len() >= MAGIC.len() && !bytes.starts_with(&MAGIC) {
            return Err(PersistError::BadMagic);
        }
        return Err(PersistError::Truncated { context: "header" });
    }
    if !bytes.starts_with(&MAGIC) {
        return Err(PersistError::BadMagic);
    }
    let header = |at: usize| le_u32(bytes, at).ok_or(PersistError::Truncated { context: "header" });
    let version = header(8)?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let count = widen(header(12)?);
    let table_end = HEADER_LEN.saturating_add(count.saturating_mul(TABLE_ENTRY_LEN));
    if table_end > bytes.len() {
        return Err(PersistError::Truncated {
            context: "section table",
        });
    }
    let mut sections = Vec::with_capacity(count);
    let table_short = || PersistError::Truncated {
        context: "section table",
    };
    for i in 0..count {
        // `table_end <= bytes.len()` was verified above; the checked
        // reads below keep even a wrong bound panic-free.
        let entry = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let id = le_u32(bytes, entry).ok_or_else(table_short)?;
        let offset = le_u64(bytes, entry + 4).ok_or_else(table_short)?;
        let len = le_u64(bytes, entry + 12).ok_or_else(table_short)?;
        let expected_crc = le_u32(bytes, entry + 20).ok_or_else(table_short)?;
        let (offset, len) = match (usize::try_from(offset), usize::try_from(len)) {
            (Ok(o), Ok(l)) => (o, l),
            _ => {
                return Err(PersistError::Truncated {
                    context: "section payload",
                })
            }
        };
        let payload = offset
            .checked_add(len)
            .and_then(|end| bytes.get(offset..end))
            .ok_or(PersistError::Truncated {
                context: "section payload",
            })?;
        let verified = wanted(id);
        if verified {
            let got = known
                .0
                .get(i)
                .copied()
                .flatten()
                .unwrap_or_else(|| crc32(payload));
            if got != expected_crc {
                return Err(PersistError::ChecksumMismatch {
                    section: id,
                    expected: expected_crc,
                    got,
                });
            }
        }
        sections.push(SectionView {
            id,
            offset,
            payload,
            verified,
        });
    }
    Ok(Sections(sections))
}

struct Meta {
    num_users: usize,
    num_tags: usize,
    num_resources: usize,
    num_assignments: usize,
    timings: PhaseTimings,
    trace: BuildTrace,
}

impl Meta {
    /// Users, tags, resources, assignments.
    fn counts(&self) -> [usize; 4] {
        [
            self.num_users,
            self.num_tags,
            self.num_resources,
            self.num_assignments,
        ]
    }
}

fn decode_meta(payload: &[u8]) -> Result<Meta, PersistError> {
    let mut d = Decoder::new(payload, SECTION_META);
    let num_users = d.usize()?;
    let num_tags = d.usize()?;
    let num_resources = d.usize()?;
    let num_assignments = d.usize()?;
    let mut phases = [Duration::ZERO; 5];
    for slot in &mut phases {
        *slot = Duration::from_nanos(d.u64()?);
    }
    let sweeps = d.usize()?;
    let modes = d.usize()?;
    if modes > MAX_HOSVD_MODES {
        return Err(d.err(format!("{modes} HOSVD-initialised modes")));
    }
    let mut hosvd = Vec::with_capacity(modes);
    for _ in 0..modes {
        let mode = d.usize()?;
        if !(1..=3).contains(&mode) {
            return Err(d.err(format!("HOSVD mode {mode}")));
        }
        let applies = d.usize()?;
        let projections = d.usize()?;
        let converged = match d.u64()? {
            0 => false,
            1 => true,
            flag => return Err(d.err(format!("mode {mode} converged flag {flag}"))),
        };
        hosvd.push(HosvdCounts {
            mode,
            applies,
            projections,
            converged,
        });
    }
    d.finish()?;
    let [tensor_build, tucker, distances, clustering, indexing] = phases;
    Ok(Meta {
        num_users,
        num_tags,
        num_resources,
        num_assignments,
        timings: PhaseTimings {
            tensor_build,
            tucker,
            distances,
            clustering,
            indexing,
        },
        trace: BuildTrace { hosvd, sweeps },
    })
}

fn decode_names(
    d: &mut Decoder<'_>,
    expected: usize,
    what: &str,
) -> Result<Interner, PersistError> {
    // A name is at least its 4-byte length prefix.
    let n = d.len_prefix(4)?;
    if n != expected {
        return Err(d.err(format!(
            "{what} count {n} disagrees with meta count {expected}"
        )));
    }
    let mut interner = Interner::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        if interner.insert_new(name).is_none() {
            return Err(d.err(format!("duplicate {what} names")));
        }
    }
    Ok(interner)
}

fn decode_folksonomy(payload: &[u8], meta: &Meta) -> Result<Folksonomy, PersistError> {
    let mut d = Decoder::new(payload, SECTION_FOLKSONOMY);
    let users = decode_names(&mut d, meta.num_users, "user")?;
    let tags = decode_names(&mut d, meta.num_tags, "tag")?;
    let resources = decode_names(&mut d, meta.num_resources, "resource")?;
    let n = d.len_prefix(12)?;
    if n != meta.num_assignments {
        return Err(d.err(format!(
            "assignment count {n} disagrees with meta count {}",
            meta.num_assignments
        )));
    }
    // `len_prefix` proved the `n` 12-byte records fit in the payload.
    let bytes = d.take(n.saturating_mul(12))?;
    let (words, _) = bytes.as_chunks::<4>();
    let (records, _) = words.as_chunks::<3>();
    let mut assignments = Vec::with_capacity(n);
    for &[u, t, r] in records {
        let (u, t, r) = (
            widen(u32::from_le_bytes(u)),
            widen(u32::from_le_bytes(t)),
            widen(u32::from_le_bytes(r)),
        );
        if u >= users.len() || t >= tags.len() || r >= resources.len() {
            return Err(d.err(format!("assignment ({u}, {t}, {r}) references unknown ids")));
        }
        assignments.push(TagAssignment {
            user: UserId::from_index(u),
            tag: TagId::from_index(t),
            resource: ResourceId::from_index(r),
        });
    }
    d.finish()?;
    Ok(Folksonomy::from_parts(users, tags, resources, assignments))
}

/// Decodes the model section of an artifact whose meta is `meta`. Every
/// shape is held to meta's tag count before anything is allocated.
fn decode_model(payload: &[u8], meta: &Meta) -> Result<TagModel, PersistError> {
    let num_tags = meta.num_tags;
    let mut d = Decoder::new(payload, SECTION_MODEL);
    let core_gram = match d.u64()? {
        SIGMA_LAMBDA2 => false,
        SIGMA_CORE_GRAM => true,
        tag => return Err(d.err(format!("unknown sigma source {tag}"))),
    };
    let fit = d.finite_f64("fit")?;
    let sweeps = d.usize()?;
    if sweeps != meta.trace.sweeps {
        return Err(d.err(format!(
            "{sweeps} HOOI sweeps, meta records {}",
            meta.trace.sweeps
        )));
    }
    let (rows, j2) = (d.usize()?, d.usize()?);
    if rows != num_tags {
        return Err(d.err(format!("Y2 has {rows} rows for {num_tags} tags")));
    }
    if j2 == 0 || j2 > num_tags {
        return Err(d.err(format!("J2 = {j2} outside 1..={num_tags}")));
    }
    let y2 = d.finite_matrix(rows, j2, "Y2")?;
    let n = d.usize()?;
    if n != j2 {
        return Err(d.err(format!("{n} singular values for J2 = {j2}")));
    }
    let lambda2 = d.finite_f64s(n, "lambda2")?;
    let shape = (d.usize()?, d.usize()?);
    let sigma = match (core_gram, shape) {
        (false, (0, 0)) => None,
        (false, (r, c)) => return Err(d.err(format!("{r}x{c} Sigma under Lambda2"))),
        (true, (r, c)) if (r, c) == (j2, j2) => Some(d.finite_matrix(r, c, "Sigma")?),
        (true, (r, c)) => return Err(d.err(format!("{r}x{c} Sigma for J2 = {j2}"))),
    };
    d.finish()?;
    TagModel::from_parts(y2, lambda2, sigma, fit, sweeps).map_err(|e| d.err(e.to_string()))
}

fn decode_concepts(payload: &[u8], num_tags: usize) -> Result<ConceptModel, PersistError> {
    let mut d = Decoder::new(payload, SECTION_CONCEPTS);
    let num_concepts = d.usize()?;
    // Concepts partition the tag set, so a genuine artifact always has
    // num_concepts <= num_tags; without this bound a hostile file could
    // declare 2^50 concepts and force a pathological allocation in
    // `ConceptModel::from_parts` below.
    if num_concepts > num_tags {
        return Err(d.err(format!("{num_concepts} concepts for {num_tags} tags")));
    }
    let sigma = d.f64()?;
    let n = d.len_prefix(8)?;
    if n != num_tags {
        return Err(d.err(format!("{n} assignments for {num_tags} tags")));
    }
    let mut assignments = Vec::with_capacity(n);
    for tag in 0..n {
        let c = d.usize()?;
        if c >= num_concepts {
            return Err(d.err(format!(
                "tag {tag} assigned to concept {c} of {num_concepts}"
            )));
        }
        assignments.push(c);
    }
    d.finish()?;
    Ok(ConceptModel::from_parts(assignments, num_concepts, sigma))
}

/// Carves one array out of an index payload, bulk-decoding its LE
/// elements into a `Vec`.
fn carve<T: LeScalar>(payload: &[u8], span: ArraySpan) -> Result<Vec<T>, PersistError> {
    // The decoders check the layout's `total_len == payload.len()`
    // equality first, but carve with checked arithmetic anyway.
    let bytes = span
        .len
        .checked_mul(std::mem::size_of::<T>())
        .and_then(|n| span.offset.checked_add(n))
        .and_then(|end| payload.get(span.offset..end))
        .ok_or(PersistError::Truncated {
            context: "index array",
        })?;
    Ok(bytes
        .chunks_exact(std::mem::size_of::<T>())
        .map(T::from_le_chunk)
        .collect())
}

/// LE decoding for the SoA and compressed-mirror scalar shapes.
trait LeScalar: Sized {
    fn from_le_chunk(chunk: &[u8]) -> Self;
}
// `carve` feeds these via `chunks_exact(size_of::<T>())`, so every
// chunk is full; the `map_or` defaults keep the parsing layer panic-free
// without an unreachable unwrap.
impl LeScalar for u8 {
    fn from_le_chunk(c: &[u8]) -> Self {
        c.first().copied().unwrap_or(0)
    }
}
impl LeScalar for f32 {
    fn from_le_chunk(c: &[u8]) -> Self {
        c.first_chunk::<4>().map_or(0.0, |c| f32::from_le_bytes(*c))
    }
}
impl LeScalar for u32 {
    fn from_le_chunk(c: &[u8]) -> Self {
        c.first_chunk::<4>().map_or(0, |c| u32::from_le_bytes(*c))
    }
}
impl LeScalar for u64 {
    fn from_le_chunk(c: &[u8]) -> Self {
        c.first_chunk::<8>().map_or(0, |c| u64::from_le_bytes(*c))
    }
}
impl LeScalar for f64 {
    fn from_le_chunk(c: &[u8]) -> Self {
        c.first_chunk::<8>().map_or(0.0, |c| f64::from_le_bytes(*c))
    }
}

fn decode_index_soa(
    payload: &[u8],
    file_offset: usize,
    compressed_section: Option<(usize, &[u8])>,
    num_resources: usize,
    num_concepts: usize,
) -> Result<ConceptIndex, PersistError> {
    let err = |detail: String| PersistError::Malformed {
        section: SECTION_INDEX_SOA,
        detail,
    };
    if !file_offset.is_multiple_of(8) {
        return Err(PersistError::MisalignedSection {
            section: SECTION_INDEX_SOA,
            offset: file_offset as u64,
        });
    }
    if payload.len() < SOA_HEADER_FIELDS * 8 {
        return Err(err(format!(
            "payload of {} bytes is smaller than the {}-byte header",
            payload.len(),
            SOA_HEADER_FIELDS * 8
        )));
    }
    let field = |i: usize| le_u64(payload, i * 8).ok_or_else(|| err("header truncated".to_owned()));
    let to_usize = |v: u64, what: &str| {
        usize::try_from(v).map_err(|_| err(format!("{what} = {v} exceeds usize")))
    };
    let stored_resources = to_usize(field(0)?, "num_resources")?;
    let stored_concepts = to_usize(field(1)?, "num_concepts")?;
    let block_len = field(2)?;
    let rv_nnz = to_usize(field(3)?, "rv_nnz")?;
    let n_postings = to_usize(field(4)?, "n_postings")?;
    let n_blocks = to_usize(field(5)?, "n_blocks")?;
    if stored_resources != num_resources || stored_concepts != num_concepts {
        return Err(err(format!(
            "index is {stored_resources}x{stored_concepts}, model is {num_resources}x{num_concepts}"
        )));
    }
    if block_len != BLOCK_LEN as u64 {
        return Err(err(format!(
            "block length {block_len} != supported {BLOCK_LEN}"
        )));
    }
    let layout = soa_layout(num_resources, num_concepts, rv_nnz, n_postings, n_blocks)
        .ok_or_else(|| err("array layout overflows".to_owned()))?;
    if layout.total_len != payload.len() {
        return Err(err(format!(
            "payload is {} bytes, layout requires {}",
            payload.len(),
            layout.total_len
        )));
    }

    let exact = IndexArrays {
        num_resources,
        num_concepts,
        idf: carve(payload, layout.idf)?,
        resource_norms: carve(payload, layout.resource_norms)?,
        rv_offsets: carve(payload, layout.rv_offsets)?,
        rv_concepts: carve(payload, layout.rv_concepts)?,
        rv_weights: carve(payload, layout.rv_weights)?,
        post_offsets: carve(payload, layout.post_offsets)?,
        post_ids: carve(payload, layout.post_ids)?,
        post_scores: carve(payload, layout.post_scores)?,
        block_offsets: carve(payload, layout.block_offsets)?,
        block_max: carve(payload, layout.block_max)?,
        max_impact: carve(payload, layout.max_impact)?,
    };
    let mirror = compressed_section
        .map(|(off, p)| decode_index_compressed(p, off))
        .transpose()?;
    // The checked constructor validates the exact arrays first, then
    // proves a restored mirror honest *against* them (decoded ids
    // bitwise-equal, dequantized impacts upper-bounding) or derives the
    // missing one from them — so neither hostile arrays nor a hostile
    // mirror can make any strategy disagree with the exhaustive ranking.
    ConceptIndex::from_arrays(exact, mirror).map_err(|defect| {
        let (section, detail) = match defect {
            IndexDefect::Exact(detail) => (SECTION_INDEX_SOA, detail),
            IndexDefect::Mirror(detail) => (SECTION_INDEX_COMPRESSED, detail),
        };
        PersistError::Malformed { section, detail }
    })
}

/// Decodes the compressed posting mirror's header and arrays. Honesty
/// against the exact posting arrays is checked separately, by
/// `CompressedPostings::validate_against` inside the index's checked
/// constructor.
fn decode_index_compressed(
    payload: &[u8],
    file_offset: usize,
) -> Result<CompressedPostings, PersistError> {
    let err = |detail: String| PersistError::Malformed {
        section: SECTION_INDEX_COMPRESSED,
        detail,
    };
    if !file_offset.is_multiple_of(8) {
        return Err(PersistError::MisalignedSection {
            section: SECTION_INDEX_COMPRESSED,
            offset: file_offset as u64,
        });
    }
    if payload.len() < COMPRESSED_HEADER_FIELDS * 8 {
        return Err(err(format!(
            "payload of {} bytes is smaller than the {}-byte header",
            payload.len(),
            COMPRESSED_HEADER_FIELDS * 8
        )));
    }
    let field = |i: usize| le_u64(payload, i * 8).ok_or_else(|| err("header truncated".to_owned()));
    let to_usize = |v: u64, what: &str| {
        usize::try_from(v).map_err(|_| err(format!("{what} = {v} exceeds usize")))
    };
    let n_blocks = to_usize(field(0)?, "n_blocks")?;
    let n_postings = to_usize(field(1)?, "n_postings")?;
    let packed_len = to_usize(field(2)?, "packed_len")?;
    let block_len = field(3)?;
    if block_len != BLOCK_LEN as u64 {
        return Err(err(format!(
            "block length {block_len} != supported {BLOCK_LEN}"
        )));
    }
    if packed_len < 8 {
        return Err(err(format!(
            "packed id stream of {packed_len} bytes lacks the 8 guard bytes"
        )));
    }
    let layout = compressed_layout(n_blocks, n_postings, packed_len)
        .ok_or_else(|| err("array layout overflows".to_owned()))?;
    if layout.total_len != payload.len() {
        return Err(err(format!(
            "payload is {} bytes, layout requires {}",
            payload.len(),
            layout.total_len
        )));
    }

    Ok(CompressedPostings {
        blk_pack_start: carve(payload, layout.blk_pack_start)?,
        blk_base: carve(payload, layout.blk_base)?,
        blk_scale: carve(payload, layout.blk_scale)?,
        blk_offset: carve(payload, layout.blk_offset)?,
        blk_bits: carve(payload, layout.blk_bits)?,
        quant: carve(payload, layout.quant)?,
        packed_ids: carve(payload, layout.packed_ids)?,
    })
}

// xtask:hostile-input:end — from here the bytes are typed arrays, and
// `crate::index` validates them.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CubeLsiConfig;
    use cubelsi_folksonomy::store::figure2_example;

    fn built() -> (Folksonomy, CubeLsi) {
        let f = figure2_example();
        let cfg = CubeLsiConfig {
            core_dims: Some((3, 3, 2)),
            num_concepts: Some(2),
            sigma: Some(1.0),
            max_als_iters: 30,
            als_fit_tol: 1e-10,
            ..Default::default()
        };
        let model = CubeLsi::build(&f, &cfg).unwrap();
        (f, model)
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise loop `crc32` replaced, kept as the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |c, &b| crc32_step(c, b))
    }

    /// Slicing-by-8 changed the speed, not the checksum: every length
    /// 0..=257 (none to 32 whole words, every tail) at every start offset
    /// 0..8 (every alignment of the first word) of a seeded buffer.
    #[test]
    fn crc32_equals_the_bytewise_reference() {
        let mut state = 0x5eed_c2c3_2011u64;
        let buf: Vec<u8> = (0..257 + 16)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=257 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
        // The reference is anchored on its own, not only on `crc32`.
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// `crc32_combine(crc(A), crc(B), |B|)` is `crc(A ‖ B)`: every split
    /// of lengths 0..=64 on each side, and a few long second halves
    /// (the shift's bits reach 2²⁰).
    #[test]
    fn crc32_combine_equals_the_crc_of_the_concatenation() {
        let mut state = 0xc0b1_7e5e_ed01u64;
        let buf: Vec<u8> = (0..(1 << 20) + 4097)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let check = |len_a: usize, len_b: usize| {
            let (a, b) = buf[..len_a + len_b].split_at(len_a);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), len_b),
                crc32(&buf[..len_a + len_b]),
                "lengths {len_a} + {len_b}"
            );
        };
        for len_a in 0..=64 {
            for len_b in 0..=64 {
                check(len_a, len_b);
            }
        }
        for len_b in [255, 4096, 65_537, 1 << 20] {
            check(4097, len_b);
        }
    }

    /// `file_crc` is the CRC of the whole file, and each payload CRC it
    /// hands on is that payload's — for a plain and a compressed
    /// artifact, for one whose table names a payload twice (the second
    /// row is left to be checksummed when read), and for one whose table
    /// does not parse (checksummed whole).
    #[test]
    fn file_crc_equals_the_crc_of_the_file_and_its_payloads() {
        let (f, model) = built();
        let row = |bytes: &[u8], i: usize| {
            let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let at = |o: usize| u64::from_le_bytes(bytes[e + o..e + o + 8].try_into().unwrap());
            (at(4) as usize, at(12) as usize)
        };
        let mut cases: Vec<Vec<u8>> = [false, true]
            .map(|c| save_to_vec_with(&model, &f, c))
            .into();
        let mut twice = cases[0].clone();
        let second = HEADER_LEN + TABLE_ENTRY_LEN;
        let first_row = twice[HEADER_LEN + 4..HEADER_LEN + 20].to_vec();
        twice[second + 4..second + 20].copy_from_slice(&first_row);
        cases.push(twice);
        let mut short = cases[0].clone();
        short.truncate(HEADER_LEN + 3);
        cases.push(short);
        for (case, bytes) in cases.iter().enumerate() {
            let (crc, KnownCrcs(known)) = file_crc(bytes);
            assert_eq!(crc, crc32(bytes), "case {case}");
            for (i, own) in known.iter().enumerate() {
                let (offset, len) = row(bytes, i);
                if let Some(own) = own {
                    assert_eq!(
                        *own,
                        crc32(&bytes[offset..offset + len]),
                        "case {case} row {i}"
                    );
                }
            }
            let summed = known.iter().filter(|c| c.is_some()).count();
            assert_eq!(summed, [5, 6, 4, 0][case], "case {case}");
        }
    }

    /// The CRCs a fresh table stores are the reference's, for every
    /// section of a plain and a compressed artifact.
    #[test]
    fn stored_section_crcs_equal_the_bytewise_reference() {
        let (f, model) = built();
        for compress in [false, true] {
            let bytes = save_to_vec_with(&model, &f, compress);
            let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
            assert_eq!(count, 5 + compress as usize);
            for i in 0..count {
                let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
                let offset = u64::from_le_bytes(bytes[e + 4..e + 12].try_into().unwrap()) as usize;
                let len = u64::from_le_bytes(bytes[e + 12..e + 20].try_into().unwrap()) as usize;
                let stored = u32::from_le_bytes(bytes[e + 20..e + 24].try_into().unwrap());
                assert_eq!(
                    stored,
                    crc32_bytewise(&bytes[offset..offset + len]),
                    "compress {compress} table entry {i}"
                );
            }
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (f, model) = built();
        let bytes = save_to_vec(&model, &f);
        let loaded = load_from_bytes(&bytes).unwrap();

        assert_eq!(loaded.folksonomy.stats(), f.stats());
        assert_eq!(
            loaded.model.concepts().assignments(),
            model.concepts().assignments()
        );
        assert_eq!(loaded.model.concepts().sigma(), model.concepts().sigma());
        let (a, b) = (loaded.model.tag_model(), model.tag_model());
        assert_eq!(a.fit(), b.fit());
        assert_eq!(a.sweeps(), b.sweeps());
        assert_eq!(a.lambda2(), b.lambda2());
        assert_eq!(a.y2().as_slice(), b.y2().as_slice());
        assert_eq!(a.sigma_source(), b.sigma_source());
        assert!(loaded
            .model
            .distances()
            .matrix()
            .approx_eq(model.distances().matrix(), 0.0));
        assert_eq!(loaded.model.timings().total(), model.timings().total());
        assert_eq!(loaded.model.trace(), model.trace());
        assert_eq!(loaded.model.num_users(), model.num_users());
        assert_eq!(loaded.model.num_resources(), model.num_resources());

        // Search results must be bit-identical, by name and by id.
        for name in ["folk", "people", "laptop"] {
            let a = model.search(&[name], 0);
            let b = loaded.model.search(&[name], 0);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.resource, y.resource);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    #[test]
    fn compressed_artifacts_round_trip_and_stay_bit_identical() {
        let (f, model) = built();
        let plain = save_to_vec(&model, &f);
        let compressed = save_to_vec_with(&model, &f, true);
        // Both stamp the one version; only the mirror section differs.
        assert_eq!(
            u32::from_le_bytes(plain[8..12].try_into().unwrap()),
            FORMAT_VERSION
        );
        assert_eq!(plain, save_to_vec_with(&model, &f, false));
        assert_eq!(
            u32::from_le_bytes(compressed[8..12].try_into().unwrap()),
            FORMAT_VERSION
        );

        let baseline = load_from_bytes(&plain).unwrap();
        let owned = load_from_bytes(&compressed).unwrap();
        // The restored mirror is the same mirror the uncompressed load
        // derives (compression is deterministic), so every strategy sees
        // identical bytes regardless of artifact flavor.
        assert_eq!(
            owned.model.index().compressed().quant,
            baseline.model.index().compressed().quant
        );
        assert_eq!(
            owned.model.index().compressed().packed_ids,
            baseline.model.index().compressed().packed_ids
        );
        for name in ["folk", "people", "laptop"] {
            let a = baseline.model.search(&[name], 0);
            let b = owned.model.search(&[name], 0);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.resource, y.resource);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    #[test]
    fn sections_are_eight_byte_aligned() {
        let (f, model) = built();
        let bytes = save_to_vec(&model, &f);
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        for i in 0..count {
            let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let offset = u64::from_le_bytes(bytes[e + 4..e + 12].try_into().unwrap());
            assert_eq!(offset % 8, 0, "section {i} payload misaligned");
        }
    }

    #[test]
    fn save_load_via_path() {
        let (f, model) = built();
        let path = std::env::temp_dir().join(format!(
            "cubelsi-persist-unit-{}.cubelsi",
            std::process::id()
        ));
        save_to_path(&path, &model, &f).unwrap();
        let loaded = load_from_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.folksonomy.stats(), f.stats());
    }

    #[test]
    fn empty_file_is_truncated_not_panic() {
        assert!(matches!(
            load_from_bytes(&[]),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn missing_section_reported() {
        let (f, model) = built();
        let bytes = save_to_vec(&model, &f);
        // Rewrite the first table entry's id to an unknown value: META goes
        // missing while its payload stays CRC-valid.
        let mut bad = bytes.clone();
        bad[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&0xFFu32.to_le_bytes());
        assert!(matches!(
            load_from_bytes(&bad),
            Err(PersistError::MissingSection(SECTION_META))
        ));
    }

    #[test]
    fn hostile_concept_count_is_rejected_before_allocation() {
        // A CRC-valid artifact declaring 2^50 concepts must fail with a
        // typed error, not abort in a pathological `vec![...; 2^50]`.
        let (f, model) = built();
        let mut bytes = save_to_vec(&model, &f);
        // Locate the CONCEPTS section via the table, patch its first
        // field (num_concepts) and re-record the payload CRC.
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let entry = (0..count)
            .map(|i| HEADER_LEN + i * TABLE_ENTRY_LEN)
            .find(|&e| u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == SECTION_CONCEPTS)
            .expect("concepts section present");
        let offset = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[entry + 12..entry + 20].try_into().unwrap()) as usize;
        bytes[offset..offset + 8].copy_from_slice(&(1u64 << 50).to_le_bytes());
        let crc = crc32(&bytes[offset..offset + len]);
        bytes[entry + 20..entry + 24].copy_from_slice(&crc.to_le_bytes());
        match load_from_bytes(&bytes) {
            Err(PersistError::Malformed { section, .. }) => {
                assert_eq!(section, SECTION_CONCEPTS);
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn hostile_soa_counts_are_rejected_before_allocation() {
        // Patch the SoA header's n_postings to 2^50: layout total no
        // longer matches the payload length → typed error, no allocation.
        let (f, model) = built();
        let mut bytes = save_to_vec(&model, &f);
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let entry = (0..count)
            .map(|i| HEADER_LEN + i * TABLE_ENTRY_LEN)
            .find(|&e| u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == SECTION_INDEX_SOA)
            .expect("SoA index section present");
        let offset = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[entry + 12..entry + 20].try_into().unwrap()) as usize;
        bytes[offset + 32..offset + 40].copy_from_slice(&(1u64 << 50).to_le_bytes());
        let crc = crc32(&bytes[offset..offset + len]);
        bytes[entry + 20..entry + 24].copy_from_slice(&crc.to_le_bytes());
        match load_from_bytes(&bytes) {
            Err(PersistError::Malformed { section, .. }) => {
                assert_eq!(section, SECTION_INDEX_SOA);
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn stored_names_round_trip_and_a_duplicate_is_malformed() {
        let (f, model) = built();
        let mut bytes = save_to_vec(&model, &f);
        let loaded = load_from_bytes(&bytes).unwrap().folksonomy;
        for (u, name) in (0..f.num_users()).map(|u| (u, f.user_name(UserId::from_index(u)))) {
            assert_eq!(loaded.user_name(UserId::from_index(u)), name);
            assert_eq!(loaded.user_id(name), Some(UserId::from_index(u)));
        }
        for t in (0..f.num_tags()).map(TagId::from_index) {
            assert_eq!(loaded.tag_id(f.tag_name(t)), Some(t));
        }
        for r in (0..f.num_resources()).map(ResourceId::from_index) {
            assert_eq!(loaded.resource_id(f.resource_name(r)), Some(r));
        }
        // The users array starts at byte 8 of the folksonomy payload:
        // `u1` then `u2`, each a 4-byte length and two bytes. Rename the
        // second to the first and re-record the CRC.
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let entry = (0..count)
            .map(|i| HEADER_LEN + i * TABLE_ENTRY_LEN)
            .find(|&e| {
                u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == SECTION_FOLKSONOMY
            })
            .expect("folksonomy section present");
        let offset = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[entry + 12..entry + 20].try_into().unwrap()) as usize;
        assert_eq!(&bytes[offset + 8..offset + 20], b"\x02\0\0\0u1\x02\0\0\0u2");
        bytes[offset + 19] = b'1';
        let crc = crc32(&bytes[offset..offset + len]);
        bytes[entry + 20..entry + 24].copy_from_slice(&crc.to_le_bytes());
        for got in [
            load_from_bytes(&bytes).err(),
            load_serving(&bytes, &KnownCrcs::default()).err(),
        ] {
            match got {
                Some(PersistError::Malformed { section, detail }) => {
                    assert_eq!(section, SECTION_FOLKSONOMY);
                    assert!(detail.contains("duplicate user names"), "{detail}");
                }
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_display_is_descriptive() {
        let e = PersistError::ChecksumMismatch {
            section: 3,
            expected: 1,
            got: 2,
        };
        assert!(e.to_string().contains("section 3"));
        let e = PersistError::UnsupportedVersion {
            found: 9,
            supported: FORMAT_VERSION,
        };
        assert!(e.to_string().contains('9'));
        let e = PersistError::MisalignedSection {
            section: SECTION_INDEX_SOA,
            offset: 1234,
        };
        assert!(e.to_string().contains("1234"));
    }
}
