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
//! `Y⁽²⁾` and `Σ`), the distilled [`ConceptModel`], and the offline
//! [`PhaseTimings`] and [`BuildTrace`]. The [`ConceptIndex`] is not
//! stored: it is a pure function of the corpus and the concept map
//! (Eqs. 1–2), and every load builds it from those two sections with the
//! build's own [`ConceptIndex::build`].
//!
//! # Format (`.cubelsi`)
//!
//! Everything is little-endian; no external serialization crates are used.
//!
//! ```text
//! header   8 B  magic             = "CUBELSI\0"
//!          4 B  format version    (u32, 5 — the only version read)
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
//! Within the sections, integers are `u32`/`u64` LE, floats are
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
//! ## What a load reads
//!
//! There is one load path with a section selector. Every load validates
//! the header, the version and the bounds of **every** table entry (an
//! entry running past the file is [`PersistError::Truncated`] whether or
//! not its section is wanted); it then checksums and decodes only the
//! sections its caller names, through the same decoders, and builds the
//! index from the decoded corpus and concept map:
//!
//! | section | full load | serving load |
//! |---|---|---|
//! | 1 meta | CRC + decode | CRC + decode |
//! | 2 folksonomy | CRC + decode | CRC + decode |
//! | 5 concepts | CRC + decode | CRC + decode |
//! | 9 model | CRC + decode | — |
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
//! artifact without the section serves. Under a manifest every shard file
//! is a replica of shard 0's, and only shard 0's is decoded
//! (`crate::shard`).
//!
//! Only version 5 is read: anything else — version 4 (which also stored
//! the built index, section 7, and optionally a compressed mirror of its
//! postings, section 8), versions 2 and 3 (whose sections 3 and 4 held the
//! whole Tucker decomposition and the T×T distance matrix), a future one,
//! or a zero-stamped header — is rejected with
//! [`PersistError::UnsupportedVersion`]. On the benchmark's served
//! corpus, dropping sections 7 and 8 took the file from 740 072 bytes
//! (770 400 with the mirror) to 424 848.
//!
//! # Guarantees
//!
//! * **Bit-identical serving.** The corpus and the concept map are
//!   restored verbatim, and the index is built from them by the same
//!   function the offline build ran, so a loaded engine's
//!   [`CubeLsi::search_ids`] output — scores, order, and tie-breaks — is
//!   bit-for-bit identical to the engine that was saved. Enforced by the
//!   `persist_roundtrip` integration tests over randomized corpora, and
//!   array by array by `derived_index_equals_the_built_one_bit_for_bit`.
//! * **No panics on bad input.** Corrupt, truncated, or
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
use crate::index::ConceptIndex;
use crate::pipeline::{BuildTrace, CubeLsi, HosvdCounts, PhaseTimings};
use crate::query::QueryEngine;

/// File magic: identifies a CubeLSI artifact regardless of extension.
pub const MAGIC: [u8; 8] = *b"CUBELSI\0";

/// The artifact format version: the one every save stamps and the only
/// one a load accepts (anything else is
/// [`PersistError::UnsupportedVersion`]). Bump on any layout change.
pub const FORMAT_VERSION: u32 = 5;

/// Byte length of the fixed file header (magic + version + count).
pub const HEADER_LEN: usize = 16;

/// Byte length of one section-table entry.
pub const TABLE_ENTRY_LEN: usize = 24;

const SECTION_META: u32 = 1;
const SECTION_FOLKSONOMY: u32 = 2;
const SECTION_CONCEPTS: u32 = 5;
/// The [`TagModel`]: `Y⁽²⁾`, `Λ₂`, and `Σ` under `CoreGram`.
pub const SECTION_MODEL: u32 = 9;

/// The model section's Σ-source tags.
const SIGMA_LAMBDA2: u64 = 1;
const SIGMA_CORE_GRAM: u64 = 2;

/// At most modes 2 and 3 are HOSVD-initialised; a meta section claiming
/// more is malformed.
const MAX_HOSVD_MODES: usize = 3;

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
    /// A section decoded to structurally invalid data (bad lengths,
    /// out-of-range ids, non-finite values, non-UTF-8 names, …).
    Malformed {
        /// Section id that failed to decode.
        section: u32,
        /// Human-readable description of the defect.
        detail: String,
    },
    /// A shard set is inconsistent: a shard file or manifest entry
    /// differs from shard 0's, a file's length disagrees with its entry,
    /// or the shard count is out of range (see `crate::shard`).
    Shard {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

/// `section 9`, or `shard manifest` for [`crate::shard::SECTION_MANIFEST`].
fn section_name(section: u32) -> String {
    if section == crate::shard::SECTION_MANIFEST {
        "shard manifest".to_owned()
    } else {
        format!("section {section}")
    }
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
                "{} corrupt: CRC-32 {got:#010x} != recorded {expected:#010x}",
                section_name(*section)
            ),
            PersistError::MissingSection(id) => {
                write!(f, "artifact is missing required section {id}")
            }
            PersistError::Malformed { section, detail } => {
                write!(f, "{} malformed: {detail}", section_name(*section))
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
/// format.
pub fn save_to_vec(model: &CubeLsi, folksonomy: &Folksonomy) -> Vec<u8> {
    encode_file(model, folksonomy).0
}

/// The artifact file of a built engine and the CRC-32 of the whole file,
/// combined from the CRCs the section table records, so each payload is
/// summed once.
pub(crate) fn encode_file(model: &CubeLsi, folksonomy: &Folksonomy) -> (Vec<u8>, u32) {
    assemble_file(&[
        EncodedSection::new(SECTION_META, encode_meta(model, folksonomy)),
        EncodedSection::new(SECTION_FOLKSONOMY, encode_folksonomy(folksonomy)),
        EncodedSection::new(SECTION_MODEL, encode_model(model.tag_model())),
        EncodedSection::new(SECTION_CONCEPTS, encode_concepts(model.concepts())),
    ])
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

/// Lays out header + table + payloads, starting every payload at an
/// 8-byte-aligned file offset (zero padding in between). Returns the file
/// and its CRC-32.
fn assemble_file(sections: &[EncodedSection]) -> (Vec<u8>, u32) {
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
    let mut crc = crc32(&out);
    for s in sections {
        let pad = padded(s.payload.len()) - s.payload.len();
        out.extend_from_slice(&s.payload);
        out.resize(out.len() + pad, 0);
        crc = crc32_combine(crc, s.crc, s.payload.len());
        crc = crc32_combine(crc, crc32(&[0; 8][..pad]), pad);
    }
    (out, crc)
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

/// Writes the artifact to a file path atomically ([`write_atomic`]).
pub fn save_to_path(
    path: impl AsRef<Path>,
    model: &CubeLsi,
    folksonomy: &Folksonomy,
) -> Result<(), PersistError> {
    write_atomic(path.as_ref(), &save_to_vec(model, folksonomy))
}

/// Shim for the frozen `perfbench/`, which still passes a compression
/// choice: there is no compressed posting mirror since format 5, and this
/// is [`save_to_path`].
#[doc(hidden)]
pub fn save_to_path_with(
    path: impl AsRef<Path>,
    model: &CubeLsi,
    folksonomy: &Folksonomy,
    _compress: bool,
) -> Result<(), PersistError> {
    save_to_path(path, model, folksonomy)
}

/// Writes `bytes` to `path` atomically: they go to a temporary sibling
/// first and are renamed into place only after a successful sync, so a
/// crash mid-save can never destroy a previous good file at the same
/// path.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
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

/// Shim for the frozen `perfbench/`, whose query workloads report it as
/// `artifact_mb`: the bytes `ix` took in format 4's index section, a
/// 48-byte header, then each array, `u32` arrays zero-padded to 8 bytes.
/// That section held per-resource tf-idf vectors and norms and a
/// per-list maximum beside today's arrays, so the size is computed from
/// the counts: R + 1 offsets and R norms for R resources; one vector
/// entry (a `u32` concept and an `f64` weight) per posting, as every
/// nonzero entry of a positive-norm vector is one; C + 1 offsets of
/// each ragged array, C idf values and C maxima for C concepts; one
/// `f64` per block. No artifact stores the index since format 5, and
/// `_compress`, which added format 4's compressed mirror, is ignored.
#[doc(hidden)]
pub fn index_artifact_bytes(ix: &ConceptIndex, _compress: bool) -> usize {
    let (r, c, p) = (ix.num_resources(), ix.num_concepts(), ix.num_postings());
    let blocks = ix.as_arrays().block_max.len();
    let u32s = (4 * p).div_ceil(8) * 8;
    let f64s_and_offsets = (2 * r + 1) + 2 * p + (4 * c + 2) + blocks;
    48 + 8 * f64s_and_offsets + 2 * u32s
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

// xtask:hostile-input:begin — the load path runs on raw artifact bytes.

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
const SERVING_SECTIONS: [u32; 3] = [SECTION_META, SECTION_FOLKSONOMY, SECTION_CONCEPTS];

/// What serving keeps of an artifact — corpus, concept model, and the
/// index built from them — plus the meta the full load reads on.
pub(crate) struct Serving {
    pub(crate) folksonomy: Folksonomy,
    pub(crate) concepts: ConceptModel,
    pub(crate) index: ConceptIndex,
    meta: Meta,
}

/// The serving load of one artifact: header, version and every table
/// entry's bounds are validated, but only [`SERVING_SECTIONS`] are
/// checksummed and decoded. A damaged byte inside the model payload
/// therefore does not fail it (it fails [`load_from_bytes`], and under a
/// manifest the file checksum), and neither does its absence.
/// `known` carries payload CRCs already computed over `bytes`
/// ([`file_crc`]).
pub(crate) fn load_serving(bytes: &[u8], known: &KnownCrcs) -> Result<Serving, PersistError> {
    decode_serving(&parse_sections(
        bytes,
        |id| SERVING_SECTIONS.contains(&id),
        known,
    )?)
}

/// Decodes meta, corpus and concept map, and builds the index from the
/// last two with [`ConceptIndex::build`] — the same function, over the
/// same decoded inputs, as the offline build, so the index is the built
/// one bit for bit.
fn decode_serving(sections: &Sections<'_>) -> Result<Serving, PersistError> {
    let meta = decode_meta(sections.payload(SECTION_META)?)?;
    let folksonomy = decode_folksonomy(sections.payload(SECTION_FOLKSONOMY)?, &meta)?;
    let concepts = decode_concepts(sections.payload(SECTION_CONCEPTS)?, meta.num_tags)?;
    let index = ConceptIndex::build(&folksonomy, &concepts);
    Ok(Serving {
        folksonomy,
        concepts,
        index,
        meta,
    })
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
/// payloads: [`Sections::payload`] passes over rows the caller of
/// [`parse_sections`] did not name.
struct Sections<'a>(Vec<SectionView<'a>>);

impl<'a> Sections<'a> {
    /// The payload of the first checksummed section `id`.
    fn payload(&self, id: u32) -> Result<&'a [u8], PersistError> {
        self.0
            .iter()
            .find(|s| s.id == id && s.verified)
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

// xtask:hostile-input:end

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
    /// hands on is that payload's — for an artifact, for one whose table
    /// names a payload twice (the second row is left to be checksummed
    /// when read), and for one whose table does not parse (checksummed
    /// whole).
    #[test]
    fn file_crc_equals_the_crc_of_the_file_and_its_payloads() {
        let (f, model) = built();
        let row = |bytes: &[u8], i: usize| {
            let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let at = |o: usize| u64::from_le_bytes(bytes[e + o..e + o + 8].try_into().unwrap());
            (at(4) as usize, at(12) as usize)
        };
        let mut cases = vec![save_to_vec(&model, &f)];
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
            assert_eq!(summed, [4, 3, 0][case], "case {case}");
        }
    }

    /// The CRCs a fresh table stores are the reference's, for every
    /// section, and the file CRC `encode_file` combines from them is the
    /// reference's over the whole file.
    #[test]
    fn stored_section_crcs_equal_the_bytewise_reference() {
        let (f, model) = built();
        let (bytes, file_crc) = encode_file(&model, &f);
        assert_eq!(file_crc, crc32_bytewise(&bytes));
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        assert_eq!(count, 4);
        for i in 0..count {
            let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let offset = u64::from_le_bytes(bytes[e + 4..e + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[e + 12..e + 20].try_into().unwrap()) as usize;
            let stored = u32::from_le_bytes(bytes[e + 20..e + 24].try_into().unwrap());
            assert_eq!(
                stored,
                crc32_bytewise(&bytes[offset..offset + len]),
                "table entry {i}"
            );
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

    /// `build --compress` saves through `save_to_path_with(.., true)`,
    /// which has no mirror to add since format 5: it writes the plain
    /// artifact, which loads and answers bit-identically.
    #[test]
    fn compressed_artifacts_round_trip_and_stay_bit_identical() {
        let (f, model) = built();
        let plain = save_to_vec(&model, &f);
        assert_eq!(
            u32::from_le_bytes(plain[8..12].try_into().unwrap()),
            FORMAT_VERSION
        );
        let path = std::env::temp_dir().join(format!(
            "cubelsi-persist-compress-{}.cubelsi",
            std::process::id()
        ));
        save_to_path_with(&path, &model, &f, true).unwrap();
        let compressed = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(compressed, plain);
        let loaded = load_from_bytes(&compressed).unwrap();
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

    /// The index a serving load derives equals the built model's, every
    /// array compared by bits, over seeded random corpora under random
    /// hard concept maps (many resources share a vector, so impacts tie),
    /// the empty corpus, and one whose concepts each annotate every
    /// resource (all idf 0, no postings).
    #[test]
    fn derived_index_equals_the_built_one_bit_for_bit() {
        use cubelsi_folksonomy::FolksonomyBuilder;
        let mut state = 0xde71_7ed5_2011u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let mut corpora = vec![FolksonomyBuilder::new().build()];
        let mut everywhere = FolksonomyBuilder::new();
        for r in 0..6 {
            for t in ["x", "y"] {
                everywhere.add("u0", t, &format!("r{r}"));
            }
        }
        corpora.push(everywhere.build());
        for case in 0..24 {
            let resources = if case % 4 == 1 {
                300 + next(300)
            } else {
                1 + next(80)
            };
            let (tags, users) = (1 + next(12), 1 + next(4));
            let mut b = FolksonomyBuilder::new();
            for r in 0..resources {
                for _ in 0..1 + next(4) {
                    b.add(
                        &format!("u{}", next(users)),
                        &format!("t{}", next(tags)),
                        &format!("r{r}"),
                    );
                }
            }
            corpora.push(b.build());
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut postings = 0;
        for (case, f) in corpora.iter().enumerate() {
            let num_tags = f.num_tags();
            let num_concepts = if num_tags == 0 { 0 } else { 1 + next(num_tags) };
            let concepts = ConceptModel::from_parts(
                (0..num_tags).map(|_| next(num_concepts)).collect(),
                num_concepts,
                1.0,
            );
            let tag_model =
                TagModel::from_parts(Matrix::zeros(num_tags, 1), vec![1.0], None, 1.0, 0).unwrap();
            let model = CubeLsi::from_parts(
                tag_model,
                concepts.clone(),
                QueryEngine::new(ConceptIndex::build(f, &concepts)),
                PhaseTimings::default(),
                BuildTrace::default(),
                f,
            );
            let served = load_serving(&save_to_vec(&model, f), &KnownCrcs::default()).unwrap();
            let (a, b) = (served.index.as_arrays(), model.index().as_arrays());
            assert_eq!(
                (a.num_resources, a.num_concepts),
                (b.num_resources, b.num_concepts),
                "case {case}"
            );
            for (x, y) in [
                (&a.idf, &b.idf),
                (&a.post_scores, &b.post_scores),
                (&a.block_max, &b.block_max),
            ] {
                assert_eq!(bits(x), bits(y), "case {case}");
            }
            for (x, y) in [
                (&a.post_offsets, &b.post_offsets),
                (&a.block_offsets, &b.block_offsets),
            ] {
                assert_eq!(x, y, "case {case}");
            }
            assert_eq!(a.post_ids, b.post_ids, "case {case}");
            postings += a.post_ids.len();
        }
        assert!(postings > 1000, "only {postings} postings compared");
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
    }
}
