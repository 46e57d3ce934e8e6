//! Sharded scatter-gather serving with hot artifact reload.
//!
//! CubeLSI's per-resource cosine scores make resource-partitioned
//! sharding embarrassingly parallel with an **exact** merge: every
//! posting of a resource lives in exactly one shard, so a shard's
//! ranking over its resources is a disjoint slice of the global ranking
//! and a k-way merge of per-shard top-k lists *is* the global top-k.
//! This module turns the `.cubelsi` artifact (`crate::persist`) into
//! that serving topology:
//!
//! * [`ConceptIndex::partition_by_resource`] splits a built index into
//!   `N` shard indices under the deterministic modulo partition
//!   (resource `r` → shard `r % N`), each keeping the global resource-id
//!   space and the global idf array so per-resource scores are
//!   bit-identical to the unsharded index;
//! * [`save_sharded`] writes `N` ordinary `.cubelsi` artifacts (each
//!   independently loadable and checksummed; the model sections they
//!   share are encoded once and written `N` times) plus a versioned
//!   **shard manifest** listing them with per-shard file checksums;
//! * [`ShardSet`] is a loaded generation of shards: per-shard
//!   [`QueryEngine`]s plus the shared corpus/model, answering each query
//!   on the caller's thread through one shared query preparation and an
//!   exact k-way merge — or, when the whole index is small, through a
//!   coalesced single-engine mirror that answers the same bits. A query
//!   never fans out over threads: only [`ShardSet::search_batch`] forks,
//!   one chunk of queries per participant;
//! * [`ShardedEngine`] wraps a [`ShardSet`] in an atomically swappable
//!   [`Arc`] with a monotonically increasing generation number — the
//!   **hot reload** primitive: a new manifest replaces the shards under
//!   live traffic without a restart, in-flight queries drain on the old
//!   generation (they hold its `Arc`), and steady-state serving stays
//!   allocation-free because [`QuerySession`] scratch is epoch-tagged
//!   and grow-only, so a session survives a swap unchanged.
//!
//! # Why the merged ranking is bit-identical
//!
//! Floating-point addition is order-sensitive, so "same resources, same
//! postings" is not enough — the *accumulation sequence* per resource
//! must match the unsharded engine's. Three properties pin it down:
//!
//! 1. **Shared query preparation.** The query is prepared once (against
//!    shard 0, whose idf array is the global one) and the resulting
//!    terms are broadcast to every shard, so weights and the query norm
//!    are the same bytes everywhere.
//! 2. **One global term order.** Terms are sorted by descending
//!    `weight × max impact` (`order_terms_with`) using
//!    the *global* per-concept maximum impact — reconstructed exactly as
//!    `max` over the shards' per-list maxima — and every shard consumes
//!    them in that order. (Shard-local suffix bounds stay exact: a
//!    shard's maxima are ≤ the global ones, and the pruning invariants
//!    hold under any processing order.)
//! 3. **Verbatim impacts.** A shard keeps its resources' posting
//!    impacts, vector weights, and norms byte-for-byte, so each
//!    contribution `wq · impact` is the same multiplication the
//!    unsharded engine performs.
//!
//! Per resource the additions are therefore the same values in the same
//! order; the merge then only interleaves disjoint, already-sorted
//! slices under the shared ranking comparator. The
//! `sharded_equivalence` integration test enforces the end result over
//! randomized corpora: shard counts ∈ {1, 2, 7}, raw and compressed
//! posting sources, one and several concepts per tag, artifacts written
//! plain and compressed, and immediately after a hot reload.
//!
//! # Manifest format (`.cubelsi` shard manifest)
//!
//! Everything little-endian, no external deps, trailing self-checksum:
//!
//! ```text
//! 8 B   magic            = "CUBELSIM"
//! 4 B   manifest version (u32, currently 1)
//! 4 B   shard count N    (u32, 1..=MAX_SHARDS)
//! 4 B   partition scheme (u32, 1 = modulo by resource id)
//! per shard, in shard order:
//!   4 B  file-name length (u32) + UTF-8 file name (a sibling of the
//!        manifest: path separators and ".." are rejected)
//!   8 B  artifact file length (u64)
//!   4 B  CRC-32 (IEEE) of the artifact file bytes
//! 4 B   CRC-32 of every preceding byte of the manifest
//! ```
//!
//! Loading is all-or-nothing: a truncated manifest, a wrong shard
//! count, a checksum mismatch (manifest or shard artifact), a missing
//! artifact file, or shards that disagree on corpus/model/partition all
//! yield a typed [`PersistError`] and **never a partial engine** —
//! enforced by the `shard_manifest_adversarial` integration tests.
//!
//! # What a load reads
//!
//! [`load_source`] reads what serving uses (the section table is in
//! `crate::persist`). Every shard file is held to its manifest entry —
//! the lengths of all files first, then each file's CRC-32 as it is read.
//! Shard 0 then gets the serving load: meta, folksonomy, concepts and
//! index sections checksummed and decoded, the model section left alone.
//! Shard `i > 0` decodes its meta counts and its index; its
//! folksonomy and concepts sections are not decoded a second time but
//! compared **byte for byte** with shard 0's, so shards cut from different
//! corpora — or from the same corpus under other names, which no
//! comparison of counts can see — are a [`PersistError::Shard`]. The
//! returned [`ShardSet`] carries shard 0's complete folksonomy,
//! assignments included.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use cubelsi_folksonomy::{Folksonomy, TagId};
use cubelsi_linalg::parallel;

use crate::concepts::ConceptModel;
use crate::exec;
use crate::index::{cmp_ranked, order_terms_with, ConceptAssignment, ConceptIndex, RankedResource};
use crate::persist::{
    crc32, file_crc, load_serving, load_shard_index, widen, KnownCrcs, ModelSections, PersistError,
    Serving,
};
use crate::query::{PruningStrategy, QueryEngine, QuerySession, MIN_QUERIES_PER_TASK};

/// Shard-manifest magic bytes (distinct from the artifact magic
/// `"CUBELSI\0"`, so the two file kinds are sniffable from their first
/// eight bytes).
pub const MANIFEST_MAGIC: [u8; 8] = *b"CUBELSIM";

/// Current manifest format version. Readers reject newer versions with
/// [`PersistError::UnsupportedVersion`].
pub const MANIFEST_VERSION: u32 = 1;

/// The only partition scheme currently defined: resource `r` belongs to
/// shard `r % N`.
pub const PARTITION_MODULO: u32 = 1;

/// Hard cap on the shard count a manifest may declare — far above any
/// sane deployment, low enough that a hostile count cannot trigger a
/// pathological allocation.
pub const MAX_SHARDS: usize = 1024;

/// Pseudo section id used in [`PersistError`]s raised by the manifest
/// itself (the artifact section ids 1–7 are taken by `persist`).
pub const SECTION_MANIFEST: u32 = 9;

/// Shim for the frozen `perfbench/`, which passes `LoadMode::Owned` as
/// [`load_source`]'s second argument in its `shard.load_source_ms` row;
/// there is one way to load. Goes with that call in the next benchmark
/// PR.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    Owned,
}

/// One shard entry of a parsed manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Artifact file name, relative to the manifest's directory (a plain
    /// file name — no path separators).
    pub file_name: String,
    /// Expected artifact file length in bytes.
    pub file_len: u64,
    /// Expected CRC-32 of the artifact file bytes.
    pub crc32: u32,
}

/// A parsed shard manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Per-shard artifact descriptors, in shard order (`entries[i]` is
    /// shard `i` of `entries.len()`).
    pub entries: Vec<ShardEntry>,
}

/// What a file's magic bytes say it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// A single `.cubelsi` model artifact.
    Artifact,
    /// A shard manifest.
    Manifest,
}

/// Sniffs whether `path` is a single artifact or a shard manifest from
/// its first eight bytes. Unknown magic is [`PersistError::BadMagic`].
pub fn sniff_source(path: impl AsRef<Path>) -> Result<SourceKind, PersistError> {
    use std::io::Read;
    let mut head = [0u8; 8];
    let mut file = std::fs::File::open(path)?;
    let mut read = 0;
    while read < head.len() {
        match file.read(&mut head[read..])? {
            0 => break,
            n => read += n,
        }
    }
    if read < head.len() {
        return Err(PersistError::Truncated { context: "header" });
    }
    if head == MANIFEST_MAGIC {
        Ok(SourceKind::Manifest)
    } else if head == crate::persist::MAGIC {
        Ok(SourceKind::Artifact)
    } else {
        Err(PersistError::BadMagic)
    }
}

fn manifest_err(detail: impl Into<String>) -> PersistError {
    PersistError::Malformed {
        section: SECTION_MANIFEST,
        detail: detail.into(),
    }
}

/// Serializes a manifest to its byte format (header + entries + trailing
/// self-CRC).
pub fn encode_manifest(manifest: &ShardManifest) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MANIFEST_MAGIC);
    buf.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    buf.extend_from_slice(&(manifest.entries.len() as u32).to_le_bytes());
    buf.extend_from_slice(&PARTITION_MODULO.to_le_bytes());
    for e in &manifest.entries {
        buf.extend_from_slice(&(e.file_name.len() as u32).to_le_bytes());
        buf.extend_from_slice(e.file_name.as_bytes());
        buf.extend_from_slice(&e.file_len.to_le_bytes());
        buf.extend_from_slice(&e.crc32.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Parses and fully validates a manifest. Structural defects are
/// reported before the trailing checksum so truncation reads as
/// [`PersistError::Truncated`], not as a checksum failure.
// xtask:hostile-input:begin — manifest bytes come off disk or the wire;
// typed errors only (no panics, truncating casts, or raw indexing).
pub fn decode_manifest(bytes: &[u8]) -> Result<ShardManifest, PersistError> {
    if bytes.len() < MANIFEST_MAGIC.len() {
        return Err(PersistError::Truncated {
            context: "shard manifest header",
        });
    }
    if !bytes.starts_with(&MANIFEST_MAGIC) {
        return Err(PersistError::BadMagic);
    }
    struct Cursor<'a> {
        bytes: &'a [u8],
        pos: usize,
    }
    impl<'a> Cursor<'a> {
        fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], PersistError> {
            let Some(out) = self
                .pos
                .checked_add(n)
                .and_then(|end| self.bytes.get(self.pos..end))
            else {
                return Err(PersistError::Truncated { context });
            };
            self.pos += n;
            Ok(out)
        }
        fn u32(&mut self, context: &'static str) -> Result<u32, PersistError> {
            match self.take(4, context)?.first_chunk::<4>() {
                Some(c) => Ok(u32::from_le_bytes(*c)),
                None => Err(PersistError::Truncated { context }),
            }
        }
        fn u64(&mut self, context: &'static str) -> Result<u64, PersistError> {
            match self.take(8, context)?.first_chunk::<8>() {
                Some(c) => Ok(u64::from_le_bytes(*c)),
                None => Err(PersistError::Truncated { context }),
            }
        }
    }
    let mut cur = Cursor { bytes, pos: 8 };
    let version = cur.u32("shard manifest header")?;
    if version > MANIFEST_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: MANIFEST_VERSION,
        });
    }
    let count = widen(cur.u32("shard manifest header")?);
    if count == 0 || count > MAX_SHARDS {
        return Err(manifest_err(format!(
            "shard count {count} outside 1..={MAX_SHARDS}"
        )));
    }
    let scheme = cur.u32("shard manifest header")?;
    if scheme != PARTITION_MODULO {
        return Err(manifest_err(format!("unknown partition scheme {scheme}")));
    }
    let mut entries = Vec::with_capacity(count);
    for shard in 0..count {
        let name_len = widen(cur.u32("shard manifest entry")?);
        if name_len == 0 || name_len > 4096 {
            return Err(manifest_err(format!(
                "shard {shard} file-name length {name_len} outside 1..=4096"
            )));
        }
        let name_bytes = cur.take(name_len, "shard manifest entry")?;
        let file_name = std::str::from_utf8(name_bytes)
            .map_err(|_| manifest_err(format!("shard {shard} file name is not UTF-8")))?
            .to_owned();
        // Shard artifacts are siblings of the manifest: a manifest must
        // not be able to point the loader at arbitrary filesystem paths.
        if file_name.contains(['/', '\\']) || file_name == ".." || file_name == "." {
            return Err(manifest_err(format!(
                "shard {shard} file name {file_name:?} must be a plain sibling file name"
            )));
        }
        let file_len = cur.u64("shard manifest entry")?;
        let crc = cur.u32("shard manifest entry")?;
        entries.push(ShardEntry {
            file_name,
            file_len,
            crc32: crc,
        });
    }
    let body_end = cur.pos;
    let stored_crc = cur.u32("shard manifest checksum")?;
    if cur.pos != bytes.len() {
        return Err(manifest_err(format!(
            "{} trailing bytes after manifest",
            bytes.len() - cur.pos
        )));
    }
    let body = bytes.get(..body_end).ok_or(PersistError::Truncated {
        context: "shard manifest body",
    })?;
    let got = crc32(body);
    if got != stored_crc {
        return Err(PersistError::ChecksumMismatch {
            section: SECTION_MANIFEST,
            expected: stored_crc,
            got,
        });
    }
    Ok(ShardManifest { entries })
}
// xtask:hostile-input:end — callers below work with the typed manifest.

/// Reads and parses a manifest file.
pub fn load_manifest(path: impl AsRef<Path>) -> Result<ShardManifest, PersistError> {
    decode_manifest(&std::fs::read(path)?)
}

/// Report of a sharded save: where everything went.
#[derive(Debug, Clone)]
pub struct ShardedSaveReport {
    /// The manifest path.
    pub manifest_path: PathBuf,
    /// Per-shard artifact paths, in shard order.
    pub shard_paths: Vec<PathBuf>,
    /// Per-shard artifact sizes in bytes.
    pub shard_bytes: Vec<u64>,
    /// Per-shard indexed-resource counts (positive-norm members).
    pub shard_resources: Vec<usize>,
    /// Per-shard posting counts.
    pub shard_postings: Vec<usize>,
}

/// Writes `bytes` to `path` atomically (temp sibling + rename), the same
/// crash-safety contract as `persist::save_to_path`.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let result = (|| {
        use std::io::Write;
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

/// Partitions a built model into `num_shards` resource shards and writes
/// them next to `manifest_path` as ordinary `.cubelsi` artifacts
/// (`<manifest file name>.shard<i>`), then writes the manifest itself.
/// Every file is written atomically; the manifest goes last, so a crash
/// mid-save can never leave a manifest pointing at missing or stale
/// shards.
pub fn save_sharded(
    manifest_path: impl AsRef<Path>,
    model: &crate::pipeline::CubeLsi,
    folksonomy: &Folksonomy,
    num_shards: usize,
) -> Result<ShardedSaveReport, PersistError> {
    save_sharded_with(manifest_path, model, folksonomy, num_shards, false)
}

/// [`save_sharded`] with the compression choice of
/// [`crate::persist::save_to_vec_with`]: with `compress`, every shard
/// artifact carries the compressed posting mirror (section 8).
pub fn save_sharded_with(
    manifest_path: impl AsRef<Path>,
    model: &crate::pipeline::CubeLsi,
    folksonomy: &Folksonomy,
    num_shards: usize,
    compress: bool,
) -> Result<ShardedSaveReport, PersistError> {
    let manifest_path = manifest_path.as_ref();
    if num_shards == 0 || num_shards > MAX_SHARDS {
        return Err(manifest_err(format!(
            "shard count {num_shards} outside 1..={MAX_SHARDS}"
        )));
    }
    let manifest_name = manifest_path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| manifest_err("manifest path has no UTF-8 file name"))?;
    let dir = manifest_path.parent().unwrap_or(Path::new("."));

    // Everything but the index is the same in every shard file: encoded
    // and checksummed once, not once a shard.
    let shared = ModelSections::encode(model, folksonomy);
    let mut entries = Vec::with_capacity(num_shards);
    let mut report = ShardedSaveReport {
        manifest_path: manifest_path.to_path_buf(),
        shard_paths: Vec::with_capacity(num_shards),
        shard_bytes: Vec::with_capacity(num_shards),
        shard_resources: Vec::with_capacity(num_shards),
        shard_postings: Vec::with_capacity(num_shards),
    };
    for shard in 0..num_shards {
        let index = model.index().partition_by_resource(shard, num_shards);
        report.shard_postings.push(index.num_postings());
        report.shard_resources.push(
            (0..index.num_resources())
                .filter(|&r| index.resource_norm(r) > 0.0)
                .count(),
        );
        let bytes = shared.with_index(&index, compress);
        let file_name = format!("{manifest_name}.shard{shard}");
        let path = dir.join(&file_name);
        write_atomic(&path, &bytes)?;
        entries.push(ShardEntry {
            file_name,
            file_len: bytes.len() as u64,
            crc32: crc32(&bytes),
        });
        report.shard_bytes.push(bytes.len() as u64);
        report.shard_paths.push(path);
    }
    write_atomic(manifest_path, &encode_manifest(&ShardManifest { entries }))?;
    Ok(report)
}

// ---------------------------------------------------------------------------
// ShardSet: one loaded generation of shards
// ---------------------------------------------------------------------------

/// Splits a single engine into `num_shards` partitioned engines (same
/// pruning strategy), the in-memory counterpart of [`save_sharded`] used
/// by benches and tests.
pub fn partition_engines(engine: &QueryEngine, num_shards: usize) -> Vec<QueryEngine> {
    (0..num_shards)
        .map(|shard| {
            QueryEngine::with_strategy(
                engine.index().partition_by_resource(shard, num_shards),
                engine.strategy(),
            )
        })
        .collect()
}

/// One loaded, validated generation of shards: per-shard engines over
/// disjoint resource slices of one corpus, plus the shared concept model
/// and corpus needed to serve name-level queries. Immutable once built —
/// hot reload swaps whole [`ShardSet`]s via [`ShardedEngine`].
#[derive(Debug)]
pub struct ShardSet {
    engines: Vec<QueryEngine>,
    folksonomy: Folksonomy,
    concepts: ConceptModel,
    /// Per-concept global maximum impact: `max` over the shards' per-list
    /// maxima, bit-identical to the unsharded index's `max_impact` array.
    /// Defines the shared term-processing order (see the module docs).
    global_max_impact: Vec<f64>,
    /// Coalesced single-engine mirror ([`ConceptIndex::coalesce`]),
    /// built when the whole corpus is small enough
    /// ([`COALESCE_MAX_POSTINGS`]) that an N-way scatter costs more
    /// than it saves. Answers bit-identically to the scatter-merge
    /// path (same invariant the `sharded_equivalence` suite enforces),
    /// so [`ShardSet::search_tags_auto`] can route through it freely.
    coalesced: Option<Box<QueryEngine>>,
}

/// Total-posting ceiling under which a [`ShardSet`] additionally builds
/// a coalesced single-engine mirror at construction (≈ 2 M postings,
/// tens of MB of SoA arrays — a few milliseconds to build, recouped
/// within seconds of small-corpus traffic where the per-query scatter
/// overhead is the dominant cost).
const COALESCE_MAX_POSTINGS: u64 = 1 << 21;

fn shard_err(detail: impl Into<String>) -> PersistError {
    PersistError::Shard {
        detail: detail.into(),
    }
}

impl ShardSet {
    /// Assembles and validates a shard set from per-shard engines plus
    /// the shared corpus and concept model. Validation is all-or-nothing:
    /// mismatched dimensions, divergent idf arrays, or a resource indexed
    /// by the wrong shard yield a typed error, never a partial set.
    pub fn from_parts(
        engines: Vec<QueryEngine>,
        folksonomy: Folksonomy,
        concepts: ConceptModel,
    ) -> Result<Self, PersistError> {
        let n = engines.len();
        if n == 0 || n > MAX_SHARDS {
            return Err(shard_err(format!(
                "shard count {n} outside 1..={MAX_SHARDS}"
            )));
        }
        let num_resources = engines[0].index().num_resources();
        let num_concepts = engines[0].index().num_concepts();
        for (i, e) in engines.iter().enumerate() {
            let ix = e.index();
            if ix.num_resources() != num_resources || ix.num_concepts() != num_concepts {
                return Err(shard_err(format!(
                    "shard {i} is {}x{}, shard 0 is {num_resources}x{num_concepts}",
                    ix.num_resources(),
                    ix.num_concepts()
                )));
            }
            // Query weights are idf-scaled; divergent idf arrays would
            // mean shards score against different query vectors.
            for l in 0..num_concepts {
                if ix.idf(l).to_bits() != engines[0].index().idf(l).to_bits() {
                    return Err(shard_err(format!(
                        "shard {i} idf[{l}] = {} disagrees with shard 0's {}",
                        ix.idf(l),
                        engines[0].index().idf(l)
                    )));
                }
            }
            // Modulo-partition membership: a shard may only index its own
            // resources, or the disjointness the exact merge relies on is
            // gone.
            for r in 0..num_resources {
                if ix.resource_norm(r) > 0.0 && r % n != i {
                    return Err(shard_err(format!(
                        "shard {i} of {n} indexes resource {r} (belongs to shard {})",
                        r % n
                    )));
                }
            }
        }
        if concepts.num_concepts() != num_concepts {
            return Err(shard_err(format!(
                "concept model has {} concepts, index has {num_concepts}",
                concepts.num_concepts()
            )));
        }
        if folksonomy.num_resources() != num_resources {
            return Err(shard_err(format!(
                "corpus has {} resources, index has {num_resources}",
                folksonomy.num_resources()
            )));
        }
        let mut global_max_impact = vec![0.0f64; num_concepts];
        for e in &engines {
            for (l, max) in global_max_impact.iter_mut().enumerate() {
                *max = max.max(e.index().max_impact(l));
            }
        }
        let total_postings: u64 = engines
            .iter()
            .map(|e| e.index().num_postings() as u64)
            .sum();
        let coalesced = if engines.len() > 1 && total_postings <= COALESCE_MAX_POSTINGS {
            let shards: Vec<&ConceptIndex> = engines.iter().map(QueryEngine::index).collect();
            Some(Box::new(QueryEngine::with_strategy(
                ConceptIndex::coalesce(&shards),
                engines[0].strategy(),
            )))
        } else {
            None
        };
        Ok(ShardSet {
            engines,
            folksonomy,
            concepts,
            global_max_impact,
            coalesced,
        })
    }

    /// Assembles a shard set from shard 0's artifact bytes and the later
    /// shards' indexes, which `rest` loads against shard 0 (under a
    /// manifest, each file already checked against its entry's length and
    /// CRC). Shard 0 gets the serving load — meta, folksonomy, concepts,
    /// index — and supplies the set's corpus and concept model. Every later
    /// shard decodes its meta counts and its index only: its folksonomy and
    /// concepts sections must equal shard 0's byte for byte, which is how
    /// shards cut from different corpora or models are told apart.
    ///
    /// The caller keeps shard 0's bytes until the set is built. Freeing them
    /// before [`Self::from_parts`] did not lower a server's peak (the
    /// reused read buffer is what does), and in a loop of reloads under
    /// glibc it made every load fault ≈ 300 pages — about one shard file —
    /// back in, against ≈ 5 when they are kept.
    fn assemble(
        first_bytes: &[u8],
        first_crcs: &KnownCrcs,
        rest: impl FnOnce(&Serving<'_>) -> Result<Vec<ConceptIndex>, PersistError>,
    ) -> Result<Self, PersistError> {
        let first = load_serving(first_bytes, first_crcs)?;
        let rest = rest(&first)?;
        let engines = std::iter::once(first.index)
            .chain(rest)
            .map(QueryEngine::new)
            .collect();
        Self::from_parts(engines, first.folksonomy, first.concepts)
    }

    /// Number of shards in the set.
    pub fn num_shards(&self) -> usize {
        self.engines.len()
    }

    /// Number of resources in the (global) id space.
    pub fn num_resources(&self) -> usize {
        self.engines[0].index().num_resources()
    }

    /// Number of concepts in the shared space.
    pub fn num_concepts(&self) -> usize {
        self.engines[0].index().num_concepts()
    }

    /// The shared corpus (name tables for query/result resolution).
    pub fn folksonomy(&self) -> &Folksonomy {
        &self.folksonomy
    }

    /// The shared hard concept model the shards were indexed under.
    pub fn concepts(&self) -> &ConceptModel {
        &self.concepts
    }

    /// The per-shard engines, in shard order.
    pub fn engines(&self) -> &[QueryEngine] {
        &self.engines
    }

    /// The active pruning strategy (uniform across shards).
    pub fn strategy(&self) -> PruningStrategy {
        self.engines[0].strategy()
    }

    /// Switches the pruning strategy on every shard (and on the
    /// coalesced mirror, when present). Results are bit-identical
    /// either way.
    pub fn set_strategy(&mut self, strategy: PruningStrategy) {
        for e in &mut self.engines {
            e.set_strategy(strategy);
        }
        if let Some(co) = &mut self.coalesced {
            co.set_strategy(strategy);
        }
    }

    /// Creates a reusable scatter-gather scratch session. The session
    /// sizes itself lazily on first use and survives hot reloads (shard
    /// scratch is epoch-tagged and grow-only).
    pub fn session(&self) -> ShardedSession {
        ShardedSession::default()
    }

    /// Scatter-gather top-k: prepares the query once, runs every shard's
    /// pruned top-k in turn on the session's one prep session, and
    /// k-way-merges the per-shard rankings, all on the caller's thread.
    /// Bit-identical — scores, order, tie-breaks — to a single unsharded
    /// [`QueryEngine`] over the same corpus. Steady-state calls on a
    /// warmed session and reused `out` buffer perform no heap allocation.
    pub fn search_tags_with(
        &self,
        session: &mut ShardedSession,
        concepts: &dyn ConceptAssignment,
        tags: &[TagId],
        top_k: usize,
        out: &mut Vec<RankedResource>,
    ) {
        out.clear();
        let ShardedSession {
            prep,
            per_shard,
            terms,
            cursors,
        } = session;
        per_shard.resize_with(self.engines.len(), Vec::new);
        let Some(norm) = self.engines[0].collect_tag_terms(prep, concepts, tags) else {
            return;
        };
        terms.clear();
        terms.extend_from_slice(prep.terms());
        order_terms_with(terms, &self.global_max_impact);
        // Every shard on the prep session: the terms are already copied
        // out, and each run begins the session afresh, so one
        // resource-wide slot map serves them all.
        for (engine, hits) in self.engines.iter().zip(per_shard.iter_mut()) {
            engine.run_with_terms(prep, terms, norm, top_k, hits);
        }
        merge_ranked(per_shard, cursors, top_k, out);
    }

    /// The serving entry point: one query on the caller's thread, through
    /// the coalesced mirror when there is one and the sequential scatter
    /// ([`Self::search_tags_with`]) otherwise. Bit-identical either way,
    /// counted as one `inline` decision in `exec`'s counters, and
    /// allocation-free in steady state on a warmed session.
    pub fn search_tags_auto(
        &self,
        session: &mut ShardedSession,
        concepts: &dyn ConceptAssignment,
        tags: &[TagId],
        top_k: usize,
        out: &mut Vec<RankedResource>,
    ) {
        exec::note_dispatch(1);
        self.answer(session, concepts, tags, top_k, out);
    }

    /// The one route of [`Self::search_tags_auto`] and the batch loop:
    /// the mirror when there is one, else the sequential scatter. The
    /// batch loop calls it directly so that a batch counts as one
    /// dispatch decision, not one a query.
    fn answer(
        &self,
        session: &mut ShardedSession,
        concepts: &dyn ConceptAssignment,
        tags: &[TagId],
        top_k: usize,
        out: &mut Vec<RankedResource>,
    ) {
        match &self.coalesced {
            Some(co) => co.search_tags_with(&mut session.prep, concepts, tags, top_k, out),
            None => self.search_tags_with(session, concepts, tags, top_k, out),
        }
    }

    /// Answers a batch of queries in chunks of [`MIN_QUERIES_PER_TASK`],
    /// which the caller and up to `num_threads() - 1` scoped threads claim
    /// in order (`cubelsi_linalg::parallel::for_each_chunk`). Each
    /// participant answers its chunks on one [`ShardedSession`] of its
    /// own, through the coalesced mirror when there is one and the
    /// sequential scatter otherwise, and writes straight into each query's
    /// result slot. Results come back in query order and are bit-identical
    /// at any thread count.
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
            ShardedSession::default,
            |session, start, chunk| {
                for (out, query) in chunk.iter_mut().zip(&queries[start..]) {
                    self.answer(session, concepts, query.as_ref(), top_k, out);
                }
            },
        );
        exec::note_dispatch(participants);
        results
    }
}

/// Reusable scatter-gather scratch for one thread: one [`QuerySession`]
/// that prepares each query and scores every shard (or the coalesced
/// mirror) in turn, each shard's top-k list, and the term and merge
/// buffers. Lazily sized on first use; safe to keep across hot reloads
/// (the session's scratch is epoch-tagged and grows on demand, so a
/// swapped shard set is served correctly without reallocation in steady
/// state).
#[derive(Debug, Default)]
pub struct ShardedSession {
    prep: QuerySession,
    per_shard: Vec<Vec<RankedResource>>,
    terms: Vec<(u32, f64)>,
    cursors: Vec<usize>,
}

/// Exact k-way merge of per-shard rankings. Each input list is sorted
/// under the shared ranking order and the lists cover disjoint resource
/// sets, so repeatedly taking the best head reproduces exactly the
/// ranking a single engine would emit. `top_k = 0` concatenates and
/// sorts (the all-matches contract). Allocation-free on warmed buffers.
fn merge_ranked(
    results: &[Vec<RankedResource>],
    cursors: &mut Vec<usize>,
    top_k: usize,
    out: &mut Vec<RankedResource>,
) {
    if results.len() == 1 {
        out.extend_from_slice(&results[0]);
        return;
    }
    if top_k == 0 {
        for r in results {
            out.extend_from_slice(r);
        }
        out.sort_unstable_by(|a, b| {
            cmp_ranked(
                a.score,
                a.resource.index() as u32,
                b.score,
                b.resource.index() as u32,
            )
        });
        return;
    }
    cursors.clear();
    cursors.resize(results.len(), 0);
    while out.len() < top_k {
        let mut best: Option<(usize, RankedResource)> = None;
        for (i, list) in results.iter().enumerate() {
            if cursors[i] >= list.len() {
                continue;
            }
            let cand = list[cursors[i]];
            let better = match best {
                None => true,
                Some((_, b)) => {
                    cmp_ranked(
                        cand.score,
                        cand.resource.index() as u32,
                        b.score,
                        b.resource.index() as u32,
                    ) == std::cmp::Ordering::Less
                }
            };
            if better {
                best = Some((i, cand));
            }
        }
        match best {
            Some((i, cand)) => {
                cursors[i] += 1;
                out.push(cand);
            }
            None => break,
        }
    }
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

/// Loads a serving source — a single `.cubelsi` artifact **or** a shard
/// manifest, sniffed from the magic bytes — into a validated
/// [`ShardSet`] (a single artifact becomes a one-shard set). This is the
/// one function behind `query`, `serve` start-up and `RELOAD`, and it
/// reads what serving uses: the model section is neither checksummed nor
/// decoded (see the module docs). For a manifest,
/// every referenced artifact's length and CRC-32 are verified against the
/// manifest entry before parsing, so a swapped or damaged shard file is
/// rejected with [`PersistError::ChecksumMismatch`] (`section` = the shard
/// ordinal) and can never serve.
///
/// Every shard file's length is held to its entry before any file is
/// read, so a missing, short or long file is reported ahead of a CRC
/// mismatch in an earlier shard. Shard 0 is then read into a buffer of its
/// own, which lives until the set is built; shards 1.. are read one after
/// the other into **one** reused buffer, sized once for the largest of
/// them. A load therefore makes two file-sized allocations whatever the
/// shard count, and the allocator's state after it does not depend on how
/// many shards there were or on the order their sizes came in.
pub fn load_source(path: impl AsRef<Path>, _mode: LoadMode) -> Result<ShardSet, PersistError> {
    let path = path.as_ref();
    match sniff_source(path)? {
        SourceKind::Artifact => {
            ShardSet::assemble(&std::fs::read(path)?, &KnownCrcs::default(), |_| {
                Ok(Vec::new())
            })
        }
        SourceKind::Manifest => {
            let manifest = load_manifest(path)?;
            let dir = path.parent().unwrap_or(Path::new("."));
            let files = manifest
                .entries
                .iter()
                .zip(0u32..)
                .map(|(entry, shard)| ShardFile::check(dir, entry, shard))
                .collect::<Result<Vec<_>, _>>()?;
            let (first, later) = files
                .split_first()
                .ok_or_else(|| shard_err("no shard artifacts"))?;
            let mut first_bytes = Vec::new();
            let first_crcs = first.read_into(&mut first_bytes)?;
            ShardSet::assemble(&first_bytes, &first_crcs, |serving| {
                let largest = later.iter().map(|file| file.len).max().unwrap_or(0);
                let mut buf = Vec::with_capacity(largest);
                later
                    .iter()
                    .map(|file| {
                        let known = file.read_into(&mut buf)?;
                        load_shard_index(&buf, &known, serving, widen(file.shard))
                    })
                    .collect()
            })
        }
    }
}

// xtask:hostile-input:begin — a shard file is as untrusted as the
// manifest that names it.

/// A shard file whose length, as the file system reports it, agrees with
/// its manifest entry; only such a length sizes a buffer.
struct ShardFile<'m> {
    path: PathBuf,
    entry: &'m ShardEntry,
    shard: u32,
    len: usize,
}

impl<'m> ShardFile<'m> {
    /// Finds shard `shard`'s file next to the manifest in `dir` and holds
    /// its length to `entry`.
    fn check(dir: &Path, entry: &'m ShardEntry, shard: u32) -> Result<Self, PersistError> {
        let path = dir.join(&entry.file_name);
        let len = std::fs::metadata(&path)?.len();
        if len < entry.file_len {
            return Err(PersistError::Truncated {
                context: "shard artifact",
            });
        }
        if len > entry.file_len {
            return Err(shard_err(format!(
                "shard {shard} artifact is {len} bytes, its manifest entry records {}",
                entry.file_len
            )));
        }
        let len = usize::try_from(len)
            .map_err(|_| shard_err(format!("shard {shard} artifact is {len} bytes")))?;
        Ok(ShardFile {
            path,
            entry,
            shard,
            len,
        })
    }

    /// Reads the file into `buf`, replacing its contents, and holds it to
    /// its entry's CRC-32, which is checked before anything in the file
    /// is. The read is exact-length, so `buf` grows only when the file is
    /// longer than its capacity. Returns the section payload CRCs the
    /// file CRC was combined from, so the load checksums each byte once.
    fn read_into(&self, buf: &mut Vec<u8>) -> Result<KnownCrcs, PersistError> {
        use std::io::Read;
        buf.clear();
        buf.reserve_exact(self.len);
        std::fs::File::open(&self.path)?
            .take(self.len as u64)
            .read_to_end(buf)?;
        if buf.len() != self.len {
            // The file shrank after its length was checked.
            return Err(PersistError::Truncated {
                context: "shard artifact",
            });
        }
        let (got, known) = file_crc(buf);
        if got != self.entry.crc32 {
            return Err(PersistError::ChecksumMismatch {
                section: self.shard,
                expected: self.entry.crc32,
                got,
            });
        }
        Ok(known)
    }
}

// xtask:hostile-input:end

// ---------------------------------------------------------------------------
// ShardedEngine: atomic generation swap (hot reload)
// ---------------------------------------------------------------------------

/// One installed generation: a generation number (monotonic per
/// [`ShardedEngine`]) plus the shard set serving it. Handed out as an
/// [`Arc`], so in-flight queries keep serving the generation they
/// started on even while a reload installs a successor.
#[derive(Debug)]
pub struct ShardGeneration {
    number: u64,
    set: ShardSet,
}

impl ShardGeneration {
    /// The generation number (starts at 1, +1 per install).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The shard set serving this generation.
    pub fn set(&self) -> &ShardSet {
        &self.set
    }
}

/// A hot-reloadable sharded engine: an atomically swappable
/// [`Arc<ShardGeneration>`]. Readers take a cheap `Arc` clone per query
/// (no allocation), a reload builds a complete new [`ShardSet`] off to
/// the side and swaps it in with one pointer store under a short write
/// lock — old sessions drain on the generation they hold, new queries
/// see the new one. A failed reload leaves the current generation
/// serving untouched.
#[derive(Debug)]
pub struct ShardedEngine {
    state: RwLock<Arc<ShardGeneration>>,
    next_generation: AtomicU64,
    strategy: PruningStrategy,
    source: Option<PathBuf>,
}

impl ShardedEngine {
    /// Wraps a shard set as generation 1, forcing `strategy` onto it
    /// (and onto every later installed generation).
    pub fn new(mut set: ShardSet, strategy: PruningStrategy) -> Self {
        set.set_strategy(strategy);
        ShardedEngine {
            state: RwLock::new(Arc::new(ShardGeneration { number: 1, set })),
            next_generation: AtomicU64::new(2),
            strategy,
            source: None,
        }
    }

    /// Records where this engine was loaded from, enabling
    /// [`Self::reload`].
    pub fn with_source(mut self, path: impl Into<PathBuf>) -> Self {
        self.source = Some(path.into());
        self
    }

    /// The currently serving generation (cheap: one `Arc` clone).
    pub fn current(&self) -> Arc<ShardGeneration> {
        self.state
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Installs a new shard set as the next generation and returns it.
    /// In-flight queries keep their old `Arc`; subsequent queries see
    /// the new generation. The generation number is claimed *under* the
    /// write lock, so concurrent installs are serialized: the highest
    /// number is always the last one stored and can never be
    /// overwritten by a straggler that loaded earlier. The replaced
    /// generation is dropped after the lock is released: when this held
    /// its last reference, freeing a whole [`ShardSet`] must not hold up
    /// every query's [`Self::current`].
    pub(crate) fn install(&self, mut set: ShardSet) -> Arc<ShardGeneration> {
        set.set_strategy(self.strategy);
        let (generation, replaced) = {
            let mut slot = self
                .state
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // ORDER: claimed under the `state` write lock, which already
            // serializes installs; SeqCst keeps the generation counter in a
            // single total order as belt and braces (reload frequency, so
            // the fence cost is irrelevant).
            let number = self.next_generation.fetch_add(1, Ordering::SeqCst);
            let generation = Arc::new(ShardGeneration { number, set });
            let replaced = std::mem::replace(&mut *slot, Arc::clone(&generation));
            (generation, replaced)
        };
        drop(replaced);
        generation
    }

    /// Re-reads the engine's source path (manifest or single artifact)
    /// from disk, fully loads and validates it, and atomically installs
    /// it as the next generation. On error the current generation keeps
    /// serving, untouched.
    pub fn reload(&self) -> Result<Arc<ShardGeneration>, PersistError> {
        let path = self
            .source
            .as_ref()
            .ok_or_else(|| shard_err("engine has no reload source path"))?;
        let set = load_source(path, LoadMode::Owned)?;
        Ok(self.install(set))
    }

    /// Creates a reusable scatter-gather session (lazily sized; valid
    /// across generations).
    pub fn session(&self) -> ShardedSession {
        ShardedSession::default()
    }

    /// Answers a tag-id query against the current generation using its
    /// own concept model, through [`ShardSet::search_tags_auto`]: the
    /// coalesced mirror or the sequential scatter on the caller's
    /// thread, bit-identical either way. Steady-state allocation-free on a
    /// warmed session; the session survives generation swaps (its
    /// scratch lazily re-validates against whichever generation's index
    /// it meets).
    pub fn search_tags_with(
        &self,
        session: &mut ShardedSession,
        tags: &[TagId],
        top_k: usize,
        out: &mut Vec<RankedResource>,
    ) {
        let generation = self.current();
        let set = generation.set();
        set.search_tags_auto(session, set.concepts(), tags, top_k, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concepts::ConceptModel;
    use crate::index::ConceptIndex;
    use cubelsi_folksonomy::FolksonomyBuilder;

    fn corpus() -> (Folksonomy, ConceptModel) {
        let mut b = FolksonomyBuilder::new();
        for r in 0..40 {
            b.add("u1", "alpha", &format!("r{r}"));
            if r % 3 == 0 {
                b.add("u2", "beta", &format!("r{r}"));
            }
            if r % 2 == 0 {
                b.add("u3", "gamma", &format!("r{r}"));
            }
        }
        let f = b.build();
        let model = ConceptModel::from_assignments(vec![0, 1, 2], 1.0);
        (f, model)
    }

    fn sharded(n: usize) -> (Folksonomy, ConceptModel, QueryEngine, ShardSet) {
        let (f, model) = corpus();
        let engine = QueryEngine::new(ConceptIndex::build(&f, &model));
        let engines = partition_engines(&engine, n);
        let set = ShardSet::from_parts(engines, f.clone(), model.clone()).unwrap();
        (f, model, engine, set)
    }

    #[test]
    fn manifest_round_trips() {
        let manifest = ShardManifest {
            entries: vec![
                ShardEntry {
                    file_name: "m.shard0".into(),
                    file_len: 123,
                    crc32: 0xDEAD_BEEF,
                },
                ShardEntry {
                    file_name: "m.shard1".into(),
                    file_len: 456,
                    crc32: 7,
                },
            ],
        };
        let bytes = encode_manifest(&manifest);
        assert_eq!(decode_manifest(&bytes).unwrap(), manifest);
    }

    #[test]
    fn manifest_rejects_path_traversal() {
        for hostile in ["../evil", "a/b", "a\\b", "..", "."] {
            let bytes = encode_manifest(&ShardManifest {
                entries: vec![ShardEntry {
                    file_name: hostile.into(),
                    file_len: 1,
                    crc32: 0,
                }],
            });
            assert!(
                matches!(decode_manifest(&bytes), Err(PersistError::Malformed { .. })),
                "{hostile} must be rejected"
            );
        }
    }

    /// `save_sharded_with` encodes the model sections once and varies the
    /// index per shard; every file must still be what a whole save of
    /// that shard's model — the composition it used to clone its way to —
    /// writes.
    #[test]
    fn shard_files_equal_whole_saves_of_the_per_shard_models() {
        use crate::pipeline::CubeLsi;
        let f = cubelsi_folksonomy::store::figure2_example();
        let cfg = crate::config::CubeLsiConfig {
            core_dims: Some((3, 3, 2)),
            num_concepts: Some(2),
            sigma: Some(1.0),
            max_als_iters: 30,
            ..Default::default()
        };
        let model = CubeLsi::build(&f, &cfg).unwrap();
        let dir = std::env::temp_dir().join(format!("cubelsi-shard-bytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let n = 3;
        for compress in [false, true] {
            let manifest = dir.join(format!("m{}.shards", compress as u8));
            let report = save_sharded_with(&manifest, &model, &f, n, compress).unwrap();
            for (shard, path) in report.shard_paths.iter().enumerate() {
                let shard_model = CubeLsi::from_parts(
                    model.tag_model().clone(),
                    model.concepts().clone(),
                    QueryEngine::new(model.index().partition_by_resource(shard, n)),
                    *model.timings(),
                    model.trace().clone(),
                    &f,
                );
                assert_eq!(
                    std::fs::read(path).unwrap(),
                    crate::persist::save_to_vec_with(&shard_model, &f, compress),
                    "compress {compress} shard {shard}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partition_covers_each_resource_once() {
        let (f, model) = corpus();
        let index = ConceptIndex::build(&f, &model);
        let n = 3;
        let shards: Vec<ConceptIndex> = (0..n).map(|i| index.partition_by_resource(i, n)).collect();
        let mut postings = 0usize;
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.num_resources(), index.num_resources());
            assert_eq!(s.num_concepts(), index.num_concepts());
            postings += s.num_postings();
            for r in 0..s.num_resources() {
                if r % n != i {
                    assert_eq!(s.resource_norm(r), 0.0, "shard {i} holds foreign r{r}");
                    assert!(s.resource_vector(r).is_empty());
                } else {
                    assert_eq!(
                        s.resource_norm(r).to_bits(),
                        index.resource_norm(r).to_bits()
                    );
                }
            }
            for l in 0..s.num_concepts() {
                assert_eq!(s.idf(l).to_bits(), index.idf(l).to_bits());
            }
        }
        assert_eq!(postings, index.num_postings());
    }

    #[test]
    fn coalesced_index_matches_unsharded_build() {
        let (f, model) = corpus();
        let index = ConceptIndex::build(&f, &model);
        let n = 3;
        let shards: Vec<ConceptIndex> = (0..n).map(|i| index.partition_by_resource(i, n)).collect();
        let refs: Vec<&ConceptIndex> = shards.iter().collect();
        let merged = ConceptIndex::coalesce(&refs);
        assert_eq!(merged.num_resources(), index.num_resources());
        assert_eq!(merged.num_concepts(), index.num_concepts());
        assert_eq!(merged.num_postings(), index.num_postings());
        for l in 0..index.num_concepts() {
            assert_eq!(merged.idf(l).to_bits(), index.idf(l).to_bits());
            let (a, b) = (merged.postings(l), index.postings(l));
            assert_eq!(a.ids, b.ids, "concept {l} ids diverge");
            let (sa, sb): (Vec<u64>, Vec<u64>) = (
                a.scores.iter().map(|s| s.to_bits()).collect(),
                b.scores.iter().map(|s| s.to_bits()).collect(),
            );
            assert_eq!(sa, sb, "concept {l} scores diverge");
        }
        for r in 0..index.num_resources() {
            assert_eq!(
                merged.resource_norm(r).to_bits(),
                index.resource_norm(r).to_bits()
            );
        }
    }

    #[test]
    fn scatter_and_auto_without_a_mirror_match_the_single_engine() {
        let (f, model, engine, mut set) = sharded(3);
        set.coalesced = None;
        let mut session = set.session();
        let mut out = Vec::new();
        let mut reference = engine.session();
        let mut expected = Vec::new();
        for t in 0..f.num_tags() {
            let tags = [TagId::from_index(t)];
            for top_k in [1, 5, 0] {
                set.search_tags_with(&mut session, &model, &tags, top_k, &mut out);
                engine.search_tags_with(&mut reference, &model, &tags, top_k, &mut expected);
                assert_eq!(out, expected, "tag {t} k {top_k}");
                set.search_tags_auto(&mut session, &model, &tags, top_k, &mut out);
                assert_eq!(out, expected, "auto: tag {t} k {top_k}");
            }
        }
    }

    #[test]
    fn global_max_impact_matches_unsharded() {
        let (_, _, engine, set) = sharded(3);
        for l in 0..set.num_concepts() {
            assert_eq!(
                set.global_max_impact[l].to_bits(),
                engine.index().max_impact(l).to_bits(),
                "concept {l}"
            );
        }
    }

    #[test]
    fn sharded_search_matches_single_engine_on_toy_corpus() {
        let (f, model, engine, set) = sharded(3);
        let tags: Vec<Vec<TagId>> = vec![
            vec![f.tag_id("alpha").unwrap()],
            vec![f.tag_id("alpha").unwrap(), f.tag_id("beta").unwrap()],
            vec![
                f.tag_id("gamma").unwrap(),
                f.tag_id("beta").unwrap(),
                f.tag_id("alpha").unwrap(),
            ],
        ];
        let mut session = set.session();
        let (mut merged, mut auto) = (Vec::new(), Vec::new());
        for q in &tags {
            for k in [0usize, 1, 5, 100] {
                let single = engine.search_tags(&model, q, k);
                set.search_tags_with(&mut session, &model, q, k, &mut merged);
                set.search_tags_auto(&mut session, &model, q, k, &mut auto);
                assert_eq!(merged.len(), single.len(), "k={k} q={q:?}");
                for (m, s) in merged.iter().zip(single.iter()) {
                    assert_eq!(m.resource, s.resource, "k={k}");
                    assert_eq!(m.score.to_bits(), s.score.to_bits(), "k={k}");
                }
                assert_eq!(auto, merged, "auto k={k}");
            }
        }
    }

    #[test]
    fn wrong_shard_membership_is_rejected() {
        let (f, model) = corpus();
        let engine = QueryEngine::new(ConceptIndex::build(&f, &model));
        // Shard 1's index installed at position 0 of a 2-shard set:
        // every resource it serves belongs to the other shard.
        let wrong = vec![
            QueryEngine::new(engine.index().partition_by_resource(1, 2)),
            QueryEngine::new(engine.index().partition_by_resource(1, 2)),
        ];
        assert!(matches!(
            ShardSet::from_parts(wrong, f, model),
            Err(PersistError::Shard { .. })
        ));
    }

    #[test]
    fn hot_reload_swaps_generation_and_old_arc_survives() {
        let (_, _, _, set2) = sharded(2);
        let (f, model, single, set3) = sharded(3);
        let engine = ShardedEngine::new(set2, PruningStrategy::BlockMax);
        let mut session = engine.session();
        let mut out = Vec::new();
        let q = vec![f.tag_id("alpha").unwrap(), f.tag_id("gamma").unwrap()];
        engine.search_tags_with(&mut session, &q, 5, &mut out);
        let want = single.search_tags(&model, &q, 5);
        assert_eq!(out, want);

        let old = engine.current();
        let installed = engine.install(set3);
        assert_eq!(old.number() + 1, installed.number());
        // The drained generation still answers (in-flight queries hold
        // its Arc)...
        assert_eq!(old.set().num_shards(), 2);
        let mut old_session = old.set().session();
        old.set()
            .search_tags_with(&mut old_session, &model, &q, 5, &mut out);
        assert_eq!(out, want);
        // ...while the same warmed session now serves the new one.
        engine.search_tags_with(&mut session, &q, 5, &mut out);
        assert_eq!(out, want);
        assert_eq!(engine.current().set().num_shards(), 3);
    }

    #[test]
    fn reload_without_source_is_typed_error() {
        let (_, _, _, set) = sharded(2);
        let engine = ShardedEngine::new(set, PruningStrategy::BlockMax);
        assert!(matches!(engine.reload(), Err(PersistError::Shard { .. })));
    }

    #[test]
    fn merge_handles_ties_and_exhaustion() {
        let rr = |r: usize, s: f64| RankedResource {
            resource: cubelsi_folksonomy::ResourceId::from_index(r),
            score: s,
        };
        // Equal scores must interleave by ascending resource id.
        let results = [vec![rr(1, 0.5), rr(3, 0.5)], vec![rr(0, 0.5), rr(2, 0.25)]];
        let mut cursors = Vec::new();
        let mut out = Vec::new();
        merge_ranked(&results, &mut cursors, 10, &mut out);
        let got: Vec<usize> = out.iter().map(|h| h.resource.index()).collect();
        assert_eq!(got, vec![0, 1, 3, 2]);
        out.clear();
        merge_ranked(&results, &mut cursors, 2, &mut out);
        assert_eq!(out.len(), 2);
    }
}
