//! Replicated serving sources with hot artifact reload.
//!
//! `--shards N` writes a model as a **shard manifest** plus `N` artifact
//! files, and serving loads it back as one [`ShardSet`]. The files are
//! identical replicas: the index is built from the corpus and the concept
//! map at every load (`crate::persist`), so there is no index to cut into
//! resource partitions, and a load decodes shard 0's file and checks that
//! every other file carries the same bytes. A loaded set is one
//! [`QueryEngine`] plus the corpus and concept model it serves.
//!
//! * [`save_sharded`] encodes the artifact once, writes it `N` times
//!   (each file independently loadable and checksummed), and writes the
//!   versioned manifest last, listing every file with its length and
//!   CRC-32;
//! * [`ShardSet`] is a loaded generation: one engine, answering each
//!   query on the caller's thread. Only [`ShardSet::search_batch`] forks,
//!   one chunk of queries per participant;
//! * [`ShardedEngine`] wraps a [`ShardSet`] in an atomically swappable
//!   [`Arc`] with a monotonically increasing generation number — the
//!   **hot reload** primitive: a new source replaces the set under live
//!   traffic without a restart, in-flight queries drain on the old
//!   generation (they hold its `Arc`), and steady-state serving stays
//!   allocation-free because [`QuerySession`] scratch is epoch-tagged
//!   and grow-only, so a session survives a swap unchanged.
//!
//! The replicas stay because the manifest layout and the `.shard{i}`
//! files are what existing deployments and the benchmark read. The
//! `sharded_equivalence` integration test holds every route —
//! sequential, adaptive, batched, after a hot reload — bit-identical to a
//! single engine over the same corpus.
//!
//! # Manifest format (`.cubelsi` shard manifest)
//!
//! Everything little-endian, no external deps, trailing self-checksum:
//!
//! ```text
//! 8 B   magic            = "CUBELSIM"
//! 4 B   manifest version (u32, currently 1)
//! 4 B   shard count N    (u32, 1..=MAX_SHARDS)
//! 4 B   partition scheme (u32, 1; kept from the partitioned layout)
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
//! artifact file, or a file or entry that differs from shard 0's all
//! yield a typed [`PersistError`] and **never a partial engine** —
//! enforced by the `shard_manifest_adversarial` integration tests.
//!
//! # What a load reads
//!
//! [`load_source`] holds every file's length to its manifest entry
//! first. It then reads shard 0's file and holds it to its entry's CRC-32,
//! requires every later entry to record shard 0's length and CRC, and
//! compares every later file with shard 0's byte for byte (a memcmp,
//! where a CRC of a 555 KB file costs 0.39 ms), before it gives shard 0's
//! bytes the serving load: meta, folksonomy and concepts checksummed and
//! decoded, the index built from them, the model section left alone.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use cubelsi_folksonomy::{Folksonomy, TagId};

use crate::concepts::ConceptModel;
use crate::exec;
use crate::index::{ConceptAssignment, RankedResource};
use crate::persist::{
    crc32, encode_file, file_crc, load_serving, widen, write_atomic, KnownCrcs, PersistError,
    Serving,
};
use crate::query::{QueryEngine, QuerySession};

/// Shard-manifest magic bytes (distinct from the artifact magic
/// `"CUBELSI\0"`, so the two file kinds are sniffable from their first
/// eight bytes).
pub const MANIFEST_MAGIC: [u8; 8] = *b"CUBELSIM";

/// Current manifest format version. Readers reject newer versions with
/// [`PersistError::UnsupportedVersion`].
pub const MANIFEST_VERSION: u32 = 1;

/// The partition scheme every manifest records. It named the modulo
/// split of resources the files held until format 5; the files are
/// replicas now, and the field keeps the manifest layout unchanged.
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
    /// Per-shard artifact sizes in bytes (all equal: the files are
    /// replicas).
    pub shard_bytes: Vec<u64>,
}

/// Writes a built model next to `manifest_path` as `num_shards` identical
/// `.cubelsi` artifacts (`<manifest file name>.shard<i>`), then writes the
/// manifest itself. The artifact is encoded and checksummed once. Every
/// file is written atomically; the manifest goes last, so a crash
/// mid-save can never leave a manifest pointing at missing or stale
/// shards.
pub fn save_sharded(
    manifest_path: impl AsRef<Path>,
    model: &crate::pipeline::CubeLsi,
    folksonomy: &Folksonomy,
    num_shards: usize,
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

    let (bytes, file_crc) = encode_file(model, folksonomy);
    let mut entries = Vec::with_capacity(num_shards);
    let mut shard_paths = Vec::with_capacity(num_shards);
    for shard in 0..num_shards {
        let file_name = format!("{manifest_name}.shard{shard}");
        let path = dir.join(&file_name);
        write_atomic(&path, &bytes)?;
        entries.push(ShardEntry {
            file_name,
            file_len: bytes.len() as u64,
            crc32: file_crc,
        });
        shard_paths.push(path);
    }
    write_atomic(manifest_path, &encode_manifest(&ShardManifest { entries }))?;
    Ok(ShardedSaveReport {
        manifest_path: manifest_path.to_path_buf(),
        shard_paths,
        shard_bytes: vec![bytes.len() as u64; num_shards],
    })
}

/// Shim for `build --compress`, which has nothing to add since format 5:
/// it is [`save_sharded`].
#[doc(hidden)]
pub fn save_sharded_with(
    manifest_path: impl AsRef<Path>,
    model: &crate::pipeline::CubeLsi,
    folksonomy: &Folksonomy,
    num_shards: usize,
    _compress: bool,
) -> Result<ShardedSaveReport, PersistError> {
    save_sharded(manifest_path, model, folksonomy, num_shards)
}

// ---------------------------------------------------------------------------
// ShardSet: one loaded generation
// ---------------------------------------------------------------------------

/// Shim for the frozen `perfbench/`, which assembles a [`ShardSet`] from
/// this function's output: one clone of `engine`, whatever the count.
#[doc(hidden)]
pub fn partition_engines(engine: &QueryEngine, _num_shards: usize) -> Vec<QueryEngine> {
    vec![engine.clone()]
}

/// One loaded, validated generation: an engine plus the concept model and
/// corpus needed to serve name-level queries. Immutable once built — hot
/// reload swaps whole [`ShardSet`]s via [`ShardedEngine`].
#[derive(Debug)]
pub struct ShardSet {
    engine: QueryEngine,
    folksonomy: Folksonomy,
    concepts: ConceptModel,
    /// Files the source listed: 1 for a single artifact, the manifest's
    /// entry count for a manifest.
    num_shards: usize,
}

/// Reusable per-thread scratch for [`ShardSet`] queries: a
/// [`QuerySession`], which survives hot reloads (its scratch is
/// epoch-tagged and grow-only).
pub type ShardedSession = QuerySession;

fn shard_err(detail: impl Into<String>) -> PersistError {
    PersistError::Shard {
        detail: detail.into(),
    }
}

impl ShardSet {
    /// Assembles a set from the one engine [`partition_engines`] returns,
    /// the corpus and the concept model. More or fewer than one engine, or
    /// an index whose dimensions are not the corpus's and the model's, is
    /// a typed error. Kept for the frozen `perfbench/`.
    #[doc(hidden)]
    pub fn from_parts(
        engines: Vec<QueryEngine>,
        folksonomy: Folksonomy,
        concepts: ConceptModel,
    ) -> Result<Self, PersistError> {
        let Ok([engine]) = <[QueryEngine; 1]>::try_from(engines) else {
            return Err(shard_err("a shard set serves exactly one engine"));
        };
        let ix = engine.index();
        if concepts.num_concepts() != ix.num_concepts() {
            return Err(shard_err(format!(
                "concept model has {} concepts, index has {}",
                concepts.num_concepts(),
                ix.num_concepts()
            )));
        }
        if folksonomy.num_resources() != ix.num_resources() {
            return Err(shard_err(format!(
                "corpus has {} resources, index has {}",
                folksonomy.num_resources(),
                ix.num_resources()
            )));
        }
        Ok(ShardSet {
            engine,
            folksonomy,
            concepts,
            num_shards: 1,
        })
    }

    fn from_serving(serving: Serving, num_shards: usize) -> Self {
        ShardSet {
            engine: QueryEngine::new(serving.index),
            folksonomy: serving.folksonomy,
            concepts: serving.concepts,
            num_shards,
        }
    }

    /// Number of files the source listed (1 for a single artifact).
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of resources in the id space.
    pub fn num_resources(&self) -> usize {
        self.engine.index().num_resources()
    }

    /// Number of concepts in the space.
    pub fn num_concepts(&self) -> usize {
        self.engine.index().num_concepts()
    }

    /// The corpus (name tables for query/result resolution).
    pub fn folksonomy(&self) -> &Folksonomy {
        &self.folksonomy
    }

    /// The hard concept model the index was built under.
    pub fn concepts(&self) -> &ConceptModel {
        &self.concepts
    }

    /// The set's engine, as a one-element slice (the frozen `perfbench/`
    /// reads engines through this).
    pub fn engines(&self) -> &[QueryEngine] {
        std::slice::from_ref(&self.engine)
    }

    /// Creates a reusable scratch session. The session sizes itself
    /// lazily on first use and survives hot reloads.
    pub fn session(&self) -> ShardedSession {
        ShardedSession::default()
    }

    /// Top-k on the caller's thread: the engine's pruned search.
    /// Steady-state calls on a warmed session and reused `out` buffer
    /// perform no heap allocation.
    pub fn search_tags_with(
        &self,
        session: &mut ShardedSession,
        concepts: &dyn ConceptAssignment,
        tags: &[TagId],
        top_k: usize,
        out: &mut Vec<RankedResource>,
    ) {
        self.engine
            .search_tags_with(session, concepts, tags, top_k, out);
    }

    /// The serving entry point: [`Self::search_tags_with`], counted as one
    /// `inline` decision in `exec`'s counters.
    pub fn search_tags_auto(
        &self,
        session: &mut ShardedSession,
        concepts: &dyn ConceptAssignment,
        tags: &[TagId],
        top_k: usize,
        out: &mut Vec<RankedResource>,
    ) {
        exec::note_dispatch(1);
        self.search_tags_with(session, concepts, tags, top_k, out);
    }

    /// Answers a batch of queries through [`QueryEngine::search_batch`]:
    /// results in query order, bit-identical at any thread count.
    pub fn search_batch<Q>(
        &self,
        concepts: &dyn ConceptAssignment,
        queries: &[Q],
        top_k: usize,
    ) -> Vec<Vec<RankedResource>>
    where
        Q: AsRef<[TagId]> + Sync,
    {
        self.engine.search_batch(concepts, queries, top_k)
    }
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

/// Loads a serving source — a single `.cubelsi` artifact **or** a shard
/// manifest, sniffed from the magic bytes — into a validated
/// [`ShardSet`]. This is the one function behind `query`, `serve`
/// start-up and `RELOAD`, and it reads what serving uses: the model
/// section is neither checksummed nor decoded, and the index is built
/// from the corpus and concept map (see the module docs).
///
/// For a manifest, every file's length is held to its entry before any
/// file is read, so a missing, short or long file is reported ahead of a
/// CRC mismatch. Shard 0's file is read into a buffer that lives until
/// the set is built, and held to its entry's CRC-32 (a
/// [`PersistError::ChecksumMismatch`] whose `section` is the shard
/// ordinal). Every later entry must record shard 0's length and CRC, and
/// every later file, read in turn into **one** reused buffer, must equal
/// shard 0's byte for byte; a file that does not is reported as its
/// checksum mismatch. A load therefore makes two file-sized allocations
/// whatever the shard count.
pub fn load_source(path: impl AsRef<Path>, _mode: LoadMode) -> Result<ShardSet, PersistError> {
    let path = path.as_ref();
    if sniff_source(path)? == SourceKind::Artifact {
        return load_artifact_bytes(&std::fs::read(path)?);
    }
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
    let mut bytes = Vec::new();
    let known = first.read_into(&mut bytes)?;
    first.check_replicas(later, &bytes)?;
    Ok(ShardSet::from_serving(
        load_serving(&bytes, &known)?,
        files.len(),
    ))
}

/// What [`load_source`] runs on a single artifact once its bytes are
/// read: the serving load, into a one-file set.
pub fn load_artifact_bytes(bytes: &[u8]) -> Result<ShardSet, PersistError> {
    Ok(ShardSet::from_serving(
        load_serving(bytes, &KnownCrcs::default())?,
        1,
    ))
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

    /// Reads the file into `buf`, replacing its contents. The read is
    /// exact-length, so `buf` grows only when the file is longer than its
    /// capacity.
    fn read(&self, buf: &mut Vec<u8>) -> Result<(), PersistError> {
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
        Ok(())
    }

    /// The checksum mismatch of this file, whose CRC-32 is `got`.
    fn mismatch(&self, got: u32) -> PersistError {
        PersistError::ChecksumMismatch {
            section: self.shard,
            expected: self.entry.crc32,
            got,
        }
    }

    /// Reads the file into `buf` and holds it to its entry's CRC-32,
    /// which is checked before anything in the file is. Returns the
    /// section payload CRCs the file CRC was combined from, so the load
    /// checksums each byte once.
    fn read_into(&self, buf: &mut Vec<u8>) -> Result<KnownCrcs, PersistError> {
        self.read(buf)?;
        let (got, known) = file_crc(buf);
        if got != self.entry.crc32 {
            return Err(self.mismatch(got));
        }
        Ok(known)
    }

    /// Holds the `later` files to this one, shard 0, whose checked bytes
    /// are `first`: each entry must record shard 0's length and CRC, and
    /// each file must equal `first` byte for byte.
    fn check_replicas(&self, later: &[ShardFile<'_>], first: &[u8]) -> Result<(), PersistError> {
        for file in later {
            if (file.entry.file_len, file.entry.crc32) != (self.entry.file_len, self.entry.crc32) {
                return Err(shard_err(format!(
                    "shard {}'s manifest entry (length {}, CRC {:#010x}) differs from \
                     shard 0's (length {}, CRC {:#010x}); every shard is a replica",
                    file.shard,
                    file.entry.file_len,
                    file.entry.crc32,
                    self.entry.file_len,
                    self.entry.crc32
                )));
            }
        }
        let mut buf = Vec::new();
        for file in later {
            file.read(&mut buf)?;
            if buf != first {
                return Err(file.mismatch(crc32(&buf)));
            }
        }
        Ok(())
    }
}

// xtask:hostile-input:end

// ---------------------------------------------------------------------------
// ShardedEngine: atomic generation swap (hot reload)
// ---------------------------------------------------------------------------

/// One installed generation: a generation number (monotonic per
/// [`ShardedEngine`]) plus the set serving it. Handed out as an [`Arc`],
/// so in-flight queries keep serving the generation they started on even
/// while a reload installs a successor.
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

    /// The set serving this generation.
    pub fn set(&self) -> &ShardSet {
        &self.set
    }
}

/// A hot-reloadable engine: an atomically swappable
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
    source: Option<PathBuf>,
}

impl ShardedEngine {
    /// Wraps a set as generation 1.
    pub fn new(set: ShardSet) -> Self {
        ShardedEngine {
            state: RwLock::new(Arc::new(ShardGeneration { number: 1, set })),
            next_generation: AtomicU64::new(2),
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
    pub(crate) fn install(&self, set: ShardSet) -> Arc<ShardGeneration> {
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

    /// Creates a reusable session (lazily sized; valid across
    /// generations).
    pub fn session(&self) -> ShardedSession {
        ShardedSession::default()
    }

    /// Answers a tag-id query against the current generation using its
    /// own concept model, through [`ShardSet::search_tags_auto`] on the
    /// caller's thread. Steady-state allocation-free on a warmed session;
    /// the session survives generation swaps (its scratch lazily
    /// re-validates against whichever generation's index it meets).
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

    /// `save_sharded` writes every shard file as the whole artifact
    /// `save_to_vec` writes, and every manifest entry records the length
    /// and CRC-32 of the file written.
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
        let manifest = dir.join("m.shards");
        let report = save_sharded(&manifest, &model, &f, 3).unwrap();
        let entries = load_manifest(&manifest).unwrap().entries;
        assert_eq!(entries.len(), 3);
        let whole = crate::persist::save_to_vec(&model, &f);
        for (shard, (path, entry)) in report.shard_paths.iter().zip(&entries).enumerate() {
            let bytes = std::fs::read(path).unwrap();
            assert_eq!(bytes, whole, "shard {shard}");
            assert_eq!(entry.file_len, bytes.len() as u64, "shard {shard}");
            assert_eq!(entry.crc32, crc32(&bytes), "shard {shard}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `partition_engines` is a shim: one engine, which holds every
    /// resource of the index once, whatever the count asked for.
    #[test]
    fn partition_covers_each_resource_once() {
        let (f, model) = corpus();
        let engine = QueryEngine::new(ConceptIndex::build(&f, &model));
        for n in [1, 3] {
            let parts = partition_engines(&engine, n);
            assert_eq!(parts.len(), 1);
            let (s, index) = (parts[0].index(), engine.index());
            assert_eq!(s.num_postings(), index.num_postings());
            for r in 0..index.num_resources() {
                assert_eq!(
                    s.resource_norm(r).to_bits(),
                    index.resource_norm(r).to_bits()
                );
            }
        }
    }

    /// Without a coalesced mirror or a scatter, both query routes of a
    /// set are the single engine's.
    #[test]
    fn scatter_and_auto_without_a_mirror_match_the_single_engine() {
        let (f, model, engine, set) = sharded(3);
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
    fn hot_reload_swaps_generation_and_old_arc_survives() {
        let (_, _, _, first) = sharded(2);
        let (f, model, single, second) = sharded(3);
        let engine = ShardedEngine::new(first);
        let mut session = engine.session();
        let mut out = Vec::new();
        let q = vec![f.tag_id("alpha").unwrap(), f.tag_id("gamma").unwrap()];
        engine.search_tags_with(&mut session, &q, 5, &mut out);
        let want = single.search_tags(&model, &q, 5);
        assert_eq!(out, want);

        let old = engine.current();
        let installed = engine.install(second);
        assert_eq!(old.number() + 1, installed.number());
        // The drained generation still answers (in-flight queries hold
        // its Arc)...
        let mut old_session = old.set().session();
        old.set()
            .search_tags_with(&mut old_session, &model, &q, 5, &mut out);
        assert_eq!(out, want);
        // ...while the same warmed session now serves the new one.
        engine.search_tags_with(&mut session, &q, 5, &mut out);
        assert_eq!(out, want);
        assert!(Arc::ptr_eq(&engine.current(), &installed));
    }

    #[test]
    fn reload_without_source_is_typed_error() {
        let (_, _, _, set) = sharded(2);
        let engine = ShardedEngine::new(set);
        assert!(matches!(engine.reload(), Err(PersistError::Shard { .. })));
    }
}
