//! Adversarial persistence tests for the shard manifest: every way a
//! manifest or its shard artifacts can be damaged, swapped, or lied
//! about must yield a typed [`PersistError`] — and **never a partial
//! engine** ([`shard::load_source`] is all-or-nothing).

use cubelsi::core::shard::{self, LoadMode};
use cubelsi::core::{persist, CubeLsi, CubeLsiConfig, PersistError};
use cubelsi::folksonomy::store::figure2_example;
use cubelsi::folksonomy::{Folksonomy, FolksonomyBuilder};
use std::path::{Path, PathBuf};

fn built() -> (Folksonomy, CubeLsi) {
    build(figure2_example())
}

fn build(f: Folksonomy) -> (Folksonomy, CubeLsi) {
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

/// A fresh temp dir with a valid 3-shard manifest inside.
fn sharded_fixture(tag: &str) -> (PathBuf, PathBuf) {
    let (f, model) = built();
    let dir = std::env::temp_dir().join(format!(
        "cubelsi-shard-adversarial-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("model.shards");
    shard::save_sharded(&manifest, &model, &f, 3).unwrap();
    (dir, manifest)
}

fn load(path: &Path) -> Result<(), PersistError> {
    shard::load_source(path, LoadMode::Owned).map(|_| ())
}

#[test]
fn valid_fixture_loads() {
    let (dir, manifest) = sharded_fixture("ok");
    load(&manifest).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_manifest_is_typed_error() {
    let (dir, manifest) = sharded_fixture("trunc");
    let bytes = std::fs::read(&manifest).unwrap();
    // Cut at every prefix class: inside the magic, the header, an entry,
    // and the trailing checksum.
    for cut in [0usize, 4, 10, 14, 20, bytes.len() - 3, bytes.len() - 1] {
        let cut = cut.min(bytes.len() - 1);
        std::fs::write(&manifest, &bytes[..cut]).unwrap();
        match load(&manifest) {
            Err(
                PersistError::Truncated { .. }
                | PersistError::BadMagic
                | PersistError::Malformed { .. },
            ) => {}
            other => panic!("cut at {cut}: expected typed truncation error, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wrong_shard_count_is_typed_error() {
    let (dir, manifest) = sharded_fixture("count");
    let bytes = std::fs::read(&manifest).unwrap();
    // The count field is at offset 12 (magic 8 + version 4). Patching it
    // without re-recording the trailing CRC must fail the checksum;
    // patching it *with* a fixed-up CRC must fail structurally (entries
    // disagree with the declared count).
    for (count, fix_crc) in [(2u32, false), (2, true), (4, true), (0, true), (4096, true)] {
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&count.to_le_bytes());
        if fix_crc {
            let body = bad.len() - 4;
            let crc = persist::crc32(&bad[..body]);
            let end = bad.len();
            bad[end - 4..].copy_from_slice(&crc.to_le_bytes());
        }
        std::fs::write(&manifest, &bad).unwrap();
        match load(&manifest) {
            Err(
                PersistError::Malformed { .. }
                | PersistError::ChecksumMismatch { .. }
                | PersistError::Truncated { .. },
            ) => {}
            other => panic!("count={count} fix_crc={fix_crc}: got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_artifact_checksum_mismatch_is_typed_error() {
    let (dir, manifest) = sharded_fixture("crc");
    // Flip one byte deep inside shard 1's artifact payload. The manifest
    // CRC no longer matches the file, so the load must fail before the
    // artifact is even parsed.
    let shard_path = dir.join("model.shards.shard1");
    let mut bytes = std::fs::read(&shard_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&shard_path, &bytes).unwrap();
    match load(&manifest) {
        Err(PersistError::ChecksumMismatch { section, .. }) => {
            assert_eq!(section, 1, "the failing shard ordinal is reported");
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_entry_checksum_mismatch_is_typed_error() {
    let (dir, manifest) = sharded_fixture("entrycrc");
    // Corrupt shard 0's recorded CRC inside the manifest and re-record
    // the manifest's own trailing checksum: the manifest is then
    // self-consistent but disagrees with the (intact) artifact.
    let mut bytes = std::fs::read(&manifest).unwrap();
    // Entry 0 starts at offset 20 (magic 8 + version 4 + count 4 +
    // scheme 4); name length (4) + name + file_len (8) precede its CRC.
    let name_len = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
    let crc_at = 20 + 4 + name_len + 8;
    bytes[crc_at] ^= 0xFF;
    let body = bytes.len() - 4;
    let crc = persist::crc32(&bytes[..body]);
    let end = bytes.len();
    bytes[end - 4..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&manifest, &bytes).unwrap();
    match load(&manifest) {
        Err(PersistError::ChecksumMismatch { section, .. }) => assert_eq!(section, 0),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_shard_artifact_is_typed_error() {
    let (dir, manifest) = sharded_fixture("missing");
    std::fs::remove_file(dir.join("model.shards.shard2")).unwrap();
    match load(&manifest) {
        Err(PersistError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
        }
        other => panic!("expected Io(NotFound), got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_shard_artifact_is_typed_error() {
    let (dir, manifest) = sharded_fixture("shardtrunc");
    let shard_path = dir.join("model.shards.shard0");
    let bytes = std::fs::read(&shard_path).unwrap();
    std::fs::write(&shard_path, &bytes[..bytes.len() / 2]).unwrap();
    match load(&manifest) {
        Err(PersistError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard file longer than its manifest entry says is not "truncated":
/// the error names both lengths.
#[test]
fn overlong_shard_artifact_is_a_shard_error_naming_both_lengths() {
    let (dir, manifest) = sharded_fixture("shardlong");
    let shard_path = dir.join("model.shards.shard2");
    let mut bytes = std::fs::read(&shard_path).unwrap();
    let recorded = bytes.len();
    bytes.extend_from_slice(&[0u8; 8]);
    std::fs::write(&shard_path, &bytes).unwrap();
    match load(&manifest) {
        Err(PersistError::Shard { detail }) => {
            assert!(detail.contains(&recorded.to_string()), "{detail}");
            assert!(detail.contains(&bytes.len().to_string()), "{detail}");
        }
        other => panic!("expected Shard, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Re-records the manifest's entry for `shard` after its file was
/// replaced, so what is left to catch is semantic, not a checksum.
fn rerecord(manifest: &Path, shard: usize, bytes: &[u8]) {
    let mut m = shard::decode_manifest(&std::fs::read(manifest).unwrap()).unwrap();
    m.entries[shard].file_len = bytes.len() as u64;
    m.entries[shard].crc32 = persist::crc32(bytes);
    std::fs::write(manifest, shard::encode_manifest(&m)).unwrap();
}

/// Shard 0 from one build, shard 1 from a build of the same corpus with
/// every resource renamed: same counts, same concept assignment, same
/// index, and a manifest entry re-recorded for the foreign file. Every
/// shard must be a replica of shard 0, so the set is refused, naming the
/// shard.
#[test]
fn shards_cut_from_a_renamed_corpus_are_rejected() {
    let original = figure2_example();
    let mut renamed = FolksonomyBuilder::new();
    for a in original.assignments() {
        renamed.add(
            original.user_name(a.user),
            original.tag_name(a.tag),
            &format!("{}-MOVED", original.resource_name(a.resource)),
        );
    }
    let (f, model) = built();
    let (moved_f, moved_model) = build(renamed.build());
    assert_eq!(moved_f.stats(), f.stats());
    assert_eq!(
        moved_model.concepts().assignments(),
        model.concepts().assignments()
    );

    let dir = std::env::temp_dir().join(format!(
        "cubelsi-shard-adversarial-renamed-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("model.shards");
    let moved_manifest = dir.join("moved.shards");
    shard::save_sharded(&manifest, &model, &f, 3).unwrap();
    shard::save_sharded(&moved_manifest, &moved_model, &moved_f, 3).unwrap();
    load(&manifest).unwrap();
    load(&moved_manifest).unwrap();

    let foreign = std::fs::read(dir.join("moved.shards.shard1")).unwrap();
    std::fs::write(dir.join("model.shards.shard1"), &foreign).unwrap();
    rerecord(&manifest, 1, &foreign);
    match load(&manifest) {
        Err(PersistError::Shard { detail }) => {
            assert!(detail.contains("shard 1"), "{detail}");
            assert!(detail.contains("shard 0's"), "{detail}");
        }
        other => panic!("expected Shard mismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unsupported_manifest_version_is_typed_error() {
    let (dir, manifest) = sharded_fixture("version");
    let mut bytes = std::fs::read(&manifest).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&manifest, &bytes).unwrap();
    match load(&manifest) {
        Err(PersistError::UnsupportedVersion { found, .. }) => assert_eq!(found, 99),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The section id a damaged load reports.
fn reported_section(result: Result<impl std::fmt::Debug, PersistError>) -> u32 {
    match result {
        Err(PersistError::ChecksumMismatch { section, .. })
        | Err(PersistError::Malformed { section, .. }) => section,
        other => panic!("expected ChecksumMismatch or Malformed, got {other:?}"),
    }
}

#[test]
fn manifest_and_model_section_faults_report_different_sections() {
    let (dir, manifest) = sharded_fixture("ids");
    // A byte of the manifest body (shard 0's recorded file length) flipped.
    let mut bytes = std::fs::read(&manifest).unwrap();
    let name_len = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
    bytes[20 + 4 + name_len] ^= 0x01;
    std::fs::write(&manifest, &bytes).unwrap();
    let manifest_section = reported_section(shard::load_manifest(&manifest));
    // A byte in the middle of the model section's payload flipped.
    let mut artifact = std::fs::read(dir.join("model.shards.shard0")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let count = u32::from_le_bytes(artifact[12..16].try_into().unwrap()) as usize;
    let entry = (0..count)
        .map(|i| persist::HEADER_LEN + i * persist::TABLE_ENTRY_LEN)
        .find(|&e| {
            u32::from_le_bytes(artifact[e..e + 4].try_into().unwrap()) == persist::SECTION_MODEL
        })
        .expect("the artifact has a model section");
    let offset = u64::from_le_bytes(artifact[entry + 4..entry + 12].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(artifact[entry + 12..entry + 20].try_into().unwrap()) as usize;
    artifact[offset + len / 2] ^= 0x01;
    let model_section = reported_section(persist::load_from_bytes(&artifact));

    assert_eq!(manifest_section, shard::SECTION_MANIFEST);
    assert_eq!(model_section, persist::SECTION_MODEL);
    assert_ne!(manifest_section, model_section);
    // No artifact section and no shard ordinal uses the manifest's id.
    assert!(shard::SECTION_MANIFEST as usize >= shard::MAX_SHARDS);
    let shown = PersistError::ChecksumMismatch {
        section: manifest_section,
        expected: 0,
        got: 1,
    };
    assert!(
        shown.to_string().starts_with("shard manifest corrupt"),
        "{shown}"
    );
}
