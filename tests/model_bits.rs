//! Pins the bits of the built model: the CRC-32 of the concepts section
//! (5) and of the model section (9, `Y⁽²⁾`, `Λ₂`) that
//! [`persist::save_to_vec`] writes for two small corpora — a cleaned
//! `bibsonomy_like` and an uncleaned `lastfm_like`. A change to the
//! build's arithmetic (the Tucker kernels, the eigensolvers, the
//! clustering) that moves one bit of either section fails here; a change
//! that only moves memory or time does not.
//!
//! Both corpora put the mode-3 HOSVD block (`J₃` plus the eight columns
//! of oversampling) at a width that is not a multiple of eight, so the
//! Gram–Schmidt panels and the register gathers both run a partial tail.

use cubelsi::core::{persist, CubeLsi, CubeLsiConfig};
use cubelsi::datagen::{bibsonomy_like, generate, lastfm_like};
use cubelsi::folksonomy::{clean, CleaningConfig, Folksonomy};
use cubelsi::linalg::parallel;

/// The CRC-32 of section `id`'s payload, found through the section table.
fn section_crc(artifact: &[u8], id: u32) -> u32 {
    let count = u32::from_le_bytes(artifact[12..16].try_into().unwrap()) as usize;
    let entry = (0..count)
        .map(|i| persist::HEADER_LEN + i * persist::TABLE_ENTRY_LEN)
        .find(|&e| u32::from_le_bytes(artifact[e..e + 4].try_into().unwrap()) == id)
        .unwrap_or_else(|| panic!("no section {id}"));
    let offset = u64::from_le_bytes(artifact[entry + 4..entry + 12].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(artifact[entry + 12..entry + 20].try_into().unwrap()) as usize;
    persist::crc32(&artifact[offset..offset + len])
}

/// Builds `f` with the default configuration at one and at two threads
/// and returns the CRCs of sections 5 and 9, the same at both, after
/// checking the mode-3 block width.
fn model_crcs(f: &Folksonomy) -> (u32, u32) {
    let config = CubeLsiConfig::default();
    let dims = (f.num_users(), f.num_tags(), f.num_resources());
    let tucker = config.tucker_config(dims).unwrap();
    let block = tucker.core_dims.2 + tucker.subspace.oversample;
    assert!(block < dims.2, "the mode-3 block must be narrower than I₃");
    assert_ne!(
        block % 8,
        0,
        "mode-3 block width {block} is a multiple of 8"
    );
    let crcs: Vec<(u32, u32)> = [1, 2]
        .iter()
        .map(|&threads| {
            parallel::set_num_threads(threads);
            let model = CubeLsi::build(f, &config).unwrap();
            let artifact = persist::save_to_vec(&model, f);
            (
                section_crc(&artifact, 5),
                section_crc(&artifact, persist::SECTION_MODEL),
            )
        })
        .collect();
    parallel::set_num_threads(0);
    assert_eq!(crcs[0], crcs[1], "the model depends on the thread count");
    crcs[0]
}

#[test]
fn cleaned_bibsonomy_like_model_bits_are_pinned() {
    // 60 users × 112 tags × 629 resources after cleaning: J₃ = 13, a
    // 21-column block.
    let raw = generate(&bibsonomy_like(0.05, 2011).config).folksonomy;
    let (f, _) = clean(&raw, &CleaningConfig::default());
    assert_eq!(
        (f.num_users(), f.num_tags(), f.num_resources()),
        (60, 112, 629)
    );
    assert_eq!(model_crcs(&f), (0x39ce_6ad3, 0x662e_9cc4));
}

#[test]
fn uncleaned_lastfm_like_model_bits_are_pinned() {
    // 195 users × 269 tags × 142 resources: J₃ = 3, an 11-column block.
    let f = generate(&lastfm_like(0.05, 2011).config).folksonomy;
    assert_eq!(
        (f.num_users(), f.num_tags(), f.num_resources()),
        (195, 269, 142)
    );
    assert_eq!(model_crcs(&f), (0xc5b5_1561, 0xade1_1f75));
}
