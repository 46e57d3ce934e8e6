//! Wraps a clean generated dataset in realistic crawl noise.
//!
//! Table II of the paper contrasts *raw* crawls against the *cleaned*
//! datasets. The raw layer adds exactly the artifacts the §VI-A pipeline is
//! designed to strip: system-generated tags, mixed-case duplicates of real
//! tags, and long tails of singleton users/tags/resources.

use cubelsi_folksonomy::{Folksonomy, FolksonomyBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`rawify`].
#[derive(Debug, Clone)]
pub struct RawNoiseConfig {
    /// Fraction of assignments whose tag is re-emitted with scrambled case.
    pub case_mangle_rate: f64,
    /// Number of system-tag assignments to sprinkle (tags like
    /// `system:imported`).
    pub system_tag_assignments: usize,
    /// Number of singleton "drive-by" users, each contributing one
    /// assignment with a unique rare tag on a unique rare resource.
    pub singleton_users: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RawNoiseConfig {
    fn default() -> Self {
        RawNoiseConfig {
            case_mangle_rate: 0.08,
            system_tag_assignments: 200,
            singleton_users: 150,
            seed: 0x7a9,
        }
    }
}

const SYSTEM_TAGS: &[&str] = &["system:imported", "system:unfiled", "system:auto"];

/// Produces a noisy "raw crawl" superset of `clean`.
///
/// Every clean assignment is preserved (possibly with its tag's case
/// scrambled), and noise records are appended. Cleaning the result with the
/// §VI-A defaults recovers a dataset close to `clean`.
pub fn rawify(clean: &Folksonomy, config: &RawNoiseConfig) -> Folksonomy {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = FolksonomyBuilder::new();

    for a in clean.assignments() {
        let user = clean.user_name(a.user).to_owned();
        let resource = clean.resource_name(a.resource).to_owned();
        let tag = clean.tag_name(a.tag);
        let tag = if rng.gen::<f64>() < config.case_mangle_rate {
            mangle_case(tag, &mut rng)
        } else {
            tag.to_owned()
        };
        b.add(&user, &tag, &resource);
    }

    // System tags attached to existing users/resources.
    let n_users = clean.num_users().max(1);
    let n_resources = clean.num_resources().max(1);
    for _ in 0..config.system_tag_assignments {
        let u = rng.gen_range(0..n_users);
        let r = rng.gen_range(0..n_resources);
        let tag = SYSTEM_TAGS[rng.gen_range(0..SYSTEM_TAGS.len())];
        b.add(
            clean.user_name(cubelsi_folksonomy::UserId::from_index(u)),
            tag,
            clean.resource_name(cubelsi_folksonomy::ResourceId::from_index(r)),
        );
    }

    // Drive-by singletons: unique user + unique tag + unique resource.
    for i in 0..config.singleton_users {
        b.add(
            &format!("driveby{i:05}"),
            &format!("raretag{i:05}"),
            &format!("rareres{i:05}"),
        );
    }

    b.build()
}

fn mangle_case(tag: &str, rng: &mut StdRng) -> String {
    tag.chars()
        .map(|c| {
            if c.is_ascii_alphabetic() && rng.gen::<f64>() < 0.5 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};
    use cubelsi_folksonomy::{clean, CleaningConfig};

    fn clean_dataset() -> Folksonomy {
        generate(&GeneratorConfig {
            users: 40,
            resources: 30,
            concepts: 6,
            assignments: 3_000,
            seed: 5,
            ..Default::default()
        })
        .folksonomy
    }

    #[test]
    fn raw_is_a_noisy_superset() {
        let base = clean_dataset();
        let raw = rawify(&base, &RawNoiseConfig::default());
        assert!(raw.num_users() > base.num_users());
        assert!(raw.num_tags() > base.num_tags());
        assert!(raw.num_resources() > base.num_resources());
        assert!(raw.num_assignments() > base.num_assignments());
    }

    #[test]
    fn raw_contains_system_tags_and_singletons() {
        let base = clean_dataset();
        let raw = rawify(&base, &RawNoiseConfig::default());
        assert!(raw.tag_id("system:imported").is_some() || raw.tag_id("system:unfiled").is_some());
        assert!(raw.user_id("driveby00000").is_some());
        assert!(raw.tag_id("raretag00000").is_some());
    }

    #[test]
    fn cleaning_raw_removes_the_noise() {
        let base = clean_dataset();
        let raw = rawify(&base, &RawNoiseConfig::default());
        let (cleaned, report) = clean(&raw, &CleaningConfig::default());
        // All singleton and system noise must be gone.
        assert!(cleaned.tag_id("system:imported").is_none());
        assert!(cleaned.user_id("driveby00000").is_none());
        // And the cleaned output must be close to the original in size:
        // cleaning also prunes genuinely rare entities of the base data,
        // so sizes can only shrink relative to base.
        assert!(report.cleaned.assignments <= raw.num_assignments());
        assert!(
            cleaned.num_assignments() * 10 >= base.num_assignments() * 5,
            "cleaning destroyed too much: {} of {}",
            cleaned.num_assignments(),
            base.num_assignments()
        );
        assert!(report.system_tag_assignments_removed > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let base = clean_dataset();
        let a = rawify(&base, &RawNoiseConfig::default());
        let b = rawify(&base, &RawNoiseConfig::default());
        assert_eq!(a.stats(), b.stats());
    }
}
