//! Everything the program under test is fed, made from `--seed`: corpora,
//! the query mix and the arrival schedule. The same seed gives the same
//! inputs; the program sees only the TSV, artifact paths and query lines.

use cubelsi_datagen::{bibsonomy_like, generate, huge_1m, lastfm_like, DatasetPreset};
use cubelsi_folksonomy::{write_tsv, Folksonomy, TagId};
use std::io::{BufWriter, Write};
use std::path::Path;

/// SplitMix64: the harness's own stream, independent of the generators
/// the product's crates use.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`salt`) of one run (`seed`).
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Which corpus a workload runs on. Scales are fixed per workload; the
/// seed picks the corpus within the shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// Resources ≫ users: the mode-3 unfolding and Tucker dominate.
    Bibsonomy,
    /// Balanced and uncleaned: the T×T affinity and clustering dominate.
    Lastfm,
    /// The stress shape for the online path, indexed under a synthetic
    /// hard model (no Tucker at this size).
    Huge,
}

pub fn preset(corpus: Corpus, scale: f64, seed: u64) -> DatasetPreset {
    match corpus {
        Corpus::Bibsonomy => bibsonomy_like(scale, seed),
        Corpus::Lastfm => lastfm_like(scale, seed),
        Corpus::Huge => huge_1m(scale, seed),
    }
}

pub fn generate_corpus(corpus: Corpus, scale: f64, seed: u64) -> Folksonomy {
    generate(&preset(corpus, scale, seed).config).folksonomy
}

pub fn write_corpus_tsv(f: &Folksonomy, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    write_tsv(f, &mut w).map_err(|e| format!("writing {}: {e}", path.display()))?;
    w.flush()
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The tag no corpus holds; 1 % of served queries carry it beside a known
/// tag, which the server must ignore.
pub const UNKNOWN_TAG: &str = "no-such-tag-zz";

/// One query of the mix: its tags by id, and the request line a client
/// sends for it.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub tags: Vec<TagId>,
    pub line: String,
}

/// Draws `n` queries of 1–3 distinct tags. Tags are ranked by how many
/// assignments carry them and drawn Zipf(1.0) over that rank — the
/// power-law tag popularity Cattuto et al. report for folksonomies.
/// `unknown_share` of the queries also name [`UNKNOWN_TAG`].
pub fn query_mix(f: &Folksonomy, n: usize, unknown_share: f64, rng: &mut Rng) -> Vec<QuerySpec> {
    let mut by_freq: Vec<usize> = (0..f.num_tags()).collect();
    by_freq.sort_by_key(|&t| {
        (
            std::cmp::Reverse(f.tag_assignments(TagId::from_index(t)).len()),
            t,
        )
    });
    let mut cdf = Vec::with_capacity(by_freq.len());
    let mut acc = 0.0;
    for rank in 0..by_freq.len() {
        acc += 1.0 / (rank + 1) as f64;
        cdf.push(acc);
    }
    let draw = |rng: &mut Rng| {
        let x = rng.unit() * acc;
        by_freq[cdf.partition_point(|&c| c <= x).min(by_freq.len() - 1)]
    };
    (0..n)
        .map(|_| {
            let want = 1 + rng.below(3);
            let mut tags: Vec<usize> = Vec::with_capacity(want);
            while tags.len() < want.min(by_freq.len()) {
                let t = draw(rng);
                if !tags.contains(&t) {
                    tags.push(t);
                }
            }
            let mut words: Vec<&str> = tags
                .iter()
                .map(|&t| f.tag_name(TagId::from_index(t)))
                .collect();
            if rng.unit() < unknown_share {
                words.push(UNKNOWN_TAG);
            }
            // The explicit verb keeps tags that spell a command queryable.
            let line = format!("QUERY {}\n", words.join(" "));
            QuerySpec {
                tags: tags.into_iter().map(TagId::from_index).collect(),
                line,
            }
        })
        .collect()
}

/// Due times, in nanoseconds from the start of a phase, of Poisson
/// arrivals at `rate` per second for `seconds`: independent users do not
/// arrive on a grid.
pub fn poisson_schedule(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate * seconds) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let f = generate_corpus(Corpus::Lastfm, 0.02, 7);
        let a = query_mix(&f, 64, 0.1, &mut Rng::new(7, 1));
        let b = query_mix(&f, 64, 0.1, &mut Rng::new(7, 1));
        let c = query_mix(&f, 64, 0.1, &mut Rng::new(8, 1));
        let lines = |q: &[QuerySpec]| q.iter().map(|s| s.line.clone()).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
        assert!(a.iter().all(|q| (1..=3).contains(&q.tags.len())));
        assert!(a.iter().any(|q| q.line.contains(UNKNOWN_TAG)));
    }

    #[test]
    fn poisson_schedule_holds_its_rate() {
        let due = poisson_schedule(8_000.0, 2.0, &mut Rng::new(3, 2));
        assert!((15_000..17_000).contains(&due.len()), "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
    }
}
