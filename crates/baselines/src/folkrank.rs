//! The FolkRank baseline (§II, [Hotho et al. 2006]): resources, taggers and
//! tags form an undirected weighted tripartite graph; query-relevant weight
//! is propagated PageRank-style:
//!
//! ```text
//! w ← d·A·w + (1 − d)·p
//! ```
//!
//! where `A` is the row-stochastic adjacency matrix, `p` the preference
//! vector boosting the query's tag vertices, and `d` the damping constant.
//! Resources are ranked by their converged weight.
//!
//! Both the plain propagation described in the paper and the *differential*
//! FolkRank of Hotho et al. (`w = w(p) − w(p₀)`, which subtracts the
//! query-independent popularity baseline) are implemented; the differential
//! variant is the default, matching the original FolkRank publication.

use crate::Ranker;
use cubelsi_core::RankedResource;
use cubelsi_folksonomy::{Folksonomy, ResourceId, TagId};
use std::collections::HashMap;

/// Configuration of the FolkRank ranker.
#[derive(Debug, Clone)]
pub struct FolkRankConfig {
    /// Damping constant `d ∈ [0, 1]` — influence of propagation versus the
    /// random surfer (Hotho et al. use 0.7).
    pub damping: f64,
    /// Maximum power iterations.
    pub max_iters: usize,
    /// L1 convergence tolerance on the weight vector.
    pub tol: f64,
    /// Fraction of the preference mass concentrated on query tag vertices
    /// (the rest is spread uniformly).
    pub preference_boost: f64,
    /// Use the differential scheme `w(p) − w(p₀)`.
    pub differential: bool,
}

impl Default for FolkRankConfig {
    fn default() -> Self {
        FolkRankConfig {
            damping: 0.7,
            max_iters: 60,
            tol: 1e-9,
            preference_boost: 0.5,
            differential: true,
        }
    }
}

/// The tripartite-graph ranker.
pub struct FolkRank {
    config: FolkRankConfig,
    /// Adjacency lists with row-stochastic weights. Vertices are laid out
    /// as `[users | tags | resources]`.
    adjacency: Vec<Vec<(u32, f64)>>,
    num_users: usize,
    num_tags: usize,
    num_resources: usize,
    /// Baseline weights under the uniform preference (for differential).
    baseline: Vec<f64>,
}

impl FolkRank {
    /// Builds the tripartite graph. Edge weights are co-occurrence counts:
    /// `w(u,t) = |{r : (u,t,r) ∈ Y}|`, `w(t,r) = |users(t,r)|`,
    /// `w(u,r) = |{t : (u,t,r) ∈ Y}|` — then each row is normalized.
    pub fn build(f: &Folksonomy, config: &FolkRankConfig) -> Self {
        let nu = f.num_users();
        let nt = f.num_tags();
        let nr = f.num_resources();
        let n = nu + nt + nr;

        let mut edge_weights: HashMap<(u32, u32), f64> = HashMap::new();
        for a in f.assignments() {
            let u = a.user.index() as u32;
            let t = (nu + a.tag.index()) as u32;
            let r = (nu + nt + a.resource.index()) as u32;
            *edge_weights.entry((u, t)).or_insert(0.0) += 1.0;
            *edge_weights.entry((t, r)).or_insert(0.0) += 1.0;
            *edge_weights.entry((u, r)).or_insert(0.0) += 1.0;
        }
        let mut adjacency: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for (&(a, b), &w) in &edge_weights {
            adjacency[a as usize].push((b, w));
            adjacency[b as usize].push((a, w));
        }
        // Row-stochastic normalization.
        for row in &mut adjacency {
            let total: f64 = row.iter().map(|&(_, w)| w).sum();
            if total > 0.0 {
                for (_, w) in row.iter_mut() {
                    *w /= total;
                }
            }
            row.sort_unstable_by_key(|&(v, _)| v);
        }

        let mut ranker = FolkRank {
            config: config.clone(),
            adjacency,
            num_users: nu,
            num_tags: nt,
            num_resources: nr,
            baseline: Vec::new(),
        };
        // Query-independent run for the differential scheme.
        let uniform = ranker.uniform_preference();
        ranker.baseline = ranker.propagate(&uniform);
        ranker
    }

    fn num_vertices(&self) -> usize {
        self.num_users + self.num_tags + self.num_resources
    }

    fn uniform_preference(&self) -> Vec<f64> {
        let n = self.num_vertices();
        vec![1.0 / n as f64; n]
    }

    /// Preference vector with `preference_boost` of the mass on the query
    /// tags and the remainder uniform (the paper's "random surfer … giving
    /// a higher weight to those tag vertices that appear in the query").
    fn query_preference(&self, tags: &[TagId]) -> Vec<f64> {
        let n = self.num_vertices();
        let valid: Vec<usize> = tags
            .iter()
            .map(|t| t.index())
            .filter(|&t| t < self.num_tags)
            .collect();
        if valid.is_empty() {
            return self.uniform_preference();
        }
        let boost = self.config.preference_boost.clamp(0.0, 1.0);
        let mut p = vec![(1.0 - boost) / n as f64; n];
        let per_tag = boost / valid.len() as f64;
        for t in valid {
            p[self.num_users + t] += per_tag;
        }
        p
    }

    /// Runs `w ← d·A·w + (1 − d)·p` to convergence.
    fn propagate(&self, preference: &[f64]) -> Vec<f64> {
        let n = self.num_vertices();
        let d = self.config.damping;
        let mut w = preference.to_vec();
        let mut next = vec![0.0f64; n];
        for _ in 0..self.config.max_iters {
            for (i, slot) in next.iter_mut().enumerate() {
                let mut acc = 0.0;
                for &(j, a) in &self.adjacency[i] {
                    acc += a * w[j as usize];
                }
                *slot = d * acc + (1.0 - d) * preference[i];
            }
            let delta: f64 = w.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut w, &mut next);
            if delta < self.config.tol {
                break;
            }
        }
        w
    }
}

impl Ranker for FolkRank {
    fn name(&self) -> &'static str {
        "FolkRank"
    }

    fn search_ids(&self, tags: &[TagId], top_k: usize) -> Vec<RankedResource> {
        let known: Vec<TagId> = tags
            .iter()
            .copied()
            .filter(|t| t.index() < self.num_tags)
            .collect();
        if known.is_empty() {
            return Vec::new();
        }
        let p = self.query_preference(&known);
        let w = self.propagate(&p);
        let offset = self.num_users + self.num_tags;
        let mut ranked: Vec<RankedResource> = (0..self.num_resources)
            .map(|r| {
                let raw = w[offset + r];
                let score = if self.config.differential {
                    raw - self.baseline[offset + r]
                } else {
                    raw
                };
                RankedResource {
                    resource: ResourceId::from_index(r),
                    score,
                }
            })
            .filter(|rr| rr.score > 0.0)
            .collect();
        ranked.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.resource.cmp(&b.resource))
        });
        if top_k > 0 {
            ranked.truncate(top_k);
        }
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubelsi_folksonomy::store::figure2_example;

    #[test]
    fn query_tag_pulls_its_resources_up() {
        let f = figure2_example();
        let fr = FolkRank::build(&f, &FolkRankConfig::default());
        let laptop = f.tag_id("laptop").unwrap();
        let hits = fr.search_ids(&[laptop], 0);
        assert!(!hits.is_empty());
        // r3 is the only laptop-tagged resource: must rank first.
        assert_eq!(f.resource_name(hits[0].resource), "r3");
    }

    #[test]
    fn plain_mode_weights_are_positive_and_sum_bounded() {
        let f = figure2_example();
        let cfg = FolkRankConfig {
            differential: false,
            ..Default::default()
        };
        let fr = FolkRank::build(&f, &cfg);
        let folk = f.tag_id("folk").unwrap();
        let hits = fr.search_ids(&[folk], 0);
        // Plain mode returns every resource with positive weight.
        assert_eq!(hits.len(), f.num_resources());
        for h in &hits {
            assert!(h.score > 0.0);
        }
        // folk resources (r1, r2) outrank r3.
        let names: Vec<&str> = hits.iter().map(|h| f.resource_name(h.resource)).collect();
        assert!(names[0] == "r1" || names[0] == "r2", "got {names:?}");
    }

    #[test]
    fn differential_mode_suppresses_popular_but_irrelevant() {
        let f = figure2_example();
        let fr = FolkRank::build(&f, &FolkRankConfig::default());
        let laptop = f.tag_id("laptop").unwrap();
        let hits = fr.search_ids(&[laptop], 0);
        let names: Vec<&str> = hits.iter().map(|h| f.resource_name(h.resource)).collect();
        // r2 is globally popular (3 taggers) but unrelated to laptop;
        // differential scoring must not rank it above r3.
        let pos_r3 = names.iter().position(|&n| n == "r3").unwrap();
        if let Some(pos_r2) = names.iter().position(|&n| n == "r2") {
            assert!(pos_r3 < pos_r2, "r3 must outrank r2: {names:?}");
        }
    }

    #[test]
    fn baseline_weights_sum_to_about_one() {
        let f = figure2_example();
        let fr = FolkRank::build(&f, &FolkRankConfig::default());
        let total: f64 = fr.baseline.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "total baseline mass {total}");
    }

    #[test]
    fn unknown_or_empty_queries() {
        let f = figure2_example();
        let fr = FolkRank::build(&f, &FolkRankConfig::default());
        assert!(fr.search_ids(&[], 0).is_empty());
        assert!(fr.search_ids(&[TagId::from_index(42)], 0).is_empty());
    }

    #[test]
    fn top_k_truncation_and_order() {
        let f = figure2_example();
        let cfg = FolkRankConfig {
            differential: false,
            ..Default::default()
        };
        let fr = FolkRank::build(&f, &cfg);
        let folk = f.tag_id("folk").unwrap();
        let all = fr.search_ids(&[folk], 0);
        let top1 = fr.search_ids(&[folk], 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].resource, all[0].resource);
        for w in all.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn damping_zero_returns_preference_ranking() {
        // d = 0 ⇒ w = p: resources keep only uniform preference, so the
        // differential is 0 everywhere and plain mode ranks all equally.
        let f = figure2_example();
        let cfg = FolkRankConfig {
            damping: 0.0,
            differential: false,
            ..Default::default()
        };
        let fr = FolkRank::build(&f, &cfg);
        let folk = f.tag_id("folk").unwrap();
        let hits = fr.search_ids(&[folk], 0);
        let s0 = hits[0].score;
        assert!(hits.iter().all(|h| (h.score - s0).abs() < 1e-12));
    }
}
