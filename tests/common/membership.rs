//! A test-only [`ConceptAssignment`] giving a tag several weighted
//! concepts. The product's one implementation (`ConceptModel`) is one
//! concept at weight 1, so the equivalence suites hold the index and the
//! query paths to the trait's several-concepts-per-tag contract through
//! this one.

use cubelsi::core::ConceptAssignment;
use rand::rngs::StdRng;
use rand::Rng;

pub struct RandomMembership {
    /// Per tag: distinct `(concept, weight)` pairs, weights summing to 1.
    memberships: Vec<Vec<(usize, f64)>>,
    num_concepts: usize,
}

impl RandomMembership {
    /// One to three distinct random concepts per tag with random weights
    /// normalised to sum to 1.
    pub fn new(rng: &mut StdRng, num_tags: usize, num_concepts: usize) -> Self {
        let memberships = (0..num_tags)
            .map(|_| {
                let want = rng.gen_range(1..=num_concepts.min(3));
                let mut picked: Vec<(usize, f64)> = Vec::with_capacity(want);
                while picked.len() < want {
                    let c = rng.gen_range(0..num_concepts);
                    if picked.iter().all(|&(p, _)| p != c) {
                        picked.push((c, 0.1 + rng.gen::<f64>()));
                    }
                }
                let sum: f64 = picked.iter().map(|&(_, w)| w).sum();
                for (_, w) in &mut picked {
                    *w /= sum;
                }
                picked
            })
            .collect();
        RandomMembership {
            memberships,
            num_concepts,
        }
    }
}

impl ConceptAssignment for RandomMembership {
    fn num_concepts(&self) -> usize {
        self.num_concepts
    }

    fn num_tags(&self) -> usize {
        self.memberships.len()
    }

    fn for_each_weight(&self, tag: usize, f: &mut dyn FnMut(usize, f64)) {
        for &(c, w) in &self.memberships[tag] {
            f(c, w);
        }
    }
}
