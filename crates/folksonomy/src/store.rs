//! The [`Folksonomy`] store: `(U, T, R, Y)` plus the indexes the ranking
//! methods need.
//!
//! Assignments are a *set* (`Y ⊆ U×T×R`, §IV-A) — duplicates collapse. Two
//! sorted posting arrays are maintained:
//!
//! * by resource `(r, t, u)` — drives `tags(r)`, `c(t, r) = |users(t, r)|`
//!   (Eq. 2's occurrence counts) and the Freq baseline;
//! * by tag `(t, r, u)` — drives per-tag posting lists, document frequency
//!   and the inverted index of the retrieval models.
//!
//! Export methods produce the third-order tensor entries of Eq. 5 and the
//! user-aggregated tag×resource matrix of Figure 3.

use crate::ids::{ResourceId, TagId, UserId};
use crate::interner::Interner;

/// One element of `Y`: user `u` annotated resource `r` with tag `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagAssignment {
    /// The tagger.
    pub user: UserId,
    /// The tag.
    pub tag: TagId,
    /// The annotated resource.
    pub resource: ResourceId,
}

/// Summary statistics, as reported in Table II of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FolksonomyStats {
    /// Number of users `|U|`.
    pub users: usize,
    /// Number of tags `|T|`.
    pub tags: usize,
    /// Number of resources `|R|`.
    pub resources: usize,
    /// Number of tag assignments `|Y|`.
    pub assignments: usize,
}

impl std::fmt::Display for FolksonomyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|U|={} |T|={} |R|={} |Y|={}",
            self.users, self.tags, self.resources, self.assignments
        )
    }
}

/// An immutable social-tagging dataset with query-ready indexes.
#[derive(Debug, Clone)]
pub struct Folksonomy {
    users: Interner,
    tags: Interner,
    resources: Interner,
    /// Y sorted by (resource, tag, user); deduplicated.
    by_resource: Vec<TagAssignment>,
    /// Offsets into `by_resource`, one slot per resource + 1.
    resource_ptr: Vec<u32>,
    /// Y sorted by (tag, resource, user); deduplicated.
    by_tag: Vec<TagAssignment>,
    /// Offsets into `by_tag`, one slot per tag + 1.
    tag_ptr: Vec<u32>,
}

impl Folksonomy {
    /// Number of users `|U|`.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of tags `|T|`.
    pub fn num_tags(&self) -> usize {
        self.tags.len()
    }

    /// Number of resources `|R|`.
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Number of tag assignments `|Y|`.
    pub fn num_assignments(&self) -> usize {
        self.by_resource.len()
    }

    /// Table II-style statistics.
    pub fn stats(&self) -> FolksonomyStats {
        FolksonomyStats {
            users: self.num_users(),
            tags: self.num_tags(),
            resources: self.num_resources(),
            assignments: self.num_assignments(),
        }
    }

    /// Name of a user.
    pub fn user_name(&self, id: UserId) -> &str {
        self.users.name(id.index())
    }

    /// Name of a tag.
    pub fn tag_name(&self, id: TagId) -> &str {
        self.tags.name(id.index())
    }

    /// Name of a resource.
    pub fn resource_name(&self, id: ResourceId) -> &str {
        self.resources.name(id.index())
    }

    /// Looks a tag up by name.
    pub fn tag_id(&self, name: &str) -> Option<TagId> {
        self.tags.get(name).map(TagId::from_index)
    }

    /// Looks a user up by name.
    pub fn user_id(&self, name: &str) -> Option<UserId> {
        self.users.get(name).map(UserId::from_index)
    }

    /// Looks a resource up by name.
    pub fn resource_id(&self, name: &str) -> Option<ResourceId> {
        self.resources.get(name).map(ResourceId::from_index)
    }

    /// All assignments, sorted by (resource, tag, user).
    pub fn assignments(&self) -> &[TagAssignment] {
        &self.by_resource
    }

    /// The assignments of one resource, sorted by (tag, user).
    pub fn resource_assignments(&self, r: ResourceId) -> &[TagAssignment] {
        let lo = self.resource_ptr[r.index()] as usize;
        let hi = self.resource_ptr[r.index() + 1] as usize;
        &self.by_resource[lo..hi]
    }

    /// The assignments of one tag, sorted by (resource, user).
    pub fn tag_assignments(&self, t: TagId) -> &[TagAssignment] {
        let lo = self.tag_ptr[t.index()] as usize;
        let hi = self.tag_ptr[t.index() + 1] as usize;
        &self.by_tag[lo..hi]
    }

    /// `tags(r)` with occurrence counts: each distinct tag of resource `r`
    /// paired with `c(t, r) = |users(t, r)|` (Eq. 2's raw counts).
    pub fn resource_tag_counts(&self, r: ResourceId) -> Vec<(TagId, usize)> {
        let mut out: Vec<(TagId, usize)> = Vec::new();
        for a in self.resource_assignments(r) {
            match out.last_mut() {
                Some((t, c)) if *t == a.tag => *c += 1,
                _ => out.push((a.tag, 1)),
            }
        }
        out
    }

    /// Posting list of tag `t`: each distinct resource paired with the
    /// number of users who applied `t` to it.
    pub fn tag_resource_counts(&self, t: TagId) -> Vec<(ResourceId, usize)> {
        let mut out: Vec<(ResourceId, usize)> = Vec::new();
        for a in self.tag_assignments(t) {
            match out.last_mut() {
                Some((r, c)) if *r == a.resource => *c += 1,
                _ => out.push((a.resource, 1)),
            }
        }
        out
    }

    /// Binary tensor entries per Eq. 5: one `(u, t, r, 1.0)` per assignment.
    pub fn tensor_entries(&self) -> Vec<(usize, usize, usize, f64)> {
        self.by_resource
            .iter()
            .map(|a| (a.user.index(), a.tag.index(), a.resource.index(), 1.0))
            .collect()
    }

    /// User-aggregated tag×resource matrix triples (Figure 3): entry
    /// `(t, r)` holds `|users(t, r)|`.
    pub fn tag_resource_triples(&self) -> Vec<(usize, usize, f64)> {
        let mut out: Vec<(usize, usize, f64)> = Vec::new();
        for t in 0..self.num_tags() {
            for (r, c) in self.tag_resource_counts(TagId::from_index(t)) {
                out.push((t, r.index(), c as f64));
            }
        }
        out
    }

    /// Rebuilds a store from raw parts (used by cleaning, generators and
    /// the artifact loader).
    ///
    /// Assignments already strictly increasing in (resource, tag, user)
    /// order — what every stored artifact holds — are checked in one
    /// linear pass and kept as they are; any other input is sorted and
    /// deduplicated first, O(|Y| log |Y|). The by-tag copy is then a
    /// stable counting sort of the by-resource array on the tag: O(|Y| +
    /// |T|). Stability keeps each tag's assignments in their (resource,
    /// user) order, so the result is exactly the (tag, resource, user)
    /// sort the comparison sort produced, and both arrays and both offset
    /// tables equal those of sorting each from scratch.
    pub fn from_parts(
        users: Interner,
        tags: Interner,
        resources: Interner,
        mut assignments: Vec<TagAssignment>,
    ) -> Self {
        let key = |a: &TagAssignment| (a.resource, a.tag, a.user);
        if !assignments.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
            assignments.sort_unstable_by_key(key);
            assignments.dedup();
        }
        let by_resource = assignments;
        let resource_ptr = build_ptr(
            resources.len(),
            by_resource.iter().map(|a| a.resource.index()),
        );
        let tag_ptr = build_ptr(tags.len(), by_resource.iter().map(|a| a.tag.index()));
        let mut next = tag_ptr.clone();
        // Every slot is overwritten below; the copy only sizes the array.
        let mut by_tag = by_resource.clone();
        for a in &by_resource {
            let slot = &mut next[a.tag.index()];
            by_tag[*slot as usize] = *a;
            *slot += 1;
        }
        Folksonomy {
            users,
            tags,
            resources,
            by_resource,
            resource_ptr,
            by_tag,
            tag_ptr,
        }
    }
}

/// Builds the offset array for a key stream: `ptr[k]..ptr[k + 1]` is
/// where key `k`'s run lies once the stream is grouped by key.
fn build_ptr(domain: usize, keys: impl Iterator<Item = usize>) -> Vec<u32> {
    let mut ptr = vec![0u32; domain + 1];
    for k in keys {
        ptr[k + 1] += 1;
    }
    for i in 0..domain {
        ptr[i + 1] += ptr[i];
    }
    ptr
}

/// Incrementally assembles a [`Folksonomy`] from named assignments.
#[derive(Debug, Default)]
pub struct FolksonomyBuilder {
    users: Interner,
    tags: Interner,
    resources: Interner,
    assignments: Vec<TagAssignment>,
}

impl FolksonomyBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        FolksonomyBuilder::default()
    }

    /// Records that `user` annotated `resource` with `tag`. Duplicate
    /// triples are collapsed when the store is built.
    pub fn add(&mut self, user: &str, tag: &str, resource: &str) -> &mut Self {
        let u = UserId::from_index(self.users.intern(user));
        let t = TagId::from_index(self.tags.intern(tag));
        let r = ResourceId::from_index(self.resources.intern(resource));
        self.assignments.push(TagAssignment {
            user: u,
            tag: t,
            resource: r,
        });
        self
    }

    /// Pre-registers an entity name so ids are stable even for entities
    /// that end up with no assignments.
    pub fn intern_user(&mut self, name: &str) -> UserId {
        UserId::from_index(self.users.intern(name))
    }

    /// See [`Self::intern_user`].
    pub fn intern_tag(&mut self, name: &str) -> TagId {
        TagId::from_index(self.tags.intern(name))
    }

    /// See [`Self::intern_user`].
    pub fn intern_resource(&mut self, name: &str) -> ResourceId {
        ResourceId::from_index(self.resources.intern(name))
    }

    /// Number of assignments recorded so far (duplicates included).
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// `true` when no assignment has been recorded.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Finalizes the store.
    pub fn build(self) -> Folksonomy {
        Folksonomy::from_parts(self.users, self.tags, self.resources, self.assignments)
    }
}

/// Constructs the paper's Figure 2 running example: three users, three tags
/// (folk, people, laptop), three resources, seven assignments.
pub fn figure2_example() -> Folksonomy {
    let mut b = FolksonomyBuilder::new();
    b.add("u1", "folk", "r1");
    b.add("u1", "folk", "r2");
    b.add("u2", "folk", "r2");
    b.add("u3", "folk", "r2");
    b.add("u1", "people", "r1");
    b.add("u2", "laptop", "r3");
    b.add("u3", "laptop", "r3");
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The comparison-sort construction: both orders sorted from scratch,
    /// deduplicated, offsets counted per key.
    fn reference(
        num_tags: usize,
        num_resources: usize,
        mut y: Vec<TagAssignment>,
    ) -> (Vec<TagAssignment>, Vec<u32>, Vec<TagAssignment>, Vec<u32>) {
        y.sort_by_key(|a| (a.resource, a.tag, a.user));
        y.dedup();
        let mut by_tag = y.clone();
        by_tag.sort_by_key(|a| (a.tag, a.resource, a.user));
        let ptr = |domain: usize, key: &dyn Fn(&TagAssignment) -> usize| -> Vec<u32> {
            (0..=domain)
                .map(|k| y.iter().filter(|a| key(a) < k).count() as u32)
                .collect()
        };
        let resource_ptr = ptr(num_resources, &|a| a.resource.index());
        let tag_ptr = ptr(num_tags, &|a| a.tag.index());
        (y, resource_ptr, by_tag, tag_ptr)
    }

    fn names(prefix: &str, n: usize) -> Interner {
        Interner::from_names((0..n).map(|i| format!("{prefix}{i}")))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Sorted, unsorted, duplicated and empty inputs, with the last
        /// `spare` tags never assigned.
        #[test]
        fn from_parts_equals_the_comparison_sort(
            (dims, triples, spare, presort) in (1usize..5, 1usize..7, 1usize..6).prop_flat_map(|(u, t, r)| (
                Just((u, t, r)),
                proptest::collection::vec((0..u as u32, 0..t as u32, 0..r as u32), 0..48usize),
                0usize..3,
                0u32..3,
            ))
        ) {
            let (users, tags, resources) = dims;
            let num_tags = tags + spare;
            let mut y: Vec<TagAssignment> = triples
                .iter()
                .map(|&(u, t, r)| TagAssignment {
                    user: UserId(u),
                    tag: TagId(t),
                    resource: ResourceId(r),
                })
                .collect();
            // 0: as drawn (duplicates likely); 1: sorted and distinct, the
            // linear path; 2: sorted with duplicates kept.
            if presort > 0 {
                y.sort_by_key(|a| (a.resource, a.tag, a.user));
                if presort == 1 {
                    y.dedup();
                }
            }
            let f = Folksonomy::from_parts(
                names("u", users),
                names("t", num_tags),
                names("r", resources),
                y.clone(),
            );
            let (by_resource, resource_ptr, by_tag, tag_ptr) = reference(num_tags, resources, y);
            prop_assert_eq!(&f.by_resource, &by_resource);
            prop_assert_eq!(&f.resource_ptr, &resource_ptr);
            prop_assert_eq!(&f.by_tag, &by_tag);
            prop_assert_eq!(&f.tag_ptr, &tag_ptr);
        }
    }

    #[test]
    fn figure2_statistics_match_paper() {
        let f = figure2_example();
        let s = f.stats();
        assert_eq!(
            s,
            FolksonomyStats {
                users: 3,
                tags: 3,
                resources: 3,
                assignments: 7
            }
        );
        assert_eq!(s.to_string(), "|U|=3 |T|=3 |R|=3 |Y|=7");
    }

    #[test]
    fn duplicates_collapse() {
        let mut b = FolksonomyBuilder::new();
        b.add("u", "t", "r");
        b.add("u", "t", "r");
        assert_eq!(b.len(), 2);
        let f = b.build();
        assert_eq!(f.num_assignments(), 1);
    }

    #[test]
    fn name_lookup_round_trips() {
        let f = figure2_example();
        let folk = f.tag_id("folk").unwrap();
        assert_eq!(f.tag_name(folk), "folk");
        let u2 = f.user_id("u2").unwrap();
        assert_eq!(f.user_name(u2), "u2");
        let r3 = f.resource_id("r3").unwrap();
        assert_eq!(f.resource_name(r3), "r3");
        assert!(f.tag_id("missing").is_none());
    }

    #[test]
    fn resource_tag_counts_aggregate_users() {
        let f = figure2_example();
        let r2 = f.resource_id("r2").unwrap();
        let counts = f.resource_tag_counts(r2);
        // r2 was tagged "folk" by three users.
        assert_eq!(counts.len(), 1);
        assert_eq!(f.tag_name(counts[0].0), "folk");
        assert_eq!(counts[0].1, 3);

        let r1 = f.resource_id("r1").unwrap();
        let mut names: Vec<(&str, usize)> = f
            .resource_tag_counts(r1)
            .into_iter()
            .map(|(t, c)| (f.tag_name(t), c))
            .collect();
        names.sort();
        assert_eq!(names, vec![("folk", 1), ("people", 1)]);
    }

    #[test]
    fn tag_posting_lists() {
        let f = figure2_example();
        let folk = f.tag_id("folk").unwrap();
        let postings = f.tag_resource_counts(folk);
        let by_name: Vec<(&str, usize)> = postings
            .iter()
            .map(|&(r, c)| (f.resource_name(r), c))
            .collect();
        assert_eq!(by_name, vec![("r1", 1), ("r2", 3)]);
        let laptop = f.tag_id("laptop").unwrap();
        assert_eq!(f.tag_resource_counts(laptop).len(), 1);
    }

    #[test]
    fn tensor_entries_are_binary_and_complete() {
        let f = figure2_example();
        let entries = f.tensor_entries();
        assert_eq!(entries.len(), 7);
        assert!(entries.iter().all(|&(_, _, _, v)| v == 1.0));
        // F[u3, folk, r2] = 1 per Figure 2(b).
        let u3 = f.user_id("u3").unwrap().index();
        let folk = f.tag_id("folk").unwrap().index();
        let r2 = f.resource_id("r2").unwrap().index();
        assert!(entries.contains(&(u3, folk, r2, 1.0)));
    }

    #[test]
    fn tag_resource_triples_match_figure3() {
        let f = figure2_example();
        let triples = f.tag_resource_triples();
        // Figure 3(a): (t1,r1,1), (t1,r2,3), (t2,r1,1), (t3,r3,2).
        let folk = f.tag_id("folk").unwrap().index();
        let people = f.tag_id("people").unwrap().index();
        let laptop = f.tag_id("laptop").unwrap().index();
        let r1 = f.resource_id("r1").unwrap().index();
        let r2 = f.resource_id("r2").unwrap().index();
        let r3 = f.resource_id("r3").unwrap().index();
        let mut expected = vec![
            (folk, r1, 1.0),
            (folk, r2, 3.0),
            (people, r1, 1.0),
            (laptop, r3, 2.0),
        ];
        let mut got = triples;
        let order = |a: &(usize, usize, f64), b: &(usize, usize, f64)| {
            a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.total_cmp(&b.2))
        };
        expected.sort_by(order);
        got.sort_by(order);
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_builder_produces_empty_store() {
        let f = FolksonomyBuilder::new().build();
        assert_eq!(f.num_users(), 0);
        assert_eq!(f.num_assignments(), 0);
        assert!(f.assignments().is_empty());
    }

    #[test]
    fn preregistered_entities_survive_without_assignments() {
        let mut b = FolksonomyBuilder::new();
        let lonely = b.intern_tag("lonely");
        b.add("u", "used", "r");
        let f = b.build();
        assert_eq!(f.num_tags(), 2);
        assert!(f.tag_resource_counts(lonely).is_empty());
        assert!(f.tag_assignments(lonely).is_empty());
    }

    #[test]
    fn assignments_sorted_by_resource() {
        let f = figure2_example();
        let all = f.assignments();
        for w in all.windows(2) {
            assert!((w[0].resource, w[0].tag, w[0].user) <= (w[1].resource, w[1].tag, w[1].user));
        }
    }
}
