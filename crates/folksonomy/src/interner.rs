//! A simple string interner: names in, dense `u32` indexes out.
//!
//! Tags arrive as free-text strings from an uncontrolled vocabulary; all
//! algorithms want dense integer indexes. One interner instance backs each
//! of the three entity kinds in a [`crate::Folksonomy`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Maps strings to dense indexes and back. Each name is stored once: the
/// index → name table and the name → index map share one `Arc<str>`.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, u32>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// An empty interner with room for `n` names.
    pub fn with_capacity(n: usize) -> Self {
        Interner {
            names: Vec::with_capacity(n),
            lookup: HashMap::with_capacity(n),
        }
    }

    /// Interns `name`, returning its (possibly pre-existing) index. A name
    /// seen before costs one lookup and no allocation.
    pub fn intern(&mut self, name: &str) -> usize {
        if let Some(&idx) = self.lookup.get(name) {
            return idx as usize;
        }
        let idx = self.names.len() as u32;
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.lookup.insert(name, idx);
        idx as usize
    }

    /// Interns a name that must be new: one allocation and one hash.
    /// Returns `None`, leaving the interner unchanged, when `name` is
    /// already present.
    pub fn insert_new(&mut self, name: &str) -> Option<usize> {
        let idx = self.names.len() as u32;
        match self.lookup.entry(Arc::from(name)) {
            Entry::Occupied(_) => None,
            Entry::Vacant(slot) => {
                self.names.push(Arc::clone(slot.key()));
                slot.insert(idx);
                Some(idx as usize)
            }
        }
    }

    /// Index of `name` if already interned.
    pub fn get(&self, name: &str) -> Option<usize> {
        self.lookup.get(name).map(|&i| i as usize)
    }

    /// Name at `index`.
    ///
    /// # Panics
    /// Panics when `index` is out of bounds.
    pub fn name(&self, index: usize) -> &str {
        &self.names[index]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterator over `(index, name)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str)> {
        self.names.iter().enumerate().map(|(i, s)| (i, &**s))
    }

    /// Builds an interner from a list of unique names.
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut interner = Interner::new();
        for n in names {
            interner.intern(n.as_ref());
        }
        interner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("folk");
        let b = i.intern("people");
        let a2 = i.intern("folk");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn lookup_and_name() {
        let mut i = Interner::new();
        i.intern("laptop");
        assert_eq!(i.get("laptop"), Some(0));
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.name(0), "laptop");
    }

    #[test]
    fn from_names_preserves_order() {
        let i = Interner::from_names(["a", "b", "c"]);
        let collected: Vec<&str> = i.iter().map(|(_, n)| n).collect();
        assert_eq!(collected, vec!["a", "b", "c"]);
        assert!(!i.is_empty());
    }

    #[test]
    fn insert_new_rejects_a_duplicate_and_shares_one_name() {
        let mut i = Interner::with_capacity(2);
        assert_eq!(i.insert_new("jazz"), Some(0));
        assert_eq!(i.insert_new("piano"), Some(1));
        assert_eq!(i.insert_new("jazz"), None);
        assert_eq!(i.len(), 2);
        assert_eq!((i.get("piano"), i.name(1)), (Some(1), "piano"));
        // The table and the map hold the same allocation.
        assert_eq!(Arc::strong_count(&i.names[0]), 2);
        assert_eq!(i.intern("jazz"), 0);
        assert_eq!(Arc::strong_count(&i.names[0]), 2);
    }

    #[test]
    fn duplicate_names_in_from_names_collapse() {
        let i = Interner::from_names(["x", "x", "y"]);
        assert_eq!(i.len(), 2);
    }
}
