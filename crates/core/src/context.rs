//! Contexts: string names for LOIDs (paper §4.1).
//!
//! "A user will write a Legion application program in her favorite
//! language, and will typically name Legion objects with string names.
//! The program is compiled within a particular 'context' by a
//! Legion-aware compiler. The compiler uses the context to map string
//! names to LOID's, which then become embedded within Legion executable
//! programs."
//!
//! A [`Context`] is a hierarchical directory of `name → entry` mappings
//! where an entry is either a LOID or a nested sub-context — enough for
//! `/home/grimshaw/experiments/dataset3`-style paths spanning sites.
//! Contexts are plain model-layer data: they can live inside any Legion
//! object's state and be shared like any other value.

use crate::error::{CoreError, CoreResult};
use crate::loid::Loid;
use std::collections::BTreeMap;

/// What a name resolves to.
#[derive(Debug, Clone, PartialEq)]
pub enum ContextEntry {
    /// A leaf: the named object.
    Object(Loid),
    /// A nested context.
    Context(Context),
}

/// A hierarchical name → LOID directory.
///
/// ```
/// use legion_core::context::Context;
/// use legion_core::loid::Loid;
///
/// let mut cx = Context::new();
/// let dataset = Loid::instance(16, 1);
/// cx.bind_path("home/grimshaw/run3", dataset).unwrap();
/// assert_eq!(cx.lookup("home/grimshaw/run3").unwrap(), dataset);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Context {
    entries: BTreeMap<String, ContextEntry>,
}

fn validate_component(name: &str) -> CoreResult<()> {
    if name.is_empty() {
        return Err(CoreError::Invalid("empty name component".into()));
    }
    if name.contains('/') {
        return Err(CoreError::Invalid(format!(
            "name component {name:?} must not contain '/'"
        )));
    }
    Ok(())
}

/// Split a path like `a/b/c`, rejecting empty components.
fn split(path: &str) -> CoreResult<Vec<&str>> {
    let parts: Vec<&str> = path.trim_matches('/').split('/').collect();
    if parts.iter().any(|p| p.is_empty()) {
        return Err(CoreError::Invalid(format!("malformed path {path:?}")));
    }
    Ok(parts)
}

impl Context {
    /// An empty context.
    pub fn new() -> Self {
        Context::default()
    }

    /// Number of direct entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the context empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bind `name` (a single component) to an object, replacing any
    /// previous binding of that name.
    pub fn bind(&mut self, name: &str, loid: Loid) -> CoreResult<()> {
        validate_component(name)?;
        self.entries
            .insert(name.to_owned(), ContextEntry::Object(loid));
        Ok(())
    }

    /// Create (or fetch) a nested sub-context under `name`.
    pub fn subcontext(&mut self, name: &str) -> CoreResult<&mut Context> {
        validate_component(name)?;
        let entry = self
            .entries
            .entry(name.to_owned())
            .or_insert_with(|| ContextEntry::Context(Context::new()));
        match entry {
            ContextEntry::Context(c) => Ok(c),
            ContextEntry::Object(_) => Err(CoreError::Invalid(format!(
                "{name:?} names an object, not a context"
            ))),
        }
    }

    /// Bind a full path like `home/grimshaw/dataset3`, creating
    /// intermediate contexts as needed.
    pub fn bind_path(&mut self, path: &str, loid: Loid) -> CoreResult<()> {
        let parts = split(path)?;
        let (leaf, dirs) = parts.split_last().expect("split rejects empty");
        let mut cur = self;
        for d in dirs {
            cur = cur.subcontext(d)?;
        }
        cur.bind(leaf, loid)
    }

    /// Resolve a full path to a LOID ("the compiler uses the context to
    /// map string names to LOID's").
    pub fn lookup(&self, path: &str) -> CoreResult<Loid> {
        let parts = split(path)?;
        let mut cur = self;
        for (i, p) in parts.iter().enumerate() {
            match cur.entries.get(*p) {
                Some(ContextEntry::Object(l)) if i == parts.len() - 1 => return Ok(*l),
                Some(ContextEntry::Object(_)) => {
                    return Err(CoreError::Invalid(format!(
                        "{p:?} is an object, not a context (in {path:?})"
                    )))
                }
                Some(ContextEntry::Context(c)) if i == parts.len() - 1 => {
                    return Err(CoreError::Invalid(format!(
                        "{path:?} names a context, not an object"
                    )))
                }
                Some(ContextEntry::Context(c)) => cur = c,
                None => {
                    return Err(CoreError::Invalid(format!(
                        "no entry {p:?} (resolving {path:?})"
                    )))
                }
            }
        }
        unreachable!("loop returns")
    }

    /// Remove the entry at `path` (object or whole sub-context).
    pub fn unbind(&mut self, path: &str) -> CoreResult<()> {
        let parts = split(path)?;
        let (leaf, dirs) = parts.split_last().expect("split rejects empty");
        let mut cur = self;
        for d in dirs {
            match cur.entries.get_mut(*d) {
                Some(ContextEntry::Context(c)) => cur = c,
                _ => return Err(CoreError::Invalid(format!("no context {d:?} in {path:?}"))),
            }
        }
        cur.entries
            .remove(*leaf)
            .map(|_| ())
            .ok_or_else(|| CoreError::Invalid(format!("no entry {leaf:?}")))
    }

    /// Direct entry names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(|s| s.as_str()).collect()
    }

    /// Walk every `(path, loid)` leaf in the tree, depth first.
    pub fn walk(&self) -> Vec<(String, Loid)> {
        let mut out = Vec::new();
        self.walk_into("", &mut out);
        out
    }

    fn walk_into(&self, prefix: &str, out: &mut Vec<(String, Loid)>) {
        for (name, entry) in &self.entries {
            let path = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}/{name}")
            };
            match entry {
                ContextEntry::Object(l) => out.push((path, *l)),
                ContextEntry::Context(c) => c.walk_into(&path, out),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> Loid {
        Loid::instance(16, n)
    }

    #[test]
    fn bind_and_lookup_flat() {
        let mut c = Context::new();
        c.bind("dataset", l(1)).unwrap();
        assert_eq!(c.lookup("dataset").unwrap(), l(1));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn bind_path_creates_hierarchy() {
        let mut c = Context::new();
        c.bind_path("home/grimshaw/experiments/run3", l(7)).unwrap();
        assert_eq!(c.lookup("home/grimshaw/experiments/run3").unwrap(), l(7));
        // Leading/trailing slashes tolerated.
        assert_eq!(c.lookup("/home/grimshaw/experiments/run3").unwrap(), l(7));
        assert_eq!(c.names(), vec!["home"]);
    }

    #[test]
    fn rebinding_replaces() {
        let mut c = Context::new();
        c.bind_path("a/b", l(1)).unwrap();
        c.bind_path("a/b", l(2)).unwrap();
        assert_eq!(c.lookup("a/b").unwrap(), l(2));
    }

    #[test]
    fn lookup_errors_are_precise() {
        let mut c = Context::new();
        c.bind_path("a/b", l(1)).unwrap();
        assert!(c.lookup("a").is_err(), "a is a context, not an object");
        assert!(c.lookup("a/b/c").is_err(), "b is an object, not a context");
        assert!(c.lookup("a/x").is_err(), "no such entry");
        assert!(c.lookup("").is_err());
        assert!(c.lookup("a//b").is_err());
    }

    #[test]
    fn object_vs_context_collisions_rejected() {
        let mut c = Context::new();
        c.bind("x", l(1)).unwrap();
        assert!(c.subcontext("x").is_err());
        assert!(c.bind_path("x/y", l(2)).is_err());
        // And component validation.
        assert!(c.bind("", l(1)).is_err());
        assert!(c.bind("a/b", l(1)).is_err());
    }

    #[test]
    fn unbind_removes_objects_and_subtrees() {
        let mut c = Context::new();
        c.bind_path("a/b", l(1)).unwrap();
        c.bind_path("a/c/d", l(2)).unwrap();
        c.unbind("a/b").unwrap();
        assert!(c.lookup("a/b").is_err());
        c.unbind("a/c").unwrap(); // removes the whole subtree
        assert!(c.lookup("a/c/d").is_err());
        assert!(c.unbind("a/b").is_err());
        assert!(c.unbind("zz/b").is_err());
    }

    #[test]
    fn walk_lists_all_leaves_in_order() {
        let mut c = Context::new();
        c.bind_path("b/one", l(1)).unwrap();
        c.bind_path("a/two", l(2)).unwrap();
        c.bind("zeta", l(3)).unwrap();
        assert_eq!(
            c.walk(),
            vec![
                ("a/two".to_string(), l(2)),
                ("b/one".to_string(), l(1)),
                ("zeta".to_string(), l(3)),
            ]
        );
    }

    #[test]
    fn context_is_a_value() {
        // Contexts can be cloned and compared — they travel inside object
        // state like any other value.
        let mut c = Context::new();
        c.bind_path("x/y", l(9)).unwrap();
        let d = c.clone();
        assert_eq!(c, d);
    }
}
