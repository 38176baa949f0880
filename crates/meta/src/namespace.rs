//! Hierarchical namespace: directories mapping names to inodes.

use std::collections::HashMap;

use tank_proto::{fxhash, Ino};

/// The directory tree. A directory's entries are hashed, so resolving a
/// name costs one hash, not an ordered string search; listings and
/// snapshots sort by name, so neither depends on the hash.
#[derive(Debug, Clone)]
pub struct Namespace {
    pub(crate) root: Ino,
    /// Each directory's entries. The outer key is an inode number the
    /// server minted (Fx); the names are the clients' (SipHash).
    pub(crate) dirs: fxhash::HashMap<Ino, HashMap<String, Ino>>,
}

impl Namespace {
    /// New namespace with the given root directory inode.
    pub fn new(root: Ino) -> Self {
        let mut dirs = fxhash::HashMap::default();
        dirs.insert(root, HashMap::new());
        Namespace { root, dirs }
    }

    /// The root directory.
    pub fn root(&self) -> Ino {
        self.root
    }

    /// Whether `ino` is a known directory.
    pub fn is_dir(&self, ino: Ino) -> bool {
        self.dirs.contains_key(&ino)
    }

    /// Insert `name → child` under `parent`. `child_is_dir` registers the
    /// child as a directory. Fails if the parent is unknown or the name is
    /// taken.
    pub fn link(
        &mut self,
        parent: Ino,
        name: &str,
        child: Ino,
        child_is_dir: bool,
    ) -> Result<(), NsError> {
        let dir = self.dirs.get_mut(&parent).ok_or(NsError::NotADir)?;
        if dir.contains_key(name) {
            return Err(NsError::Exists);
        }
        dir.insert(name.to_owned(), child);
        if child_is_dir {
            self.dirs.insert(child, HashMap::new());
        }
        Ok(())
    }

    /// Resolve `name` under `parent`.
    pub fn lookup(&self, parent: Ino, name: &str) -> Result<Ino, NsError> {
        self.dirs
            .get(&parent)
            .ok_or(NsError::NotADir)?
            .get(name)
            .copied()
            .ok_or(NsError::NotFound)
    }

    /// Remove `name` under `parent`, returning the unlinked inode.
    /// Directories must be empty.
    pub fn unlink(&mut self, parent: Ino, name: &str) -> Result<Ino, NsError> {
        let dir = self.dirs.get_mut(&parent).ok_or(NsError::NotADir)?;
        let child = *dir.get(name).ok_or(NsError::NotFound)?;
        if let Some(contents) = self.dirs.get(&child) {
            if !contents.is_empty() {
                return Err(NsError::NotEmpty);
            }
        }
        self.dirs.get_mut(&parent).unwrap().remove(name);
        self.dirs.remove(&child);
        Ok(child)
    }

    /// List a directory in name order.
    pub fn list(&self, dir: Ino) -> Result<Vec<(String, Ino)>, NsError> {
        let entries = self.dirs.get(&dir).ok_or(NsError::NotADir)?;
        Ok(by_name(entries)
            .into_iter()
            .map(|(n, i)| (n.to_owned(), i))
            .collect())
    }
}

/// A directory's entries in name order: the one order listings and
/// snapshots show, whatever order the names were linked in.
pub(crate) fn by_name(entries: &HashMap<String, Ino>) -> Vec<(&str, Ino)> {
    let mut sorted: Vec<(&str, Ino)> = entries.iter().map(|(n, i)| (n.as_str(), *i)).collect();
    // Names in one directory are distinct, so no two compare equal.
    sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
    sorted
}

/// Namespace errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NsError {
    /// The referenced directory does not exist or is not a directory.
    NotADir,
    /// No entry with that name.
    NotFound,
    /// Name already taken.
    Exists,
    /// Directory not empty.
    NotEmpty,
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: Ino = Ino(1);

    fn ns() -> Namespace {
        Namespace::new(ROOT)
    }

    #[test]
    fn link_lookup_roundtrip() {
        let mut n = ns();
        n.link(ROOT, "a.txt", Ino(2), false).unwrap();
        assert_eq!(n.lookup(ROOT, "a.txt"), Ok(Ino(2)));
        assert_eq!(n.lookup(ROOT, "b.txt"), Err(NsError::NotFound));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut n = ns();
        n.link(ROOT, "a", Ino(2), false).unwrap();
        assert_eq!(n.link(ROOT, "a", Ino(3), false), Err(NsError::Exists));
    }

    #[test]
    fn nested_directories_and_paths() {
        let mut n = ns();
        n.link(ROOT, "dir", Ino(2), true).unwrap();
        n.link(Ino(2), "sub", Ino(3), true).unwrap();
        n.link(Ino(3), "f", Ino(4), false).unwrap();
        assert_eq!(n.lookup(ROOT, "dir"), Ok(Ino(2)));
        assert_eq!(n.lookup(Ino(2), "sub"), Ok(Ino(3)));
        assert_eq!(n.lookup(Ino(3), "f"), Ok(Ino(4)));
        assert_eq!(n.lookup(Ino(2), "nope"), Err(NsError::NotFound));
        assert_eq!(n.lookup(Ino(4), "deeper"), Err(NsError::NotADir));
    }

    #[test]
    fn unlink_file_and_empty_dir_only() {
        let mut n = ns();
        n.link(ROOT, "dir", Ino(2), true).unwrap();
        n.link(Ino(2), "f", Ino(3), false).unwrap();
        assert_eq!(n.unlink(ROOT, "dir"), Err(NsError::NotEmpty));
        assert_eq!(n.unlink(Ino(2), "f"), Ok(Ino(3)));
        assert_eq!(n.unlink(ROOT, "dir"), Ok(Ino(2)));
        assert_eq!(n.lookup(ROOT, "dir"), Err(NsError::NotFound));
        assert!(!n.is_dir(Ino(2)), "unlinked dir deregistered");
    }

    #[test]
    fn listing_is_sorted_and_complete() {
        let mut n = ns();
        n.link(ROOT, "zebra", Ino(2), false).unwrap();
        n.link(ROOT, "apple", Ino(3), false).unwrap();
        let l = n.list(ROOT).unwrap();
        assert_eq!(l, vec![("apple".into(), Ino(3)), ("zebra".into(), Ino(2))]);
        assert_eq!(n.list(Ino(99)), Err(NsError::NotADir));
    }
}
