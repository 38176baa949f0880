//! The namespace as ordered maps: the reference the hashed
//! [`tank_meta::Namespace`] must agree with, result for result, listing
//! for listing and snapshot byte for snapshot byte. Each directory's
//! entries are a `BTreeMap`, so a listing and the snapshot's entry order
//! are the map's own order, with no sort.

use std::collections::{BTreeMap, HashMap};

use tank_meta::namespace::NsError;
use tank_proto::Ino;

pub struct TreeNamespace {
    root: Ino,
    dirs: HashMap<Ino, BTreeMap<String, Ino>>,
}

impl TreeNamespace {
    pub fn new(root: Ino) -> Self {
        TreeNamespace {
            root,
            dirs: HashMap::from([(root, BTreeMap::new())]),
        }
    }

    pub fn is_dir(&self, ino: Ino) -> bool {
        self.dirs.contains_key(&ino)
    }

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
            self.dirs.insert(child, BTreeMap::new());
        }
        Ok(())
    }

    pub fn lookup(&self, parent: Ino, name: &str) -> Result<Ino, NsError> {
        self.dirs
            .get(&parent)
            .ok_or(NsError::NotADir)?
            .get(name)
            .copied()
            .ok_or(NsError::NotFound)
    }

    pub fn unlink(&mut self, parent: Ino, name: &str) -> Result<Ino, NsError> {
        let dir = self.dirs.get(&parent).ok_or(NsError::NotADir)?;
        let child = *dir.get(name).ok_or(NsError::NotFound)?;
        if self.dirs.get(&child).is_some_and(|c| !c.is_empty()) {
            return Err(NsError::NotEmpty);
        }
        self.dirs.get_mut(&parent).unwrap().remove(name);
        self.dirs.remove(&child);
        Ok(child)
    }

    pub fn list(&self, dir: Ino) -> Result<Vec<(String, Ino)>, NsError> {
        Ok(self
            .dirs
            .get(&dir)
            .ok_or(NsError::NotADir)?
            .iter()
            .map(|(n, i)| (n.clone(), *i))
            .collect())
    }

    /// The snapshot's namespace section as the ordered encoder wrote it:
    /// the root, then each directory in inode order with its entries in
    /// map order, little-endian, names length-prefixed by a `u16`.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.root.0.to_le_bytes());
        let mut dirs: Vec<_> = self.dirs.iter().collect();
        dirs.sort_by_key(|(ino, _)| **ino);
        buf.extend_from_slice(&(dirs.len() as u32).to_le_bytes());
        for (ino, entries) in dirs {
            buf.extend_from_slice(&ino.0.to_le_bytes());
            buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (name, child) in entries {
                buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
                buf.extend_from_slice(name.as_bytes());
                buf.extend_from_slice(&child.0.to_le_bytes());
            }
        }
        buf
    }
}
