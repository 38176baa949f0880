//! The local-process file API: operations, results and the
//! workload-generator trait.

use rand_chacha::ChaCha8Rng;
use tank_sim::LocalNs;

pub use tank_proto::FsErr;

/// A file-system operation submitted by a local process.
///
/// Paths are absolute, `/`-separated; resolution happens against the
/// server (each component lookup is a metadata transaction and therefore
/// an opportunistic lease renewal).
#[derive(Debug, Clone, PartialEq)]
pub enum FsOp {
    /// Create an empty file.
    Create {
        /// Absolute path of the new file.
        path: String,
    },
    /// Create a directory.
    Mkdir {
        /// Absolute path of the new directory.
        path: String,
    },
    /// Read a byte range.
    Read {
        /// File path.
        path: String,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        len: u32,
    },
    /// Write a byte range (write-back: completes into the cache).
    Write {
        /// File path.
        path: String,
        /// Byte offset.
        offset: u64,
        /// The data.
        data: Vec<u8>,
    },
    /// Stat a path.
    Stat {
        /// The path.
        path: String,
    },
    /// List a directory.
    List {
        /// Directory path.
        path: String,
    },
    /// Remove a file or empty directory.
    Delete {
        /// The path.
        path: String,
    },
    /// Rename a top-level file, possibly across metadata shards. Executed
    /// client-side as two-lock link-then-unlink (see DESIGN.md §11): the
    /// destination entry is linked before the source is unlinked, so a
    /// failure leaves the file reachable under at least one name.
    Rename {
        /// Source path (single top-level component).
        from: String,
        /// Destination path (single top-level component).
        to: String,
    },
    /// Force write-back of a file's dirty blocks (and commit its size).
    Flush {
        /// File path.
        path: String,
    },
    /// Release any lock held on the file (flushing first). An eager
    /// release completes when its `LockRelease` is sent: every dirty block
    /// is hardened on the SAN, a size commit it needed has been answered
    /// (or travels in the release's batch), and the lock is `Releasing`,
    /// serving nothing. The server's answer is not awaited. With lazy
    /// release the lock is retained and the op completes at once.
    Release {
        /// File path.
        path: String,
    },
}

impl FsOp {
    /// The path the operation targets.
    pub fn path(&self) -> &str {
        match self {
            FsOp::Create { path }
            | FsOp::Mkdir { path }
            | FsOp::Read { path, .. }
            | FsOp::Write { path, .. }
            | FsOp::Stat { path }
            | FsOp::List { path }
            | FsOp::Delete { path }
            | FsOp::Flush { path }
            | FsOp::Release { path } => path,
            FsOp::Rename { from, .. } => from,
        }
    }

    /// Short label for metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            FsOp::Create { .. } => "create",
            FsOp::Mkdir { .. } => "mkdir",
            FsOp::Read { .. } => "read",
            FsOp::Write { .. } => "write",
            FsOp::Stat { .. } => "stat",
            FsOp::List { .. } => "list",
            FsOp::Delete { .. } => "delete",
            FsOp::Rename { .. } => "rename",
            FsOp::Flush { .. } => "flush",
            FsOp::Release { .. } => "release",
        }
    }
}

/// Successful operation payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum FsData {
    /// Nothing to return.
    Unit,
    /// Bytes read.
    Bytes(Vec<u8>),
    /// Attributes: (size, is_dir, version).
    Attr {
        /// File size.
        size: u64,
        /// Directory flag.
        is_dir: bool,
        /// Metadata version.
        version: u64,
    },
    /// Directory entries.
    Entries(Vec<String>),
}

/// Final result of one submitted operation.
pub type FsResult = Result<FsData, FsErr>;

/// Closed-loop workload generator: after each completed operation the
/// client asks for the next one plus a think time. `Send`, so a node
/// can be driven from any thread.
pub trait OpGen: Send {
    /// The next operation, or `None` when the workload is exhausted.
    fn next_op(&mut self, rng: &mut ChaCha8Rng, now: LocalNs) -> Option<(LocalNs, FsOp)>;
}

/// A fixed script of operations, each fired after a delay from client
/// start measured on the client's own clock. Steps are scheduled
/// independently (not closed-loop).
#[derive(Debug, Clone, Default)]
pub struct Script {
    /// `(delay-from-start, op)` pairs.
    pub steps: Vec<(LocalNs, FsOp)>,
}

impl Script {
    /// Empty script.
    pub fn new() -> Self {
        Script::default()
    }

    /// Add a step firing `delay` after client start.
    pub fn at(mut self, delay: LocalNs, op: FsOp) -> Self {
        self.steps.push((delay, op));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_paths_and_kinds() {
        let op = FsOp::Write {
            path: "/a/b".into(),
            offset: 0,
            data: vec![1],
        };
        assert_eq!(op.path(), "/a/b");
        assert_eq!(op.kind(), "write");
        assert_eq!(FsOp::Stat { path: "/x".into() }.kind(), "stat");
    }

    #[test]
    fn script_builder() {
        let s = Script::new()
            .at(LocalNs::from_millis(1), FsOp::Create { path: "/f".into() })
            .at(LocalNs::from_millis(2), FsOp::Stat { path: "/f".into() });
        assert_eq!(s.steps.len(), 2);
    }
}
