//! The one mutation table: what a metadata transaction *is*.
//!
//! A mutating request is turned into its redo [`WalRecord`]
//! ([`WalRecord::of_request`]), the record is carried out by
//! [`MetaStore::redo`], and the reply is read off what that produced
//! ([`MetaStore::execute`]). Recovery replays a log through the same
//! `redo`, so "replay does what execution did" holds by construction: the
//! thing executed is the thing logged. Who may run a mutation (locks,
//! contention) and whether the returned record is kept are the caller's
//! decisions; what it does, logs and answers is decided here and nowhere
//! else.

use tank_proto::message::{FileAttr, FsError, ReplyBody, RequestBody};
use tank_proto::{BlockId, Ino, MAX_NAME};

use crate::store::{MetaError, MetaStore};
use crate::wal::WalRecord;

/// What carrying out one record produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applied {
    /// `Create` / `Mkdir`: the inode number minted.
    Minted(Ino),
    /// `SetAttr`: the attributes after the change.
    Attr(FileAttr),
    /// `Alloc`: the file's complete block map.
    Blocks(Vec<BlockId>),
    /// Every other record.
    Nothing,
}

impl WalRecord {
    /// The redo record of a mutating request stamped `now`; `None` for
    /// reads and for bodies that are not metadata transactions. A minting
    /// record is built with `Ino(0)`: the number exists only once the
    /// record has been carried out.
    pub fn of_request(body: RequestBody, now: u64) -> Option<WalRecord> {
        match body {
            RequestBody::Create { parent, name } => Some(WalRecord::Create {
                parent,
                name,
                now,
                ino: Ino(0),
            }),
            RequestBody::Mkdir { parent, name } => Some(WalRecord::Mkdir {
                parent,
                name,
                now,
                ino: Ino(0),
            }),
            RequestBody::SetAttr { ino, size } => Some(WalRecord::SetAttr { ino, size, now }),
            RequestBody::Unlink { parent, name } => Some(WalRecord::Unlink { parent, name }),
            RequestBody::RenameLink { dir, name, ino } => {
                Some(WalRecord::RenameLink { dir, name, ino })
            }
            RequestBody::RenameUnlink { dir, name } => Some(WalRecord::RenameUnlink { dir, name }),
            RequestBody::AllocBlocks { ino, count } => Some(WalRecord::Alloc { ino, count }),
            RequestBody::CommitWrite { ino, new_size } => {
                Some(WalRecord::Commit { ino, new_size, now })
            }
            RequestBody::Hello { .. }
            | RequestBody::KeepAlive
            | RequestBody::Lookup { .. }
            | RequestBody::ReadDir { .. }
            | RequestBody::GetAttr { .. }
            | RequestBody::LockAcquire { .. }
            | RequestBody::LockRelease { .. }
            | RequestBody::PushAck { .. }
            | RequestBody::Batch(_) => None,
        }
    }
}

impl MetaStore {
    /// Do — or, at recovery, redo — one record. A minting record's `ino`
    /// is not consulted: the store mints deterministically and reports the
    /// number. The watermark records carry no store state and do nothing.
    pub fn redo(&mut self, rec: &WalRecord) -> Result<Applied, MetaError> {
        match rec {
            WalRecord::Create {
                parent, name, now, ..
            } => self.create(*parent, name, *now).map(Applied::Minted),
            WalRecord::Mkdir {
                parent, name, now, ..
            } => self.mkdir(*parent, name, *now).map(Applied::Minted),
            WalRecord::SetAttr { ino, size, now } => {
                self.setattr(*ino, *size, *now).map(Applied::Attr)
            }
            WalRecord::Unlink { parent, name } => {
                self.unlink(*parent, name).map(|_| Applied::Nothing)
            }
            WalRecord::RenameLink { dir, name, ino } => self
                .rename_link(*dir, name, *ino)
                .map(|()| Applied::Nothing),
            WalRecord::RenameUnlink { dir, name } => {
                self.rename_unlink(*dir, name).map(|_| Applied::Nothing)
            }
            WalRecord::Alloc { ino, count } => self.alloc_blocks(*ino, *count).map(Applied::Blocks),
            WalRecord::Commit { ino, new_size, now } => self
                .commit_write(*ino, *new_size, *now)
                .map(|()| Applied::Nothing),
            WalRecord::SessionWatermark(_)
            | WalRecord::EpochWatermark(_)
            | WalRecord::Incarnation(_) => Ok(Applied::Nothing),
        }
    }

    /// Execute one metadata request stamped `now`. Reads are answered
    /// directly and log nothing. A mutation is built as its record, done
    /// through [`redo`](Self::redo), and answered from what that produced;
    /// the record comes back — with the minted inode filled in — exactly
    /// when the store changed, for the caller to make durable before the
    /// reply leaves. Bodies that are not metadata requests, and names
    /// longer than [`MAX_NAME`] bytes, are `Invalid`.
    pub fn execute(
        &mut self,
        body: RequestBody,
        now: u64,
    ) -> Result<(ReplyBody, Option<WalRecord>), FsError> {
        if let RequestBody::Create { name, .. }
        | RequestBody::Lookup { name, .. }
        | RequestBody::Mkdir { name, .. }
        | RequestBody::Unlink { name, .. }
        | RequestBody::RenameLink { name, .. }
        | RequestBody::RenameUnlink { name, .. } = &body
        {
            if name.len() > MAX_NAME {
                return Err(FsError::Invalid);
            }
        }
        match body {
            RequestBody::Lookup { parent, name } => {
                let (ino, attr) = self.lookup(parent, &name)?;
                Ok((ReplyBody::Resolved { ino, attr }, None))
            }
            RequestBody::ReadDir { dir } => {
                let entries = self.readdir(dir)?;
                Ok((ReplyBody::Dir { entries }, None))
            }
            RequestBody::GetAttr { ino } => {
                let attr = self.getattr(ino)?;
                Ok((ReplyBody::Attr { attr }, None))
            }
            mutation => {
                let mut rec = WalRecord::of_request(mutation, now).ok_or(FsError::Invalid)?;
                let reply = match self.redo(&rec)? {
                    Applied::Minted(minted) => {
                        if let WalRecord::Create { ino, .. } | WalRecord::Mkdir { ino, .. } =
                            &mut rec
                        {
                            *ino = minted;
                        }
                        ReplyBody::Created { ino: minted }
                    }
                    Applied::Attr(attr) => ReplyBody::Attr { attr },
                    Applied::Blocks(blocks) => ReplyBody::Allocated { blocks },
                    Applied::Nothing => ReplyBody::Ok,
                };
                Ok((reply, Some(rec)))
            }
        }
    }
}
