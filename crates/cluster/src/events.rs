//! Mapping node-local events into the unified checker vocabulary.

use tank_client::fs::ClientEvent;
use tank_consistency::Event;
use tank_server::ServerEvent;
use tank_storage::DiskEvent;

/// Client events → checker events.
pub fn map_client(ev: ClientEvent) -> Option<Event> {
    Some(match ev {
        ClientEvent::OpSubmitted { op, kind } => Event::OpSubmitted { op, kind },
        ClientEvent::OpCompleted { op, kind, ok, err } => Event::OpCompleted {
            op,
            kind,
            ok,
            err: err.map(|e| format!("{e:?}")),
        },
        ClientEvent::WriteAcked { ino, idx, tag, .. } => Event::WriteAcked { ino, idx, tag },
        ClientEvent::ReadServed {
            ino,
            idx,
            tag,
            from_cache,
            ..
        } => Event::ReadServed {
            ino,
            idx,
            tag,
            from_cache,
        },
        ClientEvent::AttrServed { ino, from_cache } => Event::AttrServed { ino, from_cache },
        ClientEvent::CacheInvalidated { discarded_dirty } => {
            Event::CacheInvalidated { discarded_dirty }
        }
        ClientEvent::Quiesced { shard } => Event::Quiesced { shard },
        ClientEvent::Resumed { shard } => Event::Resumed { shard },
    })
}

/// Server events → checker events.
pub fn map_server(ev: ServerEvent) -> Option<Event> {
    Some(match ev {
        ServerEvent::LockGranted {
            client,
            ino,
            epoch,
            mode,
        } => Event::LockGranted {
            client,
            ino,
            epoch,
            mode,
        },
        ServerEvent::LockReleased { client, ino, epoch } => {
            Event::LockReleased { client, ino, epoch }
        }
        ServerEvent::LockStolen { client, ino, epoch } => Event::LockStolen { client, ino, epoch },
        ServerEvent::RequestBlocked { client, ino, .. } => Event::RequestBlocked { client, ino },
        ServerEvent::DeliveryError { client } => Event::DeliveryError { client },
        ServerEvent::LeaseExpired { client } => Event::LeaseExpired { client },
        ServerEvent::WalSynced { durable } => Event::WalSynced { durable },
        ServerEvent::Fenced { client } => Event::Fenced { client },
        ServerEvent::NewSession { client } => Event::NewSession { client },
        ServerEvent::RecoveryBegan => Event::ServerRecovering,
        ServerEvent::RecoveryEnded => Event::ServerRecovered,
    })
}

/// Disk events → checker events.
pub fn map_disk(ev: DiskEvent) -> Option<Event> {
    Some(match ev {
        DiskEvent::Hardened {
            initiator,
            block,
            tag,
            previous,
        } => Event::Hardened {
            initiator,
            block,
            tag,
            previous,
        },
        DiskEvent::ReadServed {
            initiator,
            block,
            tag,
        } => Event::DiskRead {
            initiator,
            block,
            tag,
        },
        DiskEvent::FenceInstalled { target, range } => Event::FenceInstalled {
            target,
            range_start: range.start,
            range_end: range.end,
        },
        DiskEvent::RejectedFenced {
            initiator,
            was_write,
            ..
        } => Event::FenceRejected {
            initiator,
            was_write,
        },
    })
}
