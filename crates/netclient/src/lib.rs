//! The Storage Tank client over UDP.
//!
//! [`TankClient`] is the simulator's client, [`tank_client::ClientNode`],
//! as an actor on a [`Host`], with the protocol — sessions, lease phases,
//! retransmission, batching, the lock-protected caches, lazy release,
//! demand hand-back — unchanged. This crate only says where sends go:
//!
//! * control sends leave on the socket, to `tankd` ([`SERVER`] to the
//!   node; `tankd` tells clients apart by address);
//! * `tankd` has no SAN, so the host's local answerer refuses a SAN
//!   request with [`SanError::DeviceError`] and a data op that needs a
//!   block fails instead of hanging; [`TankClient::run`] refuses a
//!   `Write` outright, since nothing could ever harden it;
//! * observations are the node's [`Event`] stream — the vocabulary the
//!   simulator's checker reads — kept for [`TankClient::events`].

use std::collections::VecDeque;
use std::io;
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Duration;

use tank_client::fs::FsResult;
use tank_client::{ClientConfig, ClientNode, FsErr, FsOp};
use tank_core::LeaseConfig;
use tank_net::host::HostObs;
use tank_net::{FaultConfig, FaultySocket, Host};
use tank_obs::{names, Registry};
use tank_proto::{Event, NetMsg, NodeId, SanError, SanMsg};

/// `tankd`, as the node addresses it.
pub const SERVER: NodeId = NodeId(1);
/// The one disk the node stripes blocks over: it does not exist.
const NO_DISK: NodeId = NodeId(2);
/// How long [`TankClient::connect`] waits for the first session.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// What the missing SAN answers to `msg`: the device failed.
fn refusal(msg: NetMsg) -> Option<NetMsg> {
    let NetMsg::San(req) = msg else {
        return None;
    };
    let err = SanError::DeviceError;
    let resp = match req {
        SanMsg::ReadBlock { req_id, .. } => SanMsg::ReadResp {
            req_id,
            result: Err(err),
        },
        SanMsg::WriteBlock { req_id, .. } => SanMsg::WriteResp {
            req_id,
            result: Err(err),
        },
        SanMsg::ReadResp { .. }
        | SanMsg::WriteResp { .. }
        | SanMsg::FenceCmd { .. }
        | SanMsg::FenceResp { .. } => return None,
    };
    Some(NetMsg::San(resp))
}

/// A Storage Tank client of one `tankd`, over UDP: a [`ClientNode`] on a
/// [`Host`]. Dropping it stops the host's thread and closes the socket.
pub struct TankClient {
    host: Host<ClientNode>,
}

impl TankClient {
    /// [`ClientConfig::new`]'s defaults against [`SERVER`] and the
    /// placeholder disk, under `lease`: the configuration
    /// [`connect`](Self::connect) expects.
    pub fn config(lease: LeaseConfig) -> ClientConfig {
        let mut cfg = ClientConfig::new(SERVER, vec![NO_DISK]);
        cfg.lease = lease;
        cfg
    }

    /// Bind a socket to `server`, start the node on its host, and return
    /// once its first session is open. `cfg` comes from
    /// [`config`](Self::config); `faults` apply to the socket. With a
    /// `registry`, the node records the full `client.*` metric set and
    /// the socket its `net.fault.*` counters.
    pub fn connect(
        server: &str,
        cfg: ClientConfig,
        faults: FaultConfig,
        registry: Option<&Arc<Registry>>,
    ) -> io::Result<TankClient> {
        let peer = server.to_socket_addrs()?.next();
        let peer = peer.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let local = if peer.is_ipv4() {
            "0.0.0.0:0"
        } else {
            "[::]:0"
        };
        let sock = FaultySocket::bind_observed(local, faults, registry)?;
        sock.connect(peer)?;
        let mut node = ClientNode::new(cfg);
        if let Some(r) = registry {
            node.set_obs(r.clone());
        }
        let obs = HostObs {
            decode_errors: registry.map(|r| r.counter_def(&names::NET_CLIENT_DECODE_ERRORS)),
            ..HostObs::default()
        };
        let answerer = Some(Box::new(refusal) as _);
        let host = Host::spawn(node, sock, vec![peer], answerer, faults.seed, obs)?;
        let resumed = Event::Resumed { shard: 0 };
        let session =
            |_: &mut ClientNode, events: &VecDeque<Event>| events.contains(&resumed).then_some(());
        match host.wait(CONNECT_TIMEOUT, session) {
            Some(()) => Ok(TankClient { host }),
            None => Err(io::Error::new(io::ErrorKind::TimedOut, "no session")),
        }
    }

    /// Run one operation and wait for its result.
    pub fn run(&self, op: FsOp) -> FsResult {
        if let FsOp::Write { .. } = op {
            return Err(FsErr::Invalid);
        }
        let id = self.host.activate(|n, ctx| n.submit(op, ctx));
        loop {
            // No deadline: the node completes every op it admits.
            if let Some(result) = self.host.wait(Duration::MAX, |n, _| n.take_result(id)) {
                return result;
            }
        }
    }

    /// The node's events so far, oldest first (the last 65 536 of them).
    pub fn events(&self) -> Vec<Event> {
        self.host
            .inspect(|_, events| events.iter().copied().collect())
    }

    /// Look at the node (its lease, its counters) between activations.
    pub fn inspect<R>(&self, f: impl FnOnce(&ClientNode) -> R) -> R {
        self.host.inspect(|node, _| f(node))
    }
}
