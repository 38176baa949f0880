//! The real program, driven from outside: a `tankd` child process and
//! the sixteen UDP sessions the generator speaks to it through.
//!
//! Nothing here links `tank-net`: the harness knows `tankd` by its
//! command line, the line it prints when it is listening, its datagrams
//! (`tank-proto`) and `/proc/<pid>` — so the server's insides can be
//! reshaped without touching the end-to-end numbers.

use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use bytes::Bytes;
use tank_proto::message::{ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    CtlMsg, NetMsg, NodeId, ReqSeq, Request, Response, ServerPush, SessionId, WireDecode,
    WireEncode, MAX_DATAGRAM,
};

use tank_benchmark::gen::SOCKETS;

/// How long set-up waits for any single reply before giving up loudly.
const SETUP_TIMEOUT: Duration = Duration::from_secs(2);

/// A running `tankd`, killed and reaped on drop (so also on panic).
pub struct Tankd {
    child: Child,
    /// The address it reported listening on.
    pub addr: SocketAddr,
    /// Held open so a later write by the child cannot fail.
    _stderr: BufReader<ChildStderr>,
}

impl Tankd {
    /// Start `bin 127.0.0.1:0` with its default configuration (no
    /// modeled service time, two workers) and wait for
    /// `tankd listening on <addr>` on its standard error.
    pub fn spawn(bin: &Path) -> io::Result<Tankd> {
        let mut child = Command::new(bin)
            .arg("127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("cannot run {}: {e}", bin.display())))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("tankd exited before listening"));
            }
            if let Some(rest) = line.trim().strip_prefix("tankd listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or("");
                break addr.parse::<SocketAddr>().map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad addr {addr:?}: {e}"),
                    )
                });
            }
        };
        let mut tankd = Tankd {
            child,
            addr: "0.0.0.0:0".parse().expect("literal"),
            _stderr: stderr,
        };
        tankd.addr = addr?; // on error `tankd` drops and reaps the child
        Ok(tankd)
    }

    /// The child's process id, for `/proc`.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Tankd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
    /// poll(2) from the libc `std` already links.
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
}

/// What arrived in one datagram.
pub enum Incoming {
    /// The answer to one of our requests.
    Response(Response),
    /// A server-initiated push.
    Push(ServerPush),
}

/// Datagram counts, for `net.dgrams_*_per_op`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    /// Datagrams the generator sent (= `tankd` received, loopback).
    pub sent: u64,
    /// Datagrams the generator received.
    pub received: u64,
}

/// Sixteen connected, nonblocking UDP sockets — one session each —
/// behind one poll(2) set. One thread drives all of them.
pub struct Fleet {
    socks: Vec<UdpSocket>,
    sessions: Vec<SessionId>,
    next_seq: Vec<u64>,
    pollfds: Vec<PollFd>,
    buf: Vec<u8>,
    /// Running datagram counts.
    pub traffic: Traffic,
}

impl Fleet {
    /// Bind the sockets, connect them to `server` and `Hello` each one.
    pub fn connect(server: SocketAddr) -> io::Result<Fleet> {
        let mut socks = Vec::with_capacity(SOCKETS);
        for _ in 0..SOCKETS {
            let s = UdpSocket::bind("127.0.0.1:0")?;
            s.connect(server)?;
            s.set_nonblocking(true)?;
            socks.push(s);
        }
        let pollfds = socks
            .iter()
            .map(|s| PollFd {
                fd: s.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        let mut fleet = Fleet {
            socks,
            sessions: vec![SessionId(0); SOCKETS],
            next_seq: vec![1; SOCKETS],
            pollfds,
            buf: vec![0; MAX_DATAGRAM],
            traffic: Traffic::default(),
        };
        for sock in 0..SOCKETS {
            match fleet.call(sock, RequestBody::Hello { map_epoch: 0 })? {
                ResponseOutcome::Acked(Ok(ReplyBody::HelloOk { session, .. })) => {
                    fleet.sessions[sock] = session;
                }
                other => return Err(io::Error::other(format!("Hello answered {other:?}"))),
            }
        }
        Ok(fleet)
    }

    /// Send `body` on `sock` under its session with the next sequence
    /// number, which is returned. A send error is datagram loss: the
    /// request simply never completes and is counted as failed.
    pub fn send(&mut self, sock: usize, body: RequestBody) -> u64 {
        let seq = self.next_seq[sock];
        self.next_seq[sock] += 1;
        let bytes = NetMsg::Ctl(CtlMsg::Request(Request {
            src: NodeId(0),
            session: self.sessions[sock],
            seq: ReqSeq(seq),
            body,
        }))
        .encoded();
        let _ = self.socks[sock].send(&bytes);
        self.traffic.sent += 1;
        seq
    }

    /// Wait up to `timeout` (millisecond granularity; zero polls) for any
    /// socket to become readable.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `pollfds` is a live, exclusively borrowed Vec of
        // `repr(C)` pollfd records and `nfds` is its exact length; the
        // kernel writes only the `revents` fields within that range.
        let rc = unsafe {
            poll(
                self.pollfds.as_mut_ptr(),
                self.pollfds.len() as std::ffi::c_ulong,
                ms,
            )
        };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
            for p in &mut self.pollfds {
                p.revents = 0;
            }
        }
        Ok(())
    }

    /// Hand every datagram waiting on the sockets the last [`wait`]
    /// flagged to `f` as `(socket, message)`. Undecodable datagrams are
    /// counted in the return value.
    ///
    /// [`wait`]: Fleet::wait
    pub fn drain(&mut self, mut f: impl FnMut(&mut Fleet, usize, Incoming)) -> u64 {
        let mut garbage = 0;
        for sock in 0..SOCKETS {
            if self.pollfds[sock].revents & POLLIN == 0 {
                continue;
            }
            self.pollfds[sock].revents = 0;
            while let Ok(n) = self.socks[sock].recv(&mut self.buf) {
                self.traffic.received += 1;
                let mut bytes = Bytes::copy_from_slice(&self.buf[..n]);
                match NetMsg::decode(&mut bytes) {
                    Ok(NetMsg::Ctl(CtlMsg::Response(r))) => f(self, sock, Incoming::Response(r)),
                    Ok(NetMsg::Ctl(CtlMsg::Push(p))) => f(self, sock, Incoming::Push(p)),
                    _ => garbage += 1,
                }
            }
        }
        garbage
    }

    /// One synchronous request/response, for set-up. Fails loudly on a
    /// NACK-free timeout rather than retrying: set-up runs on loopback
    /// against an idle server.
    pub fn call(&mut self, sock: usize, body: RequestBody) -> io::Result<ResponseOutcome> {
        let kind = body.kind();
        let seq = self.send(sock, body);
        let deadline = Instant::now() + SETUP_TIMEOUT;
        let mut answer = None;
        while answer.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no reply to {kind} within {SETUP_TIMEOUT:?}"),
                ));
            }
            self.wait(left)?;
            self.drain(|_, s, msg| {
                if let Incoming::Response(r) = msg {
                    if s == sock && r.seq == ReqSeq(seq) {
                        answer = Some(r.outcome);
                    }
                }
            });
        }
        Ok(answer.expect("loop exits with an answer"))
    }
}
