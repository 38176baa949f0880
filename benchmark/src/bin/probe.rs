//! The leaf-layer probe: the traced run's view *inside* the request path.
//!
//! ```text
//! probe --workload <small|batch|lock> --seed <n> --out <trace.jsonl>
//! ```
//!
//! It regenerates the op stream the harness sends `tankd` (same seed,
//! same generator) and, for the first 20 000 ops, executes the server's
//! request path in-process by calling each layer's public functions in
//! the order `tankd` does — decode → lease authority → session admit →
//! lock manager | metadata store → WAL append/fsync (mutations) → record
//! response → encode — with a span around every call. The reactor's
//! drain/decode/poll calls are spanned over a loopback socket preloaded
//! with the same datagrams, and the layers only the simulator puts on a
//! request path (client cache, disk, shard map, client lease, obs) over
//! the block stream of the workload's simulator half.
//!
//! This is the one file that names leaf APIs; when the protocol cores
//! are reshaped it is this file, not the timed harness, that follows.
//! Output: one `name value` line per metric it owns, on standard output.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::UdpSocket;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tank_client::cache::BlockCache;
use tank_core::{ClientLease, LeaseAuthority, LeaseConfig};
use tank_meta::wal::{DurableStore, WalRecord};
use tank_meta::MetaStore;
use tank_net::poll::Poller;
use tank_net::reactor::{decode_batch, drain_ready, recv_scratch, TimerQueue, WakeupBatch};
use tank_net::{FaultConfig, FaultySocket};
use tank_obs::Registry;
use tank_proto::message::{FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    BlockId, CtlMsg, Epoch, Incarnation, Ino, LockMode, NetMsg, NodeId, ReqSeq, Request, Response,
    SessionId, WireDecode, WireEncode, WriteTag,
};
use tank_server::lock::{LockManager, LockRequestOutcome};
use tank_server::session::{Admission, SessionTable};
use tank_shard::ShardMap;
use tank_sim::LocalNs;
use tank_storage::{DiskConfig, DiskNode};

use tank_benchmark::gen::{
    chain_key, chain_sockets, derive, Binding, FileRef, LockStep, LockStream, MetaStream, Names,
    Rng, Workload, Zipf, CHAINS, PRIVATE_PER_SLOT, ROOT, SHARED_FILES, SLOTS, SOCKETS, WINDOW,
};
use tank_benchmark::spans::Recorder;
use tank_benchmark::stats::median;

/// Logical ops replayed.
const TRACED_OPS: u64 = 20_000;
/// Datagrams preloaded on the loopback socket per reactor wakeup.
const WAKEUP: usize = 32;
const BLOCK: usize = 4096;

/// One request datagram of the stream, before session and sequence
/// numbers are stamped on it.
struct Datagram {
    /// Index of the op it belongs to (the trace id).
    op: u64,
    /// Issuing client, as a socket index.
    sock: usize,
    body: RequestBody,
}

/// Inodes of the namespace the stream addresses, as the in-process
/// store assigned them.
struct Inos {
    shared: Vec<Ino>,
    private: Vec<[Ino; PRIVATE_PER_SLOT]>,
}

impl Binding for Inos {
    fn ino(&self, slot: usize, file: FileRef) -> Ino {
        match file {
            FileRef::Shared(i) => self.shared[i as usize],
            FileRef::Private(j) => self.private[slot][j as usize],
            // Scratch files are only ever addressed by name.
            FileRef::Scratch(_) => Ino(0),
        }
    }
}

/// The server's state, composed the way `tankd` composes it.
struct Server {
    meta: MetaStore,
    locks: LockManager,
    authority: LeaseAuthority,
    sessions: SessionTable,
    wal: DurableStore,
    session_of: Vec<SessionId>,
    next_seq: Vec<u64>,
    /// Hot-inode epochs by holder, for the demanded release.
    held: HashMap<(NodeId, Ino), Epoch>,
}

fn client(sock: usize) -> NodeId {
    NodeId(sock as u32 + 1)
}

impl Server {
    /// A fresh server holding the workload's namespace, every session
    /// begun — what the harness's set-up leaves behind.
    fn set_up(names: &Names, workload: Workload) -> (Server, Inos) {
        let mut meta = MetaStore::new(1 << 16, BLOCK);
        let mut create = |name: String| meta.create(ROOT, &name, 1).expect("set-up create");
        let shared = (0..SHARED_FILES).map(|i| create(names.shared(i))).collect();
        let private: Vec<[Ino; PRIVATE_PER_SLOT]> = (0..SLOTS)
            .map(|s| [create(names.private(s, 0)), create(names.private(s, 1))])
            .collect();
        let mut sessions = SessionTable::new();
        let session_of = (0..SOCKETS).map(|s| sessions.begin(client(s))).collect();
        let mut server = Server {
            meta,
            locks: LockManager::new(),
            authority: LeaseAuthority::new(LeaseConfig::default()),
            sessions,
            wal: DurableStore::default(),
            session_of,
            next_seq: vec![2; SOCKETS],
            held: HashMap::new(),
        };
        if workload == Workload::Lock {
            // Every chain's hot inode starts held by its pair's first socket.
            for (c, p) in private.iter().enumerate().take(CHAINS) {
                let holder = client(chain_sockets(c)[0]);
                let outcome = server.locks.request(
                    holder,
                    p[0],
                    LockMode::Exclusive,
                    SessionId(0),
                    ReqSeq(0),
                );
                let LockRequestOutcome::Granted(g) = outcome else {
                    panic!("set-up grant refused: {outcome:?}");
                };
                server.held.insert((holder, p[0]), g.epoch);
            }
        }
        let inos = Inos { shared, private };
        (server, inos)
    }
}

/// The first [`TRACED_OPS`] ops of the workload's stream, as datagrams in
/// the order a closed loop of [`WINDOW`] slots first issues them.
fn stream(workload: Workload, seed: u64, names: &Names, inos: &Inos) -> Vec<Datagram> {
    let mut out = Vec::new();
    let units = TRACED_OPS / workload.ops_per_unit();
    match workload {
        Workload::Small | Workload::Batch => {
            let mut streams: Vec<MetaStream> = (0..WINDOW)
                .map(|s| MetaStream::new(workload, seed, s))
                .collect();
            for op in 0..units {
                let slot = op as usize % WINDOW;
                let ops = streams[slot].next_unit();
                let mut bodies: Vec<RequestBody> =
                    ops.iter().map(|o| o.body(slot, names, inos)).collect();
                let body = if workload == Workload::Small {
                    bodies.remove(0)
                } else {
                    RequestBody::Batch(bodies)
                };
                out.push(Datagram {
                    op,
                    sock: slot % SOCKETS,
                    body,
                });
            }
        }
        Workload::Lock => {
            let mut streams: Vec<LockStream> =
                (0..CHAINS).map(|c| LockStream::new(seed, c)).collect();
            let mut hot_side = vec![0usize; CHAINS];
            let mut cycle_side = vec![0usize; CHAINS];
            for op in 0..units {
                let c = op as usize % CHAINS;
                let pair = chain_sockets(c);
                match streams[c].next_step() {
                    LockStep::Cycle { key, mode } => {
                        let sock = pair[cycle_side[c]];
                        cycle_side[c] ^= 1;
                        let ino = inos.shared[chain_key(c, key)];
                        out.push(Datagram {
                            op,
                            sock,
                            body: RequestBody::LockAcquire { ino, mode },
                        });
                        // The epoch is filled in at replay, from the grant.
                        out.push(Datagram {
                            op,
                            sock,
                            body: RequestBody::LockRelease {
                                ino,
                                epoch: Epoch(0),
                            },
                        });
                    }
                    LockStep::Handoff => {
                        let hot = inos.private[c][0];
                        let (holder, taker) = (pair[hot_side[c]], pair[hot_side[c] ^ 1]);
                        hot_side[c] ^= 1;
                        out.push(Datagram {
                            op,
                            sock: taker,
                            body: RequestBody::LockAcquire {
                                ino: hot,
                                mode: LockMode::Exclusive,
                            },
                        });
                        out.push(Datagram {
                            op,
                            sock: holder,
                            body: RequestBody::PushAck { push_seq: op },
                        });
                        out.push(Datagram {
                            op,
                            sock: holder,
                            body: RequestBody::LockRelease {
                                ino: hot,
                                epoch: Epoch(0),
                            },
                        });
                    }
                }
            }
        }
    }
    out
}

fn fs<T>(r: Result<T, tank_meta::MetaError>) -> Result<T, FsError> {
    r.map_err(|_| FsError::Invalid)
}

impl Server {
    /// One synchronously answered body, as `tankd`'s `execute_sync`
    /// composes the layers; mutations are framed and appended to the WAL.
    fn execute(
        &mut self,
        who: NodeId,
        body: RequestBody,
        t: &mut Recorder,
    ) -> Result<ReplyBody, FsError> {
        let now = 2;
        match body {
            RequestBody::KeepAlive | RequestBody::PushAck { .. } => Ok(ReplyBody::Ok),
            RequestBody::GetAttr { ino } => t
                .leaf("meta.getattr", || fs(self.meta.getattr(ino)))
                .map(|attr| ReplyBody::Attr { attr }),
            RequestBody::Lookup { parent, name } => t
                .leaf("meta.lookup", || fs(self.meta.lookup(parent, &name)))
                .map(|(ino, attr)| ReplyBody::Resolved { ino, attr }),
            RequestBody::SetAttr { ino, size } => {
                let attr = t.leaf("meta.setattr", || fs(self.meta.setattr(ino, size, now)))?;
                let rec = WalRecord::SetAttr { ino, size, now };
                t.leaf("meta.wal_append", || self.wal.append(&rec));
                Ok(ReplyBody::Attr { attr })
            }
            RequestBody::Create { parent, name } => {
                let ino = t.leaf("meta.create", || fs(self.meta.create(parent, &name, now)))?;
                let rec = WalRecord::Create {
                    parent,
                    name,
                    now,
                    ino,
                };
                t.leaf("meta.wal_append", || self.wal.append(&rec));
                Ok(ReplyBody::Created { ino })
            }
            RequestBody::Unlink { parent, name } => {
                t.leaf("meta.unlink", || fs(self.meta.unlink(parent, &name)))?;
                let rec = WalRecord::Unlink { parent, name };
                t.leaf("meta.wal_append", || self.wal.append(&rec));
                Ok(ReplyBody::Ok)
            }
            RequestBody::LockRelease { ino, .. } => {
                // The stream cannot know epochs in advance; release the
                // grant this client actually holds.
                let epoch = self.held.remove(&(who, ino));
                let grants = t.leaf("server.lock_release", || {
                    self.locks.release(who, ino, epoch)
                });
                for g in grants {
                    // The promoted waiter's grant goes out now.
                    self.held.insert((g.client, g.ino), g.epoch);
                    if let Some((session, seq)) = g.answers {
                        let (blocks, size) = self.meta.file_extent(g.ino).expect("file exists");
                        self.respond(
                            g.client,
                            session,
                            seq,
                            Ok(ReplyBody::LockGranted {
                                ino: g.ino,
                                mode: g.mode,
                                epoch: g.epoch,
                                blocks,
                                size,
                            }),
                            t,
                        );
                    }
                }
                Ok(ReplyBody::Ok)
            }
            other => panic!("the stream never sends {}", other.kind()),
        }
    }

    /// Record the response for replay and encode it, as `tankd`'s
    /// `respond` does.
    fn respond(
        &mut self,
        dst: NodeId,
        session: SessionId,
        seq: ReqSeq,
        result: Result<ReplyBody, FsError>,
        t: &mut Recorder,
    ) -> Bytes {
        let resp = Response {
            dst,
            session,
            seq,
            incarnation: Incarnation(1),
            outcome: ResponseOutcome::Acked(result),
        };
        t.leaf("server.session_record", || {
            self.sessions.record_response(dst, seq, resp.clone())
        });
        t.leaf("proto.resp_encode", || {
            NetMsg::Ctl(CtlMsg::Response(resp)).encoded()
        })
    }

    /// One datagram through the whole path. Returns the encoded request
    /// and response (none for a lock request that queued behind a
    /// holder; its grant is sent from the holder's release).
    fn serve(&mut self, d: &Datagram, t: &mut Recorder) -> (Bytes, Option<Bytes>) {
        let who = client(d.sock);
        let seq = self.next_seq[d.sock];
        self.next_seq[d.sock] += 1;
        let request = NetMsg::Ctl(CtlMsg::Request(Request {
            src: NodeId(0),
            session: self.session_of[d.sock],
            seq: ReqSeq(seq),
            body: d.body.clone(),
        }));
        // The client's half, outside the server's root span.
        let wire = t.leaf("proto.req_encode", || request.encoded());

        t.enter("server.request");
        let decoded = t.leaf("proto.req_decode", || {
            NetMsg::decode(&mut wire.clone()).expect("own encoding decodes")
        });
        let NetMsg::Ctl(CtlMsg::Request(req)) = decoded else {
            unreachable!("encoded a request");
        };
        t.leaf("core.authority_standing", || {
            self.authority.standing_of(who)
        });
        let admission = t.leaf("server.session_admit", || {
            self.sessions.admit(who, req.session, req.seq)
        });
        assert!(matches!(admission, Admission::Execute), "{admission:?}");
        let wal_before = self.wal.log_len();
        let outcome = match req.body {
            RequestBody::LockAcquire { ino, mode } => {
                t.leaf("meta.getattr", || self.meta.getattr(ino))
                    .expect("file exists");
                let outcome = t.leaf("server.lock_request", || {
                    self.locks.request(who, ino, mode, req.session, req.seq)
                });
                match outcome {
                    LockRequestOutcome::Granted(g) => {
                        self.held.insert((who, ino), g.epoch);
                        let (blocks, size) = self.meta.file_extent(ino).expect("file exists");
                        Some(Ok(ReplyBody::LockGranted {
                            ino,
                            mode,
                            epoch: g.epoch,
                            blocks,
                            size,
                        }))
                    }
                    // The hand-off: answered when the holder's release
                    // promotes this waiter (the grant's cost is in that
                    // release's span).
                    LockRequestOutcome::Queued { .. } => None,
                    LockRequestOutcome::AlreadyHeld(..) => {
                        panic!("chains release before re-acquiring")
                    }
                }
            }
            RequestBody::Batch(elems) => Some(Ok(ReplyBody::Batch(
                elems.into_iter().map(|b| self.execute(who, b, t)).collect(),
            ))),
            body => Some(self.execute(who, body, t)),
        };
        if self.wal.log_len() > wal_before {
            // fsync before ACK, one group commit per request.
            t.leaf("meta.wal_fsync", || self.wal.fsync());
        }
        let encoded = outcome.map(|result| self.respond(who, req.session, req.seq, result, t));
        t.exit();
        if let Some(bytes) = &encoded {
            t.leaf("proto.resp_decode", || {
                NetMsg::decode(&mut bytes.clone()).expect("own encoding decodes")
            });
        }
        (wire, encoded)
    }
}

/// What one replay of the stream produced.
struct Replay {
    wall: Duration,
    requests: Vec<Bytes>,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
    server: Server,
}

fn replay(workload: Workload, seed: u64, t: &mut Recorder) -> Replay {
    let names = Names::new(seed);
    let (mut server, inos) = Server::set_up(&names, workload);
    let datagrams = stream(workload, seed, &names, &inos);
    let mut requests = Vec::with_capacity(datagrams.len());
    let mut request_bytes = Vec::with_capacity(datagrams.len());
    let mut response_bytes = Vec::new();
    let start = Instant::now();
    for d in &datagrams {
        t.set_trace(d.op);
        let (req, resp) = server.serve(d, t);
        request_bytes.push(req.len() as f64);
        requests.push(req);
        if let Some(resp) = resp {
            response_bytes.push(resp.len() as f64);
        }
    }
    Replay {
        wall: start.elapsed(),
        requests,
        request_bytes,
        response_bytes,
        server,
    }
}

/// The reactor's receive path over a loopback socket preloaded with the
/// stream's datagrams, [`WAKEUP`] at a time.
fn reactor(requests: &[Bytes], rec: &mut Recorder) -> io::Result<()> {
    let server = FaultySocket::bind("127.0.0.1:0", FaultConfig::none())?;
    server.set_nonblocking(true)?;
    let sender = UdpSocket::bind("127.0.0.1:0")?;
    sender.connect(server.local_addr()?)?;
    let mut poller = Poller::new()?;
    poller.register(&server, 0)?;
    let mut scratch = recv_scratch();
    let mut batch = WakeupBatch::new();
    let mut decoded = Vec::new();
    for (i, chunk) in requests.chunks(WAKEUP).enumerate() {
        for bytes in chunk {
            sender.send(bytes)?;
        }
        rec.set_trace(i as u64);
        rec.enter("net.wakeup");
        rec.enter("net.poll_wait");
        poller.wait(Duration::from_millis(50))?;
        rec.exit();
        rec.enter("net.drain");
        let n = drain_ready(&server, &mut scratch, &mut batch, WAKEUP);
        rec.exit();
        decoded.clear();
        rec.enter("net.decode_batch");
        decode_batch(&batch, &mut decoded);
        rec.exit();
        rec.exit();
        if n != chunk.len() || decoded.len() != n {
            return Err(io::Error::other(format!(
                "loopback delivered {n} of {} datagrams, {} decoded",
                chunk.len(),
                decoded.len()
            )));
        }
    }
    let mut timers: TimerQueue<u64> = TimerQueue::new();
    for i in 0..TRACED_OPS {
        rec.leaf("net.timer_arm_pop", || {
            timers.arm(Duration::ZERO, i);
            timers.pop_due(Instant::now())
        });
    }
    Ok(())
}

/// The layers only the simulator's request path reaches, over the block
/// stream of the workload's simulator half (`small` stats only, so its
/// cache and disk spans are empty; `lock` touches own files only).
fn sim_layers(workload: Workload, seed: u64, rec: &mut Recorder) {
    let mut rng = Rng::new(derive(seed, 0x0500));
    let zipf = Zipf::new(64, 1.0);
    let mut cache = BlockCache::with_capacity(BLOCK, 256);
    let mut disk: DiskNode<()> = DiskNode::unobserved(DiskConfig {
        blocks: 1 << 16,
        block_size: BLOCK,
    });
    let me = NodeId(1);
    let map = ShardMap::new(2);
    let mut lease = ClientLease::new(LeaseConfig::default());
    let registry = Registry::new();
    let counter = registry.counter("probe.counter");
    let histogram = registry.histogram("probe.histogram", "ns", &[100, 1_000, 10_000, 100_000]);
    for i in 0..TRACED_OPS {
        rec.set_trace(i);
        // Every op, whatever its kind, is a request that renews the
        // lease, routes by inode and would be counted and timed.
        let (seq, now) = (ReqSeq(i + 1), LocalNs(i * 1_000));
        rec.leaf("core.client_lease", || {
            lease.on_send(seq, now);
            lease.on_ack(seq, LocalNs(now.0 + 500))
        });
        let file = match workload {
            Workload::Lock => 64 + rng.below(4),
            _ => zipf.sample(&mut rng) as u64,
        };
        let ino = Ino(10 + file);
        rec.leaf("shard.owner_of", || map.owner_of(ino));
        rec.leaf("obs.counter_inc", || counter.inc());
        rec.leaf("obs.hist_observe", || histogram.observe(i));
        let writes = match workload {
            Workload::Small => continue,
            Workload::Batch => rng.below(100) < 30,
            Workload::Lock => rng.below(2) == 0,
        };
        let idx = rng.below(16) as u32;
        let block = BlockId(file * 16 + idx as u64);
        let tag = WriteTag {
            writer: me,
            epoch: Epoch(1),
            wseq: 2 * i + 1,
        };
        if writes {
            let data = vec![i as u8; BLOCK];
            rec.leaf("client.cache_write", || {
                cache.write(ino, idx, 0, &data, tag)
            });
            rec.leaf("storage.disk_write", || {
                disk.testing_write(me, block, data, tag)
                    .expect("unfenced write")
            });
            cache.mark_clean(ino, idx, tag);
        } else if rec.leaf("client.cache_get", || cache.get(ino, idx).is_none()) {
            let read = rec.leaf("storage.disk_read", || {
                disk.testing_read(me, block).expect("unfenced read")
            });
            rec.leaf("client.cache_fill", || {
                cache.fill(ino, idx, read.data, read.tag);
                cache.trim()
            });
        } else {
            cache.touch(ino, idx);
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: probe --workload <small|batch|lock> --seed <n> --out <trace.jsonl>");
    std::process::exit(2);
}

fn main() -> io::Result<()> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| usage())),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--out" => out = Some(value.into()),
            _ => usage(),
        }
    }
    let (Some(workload), Some(out)) = (workload, out) else {
        usage()
    };

    // Untraced first (it also warms the allocator), then traced: the
    // difference is what the spans cost.
    let untraced = replay(workload, seed, &mut Recorder::off());
    let mut rec = Recorder::new();
    let mut traced = replay(workload, seed, &mut rec);
    let overhead = traced.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0;

    // Replay cost of the durable log the traced replay wrote.
    let records = traced.server.wal.stats().appends;
    let log_bytes = traced.server.wal.log_len();
    let replay_entries = traced.server.sessions.replay_entries();
    let scan = Instant::now();
    let recovered = traced.server.wal.recover();
    let scan = scan.elapsed();
    assert_eq!(
        recovered.records.len() as u64,
        records,
        "the log scans clean"
    );

    reactor(&traced.requests, &mut rec)?;
    sim_layers(workload, seed, &mut rec);

    // Self-time medians per call; 0 for a call the workload never makes.
    let selfs = rec.self_times();
    let ns = |name: &str| -> f64 {
        selfs
            .get(name)
            .map(|v| median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>()))
            .unwrap_or(0.0)
    };
    // Busy time of the named leaf layers inside `server.request`, per
    // logical op: what `net.unattributed_cpu_us_per_op` subtracts.
    const LEAVES: [&str; 14] = [
        "proto.req_decode",
        "core.authority_standing",
        "server.session_admit",
        "server.session_record",
        "server.lock_request",
        "server.lock_release",
        "meta.getattr",
        "meta.lookup",
        "meta.setattr",
        "meta.create",
        "meta.unlink",
        "meta.wal_append",
        "meta.wal_fsync",
        "proto.resp_encode",
    ];
    let leaf_busy_ns: u64 = LEAVES
        .iter()
        .filter_map(|n| selfs.get(n))
        .flat_map(|v| v.iter())
        .sum();
    let per_dgram = |name: &str| ns(name) / WAKEUP as f64;

    let stdout = io::stdout();
    let mut o = stdout.lock();
    let mut put = |name: &str, v: f64| writeln!(o, "{name} {v}");
    put("proto.req_encode_ns", ns("proto.req_encode"))?;
    put("proto.req_decode_ns", ns("proto.req_decode"))?;
    put("proto.resp_encode_ns", ns("proto.resp_encode"))?;
    put("proto.resp_decode_ns", ns("proto.resp_decode"))?;
    put("proto.req_bytes", median(&traced.request_bytes))?;
    put("proto.resp_bytes", median(&traced.response_bytes))?;
    put("core.authority_standing_ns", ns("core.authority_standing"))?;
    put("core.client_lease_ns", ns("core.client_lease"))?;
    put("server.session_admit_ns", ns("server.session_admit"))?;
    put("server.session_replay_entries", replay_entries as f64)?;
    put("server.lock_request_ns", ns("server.lock_request"))?;
    put("server.lock_release_ns", ns("server.lock_release"))?;
    put("meta.getattr_ns", ns("meta.getattr"))?;
    put("meta.lookup_ns", ns("meta.lookup"))?;
    put("meta.setattr_ns", ns("meta.setattr"))?;
    put("meta.create_ns", ns("meta.create"))?;
    put("meta.unlink_ns", ns("meta.unlink"))?;
    put("meta.wal_append_ns", ns("meta.wal_append"))?;
    put("meta.wal_fsync_ns", ns("meta.wal_fsync"))?;
    let per_record = |x: f64| {
        if records == 0 {
            0.0
        } else {
            x / records as f64
        }
    };
    put("meta.wal_bytes_per_mutation", per_record(log_bytes as f64))?;
    put(
        "meta.wal_replay_ns_per_record",
        per_record(scan.as_nanos() as f64),
    )?;
    put("net.drain_ns_per_dgram", per_dgram("net.drain"))?;
    put(
        "net.decode_batch_ns_per_dgram",
        per_dgram("net.decode_batch"),
    )?;
    put("net.poll_wait_ns", ns("net.poll_wait"))?;
    put("net.timer_arm_pop_ns", ns("net.timer_arm_pop"))?;
    put("client.cache_get_ns", ns("client.cache_get"))?;
    put("client.cache_fill_ns", ns("client.cache_fill"))?;
    put("client.cache_write_ns", ns("client.cache_write"))?;
    put("storage.disk_read_ns", ns("storage.disk_read"))?;
    put("storage.disk_write_ns", ns("storage.disk_write"))?;
    put("shard.owner_of_ns", ns("shard.owner_of"))?;
    put("obs.counter_inc_ns", ns("obs.counter_inc"))?;
    put("obs.hist_observe_ns", ns("obs.hist_observe"))?;
    put("trace.overhead_frac", overhead)?;
    put("probe.spans", rec.spans().len() as f64)?;
    put(
        "probe.leaf_busy_us_per_op",
        leaf_busy_ns as f64 / 1e3 / TRACED_OPS as f64,
    )?;

    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = io::BufWriter::new(std::fs::File::create(&out)?);
    rec.write_jsonl(&mut file)?;
    file.flush()
}
