//! The host on its own, driving a toy actor that echoes every control
//! datagram to its sender and keeps a log of what it heard, which timers
//! fired and what its clock read: the loop's contract, apart from any
//! protocol.

use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use tank_net::host::{Answerer, HostObs};
use tank_net::{mono_now, FaultConfig, FaultySocket, Host};
use tank_obs::Registry;
use tank_proto::message::RequestBody;
use tank_proto::{
    CtlMsg, Event, NetMsg, NodeId, ReqSeq, Request, SessionId, WireDecode, WireEncode, MAX_DATAGRAM,
};
use tank_sim::{Actor, Ctx, LocalNs, NetId, TokenMap};

/// A numbered datagram.
fn msg(n: u64) -> NetMsg {
    NetMsg::Ctl(CtlMsg::Request(Request {
        src: NodeId(0),
        session: SessionId(0),
        seq: ReqSeq(n),
        body: RequestBody::KeepAlive,
    }))
}

fn number(msg: &NetMsg) -> u64 {
    match msg {
        NetMsg::Ctl(CtlMsg::Request(r)) => r.seq.0,
        other => panic!("not a numbered datagram: {other:?}"),
    }
}

#[derive(Default)]
struct Toy {
    /// Who sent what, on which network, and the activation's clock.
    heard: Vec<(NodeId, NetId, NetMsg, LocalNs)>,
    fired: Vec<u64>,
    /// A handle on the one peer's socket, and how many echoes it held
    /// when each numbered datagram was handed over.
    peer: Option<UdpSocket>,
    echoes_before: Vec<(u64, usize)>,
}

impl Actor<NetMsg, Event> for Toy {
    fn on_message(
        &mut self,
        from: NodeId,
        net: NetId,
        msg: NetMsg,
        ctx: &mut Ctx<'_, NetMsg, Event>,
    ) {
        if let Some(peer) = &self.peer {
            let mut buf = [0u8; MAX_DATAGRAM];
            let mut n = 0;
            while peer.recv(&mut buf).is_ok() {
                n += 1;
            }
            self.echoes_before.push((number(&msg), n));
        }
        self.heard.push((from, net, msg.clone(), ctx.now()));
        if net == NetId::CONTROL {
            ctx.send(NetId::CONTROL, from, msg);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, NetMsg, Event>) {
        self.fired.push(token);
        ctx.observe(Event::Resumed {
            shard: token as u16,
        });
    }
}

fn bind() -> (FaultySocket, SocketAddr) {
    let sock = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).unwrap();
    let addr = sock.local_addr().unwrap();
    (sock, addr)
}

fn spawn(toy: Toy, book: Vec<SocketAddr>, answerer: Option<Answerer>) -> (Host<Toy>, SocketAddr) {
    let (sock, addr) = bind();
    let host = Host::spawn(toy, sock, book, answerer, 0, HostObs::default()).unwrap();
    (host, addr)
}

fn peer(host: SocketAddr) -> UdpSocket {
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.connect(host).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    sock
}

fn send(sock: &UdpSocket, n: u64) {
    sock.send(&msg(n).encoded()).unwrap();
}

fn echo(sock: &UdpSocket) -> u64 {
    let mut buf = [0u8; MAX_DATAGRAM];
    let n = sock.recv(&mut buf).expect("echoed");
    number(&NetMsg::decode(&mut bytes::Bytes::copy_from_slice(&buf[..n])).unwrap())
}

#[test]
fn every_armed_timer_fires_once_in_deadline_order() {
    let (host, _) = spawn(Toy::default(), Vec::new(), None);
    let ms = LocalNs::from_millis;
    host.activate(|_, ctx| {
        ctx.set_timer(ms(30), 3);
        ctx.set_timer(ms(10), 1);
        ctx.set_timer(ms(20), 2);
    });
    let done = host.wait(Duration::from_secs(5), |toy, _| {
        toy.fired.contains(&3).then_some(())
    });
    assert_eq!(done, Some(()), "the last timer fired and woke the waiter");
    assert_eq!(host.inspect(|toy, _| toy.fired.clone()), vec![1, 2, 3]);
    let seen = host.inspect(|_, events| events.iter().copied().collect::<Vec<_>>());
    let shards: Vec<u16> = seen
        .iter()
        .map(|ev| match ev {
            Event::Resumed { shard } => *shard,
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(shards, vec![1, 2, 3], "observations are kept in order");
}

#[test]
fn a_timer_whose_token_was_dropped_does_nothing() {
    /// Acts on a firing only while it still holds the timer's token.
    #[derive(Default)]
    struct Forgetter {
        tokens: TokenMap<u64>,
        fired: Vec<u64>,
    }
    impl Actor<NetMsg, Event> for Forgetter {
        fn on_message(&mut self, _: NodeId, _: NetId, _: NetMsg, _: &mut Ctx<'_, NetMsg, Event>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, NetMsg, Event>) {
            if let Some(n) = self.tokens.take(token) {
                self.fired.push(n);
                ctx.observe(Event::Resumed { shard: n as u16 });
            }
        }
    }
    let (sock, _) = bind();
    let host = Host::spawn(
        Forgetter::default(),
        sock,
        Vec::new(),
        None,
        0,
        HostObs::default(),
    )
    .unwrap();
    let ms = LocalNs::from_millis;
    host.activate(|f, ctx| {
        for (n, after) in [(1, 10), (2, 20), (3, 30)] {
            let token = f.tokens.insert(n);
            ctx.set_timer(ms(after), token);
            if n < 3 {
                f.tokens.take(token);
            }
        }
    });
    let done = host.wait(Duration::from_secs(5), |f, _| {
        f.fired.contains(&3).then_some(())
    });
    assert_eq!(done, Some(()), "the kept timer fired");
    assert_eq!(host.inspect(|f, _| f.fired.clone()), vec![3]);
    assert!(host.inspect(|f, _| f.tokens.is_empty()));
}

#[test]
fn an_idle_host_records_no_wakeups() {
    let registry = std::sync::Arc::new(Registry::new());
    let obs = HostObs {
        wakeups: Some(registry.counter_def(&tank_obs::names::NET_REACTOR_WAKEUPS)),
        datagrams_per_wakeup: Some(
            registry.histogram_def(&tank_obs::names::NET_REACTOR_DATAGRAMS_PER_WAKEUP),
        ),
        ..HostObs::default()
    };
    let (sock, addr) = bind();
    let host = Host::spawn(Toy::default(), sock, Vec::new(), None, 0, obs).unwrap();
    // About twenty idle poll timeouts: none of them found work.
    std::thread::sleep(Duration::from_millis(500));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("net.reactor.wakeups"), Some(0));
    // One datagram is one wakeup that drained one datagram.
    let peer = peer(addr);
    send(&peer, 1);
    assert_eq!(echo(&peer), 1);
    host.activate(|_, ctx| ctx.set_timer(LocalNs::from_millis(1), 7));
    host.wait(Duration::from_secs(5), |toy, _| {
        toy.fired.contains(&7).then_some(())
    })
    .expect("the timer fired");
    std::thread::sleep(Duration::from_millis(100));
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("net.reactor.wakeups"),
        Some(2),
        "one drain, one timer"
    );
}

#[test]
fn a_wakeup_flushes_early_once_32_replies_are_queued() {
    let (sock, addr) = bind();
    let peer = peer(addr);
    // Forty datagrams queued before the loop starts: one drain, one batch.
    for n in 1..=40 {
        send(&peer, n);
    }
    std::thread::sleep(Duration::from_millis(50));
    let watcher = peer.try_clone().unwrap();
    watcher.set_nonblocking(true).unwrap();
    let toy = Toy {
        peer: Some(watcher),
        ..Toy::default()
    };
    let host = Host::spawn(toy, sock, Vec::new(), None, 0, HostObs::default()).unwrap();
    // The watcher shares the peer's socket, and made it nonblocking: wait
    // for the batch to be handed over (and flushed) before reading.
    while host.inspect(|toy, _| toy.heard.len()) < 40 {
        std::thread::sleep(Duration::from_millis(5));
    }
    peer.set_nonblocking(false).unwrap();
    let rest: Vec<u64> = (0..8).map(|_| echo(&peer)).collect();
    assert_eq!(
        rest,
        (33..=40).collect::<Vec<_>>(),
        "the tail left at the end"
    );
    let before = host.inspect(|toy, _| toy.echoes_before.clone());
    let flushed: Vec<(u64, usize)> = before.into_iter().filter(|&(_, n)| n > 0).collect();
    // The 32nd reply is queued while datagram 32 is handled: the next one
    // finds all 32 on the wire, and none had left before.
    assert_eq!(flushed, vec![(33, 32)]);
}

#[test]
fn senders_are_numbered_on_first_contact_after_the_static_book() {
    let (sock, addr) = bind();
    let (a, b, c) = (peer(addr), peer(addr), peer(addr));
    let book = vec![a.local_addr().unwrap()];
    let registry = std::sync::Arc::new(Registry::new());
    let obs = HostObs {
        decode_errors: Some(registry.counter_def(&tank_obs::names::NET_CLIENT_DECODE_ERRORS)),
        ..HostObs::default()
    };
    let host = Host::spawn(Toy::default(), sock, book, None, 0, obs).unwrap();
    // Noise is counted and skipped: it numbers nobody.
    c.send(b"\xff noise").unwrap();
    for (sock, n) in [(&b, 1), (&a, 2), (&c, 3), (&b, 4)] {
        send(sock, n);
        assert_eq!(echo(sock), n, "echoed to its own sender");
    }
    let from: Vec<(NodeId, u64)> = host.inspect(|toy, _| {
        toy.heard
            .iter()
            .map(|(id, _, m, _)| (*id, number(m)))
            .collect()
    });
    let ids = [(2, 1), (1, 2), (3, 3), (2, 4)].map(|(id, n)| (NodeId(id), n));
    assert_eq!(from, ids);
    assert_eq!(
        registry.snapshot().counter("net.client.decode_errors"),
        Some(1)
    );
}

#[test]
fn the_local_answerer_replies_within_the_sending_activation() {
    let bounce: Answerer = Box::new(|m| Some(msg(number(&m) + 100)));
    let (host, _) = spawn(Toy::default(), Vec::new(), Some(bounce));
    host.activate(|_, ctx| ctx.send(NetId::SAN, NodeId(9), msg(7)));
    let heard = host.inspect(|toy, _| toy.heard.clone());
    assert_eq!(heard.len(), 1, "{heard:?}");
    assert_eq!(
        (heard[0].0, heard[0].1, number(&heard[0].2)),
        (NodeId(9), NetId::SAN, 107)
    );
    // With no answerer, such a send goes nowhere.
    let (host, _) = spawn(Toy::default(), Vec::new(), None);
    host.activate(|_, ctx| ctx.send(NetId::SAN, NodeId(9), msg(7)));
    assert!(host.inspect(|toy, _| toy.heard.is_empty()));
}

#[test]
fn each_activation_reads_the_clock_after_the_drain_that_brought_its_datagram() {
    let (host, addr) = spawn(Toy::default(), Vec::new(), None);
    let peer = peer(addr);
    let mut sent_at = Vec::new();
    for n in 1..=5 {
        // Let the loop go back to waiting, then send.
        std::thread::sleep(Duration::from_millis(10));
        sent_at.push(mono_now());
        send(&peer, n);
        assert_eq!(echo(&peer), n);
    }
    let stamps: Vec<LocalNs> = host.inspect(|toy, _| toy.heard.iter().map(|h| h.3).collect());
    for (sent, stamp) in sent_at.iter().zip(&stamps) {
        assert!(
            stamp >= sent,
            "stamped {stamp:?}, before its send at {sent:?}"
        );
    }
}
