//! Readiness polling for the event-driven net layer.
//!
//! [`Poller`] multiplexes any number of nonblocking UDP sockets behind
//! one blocking wait. On Linux it is a minimal raw-syscall shim over
//! `epoll` — three `extern "C"` declarations against the libc that `std`
//! already links, no new dependency. Everywhere else (and on demand, for
//! tests) it degrades to an adaptive sleep: the caller try-recvs every
//! registered socket per wakeup, and the sleep between wakeups grows
//! while the sockets stay idle and collapses to zero the moment traffic
//! appears. Both backends present the same contract: `wait` returns the
//! tokens that *may* be readable, never blocking past the caller's
//! timeout, and the caller drains with nonblocking reads until
//! `WouldBlock` — so a spurious token costs one empty syscall, not a
//! stall.

use std::io;
use std::time::Duration;

#[cfg(target_os = "linux")]
use std::os::fd::{AsRawFd, RawFd};

/// Maximum events harvested per `epoll_wait` call. More ready sockets
/// than this simply surface on the next wakeup.
const MAX_EVENTS: usize = 256;

/// Linux raw-syscall shim. `std` links libc on every Linux target, so
/// declaring the four symbols we need is enough — no crate required.
#[cfg(target_os = "linux")]
mod sys {
    /// `EPOLLIN`.
    pub const EPOLLIN: u32 = 0x1;
    /// `EPOLL_CTL_ADD`.
    pub const EPOLL_CTL_ADD: i32 = 1;
    /// `EPOLL_CLOEXEC`.
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// `struct epoll_event`. The kernel ABI packs it on x86_64 only.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(
            epfd: i32,
            events: *mut EpollEvent,
            maxevents: i32,
            timeout_ms: i32,
        ) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

#[cfg(target_os = "linux")]
struct Epoll {
    epfd: i32,
    events: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

/// Adaptive-sleep fallback state: the idle streak drives the next sleep.
struct Sleeper {
    /// Registered tokens, all reported "maybe ready" each wakeup.
    tokens: Vec<u64>,
    /// Consecutive wakeups that drained nothing.
    idle_streak: u32,
}

impl Sleeper {
    /// Sleep span for the current idle streak: 0 while traffic flows
    /// (pure busy-poll), escalating 50 µs → 100 µs → … once idle.
    fn backoff(&self) -> Duration {
        if self.idle_streak == 0 {
            return Duration::ZERO;
        }
        let us = 50u64.saturating_mul(1 << self.idle_streak.min(6).saturating_sub(1));
        Duration::from_micros(us)
    }

    /// The nap before the next wakeup: the backoff, never past the
    /// caller's timeout.
    fn nap(&self, timeout: Duration) -> Duration {
        self.backoff().min(timeout)
    }
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    Sleep(Sleeper),
}

/// A readiness multiplexer over nonblocking sockets.
pub struct Poller {
    backend: Backend,
    ready: Vec<u64>,
}

impl Poller {
    /// The platform's best backend: `epoll` on Linux, the adaptive
    /// sleeper elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                backend: Backend::Epoll(Epoll {
                    epfd,
                    events: vec![sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
                }),
                ready: Vec::with_capacity(MAX_EVENTS),
            })
        }
        #[cfg(not(target_os = "linux"))]
        Ok(Self::sleeper())
    }

    /// The portable adaptive-sleep backend, constructible on every
    /// platform so the fallback path stays tested where `epoll` is the
    /// default.
    pub fn sleeper() -> Poller {
        Poller {
            backend: Backend::Sleep(Sleeper {
                tokens: Vec::new(),
                idle_streak: 0,
            }),
            ready: Vec::with_capacity(MAX_EVENTS),
        }
    }

    /// Register a socket under `token`. The socket must outlive the
    /// poller's use of it and should already be nonblocking.
    #[cfg(target_os = "linux")]
    pub fn register(&mut self, sock: &impl AsRawFd, token: u64) -> io::Result<()> {
        self.register_fd(sock.as_raw_fd(), token)
    }

    #[cfg(target_os = "linux")]
    fn register_fd(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        match &mut self.backend {
            Backend::Epoll(ep) => {
                let mut ev = sys::EpollEvent {
                    events: sys::EPOLLIN,
                    data: token,
                };
                let rc = unsafe { sys::epoll_ctl(ep.epfd, sys::EPOLL_CTL_ADD, fd, &mut ev) };
                if rc < 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            }
            Backend::Sleep(s) => {
                s.tokens.push(token);
                Ok(())
            }
        }
    }

    /// Register (portable variant: the sleeper needs only the token).
    #[cfg(not(target_os = "linux"))]
    pub fn register<T>(&mut self, _sock: &T, token: u64) -> io::Result<()> {
        match &mut self.backend {
            Backend::Sleep(s) => {
                s.tokens.push(token);
                Ok(())
            }
        }
    }

    /// Register a token on the sleeper backend regardless of platform
    /// (tests exercising the fallback on Linux).
    pub fn register_token(&mut self, token: u64) {
        if let Backend::Sleep(s) = &mut self.backend {
            s.tokens.push(token);
        }
    }

    /// Block until at least one registered socket may be readable or
    /// `timeout` elapses, then return the candidate tokens (empty on
    /// timeout). Epoll reports exactly the ready sockets; the sleeper
    /// reports everything registered and relies on the caller's
    /// nonblocking drain.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<&[u64]> {
        self.ready.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => {
                // `Duration::ZERO` is an explicit nonblocking check;
                // anything else rounds *up*, so a sub-millisecond
                // timeout never degenerates into a busy-spin.
                let ms = if timeout.is_zero() {
                    0
                } else {
                    timeout.as_millis().clamp(1, i32::MAX as u128) as i32
                };
                let n = loop {
                    let rc = unsafe {
                        sys::epoll_wait(ep.epfd, ep.events.as_mut_ptr(), MAX_EVENTS as i32, ms)
                    };
                    if rc >= 0 {
                        break rc as usize;
                    }
                    let err = io::Error::last_os_error();
                    if err.kind() != io::ErrorKind::Interrupted {
                        return Err(err);
                    }
                };
                for ev in &ep.events[..n] {
                    self.ready.push(ev.data);
                }
            }
            Backend::Sleep(s) => {
                let nap = s.nap(timeout);
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
                self.ready.extend_from_slice(&s.tokens);
            }
        }
        Ok(&self.ready)
    }

    /// Tell the poller whether the last drain made progress. Drives the
    /// sleeper's backoff; a no-op for epoll, whose readiness is exact.
    pub fn note_progress(&mut self, drained_any: bool) {
        if let Backend::Sleep(s) = &mut self.backend {
            if drained_any {
                s.idle_streak = 0;
            } else {
                s.idle_streak = s.idle_streak.saturating_add(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;

    #[test]
    fn epoll_reports_a_ready_socket_and_times_out_when_idle() {
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        sock.set_nonblocking(true).expect("nonblocking");
        let mut poller = Poller::new().expect("poller");
        poller.register(&sock, 42).expect("register");

        // Idle: times out empty.
        let t0 = std::time::Instant::now();
        let ready = poller.wait(Duration::from_millis(20)).expect("wait");
        assert!(ready.is_empty(), "nothing readable yet");
        assert!(t0.elapsed() >= Duration::from_millis(15), "waited it out");

        // A datagram arrives: the token comes back promptly.
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        tx.send_to(b"ping", sock.local_addr().expect("addr"))
            .expect("send");
        let ready = poller.wait(Duration::from_millis(500)).expect("wait");
        assert_eq!(ready, &[42]);
    }

    #[test]
    fn sleeper_reports_registered_tokens_and_backs_off_when_idle() {
        let mut poller = Poller::sleeper();
        poller.register_token(7);
        let timeout = Duration::from_millis(1);
        let ready = poller.wait(timeout).expect("wait");
        assert_eq!(ready, &[7], "sleeper always offers the tokens");
        // The computed nap, not the wall clock: a loaded box stretches any
        // sleep, but never the span the sleeper asked for.
        let nap = |p: &Poller| match &p.backend {
            Backend::Sleep(s) => s.nap(timeout),
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => unreachable!("built with Poller::sleeper"),
        };
        assert_eq!(nap(&poller), Duration::ZERO, "busy-polls until idle");
        // Idle streaks grow the nap but never past the caller's timeout.
        let mut naps = Vec::new();
        for _ in 0..10 {
            poller.note_progress(false);
            naps.push(nap(&poller));
            assert_eq!(poller.wait(timeout).expect("wait"), &[7]);
        }
        assert_eq!(naps[0], Duration::from_micros(50));
        assert!(naps.windows(2).all(|w| w[0] <= w[1]), "grows: {naps:?}");
        assert_eq!(naps[9], timeout, "capped at the timeout: {naps:?}");
        // Traffic collapses it back to a busy-poll.
        poller.note_progress(true);
        assert_eq!(nap(&poller), Duration::ZERO);
    }
}
