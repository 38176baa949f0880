//! Readiness polling for the event-driven net layer.
//!
//! [`Poller`] multiplexes any number of nonblocking UDP sockets behind
//! one blocking wait. It is an `epoll` instance driven through a minimal
//! raw-syscall shim — four `extern "C"` declarations against the libc
//! that `std` already links, no new dependency. `wait` returns the
//! tokens of the sockets that are readable, or none once the caller's
//! timeout has passed, and the caller drains with nonblocking reads until
//! `WouldBlock`.
//!
//! `epoll_wait` counts its timeout in whole milliseconds, and this is the
//! one place that knows it: every wait lasts at least 1 ms, so no
//! caller's short (or zero) timeout turns its loop into a busy-spin.

use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Maximum events harvested per `epoll_wait` call. More ready sockets
/// than this simply surface on the next wakeup.
const MAX_EVENTS: usize = 256;

/// Raw-syscall shim. `std` links libc on every Linux target, so
/// declaring the four symbols we need is enough — no crate required.
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

/// A readiness multiplexer over nonblocking sockets: one `epoll` instance.
pub struct Poller {
    epfd: i32,
    events: Vec<sys::EpollEvent>,
    ready: Vec<u64>,
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

impl Poller {
    /// A new `epoll` instance with nothing registered.
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            events: vec![sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
            ready: Vec::with_capacity(MAX_EVENTS),
        })
    }

    /// Register a socket under `token`. The socket must outlive the
    /// poller's use of it and should already be nonblocking.
    pub fn register(&mut self, sock: &impl AsRawFd, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: sys::EPOLLIN,
            data: token,
        };
        let rc =
            unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, sock.as_raw_fd(), &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Block until at least one registered socket is readable or
    /// `timeout` elapses — in whole milliseconds, and never less than
    /// one — then return the ready tokens (empty on timeout).
    pub fn wait(&mut self, timeout: Duration) -> io::Result<&[u64]> {
        self.ready.clear();
        let ms = timeout.as_millis().clamp(1, i32::MAX as u128) as i32;
        let n = loop {
            let rc = unsafe {
                sys::epoll_wait(self.epfd, self.events.as_mut_ptr(), MAX_EVENTS as i32, ms)
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        self.ready.extend(self.events[..n].iter().map(|ev| ev.data));
        Ok(&self.ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::time::Instant;

    fn registered() -> (UdpSocket, Poller) {
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        sock.set_nonblocking(true).expect("nonblocking");
        let mut poller = Poller::new().expect("poller");
        poller.register(&sock, 42).expect("register");
        (sock, poller)
    }

    #[test]
    fn epoll_reports_a_ready_socket_and_times_out_when_idle() {
        let (sock, mut poller) = registered();

        // Idle: times out empty.
        let t0 = Instant::now();
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
    fn an_idle_wait_never_returns_before_a_millisecond() {
        // The no-busy-spin contract: a zero or sub-millisecond timeout
        // still sleeps epoll's shortest wait. Lower bounds only, so a
        // loaded box cannot fail it.
        let (_sock, mut poller) = registered();
        for timeout in [Duration::ZERO, Duration::from_micros(100)] {
            let t0 = Instant::now();
            let ready = poller.wait(timeout).expect("wait");
            assert!(ready.is_empty(), "nothing readable");
            let waited = t0.elapsed();
            assert!(
                waited >= Duration::from_micros(900),
                "{timeout:?} returned after {waited:?}"
            );
        }
    }
}
