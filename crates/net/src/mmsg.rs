//! Batched datagram syscalls for the reactor: `recvmmsg` drains up to
//! [`VLEN`] datagrams per kernel crossing and `sendmmsg` flushes as many
//! replies, in the same raw-`extern "C"` style as [`crate::poll`] — the
//! libc `std` already links, no new dependency. The struct layouts below
//! are 64-bit Linux's, the only target the crate builds for.
//!
//! Nothing here knows about fault injection: `FaultySocket` is the only
//! caller, and it filters each frame on its way in or out, so the batched
//! path is the one every configuration runs.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6, UdpSocket};
use std::os::fd::AsRawFd;

use tank_proto::MAX_DATAGRAM;

use crate::reactor::WakeupBatch;

/// Datagrams per `recvmmsg`/`sendmmsg` call. A deeper backlog (or
/// outbox) simply takes another call.
pub(crate) const VLEN: usize = 32;

mod sys {
    use std::mem::size_of;

    /// `AF_INET`.
    pub const AF_INET: u16 = 2;
    /// `AF_INET6`.
    pub const AF_INET6: u16 = 10;
    /// `sizeof(struct sockaddr_in)`.
    pub const SOCKADDR_IN_LEN: u32 = 16;
    /// `sizeof(struct sockaddr_in6)`.
    pub const SOCKADDR_IN6_LEN: u32 = 28;

    /// `struct sockaddr_storage`: room for any address family, so IPv6
    /// peers work. Fields are read and written by byte offset (family at
    /// 0, port at 2, then the family's own layout).
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    pub struct SockaddrStorage(pub [u8; 128]);

    /// `struct iovec`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct IoVec {
        pub base: *mut u8,
        pub len: usize,
    }

    /// `struct msghdr` as the 64-bit kernel lays it out.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MsgHdr {
        pub name: *mut SockaddrStorage,
        pub namelen: u32,
        pub iov: *mut IoVec,
        pub iovlen: usize,
        pub control: *mut u8,
        pub controllen: usize,
        pub flags: i32,
    }

    /// `struct mmsghdr`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MMsgHdr {
        pub hdr: MsgHdr,
        /// Bytes received into (or sent from) this slot.
        pub len: u32,
    }

    const _: () = assert!(size_of::<SockaddrStorage>() == 128);
    const _: () = assert!(size_of::<IoVec>() == 16);
    const _: () = assert!(size_of::<MsgHdr>() == 56);
    const _: () = assert!(size_of::<MMsgHdr>() == 64);

    extern "C" {
        pub fn recvmmsg(
            fd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut u8,
        ) -> i32;
        pub fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    }
}

const NO_ADDR: sys::SockaddrStorage = sys::SockaddrStorage([0; 128]);
const NO_IOV: sys::IoVec = sys::IoVec {
    base: std::ptr::null_mut(),
    len: 0,
};
const NO_HDR: sys::MMsgHdr = sys::MMsgHdr {
    hdr: sys::MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: std::ptr::null_mut(),
        iovlen: 0,
        control: std::ptr::null_mut(),
        controllen: 0,
        flags: 0,
    },
    len: 0,
};

/// The peer the kernel wrote into `sa`, if it is an address family we
/// speak.
fn peer_of(sa: &sys::SockaddrStorage, len: u32) -> Option<SocketAddr> {
    let b = &sa.0;
    let family = u16::from_ne_bytes([b[0], b[1]]);
    let port = u16::from_be_bytes([b[2], b[3]]);
    if family == sys::AF_INET && len >= sys::SOCKADDR_IN_LEN {
        let ip = Ipv4Addr::new(b[4], b[5], b[6], b[7]);
        Some(SocketAddr::V4(SocketAddrV4::new(ip, port)))
    } else if family == sys::AF_INET6 && len >= sys::SOCKADDR_IN6_LEN {
        let flowinfo = u32::from_ne_bytes([b[4], b[5], b[6], b[7]]);
        let mut ip = [0u8; 16];
        ip.copy_from_slice(&b[8..24]);
        let scope = u32::from_ne_bytes([b[24], b[25], b[26], b[27]]);
        Some(SocketAddr::V6(SocketAddrV6::new(
            Ipv6Addr::from(ip),
            port,
            flowinfo,
            scope,
        )))
    } else {
        None
    }
}

/// `addr` as a kernel socket address plus its length.
fn sockaddr_of(addr: &SocketAddr) -> (sys::SockaddrStorage, u32) {
    let mut sa = NO_ADDR;
    let b = &mut sa.0;
    b[2..4].copy_from_slice(&addr.port().to_be_bytes());
    match addr {
        SocketAddr::V4(a) => {
            b[0..2].copy_from_slice(&sys::AF_INET.to_ne_bytes());
            b[4..8].copy_from_slice(&a.ip().octets());
            (sa, sys::SOCKADDR_IN_LEN)
        }
        SocketAddr::V6(a) => {
            b[0..2].copy_from_slice(&sys::AF_INET6.to_ne_bytes());
            b[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
            b[8..24].copy_from_slice(&a.ip().octets());
            b[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            (sa, sys::SOCKADDR_IN6_LEN)
        }
    }
}

/// Receive ready datagrams from the nonblocking `sock` until its backlog
/// is empty or `max` have been handed to `sink`, [`VLEN`] per syscall.
/// `scratch` is cut into [`MAX_DATAGRAM`]-byte slots — as large as a UDP
/// payload gets, so nothing truncates. A `recvmmsg` that fills fewer
/// slots than offered has seen the end of the backlog, so a wakeup
/// usually costs one receive syscall, not one per datagram plus the
/// `WouldBlock`. Returns the number of datagrams delivered to `sink`;
/// datagrams from an address family we do not speak are discarded.
pub(crate) fn recv_ready(
    sock: &UdpSocket,
    scratch: &mut [u8],
    max: usize,
    mut sink: impl FnMut(&[u8], SocketAddr),
) -> usize {
    let slots = (scratch.len() / MAX_DATAGRAM).min(VLEN);
    let mut addrs = [NO_ADDR; VLEN];
    let mut iovs = [NO_IOV; VLEN];
    let mut hdrs = [NO_HDR; VLEN];
    // One raw pointer per array, taken once; every later access goes
    // through them so no fresh borrow ever invalidates what the headers
    // point at.
    let (base, addrs, iovs, hdrs) = (
        scratch.as_mut_ptr(),
        addrs.as_mut_ptr(),
        iovs.as_mut_ptr(),
        hdrs.as_mut_ptr(),
    );
    for i in 0..slots {
        // SAFETY: `i < slots <= VLEN` indexes all three arrays in bounds,
        // and slot `i` lies inside `scratch` because
        // `slots * MAX_DATAGRAM <= scratch.len()`.
        unsafe {
            *iovs.add(i) = sys::IoVec {
                base: base.add(i * MAX_DATAGRAM),
                len: MAX_DATAGRAM,
            };
            (*hdrs.add(i)).hdr.name = addrs.add(i);
            (*hdrs.add(i)).hdr.iov = iovs.add(i);
            (*hdrs.add(i)).hdr.iovlen = 1;
        }
    }
    let mut got = 0;
    while got < max {
        let want = slots.min(max - got);
        for i in 0..want {
            // SAFETY: `i < want <= slots`, in bounds as above. The kernel
            // overwrites `namelen` with the peer's length on every call.
            unsafe {
                (*hdrs.add(i)).hdr.namelen = std::mem::size_of::<sys::SockaddrStorage>() as u32
            };
        }
        // SAFETY: the first `want` headers are initialised and each points
        // at its own live address slot, iovec and `MAX_DATAGRAM` bytes of
        // `scratch`, all of which outlive the call; the fd is `sock`'s.
        let rc =
            unsafe { sys::recvmmsg(sock.as_raw_fd(), hdrs, want as u32, 0, std::ptr::null_mut()) };
        // WouldBlock = backlog empty; any transient error ends the drain
        // the same way and the next wakeup retries.
        if rc <= 0 {
            break;
        }
        let filled = rc as usize;
        for i in 0..filled.min(want) {
            // SAFETY: the kernel filled headers `0..rc`: `len` bytes of
            // slot `i` (clamped to the slot) and `namelen` bytes of its
            // address slot are initialised, and nothing else aliases
            // them while `sink` runs.
            let (bytes, peer) = unsafe {
                let h = &*hdrs.add(i);
                let len = (h.len as usize).min(MAX_DATAGRAM);
                (
                    std::slice::from_raw_parts(base.add(i * MAX_DATAGRAM), len),
                    peer_of(&*addrs.add(i), h.hdr.namelen),
                )
            };
            if let Some(peer) = peer {
                sink(bytes, peer);
                got += 1;
            }
        }
        if filled < want {
            break;
        }
    }
    got
}

/// Send every datagram of `batch` to its peer on the nonblocking `sock`,
/// [`VLEN`] per syscall; each iovec points into the batch's one arena. A
/// datagram the kernel refuses (full send buffer, unreachable family, …)
/// is dropped and the rest still go — the peer's loss, exactly as with a
/// discarded `send_to` result.
pub(crate) fn send_all(sock: &UdpSocket, batch: &WakeupBatch) {
    let mut addrs = [NO_ADDR; VLEN];
    let mut iovs = [NO_IOV; VLEN];
    let mut hdrs = [NO_HDR; VLEN];
    // As in `recv_ready`: one raw pointer per array, used for every access.
    let (addrs, iovs, hdrs) = (addrs.as_mut_ptr(), iovs.as_mut_ptr(), hdrs.as_mut_ptr());
    for chunk in batch.frames.chunks(VLEN) {
        for (i, (peer, range)) in chunk.iter().enumerate() {
            let bytes = &batch.arena[range.clone()];
            let (sa, salen) = sockaddr_of(peer);
            // SAFETY: `i < chunk.len() <= VLEN` is in bounds of all three
            // arrays.
            unsafe {
                *addrs.add(i) = sa;
                *iovs.add(i) = sys::IoVec {
                    // The kernel only reads through a send iovec.
                    base: bytes.as_ptr().cast_mut(),
                    len: bytes.len(),
                };
                *hdrs.add(i) = NO_HDR;
                (*hdrs.add(i)).hdr.name = addrs.add(i);
                (*hdrs.add(i)).hdr.namelen = salen;
                (*hdrs.add(i)).hdr.iov = iovs.add(i);
                (*hdrs.add(i)).hdr.iovlen = 1;
            }
        }
        let mut next = 0;
        while next < chunk.len() {
            // SAFETY: headers `next..chunk.len()` are initialised; each
            // points at its own address slot, iovec and a slice of the
            // batch's arena, all alive across the call; the fd is `sock`'s.
            let rc = unsafe {
                sys::sendmmsg(
                    sock.as_raw_fd(),
                    hdrs.add(next),
                    (chunk.len() - next) as u32,
                    0,
                )
            };
            // `rc` datagrams went out. Fewer than asked means datagram
            // `next + rc` failed: the retry from there reports it as -1,
            // which drops that one datagram and moves on.
            next += if rc > 0 { rc as usize } else { 1 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_addresses_survive_the_kernel_layout_round_trip() {
        let v4: SocketAddr = "127.0.0.1:4800".parse().unwrap();
        let (sa, len) = sockaddr_of(&v4);
        assert_eq!(len, 16);
        assert_eq!(peer_of(&sa, len), Some(v4));
        let v6 = SocketAddr::V6(SocketAddrV6::new(Ipv6Addr::LOCALHOST, 4801, 7, 3));
        let (sa, len) = sockaddr_of(&v6);
        assert_eq!(len, 28);
        assert_eq!(peer_of(&sa, len), Some(v6));
        // An unknown family, or a length too short for the family, is
        // not an address.
        assert_eq!(peer_of(&NO_ADDR, 128), None);
        assert_eq!(peer_of(&sa, 16), None);
    }
}
