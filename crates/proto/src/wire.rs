//! The one byte format: every control-network, SAN and replication
//! message, and (through [`wire!`](crate::wire!)) every write-ahead-log
//! record, is written and read here.
//!
//! The simulator passes messages as in-memory values; the real-network
//! binding (`tank-net`) sends these bytes, the metadata log stores them,
//! and the simulator counts them. The format is tag/length over a few
//! primitives: fixed-width little-endian integers, a `u8` tag per enum
//! variant, `u16`-prefixed strings, `u32`-prefixed byte strings and
//! vectors, and a flag byte — 0 or 1, nothing else — for `bool`,
//! `Option` and `Result`. No self-description, no schema evolution: both
//! ends are this crate.
//!
//! Each type is declared once, in a [`wire!`](crate::wire!) table that
//! lists its variants' tags and fields in wire order; encoding, decoding
//! and the exact encoded length all come from that table. An encoding
//! goes into a [`Sink`]: a `BytesMut` (the datagram path), a `Vec<u8>`
//! (the log) or a byte counter ([`WireEncode::encoded_len`], which the
//! simulator's byte counts read). Decoding reads from a bounds-checked
//! [`Reader`] and fails with a [`WireError`], never a panic: the bytes
//! came off a socket, or off a device after a crash.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::ids::{BlockId, Epoch, Incarnation, Ino, NodeId, ReqSeq, SessionId, WriteTag};
use crate::lock::LockMode;
use crate::message::{
    CtlMsg, FileAttr, FsError, NackReason, PushBody, ReplyBody, Request, RequestBody, Response,
    ResponseOutcome, RouteError, ServerPush, MAX_BATCH_ELEMS,
};
use crate::repl::ReplMsg;
use crate::san::{BlockRange, FenceOp, SanError, SanMsg, SanReadOk};
use crate::NetMsg;

/// Upper bound on one encoded [`NetMsg`] datagram, and therefore the
/// receive-buffer size every transport endpoint needs: the codec's
/// length prefixes are sanity-bounded well below this, and UDP itself
/// cannot carry more. The net layer's drain path sizes its per-datagram
/// scratch with it.
pub const MAX_DATAGRAM: usize = 64 * 1024;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes mid-message.
    Truncated,
    /// Unknown enum discriminant, or a flag byte other than 0 or 1.
    BadTag {
        /// Which enum was being decoded (`"flag"` for a flag byte).
        what: &'static str,
        /// The offending discriminant.
        tag: u8,
    },
    /// String payload was not UTF-8.
    BadUtf8,
    /// Length prefix exceeded sanity bounds.
    TooLong,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag} for {what}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            WireError::TooLong => write!(f, "length prefix exceeds bound"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum accepted byte-string length (defensive bound for the UDP path).
const MAX_BYTES: usize = 1 << 22;
/// Maximum accepted vector element count.
const MAX_ELEMS: usize = 1 << 20;

// ------------------------------------------------------------ sinks

/// Where an encoding goes. Integers go through their own methods, so a
/// sink can write each at its fixed width.
pub trait Sink {
    /// Append `bytes`.
    fn put_slice(&mut self, bytes: &[u8]);

    /// Append one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// `BytesMut` writes through `BufMut`'s fixed-width methods: its
/// `put_slice` copies a length it only learns at run time.
impl Sink for BytesMut {
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        BufMut::put_slice(self, bytes);
    }

    #[inline]
    fn put_u8(&mut self, v: u8) {
        BufMut::put_u8(self, v);
    }

    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_u16_le(v);
    }

    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_u32_le(v);
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_u64_le(v);
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A sink that keeps only how many bytes it was given: the exact encoded
/// length, without writing the encoding.
struct ByteCount(usize);

impl Sink for ByteCount {
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

// ------------------------------------------------------------ reader

/// Bounds-checked reader over encoded bytes: every read past the end is
/// [`WireError::Truncated`], never a panic.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read `bytes` from the start.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, by value.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// The next byte: an enum tag.
    #[inline]
    pub fn byte(&mut self) -> Result<u8, WireError> {
        self.array::<1>().map(|[b]| b)
    }

    /// Decode one value.
    #[inline]
    pub fn get<T: WireDecode>(&mut self) -> Result<T, WireError> {
        T::get(self)
    }

    /// A `u32` element count, refused above `max`.
    #[inline]
    fn count(&mut self, max: usize) -> Result<usize, WireError> {
        let n = self.get::<u32>()? as usize;
        if n > max {
            return Err(WireError::TooLong);
        }
        Ok(n)
    }
}

// ------------------------------------------------------------ traits

/// Types with a byte form.
pub trait WireEncode {
    /// Write the encoding of `self` into `sink`.
    fn put<S: Sink>(&self, sink: &mut S);

    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut) {
        self.put(buf);
    }

    /// Encode into a fresh buffer.
    fn encoded(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        self.put(&mut buf);
        buf.freeze()
    }

    /// The exact length [`encoded`](Self::encoded) would have, counted
    /// without writing it.
    fn encoded_len(&self) -> usize {
        let mut count = ByteCount(0);
        self.put(&mut count);
        count.0
    }
}

/// Types readable from their byte form.
pub trait WireDecode: Sized {
    /// Read one value from `r`.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decode one value, consuming from `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let out = Self::get(&mut r);
        let used = buf.len() - r.remaining();
        buf.advance(used);
        out
    }
}

/// A hand-written codec for one field whose decoding has rules beyond
/// its type's: the batch element caps and the ban on nesting. Named in a
/// [`wire!`](crate::wire!) table as `Variant(field as Codec)`.
pub trait Via<T> {
    /// Write `v` into `sink`.
    fn put<S: Sink>(v: &T, sink: &mut S);
    /// Read one value from `r`.
    fn get(r: &mut Reader<'_>) -> Result<T, WireError>;
}

// ------------------------------------------------------------ primitives

macro_rules! little_endian {
    ($($t:ty: $put:ident),*) => {$(
        impl WireEncode for $t {
            #[inline]
            fn put<S: Sink>(&self, sink: &mut S) {
                sink.$put(*self);
            }
        }

        impl WireDecode for $t {
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.array().map(<$t>::from_le_bytes)
            }
        }
    )*};
}

little_endian!(u16: put_u16, u32: put_u32, u64: put_u64);

/// The flag byte: 0 or 1.
impl WireEncode for bool {
    #[inline]
    fn put<S: Sink>(&self, sink: &mut S) {
        sink.put_u8(*self as u8);
    }
}

impl WireDecode for bool {
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "flag", tag }),
        }
    }
}

/// Flag 1 and the value, or flag 0.
impl<T: WireEncode> WireEncode for Option<T> {
    #[inline]
    fn put<S: Sink>(&self, sink: &mut S) {
        self.is_some().put(sink);
        if let Some(v) = self {
            v.put(sink);
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(if r.get()? { Some(r.get()?) } else { None })
    }
}

/// Flag 0 and the value, or flag 1 and the error.
impl<T: WireEncode, E: WireEncode> WireEncode for Result<T, E> {
    #[inline]
    fn put<S: Sink>(&self, sink: &mut S) {
        self.is_err().put(sink);
        match self {
            Ok(v) => v.put(sink),
            Err(e) => e.put(sink),
        }
    }
}

impl<T: WireDecode, E: WireDecode> WireDecode for Result<T, E> {
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(if r.get()? {
            Err(r.get()?)
        } else {
            Ok(r.get()?)
        })
    }
}

/// Nothing at all.
impl WireEncode for () {
    #[inline]
    fn put<S: Sink>(&self, _: &mut S) {}
}

impl WireDecode for () {
    #[inline]
    fn get(_: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

/// A `u16` length, then UTF-8.
impl WireEncode for str {
    #[inline]
    fn put<S: Sink>(&self, sink: &mut S) {
        debug_assert!(
            self.len() <= u16::MAX as usize,
            "string too long for the wire"
        );
        (self.len() as u16).put(sink);
        sink.put_slice(self.as_bytes());
    }
}

impl WireEncode for String {
    #[inline]
    fn put<S: Sink>(&self, sink: &mut S) {
        self.as_str().put(sink);
    }
}

impl WireDecode for String {
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get::<u16>()? as usize;
        String::from_utf8(r.take(len)?.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

/// A `u32` length, then the bytes.
impl WireEncode for Vec<u8> {
    #[inline]
    fn put<S: Sink>(&self, sink: &mut S) {
        (self.len() as u32).put(sink);
        sink.put_slice(self);
    }
}

impl WireDecode for Vec<u8> {
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.count(MAX_BYTES)?;
        Ok(r.take(len)?.to_vec())
    }
}

/// A `u32` count, then each element.
impl<T: WireEncode> WireEncode for Vec<T> {
    #[inline]
    fn put<S: Sink>(&self, sink: &mut S) {
        (self.len() as u32).put(sink);
        for e in self {
            e.put(sink);
        }
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count(MAX_ELEMS)?;
        // Every element takes at least a byte: a count the input cannot
        // hold reserves no more than the input could.
        let mut v = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            v.push(r.get()?);
        }
        Ok(v)
    }
}

/// One field after the other.
impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    #[inline]
    fn put<S: Sink>(&self, sink: &mut S) {
        self.0.put(sink);
        self.1.put(sink);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((r.get()?, r.get()?))
    }
}

// ------------------------------------------------------------ the table

/// Declare the byte form of structs and enums, once.
///
/// ```text
/// wire! {
///     struct Ino(_)                      // a newtype: its one field
///     struct FileAttr { size, mtime }    // the fields, in wire order
///     enum Shape {                       // each variant's tag and fields
///         0 => Unit,                     // the tag alone
///         1 => Named { b, a },           // the tag, then the fields in wire order
///         2 => Tuple(inner),             // the tag, then the one field
///         3 => Capped(elems as Codec),   // the field through a `Via` codec
///         4 => Fixed[Inner::Value],      // a variant with a constant payload
///     }
/// }
/// ```
///
/// Every listed field is written with its type's [`WireEncode`] and read
/// back with its [`WireDecode`]; encode, decode and the encoded length
/// all come from the one declaration, so a tag or a field order cannot
/// disagree between them. A variant left out of a table fails to compile
/// (the encoder's `match` is exhaustive), a repeated tag is an
/// unreachable decoder arm, and an unknown tag decodes to
/// [`WireError::BadTag`] naming the type. Tags once used and retired are
/// noted in a comment and never reused.
#[macro_export]
macro_rules! wire {
    () => {};
    (struct $ty:ident(_) $($rest:tt)*) => {
        impl $crate::wire::WireEncode for $ty {
            #[inline]
            fn put<S: $crate::wire::Sink>(&self, sink: &mut S) {
                $crate::wire::WireEncode::put(&self.0, sink);
            }
        }

        impl $crate::wire::WireDecode for $ty {
            #[inline]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok($ty(r.get()?))
            }
        }

        $crate::wire!($($rest)*);
    };
    (struct $ty:ident { $($f:ident),* $(,)? } $($rest:tt)*) => {
        impl $crate::wire::WireEncode for $ty {
            #[inline]
            fn put<S: $crate::wire::Sink>(&self, sink: &mut S) {
                $($crate::wire::WireEncode::put(&self.$f, sink);)*
            }
        }

        impl $crate::wire::WireDecode for $ty {
            #[inline]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok($ty { $($f: r.get()?),* })
            }
        }

        $crate::wire!($($rest)*);
    };
    (enum $ty:ident {
        $($tag:literal => $var:ident
            $({ $($f:ident),* $(,)? })?
            $(($t:ident $(as $via:ty)?))?
            $([$($k:tt)*])?
        ),* $(,)?
    } $($rest:tt)*) => {
        impl $crate::wire::WireEncode for $ty {
            #[inline]
            fn put<S: $crate::wire::Sink>(&self, sink: &mut S) {
                match self {
                    $($ty::$var $({ $($f),* })? $(($t))? $(($($k)*))? => {
                        sink.put_u8($tag);
                        $($($crate::wire::WireEncode::put($f, sink);)*)?
                        $($crate::wire!(@put sink $t $($via)?);)?
                    })*
                }
            }
        }

        impl $crate::wire::WireDecode for $ty {
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok(match r.byte()? {
                    $($tag => $ty::$var
                        $({ $($f: r.get()?),* })?
                        $(($crate::wire!(@get r $t $($via)?)))?
                        $(($($k)*))?,)*
                    tag => {
                        return ::core::result::Result::Err(
                            $crate::wire::WireError::BadTag {
                                what: ::core::stringify!($ty),
                                tag,
                            },
                        )
                    }
                })
            }
        }

        $crate::wire!($($rest)*);
    };
    (@put $sink:ident $v:ident) => {
        $crate::wire::WireEncode::put($v, $sink)
    };
    (@put $sink:ident $v:ident $via:ty) => {
        <$via as $crate::wire::Via<_>>::put($v, $sink)
    };
    (@get $r:ident $v:ident) => {
        $r.get()?
    };
    (@get $r:ident $v:ident $via:ty) => {
        <$via as $crate::wire::Via<_>>::get($r)?
    };
}

crate::wire! {
    struct Ino(_)
    struct BlockId(_)
    struct Epoch(_)
    struct SessionId(_)
    struct ReqSeq(_)
    struct Incarnation(_)
    struct NodeId(_)
    struct WriteTag { writer, epoch, wseq }
    struct FileAttr { size, mtime, version, is_dir }
    struct BlockRange { start, end }
    struct SanReadOk { data, tag }
    struct Request { src, session, seq, body }
    struct Response { dst, session, seq, incarnation, outcome }
    struct ServerPush { dst, session, push_seq, body }

    enum NetMsg {
        0 => Ctl(m),
        1 => San(m),
        2 => Repl(m),
    }

    enum CtlMsg {
        0 => Request(r),
        1 => Response(r),
        2 => Push(p),
    }

    enum RequestBody {
        0 => Hello { map_epoch },
        1 => KeepAlive,
        2 => Create { parent, name },
        3 => Lookup { parent, name },
        4 => Mkdir { parent, name },
        5 => ReadDir { dir },
        6 => Unlink { parent, name },
        7 => GetAttr { ino },
        8 => SetAttr { ino, size },
        9 => LockAcquire { ino, mode },
        10 => LockRelease { ino, epoch },
        11 => PushAck { push_seq },
        12 => AllocBlocks { ino, count },
        13 => CommitWrite { ino, new_size },
        // 14 and 15 are retired (function-shipped data): never reuse them.
        16 => RenameLink { dir, name, ino },
        17 => RenameUnlink { dir, name },
        18 => Batch(elems as RequestBatch),
    }

    enum ReplyBody {
        0 => HelloOk { session, map_epoch },
        1 => Ok,
        2 => Created { ino },
        3 => Resolved { ino, attr },
        4 => Attr { attr },
        5 => Dir { entries },
        6 => LockGranted { ino, mode, epoch, blocks, size },
        7 => Allocated { blocks },
        // 8 is retired (function-shipped data): never reuse it.
        9 => Batch(outcomes as ReplyBatch),
    }

    enum PushBody {
        0 => Demand { ino, mode_needed, epoch },
        1 => Invalidate { ino },
    }

    enum FsError {
        0 => NotFound,
        1 => Exists,
        2 => NoSpace,
        3 => NotLocked,
        4 => Invalid,
        5 => Unavailable,
    }

    enum NackReason {
        0 => LeaseTimingOut,
        1 => SessionExpired,
        2 => StaleSession,
        3 => Recovering,
        4 => Misrouted[RouteError::NotOwner],
        5 => Misrouted[RouteError::StaleMap],
        6 => Misrouted[RouteError::NotPrimary],
    }

    enum LockMode {
        0 => SharedRead,
        1 => Exclusive,
    }

    enum SanMsg {
        0 => ReadBlock { req_id, block },
        1 => WriteBlock { req_id, block, data, tag },
        2 => ReadResp { req_id, result },
        3 => WriteResp { req_id, result },
        4 => FenceCmd { req_id, target, op, range },
        5 => FenceResp { req_id },
    }

    enum SanError {
        0 => Fenced,
        1 => BadAddress,
        2 => DeviceError,
    }

    enum FenceOp {
        0 => Fence,
        1 => Unfence,
    }

    enum ReplMsg {
        0 => Append { snap_gen, snapshot, offset, bytes, durable },
        1 => AppendAck { snap_gen, durable },
        2 => Heartbeat { incarnation },
    }
}

/// An ACK is its `Result` (flag 0 and the reply, or flag 1 and the
/// file-system error); a NACK is tag 2 and its reason.
impl WireEncode for ResponseOutcome {
    #[inline]
    fn put<S: Sink>(&self, sink: &mut S) {
        match self {
            ResponseOutcome::Acked(result) => result.put(sink),
            ResponseOutcome::Nacked(reason) => {
                sink.put_u8(2);
                reason.put(sink);
            }
        }
    }
}

impl WireDecode for ResponseOutcome {
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.byte()? {
            0 => ResponseOutcome::Acked(Ok(r.get()?)),
            1 => ResponseOutcome::Acked(Err(r.get()?)),
            2 => ResponseOutcome::Nacked(r.get()?),
            tag => {
                return Err(WireError::BadTag {
                    what: "ResponseOutcome",
                    tag,
                })
            }
        })
    }
}

/// A request batch: a vector of at most [`MAX_BATCH_ELEMS`] bodies, none
/// of them a batch. Nesting is structurally forbidden: one batch is one
/// message, and recursion would let a datagram amplify its own decode
/// cost.
struct RequestBatch;

impl Via<Vec<RequestBody>> for RequestBatch {
    fn put<S: Sink>(elems: &Vec<RequestBody>, sink: &mut S) {
        debug_assert!(elems.len() <= MAX_BATCH_ELEMS, "batch over element cap");
        debug_assert!(
            elems.iter().all(|e| !matches!(e, RequestBody::Batch(_))),
            "nested batch"
        );
        elems.put(sink);
    }

    fn get(r: &mut Reader<'_>) -> Result<Vec<RequestBody>, WireError> {
        let n = r.count(MAX_BATCH_ELEMS)?;
        let mut elems = Vec::with_capacity(n);
        for _ in 0..n {
            let e = r.get()?;
            if matches!(e, RequestBody::Batch(_)) {
                return Err(WireError::BadTag {
                    what: "RequestBody (nested batch)",
                    tag: 18,
                });
            }
            elems.push(e);
        }
        Ok(elems)
    }
}

/// A reply batch: at most [`MAX_BATCH_ELEMS`] per-element outcomes, no
/// reply among them a batch.
struct ReplyBatch;

impl Via<Vec<Result<ReplyBody, FsError>>> for ReplyBatch {
    fn put<S: Sink>(outcomes: &Vec<Result<ReplyBody, FsError>>, sink: &mut S) {
        debug_assert!(outcomes.len() <= MAX_BATCH_ELEMS, "batch over element cap");
        debug_assert!(
            outcomes
                .iter()
                .all(|o| !matches!(o, Ok(ReplyBody::Batch(_)))),
            "nested batch reply"
        );
        outcomes.put(sink);
    }

    fn get(r: &mut Reader<'_>) -> Result<Vec<Result<ReplyBody, FsError>>, WireError> {
        let n = r.count(MAX_BATCH_ELEMS)?;
        let mut outcomes = Vec::with_capacity(n);
        for _ in 0..n {
            let o = r.get()?;
            if matches!(o, Ok(ReplyBody::Batch(_))) {
                return Err(WireError::BadTag {
                    what: "ReplyBody (nested batch)",
                    tag: 9,
                });
            }
            outcomes.push(o);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: NetMsg) {
        let mut enc = msg.encoded();
        let dec = NetMsg::decode(&mut enc).expect("decode");
        assert_eq!(dec, msg);
        assert_eq!(enc.remaining(), 0, "no trailing bytes");
    }

    #[test]
    fn roundtrip_requests() {
        let bodies = vec![
            RequestBody::Hello { map_epoch: 3 },
            RequestBody::KeepAlive,
            RequestBody::Create {
                parent: Ino(1),
                name: "a.txt".into(),
            },
            RequestBody::Lookup {
                parent: Ino(1),
                name: "b".into(),
            },
            RequestBody::Mkdir {
                parent: Ino(1),
                name: "d".into(),
            },
            RequestBody::ReadDir { dir: Ino(1) },
            RequestBody::Unlink {
                parent: Ino(1),
                name: "a.txt".into(),
            },
            RequestBody::GetAttr { ino: Ino(2) },
            RequestBody::SetAttr {
                ino: Ino(2),
                size: Some(100),
            },
            RequestBody::SetAttr {
                ino: Ino(2),
                size: None,
            },
            RequestBody::LockAcquire {
                ino: Ino(2),
                mode: LockMode::Exclusive,
            },
            RequestBody::LockRelease {
                ino: Ino(2),
                epoch: Epoch(4),
            },
            RequestBody::PushAck { push_seq: 77 },
            RequestBody::AllocBlocks {
                ino: Ino(2),
                count: 8,
            },
            RequestBody::CommitWrite {
                ino: Ino(2),
                new_size: 4096,
            },
            RequestBody::RenameLink {
                dir: Ino(1),
                name: "moved".into(),
                ino: Ino(9),
            },
            RequestBody::RenameUnlink {
                dir: Ino(1),
                name: "old".into(),
            },
            RequestBody::Batch(vec![]),
            RequestBody::Batch(vec![
                RequestBody::Lookup {
                    parent: Ino(1),
                    name: "b".into(),
                },
                RequestBody::GetAttr { ino: Ino(2) },
                RequestBody::LockRelease {
                    ino: Ino(2),
                    epoch: Epoch(4),
                },
                RequestBody::CommitWrite {
                    ino: Ino(2),
                    new_size: 4096,
                },
            ]),
        ];
        for body in bodies {
            roundtrip(NetMsg::Ctl(CtlMsg::Request(Request {
                src: NodeId(5),
                session: SessionId(2),
                seq: ReqSeq(42),
                body,
            })));
        }
    }

    #[test]
    fn roundtrip_responses() {
        let outcomes = vec![
            ResponseOutcome::Acked(Ok(ReplyBody::HelloOk {
                session: SessionId(3),
                map_epoch: 1,
            })),
            ResponseOutcome::Acked(Ok(ReplyBody::Ok)),
            ResponseOutcome::Acked(Ok(ReplyBody::Created { ino: Ino(9) })),
            ResponseOutcome::Acked(Ok(ReplyBody::Resolved {
                ino: Ino(9),
                attr: FileAttr {
                    size: 1,
                    mtime: 2,
                    version: 3,
                    is_dir: false,
                },
            })),
            ResponseOutcome::Acked(Ok(ReplyBody::Attr {
                attr: FileAttr {
                    size: 0,
                    mtime: 0,
                    version: 1,
                    is_dir: true,
                },
            })),
            ResponseOutcome::Acked(Ok(ReplyBody::Dir {
                entries: vec![("x".into(), Ino(1)), ("y".into(), Ino(2))],
            })),
            ResponseOutcome::Acked(Ok(ReplyBody::LockGranted {
                ino: Ino(9),
                mode: LockMode::SharedRead,
                epoch: Epoch(12),
                blocks: vec![BlockId(3), BlockId(4)],
                size: 8192,
            })),
            ResponseOutcome::Acked(Ok(ReplyBody::Allocated {
                blocks: vec![BlockId(5)],
            })),
            ResponseOutcome::Acked(Ok(ReplyBody::Batch(vec![]))),
            ResponseOutcome::Acked(Ok(ReplyBody::Batch(vec![
                Ok(ReplyBody::Resolved {
                    ino: Ino(9),
                    attr: FileAttr {
                        size: 1,
                        mtime: 2,
                        version: 3,
                        is_dir: false,
                    },
                }),
                Ok(ReplyBody::Ok),
                Err(FsError::NotFound),
            ]))),
            ResponseOutcome::Acked(Err(FsError::NotFound)),
            ResponseOutcome::Acked(Err(FsError::Unavailable)),
            ResponseOutcome::Nacked(NackReason::LeaseTimingOut),
            ResponseOutcome::Nacked(NackReason::SessionExpired),
            ResponseOutcome::Nacked(NackReason::StaleSession),
            ResponseOutcome::Nacked(NackReason::Recovering),
            ResponseOutcome::Nacked(NackReason::Misrouted(RouteError::NotOwner)),
            ResponseOutcome::Nacked(NackReason::Misrouted(RouteError::StaleMap)),
            ResponseOutcome::Nacked(NackReason::Misrouted(RouteError::NotPrimary)),
        ];
        for outcome in outcomes {
            let resp = Response {
                dst: NodeId(5),
                session: SessionId(2),
                seq: ReqSeq(42),
                incarnation: Incarnation(7),
                outcome,
            };
            roundtrip(NetMsg::Ctl(CtlMsg::Response(resp)));
        }
    }

    #[test]
    fn roundtrip_pushes() {
        for body in [
            PushBody::Demand {
                ino: Ino(7),
                mode_needed: LockMode::Exclusive,
                epoch: Epoch(3),
            },
            PushBody::Invalidate { ino: Ino(7) },
        ] {
            roundtrip(NetMsg::Ctl(CtlMsg::Push(ServerPush {
                dst: NodeId(1),
                session: SessionId(4),
                push_seq: 10,
                body,
            })));
        }
    }

    #[test]
    fn roundtrip_san() {
        let tag = WriteTag {
            writer: NodeId(3),
            epoch: Epoch(8),
            wseq: 2,
        };
        let msgs = vec![
            SanMsg::ReadBlock {
                req_id: 1,
                block: BlockId(2),
            },
            SanMsg::WriteBlock {
                req_id: 2,
                block: BlockId(2),
                data: vec![1; 512],
                tag,
            },
            SanMsg::ReadResp {
                req_id: 1,
                result: Ok(SanReadOk {
                    data: vec![1; 512],
                    tag,
                }),
            },
            SanMsg::ReadResp {
                req_id: 1,
                result: Err(SanError::Fenced),
            },
            SanMsg::WriteResp {
                req_id: 2,
                result: Ok(()),
            },
            SanMsg::WriteResp {
                req_id: 2,
                result: Err(SanError::DeviceError),
            },
            SanMsg::FenceCmd {
                req_id: 3,
                target: NodeId(7),
                op: FenceOp::Fence,
                range: BlockRange::ALL,
            },
            SanMsg::FenceCmd {
                req_id: 3,
                target: NodeId(7),
                op: FenceOp::Unfence,
                range: BlockRange {
                    start: 64,
                    end: 128,
                },
            },
            SanMsg::FenceResp { req_id: 3 },
        ];
        for m in msgs {
            roundtrip(NetMsg::San(m));
        }
    }

    #[test]
    fn roundtrip_repl() {
        let msgs = vec![
            ReplMsg::Append {
                snap_gen: 0,
                snapshot: None,
                offset: 128,
                bytes: vec![7; 96],
                durable: 224,
            },
            ReplMsg::Append {
                snap_gen: 3,
                snapshot: Some(vec![9; 256]),
                offset: 0,
                bytes: Vec::new(),
                durable: 0,
            },
            ReplMsg::AppendAck {
                snap_gen: 3,
                durable: 224,
            },
            ReplMsg::Heartbeat {
                incarnation: Incarnation(5),
            },
        ];
        for m in msgs {
            roundtrip(NetMsg::Repl(m));
        }
    }

    #[test]
    fn truncated_repl_is_an_error_not_a_panic() {
        let msg = NetMsg::Repl(ReplMsg::Append {
            snap_gen: 2,
            snapshot: Some(vec![1, 2, 3]),
            offset: 4,
            bytes: vec![5, 6],
            durable: 6,
        });
        let mut enc = BytesMut::new();
        msg.encode(&mut enc);
        let full = enc.freeze();
        for cut in 0..full.len() {
            let mut trunc = full.slice(0..cut);
            assert!(
                NetMsg::decode(&mut trunc).is_err(),
                "decoded from a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let msg = NetMsg::Ctl(CtlMsg::Request(Request {
            src: NodeId(5),
            session: SessionId(2),
            seq: ReqSeq(42),
            body: RequestBody::Create {
                parent: Ino(1),
                name: "hello".into(),
            },
        }));
        let full = msg.encoded();
        for cut in 0..full.len() {
            let mut trunc = full.slice(0..cut);
            assert!(
                NetMsg::decode(&mut trunc).is_err(),
                "decoding {cut}/{} bytes must fail",
                full.len()
            );
        }
    }

    #[test]
    fn truncated_batch_is_an_error_not_a_panic() {
        let msg = NetMsg::Ctl(CtlMsg::Request(Request {
            src: NodeId(5),
            session: SessionId(2),
            seq: ReqSeq(42),
            body: RequestBody::Batch(vec![
                RequestBody::GetAttr { ino: Ino(1) },
                RequestBody::Lookup {
                    parent: Ino(1),
                    name: "hello".into(),
                },
                RequestBody::LockRelease {
                    ino: Ino(1),
                    epoch: Epoch(3),
                },
            ]),
        }));
        let full = msg.encoded();
        for cut in 0..full.len() {
            let mut trunc = full.slice(0..cut);
            assert!(
                NetMsg::decode(&mut trunc).is_err(),
                "decoding {cut}/{} bytes must fail",
                full.len()
            );
        }
    }

    #[test]
    fn nested_batch_is_rejected_on_decode() {
        // Hand-craft a batch whose single element is itself a batch; the
        // encoder debug-asserts against this, so build the bytes directly.
        // An outer batch of one element, itself an empty batch.
        let mut bytes = Bytes::from_static(&[18, 1, 0, 0, 0, 18, 0, 0, 0, 0]);
        match RequestBody::decode(&mut bytes) {
            Err(WireError::BadTag { what, tag: 18 }) => {
                assert!(what.contains("nested"), "got {what}");
            }
            other => panic!("expected nested-batch BadTag, got {other:?}"),
        }

        // An outer reply batch of one Ok element, itself an empty batch.
        let mut bytes = Bytes::from_static(&[9, 1, 0, 0, 0, 0, 9, 0, 0, 0, 0]);
        match ReplyBody::decode(&mut bytes) {
            Err(WireError::BadTag { what, tag: 9 }) => {
                assert!(what.contains("nested"), "got {what}");
            }
            other => panic!("expected nested-batch BadTag, got {other:?}"),
        }
    }

    #[test]
    fn oversized_batch_count_is_rejected() {
        let mut buf = vec![18];
        buf.extend_from_slice(&(MAX_BATCH_ELEMS as u32 + 1).to_le_bytes());
        let mut bytes = Bytes::from(buf);
        assert_eq!(RequestBody::decode(&mut bytes), Err(WireError::TooLong));

        let mut bytes = Bytes::from_static(&[9, 0xff, 0xff, 0xff, 0xff]);
        assert_eq!(ReplyBody::decode(&mut bytes), Err(WireError::TooLong));
    }

    #[test]
    fn retired_tags_are_rejected() {
        // Request tags 14 / 15 and reply tag 8 once carried function-shipped
        // data. Patch the body tag (the last byte) of a well-formed message
        // and append what used to be a valid payload.
        let patched = |msg: CtlMsg, tag: u8| {
            let mut bytes = NetMsg::Ctl(msg).encoded().to_vec();
            *bytes.last_mut().expect("non-empty encoding") = tag;
            bytes.extend_from_slice(&[0u8; 24]);
            NetMsg::decode(&mut Bytes::from(bytes))
        };
        let request = |body| {
            CtlMsg::Request(Request {
                src: NodeId(5),
                session: SessionId(2),
                seq: ReqSeq(42),
                body,
            })
        };
        let bad_tag = |what, tag| Err(WireError::BadTag { what, tag });
        for tag in [14u8, 15] {
            let single = request(RequestBody::KeepAlive);
            assert_eq!(patched(single, tag), bad_tag("RequestBody", tag));
            // One retired element poisons the whole batch.
            let elems = vec![RequestBody::GetAttr { ino: Ino(1) }, RequestBody::KeepAlive];
            let batch = request(RequestBody::Batch(elems));
            assert_eq!(patched(batch, tag), bad_tag("RequestBody", tag));
        }
        let response = CtlMsg::Response(Response {
            dst: NodeId(5),
            session: SessionId(2),
            seq: ReqSeq(42),
            incarnation: Incarnation(7),
            outcome: ResponseOutcome::Acked(Ok(ReplyBody::Ok)),
        });
        assert_eq!(patched(response, 8), bad_tag("ReplyBody", 8));
    }

    #[test]
    fn a_flag_byte_other_than_0_or_1_is_refused_everywhere() {
        let request = |body| {
            NetMsg::Ctl(CtlMsg::Request(Request {
                src: NodeId(5),
                session: SessionId(2),
                seq: ReqSeq(42),
                body,
            }))
        };
        let reply = |body| {
            NetMsg::Ctl(CtlMsg::Response(Response {
                dst: NodeId(5),
                session: SessionId(2),
                seq: ReqSeq(42),
                incarnation: Incarnation(7),
                outcome: ResponseOutcome::Acked(Ok(body)),
            }))
        };
        let attr = FileAttr {
            size: 1,
            mtime: 2,
            version: 3,
            is_dir: true,
        };
        // Each message holds a 1 at `at` in a flag position: a request's
        // body starts at 22, an ACK's reply at 32 (its 30-byte header,
        // the outcome flag, the reply tag).
        let flag = WireError::BadTag {
            what: "flag",
            tag: 2,
        };
        let cases = [
            (
                "SetAttr size",
                request(RequestBody::SetAttr {
                    ino: Ino(2),
                    size: Some(9),
                }),
                22 + 1 + 8,
                flag.clone(),
            ),
            (
                "is_dir",
                reply(ReplyBody::Attr { attr }),
                32 + 24,
                flag.clone(),
            ),
            (
                "batch outcome",
                reply(ReplyBody::Batch(vec![Err(FsError::Exists)])),
                32 + 4,
                flag.clone(),
            ),
            (
                "ReadResp result",
                NetMsg::San(SanMsg::ReadResp {
                    req_id: 1,
                    result: Err(SanError::Fenced),
                }),
                2 + 8,
                flag.clone(),
            ),
            (
                "WriteResp result",
                NetMsg::San(SanMsg::WriteResp {
                    req_id: 1,
                    result: Err(SanError::Fenced),
                }),
                2 + 8,
                flag.clone(),
            ),
            (
                "FenceOp",
                NetMsg::San(SanMsg::FenceCmd {
                    req_id: 1,
                    target: NodeId(7),
                    op: FenceOp::Unfence,
                    range: BlockRange::ALL,
                }),
                2 + 8 + 4,
                WireError::BadTag {
                    what: "FenceOp",
                    tag: 2,
                },
            ),
            (
                "snapshot",
                NetMsg::Repl(ReplMsg::Append {
                    snap_gen: 1,
                    snapshot: Some(vec![1]),
                    offset: 0,
                    bytes: vec![],
                    durable: 0,
                }),
                2 + 8,
                flag,
            ),
        ];
        for (what, msg, at, err) in cases {
            let mut bytes = msg.encoded().to_vec();
            assert_eq!(bytes[at], 1, "{what}: the flag is at {at}");
            bytes[at] = 2;
            assert_eq!(NetMsg::decode(&mut Bytes::from(bytes)), Err(err), "{what}");
        }
    }

    #[test]
    fn bad_tag_reports_enum() {
        let mut buf = Bytes::from_static(&[9u8]);
        match NetMsg::decode(&mut buf) {
            Err(WireError::BadTag { what, tag }) => {
                assert_eq!(what, "NetMsg");
                assert_eq!(tag, 9);
            }
            other => panic!("expected BadTag, got {other:?}"),
        }
    }

    mod batch_props {
        use super::*;
        use proptest::collection::vec as pvec;
        use proptest::prelude::*;

        /// Arbitrary batchable request elements (all fixed-size and
        /// string-carrying shapes the coalescing queue actually folds).
        fn elem() -> impl Strategy<Value = RequestBody> {
            prop_oneof![
                Just(RequestBody::KeepAlive),
                (any::<u64>(), "[a-z0-9._-]{1,12}").prop_map(|(p, name)| {
                    RequestBody::Create {
                        parent: Ino(p),
                        name,
                    }
                }),
                (any::<u64>(), "[a-z0-9._-]{1,12}").prop_map(|(p, name)| {
                    RequestBody::Lookup {
                        parent: Ino(p),
                        name,
                    }
                }),
                (any::<u64>(), "[a-z0-9._-]{1,12}").prop_map(|(p, name)| {
                    RequestBody::Unlink {
                        parent: Ino(p),
                        name,
                    }
                }),
                any::<u64>().prop_map(|i| RequestBody::GetAttr { ino: Ino(i) }),
                any::<u64>().prop_map(|d| RequestBody::ReadDir { dir: Ino(d) }),
                (any::<u64>(), any::<u64>()).prop_map(|(i, e)| RequestBody::LockRelease {
                    ino: Ino(i),
                    epoch: Epoch(e),
                }),
                (any::<u64>(), any::<u64>()).prop_map(|(i, s)| RequestBody::CommitWrite {
                    ino: Ino(i),
                    new_size: s,
                }),
                (any::<u64>(), any::<u32>()).prop_map(|(i, c)| RequestBody::AllocBlocks {
                    ino: Ino(i),
                    count: c,
                }),
                any::<u64>().prop_map(|s| RequestBody::PushAck { push_seq: s }),
            ]
        }

        /// Arbitrary per-element batch outcomes, Ok and Err alike.
        fn outcome() -> impl Strategy<Value = Result<ReplyBody, FsError>> {
            prop_oneof![
                Just(Ok(ReplyBody::Ok)),
                any::<u64>().prop_map(|i| Ok(ReplyBody::Created { ino: Ino(i) })),
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
                    |(size, mtime, version, is_dir)| {
                        Ok(ReplyBody::Attr {
                            attr: FileAttr {
                                size,
                                mtime,
                                version,
                                is_dir,
                            },
                        })
                    }
                ),
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
                    |(ino, size, version, is_dir)| {
                        Ok(ReplyBody::Resolved {
                            ino: Ino(ino),
                            attr: FileAttr {
                                size,
                                mtime: 0,
                                version,
                                is_dir,
                            },
                        })
                    }
                ),
                Just(Err(FsError::NotFound)),
                Just(Err(FsError::Exists)),
                Just(Err(FsError::NotLocked)),
                Just(Err(FsError::Unavailable)),
            ]
        }

        proptest! {
            #[test]
            fn request_batch_roundtrips(elems in pvec(elem(), 0..48)) {
                let msg = NetMsg::Ctl(CtlMsg::Request(Request {
                    src: NodeId(5),
                    session: SessionId(2),
                    seq: ReqSeq(42),
                    body: RequestBody::Batch(elems),
                }));
                let mut enc = msg.encoded();
                let dec = NetMsg::decode(&mut enc);
                prop_assert_eq!(dec, Ok(msg));
                prop_assert_eq!(enc.remaining(), 0, "trailing bytes after batch");
            }

            #[test]
            fn reply_batch_roundtrips(outcomes in pvec(outcome(), 0..48)) {
                let msg = NetMsg::Ctl(CtlMsg::Response(Response {
                    dst: NodeId(5),
                    session: SessionId(2),
                    seq: ReqSeq(42),
                    incarnation: Incarnation(7),
                    outcome: ResponseOutcome::Acked(Ok(ReplyBody::Batch(outcomes))),
                }));
                let mut enc = msg.encoded();
                let dec = NetMsg::decode(&mut enc);
                prop_assert_eq!(dec, Ok(msg));
                prop_assert_eq!(enc.remaining(), 0, "trailing bytes after batch reply");
            }
        }
    }
}
