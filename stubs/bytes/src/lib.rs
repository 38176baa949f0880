//! Vendored minimal stand-in for the `bytes` crate.
//!
//! Implements exactly the slice-of-a-shared-buffer semantics the wire
//! codec uses: cheaply cloneable [`Bytes`] views with little-endian
//! cursor reads ([`Buf`]), and an append-only [`BytesMut`] builder with
//! little-endian writes ([`BufMut`]) that freezes into `Bytes`.

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply cloneable byte buffer with cursor semantics.
#[derive(Clone, Debug, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A buffer viewing static data (copied here; the vendored stub does
    /// not bother with the zero-copy special case).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Bytes remaining in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Split off and return the first `n` bytes, advancing `self` past
    /// them. Panics if `n` exceeds the remaining length.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to out of bounds");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        head
    }

    /// A sub-view of the remaining bytes.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice out of bounds"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::from(v),
            start: 0,
            end,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

/// Cursor reads over a byte source. All getters consume from the front
/// and panic on underflow (callers bounds-check first).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Discard the next `n` bytes.
    fn advance(&mut self, n: usize);
    /// Read one byte.
    fn get_u8(&mut self) -> u8;
    /// Read a little-endian u16.
    fn get_u16_le(&mut self) -> u16;
    /// Read a little-endian u32.
    fn get_u32_le(&mut self) -> u32;
    /// Read a little-endian u64.
    fn get_u64_le(&mut self) -> u64;
    /// Fill `dst` from the front of the buffer.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
}

macro_rules! bytes_get {
    ($self:ident, $t:ty) => {{
        const N: usize = std::mem::size_of::<$t>();
        let mut raw = [0u8; N];
        raw.copy_from_slice(&$self[..N]);
        $self.start += N;
        <$t>::from_le_bytes(raw)
    }};
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.start += n;
    }

    fn get_u8(&mut self) -> u8 {
        let b = self[0];
        self.start += 1;
        b
    }

    fn get_u16_le(&mut self) -> u16 {
        bytes_get!(self, u16)
    }

    fn get_u32_le(&mut self) -> u32 {
        bytes_get!(self, u32)
    }

    fn get_u64_le(&mut self) -> u64 {
        bytes_get!(self, u64)
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self[..dst.len()]);
        self.start += dst.len();
    }
}

/// An append-only byte builder.
#[derive(Clone, Debug, Default)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reserve space for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Drop the bytes written so far, keeping the capacity for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Turn the accumulated bytes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Little-endian append operations.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a little-endian u16.
    fn put_u16_le(&mut self, v: u16);
    /// Append a little-endian u32.
    fn put_u32_le(&mut self, v: u32);
    /// Append a little-endian u64.
    fn put_u64_le(&mut self, v: u64);
    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le_integers() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(0xAB);
        w.put_u16_le(0x1234);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(0x0102_0304_0506_0708);
        w.put_slice(b"xyz");
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8 + 3);
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u16_le(), 0x1234);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 0x0102_0304_0506_0708);
        assert_eq!(r.split_to(3).to_vec(), b"xyz");
        assert!(r.is_empty());
    }

    #[test]
    fn clear_empties_the_builder_for_reuse() {
        let mut w = BytesMut::with_capacity(16);
        w.put_slice(b"abc");
        w.clear();
        assert!(w.is_empty());
        w.put_u8(7);
        assert_eq!(&w[..], &[7]);
    }

    #[test]
    fn split_and_slice_share_storage() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
        assert_eq!(&b.slice(1..3)[..], &[4, 5]);
    }
}
