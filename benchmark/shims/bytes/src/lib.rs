//! Offline stand-in for `bytes` 1.x, covering exactly what the BaFFLe
//! workspace calls: cheaply clonable immutable [`Bytes`], a growable
//! [`BytesMut`] that freezes into one without copying, and the
//! little-endian accessors of [`Buf`] / [`BufMut`].

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. Clones and slices share
/// the allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` for the empty buffer, so `Bytes::new()` allocates nothing.
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty buffer.
    pub const fn new() -> Self {
        Self { data: None, start: 0, end: 0 }
    }

    /// Copies `src` into a fresh buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        src.to_vec().into()
    }

    /// A view of `range` within this buffer, sharing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is decreasing or reaches past the end.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice {lo}..{hi} out of range for length {len}");
        Self { data: self.data.clone(), start: self.start + lo, end: self.start + hi }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Self {
        let end = vec.len();
        Self { data: Some(Arc::new(vec)), start: 0, end }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A growable byte buffer; [`BytesMut::freeze`] turns it into
/// [`Bytes`] without copying.
#[derive(Default)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub const fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// An empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { buf: Vec::with_capacity(capacity) }
    }

    /// Appends `src`.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// Converts into an immutable buffer, reusing the allocation.
    pub fn freeze(self) -> Bytes {
        self.buf.into()
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl From<&[u8]> for BytesMut {
    fn from(src: &[u8]) -> Self {
        Self { buf: src.to_vec() }
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.buf, f)
    }
}

/// Sequential little-endian reads that consume the front of a buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Skips `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    fn advance(&mut self, n: usize);

    /// Reads `N` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `N` bytes remain — callers check
    /// [`Buf::remaining`] first, as with the published crate.
    fn get_array<const N: usize>(&mut self) -> [u8; N] {
        let out: [u8; N] = self.chunk()[..N].try_into().expect("N bytes sliced");
        self.advance(N);
        out
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        self.get_array::<1>()[0]
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.get_array())
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.get_array())
    }

    /// Reads a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.get_array())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Sequential little-endian writes that append to a buffer.
pub trait BufMut {
    /// Appends `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}
