//! The one reader and the one row-list writer behind every byte format
//! that comes from outside the program: the state dir — checkpoints and
//! the WAL ([`crate::durability`]), the shard snapshot inside a
//! checkpoint ([`crate::shard`]) and the audit chain ([`crate::audit`])
//! — and the payloads of wire frames ([`crate::wire`]).
//!
//! Those bytes are outside input — a torn write, a flipped bit, a file
//! from another version, a hostile peer. The reader therefore never
//! indexes: every field is a bounds-checked `take`, a list's announced
//! count is checked against the bytes actually present before anything
//! is allocated for it, and running short is `None`, which each format
//! maps to its own typed truncation error.

use goldfish_tensor::serialize;

/// A bounds-checked little-endian cursor over outside bytes.
pub(crate) struct Reader<'a> {
    /// The bytes not yet consumed.
    pub(crate) b: &'a [u8],
}

impl<'a> Reader<'a> {
    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.b.len() < n {
            return None;
        }
        let (head, rest) = self.b.split_at(n);
        self.b = rest;
        Some(head)
    }

    /// The next `N` bytes as an array (integer fields, magics, digests).
    pub(crate) fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.array().map(|[byte]| byte)
    }

    pub(crate) fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn f32(&mut self) -> Option<f32> {
        self.array().map(f32::from_le_bytes)
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.array().map(f64::from_le_bytes)
    }

    /// A `u32 count + u64 rows` list, as [`put_rows`] writes it.
    pub(crate) fn rows<T: TryFrom<u64>>(&mut self) -> Option<Vec<T>> {
        let n = self.u32()? as usize;
        let mut rows = Reader {
            b: self.take(n.checked_mul(8)?)?,
        };
        (0..n).map(|_| T::try_from(rows.u64()?).ok()).collect()
    }

    /// A bulk `f32` vector in `goldfish_tensor::serialize`'s params codec.
    pub(crate) fn f32s(&mut self) -> Option<Vec<f32>> {
        let mut out = Vec::new();
        let used = serialize::params_read_into_vec(self.b, &mut out).ok()?;
        self.take(used)?;
        Some(out)
    }

    /// The same vector's float bytes, borrowed undecoded.
    pub(crate) fn f32_bytes(&mut self) -> Option<&'a [u8]> {
        let floats = serialize::params_float_bytes(self.b).ok()?;
        self.take(8 + floats.len())?;
        Some(floats)
    }
}

/// Appends a `u32 count + u64 rows` list — removed sample indices, shard
/// rows, audit detail words: the one list shape the state dir knows.
pub(crate) fn put_rows(out: &mut Vec<u8>, rows: impl ExactSizeIterator<Item = u64>) {
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        out.extend_from_slice(&row.to_le_bytes());
    }
}
