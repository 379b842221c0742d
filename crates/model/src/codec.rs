//! Canonical binary codec.
//!
//! The message-passing protocols sign and hash messages, which requires a
//! *deterministic* byte representation: the same value must always encode to
//! the same bytes on every process. This module provides a small,
//! dependency-free codec with that property:
//!
//! * fixed-width little-endian integers;
//! * `u64` length prefixes for sequences, with a sanity limit;
//! * no implicit padding, no floating point.
//!
//! The [`Encode`] / [`Decode`] traits are implemented for primitives,
//! `Option`, `Vec`, tuples, and every wire-visible type in the workspace.
//!
//! # Example
//!
//! ```
//! use at_model::codec::{decode, encode, Decode, Encode};
//!
//! let value: (u32, Option<bool>, Vec<u8>) = (7, Some(true), vec![1, 2, 3]);
//! let bytes = encode(&value);
//! let back: (u32, Option<bool>, Vec<u8>) = decode(&bytes)?;
//! assert_eq!(value, back);
//! # Ok::<(), at_model::CodecError>(())
//! ```

use crate::error::CodecError;

/// Maximum declared length of any decoded sequence, as a denial-of-service
/// guard on untrusted input (16 MiB of elements).
pub const MAX_SEQUENCE_LEN: u64 = 16 * 1024 * 1024;

/// An append-only encoding buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates a writer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` length prefix followed by the bytes.
    pub fn put_len_prefixed(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.put_bytes(bytes);
    }

    /// Finishes encoding and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A cursor over bytes being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.bytes.len() < n {
            return Err(CodecError::UnexpectedEnd {
                needed: n,
                remaining: self.bytes.len(),
            });
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let bytes = self.take(N)?;
        Ok(bytes.try_into().expect("take returns exactly N bytes"))
    }

    /// Reads a single byte.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads exactly `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a `u64` length prefix (validated against
    /// [`MAX_SEQUENCE_LEN`]) followed by that many bytes.
    pub fn take_len_prefixed(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.take_u64()?;
        if len > MAX_SEQUENCE_LEN {
            return Err(CodecError::LengthOverflow {
                declared: len,
                limit: MAX_SEQUENCE_LEN,
            });
        }
        self.take(len as usize)
    }

    /// Reads a validated sequence length prefix.
    pub fn take_seq_len(&mut self) -> Result<usize, CodecError> {
        let len = self.take_u64()?;
        if len > MAX_SEQUENCE_LEN {
            return Err(CodecError::LengthOverflow {
                declared: len,
                limit: MAX_SEQUENCE_LEN,
            });
        }
        Ok(len as usize)
    }
}

/// Types with a canonical binary encoding.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encodes `self` into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Types decodable from the canonical binary encoding.
pub trait Decode: Sized {
    /// Decodes a value from the reader, consuming exactly its encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the input is truncated or malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value into a fresh byte vector.
pub fn encode<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    value.to_bytes()
}

/// Decodes a value from `bytes`, requiring all input to be consumed.
///
/// # Errors
///
/// Returns a [`CodecError`] when the input is truncated, malformed, or has
/// trailing bytes.
pub fn decode<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(value)
}

impl Encode for () {
    fn encode(&self, _w: &mut Writer) {}
}

impl Decode for () {
    fn decode(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl Encode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.take_u8()
    }
}

impl Encode for u16 {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
}

impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.take_u16()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.take_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.take_u64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag {
                type_name: "bool",
                tag,
            }),
        }
    }
}

impl Encode for str {
    fn encode(&self, w: &mut Writer) {
        w.put_len_prefixed(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        self.as_str().encode(w);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = r.take_len_prefixed()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::InvalidTag {
                type_name: "Option",
                tag,
            }),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_seq_len()?;
        // Guard allocation: cap the pre-allocation, grow as decoded.
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = r.take_bytes(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }
}

macro_rules! impl_tuple_codec {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, w: &mut Writer) {
                $(self.$idx.encode(w);)+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

impl_tuple_codec!(A: 0);
impl_tuple_codec!(A: 0, B: 1);
impl_tuple_codec!(A: 0, B: 1, C: 2);
impl_tuple_codec!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_codec!(A: 0, B: 1, C: 2, D: 3, E: 4);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode(&value);
        let back: T = decode(&bytes).expect("decode");
        assert_eq!(value, back);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("hello, κόσμος"));
        roundtrip(String::new());
    }

    #[test]
    fn unit_encodes_to_nothing() {
        assert!(encode(&()).is_empty());
        decode::<()>(&[]).expect("unit decodes from empty input");
        // A unit inside a container consumes no bytes either.
        assert_eq!(encode(&vec![(), (), ()]).len(), 8);
        roundtrip(vec![(), (), ()]);
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(Option::<u32>::None);
        roundtrip(Some(99u64));
        roundtrip(Vec::<u8>::new());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(vec![Some(1u8), None, Some(3)]);
        roundtrip((1u8, 2u16, 3u32, 4u64));
        roundtrip([7u8; 32]);
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = (vec![3u32, 1, 2], Some(false), String::from("x"));
        assert_eq!(encode(&v), encode(&v.clone()));
    }

    #[test]
    fn little_endian_layout() {
        assert_eq!(encode(&0x0102_0304u32), vec![0x04, 0x03, 0x02, 0x01]);
        assert_eq!(encode(&1u64)[0], 1);
    }

    #[test]
    fn truncated_input_fails() {
        let bytes = encode(&0xAABBCCDDu32);
        let err = decode::<u32>(&bytes[..3]).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEnd { .. }));
    }

    #[test]
    fn trailing_bytes_fail() {
        let mut bytes = encode(&7u32);
        bytes.push(0);
        let err = decode::<u32>(&bytes).unwrap_err();
        assert_eq!(err, CodecError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn invalid_bool_tag_fails() {
        let err = decode::<bool>(&[2]).unwrap_err();
        assert!(matches!(err, CodecError::InvalidTag { tag: 2, .. }));
    }

    #[test]
    fn invalid_option_tag_fails() {
        let err = decode::<Option<u8>>(&[9, 0]).unwrap_err();
        assert!(matches!(err, CodecError::InvalidTag { tag: 9, .. }));
    }

    #[test]
    fn oversized_length_prefix_fails() {
        let mut w = Writer::new();
        w.put_u64(MAX_SEQUENCE_LEN + 1);
        let err = decode::<Vec<u8>>(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, CodecError::LengthOverflow { .. }));
    }

    #[test]
    fn invalid_utf8_fails() {
        let mut w = Writer::new();
        w.put_len_prefixed(&[0xff, 0xfe]);
        let err = decode::<String>(&w.into_bytes()).unwrap_err();
        assert_eq!(err, CodecError::InvalidUtf8);
    }

    #[test]
    fn writer_state_accessors() {
        let mut w = Writer::with_capacity(16);
        assert!(w.is_empty());
        w.put_u8(1);
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
    }
}
