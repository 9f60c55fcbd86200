//! A compact, non-self-describing binary serialization format.
//!
//! The format is deliberately simple so that checkpoint contents remain
//! stable across releases (rollback must be able to read a checkpoint taken
//! by an earlier run of the same binary):
//!
//! * fixed-width integers are little-endian, `usize` travels as `u64`;
//! * `bool` is one byte, `0` or `1`;
//! * floats are their IEEE-754 bit patterns, little-endian;
//! * `char` is its scalar value as a `u32`;
//! * strings and byte slices are a `u64` length followed by the raw bytes;
//! * sequences and maps are a `u64` element count followed by the elements;
//! * `Option<T>` is a tag byte (`0` = `None`, `1` = `Some`) then the value;
//! * structs and tuples are their fields in declaration order, no framing;
//! * enums are a `u32` variant index followed by the variant's fields.
//!
//! Implement [`Codec`] by hand or with the [`codec_struct!`] /
//! [`codec_newtype!`] macros.
//!
//! # Example
//!
//! ```rust
//! use synergy_codec::{from_bytes, to_bytes};
//!
//! let value = (7u64, vec![1u8, 2, 3], Some("hi".to_string()));
//! let bytes = to_bytes(&value).unwrap();
//! let back: (u64, Vec<u8>, Option<String>) = from_bytes(&bytes).unwrap();
//! assert_eq!(back, value);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use core::ops::{Deref, Range};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Things that can go wrong encoding or decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// A free-form message from a `Codec` implementation.
    Message(String),
    /// The input ended before the value was complete.
    UnexpectedEof,
    /// Decoding succeeded but input bytes remain.
    TrailingBytes,
    /// A boolean byte was neither 0 nor 1.
    InvalidBool(u8),
    /// A `u32` was not a valid `char`.
    InvalidChar(u32),
    /// A string's bytes were not valid UTF-8.
    InvalidUtf8,
    /// An `Option` tag byte was neither 0 nor 1.
    InvalidOptionTag(u8),
    /// An enum variant index had no matching variant.
    InvalidVariant(u32),
    /// A length prefix exceeded the remaining input (hostile or corrupt).
    LengthOverflow,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Message(m) => write!(f, "{m}"),
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after value"),
            CodecError::InvalidBool(b) => write!(f, "invalid bool byte: {b}"),
            CodecError::InvalidChar(c) => write!(f, "invalid char scalar: {c}"),
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in string"),
            CodecError::InvalidOptionTag(t) => write!(f, "invalid Option tag: {t}"),
            CodecError::InvalidVariant(v) => write!(f, "invalid enum variant index: {v}"),
            CodecError::LengthOverflow => write!(f, "length prefix exceeds remaining input"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A window onto a shared, immutable byte buffer: an `Arc<[u8]>` plus a
/// range. Cloning and [`slice`](Self::slice) bump a refcount; the bytes are
/// never copied. A checkpoint image travels as one of these, so a record
/// that embeds an image (a chain record inside its wrapper, a wrapper inside
/// the file buffer it was read into) can hand the image out as a window of
/// its own buffer instead of a copy.
///
/// It is wire-identical to `Vec<u8>` (a `u64` length prefix, then the
/// bytes) and compares by content, whatever buffer the bytes sit in.
/// Decoding yields a window when the [`Reader`] was built over a
/// `SharedBytes` ([`Reader::shared`], [`from_shared`]) and a fresh buffer
/// otherwise.
#[derive(Clone)]
pub struct SharedBytes {
    buf: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl SharedBytes {
    /// The sub-window `range` of this window, sharing its buffer.
    ///
    /// # Panics
    ///
    /// Panics if `range` does not lie inside this window — the buffer may
    /// hold a neighbour's bytes on either side, and they are never reachable
    /// from here.
    pub fn slice(&self, range: Range<usize>) -> SharedBytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "window {range:?} out of range for {} shared bytes",
            self.len()
        );
        SharedBytes {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl Deref for SharedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl From<Arc<[u8]>> for SharedBytes {
    fn from(buf: Arc<[u8]>) -> Self {
        let end = buf.len();
        SharedBytes { buf, start: 0, end }
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(bytes: &[u8]) -> Self {
        Arc::<[u8]>::from(bytes).into()
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(bytes: Vec<u8>) -> Self {
        Arc::<[u8]>::from(bytes).into()
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SharedBytes {}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A cursor over the bytes being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The shared buffer `bytes` is the whole of, when there is one.
    source: Option<&'a SharedBytes>,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`. A [`SharedBytes`] decoded through it
    /// is a copy in a buffer of its own.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            source: None,
        }
    }

    /// Creates a reader over a shared buffer. A [`SharedBytes`] decoded
    /// through it is a window of `source`; every other type decodes exactly
    /// as through [`new`](Self::new).
    pub fn shared(source: &'a SharedBytes) -> Self {
        Reader {
            bytes: source,
            pos: 0,
            source: Some(source),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes exactly `n` bytes as shared bytes: a window of the source
    /// buffer for a reader built by [`shared`](Self::shared), a copy
    /// otherwise.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] when fewer than `n` bytes remain.
    pub fn take_shared(&mut self, n: usize) -> Result<SharedBytes, CodecError> {
        let start = self.pos;
        let bytes = self.take(n)?;
        Ok(match self.source {
            Some(source) => source.slice(start..start + n),
            None => bytes.into(),
        })
    }

    /// Consumes one byte.
    pub fn take_byte(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Decodes a `u64` length prefix, validating it against the remaining
    /// input so hostile prefixes cannot trigger huge allocations. `min_width`
    /// is the smallest encoded size of one element.
    pub fn take_len(&mut self, min_width: usize) -> Result<usize, CodecError> {
        let len = u64::decode(self)?;
        let len = usize::try_from(len).map_err(|_| CodecError::LengthOverflow)?;
        if len.saturating_mul(min_width.max(1)) > self.remaining() {
            return Err(CodecError::LengthOverflow);
        }
        Ok(len)
    }
}

/// Binary encode/decode, with the layout documented at the crate root.
pub trait Codec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] describing malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Appends the encodings of `items`, back to back and without a length
    /// prefix. Sequences (`Vec<T>`, `Arc<[T]>`) encode their elements
    /// through this, so a type whose slice has a cheaper encoding than one
    /// call per element overrides it (`u8` is one bulk copy) — the
    /// `Hash::hash_slice` pattern. An override must produce the same bytes
    /// as the element-wise default.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// Decodes `len` values written by [`encode_slice`](Self::encode_slice).
    /// Callers validate `len` against the remaining input first
    /// ([`Reader::take_len`]), so the allocation is bounded by the input.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] describing malformed input.
    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, CodecError> {
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(Self::decode(r)?);
        }
        Ok(items)
    }
}

/// Encodes `value` to a byte vector.
///
/// # Errors
///
/// Encoding itself cannot fail; the `Result` keeps call sites uniform with
/// [`from_bytes`].
pub fn to_bytes<T: Codec>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    value.encode(&mut out);
    Ok(out)
}

/// Encodes `value` into `out`, clearing it first. The buffer's capacity is
/// retained across calls, so hot paths that serialize repeatedly (checkpoint
/// establishment, stable writes) can reuse one scratch allocation instead of
/// growing a fresh `Vec` every time.
///
/// # Errors
///
/// Encoding itself cannot fail; the `Result` keeps call sites uniform with
/// [`to_bytes`].
pub fn to_bytes_into<T: Codec>(value: &T, out: &mut Vec<u8>) -> Result<(), CodecError> {
    out.clear();
    value.encode(out);
    Ok(())
}

/// Decodes a `T` from `bytes`, requiring the input to be fully consumed.
///
/// # Errors
///
/// Any [`CodecError`]; [`CodecError::TrailingBytes`] when input remains
/// after the value.
pub fn from_bytes<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
    finish(Reader::new(bytes))
}

/// [`from_bytes`] over a shared buffer: every [`SharedBytes`] inside the
/// decoded value is a window of `source`, not a copy.
///
/// # Errors
///
/// As [`from_bytes`].
pub fn from_shared<T: Codec>(source: &SharedBytes) -> Result<T, CodecError> {
    finish(Reader::shared(source))
}

fn finish<T: Codec>(mut r: Reader<'_>) -> Result<T, CodecError> {
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes);
    }
    Ok(value)
}

macro_rules! codec_int {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let bytes = r.take(core::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("width checked")))
            }
        }
    )*};
}

codec_int!(u16, u32, u64, u128, i8, i16, i32, i64, i128);

/// Bytes move in bulk: a `Vec<u8>` or `Arc<[u8]>` (wire payloads, dirty
/// regions) is one length prefix and one `memcpy` each way; a
/// [`SharedBytes`] (checkpoint images) is the same going out and a window,
/// no copy, coming in through [`Reader::shared`].
impl Codec for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.take_byte()
    }
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, CodecError> {
        Ok(r.take(len)?.to_vec())
    }
}

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        usize::try_from(u64::decode(r)?).map_err(|_| CodecError::LengthOverflow)
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::InvalidBool(other)),
        }
    }
}

impl Codec for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f32::from_bits(u32::decode(r)?))
    }
}

impl Codec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Codec for char {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u32).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let scalar = u32::decode(r)?;
        char::from_u32(scalar).ok_or(CodecError::InvalidChar(scalar))
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_len(1)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        T::encode_slice(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_len(1)?;
        T::decode_vec(r, len)
    }
}

/// `Arc<T>` is wire-transparent: it encodes exactly like `T`, so switching a
/// field to a shared pointer never changes the byte layout (checkpoint CRCs
/// and committed `results/` traces stay identical).
impl<T: Codec> Codec for Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

/// `Arc<[T]>` is wire-identical to `Vec<T>` (u64 length prefix + elements).
impl<T: Codec> Codec for Arc<[T]> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        T::encode_slice(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

/// Wire-identical to `Vec<u8>` (u64 length prefix + the bytes).
impl Codec for SharedBytes {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_len(1)?;
        r.take_shared(len)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(CodecError::InvalidOptionTag(other)),
        }
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_len(2)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        T::encode_slice(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        T::decode_vec(r, N)?
            .try_into()
            .map_err(|_| CodecError::Message("array length mismatch".into()))
    }
}

impl Codec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

macro_rules! codec_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

codec_tuple!(A: 0);
codec_tuple!(A: 0, B: 1);
codec_tuple!(A: 0, B: 1, C: 2);
codec_tuple!(A: 0, B: 1, C: 2, D: 3);
codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);

/// Implements [`Codec`] for a struct with named fields, encoding the listed
/// fields in order.
///
/// ```rust
/// struct Point { x: u32, y: u32 }
/// synergy_codec::codec_struct!(Point { x, y });
/// ```
#[macro_export]
macro_rules! codec_struct {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::Codec for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::Codec::encode(&self.$field, out);)*
            }
            fn decode(
                r: &mut $crate::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::CodecError> {
                Ok(Self {
                    $($field: $crate::Codec::decode(r)?,)*
                })
            }
        }
    };
}

/// Implements [`Codec`] for a single-field tuple struct (newtype).
///
/// ```rust
/// struct Id(u64);
/// synergy_codec::codec_newtype!(Id);
/// ```
#[macro_export]
macro_rules! codec_newtype {
    ($ty:ty) => {
        impl $crate::Codec for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $crate::Codec::encode(&self.0, out);
            }
            fn decode(
                r: &mut $crate::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::CodecError> {
                Ok(Self($crate::Codec::decode(r)?))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + core::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value).unwrap();
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn arc_encodes_like_inner() {
        let v: Vec<u32> = vec![1, 2, 3];
        let shared: Arc<[u32]> = v.clone().into();
        assert_eq!(to_bytes(&shared).unwrap(), to_bytes(&v).unwrap());
        let boxed = Arc::new(String::from("layout"));
        assert_eq!(
            to_bytes(&boxed).unwrap(),
            to_bytes(&String::from("layout")).unwrap()
        );
        let back: Arc<[u32]> = from_bytes(&to_bytes(&shared).unwrap()).unwrap();
        assert_eq!(back.as_ref(), v.as_slice());
        roundtrip(Arc::new(42u64));
    }

    /// The sequence layout written out longhand — a `u64` count, then one
    /// `encode` call per element — against which the slice paths are held.
    fn elementwise<T: Codec>(items: &[T]) -> Vec<u8> {
        let mut out = (items.len() as u64).to_le_bytes().to_vec();
        for item in items {
            item.encode(&mut out);
        }
        out
    }

    #[test]
    fn bulk_bytes_match_generic_vec_layout() {
        for payload in [vec![], vec![7u8], (0..=255u8).collect::<Vec<u8>>()] {
            let want = elementwise(&payload);
            assert_eq!(to_bytes(&payload).unwrap(), want);
            let shared: Arc<[u8]> = payload.as_slice().into();
            assert_eq!(to_bytes(&shared).unwrap(), want);
            assert_eq!(from_bytes::<Vec<u8>>(&want).unwrap(), payload);
            assert_eq!(from_bytes::<Arc<[u8]>>(&want).unwrap(), shared);
            // A window encodes as the bytes it shows, not as its buffer, and
            // decodes to the same bytes through either reader.
            let padded = [&[0xEE; 3][..], &payload, &[0xEE; 2]].concat();
            let window = SharedBytes::from(padded).slice(3..3 + payload.len());
            assert_eq!(to_bytes(&window).unwrap(), want);
            assert_eq!(from_bytes::<SharedBytes>(&want).unwrap(), window);
            assert_eq!(from_shared::<SharedBytes>(&want.into()).unwrap(), window);
        }
        // Hostile prefix must not allocate.
        let bytes = to_bytes(&u64::MAX).unwrap();
        assert_eq!(
            from_bytes::<Vec<u8>>(&bytes),
            Err(CodecError::LengthOverflow)
        );
        assert_eq!(
            from_bytes::<Arc<[u8]>>(&bytes),
            Err(CodecError::LengthOverflow)
        );
        assert_eq!(
            from_bytes::<SharedBytes>(&bytes),
            Err(CodecError::LengthOverflow)
        );
        assert_eq!(
            from_shared::<SharedBytes>(&bytes.into()),
            Err(CodecError::LengthOverflow)
        );
    }

    #[test]
    fn shared_reader_hands_out_windows_and_plain_reader_copies() {
        let value = (7u32, SharedBytes::from(vec![1u8, 2, 3, 4, 5]), 9u8);
        let source = SharedBytes::from(to_bytes(&value).unwrap());
        let inside = |b: &SharedBytes| {
            let (outer, inner) = (source.as_ptr_range(), b.as_ptr_range());
            outer.start <= inner.start && inner.end <= outer.end
        };
        let shared: (u32, SharedBytes, u8) = from_shared(&source).unwrap();
        assert_eq!(shared, value);
        assert!(inside(&shared.1), "a window of the source buffer");
        assert_eq!(shared.1.as_ptr(), source[4 + 8..].as_ptr());
        let copied: (u32, SharedBytes, u8) = from_bytes(&source).unwrap();
        assert_eq!(copied, value);
        assert!(!inside(&copied.1), "a buffer of its own");
        // A window of a window stays inside both, and an empty one is fine.
        let sub = shared.1.slice(1..4);
        assert_eq!(&*sub, [2, 3, 4]);
        assert!(inside(&sub));
        assert!(sub.slice(3..3).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_past_the_window_panics_rather_than_reading_a_neighbour() {
        // The buffer is longer than the window on both sides; the window's
        // own length is the bound.
        let window = SharedBytes::from(vec![0u8; 16]).slice(4..8);
        let _ = window.slice(2..5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_with_inverted_bounds_panics() {
        #[allow(clippy::reversed_empty_ranges)]
        let _ = SharedBytes::from(vec![0u8; 16]).slice(5..4);
    }

    #[test]
    fn slice_paths_match_elementwise_layout_for_wider_elements() {
        let words: Vec<u16> = vec![0, 1, 0x0102, u16::MAX];
        assert_eq!(to_bytes(&words).unwrap(), elementwise(&words));
        roundtrip(words);

        // Nested: the inner byte vectors written one byte per push.
        let pairs: Vec<(String, Vec<u8>)> = vec![
            ("a".into(), vec![1, 2, 3]),
            (String::new(), vec![]),
            ("héllo".into(), (0..=255u8).rev().collect()),
        ];
        let mut want = (pairs.len() as u64).to_le_bytes().to_vec();
        for (name, bytes) in &pairs {
            want.extend_from_slice(&(name.len() as u64).to_le_bytes());
            want.extend_from_slice(name.as_bytes());
            want.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            for b in bytes {
                want.push(*b);
            }
        }
        assert_eq!(to_bytes(&pairs).unwrap(), want);
        roundtrip(pairs);
        roundtrip([9u8, 8, 7, 6]);
    }

    #[test]
    fn truncated_and_overlong_sequences_are_typed_errors() {
        let bytes = to_bytes(&vec![1u8, 2, 3, 4, 5]).unwrap();
        // Cut inside the prefix: the length itself is incomplete.
        assert_eq!(
            from_bytes::<Vec<u8>>(&bytes[..5]),
            Err(CodecError::UnexpectedEof)
        );
        assert_eq!(
            from_bytes::<Arc<[u8]>>(&bytes[..5]),
            Err(CodecError::UnexpectedEof)
        );
        assert_eq!(
            from_bytes::<SharedBytes>(&bytes[..5]),
            Err(CodecError::UnexpectedEof)
        );
        assert_eq!(
            from_shared::<SharedBytes>(&bytes[..5].into()),
            Err(CodecError::UnexpectedEof)
        );
        // Cut inside the body: the prefix promises more than remains.
        assert_eq!(
            from_bytes::<Vec<u8>>(&bytes[..bytes.len() - 1]),
            Err(CodecError::LengthOverflow)
        );
        assert_eq!(
            from_bytes::<Arc<[u8]>>(&bytes[..bytes.len() - 1]),
            Err(CodecError::LengthOverflow)
        );
        assert_eq!(
            from_bytes::<SharedBytes>(&bytes[..bytes.len() - 1]),
            Err(CodecError::LengthOverflow)
        );
        assert_eq!(
            from_shared::<SharedBytes>(&bytes[..bytes.len() - 1].into()),
            Err(CodecError::LengthOverflow)
        );
        // A window's bound is the window: bytes after it in the buffer are
        // not input, so the same cut made by slicing is the same error.
        let whole = SharedBytes::from(bytes.clone());
        assert_eq!(
            from_shared::<SharedBytes>(&whole.slice(0..bytes.len() - 1)),
            Err(CodecError::LengthOverflow)
        );
        // Wider elements: three u16 promised, two delivered — the prefix
        // passes the one-byte-per-element bound and the third decode runs dry.
        let words = to_bytes(&vec![1u16, 2, 3]).unwrap();
        assert_eq!(
            from_bytes::<Vec<u16>>(&words[..words.len() - 2]),
            Err(CodecError::UnexpectedEof)
        );
        assert_eq!(
            from_bytes::<Vec<u16>>(&words[..8 + 2]),
            Err(CodecError::LengthOverflow)
        );
    }

    #[test]
    fn to_bytes_into_reuses_buffer() {
        let mut scratch = Vec::with_capacity(64);
        to_bytes_into(&vec![1u8, 2, 3], &mut scratch).unwrap();
        assert_eq!(scratch, to_bytes(&vec![1u8, 2, 3]).unwrap());
        let cap = scratch.capacity();
        let ptr = scratch.as_ptr();
        to_bytes_into(&vec![9u8], &mut scratch).unwrap();
        assert_eq!(scratch, to_bytes(&vec![9u8]).unwrap());
        assert_eq!(scratch.capacity(), cap, "capacity retained across calls");
        assert_eq!(scratch.as_ptr(), ptr, "no reallocation on shrink");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(123_456_789u32);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX);
        roundtrip(-5i8);
        roundtrip(i64::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f32);
        roundtrip(-0.125f64);
        roundtrip('λ');
        roundtrip("héllo".to_string());
        roundtrip(42usize);
    }

    #[test]
    fn integers_are_fixed_width_little_endian() {
        assert_eq!(to_bytes(&1u16).unwrap(), vec![1, 0]);
        assert_eq!(to_bytes(&1u32).unwrap(), vec![1, 0, 0, 0]);
        assert_eq!(to_bytes(&0x0102_0304u32).unwrap(), vec![4, 3, 2, 1]);
        assert_eq!(to_bytes(&1u64).unwrap(), vec![1, 0, 0, 0, 0, 0, 0, 0]);
        // usize travels as u64 regardless of platform width.
        assert_eq!(to_bytes(&1usize).unwrap(), to_bytes(&1u64).unwrap());
    }

    #[test]
    fn string_layout_is_length_prefixed() {
        let bytes = to_bytes(&"ab".to_string()).unwrap();
        assert_eq!(bytes, vec![2, 0, 0, 0, 0, 0, 0, 0, b'a', b'b']);
    }

    #[test]
    fn option_layout_is_tagged() {
        assert_eq!(to_bytes(&Option::<u8>::None).unwrap(), vec![0]);
        assert_eq!(to_bytes(&Some(7u8)).unwrap(), vec![1, 7]);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<String>::new());
        roundtrip(Some(vec![false, true]));
        roundtrip(Option::<u64>::None);
        let mut map = BTreeMap::new();
        map.insert("k".to_string(), vec![9u8]);
        map.insert("z".to_string(), vec![]);
        roundtrip(map);
        roundtrip([3u32, 2, 1]);
        roundtrip((1u8, "x".to_string(), Some(2u64), vec![0u8; 4]));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let value: Vec<(String, u64, Option<i32>, Vec<u8>)> = vec![
            ("a".into(), 1, None, vec![1, 2]),
            ("b".into(), u64::MAX, Some(-9), vec![]),
        ];
        roundtrip(value);
    }

    #[test]
    fn encoding_is_deterministic() {
        let value = (vec![("x".to_string(), 3u64)], Some(false));
        assert_eq!(to_bytes(&value).unwrap(), to_bytes(&value).unwrap());
    }

    #[test]
    fn truncated_input_is_eof() {
        let bytes = to_bytes(&12345u64).unwrap();
        assert_eq!(
            from_bytes::<u64>(&bytes[..4]),
            Err(CodecError::UnexpectedEof)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&1u8).unwrap();
        bytes.push(0);
        assert_eq!(from_bytes::<u8>(&bytes), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // A length prefix of u64::MAX must not allocate.
        let bytes = to_bytes(&u64::MAX).unwrap();
        assert_eq!(
            from_bytes::<Vec<u8>>(&bytes),
            Err(CodecError::LengthOverflow)
        );
        assert_eq!(
            from_bytes::<String>(&bytes),
            Err(CodecError::LengthOverflow)
        );
    }

    #[test]
    fn invalid_bool_and_option_tags_rejected() {
        assert_eq!(from_bytes::<bool>(&[2]), Err(CodecError::InvalidBool(2)));
        assert_eq!(
            from_bytes::<Option<u8>>(&[9]),
            Err(CodecError::InvalidOptionTag(9))
        );
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = to_bytes(&2u64).unwrap();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(from_bytes::<String>(&bytes), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn invalid_char_rejected() {
        let bytes = to_bytes(&0xD800u32).unwrap(); // a lone surrogate
        assert_eq!(
            from_bytes::<char>(&bytes),
            Err(CodecError::InvalidChar(0xD800))
        );
    }

    #[test]
    fn garbage_never_panics() {
        // Every error path must be a clean Err, whatever the input.
        for len in 0..64usize {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let _ = from_bytes::<Vec<(String, u64)>>(&bytes);
            let _ = from_bytes::<Option<Vec<bool>>>(&bytes);
            let _ = from_bytes::<(u8, u16, u32, u64)>(&bytes);
            let _ = from_bytes::<BTreeMap<String, Vec<u8>>>(&bytes);
        }
    }

    #[test]
    fn macro_struct_and_newtype() {
        #[derive(Debug, PartialEq)]
        struct Id(u64);
        codec_newtype!(Id);

        #[derive(Debug, PartialEq)]
        struct Record {
            id: Id,
            tags: Vec<String>,
            live: bool,
        }
        codec_struct!(Record { id, tags, live });

        let record = Record {
            id: Id(8),
            tags: vec!["a".into()],
            live: true,
        };
        let bytes = to_bytes(&record).unwrap();
        let back: Record = from_bytes(&bytes).unwrap();
        assert_eq!(back, record);
    }
}
