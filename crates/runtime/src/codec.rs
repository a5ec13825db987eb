//! A compact, non-self-describing binary serde format for wire messages.
//!
//! The sanctioned dependency set contains `serde` but no serialization
//! *format* crate, so the TCP transport carries messages in this
//! hand-rolled encoding (in the spirit of `bincode`):
//!
//! * fixed-width little-endian integers;
//! * `u8` tags for `Option` / `bool`;
//! * `u32` variant indices for enums;
//! * `u64` element counts for sequences, maps, strings and byte blobs;
//! * structs and tuples are field concatenations with no framing.
//!
//! Like any non-self-describing format it only round-trips through
//! `Deserialize` implementations that mirror the `Serialize` side (true
//! for all derived impls, which is all this workspace uses);
//! `deserialize_any` is unsupported.

use std::fmt;

use serde::de::{self, DeserializeOwned, IntoDeserializer};
use serde::ser::{self, Serialize};

/// Encoding/decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// Trailing bytes remained after a complete value.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// A `bool`/`Option` tag byte was neither 0 nor 1.
    InvalidTag(u8),
    /// A char was not a valid Unicode scalar value.
    InvalidChar(u32),
    /// The type requires a self-describing format.
    NotSelfDescribing,
    /// Error bubbled up from a `Serialize`/`Deserialize` impl.
    Custom(String),
    /// A frame or shard envelope did not begin with its magic word.
    BadMagic,
    /// A wire length prefix exceeded [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN).
    FrameTooLong {
        /// The advertised length.
        len: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after value")
            }
            CodecError::InvalidUtf8 => write!(f, "invalid utf-8 in string"),
            CodecError::InvalidTag(t) => write!(f, "invalid tag byte {t}"),
            CodecError::InvalidChar(c) => write!(f, "invalid char scalar {c}"),
            CodecError::NotSelfDescribing => {
                write!(f, "this format is not self-describing")
            }
            CodecError::Custom(msg) => f.write_str(msg),
            CodecError::BadMagic => write!(f, "missing frame or shard magic"),
            CodecError::FrameTooLong { len } => write!(f, "{len}-byte frame exceeds the limit"),
        }
    }
}

impl std::error::Error for CodecError {}

impl ser::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Custom(msg.to_string())
    }
}

impl de::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Custom(msg.to_string())
    }
}

/// Serializes `value` into a fresh byte vector.
///
/// # Errors
///
/// Returns [`CodecError`] if the value's `Serialize` impl fails (the
/// format itself never rejects a value).
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(64);
    value.serialize(&mut Encoder { out: &mut out })?;
    Ok(out)
}

/// Deserializes a value from `bytes`, requiring all input be consumed.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed or trailing input.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut d = Decoder { input: bytes };
    let value = T::deserialize(&mut d)?;
    if d.input.is_empty() {
        Ok(value)
    } else {
        Err(CodecError::TrailingBytes {
            remaining: d.input.len(),
        })
    }
}

/// Tag opening every transport payload: a frame carrying one or more
/// encoded messages (see [`pack_frame`]).
///
/// Every backend ships every payload in this layout, however many
/// messages it carries, so a receiver has one format to parse. A
/// payload that does not begin with the magic is malformed and dropped.
pub const FRAME_MAGIC: u32 = 0xC0A1_E5CE;

/// Packs `payloads` (each one encoded message) into a single frame:
///
/// ```text
/// [FRAME_MAGIC: u32 LE][count: u32 LE] ([len: u32 LE][payload bytes])*
/// ```
///
/// The inverse is [`frame_messages`]. Transports use this so one syscall
/// (or one in-memory channel send) can carry a whole flush of messages.
///
/// # Panics
///
/// Panics if a payload exceeds `u32::MAX` bytes or there are more than
/// `u32::MAX` payloads (far beyond any real flush).
pub fn pack_frame(payloads: &[bytes::Bytes]) -> bytes::Bytes {
    let body: usize = payloads.iter().map(|p| 4 + p.len()).sum();
    let mut out = Vec::with_capacity(8 + body);
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    let count = u32::try_from(payloads.len()).expect("frame message count fits u32");
    out.extend_from_slice(&count.to_le_bytes());
    for p in payloads {
        let len = u32::try_from(p.len()).expect("frame payload length fits u32");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(p);
    }
    bytes::Bytes::from(out)
}

/// Validates a transport payload and returns a borrowing iterator over
/// its messages, used on the receive path: the runtime node dispatches
/// messages straight out of the buffer they were read into, with no
/// allocation per message.
///
/// The whole frame is validated *before* the iterator is returned, so
/// iteration itself cannot fail and a malformed frame is rejected
/// without delivering a prefix of its messages.
///
/// # Errors
///
/// Returns [`CodecError::BadMagic`] if the payload does not begin with
/// [`FRAME_MAGIC`], [`CodecError::UnexpectedEof`] if the frame is
/// truncated mid-header or mid-payload, and
/// [`CodecError::TrailingBytes`] if bytes remain after the advertised
/// message count.
pub fn frame_messages(payload: &[u8]) -> Result<FrameMessages<'_>, CodecError> {
    let mut rest = strip_magic(payload, FRAME_MAGIC)?;
    // Validation walk: confirm every advertised sub-payload is present
    // and nothing trails, without materializing anything.
    let take4 = |rest: &mut &[u8]| -> Result<u32, CodecError> {
        if rest.len() < 4 {
            return Err(CodecError::UnexpectedEof);
        }
        let (head, tail) = rest.split_at(4);
        *rest = tail;
        Ok(u32::from_le_bytes(head.try_into().expect("exact length")))
    };
    let count = take4(&mut rest)?;
    let body = rest;
    for _ in 0..count {
        let len = take4(&mut rest)? as usize;
        if rest.len() < len {
            return Err(CodecError::UnexpectedEof);
        }
        rest = &rest[len..];
    }
    if !rest.is_empty() {
        return Err(CodecError::TrailingBytes {
            remaining: rest.len(),
        });
    }
    Ok(FrameMessages {
        rest: body,
        remaining: count,
    })
}

/// `payload` past its leading `magic` word.
fn strip_magic(payload: &[u8], magic: u32) -> Result<&[u8], CodecError> {
    match payload.split_at_checked(4) {
        Some((head, rest)) if head == magic.to_le_bytes() => Ok(rest),
        _ => Err(CodecError::BadMagic),
    }
}

/// Borrowing iterator over the messages of a validated frame; see
/// [`frame_messages`].
#[derive(Debug, Clone)]
pub struct FrameMessages<'a> {
    rest: &'a [u8],
    remaining: u32,
}

impl<'a> Iterator for FrameMessages<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Headers were validated up front; the splits cannot fail.
        let (head, tail) = self.rest.split_at(4);
        let len = u32::from_le_bytes(head.try_into().expect("exact length")) as usize;
        let (msg, tail) = tail.split_at(len);
        self.rest = tail;
        Some(msg)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for FrameMessages<'_> {}

/// Incremental reassembly of `[len: u32 LE][payload]` wire frames from
/// arbitrarily-split reads, with one reusable buffer.
///
/// This is the receive half of the zero-copy hot path: a transport
/// reads whatever bytes the socket has into [`FrameAssembler::
/// read_slot`], commits the read length, and drains complete frames
/// with [`FrameAssembler::next_frame`] — each returned slice borrows
/// the internal buffer, so steady-state reassembly performs **no
/// allocation per frame** (the buffer grows to the high-water frame
/// size once and is reused; consumed bytes are compacted in place).
/// Frames split at any byte boundary across reads — mid-length-prefix,
/// mid-payload — reassemble exactly; the codec proptests drive every
/// split point.
///
/// The assembler is transport-agnostic: the reactor uses one per
/// connection, and the conformance/property tests drive it directly.
#[derive(Debug)]
pub struct FrameAssembler {
    /// The reusable buffer. `buf[start..end]` holds unconsumed bytes;
    /// `buf[end..]` is writable scratch handed out by `read_slot`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameAssembler {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameAssembler {
    /// An assembler with the default initial capacity (16 KiB).
    pub fn new() -> Self {
        Self::with_capacity(16 * 1024)
    }

    /// An assembler whose buffer starts at `cap` bytes (it still grows
    /// to the high-water frame size on demand).
    pub fn with_capacity(cap: usize) -> Self {
        FrameAssembler {
            buf: vec![0; cap.max(8)],
            start: 0,
            end: 0,
        }
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Current buffer capacity — exposed so tests can pin that steady
    /// state stops growing.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// A writable window of at least `min` bytes to read into; follow
    /// with [`FrameAssembler::commit`] for however many bytes landed.
    ///
    /// Consumed bytes are compacted away before the buffer grows, so
    /// capacity tracks the largest in-flight frame, not the total
    /// traffic.
    pub fn read_slot(&mut self, min: usize) -> &mut [u8] {
        let min = min.max(1);
        if self.buf.len() - self.end < min {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.buf.len() - self.end < min {
                let target = (self.end + min).next_power_of_two();
                self.buf.resize(target, 0);
            }
        }
        &mut self.buf[self.end..]
    }

    /// Marks `n` bytes of the last [`FrameAssembler::read_slot`] as
    /// filled.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the last slot's length.
    pub fn commit(&mut self, n: usize) {
        assert!(n <= self.buf.len() - self.end, "commit beyond read slot");
        self.end += n;
    }

    /// Consumes and returns the next `n` raw bytes, if buffered — used
    /// for the connection handshake, which is not length-prefixed.
    pub fn next_bytes(&mut self, n: usize) -> Option<&[u8]> {
        if self.buffered() < n {
            return None;
        }
        let slice_start = self.start;
        self.start += n;
        // Fully drained: rewind so the next read starts at the front
        // without a copy_within. The returned slice is untouched.
        self.rewind_if_empty();
        Some(&self.buf[slice_start..slice_start + n])
    }

    /// Consumes and returns the next complete `[len][payload]` frame's
    /// payload, or `None` if only a partial frame is buffered.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::FrameTooLong`] when the buffered length
    /// prefix exceeds [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN); the
    /// stream's framing cannot be trusted past it, so the caller closes
    /// the connection rather than buffer up to 4 GiB.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, CodecError> {
        if self.buffered() < 4 {
            self.rewind_if_empty();
            return Ok(None);
        }
        let head: [u8; 4] = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("exact length");
        let len = u32::from_le_bytes(head) as usize;
        if len > crate::MAX_FRAME_LEN {
            return Err(CodecError::FrameTooLong { len });
        }
        if self.buffered() - 4 < len {
            return Ok(None);
        }
        let payload_start = self.start + 4;
        self.start = payload_start + len;
        self.rewind_if_empty();
        Ok(Some(&self.buf[payload_start..payload_start + len]))
    }

    fn rewind_if_empty(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }
}

/// Tag opening every message inside a frame: the shard envelope naming
/// the consensus group (shard) the message belongs to (see
/// [`tag_shard`]).
///
/// Every message is enveloped, including on a one-shard cluster, so a
/// message without the magic is malformed and dropped.
pub const SHARD_MAGIC: u32 = 0xC0A1_E5CF;

/// Wraps one encoded message payload in a shard envelope:
///
/// ```text
/// [SHARD_MAGIC: u32 LE][shard: u32 LE][payload bytes]
/// ```
///
/// The inverse is [`split_shard_ref`]. Nodes tag each message with its
/// group before handing it to the transport; the envelope nests
/// *inside* frames (tag first, [`pack_frame`] second), so one transport
/// frame can interleave traffic for many shards.
pub fn tag_shard(shard: u32, payload: &bytes::Bytes) -> bytes::Bytes {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&SHARD_MAGIC.to_le_bytes());
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(payload);
    bytes::Bytes::from(out)
}

/// Splits a shard envelope into its shard id and a slice of the inner
/// payload, without copying: the node deserializes the protocol message
/// straight out of the returned slice.
///
/// # Errors
///
/// Returns [`CodecError::BadMagic`] if the payload does not begin with
/// [`SHARD_MAGIC`], and [`CodecError::UnexpectedEof`] if it is
/// truncated before the shard id completes.
pub fn split_shard_ref(payload: &[u8]) -> Result<(u32, &[u8]), CodecError> {
    let rest = strip_magic(payload, SHARD_MAGIC)?;
    let (shard, inner) = rest.split_at_checked(4).ok_or(CodecError::UnexpectedEof)?;
    Ok((
        u32::from_le_bytes(shard.try_into().expect("exact length")),
        inner,
    ))
}

struct Encoder<'a> {
    out: &'a mut Vec<u8>,
}

impl Encoder<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }
}

macro_rules! ser_int {
    ($method:ident, $ty:ty) => {
        fn $method(self, v: $ty) -> Result<(), CodecError> {
            self.put(&v.to_le_bytes());
            Ok(())
        }
    };
}

impl ser::Serializer for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), CodecError> {
        self.put(&[u8::from(v)]);
        Ok(())
    }

    ser_int!(serialize_i8, i8);
    ser_int!(serialize_i16, i16);
    ser_int!(serialize_i32, i32);
    ser_int!(serialize_i64, i64);
    ser_int!(serialize_u8, u8);
    ser_int!(serialize_u16, u16);
    ser_int!(serialize_u32, u32);
    ser_int!(serialize_u64, u64);
    ser_int!(serialize_f32, f32);
    ser_int!(serialize_f64, f64);

    fn serialize_char(self, v: char) -> Result<(), CodecError> {
        self.serialize_u32(v as u32)
    }

    fn serialize_str(self, v: &str) -> Result<(), CodecError> {
        self.serialize_bytes(v.as_bytes())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), CodecError> {
        self.put(&(v.len() as u64).to_le_bytes());
        self.put(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), CodecError> {
        self.put(&[0]);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CodecError> {
        self.put(&[1]);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), CodecError> {
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), CodecError> {
        self.serialize_u32(variant_index)
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.serialize_u32(variant_index)?;
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or_else(|| {
            ser::Error::custom("sequences must have a known length in this format")
        })?;
        self.put(&(len as u64).to_le_bytes());
        Ok(self)
    }

    fn serialize_tuple(self, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }

    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.put(&variant_index.to_le_bytes());
        Ok(self)
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len =
            len.ok_or_else(|| ser::Error::custom("maps must have a known length in this format"))?;
        self.put(&(len as u64).to_le_bytes());
        Ok(self)
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.put(&variant_index.to_le_bytes());
        Ok(self)
    }
}

macro_rules! ser_compound {
    ($trait_:path, $method:ident $(, $key:ident)?) => {
        impl $trait_ for &mut Encoder<'_> {
            type Ok = ();
            type Error = CodecError;

            $(fn $key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CodecError> {
                key.serialize(&mut **self)
            })?

            fn $method<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
                value.serialize(&mut **self)
            }

            fn end(self) -> Result<(), CodecError> {
                Ok(())
            }
        }
    };
}

ser_compound!(ser::SerializeSeq, serialize_element);
ser_compound!(ser::SerializeTuple, serialize_element);
ser_compound!(ser::SerializeTupleStruct, serialize_field);
ser_compound!(ser::SerializeTupleVariant, serialize_field);
ser_compound!(ser::SerializeMap, serialize_value, serialize_key);

impl ser::SerializeStruct for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeStructVariant for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

struct Decoder<'de> {
    input: &'de [u8],
}

impl<'de> Decoder<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("exact length"))
    }

    fn take_len(&mut self) -> Result<usize, CodecError> {
        let len = u64::from_le_bytes(self.take_array()?);
        usize::try_from(len).map_err(|_| CodecError::UnexpectedEof)
    }

    fn take_tag(&mut self) -> Result<bool, CodecError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

macro_rules! de_int {
    ($method:ident, $visit:ident, $ty:ty) => {
        fn $method<W: de::Visitor<'de>>(self, visitor: W) -> Result<W::Value, CodecError> {
            visitor.$visit(<$ty>::from_le_bytes(self.take_array()?))
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Decoder<'de> {
    type Error = CodecError;

    fn deserialize_any<W: de::Visitor<'de>>(self, _visitor: W) -> Result<W::Value, CodecError> {
        Err(CodecError::NotSelfDescribing)
    }

    fn deserialize_bool<W: de::Visitor<'de>>(self, visitor: W) -> Result<W::Value, CodecError> {
        visitor.visit_bool(self.take_tag()?)
    }

    de_int!(deserialize_i8, visit_i8, i8);
    de_int!(deserialize_i16, visit_i16, i16);
    de_int!(deserialize_i32, visit_i32, i32);
    de_int!(deserialize_i64, visit_i64, i64);
    de_int!(deserialize_u8, visit_u8, u8);
    de_int!(deserialize_u16, visit_u16, u16);
    de_int!(deserialize_u32, visit_u32, u32);
    de_int!(deserialize_u64, visit_u64, u64);
    de_int!(deserialize_f32, visit_f32, f32);
    de_int!(deserialize_f64, visit_f64, f64);

    fn deserialize_char<W: de::Visitor<'de>>(self, visitor: W) -> Result<W::Value, CodecError> {
        let raw = u32::from_le_bytes(self.take_array()?);
        visitor.visit_char(char::from_u32(raw).ok_or(CodecError::InvalidChar(raw))?)
    }

    fn deserialize_str<W: de::Visitor<'de>>(self, visitor: W) -> Result<W::Value, CodecError> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        visitor.visit_borrowed_str(std::str::from_utf8(bytes).map_err(|_| CodecError::InvalidUtf8)?)
    }

    fn deserialize_string<W: de::Visitor<'de>>(self, visitor: W) -> Result<W::Value, CodecError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<W: de::Visitor<'de>>(self, visitor: W) -> Result<W::Value, CodecError> {
        let len = self.take_len()?;
        visitor.visit_borrowed_bytes(self.take(len)?)
    }

    fn deserialize_byte_buf<W: de::Visitor<'de>>(self, visitor: W) -> Result<W::Value, CodecError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<W: de::Visitor<'de>>(self, visitor: W) -> Result<W::Value, CodecError> {
        if self.take_tag()? {
            visitor.visit_some(self)
        } else {
            visitor.visit_none()
        }
    }

    fn deserialize_unit<W: de::Visitor<'de>>(self, visitor: W) -> Result<W::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<W: de::Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: W,
    ) -> Result<W::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<W: de::Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: W,
    ) -> Result<W::Value, CodecError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<W: de::Visitor<'de>>(self, visitor: W) -> Result<W::Value, CodecError> {
        let len = self.take_len()?;
        visitor.visit_seq(Counted {
            de: self,
            remaining: len,
        })
    }

    fn deserialize_tuple<W: de::Visitor<'de>>(
        self,
        len: usize,
        visitor: W,
    ) -> Result<W::Value, CodecError> {
        visitor.visit_seq(Counted {
            de: self,
            remaining: len,
        })
    }

    fn deserialize_tuple_struct<W: de::Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: W,
    ) -> Result<W::Value, CodecError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<W: de::Visitor<'de>>(self, visitor: W) -> Result<W::Value, CodecError> {
        let len = self.take_len()?;
        visitor.visit_map(Counted {
            de: self,
            remaining: len,
        })
    }

    fn deserialize_struct<W: de::Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: W,
    ) -> Result<W::Value, CodecError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<W: de::Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: W,
    ) -> Result<W::Value, CodecError> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<W: de::Visitor<'de>>(
        self,
        _visitor: W,
    ) -> Result<W::Value, CodecError> {
        Err(CodecError::NotSelfDescribing)
    }

    fn deserialize_ignored_any<W: de::Visitor<'de>>(
        self,
        _visitor: W,
    ) -> Result<W::Value, CodecError> {
        Err(CodecError::NotSelfDescribing)
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct Counted<'a, 'de> {
    de: &'a mut Decoder<'de>,
    remaining: usize,
}

impl<'de> de::SeqAccess<'de> for Counted<'_, 'de> {
    type Error = CodecError;

    fn next_element_seed<S: de::DeserializeSeed<'de>>(
        &mut self,
        seed: S,
    ) -> Result<Option<S::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

impl<'de> de::MapAccess<'de> for Counted<'_, 'de> {
    type Error = CodecError;

    fn next_key_seed<S: de::DeserializeSeed<'de>>(
        &mut self,
        seed: S,
    ) -> Result<Option<S::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<S: de::DeserializeSeed<'de>>(
        &mut self,
        seed: S,
    ) -> Result<S::Value, CodecError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut Decoder<'de>,
}

impl<'de> de::EnumAccess<'de> for EnumAccess<'_, 'de> {
    type Error = CodecError;
    type Variant = Self;

    fn variant_seed<S: de::DeserializeSeed<'de>>(
        self,
        seed: S,
    ) -> Result<(S::Value, Self), CodecError> {
        let index = u32::from_le_bytes(self.de.take_array()?);
        let value = seed.deserialize(index.into_deserializer())?;
        Ok((value, self))
    }
}

impl<'de> de::VariantAccess<'de> for EnumAccess<'_, 'de> {
    type Error = CodecError;

    fn unit_variant(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn newtype_variant_seed<S: de::DeserializeSeed<'de>>(
        self,
        seed: S,
    ) -> Result<S::Value, CodecError> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<W: de::Visitor<'de>>(
        self,
        len: usize,
        visitor: W,
    ) -> Result<W::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }

    fn struct_variant<W: de::Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: W,
    ) -> Result<W::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    fn roundtrip<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value).expect("encode");
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(3.5f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip('λ');
        roundtrip(String::from("héllo"));
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Option::<u64>::None);
        roundtrip(Some(9u64));
        roundtrip((1u8, String::from("x"), vec![true, false]));
    }

    #[test]
    fn collections_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), vec![1u64, 2]);
        m.insert("b".to_string(), vec![]);
        roundtrip(m);
        roundtrip(std::collections::BTreeSet::from([5u64, 1, 9]));
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Sample {
        Unit,
        Newtype(u64),
        Tuple(u32, String),
        Struct { a: Option<u64>, b: Vec<u8> },
    }

    #[test]
    fn enums_roundtrip() {
        roundtrip(Sample::Unit);
        roundtrip(Sample::Newtype(7));
        roundtrip(Sample::Tuple(1, "two".into()));
        roundtrip(Sample::Struct {
            a: Some(3),
            b: vec![4, 5],
        });
        roundtrip(vec![Sample::Unit, Sample::Newtype(1)]);
    }

    #[test]
    fn protocol_messages_roundtrip() {
        use twostep_types::{Ballot, ProcessId};

        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        struct OneB {
            bal: Ballot,
            vbal: Ballot,
            val: Option<u64>,
            proposer: Option<ProcessId>,
            decided: Option<u64>,
        }
        roundtrip(OneB {
            bal: Ballot::new(7),
            vbal: Ballot::FAST,
            val: Some(9),
            proposer: Some(ProcessId::new(3)),
            decided: None,
        });
    }

    #[test]
    fn eof_detected() {
        let bytes = to_bytes(&12345u64).unwrap();
        let err = from_bytes::<u64>(&bytes[..4]).unwrap_err();
        assert_eq!(err, CodecError::UnexpectedEof);
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = to_bytes(&1u32).unwrap();
        bytes.push(0xFF);
        let err = from_bytes::<u32>(&bytes).unwrap_err();
        assert_eq!(err, CodecError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn bad_bool_tag_detected() {
        let err = from_bytes::<bool>(&[7]).unwrap_err();
        assert_eq!(err, CodecError::InvalidTag(7));
    }

    #[test]
    fn bad_utf8_detected() {
        // len=1, byte 0xFF.
        let mut bytes = (1u64).to_le_bytes().to_vec();
        bytes.push(0xFF);
        let err = from_bytes::<String>(&bytes).unwrap_err();
        assert_eq!(err, CodecError::InvalidUtf8);
    }

    fn frame_bodies(frame: &[u8]) -> Vec<&[u8]> {
        frame_messages(frame).unwrap().collect()
    }

    #[test]
    fn frame_roundtrips_many_messages() {
        let payloads: Vec<bytes::Bytes> = (0..5u64)
            .map(|i| bytes::Bytes::from(to_bytes(&(i, format!("msg{i}"))).unwrap()))
            .collect();
        let frame = pack_frame(&payloads);
        assert_eq!(frame_messages(&frame).unwrap().len(), payloads.len());
        let owned: Vec<&[u8]> = payloads.iter().map(|p| &p[..]).collect();
        assert_eq!(frame_bodies(&frame), owned);
    }

    #[test]
    fn frame_roundtrips_empty_and_single() {
        assert!(frame_bodies(&pack_frame(&[])).is_empty());
        let one = bytes::Bytes::from(to_bytes(&7u64).unwrap());
        let frame = pack_frame(std::slice::from_ref(&one));
        assert_eq!(frame_bodies(&frame), vec![&one[..]]);
    }

    #[test]
    fn unframed_payloads_rejected() {
        // A bare message, a bare shard envelope, and degenerate short
        // and empty payloads all lack the frame magic.
        let bare = to_bytes(&Sample::Newtype(7)).unwrap();
        let tagged = tag_shard(0, &bytes::Bytes::from(bare.clone()));
        for payload in [&bare[..], &tagged[..], &[1u8, 2], &[]] {
            assert_eq!(frame_messages(payload).unwrap_err(), CodecError::BadMagic);
        }
    }

    #[test]
    fn frame_messages_rejects_malformed_frames() {
        let frame = pack_frame(&[bytes::Bytes::from(vec![9u8; 32])]);
        for cut in [5, 8, 10, frame.len() - 1] {
            assert_eq!(
                frame_messages(&frame[..cut]).unwrap_err(),
                CodecError::UnexpectedEof,
                "cut at {cut}"
            );
        }
        let mut trailing = frame.to_vec();
        trailing.push(0xAA);
        assert_eq!(
            frame_messages(&trailing).unwrap_err(),
            CodecError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn shard_tag_roundtrips() {
        let inner = bytes::Bytes::from(to_bytes(&Sample::Newtype(7)).unwrap());
        for shard in [0u32, 1, 7, u32::MAX] {
            let tagged = tag_shard(shard, &inner);
            assert_eq!(split_shard_ref(&tagged).unwrap(), (shard, &inner[..]));
        }
    }

    #[test]
    fn untagged_payloads_rejected() {
        let bare = to_bytes(&Sample::Newtype(7)).unwrap();
        for payload in [&bare[..], &[3u8], &[]] {
            assert_eq!(split_shard_ref(payload).unwrap_err(), CodecError::BadMagic);
        }
    }

    #[test]
    fn truncated_shard_tag_rejected() {
        let tagged = tag_shard(3, &bytes::Bytes::from(vec![9u8; 8]));
        for cut in [4, 5, 7] {
            assert_eq!(
                split_shard_ref(&tagged[..cut]).unwrap_err(),
                CodecError::UnexpectedEof,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn shard_tags_nest_inside_coalesced_frames() {
        let a = tag_shard(0, &bytes::Bytes::from(to_bytes(&1u64).unwrap()));
        let b = tag_shard(5, &bytes::Bytes::from(to_bytes(&2u64).unwrap()));
        let frame = pack_frame(&[a.clone(), b.clone()]);
        let back = frame_bodies(&frame);
        assert_eq!(back, vec![&a[..], &b[..]]);
        let shards: Vec<u32> = back.iter().map(|p| split_shard_ref(p).unwrap().0).collect();
        assert_eq!(shards, vec![0, 5]);
    }

    #[test]
    fn encoding_is_compact() {
        // A u64 is exactly 8 bytes; an Option<u64> 9; a small enum
        // variant 4 (+payload).
        assert_eq!(to_bytes(&1u64).unwrap().len(), 8);
        assert_eq!(to_bytes(&Some(1u64)).unwrap().len(), 9);
        assert_eq!(to_bytes(&Sample::Unit).unwrap().len(), 4);
    }

    /// Drives a [`FrameAssembler`] with `wire` split into `chunk`-sized
    /// reads and returns every completed frame payload.
    fn assemble_in_chunks(asm: &mut FrameAssembler, wire: &[u8], chunk: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for piece in wire.chunks(chunk.max(1)) {
            let slot = asm.read_slot(piece.len());
            slot[..piece.len()].copy_from_slice(piece);
            asm.commit(piece.len());
            while let Some(frame) = asm.next_frame().unwrap() {
                out.push(frame.to_vec());
            }
        }
        out
    }

    /// `[len][payload]` wire encoding of a sequence of frame payloads,
    /// as the socket transports emit them.
    fn wire_frames(payloads: &[&[u8]]) -> Vec<u8> {
        let mut wire = Vec::new();
        for p in payloads {
            wire.extend_from_slice(&(p.len() as u32).to_le_bytes());
            wire.extend_from_slice(p);
        }
        wire
    }

    #[test]
    fn assembler_reassembles_at_every_split_granularity() {
        let payloads: Vec<Vec<u8>> = vec![vec![1; 3], vec![], vec![2; 300], vec![3; 17]];
        let refs: Vec<&[u8]> = payloads.iter().map(|p| &p[..]).collect();
        let wire = wire_frames(&refs);
        for chunk in 1..=wire.len() {
            let mut asm = FrameAssembler::with_capacity(8);
            assert_eq!(
                assemble_in_chunks(&mut asm, &wire, chunk),
                payloads,
                "chunk size {chunk}"
            );
            assert_eq!(asm.buffered(), 0);
        }
    }

    #[test]
    fn assembler_buffer_reuse_stops_growing_at_steady_state() {
        let payload = vec![7u8; 1000];
        let wire = wire_frames(&[&payload]);
        let mut asm = FrameAssembler::with_capacity(8);
        assert_eq!(assemble_in_chunks(&mut asm, &wire, 13), vec![payload]);
        let high_water = asm.capacity();
        for _ in 0..100 {
            assert_eq!(assemble_in_chunks(&mut asm, &wire, 13).len(), 1);
        }
        assert_eq!(asm.capacity(), high_water, "steady state must not grow");
    }

    #[test]
    fn assembler_next_bytes_consumes_handshake_prefix() {
        let mut asm = FrameAssembler::with_capacity(8);
        let mut wire = 42u32.to_le_bytes().to_vec(); // handshake
        wire.extend_from_slice(&wire_frames(&[&[9u8, 9]]));
        // Feed one byte at a time: the handshake completes only once
        // four bytes are buffered.
        let mut who = None;
        let mut frames = Vec::new();
        for b in wire {
            let slot = asm.read_slot(1);
            slot[0] = b;
            asm.commit(1);
            if who.is_none() {
                if let Some(head) = asm.next_bytes(4) {
                    who = Some(u32::from_le_bytes(head.try_into().unwrap()));
                }
                continue;
            }
            while let Some(frame) = asm.next_frame().unwrap() {
                frames.push(frame.to_vec());
            }
        }
        assert_eq!(who, Some(42));
        assert_eq!(frames, vec![vec![9u8, 9]]);
    }

    #[test]
    fn assembler_frames_carry_coalesced_and_tagged_payloads_intact() {
        // End-to-end shape of the socket hot path: shard-tagged
        // messages coalesced into a FRAME_MAGIC frame, length-prefixed
        // on the wire, reassembled from split reads, then iterated
        // without copying.
        let a = tag_shard(2, &bytes::Bytes::from(to_bytes(&1u64).unwrap()));
        let b = tag_shard(5, &bytes::Bytes::from(to_bytes(&2u64).unwrap()));
        let frame = pack_frame(&[a.clone(), b.clone()]);
        let wire = wire_frames(&[&frame]);
        let mut asm = FrameAssembler::with_capacity(8);
        let frames = assemble_in_chunks(&mut asm, &wire, 3);
        assert_eq!(frames.len(), 1);
        let shards: Vec<u32> = frame_messages(&frames[0])
            .unwrap()
            .map(|m| split_shard_ref(m).unwrap().0)
            .collect();
        assert_eq!(shards, vec![2, 5]);
    }

    #[test]
    fn assembler_rejects_length_prefix_beyond_the_frame_bound() {
        let mut asm = FrameAssembler::with_capacity(8);
        let prefix = u32::try_from(crate::MAX_FRAME_LEN + 1).unwrap();
        let slot = asm.read_slot(4);
        slot[..4].copy_from_slice(&prefix.to_le_bytes());
        asm.commit(4);
        assert_eq!(
            asm.next_frame().unwrap_err(),
            CodecError::FrameTooLong {
                len: crate::MAX_FRAME_LEN + 1
            }
        );
        // A prefix at the bound is a legitimate (partial) frame.
        let mut asm = FrameAssembler::with_capacity(8);
        let slot = asm.read_slot(4);
        slot[..4].copy_from_slice(&(prefix - 1).to_le_bytes());
        asm.commit(4);
        assert_eq!(asm.next_frame(), Ok(None));
    }
}
