//! The live-wire frame format.
//!
//! Version 2 of the wire layout extends the original length-prefixed
//! envelope frame with an optional *piggybacked-ack* header, so a data
//! frame can carry transport acknowledgments that would otherwise each
//! cost their own frame (and, pre-reactor, their own syscall):
//!
//! ```text
//! frame  := len: u32 LE · body            (len = body length, bounded)
//! body   := ack_count: u16 LE · ack_count × PiggyAck · envelope
//! PiggyAck := to: Endpoint · id: MsgId · of: MsgId   (codec-encoded)
//! envelope := codec(Envelope)
//! ```
//!
//! A frame with `ack_count == 0` is exactly the v1 layout plus the
//! two-byte header. The decoder re-materializes each [`PiggyAck`] as a
//! standalone [`MessageBody::Ack`] envelope and yields it *before* the
//! carrying frame's envelope, so the receiving dispatch path is identical
//! whether an ack travelled alone or piggybacked. Acks are idempotent
//! (duplicate and unknown acks are ignored by
//! [`AckTracker`](crate::AckTracker)), which is what makes riding a later
//! data frame — possibly ahead of data queued in between — protocol-safe.

use core::fmt;
use std::collections::VecDeque;

use synergy_codec::{Codec, CodecError, Reader};

use crate::message::{Endpoint, Envelope, MessageBody, MsgId};

/// Upper bound on one frame's body; larger length prefixes indicate a
/// corrupt or hostile stream and poison the connection.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Most piggybacked acks one frame may carry; the overflow rides the next
/// frame (or a standalone ack frame).
pub const MAX_PIGGY_ACKS: usize = 64;

/// One transport acknowledgment riding a data frame's header: everything
/// needed to re-materialize the ack envelope at the receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PiggyAck {
    /// The ack envelope's destination (the endpoint being delivered to).
    pub to: Endpoint,
    /// The ack envelope's own id (acker + ack-namespace sequence).
    pub id: MsgId,
    /// The application message being acknowledged.
    pub of: MsgId,
}

synergy_codec::codec_struct!(PiggyAck { to, id, of });

impl PiggyAck {
    /// Extracts the piggyback form of an ack envelope; `None` for any
    /// other message class.
    pub fn from_envelope(env: &Envelope) -> Option<PiggyAck> {
        match env.body {
            MessageBody::Ack { of } => Some(PiggyAck {
                to: env.to,
                id: env.id,
                of,
            }),
            _ => None,
        }
    }

    /// Re-materializes the standalone ack envelope.
    pub fn into_envelope(self) -> Envelope {
        Envelope::new(self.id, self.to, MessageBody::Ack { of: self.of })
    }
}

/// Errors from the length-prefixed wire framing.
#[derive(Debug)]
pub enum FrameError {
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// The frame payload did not decode as an [`Envelope`].
    Codec(CodecError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized(len) => {
                write!(f, "frame length {len} exceeds {MAX_FRAME_LEN}")
            }
            FrameError::Codec(e) => write!(f, "frame payload decode error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Oversized(_) => None,
            FrameError::Codec(e) => Some(e),
        }
    }
}

/// Encodes `envelope` as one wire frame with no piggybacked acks.
///
/// # Errors
///
/// Returns [`FrameError::Codec`] if the envelope cannot be serialized and
/// [`FrameError::Oversized`] if the body exceeds [`MAX_FRAME_LEN`].
pub fn frame_envelope(envelope: &Envelope) -> Result<Vec<u8>, FrameError> {
    frame_envelope_with_acks(envelope, &[])
}

/// Encodes `envelope` as one wire frame carrying up to
/// [`MAX_PIGGY_ACKS`] piggybacked acks in its header.
///
/// # Errors
///
/// Returns [`FrameError::Codec`] if the envelope cannot be serialized and
/// [`FrameError::Oversized`] if the body exceeds [`MAX_FRAME_LEN`] or the
/// ack list exceeds [`MAX_PIGGY_ACKS`].
pub fn frame_envelope_with_acks(
    envelope: &Envelope,
    acks: &[PiggyAck],
) -> Result<Vec<u8>, FrameError> {
    let mut payload = Vec::new();
    envelope.encode(&mut payload);
    let mut out = Vec::with_capacity(4 + 2 + acks.len() * 32 + payload.len());
    out.extend_from_slice(&[0u8; 4]); // length backpatched below
    append_frame_body(&mut out, acks, &payload)?;
    let body_len = out.len() - 4;
    out[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    Ok(out)
}

/// Appends `ack_count · acks · payload` to `out` (everything after the
/// length prefix), validating the bounds — the shared assembly step for
/// [`frame_envelope_with_acks`] and the reactor's coalescing write path,
/// which backpatches its own length prefix into a staging buffer.
///
/// # Errors
///
/// [`FrameError::Oversized`] when the ack list or the resulting body
/// exceeds the wire bounds.
pub fn append_frame_body(
    out: &mut Vec<u8>,
    acks: &[PiggyAck],
    payload: &[u8],
) -> Result<(), FrameError> {
    if acks.len() > MAX_PIGGY_ACKS {
        return Err(FrameError::Oversized(acks.len()));
    }
    let start = out.len();
    out.extend_from_slice(&(acks.len() as u16).to_le_bytes());
    for ack in acks {
        ack.encode(out);
    }
    out.extend_from_slice(payload);
    let body_len = out.len() - start;
    if body_len > MAX_FRAME_LEN {
        out.truncate(start);
        return Err(FrameError::Oversized(body_len));
    }
    Ok(())
}

/// Incremental frame decoder: TCP hands back arbitrary chunks, this
/// reassembles them into complete envelopes regardless of where the read
/// boundaries fall. Piggybacked acks come out as standalone ack
/// envelopes, yielded before their carrying frame's envelope.
///
/// # Example
///
/// ```rust
/// use synergy_net::{frame_envelope, FrameDecoder};
/// use synergy_net::{Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId};
///
/// let env = Envelope::new(
///     MsgId { from: ProcessId(1), seq: MsgSeqNo(7) },
///     ProcessId(2),
///     MessageBody::External { payload: vec![1, 2, 3] },
/// );
/// let frame = frame_envelope(&env)?;
/// let mut dec = FrameDecoder::new();
/// dec.push(&frame[..3]); // a torn read mid-length-prefix
/// assert!(dec.next_envelope()?.is_none());
/// dec.push(&frame[3..]);
/// assert_eq!(dec.next_envelope()?, Some(env));
/// # Ok::<(), synergy_net::FrameError>(())
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed as frames. Consuming advances the
    /// cursor instead of draining the buffer, so decoding N frames from
    /// one read batch is O(bytes), not O(bytes x frames); `push` compacts
    /// the consumed prefix away before appending.
    head: usize,
    /// Envelopes decoded but not yet handed out: the piggybacked acks of
    /// the last frame, then its data envelope.
    ready: VecDeque<Envelope>,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends a raw chunk as read from the socket.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.head == self.buf.len() {
            self.buf.clear();
        } else if self.head > 0 {
            self.buf.drain(..self.head);
        }
        self.head = 0;
        self.buf.extend_from_slice(chunk);
    }

    /// Extracts the next complete envelope, or `None` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] when the stream is corrupt (oversized length
    /// prefix or undecodable payload); the connection should be dropped, as
    /// resynchronization within a poisoned byte stream is impossible.
    pub fn next_envelope(&mut self) -> Result<Option<Envelope>, FrameError> {
        if let Some(env) = self.ready.pop_front() {
            return Ok(Some(env));
        }
        let pending = &self.buf[self.head..];
        let Some(prefix) = pending.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(prefix.try_into().expect("4-byte slice")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(len));
        }
        let Some(body) = pending.get(4..4 + len) else {
            return Ok(None);
        };
        let ready = &mut self.ready;
        decode_body(body, &mut |env| ready.push_back(env))?;
        self.head += 4 + len;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        }
        Ok(self.ready.pop_front())
    }

    /// Decodes every complete frame in `chunk` (completing any partial
    /// frame buffered from earlier reads first), invoking `deliver` once
    /// per envelope — piggybacked acks before their carrying envelope.
    ///
    /// When nothing is buffered — the overwhelmingly common case, since a
    /// read boundary rarely tears a frame — frames decode straight out of
    /// `chunk` and only a trailing partial frame is copied in, skipping
    /// the buffer round-trip [`push`](Self::push) pays per byte.
    ///
    /// # Errors
    ///
    /// Same contract as [`next_envelope`](Self::next_envelope): any error
    /// poisons the stream and the connection should be dropped. Envelopes
    /// already delivered from this chunk remain delivered.
    pub fn drain_chunk(
        &mut self,
        chunk: &[u8],
        mut deliver: impl FnMut(Envelope),
    ) -> Result<(), FrameError> {
        while let Some(env) = self.ready.pop_front() {
            deliver(env);
        }
        if self.buffered() > 0 {
            self.push(chunk);
            while let Some(env) = self.next_envelope()? {
                deliver(env);
            }
            return Ok(());
        }
        let mut pos = 0;
        loop {
            let pending = &chunk[pos..];
            let Some(prefix) = pending.get(..4) else {
                break;
            };
            let len = u32::from_le_bytes(prefix.try_into().expect("4-byte slice")) as usize;
            if len > MAX_FRAME_LEN {
                return Err(FrameError::Oversized(len));
            }
            let Some(body) = pending.get(4..4 + len) else {
                break;
            };
            decode_body(body, &mut deliver)?;
            pos += 4 + len;
        }
        if pos < chunk.len() {
            self.push(&chunk[pos..]);
        }
        Ok(())
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }
}

/// Decodes one frame body (`ack_count · acks · envelope`), delivering the
/// piggybacked acks as standalone envelopes before the data envelope.
fn decode_body(body: &[u8], deliver: &mut impl FnMut(Envelope)) -> Result<(), FrameError> {
    let Some(count_bytes) = body.get(..2) else {
        return Err(FrameError::Codec(CodecError::UnexpectedEof));
    };
    let ack_count = u16::from_le_bytes(count_bytes.try_into().expect("2-byte slice")) as usize;
    if ack_count > MAX_PIGGY_ACKS {
        return Err(FrameError::Oversized(ack_count));
    }
    let mut r = Reader::new(&body[2..]);
    for _ in 0..ack_count {
        let ack = PiggyAck::decode(&mut r).map_err(FrameError::Codec)?;
        deliver(ack.into_envelope());
    }
    let env = Envelope::decode(&mut r).map_err(FrameError::Codec)?;
    if r.remaining() != 0 {
        return Err(FrameError::Codec(CodecError::TrailingBytes));
    }
    deliver(env);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MsgSeqNo, ProcessId};

    fn data_env(seq: u64) -> Envelope {
        Envelope::new(
            MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(seq),
            },
            ProcessId(2),
            MessageBody::Application {
                payload: vec![seq as u8; 3],
                dirty: false,
            },
        )
    }

    fn ack(seq: u64) -> PiggyAck {
        PiggyAck {
            to: ProcessId(1).into(),
            id: MsgId {
                from: ProcessId(2),
                seq: MsgSeqNo((1 << 62) | seq),
            },
            of: MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(seq),
            },
        }
    }

    #[test]
    fn frames_survive_byte_by_byte_delivery() {
        let e = data_env(3);
        let frame = frame_envelope(&e).unwrap();
        let mut dec = FrameDecoder::new();
        for b in &frame {
            assert!(dec.next_envelope().unwrap().is_none());
            dec.push(std::slice::from_ref(b));
        }
        assert_eq!(dec.next_envelope().unwrap(), Some(e));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn oversized_length_prefix_poisons_stream() {
        let mut dec = FrameDecoder::new();
        dec.push(&(u32::MAX).to_le_bytes());
        assert!(matches!(dec.next_envelope(), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn garbage_payload_is_a_codec_error() {
        let mut dec = FrameDecoder::new();
        dec.push(&6u32.to_le_bytes());
        dec.push(&0u16.to_le_bytes()); // no piggybacked acks...
        dec.push(&[0xFF; 4]); // ...then an undecodable envelope
        assert!(matches!(dec.next_envelope(), Err(FrameError::Codec(_))));
    }

    #[test]
    fn piggybacked_acks_come_out_first_as_standalone_envelopes() {
        let env = data_env(9);
        let acks = [ack(3), ack(4)];
        let frame = frame_envelope_with_acks(&env, &acks).unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        for a in acks {
            assert_eq!(dec.next_envelope().unwrap(), Some(a.into_envelope()));
        }
        assert_eq!(dec.next_envelope().unwrap(), Some(env));
        assert_eq!(dec.next_envelope().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn ackless_frames_match_the_plain_encoder() {
        let env = data_env(1);
        assert_eq!(
            frame_envelope(&env).unwrap(),
            frame_envelope_with_acks(&env, &[]).unwrap()
        );
    }

    #[test]
    fn ack_roundtrips_through_envelope_form() {
        let a = ack(17);
        assert_eq!(PiggyAck::from_envelope(&a.into_envelope()), Some(a));
        assert_eq!(PiggyAck::from_envelope(&data_env(0)), None);
    }

    #[test]
    fn too_many_piggybacked_acks_is_an_error() {
        let acks: Vec<PiggyAck> = (0..MAX_PIGGY_ACKS as u64 + 1).map(ack).collect();
        assert!(matches!(
            frame_envelope_with_acks(&data_env(0), &acks),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn hostile_ack_count_poisons_the_stream() {
        // A body whose ack_count claims more acks than MAX_PIGGY_ACKS.
        let mut frame = Vec::new();
        frame.extend_from_slice(&8u32.to_le_bytes());
        frame.extend_from_slice(&(MAX_PIGGY_ACKS as u16 + 1).to_le_bytes());
        frame.extend_from_slice(&[0u8; 6]);
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert!(matches!(dec.next_envelope(), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn truncated_ack_header_is_a_codec_error() {
        // len = 1: too short to even hold the two-byte ack count.
        let mut frame = Vec::new();
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.push(0);
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert!(matches!(dec.next_envelope(), Err(FrameError::Codec(_))));
    }
}
