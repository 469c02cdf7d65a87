//! Length-prefixed binary frames for every protocol message.
//!
//! The parameter codecs in [`baffle_nn::wire`] give model payloads a
//! byte representation; this module extends that to the whole protocol,
//! so an [`Envelope`] — routing header plus any [`Message`] variant —
//! has one canonical encoding that can cross a socket. The framing
//! mirrors the parameter codecs: a magic number, a format version, the
//! body length, and an FNV-1a checksum over the body.
//!
//! ```text
//! offset  size  field
//!      0     4  magic      0xBAFF_F7A3 (LE)
//!      4     4  version    1
//!      8     4  body length in bytes
//!     12     4  FNV-1a checksum of the body
//!     16     —  body: from u32 | to u32 | kind u8 | variant fields
//! ```
//!
//! All integers are little-endian. Variable-length payloads
//! ([`bytes::Bytes`] and the history-entry list) carry a `u32` length
//! prefix. Decoding demands exact boundaries — trailing bytes inside
//! the body are [`DecodeErrorKind::Malformed`] — which is what lets
//! [`FrameReader`] cut frames from a TCP stream without a delimiter
//! scan. Model payloads inside the body are carried verbatim: their own
//! checksums still hold end to end, so payload corruption injected
//! before framing is detected by the receiving endpoint's parameter
//! decoder, exactly as on the in-process transport.
//!
//! [`DecodeErrorKind::Malformed`]: baffle_nn::wire::DecodeErrorKind::Malformed

use crate::message::{AbstainReason, HistoryEntry, Message, NodeId};
use crate::transport::Envelope;
use baffle_attack::voting::Vote;
use baffle_nn::wire::{fnv1a, DecodeError};
use bytes::{BufMut, Bytes, BytesMut};
use std::io::Read;

/// Frame magic; doubles as a stream-desync detector.
pub const FRAME_MAGIC: u32 = 0xBAFF_F7A3;
/// Current frame format version.
pub const FRAME_VERSION: u32 = 1;
/// Fixed frame header size: magic + version + body length + checksum.
pub const FRAME_HEADER: usize = 16;
/// Upper bound on a frame body — far above any real payload (the
/// largest is a full history window of resnet18-scale models), small
/// enough that a corrupted length field cannot drive an allocation.
pub const MAX_BODY: usize = 1 << 30;

const KIND_TRAIN: u8 = 0;
const KIND_UPDATE: u8 = 1;
const KIND_VALIDATE: u8 = 2;
const KIND_VOTE: u8 = 3;
const KIND_ABSTAIN: u8 = 4;
const KIND_RESULT: u8 = 5;
const KIND_SHUTDOWN: u8 = 6;

fn put_payload(buf: &mut BytesMut, payload: &Bytes) {
    buf.put_u32_le(payload.len() as u32);
    buf.extend_from_slice(payload);
}

fn body_len(message: &Message) -> usize {
    let payload = |b: &Bytes| 4 + b.len();
    9 + match message {
        Message::TrainRequest { global, .. } => 8 + payload(global),
        Message::UpdateSubmission { update, .. } => 8 + 4 + payload(update),
        Message::ValidateRequest { candidate, history_delta, .. } => {
            8 + payload(candidate)
                + 4
                + history_delta.iter().map(|e| 8 + payload(&e.params)).sum::<usize>()
        }
        Message::VoteSubmission { .. } => 8 + 4 + 1,
        Message::Abstain { .. } => 8 + 4 + 1,
        Message::RoundResult { .. } => 8 + 1,
        Message::Shutdown => 0,
    }
}

/// Encodes an envelope as one self-delimiting frame.
pub fn encode_frame(envelope: &Envelope) -> Bytes {
    let body_len = body_len(&envelope.message);
    let mut buf = BytesMut::with_capacity(FRAME_HEADER + body_len);
    buf.put_u32_le(FRAME_MAGIC);
    buf.put_u32_le(FRAME_VERSION);
    buf.put_u32_le(body_len as u32);
    buf.put_u32_le(0); // checksum placeholder
    buf.put_u32_le(envelope.from.0);
    buf.put_u32_le(envelope.to.0);
    match &envelope.message {
        Message::TrainRequest { round, global } => {
            buf.put_u8(KIND_TRAIN);
            buf.put_u64_le(*round);
            put_payload(&mut buf, global);
        }
        Message::UpdateSubmission { round, from, update } => {
            buf.put_u8(KIND_UPDATE);
            buf.put_u64_le(*round);
            buf.put_u32_le(from.0);
            put_payload(&mut buf, update);
        }
        Message::ValidateRequest { round, candidate, history_delta } => {
            buf.put_u8(KIND_VALIDATE);
            buf.put_u64_le(*round);
            put_payload(&mut buf, candidate);
            buf.put_u32_le(history_delta.len() as u32);
            for entry in history_delta {
                buf.put_u64_le(entry.id);
                put_payload(&mut buf, &entry.params);
            }
        }
        Message::VoteSubmission { round, from, vote } => {
            buf.put_u8(KIND_VOTE);
            buf.put_u64_le(*round);
            buf.put_u32_le(from.0);
            buf.put_u8(vote.as_bit());
        }
        Message::Abstain { round, from, reason } => {
            buf.put_u8(KIND_ABSTAIN);
            buf.put_u64_le(*round);
            buf.put_u32_le(from.0);
            buf.put_u8(reason_bit(*reason));
        }
        Message::RoundResult { round, accepted } => {
            buf.put_u8(KIND_RESULT);
            buf.put_u64_le(*round);
            buf.put_u8(u8::from(*accepted));
        }
        Message::Shutdown => buf.put_u8(KIND_SHUTDOWN),
    }
    debug_assert_eq!(buf.len(), FRAME_HEADER + body_len, "body_len() out of sync");
    let sum = fnv1a(&buf[FRAME_HEADER..]);
    buf[12..16].copy_from_slice(&sum.to_le_bytes());
    buf.freeze()
}

fn reason_bit(reason: AbstainReason) -> u8 {
    match reason {
        AbstainReason::UndecodableGlobal => 0,
        AbstainReason::EmptyShard => 1,
        AbstainReason::UndecodableCandidate => 2,
        AbstainReason::HistoryTooShort => 3,
        AbstainReason::NoValidationData => 4,
        AbstainReason::DegenerateAnalysis => 5,
    }
}

fn reason_from_bit(bit: u8) -> Option<AbstainReason> {
    Some(match bit {
        0 => AbstainReason::UndecodableGlobal,
        1 => AbstainReason::EmptyShard,
        2 => AbstainReason::UndecodableCandidate,
        3 => AbstainReason::HistoryTooShort,
        4 => AbstainReason::NoValidationData,
        5 => AbstainReason::DegenerateAnalysis,
        _ => return None,
    })
}

/// Bounds-checked little-endian reader over a byte slice: the one
/// cursor behind the frame, WAL-record and checkpoint decoders. A read
/// past the end becomes `truncated(what)`, where `what` names the field
/// being read — so each format keeps its own error type and wording.
pub(crate) struct Cursor<'a, E> {
    buf: &'a [u8],
    truncated: fn(&'static str) -> E,
}

impl<'a, E> Cursor<'a, E> {
    pub(crate) fn new(buf: &'a [u8], truncated: fn(&'static str) -> E) -> Self {
        Self { buf, truncated }
    }

    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], E> {
        if self.buf.len() < n {
            return Err((self.truncated)(what));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, E> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, E> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, E> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    /// Whether every byte has been consumed — the decoders' closing
    /// exact-boundary check.
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A `u32`-length-prefixed payload of a frame body.
fn payload(c: &mut Cursor<'_, DecodeError>) -> Result<Bytes, DecodeError> {
    let len = c.u32("payload length")? as usize;
    Ok(Bytes::copy_from_slice(c.take(len, "payload")?))
}

/// Decodes one complete frame (header + body, exact length).
///
/// # Errors
///
/// Returns [`DecodeError`]: `Malformed` for structural damage (bad
/// magic or version, length mismatch, unknown kind or vote/reason
/// encoding, trailing bytes) and `Corrupted` when the body checksum
/// does not match.
pub fn decode_frame(bytes: &[u8]) -> Result<Envelope, DecodeError> {
    if bytes.len() < FRAME_HEADER {
        return Err(DecodeError::malformed("frame header truncated"));
    }
    let word =
        |at: usize| u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
    if word(0) != FRAME_MAGIC {
        return Err(DecodeError::malformed("bad frame magic"));
    }
    if word(4) != FRAME_VERSION {
        return Err(DecodeError::malformed("unsupported frame version"));
    }
    let body_len = word(8) as usize;
    if body_len > MAX_BODY {
        return Err(DecodeError::malformed("frame body too large"));
    }
    if bytes.len() - FRAME_HEADER < body_len {
        return Err(DecodeError::malformed("frame body truncated"));
    }
    if bytes.len() - FRAME_HEADER > body_len {
        return Err(DecodeError::malformed("trailing bytes after frame"));
    }
    let body = &bytes[FRAME_HEADER..];
    if fnv1a(body) != word(12) {
        return Err(DecodeError::corrupted("frame checksum mismatch"));
    }
    decode_body(body)
}

fn decode_body(body: &[u8]) -> Result<Envelope, DecodeError> {
    // `DecodeError` carries a static message, so the field name is not
    // part of it.
    let mut c = Cursor::new(body, |_| DecodeError::malformed("frame body truncated"));
    let from = NodeId(c.u32("from")?);
    let to = NodeId(c.u32("to")?);
    let kind = c.u8("kind")?;
    let message = match kind {
        KIND_TRAIN => Message::TrainRequest { round: c.u64("round")?, global: payload(&mut c)? },
        KIND_UPDATE => Message::UpdateSubmission {
            round: c.u64("round")?,
            from: NodeId(c.u32("sender")?),
            update: payload(&mut c)?,
        },
        KIND_VALIDATE => {
            let round = c.u64("round")?;
            let candidate = payload(&mut c)?;
            let entries = c.u32("history length")? as usize;
            let mut history_delta = Vec::new();
            for _ in 0..entries {
                let id = c.u64("entry id")?;
                let params = payload(&mut c)?;
                history_delta.push(HistoryEntry { id, params });
            }
            Message::ValidateRequest { round, candidate, history_delta }
        }
        KIND_VOTE => Message::VoteSubmission {
            round: c.u64("round")?,
            from: NodeId(c.u32("sender")?),
            vote: match c.u8("vote")? {
                0 => Vote::Accept,
                1 => Vote::Reject,
                _ => return Err(DecodeError::malformed("unknown vote encoding")),
            },
        },
        KIND_ABSTAIN => Message::Abstain {
            round: c.u64("round")?,
            from: NodeId(c.u32("sender")?),
            reason: reason_from_bit(c.u8("reason")?)
                .ok_or_else(|| DecodeError::malformed("unknown abstain reason"))?,
        },
        KIND_RESULT => Message::RoundResult {
            round: c.u64("round")?,
            accepted: match c.u8("accepted")? {
                0 => false,
                1 => true,
                _ => return Err(DecodeError::malformed("unknown round-result encoding")),
            },
        },
        KIND_SHUTDOWN => Message::Shutdown,
        _ => return Err(DecodeError::malformed("unknown message kind")),
    };
    if !c.is_empty() {
        return Err(DecodeError::malformed("trailing bytes inside frame body"));
    }
    Ok(Envelope { from, to, message })
}

/// Reads a fixed-size header from a stream. Returns `Ok(None)` on a
/// clean EOF (no bytes at all); EOF after a partial header surfaces as
/// [`std::io::ErrorKind::UnexpectedEof`]. Shared by [`FrameReader`] and
/// the WAL record reader (`net::wal`) — same framing discipline.
pub(crate) fn read_header<R: Read, const N: usize>(
    inner: &mut R,
) -> std::io::Result<Option<[u8; N]>> {
    let mut header = [0u8; N];
    let mut filled = 0;
    while filled < N {
        match inner.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended inside a record header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(header))
}

/// Appends exactly `body_len` bytes from `inner` to `buf`, growing the
/// buffer as bytes actually arrive instead of trusting the (possibly
/// corrupted) length field with one big allocation up front. Shared by
/// [`FrameReader`] and the WAL record reader.
pub(crate) fn read_body_chunked<R: Read>(
    inner: &mut R,
    buf: &mut Vec<u8>,
    body_len: usize,
) -> std::io::Result<()> {
    const CHUNK: usize = 1 << 16;
    let mut remaining = body_len;
    while remaining > 0 {
        let step = remaining.min(CHUNK);
        let at = buf.len();
        buf.resize(at + step, 0);
        inner.read_exact(&mut buf[at..])?;
        remaining -= step;
    }
    Ok(())
}

/// Cuts frames off a byte stream (the socket transport's read side).
///
/// Frames are self-delimiting, so the reader needs no buffering beyond
/// one frame: it reads the fixed header, then exactly the announced
/// body.
pub struct FrameReader<R> {
    inner: R,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        Self { inner }
    }

    /// Reads the next frame. Returns `Ok(None)` on a clean end of
    /// stream (EOF exactly on a frame boundary).
    ///
    /// # Errors
    ///
    /// I/O errors pass through; EOF mid-frame surfaces as
    /// [`std::io::ErrorKind::UnexpectedEof`] and an undecodable frame
    /// as [`std::io::ErrorKind::InvalidData`].
    pub fn read_frame(&mut self) -> std::io::Result<Option<Envelope>> {
        let header = match read_header::<_, FRAME_HEADER>(&mut self.inner)? {
            Some(h) => h,
            None => return Ok(None),
        };
        let body_len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
        if body_len > MAX_BODY {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "frame body length exceeds limit",
            ));
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER + body_len.min(1 << 16));
        frame.extend_from_slice(&header);
        read_body_chunked(&mut self.inner, &mut frame, body_len)?;
        decode_frame(&frame)
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baffle_nn::wire::DecodeErrorKind;

    fn sample_envelopes() -> Vec<Envelope> {
        let params = baffle_nn::wire::encode_f32(&[1.0, -2.5, 0.25]);
        vec![
            Envelope {
                from: NodeId::SERVER,
                to: NodeId(3),
                message: Message::TrainRequest { round: 7, global: params.clone() },
            },
            Envelope {
                from: NodeId(3),
                to: NodeId::SERVER,
                message: Message::UpdateSubmission {
                    round: 7,
                    from: NodeId(3),
                    update: params.clone(),
                },
            },
            Envelope {
                from: NodeId::SERVER,
                to: NodeId(1),
                message: Message::ValidateRequest {
                    round: 8,
                    candidate: params.clone(),
                    history_delta: vec![
                        HistoryEntry { id: 4, params: params.clone() },
                        HistoryEntry { id: 5, params: Bytes::new() },
                    ],
                },
            },
            Envelope {
                from: NodeId(1),
                to: NodeId::SERVER,
                message: Message::VoteSubmission { round: 8, from: NodeId(1), vote: Vote::Reject },
            },
            Envelope {
                from: NodeId(2),
                to: NodeId::SERVER,
                message: Message::Abstain {
                    round: 8,
                    from: NodeId(2),
                    reason: AbstainReason::HistoryTooShort,
                },
            },
            Envelope {
                from: NodeId::SERVER,
                to: NodeId(0),
                message: Message::RoundResult { round: 8, accepted: true },
            },
            Envelope { from: NodeId::SERVER, to: NodeId(0), message: Message::Shutdown },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for env in sample_envelopes() {
            let frame = encode_frame(&env);
            assert_eq!(decode_frame(&frame).unwrap(), env, "{}", env.message.kind());
        }
    }

    #[test]
    fn trailing_and_truncated_frames_are_malformed() {
        for env in sample_envelopes() {
            let frame = encode_frame(&env);
            let mut long = frame.to_vec();
            long.push(0);
            assert_eq!(decode_frame(&long).unwrap_err().kind(), DecodeErrorKind::Malformed);
            for cut in 0..frame.len() {
                assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn body_bit_flip_is_corruption_header_flip_is_not_silent() {
        let env = &sample_envelopes()[2]; // richest variant
        let frame = encode_frame(env);
        for at in FRAME_HEADER..frame.len() {
            let mut damaged = frame.to_vec();
            damaged[at] ^= 0x20;
            let err = decode_frame(&damaged).unwrap_err();
            assert_eq!(err.kind(), DecodeErrorKind::Corrupted, "flip at {at}: {err}");
        }
        // Magic / version / length flips are structural.
        for at in 0..12 {
            let mut damaged = frame.to_vec();
            damaged[at] ^= 0x20;
            assert!(decode_frame(&damaged).is_err(), "flip at {at}");
        }
        // Checksum-field flips read as corruption too.
        let mut damaged = frame.to_vec();
        damaged[13] ^= 0x20;
        assert!(decode_frame(&damaged).unwrap_err().is_corruption());
    }

    #[test]
    fn reader_cuts_frames_from_a_stream() {
        let envs = sample_envelopes();
        let mut stream = Vec::new();
        for env in &envs {
            stream.extend_from_slice(&encode_frame(env));
        }
        let mut reader = FrameReader::new(std::io::Cursor::new(stream));
        for env in &envs {
            assert_eq!(&reader.read_frame().unwrap().unwrap(), env);
        }
        assert!(reader.read_frame().unwrap().is_none(), "clean EOF at a frame boundary");
        assert!(reader.read_frame().unwrap().is_none(), "EOF is sticky");
    }

    #[test]
    fn reader_reports_midframe_eof() {
        let frame = encode_frame(&sample_envelopes()[0]);
        for cut in [1, FRAME_HEADER - 1, FRAME_HEADER + 3] {
            let mut reader = FrameReader::new(std::io::Cursor::new(frame[..cut].to_vec()));
            let err = reader.read_frame().unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn reader_refuses_oversized_length_without_allocating() {
        let mut header = Vec::new();
        header.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        header.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        let mut reader = FrameReader::new(std::io::Cursor::new(header));
        let err = reader.read_frame().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn model_payload_checksums_survive_framing() {
        // Corrupt the *payload* before framing (what the fault injector
        // does): the frame itself stays valid, the payload decoder
        // reports the damage — same end-to-end behaviour as in-process.
        let mut payload = baffle_nn::wire::encode_f32(&[0.5; 32]).to_vec();
        payload[baffle_nn::wire::HEADER + 5] ^= 0x01;
        let env = Envelope {
            from: NodeId::SERVER,
            to: NodeId(0),
            message: Message::TrainRequest { round: 1, global: Bytes::from(payload) },
        };
        let back = decode_frame(&encode_frame(&env)).unwrap();
        match back.message {
            Message::TrainRequest { global, .. } => {
                assert!(baffle_nn::wire::decode_f32(&global).unwrap_err().is_corruption());
            }
            other => panic!("wrong variant: {}", other.kind()),
        }
    }
}
