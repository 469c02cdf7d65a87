//! Wire format for model parameters.
//!
//! The feedback loop requires the server to ship the history of the last
//! `ℓ+1` accepted global models to each validating client (paper §VI-D).
//! This module provides the codecs that put those payloads on the wire:
//! a lossless little-endian `f32` codec, lossy linear quantisation codecs
//! (8-bit and 4-bit) standing in for the model-compression techniques the
//! paper cites for its "reduce by ×10" estimate, and a sparse top-k delta
//! codec for shipping a model as a small patch against its predecessor.
//!
//! # Layout
//!
//! Every codec shares the same 12-byte prefix — magic (4), element count
//! (4), FNV-1a checksum (4) — and checksums everything *after* byte
//! [`HEADER`]. Codec-specific fields (quantisation range, delta count)
//! live inside the checksummed region, so a bit flip anywhere past the
//! count is reported as [`DecodeErrorKind::Corrupted`] regardless of
//! codec. (The top-k codec also checksums the element count: its body
//! is sized by the delta count alone, so nothing else would pin it.)
//! Decoders demand exact frame boundaries: trailing bytes after
//! the payload are rejected as [`DecodeErrorKind::Malformed`], which is
//! what lets frames be cut from a TCP stream without a delimiter scan.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// How a wire buffer failed to decode.
///
/// The distinction matters at the server's intake: a [`Malformed`]
/// buffer was *built* wrong (the sender is misbehaving — reject and
/// settle its slot), while a [`Corrupted`] buffer was built correctly
/// and damaged in flight (the checksum no longer matches — blame the
/// link, not the node).
///
/// [`Malformed`]: DecodeErrorKind::Malformed
/// [`Corrupted`]: DecodeErrorKind::Corrupted
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// Structurally invalid: truncated, trailing bytes, wrong magic,
    /// wrong codec.
    Malformed,
    /// Structurally valid but the payload checksum does not match: the
    /// bytes were damaged after encoding.
    Corrupted,
}

/// Error returned when decoding malformed wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    what: &'static str,
    kind: DecodeErrorKind,
}

impl DecodeError {
    /// A structural failure: the buffer was built wrong. Public so the
    /// message-frame codec in `baffle-net` reports through the same
    /// error type as the parameter codecs.
    pub fn malformed(what: &'static str) -> Self {
        Self { what, kind: DecodeErrorKind::Malformed }
    }

    /// An integrity failure: the buffer was damaged after encoding.
    pub fn corrupted(what: &'static str) -> Self {
        Self { what, kind: DecodeErrorKind::Corrupted }
    }

    /// What kind of failure this is.
    pub fn kind(&self) -> DecodeErrorKind {
        self.kind
    }

    /// Whether the buffer was damaged in flight (checksum mismatch)
    /// rather than built wrong by the sender.
    pub fn is_corruption(&self) -> bool {
        self.kind == DecodeErrorKind::Corrupted
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let adjective = match self.kind {
            DecodeErrorKind::Malformed => "malformed",
            DecodeErrorKind::Corrupted => "corrupted",
        };
        write!(f, "{adjective} wire data: {}", self.what)
    }
}

impl std::error::Error for DecodeError {}

/// Error returned when a parameter vector cannot be encoded.
///
/// The quantising codecs refuse non-finite inputs: NaN `as u8` is 0, so
/// a NaN parameter would silently decode as `lo` — a poisoned update
/// would change value depending on which codec the link picked. Callers
/// that must ship regardless fall back to the lossless codec (see
/// [`Codec::encode`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeError {
    what: &'static str,
}

impl EncodeError {
    fn new(what: &'static str) -> Self {
        Self { what }
    }
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot encode wire data: {}", self.what)
    }
}

impl std::error::Error for EncodeError {}

/// FNV-1a over the checksummed region — cheap, dependency-free, and
/// plenty to catch the bit flips the chaos transport injects (this is an
/// integrity check against line noise, not an authenticator). Public so
/// the message-frame codec in `baffle-net` uses the same checksum.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    fnv1a_more(0x811C_9DC5, bytes)
}

/// Continues an FNV-1a hash over further bytes.
#[inline]
fn fnv1a_more(mut hash: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// The top-k checksum: FNV-1a over the header's vector-length field
/// followed by the body. The dense codecs leave the length outside
/// their checksum because a damaged length no longer matches the body
/// size; a top-k body is sized by `k` alone, so a damaged `n` would
/// otherwise decode — to a delta that applies to the wrong base length.
fn topk_checksum(n_field: &[u8], body: &[u8]) -> u32 {
    fnv1a_more(fnv1a(n_field), body)
}

const MAGIC_F32: u32 = 0xBAFF_1E32;
// The v1 quantised codecs (0xBAFF_1E08 / 0xBAFF_1E04) carried no
// checksum; the magic doubles as the version, so v2 buffers are never
// misread by a v1 decoder or vice versa.
const MAGIC_Q8: u32 = 0xBAFF_2E08;
const MAGIC_Q4: u32 = 0xBAFF_2E04;
const MAGIC_TOPK: u32 = 0xBAFF_2E7C;

/// Byte offset where the checksummed region starts, shared by every
/// codec: magic + element count + checksum. Public so the fault injector
/// can corrupt payload bytes without touching the (unchecksummed)
/// framing fields.
pub const HEADER: usize = 12;

const Q_HEADER: usize = HEADER + 8; // + lo f32 + scale f32
const TOPK_HEADER: usize = HEADER + 4; // + delta count u32

/// Encodes a parameter vector losslessly (little-endian `f32`).
///
/// # Example
///
/// ```
/// let p = vec![1.0, -2.5, 0.0];
/// let bytes = baffle_nn::wire::encode_f32(&p);
/// let back = baffle_nn::wire::decode_f32(&bytes)?;
/// assert_eq!(p, back);
/// # Ok::<(), baffle_nn::wire::DecodeError>(())
/// ```
pub fn encode_f32(params: &[f32]) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER + params.len() * 4);
    buf.put_u32_le(MAGIC_F32);
    buf.put_u32_le(params.len() as u32);
    buf.put_u32_le(0); // checksum placeholder
    for &p in params {
        buf.put_f32_le(p);
    }
    let sum = fnv1a(&buf[HEADER..]);
    buf[8..12].copy_from_slice(&sum.to_le_bytes());
    buf.freeze()
}

/// Decodes a vector produced by [`encode_f32`].
///
/// # Errors
///
/// Returns [`DecodeError`] if the buffer is truncated, carries trailing
/// bytes, or has the wrong magic number ([`DecodeErrorKind::Malformed`]),
/// or if the payload checksum does not match
/// ([`DecodeErrorKind::Corrupted`] — the buffer was damaged after
/// encoding).
pub fn decode_f32(mut bytes: &[u8]) -> Result<Vec<f32>, DecodeError> {
    if bytes.remaining() < HEADER {
        return Err(DecodeError::malformed("header truncated"));
    }
    if bytes.get_u32_le() != MAGIC_F32 {
        return Err(DecodeError::malformed("bad magic for f32 codec"));
    }
    let n = bytes.get_u32_le() as usize;
    let expected_sum = bytes.get_u32_le();
    if bytes.remaining() < n * 4 {
        return Err(DecodeError::malformed("payload truncated"));
    }
    if bytes.remaining() > n * 4 {
        return Err(DecodeError::malformed("trailing bytes after payload"));
    }
    if fnv1a(bytes) != expected_sum {
        return Err(DecodeError::corrupted("payload checksum mismatch"));
    }
    Ok((0..n).map(|_| bytes.get_f32_le()).collect())
}

fn check_finite(params: &[f32]) -> Result<(), EncodeError> {
    if params.iter().all(|p| p.is_finite()) {
        Ok(())
    } else {
        Err(EncodeError::new("non-finite parameter"))
    }
}

/// Min/max of an all-finite parameter vector; `(0, 0)` when empty.
fn min_max(params: &[f32]) -> (f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &p in params {
        lo = lo.min(p);
        hi = hi.max(p);
    }
    if lo > hi {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

/// Encodes with linear 8-bit quantisation (≈4× smaller than `f32`).
///
/// Values are mapped to the integer range `[0, 254]` across the vector's
/// min/max span; the offset and scale are stored in the (checksummed)
/// header so decoding is self-contained.
///
/// # Errors
///
/// Returns [`EncodeError`] if any parameter is non-finite — quantising
/// NaN or ±∞ would silently change its value (NaN `as u8` is 0, i.e. the
/// range minimum). Use [`encode_f32`] for such vectors; it round-trips
/// non-finite values bit-exactly.
pub fn encode_q8(params: &[f32]) -> Result<Bytes, EncodeError> {
    check_finite(params)?;
    let (lo, hi) = min_max(params);
    let scale = ((hi - lo) / 254.0).max(f32::MIN_POSITIVE);
    let mut buf = BytesMut::with_capacity(Q_HEADER + params.len());
    buf.put_u32_le(MAGIC_Q8);
    buf.put_u32_le(params.len() as u32);
    buf.put_u32_le(0); // checksum placeholder
    buf.put_f32_le(lo);
    buf.put_f32_le(scale);
    for &p in params {
        let q = ((p - lo) / scale).round().clamp(0.0, 254.0) as u8;
        buf.put_u8(q);
    }
    let sum = fnv1a(&buf[HEADER..]);
    buf[8..12].copy_from_slice(&sum.to_le_bytes());
    Ok(buf.freeze())
}

/// Decodes a vector produced by [`encode_q8`]. Lossy: values are
/// reconstructed to within one quantisation step.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncated, over-long, or mislabeled input
/// ([`DecodeErrorKind::Malformed`]) and on checksum mismatch
/// ([`DecodeErrorKind::Corrupted`]).
pub fn decode_q8(mut bytes: &[u8]) -> Result<Vec<f32>, DecodeError> {
    if bytes.remaining() < Q_HEADER {
        return Err(DecodeError::malformed("header truncated"));
    }
    if bytes.get_u32_le() != MAGIC_Q8 {
        return Err(DecodeError::malformed("bad magic for q8 codec"));
    }
    let n = bytes.get_u32_le() as usize;
    let expected_sum = bytes.get_u32_le();
    if bytes.remaining() < 8 + n {
        return Err(DecodeError::malformed("payload truncated"));
    }
    if bytes.remaining() > 8 + n {
        return Err(DecodeError::malformed("trailing bytes after payload"));
    }
    if fnv1a(bytes) != expected_sum {
        return Err(DecodeError::corrupted("payload checksum mismatch"));
    }
    let lo = bytes.get_f32_le();
    let scale = bytes.get_f32_le();
    Ok((0..n).map(|_| lo + bytes.get_u8() as f32 * scale).collect())
}

/// Encodes with linear 4-bit quantisation (≈8× smaller than `f32`);
/// values map to `[0, 15]`, two per byte (high nibble first, odd tails
/// pad with a zero nibble).
///
/// # Errors
///
/// Returns [`EncodeError`] if any parameter is non-finite (see
/// [`encode_q8`]).
pub fn encode_q4(params: &[f32]) -> Result<Bytes, EncodeError> {
    check_finite(params)?;
    let (lo, hi) = min_max(params);
    let scale = ((hi - lo) / 15.0).max(f32::MIN_POSITIVE);
    let mut buf = BytesMut::with_capacity(Q_HEADER + params.len().div_ceil(2));
    buf.put_u32_le(MAGIC_Q4);
    buf.put_u32_le(params.len() as u32);
    buf.put_u32_le(0); // checksum placeholder
    buf.put_f32_le(lo);
    buf.put_f32_le(scale);
    let quant = |p: f32| ((p - lo) / scale).round().clamp(0.0, 15.0) as u8;
    for pair in params.chunks(2) {
        let hi4 = quant(pair[0]);
        let lo4 = if pair.len() == 2 { quant(pair[1]) } else { 0 };
        buf.put_u8((hi4 << 4) | lo4);
    }
    let sum = fnv1a(&buf[HEADER..]);
    buf[8..12].copy_from_slice(&sum.to_le_bytes());
    Ok(buf.freeze())
}

/// Decodes a vector produced by [`encode_q4`]. Lossy.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncated, over-long, or mislabeled input
/// ([`DecodeErrorKind::Malformed`]) and on checksum mismatch
/// ([`DecodeErrorKind::Corrupted`]).
pub fn decode_q4(mut bytes: &[u8]) -> Result<Vec<f32>, DecodeError> {
    if bytes.remaining() < Q_HEADER {
        return Err(DecodeError::malformed("header truncated"));
    }
    if bytes.get_u32_le() != MAGIC_Q4 {
        return Err(DecodeError::malformed("bad magic for q4 codec"));
    }
    let n = bytes.get_u32_le() as usize;
    let expected_sum = bytes.get_u32_le();
    if bytes.remaining() < 8 + n.div_ceil(2) {
        return Err(DecodeError::malformed("payload truncated"));
    }
    if bytes.remaining() > 8 + n.div_ceil(2) {
        return Err(DecodeError::malformed("trailing bytes after payload"));
    }
    if fnv1a(bytes) != expected_sum {
        return Err(DecodeError::corrupted("payload checksum mismatch"));
    }
    let lo = bytes.get_f32_le();
    let scale = bytes.get_f32_le();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let b = bytes.get_u8();
        out.push(lo + (b >> 4) as f32 * scale);
        if out.len() < n {
            out.push(lo + (b & 0x0F) as f32 * scale);
        }
    }
    Ok(out)
}

/// A decoded sparse top-k delta: up to `k` (index, delta) pairs against
/// a base vector of length `n`. Produced by [`decode_topk`]; applied to
/// the predecessor model with [`TopKDelta::apply`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopKDelta {
    n: usize,
    entries: Vec<(u32, f32)>,
}

impl TopKDelta {
    /// Length of the base (and reconstructed) parameter vector.
    pub fn param_len(&self) -> usize {
        self.n
    }

    /// The retained (index, delta) pairs, indices strictly increasing.
    pub fn entries(&self) -> &[(u32, f32)] {
        &self.entries
    }

    /// Reconstructs the target vector: `base` plus the retained deltas
    /// (coordinates not retained keep their base value — this is the
    /// lossy half of the codec).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] ([`DecodeErrorKind::Malformed`]) if
    /// `base` does not have the encoded length — the caller applied the
    /// delta to the wrong model.
    pub fn apply(&self, base: &[f32]) -> Result<Vec<f32>, DecodeError> {
        if base.len() != self.n {
            return Err(DecodeError::malformed("top-k base length mismatch"));
        }
        let mut out = base.to_vec();
        for &(idx, delta) in &self.entries {
            out[idx as usize] += delta;
        }
        Ok(out)
    }
}

/// Encodes `target` as a sparse delta against `base`, keeping only the
/// `k` coordinates with the largest absolute change (ties broken by
/// index, so the encoding is deterministic). Coordinates not kept decode
/// to their base value — the codec is lossy unless `k >= target.len()`.
///
/// Size on the wire is `16 + 8k` bytes versus `12 + 4n` for the dense
/// `f32` codec, so it wins whenever fewer than ~half the coordinates
/// moved meaningfully.
///
/// # Errors
///
/// Returns [`EncodeError`] if `base` and `target` differ in length or
/// either contains a non-finite value.
pub fn encode_topk(base: &[f32], target: &[f32], k: usize) -> Result<Bytes, EncodeError> {
    if base.len() != target.len() {
        return Err(EncodeError::new("top-k base/target length mismatch"));
    }
    check_finite(base)?;
    check_finite(target)?;
    let n = target.len();
    let k = k.min(n);
    let mut ranked: Vec<(u32, f32)> =
        base.iter().zip(target).enumerate().map(|(i, (&b, &t))| (i as u32, t - b)).collect();
    // Total order (magnitude desc, index asc): the selected set is
    // deterministic even where magnitudes tie.
    if k > 0 {
        ranked.select_nth_unstable_by(k - 1, |a, b| {
            b.1.abs().partial_cmp(&a.1.abs()).expect("finite deltas compare").then(a.0.cmp(&b.0))
        });
    }
    ranked.truncate(k);
    ranked.sort_unstable_by_key(|&(idx, _)| idx);
    let mut buf = BytesMut::with_capacity(TOPK_HEADER + k * 8);
    buf.put_u32_le(MAGIC_TOPK);
    buf.put_u32_le(n as u32);
    buf.put_u32_le(0); // checksum placeholder
    buf.put_u32_le(k as u32);
    for &(idx, _) in &ranked {
        buf.put_u32_le(idx);
    }
    for &(_, delta) in &ranked {
        buf.put_f32_le(delta);
    }
    let sum = topk_checksum(&buf[4..8], &buf[HEADER..]);
    buf[8..12].copy_from_slice(&sum.to_le_bytes());
    Ok(buf.freeze())
}

/// Decodes a buffer produced by [`encode_topk`]. The result still needs
/// the base vector — see [`TopKDelta::apply`].
///
/// # Errors
///
/// Returns [`DecodeError`] on structural damage (truncation, trailing
/// bytes, wrong magic, out-of-range or non-increasing indices —
/// [`DecodeErrorKind::Malformed`]) and on checksum mismatch
/// ([`DecodeErrorKind::Corrupted`]).
pub fn decode_topk(mut bytes: &[u8]) -> Result<TopKDelta, DecodeError> {
    if bytes.remaining() < TOPK_HEADER {
        return Err(DecodeError::malformed("header truncated"));
    }
    if bytes.get_u32_le() != MAGIC_TOPK {
        return Err(DecodeError::malformed("bad magic for top-k codec"));
    }
    let n_field = &bytes[..4];
    let n = bytes.get_u32_le() as usize;
    let expected_sum = bytes.get_u32_le();
    let body: &[u8] = bytes;
    let k = bytes.get_u32_le() as usize;
    // Length before checksum so trailing garbage on an intact buffer is
    // Malformed, not Corrupted. (A bit flip in the k field therefore
    // also lands here, as a length mismatch.)
    if bytes.remaining() < k.saturating_mul(8) {
        return Err(DecodeError::malformed("payload truncated"));
    }
    if bytes.remaining() > k.saturating_mul(8) {
        return Err(DecodeError::malformed("trailing bytes after payload"));
    }
    if topk_checksum(n_field, body) != expected_sum {
        return Err(DecodeError::corrupted("payload checksum mismatch"));
    }
    if k > n {
        return Err(DecodeError::malformed("top-k keeps more entries than parameters"));
    }
    let mut indices = Vec::with_capacity(k);
    for _ in 0..k {
        indices.push(bytes.get_u32_le());
    }
    for pair in indices.windows(2) {
        if pair[1] <= pair[0] {
            return Err(DecodeError::malformed("top-k indices not strictly increasing"));
        }
    }
    if let Some(&last) = indices.last() {
        if last as usize >= n {
            return Err(DecodeError::malformed("top-k index out of range"));
        }
    }
    let entries = indices.into_iter().map(|idx| (idx, bytes.get_f32_le())).collect();
    Ok(TopKDelta { n, entries })
}

/// Whether `bytes` start with the top-k delta magic — the one codec
/// [`decode_any`] cannot handle alone, because reconstruction needs the
/// predecessor model.
pub fn is_topk(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) == MAGIC_TOPK
}

/// Decodes a self-contained parameter buffer of any codec, dispatching
/// on the magic number.
///
/// # Errors
///
/// Returns [`DecodeError`] for unknown magics and top-k deltas (which
/// need a base model — use [`decode_topk`]), plus whatever the
/// dispatched decoder reports.
pub fn decode_any(bytes: &[u8]) -> Result<Vec<f32>, DecodeError> {
    if bytes.len() < 4 {
        return Err(DecodeError::malformed("header truncated"));
    }
    match u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) {
        MAGIC_F32 => decode_f32(bytes),
        MAGIC_Q8 => decode_q8(bytes),
        MAGIC_Q4 => decode_q4(bytes),
        MAGIC_TOPK => Err(DecodeError::malformed("top-k delta needs a base model")),
        _ => Err(DecodeError::malformed("unknown codec magic")),
    }
}

/// A self-contained parameter codec, selectable per link by the wire
/// profile. Decoding is codec-agnostic via [`decode_any`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Lossless little-endian `f32` ([`encode_f32`]).
    F32,
    /// Linear 8-bit quantisation ([`encode_q8`]), ≈4× smaller.
    Q8,
    /// Linear 4-bit quantisation ([`encode_q4`]), ≈8× smaller.
    Q4,
}

impl Codec {
    /// Short name for reports and tables.
    pub fn label(self) -> &'static str {
        match self {
            Codec::F32 => "f32",
            Codec::Q8 => "q8",
            Codec::Q4 => "q4",
        }
    }

    /// Encoded size in bytes for an `n`-parameter vector.
    pub fn encoded_len(self, n: usize) -> usize {
        match self {
            Codec::F32 => HEADER + n * 4,
            Codec::Q8 => Q_HEADER + n,
            Codec::Q4 => Q_HEADER + n.div_ceil(2),
        }
    }

    /// Encodes with this codec, propagating quantiser refusals.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if the codec quantises and `params`
    /// contains a non-finite value. [`Codec::F32`] never fails.
    pub fn try_encode(self, params: &[f32]) -> Result<Bytes, EncodeError> {
        match self {
            Codec::F32 => Ok(encode_f32(params)),
            Codec::Q8 => encode_q8(params),
            Codec::Q4 => encode_q4(params),
        }
    }

    /// Encodes with this codec, falling back to the lossless `f32`
    /// codec when the quantiser refuses (non-finite values must reach
    /// the receiver unchanged — the validation pipeline, not the wire,
    /// judges poisoned updates). Receivers decode via [`decode_any`],
    /// so the fallback is transparent.
    pub fn encode(self, params: &[f32]) -> Bytes {
        self.try_encode(params).unwrap_or_else(|_| encode_f32(params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_params(n: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(99);
        baffle_tensor::rng::normal_vec(&mut rng, n, 0.0, 0.3)
    }

    #[test]
    fn f32_roundtrip_is_exact() {
        let p = sample_params(1000);
        assert_eq!(decode_f32(&encode_f32(&p)).unwrap(), p);
    }

    #[test]
    fn f32_empty_roundtrip() {
        let p: Vec<f32> = Vec::new();
        assert_eq!(decode_f32(&encode_f32(&p)).unwrap(), p);
    }

    #[test]
    fn q8_roundtrip_within_one_step() {
        let p = sample_params(1000);
        let back = decode_q8(&encode_q8(&p).unwrap()).unwrap();
        let (lo, hi) = super::min_max(&p);
        let step = (hi - lo) / 254.0;
        for (&a, &b) in p.iter().zip(&back) {
            assert!((a - b).abs() <= step, "{a} vs {b}, step {step}");
        }
    }

    #[test]
    fn q4_roundtrip_within_one_step() {
        let p = sample_params(1001); // odd length exercises the padding path
        let back = decode_q4(&encode_q4(&p).unwrap()).unwrap();
        assert_eq!(back.len(), p.len());
        let (lo, hi) = super::min_max(&p);
        let step = (hi - lo) / 15.0;
        for (&a, &b) in p.iter().zip(&back) {
            assert!((a - b).abs() <= step, "{a} vs {b}, step {step}");
        }
    }

    #[test]
    fn quantised_empty_roundtrips() {
        let p: Vec<f32> = Vec::new();
        assert_eq!(decode_q8(&encode_q8(&p).unwrap()).unwrap(), p);
        assert_eq!(decode_q4(&encode_q4(&p).unwrap()).unwrap(), p);
    }

    #[test]
    fn compression_ratios() {
        let p = sample_params(10_000);
        let f = encode_f32(&p).len();
        let q8 = encode_q8(&p).unwrap().len();
        let q4 = encode_q4(&p).unwrap().len();
        assert!(f as f32 / q8 as f32 > 3.9, "q8 ratio {}", f as f32 / q8 as f32);
        assert!(f as f32 / q4 as f32 > 7.8, "q4 ratio {}", f as f32 / q4 as f32);
    }

    #[test]
    fn constant_vector_quantises_exactly() {
        let p = vec![0.5; 100];
        let back = decode_q8(&encode_q8(&p).unwrap()).unwrap();
        for &b in &back {
            assert!((b - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn payload_bit_flip_is_reported_as_corruption() {
        let p = sample_params(64);
        let enc = encode_f32(&p);
        let mut damaged = enc.to_vec();
        damaged[HEADER + 17] ^= 0x40;
        let err = decode_f32(&damaged).unwrap_err();
        assert!(err.is_corruption(), "bit flip must be detected as corruption: {err}");
        assert_eq!(err.kind(), DecodeErrorKind::Corrupted);
        // Structural damage is *not* corruption: a truncated buffer and a
        // wrong-codec buffer are the sender's fault.
        let err = decode_f32(&enc[..enc.len() - 1]).unwrap_err();
        assert!(!err.is_corruption());
        let err = decode_f32(&encode_q8(&p).unwrap()).unwrap_err();
        assert!(!err.is_corruption());
    }

    #[test]
    fn q8_bit_flip_is_reported_as_corruption() {
        let p = sample_params(64);
        let enc = encode_q8(&p).unwrap();
        // Flip one bit everywhere past the unchecksummed magic+count:
        // checksum field, lo, scale, and payload are all covered.
        for at in [8, HEADER, HEADER + 4, Q_HEADER, enc.len() - 1] {
            let mut damaged = enc.to_vec();
            damaged[at] ^= 0x10;
            let err = decode_q8(&damaged).unwrap_err();
            assert!(err.is_corruption(), "flip at {at} must be corruption: {err}");
        }
    }

    #[test]
    fn q4_bit_flip_is_reported_as_corruption() {
        let p = sample_params(65); // odd: also covers the padding nibble
        let enc = encode_q4(&p).unwrap();
        for at in [8, HEADER, HEADER + 4, Q_HEADER, enc.len() - 1] {
            let mut damaged = enc.to_vec();
            damaged[at] ^= 0x01;
            let err = decode_q4(&damaged).unwrap_err();
            assert!(err.is_corruption(), "flip at {at} must be corruption: {err}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let p = sample_params(10);
        for enc in [encode_f32(&p), encode_q8(&p).unwrap(), encode_q4(&p).unwrap()] {
            let mut long = enc.to_vec();
            long.push(0);
            let err = decode_any(&long).unwrap_err();
            assert_eq!(err.kind(), DecodeErrorKind::Malformed, "{err}");
        }
        let mut long = encode_topk(&p, &p, 4).unwrap().to_vec();
        long.push(0);
        assert_eq!(decode_topk(&long).unwrap_err().kind(), DecodeErrorKind::Malformed);
    }

    #[test]
    fn quantisers_reject_non_finite_input() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let p = vec![0.0, bad, 1.0];
            assert!(encode_q8(&p).is_err(), "q8 must refuse {bad}");
            assert!(encode_q4(&p).is_err(), "q4 must refuse {bad}");
            assert!(encode_topk(&p, &[0.0; 3], 1).is_err());
            assert!(encode_topk(&[0.0; 3], &p, 1).is_err());
            // The lossless codec carries the same vector bit-exactly.
            let back = decode_f32(&encode_f32(&p)).unwrap();
            assert_eq!(back[1].to_bits(), bad.to_bits());
        }
    }

    #[test]
    fn topk_full_rank_roundtrip_is_exact() {
        let base = sample_params(200);
        let target: Vec<f32> = base.iter().map(|&b| b * 1.5 + 0.01).collect();
        let enc = encode_topk(&base, &target, 200).unwrap();
        let delta = decode_topk(&enc).unwrap();
        assert_eq!(delta.param_len(), 200);
        let back = delta.apply(&base).unwrap();
        for (&t, &b) in target.iter().zip(&back) {
            assert!((t - b).abs() < 1e-6, "{t} vs {b}");
        }
    }

    #[test]
    fn topk_keeps_largest_deltas_and_bases_the_rest() {
        let base = vec![0.0; 8];
        let target = vec![0.0, 5.0, 0.1, -7.0, 0.0, 0.2, 3.0, 0.0];
        let enc = encode_topk(&base, &target, 3).unwrap();
        let delta = decode_topk(&enc).unwrap();
        assert_eq!(delta.entries().iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![1, 3, 6]);
        let back = delta.apply(&base).unwrap();
        assert_eq!(back, vec![0.0, 5.0, 0.0, -7.0, 0.0, 0.0, 3.0, 0.0]);
        // Applying against a wrong-length base is refused.
        assert!(delta.apply(&[0.0; 7]).is_err());
    }

    #[test]
    fn topk_bit_flip_is_reported_as_corruption() {
        let base = sample_params(100);
        let target: Vec<f32> = base.iter().map(|&b| b + 0.01).collect();
        let enc = encode_topk(&base, &target, 10).unwrap();
        // Byte 4 hits the vector length (checksummed for this codec),
        // byte 8 the checksum field, TOPK_HEADER.. index bytes, the tail
        // a delta value. (A flip in the k field at byte 12 reports
        // Malformed instead — the frame length no longer adds up.)
        for at in [4, 8, TOPK_HEADER, TOPK_HEADER + 3, enc.len() - 1] {
            let mut damaged = enc.to_vec();
            damaged[at] ^= 0x08;
            let err = decode_topk(&damaged).unwrap_err();
            assert!(err.is_corruption(), "flip at {at} must be corruption: {err}");
        }
    }

    #[test]
    fn decode_any_dispatches_on_magic() {
        let p = sample_params(32);
        assert_eq!(decode_any(&encode_f32(&p)).unwrap(), p);
        assert_eq!(
            decode_any(&encode_q8(&p).unwrap()).unwrap(),
            decode_q8(&encode_q8(&p).unwrap()).unwrap()
        );
        assert_eq!(
            decode_any(&encode_q4(&p).unwrap()).unwrap(),
            decode_q4(&encode_q4(&p).unwrap()).unwrap()
        );
        // Top-k needs a base, so decode_any refuses it (structurally).
        let topk = encode_topk(&p, &p, 4).unwrap();
        assert!(is_topk(&topk));
        assert!(!is_topk(&encode_f32(&p)));
        assert_eq!(decode_any(&topk).unwrap_err().kind(), DecodeErrorKind::Malformed);
        // Unknown magic.
        assert!(decode_any(&[0xAA; 16]).is_err());
        assert!(decode_any(&[]).is_err());
    }

    #[test]
    fn codec_encode_falls_back_to_lossless_on_non_finite() {
        let p = vec![1.0, f32::NAN, -2.0];
        for codec in [Codec::Q8, Codec::Q4] {
            assert!(codec.try_encode(&p).is_err());
            let back = decode_any(&codec.encode(&p)).unwrap();
            assert_eq!(back[0], 1.0);
            assert!(back[1].is_nan());
            assert_eq!(back[2], -2.0);
        }
    }

    #[test]
    fn codec_encoded_len_matches_reality() {
        let p = sample_params(101);
        for codec in [Codec::F32, Codec::Q8, Codec::Q4] {
            assert_eq!(codec.encode(&p).len(), codec.encoded_len(p.len()), "{}", codec.label());
        }
    }

    #[test]
    fn wrong_magic_errors() {
        let p = sample_params(10);
        let enc = encode_q8(&p).unwrap();
        assert!(decode_f32(&enc).is_err());
        let enc = encode_f32(&p);
        assert!(decode_q8(&enc).is_err());
        assert!(decode_q4(&enc).is_err());
        assert!(decode_topk(&enc).is_err());
    }

    #[test]
    fn decode_error_displays() {
        let err = decode_f32(&[]).unwrap_err();
        assert!(err.to_string().contains("malformed"));
        let err = encode_q8(&[f32::NAN]).unwrap_err();
        assert!(err.to_string().contains("non-finite"));
    }
}
