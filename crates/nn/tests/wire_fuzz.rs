//! Fuzzing for the parameter codecs: arbitrary byte strings must decode
//! or error — never panic — and every single-bit flip on a valid buffer
//! must surface as an error, with flips in the checksummed region
//! reported as [`DecodeErrorKind::Corrupted`].

use baffle_nn::wire::{
    self, decode_any, decode_f32, decode_q4, decode_q8, decode_topk, encode_f32, encode_q4,
    encode_q8, encode_topk, DecodeErrorKind,
};
use proptest::prelude::*;

proptest! {
    /// No decoder panics on arbitrary input, including buffers that
    /// resemble headers with wild length fields.
    #[test]
    fn decoders_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_f32(&bytes);
        let _ = decode_q8(&bytes);
        let _ = decode_q4(&bytes);
        let _ = decode_topk(&bytes);
        let _ = decode_any(&bytes);
    }

    /// Same, but with a valid magic spliced in front so the decoders get
    /// past the first gate and exercise their length/checksum paths.
    #[test]
    fn decoders_never_panic_with_valid_magic(tail in prop::collection::vec(any::<u8>(), 0..128)) {
        for enc in [
            encode_f32(&[1.0]),
            encode_q8(&[1.0]).unwrap(),
            encode_q4(&[1.0]).unwrap(),
            encode_topk(&[1.0], &[2.0], 1).unwrap(),
        ] {
            let mut bytes = enc[..4].to_vec();
            bytes.extend_from_slice(&tail);
            let _ = decode_any(&bytes);
            let _ = decode_f32(&bytes);
            let _ = decode_q8(&bytes);
            let _ = decode_q4(&bytes);
            let _ = decode_topk(&bytes);
        }
    }

    /// Every valid buffer decodes through `decode_any`, and every
    /// single-bit flip is rejected; flips past the magic+count prefix
    /// are reported as corruption for the self-contained codecs.
    #[test]
    fn single_bit_flips_are_detected(
        p in prop::collection::vec(-5.0_f32..5.0, 1..64),
        bit in 0usize..8,
        seed in any::<prop::sample::Index>(),
    ) {
        for enc in [encode_f32(&p), encode_q8(&p).unwrap(), encode_q4(&p).unwrap()] {
            prop_assert!(decode_any(&enc).is_ok());
            let at = seed.index(enc.len());
            let mut damaged = enc.to_vec();
            damaged[at] ^= 1 << bit;
            let err = decode_any(&damaged).expect_err("flip must not decode");
            if at >= 8 {
                // Checksum field or checksummed region.
                prop_assert_eq!(err.kind(), DecodeErrorKind::Corrupted, "flip at {}", at);
            }
        }
    }

    /// Bit flips on top-k deltas are likewise rejected: the magic
    /// (bytes 0..4) and the k field (12..16, a length mismatch) surface
    /// as malformed; the vector length (4..8, inside this codec's
    /// checksum because nothing else pins it), the checksum field and
    /// the body as corruption.
    #[test]
    fn topk_bit_flips_are_detected(
        p in prop::collection::vec(-5.0_f32..5.0, 2..64),
        bit in 0usize..8,
        seed in any::<prop::sample::Index>(),
    ) {
        let target: Vec<f32> = p.iter().map(|&x| x * 1.1 + 0.05).collect();
        let enc = encode_topk(&p, &target, p.len() / 2).unwrap();
        prop_assert!(decode_topk(&enc).is_ok());
        let at = seed.index(enc.len());
        let mut damaged = enc.to_vec();
        damaged[at] ^= 1 << bit;
        prop_assert!(decode_topk(&damaged).is_err(), "flip at {} must not decode", at);
    }

    /// Quantised roundtrips stay within one quantisation step, and the
    /// sparse delta reconstructs retained coordinates exactly.
    #[test]
    fn lossy_roundtrip_error_is_bounded(p in prop::collection::vec(-8.0_f32..8.0, 1..128)) {
        let lo = p.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = p.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let q8 = decode_q8(&encode_q8(&p).unwrap()).unwrap();
        let step8 = ((hi - lo) / 254.0).max(1e-12);
        for (a, b) in p.iter().zip(&q8) {
            prop_assert!((a - b).abs() <= step8 + 1e-6);
        }
        let q4 = decode_q4(&encode_q4(&p).unwrap()).unwrap();
        let step4 = ((hi - lo) / 15.0).max(1e-12);
        for (a, b) in p.iter().zip(&q4) {
            prop_assert!((a - b).abs() <= step4 + 1e-6);
        }
        let base = vec![0.0; p.len()];
        let full = decode_topk(&encode_topk(&base, &p, p.len()).unwrap()).unwrap();
        let back = full.apply(&base).unwrap();
        for (a, b) in p.iter().zip(&back) {
            prop_assert!((a - b).abs() <= 1e-6);
        }
    }

    /// Truncations of a valid buffer never decode and never panic.
    #[test]
    fn truncations_never_decode(p in prop::collection::vec(-5.0_f32..5.0, 1..32)) {
        for enc in [encode_f32(&p), encode_q8(&p).unwrap(), encode_q4(&p).unwrap()] {
            for cut in 0..enc.len() {
                prop_assert!(decode_any(&enc[..cut]).is_err());
            }
        }
        let enc = encode_topk(&p, &p, 1).unwrap();
        for cut in 0..enc.len() {
            prop_assert!(decode_topk(&enc[..cut]).is_err());
        }
    }

    /// The codec selector's lossless fallback keeps non-finite vectors
    /// decodable bit-exactly whatever codec the profile picked.
    #[test]
    fn codec_fallback_roundtrips_non_finite(
        p in prop::collection::vec(prop_oneof![Just(f32::NAN), Just(f32::INFINITY), -2.0_f32..2.0], 0..32),
    ) {
        for codec in [wire::Codec::F32, wire::Codec::Q8, wire::Codec::Q4] {
            let back = decode_any(&codec.encode(&p)).unwrap();
            prop_assert_eq!(back.len(), p.len());
            if p.iter().any(|x| !x.is_finite()) {
                for (a, b) in p.iter().zip(&back) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
