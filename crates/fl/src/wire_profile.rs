//! Per-link wire-encoding selection.
//!
//! The paper's "reduce communication by ×10" estimate (§VI-D) leans on
//! model compression for the validator-bound traffic — shipping the last
//! `ℓ+1` accepted global models dominates bytes on the wire. A
//! [`WireProfile`] names the codec for each hot payload so a deployment
//! can trade fidelity for bandwidth per link class: lossless for the
//! paper-faithful baseline, 8-bit quantisation for the compression
//! estimate, and chained sparse top-k deltas for the history window,
//! where consecutive accepted models differ in few coordinates.

use baffle_nn::wire::Codec;

/// How the accepted-model history window is shipped to validators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryCodec {
    /// Every entry self-contained, encoded with the given codec.
    Dense(Codec),
    /// The first entry of each shipment is dense (with `codec`); each
    /// subsequent entry is a sparse top-k delta against its predecessor,
    /// keeping `keep_per_mille`/1000 of the coordinates (at least one).
    /// Consecutive accepted models share most weights, so the chain is
    /// far smaller than dense shipping; a client that cannot apply a
    /// link of the chain discards its window and is re-shipped dense
    /// state via the history-sync reset path.
    TopKChain {
        /// Dense codec for chain heads (and for entries whose delta
        /// could not be built, e.g. non-finite predecessors).
        codec: Codec,
        /// Retained coordinates per delta, in tenths of a percent.
        keep_per_mille: u16,
    },
}

impl HistoryCodec {
    /// Short name for reports and tables.
    pub fn label(self) -> &'static str {
        match self {
            HistoryCodec::Dense(Codec::F32) => "f32",
            HistoryCodec::Dense(Codec::Q8) => "q8",
            HistoryCodec::Dense(Codec::Q4) => "q4",
            HistoryCodec::TopKChain { .. } => "topk",
        }
    }
}

/// Which codec each payload class uses on the wire.
///
/// The three hot payloads are configured independently: `model` covers
/// the global model and the candidate (server → client), `update` covers
/// local updates (client → server), and `history` covers the accepted
/// history window shipped to validators (server → client, the dominant
/// cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireProfile {
    /// Global model and candidate payloads.
    pub model: Codec,
    /// Client update payloads.
    pub update: Codec,
    /// Accepted-history window payloads.
    pub history: HistoryCodec,
}

impl WireProfile {
    /// Paper-faithful baseline: lossless `f32` everywhere.
    pub fn lossless() -> Self {
        Self { model: Codec::F32, update: Codec::F32, history: HistoryCodec::Dense(Codec::F32) }
    }

    /// 8-bit quantisation on every payload (≈4× fewer bytes).
    pub fn quantized() -> Self {
        Self { model: Codec::Q8, update: Codec::Q8, history: HistoryCodec::Dense(Codec::Q8) }
    }

    /// Aggressive: q8 models/updates plus a top-k delta chain for the
    /// history window (keeps 6.2 % of coordinates per delta).
    ///
    /// **Known issue:** the history a validator reconstructs from the
    /// chain drifts from the server's far enough to break detection. On
    /// the benchmark's paper-shape all-honest deployment (N = 100, ℓ = 20)
    /// this profile rejected 69 % of 1 500 honest rounds, against 2 %
    /// under [`WireProfile::lossless`] and [`WireProfile::quantized`].
    /// Use `quantized()` until the chain is fixed.
    pub fn compact() -> Self {
        Self {
            model: Codec::Q8,
            update: Codec::Q8,
            history: HistoryCodec::TopKChain { codec: Codec::Q8, keep_per_mille: 62 },
        }
    }

    /// Short name for reports; presets get their names, anything else is
    /// `"custom"`.
    pub fn label(&self) -> &'static str {
        if *self == Self::lossless() {
            "f32"
        } else if *self == Self::quantized() {
            "q8"
        } else if *self == Self::compact() {
            "topk"
        } else {
            "custom"
        }
    }

    /// How many coordinates a top-k history delta keeps for an
    /// `n`-parameter model under this profile (`None` for dense
    /// history shipping).
    pub fn history_keep(&self, n: usize) -> Option<usize> {
        match self.history {
            HistoryCodec::Dense(_) => None,
            HistoryCodec::TopKChain { keep_per_mille, .. } => {
                Some(((n * keep_per_mille as usize) / 1000).max(1))
            }
        }
    }
}

impl Default for WireProfile {
    fn default() -> Self {
        Self::lossless()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_labels_roundtrip() {
        assert_eq!(WireProfile::lossless().label(), "f32");
        assert_eq!(WireProfile::quantized().label(), "q8");
        assert_eq!(WireProfile::compact().label(), "topk");
        let custom = WireProfile { model: Codec::F32, ..WireProfile::compact() };
        assert_eq!(custom.label(), "custom");
        assert_eq!(WireProfile::default(), WireProfile::lossless());
    }

    #[test]
    fn history_keep_scales_with_model_size() {
        let p = WireProfile::compact();
        assert_eq!(p.history_keep(1000), Some(62));
        assert_eq!(p.history_keep(10), Some(1)); // floor of one coordinate
        assert_eq!(WireProfile::lossless().history_keep(1000), None);
    }

    #[test]
    fn history_codec_labels() {
        assert_eq!(HistoryCodec::Dense(Codec::Q4).label(), "q4");
        assert_eq!(
            HistoryCodec::TopKChain { codec: Codec::Q8, keep_per_mille: 10 }.label(),
            "topk"
        );
    }
}
