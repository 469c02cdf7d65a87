//! Property-based tests for the NN substrate.

use baffle_nn::conv::Conv1d;
use baffle_nn::{
    softmax, softmax_cross_entropy, Activation, Cnn, CnnSpec, ConfusionMatrix, Mlp, MlpSpec, Model,
    Sgd,
};
use baffle_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn logits_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-20.0_f32..20.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    /// Softmax outputs are a probability distribution per row.
    #[test]
    fn softmax_rows_are_distributions(logits in logits_strategy(4, 5)) {
        let p = softmax(&logits);
        for r in 0..p.rows() {
            let row = p.row(r);
            prop_assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
    }

    /// Cross-entropy loss is non-negative and its gradient rows sum to 0.
    #[test]
    fn cross_entropy_invariants(logits in logits_strategy(3, 4), labels in prop::collection::vec(0usize..4, 3)) {
        let (loss, grad) = softmax_cross_entropy(&logits, &labels);
        prop_assert!(loss >= -1e-6);
        for r in 0..grad.rows() {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-4);
        }
    }

    /// params/set_params round-trips exactly for arbitrary architectures.
    #[test]
    fn param_roundtrip(hidden in prop::collection::vec(1usize..8, 0..3), seed in 0u64..1000) {
        let spec = MlpSpec::new(3, &hidden, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Mlp::new(&spec, &mut rng);
        let mut b = Mlp::new(&spec, &mut rng);
        b.set_params(&a.params());
        prop_assert_eq!(a.params(), b.params());
    }

    /// Spec::num_params always matches the materialised model.
    #[test]
    fn spec_param_count(hidden in prop::collection::vec(1usize..10, 0..4), classes in 2usize..6, input in 1usize..9) {
        let spec = MlpSpec::new(input, &hidden, classes);
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mlp::new(&spec, &mut rng);
        prop_assert_eq!(m.params().len(), spec.num_params());
    }

    /// Confusion-matrix identities: total preserved, accuracy + error = 1,
    /// source and target errors each sum to the total error.
    #[test]
    fn confusion_identities(pairs in prop::collection::vec((0usize..4, 0usize..4), 1..60)) {
        let mut cm = ConfusionMatrix::new(4);
        for &(t, p) in &pairs {
            cm.record(t, p);
        }
        prop_assert_eq!(cm.total(), pairs.len() as u64);
        prop_assert!((cm.accuracy() + cm.error() - 1.0).abs() < 1e-5);
        let s: f32 = cm.source_errors().iter().sum();
        let t: f32 = cm.target_errors().iter().sum();
        prop_assert!((s - cm.error()).abs() < 1e-5);
        prop_assert!((t - cm.error()).abs() < 1e-5);
    }

    /// Predictions are always valid class indices.
    #[test]
    fn predictions_in_range(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Mlp::new(&MlpSpec::new(5, &[7], 3), &mut rng);
        let x = baffle_tensor::rng::normal_matrix(&mut rng, 10, 5, 1.0);
        let preds = m.predict_batch(&x);
        prop_assert_eq!(preds.len(), 10);
        prop_assert!(preds.iter().all(|&p| p < 3));
    }

    /// Wire codecs: f32 is lossless; q8 error bounded by its step size.
    #[test]
    fn wire_roundtrip(p in prop::collection::vec(-5.0_f32..5.0, 0..200)) {
        let exact = baffle_nn::wire::decode_f32(&baffle_nn::wire::encode_f32(&p)).unwrap();
        prop_assert_eq!(&exact, &p);
        let q = baffle_nn::wire::decode_q8(&baffle_nn::wire::encode_q8(&p).unwrap()).unwrap();
        prop_assert_eq!(q.len(), p.len());
        if !p.is_empty() {
            let lo = p.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = p.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let step = ((hi - lo) / 254.0).max(1e-12);
            for (a, b) in p.iter().zip(&q) {
                prop_assert!((a - b).abs() <= step + 1e-6);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// im2col convolution vs the retained naive reference: like the GEMM
// dispatch, the packed path must be BIT-identical (`to_bits` equality) —
// forward, input delta and both gradients — for any odd kernel, channel
// mix and batch size. Exact zeros are seeded into the signals because
// the padded im2col margins add `±0.0` products the naive loops never
// form (see `conv.rs` module docs for why those are bitwise harmless).
// ---------------------------------------------------------------------------

/// Conv shape: channels 1–3, odd kernel 1/3/5/7 (also wider than the
/// signal), short signals straddling the pad width, batch 1/7/64.
fn conv_problem() -> impl Strategy<Value = (usize, usize, usize, usize, usize, Vec<f32>, Vec<f32>)>
{
    (
        1usize..=3,
        1usize..=3,
        prop_oneof![Just(1usize), Just(3), Just(5), Just(7)],
        1usize..=12,
        prop_oneof![Just(1usize), Just(7), Just(64)],
    )
        .prop_flat_map(|(ic, oc, k, len, batch)| {
            (
                Just(ic),
                Just(oc),
                Just(k),
                Just(len),
                Just(batch),
                signal_data(batch * ic * len),
                signal_data(batch * oc * len),
            )
        })
}

/// Signal data with ~10 % exact zeros (normalised to `+0.0`).
fn signal_data(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0_f32..3.0, len)
        .prop_map(|v| v.into_iter().map(|x| if x.abs() < 0.3 { 0.0 } else { x }).collect())
}

proptest! {
    /// Packed forward ≡ naive forward, bitwise, across activations.
    #[test]
    fn conv_forward_is_bit_identical_to_naive((ic, oc, k, len, batch, x, _g) in conv_problem()) {
        let mut rng = StdRng::seed_from_u64(k as u64 * 31 + len as u64);
        for act in [Activation::Identity, Activation::Relu, Activation::Tanh] {
            let conv = Conv1d::new(ic, oc, k, len, act, &mut rng);
            let input = Matrix::from_vec(batch, ic * len, x.clone());
            let fast = conv.forward(&input);
            let slow = conv.naive_forward(&input);
            for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Packed train pass ≡ naive train pass, bitwise: forward_train,
    /// input delta, and both gradients (read back through apply_grads).
    #[test]
    fn conv_backward_is_bit_identical_to_naive((ic, oc, k, len, batch, x, g) in conv_problem()) {
        let mut rng = StdRng::seed_from_u64(k as u64 * 17 + batch as u64);
        let mut fast = Conv1d::new(ic, oc, k, len, Activation::Tanh, &mut rng);
        let mut slow = fast.clone();
        slow.force_naive(true);
        let input = Matrix::from_vec(batch, ic * len, x);
        let grad = Matrix::from_vec(batch, oc * len, g);
        let of = fast.forward_train(&input);
        let os = slow.forward_train(&input);
        for (a, b) in of.as_slice().iter().zip(os.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let df = fast.backward(&grad);
        let ds = slow.backward(&grad);
        for (a, b) in df.as_slice().iter().zip(ds.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut gf = Vec::new();
        fast.apply_grads(|_, gr| gf.push(gr.to_bits()));
        let mut gs = Vec::new();
        slow.apply_grads(|_, gr| gs.push(gr.to_bits()));
        prop_assert_eq!(gf, gs);
    }
}

// ---------------------------------------------------------------------------
// `ConfusionMatrix::from_models` vs per-model `from_model`.
// ---------------------------------------------------------------------------

proptest! {
    /// One matrix per model, each ≡ `from_model` entry for entry.
    #[test]
    fn from_models_matches_from_model(
        nb in 1usize..=3,
        rows in 1usize..=12,
        seed in 0u64..500,
    ) {
        let spec = CnnSpec::new(6, &[2], 3, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let models: Vec<Cnn> = (0..nb).map(|_| Cnn::new(&spec, &mut rng)).collect();
        let refs: Vec<&Cnn> = models.iter().collect();
        let x = baffle_tensor::rng::normal_matrix(&mut rng, rows, 6, 1.0);
        let y: Vec<usize> = (0..rows).map(|i| i % 3).collect();
        let batched = ConfusionMatrix::from_models(&refs, &x, &y);
        prop_assert_eq!(batched.len(), nb);
        for (m, cm) in models.iter().zip(&batched) {
            let solo = ConfusionMatrix::from_model(m, &x, &y);
            prop_assert_eq!(cm.num_classes(), solo.num_classes());
            for t in 0..3 {
                for p in 0..3 {
                    prop_assert_eq!(cm.count(t, p), solo.count(t, p));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace-reuse training vs the retained allocating reference. Both
// paths call the same dispatched kernels in the same order, and every
// reused buffer is fully overwritten (or zero-filled) before it is
// read, so the twins must agree BITWISE — losses and every parameter —
// at any thread count (CI re-runs the suite under `BAFFLE_THREADS=1`).
// ---------------------------------------------------------------------------

proptest! {
    /// `Mlp::train_epoch` (workspace) ≡ `Mlp::train_epoch_ref`
    /// (allocating), bitwise, across architectures and batch sizes —
    /// 19 samples leave ragged final minibatches of 3 and 1 for batch
    /// sizes 4 and 9, so the reused scratch sees shape changes.
    #[test]
    fn mlp_workspace_training_is_bit_identical_to_reference(
        hidden in prop::collection::vec(1usize..10, 1..3),
        batch in prop_oneof![Just(1usize), Just(4), Just(9)],
        seed in 0u64..500,
    ) {
        let spec = MlpSpec::new(6, &hidden, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = Mlp::new(&spec, &mut rng);
        let mut reference = ws.clone();
        let n = 19;
        let x = baffle_tensor::rng::normal_matrix(&mut StdRng::seed_from_u64(seed ^ 0xABCD), n, 6, 1.0);
        let y: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let mut opt_w = Sgd::new(0.05).with_momentum(0.9).with_weight_decay(1e-3);
        let mut opt_r = Sgd::new(0.05).with_momentum(0.9).with_weight_decay(1e-3);
        let mut rng_w = StdRng::seed_from_u64(seed + 1);
        let mut rng_r = StdRng::seed_from_u64(seed + 1);
        for epoch in 0..2 {
            let lw = ws.train_epoch(&x, &y, batch, &mut opt_w, &mut rng_w);
            let lr = reference.train_epoch_ref(&x, &y, batch, &mut opt_r, &mut rng_r);
            prop_assert_eq!(lw.to_bits(), lr.to_bits(), "loss diverged at epoch {}: {} vs {}", epoch, lw, lr);
        }
        let pw = ws.params();
        let pr = reference.params();
        prop_assert_eq!(pw.len(), pr.len());
        for (i, (a, b)) in pw.iter().zip(&pr).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "param {} diverged: {} vs {}", i, a, b);
        }
    }

    /// A model value is its parameters: after warm epochs, `clone()` has
    /// the original's parameters and predictions, and one more epoch on
    /// each from identical optimiser and RNG state gives bit-identical
    /// loss and parameters (19 samples: ragged last batches of 3 and 1).
    #[test]
    fn warm_clone_is_the_same_model_and_trains_identically(
        hidden in prop::collection::vec(1usize..10, 1..3),
        batch in prop_oneof![Just(1usize), Just(4), Just(9)],
        warm in 1usize..4,
        seed in 0u64..500,
    ) {
        let spec = MlpSpec::new(6, &hidden, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut original = Mlp::new(&spec, &mut rng);
        let n = 19;
        let x = baffle_tensor::rng::normal_matrix(&mut StdRng::seed_from_u64(seed ^ 0xABCD), n, 6, 1.0);
        let y: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let mut opt_o = Sgd::new(0.05).with_momentum(0.9).with_weight_decay(1e-3);
        for _ in 0..warm {
            original.train_epoch(&x, &y, batch, &mut opt_o, &mut rng);
        }
        let mut copy = original.clone();
        prop_assert_eq!(original.params(), copy.params());
        prop_assert_eq!(original.predict_batch(&x), copy.predict_batch(&x));
        let mut opt_c = opt_o.clone();
        let mut rng_o = StdRng::seed_from_u64(seed + 1);
        let mut rng_c = StdRng::seed_from_u64(seed + 1);
        let lo = original.train_epoch(&x, &y, batch, &mut opt_o, &mut rng_o);
        let lc = copy.train_epoch(&x, &y, batch, &mut opt_c, &mut rng_c);
        prop_assert_eq!(lo.to_bits(), lc.to_bits(), "loss diverged: {} vs {}", lo, lc);
        for (i, (a, b)) in original.params().iter().zip(&copy.params()).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "param {} diverged: {} vs {}", i, a, b);
        }
    }
}

/// The CNN twins (workspace vs allocating reference), over both the
/// plain and residual architectures, batch sizes 1 and 8 (26 samples →
/// ragged final batch of 2), several epochs of real momentum SGD.
#[test]
fn cnn_workspace_training_is_bit_identical_to_reference() {
    for residual in [false, true] {
        let mut spec = CnnSpec::new(12, &[4, 4], 3, 3);
        if residual {
            spec = spec.with_residual();
        }
        for batch in [1usize, 8] {
            let mut rng = StdRng::seed_from_u64(21);
            let mut ws = Cnn::new(&spec, &mut rng);
            let mut reference = ws.clone();
            let n = 26;
            let x = baffle_tensor::rng::normal_matrix(&mut StdRng::seed_from_u64(3), n, 12, 1.0);
            let y: Vec<usize> = (0..n).map(|i| i % 3).collect();
            let mut opt_w = Sgd::new(0.05).with_momentum(0.9);
            let mut opt_r = Sgd::new(0.05).with_momentum(0.9);
            let mut rng_w = StdRng::seed_from_u64(99);
            let mut rng_r = StdRng::seed_from_u64(99);
            for epoch in 0..3 {
                let lw = ws.train_epoch(&x, &y, batch, &mut opt_w, &mut rng_w);
                let lr = reference.train_epoch_ref(&x, &y, batch, &mut opt_r, &mut rng_r);
                assert_eq!(
                    lw.to_bits(),
                    lr.to_bits(),
                    "loss diverged (residual={residual}, batch={batch}, epoch={epoch}): {lw} vs {lr}"
                );
            }
            let pw = ws.params();
            let pr = reference.params();
            assert_eq!(pw.len(), pr.len());
            for (i, (a, b)) in pw.iter().zip(&pr).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "param {i} diverged (residual={residual}, batch={batch})"
                );
            }
        }
    }
}

/// Two seed-identical CNNs — one forced onto the naive conv loops — must
/// produce bit-identical losses and parameters over several epochs of
/// real SGD, including the residual architecture and a cache-straddling
/// final partial batch.
#[test]
fn cnn_training_is_bit_identical_with_and_without_im2col() {
    for residual in [false, true] {
        let mut spec = CnnSpec::new(12, &[4, 4], 3, 3);
        if residual {
            spec = spec.with_residual();
        }
        let mut rng = StdRng::seed_from_u64(42);
        let mut fast = Cnn::new(&spec, &mut rng);
        let mut slow = fast.clone();
        slow.force_naive_conv(true);

        let n = 26; // batch 8 → final partial batch of 2
        let x = baffle_tensor::rng::normal_matrix(&mut StdRng::seed_from_u64(7), n, 12, 1.0);
        let y: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let mut opt_f = Sgd::new(0.05);
        let mut opt_s = Sgd::new(0.05);
        let mut rng_f = StdRng::seed_from_u64(99);
        let mut rng_s = StdRng::seed_from_u64(99);
        for epoch in 0..3 {
            let lf = fast.train_epoch(&x, &y, 8, &mut opt_f, &mut rng_f);
            let ls = slow.train_epoch(&x, &y, 8, &mut opt_s, &mut rng_s);
            assert_eq!(
                lf.to_bits(),
                ls.to_bits(),
                "loss diverged (residual={residual}, epoch={epoch}): {lf} vs {ls}"
            );
        }
        let pf = fast.params();
        let ps = slow.params();
        assert_eq!(pf.len(), ps.len());
        for (i, (a, b)) in pf.iter().zip(&ps).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "param {i} diverged (residual={residual})");
        }
    }
}
