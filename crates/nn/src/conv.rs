//! 1-D convolution with manual backpropagation.
//!
//! The synthetic substrate represents samples as feature vectors; the
//! convolutional model family treats them as 1-D signals (one input
//! channel), the closest analogue of the paper's ResNet18 this crate
//! supports. Shapes follow a channels-major layout: a batch row of a
//! `c`-channel, length-`L` signal is the concatenation
//! `[ch 0 | ch 1 | … | ch c−1]`, each of length `L`.
//!
//! # im2col
//!
//! All three convolution passes (forward, weight gradient, input delta)
//! run as single matrix products on [`baffle_tensor::gemm`] via a packed
//! im2col buffer: `col[(i·K + k)][bi·L + p] = x[bi][i·L + p + k − pad]`,
//! with zeros where the tap falls in the same-padding margin. The buffer
//! is cached on the layer and reused across batches of the same size
//! (only the valid spans are rewritten; the margin zeros persist). The
//! original scalar loops are retained as [`Conv1d::naive_forward`] /
//! `naive_backward` references, and every GEMM path is **bit-identical**
//! to them: per output element the products are accumulated in the same
//! strictly ascending order (`(i, k)` for the forward pass, `(bi, p)`
//! for the weight gradient, `(o, p)` for the input delta — the delta
//! pass convolves with the kernel-flipped weights so GEMM's ascending
//! k-order reproduces the scalar loop's order exactly), and the extra
//! zero-tap products the naive loops skip only ever add `±0.0` to an
//! accumulator that is never `-0.0` (accumulators start at `+0.0` or at
//! a bias that SGD from zero init can never drive to `-0.0`, and IEEE
//! addition cannot produce `-0.0` from such a start).

use crate::scratch::Scratch;
use crate::{Activation, Sgd};
use baffle_tensor::{gemm, rng as trng, Matrix};
use rand::Rng;

/// A cached im2col scratch buffer: the packed matrix plus the batch size
/// it was sized for. Reusing it across same-size batches skips the
/// allocation *and* the margin re-zeroing — packing only rewrites the
/// valid spans.
#[derive(Debug, Default)]
struct Im2col {
    batch: usize,
    data: Vec<f32>,
}

/// Packs `x` (`batch × channels·len`, channels-major) into `col` in the
/// im2col layout: `col[(c·kernel + k)][bi·len + p] = x[bi][c·len + p + k
/// − pad]`, leaving zeros where `p + k − pad` falls outside `[0, len)`.
/// The valid `p` span per `(c, k)` row is hoisted so the copy is one
/// `copy_from_slice` per batch row.
fn im2col_into(x: &Matrix, channels: usize, kernel: usize, len: usize, col: &mut [f32]) {
    let pad = kernel / 2;
    let batch = x.rows();
    let cl = batch * len;
    debug_assert_eq!(col.len(), channels * kernel * cl);
    for c in 0..channels {
        for k in 0..kernel {
            let p_lo = pad.saturating_sub(k);
            let p_hi = (len + pad).saturating_sub(k).min(len);
            if p_lo >= p_hi {
                continue;
            }
            let col_row = &mut col[(c * kernel + k) * cl..(c * kernel + k + 1) * cl];
            let src_lo = c * len + p_lo + k - pad;
            let width = p_hi - p_lo;
            for bi in 0..batch {
                let src = &x.row(bi)[src_lo..src_lo + width];
                col_row[bi * len + p_lo..bi * len + p_hi].copy_from_slice(src);
            }
        }
    }
}

/// Packs `x` into `cache`, reusing the buffer when the batch size (and
/// hence every margin position) is unchanged, and returns the packed
/// slice (`channels·kernel` rows of `batch·len` columns).
fn im2col_cached<'a>(
    cache: &'a mut Option<Im2col>,
    x: &Matrix,
    channels: usize,
    kernel: usize,
    len: usize,
) -> &'a [f32] {
    let batch = x.rows();
    let need = channels * kernel * batch * len;
    let fresh = !matches!(cache, Some(c) if c.batch == batch && c.data.len() == need);
    if fresh {
        *cache = Some(Im2col { batch, data: vec![0.0; need] });
    }
    let buf = cache.as_mut().expect("im2col cache just ensured");
    im2col_into(x, channels, kernel, len, &mut buf.data);
    &buf.data
}

/// A same-padded, stride-1 1-D convolution layer with a pointwise
/// activation: `y[o][p] = act(Σᵢ Σₖ w[o][i][k] · x[i][p+k−⌊K/2⌋] + b[o])`.
#[derive(Debug, Clone)]
pub struct Conv1d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    length: usize,
    /// Weights, `out_channels × (in_channels · kernel)` row-major.
    w: Matrix,
    b: Vec<f32>,
    activation: Activation,
    scratch: Scratch<ConvScratch>,
    /// Route every pass through the retained scalar loops instead of
    /// GEMM (test support; see [`Conv1d::force_naive`]). A setting, not
    /// scratch: it survives a clone.
    force_naive: bool,
}

/// [`Conv1d`]'s training workspace: persistent buffers gated by
/// `has_cache` / `has_grads` and reused across batches, so the
/// steady-state train cycle is allocation-free. Not part of the layer's
/// value — a clone starts with none of them.
#[derive(Debug, Default)]
struct ConvScratch {
    /// Input of the latest `forward_train` call.
    cached_input: Matrix,
    cached_pre: Matrix,
    has_cache: bool,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    has_grads: bool,
    /// δ = grad_out ⊙ act′(pre) scratch for `backward`.
    delta: Matrix,
    /// Transposed (`oc × batch·len`) GEMM output scratch for the forward
    /// pass.
    out_t: Vec<f32>,
    /// Transposed delta scratch for the weight/bias-gradient pass.
    dt: Vec<f32>,
    /// Kernel-flipped weight scratch for the input-delta pass.
    wflip: Vec<f32>,
    /// Transposed input-delta scratch for the input-delta pass.
    dxt: Vec<f32>,
    /// im2col scratch for the forward / weight-gradient passes.
    col_cache: Option<Im2col>,
    /// im2col scratch for the input-delta pass (packs `delta`, so it is
    /// sized by `out_channels`, not `in_channels`).
    dcol_cache: Option<Im2col>,
}

impl Conv1d {
    /// Creates a conv layer for signals of length `length`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the kernel is even (same
    /// padding needs an odd kernel).
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        length: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0, "Conv1d: channels must be positive");
        assert!(length > 0, "Conv1d: length must be positive");
        assert!(kernel % 2 == 1, "Conv1d: kernel must be odd for same padding, got {kernel}");
        let fan_in = in_channels * kernel;
        Self {
            in_channels,
            out_channels,
            kernel,
            length,
            w: trng::he_init_transposed(rng, fan_in, out_channels),
            b: vec![0.0; out_channels],
            activation,
            scratch: Scratch::default(),
            force_naive: false,
        }
    }

    /// Input width this layer expects (`in_channels · length`).
    pub fn in_dim(&self) -> usize {
        self.in_channels * self.length
    }

    /// Output width (`out_channels · length`).
    pub fn out_dim(&self) -> usize {
        self.out_channels * self.length
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Signal length.
    pub fn length(&self) -> usize {
        self.length
    }

    #[inline]
    fn weight(&self, o: usize, i: usize, k: usize) -> f32 {
        self.w[(o, i * self.kernel + k)]
    }

    fn check_input(&self, x: &Matrix) {
        assert_eq!(
            x.cols(),
            self.in_dim(),
            "Conv1d: input width {} != expected {}",
            x.cols(),
            self.in_dim()
        );
    }

    /// The retained scalar reference convolution, with the valid tap
    /// range `k ∈ [pad−p, len+pad−p)` hoisted out of the inner loop so
    /// the margin test is not re-evaluated per element.
    fn naive_convolve(&self, x: &Matrix) -> Matrix {
        self.check_input(x);
        let pad = self.kernel / 2;
        let len = self.length;
        let mut out = Matrix::zeros(x.rows(), self.out_dim());
        for bi in 0..x.rows() {
            let row = x.row(bi);
            let out_row = out.row_mut(bi);
            for o in 0..self.out_channels {
                for p in 0..len {
                    let k_lo = pad.saturating_sub(p);
                    let k_hi = self.kernel.min(len + pad - p);
                    let mut acc = self.b[o];
                    for i in 0..self.in_channels {
                        // `p + k ≥ pad` for every valid tap; `p − pad` alone
                        // can be negative.
                        let base = i * len + p;
                        for k in k_lo..k_hi {
                            acc += self.weight(o, i, k) * row[base + k - pad];
                        }
                    }
                    out_row[o * len + p] = acc;
                }
            }
        }
        out
    }

    /// The GEMM convolution over an already-packed im2col buffer: one
    /// `oc × (ic·K) × (batch·len)` product into a bias-prefilled
    /// transposed output, then an unpack back to batch-major rows.
    fn convolve_packed(&self, batch: usize, col: &[f32]) -> Matrix {
        let len = self.length;
        let cl = batch * len;
        let ick = self.in_channels * self.kernel;
        let mut out_t = vec![0.0f32; self.out_channels * cl];
        for (chunk, &bo) in out_t.chunks_mut(cl.max(1)).zip(&self.b) {
            chunk.fill(bo);
        }
        gemm::nn(self.out_channels, ick, cl, self.w.as_slice(), col, &mut out_t);
        let mut out = Matrix::zeros(batch, self.out_dim());
        for bi in 0..batch {
            let row = out.row_mut(bi);
            for o in 0..self.out_channels {
                row[o * len..(o + 1) * len]
                    .copy_from_slice(&out_t[o * cl + bi * len..o * cl + (bi + 1) * len]);
            }
        }
        out
    }

    fn convolve(&self, x: &Matrix) -> Matrix {
        self.check_input(x);
        if self.force_naive {
            return self.naive_convolve(x);
        }
        let mut col = vec![0.0f32; self.in_channels * self.kernel * x.rows() * self.length];
        im2col_into(x, self.in_channels, self.kernel, self.length, &mut col);
        self.convolve_packed(x.rows(), &col)
    }

    /// Inference-only forward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let act = self.activation;
        self.convolve(x).map(|v| act.apply(v))
    }

    /// Forward pass through the retained scalar loops, regardless of
    /// [`Conv1d::force_naive`]. The bit-exactness reference for the
    /// GEMM path (see the module docs).
    pub fn naive_forward(&self, x: &Matrix) -> Matrix {
        let act = self.activation;
        self.naive_convolve(x).map(|v| act.apply(v))
    }

    /// Routes every subsequent pass through the retained scalar loops
    /// (`true`) or the im2col GEMM path (`false`, the default). The two
    /// are bit-identical; this exists so tests and benchmarks can pin a
    /// side.
    pub fn force_naive(&mut self, on: bool) {
        self.force_naive = on;
    }

    /// Training forward pass (caches state for [`Conv1d::backward`]).
    pub fn forward_train(&mut self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_train_into(x, &mut out);
        out
    }

    /// [`Conv1d::forward_train`] writing the activation into a
    /// caller-owned buffer. On the GEMM path every intermediate (im2col
    /// pack, transposed product, pre-activation, input copy) lives in a
    /// persistent layer buffer, so the steady-state call performs no
    /// allocation. The naive path is a test/reference path and still
    /// allocates its scalar-loop intermediate.
    pub fn forward_train_into(&mut self, x: &Matrix, out: &mut Matrix) {
        self.check_input(x);
        if self.force_naive {
            self.scratch.cached_pre = self.naive_convolve(x);
        } else {
            let (oc, ick, len) = (self.out_channels, self.in_channels * self.kernel, self.length);
            let (cl, out_dim) = (x.rows() * len, self.out_dim());
            let s = &mut *self.scratch;
            let col = im2col_cached(&mut s.col_cache, x, self.in_channels, self.kernel, len);
            s.out_t.resize(oc * cl, 0.0);
            // Bias-prefill covers the whole transposed buffer, so the
            // resize's stale prefix never reaches the product.
            for (chunk, &bo) in s.out_t.chunks_mut(cl.max(1)).zip(self.b.iter()) {
                chunk.fill(bo);
            }
            gemm::nn(oc, ick, cl, self.w.as_slice(), col, &mut s.out_t);
            // Unpack `oc × (batch·len)` back to batch-major rows; every
            // element of `cached_pre` is overwritten.
            s.cached_pre.resize_for_overwrite(x.rows(), out_dim);
            for bi in 0..x.rows() {
                let row = s.cached_pre.row_mut(bi);
                for o in 0..oc {
                    row[o * len..(o + 1) * len]
                        .copy_from_slice(&s.out_t[o * cl + bi * len..o * cl + (bi + 1) * len]);
                }
            }
        }
        let s = &mut *self.scratch;
        s.cached_input.copy_from(x);
        let act = self.activation;
        s.cached_pre.map_into(|v| act.apply(v), out);
        s.has_cache = true;
    }

    /// Backward pass: returns ∂L/∂x and stores parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward_train` or with a wrong-shaped
    /// gradient.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_into(grad_out, &mut dx);
        dx
    }

    /// [`Conv1d::backward`] writing ∂L/∂x into a caller-owned buffer;
    /// the δ, transposed-delta, flipped-weight and gradient buffers are
    /// all persistent, so the steady-state GEMM-path call performs no
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward_train` or with a wrong-shaped
    /// gradient.
    pub fn backward_into(&mut self, grad_out: &Matrix, dx: &mut Matrix) {
        assert!(self.scratch.has_cache, "Conv1d::backward before forward_train");
        assert_eq!(
            grad_out.shape(),
            self.scratch.cached_pre.shape(),
            "Conv1d::backward: gradient shape mismatch"
        );
        let act = self.activation;
        // Take δ out of `self` so the backward kernels can borrow the
        // rest of the layer mutably; restored below.
        let mut delta = std::mem::take(&mut self.scratch.delta);
        self.scratch.cached_pre.map_into(|v| act.derivative(v), &mut delta);
        delta.hadamard_assign(grad_out);
        if self.force_naive {
            self.naive_backward_into(&delta, dx);
        } else {
            self.gemm_backward_into(&delta, dx);
        }
        self.scratch.delta = delta;
        self.scratch.has_grads = true;
    }

    /// The retained scalar backward loops (valid tap range hoisted like
    /// [`Conv1d::naive_convolve`]); the reference for [`gemm_backward_into`].
    ///
    /// [`gemm_backward_into`]: Conv1d::gemm_backward_into
    fn naive_backward_into(&mut self, delta: &Matrix, dx: &mut Matrix) {
        let (oc, ic, kernel, len) = (self.out_channels, self.in_channels, self.kernel, self.length);
        let pad = kernel / 2;
        let w = &self.w;
        let ConvScratch { cached_input, grad_w, grad_b, .. } = &mut *self.scratch;
        let batch = cached_input.rows();
        // The scalar loops accumulate sparsely (zero deltas are skipped),
        // so every target must start from explicit zeros.
        grad_w.resize_for_overwrite(oc, ic * kernel);
        grad_w.as_mut_slice().fill(0.0);
        grad_b.clear();
        grad_b.resize(oc, 0.0);
        dx.resize_for_overwrite(batch, ic * len);
        dx.as_mut_slice().fill(0.0);

        for bi in 0..batch {
            let x_row = cached_input.row(bi);
            let d_row = delta.row(bi);
            let dx_row = dx.row_mut(bi);
            for o in 0..oc {
                for p in 0..len {
                    let d = d_row[o * len + p];
                    if d == 0.0 {
                        continue;
                    }
                    grad_b[o] += d;
                    let k_lo = pad.saturating_sub(p);
                    let k_hi = kernel.min(len + pad - p);
                    for i in 0..ic {
                        let base = i * len + p;
                        for k in k_lo..k_hi {
                            grad_w[(o, i * kernel + k)] += d * x_row[base + k - pad];
                            dx_row[base + k - pad] += d * w[(o, i * kernel + k)];
                        }
                    }
                }
            }
        }
    }

    /// GEMM backward: the weight gradient is one `nt` product of the
    /// transposed delta against the forward im2col buffer (`k`-dimension
    /// `(bi, p)` ascending, exactly the scalar loop's order), the bias
    /// gradient a row sum of the transposed delta, and the input delta a
    /// convolution of `delta` with the kernel-flipped weights — im2col
    /// over `delta`, then one `nn` product whose ascending `(o, kf)`
    /// order reproduces the scalar loop's `(o, p)` order per element.
    fn gemm_backward_into(&mut self, delta: &Matrix, dx: &mut Matrix) {
        let (oc, ic, kernel, len) = (self.out_channels, self.in_channels, self.kernel, self.length);
        let s = &mut *self.scratch;
        let batch = s.cached_input.rows();
        let cl = batch * len;
        let ick = ic * kernel;

        // Transpose delta to `oc × (batch·len)` once; both the weight
        // and bias gradients consume it row-major. Fully overwritten.
        s.dt.resize(oc * cl, 0.0);
        for bi in 0..batch {
            let d_row = delta.row(bi);
            for o in 0..oc {
                s.dt[o * cl + bi * len..o * cl + (bi + 1) * len]
                    .copy_from_slice(&d_row[o * len..(o + 1) * len]);
            }
        }
        s.grad_b.clear();
        if cl == 0 {
            s.grad_b.resize(oc, 0.0);
        } else {
            s.grad_b.extend(s.dt.chunks(cl).map(|r| r.iter().sum::<f32>()));
        }

        // Repack the cached input (reusing the forward buffer when the
        // batch size matches) and take the weight gradient in one shot.
        // GEMM accumulates, so the gradient buffer is re-zeroed first.
        let col = im2col_cached(&mut s.col_cache, &s.cached_input, ic, kernel, len);
        s.grad_w.resize_for_overwrite(oc, ick);
        s.grad_w.as_mut_slice().fill(0.0);
        gemm::nt(oc, cl, ick, &s.dt, col, s.grad_w.as_mut_slice());

        // Input delta: convolve `delta` with the kernel-flipped weights.
        // Every flipped entry is rewritten, so no zeroing is needed.
        s.wflip.resize(ic * oc * kernel, 0.0);
        for i in 0..ic {
            for o in 0..oc {
                for kf in 0..kernel {
                    s.wflip[i * (oc * kernel) + o * kernel + kf] =
                        self.w[(o, i * kernel + (kernel - 1 - kf))];
                }
            }
        }
        let dcol = im2col_cached(&mut s.dcol_cache, delta, oc, kernel, len);
        s.dxt.resize(ic * cl, 0.0);
        s.dxt.fill(0.0); // GEMM accumulates
        gemm::nn(ic, oc * kernel, cl, &s.wflip, dcol, &mut s.dxt);
        dx.resize_for_overwrite(batch, ic * len);
        for bi in 0..batch {
            let dx_row = dx.row_mut(bi);
            for i in 0..ic {
                dx_row[i * len..(i + 1) * len]
                    .copy_from_slice(&s.dxt[i * cl + bi * len..i * cl + (bi + 1) * len]);
            }
        }
    }

    /// Applies the stored gradients through the caller's update rule.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Conv1d::backward`].
    pub fn apply_grads(&mut self, mut f: impl FnMut(&mut f32, f32)) {
        assert!(self.scratch.has_grads, "Conv1d::apply_grads before backward");
        self.scratch.has_grads = false;
        let Self { w, b, scratch, .. } = self;
        for (p, &g) in w.as_mut_slice().iter_mut().zip(scratch.grad_w.as_slice()) {
            f(p, g);
        }
        for (p, &g) in b.iter_mut().zip(scratch.grad_b.iter()) {
            f(p, g);
        }
    }

    /// Applies the stored gradients through [`Sgd::update_chunk`] — the
    /// slice-wise, allocation-free form of
    /// `apply_grads(|p, g| opt.update(p, g))`, bit-identical to it (same
    /// weights-then-bias order against the same velocity slots).
    ///
    /// # Panics
    ///
    /// Panics if called before [`Conv1d::backward`].
    pub fn apply_grads_chunked(&mut self, opt: &mut Sgd) {
        assert!(self.scratch.has_grads, "Conv1d::apply_grads before backward");
        self.scratch.has_grads = false;
        opt.update_chunk(self.w.as_mut_slice(), self.scratch.grad_w.as_slice());
        opt.update_chunk(&mut self.b, &self.scratch.grad_b);
    }

    /// Appends parameters (weights row-major, then bias).
    pub fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.w.as_slice());
        out.extend_from_slice(&self.b);
    }

    /// Reads parameters from the front of `p`, returning the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `p` is too short.
    pub fn read_params<'a>(&mut self, p: &'a [f32]) -> &'a [f32] {
        let nw = self.w.len();
        let nb = self.b.len();
        assert!(p.len() >= nw + nb, "Conv1d::read_params: need {} values", nw + nb);
        self.w.as_mut_slice().copy_from_slice(&p[..nw]);
        self.b.copy_from_slice(&p[nw..nw + nb]);
        &p[nw + nb..]
    }
}

/// Global average pooling over the signal axis: collapses
/// `channels × length` to `channels` by averaging each channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalAvgPool1d {
    channels: usize,
    length: usize,
}

impl GlobalAvgPool1d {
    /// Creates the pool for `channels` channels of `length` samples.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(channels: usize, length: usize) -> Self {
        assert!(channels > 0 && length > 0, "GlobalAvgPool1d: dimensions must be positive");
        Self { channels, length }
    }

    /// Forward pass: `batch × (channels·length)` → `batch × channels`.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(x, &mut out);
        out
    }

    /// [`GlobalAvgPool1d::forward`] into a caller-owned buffer (every
    /// element is overwritten).
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols(), self.channels * self.length, "GlobalAvgPool1d: width mismatch");
        out.resize_for_overwrite(x.rows(), self.channels);
        for bi in 0..x.rows() {
            let row = x.row(bi);
            let out_row = out.row_mut(bi);
            for (c, o) in out_row.iter_mut().enumerate() {
                let seg = &row[c * self.length..(c + 1) * self.length];
                *o = seg.iter().sum::<f32>() / self.length as f32;
            }
        }
    }

    /// Backward pass: spreads each channel gradient uniformly over the
    /// signal positions.
    pub fn backward(&self, grad_out: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_into(grad_out, &mut dx);
        dx
    }

    /// [`GlobalAvgPool1d::backward`] into a caller-owned buffer (every
    /// element is overwritten).
    ///
    /// # Panics
    ///
    /// Panics on a gradient width mismatch.
    pub fn backward_into(&self, grad_out: &Matrix, dx: &mut Matrix) {
        assert_eq!(grad_out.cols(), self.channels, "GlobalAvgPool1d: gradient width mismatch");
        dx.resize_for_overwrite(grad_out.rows(), self.channels * self.length);
        let inv = 1.0 / self.length as f32;
        for bi in 0..grad_out.rows() {
            let g = grad_out.row(bi);
            let dx_row = dx.row_mut(bi);
            for c in 0..self.channels {
                for p in 0..self.length {
                    dx_row[c * self.length + p] = g[c] * inv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn conv(ci: usize, co: usize, k: usize, len: usize, act: Activation) -> Conv1d {
        let mut rng = StdRng::seed_from_u64(5);
        Conv1d::new(ci, co, k, len, act, &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let c = conv(2, 3, 3, 7, Activation::Identity);
        let x = Matrix::zeros(4, 14);
        assert_eq!(c.forward(&x).shape(), (4, 21));
        assert_eq!(c.num_params(), 3 * 2 * 3 + 3);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1→1 conv, kernel 3, weights [0,1,0], bias 0 = identity.
        let mut c = conv(1, 1, 3, 5, Activation::Identity);
        c.read_params(&[0.0, 1.0, 0.0, 0.0]);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0]]);
        assert_eq!(c.forward(&x), x);
    }

    #[test]
    fn shift_kernel_pads_with_zero() {
        // Kernel [1,0,0] shifts the signal right by one (same padding).
        let mut c = conv(1, 1, 3, 4, Activation::Identity);
        c.read_params(&[1.0, 0.0, 0.0, 0.0]);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let y = c.forward(&x);
        assert_eq!(y, Matrix::from_rows(&[&[0.0, 1.0, 2.0, 3.0]]));
    }

    #[test]
    fn gradient_check_weights_and_input() {
        let mut c = conv(2, 2, 3, 5, Activation::Tanh);
        let x = Matrix::from_fn(3, 10, |r, j| ((r * 10 + j) as f32 * 0.23).sin() * 0.5);
        let loss = |c: &Conv1d, x: &Matrix| c.forward(x).as_slice().iter().sum::<f32>();

        c.forward_train(&x);
        let ones = Matrix::filled(3, 10, 1.0);
        let dx = c.backward(&ones);
        let mut analytic = Vec::new();
        analytic.extend_from_slice(c.scratch.grad_w.as_slice());
        analytic.extend_from_slice(&c.scratch.grad_b);

        let mut params = Vec::new();
        c.write_params(&mut params);
        let eps = 1e-3;
        for i in 0..params.len() {
            let mut plus = params.clone();
            plus[i] += eps;
            let mut minus = params.clone();
            minus[i] -= eps;
            let mut cp = c.clone();
            cp.read_params(&plus);
            let mut cm = c.clone();
            cm.read_params(&minus);
            let fd = (loss(&cp, &x) - loss(&cm, &x)) / (2.0 * eps);
            assert!(
                (fd - analytic[i]).abs() < 3e-2,
                "param {i}: fd {fd} vs analytic {}",
                analytic[i]
            );
        }
        // Input gradient, one entry.
        let mut xp = x.clone();
        xp[(1, 3)] += eps;
        let mut xm = x.clone();
        xm[(1, 3)] -= eps;
        let fd = (loss(&c, &xp) - loss(&c, &xm)) / (2.0 * eps);
        assert!((fd - dx[(1, 3)]).abs() < 3e-2, "dx fd {fd} vs {}", dx[(1, 3)]);
    }

    #[test]
    fn param_roundtrip() {
        let c1 = conv(2, 3, 3, 4, Activation::Relu);
        let mut c2 = conv(2, 3, 3, 4, Activation::Relu);
        let mut p = Vec::new();
        c1.write_params(&mut p);
        assert_eq!(p.len(), c1.num_params());
        let rest = c2.read_params(&p);
        assert!(rest.is_empty());
        let x = Matrix::from_fn(2, 8, |r, j| (r + j) as f32 * 0.1);
        assert_eq!(c1.forward(&x), c2.forward(&x));
    }

    #[test]
    fn pool_averages_channels() {
        let pool = GlobalAvgPool1d::new(2, 3);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 10.0, 20.0, 30.0]]);
        let y = pool.forward(&x);
        assert_eq!(y, Matrix::from_rows(&[&[2.0, 20.0]]));
    }

    #[test]
    fn pool_gradient_matches_finite_difference() {
        let pool = GlobalAvgPool1d::new(2, 4);
        let x = Matrix::from_fn(2, 8, |r, j| (r * 8 + j) as f32 * 0.3);
        // Loss = sum of pooled outputs; gradient w.r.t. each input is 1/len.
        let dx = pool.backward(&Matrix::filled(2, 2, 1.0));
        assert!(dx.as_slice().iter().all(|&g| (g - 0.25).abs() < 1e-6));
        let _ = x;
    }

    #[test]
    #[should_panic(expected = "kernel must be odd")]
    fn even_kernel_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Conv1d::new(1, 1, 2, 4, Activation::Relu, &mut rng);
    }

    /// A clone carries the parameters and the `force_naive` setting, and
    /// none of the warm workspace.
    #[test]
    fn clone_copies_parameters_and_setting_not_workspace() {
        let mut c = conv(2, 3, 3, 6, Activation::Tanh);
        c.force_naive(true);
        let x = Matrix::from_fn(4, 12, |r, j| ((r * 12 + j) as f32 * 0.21).sin());
        c.forward_train(&x);
        c.force_naive(false);
        c.forward_train(&x);
        c.backward(&Matrix::filled(4, 18, 0.5));
        c.force_naive(true);
        let d = c.clone();
        assert!(d.force_naive, "force_naive is a setting and must survive the clone");
        let (mut pc, mut pd) = (Vec::new(), Vec::new());
        c.write_params(&mut pc);
        d.write_params(&mut pd);
        assert_eq!(pc, pd);
        assert_eq!(c.forward(&x), d.forward(&x));
        assert!(c.scratch.has_cache && c.scratch.has_grads, "cloning must not touch the original");
        assert!(!d.scratch.has_cache && !d.scratch.has_grads);
        assert!(d.scratch.cached_input.is_empty() && d.scratch.out_t.is_empty());
        assert!(d.scratch.col_cache.is_none() && d.scratch.dcol_cache.is_none());
    }

    /// A clone taken between `forward_train` and `backward` refuses
    /// `backward` exactly like a freshly built layer.
    #[test]
    #[should_panic(expected = "before forward_train")]
    fn backward_on_mid_cycle_clone_panics() {
        let mut c = conv(1, 2, 3, 4, Activation::Relu);
        c.forward_train(&Matrix::zeros(1, 4));
        let _ = c.clone().backward(&Matrix::zeros(1, 8));
    }

    /// The persistent caches must make repeated same-shape GEMM-path
    /// train cycles allocation-free without changing any numeric result.
    #[test]
    fn train_buffers_are_reused_across_batches() {
        let mut c = conv(2, 3, 3, 6, Activation::Tanh);
        let x = Matrix::from_fn(4, 12, |r, j| ((r * 12 + j) as f32 * 0.21).sin());
        let g = Matrix::from_fn(4, 18, |r, j| ((r * 18 + j) as f32 * 0.07).cos());
        let (mut out, mut dx) = (Matrix::default(), Matrix::default());
        c.forward_train_into(&x, &mut out);
        c.backward_into(&g, &mut dx);
        let first = (out.clone(), dx.clone(), c.scratch.grad_w.clone(), c.scratch.grad_b.clone());
        let ptrs = [
            c.scratch.cached_pre.as_slice().as_ptr(),
            c.scratch.grad_w.as_slice().as_ptr(),
            c.scratch.delta.as_slice().as_ptr(),
            c.scratch.out_t.as_ptr(),
            c.scratch.dxt.as_ptr(),
        ];
        c.scratch.has_grads = false; // skip the update so weights stay put
        c.forward_train_into(&x, &mut out);
        c.backward_into(&g, &mut dx);
        assert_eq!(
            (out.clone(), dx.clone(), c.scratch.grad_w.clone(), c.scratch.grad_b.clone()),
            first,
            "reuse changed the numbers"
        );
        let again = [
            c.scratch.cached_pre.as_slice().as_ptr(),
            c.scratch.grad_w.as_slice().as_ptr(),
            c.scratch.delta.as_slice().as_ptr(),
            c.scratch.out_t.as_ptr(),
            c.scratch.dxt.as_ptr(),
        ];
        assert_eq!(ptrs, again, "steady-state conv train cycle must not reallocate");
    }
}
