//! Synthetic image-classification-like data generator.

use crate::Dataset;
use baffle_tensor::{rng as trng, Matrix};
use rand::Rng;

/// Distance scale between class prototypes.
const PROTOTYPE_SCALE: f32 = 1.0;
/// Offset scale of the semantic subgroups within a class.
const SUBGROUP_SCALE: f32 = 0.45;

/// Parameters of a [`SyntheticVision`] problem.
///
/// Each class `y` has a Gaussian prototype `μ_y`; inside each class,
/// `subgroups_per_class` semantic subgroups add their own offset
/// (`μ_y + o_{y,s}`). Samples are `x = μ_y + o_{y,s} + ε` with
/// `ε ~ N(0, noise_std²)` per coordinate, and a fraction `label_noise` of
/// samples receive a uniformly random (wrong) label — this keeps trained
/// models at a realistic, fluctuating per-class error level, which is the
/// signal BaFFLe's cross-round analysis consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct VisionSpec {
    num_classes: usize,
    input_dim: usize,
    subgroups_per_class: u16,
    noise_std: f32,
    label_noise: f64,
}

impl VisionSpec {
    /// Creates a spec with the given dimensions and default difficulty.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes < 2`, `input_dim == 0`, or
    /// `subgroups_per_class == 0`.
    pub fn new(num_classes: usize, input_dim: usize, subgroups_per_class: u16) -> Self {
        assert!(num_classes >= 2, "VisionSpec: need at least two classes");
        assert!(input_dim > 0, "VisionSpec: input_dim must be positive");
        assert!(subgroups_per_class > 0, "VisionSpec: need at least one subgroup per class");
        Self { num_classes, input_dim, subgroups_per_class, noise_std: 0.55, label_noise: 0.03 }
    }

    /// The CIFAR-10 stand-in: 10 classes, 32 features, 4 semantic
    /// subgroups per class (see `DESIGN.md` §2). Difficulty is tuned so
    /// the trained substrate stabilises at ≈ 0.92 accuracy, like the
    /// paper's ResNet18 on CIFAR-10.
    pub fn cifar_like() -> Self {
        Self::new(10, 32, 4).with_noise_std(1.0).with_label_noise(0.05)
    }

    /// The FEMNIST stand-in: 62 classes (digits + upper/lower letters),
    /// 48 features, 3 subgroups per class, stabilising at ≈ 0.88
    /// accuracy.
    pub fn femnist_like() -> Self {
        Self::new(62, 48, 3).with_noise_std(1.0).with_label_noise(0.06)
    }

    /// Sets the per-coordinate sample noise.
    pub fn with_noise_std(mut self, s: f32) -> Self {
        self.noise_std = s;
        self
    }

    /// Sets the fraction of uniformly mislabelled samples.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn with_label_noise(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "label_noise must be in [0, 1), got {p}");
        self.label_noise = p;
        self
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Feature dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of semantic subgroups per class.
    pub fn subgroups_per_class(&self) -> u16 {
        self.subgroups_per_class
    }
}

/// A fixed synthetic classification problem: class prototypes and subgroup
/// offsets are drawn once at construction, after which [`SyntheticVision::generate`]
/// produces arbitrarily many i.i.d. samples from it.
///
/// # Example
///
/// ```
/// use baffle_data::{SyntheticVision, VisionSpec};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let gen = SyntheticVision::new(&VisionSpec::new(3, 8, 2), &mut rng);
/// let d = gen.generate(&mut rng, 90);
/// // Roughly balanced classes.
/// assert!(d.class_counts().iter().all(|&c| c > 10));
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticVision {
    spec: VisionSpec,
    /// `num_classes × input_dim` prototype matrix.
    prototypes: Matrix,
    /// `num_classes * subgroups_per_class × input_dim` offset matrix.
    offsets: Matrix,
}

impl SyntheticVision {
    /// Draws a fresh problem instance from the spec.
    pub fn new<R: Rng + ?Sized>(spec: &VisionSpec, rng: &mut R) -> Self {
        let c = spec.num_classes;
        let d = spec.input_dim;
        let s = spec.subgroups_per_class as usize;
        // Prototype entries ~ N(0, scale²/√d) keeps pairwise class distances
        // comparable across dimensionalities.
        let proto_std = PROTOTYPE_SCALE / (d as f32).sqrt().sqrt();
        let prototypes = trng::normal_matrix(rng, c, d, proto_std);
        let offset_std = SUBGROUP_SCALE / (d as f32).sqrt().sqrt();
        let offsets = trng::normal_matrix(rng, c * s, d, offset_std);
        Self { spec: spec.clone(), prototypes, offsets }
    }

    /// The spec this problem was drawn from.
    pub fn spec(&self) -> &VisionSpec {
        &self.spec
    }

    /// Generates `n` samples with uniformly random classes and subgroups,
    /// including label noise.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Dataset {
        let dist = vec![1.0 / self.spec.num_classes as f64; self.spec.num_classes];
        self.generate_with_class_dist(rng, n, &dist)
    }

    /// Generates `n` samples with uniform classes, but **excluding** one
    /// `(class, subgroup)` subpopulation entirely.
    ///
    /// This builds the honest participants' data pool for the paper's
    /// worst-case evaluation (§I): *none of the validating clients hold
    /// backdoor data* — the backdoor feature exists only in the
    /// attacker's dataset.
    pub fn generate_excluding<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        excluded_class: usize,
        excluded_subgroup: u16,
    ) -> Dataset {
        let d = self.spec.input_dim;
        let mut data = Vec::with_capacity(n * d);
        let mut labels = Vec::with_capacity(n);
        let mut tags = Vec::with_capacity(n);
        while labels.len() < n {
            let class = rng.gen_range(0..self.spec.num_classes);
            let subgroup = rng.gen_range(0..self.spec.subgroups_per_class);
            if class == excluded_class && subgroup == excluded_subgroup {
                continue;
            }
            data.extend(self.sample_features(rng, class, subgroup));
            let label = if rng.gen_bool(self.spec.label_noise) {
                rng.gen_range(0..self.spec.num_classes)
            } else {
                class
            };
            labels.push(label);
            tags.push(subgroup);
        }
        Dataset::with_subgroups(Matrix::from_vec(n, d, data), labels, tags, self.spec.num_classes)
    }

    /// Generates `n` samples whose classes follow `class_dist` (a
    /// probability vector), used to build non-IID client shards directly.
    ///
    /// # Panics
    ///
    /// Panics if `class_dist.len() != num_classes` or it does not sum to
    /// ≈ 1.
    pub fn generate_with_class_dist<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        class_dist: &[f64],
    ) -> Dataset {
        assert_eq!(
            class_dist.len(),
            self.spec.num_classes,
            "generate_with_class_dist: distribution over {} classes for {}-class problem",
            class_dist.len(),
            self.spec.num_classes
        );
        let total: f64 = class_dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "class_dist sums to {total}, expected 1");

        let d = self.spec.input_dim;
        let mut data = Vec::with_capacity(n * d);
        let mut labels = Vec::with_capacity(n);
        let mut tags = Vec::with_capacity(n);
        for _ in 0..n {
            let class = sample_categorical(rng, class_dist);
            let subgroup = rng.gen_range(0..self.spec.subgroups_per_class);
            data.extend(self.sample_features(rng, class, subgroup));
            let label = if rng.gen_bool(self.spec.label_noise) {
                rng.gen_range(0..self.spec.num_classes)
            } else {
                class
            };
            labels.push(label);
            tags.push(subgroup);
        }
        Dataset::with_subgroups(Matrix::from_vec(n, d, data), labels, tags, self.spec.num_classes)
    }

    /// Generates `n` correctly-labelled samples from one specific
    /// `(class, subgroup)` subpopulation — the backdoor-instance
    /// generator (no label noise).
    ///
    /// # Panics
    ///
    /// Panics if `class` or `subgroup` is out of range.
    pub fn generate_subgroup<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        class: usize,
        subgroup: u16,
    ) -> Dataset {
        assert!(class < self.spec.num_classes, "generate_subgroup: class {class} out of range");
        assert!(
            subgroup < self.spec.subgroups_per_class,
            "generate_subgroup: subgroup {subgroup} out of range"
        );
        let d = self.spec.input_dim;
        let mut data = Vec::with_capacity(n * d);
        for _ in 0..n {
            data.extend(self.sample_features(rng, class, subgroup));
        }
        Dataset::with_subgroups(
            Matrix::from_vec(n, d, data),
            vec![class; n],
            vec![subgroup; n],
            self.spec.num_classes,
        )
    }

    /// Draws `num_writers` per-writer style offsets for writer-partitioned
    /// generation (FEMNIST's natural non-IID structure: every client is a
    /// distinct *writer* whose samples share a handwriting style).
    ///
    /// Each style is an offset vector added to every sample the writer
    /// produces; `style_std` controls how distinct writers are.
    pub fn writer_styles<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        num_writers: usize,
        style_std: f32,
    ) -> Vec<Vec<f32>> {
        let d = self.spec.input_dim;
        let per_coord = style_std / (d as f32).sqrt().sqrt();
        (0..num_writers)
            .map(|_| (0..d).map(|_| per_coord * trng::standard_normal(rng)).collect())
            .collect()
    }

    /// Generates `n` samples from a single *writer*: uniform classes and
    /// subgroups, with the writer's style offset added to every sample
    /// (label noise applies as usual).
    ///
    /// # Panics
    ///
    /// Panics if `style.len() != input_dim`.
    pub fn generate_writer<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        style: &[f32],
    ) -> Dataset {
        assert_eq!(
            style.len(),
            self.spec.input_dim,
            "generate_writer: style length {} != input dim {}",
            style.len(),
            self.spec.input_dim
        );
        let d = self.spec.input_dim;
        let mut data = Vec::with_capacity(n * d);
        let mut labels = Vec::with_capacity(n);
        let mut tags = Vec::with_capacity(n);
        for _ in 0..n {
            let class = rng.gen_range(0..self.spec.num_classes);
            let subgroup = rng.gen_range(0..self.spec.subgroups_per_class);
            let mut x = self.sample_features(rng, class, subgroup);
            for (xi, &s) in x.iter_mut().zip(style) {
                *xi += s;
            }
            data.extend(x);
            let label = if rng.gen_bool(self.spec.label_noise) {
                rng.gen_range(0..self.spec.num_classes)
            } else {
                class
            };
            labels.push(label);
            tags.push(subgroup);
        }
        Dataset::with_subgroups(Matrix::from_vec(n, d, data), labels, tags, self.spec.num_classes)
    }

    /// Generates `n` correctly-labelled samples of one class with
    /// uniformly random subgroups (no label noise) — the backdoor-instance
    /// generator for label-flip attacks, where the backdoor population is
    /// the entire source class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn generate_class<R: Rng + ?Sized>(&self, rng: &mut R, n: usize, class: usize) -> Dataset {
        assert!(class < self.spec.num_classes, "generate_class: class {class} out of range");
        let d = self.spec.input_dim;
        let mut data = Vec::with_capacity(n * d);
        let mut tags = Vec::with_capacity(n);
        for _ in 0..n {
            let subgroup = rng.gen_range(0..self.spec.subgroups_per_class);
            data.extend(self.sample_features(rng, class, subgroup));
            tags.push(subgroup);
        }
        Dataset::with_subgroups(
            Matrix::from_vec(n, d, data),
            vec![class; n],
            tags,
            self.spec.num_classes,
        )
    }

    fn sample_features<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        class: usize,
        subgroup: u16,
    ) -> Vec<f32> {
        let d = self.spec.input_dim;
        let proto = self.prototypes.row(class);
        let offset =
            self.offsets.row(class * self.spec.subgroups_per_class as usize + subgroup as usize);
        let noise_std = self.spec.noise_std / (d as f32).sqrt().sqrt();
        (0..d).map(|i| proto[i] + offset[i] + noise_std * trng::standard_normal(rng)).collect()
    }
}

/// Samples an index from a (normalised) categorical distribution.
fn sample_categorical<R: Rng + ?Sized>(rng: &mut R, dist: &[f64]) -> usize {
    let mut u: f64 = rng.gen();
    for (i, &p) in dist.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return i;
        }
    }
    dist.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gen(seed: u64) -> (SyntheticVision, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = SyntheticVision::new(&VisionSpec::new(4, 16, 3), &mut rng);
        (g, rng)
    }

    #[test]
    fn generate_has_requested_size_and_dim() {
        let (g, mut rng) = gen(1);
        let d = g.generate(&mut rng, 200);
        assert_eq!(d.len(), 200);
        assert_eq!(d.input_dim(), 16);
        assert_eq!(d.num_classes(), 4);
    }

    #[test]
    fn uniform_generation_is_roughly_balanced() {
        let (g, mut rng) = gen(2);
        let d = g.generate(&mut rng, 4000);
        for &c in &d.class_counts() {
            assert!((800..1200).contains(&c), "class count {c}");
        }
    }

    #[test]
    fn skewed_class_dist_is_respected() {
        let (g, mut rng) = gen(3);
        let d = g.generate_with_class_dist(&mut rng, 2000, &[0.7, 0.1, 0.1, 0.1]);
        let counts = d.class_counts();
        assert!(counts[0] > 1200, "counts = {counts:?}");
    }

    #[test]
    fn subgroup_generation_is_pure() {
        let (g, mut rng) = gen(4);
        let d = g.generate_subgroup(&mut rng, 50, 2, 1);
        assert!(d.labels().iter().all(|&y| y == 2));
        assert!(d.subgroups().iter().all(|&s| s == 1));
    }

    #[test]
    fn subgroups_of_same_class_are_distinct_populations() {
        let (g, mut rng) = gen(5);
        let a = g.generate_subgroup(&mut rng, 200, 0, 0);
        let b = g.generate_subgroup(&mut rng, 200, 0, 1);
        // Mean feature vectors should differ by roughly the subgroup offset.
        let mean = |d: &Dataset| {
            let mut m = d.features().sum_rows();
            for v in &mut m {
                *v /= d.len() as f32;
            }
            m
        };
        let dist = baffle_tensor::ops::distance(&mean(&a), &mean(&b));
        assert!(dist > 0.05, "subgroup means too close: {dist}");
    }

    #[test]
    fn label_noise_zero_means_labels_match_generating_class() {
        let mut rng = StdRng::seed_from_u64(6);
        let spec = VisionSpec::new(3, 8, 1).with_label_noise(0.0).with_noise_std(0.01);
        let g = SyntheticVision::new(&spec, &mut rng);
        let d = g.generate_subgroup(&mut rng, 100, 1, 0);
        assert!(d.labels().iter().all(|&y| y == 1));
    }

    #[test]
    fn same_seed_same_problem() {
        let (g1, mut r1) = gen(7);
        let (g2, mut r2) = gen(7);
        let a = g1.generate(&mut r1, 10);
        let b = g2.generate(&mut r2, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn presets_have_paper_dimensions() {
        assert_eq!(VisionSpec::cifar_like().num_classes(), 10);
        assert_eq!(VisionSpec::femnist_like().num_classes(), 62);
    }

    #[test]
    fn categorical_sampler_matches_distribution() {
        let mut rng = StdRng::seed_from_u64(8);
        let dist = [0.5, 0.25, 0.25];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[sample_categorical(&mut rng, &dist)] += 1;
        }
        assert!((counts[0] as f64 / 10_000.0 - 0.5).abs() < 0.03);
    }

    #[test]
    fn writer_styles_have_requested_count_and_dim() {
        let (g, mut rng) = gen(20);
        let styles = g.writer_styles(&mut rng, 7, 0.5);
        assert_eq!(styles.len(), 7);
        assert!(styles.iter().all(|s| s.len() == 16));
        // Distinct writers have distinct styles.
        assert_ne!(styles[0], styles[1]);
    }

    #[test]
    fn writer_generation_offsets_every_sample() {
        let mut rng = StdRng::seed_from_u64(21);
        let spec = VisionSpec::new(3, 8, 1).with_noise_std(0.01).with_label_noise(0.0);
        let g = SyntheticVision::new(&spec, &mut rng);
        let big_style = vec![10.0; 8];
        let d = g.generate_writer(&mut rng, 30, &big_style);
        // Every sample is dominated by the style offset.
        assert!(d.features().as_slice().iter().all(|&x| x > 5.0));
        assert_eq!(d.len(), 30);
    }

    #[test]
    fn writers_are_separable_populations() {
        let (g, mut rng) = gen(22);
        let styles = g.writer_styles(&mut rng, 2, 2.0);
        let a = g.generate_writer(&mut rng, 200, &styles[0]);
        let b = g.generate_writer(&mut rng, 200, &styles[1]);
        let mean = |d: &Dataset| {
            let mut m = d.features().sum_rows();
            for v in &mut m {
                *v /= d.len() as f32;
            }
            m
        };
        let dist = baffle_tensor::ops::distance(&mean(&a), &mean(&b));
        assert!(dist > 0.3, "writer means too close: {dist}");
    }

    #[test]
    #[should_panic(expected = "style length")]
    fn wrong_style_length_panics() {
        let (g, mut rng) = gen(23);
        let _ = g.generate_writer(&mut rng, 1, &[0.0; 3]);
    }

    #[test]
    fn generate_excluding_never_emits_the_backdoor_subgroup() {
        let mut rng = StdRng::seed_from_u64(10);
        let spec = VisionSpec::new(4, 8, 3).with_label_noise(0.0);
        let g = SyntheticVision::new(&spec, &mut rng);
        let d = g.generate_excluding(&mut rng, 500, 2, 1);
        assert_eq!(d.len(), 500);
        assert!(d.indices_of_subgroup(2, 1).is_empty());
        // Other subgroups of class 2 are still present.
        assert!(!d.indices_of_subgroup(2, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_subgroup_panics() {
        let (g, mut rng) = gen(9);
        let _ = g.generate_subgroup(&mut rng, 1, 0, 99);
    }
}
