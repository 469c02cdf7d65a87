//! Labelled datasets with semantic-subgroup tags.

use baffle_tensor::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// A labelled classification dataset.
///
/// Every sample carries, besides its feature row and label, a **subgroup
/// tag** identifying which semantic subpopulation of its class it was
/// drawn from. Subgroups are the synthetic analogue of semantic features
/// such as "cars with a striped background" — the unit that semantic
/// backdoor attacks target (see [`crate::SyntheticVision`]).
///
/// # Example
///
/// ```
/// use baffle_data::Dataset;
/// use baffle_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
/// let d = Dataset::new(x, vec![0, 1, 0], 2);
/// assert_eq!(d.len(), 3);
/// assert_eq!(d.class_counts(), vec![2, 1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    x: Matrix,
    y: Vec<usize>,
    subgroup: Vec<u16>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset with all subgroup tags set to 0.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != y.len()`, `num_classes == 0`, or a label is
    /// out of range.
    pub fn new(x: Matrix, y: Vec<usize>, num_classes: usize) -> Self {
        let n = y.len();
        Self::with_subgroups(x, y, vec![0; n], num_classes)
    }

    /// Creates a dataset with explicit subgroup tags.
    ///
    /// # Panics
    ///
    /// Panics if lengths are inconsistent or a label is out of range.
    pub fn with_subgroups(
        x: Matrix,
        y: Vec<usize>,
        subgroup: Vec<u16>,
        num_classes: usize,
    ) -> Self {
        assert!(num_classes > 0, "Dataset: need at least one class");
        assert_eq!(x.rows(), y.len(), "Dataset: {} rows vs {} labels", x.rows(), y.len());
        assert_eq!(
            y.len(),
            subgroup.len(),
            "Dataset: {} labels vs {} subgroup tags",
            y.len(),
            subgroup.len()
        );
        assert!(
            y.iter().all(|&l| l < num_classes),
            "Dataset: a label is out of range for {num_classes} classes"
        );
        Self { x, y, subgroup, num_classes }
    }

    /// An empty dataset with the given feature dimension and class count.
    pub fn empty(input_dim: usize, num_classes: usize) -> Self {
        Self::new(Matrix::zeros(0, input_dim), Vec::new(), num_classes)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature matrix (`len × input_dim`).
    pub fn features(&self) -> &Matrix {
        &self.x
    }

    /// Labels, one per row of [`Dataset::features`].
    pub fn labels(&self) -> &[usize] {
        &self.y
    }

    /// Subgroup tags, one per sample.
    pub fn subgroups(&self) -> &[u16] {
        &self.subgroup
    }

    /// Number of classes in the label space (not necessarily all present).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Feature dimensionality.
    pub fn input_dim(&self) -> usize {
        self.x.cols()
    }

    /// Number of samples per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.num_classes];
        for &l in &self.y {
            counts[l] += 1;
        }
        counts
    }

    /// The class with the most samples (ties resolve to the lowest index).
    /// Returns `None` for an empty dataset.
    pub fn majority_class(&self) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let counts = self.class_counts();
        counts.iter().enumerate().max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0))).map(|(c, _)| c)
    }

    /// Copies the samples at `indices` (in order, duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            subgroup: indices.iter().map(|&i| self.subgroup[i]).collect(),
            num_classes: self.num_classes,
        }
    }

    /// Splits off `n` uniformly random samples (without replacement),
    /// returning `(taken, rest)`.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn split_random<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> (Dataset, Dataset) {
        assert!(n <= self.len(), "split_random: cannot take {n} of {}", self.len());
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        let (taken, rest) = order.split_at(n);
        (self.subset(taken), self.subset(rest))
    }

    /// Concatenates two datasets over the same feature/label space.
    ///
    /// # Panics
    ///
    /// Panics if dimensions or class counts differ.
    pub fn concat(&self, other: &Dataset) -> Dataset {
        assert_eq!(self.num_classes, other.num_classes, "concat: class count mismatch");
        assert_eq!(self.input_dim(), other.input_dim(), "concat: input dim mismatch");
        let mut data = Vec::with_capacity((self.len() + other.len()) * self.input_dim());
        data.extend_from_slice(self.x.as_slice());
        data.extend_from_slice(other.x.as_slice());
        let mut y = self.y.clone();
        y.extend_from_slice(&other.y);
        let mut sg = self.subgroup.clone();
        sg.extend_from_slice(&other.subgroup);
        Dataset {
            x: Matrix::from_vec(self.len() + other.len(), self.input_dim(), data),
            y,
            subgroup: sg,
            num_classes: self.num_classes,
        }
    }

    /// Indices of all samples with the given class.
    pub fn indices_of_class(&self, class: usize) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.y[i] == class).collect()
    }

    /// Indices of all samples with the given `(class, subgroup)` pair —
    /// i.e. the backdoor subpopulation.
    pub fn indices_of_subgroup(&self, class: usize, subgroup: u16) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.y[i] == class && self.subgroup[i] == subgroup).collect()
    }

    /// Returns a copy where every sample selected by `select` is relabelled
    /// to `target` — the data-poisoning primitive.
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.num_classes()`.
    pub fn relabel(
        &self,
        target: usize,
        mut select: impl FnMut(usize, usize, u16) -> bool,
    ) -> Dataset {
        assert!(target < self.num_classes, "relabel: target {target} out of range");
        let mut out = self.clone();
        for i in 0..out.y.len() {
            if select(i, out.y[i], out.subgroup[i]) {
                out.y[i] = target;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0], &[4.0]]);
        Dataset::with_subgroups(x, vec![0, 1, 0, 1, 2], vec![0, 0, 1, 1, 0], 3)
    }

    #[test]
    fn class_counts_and_majority() {
        let d = toy();
        assert_eq!(d.class_counts(), vec![2, 2, 1]);
        assert_eq!(d.majority_class(), Some(0));
        assert_eq!(Dataset::empty(1, 3).majority_class(), None);
    }

    #[test]
    fn subset_preserves_rows_and_tags() {
        let d = toy();
        let s = d.subset(&[4, 0]);
        assert_eq!(s.labels(), &[2, 0]);
        assert_eq!(s.subgroups(), &[0, 0]);
        assert_eq!(s.features().row(0), &[4.0]);
    }

    #[test]
    fn split_random_partitions_without_loss() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let (a, b) = d.split_random(&mut rng, 2);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3);
        // Together they hold every original feature value exactly once.
        let mut vals: Vec<f32> =
            a.features().as_slice().iter().chain(b.features().as_slice()).cloned().collect();
        vals.sort_by(f32::total_cmp);
        assert_eq!(vals, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn concat_appends() {
        let d = toy();
        let c = d.concat(&d);
        assert_eq!(c.len(), 10);
        assert_eq!(c.class_counts(), vec![4, 4, 2]);
    }

    #[test]
    fn indices_of_subgroup_filters_both_keys() {
        let d = toy();
        assert_eq!(d.indices_of_subgroup(0, 1), vec![2]);
        assert_eq!(d.indices_of_subgroup(0, 0), vec![0]);
        assert_eq!(d.indices_of_subgroup(1, 0), vec![1]);
        assert!(d.indices_of_subgroup(2, 5).is_empty());
    }

    #[test]
    fn relabel_flips_selected_samples_only() {
        let d = toy();
        // Flip all of class 0 to class 2 (label-flip backdoor).
        let p = d.relabel(2, |_, y, _| y == 0);
        assert_eq!(p.labels(), &[2, 1, 2, 1, 2]);
        // Original untouched.
        assert_eq!(d.labels(), &[0, 1, 0, 1, 2]);
    }

    #[test]
    fn relabel_by_subgroup_is_the_semantic_backdoor() {
        let d = toy();
        let p = d.relabel(1, |_, y, sg| y == 0 && sg == 1);
        assert_eq!(p.labels(), &[0, 1, 1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn label_out_of_range_panics() {
        let x = Matrix::zeros(1, 1);
        let _ = Dataset::new(x, vec![3], 3);
    }

    #[test]
    #[should_panic(expected = "cannot take")]
    fn split_more_than_len_panics() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = d.split_random(&mut rng, 6);
    }
}
