//! Backdoor task specification.

use baffle_data::Dataset;

/// The adversarial subtask of a backdoor attack (paper §III-A): a set of
/// backdoor instances and a target label `y_t`.
///
/// Two variants cover the paper's two instantiations:
///
/// - **Semantic** (CIFAR-10, §VI-A): backdoor instances are one semantic
///   subgroup of a source class — in this reproduction, a
///   `(class, subgroup)` pair of the synthetic generator.
/// - **Label-flip** (FEMNIST, §VI-A): backdoor instances are the whole
///   source class.
///
/// # Example
///
/// ```
/// use baffle_attack::BackdoorSpec;
/// let s = BackdoorSpec::semantic(2, 1, 7);
/// assert_eq!(s.source_class(), 2);
/// assert_eq!(s.subgroup(), Some(1));
/// assert_eq!(s.target_class(), 7);
/// assert!(BackdoorSpec::label_flip(0, 5).subgroup().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackdoorSpec {
    source_class: usize,
    subgroup: Option<u16>,
    target_class: usize,
}

impl BackdoorSpec {
    /// A semantic backdoor: instances of `source_class` carrying the
    /// semantic feature `subgroup` should be classified as
    /// `target_class`.
    ///
    /// # Panics
    ///
    /// Panics if source and target coincide.
    pub fn semantic(source_class: usize, subgroup: u16, target_class: usize) -> Self {
        assert_ne!(source_class, target_class, "BackdoorSpec: source and target must differ");
        Self { source_class, subgroup: Some(subgroup), target_class }
    }

    /// A label-flip backdoor: every instance of `source_class` should be
    /// classified as `target_class`.
    ///
    /// # Panics
    ///
    /// Panics if source and target coincide.
    pub fn label_flip(source_class: usize, target_class: usize) -> Self {
        assert_ne!(source_class, target_class, "BackdoorSpec: source and target must differ");
        Self { source_class, subgroup: None, target_class }
    }

    /// The class whose (sub)population is attacked.
    pub fn source_class(&self) -> usize {
        self.source_class
    }

    /// The semantic subgroup, or `None` for a label-flip backdoor.
    pub fn subgroup(&self) -> Option<u16> {
        self.subgroup
    }

    /// The attacker's target label `y_t`.
    pub fn target_class(&self) -> usize {
        self.target_class
    }

    /// Whether a sample with the given label and subgroup tag is a
    /// backdoor instance.
    pub fn matches(&self, label: usize, subgroup: u16) -> bool {
        label == self.source_class && self.subgroup.is_none_or(|sg| sg == subgroup)
    }

    /// Returns a poisoned copy of `data`: every backdoor instance is
    /// relabelled to the target class (the data-poisoning step of model
    /// replacement).
    ///
    /// # Panics
    ///
    /// Panics if `target_class` is out of range for the dataset.
    pub fn poison(&self, data: &Dataset) -> Dataset {
        data.relabel(self.target_class, |_, y, sg| self.matches(y, sg))
    }

    /// Number of backdoor instances present in `data`.
    pub fn count_in(&self, data: &Dataset) -> usize {
        data.labels().iter().zip(data.subgroups()).filter(|(&y, &sg)| self.matches(y, sg)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baffle_tensor::Matrix;

    fn toy() -> Dataset {
        let x = Matrix::zeros(6, 1);
        Dataset::with_subgroups(x, vec![0, 0, 1, 1, 2, 0], vec![0, 1, 0, 1, 0, 1], 3)
    }

    #[test]
    fn semantic_matches_only_the_subgroup() {
        let s = BackdoorSpec::semantic(0, 1, 2);
        assert!(s.matches(0, 1));
        assert!(!s.matches(0, 0));
        assert!(!s.matches(1, 1));
    }

    #[test]
    fn label_flip_matches_whole_class() {
        let s = BackdoorSpec::label_flip(1, 0);
        assert!(s.matches(1, 0));
        assert!(s.matches(1, 7));
        assert!(!s.matches(0, 0));
    }

    #[test]
    fn poison_relabels_semantic_instances() {
        let s = BackdoorSpec::semantic(0, 1, 2);
        let p = s.poison(&toy());
        // Samples 1 and 5 are class 0 subgroup 1.
        assert_eq!(p.labels(), &[0, 2, 1, 1, 2, 2]);
    }

    #[test]
    fn poison_relabels_whole_class_for_label_flip() {
        let s = BackdoorSpec::label_flip(0, 1);
        let p = s.poison(&toy());
        assert_eq!(p.labels(), &[1, 1, 1, 1, 2, 1]);
    }

    #[test]
    fn count_in_counts_backdoor_instances() {
        let toy = toy();
        assert_eq!(BackdoorSpec::semantic(0, 1, 2).count_in(&toy), 2);
        assert_eq!(BackdoorSpec::label_flip(0, 2).count_in(&toy), 3);
        assert_eq!(BackdoorSpec::semantic(2, 1, 0).count_in(&toy), 0);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn source_equals_target_panics() {
        let _ = BackdoorSpec::label_flip(3, 3);
    }
}
