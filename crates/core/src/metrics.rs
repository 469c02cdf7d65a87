//! Detection metrics: false-positive / false-negative rates and
//! aggregation across repeated experiments.

/// Per-run detection counts, classified against ground truth.
///
/// - a **false positive** is a *clean* update rejected by the defense;
/// - a **false negative** is a *poisoned* update accepted by the defense.
///
/// # Example
///
/// ```
/// use baffle_core::metrics::DetectionCounts;
///
/// let mut c = DetectionCounts::default();
/// c.record(false, true);  // clean, rejected  → FP
/// c.record(false, false); // clean, accepted  → TN
/// c.record(true, true);   // poisoned, rejected → TP
/// c.record(true, false);  // poisoned, accepted → FN
/// assert_eq!(c.false_positive_rate(), 0.5);
/// assert_eq!(c.false_negative_rate(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectionCounts {
    true_positives: usize,
    false_positives: usize,
    true_negatives: usize,
    false_negatives: usize,
}

impl DetectionCounts {
    /// Records one defended round: whether the update was actually
    /// poisoned, and whether the defense rejected it.
    pub fn record(&mut self, poisoned: bool, rejected: bool) {
        match (poisoned, rejected) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_negatives += 1,
            (false, true) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Clean updates wrongly rejected, over all clean updates; 0 when no
    /// clean update was seen.
    pub fn false_positive_rate(&self) -> f64 {
        ratio(self.false_positives, self.false_positives + self.true_negatives)
    }

    /// Poisoned updates wrongly accepted, over all poisoned updates; 0
    /// when no poisoned update was seen.
    pub fn false_negative_rate(&self) -> f64 {
        ratio(self.false_negatives, self.false_negatives + self.true_positives)
    }

    /// Fraction of all updates classified correctly; 0 when nothing was
    /// recorded.
    pub fn accuracy(&self) -> f64 {
        ratio(self.true_positives + self.true_negatives, self.total())
    }

    /// Total updates recorded.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Number of poisoned updates seen.
    pub fn poisoned(&self) -> usize {
        self.true_positives + self.false_negatives
    }

    /// Number of clean updates seen.
    pub fn clean(&self) -> usize {
        self.true_negatives + self.false_positives
    }

    /// Number of false positives.
    pub fn false_positives(&self) -> usize {
        self.false_positives
    }

    /// Number of false negatives.
    pub fn false_negatives(&self) -> usize {
        self.false_negatives
    }

    /// Merges another run's counts into this one.
    pub fn merge(&mut self, other: &DetectionCounts) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.true_negatives += other.true_negatives;
        self.false_negatives += other.false_negatives;
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Mean and (population) standard deviation of a sample — the `x ± σ`
/// entries of Table I.
///
/// Returns `(0, 0)` for an empty slice.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_with_no_observations_are_zero() {
        let c = DetectionCounts::default();
        assert_eq!(c.false_positive_rate(), 0.0);
        assert_eq!(c.false_negative_rate(), 0.0);
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn perfect_detection() {
        let mut c = DetectionCounts::default();
        for _ in 0..10 {
            c.record(false, false);
        }
        for _ in 0..3 {
            c.record(true, true);
        }
        assert_eq!(c.false_positive_rate(), 0.0);
        assert_eq!(c.false_negative_rate(), 0.0);
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.poisoned(), 3);
        assert_eq!(c.clean(), 10);
    }

    #[test]
    fn rates_are_conditional_on_ground_truth() {
        let mut c = DetectionCounts::default();
        c.record(false, true); // FP among 2 clean
        c.record(false, false);
        c.record(true, false); // FN among 1 poisoned
        assert_eq!(c.false_positive_rate(), 0.5);
        assert_eq!(c.false_negative_rate(), 1.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = DetectionCounts::default();
        a.record(true, true);
        let mut b = DetectionCounts::default();
        b.record(true, false);
        a.merge(&b);
        assert_eq!(a.poisoned(), 2);
        assert_eq!(a.false_negative_rate(), 0.5);
    }

    #[test]
    fn mean_std_known_values() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m - 2.5).abs() < 1e-12);
        assert!((s - (1.25_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mean_std_empty_and_singleton() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        let (m, s) = mean_std(&[7.0]);
        assert_eq!(m, 7.0);
        assert_eq!(s, 0.0);
    }
}
