//! Order statistics and the micro-benchmark timing loop.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice so an inapplicable metric reads as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) plus the number of samples
/// strictly beyond it — the count the choosing-metrics guide asks to be
/// at least ten before a percentile is trusted.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    if values.is_empty() {
        return (0.0, 0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, v.len()) - 1;
    (v[idx], v.len() - 1 - idx)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method) — the acceptance rule for this
/// benchmark is stated in those terms. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; `None` when it
/// cannot be formed (fewer than two values, or a zero median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Median seconds per call of `f`, sampled for about `budget`.
///
/// One untimed call warms caches and sizes the inner repeat count so a
/// sample lasts at least ~50 µs (timer overhead stays below a part in a
/// thousand even for sub-microsecond operations); at least five samples
/// are taken however slow `f` is.
pub fn time_median<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let inner = ((50e-6 / once).ceil() as usize).max(1);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..inner {
            black_box(f());
        }
        samples.push(t.elapsed().as_secs_f64() / inner as f64);
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_reports_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), (95.0, 5));
        assert_eq!(percentile(&v, 50.0), (50.0, 50));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
