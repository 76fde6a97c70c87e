//! Exact latency statistics.
//!
//! Every sample is kept and quantiles are order statistics over all of
//! them. The server's `remi_obs::Histogram` buckets are a factor of two
//! apart, far too coarse to resolve a 10% regression, so they are never
//! used for quantiles here (only their exact `_sum`/`_count`).

/// The `q`-quantile of ascending `sorted`, linearly interpolated between
/// the two nearest order statistics (the estimator numpy and R call
/// "type 7"). `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let h = (n - 1) as f64 * q.clamp(0.0, 1.0);
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// The tail level reported as `p99`: 0.99 when at least ten samples lie
/// beyond it, otherwise the highest level that still leaves ten beyond.
pub fn tail_level(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else {
        (1.0 - 10.0 / n.max(20) as f64).max(0.5)
    }
}

/// A growing set of latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn p50(&self) -> f64 {
        quantile(&self.sorted(), 0.5)
    }

    /// The tail quantile at [`tail_level`].
    pub fn tail(&self) -> f64 {
        quantile(&self.sorted(), tail_level(self.len()))
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }
}

impl From<Vec<f64>> for Samples {
    fn from(v: Vec<f64>) -> Samples {
        Samples(v)
    }
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quantiles_resolve_differences_far_below_a_bucket() {
        // Two runs 5% apart land in one log2 bucket; exact quantiles keep
        // them apart by exactly 5%.
        let a: Vec<f64> = (1..=1000).map(|i| 10.0 + i as f64 * 1e-3).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        let (pa, pb) = (quantile(&a, 0.99), quantile(&b, 0.99));
        assert!((pb / pa - 1.05).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_level(5000), 0.99);
        assert_eq!(tail_level(1000), 0.99);
        assert!((tail_level(500) - 0.98).abs() < 1e-12);
        assert_eq!(tail_level(3), 0.5);
        for n in [20usize, 100, 999, 1000, 4000] {
            let beyond = n as f64 * (1.0 - tail_level(n));
            assert!(beyond >= 10.0 - 1e-9, "n={n} beyond={beyond}");
        }
    }

    #[test]
    fn samples_report_median_mean_and_tail() {
        let mut s = Samples::default();
        for i in (1..=2000).rev() {
            s.push(i as f64);
        }
        assert_eq!(s.p50(), 1000.5);
        assert_eq!(s.mean(), 1000.5);
        assert!((s.tail() - quantile(&s.sorted(), 0.99)).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
