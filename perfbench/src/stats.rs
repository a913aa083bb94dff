//! Exact sample statistics: every op's value is kept, so a percentile is
//! an order statistic of the run, never a histogram bucket edge.

/// Exact per-op samples of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the middle pair for an even count); 0 when
    /// empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The `q`-quantile, interpolated linearly between order statistics;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    /// The `q`-quantile, reported only when at least ten samples lie
    /// beyond it; `None` otherwise.
    pub fn tail_quantile(&self, q: f64) -> Option<f64> {
        let beyond = (self.len() as f64 * (1.0 - q)).floor() as usize;
        (beyond >= 10).then(|| self.quantile(q))
    }

    /// The sample count with the median and every decile and quartile
    /// that has at least ten samples beyond it, for the record line.
    pub fn summary(&self) -> String {
        let n = self.len() as f64;
        let mut s = format!("n={} p50={:.6}", self.len(), self.median());
        for q in [0.1f64, 0.25, 0.75, 0.9, 0.99] {
            if (n * q.min(1.0 - q)).floor() >= 10.0 {
                s.push_str(&format!(
                    " p{}={:.6}",
                    (q * 100.0).round(),
                    self.quantile(q)
                ));
            }
        }
        s
    }
}

/// The median of a slice (0 when empty).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_of(&[]), 0.0);
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(f64::from(i));
        }
        assert_eq!(s.tail_quantile(0.99), None);
        s.push(999.0);
        let p99 = s
            .tail_quantile(0.99)
            .expect("1000 samples leave 10 beyond p99");
        assert!((p99 - 989.01).abs() < 1e-9, "{p99}");
    }
}
