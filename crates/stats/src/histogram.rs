//! Empirical distributions: ECDF/CCDF evaluation and density histograms —
//! the machinery behind Figs 3–6.

/// Empirical distribution of a sample (sorted copy kept internally).
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the empirical distribution. Panics on an empty sample or NaN.
    pub fn new(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "Ecdf of empty sample");
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in Ecdf input"));
        Ecdf { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The observations, sorted ascending.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// True when the sample is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F̂(x)` — fraction of observations `≤ x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// `1 − F̂(x)` — fraction of observations `> x` (the Fig 4 quantity).
    pub fn ccdf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// Empirical quantile (type-7 interpolation).
    pub fn quantile(&self, p: f64) -> f64 {
        crate::descriptive::quantile_sorted(&self.sorted, p)
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }

    /// `(x, CCDF(x))` sampled at every `k`-th order statistic — the points
    /// of a log-log complementary-distribution plot.
    pub fn ccdf_points(&self, max_points: usize) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let stride = (n / max_points.max(1)).max(1);
        let mut pts = Vec::with_capacity(n / stride + 1);
        let mut i = 0;
        while i < n {
            // CCDF just below the i-th order statistic: (n − i)/n at x_i.
            pts.push((self.sorted[i], (n - i) as f64 / n as f64));
            i += stride;
        }
        pts
    }
}

/// Fixed-width density histogram over `[lo, hi]`.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    below: u64,
    above: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` equal-width bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "Histogram requires hi > lo");
        assert!(bins > 0, "Histogram requires at least one bin");
        Histogram { lo, hi, counts: vec![0; bins], total: 0, below: 0, above: 0 }
    }

    /// Builds a histogram spanning the sample's range.
    pub fn from_data(xs: &[f64], bins: usize) -> Self {
        assert!(!xs.is_empty(), "Histogram of empty sample");
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let hi = if hi > lo { hi } else { lo + 1.0 };
        let mut h = Histogram::new(lo, hi, bins);
        for &x in xs {
            h.push(x);
        }
        h
    }

    /// Adds one observation (out-of-range values are counted separately).
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.below += 1;
            return;
        }
        if x > self.hi {
            self.above += 1;
            return;
        }
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = (((x - self.lo) / w) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations pushed (including out-of-range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `(bin centre, density)` pairs normalised so the histogram
    /// integrates to the in-range fraction of the data.
    pub fn density(&self) -> Vec<(f64, f64)> {
        let w = self.bin_width();
        let n = self.total.max(1) as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + (i as f64 + 0.5) * w, c as f64 / (n * w)))
            .collect()
    }

    /// Observations that fell outside `[lo, hi]` (below, above).
    pub fn out_of_range(&self) -> (u64, u64) {
        (self.below, self.above)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_step_function() {
        let e = Ecdf::new(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.0), 0.75);
        assert_eq!(e.cdf(10.0), 1.0);
        assert_eq!(e.ccdf(2.0), 0.25);
    }

    #[test]
    fn ecdf_extremes_and_quantiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let e = Ecdf::new(&xs);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 100.0);
        assert!((e.quantile(0.5) - 50.5).abs() < 1e-12);
    }

    #[test]
    fn ccdf_points_are_monotone() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 1001) as f64).collect();
        let e = Ecdf::new(&xs);
        let pts = e.ccdf_points(100);
        assert!(pts.len() <= 101);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 >= w[1].1);
        }
        // First point: CCDF at the minimum is 1 (all observations >= min,
        // our convention counts P[X >= x_0] there).
        assert!((pts[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_and_density() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        assert_eq!(h.counts(), &[1u64; 10][..]);
        let dens = h.density();
        // Uniform over [0,10]: density 0.1 everywhere.
        for (_, d) in dens {
            assert!((d - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn histogram_out_of_range_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-1.0);
        h.push(0.5);
        h.push(2.0);
        assert_eq!(h.out_of_range(), (1, 1));
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn histogram_from_data_spans_range() {
        let xs = [3.0, 7.0, 5.0, 3.0, 7.0];
        let h = Histogram::from_data(&xs, 4);
        assert_eq!(h.total(), 5);
        assert_eq!(h.out_of_range(), (0, 0));
        let total: u64 = h.counts().iter().sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 * 0.017).sin() * 3.0 + 5.0).collect();
        let h = Histogram::from_data(&xs, 32);
        let area: f64 = h.density().iter().map(|(_, d)| d * h.bin_width()).sum();
        assert!((area - 1.0).abs() < 1e-9);
    }
}
