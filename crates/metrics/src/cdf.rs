//! Empirical CDFs and summary statistics, used to regenerate the paper's
//! CDF figures (Figs. 6, 8, 11, 13–18).

use serde::{Deserialize, Serialize};

/// An empirical cumulative distribution over `f64` samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from raw samples (NaNs dropped).
    pub fn new(mut samples: Vec<f64>) -> Cdf {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.total_cmp(b));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X ≤ x)`.
    pub fn fraction_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `p`-th percentile (`p ∈ [0, 1]`), nearest-rank.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        self.sorted[rank.min(self.sorted.len() - 1)]
    }

    /// Smallest sample (NaN when empty).
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    /// Largest sample (NaN when empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    /// Arithmetic mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Median (NaN when empty).
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Evenly spaced `(x, P(X ≤ x))` points for printing a CDF series.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let lo = self.min();
        let hi = self.max();
        let span = (hi - lo).max(f64::EPSILON);
        (0..=points)
            .map(|i| {
                let x = lo + span * i as f64 / points as f64;
                (x, self.fraction_at(x))
            })
            .collect()
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of a slice (ignores NaNs).
pub fn median(xs: &[f64]) -> f64 {
    Cdf::new(xs.to_vec()).median()
}

/// Paired Wilcoxon signed-rank test (normal approximation), returning
/// `(w_statistic, z, p_two_sided)`. Used for the user-study hypothesis tests
/// (§6.4): "time to complete a query with SpeakQL is statistically
/// significantly lower than the typing condition".
pub fn wilcoxon_signed_rank(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
    assert_eq!(a.len(), b.len(), "paired samples must have equal length");
    let mut diffs: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| x - y)
        .filter(|d| d.abs() > f64::EPSILON)
        .collect();
    let n = diffs.len();
    if n == 0 {
        return (0.0, 0.0, 1.0);
    }
    diffs.sort_by(|x, y| x.abs().total_cmp(&y.abs()));
    // Rank with ties averaged.
    let mut ranks = vec![0.0f64; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && (diffs[j + 1].abs() - diffs[i].abs()).abs() < 1e-12 {
            j += 1;
        }
        let avg_rank = (i + j + 2) as f64 / 2.0;
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = avg_rank;
        }
        i = j + 1;
    }
    let w_plus: f64 = diffs
        .iter()
        .zip(&ranks)
        .filter(|(d, _)| **d > 0.0)
        .map(|(_, r)| r)
        .sum();
    let nf = n as f64;
    let mean_w = nf * (nf + 1.0) / 4.0;
    let sd_w = (nf * (nf + 1.0) * (2.0 * nf + 1.0) / 24.0).sqrt();
    let z = if sd_w > 0.0 {
        (w_plus - mean_w) / sd_w
    } else {
        0.0
    };
    let p = 2.0 * (1.0 - normal_cdf(z.abs()));
    (w_plus, z, p)
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26, max error 1.5e-7.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.fraction_at(0.5), 0.0);
        assert_eq!(cdf.fraction_at(2.0), 0.5);
        assert_eq!(cdf.fraction_at(4.0), 1.0);
        assert_eq!(cdf.median(), 2.0);
        assert_eq!(cdf.mean(), 2.5);
        assert_eq!(cdf.percentile(0.9), 4.0);
    }

    #[test]
    fn cdf_series_monotone() {
        let cdf = Cdf::new(vec![1.0, 5.0, 2.0, 8.0, 3.0]);
        let series = cdf.series(10);
        for w in series.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(series.last().map(|p| p.1), Some(1.0));
    }

    #[test]
    fn empty_cdf() {
        let cdf = Cdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at(1.0), 0.0);
        assert!(cdf.median().is_nan());
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn wilcoxon_detects_shift() {
        // a clearly larger than b.
        let a: Vec<f64> = (1..=20).map(|i| 10.0 + i as f64).collect();
        let b: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let (_, z, p) = wilcoxon_signed_rank(&a, &b);
        assert!(z > 3.0, "z={z}");
        assert!(p < 0.01, "p={p}");
    }

    #[test]
    fn wilcoxon_no_difference() {
        let a = vec![1.0, 2.0, 3.0];
        let (_, _, p) = wilcoxon_signed_rank(&a, &a);
        assert_eq!(p, 1.0);
    }
}

/// Percentile-bootstrap confidence interval for the mean: resample with
/// replacement `iters` times and take the `alpha/2` and `1-alpha/2`
/// percentiles of the resampled means. Deterministic in `seed`.
pub fn bootstrap_mean_ci(samples: &[f64], iters: usize, alpha: f64, seed: u64) -> (f64, f64) {
    use rand::{Rng, SeedableRng};
    if samples.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut means = Vec::with_capacity(iters);
    for _ in 0..iters {
        let sum: f64 = (0..samples.len())
            .map(|_| samples[rng.gen_range(0..samples.len())])
            .sum();
        means.push(sum / samples.len() as f64);
    }
    let cdf = Cdf::new(means);
    (
        cdf.percentile(alpha / 2.0),
        cdf.percentile(1.0 - alpha / 2.0),
    )
}

#[cfg(test)]
mod bootstrap_tests {
    use super::*;

    #[test]
    fn ci_brackets_the_mean() {
        let samples: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let m = mean(&samples);
        let (lo, hi) = bootstrap_mean_ci(&samples, 500, 0.05, 1);
        assert!(lo <= m && m <= hi, "[{lo}, {hi}] vs {m}");
        assert!(hi - lo < 1.0, "CI too wide: [{lo}, {hi}]");
    }

    #[test]
    fn ci_narrows_with_sample_size() {
        let small: Vec<f64> = (0..20).map(|i| (i % 10) as f64).collect();
        let big: Vec<f64> = (0..2000).map(|i| (i % 10) as f64).collect();
        let (lo_s, hi_s) = bootstrap_mean_ci(&small, 400, 0.05, 2);
        let (lo_b, hi_b) = bootstrap_mean_ci(&big, 400, 0.05, 2);
        assert!(hi_b - lo_b < hi_s - lo_s);
    }

    #[test]
    fn deterministic_in_seed() {
        let samples = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(
            bootstrap_mean_ci(&samples, 100, 0.05, 7),
            bootstrap_mean_ci(&samples, 100, 0.05, 7)
        );
    }

    #[test]
    fn empty_is_nan() {
        let (lo, hi) = bootstrap_mean_ci(&[], 10, 0.05, 1);
        assert!(lo.is_nan() && hi.is_nan());
    }
}
