//! Online statistics for measurement post-processing.
//!
//! The paper (§IX-D, Eq. 8) propagates the standard deviation of two kernel
//! latency measurements into the uncertainty of a derived per-instruction
//! latency. `OnlineStats` provides numerically stable (Welford) accumulation
//! of mean/variance; `propagate_difference_quotient` implements Eq. 8.

use serde::{Deserialize, Serialize};

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    pub fn new() -> OnlineStats {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.push(x);
        }
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n-1 denominator). Zero for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            stddev: self.stddev(),
            min: if self.n == 0 { 0.0 } else { self.min },
            max: if self.n == 0 { 0.0 } else { self.max },
        }
    }
}

/// A frozen snapshot of an [`OnlineStats`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub n: u64,
    pub mean: f64,
    pub stddev: f64,
    pub min: f64,
    pub max: f64,
}

/// Paper Eq. 8: the standard deviation of the derived instruction latency
/// `T = (L_k1 - L_k2) / (r1 - r2)` given independent measurement deviations
/// `sigma_k1`, `sigma_k2` of the two kernel latencies.
///
/// Increasing the repeat-count gap `r1 - r2` shrinks the uncertainty linearly,
/// which is exactly why the inter-SM method uses widely separated repeat
/// counts.
pub fn propagate_difference_quotient(sigma_k1: f64, sigma_k2: f64, r1: u64, r2: u64) -> f64 {
    assert!(r1 != r2, "repeat counts must differ");
    let dr = (r1 as f64 - r2 as f64).abs();
    (sigma_k1 * sigma_k1 + sigma_k2 * sigma_k2).sqrt() / dr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        s.extend(xs);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        let sum = s.summary();
        assert_eq!(sum.n, 1);
        assert_eq!(sum.mean, 42.0);
    }

    #[test]
    fn empty_summary_is_finite() {
        let s = OnlineStats::new();
        let sum = s.summary();
        assert_eq!(sum.n, 0);
        assert_eq!(sum.min, 0.0);
        assert_eq!(sum.max, 0.0);
    }

    #[test]
    fn eq8_shrinks_with_repeat_gap() {
        let narrow = propagate_difference_quotient(10.0, 10.0, 512, 256);
        let wide = propagate_difference_quotient(10.0, 10.0, 4096, 256);
        assert!(wide < narrow);
        // sqrt(200)/256
        assert!((narrow - 200.0_f64.sqrt() / 256.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn eq8_rejects_equal_repeats() {
        let _ = propagate_difference_quotient(1.0, 1.0, 5, 5);
    }
}
