//! Sampling primitives built directly on `rand`.
//!
//! The offline crate set has no `rand_distr`, so the heavy-tailed flow-size
//! distributions used by the trace generator (log-normal via Box–Muller,
//! bounded Pareto) are implemented here.

use rand::Rng;

/// Samples a standard normal via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 = 0 exactly (ln(0)); the half-open range of gen() already
    // excludes 1.0.
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > 1e-300 {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A log-normal distribution parameterized by the underlying normal's
/// `mu` and `sigma`.
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    /// Mean of `ln X`.
    pub mu: f64,
    /// Standard deviation of `ln X`.
    pub sigma: f64,
}

impl LogNormal {
    /// Creates the distribution; `sigma` must be nonnegative.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be nonnegative");
        LogNormal { mu, sigma }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// Draws an integer sample clamped to `[lo, hi]`.
    pub fn sample_clamped_int<R: Rng + ?Sized>(&self, rng: &mut R, lo: u64, hi: u64) -> u64 {
        let v = self.sample(rng);
        (v.round() as u64).clamp(lo, hi)
    }
}

/// A bounded Pareto distribution on `[lo, hi]` with shape `alpha`.
#[derive(Clone, Copy, Debug)]
pub struct BoundedPareto {
    /// Lower bound (> 0).
    pub lo: f64,
    /// Upper bound (> lo).
    pub hi: f64,
    /// Tail index (> 0); smaller = heavier tail.
    pub alpha: f64,
}

impl BoundedPareto {
    /// Creates the distribution.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(lo > 0.0 && hi > lo && alpha > 0.0);
        BoundedPareto { lo, hi, alpha }
    }

    /// Draws one sample by inverse transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {}", mean);
        assert!((var - 1.0).abs() < 0.1, "var {}", var);
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = LogNormal::new(2.0, 0.8);
        let n = 20_000;
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!(
            (median - 2f64.exp()).abs() / 2f64.exp() < 0.1,
            "median {}",
            median
        );
    }

    #[test]
    fn lognormal_clamped_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = LogNormal::new(5.0, 3.0);
        for _ in 0..1000 {
            let v = d.sample_clamped_int(&mut rng, 1, 100);
            assert!((1..=100).contains(&v));
        }
    }

    #[test]
    fn pareto_within_bounds_and_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = BoundedPareto::new(1.0, 1000.0, 1.1);
        let n = 10_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| (1.0..=1000.0).contains(&x)));
        // Heavy tail: some mass well above the median.
        let above_100 = samples.iter().filter(|&&x| x > 100.0).count();
        assert!(above_100 > 50, "tail too light: {}", above_100);
    }
}
