//! Random samplers for the fault and workload models.
//!
//! Implemented from first principles over [`rand::Rng`] (inverse-CDF and
//! Box–Muller) so the only randomness dependency is `rand` itself:
//!
//! * [`Exponential`] — Poisson-process inter-arrival times (DBEs are
//!   memoryless at fleet level; MTBF ≈ 160 h per Observation 1).
//! * [`Weibull`] — wear-out shapes for the off-the-bus integration epidemic.
//! * [`LogNormal`] — job sizes / durations; classic HPC workload marginals.
//! * [`Pareto`] — heavy-tailed per-card SBE susceptibility: a tiny set of
//!   "offender" cards dominates total SBE volume (Observation 10).
//! * [`PoissonCounter`] — Poisson counts for per-interval event totals.

use rand::Rng;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates the distribution; `lambda` must be positive and finite.
    pub fn new(lambda: f64) -> Option<Self> {
        (lambda > 0.0 && lambda.is_finite()).then_some(Exponential { lambda })
    }

    /// Mean inter-arrival time.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    /// Draws one sample by inverse CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - U in (0,1] avoids ln(0).
        let u: f64 = 1.0 - rng.gen::<f64>();
        -u.ln() / self.lambda
    }
}

/// Weibull distribution with shape `k` and scale `lambda`.
///
/// `k < 1` gives infant-mortality behaviour (a decreasing hazard — the
/// off-the-bus cards failed early then stopped), `k > 1` wear-out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates the distribution; both parameters must be positive and finite.
    pub fn new(shape: f64, scale: f64) -> Option<Self> {
        (shape > 0.0 && scale > 0.0 && shape.is_finite() && scale.is_finite())
            .then_some(Weibull { shape, scale })
    }

    /// Draws one sample by inverse CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>();
        self.scale * (-u.ln()).powf(1.0 / self.shape)
    }

    /// Distribution mean, `scale · Γ(1 + 1/shape)`.
    pub fn mean(&self) -> f64 {
        self.scale * (crate::correlation::ln_gamma(1.0 + 1.0 / self.shape)).exp()
    }
}

/// Log-normal distribution parameterized by the underlying normal's
/// `mu` and `sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates the distribution; `sigma` must be nonnegative and finite.
    pub fn new(mu: f64, sigma: f64) -> Option<Self> {
        (sigma >= 0.0 && mu.is_finite() && sigma.is_finite()).then_some(LogNormal { mu, sigma })
    }

    /// Convenience constructor from the desired *median* and sigma:
    /// median of LogNormal(mu, sigma) is exp(mu).
    pub fn from_median(median: f64, sigma: f64) -> Option<Self> {
        (median > 0.0).then(|| LogNormal::new(median.ln(), sigma)).flatten()
    }

    /// Draws one sample (Box–Muller under the hood).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// Distribution mean exp(mu + sigma²/2).
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// Pareto (Type I) distribution with minimum `x_min` and tail index `alpha`.
/// Small `alpha` (≈1) concentrates mass in a few extreme draws — the
/// "top-10 offender cards dominate" phenomenon of Fig. 14.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates the distribution; both parameters must be positive and finite.
    pub fn new(x_min: f64, alpha: f64) -> Option<Self> {
        (x_min > 0.0 && alpha > 0.0 && x_min.is_finite() && alpha.is_finite())
            .then_some(Pareto { x_min, alpha })
    }

    /// Draws one sample by inverse CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>();
        self.x_min / u.powf(1.0 / self.alpha)
    }
}

/// Poisson count sampler.
///
/// Uses Knuth's product method for small means and a normal approximation
/// with continuity correction above `mean > 30` (fleet-day SBE totals are
/// in the hundreds, so the approximation path is the hot one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonCounter {
    mean: f64,
}

impl PoissonCounter {
    /// Creates the sampler; `mean` must be nonnegative and finite.
    pub fn new(mean: f64) -> Option<Self> {
        (mean >= 0.0 && mean.is_finite()).then_some(PoissonCounter { mean })
    }

    /// Draws one count.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.mean == 0.0 {
            return 0;
        }
        if self.mean > 30.0 {
            let z = standard_normal(rng);
            let x = self.mean + self.mean.sqrt() * z + 0.5;
            return x.max(0.0) as u64;
        }
        let l = (-self.mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            // Defensive cap: probability of reaching this is ~0 for mean<=30.
            if k > 10_000 {
                return k;
            }
        }
    }
}

/// One standard-normal draw via Box–Muller (single value; the pair's twin
/// is discarded for simplicity — sampling is not a bottleneck here).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEC0DE)
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(Exponential::new(0.0).is_none());
        assert!(Exponential::new(-1.0).is_none());
        assert!(Exponential::new(f64::NAN).is_none());
        assert!(Weibull::new(0.0, 1.0).is_none());
        assert!(Weibull::new(1.0, f64::INFINITY).is_none());
        assert!(LogNormal::new(f64::NAN, 1.0).is_none());
        assert!(LogNormal::from_median(0.0, 1.0).is_none());
        assert!(Pareto::new(1.0, 0.0).is_none());
        assert!(PoissonCounter::new(-0.5).is_none());
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::new(1.0 / 160.0).unwrap(); // MTBF 160 h
        let mut r = rng();
        let mut s = Summary::new();
        for _ in 0..20_000 {
            s.push(d.sample(&mut r));
        }
        assert!((s.mean() - 160.0).abs() < 5.0, "mean {}", s.mean());
        // Exponential: CV = 1.
        assert!((s.cv() - 1.0).abs() < 0.05, "cv {}", s.cv());
    }

    #[test]
    fn weibull_reduces_to_exponential_at_shape_one() {
        let d = Weibull::new(1.0, 10.0).unwrap();
        let mut r = rng();
        let mut s = Summary::new();
        for _ in 0..20_000 {
            s.push(d.sample(&mut r));
        }
        assert!((s.mean() - 10.0).abs() < 0.5);
        assert!((d.mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn weibull_infant_mortality_cv_exceeds_one() {
        let d = Weibull::new(0.5, 10.0).unwrap();
        let mut r = rng();
        let mut s = Summary::new();
        for _ in 0..20_000 {
            s.push(d.sample(&mut r));
        }
        assert!(s.cv() > 1.5, "shape<1 should be overdispersed, cv={}", s.cv());
    }

    #[test]
    fn lognormal_median_and_mean() {
        let d = LogNormal::from_median(100.0, 0.5).unwrap();
        let mut r = rng();
        let mut v: Vec<f64> = (0..20_000).map(|_| d.sample(&mut r)).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        let med = v[v.len() / 2];
        assert!((med - 100.0).abs() < 5.0, "median {med}");
        let mean = Summary::of(&v).mean();
        assert!((mean - d.mean()).abs() / d.mean() < 0.05);
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let d = Pareto::new(1.0, 1.1).unwrap();
        let mut r = rng();
        let mut v: Vec<f64> = (0..10_000).map(|_| d.sample(&mut r)).collect();
        v.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = v.iter().sum();
        let top10: f64 = v[..10].iter().sum();
        // With alpha=1.1 the top-10 of 10k draws should carry a large share.
        assert!(top10 / total > 0.15, "top10 share {}", top10 / total);
        assert!(v.iter().all(|&x| x >= 1.0));
    }

    #[test]
    fn poisson_small_mean() {
        let d = PoissonCounter::new(3.0).unwrap();
        let mut r = rng();
        let mut s = Summary::new();
        for _ in 0..20_000 {
            s.push(d.sample(&mut r) as f64);
        }
        assert!((s.mean() - 3.0).abs() < 0.1);
        assert!((s.variance() - 3.0).abs() < 0.2); // Poisson: var == mean
    }

    #[test]
    fn poisson_large_mean_normal_path() {
        let d = PoissonCounter::new(400.0).unwrap();
        let mut r = rng();
        let mut s = Summary::new();
        for _ in 0..20_000 {
            s.push(d.sample(&mut r) as f64);
        }
        assert!((s.mean() - 400.0).abs() < 2.0);
        assert!((s.variance() - 400.0).abs() < 30.0);
    }

    #[test]
    fn poisson_zero_mean() {
        let d = PoissonCounter::new(0.0).unwrap();
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let mut s = Summary::new();
        for _ in 0..50_000 {
            s.push(standard_normal(&mut r));
        }
        assert!(s.mean().abs() < 0.02);
        assert!((s.variance() - 1.0).abs() < 0.03);
    }
}

/// Walker alias table: O(1) sampling of an index `0..n` proportional to a
/// static weight vector. Zero-weight entries are never returned.
///
/// Used for the fleet's weighted card/slot picks (per-card SBE
/// susceptibility, per-cage thermal acceleration), which happen hundreds
/// of thousands of times per simulated study. A table whose weights
/// change is rebuilt in place by [`rebuild`](Self::rebuild).
#[derive(Debug, Clone, Default)]
pub struct WeightedAlias {
    items: Vec<usize>,
    prob: Vec<f64>,
    alias: Vec<usize>,
    /// The build's work lists, kept so a rebuild allocates nothing.
    small: Vec<usize>,
    large: Vec<usize>,
}

impl WeightedAlias {
    /// Builds the table. Returns `None` when no weight is positive or any
    /// weight is negative/non-finite.
    pub fn new(weights: &[f64]) -> Option<Self> {
        let mut table = WeightedAlias::default();
        table.rebuild(weights).then_some(table)
    }

    /// Rebuilds the table for `weights` in place, reusing its lists: the
    /// table [`new`](Self::new) builds, bit for bit, so it draws the same
    /// indices from the same stream. Returns `false` where `new` returns
    /// `None`, leaving an empty table (`support() == 0`) that must not be
    /// sampled.
    pub fn rebuild(&mut self, weights: &[f64]) -> bool {
        self.items.clear();
        self.prob.clear();
        self.alias.clear();
        if weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
            return false;
        }
        for (i, &w) in weights.iter().enumerate().filter(|(_, &w)| w > 0.0) {
            self.items.push(i);
            self.prob.push(w);
        }
        if self.items.is_empty() {
            return false;
        }
        let n = self.items.len();
        let total: f64 = self.prob.iter().sum();
        for p in &mut self.prob {
            *p = *p * n as f64 / total;
        }
        self.alias.resize(n, 0);
        let indexed = self.prob.iter().enumerate();
        self.small.clear();
        self.small.extend(indexed.clone().filter(|&(_, &p)| p < 1.0).map(|(i, _)| i));
        self.large.clear();
        self.large.extend(indexed.filter(|&(_, &p)| p >= 1.0).map(|(i, _)| i));
        while let (Some(s), Some(l)) = (self.small.pop(), self.large.pop()) {
            // `s` and `l` index `prob` and `alias`, both `n` long.
            let (Some(&ps), Some(&pl)) = (self.prob.get(s), self.prob.get(l)) else {
                break;
            };
            if let Some(a) = self.alias.get_mut(s) {
                *a = l;
            }
            let pl = pl + ps - 1.0;
            if let Some(p) = self.prob.get_mut(l) {
                *p = pl;
            }
            if pl < 1.0 {
                self.small.push(l);
            } else {
                self.large.push(l);
            }
        }
        for &i in self.small.iter().chain(&self.large) {
            if let Some(p) = self.prob.get_mut(i) {
                *p = 1.0;
            }
        }
        true
    }

    /// Number of positive-weight entries.
    pub fn support(&self) -> usize {
        self.items.len()
    }

    /// Draws one original-vector index in O(1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let n = self.items.len();
        let i = rng.gen_range(0..n);
        if rng.gen::<f64>() < self.prob[i] {
            self.items[i]
        } else {
            self.items[self.alias[i]]
        }
    }
}

#[cfg(test)]
mod alias_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_degenerate_weights() {
        assert!(WeightedAlias::new(&[]).is_none());
        assert!(WeightedAlias::new(&[0.0, 0.0]).is_none());
        assert!(WeightedAlias::new(&[1.0, -0.5]).is_none());
        assert!(WeightedAlias::new(&[f64::NAN]).is_none());
    }

    #[test]
    fn matches_weights_empirically() {
        let w = [1.0, 0.0, 3.0, 6.0];
        let a = WeightedAlias::new(&w).unwrap();
        assert_eq!(a.support(), 3);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u64; 4];
        const N: u64 = 100_000;
        for _ in 0..N {
            counts[a.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight item sampled");
        for (i, &wi) in w.iter().enumerate() {
            if wi > 0.0 {
                let got = counts[i] as f64 / N as f64;
                let want = wi / 10.0;
                assert!((got - want).abs() < 0.01, "item {i}: {got} vs {want}");
            }
        }
    }

    /// The table as `new` built it before tables were rebuilt in place.
    fn table_before_rebuild(weights: &[f64]) -> Option<(Vec<usize>, Vec<f64>, Vec<usize>)> {
        if weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
            return None;
        }
        let entries: Vec<(usize, f64)> = weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0.0)
            .map(|(i, &w)| (i, w))
            .collect();
        if entries.is_empty() {
            return None;
        }
        let n = entries.len();
        let total: f64 = entries.iter().map(|&(_, w)| w).sum();
        let mut prob: Vec<f64> = entries.iter().map(|&(_, w)| w * n as f64 / total).collect();
        let items: Vec<usize> = entries.iter().map(|&(i, _)| i).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = (0..n).filter(|&i| prob[i] < 1.0).collect();
        let mut large: Vec<usize> = (0..n).filter(|&i| prob[i] >= 1.0).collect();
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = prob[l] + prob[s] - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        Some((items, prob, alias))
    }

    #[test]
    fn rebuilt_tables_are_bit_identical_to_fresh_ones() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut table = WeightedAlias::default();
        for round in 0..300 {
            let n = rng.gen_range(0..400);
            let mut w: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..6) {
                    0 => 0.0,
                    1 => rng.gen::<f64>() * 1e-300,
                    2 => rng.gen::<f64>() * 1e12,
                    _ => rng.gen::<f64>(),
                })
                .collect();
            if round % 50 == 7 && n > 0 {
                w[0] = f64::NAN;
            }
            let want = table_before_rebuild(&w);
            assert_eq!(table.rebuild(&w), want.is_some(), "round {round}");
            let Some((items, prob, alias)) = want else {
                assert_eq!(table.support(), 0);
                assert!(WeightedAlias::new(&w).is_none());
                continue;
            };
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(table.items, items, "round {round}");
            assert_eq!(bits(&table.prob), bits(&prob), "round {round}");
            assert_eq!(table.alias, alias, "round {round}");
            // The same draws as a table built fresh.
            let fresh = WeightedAlias::new(&w).unwrap();
            let (mut a, mut b) = (StdRng::seed_from_u64(round), StdRng::seed_from_u64(round));
            for _ in 0..50 {
                assert_eq!(table.sample(&mut a), fresh.sample(&mut b));
            }
        }
    }

    #[test]
    fn single_item_always_returned() {
        let a = WeightedAlias::new(&[0.0, 5.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(a.sample(&mut rng), 1);
        }
    }
}
