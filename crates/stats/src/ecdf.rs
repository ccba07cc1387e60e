//! Empirical CDF, used when comparing simulated inter-arrival distributions
//! against the paper's reported shapes (and for the skewness illustrations
//! of Fig. 14: "share of SBEs attributable to the top-k cards").

/// Empirical cumulative distribution function over a fixed sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF. `NaN`s sort to the top end under the IEEE total
    /// order instead of panicking mid-sort; inputs come from our own
    /// counters and are expected to be clean.
    pub fn new(values: &[f64]) -> Self {
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Ecdf { sorted }
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when built from an empty sample.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Lorenz-style concentration: the fraction of the total carried by the
    /// largest `k` samples. Fig. 14's story is `share_of_top(10)` and
    /// `share_of_top(50)` being large for SBE counts.
    pub fn share_of_top(&self, k: usize) -> f64 {
        let total: f64 = self.sorted.iter().sum();
        if total == 0.0 || self.sorted.is_empty() {
            return 0.0;
        }
        let k = k.min(self.sorted.len());
        let top: f64 = self.sorted[self.sorted.len() - k..].iter().sum();
        top / total
    }

    /// Gini coefficient of the sample (0 = perfectly even, → 1 = all mass
    /// on one card). Quantifies Observation 10's "highly skewed".
    pub fn gini(&self) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let total: f64 = self.sorted.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        // G = (2*sum_i i*x_i)/(n*sum x) - (n+1)/n with x ascending, i 1-based.
        let weighted: f64 = self
            .sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x)
            .sum();
        (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ecdf() {
        let e = Ecdf::new(&[]);
        assert!(e.is_empty());
        assert_eq!(e.gini(), 0.0);
        assert_eq!(e.share_of_top(10), 0.0);
    }

    #[test]
    fn top_share_concentration() {
        // One card with 1000 SBEs, 99 with 1 each.
        let mut v = vec![1.0; 99];
        v.push(1000.0);
        let e = Ecdf::new(&v);
        assert!(e.share_of_top(1) > 0.9);
        assert!((e.share_of_top(100) - 1.0).abs() < 1e-12);
        assert!(e.share_of_top(1000) <= 1.0); // k > n clamps
    }

    #[test]
    fn gini_extremes() {
        let even = Ecdf::new(&[5.0; 100]);
        assert!(even.gini().abs() < 1e-9);
        let mut v = vec![0.0; 99];
        v.push(100.0);
        let skewed = Ecdf::new(&v);
        assert!(skewed.gini() > 0.98);
    }

    #[test]
    fn gini_known_value() {
        // For [1,2,3,4]: G = 0.25 exactly.
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert!((e.gini() - 0.25).abs() < 1e-12);
    }
}
