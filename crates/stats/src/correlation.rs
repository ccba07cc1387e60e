//! Pearson and Spearman correlation with two-sided p-values.
//!
//! §4 of the paper reports both coefficients for every utilization↔SBE pair
//! (with p < 0.05), and notes that Spearman captures the monotone-but-
//! nonlinear relationships better (Observation 12). We therefore implement
//! both, plus the t-approximation p-value the paper's thresholds imply.

use crate::rank::average_ranks;
use serde::{Deserialize, Serialize};

/// Result of a correlation test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorrResult {
    /// Correlation coefficient in [-1, 1].
    pub r: f64,
    /// Two-sided p-value from the t approximation with n−2 d.o.f.
    pub p_value: f64,
    /// Sample size used.
    pub n: usize,
}

/// Pearson product-moment correlation of two equal-length slices.
///
/// Returns `None` when the slices differ in length, have fewer than two
/// points, or either side has zero variance.
pub fn pearson(x: &[f64], y: &[f64]) -> Option<CorrResult> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mx;
        let dy = yi - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    let r = (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0);
    Some(CorrResult {
        r,
        p_value: p_value_t(r, x.len()),
        n: x.len(),
    })
}

/// Spearman rank correlation: Pearson over mid-ranks, which handles the
/// heavy ties in SBE count data correctly.
pub fn spearman(x: &[f64], y: &[f64]) -> Option<CorrResult> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let rx = average_ranks(x);
    let ry = average_ranks(y);
    pearson(&rx, &ry)
}

/// Two-sided p-value for a correlation coefficient `r` on `n` samples via
/// the exact-under-normality t statistic t = r·√((n−2)/(1−r²)).
fn p_value_t(r: f64, n: usize) -> f64 {
    if n <= 2 {
        return 1.0;
    }
    let df = (n - 2) as f64;
    let denom = 1.0 - r * r;
    if denom <= 0.0 {
        return 0.0; // |r| == 1: as significant as it gets.
    }
    let t = r.abs() * (df / denom).sqrt();
    2.0 * student_t_sf(t, df)
}

/// Survival function P(T > t) of Student's t with `df` degrees of freedom,
/// via the regularized incomplete beta function.
fn student_t_sf(t: f64, df: f64) -> f64 {
    if t <= 0.0 {
        return 0.5;
    }
    let x = df / (df + t * t);
    0.5 * incomplete_beta_reg(0.5 * df, 0.5, x)
}

/// Regularized incomplete beta I_x(a, b) by continued fraction (Lentz),
/// accurate to ~1e-12 for the parameter ranges we use (a = df/2 ≥ 0.5).
fn incomplete_beta_reg(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    // Symmetry transform for faster convergence.
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - incomplete_beta_reg(b, a, 1.0 - x);
    }
    let ln_front = a * x.ln() + b * (1.0 - x).ln() - ln_beta(a, b);
    let front = ln_front.exp() / a;

    // Lentz's continued fraction.
    let mut f = 1.0;
    let mut c = 1.0;
    let mut d = 0.0;
    for i in 0..200 {
        let m = i / 2;
        let numerator = if i == 0 {
            1.0
        } else if i % 2 == 0 {
            let m = m as f64;
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m))
        } else {
            let m = m as f64;
            -((a + m) * (a + b + m) * x) / ((a + 2.0 * m) * (a + 2.0 * m + 1.0))
        };
        d = 1.0 + numerator * d;
        if d.abs() < 1e-30 {
            d = 1e-30;
        }
        d = 1.0 / d;
        c = 1.0 + numerator / c;
        if c.abs() < 1e-30 {
            c = 1e-30;
        }
        let cd = c * d;
        f *= cd;
        if (1.0 - cd).abs() < 1e-12 {
            break;
        }
    }
    (front * (f - 1.0)).clamp(0.0, 1.0)
}

fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Lanczos approximation of ln Γ(x), |error| < 1e-10 for x > 0.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 4.0, 6.0, 8.0, 10.0];
        let r = pearson(&x, &y).unwrap();
        assert!((r.r - 1.0).abs() < 1e-12);
        assert!(r.p_value < 1e-6);
        let s = spearman(&x, &y).unwrap();
        assert!((s.r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &y).unwrap().r + 1.0).abs() < 1e-12);
        assert!((spearman(&x, &y).unwrap().r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_nonlinear_spearman_beats_pearson() {
        // Exactly the Observation-12 situation: monotone but convex.
        let x: Vec<f64> = (1..=40).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v.powi(6)).collect();
        let p = pearson(&x, &y).unwrap().r;
        let s = spearman(&x, &y).unwrap().r;
        assert!((s - 1.0).abs() < 1e-12, "spearman should be exactly 1");
        assert!(p < 0.95, "pearson should be visibly below 1, got {p}");
        assert!(s > p);
    }

    #[test]
    fn zero_variance_is_none() {
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(pearson(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).is_none());
    }

    #[test]
    fn mismatched_or_short_is_none() {
        assert!(pearson(&[1.0], &[1.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_none());
        assert!(spearman(&[], &[]).is_none());
    }

    #[test]
    fn known_pearson_value() {
        // Anscombe's quartet, set I: r ≈ 0.81642.
        let x = [10.0, 8.0, 13.0, 9.0, 11.0, 14.0, 6.0, 4.0, 12.0, 7.0, 5.0];
        let y = [
            8.04, 6.95, 7.58, 8.81, 8.33, 9.96, 7.24, 4.26, 10.84, 4.82, 5.68,
        ];
        let r = pearson(&x, &y).unwrap();
        assert!((r.r - 0.81642).abs() < 1e-4, "got {}", r.r);
        // scipy gives p ≈ 0.00217.
        assert!((r.p_value - 0.00217).abs() < 2e-4, "got {}", r.p_value);
    }

    #[test]
    fn spearman_with_ties_matches_scipy() {
        // Ranks: x -> [1, 2.5, 2.5, 4], y -> [1, 3, 2, 4];
        // Pearson over those ranks is 4.5/sqrt(4.5*5) = 0.94868…
        // (matches scipy.stats.spearmanr([1,2,2,3],[1,3,2,4])).
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 3.0, 2.0, 4.0];
        let s = spearman(&x, &y).unwrap();
        assert!((s.r - 0.948_683).abs() < 1e-5, "got {}", s.r);
    }

    #[test]
    fn independent_noise_is_insignificant() {
        // Deterministic pseudo-noise; independent-ish series.
        let x: Vec<f64> = (0..60).map(|i| ((i * 7919 + 13) % 101) as f64).collect();
        let y: Vec<f64> = (0..60).map(|i| ((i * 104_729 + 31) % 97) as f64).collect();
        let r = pearson(&x, &y).unwrap();
        assert!(r.r.abs() < 0.35, "got {}", r.r);
        assert!(r.p_value >= 0.01);
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-10);
        assert!((ln_gamma(2.0)).abs() < 1e-10);
        // Γ(5) = 24.
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-9);
        // Γ(0.5) = √π.
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn p_value_monotone_in_r() {
        let p1 = p_value_t(0.3, 50);
        let p2 = p_value_t(0.6, 50);
        let p3 = p_value_t(0.9, 50);
        assert!(p1 > p2 && p2 > p3);
    }

    #[test]
    fn p_value_monotone_in_n() {
        let p_small = p_value_t(0.5, 10);
        let p_large = p_value_t(0.5, 100);
        assert!(p_small > p_large);
    }

    #[test]
    fn incomplete_beta_bounds() {
        assert_eq!(incomplete_beta_reg(2.0, 3.0, 0.0), 0.0);
        assert_eq!(incomplete_beta_reg(2.0, 3.0, 1.0), 1.0);
        // I_x(1,1) = x (uniform CDF).
        for &x in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            assert!((incomplete_beta_reg(1.0, 1.0, x) - x).abs() < 1e-10);
        }
    }
}
