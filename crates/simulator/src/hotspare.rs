//! The hot-spare cluster: stress testing for pulled cards.
//!
//! §3.1: "We identify cards which incur double bit errors and put them
//! out of the production use (such cards undergo further rigorous
//! testing in a hot-spare cluster before being returned to the vendor
//! after encountering a threshold number of DBEs). We have returned the
//! GPUs to the vendor after they were stress tested in the hot-spare
//! cluster and GPU system failures were encountered. Such errors would
//! have likely occurred in production, but we avoided that by moving
//! error-encountering cards to the hot-spare cluster."
//!
//! The stress test runs the card under accelerated load: its *latent*
//! DBE proneness (which the simulator knows, the operators do not)
//! drives a Poisson error count over the burn-in. Cards that reproduce
//! errors go back to the vendor; clean cards return to the spare pool.
//! The errors observed during burn-in are exactly the paper's "errors
//! that would have likely occurred in production".

use rand::Rng;
use serde::{Deserialize, Serialize};
use titan_stats::PoissonCounter;

/// Stress-test configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StressTestConfig {
    /// Burn-in length, hours.
    pub burn_in_hours: f64,
    /// Load-acceleration factor over production duty cycle.
    pub acceleration: f64,
    /// Baseline per-card DBE rate per hour under production load (the
    /// fleet rate divided across cards).
    pub base_rate_per_hour: f64,
    /// Errors during burn-in at/above which the card goes back to the
    /// vendor.
    pub fail_threshold: u32,
}

impl Default for StressTestConfig {
    fn default() -> Self {
        StressTestConfig {
            // Two weeks of burn-in under margined voltage, elevated
            // temperature and pathological access patterns — vendors'
            // in-house stress tests reach effective acceleration factors
            // in the hundreds over nominal duty cycles.
            burn_in_hours: 14.0 * 24.0,
            acceleration: 200.0,
            // Fleet MTBF 160 h over 18,688 cards -> per-card ~3.3e-7/h;
            // pulled cards are not average cards though — their dbe
            // weight multiplies this.
            base_rate_per_hour: 1.0 / (160.0 * 18_688.0),
            fail_threshold: 1,
        }
    }
}

/// Outcome of one card's burn-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StressOutcome {
    /// Errors reproduced during burn-in. `u64` like every event count
    /// in the simulator: `PoissonCounter::sample` returns `u64`, and
    /// its normal-approximation branch (mean > 30) can legitimately
    /// exceed `u32::MAX` for a pathological card under a long,
    /// heavily-accelerated burn-in — a `u32` here once wrapped that
    /// count and could flip `returned_to_vendor` back to false for
    /// exactly the worst cards.
    pub errors_reproduced: u64,
    /// Whether the card is returned to the vendor.
    pub returned_to_vendor: bool,
}

/// Runs the burn-in for a card with latent DBE-proneness multiplier
/// `dbe_weight` (1.0 = fleet average; pulled cards are typically well
/// above it, which is why they were pulled).
pub fn stress_test<R: Rng + ?Sized>(
    config: &StressTestConfig,
    dbe_weight: f64,
    rng: &mut R,
) -> StressOutcome {
    let mean =
        config.base_rate_per_hour * dbe_weight * config.acceleration * config.burn_in_hours;
    let errors = PoissonCounter::new(mean.max(0.0))
        .expect("nonnegative mean")
        .sample(rng);
    StressOutcome {
        errors_reproduced: errors,
        returned_to_vendor: errors >= u64::from(config.fail_threshold),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn average_card_rarely_fails_burn_in() {
        let cfg = StressTestConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let fails = (0..10_000)
            .filter(|_| stress_test(&cfg, 1.0, &mut rng).returned_to_vendor)
            .count();
        // Expected errors for an average card over burn-in ≈ 0.022, so
        // roughly 2% false-return rate — a real cost of aggressive
        // screening, but far from the lemons' near-certain reproduction.
        assert!((50..500).contains(&fails), "{fails}");
    }

    #[test]
    fn pathological_card_usually_fails() {
        let cfg = StressTestConfig::default();
        // A card 10,000x the fleet average (the kind that throws 2 DBEs
        // in months) reproduces during accelerated burn-in most times.
        let mut rng = StdRng::seed_from_u64(2);
        let fails = (0..1_000)
            .filter(|_| stress_test(&cfg, 10_000.0, &mut rng).returned_to_vendor)
            .count();
        assert!(fails > 950, "{fails}");
    }

    #[test]
    fn threshold_respected() {
        let cfg = StressTestConfig {
            fail_threshold: 3,
            ..StressTestConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let o = stress_test(&cfg, 1_000_000.0, &mut rng);
            assert_eq!(o.returned_to_vendor, o.errors_reproduced >= 3);
        }
    }

    /// Regression: the error count used to be truncated `as u32`.
    /// PoissonCounter's normal-approximation branch returns counts far
    /// beyond u32::MAX for a catastrophically bad card, and the wrap
    /// could land below the threshold — returning the very worst
    /// lemons to the spare pool instead of the vendor.
    #[test]
    fn astronomical_error_counts_do_not_wrap_past_the_threshold() {
        let cfg = StressTestConfig::default();
        // Drive the Poisson mean past 2^32: burn-in mean for weight w is
        // w * acceleration * base_rate * hours ≈ w * 0.0225.
        let weight = 2.0_f64.powi(40);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            let o = stress_test(&cfg, weight, &mut rng);
            assert!(
                o.errors_reproduced > u64::from(u32::MAX),
                "test premise: mean must exceed the old u32 range, got {}",
                o.errors_reproduced
            );
            assert!(o.returned_to_vendor, "wrapped count flipped the verdict");
        }
    }
}
