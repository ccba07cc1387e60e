//! Per-card susceptibility: the "offender card" phenomenon.
//!
//! Observation 10: "Single bit errors show a highly skewed distribution
//! … some cards experience significantly more single bit errors than
//! others … less than 1000 cards have ever experienced a single bit error
//! (less than 5% of the whole system) … It appears that some cards are
//! inherently more prone to SBEs rather than due to their location."
//!
//! The model: each card draws a *static* SBE rate multiplier at
//! manufacture — zero for ~95.2% of cards, Pareto-tailed for the
//! susceptible minority. DBE proneness gets a mild lognormal spread (the
//! paper notes "some GPU cards may inherently be more prone to DBEs even
//! if they are situated in the lower cages"). Crucially, susceptibility
//! is assigned independently of slot position, which is what makes the
//! *distinct-cards* cage distribution uniform (Fig. 15(b)) even while raw
//! SBE counts are cage-skewed by the offenders' accidental placement.

use rand::Rng;
use titan_stats::{LogNormal, Pareto};

use crate::calibration::{
    DBE_LEMON_FRACTION, DBE_LEMON_MULTIPLIER, SBE_PARETO_ALPHA, SBE_SUSCEPTIBLE_FRACTION,
};

/// Static per-card fault proneness, drawn once at fleet build.
#[derive(Debug, Clone, PartialEq)]
pub struct CardSusceptibility {
    /// SBE rate multiplier per card (0 = never sees an SBE).
    sbe_weight: Vec<f64>,
    /// DBE rate multiplier per card (mild spread around 1).
    dbe_weight: Vec<f64>,
}

impl CardSusceptibility {
    /// Draws susceptibility for `n_cards` cards.
    pub fn generate<R: Rng + ?Sized>(n_cards: usize, rng: &mut R) -> Self {
        let pareto = Pareto::new(1.0, SBE_PARETO_ALPHA).expect("valid calibration");
        let dbe_spread = LogNormal::new(0.0, 0.4).expect("valid params");
        let mut sbe_weight = Vec::with_capacity(n_cards);
        let mut dbe_weight = Vec::with_capacity(n_cards);
        for _ in 0..n_cards {
            let w = if rng.gen::<f64>() < SBE_SUSCEPTIBLE_FRACTION {
                pareto.sample(rng)
            } else {
                0.0
            };
            sbe_weight.push(w);
            // Most cards sit in a mild lognormal spread; a small "lemon"
            // population is pathologically DBE-prone — these are the
            // cards that hit the operators' pull threshold and then
            // reproduce errors in hot-spare stress testing (§3.1).
            let mut dw = dbe_spread.sample(rng);
            if rng.gen::<f64>() < DBE_LEMON_FRACTION {
                dw *= DBE_LEMON_MULTIPLIER;
            }
            dbe_weight.push(dw);
        }
        CardSusceptibility {
            sbe_weight,
            dbe_weight,
        }
    }

    /// Number of cards.
    pub fn len(&self) -> usize {
        self.sbe_weight.len()
    }

    /// True when built for zero cards.
    pub fn is_empty(&self) -> bool {
        self.sbe_weight.is_empty()
    }

    /// SBE weight of card `i` (0 for immune cards).
    pub fn sbe_weight(&self, i: usize) -> f64 {
        self.sbe_weight[i]
    }

    /// DBE weight of card `i`.
    pub fn dbe_weight(&self, i: usize) -> f64 {
        self.dbe_weight[i]
    }

    /// All SBE weights.
    pub fn sbe_weights(&self) -> &[f64] {
        &self.sbe_weight
    }

}

/// O(1) weighted card sampler for the SBE hot path: the fleet draws
/// hundreds of SBE locations per simulated day. Thin wrapper over
/// [`titan_stats::WeightedAlias`] that fixes the weight vector to the
/// cards' SBE susceptibility.
#[derive(Debug, Clone)]
pub struct SbeAliasSampler {
    table: titan_stats::WeightedAlias,
}

impl SbeAliasSampler {
    /// Builds the table from nonzero weights. Returns `None` when no card
    /// is susceptible.
    pub fn new(susceptibility: &CardSusceptibility) -> Option<Self> {
        titan_stats::WeightedAlias::new(susceptibility.sbe_weights())
            .map(|table| SbeAliasSampler { table })
    }

    /// Draws one card index in O(1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.table.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(n: usize) -> CardSusceptibility {
        let mut rng = StdRng::seed_from_u64(314);
        CardSusceptibility::generate(n, &mut rng)
    }

    #[test]
    fn susceptible_fraction_near_five_percent() {
        let s = build(18_688);
        let k = s.sbe_weights().iter().filter(|&&w| w > 0.0).count();
        // Paper: < 1000 cards, < 5% of the system.
        assert!(k < 1000, "susceptible cards {k}");
        assert!(k > 600, "susceptible cards {k} suspiciously few");
    }

    #[test]
    fn offenders_dominate_weight() {
        let s = build(18_688);
        let mut w: Vec<f64> = s.sbe_weights().to_vec();
        w.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = w.iter().sum();
        let top10: f64 = w[..10].iter().sum();
        let top50: f64 = w[..50].iter().sum();
        assert!(top10 / total > 0.15, "top-10 share {}", top10 / total);
        assert!(top50 / total > 0.4, "top-50 share {}", top50 / total);
    }

    #[test]
    fn dbe_weights_mild_spread_plus_lemons() {
        let s = build(10_000);
        assert!(s.dbe_weight(0) > 0.0);
        // The bulk sits near LogNormal(0, 0.4): median ≈ 1.
        let mut w: Vec<f64> = (0..s.len()).map(|i| s.dbe_weight(i)).collect();
        w.sort_by(|a, b| a.total_cmp(b));
        let median = w[w.len() / 2];
        assert!((median - 1.0).abs() < 0.1, "median {median}");
        // A small lemon tail exists, far above the bulk.
        let lemons = w.iter().filter(|&&x| x > 10.0).count();
        assert!(lemons > 5 && lemons < 120, "lemons {lemons}");
    }

    #[test]
    fn alias_sampler_matches_weights() {
        let s = build(2_000);
        let sampler = SbeAliasSampler::new(&s).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = std::collections::HashMap::<usize, u64>::new();
        const N: u64 = 200_000;
        for _ in 0..N {
            *counts.entry(sampler.sample(&mut rng)).or_default() += 1;
        }
        // Compare empirical frequency to weight for the 5 heaviest cards.
        let total_w: f64 = s.sbe_weights().iter().sum();
        let mut heavy: Vec<usize> = (0..s.len()).filter(|&c| s.sbe_weight(c) > 0.0).collect();
        heavy.sort_by(|&a, &b| s.sbe_weight(b).total_cmp(&s.sbe_weight(a)));
        for &c in &heavy[..5] {
            let expected = s.sbe_weight(c) / total_w;
            let got = *counts.get(&c).unwrap_or(&0) as f64 / N as f64;
            assert!(
                (got - expected).abs() < 0.15 * expected + 0.002,
                "card {c}: got {got}, expected {expected}"
            );
        }
        // Immune cards never sampled.
        for (&c, _) in counts.iter() {
            assert!(s.sbe_weight(c) > 0.0);
        }
    }

    #[test]
    fn no_susceptible_cards_edge() {
        // A tiny fleet can have zero susceptible cards by chance; force it
        // with an explicitly empty/immune construction path.
        let s = CardSusceptibility {
            sbe_weight: vec![0.0; 10],
            dbe_weight: vec![1.0; 10],
        };
        assert!(SbeAliasSampler::new(&s).is_none());
    }
}
