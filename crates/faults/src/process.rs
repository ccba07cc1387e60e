//! Poisson machinery: homogeneous, piecewise-rate, and burst-compound
//! arrival processes over the study window.

use rand::Rng;
use titan_conlog::time::SimTime;
use titan_stats::{Exponential, PoissonCounter};

/// Homogeneous Poisson process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonProcess {
    rate_per_sec: f64,
}

impl PoissonProcess {
    /// Creates the process; rate must be nonnegative and finite.
    pub fn new(rate_per_sec: f64) -> Option<Self> {
        (rate_per_sec >= 0.0 && rate_per_sec.is_finite()).then_some(PoissonProcess { rate_per_sec })
    }

    /// The rate in events/second.
    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// Samples all arrival times in `[start, end)`.
    pub fn sample_window<R: Rng + ?Sized>(
        &self,
        start: SimTime,
        end: SimTime,
        rng: &mut R,
    ) -> Vec<SimTime> {
        let mut out = Vec::new();
        if self.rate_per_sec <= 0.0 || start >= end {
            return out;
        }
        let exp = Exponential::new(self.rate_per_sec).expect("validated rate");
        // lint: allow(N1, sim times stay far below 2^53 and are exact in f64)
        let mut t = start as f64;
        loop {
            t += exp.sample(rng);
            // lint: allow(N1, sim times stay far below 2^53 and are exact in f64)
            if t >= end as f64 {
                return out;
            }
            out.push(t as SimTime);
        }
    }
}

/// Piecewise-constant-rate Poisson process: a list of (epoch-start, rate)
/// segments. Used for regime changes like the off-the-bus soldering fix
/// and the XID 59 → 62 driver transition.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewisePoisson {
    /// (segment start, rate/sec); must be sorted by start, first at 0.
    segments: Vec<(SimTime, f64)>,
}

impl PiecewisePoisson {
    /// Creates the process from `(start, rate)` segments. The first
    /// segment must start at 0 and starts must be strictly increasing.
    pub fn new(segments: Vec<(SimTime, f64)>) -> Option<Self> {
        if segments.is_empty() || segments[0].0 != 0 {
            return None;
        }
        if segments.windows(2).any(|w| w[0].0 >= w[1].0) {
            return None;
        }
        if segments.iter().any(|&(_, r)| r < 0.0 || !r.is_finite()) {
            return None;
        }
        Some(PiecewisePoisson { segments })
    }

    /// Samples all arrivals in `[start, end)` by sampling each constant
    /// segment independently (valid by Poisson independence).
    pub fn sample_window<R: Rng + ?Sized>(
        &self,
        start: SimTime,
        end: SimTime,
        rng: &mut R,
    ) -> Vec<SimTime> {
        let mut out = Vec::new();
        for (i, &(seg_start, rate)) in self.segments.iter().enumerate() {
            let seg_end = self
                .segments
                .get(i + 1)
                .map(|&(s, _)| s)
                .unwrap_or(SimTime::MAX);
            let lo = seg_start.max(start);
            let hi = seg_end.min(end);
            if lo >= hi {
                continue;
            }
            if let Some(p) = PoissonProcess::new(rate) {
                out.extend(p.sample_window(lo, hi, rng));
            }
        }
        out.sort_unstable();
        out
    }
}

/// Compound burst process: parent arrivals are Poisson (possibly
/// seasonally modulated), and each parent spawns a Poisson-distributed
/// number of children within a short span. Models the paper's bursty
/// user-application XIDs ("multiple errors happening on the same day …
/// may also correlate with domain scientists' project or paper
/// deadlines").
#[derive(Debug, Clone, PartialEq)]
pub struct BurstProcess {
    /// Baseline parent rate, events/second.
    pub base_rate_per_sec: f64,
    /// Multiplier applied during seasons (e.g. deadline weeks).
    pub season_multiplier: f64,
    /// Season period, seconds (a season recurs every `period`).
    pub season_period: SimTime,
    /// Season length, seconds (the multiplier applies for the first
    /// `season_len` of each period).
    pub season_len: SimTime,
    /// Mean children per parent.
    pub mean_children: f64,
    /// Children arrive within `[0, child_span)` seconds of the parent.
    pub child_span: SimTime,
}

impl BurstProcess {
    /// True when `t` falls inside a high-rate season.
    pub fn in_season(&self, t: SimTime) -> bool {
        self.season_period > 0 && t % self.season_period < self.season_len
    }

    /// Samples `(parent, children)` bursts over `[start, end)`; children
    /// may spill slightly past `end` (they are clamped to it).
    pub fn sample_window<R: Rng + ?Sized>(
        &self,
        start: SimTime,
        end: SimTime,
        rng: &mut R,
    ) -> Vec<(SimTime, Vec<SimTime>)> {
        // Thinning: sample at the max rate, keep off-season points with
        // probability base/(base*mult).
        let max_rate = self.base_rate_per_sec * self.season_multiplier.max(1.0);
        let Some(envelope) = PoissonProcess::new(max_rate) else {
            return Vec::new();
        };
        let keep_offseason = if self.season_multiplier >= 1.0 {
            1.0 / self.season_multiplier
        } else {
            1.0
        };
        let mut out = Vec::new();
        for t in envelope.sample_window(start, end, rng) {
            if !self.in_season(t) && rng.gen::<f64>() >= keep_offseason {
                continue;
            }
            let n = PoissonCounter::new(self.mean_children)
                .expect("nonneg mean")
                .sample(rng);
            let children = (0..n)
                .map(|_| {
                    (t + rng.gen_range(0..self.child_span.max(1))).min(end.saturating_sub(1))
                })
                .collect();
            out.push((t, children));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn poisson_rejects_bad_rates() {
        assert!(PoissonProcess::new(-1.0).is_none());
        assert!(PoissonProcess::new(f64::NAN).is_none());
        assert!(PoissonProcess::new(0.0).is_some());
    }

    #[test]
    fn poisson_count_matches_rate() {
        let p = PoissonProcess::new(0.01).unwrap();
        let mut r = rng();
        let events = p.sample_window(0, 1_000_000, &mut r);
        // Expect 10,000 ± a few hundred.
        assert!((9_500..10_500).contains(&events.len()), "{}", events.len());
        assert!(events.windows(2).all(|w| w[0] <= w[1]));
        assert!(events.iter().all(|&t| t < 1_000_000));
    }

    #[test]
    fn poisson_zero_rate_empty() {
        let p = PoissonProcess::new(0.0).unwrap();
        assert!(p.sample_window(0, 1_000_000, &mut rng()).is_empty());
    }

    #[test]
    fn poisson_empty_window() {
        let p = PoissonProcess::new(1.0).unwrap();
        assert!(p.sample_window(100, 100, &mut rng()).is_empty());
        assert!(p.sample_window(100, 50, &mut rng()).is_empty());
    }

    #[test]
    fn piecewise_validation() {
        assert!(PiecewisePoisson::new(vec![]).is_none());
        assert!(PiecewisePoisson::new(vec![(5, 1.0)]).is_none()); // must start at 0
        assert!(PiecewisePoisson::new(vec![(0, 1.0), (0, 2.0)]).is_none());
        assert!(PiecewisePoisson::new(vec![(0, -1.0)]).is_none());
        assert!(PiecewisePoisson::new(vec![(0, 1.0), (10, 0.5)]).is_some());
    }

    #[test]
    fn piecewise_regime_change_visible() {
        // High rate then near-zero — the OTB soldering-fix shape.
        let p = PiecewisePoisson::new(vec![(0, 0.01), (500_000, 0.0001)]).unwrap();
        let mut r = rng();
        let events = p.sample_window(0, 1_000_000, &mut r);
        let before = events.iter().filter(|&&t| t < 500_000).count();
        let after = events.len() - before;
        assert!(before > 50 * after.max(1), "before={before} after={after}");
    }

    #[test]
    fn piecewise_sample_respects_window() {
        let p = PiecewisePoisson::new(vec![(0, 0.01)]).unwrap();
        let events = p.sample_window(1000, 2000, &mut rng());
        assert!(events.iter().all(|&t| (1000..2000).contains(&t)));
    }

    #[test]
    fn burst_children_near_parent() {
        let b = BurstProcess {
            base_rate_per_sec: 0.0005,
            season_multiplier: 1.0,
            season_period: 0,
            season_len: 0,
            mean_children: 3.0,
            child_span: 10,
        };
        let mut r = rng();
        let bursts = b.sample_window(0, 1_000_000, &mut r);
        assert!(!bursts.is_empty());
        for (t, children) in &bursts {
            for &c in children {
                assert!(c >= *t && c <= t + 10);
            }
        }
        let total_children: usize = bursts.iter().map(|(_, c)| c.len()).sum();
        let mean = total_children as f64 / bursts.len() as f64;
        assert!((mean - 3.0).abs() < 0.5, "mean children {mean}");
    }

    #[test]
    fn burst_seasonality_raises_density() {
        let b = BurstProcess {
            base_rate_per_sec: 0.001,
            season_multiplier: 5.0,
            season_period: 100_000,
            season_len: 20_000, // 20% of the time in season
            mean_children: 0.0,
            child_span: 1,
        };
        let mut r = rng();
        let bursts = b.sample_window(0, 2_000_000, &mut r);
        let in_season = bursts.iter().filter(|(t, _)| b.in_season(*t)).count();
        let off_season = bursts.len() - in_season;
        // In-season occupies 20% of time but at 5x rate -> expect roughly
        // equal counts; require in-season density clearly higher.
        let season_density = in_season as f64 / 0.2;
        let off_density = off_season as f64 / 0.8;
        assert!(
            season_density > 3.0 * off_density,
            "in={in_season} off={off_season}"
        );
    }
}
