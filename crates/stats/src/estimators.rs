//! Reliability estimators: inter-arrival series, MTBF, exponential MLE,
//! and burstiness indices.
//!
//! These implement the quantitative machinery behind Observation 1
//! ("MTBF of double bit errors … approx. 160 hours") and Observation 6
//! ("user application caused XID errors are bursty … driver related XID
//! errors are not bursty").

use crate::summary::Summary;

/// Inter-arrival series derived from a sorted sequence of event timestamps
/// (seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct InterArrival {
    gaps: Vec<f64>,
}

impl InterArrival {
    /// Builds the series from event timestamps in seconds. Unsorted input
    /// is sorted internally; duplicate timestamps yield zero gaps, which
    /// are retained (co-reported events are real in console logs).
    pub fn from_timestamps(ts: &[u64]) -> Self {
        let mut t: Vec<u64> = ts.to_vec();
        t.sort_unstable();
        let gaps = t.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        InterArrival { gaps }
    }

    /// The gaps themselves, in seconds.
    pub fn gaps(&self) -> &[f64] {
        &self.gaps
    }

    /// Number of gaps (events − 1).
    pub fn len(&self) -> usize {
        self.gaps.len()
    }

    /// True when fewer than two events were provided.
    pub fn is_empty(&self) -> bool {
        self.gaps.is_empty()
    }

    /// Mean gap in seconds; `None` without at least one gap.
    pub fn mean_seconds(&self) -> Option<f64> {
        if self.gaps.is_empty() {
            None
        } else {
            Some(Summary::of(&self.gaps).mean())
        }
    }

    /// Coefficient of variation of the gaps. 1 ⇒ Poisson-like; ≫1 ⇒ bursty;
    /// <1 ⇒ regular. `None` with fewer than two gaps.
    pub fn cv(&self) -> Option<f64> {
        if self.gaps.len() < 2 {
            None
        } else {
            Some(Summary::of(&self.gaps).cv())
        }
    }
}

/// Mean time between failures, in hours, from raw event timestamps in
/// seconds. `None` with fewer than two events.
pub fn mtbf_hours(timestamps: &[u64]) -> Option<f64> {
    InterArrival::from_timestamps(timestamps)
        .mean_seconds()
        .map(|s| s / 3600.0)
}

/// Burstiness index of Goh & Barabási: B = (σ−μ)/(σ+μ) over inter-arrival
/// gaps. B ≈ 0 for Poisson arrivals, → 1 for extreme bursts, → −1 for a
/// perfectly regular (periodic) signal. `None` with fewer than two gaps.
pub fn burstiness(timestamps: &[u64]) -> Option<f64> {
    let ia = InterArrival::from_timestamps(timestamps);
    if ia.len() < 2 {
        return None;
    }
    let s = Summary::of(ia.gaps());
    let (mu, sigma) = (s.mean(), s.std_dev());
    if mu + sigma == 0.0 {
        return None;
    }
    Some((sigma - mu) / (sigma + mu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samplers::Exponential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interarrival_from_unsorted() {
        let ia = InterArrival::from_timestamps(&[30, 10, 20]);
        assert_eq!(ia.gaps(), &[10.0, 10.0]);
        assert_eq!(ia.len(), 2);
    }

    #[test]
    fn mtbf_weekly_dbe() {
        // One event per week for 10 weeks → MTBF = 168 h.
        let week = 7 * 24 * 3600u64;
        let ts: Vec<u64> = (0..10).map(|i| i * week).collect();
        let m = mtbf_hours(&ts).unwrap();
        assert!((m - 168.0).abs() < 1e-9);
    }

    #[test]
    fn mtbf_needs_two_events() {
        assert!(mtbf_hours(&[]).is_none());
        assert!(mtbf_hours(&[100]).is_none());
    }

    #[test]
    fn burstiness_of_periodic_is_minus_one() {
        let ts: Vec<u64> = (0..100).map(|i| i * 60).collect();
        let b = burstiness(&ts).unwrap();
        assert!((b + 1.0).abs() < 1e-9, "b {b}");
    }

    #[test]
    fn burstiness_of_poisson_near_zero() {
        let d = Exponential::new(1.0 / 100.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut t = 0.0;
        let ts: Vec<u64> = (0..20_000)
            .map(|_| {
                t += d.sample(&mut rng);
                t as u64
            })
            .collect();
        let b = burstiness(&ts).unwrap();
        assert!(b.abs() < 0.05, "b {b}");
    }

    #[test]
    fn burstiness_of_clusters_positive() {
        // 20 bursts of 50 events within 10 s, bursts a day apart: XID-13 style.
        let mut ts = Vec::new();
        for burst in 0..20u64 {
            let base = burst * 86_400;
            for k in 0..50u64 {
                ts.push(base + k / 5);
            }
        }
        let b = burstiness(&ts).unwrap();
        assert!(b > 0.5, "b {b}");
    }
}
