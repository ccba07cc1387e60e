//! Monthly frequency series — the x-axis of Figs. 2, 4, 6, 9, 10, 11 —
//! plus the MTBF and burstiness statistics quoted in Observations 1 & 6.

use serde::{Deserialize, Serialize};
use titan_conlog::time::{StudyCalendar, STUDY_MONTHS};
use titan_conlog::ConsoleEvent;
use titan_gpu::GpuErrorKind;

use crate::filtering::ChildRule;

/// A monthly count series over the study window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonthlySeries {
    /// Event kind counted.
    pub kind: GpuErrorKind,
    /// Counts per study month (index 0 = Jun'13).
    pub counts: Vec<u64>,
    /// Month labels aligned with `counts`.
    pub labels: Vec<String>,
}

impl MonthlySeries {
    /// Total events.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Index of the peak month, or `None` when empty.
    pub fn peak_month(&self) -> Option<usize> {
        if self.total() == 0 {
            return None;
        }
        let mut best = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > self.counts[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Count in the months strictly before study month `m`.
    pub fn total_before(&self, m: usize) -> u64 {
        self.counts[..m.min(self.counts.len())].iter().sum()
    }

    /// Count in the months at/after study month `m`.
    pub fn total_from(&self, m: usize) -> u64 {
        self.counts[m.min(self.counts.len())..].iter().sum()
    }
}

/// Builds the monthly series for `kind` from (already filtered) events.
pub fn monthly_counts(events: &[ConsoleEvent], kind: GpuErrorKind) -> MonthlySeries {
    monthly_series(kind, events.iter().filter(|e| e.kind == kind))
}

/// The monthly series of `kind` at incident granularity (Fig. 9's
/// job-wide XIDs): the events [`dedup_by_job`] keeps as parents, counted
/// in the same pass that filters them, with no event copied. Equal to
/// `monthly_counts(&dedup_by_job(events, kind, window_secs).parents, kind)`.
///
/// [`dedup_by_job`]: crate::filtering::dedup_by_job
pub fn monthly_incidents(
    events: &[ConsoleEvent],
    kind: GpuErrorKind,
    window_secs: u64,
) -> MonthlySeries {
    let mut rule = ChildRule::new(window_secs);
    monthly_series(
        kind,
        events
            .iter()
            .filter(|e| e.kind == kind && !rule.is_child(e.apid, e.time)),
    )
}

/// The monthly series of `kind` counting every event of `events`.
fn monthly_series<'a>(
    kind: GpuErrorKind,
    events: impl Iterator<Item = &'a ConsoleEvent>,
) -> MonthlySeries {
    let cal = StudyCalendar;
    let mut counts = vec![0u64; STUDY_MONTHS];
    for ev in events {
        // `month_index` is below `STUDY_MONTHS` by construction.
        if let Some(c) = counts.get_mut(cal.month_index(ev.time)) {
            *c += 1;
        }
    }
    MonthlySeries {
        kind,
        counts,
        labels: cal.month_labels(),
    }
}

/// MTBF in hours for `kind` over the events (Observation 1's ≈160 h for
/// DBEs). `None` with fewer than two events.
pub fn mtbf_hours(events: &[ConsoleEvent], kind: GpuErrorKind) -> Option<f64> {
    let ts: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.time)
        .collect();
    titan_stats::mtbf_hours(&ts)
}

/// Burstiness index for `kind` (Observation 6: application XIDs bursty,
/// driver XIDs not).
pub fn burstiness(events: &[ConsoleEvent], kind: GpuErrorKind) -> Option<f64> {
    let ts: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.time)
        .collect();
    titan_stats::burstiness(&ts)
}

/// Daily-count Fano factor for `kind` — the second burstiness lens.
pub fn daily_fano(events: &[ConsoleEvent], kind: GpuErrorKind) -> Option<f64> {
    let ts: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.time)
        .collect();
    titan_stats::estimators::fano_factor(&ts, 86_400)
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_conlog::time::StudyCalendar;
    use titan_topology::NodeId;

    fn ev(time: u64, kind: GpuErrorKind) -> ConsoleEvent {
        ConsoleEvent {
            time,
            node: NodeId(0),
            kind,
            structure: None,
            page: None,
            apid: None,
        }
    }

    #[test]
    fn monthly_binning() {
        let cal = StudyCalendar;
        let dec13 = cal.date(2013, 12, 15).unwrap();
        let jan14 = cal.date(2014, 1, 2).unwrap();
        let events = vec![
            ev(0, GpuErrorKind::DoubleBitError),
            ev(dec13, GpuErrorKind::DoubleBitError),
            ev(jan14, GpuErrorKind::DoubleBitError),
            ev(jan14, GpuErrorKind::OffTheBus), // other kind ignored
        ];
        let s = monthly_counts(&events, GpuErrorKind::DoubleBitError);
        assert_eq!(s.total(), 3);
        assert_eq!(s.counts[0], 1); // Jun'13
        assert_eq!(s.counts[6], 1); // Dec'13
        assert_eq!(s.counts[7], 1); // Jan'14
        assert_eq!(s.labels[7], "Jan'14");
        assert_eq!(s.total_before(7), 2);
        assert_eq!(s.total_from(7), 1);
    }

    #[test]
    fn peak_month() {
        let events: Vec<ConsoleEvent> = (0..5)
            .map(|i| ev(100 + i, GpuErrorKind::OffTheBus))
            .collect();
        let s = monthly_counts(&events, GpuErrorKind::OffTheBus);
        assert_eq!(s.peak_month(), Some(0));
        let empty = monthly_counts(&[], GpuErrorKind::OffTheBus);
        assert_eq!(empty.peak_month(), None);
    }

    #[test]
    fn mtbf_weekly() {
        let week = 7 * 24 * 3600;
        let events: Vec<ConsoleEvent> = (0..10u64)
            .map(|i| ev(i * week, GpuErrorKind::DoubleBitError))
            .collect();
        let m = mtbf_hours(&events, GpuErrorKind::DoubleBitError).unwrap();
        assert!((m - 168.0).abs() < 1e-9);
        assert!(mtbf_hours(&events, GpuErrorKind::OffTheBus).is_none());
    }

    #[test]
    fn burstiness_separates_shapes() {
        // Bursty: 10 clusters of 20.
        let mut bursty = Vec::new();
        for c in 0..10u64 {
            for k in 0..20u64 {
                bursty.push(ev(c * 1_000_000 + k, GpuErrorKind::GraphicsEngineException));
            }
        }
        // Regular: every hour.
        let regular: Vec<ConsoleEvent> = (0..200u64)
            .map(|i| ev(i * 3600, GpuErrorKind::GpuStoppedProcessing))
            .collect();
        let all: Vec<ConsoleEvent> = bursty.iter().chain(&regular).copied().collect();
        let b13 = burstiness(&all, GpuErrorKind::GraphicsEngineException).unwrap();
        let b43 = burstiness(&all, GpuErrorKind::GpuStoppedProcessing).unwrap();
        assert!(b13 > 0.5, "{b13}");
        assert!(b43 < -0.9, "{b43}");
        let f13 = daily_fano(&all, GpuErrorKind::GraphicsEngineException).unwrap();
        assert!(f13 > 5.0, "{f13}");
    }
}
