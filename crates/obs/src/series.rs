//! Fixed sim-time bucket counters: the `timeseries` section of
//! `titan-obs/3`.
//!
//! The paper's trend figures (weekly error rates, the Jan-14 driver
//! cutover) need time-resolved counts, not run-end totals. A
//! [`TimeBuckets`] sink counts a curated subset of engine events into
//! one-week sim-time buckets ([`BUCKET_SECS`]), so one run's
//! metrics document shows the whole trend. Bucketing is pure integer
//! arithmetic on sim timestamps — nothing here can perturb a run or
//! break byte-identity.

use titan_conlog::time::SimTime;

use crate::event::count;
use crate::Registry;

/// Bucket width: one week of sim time, matching the paper's
/// weekly-rate figures.
pub const BUCKET_SECS: u64 = 7 * 86_400;

/// The curated counter subset carried as time series. Each variant
/// mirrors the engine counter of the same name; a runner test pins that
/// the buckets of each series sum exactly to the run-end counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsSeries {
    /// Console lines emitted (`engine.console_lines`).
    ConsoleLines,
    /// DBE events executed (`engine.ev_dbe`).
    EvDbe,
    /// Off-the-bus events executed (`engine.ev_otb`).
    EvOtb,
    /// SBE draft events executed (`engine.ev_sbe`).
    EvSbe,
    /// SBE drafts accepted after thinning (`engine.sbe_accepted`).
    SbeAccepted,
    /// Hot-spare swaps fired (`engine.swaps_fired`).
    SwapsFired,
}

impl TsSeries {
    /// All series, in stable export order.
    pub const ALL: [TsSeries; 6] = [
        TsSeries::ConsoleLines,
        TsSeries::EvDbe,
        TsSeries::EvOtb,
        TsSeries::EvSbe,
        TsSeries::SbeAccepted,
        TsSeries::SwapsFired,
    ];

    /// Stable name used as the key in the metrics document (matches the
    /// engine counter it shadows).
    pub fn name(self) -> &'static str {
        match self {
            TsSeries::ConsoleLines => "console_lines",
            TsSeries::EvDbe => "ev_dbe",
            TsSeries::EvOtb => "ev_otb",
            TsSeries::EvSbe => "ev_sbe",
            TsSeries::SbeAccepted => "sbe_accepted",
            TsSeries::SwapsFired => "swaps_fired",
        }
    }

    fn index(self) -> usize {
        match self {
            TsSeries::ConsoleLines => 0,
            TsSeries::EvDbe => 1,
            TsSeries::EvOtb => 2,
            TsSeries::EvSbe => 3,
            TsSeries::SbeAccepted => 4,
            TsSeries::SwapsFired => 5,
        }
    }
}

/// Bucketed counters for every [`TsSeries`]. Buckets grow on demand, so
/// the sink needs no window length up front; the exporter pads every
/// series to the window's bucket count.
#[derive(Debug)]
pub struct TimeBuckets {
    enabled: bool,
    series: [Vec<u64>; 6],
}

impl TimeBuckets {
    /// A sink with [`BUCKET_SECS`]-wide buckets.
    pub fn new(enabled: bool) -> Self {
        TimeBuckets {
            enabled,
            series: Default::default(),
        }
    }

    /// Counts one event of `series` at sim time `t` (no-op disabled).
    #[inline]
    pub fn inc(&mut self, series: TsSeries, t: SimTime) {
        if !self.enabled {
            return;
        }
        // lint: allow(N1, bucket index: window/BUCKET_SECS is far below 2^32 for any real window)
        let bucket = (t / BUCKET_SECS) as usize;
        let v = &mut self.series[series.index()];
        if v.len() <= bucket {
            v.resize(bucket + 1, 0);
        }
        v[bucket] += 1;
    }

    /// The raw (unpadded) buckets of one series.
    pub fn series(&self, series: TsSeries) -> &[u64] {
        &self.series[series.index()]
    }

    /// One series padded with trailing zeros to `n_buckets` (the export
    /// shape: every series the same length, covering the whole window).
    pub fn padded(&self, series: TsSeries, n_buckets: usize) -> Vec<u64> {
        let mut v = self.series(series).to_vec();
        if v.len() < n_buckets {
            v.resize(n_buckets, 0);
        }
        v
    }

    /// The sink's checkpoint section: every series' raw buckets, in
    /// [`TsSeries::ALL`] order.
    pub(crate) fn snap(&self) -> Vec<Vec<u64>> {
        self.series.to_vec()
    }

    /// Overwrites every series from its checkpoint section, which must
    /// hold what a run paused at sim time `t` holds: one bucket list
    /// per [`TsSeries`], no bucket past `t`'s, and each series summing
    /// to the restored `reg` counter it shadows. `console_lines` is
    /// exempt from both rules: a job-wide incident stamps its node
    /// lines a few seconds after the event, so they can land past `t`'s
    /// bucket, and its counter is added only at finalize. Anything else
    /// is refused. No-op when disabled, preserving the
    /// disabled-sink-is-inert invariant.
    pub(crate) fn restore(
        &mut self,
        series: &[Vec<u64>],
        t: SimTime,
        reg: &Registry,
    ) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if series.len() != self.series.len() {
            return Err(format!(
                "timeseries holds {} series, the sink has {}",
                series.len(),
                self.series.len()
            ));
        }
        let held = t / BUCKET_SECS + 1;
        for (s, buckets) in TsSeries::ALL.into_iter().zip(series) {
            if s == TsSeries::ConsoleLines {
                continue;
            }
            let name = s.name();
            if count(buckets.len()) > held {
                return Err(format!(
                    "timeseries.{name} holds {} buckets, a run paused at t {t} holds at most {held}",
                    buckets.len()
                ));
            }
            let sum = buckets.iter().fold(0u64, |a, &n| a.saturating_add(n));
            let counter = reg.counters().find(|&(sec, n, _)| sec == "engine" && n == name);
            let want = counter.map_or(0, |(_, _, v)| v);
            if sum != want {
                return Err(format!("timeseries.{name} sums to {sum}, engine.{name} is {want}"));
            }
        }
        self.series.clone_from_slice(series);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = BUCKET_SECS;

    #[test]
    fn buckets_split_by_fixed_width() {
        let mut ts = TimeBuckets::new(true);
        ts.inc(TsSeries::EvDbe, 0);
        ts.inc(TsSeries::EvDbe, W - 1);
        ts.inc(TsSeries::EvDbe, W);
        ts.inc(TsSeries::EvDbe, 3 * W + W / 2);
        assert_eq!(ts.series(TsSeries::EvDbe), &[2, 1, 0, 1]);
        assert!(ts.series(TsSeries::EvOtb).is_empty());
    }

    #[test]
    fn padding_extends_with_zeros_only() {
        let mut ts = TimeBuckets::new(true);
        ts.inc(TsSeries::SwapsFired, W + W / 2);
        assert_eq!(ts.padded(TsSeries::SwapsFired, 4), vec![0, 1, 0, 0]);
        // Never truncates.
        assert_eq!(ts.padded(TsSeries::SwapsFired, 1), vec![0, 1]);
    }

    #[test]
    fn disabled_sink_is_inert() {
        let mut ts = TimeBuckets::new(false);
        ts.inc(TsSeries::ConsoleLines, 5);
        assert!(ts.series(TsSeries::ConsoleLines).is_empty());
        assert_eq!(ts.padded(TsSeries::ConsoleLines, 2), vec![0, 0]);
    }
}
