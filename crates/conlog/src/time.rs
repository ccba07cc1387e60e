//! The study calendar: Jun 2013 00:00 UTC through end of Feb 2015.
//!
//! "Our study covers … Titan's system logs collected over the period of
//! Jun'2013 to Feb'2015" — 21 calendar months, 638 days. Simulation time
//! is seconds since 2013-06-01T00:00:00Z; this module converts to and
//! from calendar dates and renders/parses log timestamps. Implemented by
//! hand (tables, not chrono) so the workspace stays within its approved
//! dependency set — the span contains no leap year anyway (2016 is the
//! next one).

use std::fmt;

use serde::{Deserialize, Serialize};

/// Seconds since the study epoch, 2013-06-01T00:00:00Z.
pub type SimTime = u64;

/// Months in the study window (Jun'13 … Feb'15 inclusive).
pub const STUDY_MONTHS: usize = 21;

/// Days in the study window.
pub const STUDY_DAYS: u64 = 638;

/// Total study duration in seconds.
pub const STUDY_SECONDS: SimTime = STUDY_DAYS * 86_400;

/// (year, month) for each study month index.
const MONTH_TABLE: [(u16, u8); STUDY_MONTHS] = [
    (2013, 6),
    (2013, 7),
    (2013, 8),
    (2013, 9),
    (2013, 10),
    (2013, 11),
    (2013, 12),
    (2014, 1),
    (2014, 2),
    (2014, 3),
    (2014, 4),
    (2014, 5),
    (2014, 6),
    (2014, 7),
    (2014, 8),
    (2014, 9),
    (2014, 10),
    (2014, 11),
    (2014, 12),
    (2015, 1),
    (2015, 2),
];

/// Days in each study month (no leap years in-window).
const MONTH_DAYS: [u64; STUDY_MONTHS] = [
    30, 31, 31, 30, 31, 30, 31, // Jun–Dec 2013
    31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, // 2014
    31, 28, // Jan–Feb 2015
];

/// Short month names for report rendering.
const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// A broken-down calendar instant within the study window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CalendarTime {
    /// Calendar year (2013–2015).
    pub year: u16,
    /// Calendar month, 1–12.
    pub month: u8,
    /// Day of month, 1-based.
    pub day: u8,
    /// Hour 0–23.
    pub hour: u8,
    /// Minute 0–59.
    pub minute: u8,
    /// Second 0–59.
    pub second: u8,
}

/// Writes the log timestamp form, `2013-06-01 12:34:56`, through the
/// same digit writer the console lines use.
impl fmt::Display for CalendarTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::with_capacity(19);
        crate::line::push_timestamp(&mut s, self);
        f.write_str(&s)
    }
}

/// Calendar math over the study window.
#[derive(Debug, Clone, Copy, Default)]
pub struct StudyCalendar;

impl StudyCalendar {
    /// Month index (0 = Jun'13 … 20 = Feb'15) containing `t`. Times past
    /// the window clamp to the final month — late events still get
    /// bucketed rather than dropped.
    pub fn month_index(&self, t: SimTime) -> usize {
        let mut days = t / 86_400;
        for (i, &md) in MONTH_DAYS.iter().enumerate() {
            if days < md {
                return i;
            }
            days -= md;
        }
        STUDY_MONTHS - 1
    }

    /// First instant of study month `i`.
    pub fn month_start(&self, i: usize) -> SimTime {
        MONTH_DAYS[..i].iter().sum::<u64>() * 86_400
    }

    /// Label for study month `i`, e.g. `"Jun'13"`.
    pub fn month_label(&self, i: usize) -> String {
        let (y, m) = MONTH_TABLE[i];
        format!("{}'{}", MONTH_NAMES[m as usize - 1], y % 100)
    }

    /// All month labels in order.
    pub fn month_labels(&self) -> Vec<String> {
        (0..STUDY_MONTHS).map(|i| self.month_label(i)).collect()
    }

    /// Breaks `t` into calendar fields. Clamps past-window times into the
    /// last day of the window.
    pub fn breakdown(&self, t: SimTime) -> CalendarTime {
        let t = t.min(STUDY_SECONDS - 1);
        let mi = self.month_index(t);
        let (year, month) = MONTH_TABLE[mi];
        let into_month = t - self.month_start(mi);
        let day = (into_month / 86_400) as u8 + 1;
        let rem = into_month % 86_400;
        CalendarTime {
            year,
            month,
            day,
            hour: (rem / 3600) as u8,
            minute: (rem % 3600 / 60) as u8,
            second: (rem % 60) as u8,
        }
    }

    /// Simulation time of a calendar instant. Returns `None` when the
    /// date is outside the study window or malformed.
    pub fn sim_time(&self, c: CalendarTime) -> Option<SimTime> {
        let mi = MONTH_TABLE
            .iter()
            .position(|&(y, m)| y == c.year && m == c.month)?;
        if c.day == 0
            || (c.day as u64) > MONTH_DAYS[mi]
            || c.hour > 23
            || c.minute > 59
            || c.second > 59
        {
            return None;
        }
        Some(
            self.month_start(mi)
                + (c.day as u64 - 1) * 86_400
                + c.hour as u64 * 3600
                + c.minute as u64 * 60
                + c.second as u64,
        )
    }

    /// Convenience: midnight at the start of `(year, month, day)`.
    pub fn date(&self, year: u16, month: u8, day: u8) -> Option<SimTime> {
        self.sim_time(CalendarTime {
            year,
            month,
            day,
            hour: 0,
            minute: 0,
            second: 0,
        })
    }

    /// Renders the log timestamp: `2013-06-01 12:34:56`.
    pub fn format_timestamp(&self, t: SimTime) -> String {
        self.breakdown(t).to_string()
    }

    /// Parses a [`format_timestamp`](Self::format_timestamp) string.
    pub fn parse_timestamp(&self, s: &str) -> Option<SimTime> {
        let b = s.as_bytes();
        if b.len() != 19 || b[4] != b'-' || b[7] != b'-' || b[10] != b' ' || b[13] != b':'
            || b[16] != b':'
        {
            return None;
        }
        if !b.iter().all(|c| c.is_ascii()) {
            return None; // multi-byte input can't be a valid timestamp
        }
        fn num(s: &str) -> Option<u16> {
            s.parse().ok()
        }
        let c = CalendarTime {
            year: num(&s[0..4])?,
            month: num(&s[5..7])? as u8,
            day: num(&s[8..10])? as u8,
            hour: num(&s[11..13])? as u8,
            minute: num(&s[14..16])? as u8,
            second: num(&s[17..19])? as u8,
        };
        self.sim_time(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAL: StudyCalendar = StudyCalendar;

    #[test]
    fn window_totals() {
        assert_eq!(MONTH_DAYS.iter().sum::<u64>(), STUDY_DAYS);
        assert_eq!(STUDY_SECONDS, 55_123_200);
    }

    #[test]
    fn epoch_is_june_first() {
        let c = CAL.breakdown(0);
        assert_eq!((c.year, c.month, c.day), (2013, 6, 1));
        assert_eq!((c.hour, c.minute, c.second), (0, 0, 0));
    }

    #[test]
    fn month_index_boundaries() {
        assert_eq!(CAL.month_index(0), 0);
        // Last second of June 2013.
        assert_eq!(CAL.month_index(30 * 86_400 - 1), 0);
        // First second of July 2013.
        assert_eq!(CAL.month_index(30 * 86_400), 1);
        // Past-window clamps to Feb'15.
        assert_eq!(CAL.month_index(STUDY_SECONDS + 999), STUDY_MONTHS - 1);
    }

    #[test]
    fn month_start_inverse_of_index() {
        for i in 0..STUDY_MONTHS {
            let s = CAL.month_start(i);
            assert_eq!(CAL.month_index(s), i);
            if s > 0 {
                assert_eq!(CAL.month_index(s - 1), i - 1);
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(CAL.month_label(0), "Jun'13");
        assert_eq!(CAL.month_label(6), "Dec'13");
        assert_eq!(CAL.month_label(7), "Jan'14");
        assert_eq!(CAL.month_label(20), "Feb'15");
        assert_eq!(CAL.month_labels().len(), STUDY_MONTHS);
    }

    #[test]
    fn date_helpers() {
        assert_eq!(CAL.date(2013, 6, 1), Some(0));
        assert_eq!(CAL.date(2013, 12, 1), Some(214 * 86_400 - 31 * 86_400));
        assert_eq!(CAL.date(2016, 1, 1), None);
        assert_eq!(CAL.date(2014, 2, 29), None); // not a leap year
        assert_eq!(CAL.date(2014, 2, 28), CAL.date(2014, 2, 28));
    }

    #[test]
    fn timestamp_roundtrip() {
        for &t in &[0u64, 1, 86_399, 86_400, 12_345_678, STUDY_SECONDS - 1] {
            let s = CAL.format_timestamp(t);
            assert_eq!(CAL.parse_timestamp(&s), Some(t), "{s}");
        }
    }

    #[test]
    fn timestamp_format_shape() {
        assert_eq!(CAL.format_timestamp(0), "2013-06-01 00:00:00");
        assert_eq!(CAL.format_timestamp(3_661), "2013-06-01 01:01:01");
    }

    #[test]
    fn parse_rejects_malformed() {
        for s in [
            "",
            "2013-06-01",
            "2013/06/01 00:00:00",
            "2013-06-01T00:00:00",
            "2013-06-31 00:00:00", // June has 30 days
            "2013-13-01 00:00:00",
            "2013-06-01 24:00:00",
            "2013-06-01 00:60:00",
            "201x-06-01 00:00:00",
        ] {
            assert_eq!(CAL.parse_timestamp(s), None, "{s:?}");
        }
    }

    #[test]
    fn breakdown_sim_time_roundtrip_scan() {
        // Every 6h41m across the whole window.
        let mut t = 0u64;
        while t < STUDY_SECONDS {
            let c = CAL.breakdown(t);
            assert_eq!(CAL.sim_time(c), Some(t));
            t += 24_060;
        }
    }
}
