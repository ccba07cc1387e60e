//! Simulation configuration.

use serde::{Deserialize, Serialize};
use titan_conlog::time::{SimTime, STUDY_SECONDS};
use titan_workload::ScheduleConfig;

/// Full configuration for one simulated study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed; every subsystem derives its own stream from it.
    pub seed: u64,
    /// Simulated window, seconds from the study epoch (defaults to the
    /// full Jun'13–Feb'15 window; tests shrink it).
    pub window: SimTime,
    /// Workload generation parameters.
    pub schedule: ScheduleConfig,
    /// Spare cards available for hot-spare swaps.
    pub spare_cards: usize,
    /// Toggle: inject double-bit errors.
    pub enable_dbe: bool,
    /// Toggle: inject off-the-bus failures.
    pub enable_otb: bool,
    /// Toggle: inject single-bit errors.
    pub enable_sbe: bool,
    /// Toggle: inject software/driver XID incidents.
    pub enable_software: bool,
    /// Toggle: parent→child cascades.
    pub enable_cascades: bool,
    /// Toggle: the pull-card-after-threshold-DBEs operational policy.
    pub enable_hot_spare_policy: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x7174_414E, // "titAN"
            window: STUDY_SECONDS,
            schedule: ScheduleConfig::default(),
            spare_cards: 512,
            enable_dbe: true,
            enable_otb: true,
            enable_sbe: true,
            enable_software: true,
            enable_cascades: true,
            enable_hot_spare_policy: true,
        }
    }
}

impl SimConfig {
    /// A reduced-window config for fast tests: `days` of operation with a
    /// proportionally scaled workload.
    pub fn quick(days: u64, seed: u64) -> Self {
        let window = days * 86_400;
        SimConfig {
            seed,
            window,
            schedule: ScheduleConfig {
                n_users: 150,
                jobs_per_day: 100.0,
                window,
            },
            ..SimConfig::default()
        }
    }

    /// Consistency check: the schedule window must not exceed the
    /// simulation window, and the workload needs users and a finite
    /// positive arrival rate.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("window must be positive".into());
        }
        if self.schedule.n_users == 0 {
            return Err("the workload needs at least one user".into());
        }
        // The arrival sampler takes the per-second rate.
        let rate = self.schedule.jobs_per_day / 86_400.0;
        if !(rate.is_finite() && rate > 0.0) {
            let per_day = self.schedule.jobs_per_day;
            return Err(format!("jobs_per_day {per_day} is not a positive rate"));
        }
        if self.schedule.window > self.window {
            return Err(format!(
                "schedule window {} exceeds simulation window {}",
                self.schedule.window, self.window
            ));
        }
        if self.window > STUDY_SECONDS {
            return Err(format!(
                "window {} exceeds the study span {STUDY_SECONDS}",
                self.window
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_full_window() {
        let c = SimConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.window, STUDY_SECONDS);
        assert_eq!(c.schedule.window, STUDY_SECONDS);
    }

    #[test]
    fn quick_scales_windows_together() {
        let c = SimConfig::quick(30, 1);
        assert!(c.validate().is_ok());
        assert_eq!(c.window, 30 * 86_400);
        assert_eq!(c.schedule.window, c.window);
    }

    #[test]
    fn validation_rejects_inconsistency() {
        let mut c = SimConfig::quick(10, 1);
        c.window = 5 * 86_400;
        assert!(c.validate().is_err());
        c.window = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.window = STUDY_SECONDS + 1;
        assert!(c.validate().is_err());
        let mut c = SimConfig::quick(10, 1);
        c.schedule.n_users = 0;
        assert!(c.validate().is_err());
        for rate in [0.0, -1.0, 5e-324, f64::NAN, f64::INFINITY] {
            let mut c = SimConfig::quick(10, 1);
            c.schedule.jobs_per_day = rate;
            assert!(c.validate().is_err(), "{rate}");
        }
    }
}
