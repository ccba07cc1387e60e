//! Calibration constants, each pinned to the paper sentence it encodes.
//!
//! These are *inputs to the generators*, never read by the analysis — the
//! analysis must re-derive the observable consequences from logs.

use titan_conlog::time::{SimTime, StudyCalendar};

// ---------------------------------------------------------------------------
// Double bit errors (§3.1, Observation 1 & 3)
// ---------------------------------------------------------------------------

/// "On average, one DBE occurs approximately every seven days (approx.
/// 160 hours)." Fleet-wide DBE rate, events per second.
pub const DBE_FLEET_RATE_PER_SEC: f64 = 1.0 / (160.0 * 3600.0);

/// "86% of double bit errors happen in the device memory."
pub const DBE_DEVICE_MEMORY_FRACTION: f64 = 0.86;

/// Thermal exponent for DBE placement: DBE-prone DRAM retention faults
/// accelerate faster with temperature than the baseline error classes,
/// so the slot picker raises the thermal acceleration to this power.
/// With the default thermal model this puts the top cage at ~1.9x the
/// bottom cage — enough for Fig. 3(b)'s ordering to be stable at ~90
/// fleet DBEs rather than a coin flip.
pub const DBE_THERMAL_EXPONENT: f64 = 1.9;

/// Vendor-datasheet per-device MTBF for uncorrectable errors, hours.
/// The paper: "the estimated MTBF based on the vendor datasheet would be
/// significantly lower for our system compared to what our field data
/// indicates" — i.e. the datasheet is pessimistic. One million device
/// hours implies a fleet MTBF of 1e6 / 18,688 ≈ 54 h, well under the
/// observed ≈160 h.
pub const VENDOR_DATASHEET_DEVICE_MTBF_HOURS: f64 = 1.0e6;

/// Fraction of cards that are DBE "lemons" — pathologically failure-
/// prone units the operators' pull-after-threshold policy exists for.
/// With the multiplier below, lemons absorb ~13% of fleet DBEs, so one
/// or two cards cross the 2-DBE pull threshold per study window — the
/// observed cadence of hot-spare pulls.
pub const DBE_LEMON_FRACTION: f64 = 0.003;

/// DBE-rate multiplier of a lemon card over the fleet bulk.
pub const DBE_LEMON_MULTIPLIER: f64 = 50.0;

/// Probability that the node dies before NVML persists the DBE in the
/// InfoROM — the Observation 2 undercount ("Nvidia-smi output reports
/// fewer number of DBEs than our console log filtering method … a double
/// bit error causes the node to shut down before the DBE incident is
/// logged"). The paper does not give the ratio; 0.35 produces a clearly
/// visible console-vs-nvsmi gap.
pub const DBE_INFOROM_LOSS_PROB: f64 = 0.35;

// ---------------------------------------------------------------------------
// Off the bus (§3.1, Observation 4)
// ---------------------------------------------------------------------------

/// "Off the Bus errors only dominant the period before December 2013. A
/// system integration issue with the GPU cards was identified, and
/// subsequently resolved by soldering the cards."
pub fn otb_fix_date() -> SimTime {
    StudyCalendar.date(2013, 12, 1).expect("in window")
}

/// Fleet OTB rate during the integration-defect epidemic, events/second.
/// Sized to make OTB the dominant pre-Dec'13 failure mode (≈ 2 per week).
pub const OTB_EPIDEMIC_RATE_PER_SEC: f64 = 2.0 / (7.0 * 86_400.0);

/// Residual OTB rate after the soldering campaign ("these errors have
/// almost become negligible").
pub const OTB_RESIDUAL_RATE_PER_SEC: f64 = 0.02 / (7.0 * 86_400.0);

/// "these errors were mostly clustered": mean extra events arriving in
/// the 24 h following an epidemic OTB event.
pub const OTB_CLUSTER_MEAN_CHILDREN: f64 = 1.5;

// ---------------------------------------------------------------------------
// ECC page retirement (§3.1, Observation 5, Fig. 6 & 8)
// ---------------------------------------------------------------------------

/// "it has started appearing only since Jan'2014" — the driver that
/// introduced XID 63/64.
pub fn retirement_xid_introduced() -> SimTime {
    StudyCalendar.date(2014, 1, 1).expect("in window")
}

/// "18 page retirement happens within 10 minutes of a DBE occurrence":
/// mean delay of the retirement *recording* after its parent DBE, seconds.
pub const RETIRE_AFTER_DBE_MEAN_DELAY_SEC: f64 = 150.0;

/// "while only 1 event happened between 10 minutes and 6 hours":
/// probability the recording is delayed past the prompt path (driver
/// reload races).
pub const RETIRE_DELAYED_PROB: f64 = 0.05;

/// "there were 17 instances when no ECC page retirement happened between
/// two successive DBEs": probability the recording never surfaces in the
/// console log at all.
pub const RETIRE_MISSING_PROB: f64 = 0.45;

// ---------------------------------------------------------------------------
// Single bit errors (§3.3 & §4, Observations 10–12)
// ---------------------------------------------------------------------------

/// "we observe SBEs in the order of hundreds per day" — fleet mean,
/// events per day, *including* offender cards.
pub const SBE_FLEET_PER_DAY: f64 = 350.0;

/// "less than 1000 cards have ever experienced a single bit error (less
/// than 5% of the whole system)". Fraction of cards with nonzero SBE
/// susceptibility.
pub const SBE_SUSCEPTIBLE_FRACTION: f64 = 0.048;

/// Pareto tail index of per-card SBE rates among susceptible cards.
/// ≈1.1 concentrates roughly half the fleet SBE volume in the top-10
/// cards, reproducing Fig. 14's skew collapse when offenders are removed.
pub const SBE_PARETO_ALPHA: f64 = 1.05;

/// "Most of the single bit errors happen in the L2 cache despite its much
/// smaller size than the device memory." Structure mix for SBEs.
pub const SBE_STRUCTURE_MIX: [(titan_gpu::MemoryStructure, f64); 4] = [
    (titan_gpu::MemoryStructure::L2Cache, 0.55),
    (titan_gpu::MemoryStructure::DeviceMemory, 0.30),
    (titan_gpu::MemoryStructure::RegisterFile, 0.10),
    (titan_gpu::MemoryStructure::SharedL1, 0.05),
];

/// SBEs arrive only while a job exercises the GPU; activity coupling
/// exponent linking utilization to SBE exposure (Observation 12 found a
/// monotone but non-linear relationship; 0.8 keeps Spearman ≈ 0.6–0.8 for
/// core-hours while Pearson stays lower).
pub const SBE_ACTIVITY_EXPONENT: f64 = 0.8;

// ---------------------------------------------------------------------------
// Software / firmware XIDs (§3.2, Observation 6, Figs. 9–11)
// ---------------------------------------------------------------------------

/// Driver update that replaced XID 59 with XID 62 for micro-controller
/// halts ("Internal micro-controller halt (old driver error)" vs "new
/// driver error"). Mid-2014 on Titan.
pub fn driver_update_date() -> SimTime {
    StudyCalendar.date(2014, 6, 1).expect("in window")
}

/// XID 13 (graphics engine exception) *incident* rate — incidents are
/// job-level; the simulator replicates each across the job's nodes.
/// "These errors often occur in bursts."
pub const XID13_INCIDENT_PER_DAY: f64 = 1.1;

/// Deadline-season multiplier for XID 13 ("sudden rise in such errors may
/// also correlate with domain scientists' project or paper deadlines").
pub const XID13_DEADLINE_MULTIPLIER: f64 = 4.0;

/// XID 31 (GPU memory page fault) incidents per day — frequent, user-code.
pub const XID31_INCIDENT_PER_DAY: f64 = 0.7;

/// XID 43 (GPU stopped processing) incidents per day — "certain driver
/// related errors … occur more frequently".
pub const XID43_INCIDENT_PER_DAY: f64 = 0.35;

/// XID 44 (context-switch fault) incidents per day.
pub const XID44_INCIDENT_PER_DAY: f64 = 0.25;

/// XID 45 (preemptive cleanup) spontaneous incidents per day (it mostly
/// appears as a *child* of other errors via the cascade model).
pub const XID45_INCIDENT_PER_DAY: f64 = 0.15;

/// Micro-controller halt rate (XID 59 before the driver update, XID 62
/// after), incidents per day. "Such as micro-controller halts … occur
/// more frequently."
pub const UCHALT_INCIDENT_PER_DAY: f64 = 0.30;

/// Total-count targets for the rare XIDs: "invalid or corrupted push
/// buffer stream and driver firmware error have occurred less than ten
/// times during the production run".
pub const XID32_TOTAL_TARGET: f64 = 6.0;
/// See [`XID32_TOTAL_TARGET`].
pub const XID38_TOTAL_TARGET: f64 = 4.0;
/// "Some driver related errors do not occur at all (e.g., XID 42)."
pub const XID42_TOTAL_TARGET: f64 = 0.0;
/// Display engine / video memory interface / video processor errors are
/// rare singletons in the window.
pub const XID56_TOTAL_TARGET: f64 = 2.0;
/// See [`XID56_TOTAL_TARGET`].
pub const XID57_TOTAL_TARGET: f64 = 3.0;
/// See [`XID56_TOTAL_TARGET`].
pub const XID58_TOTAL_TARGET: f64 = 3.0;
/// See [`XID56_TOTAL_TARGET`].
pub const XID65_TOTAL_TARGET: f64 = 2.0;

/// "we observed that the errors appear on all the nodes allocated to the
/// job within five seconds": max skew between the first and last node
/// reporting an application XID incident.
pub const APP_XID_NODE_SPREAD_SEC: u64 = 5;

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

/// Card-pull policy threshold: cards are moved to the hot-spare cluster
/// after this many DBEs ("after encountering a threshold number of
/// DBEs"); OLCF pulled aggressively, at the second DBE.
pub const CARD_PULL_DBE_THRESHOLD: u32 = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use titan_conlog::time::STUDY_SECONDS;

    #[test]
    fn dbe_rate_yields_weekly_mtbf() {
        let expected_total = DBE_FLEET_RATE_PER_SEC * STUDY_SECONDS as f64;
        // 638 days at one-per-160h ≈ 95.7 events.
        assert!((90.0..101.0).contains(&expected_total), "{expected_total}");
    }

    #[test]
    fn sbe_mix_sums_to_one_and_l2_dominates() {
        let sum: f64 = SBE_STRUCTURE_MIX.iter().map(|&(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        let (top, _) = SBE_STRUCTURE_MIX
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(*top, titan_gpu::MemoryStructure::L2Cache);
    }

    #[test]
    fn epoch_dates_ordered() {
        assert!(otb_fix_date() < retirement_xid_introduced());
        assert!(retirement_xid_introduced() < driver_update_date());
        assert!(driver_update_date() < STUDY_SECONDS);
    }

    #[test]
    fn otb_epidemic_dwarfs_residual() {
        assert!(OTB_EPIDEMIC_RATE_PER_SEC > 50.0 * OTB_RESIDUAL_RATE_PER_SEC);
    }

    #[test]
    fn rare_xids_are_rare() {
        assert!(XID32_TOTAL_TARGET < 10.0);
        assert!(XID38_TOTAL_TARGET < 10.0);
        assert_eq!(XID42_TOTAL_TARGET, 0.0);
    }
}
