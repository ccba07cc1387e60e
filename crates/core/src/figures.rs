//! Every table and figure of the paper, computed from the observable
//! data bundle. Independent figure families run in parallel under rayon.

use serde::{Deserialize, Serialize};
use titan_analysis::consistency::{dbe_accounting, DbeAccounting};
use titan_analysis::cooccurrence::{cooccurrence_heatmap, Heatmap};
use titan_analysis::correlation::{job_sbe_correlations, CorrelationStudy};
use titan_analysis::interarrival::{retirement_delays, RetirementDelays};
use titan_analysis::offenders::{sbe_offender_analysis, OffenderAnalysis};
use titan_analysis::granularity::{aprun_granularity, GranularityReport};
use titan_analysis::spatial::{
    cage_tally, incident_stripe, spatial_grid, spatial_with_filtering, IncidentStripe,
    SpatialFiltering,
};
use titan_analysis::timeseries::{
    burstiness, monthly_counts, monthly_incidents, mtbf_hours, MonthlySeries,
};
use titan_analysis::thermal::{thermal_survey, ThermalSurvey};
use titan_analysis::user_proxy::{user_level_correlation, UserStudy};
use titan_analysis::workload_charac::{workload_characterization, WorkloadCharacterization};
use titan_faults::calibration;
use titan_gpu::{GpuErrorKind, MemoryStructure};
use titan_topology::grid::CageTally;
use titan_topology::CabinetGrid;

use crate::study::StudyData;

/// Computed figure set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figures {
    /// Fig. 2: monthly DBE frequency.
    pub fig02_dbe_monthly: MonthlySeries,
    /// Observation 1: DBE MTBF in hours.
    pub fig02_mtbf_hours: Option<f64>,
    /// DBE burstiness (should be near-Poisson: "not bursty in nature").
    pub fig02_burstiness: Option<f64>,

    /// Fig. 3(a): DBE cabinet grid.
    pub fig03_dbe_grid: CabinetGrid,
    /// Fig. 3(b): DBE per cage — (all events, distinct nodes).
    pub fig03_dbe_cage: (CageTally, CageTally),
    /// Fig. 3(c) + Observation 2: console/nvidia-smi DBE accounting and
    /// the per-structure breakdown.
    pub fig03_accounting: DbeAccounting,

    /// Fig. 4: monthly off-the-bus frequency.
    pub fig04_otb_monthly: MonthlySeries,
    /// Fig. 5: OTB cabinet grid.
    pub fig05_otb_grid: CabinetGrid,
    /// Fig. 5 inset: OTB per cage — (all, distinct).
    pub fig05_otb_cage: (CageTally, CageTally),

    /// Fig. 6: monthly ECC page retirement frequency.
    pub fig06_retire_monthly: MonthlySeries,
    /// Fig. 7: retirement cabinet grid.
    pub fig07_retire_grid: CabinetGrid,
    /// Fig. 7 inset: retirement per cage.
    pub fig07_retire_cage: (CageTally, CageTally),

    /// Fig. 8: retirement delay after DBE.
    pub fig08_delays: RetirementDelays,

    /// Fig. 9: monthly series for XIDs 31, 32, 43, 44 (+38, 42 for the
    /// rare-error observations). Job-wide kinds (31, 32) are counted at
    /// *incident* granularity — the paper's 5 s filtering collapses the
    /// per-node re-reports before counting.
    pub fig09_xid_monthly: Vec<MonthlySeries>,
    /// Fig. 10: monthly XID 13.
    pub fig10_xid13_monthly: MonthlySeries,
    /// XID 13 burstiness (Observation 6).
    pub fig10_xid13_burstiness: Option<f64>,
    /// Driver-XID burstiness for contrast (XID 43).
    pub fig10_xid43_burstiness: Option<f64>,
    /// Fig. 11: monthly XID 59 and 62.
    pub fig11_uchalt_monthly: Vec<MonthlySeries>,

    /// Fig. 12: XID 13 spatial distribution under the three filterings.
    pub fig12_xid13_spatial: SpatialFiltering,

    /// Fig. 12's striping claim scored per incident (the aggregate
    /// panels cancel when incidents of opposite column parity meet —
    /// see [`incident_stripe`]).
    pub fig12_incident_stripe: Option<IncidentStripe>,

    /// Fig. 13: the 300 s co-occurrence heatmap (top panel; call
    /// [`Heatmap::without_diagonal`] for the bottom).
    pub fig13_heatmap: Heatmap,

    /// Figs. 14–15: the SBE offender analysis.
    pub fig14_15_offenders: OffenderAnalysis,

    /// Figs. 16–19: job-level utilization↔SBE correlations.
    pub fig16_19_correlation: CorrelationStudy,

    /// Fig. 20: user-level correlation.
    pub fig20_user: UserStudy,

    /// Fig. 21: workload characterization.
    pub fig21_workload: WorkloadCharacterization,

    /// §4: SBE counts by structure across all job deltas (L2-dominance
    /// check for Observation 11).
    pub sbe_by_structure: Vec<(MemoryStructure, u64)>,

    /// §3.1: the nvidia-smi-derived cage temperature gradient.
    pub thermal: ThermalSurvey,

    /// §4: how much SBE volume is unattributable below job granularity.
    pub granularity: GranularityReport,
}

impl Figures {
    /// Computes everything from a data bundle. The heavier, independent
    /// figure families are evaluated on rayon's pool.
    pub fn compute(data: &StudyData) -> Figures {
        use GpuErrorKind::*;

        let console = &data.console;

        // The four heavier analyses are mutually independent. The job
        // correlation and the user study dominate, so each side of one
        // join takes one of them; a nested join would only spawn more
        // short-lived threads. Everything else is cheap linear scans.
        let ((offenders, correlation), (user, heatmap)) = rayon::join(
            || {
                (
                    sbe_offender_analysis(&data.snapshots),
                    job_sbe_correlations(&data.jobs, &data.job_sbe, &data.snapshots),
                )
            },
            || {
                (
                    user_level_correlation(&data.jobs, &data.job_sbe, &data.snapshots),
                    cooccurrence_heatmap(console),
                )
            },
        );

        let mut sbe_by_structure: Vec<(MemoryStructure, u64)> = MemoryStructure::ECC_COUNTED
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let total = data
                    .job_sbe
                    .iter()
                    .map(|d| d.per_structure_sbe.get(i).copied().unwrap_or(0))
                    .sum();
                (m, total)
            })
            .collect();
        sbe_by_structure.sort_by_key(|&(_, c)| std::cmp::Reverse(c));

        Figures {
            fig02_dbe_monthly: monthly_counts(console, DoubleBitError),
            fig02_mtbf_hours: mtbf_hours(console, DoubleBitError),
            fig02_burstiness: burstiness(console, DoubleBitError),

            fig03_dbe_grid: spatial_grid(console, DoubleBitError, false),
            fig03_dbe_cage: cage_tally(console, DoubleBitError),
            fig03_accounting: dbe_accounting(console, &data.snapshots),

            fig04_otb_monthly: monthly_counts(console, OffTheBus),
            fig05_otb_grid: spatial_grid(console, OffTheBus, false),
            fig05_otb_cage: cage_tally(console, OffTheBus),

            fig06_retire_monthly: monthly_counts(console, EccPageRetirement),
            fig07_retire_grid: spatial_grid(console, EccPageRetirement, false),
            fig07_retire_cage: cage_tally(console, EccPageRetirement),

            fig08_delays: retirement_delays(console, calibration::retirement_xid_introduced()),

            fig09_xid_monthly: [
                GpuMemoryPageFault,
                PushBufferStream,
                GpuStoppedProcessing,
                ContextSwitchFault,
                DriverFirmware,
                VideoProcessorSw,
            ]
            .iter()
            .map(|&k| {
                if k.user_application_possible() {
                    // Incident granularity: the per-node job re-reports
                    // collapse under the paper's 5 s filter.
                    monthly_incidents(console, k, 5)
                } else {
                    monthly_counts(console, k)
                }
            })
            .collect(),
            fig10_xid13_monthly: monthly_counts(console, GraphicsEngineException),
            fig10_xid13_burstiness: burstiness(console, GraphicsEngineException),
            fig10_xid43_burstiness: burstiness(console, GpuStoppedProcessing),
            fig11_uchalt_monthly: [MicrocontrollerHaltOld, MicrocontrollerHaltNew]
                .iter()
                .map(|&k| monthly_counts(console, k))
                .collect(),

            fig12_xid13_spatial: spatial_with_filtering(console, GraphicsEngineException),
            fig12_incident_stripe: incident_stripe(console, GraphicsEngineException, 5),

            fig13_heatmap: heatmap,
            fig14_15_offenders: offenders,
            fig16_19_correlation: correlation,
            fig20_user: user,
            fig21_workload: workload_characterization(&data.jobs),

            sbe_by_structure,

            thermal: thermal_survey(&data.snapshots),
            granularity: aprun_granularity(&data.apruns, &data.job_sbe),
        }
    }

    /// Monthly series for a Fig. 9 kind, if computed.
    pub fn fig09_series(&self, kind: GpuErrorKind) -> Option<&MonthlySeries> {
        self.fig09_xid_monthly.iter().find(|s| s.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{Study, StudyConfig};

    #[test]
    fn figures_compute_on_quick_study() {
        let study = Study::new(StudyConfig::quick(30, 99)).run();
        let f = study.figures();
        // Console-derived monthly totals must match event counts.
        let dbe_total: u64 = f.fig02_dbe_monthly.total();
        let dbe_events = study
            .data
            .console
            .iter()
            .filter(|e| e.kind == GpuErrorKind::DoubleBitError)
            .count() as u64;
        assert_eq!(dbe_total, dbe_events);
        // Grid totals match series totals.
        assert_eq!(f.fig03_dbe_grid.total() as u64, dbe_total);
        // XID 42 never occurs.
        let x42 = f.fig09_series(GpuErrorKind::VideoProcessorSw).unwrap();
        assert_eq!(x42.total(), 0);
        // Structure table covers the ECC-counted set.
        assert_eq!(f.sbe_by_structure.len(), 5);
    }

    #[test]
    fn filtered_figures_equal_the_dedup_copies() {
        use titan_analysis::filtering::{dedup_by_job, dedup_job_level, of_kind};
        use GpuErrorKind::GraphicsEngineException as X13;
        for seed in [99, 3] {
            let study = Study::new(StudyConfig::quick(30, seed)).run();
            let console = &study.data.console;
            let f = study.figures();
            let mut incidents = 0;
            for s in &f.fig09_xid_monthly {
                let oracle = if s.kind.user_application_possible() {
                    let split = dedup_by_job(console, s.kind, 5);
                    incidents += split.children.len();
                    monthly_counts(&split.parents, s.kind)
                } else {
                    monthly_counts(console, s.kind)
                };
                assert_eq!(*s, oracle, "seed {seed}");
            }
            let only = of_kind(console, X13);
            let split = dedup_job_level(&only, X13, 5);
            assert_eq!(
                f.fig12_xid13_spatial,
                SpatialFiltering {
                    unfiltered: spatial_grid(&only, X13, false),
                    filtered: spatial_grid(&split.parents, X13, false),
                    children: spatial_grid(&split.children, X13, false),
                },
                "seed {seed}"
            );
            // Both filters had re-reports to fold.
            assert!(incidents > 0 && !split.children.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn sbe_structure_table_sorted_desc() {
        let study = Study::new(StudyConfig::quick(20, 5)).run();
        let f = study.figures();
        assert!(f
            .sbe_by_structure
            .windows(2)
            .all(|w| w[0].1 >= w[1].1));
    }
}
