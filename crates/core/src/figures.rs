//! Every table and figure of the paper, computed from the observable
//! data bundle. The analyses run as two halves of one `rayon::join`.

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
    /// Computes everything from a data bundle, as two halves of one
    /// `rayon::join` (inline on a one-thread pool or on a replicate
    /// worker; see the `rayon` stand-in's docs).
    pub fn compute(data: &StudyData) -> Figures {
        use GpuErrorKind::*;

        let console = &data.console;

        // Each side takes about half of the work: the job correlation,
        // the time series and Fig. 21 on the caller, the user study, the
        // Fig. 13 heatmap and the spatial maps on the other thread. What
        // the other thread returns lives in its own malloc arena, which
        // the caller's allocations cannot reuse, so Fig. 21's per-job
        // vectors are built on the caller. A nested join would only
        // spawn more short-lived threads.
        let (
            (
                offenders,
                correlation,
                sbe_by_structure,
                fig02,
                fig04,
                fig06,
                fig08,
                fig09,
                fig10,
                fig11,
                fig21,
            ),
            (user, heatmap, fig03, fig05, fig07, fig12, thermal, granularity),
        ) = rayon::join(
            || {
                (
                    sbe_offender_analysis(&data.snapshots),
                    job_sbe_correlations(&data.jobs, &data.job_sbe, &data.snapshots),
                    sbe_by_structure(data),
                    (
                        monthly_counts(console, DoubleBitError),
                        mtbf_hours(console, DoubleBitError),
                        burstiness(console, DoubleBitError),
                    ),
                    monthly_counts(console, OffTheBus),
                    monthly_counts(console, EccPageRetirement),
                    retirement_delays(console, calibration::retirement_xid_introduced()),
                    [
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
                            // Incident granularity: the per-node job
                            // re-reports collapse under the paper's 5 s
                            // filter.
                            monthly_incidents(console, k, 5)
                        } else {
                            monthly_counts(console, k)
                        }
                    })
                    .collect(),
                    (
                        monthly_counts(console, GraphicsEngineException),
                        burstiness(console, GraphicsEngineException),
                        burstiness(console, GpuStoppedProcessing),
                    ),
                    [MicrocontrollerHaltOld, MicrocontrollerHaltNew]
                        .iter()
                        .map(|&k| monthly_counts(console, k))
                        .collect(),
                    workload_characterization(&data.jobs),
                )
            },
            || {
                (
                    user_level_correlation(&data.jobs, &data.job_sbe, &data.snapshots),
                    cooccurrence_heatmap(console),
                    (
                        spatial_grid(console, DoubleBitError, false),
                        cage_tally(console, DoubleBitError),
                        dbe_accounting(console, &data.snapshots),
                    ),
                    (
                        spatial_grid(console, OffTheBus, false),
                        cage_tally(console, OffTheBus),
                    ),
                    (
                        spatial_grid(console, EccPageRetirement, false),
                        cage_tally(console, EccPageRetirement),
                    ),
                    (
                        spatial_with_filtering(console, GraphicsEngineException),
                        incident_stripe(console, GraphicsEngineException, 5),
                    ),
                    thermal_survey(&data.snapshots),
                    aprun_granularity(&data.apruns, &data.job_sbe),
                )
            },
        );

        Figures {
            fig02_dbe_monthly: fig02.0,
            fig02_mtbf_hours: fig02.1,
            fig02_burstiness: fig02.2,

            fig03_dbe_grid: fig03.0,
            fig03_dbe_cage: fig03.1,
            fig03_accounting: fig03.2,

            fig04_otb_monthly: fig04,
            fig05_otb_grid: fig05.0,
            fig05_otb_cage: fig05.1,

            fig06_retire_monthly: fig06,
            fig07_retire_grid: fig07.0,
            fig07_retire_cage: fig07.1,

            fig08_delays: fig08,

            fig09_xid_monthly: fig09,
            fig10_xid13_monthly: fig10.0,
            fig10_xid13_burstiness: fig10.1,
            fig10_xid43_burstiness: fig10.2,
            fig11_uchalt_monthly: fig11,

            fig12_xid13_spatial: fig12.0,
            fig12_incident_stripe: fig12.1,

            fig13_heatmap: heatmap,
            fig14_15_offenders: offenders,
            fig16_19_correlation: correlation,
            fig20_user: user,
            fig21_workload: fig21,

            sbe_by_structure,

            thermal,
            granularity,
        }
    }

    /// Monthly series for a Fig. 9 kind, if computed.
    pub fn fig09_series(&self, kind: GpuErrorKind) -> Option<&MonthlySeries> {
        self.fig09_xid_monthly.iter().find(|s| s.kind == kind)
    }
}

/// §4's SBE totals per ECC-counted structure over every job delta,
/// largest first.
fn sbe_by_structure(data: &StudyData) -> Vec<(MemoryStructure, u64)> {
    let mut totals: Vec<(MemoryStructure, u64)> = MemoryStructure::ECC_COUNTED
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
    totals.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    totals
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
        use titan_analysis::filtering::{dedup_by_job, dedup_job_level};
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
            let only: Vec<_> = console.iter().filter(|e| e.kind == X13).copied().collect();
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
