//! # titan-analysis
//!
//! The paper's contribution: the log-analysis methodology that turns raw
//! console logs, job logs, and nvidia-smi snapshots into the findings of
//! §3–§4. Every module implements one family of figures:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`filtering`] | §2.2 parent/child filtering; the 5 s job-level dedup of Fig. 12 |
//! | [`timeseries`] | monthly frequencies: Figs. 2, 4, 6, 9, 10, 11; MTBF & burstiness (Obs. 1, 6) |
//! | [`spatial`] | 25×8 cabinet grids & cage tallies: Figs. 3, 5, 7, 12 |
//! | [`interarrival`] | DBE → page-retirement delays: Fig. 8 |
//! | [`cooccurrence`] | the 300 s parent→child heatmap: Fig. 13 |
//! | [`offenders`] | SBE skew & top-K exclusion: Figs. 14, 15 (Obs. 10) |
//! | [`correlation`] | utilization ↔ SBE: Figs. 16–19 (Obs. 11, 12) |
//! | [`user_proxy`] | per-user SBE exposure: Fig. 20 (Obs. 13) |
//! | [`workload_charac`] | workload shapes: Fig. 21 (Obs. 14) |
//! | [`consistency`] | console vs nvidia-smi DBE accounting (Obs. 2) |
//! | [`checkpoint`] | extension: Young/Daly intervals + policy replay on the failure trace (the intro's checkpointing motivation; ref \[32\]) |
//! | [`thermal`] | the §3.1 temperature derivation: cage gradient from nvidia-smi snapshots |
//! | [`granularity`] | §4's aprun-attribution limitation, quantified |
//!
//! **Blindness rule**: functions here accept only the four observable
//! data sources ([`titan_conlog::ConsoleEvent`]s, [`titan_conlog::JobRecord`]s,
//! [`titan_nvsmi::JobEccDelta`]s, [`titan_nvsmi::GpuSnapshot`]s) — never
//! simulator ground truth. Integration tests *compare* analysis output to
//! ground truth; the analysis itself cannot see it, exactly like the
//! paper's authors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod consistency;
pub mod cooccurrence;
pub mod correlation;
pub mod filtering;
pub mod granularity;
pub mod interarrival;
pub mod offenders;
pub mod spatial;
pub mod thermal;
pub mod timeseries;
pub mod user_proxy;
pub mod workload_charac;

pub use checkpoint::{daly_interval, evaluate_policy, young_interval, CheckpointPolicy};
pub use consistency::{dbe_accounting, DbeAccounting};
pub use cooccurrence::{cooccurrence_heatmap, Heatmap};
pub use correlation::{job_sbe_correlations, CorrelationStudy, SortedSeries};
pub use filtering::FilterOutcome;
pub use granularity::{aprun_granularity, GranularityReport};
pub use interarrival::{retirement_delays, RetirementDelays};
pub use offenders::{sbe_offender_analysis, OffenderAnalysis};
pub use spatial::{cage_tally, spatial_grid, spatial_with_filtering, SpatialFiltering};
pub use thermal::{thermal_survey, ThermalSurvey};
pub use timeseries::{monthly_counts, MonthlySeries};
pub use user_proxy::{user_level_correlation, UserStudy};
pub use workload_charac::{workload_characterization, WorkloadCharacterization};
