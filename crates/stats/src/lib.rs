//! # titan-stats
//!
//! Statistics substrate for the Titan GPU reliability study reproduction.
//!
//! The SC '15 paper leans on a small but specific statistical toolkit:
//! Pearson and Spearman correlation with p-values (Observations 11–13),
//! MTBF estimation from inter-arrival times (Observation 1), burstiness
//! characterization (Observation 6), and heavy-tailed "offender"
//! distributions for per-card susceptibility (Observation 10). This crate
//! implements that toolkit from scratch so the rest of the workspace has no
//! external stats dependency.
//!
//! Everything here is deterministic given its inputs; samplers take an
//! explicit [`rand::Rng`] so callers control seeding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod ecdf;
pub mod estimators;
pub mod rank;
pub mod samplers;
pub mod summary;

pub use correlation::{pearson, spearman, CorrResult};
pub use ecdf::Ecdf;
pub use estimators::{burstiness, mtbf_hours, InterArrival};
pub use rank::{average_ranks, top_k_indices};
pub use samplers::{Exponential, LogNormal, Pareto, PoissonCounter, Weibull, WeightedAlias};
pub use summary::Summary;
