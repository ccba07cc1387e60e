//! # titan-workload
//!
//! Synthetic HPC workload for the Titan fleet simulator.
//!
//! The paper's §4 correlates GPU errors against *batch job* resource
//! consumption and characterizes the workload itself (Fig. 21,
//! Observation 14). Real Titan job logs are not public ("many
//! applications that are run on Titan may be mission critical"), so this
//! crate generates a population with the same *marginal shapes* the paper
//! reports:
//!
//! * jobs with the highest memory consumption use *below-average* GPU
//!   core-hours and run on *smaller* node counts;
//! * jobs with long GPU core-hours tend to use *more* nodes;
//! * some of the *longest wall-clock* jobs have small node counts;
//! * user identity is a strong proxy for code behaviour (Observation 13),
//!   so generation is user-driven: each user has a archetype that fixes
//!   their job-size/memory/duration profile.
//!
//! Modules:
//!
//! * [`users`] — the user population and its archetypes.
//! * [`jobs`] — job arrival and sizing.
//! * [`allocation`] — ALPS-style node placement in folded-torus order
//!   (the mechanism behind Fig. 12's alternate-cabinet striping).
//! * [`apruns`] — aprun subdivision inside job scripts (the granularity
//!   at which SBE attribution is *impossible*, per §4).
//! * [`schedule`] — end-to-end generation: a time-ordered job schedule
//!   with per-job node lists, ready for the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod apruns;
pub mod jobs;
pub mod schedule;
pub mod users;

pub use allocation::TorusAllocator;
pub use jobs::{JobSpec, JobSizer};
pub use schedule::{ScheduleConfig, ScheduledJob, WorkloadSchedule};
pub use users::{UserArchetype, UserPopulation, UserProfile};
