//! # titan-nvsmi
//!
//! Simulation of the `nvidia-smi` utility as the paper's second data
//! source (§2.2):
//!
//! > "In addition to console logs, the GPU errors were also collected by
//! > running nvidia-smi utility on all the GPU nodes. This is primarily
//! > because console logs do not capture the single bit error
//! > information. However, note that this utility is a snapshot
//! > information and doesn't timestamp all the single bit errors. …
//! > Furthermore, we have very recently developed a framework where we
//! > can take nvidia-smi snapshots before and after each batch job."
//!
//! Three faithful limitations:
//!
//! 1. snapshots expose *aggregate counters only* — no per-event
//!    timestamps;
//! 2. DBE counts read from the InfoROM can be lower than console-log
//!    counts (crash-before-persist, Observation 2);
//! 3. per-job SBE attribution works only at batch-job granularity, "not
//!    on a per aprun basis".
//!
//! * [`snapshot`] — point-in-time per-GPU ECC readings.
//! * [`jobdiff`] — the per-job SBE delta the before/after-job snapshots
//!   yield (the simulator's engine computes it at job end).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jobdiff;
pub mod snapshot;

pub use jobdiff::JobEccDelta;
pub use snapshot::{summarize, EccCounts, FleetEccSummary, GpuSnapshot};
