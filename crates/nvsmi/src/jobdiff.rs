//! The per-job SBE delta of the before/after-job snapshot framework
//! (§2.2, §4).
//!
//! "We have very recently developed a framework where we can take
//! nvidia-smi snapshots before and after each batch job. This helps in
//! identifying the single bit error counts, location and its correlation
//! with different types of jobs. … the SBE counts can not be collected on
//! a per aprun basis instead it is collected on a job basis since the
//! nvidia-smi output is run before and after the job script."

use serde::{Deserialize, Serialize};
use titan_topology::NodeId;

/// SBE delta attributed to one batch job.
///
/// The per-node table is sparse: SBEs are rare and concentrated
/// (Observation 10; fewer than 5% of cards ever see one), so almost
/// every allocated node gains none during a job. Only nodes
/// that gained at least one SBE are listed, in allocation order; the
/// job's full node set is in its job-log record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEccDelta {
    /// The job.
    pub apid: u64,
    /// Nodes that gained ≥1 SBE during the job, with their delta, in
    /// allocation order. Zero deltas are never stored.
    pub per_node_sbe: Vec<(NodeId, u64)>,
    /// Per-structure SBE deltas in [`titan_gpu::MemoryStructure::ECC_COUNTED`] order,
    /// summed over nodes.
    pub per_structure_sbe: Vec<u64>,
}

impl JobEccDelta {
    /// Total SBEs attributed to the job.
    pub fn total_sbe(&self) -> u64 {
        self.per_node_sbe.iter().map(|&(_, c)| c).sum()
    }
}
