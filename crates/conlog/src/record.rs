//! The typed console event — what one SEC-filtered console-log line means.

use serde::{Deserialize, Serialize};
use titan_gpu::{ErrorCategory, GpuErrorKind, MemoryStructure};
use titan_topology::NodeId;

use crate::time::SimTime;

/// One GPU-related critical system event, as logged on the SMW.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConsoleEvent {
    /// When the event was logged.
    pub time: SimTime,
    /// The reporting node.
    pub node: NodeId,
    /// What happened.
    pub kind: GpuErrorKind,
    /// Memory structure, when the line carries one (DBE lines do: the
    /// paper decoded per-structure DBE breakdowns "by decoding the error
    /// log", Fig. 3(c)).
    pub structure: Option<MemoryStructure>,
    /// Device-memory page, for retirement-related lines.
    pub page: Option<u32>,
    /// ALPS application id of the job running on the node, when one was.
    pub apid: Option<u64>,
}

impl ConsoleEvent {
    /// Whether the line reports a Table-1 (hardware) error.
    pub fn is_hardware(&self) -> bool {
        matches!(self.kind.category(), ErrorCategory::Hardware)
    }
}
