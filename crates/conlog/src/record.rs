//! The typed console event — what one SEC-filtered console-log line means.

use serde::{Deserialize, Serialize};
use titan_gpu::{ErrorCategory, GpuErrorKind, MemoryStructure};
use titan_topology::NodeId;

use crate::time::SimTime;

/// Operator-facing severity, assigned by the SEC rules on the SMW.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational (e.g. a page-retirement recording).
    Info,
    /// Degrades a job but not the node.
    Warning,
    /// Node-level failure requiring operator attention.
    Critical,
}

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

    /// Severity under the default SEC rule set.
    pub fn severity(&self) -> Severity {
        use GpuErrorKind::*;
        match self.kind {
            EccPageRetirement => Severity::Info,
            GraphicsEngineException | GpuMemoryPageFault | PushBufferStream
            | PreemptiveCleanup => Severity::Warning,
            _ => Severity::Critical,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: GpuErrorKind) -> ConsoleEvent {
        ConsoleEvent {
            time: 100,
            node: NodeId(5),
            kind,
            structure: None,
            page: None,
            apid: None,
        }
    }

    #[test]
    fn severity_mapping() {
        assert_eq!(ev(GpuErrorKind::EccPageRetirement).severity(), Severity::Info);
        assert_eq!(
            ev(GpuErrorKind::GraphicsEngineException).severity(),
            Severity::Warning
        );
        assert_eq!(ev(GpuErrorKind::DoubleBitError).severity(), Severity::Critical);
        assert_eq!(ev(GpuErrorKind::OffTheBus).severity(), Severity::Critical);
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Critical);
    }
}
