//! Simulation outputs: the four observable data sources the analysis
//! consumes, plus ground truth for verification only.

use serde::{Deserialize, Serialize};
use titan_conlog::time::SimTime;
use titan_conlog::{Aprun, ConsoleEvent, JobRecord, LogLine};
use titan_gpu::pages::RetirementCause;
use titan_gpu::MemoryStructure;
use titan_nvsmi::{GpuSnapshot, JobEccDelta};
use titan_topology::NodeId;

/// Ground truth about one injected DBE.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DbeTruth {
    /// Strike time.
    pub time: SimTime,
    /// Node struck.
    pub node: NodeId,
    /// Card struck.
    pub card: u32,
    /// Structure struck.
    pub structure: MemoryStructure,
    /// Whether NVML persisted it.
    pub persisted: bool,
    /// Job crashed, if any.
    pub crashed_apid: Option<u64>,
}

/// Ground truth about one off-the-bus failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OtbTruth {
    /// Failure time.
    pub time: SimTime,
    /// Node.
    pub node: NodeId,
    /// Card.
    pub card: u32,
}

/// Ground truth about one page retirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetireTruth {
    /// When the retirement condition was met.
    pub time: SimTime,
    /// Card.
    pub card: u32,
    /// Why.
    pub cause: RetirementCause,
    /// Whether a console record (XID 63) was emitted — the paper found 17
    /// DBE pairs with *no* retirement record between them.
    pub emitted: bool,
}

/// Ground truth about one hot-spare swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapTruth {
    /// Swap execution time.
    pub time: SimTime,
    /// Slot serviced.
    pub slot: u32,
    /// Card removed.
    pub old_card: u32,
    /// Card installed.
    pub new_card: u32,
    /// Whether the removed card subsequently failed hot-spare stress
    /// testing and was returned to the vendor.
    pub returned_to_vendor: bool,
}

/// Everything the simulator knows that the analysis must *not* see.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Injected DBEs.
    pub dbe: Vec<DbeTruth>,
    /// Off-the-bus failures.
    pub otb: Vec<OtbTruth>,
    /// Page retirements.
    pub retirements: Vec<RetireTruth>,
    /// Hot-spare swaps.
    pub swaps: Vec<SwapTruth>,
    /// Accepted SBEs per card id.
    pub sbe_by_card: Vec<u64>,
    /// Accepted SBEs per slot (at strike-time placement).
    pub sbe_by_slot: Vec<u64>,
    /// Accepted SBEs per ECC-counted structure.
    pub sbe_by_structure: Vec<u64>,
    /// SBE drafts rejected by activity thinning.
    pub sbe_rejected: u64,
    /// Software incidents that found no running job to strike.
    pub software_skipped: u64,
}

/// The observable outputs plus ground truth.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimOutput {
    /// Console events, sorted by time (SEC-filtered critical events).
    pub console: Vec<ConsoleEvent>,
    /// Completed batch job records.
    pub jobs: Vec<JobRecord>,
    /// Per-job SBE deltas from the nvidia-smi prologue/epilogue framework.
    pub job_sbe: Vec<JobEccDelta>,
    /// Aprun segments inside each completed job (the ALPS log).
    pub apruns: Vec<Aprun>,
    /// End-of-study nvidia-smi snapshot of every production slot.
    pub final_snapshots: Vec<GpuSnapshot>,
    /// Jobs the scheduler never started.
    pub schedule_dropped: usize,
    /// Verification-only ground truth.
    pub truth: GroundTruth,
}

impl SimOutput {
    /// Renders the console log as text — the exact artifact the paper's
    /// pipeline parsed on the SMW.
    pub fn render_console_log(&self) -> String {
        render_log(&self.console, self.console.len() * 96)
    }

    /// Renders the job log into a string sized from the jobs' node
    /// counts, so it grows at most once.
    pub fn render_job_log(&self) -> String {
        render_log(&self.jobs, job_log_reserve(&self.jobs))
    }

    /// Renders the aprun (ALPS) log.
    pub fn render_aprun_log(&self) -> String {
        render_log(&self.apruns, self.apruns.len() * 48)
    }

}

/// The bytes reserved for the job log. A line is ~130 bytes of fields
/// plus the node ranges: at most 6 bytes per node (`19199,`), 3.6 on
/// average over a full study. 160 + 4 bytes per node is never less than
/// half the log, so the log grows at most once and mostly not at all.
fn job_log_reserve(jobs: &[JobRecord]) -> usize {
    jobs.iter().map(|j| 160 + 4 * j.nodes.len()).sum()
}

/// Renders one log: each record's line, newline-terminated, written
/// straight into the result (`reserve` bytes reserved up front).
fn render_log<T: LogLine>(records: &[T], reserve: usize) -> String {
    let mut s = String::with_capacity(reserve);
    for r in records {
        r.write_line(&mut s);
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_conlog::format;
    use titan_gpu::GpuErrorKind;

    #[test]
    fn render_roundtrip_empty() {
        let out = SimOutput::default();
        assert_eq!(out.render_console_log(), "");
        assert_eq!(out.render_job_log(), "");
    }

    #[test]
    fn job_log_reserve_holds_at_least_half_the_log() {
        // Widest fields, and every node its own five-digit run.
        let job = |apid| JobRecord {
            apid,
            user: u32::MAX,
            nodes: (10_000..19_200).step_by(2).map(NodeId).collect(),
            start: u64::MAX / 2,
            end: u64::MAX,
            gpu_core_hours: 1e15,
            max_memory_bytes: u64::MAX,
            total_memory_byte_hours: 1e15,
        };
        let out = SimOutput {
            jobs: vec![job(u64::MAX), job(1)],
            ..SimOutput::default()
        };
        let text = out.render_job_log();
        assert!(text.len() <= 2 * job_log_reserve(&out.jobs), "{}", text.len());
        assert_eq!(text, out.jobs.iter().map(|j| j.render() + "\n").collect::<String>());
    }

    #[test]
    fn console_render_parses_back() {
        let mut out = SimOutput::default();
        out.console.push(ConsoleEvent {
            time: 100,
            node: NodeId(5),
            kind: GpuErrorKind::DoubleBitError,
            structure: Some(MemoryStructure::DeviceMemory),
            page: Some(3),
            apid: Some(77),
        });
        let text = out.render_console_log();
        let (events, stats) = format::parse_stream(&text);
        assert_eq!(stats.skipped, 0);
        assert_eq!(events, out.console);
    }
}
