//! The before/after-job snapshot framework (§2.2, §4).
//!
//! "We have very recently developed a framework where we can take
//! nvidia-smi snapshots before and after each batch job. This helps in
//! identifying the single bit error counts, location and its correlation
//! with different types of jobs. … the SBE counts can not be collected on
//! a per aprun basis instead it is collected on a job basis since the
//! nvidia-smi output is run before and after the job script."

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use titan_gpu::MemoryStructure;
use titan_topology::NodeId;

use crate::snapshot::GpuSnapshot;

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
    /// Per-structure SBE deltas in [`MemoryStructure::ECC_COUNTED`] order,
    /// summed over nodes.
    pub per_structure_sbe: Vec<u64>,
}

impl JobEccDelta {
    /// Total SBEs attributed to the job.
    pub fn total_sbe(&self) -> u64 {
        self.per_node_sbe.iter().map(|&(_, c)| c).sum()
    }

    /// Nodes that gained at least one SBE. Counts rather than takes the
    /// length, so a dense table (as in a checkpoint written before the
    /// table became sparse) gives the same value.
    pub fn affected_nodes(&self) -> usize {
        self.per_node_sbe.iter().filter(|&&(_, c)| c > 0).count()
    }

    /// SBE delta in one structure.
    pub fn structure_sbe(&self, s: MemoryStructure) -> u64 {
        MemoryStructure::ECC_COUNTED
            .iter()
            .position(|&m| m == s)
            .map_or(0, |i| self.per_structure_sbe[i])
    }
}

/// Pairs pre/post snapshots per job.
#[derive(Debug, Clone, Default)]
pub struct JobSnapshotFramework {
    pre: BTreeMap<u64, Vec<GpuSnapshot>>,
}

impl JobSnapshotFramework {
    /// Fresh framework.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the pre-job snapshots (one per allocated node, taken by
    /// the prologue).
    pub fn record_pre(&mut self, apid: u64, snapshots: Vec<GpuSnapshot>) {
        self.pre.insert(apid, snapshots);
    }

    /// Jobs with a pending prologue snapshot.
    pub fn pending(&self) -> usize {
        self.pre.len()
    }

    /// Consumes the post-job snapshots (epilogue) and produces the delta.
    /// Returns `None` when no prologue was recorded, or the node sets
    /// disagree (e.g. the job crashed nodes out from under the epilogue —
    /// real prologue/epilogue pairs do go missing).
    ///
    /// Deltas use *volatile + aggregate* totals and saturate at zero: a
    /// crash between the snapshots can reset volatile counters, which is
    /// exactly the undercount the paper describes.
    pub fn complete(&mut self, apid: u64, post: &[GpuSnapshot]) -> Option<JobEccDelta> {
        let pre = self.pre.remove(&apid)?;
        if pre.len() != post.len() {
            return None;
        }
        let mut per_node_sbe = Vec::new();
        let mut per_structure_sbe = vec![0u64; MemoryStructure::ECC_COUNTED.len()];
        for (b, a) in pre.iter().zip(post) {
            if b.node != a.node {
                return None;
            }
            let mut node_total = 0u64;
            for i in 0..MemoryStructure::ECC_COUNTED.len() {
                // The snapshot's aggregate field is NVML's reported
                // (persisted + pending) count, so a plain difference is
                // the job's contribution; saturation covers the
                // crash-lost-pending undercount.
                let d = a.aggregate[i].sbe.saturating_sub(b.aggregate[i].sbe);
                node_total += d;
                per_structure_sbe[i] += d;
            }
            if node_total > 0 {
                per_node_sbe.push((b.node, node_total));
            }
        }
        Some(JobEccDelta {
            apid,
            per_node_sbe,
            per_structure_sbe,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_gpu::{CardSerial, GpuCard};

    fn snap(node: u32, card: &GpuCard, t: u64) -> GpuSnapshot {
        GpuSnapshot::take(NodeId(node), card, t)
    }

    #[test]
    fn delta_counts_sbes_during_job() {
        let mut fw = JobSnapshotFramework::new();
        let mut c0 = GpuCard::new(CardSerial(0));
        let mut c1 = GpuCard::new(CardSerial(1));
        // Pre-existing history on c0 that must NOT count.
        c0.apply_sbe(MemoryStructure::L2Cache, None, true);
        c0.inforom.flush_sbe();

        fw.record_pre(99, vec![snap(10, &c0, 100), snap(11, &c1, 100)]);
        assert_eq!(fw.pending(), 1);

        // During the job: two SBEs on c0, one on c1.
        c0.apply_sbe(MemoryStructure::L2Cache, None, true);
        c0.apply_sbe(MemoryStructure::DeviceMemory, None, true);
        c1.apply_sbe(MemoryStructure::RegisterFile, None, true);

        let d = fw
            .complete(99, &[snap(10, &c0, 200), snap(11, &c1, 200)])
            .unwrap();
        assert_eq!(d.total_sbe(), 3);
        assert_eq!(d.affected_nodes(), 2);
        assert_eq!(d.structure_sbe(MemoryStructure::L2Cache), 1);
        assert_eq!(d.structure_sbe(MemoryStructure::DeviceMemory), 1);
        assert_eq!(d.structure_sbe(MemoryStructure::RegisterFile), 1);
        assert_eq!(fw.pending(), 0);
    }

    #[test]
    fn zero_delta_nodes_are_omitted_in_allocation_order() {
        let mut fw = JobSnapshotFramework::new();
        // Allocation order deliberately not sorted by node id.
        let nodes = [40u32, 7, 19, 3, 28];
        let mut cards: Vec<GpuCard> = (0..5).map(|i| GpuCard::new(CardSerial(i))).collect();
        let pre: Vec<_> = nodes
            .iter()
            .zip(&cards)
            .map(|(&n, c)| snap(n, c, 100))
            .collect();
        fw.record_pre(5, pre);

        // SBEs land on the 1st, 3rd and 5th allocated nodes only.
        cards[0].apply_sbe(MemoryStructure::L2Cache, None, true);
        cards[2].apply_sbe(MemoryStructure::DeviceMemory, None, true);
        cards[2].apply_sbe(MemoryStructure::RegisterFile, None, true);
        cards[4].apply_sbe(MemoryStructure::DeviceMemory, None, true);

        let post: Vec<_> = nodes
            .iter()
            .zip(&cards)
            .map(|(&n, c)| snap(n, c, 200))
            .collect();
        let d = fw.complete(5, &post).unwrap();
        assert_eq!(
            d.per_node_sbe,
            vec![(NodeId(40), 1), (NodeId(19), 2), (NodeId(28), 1)]
        );
        assert!(d.per_node_sbe.iter().all(|&(_, c)| c > 0));
        assert_eq!(d.affected_nodes(), 3);
        assert_eq!(d.total_sbe(), d.per_structure_sbe.iter().sum::<u64>());
        assert_eq!(d.total_sbe(), 4);
    }

    #[test]
    fn quiet_job_has_an_empty_table() {
        let mut fw = JobSnapshotFramework::new();
        let cards: Vec<GpuCard> = (0..3).map(|i| GpuCard::new(CardSerial(i))).collect();
        let take = |t| -> Vec<_> {
            cards
                .iter()
                .zip(0u32..)
                .map(|(c, n)| snap(n, c, t))
                .collect()
        };
        fw.record_pre(8, take(100));
        let d = fw.complete(8, &take(200)).unwrap();
        assert!(d.per_node_sbe.is_empty());
        assert_eq!(d.total_sbe(), 0);
        assert_eq!(d.affected_nodes(), 0);
        assert_eq!(
            d.per_structure_sbe,
            vec![0; MemoryStructure::ECC_COUNTED.len()]
        );
    }

    #[test]
    fn missing_prologue_gives_none() {
        let mut fw = JobSnapshotFramework::new();
        let c = GpuCard::new(CardSerial(0));
        assert!(fw.complete(1, &[snap(0, &c, 10)]).is_none());
    }

    #[test]
    fn node_set_mismatch_gives_none() {
        let mut fw = JobSnapshotFramework::new();
        let c = GpuCard::new(CardSerial(0));
        fw.record_pre(1, vec![snap(0, &c, 10)]);
        assert!(fw.complete(1, &[snap(5, &c, 20)]).is_none());
        // And the pending entry is consumed either way.
        assert_eq!(fw.pending(), 0);
    }

    #[test]
    fn crash_reset_saturates_to_zero() {
        let mut fw = JobSnapshotFramework::new();
        let mut c = GpuCard::new(CardSerial(0));
        c.apply_sbe(MemoryStructure::L2Cache, None, true);
        fw.record_pre(1, vec![snap(0, &c, 10)]);
        // Crash loses the volatile SBE.
        c.inforom.driver_reload(false);
        let d = fw.complete(1, &[snap(0, &c, 20)]).unwrap();
        assert_eq!(d.total_sbe(), 0, "undercount, never underflow");
    }

    #[test]
    fn flush_between_snapshots_not_double_counted() {
        let mut fw = JobSnapshotFramework::new();
        let mut c = GpuCard::new(CardSerial(0));
        c.apply_sbe(MemoryStructure::L2Cache, None, true);
        fw.record_pre(1, vec![snap(0, &c, 10)]);
        // The same error flushes from volatile to aggregate mid-job:
        // total distinct errors unchanged.
        c.inforom.flush_sbe();
        let d = fw.complete(1, &[snap(0, &c, 20)]).unwrap();
        assert_eq!(d.total_sbe(), 0);
    }
}
