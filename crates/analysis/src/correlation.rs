//! Figs. 16–19: correlating per-job SBE counts with resource utilization.
//!
//! §4: "Fig. 16, 17, 18, and 19 have been sorted by maximum memory
//! consumption, total memory consumption, number of nodes, and the GPU
//! core hours, respectively. … the values have been normalized to average
//! value of the respective metrics. … our second case excludes jobs that
//! used any of the top 10 SBE offender nodes."

// BTree maps, not hash maps: both are get-only here, but keeping hash
// containers out of the report pipeline keeps T1's hash-iteration
// source list empty (and iteration stays an option later).
use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use titan_conlog::JobRecord;
use titan_nvsmi::{GpuSnapshot, JobEccDelta};
use titan_stats::{pearson, spearman, top_k_indices, CorrResult};
use titan_topology::NodeId;

/// The utilization metric a panel sorts by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobMetric {
    /// Fig. 16: peak per-node GPU memory.
    MaxMemory,
    /// Fig. 17: integrated memory byte-hours.
    TotalMemory,
    /// Fig. 18: node count.
    Nodes,
    /// Fig. 19: GPU core-hours.
    GpuCoreHours,
}

impl JobMetric {
    /// All four panels in figure order.
    pub const ALL: [JobMetric; 4] = [
        JobMetric::MaxMemory,
        JobMetric::TotalMemory,
        JobMetric::Nodes,
        JobMetric::GpuCoreHours,
    ];

    /// Extracts the metric from a job record.
    ///
    /// "Total memory consumption" follows the paper's aggregate-footprint
    /// reading: the per-node peak summed over the allocation (bytes ×
    /// nodes), *not* integrated over time — integrating would make the
    /// metric a disguised node-hours count and trivially correlate with
    /// exposure.
    pub fn of(self, job: &JobRecord) -> f64 {
        match self {
            JobMetric::MaxMemory => job.max_memory_bytes as f64,
            JobMetric::TotalMemory => job.max_memory_bytes as f64 * job.node_count() as f64,
            JobMetric::Nodes => job.node_count() as f64,
            JobMetric::GpuCoreHours => job.gpu_core_hours,
        }
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            JobMetric::MaxMemory => "max memory",
            JobMetric::TotalMemory => "total memory",
            JobMetric::Nodes => "number of nodes",
            JobMetric::GpuCoreHours => "GPU core hours",
        }
    }
}

/// One panel's data: jobs sorted by the metric, both series normalized to
/// their mean (the paper's presentation), plus the two coefficients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SortedSeries {
    /// The sorting metric.
    pub metric: JobMetric,
    /// Normalized metric values, ascending.
    pub metric_norm: Vec<f64>,
    /// Normalized SBE counts, aligned with `metric_norm`.
    pub sbe_norm: Vec<f64>,
    /// Spearman rank correlation.
    pub spearman: Option<CorrResult>,
    /// Pearson correlation.
    pub pearson: Option<CorrResult>,
}

/// The full Figs. 16–19 study: every metric × {all jobs, offender-free}.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelationStudy {
    /// Panels over all jobs.
    pub all_jobs: Vec<SortedSeries>,
    /// Panels excluding jobs that touched a top-10 offender node.
    pub excluding_top10: Vec<SortedSeries>,
    /// Jobs in the joined population.
    pub n_jobs: usize,
    /// Jobs dropped by the offender exclusion.
    pub n_excluded: usize,
    /// The top-10 offender nodes (from snapshots), for reporting.
    pub offender_nodes: Vec<NodeId>,
}

/// Joins job records with their SBE deltas and runs all panels.
///
/// `snapshots` provide the per-node lifetime SBE counts used to define
/// the "top 10 SBE offender nodes" exclusion, mirroring the paper.
pub fn job_sbe_correlations(
    jobs: &[JobRecord],
    deltas: &[JobEccDelta],
    snapshots: &[GpuSnapshot],
) -> CorrelationStudy {
    let sbe_by_apid: BTreeMap<u64, u64> =
        deltas.iter().map(|d| (d.apid, d.total_sbe())).collect();

    // Joined rows: (job, sbe).
    let rows: Vec<(&JobRecord, f64)> = jobs
        .iter()
        .filter_map(|j| sbe_by_apid.get(&j.apid).map(|&s| (j, s as f64)))
        .collect();

    // Offender nodes from snapshots.
    let node_sbe: Vec<f64> = snapshots.iter().map(|s| s.total_sbe() as f64).collect();
    let offender_nodes: Vec<NodeId> = top_k_indices(&node_sbe, 10)
        .into_iter()
        .filter(|&i| node_sbe[i] > 0.0)
        .map(|i| snapshots[i].node)
        .collect();
    let offender_set: BTreeSet<NodeId> = offender_nodes.iter().copied().collect();

    let clean_rows: Vec<(&JobRecord, f64)> = rows
        .iter()
        .filter(|(j, _)| !j.nodes.intersects(&offender_set))
        .copied()
        .collect();

    let all_jobs = JobMetric::ALL
        .iter()
        .map(|&m| panel(&rows, m))
        .collect();
    let excluding_top10 = JobMetric::ALL
        .iter()
        .map(|&m| panel(&clean_rows, m))
        .collect();

    CorrelationStudy {
        all_jobs,
        excluding_top10,
        n_jobs: rows.len(),
        n_excluded: rows.len() - clean_rows.len(),
        offender_nodes,
    }
}

fn panel(rows: &[(&JobRecord, f64)], metric: JobMetric) -> SortedSeries {
    let mut pairs: Vec<(f64, f64)> = rows.iter().map(|(j, s)| (metric.of(j), *s)).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let sp = spearman(&xs, &ys);
    let pe = pearson(&xs, &ys);
    SortedSeries {
        metric,
        metric_norm: normalize_to_mean(&xs),
        sbe_norm: normalize_to_mean(&ys),
        spearman: sp,
        pearson: pe,
    }
}

/// The paper's normalization: divide by the series mean (no-op for an
/// all-zero series).
pub fn normalize_to_mean(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean == 0.0 {
        return xs.to_vec();
    }
    xs.iter().map(|&x| x / mean).collect()
}

impl CorrelationStudy {
    /// Panel lookup by metric.
    pub fn panel(&self, metric: JobMetric, excluding: bool) -> Option<&SortedSeries> {
        let set = if excluding {
            &self.excluding_top10
        } else {
            &self.all_jobs
        };
        set.iter().find(|p| p.metric == metric)
    }

    /// Spearman coefficient for a metric (all-jobs case).
    pub fn spearman_of(&self, metric: JobMetric, excluding: bool) -> Option<f64> {
        self.panel(metric, excluding)?.spearman.map(|r| r.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_gpu::{CardSerial, GpuCard, MemoryStructure};

    fn job(apid: u64, nodes: &[u32], core_hours: f64, max_mem: u64) -> JobRecord {
        JobRecord {
            apid,
            user: 0,
            nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
            start: 0,
            end: 3600,
            gpu_core_hours: core_hours,
            max_memory_bytes: max_mem,
            total_memory_byte_hours: max_mem as f64 * nodes.len() as f64,
        }
    }

    fn delta(apid: u64, sbe: u64) -> JobEccDelta {
        JobEccDelta {
            apid,
            per_node_sbe: vec![(NodeId(0), sbe)],
            per_structure_sbe: vec![sbe, 0, 0, 0, 0],
        }
    }

    fn snap(node: u32, sbe: u64) -> GpuSnapshot {
        let mut card = GpuCard::new(CardSerial(node));
        for _ in 0..sbe {
            card.apply_sbe(MemoryStructure::L2Cache, None, true);
        }
        GpuSnapshot::take(NodeId(node), &card, 0)
    }

    #[test]
    fn perfect_core_hour_correlation() {
        let jobs: Vec<JobRecord> = (0..30)
            .map(|i| job(i, &[i as u32], (i + 1) as f64, 1 << 20))
            .collect();
        let deltas: Vec<JobEccDelta> = (0..30).map(|i| delta(i, i + 1)).collect();
        let study = job_sbe_correlations(&jobs, &deltas, &[]);
        let r = study.spearman_of(JobMetric::GpuCoreHours, false).unwrap();
        assert!((r - 1.0).abs() < 1e-9, "{r}");
        assert_eq!(study.n_jobs, 30);
        assert_eq!(study.n_excluded, 0);
    }

    #[test]
    fn offender_exclusion_drops_jobs() {
        let jobs = vec![
            job(1, &[100], 1.0, 1),
            job(2, &[200], 2.0, 1),
            job(3, &[100, 300], 3.0, 1),
        ];
        let deltas = vec![delta(1, 50), delta(2, 1), delta(3, 60)];
        // Node 100 is the offender.
        let snaps = vec![snap(100, 500), snap(200, 1), snap(300, 0)];
        let study = job_sbe_correlations(&jobs, &deltas, &snaps);
        assert!(study.offender_nodes.contains(&NodeId(100)));
        // With fewer than 10 nonzero-SBE nodes, every one of them is a
        // "top-10 offender": nodes 100 and 200 both qualify, node 300
        // (zero SBEs) does not — so all three jobs are excluded except
        // none touch only node 300.
        assert!(study.offender_nodes.contains(&NodeId(200)));
        assert!(!study.offender_nodes.contains(&NodeId(300)));
        assert_eq!(study.n_excluded, 3);
    }

    #[test]
    fn join_skips_jobs_without_delta() {
        let jobs = vec![job(1, &[0], 1.0, 1), job(2, &[1], 2.0, 1)];
        let deltas = vec![delta(1, 5)];
        let study = job_sbe_correlations(&jobs, &deltas, &[]);
        assert_eq!(study.n_jobs, 1);
    }

    #[test]
    fn normalization_to_mean() {
        assert_eq!(normalize_to_mean(&[1.0, 3.0]), vec![0.5, 1.5]);
        assert_eq!(normalize_to_mean(&[]), Vec::<f64>::new());
        assert_eq!(normalize_to_mean(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn series_sorted_by_metric() {
        let jobs: Vec<JobRecord> = vec![
            job(1, &[0], 5.0, 10),
            job(2, &[1], 1.0, 30),
            job(3, &[2], 3.0, 20),
        ];
        let deltas: Vec<JobEccDelta> = vec![delta(1, 1), delta(2, 2), delta(3, 3)];
        let study = job_sbe_correlations(&jobs, &deltas, &[]);
        let p = study.panel(JobMetric::GpuCoreHours, false).unwrap();
        assert!(p.metric_norm.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(p.metric_norm.len(), 3);
        // Mean-normalized: average must be 1.
        let avg: f64 = p.metric_norm.iter().sum::<f64>() / 3.0;
        assert!((avg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        let study = job_sbe_correlations(&[], &[], &[]);
        assert_eq!(study.n_jobs, 0);
        assert!(study.spearman_of(JobMetric::Nodes, false).is_none());
    }
}
