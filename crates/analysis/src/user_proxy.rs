//! Fig. 20 / Observation 13: userID as a proxy for code behaviour.
//!
//! "Fig. 20(left) shows that typically users utilizing more GPU core
//! hours tend to experience higher SBE occurrences. Interestingly, the
//! Spearman coefficient is 0.80 … Our correlation coefficient actually
//! improves as the top 10 SBE offender nodes are excluded."

// BTree containers, not hash: `by_user.into_values()` feeds a sort
// keyed on core-hours alone, so tied users would otherwise surface in
// hash-iteration order (T1).
use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use titan_conlog::JobRecord;
use titan_nvsmi::{GpuSnapshot, JobEccDelta};
use titan_stats::{spearman, top_k_indices, CorrResult};
use titan_topology::NodeId;

/// One user's aggregate exposure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserRow {
    /// User id.
    pub user: u32,
    /// Total GPU core-hours across the user's jobs.
    pub core_hours: f64,
    /// Total SBEs attributed to the user's jobs.
    pub sbe: u64,
    /// Jobs counted.
    pub jobs: u32,
}

/// The Fig. 20 study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserStudy {
    /// Per-user rows sorted by core-hours ascending (all jobs).
    pub rows: Vec<UserRow>,
    /// Spearman over all jobs.
    pub spearman_all: Option<CorrResult>,
    /// Spearman excluding jobs that touched a top-10 offender node.
    pub spearman_excluding_top10: Option<CorrResult>,
}

/// Aggregates per-user core-hours and SBEs and correlates them.
pub fn user_level_correlation(
    jobs: &[JobRecord],
    deltas: &[JobEccDelta],
    snapshots: &[GpuSnapshot],
) -> UserStudy {
    let sbe_by_apid: BTreeMap<u64, u64> =
        deltas.iter().map(|d| (d.apid, d.total_sbe())).collect();

    let node_sbe: Vec<f64> = snapshots.iter().map(|s| s.total_sbe() as f64).collect();
    let offenders: BTreeSet<NodeId> = top_k_indices(&node_sbe, 10)
        .into_iter()
        .filter(|&i| node_sbe[i] > 0.0)
        .map(|i| snapshots[i].node)
        .collect();

    let aggregate = |exclude_offenders: bool| -> Vec<UserRow> {
        let mut by_user: BTreeMap<u32, UserRow> = BTreeMap::new();
        for j in jobs {
            let Some(&sbe) = sbe_by_apid.get(&j.apid) else {
                continue;
            };
            if exclude_offenders && j.nodes.intersects(&offenders) {
                continue;
            }
            let row = by_user.entry(j.user).or_insert(UserRow {
                user: j.user,
                core_hours: 0.0,
                sbe: 0,
                jobs: 0,
            });
            row.core_hours += j.gpu_core_hours;
            row.sbe += sbe;
            row.jobs += 1;
        }
        let mut rows: Vec<UserRow> = by_user.into_values().collect();
        rows.sort_by(|a, b| a.core_hours.total_cmp(&b.core_hours));
        rows
    };

    let rows = aggregate(false);
    let clean = aggregate(true);

    let corr = |rows: &[UserRow]| {
        let x: Vec<f64> = rows.iter().map(|r| r.core_hours).collect();
        let y: Vec<f64> = rows.iter().map(|r| r.sbe as f64).collect();
        spearman(&x, &y)
    };

    UserStudy {
        spearman_all: corr(&rows),
        spearman_excluding_top10: corr(&clean),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_gpu::{CardSerial, GpuCard, MemoryStructure};

    fn job(apid: u64, user: u32, nodes: &[u32], ch: f64) -> JobRecord {
        JobRecord {
            apid,
            user,
            nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
            start: 0,
            end: 3600,
            gpu_core_hours: ch,
            max_memory_bytes: 0,
            total_memory_byte_hours: 0.0,
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
    fn aggregates_per_user() {
        let jobs = vec![
            job(1, 7, &[0], 10.0),
            job(2, 7, &[1], 5.0),
            job(3, 8, &[2], 1.0),
        ];
        let deltas = vec![delta(1, 3), delta(2, 2), delta(3, 1)];
        let s = user_level_correlation(&jobs, &deltas, &[]);
        assert_eq!(s.rows.len(), 2);
        let u7 = s.rows.iter().find(|r| r.user == 7).unwrap();
        assert_eq!(u7.core_hours, 15.0);
        assert_eq!(u7.sbe, 5);
        assert_eq!(u7.jobs, 2);
    }

    #[test]
    fn monotone_exposure_gives_high_spearman() {
        // 20 users; user i runs i jobs of 1 core-hour with i SBEs each.
        let mut jobs = Vec::new();
        let mut deltas = Vec::new();
        let mut apid = 0;
        for u in 1..=20u32 {
            for _ in 0..u {
                jobs.push(job(apid, u, &[0], 1.0));
                deltas.push(delta(apid, u as u64));
                apid += 1;
            }
        }
        let s = user_level_correlation(&jobs, &deltas, &[]);
        let r = s.spearman_all.unwrap().r;
        assert!(r > 0.95, "{r}");
    }

    #[test]
    fn offender_exclusion_changes_population() {
        let jobs = vec![
            job(1, 1, &[100], 10.0),
            job(2, 1, &[5], 1.0),
            job(3, 2, &[6], 2.0),
        ];
        let deltas = vec![delta(1, 1000), delta(2, 1), delta(3, 2)];
        let snaps = vec![snap(100, 1000), snap(5, 1), snap(6, 2)];
        let s = user_level_correlation(&jobs, &deltas, &snaps);
        // Excluding the offender drops user 1's big job; both variants
        // must still compute.
        assert!(s.spearman_all.is_some());
        // With only 2 effective users post-exclusion the coefficient may
        // be degenerate but must not panic.
        let _ = s.spearman_excluding_top10;
    }

    #[test]
    fn empty_inputs() {
        let s = user_level_correlation(&[], &[], &[]);
        assert!(s.rows.is_empty());
        assert!(s.spearman_all.is_none());
    }
}
