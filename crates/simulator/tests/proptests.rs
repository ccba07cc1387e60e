//! Property-based tests for the fleet simulator: whatever the seed and
//! window, the structural invariants of the output hold.
//!
//! Windows are kept short (3–10 days) so the whole suite stays fast; the
//! invariants do not depend on window length.

use proptest::prelude::*;
use titan_gpu::GpuErrorKind;
use titan_sim::{SimConfig, Simulator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Console events are time-sorted, in-window, and SBE-free; job
    /// records and their sparse SBE deltas are self-consistent; snapshot
    /// totals never exceed truth.
    #[test]
    fn structural_invariants(seed in 0u64..1_000_000, days in 3u64..10) {
        let out = Simulator::new(SimConfig::quick(days, seed))
            .expect("valid config")
            .run();
        let window = days * 86_400;

        // Console ordering and bounds.
        prop_assert!(out.console.windows(2).all(|w| w[0].time <= w[1].time));
        prop_assert!(out
            .console
            .iter()
            .all(|e| e.time <= window + 5));
        prop_assert!(out
            .console
            .iter()
            .all(|e| e.kind != GpuErrorKind::SingleBitError));

        // Jobs: unique apids, wall within request, nodes nonempty.
        let mut apids: Vec<u64> = out.jobs.iter().map(|j| j.apid).collect();
        apids.sort_unstable();
        let n = apids.len();
        apids.dedup();
        prop_assert_eq!(apids.len(), n);
        for j in &out.jobs {
            prop_assert!(j.end >= j.start);
            prop_assert!(!j.nodes.is_empty());
            prop_assert!(j.gpu_core_hours >= 0.0);
        }

        // One SBE delta per job record. Each lists only nodes that gained
        // an SBE, in the job's allocation order, summing to the
        // per-structure deltas.
        prop_assert_eq!(out.jobs.len(), out.job_sbe.len());
        let jobs_by_apid: std::collections::BTreeMap<u64, &titan_conlog::JobRecord> =
            out.jobs.iter().map(|j| (j.apid, j)).collect();
        for d in &out.job_sbe {
            let j = jobs_by_apid[&d.apid];
            prop_assert!(d.per_node_sbe.iter().all(|&(_, c)| c > 0), "zero delta stored");
            let mut alloc = j.nodes.iter();
            for (n, _) in &d.per_node_sbe {
                prop_assert!(alloc.any(|a| a == *n), "node {:?} out of allocation order", n);
            }
            let per_structure: u64 = d.per_structure_sbe.iter().sum();
            prop_assert_eq!(d.total_sbe(), per_structure);
        }

        // Aprun segments sit inside their jobs.
        let by_apid: std::collections::HashMap<u64, (u64, u64)> = out
            .jobs
            .iter()
            .map(|j| (j.apid, (j.start, j.end)))
            .collect();
        for a in &out.apruns {
            let (s, e) = by_apid[&a.apid];
            prop_assert!(a.start >= s && a.end <= e, "aprun outside job");
        }

        // Snapshots never report more SBEs than were injected.
        let snap_total: u64 = out.final_snapshots.iter().map(|s| s.total_sbe()).sum();
        let truth_total: u64 = out.truth.sbe_by_card.iter().sum();
        prop_assert!(snap_total <= truth_total);

        // DBE truth and console agree exactly.
        let console_dbe = out
            .console
            .iter()
            .filter(|e| e.kind == GpuErrorKind::DoubleBitError)
            .count();
        prop_assert_eq!(console_dbe, out.truth.dbe.len());
    }

    /// The log round trip is lossless for arbitrary seeds.
    #[test]
    fn text_roundtrip_lossless(seed in 0u64..1_000_000) {
        let out = Simulator::new(SimConfig::quick(5, seed))
            .expect("valid config")
            .run();
        let (events, stats) =
            titan_conlog::format::parse_stream(&out.render_console_log());
        prop_assert_eq!(stats.skipped, 0);
        prop_assert_eq!(&events, &out.console);
        for line in out.render_job_log().lines() {
            prop_assert!(titan_conlog::JobRecord::parse(line).is_ok());
        }
        for line in out.render_aprun_log().lines() {
            prop_assert!(titan_conlog::Aprun::parse(line).is_some());
        }
    }
}
