//! Fig. 8: how soon after a DBE does its ECC page-retirement record
//! appear?
//!
//! The paper: "18 page retirement happens within 10 minutes of a DBE
//! occurrence, while only 1 event happened between 10 minutes and 6
//! hours. … Cases where ECC page retirement occurs much later after the
//! DBE occurrence … are likely caused by two SBEs happening in the same
//! page. We found that there were 17 instances when no ECC page
//! retirement happened between two successive DBEs."

use serde::{Deserialize, Serialize};
use titan_conlog::ConsoleEvent;
use titan_gpu::GpuErrorKind;

/// Ten minutes, the paper's prompt-bucket edge.
pub const PROMPT_EDGE_SECS: u64 = 600;
/// Six hours, the paper's delayed-bucket edge.
pub const DELAYED_EDGE_SECS: u64 = 6 * 3600;

/// The Fig. 8 distribution.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetirementDelays {
    /// Retirements recorded within 10 minutes of the preceding DBE on the
    /// same node.
    pub within_10min: u64,
    /// Recorded between 10 minutes and 6 hours after it.
    pub min10_to_6h: u64,
    /// Recorded later than 6 hours after the preceding DBE (the paper
    /// attributes these to the two-SBE path).
    pub later: u64,
    /// Retirement records with *no* preceding DBE on that node at all —
    /// pure two-SBE retirements.
    pub no_preceding_dbe: u64,
    /// Successive same-node DBE pairs with no retirement record between
    /// them (the paper's 17 cases).
    pub dbe_pairs_without_retirement: u64,
    /// Raw delays in seconds (for ECDF rendering), one per retirement
    /// with a preceding DBE.
    pub delays: Vec<u64>,
}

impl RetirementDelays {

    /// The paper's qualitative claim: the prompt bucket dominates the
    /// 10 min–6 h bucket.
    pub fn prompt_dominates(&self) -> bool {
        self.within_10min > self.min10_to_6h
    }
}

/// Computes the distribution with *fleet-wide* matching, following the
/// paper's framing: each retirement record is matched against the most
/// recent DBE anywhere on the machine ("the distribution of ECC page
/// retirement errors under different time intervals since the last
/// DBE"), and each pair of successive fleet DBEs is checked for an
/// intervening retirement record ("17 instances when no ECC page
/// retirement happened between two successive DBEs").
///
/// Only events at/after `since` participate — the paper restricts the
/// analysis to the post-Jan'14 period where XID 63 exists ("the DBE
/// occurrences happening only after the period Jan'2014 are accounted").
pub fn retirement_delays(events: &[ConsoleEvent], since: u64) -> RetirementDelays {
    let mut dbes: Vec<u64> = Vec::new();
    let mut rets: Vec<u64> = Vec::new();
    for ev in events.iter().filter(|e| e.time >= since) {
        match ev.kind {
            GpuErrorKind::DoubleBitError => dbes.push(ev.time),
            GpuErrorKind::EccPageRetirement => rets.push(ev.time),
            _ => {}
        }
    }
    dbes.sort_unstable();
    rets.sort_unstable();

    let mut out = RetirementDelays::default();

    // Classify each retirement by the latest DBE at or before it.
    for &rt in &rets {
        let i = dbes.partition_point(|&t| t <= rt);
        if i == 0 {
            out.no_preceding_dbe += 1;
            continue;
        }
        let delay = rt - dbes[i - 1];
        out.delays.push(delay);
        if delay < PROMPT_EDGE_SECS {
            out.within_10min += 1;
        } else if delay < DELAYED_EDGE_SECS {
            out.min10_to_6h += 1;
        } else {
            out.later += 1;
        }
    }

    // Successive DBE pairs with no retirement between them.
    for w in dbes.windows(2) {
        let i = rets.partition_point(|&t| t <= w[0]);
        let any_between = i < rets.len() && rets[i] <= w[1];
        if !any_between {
            out.dbe_pairs_without_retirement += 1;
        }
    }

    out.delays.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_topology::NodeId;

    fn ev(time: u64, node: u32, kind: GpuErrorKind) -> ConsoleEvent {
        ConsoleEvent {
            time,
            node: NodeId(node),
            kind,
            structure: None,
            page: None,
            apid: None,
        }
    }

    use GpuErrorKind::{DoubleBitError as DBE, EccPageRetirement as RET};

    #[test]
    fn prompt_and_delayed_buckets() {
        let events = vec![
            ev(1_000, 1, DBE),
            ev(1_100, 1, RET),   // +100 s: prompt
            ev(50_000, 1, DBE),
            ev(51_000, 1, RET),  // +1000 s: 10min–6h
            ev(200_000, 2, DBE),
            ev(300_000, 2, RET), // +100000 s: later
            ev(5, 3, RET),       // no preceding DBE
        ];
        let d = retirement_delays(&events, 0);
        assert_eq!(d.within_10min, 1);
        assert_eq!(d.min10_to_6h, 1);
        assert_eq!(d.later, 1);
        assert_eq!(d.no_preceding_dbe, 1);
        assert_eq!(d.delays, vec![100, 1_000, 100_000]);
    }

    #[test]
    fn dbe_pairs_without_retirement_counted() {
        let events = vec![
            ev(0, 1, DBE),
            ev(100, 1, DBE),   // pair 1: nothing between
            ev(200, 1, RET),
            ev(300, 1, DBE),   // pair 2: RET at 200 between 100 and 300
            ev(1_000, 1, DBE), // pair 3: nothing between
        ];
        let d = retirement_delays(&events, 0);
        assert_eq!(d.dbe_pairs_without_retirement, 2);
    }

    #[test]
    fn matching_is_fleet_wide() {
        // A retirement on another node still matches the fleet's last
        // DBE — the paper's Fig. 8 is machine-level.
        let events = vec![
            ev(0, 1, DBE),
            ev(50, 2, RET), // different node, 50 s after the fleet DBE
        ];
        let d = retirement_delays(&events, 0);
        assert_eq!(d.no_preceding_dbe, 0);
        assert_eq!(d.within_10min, 1);
    }

    #[test]
    fn since_cutoff_applies() {
        let events = vec![ev(10, 1, DBE), ev(20, 1, RET)];
        let d = retirement_delays(&events, 1_000);
        assert_eq!(d.no_preceding_dbe + d.within_10min + d.min10_to_6h + d.later, 0);
        assert_eq!(d.dbe_pairs_without_retirement, 0);
    }

    #[test]
    fn prompt_dominates_predicate() {
        let mut d = RetirementDelays::default();
        d.within_10min = 18;
        d.min10_to_6h = 1;
        assert!(d.prompt_dominates());
    }
}
