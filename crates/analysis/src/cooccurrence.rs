//! Fig. 13: the temporal re-occurrence heatmap.
//!
//! "The figure shows the fraction of Xid events shown on 'Previous
//! Failure' axis that will observe an event shown on 'Following Failure'
//! within a 300 sec window. … The top heatmap includes all event pairs
//! while the bottom heatmap excludes the pairs of same type of events."
//!
//! Co-occurrence is scoped to the same node or the same job (apid): a
//! following failure on an unrelated node across the machine is not a
//! child of this event.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use titan_conlog::ConsoleEvent;
use titan_gpu::GpuErrorKind;
use titan_topology::{NodeId, TOTAL_SLOTS};

/// The paper's 300-second window.
pub const WINDOW_SECS: u64 = 300;

/// The kinds plotted on Fig. 13's axes, in display order.
pub const HEATMAP_KINDS: [GpuErrorKind; 13] = [
    GpuErrorKind::GraphicsEngineException, // 13
    GpuErrorKind::OffTheBus,
    GpuErrorKind::GpuMemoryPageFault,   // 31
    GpuErrorKind::DriverFirmware,       // 38
    GpuErrorKind::GpuStoppedProcessing, // 43
    GpuErrorKind::ContextSwitchFault,   // 44
    GpuErrorKind::PreemptiveCleanup,    // 45
    GpuErrorKind::DoubleBitError,       // 48
    GpuErrorKind::VideoMemoryProgramming, // 57
    GpuErrorKind::UnstableVideoMemory,  // 58
    GpuErrorKind::MicrocontrollerHaltOld, // 59
    GpuErrorKind::MicrocontrollerHaltNew, // 62
    GpuErrorKind::EccPageRetirement,    // 63
];

/// A (previous × following) fraction matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heatmap {
    /// Kinds on both axes.
    pub kinds: Vec<GpuErrorKind>,
    /// `fraction[i][j]` = P(an event of kinds\[i\] sees kinds\[j\] within
    /// the window, same node or same job).
    pub fraction: Vec<Vec<f64>>,
    /// Events of each previous-kind (the denominators).
    pub totals: Vec<u64>,
}

impl Heatmap {
    /// Fraction for a (previous, following) pair.
    pub fn get(&self, prev: GpuErrorKind, follow: GpuErrorKind) -> Option<f64> {
        let i = self.kinds.iter().position(|&k| k == prev)?;
        let j = self.kinds.iter().position(|&k| k == follow)?;
        Some(self.fraction[i][j])
    }

    /// The variant with the diagonal removed (the paper's bottom panel).
    pub fn without_diagonal(&self) -> Heatmap {
        let mut h = self.clone();
        for i in 0..h.kinds.len() {
            h.fraction[i][i] = 0.0;
        }
        h
    }

}

/// Builds the Fig. 13 heatmap. Events must be time-sorted.
///
/// One sweep from the end of the slice. For each of the 13 kinds it
/// keeps the time of the next later event (in slice order) per node and
/// per apid, so an event sees a following kind exactly when the nearer
/// of the two lies within [`WINDOW_SECS`]: O(n·13), however many lines a
/// job-wide incident puts into one window. On time-sorted input the next
/// later event is also the earliest one, so this counts what a forward
/// scan of every window counts; events at equal times follow only those
/// before them in the slice. Unsorted input gives some counts and no
/// panic.
pub fn cooccurrence_heatmap(events: &[ConsoleEvent]) -> Heatmap {
    const N: usize = HEATMAP_KINDS.len();
    type NextTimes = [Option<u64>; N];

    // Parsed node ids index the machine's slots; any other id still
    // pairs by node, through the map.
    let mut next_by_slot: Vec<NextTimes> = vec![[None; N]; TOTAL_SLOTS];
    let mut next_by_other_node: BTreeMap<NodeId, NextTimes> = BTreeMap::new();
    let mut next_by_apid: BTreeMap<u64, NextTimes> = BTreeMap::new();

    let mut followed = [[0u64; N]; N];
    let mut totals = [0u64; N];
    for e in events.iter().rev() {
        let Some(i) = HEATMAP_KINDS.iter().position(|&k| k == e.kind) else {
            continue;
        };
        let within =
            |next: &Option<u64>| next.is_some_and(|t| t.saturating_sub(e.time) <= WINDOW_SECS);
        let slot = usize::try_from(e.node.0).ok();
        let by_node = match slot.and_then(|k| next_by_slot.get_mut(k)) {
            Some(next) => next,
            None => next_by_other_node.entry(e.node).or_insert([None; N]),
        };
        let by_apid = e
            .apid
            .map(|apid| next_by_apid.entry(apid).or_insert([None; N]));
        if let (Some(row), Some(total)) = (followed.get_mut(i), totals.get_mut(i)) {
            *total += 1;
            let none = [None; N];
            let apid_next = by_apid.as_deref().unwrap_or(&none);
            for ((cell, n), a) in row.iter_mut().zip(by_node.iter()).zip(apid_next) {
                *cell += u64::from(within(n) || within(a));
            }
        }
        for next in std::iter::once(by_node).chain(by_apid) {
            if let Some(time) = next.get_mut(i) {
                *time = Some(e.time);
            }
        }
    }

    let fraction = followed
        .iter()
        .zip(&totals)
        .map(|(row, &t)| {
            row.iter()
                .map(|&f| if t == 0 { 0.0 } else { f as f64 / t as f64 })
                .collect()
        })
        .collect();

    Heatmap {
        kinds: HEATMAP_KINDS.to_vec(),
        fraction,
        totals: totals.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use GpuErrorKind::*;

    fn ev(time: u64, node: u32, kind: GpuErrorKind, apid: Option<u64>) -> ConsoleEvent {
        ConsoleEvent {
            time,
            node: NodeId(node),
            kind,
            structure: None,
            page: None,
            apid,
        }
    }

    #[test]
    fn dbe_followed_by_cleanup() {
        // Every DBE followed by XID 45 on the same node within 300 s.
        let mut events = Vec::new();
        for k in 0..10u64 {
            events.push(ev(k * 10_000, 1, DoubleBitError, None));
            events.push(ev(k * 10_000 + 60, 1, PreemptiveCleanup, None));
        }
        let h = cooccurrence_heatmap(&events);
        assert_eq!(h.get(DoubleBitError, PreemptiveCleanup), Some(1.0));
        assert_eq!(h.get(DoubleBitError, DoubleBitError), Some(0.0));
        assert_eq!(h.totals[7], 10); // DBE row
    }

    #[test]
    fn window_boundary() {
        let events = vec![
            ev(0, 1, DoubleBitError, None),
            ev(301, 1, PreemptiveCleanup, None), // past 300 s
        ];
        let h = cooccurrence_heatmap(&events);
        assert_eq!(h.get(DoubleBitError, PreemptiveCleanup), Some(0.0));
        let events = vec![
            ev(0, 1, DoubleBitError, None),
            ev(300, 1, PreemptiveCleanup, None), // at the edge: counted
        ];
        let h = cooccurrence_heatmap(&events);
        assert_eq!(h.get(DoubleBitError, PreemptiveCleanup), Some(1.0));
    }

    #[test]
    fn unrelated_nodes_do_not_pair() {
        let events = vec![
            ev(0, 1, DoubleBitError, None),
            ev(10, 2, PreemptiveCleanup, None), // other node, no apid
        ];
        let h = cooccurrence_heatmap(&events);
        assert_eq!(h.get(DoubleBitError, PreemptiveCleanup), Some(0.0));
    }

    #[test]
    fn same_apid_pairs_across_nodes() {
        let events = vec![
            ev(0, 1, GraphicsEngineException, Some(9)),
            ev(10, 2, GpuStoppedProcessing, Some(9)),
        ];
        let h = cooccurrence_heatmap(&events);
        assert_eq!(h.get(GraphicsEngineException, GpuStoppedProcessing), Some(1.0));
    }

    #[test]
    fn diagonal_counts_self_repeats() {
        let events = vec![
            ev(0, 1, GpuStoppedProcessing, None),
            ev(10, 1, GpuStoppedProcessing, None),
            ev(20, 1, GpuStoppedProcessing, None),
        ];
        let h = cooccurrence_heatmap(&events);
        // First two events see a same-kind follower; the third doesn't.
        let d = h.get(GpuStoppedProcessing, GpuStoppedProcessing).unwrap();
        assert!((d - 2.0 / 3.0).abs() < 1e-9);
        let no_diag = h.without_diagonal();
        assert_eq!(no_diag.get(GpuStoppedProcessing, GpuStoppedProcessing), Some(0.0));
    }

    #[test]
    fn multiple_followers_counted_once() {
        // Three XID 45s after one DBE: the fraction is still 1.0, not 3.
        let events = vec![
            ev(0, 1, DoubleBitError, None),
            ev(10, 1, PreemptiveCleanup, None),
            ev(20, 1, PreemptiveCleanup, None),
            ev(30, 1, PreemptiveCleanup, None),
        ];
        let h = cooccurrence_heatmap(&events);
        assert_eq!(h.get(DoubleBitError, PreemptiveCleanup), Some(1.0));
    }

    #[test]
    fn empty_input() {
        let h = cooccurrence_heatmap(&[]);
        assert!(h.totals.iter().all(|&t| t == 0));
        assert!(h.fraction.iter().flatten().all(|&f| f == 0.0));
    }
}
