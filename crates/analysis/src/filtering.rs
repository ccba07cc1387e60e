//! Event filtering: separating "parent" events from their "child"
//! re-reports.
//!
//! §2.2: "there may be one real 'parent' event and multiple 'child'
//! events. One can exclude these 'child' error events by applying a
//! filtering to avoid bias in failure characterization."
//!
//! §3.2 / Fig. 12 specializes this to application XIDs: "any XID 13 error
//! appearing in the console log after a previously encountered XID 13 is
//! ignored if the time difference is less than five seconds. Effectively,
//! this counts only one XID 13 event per job."

use std::collections::BTreeMap;

use titan_conlog::ConsoleEvent;
use titan_gpu::GpuErrorKind;

/// Result of a filtering pass.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterOutcome {
    /// Surviving parent events.
    pub parents: Vec<ConsoleEvent>,
    /// Removed child events.
    pub children: Vec<ConsoleEvent>,
}

/// The parent/child rule every filter here applies, one event at a
/// time: an event is a child when the last *kept* event of its key lies
/// less than `window_secs` before it; otherwise it is kept (a parent)
/// and restarts the window for its key. Feed events in time order.
#[derive(Debug, Clone)]
pub struct ChildRule<K> {
    window_secs: u64,
    last_kept: BTreeMap<K, u64>,
}

impl<K: Ord> ChildRule<K> {
    /// A rule with no event kept yet.
    pub fn new(window_secs: u64) -> Self {
        ChildRule {
            window_secs,
            last_kept: BTreeMap::new(),
        }
    }

    /// Whether an event of `key` at `time` is a child; a parent is
    /// remembered as its key's last kept event.
    pub fn is_child(&mut self, key: K, time: u64) -> bool {
        match self.last_kept.get(&key) {
            Some(&t) if time.saturating_sub(t) < self.window_secs => true,
            _ => {
                self.last_kept.insert(key, time);
                false
            }
        }
    }
}

/// Splits `events` with `rule`, keyed by `key`; events `key` maps to
/// `None` pass through untouched into `parents`.
fn split<K: Ord>(
    events: &[ConsoleEvent],
    mut rule: ChildRule<K>,
    key: impl Fn(&ConsoleEvent) -> Option<K>,
) -> FilterOutcome {
    let mut parents = Vec::new();
    let mut children = Vec::new();
    for ev in events {
        if key(ev).is_some_and(|k| rule.is_child(k, ev.time)) {
            children.push(*ev);
        } else {
            parents.push(*ev);
        }
    }
    FilterOutcome { parents, children }
}

/// Job-level dedup for one error kind: after a surviving event of `kind`,
/// every same-kind event within `window_secs` is a child (regardless of
/// node — one incident reports across all the job's nodes).
///
/// Events must be sorted by time (console logs are). Non-matching kinds
/// pass through untouched into `parents`.
// lint: allow(X1, reference implementation the one-pass Fig. 12 counts are checked against)
pub fn dedup_job_level(
    events: &[ConsoleEvent],
    kind: GpuErrorKind,
    window_secs: u64,
) -> FilterOutcome {
    split(events, ChildRule::new(window_secs), |ev| (ev.kind == kind).then_some(()))
}

/// Apid-aware variant: an event is a child only when a same-kind event
/// *on the same apid* precedes it within the window. More precise than
/// [`dedup_job_level`] when apids are present; identical behaviour when
/// they are absent (all grouped under `None`).
pub fn dedup_by_job(
    events: &[ConsoleEvent],
    kind: GpuErrorKind,
    window_secs: u64,
) -> FilterOutcome {
    split(events, ChildRule::new(window_secs), |ev| (ev.kind == kind).then_some(ev.apid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_topology::NodeId;

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
    fn dedup_collapses_job_burst() {
        use GpuErrorKind::GraphicsEngineException as X13;
        // One incident reported on 4 nodes within 5s, then another 100s later.
        let events = vec![
            ev(100, 1, X13, Some(7)),
            ev(101, 2, X13, Some(7)),
            ev(103, 3, X13, Some(7)),
            ev(104, 4, X13, Some(7)),
            ev(200, 1, X13, Some(8)),
        ];
        let out = dedup_job_level(&events, X13, 5);
        assert_eq!(out.parents.len(), 2);
        assert_eq!(out.children.len(), 3);
    }

    #[test]
    fn dedup_ignores_other_kinds() {
        use GpuErrorKind::*;
        let events = vec![
            ev(100, 1, GraphicsEngineException, None),
            ev(101, 1, DoubleBitError, None),
            ev(102, 1, GraphicsEngineException, None),
        ];
        let out = dedup_job_level(&events, GraphicsEngineException, 5);
        // The DBE passes through; the second X13 is a child.
        assert_eq!(out.parents.len(), 2);
        assert_eq!(out.children.len(), 1);
    }

    #[test]
    fn dedup_by_job_separates_apids() {
        use GpuErrorKind::GraphicsEngineException as X13;
        let events = vec![
            ev(100, 1, X13, Some(1)),
            ev(101, 2, X13, Some(2)), // different job: parent
            ev(102, 3, X13, Some(1)), // child of job 1
        ];
        let out = dedup_by_job(&events, X13, 5);
        assert_eq!(out.parents.len(), 2);
        assert_eq!(out.children.len(), 1);
        // The coarse variant would fold the job-2 event too.
        let coarse = dedup_job_level(&events, X13, 5);
        assert_eq!(coarse.parents.len(), 1);
    }

    #[test]
    fn window_measured_from_kept_event_not_last_child() {
        use GpuErrorKind::GpuStoppedProcessing as X43;
        // Chain: 0, 4, 8, 12 with window 5. Children at 4; 8 is ≥5 after
        // the kept 0? No: 8-0=8 ≥ 5 → parent; 12-8=4 → child.
        let events = vec![
            ev(0, 1, X43, None),
            ev(4, 1, X43, None),
            ev(8, 1, X43, None),
            ev(12, 1, X43, None),
        ];
        let out = dedup_job_level(&events, X43, 5);
        let kept: Vec<u64> = out.parents.iter().map(|e| e.time).collect();
        assert_eq!(kept, vec![0, 8]);
    }

    #[test]
    fn empty_input() {
        let out = dedup_job_level(&[], GpuErrorKind::GpuStoppedProcessing, 10);
        assert!(out.parents.is_empty() && out.children.is_empty());
    }
}
