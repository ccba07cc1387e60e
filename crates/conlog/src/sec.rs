//! A simple-event-correlator (SEC) rule engine.
//!
//! The paper: console logs "are parsed using simple event correlators
//! (SEC) on software management workstations (SMW) to log critical system
//! events. This is a comprehensive log of critical system events that
//! alerts the system operators of unexpected/undesired behavior."
//! Observation 5 adds the operational lesson: "System operators have to
//! keep updating their log parsing rules to account for such new
//! introductions" — which is why rules here are data, not code.
//!
//! The engine consumes [`ConsoleEvent`]s in time order and produces
//! [`SecAction`]s: alerts, duplicate suppression, and threshold alarms
//! (e.g. the site's pull-after-DBE policy for GPU cards).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use titan_gpu::GpuErrorKind;
use titan_topology::NodeId;

use crate::record::ConsoleEvent;
use crate::time::SimTime;

/// A correlation rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SecRule {
    /// Emit an alert for every occurrence of `kind`.
    AlertEach {
        /// Event kind to alert on.
        kind: GpuErrorKind,
    },
    /// Suppress repeats of `kind` on the same node within `window`
    /// seconds of the previous one (classic SEC duplicate folding).
    SuppressRepeats {
        /// Event kind to fold.
        kind: GpuErrorKind,
        /// Fold window, seconds.
        window: u64,
    },
    /// Raise a threshold alarm once a node has seen `count` events of
    /// `kind` in total (e.g. "pull the card after 2 DBEs").
    Threshold {
        /// Event kind to count.
        kind: GpuErrorKind,
        /// Trigger count.
        count: u32,
    },
    /// Raise a cluster alarm when at least `count` events of `kind` occur
    /// fleet-wide within `window` seconds — this is how the off-the-bus
    /// epidemic ("these errors were mostly clustered and that's when the
    /// criticality of the issue was identified") would page an operator.
    Cluster {
        /// Event kind to watch.
        kind: GpuErrorKind,
        /// Events needed inside the window.
        count: u32,
        /// Window length, seconds.
        window: u64,
    },
}

/// Engine output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SecAction {
    /// Forward this event to the critical-event log.
    Alert {
        /// When.
        time: SimTime,
        /// Where.
        node: NodeId,
        /// What.
        kind: GpuErrorKind,
    },
    /// A per-node total crossed its threshold.
    ThresholdAlarm {
        /// When the threshold was crossed.
        time: SimTime,
        /// Node whose count crossed.
        node: NodeId,
        /// Event kind counted.
        kind: GpuErrorKind,
        /// The count reached.
        count: u32,
    },
    /// A fleet-wide burst was detected.
    ClusterAlarm {
        /// When the burst crossed the threshold.
        time: SimTime,
        /// Event kind bursting.
        kind: GpuErrorKind,
        /// Events inside the window.
        count: u32,
    },
}

impl SecAction {
    /// When the action fired.
    pub fn time(&self) -> SimTime {
        match *self {
            SecAction::Alert { time, .. }
            | SecAction::ThresholdAlarm { time, .. }
            | SecAction::ClusterAlarm { time, .. } => time,
        }
    }

    /// The node the action is scoped to (cluster alarms are fleet-wide).
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            SecAction::Alert { node, .. } | SecAction::ThresholdAlarm { node, .. } => Some(node),
            SecAction::ClusterAlarm { .. } => None,
        }
    }

    /// Stable snake_case label for telemetry payloads.
    pub fn label(&self) -> &'static str {
        match self {
            SecAction::Alert { .. } => "alert",
            SecAction::ThresholdAlarm { .. } => "threshold_alarm",
            SecAction::ClusterAlarm { .. } => "cluster_alarm",
        }
    }
}

/// Pipeline statistics for one engine's lifetime, all in the sim time
/// domain (pure event counts). Consumed by the observability layer —
/// `titan-conlog` stays independent of `titan-obs`, so these are plain
/// numbers the collector copies into the metrics document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SecStats {
    /// Console events fed through `ingest`.
    pub events_ingested: u64,
    /// Alerts emitted (AlertEach + unfolded SuppressRepeats).
    pub alerts: u64,
    /// Duplicates folded by SuppressRepeats rules.
    pub suppressed: u64,
    /// Per-node threshold alarms raised.
    pub threshold_alarms: u64,
    /// Fleet-wide cluster alarms raised.
    pub cluster_alarms: u64,
    /// Per-rule match tallies as `(rule description, hits)`, in rule
    /// order. A hit is an event the rule's kind filter matched,
    /// whether it alerted or folded.
    pub rule_hits: Vec<(String, u64)>,
}

impl SecRule {
    /// A short stable description used as a metric key, e.g.
    /// `alert_each_dbe` — snake_case, derived from the rule shape and
    /// the XID it watches so re-ordering rules never renames metrics.
    pub fn describe(&self) -> String {
        fn kind_key(kind: GpuErrorKind) -> String {
            match kind.xid() {
                Some(x) => format!("xid{}", x.0),
                None => format!("{kind:?}").to_lowercase(),
            }
        }
        match *self {
            SecRule::AlertEach { kind } => format!("alert_each_{}", kind_key(kind)),
            SecRule::SuppressRepeats { kind, window } => {
                format!("suppress_repeats_{}_{}s", kind_key(kind), window)
            }
            SecRule::Threshold { kind, count } => {
                format!("threshold_{}_{}", kind_key(kind), count)
            }
            SecRule::Cluster { kind, count, window } => {
                format!("cluster_{}_{}_{}s", kind_key(kind), count, window)
            }
        }
    }
}

/// Stateful SEC engine. Feed events in nondecreasing time order.
#[derive(Debug, Clone)]
pub struct SecEngine {
    rules: Vec<SecRule>,
    last_seen: BTreeMap<(NodeId, GpuErrorKind), SimTime>,
    node_counts: BTreeMap<(NodeId, GpuErrorKind), u32>,
    fleet_windows: BTreeMap<GpuErrorKind, Vec<SimTime>>,
    /// Suppressed-duplicate tally, exposed for test/ops introspection.
    pub suppressed: u64,
    events_ingested: u64,
    alerts: u64,
    threshold_alarms: u64,
    cluster_alarms: u64,
    rule_hits: Vec<u64>,
}

impl SecEngine {
    /// Builds an engine from a rule list.
    pub fn new(rules: Vec<SecRule>) -> Self {
        let n_rules = rules.len();
        SecEngine {
            rules,
            last_seen: BTreeMap::new(),
            node_counts: BTreeMap::new(),
            fleet_windows: BTreeMap::new(),
            suppressed: 0,
            events_ingested: 0,
            alerts: 0,
            threshold_alarms: 0,
            cluster_alarms: 0,
            rule_hits: vec![0; n_rules],
        }
    }

    /// The default OLCF-style rule set used throughout the study:
    /// alert on every hardware error, fold application-XID repeats within
    /// 5 s (they re-report across a job's nodes), pull cards at 2 DBEs,
    /// page on off-the-bus clusters.
    pub fn olcf_default() -> Self {
        use GpuErrorKind::*;
        SecEngine::new(vec![
            SecRule::AlertEach { kind: DoubleBitError },
            SecRule::AlertEach { kind: OffTheBus },
            SecRule::AlertEach { kind: EccPageRetirement },
            SecRule::SuppressRepeats {
                kind: GraphicsEngineException,
                window: 5,
            },
            SecRule::Threshold {
                kind: DoubleBitError,
                count: 2,
            },
            SecRule::Cluster {
                kind: OffTheBus,
                count: 5,
                window: 24 * 3600,
            },
        ])
    }

    /// Processes one event, returning any actions it triggers.
    pub fn ingest(&mut self, ev: &ConsoleEvent) -> Vec<SecAction> {
        self.events_ingested += 1;
        let mut out = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            match *rule {
                SecRule::AlertEach { kind } if kind == ev.kind => {
                    self.rule_hits[i] += 1;
                    self.alerts += 1;
                    out.push(SecAction::Alert {
                        time: ev.time,
                        node: ev.node,
                        kind,
                    });
                }
                SecRule::SuppressRepeats { kind, window } if kind == ev.kind => {
                    self.rule_hits[i] += 1;
                    let key = (ev.node, kind);
                    let dup = self
                        .last_seen
                        .get(&key)
                        .is_some_and(|&t| ev.time.saturating_sub(t) < window);
                    self.last_seen.insert(key, ev.time);
                    if dup {
                        self.suppressed += 1;
                    } else {
                        self.alerts += 1;
                        out.push(SecAction::Alert {
                            time: ev.time,
                            node: ev.node,
                            kind,
                        });
                    }
                }
                SecRule::Threshold { kind, count } if kind == ev.kind => {
                    self.rule_hits[i] += 1;
                    let c = self.node_counts.entry((ev.node, kind)).or_insert(0);
                    *c += 1;
                    if *c == count {
                        self.threshold_alarms += 1;
                        out.push(SecAction::ThresholdAlarm {
                            time: ev.time,
                            node: ev.node,
                            kind,
                            count,
                        });
                    }
                }
                SecRule::Cluster { kind, count, window } if kind == ev.kind => {
                    self.rule_hits[i] += 1;
                    let w = self.fleet_windows.entry(kind).or_default();
                    w.push(ev.time);
                    w.retain(|&t| ev.time.saturating_sub(t) < window);
                    if w.len() as u32 == count {
                        self.cluster_alarms += 1;
                        out.push(SecAction::ClusterAlarm {
                            time: ev.time,
                            kind,
                            count,
                        });
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Processes a batch, returning all actions in order.
    pub fn ingest_all(&mut self, events: &[ConsoleEvent]) -> Vec<SecAction> {
        events.iter().flat_map(|e| self.ingest(e)).collect()
    }

    /// Snapshot of the pipeline statistics accumulated so far.
    pub fn stats(&self) -> SecStats {
        SecStats {
            events_ingested: self.events_ingested,
            alerts: self.alerts,
            suppressed: self.suppressed,
            threshold_alarms: self.threshold_alarms,
            cluster_alarms: self.cluster_alarms,
            rule_hits: self
                .rules
                .iter()
                .zip(self.rule_hits.iter())
                .map(|(r, &h)| (r.describe(), h))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: SimTime, node: u32, kind: GpuErrorKind) -> ConsoleEvent {
        ConsoleEvent {
            time,
            node: NodeId(node),
            kind,
            structure: None,
            page: None,
            apid: None,
        }
    }

    #[test]
    fn alert_each_fires_every_time() {
        let mut e = SecEngine::new(vec![SecRule::AlertEach {
            kind: GpuErrorKind::DoubleBitError,
        }]);
        let a = e.ingest_all(&[
            ev(1, 0, GpuErrorKind::DoubleBitError),
            ev(2, 0, GpuErrorKind::DoubleBitError),
            ev(3, 0, GpuErrorKind::GraphicsEngineException),
        ]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn suppress_folds_within_window() {
        let mut e = SecEngine::new(vec![SecRule::SuppressRepeats {
            kind: GpuErrorKind::GraphicsEngineException,
            window: 5,
        }]);
        let a = e.ingest_all(&[
            ev(100, 1, GpuErrorKind::GraphicsEngineException),
            ev(101, 1, GpuErrorKind::GraphicsEngineException), // folded
            ev(104, 1, GpuErrorKind::GraphicsEngineException), // folded (again inside 5s of 101)
            ev(110, 1, GpuErrorKind::GraphicsEngineException), // new alert
            ev(102, 2, GpuErrorKind::GraphicsEngineException), // other node: new
        ]);
        assert_eq!(a.len(), 3);
        assert_eq!(e.suppressed, 2);
    }

    #[test]
    fn threshold_fires_exactly_once_at_crossing() {
        let mut e = SecEngine::new(vec![SecRule::Threshold {
            kind: GpuErrorKind::DoubleBitError,
            count: 2,
        }]);
        let a = e.ingest_all(&[
            ev(1, 7, GpuErrorKind::DoubleBitError),
            ev(2, 7, GpuErrorKind::DoubleBitError),
            ev(3, 7, GpuErrorKind::DoubleBitError),
        ]);
        let alarms: Vec<_> = a
            .iter()
            .filter(|x| matches!(x, SecAction::ThresholdAlarm { .. }))
            .collect();
        assert_eq!(alarms.len(), 1);
        match alarms[0] {
            SecAction::ThresholdAlarm { time, count, .. } => {
                assert_eq!(*time, 2);
                assert_eq!(*count, 2);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn cluster_alarm_on_burst_only() {
        let mut e = SecEngine::new(vec![SecRule::Cluster {
            kind: GpuErrorKind::OffTheBus,
            count: 3,
            window: 100,
        }]);
        // Two events far apart: no alarm.
        let a = e.ingest_all(&[ev(0, 1, GpuErrorKind::OffTheBus), ev(500, 2, GpuErrorKind::OffTheBus)]);
        assert!(a.is_empty());
        // Burst of three within the window: alarm once.
        let a = e.ingest_all(&[
            ev(1000, 3, GpuErrorKind::OffTheBus),
            ev(1010, 4, GpuErrorKind::OffTheBus),
            ev(1020, 5, GpuErrorKind::OffTheBus),
        ]);
        assert_eq!(
            a.iter()
                .filter(|x| matches!(x, SecAction::ClusterAlarm { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn rule_file_roundtrip() {
        let rules = vec![
            SecRule::AlertEach {
                kind: GpuErrorKind::DoubleBitError,
            },
            SecRule::Cluster {
                kind: GpuErrorKind::OffTheBus,
                count: 5,
                window: 86_400,
            },
        ];
        let json = serde_json::to_string_pretty(&rules).unwrap();
        let back: Vec<SecRule> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rules);
        assert!(serde_json::from_str::<Vec<SecRule>>("not json").is_err());
        // Operators adding a rule for a new XID (Observation 5) is a
        // data edit, not a code change:
        let mut extended = back;
        extended.push(SecRule::AlertEach {
            kind: GpuErrorKind::EccPageRetirement,
        });
        let mut engine = SecEngine::new(extended);
        let acts = engine.ingest(&ev(1, 0, GpuErrorKind::EccPageRetirement));
        assert_eq!(acts.len(), 1);
    }

    #[test]
    fn stats_count_hits_actions_and_suppressions() {
        let mut e = SecEngine::olcf_default();
        e.ingest_all(&[
            ev(1, 0, GpuErrorKind::DoubleBitError),
            ev(2, 0, GpuErrorKind::DoubleBitError), // threshold alarm at 2
            ev(10, 1, GpuErrorKind::GraphicsEngineException),
            ev(11, 1, GpuErrorKind::GraphicsEngineException), // folded
            ev(100, 2, GpuErrorKind::SingleBitError),         // matches no rule
        ]);
        let s = e.stats();
        assert_eq!(s.events_ingested, 5);
        // 2 DBE alerts + 1 unfolded XID 13 alert.
        assert_eq!(s.alerts, 3);
        assert_eq!(s.suppressed, 1);
        assert_eq!(s.threshold_alarms, 1);
        assert_eq!(s.cluster_alarms, 0);
        // Rule keys are stable and shape-derived.
        let hits: std::collections::BTreeMap<_, _> = s.rule_hits.iter().cloned().collect();
        assert_eq!(hits.get("alert_each_xid48"), Some(&2));
        assert_eq!(hits.get("suppress_repeats_xid13_5s"), Some(&2));
        assert_eq!(hits.get("threshold_xid48_2"), Some(&2));
        // Off-the-bus has no XID in the paper's tables; the key falls
        // back to the variant name.
        assert_eq!(hits.get("cluster_offthebus_5_86400s"), Some(&0));
    }

    #[test]
    fn olcf_default_pulls_cards_at_two_dbes() {
        let mut e = SecEngine::olcf_default();
        let mut alarms = 0;
        for t in 0..3 {
            for act in e.ingest(&ev(t * 1000, 42, GpuErrorKind::DoubleBitError)) {
                if matches!(act, SecAction::ThresholdAlarm { .. }) {
                    alarms += 1;
                }
            }
        }
        assert_eq!(alarms, 1);
    }
}
