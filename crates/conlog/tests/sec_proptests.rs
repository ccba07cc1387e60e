//! Property-based tests for the SEC rule engine.

use proptest::prelude::*;
use titan_conlog::sec::{SecAction, SecEngine, SecRule};
use titan_conlog::ConsoleEvent;
use titan_gpu::GpuErrorKind;
use titan_topology::NodeId;

fn arb_kind() -> impl Strategy<Value = GpuErrorKind> {
    prop::sample::select(vec![
        GpuErrorKind::DoubleBitError,
        GpuErrorKind::OffTheBus,
        GpuErrorKind::GraphicsEngineException,
        GpuErrorKind::EccPageRetirement,
        GpuErrorKind::GpuStoppedProcessing,
    ])
}

fn arb_events(max: usize) -> impl Strategy<Value = Vec<ConsoleEvent>> {
    prop::collection::vec((0u64..10_000, 0u32..40, arb_kind()), 0..max).prop_map(|mut v| {
        v.sort_by_key(|e| e.0);
        v.into_iter()
            .map(|(time, node, kind)| ConsoleEvent {
                time,
                node: NodeId(node),
                kind,
                structure: None,
                page: None,
                apid: None,
            })
            .collect()
    })
}

proptest! {
    /// AlertEach fires exactly once per matching event; suppression only
    /// ever removes alerts.
    #[test]
    fn alert_counts_bounded(events in arb_events(150)) {
        let kind = GpuErrorKind::DoubleBitError;
        let mut plain = SecEngine::new(vec![SecRule::AlertEach { kind }]);
        let alerts = plain
            .ingest_all(&events)
            .into_iter()
            .filter(|a| matches!(a, SecAction::Alert { .. }))
            .count();
        let matching = events.iter().filter(|e| e.kind == kind).count();
        prop_assert_eq!(alerts, matching);

        let mut folded = SecEngine::new(vec![SecRule::SuppressRepeats { kind, window: 60 }]);
        let folded_alerts = folded
            .ingest_all(&events)
            .into_iter()
            .filter(|a| matches!(a, SecAction::Alert { .. }))
            .count();
        prop_assert!(folded_alerts <= matching);
        prop_assert_eq!(folded_alerts + folded.suppressed as usize, matching);
    }

    /// A threshold alarm fires at most once per node, and only when the
    /// node actually reached the count.
    #[test]
    fn threshold_fires_once_per_node(events in arb_events(150), count in 1u32..5) {
        let kind = GpuErrorKind::DoubleBitError;
        let mut engine = SecEngine::new(vec![SecRule::Threshold { kind, count }]);
        let alarms: Vec<SecAction> = engine
            .ingest_all(&events)
            .into_iter()
            .filter(|a| matches!(a, SecAction::ThresholdAlarm { .. }))
            .collect();
        let mut per_node = std::collections::HashMap::<u32, u32>::new();
        for e in &events {
            if e.kind == kind {
                *per_node.entry(e.node.0).or_default() += 1;
            }
        }
        let expected = per_node.values().filter(|&&c| c >= count).count();
        prop_assert_eq!(alarms.len(), expected);
    }

    /// Rule sets survive the JSON config round trip.
    #[test]
    fn rule_json_roundtrip(
        window in 1u64..100_000,
        count in 1u32..100,
        kinds in prop::collection::vec(arb_kind(), 1..6),
    ) {
        let rules: Vec<SecRule> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| match i % 4 {
                0 => SecRule::AlertEach { kind },
                1 => SecRule::SuppressRepeats { kind, window },
                2 => SecRule::Threshold { kind, count },
                _ => SecRule::Cluster { kind, count, window },
            })
            .collect();
        let json = serde_json::to_string_pretty(&rules).unwrap();
        let back: Vec<SecRule> = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, rules);
    }

    /// The engine never panics on arbitrary (time-sorted) input with the
    /// full OLCF rule set.
    #[test]
    fn olcf_rules_total(events in arb_events(200)) {
        let mut engine = SecEngine::olcf_default();
        let _ = engine.ingest_all(&events);
    }
}
