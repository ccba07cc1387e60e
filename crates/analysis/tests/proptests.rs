//! Property-based tests for the analysis methodology.

use proptest::prelude::*;
use titan_analysis::filtering::{dedup_by_job, dedup_job_level};
use titan_analysis::spatial::{
    incident_stripe, spatial_grid, spatial_with_filtering_window, IncidentStripe,
    SpatialFiltering,
};
use titan_analysis::timeseries::{monthly_counts, monthly_incidents};
use titan_analysis::{cooccurrence_heatmap, retirement_delays};
use titan_conlog::ConsoleEvent;
use titan_gpu::GpuErrorKind;
use titan_topology::NodeId;

fn arb_kind() -> impl Strategy<Value = GpuErrorKind> {
    prop::sample::select(
        GpuErrorKind::ALL
            .into_iter()
            .filter(|k| *k != GpuErrorKind::SingleBitError)
            .collect::<Vec<_>>(),
    )
}

fn arb_events(max: usize) -> impl Strategy<Value = Vec<ConsoleEvent>> {
    prop::collection::vec(
        (0u64..100_000, 0u32..500, arb_kind(), prop::option::of(0u64..50)),
        0..max,
    )
    .prop_map(|mut v| {
        v.sort_by_key(|e| e.0);
        v.into_iter()
            .map(|(time, node, kind, apid)| ConsoleEvent {
                time,
                node: NodeId(node),
                kind,
                structure: None,
                page: None,
                apid,
            })
            .collect()
    })
}

/// Bursts of a few kinds on a few apids, each in the first hour of one
/// of three study days in different months, so that a 5 s window has
/// parents and children to split.
fn arb_bursts(max: usize) -> impl Strategy<Value = Vec<ConsoleEvent>> {
    use GpuErrorKind::*;
    let kinds = vec![GraphicsEngineException, GpuMemoryPageFault, GpuStoppedProcessing];
    prop::collection::vec(
        (
            (prop::sample::select(vec![0u64, 40, 400]), 0u64..3_600),
            0u32..19_200,
            prop::sample::select(kinds),
            prop::option::of(0u64..4),
        ),
        0..max,
    )
    .prop_map(|v| {
        let mut v: Vec<_> = v.into_iter().map(|((day, t), n, k, a)| (day * 86_400 + t, n, k, a)).collect();
        v.sort_by_key(|e| e.0);
        v.into_iter()
            .map(|(time, node, kind, apid)| ConsoleEvent {
                time,
                node: NodeId(node),
                kind,
                structure: None,
                page: None,
                apid,
            })
            .collect()
    })
}

/// Fig. 12 built from copies: the three grids of the `kind` events, of
/// [`dedup_job_level`]'s parents and of its children.
fn fig12_from_copies(events: &[ConsoleEvent], kind: GpuErrorKind, w: u64) -> SpatialFiltering {
    let only: Vec<_> = events.iter().filter(|e| e.kind == kind).copied().collect();
    let split = dedup_job_level(&only, kind, w);
    SpatialFiltering {
        unfiltered: spatial_grid(&only, kind, false),
        filtered: spatial_grid(&split.parents, kind, false),
        children: spatial_grid(&split.children, kind, false),
    }
}

/// The incident score from copies: each [`dedup_job_level`] parent opens
/// an incident that its children join, scored as a grid of its events.
fn stripe_from_copies(events: &[ConsoleEvent], kind: GpuErrorKind, w: u64) -> Option<IncidentStripe> {
    let only: Vec<_> = events.iter().filter(|e| e.kind == kind).copied().collect();
    let split = dedup_job_level(&only, kind, w);
    let mut incidents: Vec<Vec<ConsoleEvent>> = Vec::new();
    let (mut parents, mut children) = (split.parents.iter().peekable(), split.children.iter().peekable());
    loop {
        // A child comes after its parent: at a later second, or at the
        // parent's own second.
        let next_is_parent = match (parents.peek(), children.peek()) {
            (Some(p), Some(c)) => p.time <= c.time,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if next_is_parent {
            incidents.push(vec![*parents.next().unwrap()]);
        } else {
            incidents.last_mut().unwrap().push(*children.next().unwrap());
        }
    }
    let (mut contrast, mut null, mut total, mut scored) = (0.0, 0.0, 0.0, 0u64);
    for batch in &incidents {
        if let Some(c) = spatial_grid(batch, kind, false).stripe_contrast() {
            let n = batch.len() as f64;
            contrast += n * c;
            null += n * (2.0 / (std::f64::consts::PI * n)).sqrt().min(1.0);
            total += n;
            scored += 1;
        }
    }
    (total > 0.0).then(|| IncidentStripe {
        contrast: contrast / total,
        null: null / total,
        incidents: scored,
    })
}

proptest! {
    /// The one-pass Fig. 9 and Fig. 12 counts equal the same counts
    /// taken over the `dedup_*` copies.
    #[test]
    fn one_pass_filtering_matches_the_copies(events in arb_bursts(150), w in 1u64..30) {
        use GpuErrorKind::*;
        for kind in [GraphicsEngineException, GpuMemoryPageFault, GpuStoppedProcessing] {
            prop_assert_eq!(
                monthly_incidents(&events, kind, w),
                monthly_counts(&dedup_by_job(&events, kind, w).parents, kind)
            );
            prop_assert_eq!(
                spatial_with_filtering_window(&events, kind, w),
                fig12_from_copies(&events, kind, w)
            );
            prop_assert_eq!(
                incident_stripe(&events, kind, w),
                stripe_from_copies(&events, kind, w)
            );
        }
    }

    /// Filtering conserves events: parents + children == input.
    #[test]
    fn filtering_conserves(events in arb_events(120), window in 1u64..600) {
        let out = dedup_job_level(&events, GpuErrorKind::GraphicsEngineException, window);
        prop_assert_eq!(out.parents.len() + out.children.len(), events.len());
    }

    /// Filtering is idempotent: re-filtering the parents produces no new
    /// children.
    #[test]
    fn filtering_idempotent(events in arb_events(120), window in 1u64..600) {
        let kind = GpuErrorKind::GraphicsEngineException;
        let once = dedup_job_level(&events, kind, window);
        let twice = dedup_job_level(&once.parents, kind, window);
        prop_assert!(twice.children.is_empty(),
            "second pass found {} children", twice.children.len());
    }

    /// A wider window never yields more parents.
    #[test]
    fn wider_window_fewer_parents(events in arb_events(120), w in 1u64..300) {
        let narrow = dedup_job_level(&events, GpuErrorKind::GpuStoppedProcessing, w);
        let wide = dedup_job_level(&events, GpuErrorKind::GpuStoppedProcessing, w * 2);
        prop_assert!(wide.parents.len() <= narrow.parents.len());
    }

    /// Heatmap fractions are probabilities and the totals account for
    /// every on-axis event.
    #[test]
    fn heatmap_bounds(events in arb_events(100)) {
        let h = cooccurrence_heatmap(&events);
        for row in &h.fraction {
            for &f in row {
                prop_assert!((0.0..=1.0).contains(&f), "{f}");
            }
        }
        let on_axis = events
            .iter()
            .filter(|e| h.kinds.contains(&e.kind))
            .count() as u64;
        prop_assert_eq!(h.totals.iter().sum::<u64>(), on_axis);
    }

    /// Retirement-delay accounting conserves retirement records.
    #[test]
    fn retirement_delay_conservation(events in arb_events(100), since in 0u64..50_000) {
        let d = retirement_delays(&events, since);
        let recs = events
            .iter()
            .filter(|e| e.kind == GpuErrorKind::EccPageRetirement && e.time >= since)
            .count() as u64;
        prop_assert_eq!(d.within_10min + d.min10_to_6h + d.later + d.no_preceding_dbe, recs);
        prop_assert_eq!(d.delays.len() as u64, recs - d.no_preceding_dbe);
        // DBE pairs: n DBEs -> n-1 pairs, classified exhaustively.
        let dbes = events
            .iter()
            .filter(|e| e.kind == GpuErrorKind::DoubleBitError && e.time >= since)
            .count() as u64;
        prop_assert!(d.dbe_pairs_without_retirement <= dbes.saturating_sub(1));
    }

    /// Dedup on a single-kind stream equals dedup on the mixed
    /// stream restricted to that kind.
    #[test]
    fn kind_restriction_commutes(events in arb_events(100), w in 1u64..120) {
        let kind = GpuErrorKind::GraphicsEngineException;
        let only: Vec<_> = events.iter().filter(|e| e.kind == kind).copied().collect();
        let direct = dedup_job_level(&only, kind, w);
        let mixed = dedup_job_level(&events, kind, w);
        let mixed_kind_parents: Vec<_> = mixed
            .parents
            .iter()
            .filter(|e| e.kind == kind)
            .copied()
            .collect();
        prop_assert_eq!(direct.parents, mixed_kind_parents);
    }
}
