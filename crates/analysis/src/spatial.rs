//! Spatial distributions: the 25 × 8 cabinet grids and per-cage tallies
//! of Figs. 3, 5, 7 and the three-way filtered view of Fig. 12.

use serde::{Deserialize, Serialize};
use titan_conlog::ConsoleEvent;
use titan_gpu::GpuErrorKind;
use titan_topology::grid::CageTally;
use titan_topology::CabinetGrid;

use crate::filtering::ChildRule;

/// Cabinet grid of event counts for one kind. `distinct_nodes` counts
/// each node once (the paper's "distinct GPU cards" view — at console-log
/// granularity a card is identified by its slot).
pub fn spatial_grid(events: &[ConsoleEvent], kind: GpuErrorKind, distinct_nodes: bool) -> CabinetGrid {
    let mut grid = CabinetGrid::new();
    if distinct_nodes {
        let mut seen = std::collections::BTreeSet::new();
        for ev in events.iter().filter(|e| e.kind == kind) {
            if seen.insert(ev.node) {
                grid.add_node(ev.node, 1.0);
            }
        }
    } else {
        for ev in events.iter().filter(|e| e.kind == kind) {
            grid.add_node(ev.node, 1.0);
        }
    }
    grid
}

/// Per-cage tally for one kind (Figs. 3(b), 5, 7): total events and
/// distinct nodes per cage.
pub fn cage_tally(events: &[ConsoleEvent], kind: GpuErrorKind) -> (CageTally, CageTally) {
    let mut totals = CageTally::default();
    let mut distinct = CageTally::default();
    let mut seen = std::collections::BTreeSet::new();
    for ev in events.iter().filter(|e| e.kind == kind) {
        totals.add_node(ev.node, 1.0);
        if seen.insert(ev.node) {
            distinct.add_node(ev.node, 1.0);
        }
    }
    (totals, distinct)
}

/// The three panels of Fig. 12 for an application XID.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialFiltering {
    /// Top panel: no filtering — every report on every node.
    pub unfiltered: CabinetGrid,
    /// Middle panel: 5 s-filtered — one event per incident.
    pub filtered: CabinetGrid,
    /// Bottom panel: only the events *removed* by the filter (the
    /// children inside the 5 s window).
    pub children: CabinetGrid,
}

/// Per-incident striping statistic for Fig. 12's claim.
///
/// The aggregate even/odd column contrast of a whole panel is *biased
/// toward zero*: the torus cabling fold gives every job one of two
/// column parities (outbound jobs stripe 0/2/4/6, return-run jobs
/// stripe 7/5/3/1 — see `Torus::coord_of`), so two comparable
/// incidents of opposite parity cancel each other in the summed grid
/// even though each one stripes perfectly. The paper's observation is
/// about structure *within* one incident's footprint ("nodes within the
/// same job \[are\] allocated in this alternating manner"), so the honest
/// estimator scores each incident's own footprint and averages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IncidentStripe {
    /// Event-weighted mean of per-incident `|even − odd| / total`
    /// column contrast. Near 1 when incident footprints hold one
    /// column parity; near `null` for parity-blind placement.
    pub contrast: f64,
    /// Size-matched uniform null: the same weighted mean of
    /// `sqrt(2 / (π·nᵢ))` — the expected contrast of `nᵢ` events
    /// thrown uniformly over the cabinet columns.
    pub null: f64,
    /// Number of incidents scored.
    pub incidents: u64,
}

/// Groups time-sorted `kind` events into incidents with the same rule as
/// [`dedup_job_level`](crate::filtering::dedup_job_level) (a parent plus
/// everything within `window_secs` of the last kept parent) and scores
/// each incident's footprint. `None` when no events of `kind` exist.
pub fn incident_stripe(
    events: &[ConsoleEvent],
    kind: GpuErrorKind,
    window_secs: u64,
) -> Option<IncidentStripe> {
    let mut weighted_contrast = 0.0;
    let mut weighted_null = 0.0;
    let mut total_events = 0.0;
    let mut incidents = 0u64;
    // The current incident: its footprint and its event count.
    let mut footprint = CabinetGrid::new();
    let mut size = 0usize;
    let mut rule = ChildRule::new(window_secs);
    let mut flush = |footprint: &mut CabinetGrid, size: &mut usize| {
        if *size == 0 {
            return;
        }
        if let Some(c) = footprint.stripe_contrast() {
            let n = *size as f64;
            weighted_contrast += n * c;
            weighted_null += n * (2.0 / (std::f64::consts::PI * n)).sqrt().min(1.0);
            total_events += n;
            incidents += 1;
        }
        *footprint = CabinetGrid::new();
        *size = 0;
    };
    for ev in events.iter().filter(|e| e.kind == kind) {
        if !rule.is_child((), ev.time) {
            flush(&mut footprint, &mut size);
        }
        footprint.add_node(ev.node, 1.0);
        size += 1;
    }
    flush(&mut footprint, &mut size);
    if total_events == 0.0 {
        return None;
    }
    Some(IncidentStripe {
        contrast: weighted_contrast / total_events,
        null: weighted_null / total_events,
        incidents,
    })
}

/// Builds Fig. 12 for `kind` with the paper's 5-second window.
pub fn spatial_with_filtering(events: &[ConsoleEvent], kind: GpuErrorKind) -> SpatialFiltering {
    spatial_with_filtering_window(events, kind, 5)
}

/// [`spatial_with_filtering`] with an explicit window (the ablation bench
/// sweeps this). One counting pass: each `kind` event goes to the
/// unfiltered panel and to the filtered or children panel by
/// [`dedup_job_level`](crate::filtering::dedup_job_level)'s rule, with no event
/// copied.
pub fn spatial_with_filtering_window(
    events: &[ConsoleEvent],
    kind: GpuErrorKind,
    window_secs: u64,
) -> SpatialFiltering {
    let mut panels = SpatialFiltering {
        unfiltered: CabinetGrid::new(),
        filtered: CabinetGrid::new(),
        children: CabinetGrid::new(),
    };
    let mut rule = ChildRule::new(window_secs);
    for ev in events.iter().filter(|e| e.kind == kind) {
        panels.unfiltered.add_node(ev.node, 1.0);
        let panel = if rule.is_child((), ev.time) {
            &mut panels.children
        } else {
            &mut panels.filtered
        };
        panel.add_node(ev.node, 1.0);
    }
    panels
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_topology::{Location, NodeId};

    fn node_at(row: u8, col: u8, cage: u8) -> NodeId {
        Location {
            row,
            col,
            cage,
            blade: 0,
            node: 0,
        }
        .node_id()
    }

    fn ev(time: u64, node: NodeId, kind: GpuErrorKind) -> ConsoleEvent {
        ConsoleEvent {
            time,
            node,
            kind,
            structure: None,
            page: None,
            apid: None,
        }
    }

    #[test]
    fn grid_counts_and_distinct() {
        use GpuErrorKind::DoubleBitError as DBE;
        let n = node_at(3, 2, 1);
        let events = vec![ev(0, n, DBE), ev(10_000, n, DBE)];
        let total = spatial_grid(&events, DBE, false);
        let distinct = spatial_grid(&events, DBE, true);
        assert_eq!(total.get(3, 2), 2.0);
        assert_eq!(distinct.get(3, 2), 1.0);
    }

    #[test]
    fn cage_tally_counts() {
        use GpuErrorKind::OffTheBus as OTB;
        let top = node_at(0, 0, 2);
        let bottom = node_at(0, 0, 0);
        let events = vec![ev(0, top, OTB), ev(1, top, OTB), ev(2, bottom, OTB)];
        let (totals, distinct) = cage_tally(&events, OTB);
        assert_eq!(totals.by_cage, [1.0, 0.0, 2.0]);
        assert_eq!(distinct.by_cage, [1.0, 0.0, 1.0]);
        assert!(totals.top_heavy());
    }

    #[test]
    fn fig12_filtering_splits_stripes() {
        use GpuErrorKind::GraphicsEngineException as X13;
        // One incident spread across even columns within 5 s (the job's
        // striped allocation), then a lone later incident on an odd column.
        let events = vec![
            ev(100, node_at(0, 0, 0), X13),
            ev(101, node_at(0, 2, 0), X13),
            ev(102, node_at(0, 4, 0), X13),
            ev(103, node_at(0, 6, 0), X13),
            ev(1_000, node_at(5, 1, 0), X13),
        ];
        let f = spatial_with_filtering(&events, X13);
        assert_eq!(f.unfiltered.total(), 5.0);
        assert_eq!(f.filtered.total(), 2.0);
        assert_eq!(f.children.total(), 3.0);
        // Unfiltered and children lean even; the filter keeps one event
        // per incident so its panel is much less striped.
        let un = f.unfiltered.even_column_bias().unwrap();
        let ch = f.children.even_column_bias().unwrap();
        assert!(un > 1.5, "unfiltered bias {un}");
        assert!(ch > 1.9, "children bias {ch}");
    }

    #[test]
    fn empty_events_empty_panels() {
        use GpuErrorKind::GraphicsEngineException as X13;
        let f = spatial_with_filtering(&[], X13);
        assert_eq!(f.unfiltered.total(), 0.0);
        assert_eq!(f.unfiltered.even_column_bias(), None);
        assert_eq!(f.filtered.even_column_bias(), None);
        assert_eq!(f.children.even_column_bias(), None);
    }

    #[test]
    fn opposite_parity_incidents_cancel_globally_but_not_per_incident() {
        use GpuErrorKind::GraphicsEngineException as X13;
        // Two equal-size incidents: an outbound-run job striped on even
        // columns and a return-run job striped on odd columns. Their
        // aggregate column profile is flat — the global even/odd contrast
        // is exactly 0 — yet each footprint stripes perfectly.
        let mut events = Vec::new();
        for (i, c) in [0u8, 2, 4, 6].into_iter().enumerate() {
            events.push(ev(100 + i as u64, node_at(0, c, 0), X13));
        }
        for (i, c) in [7u8, 5, 3, 1].into_iter().enumerate() {
            events.push(ev(10_000 + i as u64, node_at(0, c, 0), X13));
        }
        let panel = spatial_grid(&events, X13, false);
        assert_eq!(panel.stripe_contrast(), Some(0.0), "global stat cancels");
        let s = incident_stripe(&events, X13, 5).expect("two incidents");
        assert_eq!(s.incidents, 2);
        assert!((s.contrast - 1.0).abs() < 1e-12, "per-incident contrast {}", s.contrast);
        // Size-matched null for 4-event incidents: sqrt(2/(4π)) ≈ 0.4.
        assert!(s.null < 0.5, "null {}", s.null);
        // No events of the kind → no statistic.
        assert!(incident_stripe(&[], X13, 5).is_none());
    }
}
