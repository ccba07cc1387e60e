//! The Gemini 3-D torus and Titan's folded cabling.
//!
//! Every pair of nodes shares a Gemini router; the 9,600 routers form a
//! 25 × 16 × 24 torus. Crucially for Fig. 12 of the paper, the *physical*
//! cabling folds the torus so that cables between logically adjacent
//! routers stay short: logically consecutive Y-coordinates land in
//! *alternating* physical cabinet columns. Because ALPS allocates job
//! nodes in torus order, one job's nodes stripe across alternate cabinets
//! — the paper: "both Fig. 12 (top) and (bottom) show a distinct pattern
//! where alternate cabinets have greater event density. This is due to
//! folded-torus cabling used in Titan".

use serde::{Deserialize, Serialize};

use crate::geometry::NodeId;
use crate::{COLS, ROWS};

/// Torus extent in X (cabinet rows).
pub const DIM_X: usize = ROWS; // 25
/// Torus extent in Y (2 per cabinet column).
pub const DIM_Y: usize = COLS * 2; // 16
/// Torus extent in Z (24 routers per cabinet column slice).
pub const DIM_Z: usize = 24;

const _: () = assert!(DIM_X * DIM_Y * DIM_Z == 9_600);

/// Logical Gemini coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GeminiCoord {
    /// Row dimension, `0..25`.
    pub x: u8,
    /// Folded column dimension, `0..16`.
    pub y: u8,
    /// Intra-cabinet dimension (cage·8 + blade), `0..24`.
    pub z: u8,
}

/// The Gemini torus: coordinate mapping and the allocation order the
/// scheduler walks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Torus;

impl Torus {
    /// Logical coordinates of a node's router.
    ///
    /// Mapping (a simplification of Cray's, but dimension-exact):
    /// * `x` = cabinet row;
    /// * `z` = cage·8 + blade (24 per cabinet);
    /// * `y` = 2·fold⁻¹(column) + (router-within-blade), where blade nodes
    ///   0–1 sit on router 0 and nodes 2–3 on router 1, and fold⁻¹ undoes
    ///   the physical cabling fold (see `logical_pair_of_col`) —
    ///   logically adjacent Y live in *alternating* physical columns.
    pub fn coord_of(&self, node: NodeId) -> GeminiCoord {
        let loc = node.location();
        let router_in_blade = (loc.node / 2) as u8;
        GeminiCoord {
            x: loc.row,
            y: Self::logical_pair_of_col(loc.col) * 2 + router_in_blade,
            z: loc.cage * 8 + loc.blade,
        }
    }

    /// Inverse of the cabling fold: physical column → logical column pair.
    /// The fold maps logical Y 0,1,2,…,15 to physical columns
    /// 0,0,2,2,4,4,6,6,7,7,5,5,3,3,1,1 — out along even columns, back
    /// along odd ones, exactly like folded torus cabling.
    fn logical_pair_of_col(col: u8) -> u8 {
        if col % 2 == 0 {
            col / 2 // 0,2,4,6 -> 0,1,2,3 (the outbound run)
        } else {
            7 - col / 2 // 7,5,3,1 -> 4,5,6,7 (the return run)
        }
    }

    /// The scheduler's node allocation order: all compute nodes sorted by
    /// (y, z, x, node-within-router) with Y varying *slowest* in logical
    /// order.
    ///
    /// Walking whole Y-planes keeps a job compact on the torus (few Y
    /// hops). Because the physical fold maps consecutive logical Y to
    /// *alternating cabinet columns*, a job spanning several Y-planes
    /// covers alternating columns of the floor — the mechanism behind
    /// Fig. 12's striping: "nodes within the same job \[are\] allocated in
    /// this alternating manner in the 3-D torus Gemini interconnect
    /// resulting in such a pattern."
    pub fn allocation_order(&self) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = crate::compute_nodes().collect();
        order.sort_by_key(|&n| {
            let c = self.coord_of(n);
            let within = n.0 & 1; // node within router
            ((c.y as u32) << 16) | ((c.z as u32) << 11) | ((c.x as u32) << 1) | within
        });
        debug_assert_eq!(order.len(), crate::COMPUTE_NODES);
        order
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TOTAL_SLOTS;
    use std::collections::HashSet;

    #[test]
    fn coords_in_bounds_exhaustive() {
        let t = Torus;
        for i in 0..TOTAL_SLOTS as u32 {
            let c = t.coord_of(NodeId(i));
            assert!((c.x as usize) < DIM_X && (c.y as usize) < DIM_Y && (c.z as usize) < DIM_Z);
        }
    }

    #[test]
    fn two_nodes_per_router() {
        let t = Torus;
        let mut seen: std::collections::HashMap<GeminiCoord, u32> = Default::default();
        for i in 0..TOTAL_SLOTS as u32 {
            *seen.entry(t.coord_of(NodeId(i))).or_default() += 1;
        }
        assert_eq!(seen.len(), 9_600);
        assert!(seen.values().all(|&c| c == 2));
    }

    #[test]
    fn allocation_order_is_complete_and_unique() {
        let order = Torus.allocation_order();
        assert_eq!(order.len(), crate::COMPUTE_NODES);
        let set: HashSet<NodeId> = order.iter().copied().collect();
        assert_eq!(set.len(), crate::COMPUTE_NODES);
        assert!(order.iter().all(|&n| !crate::is_service_slot(n)));
    }

    #[test]
    fn y_plane_is_single_column() {
        // One Y-plane of the order (~1168 compute nodes) lives in exactly
        // one physical column — small jobs are column-local (the Fig. 12
        // middle panel's "debug jobs unevenly distributed").
        let order = Torus.allocation_order();
        let window = &order[100..1100];
        let distinct: HashSet<u8> = window.iter().map(|n| n.location().col).collect();
        assert_eq!(distinct.len(), 1, "{distinct:?}");
    }

    #[test]
    fn large_job_window_stripes_alternating_columns() {
        // A multi-Y-plane window (a capability job) covers alternating
        // physical columns — the Fig. 12 stripe mechanism.
        let order = Torus.allocation_order();
        // Two Y-planes share a column (one per router), so eight planes
        // span four alternating columns.
        let window = &order[0..8 * 1168];
        let mut cols: Vec<u8> = window.iter().map(|n| n.location().col).collect();
        cols.dedup();
        let distinct: HashSet<u8> = cols.iter().copied().collect();
        assert!(distinct.len() >= 3, "window too local: {cols:?}");
        // Column transitions skip a column (|Δ| == 2): alternate cabinets.
        for w in cols.windows(2) {
            let d = (w[0] as i32 - w[1] as i32).abs();
            assert!(d == 2 || d == 1 && (w[0].max(w[1]) == 7), "{cols:?}");
        }
    }
}
