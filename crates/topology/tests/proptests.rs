//! Property-based tests for the topology crate: every mapping the log
//! parser and spatial analyses rely on must be a clean bijection.

use proptest::prelude::*;
use titan_topology::{
    gpu_index_to_node, is_service_slot, node_to_gpu_index, Location, NodeId,
    COMPUTE_NODES, TOTAL_SLOTS,
};

proptest! {
    /// NodeId -> Location -> NodeId is the identity on every slot.
    #[test]
    fn location_roundtrip(id in 0u32..TOTAL_SLOTS as u32) {
        let n = NodeId(id);
        prop_assert_eq!(n.location().node_id(), n);
    }

    /// Location -> cname -> Location is the identity.
    #[test]
    fn cname_roundtrip(id in 0u32..TOTAL_SLOTS as u32) {
        let loc = NodeId(id).location();
        let parsed = Location::parse_cname(&loc.cname()).unwrap();
        prop_assert_eq!(parsed, loc);
    }

    /// GPU dense index round-trips for compute nodes.
    #[test]
    fn gpu_index_roundtrip(id in 0u32..TOTAL_SLOTS as u32) {
        let n = NodeId(id);
        match node_to_gpu_index(n) {
            Some(g) => {
                prop_assert!(!is_service_slot(n));
                prop_assert!((g as usize) < COMPUTE_NODES);
                prop_assert_eq!(gpu_index_to_node(g), n);
            }
            None => prop_assert!(is_service_slot(n)),
        }
    }

    /// Parsing never panics on arbitrary input.
    #[test]
    fn parse_cname_total(s in "\\PC{0,24}") {
        let _ = Location::parse_cname(&s);
    }
}
