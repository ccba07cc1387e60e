//! Property-based tests for the GPU device model.

use proptest::prelude::*;
use titan_gpu::pages::{
    PageAddress, PageRetirement, RetireDecision, RETIREMENT_TABLE_CAPACITY,
};
use titan_gpu::{GpuErrorKind, InfoRom, MemoryStructure, Xid};

proptest! {
    /// XID mapping is a partial bijection: from_xid(xid(k)) == k.
    #[test]
    fn xid_bijection(code in 0u8..=255) {
        if let Some(k) = GpuErrorKind::from_xid(Xid(code)) {
            prop_assert_eq!(k.xid(), Some(Xid(code)));
        }
    }

    /// Page retirement: the retired set never exceeds capacity, never
    /// contains duplicates, and a page needs ≥2 SBEs or 1 DBE to get there.
    #[test]
    fn retirement_invariants(ops in prop::collection::vec(
        (any::<bool>(), 0u32..32), 0..400))
    {
        let mut pr = PageRetirement::new();
        let mut sbe_seen = std::collections::HashMap::<u32, u32>::new();
        for (is_dbe, page) in &ops {
            let d = if *is_dbe {
                pr.record_dbe(PageAddress(*page))
            } else {
                let e = sbe_seen.entry(*page).or_insert(0);
                *e += 1;
                pr.record_sbe(PageAddress(*page))
            };
            if let RetireDecision::Retired(_) = d {
                prop_assert!(pr.is_retired(PageAddress(*page)));
            }
        }
        let retired = pr.retired_pages();
        prop_assert!(retired.len() <= RETIREMENT_TABLE_CAPACITY);
        let mut pages: Vec<u32> = retired.iter().map(|(p, _)| p.0).collect();
        pages.sort_unstable();
        let before = pages.len();
        pages.dedup();
        prop_assert_eq!(pages.len(), before, "duplicate retirement");
    }

    /// InfoROM conservation: aggregate + unflushed-at-crash-loss accounting
    /// never exceeds what was recorded, and flush is idempotent.
    #[test]
    fn inforom_conservation(events in prop::collection::vec(
        (0usize..5, any::<bool>(), any::<bool>()), 0..200))
    {
        let mut ir = InfoRom::new();
        let mut recorded_sbe = 0u64;
        let mut persisted_dbe = 0u64;
        for (si, is_dbe, flag) in &events {
            let s = MemoryStructure::ECC_COUNTED[*si];
            if *is_dbe {
                ir.record_dbe(s, *flag);
                if *flag { persisted_dbe += 1; }
            } else {
                ir.record_sbe(s);
                recorded_sbe += 1;
            }
        }
        let total = |f: &dyn Fn(MemoryStructure) -> u64| -> u64 {
            MemoryStructure::ECC_COUNTED.iter().map(|&s| f(s)).sum()
        };
        prop_assert_eq!(total(&|s| ir.aggregate_dbe(s)), persisted_dbe);
        prop_assert_eq!(total(&|s| ir.reported_sbe(s)), recorded_sbe);
        ir.flush_sbe();
        ir.flush_sbe();
        prop_assert_eq!(total(&|s| ir.reported_sbe(s)), recorded_sbe);
    }
}
