//! Dynamic page retirement, paper §3.1:
//!
//! > "ECC page retirement error is supposed to happen under two
//! > circumstances: (1) one double bit error or (2) two single bit errors
//! > in the same page. Page address is stored in the InfoROM and when the
//! > driver loads it can get to know these page addresses and framebuffer
//! > can ensure that these pages are not used by the application. This
//! > essentially improves the life of the card. The application crashes in
//! > the first case, but not in the second case."
//!
//! The feature (and its XID 63/64) only exists from the Jan 2014 driver
//! onwards — the fleet simulator gates retirement behind the driver epoch,
//! which is what makes Fig. 6 empty before Jan'14.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Device-memory page index (4 KiB pages over the 6 GB framebuffer).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct PageAddress(pub u32);

/// Bytes per retirable page.
pub const PAGE_BYTES: u64 = 4096;

/// GDDR5 device memory of a K20X, bytes (6 GB, paper §2.1).
const DEVICE_MEMORY_BYTES: u64 = 6 * 1024 * 1024 * 1024;

/// Number of retirable pages on a K20X.
pub const PAGE_COUNT: u32 = (DEVICE_MEMORY_BYTES / PAGE_BYTES) as u32;

/// Why a page was retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RetirementCause {
    /// One double-bit error on the page (application crashed).
    DoubleBitError,
    /// Two single-bit errors accumulated on the same page (no crash).
    MultipleSingleBitErrors,
}

/// Outcome of feeding an ECC event into the retirement engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetireDecision {
    /// Nothing to do yet.
    None,
    /// Page crossed its threshold and was retired.
    Retired(RetirementCause),
    /// Threshold crossed but the InfoROM retirement table is full — the
    /// real driver raises XID 64 in this situation.
    TableFull,
}

/// Maximum retired-page entries the InfoROM can hold. The K20X-era
/// driver reserved space for 64 dynamically retired pages.
pub const RETIREMENT_TABLE_CAPACITY: usize = 64;

/// SBEs on the same page needed to trigger retirement.
pub const SBE_RETIRE_THRESHOLD: u32 = 2;

/// Per-card dynamic page retirement state.
///
/// Sparse: a card sees at most a handful of error-touched pages over its
/// life, so per-page counters live in a small map rather than a 1.5 M
/// entry array per card (there are 18,688 cards).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PageRetirement {
    sbe_counts: BTreeMap<PageAddress, u32>,
    retired: Vec<(PageAddress, RetirementCause)>,
}

impl PageRetirement {
    /// Fresh card with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a single-bit error on `page`. Retires the page on the
    /// second SBE (if capacity remains).
    pub fn record_sbe(&mut self, page: PageAddress) -> RetireDecision {
        if self.is_retired(page) {
            // Retired pages are excluded by the framebuffer; a new SBE on
            // one indicates the driver has not yet reloaded. Count nothing.
            return RetireDecision::None;
        }
        let c = self.sbe_counts.entry(page).or_insert(0);
        *c += 1;
        if *c >= SBE_RETIRE_THRESHOLD {
            self.retire(page, RetirementCause::MultipleSingleBitErrors)
        } else {
            RetireDecision::None
        }
    }

    /// Records a double-bit error on `page`: immediate retirement.
    pub fn record_dbe(&mut self, page: PageAddress) -> RetireDecision {
        if self.is_retired(page) {
            return RetireDecision::None;
        }
        self.retire(page, RetirementCause::DoubleBitError)
    }

    fn retire(&mut self, page: PageAddress, cause: RetirementCause) -> RetireDecision {
        if self.retired.len() >= RETIREMENT_TABLE_CAPACITY {
            return RetireDecision::TableFull;
        }
        self.sbe_counts.remove(&page);
        self.retired.push((page, cause));
        RetireDecision::Retired(cause)
    }

    /// Whether `page` is already excluded from the framebuffer.
    pub fn is_retired(&self, page: PageAddress) -> bool {
        self.retired.iter().any(|&(p, _)| p == page)
    }

    /// Retired pages with causes, in retirement order (as nvidia-smi
    /// `--query-retired-pages` would list them).
    pub fn retired_pages(&self) -> &[(PageAddress, RetirementCause)] {
        &self.retired
    }

    /// Count of retired pages by cause — nvidia-smi reports the
    /// "double bit ecc" and "single bit ecc" retirement tallies separately.
    pub fn retired_counts(&self) -> (u32, u32) {
        let dbe = self
            .retired
            .iter()
            .filter(|(_, c)| *c == RetirementCause::DoubleBitError)
            .count() as u32;
        let sbe = self.retired.len() as u32 - dbe;
        (dbe, sbe)
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_count_matches_capacity() {
        assert_eq!(PAGE_COUNT as u64 * PAGE_BYTES, DEVICE_MEMORY_BYTES);
        assert_eq!(PAGE_COUNT, 1_572_864);
    }

    #[test]
    fn dbe_retires_immediately() {
        let mut pr = PageRetirement::new();
        let d = pr.record_dbe(PageAddress(100));
        assert_eq!(d, RetireDecision::Retired(RetirementCause::DoubleBitError));
        assert!(pr.is_retired(PageAddress(100)));
        assert_eq!(pr.retired_counts(), (1, 0));
    }

    #[test]
    fn two_sbes_same_page_retire() {
        let mut pr = PageRetirement::new();
        assert_eq!(pr.record_sbe(PageAddress(7)), RetireDecision::None);
        assert_eq!(pr.sbe_counts.len(), 1);
        assert_eq!(
            pr.record_sbe(PageAddress(7)),
            RetireDecision::Retired(RetirementCause::MultipleSingleBitErrors)
        );
        assert_eq!(pr.retired_counts(), (0, 1));
    }

    #[test]
    fn sbes_on_different_pages_do_not_retire() {
        let mut pr = PageRetirement::new();
        for i in 0..100 {
            assert_eq!(pr.record_sbe(PageAddress(i)), RetireDecision::None);
        }
        assert_eq!(pr.retired_pages().len(), 0);
        assert_eq!(pr.sbe_counts.len(), 100);
    }

    #[test]
    fn events_on_retired_page_ignored() {
        let mut pr = PageRetirement::new();
        pr.record_dbe(PageAddress(5));
        assert_eq!(pr.record_sbe(PageAddress(5)), RetireDecision::None);
        assert_eq!(pr.record_dbe(PageAddress(5)), RetireDecision::None);
        assert_eq!(pr.retired_pages().len(), 1);
    }

    #[test]
    fn table_capacity_enforced() {
        let mut pr = PageRetirement::new();
        for i in 0..RETIREMENT_TABLE_CAPACITY as u32 {
            assert!(matches!(
                pr.record_dbe(PageAddress(i)),
                RetireDecision::Retired(_)
            ));
        }
        assert_eq!(
            pr.record_dbe(PageAddress(9999)),
            RetireDecision::TableFull
        );
        assert_eq!(pr.retired_pages().len(), RETIREMENT_TABLE_CAPACITY);
    }

    #[test]
    fn mixed_causes_counted_separately() {
        let mut pr = PageRetirement::new();
        pr.record_dbe(PageAddress(1));
        pr.record_sbe(PageAddress(2));
        pr.record_sbe(PageAddress(2));
        pr.record_dbe(PageAddress(3));
        assert_eq!(pr.retired_counts(), (2, 1));
    }
}
