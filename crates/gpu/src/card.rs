//! A physical GPU card: identity that survives slot moves.
//!
//! Titan's operators "identify cards which incur double bit errors and put
//! them out of the production use (such cards undergo further rigorous
//! testing in a hot-spare cluster before being returned to the vendor
//! after encountering a threshold number of DBEs)" (§3.1). That policy —
//! and the paper's distinct-cards-vs-total-events analyses (Figs. 3(b),
//! 5, 15) — only makes sense if a card's history follows the *card*, not
//! the slot. [`GpuCard`] is that unit of identity.

use serde::{Deserialize, Serialize};

use crate::inforom::InfoRom;
use crate::pages::{PageAddress, PageRetirement, RetireDecision};
use crate::structures::MemoryStructure;

/// Card serial number, unique across the fleet including spares.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct CardSerial(pub u32);

impl std::fmt::Display for CardSerial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Vendor-style serial: constant prefix + zero-padded number.
        write!(f, "032351{:07}", self.0)
    }
}

/// Lifecycle state of a card.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CardState {
    /// Serving in a production slot.
    #[default]
    Production,
    /// Pulled into the hot-spare cluster for stress testing after DBEs.
    HotSpare,
    /// Failed hot-spare stress testing; returned to the vendor.
    ReturnedToVendor,
}

/// One physical K20X card with its persistent error history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuCard {
    /// Serial number.
    pub serial: CardSerial,
    /// Persistent/volatile ECC counters.
    pub inforom: InfoRom,
    /// Dynamic page retirement state.
    pub retirement: PageRetirement,
    /// Lifecycle state.
    pub state: CardState,
    /// Lifetime DBEs observed (production + hot-spare), the operators'
    /// replacement-policy input.
    pub lifetime_dbe: u32,
}

impl GpuCard {
    /// A fresh card.
    pub fn new(serial: CardSerial) -> Self {
        GpuCard {
            serial,
            inforom: InfoRom::new(),
            retirement: PageRetirement::new(),
            state: CardState::Production,
            lifetime_dbe: 0,
        }
    }

    /// Applies a corrected SBE in `structure`; if it struck device memory,
    /// page-retirement bookkeeping runs too (only device-memory pages are
    /// retirable). Returns the retirement decision.
    ///
    /// `retirement_active` gates the dynamic-page-retirement state itself:
    /// before the Jan'14 driver shipped the feature, the driver kept no
    /// per-page bookkeeping at all, so a pre-cutover error must leave the
    /// card's page table untouched — not merely suppress the XID 63
    /// record downstream. ECC counters persist either way; they predate
    /// retirement by years.
    pub fn apply_sbe(
        &mut self,
        structure: MemoryStructure,
        page: Option<PageAddress>,
        retirement_active: bool,
    ) -> RetireDecision {
        self.inforom.record_sbe(structure);
        match (structure, page) {
            (MemoryStructure::DeviceMemory, Some(p)) if retirement_active => {
                self.retirement.record_sbe(p)
            }
            _ => RetireDecision::None,
        }
    }

    /// Applies a DBE. `inforom_persisted` is false when the node crashed
    /// before the NVML write (Observation 2). Returns the retirement
    /// decision for device-memory strikes; `retirement_active` gates the
    /// page-retirement state as in [`GpuCard::apply_sbe`].
    pub fn apply_dbe(
        &mut self,
        structure: MemoryStructure,
        page: Option<PageAddress>,
        inforom_persisted: bool,
        retirement_active: bool,
    ) -> RetireDecision {
        self.lifetime_dbe += 1;
        self.inforom.record_dbe(structure, inforom_persisted);
        match (structure, page) {
            (MemoryStructure::DeviceMemory, Some(p)) if retirement_active => {
                self.retirement.record_dbe(p)
            }
            _ => RetireDecision::None,
        }
    }

    /// Operator policy: pull the card to the hot-spare cluster.
    pub fn move_to_hot_spare(&mut self) {
        self.state = CardState::HotSpare;
    }

    /// Operator policy: card failed hot-spare stress testing.
    pub fn return_to_vendor(&mut self) {
        self.state = CardState::ReturnedToVendor;
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::RetirementCause;

    #[test]
    fn serial_format() {
        assert_eq!(format!("{}", CardSerial(42)), "0323510000042");
    }

    #[test]
    fn fresh_card() {
        let c = GpuCard::new(CardSerial(1));
        assert_eq!(c.state, CardState::Production);
        assert_eq!(c.lifetime_dbe, 0);
    }

    #[test]
    fn dbe_on_device_memory_retires_page() {
        let mut c = GpuCard::new(CardSerial(1));
        let d = c.apply_dbe(MemoryStructure::DeviceMemory, Some(PageAddress(10)), true, true);
        assert_eq!(d, RetireDecision::Retired(RetirementCause::DoubleBitError));
        assert_eq!(c.lifetime_dbe, 1);
        assert_eq!(c.inforom.aggregate_dbe(MemoryStructure::DeviceMemory), 1);
    }

    #[test]
    fn dbe_on_register_file_does_not_retire() {
        let mut c = GpuCard::new(CardSerial(1));
        let d = c.apply_dbe(MemoryStructure::RegisterFile, None, true, true);
        assert_eq!(d, RetireDecision::None);
        assert_eq!(c.lifetime_dbe, 1);
        assert_eq!(c.retirement.retired_pages().len(), 0);
    }

    #[test]
    fn unpersisted_dbe_still_counts_lifetime() {
        let mut c = GpuCard::new(CardSerial(1));
        c.apply_dbe(MemoryStructure::DeviceMemory, Some(PageAddress(3)), false, true);
        assert_eq!(c.lifetime_dbe, 1);
        assert_eq!(c.inforom.aggregate_dbe(MemoryStructure::DeviceMemory), 0);
        // The page still retires — retirement happens in the driver before
        // the node goes down; the InfoROM write is the racy part.
        assert_eq!(c.retirement.retired_pages().len(), 1);
    }

    #[test]
    fn sbe_pair_retires_via_card_api() {
        let mut c = GpuCard::new(CardSerial(9));
        assert_eq!(
            c.apply_sbe(MemoryStructure::DeviceMemory, Some(PageAddress(77)), true),
            RetireDecision::None
        );
        assert_eq!(
            c.apply_sbe(MemoryStructure::DeviceMemory, Some(PageAddress(77)), true),
            RetireDecision::Retired(RetirementCause::MultipleSingleBitErrors)
        );
    }

    #[test]
    fn l2_sbe_never_touches_pages() {
        let mut c = GpuCard::new(CardSerial(9));
        for _ in 0..10 {
            assert_eq!(
                c.apply_sbe(MemoryStructure::L2Cache, Some(PageAddress(1)), true),
                RetireDecision::None
            );
        }
        assert_eq!(c.retirement.retired_pages().len(), 0);
        assert_eq!(c.inforom.volatile_sbe(MemoryStructure::L2Cache), 10);
    }

    /// Regression: with retirement inactive (pre-Jan'14 driver), errors
    /// must leave the page table untouched while ECC counters still
    /// accumulate — previously the state mutated unconditionally.
    #[test]
    fn inactive_retirement_leaves_page_state_untouched() {
        let mut c = GpuCard::new(CardSerial(2));
        let d = c.apply_dbe(MemoryStructure::DeviceMemory, Some(PageAddress(10)), true, false);
        assert_eq!(d, RetireDecision::None);
        for _ in 0..5 {
            assert_eq!(
                c.apply_sbe(MemoryStructure::DeviceMemory, Some(PageAddress(10)), false),
                RetireDecision::None
            );
        }
        assert_eq!(c.retirement.retired_pages().len(), 0);
        // The counters are older than the retirement feature.
        assert_eq!(c.lifetime_dbe, 1);
        assert_eq!(c.inforom.aggregate_dbe(MemoryStructure::DeviceMemory), 1);
        assert_eq!(c.inforom.volatile_sbe(MemoryStructure::DeviceMemory), 5);
        // Once the driver ships, the same page retires normally: the
        // pre-cutover strikes left no half-recorded SBE pair behind.
        assert_eq!(
            c.apply_sbe(MemoryStructure::DeviceMemory, Some(PageAddress(10)), true),
            RetireDecision::None
        );
        assert_eq!(
            c.apply_sbe(MemoryStructure::DeviceMemory, Some(PageAddress(10)), true),
            RetireDecision::Retired(RetirementCause::MultipleSingleBitErrors)
        );
    }

    #[test]
    fn lifecycle_transitions() {
        let mut c = GpuCard::new(CardSerial(5));
        c.move_to_hot_spare();
        assert_eq!(c.state, CardState::HotSpare);
        c.return_to_vendor();
        assert_eq!(c.state, CardState::ReturnedToVendor);
    }
}
