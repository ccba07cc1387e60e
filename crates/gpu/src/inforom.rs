//! The InfoROM: the card's persistent error-counter store, with the
//! logging pathology the paper spends half of §3.1 on.
//!
//! nvidia-smi reads aggregate ECC counters and retired-page addresses from
//! NVML, which persists them in the card's InfoROM. Two real-world quirks
//! are modelled faithfully because the paper's Observation 2 is *about*
//! them:
//!
//! 1. **DBE loss on crash** — "a double bit error causes the node to shut
//!    down before the DBE incident is logged in the NVML InfoROM … Our
//!    interaction with the vendor confirmed this explanation." A DBE write
//!    is only persisted when the caller says the node survived long enough.
//! 2. **SBE > DBE inversions** — because SBE aggregation happens lazily,
//!    some cards report more DBEs than SBEs over the same window ("it can
//!    be attributed to inconsistency in logging"). We model lazy SBE
//!    flushes: volatile SBE counts persist only at periodic flush points,
//!    so a crash can lose the volatile tail.

use serde::{Deserialize, Serialize};

use crate::structures::MemoryStructure;

/// Number of ECC-counted structures (see [`MemoryStructure::ECC_COUNTED`]).
const N_COUNTED: usize = MemoryStructure::ECC_COUNTED.len();

/// Index of a structure in the counted arrays, or `None` if nvidia-smi
/// does not report it.
fn counted_index(s: MemoryStructure) -> Option<usize> {
    MemoryStructure::ECC_COUNTED.iter().position(|&m| m == s)
}

/// Persistent + volatile ECC counters for one card.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InfoRom {
    /// Persisted (aggregate) counters, survive reboot.
    agg_sbe: [u64; N_COUNTED],
    agg_dbe: [u64; N_COUNTED],
    /// Volatile counters since the last driver reload.
    vol_sbe: [u64; N_COUNTED],
    vol_dbe: [u64; N_COUNTED],
    /// Volatile SBEs not yet flushed into the aggregate store.
    unflushed_sbe: [u64; N_COUNTED],
}

impl InfoRom {
    /// Fresh card.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a corrected SBE. Always lands in the volatile counter;
    /// reaches the persistent aggregate only at the next [`flush_sbe`].
    ///
    /// [`flush_sbe`]: InfoRom::flush_sbe
    pub fn record_sbe(&mut self, s: MemoryStructure) {
        if let Some(i) = counted_index(s) {
            self.vol_sbe[i] += 1;
            self.unflushed_sbe[i] += 1;
        }
    }

    /// Records a DBE. `persisted` is false when the node crashed before
    /// NVML could write the InfoROM — the Observation 2 undercount path.
    pub fn record_dbe(&mut self, s: MemoryStructure, persisted: bool) {
        if let Some(i) = counted_index(s) {
            self.vol_dbe[i] += 1;
            if persisted {
                self.agg_dbe[i] += 1;
            }
        }
    }

    /// Flushes volatile SBE counts into the persistent aggregates (the
    /// driver does this periodically and at orderly shutdown).
    pub fn flush_sbe(&mut self) {
        for i in 0..N_COUNTED {
            self.agg_sbe[i] += self.unflushed_sbe[i];
            self.unflushed_sbe[i] = 0;
        }
    }

    /// Driver reload / node reboot: volatile counters clear. When
    /// `orderly` the pending SBEs are flushed first; on a crash they are
    /// lost (producing the SBE-undercount inconsistency).
    pub fn driver_reload(&mut self, orderly: bool) {
        if orderly {
            self.flush_sbe();
        }
        self.vol_sbe = [0; N_COUNTED];
        self.vol_dbe = [0; N_COUNTED];
        self.unflushed_sbe = [0; N_COUNTED];
    }

    /// The aggregate SBE count *as NVML reports it*: persisted plus
    /// pending-flush. This is what nvidia-smi prints; the pending part is
    /// what a crash loses (the undercount pathology).
    pub fn reported_sbe(&self, s: MemoryStructure) -> u64 {
        counted_index(s).map_or(0, |i| self.agg_sbe[i] + self.unflushed_sbe[i])
    }

    /// Aggregate (persistent) DBE count for one structure.
    pub fn aggregate_dbe(&self, s: MemoryStructure) -> u64 {
        counted_index(s).map_or(0, |i| self.agg_dbe[i])
    }

    /// Volatile SBE count for one structure.
    pub fn volatile_sbe(&self, s: MemoryStructure) -> u64 {
        counted_index(s).map_or(0, |i| self.vol_sbe[i])
    }

    /// Volatile DBE count for one structure.
    pub fn volatile_dbe(&self, s: MemoryStructure) -> u64 {
        counted_index(s).map_or(0, |i| self.vol_dbe[i])
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structures::MemoryStructure::*;

    #[test]
    fn sbe_needs_flush_to_persist() {
        let mut ir = InfoRom::new();
        ir.record_sbe(L2Cache);
        ir.record_sbe(L2Cache);
        assert_eq!(ir.volatile_sbe(L2Cache), 2);
        assert_eq!(ir.agg_sbe[counted_index(L2Cache).unwrap()], 0);
        ir.flush_sbe();
        assert_eq!(ir.agg_sbe[counted_index(L2Cache).unwrap()], 2);
        // Flushing twice must not double count.
        ir.flush_sbe();
        assert_eq!(ir.agg_sbe[counted_index(L2Cache).unwrap()], 2);
    }

    #[test]
    fn dbe_persistence_flag() {
        let mut ir = InfoRom::new();
        ir.record_dbe(DeviceMemory, true);
        ir.record_dbe(DeviceMemory, false); // node died first
        assert_eq!(ir.volatile_dbe(DeviceMemory), 2);
        assert_eq!(ir.aggregate_dbe(DeviceMemory), 1);
    }

    #[test]
    fn crash_reload_loses_unflushed_sbes() {
        let mut ir = InfoRom::new();
        ir.record_sbe(DeviceMemory);
        ir.record_sbe(DeviceMemory);
        ir.record_sbe(DeviceMemory);
        ir.driver_reload(false); // crash
        assert_eq!(ir.agg_sbe[counted_index(DeviceMemory).unwrap()], 0);
        assert_eq!(ir.volatile_sbe(DeviceMemory), 0);
    }

    #[test]
    fn orderly_reload_keeps_sbes() {
        let mut ir = InfoRom::new();
        ir.record_sbe(RegisterFile);
        ir.driver_reload(true);
        assert_eq!(ir.agg_sbe[counted_index(RegisterFile).unwrap()], 1);
        assert_eq!(ir.volatile_sbe(RegisterFile), 0);
    }

    #[test]
    fn observation2_inversion_is_representable() {
        // A card whose SBEs are always lost to crashes but whose DBEs are
        // persisted shows DBE > SBE — the inconsistency the paper calls out.
        let mut ir = InfoRom::new();
        ir.record_sbe(DeviceMemory);
        ir.driver_reload(false); // SBE lost
        ir.record_dbe(DeviceMemory, true);
        ir.record_dbe(DeviceMemory, true);
        assert!(ir.agg_dbe.iter().sum::<u64>() > ir.agg_sbe.iter().sum::<u64>());
        // The volatile view forgot the pre-reload SBE entirely.
        assert_eq!(ir.vol_sbe.iter().sum::<u64>(), 0);
    }

    #[test]
    fn uncounted_structures_ignored() {
        let mut ir = InfoRom::new();
        ir.record_sbe(ControlLogic);
        ir.record_dbe(ReadOnlyCache, true);
        assert_eq!(ir.agg_sbe.iter().sum::<u64>(), 0);
        assert_eq!(ir.agg_dbe.iter().sum::<u64>(), 0);
    }

    #[test]
    fn per_structure_isolation() {
        let mut ir = InfoRom::new();
        ir.record_sbe(L2Cache);
        ir.record_sbe(DeviceMemory);
        ir.flush_sbe();
        assert_eq!(ir.agg_sbe[counted_index(L2Cache).unwrap()], 1);
        assert_eq!(ir.agg_sbe[counted_index(DeviceMemory).unwrap()], 1);
        assert_eq!(ir.agg_sbe[counted_index(RegisterFile).unwrap()], 0);
        assert_eq!(ir.agg_sbe.iter().sum::<u64>(), 2);
    }
}
