//! Point-in-time per-GPU ECC snapshots.

use serde::{Deserialize, Serialize};
use titan_gpu::{CardSerial, GpuCard, MemoryStructure};
use titan_topology::NodeId;

/// SBE/DBE counters for one structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EccCounts {
    /// Corrected single-bit errors.
    pub sbe: u64,
    /// Detected double-bit errors.
    pub dbe: u64,
}

/// One GPU's snapshot — what `nvidia-smi -q -d ECC,PAGE_RETIREMENT`
/// would print for the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSnapshot {
    /// Where the card sits right now.
    pub node: NodeId,
    /// Card identity (serials survive slot moves).
    pub serial: CardSerial,
    /// Snapshot time (seconds since study epoch) — the time the *tool*
    /// ran; individual errors carry no timestamps, per the paper.
    pub taken_at: u64,
    /// Aggregate (lifetime) counters per ECC-counted structure, in
    /// [`MemoryStructure::ECC_COUNTED`] order.
    pub aggregate: Vec<EccCounts>,
    /// Volatile (since driver reload) counters, same order.
    pub volatile: Vec<EccCounts>,
    /// Retired pages: (double-bit count, single-bit count).
    pub retired_pages: (u32, u32),
    /// GPU temperature at snapshot time, °F — nvidia-smi reports this and
    /// the paper's cage-gradient claim ("more than 10 °F hotter") was
    /// derived from exactly such a snapshot.
    pub temperature_f: f64,
}

impl GpuSnapshot {
    /// Reads a card. This is the *only* way the analysis side ever sees
    /// SBE information — mirroring the real pipeline. Temperature comes
    /// from the slot's steady-state thermal model.
    pub fn take(node: NodeId, card: &GpuCard, taken_at: u64) -> Self {
        Self::take_with_thermal(node, card, taken_at, &titan_topology::ThermalModel::default())
    }

    /// [`take`](Self::take) with an explicit thermal model.
    pub fn take_with_thermal(
        node: NodeId,
        card: &GpuCard,
        taken_at: u64,
        thermal: &titan_topology::ThermalModel,
    ) -> Self {
        let aggregate = MemoryStructure::ECC_COUNTED
            .iter()
            .map(|&s| EccCounts {
                // NVML reports persisted + pending-flush; a crash between
                // snapshots silently drops the pending part.
                sbe: card.inforom.reported_sbe(s),
                dbe: card.inforom.aggregate_dbe(s),
            })
            .collect();
        let volatile = MemoryStructure::ECC_COUNTED
            .iter()
            .map(|&s| EccCounts {
                sbe: card.inforom.volatile_sbe(s),
                dbe: card.inforom.volatile_dbe(s),
            })
            .collect();
        GpuSnapshot {
            node,
            serial: card.serial,
            taken_at,
            aggregate,
            volatile,
            retired_pages: card.retirement.retired_counts(),
            temperature_f: thermal.gpu_temp_f(node),
        }
    }

    /// Total aggregate SBEs across structures.
    pub fn total_sbe(&self) -> u64 {
        self.aggregate.iter().map(|c| c.sbe).sum()
    }

    /// Total aggregate DBEs across structures.
    pub fn total_dbe(&self) -> u64 {
        self.aggregate.iter().map(|c| c.dbe).sum()
    }

    /// The Observation 2 inconsistency check: true when this card reports
    /// more DBEs than SBEs — "Nvidia-smi reports a greater number of
    /// double bit errors than single bit errors for some cards".
    pub fn dbe_exceeds_sbe(&self) -> bool {
        self.total_dbe() > self.total_sbe()
    }
}

/// Fleet-wide rollup of a snapshot sweep, all sim-time counts. Like
/// `titan_conlog::SecStats` this is obs-independent data the
/// observability collector copies into the metrics document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetEccSummary {
    /// Snapshots in the sweep.
    pub snapshots: u64,
    /// Sum of aggregate SBEs across the fleet.
    pub total_sbe: u64,
    /// Sum of aggregate DBEs across the fleet.
    pub total_dbe: u64,
    /// Retired pages (double-bit cause) across the fleet.
    pub retired_pages_dbe: u64,
    /// Retired pages (two-SBE cause) across the fleet.
    pub retired_pages_sbe: u64,
    /// Cards showing the Observation 2 inversion (DBE > SBE).
    pub dbe_exceeds_sbe_cards: u64,
    /// Cards reporting at least one aggregate SBE.
    pub cards_with_sbe: u64,
    /// Cards reporting at least one aggregate DBE.
    pub cards_with_dbe: u64,
}

/// Folds a snapshot sweep into a [`FleetEccSummary`].
pub fn summarize(snapshots: &[GpuSnapshot]) -> FleetEccSummary {
    let mut s = FleetEccSummary {
        snapshots: snapshots.len() as u64,
        ..FleetEccSummary::default()
    };
    for snap in snapshots {
        let sbe = snap.total_sbe();
        let dbe = snap.total_dbe();
        s.total_sbe += sbe;
        s.total_dbe += dbe;
        s.retired_pages_dbe += snap.retired_pages.0 as u64;
        s.retired_pages_sbe += snap.retired_pages.1 as u64;
        if snap.dbe_exceeds_sbe() {
            s.dbe_exceeds_sbe_cards += 1;
        }
        if sbe > 0 {
            s.cards_with_sbe += 1;
        }
        if dbe > 0 {
            s.cards_with_dbe += 1;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_gpu::PageAddress;

    fn card_with_history() -> GpuCard {
        let mut c = GpuCard::new(CardSerial(7));
        c.apply_sbe(MemoryStructure::L2Cache, None, true);
        c.apply_sbe(MemoryStructure::L2Cache, None, true);
        c.apply_sbe(MemoryStructure::DeviceMemory, Some(PageAddress(3)), true);
        c.inforom.flush_sbe();
        c.apply_dbe(MemoryStructure::DeviceMemory, Some(PageAddress(9)), true, true);
        c
    }

    #[test]
    fn snapshot_reads_counters() {
        let c = card_with_history();
        let s = GpuSnapshot::take(NodeId(10), &c, 1000);
        assert_eq!(s.total_sbe(), 3);
        assert_eq!(s.total_dbe(), 1);
        let at = |m| MemoryStructure::ECC_COUNTED.iter().position(|&s| s == m).unwrap();
        assert_eq!(s.aggregate[at(MemoryStructure::L2Cache)].sbe, 2);
        assert_eq!(s.aggregate[at(MemoryStructure::DeviceMemory)].dbe, 1);
        assert_eq!(s.retired_pages, (1, 0));
        assert!(!s.dbe_exceeds_sbe());
    }

    #[test]
    fn unpersisted_dbe_invisible_to_snapshot() {
        let mut c = GpuCard::new(CardSerial(1));
        c.apply_dbe(MemoryStructure::DeviceMemory, Some(PageAddress(1)), false, true);
        let s = GpuSnapshot::take(NodeId(0), &c, 0);
        assert_eq!(s.total_dbe(), 0, "lost InfoROM write must not appear");
        assert_eq!(c.lifetime_dbe, 1, "ground truth still knows");
    }

    #[test]
    fn observation2_inversion_detectable() {
        let mut c = GpuCard::new(CardSerial(2));
        c.apply_sbe(MemoryStructure::DeviceMemory, None, true);
        c.inforom.driver_reload(false); // crash loses the SBE
        c.apply_dbe(MemoryStructure::DeviceMemory, None, true, true);
        let s = GpuSnapshot::take(NodeId(0), &c, 0);
        assert!(s.dbe_exceeds_sbe());
    }

    #[test]
    fn fleet_summary_rolls_up_sweep() {
        let healthy = GpuCard::new(CardSerial(10));
        let mut inverted = GpuCard::new(CardSerial(11));
        inverted.apply_sbe(MemoryStructure::DeviceMemory, None, true);
        inverted.inforom.driver_reload(false); // crash loses the SBE
        inverted.apply_dbe(MemoryStructure::DeviceMemory, Some(PageAddress(4)), true, true);
        let sweep = vec![
            GpuSnapshot::take(NodeId(0), &card_with_history(), 5),
            GpuSnapshot::take(NodeId(1), &healthy, 5),
            GpuSnapshot::take(NodeId(2), &inverted, 5),
        ];
        let s = summarize(&sweep);
        assert_eq!(s.snapshots, 3);
        assert_eq!(s.total_sbe, 3);
        assert_eq!(s.total_dbe, 2);
        assert_eq!(s.retired_pages_dbe, 2);
        assert_eq!(s.dbe_exceeds_sbe_cards, 1);
        assert_eq!(s.cards_with_sbe, 1);
        assert_eq!(s.cards_with_dbe, 2);
        assert_eq!(summarize(&[]), FleetEccSummary::default());
    }

    #[test]
    fn volatile_vs_aggregate_split() {
        let mut c = GpuCard::new(CardSerial(3));
        c.apply_sbe(MemoryStructure::L2Cache, None, true);
        let s = GpuSnapshot::take(NodeId(0), &c, 0);
        // Pending-flush errors appear in both the volatile counter and
        // NVML's reported aggregate...
        assert_eq!(s.volatile[1].sbe, 1); // index 1 = L2 in ECC_COUNTED
        assert_eq!(s.aggregate[1].sbe, 1);
        // ...until a crash reload drops the pending part from both.
        c.inforom.driver_reload(false);
        let s = GpuSnapshot::take(NodeId(0), &c, 1);
        assert_eq!(s.volatile[1].sbe, 0);
        assert_eq!(s.aggregate[1].sbe, 0);
    }
}
