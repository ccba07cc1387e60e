//! Fleet state: 18,688 production slots, the cards in them, and the
//! spare pool the hot-spare policy swaps from.
//!
//! Card identity is decoupled from slot identity because the operators'
//! replacement workflow moves cards: "we identify cards which incur
//! double bit errors and put them out of the production use (such cards
//! undergo further rigorous testing in a hot-spare cluster …)".

use rand::Rng;
use serde::{Deserialize, Serialize};
use titan_faults::susceptibility::{CardSusceptibility, SbeAliasSampler};
use titan_gpu::{CardSerial, GpuCard, MemoryStructure};
use titan_stats::WeightedAlias;
use titan_topology::{gpu_index_to_node, NodeId, ThermalModel, COMPUTE_NODES};

/// The machine's card inventory and placement.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Every card ever owned (production + spares), indexed by card id.
    cards: Vec<GpuCard>,
    /// GPU slot (dense compute index) → card id.
    slot_card: Vec<u32>,
    /// Card id → GPU slot (None = in the spare pool / returned).
    card_slot: Vec<Option<u32>>,
    /// Spare pool, LIFO.
    spares: Vec<u32>,
    /// Per-card static susceptibility (travels with the card).
    pub susceptibility: CardSusceptibility,
    /// Per-slot `(off-the-bus, DBE)` thermal accelerations, computed
    /// on the first pick (see [`slot_accelerations`]).
    accel: Option<Vec<(f64, f64)>>,
    /// Scratch weight vector the pickers are rebuilt from.
    weights: Vec<f64>,
    /// Cards that already had their off-the-bus failure (the defect does
    /// not recur on a re-soldered card).
    otb_done: Vec<bool>,
    /// Cached weighted pickers, invalidated on swaps.
    dbe_picker: Option<WeightedAlias>,
    /// The off-the-bus picker, rebuilt in place (every off-the-bus event
    /// changes its weights) when `otb_stale`.
    otb_picker: WeightedAlias,
    otb_stale: bool,
    sbe_picker: Option<SbeAliasSampler>,
    /// `(slot, reported SBE vector just before a change)` for every
    /// change since the last `drain_changes`, oldest first.
    changes: Vec<(u32, [u64; 5])>,
}

impl Fleet {
    /// Builds the fleet: one card per compute slot plus `n_spares`
    /// spares, with susceptibility drawn from `rng`.
    pub fn new<R: Rng + ?Sized>(n_spares: usize, rng: &mut R) -> Self {
        let n_cards = COMPUTE_NODES + n_spares;
        let cards: Vec<GpuCard> = (0..n_cards as u32)
            .map(|i| GpuCard::new(CardSerial(i)))
            .collect();
        let slot_card: Vec<u32> = (0..COMPUTE_NODES as u32).collect();
        let mut card_slot: Vec<Option<u32>> = (0..COMPUTE_NODES as u32).map(Some).collect();
        card_slot.extend(std::iter::repeat(None).take(n_spares));
        let spares: Vec<u32> = (COMPUTE_NODES as u32..n_cards as u32).collect();
        let susceptibility = CardSusceptibility::generate(n_cards, rng);
        Fleet {
            cards,
            slot_card,
            card_slot,
            spares,
            susceptibility,
            accel: None,
            weights: Vec::new(),
            otb_done: vec![false; n_cards],
            dbe_picker: None,
            otb_picker: WeightedAlias::default(),
            otb_stale: true,
            sbe_picker: None,
            changes: Vec::new(),
        }
    }

    /// Number of cards ever owned.
    pub fn n_cards(&self) -> usize {
        self.cards.len()
    }

    /// Remaining spare cards.
    pub fn n_spares(&self) -> usize {
        self.spares.len()
    }

    /// Card id in `slot`.
    pub fn card_at_slot(&self, slot: u32) -> u32 {
        self.slot_card[slot as usize]
    }

    /// Current slot of `card`, if in production.
    pub fn slot_of_card(&self, card: u32) -> Option<u32> {
        self.card_slot[card as usize]
    }

    /// The node hosting `slot`.
    pub fn node_of_slot(&self, slot: u32) -> NodeId {
        gpu_index_to_node(slot)
    }

    /// Immutable card access.
    pub fn card(&self, card: u32) -> &GpuCard {
        &self.cards[card as usize]
    }

    /// Mutable card access. This and [`Fleet::swap_out`] are the only
    /// ways to change the SBE counts nvidia-smi reports for a slot, so
    /// both note the slot's reported vector before the change; the
    /// engine drains the notes to build each job's SBE delta.
    pub fn card_mut(&mut self, card: u32) -> &mut GpuCard {
        let i = card as usize;
        if let Some(&Some(slot)) = self.card_slot.get(i) {
            self.note_change(slot);
        }
        &mut self.cards[i]
    }

    /// The SBE totals nvidia-smi reports for the card in `slot`, per
    /// structure in `MemoryStructure::ECC_COUNTED` order.
    pub(crate) fn reported_sbe(&self, slot: u32) -> [u64; 5] {
        let mut v = [0u64; 5];
        let card = self.card(self.card_at_slot(slot));
        for (x, &s) in v.iter_mut().zip(MemoryStructure::ECC_COUNTED.iter()) {
            *x = card.inforom.reported_sbe(s);
        }
        v
    }

    /// Hands out every `(slot, vector before the change)` noted since
    /// the last call, oldest first. A slot changed twice appears twice;
    /// its first entry holds the vector from before both changes.
    pub(crate) fn drain_changes(&mut self) -> std::vec::Drain<'_, (u32, [u64; 5])> {
        self.changes.drain(..)
    }

    fn note_change(&mut self, slot: u32) {
        let before = self.reported_sbe(slot);
        self.changes.push((slot, before));
    }

    /// Marks a card's off-the-bus defect as expressed (and re-soldered).
    pub fn mark_otb_done(&mut self, card: u32) {
        self.otb_done[card as usize] = true;
        self.otb_stale = true;
    }

    /// Swaps the card in `slot` out to the spare pool and installs a
    /// spare. Returns `(old_card, new_card)`, or `None` when no spares
    /// remain.
    pub fn swap_out(&mut self, slot: u32) -> Option<(u32, u32)> {
        let new_card = self.spares.pop()?;
        self.note_change(slot);
        let old_card = self.slot_card[slot as usize];
        self.slot_card[slot as usize] = new_card;
        self.card_slot[old_card as usize] = None;
        self.card_slot[new_card as usize] = Some(slot);
        self.cards[old_card as usize].move_to_hot_spare();
        // Placement-sensitive pickers are stale now.
        self.dbe_picker = None;
        self.otb_stale = true;
        self.sbe_picker = None;
        Some((old_card, new_card))
    }

    /// Picks the slot struck by a DBE: thermal acceleration of the slot
    /// (raised to the DBE class's stronger thermal exponent) × the
    /// resident card's DBE proneness.
    pub fn pick_dbe_slot<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u32 {
        if self.dbe_picker.is_none() {
            let accel = self.accel.get_or_insert_with(slot_accelerations);
            self.weights.clear();
            self.weights.extend(
                self.slot_card
                    .iter()
                    .zip(accel.iter())
                    .map(|(&card, &(_, a))| a * self.susceptibility.dbe_weight(card as usize)),
            );
            self.dbe_picker = Some(WeightedAlias::new(&self.weights).expect("positive weights"));
        }
        self.dbe_picker.as_ref().expect("just built").sample(rng) as u32
    }

    /// Picks the slot struck by an off-the-bus failure: thermal only
    /// (integration defect, not card electronics), excluding cards whose
    /// defect already expressed.
    pub fn pick_otb_slot<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u32> {
        if self.otb_stale {
            let accel = self.accel.get_or_insert_with(slot_accelerations);
            self.weights.clear();
            self.weights.extend(self.slot_card.iter().zip(accel.iter()).map(|(&card, &(a, _))| {
                if self.otb_done.get(card as usize).copied().unwrap_or(false) {
                    0.0
                } else {
                    a
                }
            }));
            self.otb_picker.rebuild(&self.weights);
            self.otb_stale = false;
        }
        (self.otb_picker.support() > 0).then(|| self.otb_picker.sample(rng) as u32)
    }

    /// Picks the card struck by an SBE (susceptibility travels with the
    /// card, wherever it sits). `None` when no card is susceptible.
    pub fn pick_sbe_card<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u32> {
        if self.sbe_picker.is_none() {
            self.sbe_picker = SbeAliasSampler::new(&self.susceptibility);
        }
        self.sbe_picker.as_ref().map(|p| p.sample(rng) as u32)
    }

    /// Captures placement, spare pool, and per-card wear for a
    /// checkpoint.
    pub(crate) fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            cards: self.cards.clone(),
            slot_card: self.slot_card.clone(),
            card_slot: self.card_slot.clone(),
            spares: self.spares.clone(),
            otb_done: self.otb_done.clone(),
        }
    }

    /// Overlays a snapshot onto a freshly generated fleet. The cached
    /// pickers are dropped (they are deterministic functions of the
    /// overlaid placement state and rebuild lazily); susceptibility (a
    /// pure function of the seed) and the per-slot thermal accelerations
    /// (of the machine) are never mutated and stay as they are.
    pub(crate) fn restore(&mut self, s: &FleetSnapshot) {
        self.cards = s.cards.clone();
        self.slot_card = s.slot_card.clone();
        self.card_slot = s.card_slot.clone();
        self.spares = s.spares.clone();
        self.otb_done = s.otb_done.clone();
        self.changes.clear();
        self.dbe_picker = None;
        self.otb_stale = true;
        self.sbe_picker = None;
    }
}

/// Thermal acceleration of each slot under the default [`ThermalModel`]
/// (a property of the slot, not the card, and never changed), paired
/// with its power under the DBE class's stronger thermal exponent: the
/// off-the-bus and DBE pickers' slot weights, computed once per fleet
/// instead of on every picker rebuild.
fn slot_accelerations() -> Vec<(f64, f64)> {
    let thermal = ThermalModel::default();
    (0..COMPUTE_NODES as u32)
        .map(|slot| {
            let a = thermal.acceleration(gpu_index_to_node(slot));
            (a, a.powf(titan_faults::calibration::DBE_THERMAL_EXPONENT))
        })
        .collect()
}

/// Portable [`Fleet`] state for checkpointing: everything the event loop
/// mutates. Susceptibility, the thermal accelerations, and the cached
/// alias samplers are deliberately absent — susceptibility is regenerated
/// from the seed by [`Fleet::new`], the accelerations from the machine,
/// and the samplers are lazy caches over the fields captured here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct FleetSnapshot {
    cards: Vec<GpuCard>,
    slot_card: Vec<u32>,
    card_slot: Vec<Option<u32>>,
    spares: Vec<u32>,
    otb_done: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fleet() -> Fleet {
        let mut rng = StdRng::seed_from_u64(11);
        Fleet::new(8, &mut rng)
    }

    #[test]
    fn initial_placement_is_identity() {
        let f = fleet();
        assert_eq!(f.n_cards(), COMPUTE_NODES + 8);
        assert_eq!(f.n_spares(), 8);
        assert_eq!(f.card_at_slot(0), 0);
        assert_eq!(f.slot_of_card(0), Some(0));
        assert_eq!(f.slot_of_card(COMPUTE_NODES as u32), None); // spare
    }

    #[test]
    fn swap_moves_card_to_hot_spare() {
        let mut f = fleet();
        let (old, new) = f.swap_out(100).unwrap();
        assert_eq!(old, 100);
        assert_eq!(f.card_at_slot(100), new);
        assert_eq!(f.slot_of_card(old), None);
        assert_eq!(f.slot_of_card(new), Some(100));
        assert!(!f.card(old).in_production());
        assert_eq!(f.n_spares(), 7);
    }

    #[test]
    fn swap_exhausts_spares() {
        let mut f = fleet();
        for slot in 0..8 {
            assert!(f.swap_out(slot).is_some());
        }
        assert!(f.swap_out(9).is_none());
    }

    #[test]
    fn dbe_pick_prefers_top_cage() {
        let mut f = fleet();
        let mut rng = StdRng::seed_from_u64(3);
        let mut cage_counts = [0u32; 3];
        for _ in 0..30_000 {
            let slot = f.pick_dbe_slot(&mut rng);
            let cage = f.node_of_slot(slot).location().cage;
            cage_counts[cage as usize] += 1;
        }
        assert!(
            cage_counts[2] > cage_counts[0],
            "top cage must dominate: {cage_counts:?}"
        );
        // Roughly the boosted thermal ratio (~1.9x), not wildly more.
        let ratio = cage_counts[2] as f64 / cage_counts[0] as f64;
        assert!((1.4..2.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn otb_pick_excludes_done_cards() {
        let mut f = fleet();
        let mut rng = StdRng::seed_from_u64(9);
        let slot = f.pick_otb_slot(&mut rng).unwrap();
        let card = f.card_at_slot(slot);
        f.mark_otb_done(card);
        for _ in 0..5_000 {
            let s = f.pick_otb_slot(&mut rng).unwrap();
            assert_ne!(f.card_at_slot(s), card, "re-picked a soldered card");
        }
    }

    #[test]
    fn sbe_pick_only_susceptible() {
        let mut f = fleet();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5_000 {
            let c = f.pick_sbe_card(&mut rng).unwrap();
            assert!(f.susceptibility.sbe_weight(c as usize) > 0.0);
        }
    }

    #[test]
    fn swap_invalidates_pickers() {
        let mut f = fleet();
        let mut rng = StdRng::seed_from_u64(7);
        let _ = f.pick_dbe_slot(&mut rng);
        assert!(f.dbe_picker.is_some());
        f.swap_out(0).unwrap();
        assert!(f.dbe_picker.is_none());
        assert!(f.sbe_picker.is_none());
    }
}
