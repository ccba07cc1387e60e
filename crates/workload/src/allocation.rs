//! ALPS-style node placement in folded-torus order.
//!
//! Titan's scheduler walked the Gemini torus when placing a job so that
//! communicating ranks stayed close; because the torus is *physically
//! folded* into the cabinet rows, one job's nodes land in alternating
//! cabinets — the Fig. 12 striping. The allocator hands out free nodes in
//! [`titan_topology::Torus::allocation_order`], first-fit.

use titan_topology::{NodeId, Torus, COMPUTE_NODES};

/// Free-list allocator over the torus allocation order.
#[derive(Debug, Clone)]
pub struct TorusAllocator {
    /// Compute nodes in allocation order.
    order: Vec<NodeId>,
    /// Bit `i % 64` of word `i / 64` is set while `order[i]` is free; bits
    /// past `order.len()` stay clear.
    free: Vec<u64>,
    free_count: usize,
    /// Rotating scan cursor: jobs start their search where the last one
    /// ended, spreading load across the machine like real backfill does.
    cursor: usize,
}

impl Default for TorusAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl TorusAllocator {
    /// A fully free machine.
    pub fn new() -> Self {
        let order = Torus.allocation_order();
        let n = order.len();
        let mut free = vec![u64::MAX; n / 64];
        if n % 64 != 0 {
            free.push((1 << (n % 64)) - 1);
        }
        TorusAllocator {
            order,
            free,
            free_count: n,
            cursor: 0,
        }
    }

    /// Currently free node count.
    pub fn free_nodes(&self) -> usize {
        self.free_count
    }

    /// Machine utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        1.0 - self.free_count as f64 / COMPUTE_NODES as f64
    }

    /// Allocates `n` nodes in torus order starting at the cursor,
    /// wrapping. Returns `None` (and allocates nothing) when fewer than
    /// `n` nodes are free. Busy stretches are skipped a word at a time.
    pub fn allocate(&mut self, n: usize) -> Option<Vec<NodeId>> {
        if n == 0 || n > self.free_count {
            return None;
        }
        let mut picked = Vec::with_capacity(n);
        // From the cursor to the end of the order, then from its start.
        let mut next = self.cursor;
        for from in [self.cursor, 0] {
            let mut wi = from / 64;
            let mut mask = u64::MAX << (from % 64);
            while picked.len() < n {
                let Some(word) = self.free.get_mut(wi) else {
                    break;
                };
                let mut bits = *word & mask;
                while bits != 0 && picked.len() < n {
                    let lowest = bits & bits.wrapping_neg();
                    bits ^= lowest;
                    *word ^= lowest;
                    // lint: allow(N1, trailing_zeros of a u64 is at most 64)
                    let i = wi * 64 + lowest.trailing_zeros() as usize;
                    picked.extend(self.order.get(i));
                    next = i + 1;
                }
                wi += 1;
                mask = u64::MAX;
            }
        }
        debug_assert_eq!(picked.len(), n, "free_count said enough nodes exist");
        self.cursor = next % self.order.len();
        self.free_count -= n;
        Some(picked)
    }

    /// Releases a previously allocated node set.
    pub fn release(&mut self, nodes: &[NodeId]) {
        for node in nodes {
            let i = self.order_index(*node);
            let bit = 1u64 << (i % 64);
            let Some(word) = self.free.get_mut(i / 64) else {
                continue;
            };
            debug_assert!(*word & bit == 0, "double release of {node:?}");
            if *word & bit == 0 {
                *word |= bit;
                self.free_count += 1;
            }
        }
    }

    fn order_index(&self, node: NodeId) -> usize {
        // The allocation order is a permutation; invert by search over a
        // cached map. A linear scan would be O(n) per release, so build
        // the inverse once.
        // NOTE: stored as a function-local static-like field would need
        // interior mutability; instead compute the inverse eagerly.
        self.inverse()[node.0 as usize]
    }

    fn inverse(&self) -> &Vec<usize> {
        // Inverse permutation cache, built on first use.
        use std::sync::OnceLock;
        static INVERSE: OnceLock<Vec<usize>> = OnceLock::new();
        INVERSE.get_or_init(|| {
            let mut inv = vec![usize::MAX; titan_topology::TOTAL_SLOTS];
            for (i, n) in self.order.iter().enumerate() {
                inv[n.0 as usize] = i;
            }
            inv
        })
    }
}

/// The allocator before the free bitmap: a walk over every slot from
/// the cursor, kept as the oracle the bitmap's placements are checked
/// against.
#[cfg(test)]
struct WalkOracle {
    order: Vec<NodeId>,
    /// Node id → position in `order`.
    position: Vec<usize>,
    free: Vec<bool>,
    free_count: usize,
    cursor: usize,
}

#[cfg(test)]
impl WalkOracle {
    fn new() -> Self {
        let order = Torus.allocation_order();
        let n = order.len();
        let mut position = vec![usize::MAX; titan_topology::TOTAL_SLOTS];
        for (i, node) in order.iter().enumerate() {
            position[node.0 as usize] = i;
        }
        WalkOracle {
            order,
            position,
            free: vec![true; n],
            free_count: n,
            cursor: 0,
        }
    }

    fn allocate(&mut self, n: usize) -> Option<Vec<NodeId>> {
        if n == 0 || n > self.free_count {
            return None;
        }
        let len = self.order.len();
        let mut picked = Vec::with_capacity(n);
        let mut idx = self.cursor;
        let mut scanned = 0;
        while picked.len() < n && scanned < len {
            if self.free[idx] {
                self.free[idx] = false;
                picked.push(self.order[idx]);
            }
            idx = (idx + 1) % len;
            scanned += 1;
        }
        self.cursor = idx;
        self.free_count -= n;
        Some(picked)
    }

    fn release(&mut self, nodes: &[NodeId]) {
        for node in nodes {
            let i = self.position[node.0 as usize];
            assert!(!self.free[i], "double release of {node:?}");
            self.free[i] = true;
            self.free_count += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// Seeded streams of allocations and releases of random held jobs,
    /// sized to wrap the cursor many times and to run the machine nearly
    /// full, place every job where the slot walk placed it.
    #[test]
    fn bitmap_places_every_job_where_the_walk_did() {
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut fast, mut walk) = (TorusAllocator::new(), WalkOracle::new());
            let mut held: Vec<Vec<NodeId>> = Vec::new();
            for step in 0..400 {
                let want = match rng.gen_range(0..10) {
                    0 => fast.free_nodes(),     // exactly full
                    1 => fast.free_nodes() + 1, // one too many
                    2 => rng.gen_range(1..4_000),
                    _ => rng.gen_range(1..300),
                };
                let got = fast.allocate(want);
                assert_eq!(got, walk.allocate(want), "seed {seed} step {step}");
                assert_eq!(fast.free_nodes(), walk.free_count);
                assert_eq!(fast.cursor, walk.cursor, "seed {seed} step {step}");
                held.extend(got);
                // Release until the machine has room again, sometimes.
                while !held.is_empty() && (rng.gen_range(0..3) == 0 || fast.free_nodes() < 50) {
                    let job = held.swap_remove(rng.gen_range(0..held.len()));
                    fast.release(&job);
                    walk.release(&job);
                }
            }
        }
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut a = TorusAllocator::new();
        assert_eq!(a.free_nodes(), COMPUTE_NODES);
        let x = a.allocate(100).unwrap();
        assert_eq!(x.len(), 100);
        assert_eq!(a.free_nodes(), COMPUTE_NODES - 100);
        a.release(&x);
        assert_eq!(a.free_nodes(), COMPUTE_NODES);
    }

    #[test]
    fn no_double_allocation() {
        let mut a = TorusAllocator::new();
        let x = a.allocate(5000).unwrap();
        let y = a.allocate(5000).unwrap();
        let sx: HashSet<NodeId> = x.iter().copied().collect();
        assert!(y.iter().all(|n| !sx.contains(n)));
    }

    #[test]
    fn allocation_failure_leaves_state_unchanged() {
        let mut a = TorusAllocator::new();
        let _ = a.allocate(COMPUTE_NODES - 10).unwrap();
        let before = a.free_nodes();
        assert!(a.allocate(11).is_none());
        assert_eq!(a.free_nodes(), before);
        assert!(a.allocate(10).is_some());
        assert_eq!(a.free_nodes(), 0);
    }

    #[test]
    fn zero_request_rejected() {
        let mut a = TorusAllocator::new();
        assert!(a.allocate(0).is_none());
    }

    #[test]
    fn utilization_tracks() {
        let mut a = TorusAllocator::new();
        assert_eq!(a.utilization(), 0.0);
        let x = a.allocate(COMPUTE_NODES / 2).unwrap();
        assert!((a.utilization() - 0.5).abs() < 0.01);
        a.release(&x);
        assert_eq!(a.utilization(), 0.0);
    }

    #[test]
    fn contiguous_allocation_stripes_columns() {
        // The whole point of torus-order placement: a capability-scale
        // job spans alternating physical columns.
        let mut a = TorusAllocator::new();
        let _skip = a.allocate(500).unwrap();
        let job = a.allocate(3_000).unwrap();
        let cols: HashSet<u8> = job.iter().map(|n| n.location().col).collect();
        assert!(cols.len() >= 2, "{cols:?}");
        // Column transitions along the allocation order skip neighbours.
        let mut seq: Vec<u8> = job.iter().map(|n| n.location().col).collect();
        seq.dedup();
        let skips = seq.windows(2).filter(|w| (w[0] as i32 - w[1] as i32).abs() == 2).count();
        let steps = seq.windows(2).filter(|w| (w[0] as i32 - w[1] as i32).abs() == 1).count();
        assert!(skips >= steps, "skips={skips} steps={steps} seq={seq:?}");
    }

    #[test]
    fn cursor_rotates_between_jobs() {
        let mut a = TorusAllocator::new();
        let x = a.allocate(100).unwrap();
        a.release(&x);
        let y = a.allocate(100).unwrap();
        // Second allocation starts after the first (rotating cursor), so
        // the sets differ even though everything was free again.
        assert_ne!(x, y);
    }
}
