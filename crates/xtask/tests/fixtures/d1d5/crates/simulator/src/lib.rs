//! Engine-scope side of the D-rule golden fixture: one hit and one
//! non-hit each for D1, D2, D4, D5 and N1, placed where only the
//! per-line site rules can see them — `use` items, struct fields, test
//! modules, and hatches carried down past a comment run. None of these
//! sites sits in the body of a non-test fn, so the T1 call-graph
//! harvest cannot stand in for them.

// D5 hit: a wall-clock type imported by a `use` item.
use std::time::Instant;

// D4 hit: a road into raw threads, imported by a `use` item.
use std::thread;

// lint: sorted-iter
// D2 non-hit: the hatch above carries down past this comment run.
// The map is only read point-wise by key, never iterated.
use std::collections::HashMap;

// A braceless test-gated `use` ends at its `;`: the struct below is
// live code again.
#[cfg(test)]
use std::fmt::Debug;

pub struct Cache {
    /// D2 hit: a hash container held as a struct field.
    pub by_node: HashMap<u32, u64>,
}

pub struct Meter {
    pub ticked: bool,
}

impl Meter {
    /// D1 hit. D5 non-hit: the line is D1's, so neither D5 nor T1
    /// reports it again.
    pub fn mark(&mut self) {
        self.ticked = Instant::now() > Instant::now();
    }
}

/// N1 hit: an unhatched numeric cast in non-test sim code.
pub fn slot(x: u64) -> u32 {
    x as u32
}

/// N1 non-hit: the allow hatch carries down past a comment.
pub fn node(x: u64) -> u16 {
    // lint: allow(N1, node indices stay below 18,688 by construction)
    // (the topology builder checks that bound)
    x as u16
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    #[test]
    fn stamps() {
        // D1 hit: a wall-clock read flakes a test just as surely.
        let t0 = std::time::SystemTime::now();
        // D4 non-hit: tests may race threads.
        let h = std::thread::spawn(move || t0.elapsed().is_ok());
        // N1 non-hit: test code is outside the cast ratchet.
        let n = 3u64 as usize;
        let seen: HashSet<usize> = HashSet::from([n]);
        assert!(h.join().is_ok() && seen.contains(&n));
    }
}
