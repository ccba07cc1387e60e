//! Analysis-scope side of the D-rule golden fixture. The same wall
//! clock, hash container and cast that the simulator crate may not
//! hold are fine here: stats consumes sim output, it never produces
//! it. D1 non-hit by scope.

use std::collections::HashMap;
use std::time::Instant;

/// Times a tally of node counts; nothing here reaches sim state.
pub fn timed_tally(xs: &[u64]) -> (u128, HashMap<u64, u32>) {
    let t0 = Instant::now();
    let mut tally = HashMap::new();
    for x in xs {
        *tally.entry(*x).or_insert(0) += 1;
    }
    (t0.elapsed().as_nanos() + xs.len() as u128, tally)
}
