//! X1 golden fixture, upper crate: references `titan_stats::mean`
//! (keeping it alive). Its own items are live through an example and a
//! binary, or dead: `mtbf` is called only from `tests/`,
//! `test_only_scale` only from `#[cfg(test)]` code, and `dead_report`
//! from nowhere.

pub fn mtbf(samples: &[f64]) -> f64 {
    titan_stats::mean(samples)
}

/// Dead: no caller anywhere.
pub fn dead_report() -> u64 {
    7
}

/// Dead: only this crate's test module calls it.
pub fn test_only_scale(x: f64) -> f64 {
    x * 2.0
}

/// Live: `examples/demo.rs` calls it.
pub fn example_entry() -> u64 {
    5
}

/// Live: the `fix-cli` binary calls it.
pub fn cli_entry() -> u64 {
    6
}

#[cfg(test)]
mod tests {
    #[test]
    fn scales() {
        assert_eq!(super::test_only_scale(1.0), 2.0);
    }
}
