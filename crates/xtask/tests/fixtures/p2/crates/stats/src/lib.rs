//! P2 golden fixture: panic-surface sites attributed per function.

/// Hit: one `.unwrap()` and one indexing site in a live fn — two P2
/// sites on the `titan_stats::risky` budget line.
pub fn risky(xs: &[u32], i: Option<usize>) -> u32 {
    xs[i.unwrap()]
}

/// Non-hit: the invariant-backed site is hatched.
pub fn hatched(xs: &[u32]) -> u32 {
    // lint: allow(P2, caller guarantees xs is non-empty)
    xs[0]
}

/// Hit beside a non-hit: the live `.unwrap()` counts on the
/// `titan_stats::outer` budget line; the one in the nested
/// `#[cfg(test)]` helper is test code and does not.
fn outer(x: Option<u32>) -> u32 {
    #[cfg(test)]
    fn helper() -> u32 {
        Some(3).unwrap()
    }
    x.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_panics_are_free() {
        assert_eq!(super::risky(&[7], Some(0)), 7);
        assert_eq!(super::hatched(&[5]), 5);
        let v = vec![3u32];
        assert_eq!(v[0], 3);
    }
}
