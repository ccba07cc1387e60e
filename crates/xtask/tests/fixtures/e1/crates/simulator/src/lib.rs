//! E1 golden fixture: swallowed fallible results in simulation code.

/// The fixture's fallible sim API; `#[must_use]` marks an outcome the
/// caller must observe.
#[must_use]
pub fn inject(n: u32) -> Result<u32, String> {
    if n == 0 {
        return Err("cannot inject into node 0".to_string());
    }
    Ok(n)
}

/// Hits: all three E1 legs, one per line.
pub fn hits(n: u32) {
    let _ = inject(n);
    inject(n).ok();
    inject(n);
}

/// Non-hits: bound, propagated, fmt-exempt, and hatched discards.
pub fn non_hits(n: u32) -> Result<u32, String> {
    use std::fmt::Write as _;
    let mut log = String::new();
    let _ = write!(log, "inject {n}");
    let got = inject(n)?;
    // lint: allow(E1, best-effort warm-up draw, outcome irrelevant)
    let _ = inject(got);
    Ok(got)
}

/// Hit beside a non-hit: the live discard is flagged; the one in the
/// nested `#[cfg(test)]` helper is test code and is not.
fn nested(n: u32) {
    #[cfg(test)]
    fn helper(n: u32) {
        let _ = inject(n);
    }
    let _ = inject(n);
}
