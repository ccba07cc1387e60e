//! Calls `mtbf`, which stays dead: a `tests/` tree is not a root.

#[test]
fn fixture_smoke() {
    assert_eq!(titan_faults::mtbf(&[1.0, 3.0]), 2.0);
}
