//! Keeps the fixture's entry points referenced: examples are X1 roots.

fn main() {
    assert_eq!(titan_stats::risky(&[7], Some(0)), 7);
    assert_eq!(titan_stats::hatched(&[5]), 5);
}
