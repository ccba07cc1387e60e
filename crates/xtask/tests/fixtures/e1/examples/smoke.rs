//! Keeps the fixture's entry points referenced: examples are X1 roots.

fn main() {
    titan_sim::hits(1);
    assert!(titan_sim::non_hits(2).is_ok());
}
