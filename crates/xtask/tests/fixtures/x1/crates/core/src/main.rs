//! A binary of a dependent crate (in a `core`-layer dir, so L1 allows
//! the edge): its non-test code is a root.

fn main() {
    println!("{}", titan_faults::cli_entry());
}
