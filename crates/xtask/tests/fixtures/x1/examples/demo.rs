//! An example: examples are roots.

fn main() {
    println!("{}", titan_faults::example_entry());
}
