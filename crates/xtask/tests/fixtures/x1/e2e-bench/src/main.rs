//! The benchmark builds against the crates by path from a workspace of
//! its own; its `src/` is a root all the same.

fn main() {
    println!("{}", titan_stats::bench_probe());
}
