//! X1 golden fixture, lower crate: one API live through a dependent
//! crate, one through a benchmark-style root, one dead, one dead but
//! re-exported, one hatched.

/// Live: referenced by `titan-faults`, a dependent crate.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Dead: nothing in the workspace spells this name.
pub fn orphan_quantile(_xs: &[f64]) -> f64 {
    0.0
}

// lint: allow(X1, kept as the paper-table replication surface)
pub fn hatched_api() -> u64 {
    42
}

/// Live: `e2e-bench/src` calls it, from a workspace of its own.
pub fn bench_probe() -> u64 {
    3
}

pub mod inner {
    /// Dead: the `pub use` below names it, nothing calls it.
    pub fn reexported_only() -> u64 {
        1
    }
}

pub use inner::reexported_only;
