//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use titan_stats::{average_ranks, pearson, spearman, Ecdf, Summary};

fn finite_vec(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6..1.0e6f64, min_len..64)
}

proptest! {
    /// Correlation coefficients are always within [-1, 1] and p in [0, 1].
    #[test]
    fn correlation_bounds(x in finite_vec(2), y in finite_vec(2)) {
        let n = x.len().min(y.len());
        if let Some(r) = pearson(&x[..n], &y[..n]) {
            prop_assert!((-1.0..=1.0).contains(&r.r));
            prop_assert!((0.0..=1.0).contains(&r.p_value));
        }
        if let Some(r) = spearman(&x[..n], &y[..n]) {
            prop_assert!((-1.0..=1.0).contains(&r.r));
        }
    }

    /// Pearson is symmetric: r(x, y) == r(y, x).
    #[test]
    fn pearson_symmetric(x in finite_vec(3), y in finite_vec(3)) {
        let n = x.len().min(y.len());
        let a = pearson(&x[..n], &y[..n]);
        let b = pearson(&y[..n], &x[..n]);
        match (a, b) {
            (Some(a), Some(b)) => prop_assert!((a.r - b.r).abs() < 1e-9),
            (None, None) => {}
            _ => prop_assert!(false, "asymmetric None"),
        }
    }

    /// Pearson is invariant under positive affine transforms of either side.
    #[test]
    fn pearson_affine_invariant(x in finite_vec(3), y in finite_vec(3),
                                a in 0.1..10.0f64, b in -100.0..100.0f64) {
        let n = x.len().min(y.len());
        let y2: Vec<f64> = y[..n].iter().map(|v| a * v + b).collect();
        if let (Some(r1), Some(r2)) = (pearson(&x[..n], &y[..n]), pearson(&x[..n], &y2)) {
            prop_assert!((r1.r - r2.r).abs() < 1e-6, "{} vs {}", r1.r, r2.r);
        }
    }

    /// Spearman depends only on ranks: any strictly monotone transform of
    /// y leaves it unchanged.
    #[test]
    fn spearman_monotone_invariant(x in finite_vec(3), y in finite_vec(3)) {
        let n = x.len().min(y.len());
        // Cubing is strictly monotone over all of f64's finite range (no
        // saturation, unlike exp, which would introduce artificial ties).
        let y2: Vec<f64> = y[..n].iter().map(|v| v * v * v).collect();
        if let (Some(r1), Some(r2)) = (spearman(&x[..n], &y[..n]), spearman(&x[..n], &y2)) {
            prop_assert!((r1.r - r2.r).abs() < 1e-6);
        }
    }

    /// Rank sum is always n(n+1)/2 and every rank is within [1, n].
    #[test]
    fn ranks_invariants(x in finite_vec(1)) {
        let r = average_ranks(&x);
        let n = x.len() as f64;
        let sum: f64 = r.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
        prop_assert!(r.iter().all(|&v| v >= 1.0 && v <= n));
    }

    /// Summary::merge is associative with single-pass computation.
    #[test]
    fn summary_merge_consistent(xs in finite_vec(2), split in 0usize..64) {
        let split = split.min(xs.len());
        let whole = Summary::of(&xs);
        let mut a = Summary::of(&xs[..split]);
        a.merge(&Summary::of(&xs[split..]));
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((a.sum() - whole.sum()).abs() < 1.0);
    }

    /// Gini is within [0, 1) for nonnegative samples, and top-k share is
    /// monotone in k.
    #[test]
    fn concentration_invariants(xs in prop::collection::vec(0.0..1e6f64, 1..64)) {
        let e = Ecdf::new(&xs);
        let g = e.gini();
        prop_assert!((0.0..1.0 + 1e-9).contains(&g));
        let mut last = 0.0;
        for k in 1..=xs.len() {
            let s = e.share_of_top(k);
            prop_assert!(s >= last - 1e-12);
            prop_assert!(s <= 1.0 + 1e-12);
            last = s;
        }
    }
}
