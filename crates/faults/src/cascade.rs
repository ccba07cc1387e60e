//! Parent → child error cascades: the generative model behind Fig. 13's
//! co-occurrence heatmap.
//!
//! The paper: "Some error events may be followed by multiple system error
//! events shortly after the initial errors occurrence. Therefore, there
//! may be one real 'parent' event and multiple 'child' events." And from
//! the Fig. 13 discussion: "a DBE (XID 48) is likely to be followed by
//! XID 45 and XID 63, and XID 13 is likely to be followed by XID 43 …
//! off the bus, XID 38, XID 48 (DBE), and XID 63 do not show multiple
//! occurrences within a 300-second time window."
//!
//! XID 48 → 63 is *not* a cascade rule here: it emerges from the page
//! retirement state machine (see `titan-gpu::pages`), keeping a single
//! source of truth for that mechanism.

use rand::Rng;
use titan_gpu::GpuErrorKind;

/// One cascade rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeRule {
    /// Triggering parent kind.
    pub parent: GpuErrorKind,
    /// Spawned child kind (may equal the parent: same-kind re-reports).
    pub child: GpuErrorKind,
    /// Probability a parent spawns at least one child of this kind.
    pub prob: f64,
    /// Additional children follow geometrically with this continuation
    /// probability (0 = at most one child).
    pub continuation: f64,
    /// Children arrive uniformly within `(0, max_delay]` seconds.
    pub max_delay: u64,
}

/// A spawned child event (relative to its parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadeChild {
    /// Seconds after the parent.
    pub delay: u64,
    /// Child kind.
    pub kind: GpuErrorKind,
    /// Whether the child reports on the same node as the parent (false =
    /// another node of the same job).
    pub same_node: bool,
}

/// The cascade model: a rule list applied to every logged parent event.
#[derive(Debug, Clone)]
pub struct CascadeModel {
    rules: Vec<CascadeRule>,
}

impl Default for CascadeModel {
    fn default() -> Self {
        use GpuErrorKind::*;
        CascadeModel {
            rules: vec![
                // "a DBE (XID 48) is likely to be followed by XID 45":
                // the driver preemptively cleans up after the crash.
                CascadeRule {
                    parent: DoubleBitError,
                    child: PreemptiveCleanup,
                    prob: 0.70,
                    continuation: 0.2,
                    max_delay: 120,
                },
                // "XID 13 is likely to be followed by XID 43".
                CascadeRule {
                    parent: GraphicsEngineException,
                    child: GpuStoppedProcessing,
                    prob: 0.55,
                    continuation: 0.1,
                    max_delay: 60,
                },
                // Same-kind re-reports that light the Fig. 13 diagonal for
                // driver XIDs (43, 44) and uc-halts.
                CascadeRule {
                    parent: GpuStoppedProcessing,
                    child: GpuStoppedProcessing,
                    prob: 0.40,
                    continuation: 0.3,
                    max_delay: 240,
                },
                CascadeRule {
                    parent: ContextSwitchFault,
                    child: ContextSwitchFault,
                    prob: 0.35,
                    continuation: 0.25,
                    max_delay: 240,
                },
                CascadeRule {
                    parent: MicrocontrollerHaltOld,
                    child: PreemptiveCleanup,
                    prob: 0.30,
                    continuation: 0.0,
                    max_delay: 120,
                },
                CascadeRule {
                    parent: MicrocontrollerHaltNew,
                    child: PreemptiveCleanup,
                    prob: 0.30,
                    continuation: 0.0,
                    max_delay: 120,
                },
                // Memory page faults re-report while the job drains.
                CascadeRule {
                    parent: GpuMemoryPageFault,
                    child: GpuMemoryPageFault,
                    prob: 0.45,
                    continuation: 0.35,
                    max_delay: 180,
                },
            ],
        }
    }
}

impl CascadeModel {
    /// Builds a model from explicit rules (ablations use this to switch
    /// cascades off).
    pub fn new(rules: Vec<CascadeRule>) -> Self {
        CascadeModel { rules }
    }

    /// An empty model: no parent ever cascades.
    pub fn disabled() -> Self {
        CascadeModel { rules: Vec::new() }
    }

    /// The rules.
    pub fn rules(&self) -> &[CascadeRule] {
        &self.rules
    }

    /// Samples the children spawned by one parent event.
    pub fn spawn<R: Rng + ?Sized>(
        &self,
        parent: GpuErrorKind,
        rng: &mut R,
    ) -> Vec<CascadeChild> {
        let mut out = Vec::new();
        for rule in self.rules.iter().filter(|r| r.parent == parent) {
            if rng.gen::<f64>() >= rule.prob {
                continue;
            }
            loop {
                out.push(CascadeChild {
                    delay: rng.gen_range(1..=rule.max_delay.max(1)),
                    kind: rule.child,
                    // Same-kind re-reports spread across job nodes; cross-
                    // kind consequences surface on the failing node.
                    same_node: rule.child != rule.parent,
                });
                if rng.gen::<f64>() >= rule.continuation {
                    break;
                }
            }
        }
        out.sort_unstable_by_key(|c| c.delay);
        out
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use GpuErrorKind::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5150)
    }

    #[test]
    fn isolated_kinds_match_paper() {
        let m = CascadeModel::default();
        // "off the bus, XID 38, XID 48 … and XID 63 do not show multiple
        // occurrences": none of them may *self*-cascade; 38/63/OTB must be
        // fully isolated.
        for kind in [OffTheBus, DriverFirmware, EccPageRetirement] {
            assert!(!m.rules().iter().any(|r| r.parent == kind), "{kind:?}");
        }
        assert!(!m.rules().iter().any(|r| r.parent == DoubleBitError && r.child == DoubleBitError));
    }

    #[test]
    fn dbe_spawns_cleanup_frequently() {
        let m = CascadeModel::default();
        let mut r = rng();
        let mut hits = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            if m.spawn(DoubleBitError, &mut r)
                .iter()
                .any(|c| c.kind == PreemptiveCleanup)
            {
                hits += 1;
            }
        }
        let rate = hits as f64 / N as f64;
        assert!((rate - 0.70).abs() < 0.03, "48->45 rate {rate}");
    }

    #[test]
    fn xid13_spawns_43() {
        let m = CascadeModel::default();
        let mut r = rng();
        let mut hits = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            if m.spawn(GraphicsEngineException, &mut r)
                .iter()
                .any(|c| c.kind == GpuStoppedProcessing)
            {
                hits += 1;
            }
        }
        assert!((hits as f64 / N as f64 - 0.55).abs() < 0.03);
    }

    #[test]
    fn delays_within_rule_bounds() {
        let m = CascadeModel::default();
        let mut r = rng();
        for _ in 0..2_000 {
            for c in m.spawn(DoubleBitError, &mut r) {
                assert!(c.delay >= 1 && c.delay <= 120);
            }
        }
    }

    #[test]
    fn disabled_model_never_spawns() {
        let m = CascadeModel::disabled();
        let mut r = rng();
        for kind in GpuErrorKind::ALL {
            assert!(m.spawn(kind, &mut r).is_empty());
        }
    }

    #[test]
    fn continuation_yields_multiple_children() {
        let m = CascadeModel::default();
        let mut r = rng();
        let mut max_children = 0;
        for _ in 0..5_000 {
            let n = m
                .spawn(GpuMemoryPageFault, &mut r)
                .iter()
                .filter(|c| c.kind == GpuMemoryPageFault)
                .count();
            max_children = max_children.max(n);
        }
        assert!(max_children >= 2, "continuation never chained");
    }
}
