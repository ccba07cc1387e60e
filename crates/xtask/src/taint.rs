//! Rule **T1** — interprocedural determinism taint.
//!
//! Input: the per-function summaries and call sites harvested by
//! [`crate::callgraph`], plus the manifest DAG. Output: every call
//! chain by which a nondeterminism *source* (env read, wall clock,
//! thread-width query, pointer-address cast, hash iteration, entropy)
//! can reach a *sink* in a simulation crate (a write through `self`,
//! or an output/digest emission) — each rendered as an explicit
//! source→sink witness for the text report, the `titan-lint/4`
//! `t1_paths` JSON array, and SARIF `codeFlows`.
//!
//! The propagation is a fixed point over the call graph: a function is
//! tainted when its body reads a source directly, or when it calls a
//! tainted function through an unhatched call site. Each tainted
//! function keeps its best witness chain — shortest first, then
//! lexicographically smallest by (fn path, line) — so reruns and
//! shuffled file orders produce byte-identical reports. Chains only
//! ever improve in that well-founded order, so the loop terminates;
//! the pass bound is the classic Bellman–Ford `n` rounds.
//!
//! Site-level overlap: a read on a line a site rule (D1/D2/D4/D5)
//! already reported is not reported again inside its own function (one
//! defect, one finding); it still taints every caller. Any other read
//! — an `.elapsed()` in `core`, which D5 does not cover, or an
//! iteration of a `sorted-iter`-hatched map — is reported
//! intra-function too.

use std::collections::BTreeMap;

use crate::callgraph::{FnDecl, SinkKind, SourceKind, TaintSource};
use crate::layering::CrateManifest;
use crate::symbols::{self, Callable, CallableIndex};

/// One hop of a T1 witness chain, source→sink order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T1Step {
    /// Fully-qualified fn path (`titan_sim::engine::Engine::step`).
    pub path: String,
    /// Workspace-relative file of the fn.
    pub file: String,
    /// 1-based line: the source read for the first step, the call site
    /// into the previous step's fn for intermediate steps, and the sink
    /// statement for the last step.
    pub line: usize,
}

/// One complete source→sink taint path.
#[derive(Debug, Clone)]
pub struct T1Path {
    /// The sink-holding fn.
    pub sink_fn: String,
    /// Its file — where the finding anchors.
    pub file: String,
    /// Anchor line in `file`: the call site importing the taint, or the
    /// source read itself for an intra-fn path.
    pub line: usize,
    /// Package the sink fn lives in (the `[t1]` ratchet key).
    pub crate_name: String,
    pub sink_kind: SinkKind,
    /// Line of the representative sink statement in `file`.
    pub sink_line: usize,
    pub source_kind: SourceKind,
    /// The source read as written (`env::var("TITAN_NUM_THREADS")`).
    pub source_desc: String,
    pub source_file: String,
    pub source_line: usize,
    /// The full witness, source read → ... → sink statement.
    pub steps: Vec<T1Step>,
}

/// The message a T1 path reports. Shared by the finding text and the
/// SARIF layer (which rematches findings to paths by (file, line,
/// message) to attach `codeFlows`).
pub fn t1_message(p: &T1Path) -> String {
    let mut chain = String::new();
    let mut last = "";
    for s in &p.steps {
        if s.path != last {
            if !chain.is_empty() {
                chain.push_str(" -> ");
            }
            chain.push_str(&s.path);
            last = &s.path;
        }
    }
    format!(
        "nondeterministic {} `{}` ({}:{}) reaches {} at line {} via {}",
        p.source_kind.as_str(),
        p.source_desc,
        p.source_file,
        p.source_line,
        p.sink_kind.as_str(),
        p.sink_line,
        chain
    )
}

/// A tainted fn's witness: source→…→self, as (fn index, line) hops.
type Chain = Vec<(usize, usize)>;

/// Runs the analysis: returns every T1 path (sorted by file, line,
/// sink fn, then message) and the per-package path counts for every
/// package that owns at least one harvested fn.
pub fn analyze(
    fns: &[FnDecl],
    manifests: &[CrateManifest],
) -> (Vec<T1Path>, BTreeMap<String, usize>) {
    // Input order must not matter: sort the graph nodes first.
    let mut fns: Vec<FnDecl> = fns.to_vec();
    fns.sort_by(|a, b| {
        (a.path.as_str(), a.file.as_str(), a.line)
            .cmp(&(b.path.as_str(), b.file.as_str(), b.line))
    });

    let index = CallableIndex::new(
        fns.iter()
            .map(|f| Callable {
                path: f.path.clone(),
                name: f.name.clone(),
                owner: f.owner.clone(),
                pkg: f.pkg.clone(),
            })
            .collect(),
    );
    let reach = symbols::reachable(manifests);

    // Resolve call sites to edges caller → callee.
    struct Edge {
        callee: usize,
        line: usize,
        hatched: bool,
    }
    let edges: Vec<Vec<Edge>> = fns
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut out: Vec<Edge> = Vec::new();
            for c in &f.calls {
                for callee in
                    index.resolve(&f.pkg, f.owner.as_deref(), &c.name, &c.quals, c.method, &reach)
                {
                    if callee == i {
                        continue; // recursion adds no new taint
                    }
                    if !out.iter().any(|e| {
                        e.callee == callee && e.line == c.line && e.hatched == c.hatched
                    }) {
                        out.push(Edge { callee, line: c.line, hatched: c.hatched });
                    }
                }
            }
            out.sort_by_key(|e| (e.line, e.callee));
            out
        })
        .collect();

    // Seed: a fn with a direct source is tainted with a one-step chain.
    // The representative source is the earliest (line, kind) read.
    let best_source: Vec<Option<usize>> = fns
        .iter()
        .map(|f| {
            (0..f.sources.len())
                .min_by_key(|&s| (f.sources[s].line, f.sources[s].kind))
        })
        .collect();
    let mut chains: Vec<Option<Chain>> = fns
        .iter()
        .enumerate()
        .map(|(i, f)| best_source[i].map(|s| vec![(i, f.sources[s].line)]))
        .collect();

    // `a` is a better witness than `b`: shorter, then lexicographically
    // smaller by (fn path, line) per hop.
    let better = |a: &Chain, b: &Chain| -> bool {
        let key = |c: &Chain| -> Vec<(&str, usize)> {
            c.iter().map(|&(i, l)| (fns[i].path.as_str(), l)).collect()
        };
        (a.len(), key(a)) < (b.len(), key(b))
    };

    // Fixed point: relax every unhatched edge until nothing improves.
    for _round in 0..=fns.len() {
        let mut changed = false;
        for i in 0..fns.len() {
            for e in &edges[i] {
                if e.hatched {
                    continue;
                }
                let Some(callee_chain) = chains[e.callee].clone() else { continue };
                let mut cand = callee_chain;
                cand.push((i, e.line));
                if chains[i].as_ref().is_none_or(|cur| better(&cand, cur)) {
                    chains[i] = Some(cand);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Findings: sim-scope fns that hold a sink.
    let mut paths: Vec<T1Path> = Vec::new();
    for (i, f) in fns.iter().enumerate() {
        if !f.sim_scope || f.sinks.is_empty() {
            continue;
        }
        let sink = f
            .sinks
            .iter()
            .min_by_key(|s| (s.line, s.kind))
            .expect("non-empty");
        // A path from `src`, read in the chain's first fn.
        let emit = |paths: &mut Vec<T1Path>, chain: &[(usize, usize)], anchor, src: &TaintSource| {
            let src_fn = chain[0].0;
            let mut steps: Vec<T1Step> = chain
                .iter()
                .map(|&(k, l)| T1Step {
                    path: fns[k].path.clone(),
                    file: fns[k].file.clone(),
                    line: l,
                })
                .collect();
            steps.push(T1Step { path: f.path.clone(), file: f.file.clone(), line: sink.line });
            paths.push(T1Path {
                sink_fn: f.path.clone(),
                file: f.file.clone(),
                line: anchor,
                crate_name: f.pkg.clone(),
                sink_kind: sink.kind,
                sink_line: sink.line,
                source_kind: src.kind,
                source_desc: src.desc.clone(),
                source_file: fns[src_fn].file.clone(),
                source_line: src.line,
                steps,
            });
        };

        // Intra-fn: one path per source kind, skipping reads whose
        // line a site rule already reported.
        let mut kinds_done: Vec<SourceKind> = Vec::new();
        for src in &f.sources {
            if src.reported || kinds_done.contains(&src.kind) {
                continue;
            }
            kinds_done.push(src.kind);
            emit(&mut paths, &[(i, src.line)], src.line, src);
        }

        // Interprocedural: one path per distinct tainted callee, at its
        // lowest call line (edges are line-sorted already).
        let mut callees_done: Vec<usize> = Vec::new();
        for e in &edges[i] {
            if e.hatched || callees_done.contains(&e.callee) {
                continue;
            }
            let Some(callee_chain) = &chains[e.callee] else { continue };
            let Some(s) = best_source[callee_chain[0].0] else { continue };
            callees_done.push(e.callee);
            let mut chain = callee_chain.clone();
            chain.push((i, e.line));
            emit(&mut paths, &chain, e.line, &fns[chain[0].0].sources[s]);
        }
    }

    paths.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.sink_fn.as_str(), t1_message(a))
            .cmp(&(b.file.as_str(), b.line, b.sink_fn.as_str(), t1_message(b)))
    });

    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for f in &fns {
        if f.sim_scope {
            counts.entry(f.pkg.clone()).or_insert(0);
        }
    }
    for p in &paths {
        *counts.entry(p.crate_name.clone()).or_insert(0) += 1;
    }
    (paths, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layering::parse_manifest;
    use crate::{scan_file, CrateTarget};

    fn manifests() -> Vec<CrateManifest> {
        vec![
            parse_manifest(
                "stats",
                "crates/stats/Cargo.toml",
                "[package]\nname = \"fix-stats\"\n[dependencies]\n",
            ),
            parse_manifest(
                "simulator",
                "crates/simulator/Cargo.toml",
                "[package]\nname = \"fix-sim\"\n[dependencies]\nfix-stats = {}\n",
            ),
        ]
    }

    fn fns_of(dir: &str, name: &str, sim: bool, src: &str) -> Vec<FnDecl> {
        let target = CrateTarget {
            name: name.into(),
            dir: dir.into(),
            src_dir: Default::default(),
            sim_scope: sim,
            engine_scope: sim,
        };
        scan_file(&target, &format!("crates/{dir}/src/lib.rs"), src, &[]).fns
    }

    fn stats_fns(src: &str) -> Vec<FnDecl> {
        fns_of("stats", "fix-stats", false, src)
    }

    fn sim_fns(src: &str) -> Vec<FnDecl> {
        fns_of("simulator", "fix-sim", true, src)
    }

    #[test]
    fn two_helper_laundering_is_flagged_with_the_full_chain() {
        // The ISSUE 9 acceptance case: env read in another crate,
        // laundered through two helpers, written into sim state.
        let mut fns = stats_fns(
            "pub fn host_width_raw() -> usize {\n\
                 std::env::var(\"TITAN_NUM_THREADS\").map(|v| v.len()).unwrap_or(1)\n\
             }\n",
        );
        fns.extend(sim_fns(
            "fn width_hint() -> usize { fix_stats::host_width_raw() }\n\
             fn clamp_hint() -> usize { width_hint().min(64) }\n\
             pub struct Engine { width: usize }\n\
             impl Engine {\n\
                 pub fn apply_hint(&mut self) { self.width = clamp_hint(); }\n\
             }\n",
        ));
        let (paths, counts) = analyze(&fns, &manifests());
        assert_eq!(paths.len(), 1, "{paths:?}");
        let p = &paths[0];
        assert_eq!(p.sink_fn, "fix_sim::Engine::apply_hint");
        assert_eq!(p.source_kind, SourceKind::EnvRead);
        assert_eq!(p.source_desc, "env::var(\"TITAN_NUM_THREADS\")");
        assert_eq!(p.source_file, "crates/stats/src/lib.rs");
        let hops: Vec<&str> = p.steps.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            hops,
            vec![
                "fix_stats::host_width_raw",
                "fix_sim::width_hint",
                "fix_sim::clamp_hint",
                "fix_sim::Engine::apply_hint",
                "fix_sim::Engine::apply_hint", // sink statement
            ]
        );
        assert_eq!(counts["fix-sim"], 1);
        let msg = t1_message(p);
        assert!(msg.contains("env read"), "{msg}");
        assert!(msg.contains("fix_stats::host_width_raw -> fix_sim::width_hint"), "{msg}");
    }

    #[test]
    fn clean_chain_and_sink_free_taint_are_quiet() {
        let mut fns = stats_fns("pub fn fixed_width() -> usize { 8 }\n");
        fns.extend(sim_fns(
            "pub struct Engine { width: usize }\n\
             impl Engine {\n\
                 pub fn apply(&mut self) { self.width = fix_stats::fixed_width(); }\n\
             }\n\
             pub fn peek() -> usize { fix_stats::fixed_width() }\n",
        ));
        let (paths, counts) = analyze(&fns, &manifests());
        assert!(paths.is_empty(), "{paths:?}");
        assert_eq!(counts["fix-sim"], 0, "sim packages report zero explicitly");
    }

    #[test]
    fn call_site_hatch_severs_the_chain() {
        let mut fns = stats_fns(
            "pub fn host_width_raw() -> usize {\n\
                 std::env::var(\"W\").map(|v| v.len()).unwrap_or(1)\n\
             }\n",
        );
        fns.extend(sim_fns(
            "pub struct Engine { width: usize }\n\
             impl Engine {\n\
                 pub fn apply(&mut self) {\n\
                     // lint: allow(T1, clamped to the deterministic pool cap)\n\
                     self.width = fix_stats::host_width_raw();\n\
                 }\n\
             }\n",
        ));
        let (paths, _) = analyze(&fns, &manifests());
        assert!(paths.is_empty(), "{paths:?}");
    }

    #[test]
    fn intra_fn_env_read_is_reported_but_site_reported_lines_are_not() {
        // env has no site rule: intra-fn T1. The entropy line is D1's.
        let fns = sim_fns(
            "pub struct Engine { width: usize, jitter: u64 }\n\
             impl Engine {\n\
                 pub fn tune(&mut self) {\n\
                     self.width = std::env::var(\"W\").map(|v| v.len()).unwrap_or(1);\n\
                 }\n\
                 pub fn shake(&mut self) { self.jitter = thread_rng().next_u64(); }\n\
             }\n",
        );
        let (paths, _) = analyze(&fns, &manifests());
        assert_eq!(paths.len(), 1, "{paths:?}");
        assert_eq!(paths[0].sink_fn, "fix_sim::Engine::tune");
        assert_eq!(paths[0].source_kind, SourceKind::EnvRead);
        assert_eq!(paths[0].steps.len(), 2);
    }

    #[test]
    fn analysis_crate_sources_taint_but_its_own_sinks_do_not_fire() {
        // A println in fix-stats is not a sim sink; the taint still
        // propagates upward into fix-sim.
        let mut fns = stats_fns(
            "pub fn stamp() -> u64 {\n\
                 let t = Instant::now();\n\
                 println!(\"at {t:?}\");\n\
                 7\n\
             }\n",
        );
        fns.extend(sim_fns(
            "pub struct Engine { t0: u64 }\n\
             impl Engine {\n\
                 pub fn mark(&mut self) { self.t0 = fix_stats::stamp(); }\n\
             }\n",
        ));
        let (paths, _) = analyze(&fns, &manifests());
        assert_eq!(paths.len(), 1, "{paths:?}");
        assert_eq!(paths[0].sink_fn, "fix_sim::Engine::mark");
        assert_eq!(paths[0].source_kind, SourceKind::WallClock);
    }

    #[test]
    fn taint_respects_the_dependency_direction() {
        // fix-stats cannot see fix-sim: a tainted fn named like a sim
        // helper must not create a downward edge.
        let mut fns = stats_fns(
            "pub fn helper() -> usize { std::env::var(\"W\").map(|v| v.len()).unwrap_or(0) }\n",
        );
        fns.extend(sim_fns(
            "pub fn helper() -> usize { 3 }\n\
             pub struct Engine { w: usize }\n\
             impl Engine {\n\
                 pub fn set(&mut self) { self.w = helper(); }\n\
             }\n",
        ));
        // `helper()` in fix-sim is a bare call: both the local clean fn
        // and the visible tainted fix-stats fn are candidates — the
        // over-approximation keeps the tainted one, so this *does*
        // fire. Restricting with a qualifier is the reviewed fix.
        let (paths, _) = analyze(&fns, &manifests());
        assert_eq!(paths.len(), 1);

        // Qualifying the call pins it to the clean local fn.
        let mut fns = stats_fns(
            "pub fn helper() -> usize { std::env::var(\"W\").map(|v| v.len()).unwrap_or(0) }\n",
        );
        fns.extend(sim_fns(
            "pub mod hints { pub fn helper() -> usize { 3 } }\n\
             pub struct Engine { w: usize }\n\
             impl Engine {\n\
                 pub fn set(&mut self) { self.w = hints::helper(); }\n\
             }\n",
        ));
        let (paths, _) = analyze(&fns, &manifests());
        assert!(paths.is_empty(), "{paths:?}");
    }

    #[test]
    fn output_is_independent_of_input_order() {
        let stats = stats_fns(
            "pub fn host_width_raw() -> usize {\n\
                 std::env::var(\"W\").map(|v| v.len()).unwrap_or(1)\n\
             }\n",
        );
        let sim = sim_fns(
            "fn width_hint() -> usize { fix_stats::host_width_raw() }\n\
             pub struct Engine { width: usize }\n\
             impl Engine {\n\
                 pub fn apply(&mut self) { self.width = width_hint(); }\n\
             }\n",
        );
        let mut fwd = stats.clone();
        fwd.extend(sim.clone());
        let mut rev = sim;
        rev.extend(stats);
        let (p1, c1) = analyze(&fwd, &manifests());
        let (p2, c2) = analyze(&rev, &manifests());
        let m1: Vec<String> = p1.iter().map(t1_message).collect();
        let m2: Vec<String> = p2.iter().map(t1_message).collect();
        assert_eq!(m1, m2);
        assert_eq!(c1, c2);
        assert_eq!(p1.len(), 1);
    }
}
