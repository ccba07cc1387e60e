//! The workspace symbol graph behind rule **X1** (dead `pub` items).
//!
//! An item is live only when code that runs spells its name. Those
//! roots are the non-test code of the item's own crate, of every crate
//! whose `[dependencies]` closure reaches it (the same edges rule L1
//! polices, resolved from the committed manifests; the root façade's
//! `src/` and the `titan-bench` binary are such crates), and of the
//! [`ROOT_DIRS`] outside any member: `examples/`, and the benchmark's
//! `e2e-bench/src`, which builds against the crates by path from a
//! workspace of its own.
//!
//! Matching is identifier-level: an item is dead when its name occurs
//! in no root beyond its own definition span. Three spellings do not
//! count: a token inside a `use` or `pub use` declaration (a re-export
//! names an item without calling it), a token on a `#[cfg(test)]` line,
//! and anything under `tests/` or `benches/`. An item kept only as a
//! test's reference implementation, or for a frozen document, carries
//! `// lint: allow(X1, reason)`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::layering::CrateManifest;
use crate::FileCtx;

/// One `pub` item eligible for dead-code analysis, harvested by
/// [`crate::scan_file`].
#[derive(Debug, Clone)]
pub struct PubItem {
    /// Workspace-relative file path of the definition.
    pub file: String,
    /// 1-based line of the item keyword.
    pub line: usize,
    /// Fully-qualified path (`titan_gpu::ecc::retire_page`).
    pub path: String,
    /// The unqualified name the reference count is keyed on.
    pub name: String,
    /// Occurrences of `name` inside the item's own definition span.
    pub self_refs: usize,
}

/// For every package, the set of packages whose sources may reference
/// its items: itself plus every transitive dependent, following the
/// committed `[dependencies]` edges (the L1 DAG made concrete).
pub fn visibility(manifests: &[CrateManifest]) -> BTreeMap<String, BTreeSet<String>> {
    // dep package -> direct dependents.
    let mut dependents: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for m in manifests {
        if m.package.is_empty() {
            continue;
        }
        for (dep, _) in &m.deps {
            dependents.entry(dep.as_str()).or_default().insert(m.package.as_str());
        }
    }
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for m in manifests {
        if m.package.is_empty() {
            continue;
        }
        // Breadth-first over the dependent edges.
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut frontier = vec![m.package.as_str()];
        while let Some(pkg) = frontier.pop() {
            if !seen.insert(pkg) {
                continue;
            }
            if let Some(next) = dependents.get(pkg) {
                frontier.extend(next.iter().copied());
            }
        }
        out.insert(m.package.clone(), seen.into_iter().map(String::from).collect());
    }
    out
}

/// For every package, the set of packages whose items *it* may
/// reference: itself plus its transitive `[dependencies]` closure.
/// This is [`visibility`] with the arrows reversed — X1 asks "who can
/// see me", call resolution asks "whom can I call".
pub fn reachable(manifests: &[CrateManifest]) -> BTreeMap<String, BTreeSet<String>> {
    let by_pkg: BTreeMap<&str, &CrateManifest> = manifests
        .iter()
        .filter(|m| !m.package.is_empty())
        .map(|m| (m.package.as_str(), m))
        .collect();
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for m in manifests {
        if m.package.is_empty() {
            continue;
        }
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut frontier = vec![m.package.as_str()];
        while let Some(pkg) = frontier.pop() {
            if !seen.insert(pkg) {
                continue;
            }
            if let Some(dep) = by_pkg.get(pkg) {
                frontier.extend(dep.deps.iter().map(|(d, _)| d.as_str()));
            }
        }
        out.insert(m.package.clone(), seen.into_iter().map(String::from).collect());
    }
    out
}

/// One callable item for name-based call resolution.
#[derive(Debug, Clone)]
pub struct Callable {
    /// Fully-qualified path (`titan_sim::engine::Engine::step`).
    pub path: String,
    /// Unqualified name (`step`).
    pub name: String,
    /// Defined inside an `impl`/`trait` block of this type, if any.
    pub owner: Option<String>,
    /// Package the definition lives in.
    pub pkg: String,
}

/// Name-keyed index over every workspace callable, with the resolution
/// policy the call graph needs. The PR 6 reference counter only asked
/// "does this identifier occur anywhere"; `resolve` additionally
/// honors path qualifiers — `Engine::step(..)`, `Vec::<u8>::new(..)`,
/// `<Fleet as Spare>::swap(..)`, `Self::helper(..)` — and the manifest
/// dependency DAG, so an edge is only drawn to a definition the caller
/// could actually link against.
pub struct CallableIndex {
    items: Vec<Callable>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl CallableIndex {
    pub fn new(items: Vec<Callable>) -> Self {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, c) in items.iter().enumerate() {
            by_name.entry(c.name.clone()).or_default().push(i);
        }
        CallableIndex { items, by_name }
    }

    pub fn get(&self, idx: usize) -> &Callable {
        &self.items[idx]
    }

    /// Candidate definitions for one call site, in index order.
    ///
    /// - `caller_pkg` / `reach`: a candidate must live in a package the
    ///   caller's manifest closure reaches (see [`reachable`]).
    /// - `caller_owner`: the caller's enclosing impl self-type; a
    ///   `Self::` qualifier resolves against it.
    /// - `name` / `quals`: the callee and its path qualifiers as
    ///   written. Each qualifier must appear, in order, among the
    ///   candidate's path segments — `engine::step` matches
    ///   `titan_sim::engine::Engine::step`, not `titan_sim::obs::step`.
    /// - `method`: a `.name(..)` receiver call; only `impl`/`trait`
    ///   members can answer it (a free fn cannot be a method).
    ///
    /// Name-based matching over-approximates — a method call may hit
    /// every visible type's method of that name — which is the safe
    /// direction for taint: a spurious edge adds a path to review, a
    /// missing one would hide a leak.
    pub fn resolve(
        &self,
        caller_pkg: &str,
        caller_owner: Option<&str>,
        name: &str,
        quals: &[String],
        method: bool,
        reach: &BTreeMap<String, BTreeSet<String>>,
    ) -> Vec<usize> {
        let Some(candidates) = self.by_name.get(name) else {
            return Vec::new();
        };
        let own = BTreeSet::from([caller_pkg.to_string()]);
        let visible = reach.get(caller_pkg).unwrap_or(&own);
        candidates
            .iter()
            .copied()
            .filter(|&i| {
                let c = &self.items[i];
                if !visible.contains(&c.pkg) {
                    return false;
                }
                if method {
                    return c.owner.is_some();
                }
                if quals.is_empty() {
                    // A bare `name(..)` call can only reach a free fn
                    // (associated fns need a path or a receiver).
                    return c.owner.is_none();
                }
                // Qualifier match: walk the written qualifiers in
                // order, greedily consuming the candidate's path
                // segments. A qualifier no segment spells is tolerated
                // — UFCS trait names (`<Fleet as Spare>::swap`) and
                // turbofish type args (`parse::<u64>`) are foreign to
                // the definition path by construction — but at least
                // one qualifier must land, so `engine::step` can never
                // claim `titan_sim::obs::step`.
                let segs: Vec<&str> = c.path.split("::").collect();
                let inner = &segs[..segs.len().saturating_sub(1)];
                let mut pos = 0usize;
                let mut matched = 0usize;
                for q in quals {
                    let want = if q == "Self" { caller_owner.unwrap_or("Self") } else { q };
                    if let Some(off) = inner[pos..].iter().position(|s| *s == want) {
                        pos += off + 1;
                        matched += 1;
                    }
                }
                matched >= 1
            })
            .collect()
    }
}

/// The reference roots outside any workspace member, relative to the
/// workspace root.
pub const ROOT_DIRS: [&str; 2] = ["examples", "e2e-bench/src"];

/// The [`ROOT_DIRS`] absent under `root`. A missing root would scan
/// nothing and report everything only it calls as dead, so the CLI
/// refuses to lint without them.
pub fn missing_roots(root: &Path) -> Vec<&'static str> {
    ROOT_DIRS.into_iter().filter(|d| !root.join(d).is_dir()).collect()
}

/// Reference counts from the [`ROOT_DIRS`] present under `root`. Their
/// code compiles against any crate, so it keeps items alive regardless
/// of the manifest DAG.
pub fn root_ident_counts(root: &Path) -> std::io::Result<BTreeMap<String, usize>> {
    let mut counts = BTreeMap::new();
    for dir in ROOT_DIRS.map(|d| root.join(d)) {
        if !dir.is_dir() {
            continue;
        }
        for file in crate::rust_files(&dir)? {
            let text = std::fs::read_to_string(&file)?;
            let rel = file.to_string_lossy();
            for (_, name) in FileCtx::new(&rel, &text).reference_idents() {
                *counts.entry(name.to_string()).or_insert(0) += 1;
            }
        }
    }
    Ok(counts)
}

/// The dead `pub` items of one package: every candidate whose name
/// occurs in no visible root beyond its own definition. `pool` is
/// [`root_ident_counts`].
pub fn dead_pubs<'a>(
    package: &str,
    items: &'a [PubItem],
    per_crate_idents: &BTreeMap<String, BTreeMap<String, usize>>,
    pool: &BTreeMap<String, usize>,
    visible: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<&'a PubItem> {
    let own = BTreeSet::from([package.to_string()]);
    let viewers = visible.get(package).unwrap_or(&own);
    items
        .iter()
        .filter(|it| {
            let total: usize = viewers
                .iter()
                .filter_map(|v| per_crate_idents.get(v))
                .filter_map(|m| m.get(&it.name))
                .sum::<usize>()
                + pool.get(&it.name).copied().unwrap_or(0);
            total <= it.self_refs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layering::parse_manifest;

    fn manifests() -> Vec<CrateManifest> {
        vec![
            parse_manifest(
                "stats",
                "crates/stats/Cargo.toml",
                "[package]\nname = \"titan-stats\"\n[dependencies]\n",
            ),
            parse_manifest(
                "faults",
                "crates/faults/Cargo.toml",
                "[package]\nname = \"titan-faults\"\n[dependencies]\ntitan-stats = {}\n",
            ),
            parse_manifest(
                "simulator",
                "crates/simulator/Cargo.toml",
                "[package]\nname = \"titan-sim\"\n[dependencies]\ntitan-faults = {}\n",
            ),
        ]
    }

    #[test]
    fn visibility_is_the_transitive_dependent_closure() {
        let vis = visibility(&manifests());
        let stats: Vec<&str> = vis["titan-stats"].iter().map(String::as_str).collect();
        assert_eq!(stats, vec!["titan-faults", "titan-sim", "titan-stats"]);
        let sim: Vec<&str> = vis["titan-sim"].iter().map(String::as_str).collect();
        assert_eq!(sim, vec!["titan-sim"], "nothing depends on the top of the DAG");
    }

    #[test]
    fn dead_pubs_need_a_reference_beyond_the_definition() {
        let items = vec![
            PubItem {
                file: "crates/stats/src/lib.rs".into(),
                line: 1,
                path: "titan_stats::mean".into(),
                name: "mean".into(),
                self_refs: 1,
            },
            PubItem {
                file: "crates/stats/src/lib.rs".into(),
                line: 9,
                path: "titan_stats::orphan".into(),
                name: "orphan".into(),
                self_refs: 1,
            },
        ];
        let mut per_crate = BTreeMap::new();
        per_crate.insert(
            "titan-stats".to_string(),
            BTreeMap::from([("mean".to_string(), 1), ("orphan".to_string(), 1)]),
        );
        // A dependent crate mentions `mean`, nothing mentions `orphan`.
        per_crate.insert(
            "titan-faults".to_string(),
            BTreeMap::from([("mean".to_string(), 2)]),
        );
        let vis = visibility(&manifests());
        let dead = dead_pubs("titan-stats", &items, &per_crate, &BTreeMap::new(), &vis);
        let paths: Vec<&str> = dead.iter().map(|d| d.path.as_str()).collect();
        assert_eq!(paths, vec!["titan_stats::orphan"]);

        // A mention in an example or the benchmark is a reference too.
        let pool = BTreeMap::from([("orphan".to_string(), 1)]);
        assert!(dead_pubs("titan-stats", &items, &per_crate, &pool, &vis).is_empty());
    }

    #[test]
    fn reachable_is_the_transitive_dependency_closure() {
        let reach = reachable(&manifests());
        let sim: Vec<&str> = reach["titan-sim"].iter().map(String::as_str).collect();
        assert_eq!(sim, vec!["titan-faults", "titan-sim", "titan-stats"]);
        let stats: Vec<&str> = reach["titan-stats"].iter().map(String::as_str).collect();
        assert_eq!(stats, vec!["titan-stats"], "a leaf reaches only itself");
    }

    fn callables() -> CallableIndex {
        let c = |path: &str, owner: Option<&str>, pkg: &str| Callable {
            path: path.to_string(),
            name: path.rsplit("::").next().unwrap().to_string(),
            owner: owner.map(str::to_string),
            pkg: pkg.to_string(),
        };
        CallableIndex::new(vec![
            c("titan_sim::engine::Engine::step", Some("Engine"), "titan-sim"),
            c("titan_sim::obs_glue::step", None, "titan-sim"),
            c("titan_faults::Injector::step", Some("Injector"), "titan-faults"),
            c("titan_stats::mean", None, "titan-stats"),
            c("titan_sim::fleet::Fleet::swap", Some("Fleet"), "titan-sim"),
            c("titan_sim::engine::Engine::helper", Some("Engine"), "titan-sim"),
        ])
    }

    fn paths(idx: &CallableIndex, hits: Vec<usize>) -> Vec<String> {
        hits.into_iter().map(|i| idx.get(i).path.clone()).collect()
    }

    #[test]
    fn resolve_honors_impl_qualifiers() {
        // The PR 6 reference counter treated `Engine::step(..)` as a
        // bare mention of `step`; the index must pin it to the impl.
        let idx = callables();
        let reach = reachable(&manifests());
        let hits = idx.resolve("titan-sim", None, "step", &["Engine".into()], false, &reach);
        assert_eq!(paths(&idx, hits), vec!["titan_sim::engine::Engine::step"]);

        // Module qualifiers pin the same way.
        let hits = idx.resolve("titan-sim", None, "step", &["obs_glue".into()], false, &reach);
        assert_eq!(paths(&idx, hits), vec!["titan_sim::obs_glue::step"]);
    }

    #[test]
    fn resolve_bare_and_method_calls() {
        let idx = callables();
        let reach = reachable(&manifests());
        // Bare `step()` can only be the free fn.
        let hits = idx.resolve("titan-sim", None, "step", &[], false, &reach);
        assert_eq!(paths(&idx, hits), vec!["titan_sim::obs_glue::step"]);
        // `.step()` can be any visible method, never the free fn.
        let hits = idx.resolve("titan-sim", None, "step", &[], true, &reach);
        assert_eq!(
            paths(&idx, hits),
            vec!["titan_sim::engine::Engine::step", "titan_faults::Injector::step"]
        );
    }

    #[test]
    fn resolve_respects_the_dependency_closure() {
        let idx = callables();
        let reach = reachable(&manifests());
        // titan-stats cannot see upward into titan-sim/titan-faults.
        assert!(idx.resolve("titan-stats", None, "step", &[], true, &reach).is_empty());
        let hits = idx.resolve("titan-faults", None, "step", &[], true, &reach);
        assert_eq!(paths(&idx, hits), vec!["titan_faults::Injector::step"]);
    }

    #[test]
    fn resolve_ufcs_turbofish_and_self_qualifiers() {
        let idx = callables();
        let reach = reachable(&manifests());
        // `<Fleet as Spare>::swap(..)`: the trait name is foreign to
        // the impl path and must not block the match.
        let hits = idx.resolve(
            "titan-sim",
            None,
            "swap",
            &["Fleet".into(), "Spare".into()],
            false,
            &reach,
        );
        assert_eq!(paths(&idx, hits), vec!["titan_sim::fleet::Fleet::swap"]);

        // `Self::helper(..)` from inside `impl Engine`.
        let hits =
            idx.resolve("titan-sim", Some("Engine"), "helper", &["Self".into()], false, &reach);
        assert_eq!(paths(&idx, hits), vec!["titan_sim::engine::Engine::helper"]);

        // A fully-foreign qualifier set (`Vec::<u64>::step`) matches
        // nothing — at least one written qualifier must land.
        let hits = idx.resolve(
            "titan-sim",
            None,
            "step",
            &["Vec".into(), "u64".into()],
            false,
            &reach,
        );
        assert!(hits.is_empty(), "{:?}", paths(&idx, hits));
    }

    #[test]
    fn references_visible_only_from_non_dependents_do_not_count() {
        // `titan-sim` (depends on faults -> stats) mentioning `helper`
        // keeps a stats item alive; a stats mention of a sim item would
        // not exist in a valid layering, but the closure is directional:
        // a sim-only name referenced by nothing that *sees* sim is dead
        // even if stats spells the same word.
        let items = vec![PubItem {
            file: "crates/simulator/src/lib.rs".into(),
            line: 3,
            path: "titan_sim::launch".into(),
            name: "launch".into(),
            self_refs: 1,
        }];
        let mut per_crate = BTreeMap::new();
        per_crate.insert(
            "titan-sim".to_string(),
            BTreeMap::from([("launch".to_string(), 1)]),
        );
        // stats mentions the word, but stats cannot see titan-sim.
        per_crate.insert(
            "titan-stats".to_string(),
            BTreeMap::from([("launch".to_string(), 5)]),
        );
        let vis = visibility(&manifests());
        let dead = dead_pubs("titan-sim", &items, &per_crate, &BTreeMap::new(), &vis);
        assert_eq!(dead.len(), 1, "{dead:?}");
    }
}
