//! The single rule-metadata table: one entry per lint rule, consumed
//! by `cargo xtask lint --explain RULE`, by the SARIF driver rule
//! array ([`crate::sarif`]), and mirrored verbatim in the LINTS.md
//! "SARIF rule descriptions" table (an integration test diffs the two,
//! so the docs cannot drift from the tool again — the pre-v4 SARIF
//! table had stale descriptions for D3/D4/D5/S1).

/// Everything the tool knows about one rule, in prose.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    pub id: &'static str,
    /// One line; the SARIF `shortDescription` and the LINTS.md mirror.
    pub short: &'static str,
    /// Why the rule exists (the determinism-contract tie-in).
    pub why: &'static str,
    /// What the rule looks for.
    pub looks_for: &'static str,
    /// The escape hatch, or the reason there is none.
    pub hatch: &'static str,
    /// T1 only: the source catalog. Empty for other rules.
    pub sources: &'static str,
    /// T1 only: the sink catalog. Empty for other rules.
    pub sinks: &'static str,
}

/// Rule-id order; the SARIF driver table iterates this directly.
pub const RULE_META: &[RuleMeta] = &[
    RuleMeta {
        id: "D1",
        short: "wall-clock or OS entropy source in a simulation crate",
        why: "the contract is seed -> byte-identical output; ambient time or entropy \
              makes two runs of the same seed diverge",
        looks_for: "SystemTime::now, Instant::now, thread_rng, from_entropy, rand::random \
                    anywhere in sim crates, tests included",
        hatch: "none — thread the seed; take time from the simulation clock",
        sources: "",
        sinks: "",
    },
    RuleMeta {
        id: "D2",
        short: "unordered hash container in non-test simulation code",
        why: "HashMap/HashSet iteration order is seeded per process, so any iteration \
              leaks process identity into sim state",
        looks_for: "HashMap/HashSet identifiers in non-test sim-crate code",
        hatch: "`// lint: sorted-iter <why>` for get-only use",
        sources: "",
        sinks: "",
    },
    RuleMeta {
        id: "D3",
        short: "NaN-unsafe partial_cmp().unwrap() inside a comparator",
        why: "partial_cmp panics on NaN and imposes no total order, so one bad sample \
              aborts the run or scrambles the sort",
        looks_for: "partial_cmp + unwrap/expect near sort_by/max_by/min_by/binary_search_by",
        hatch: "none — use f64::total_cmp",
        sources: "",
        sinks: "",
    },
    RuleMeta {
        id: "D4",
        short: "threading primitive in non-test engine code",
        why: "the event loop is single-threaded by contract; parallelism only ever runs \
              across independent simulations (titan-runner::replicate)",
        looks_for: "rayon, std::thread, thread::spawn/scope, into_par_iter, scope_map( in \
                    non-test engine-crate code",
        hatch: "none — fan out whole runs via the runner layer",
        sources: "",
        sinks: "",
    },
    RuleMeta {
        id: "D5",
        short: "wall-clock type in non-test engine code",
        why: "holding an Instant in engine state is already a time-domain leak even \
              before anyone calls .elapsed()",
        looks_for: "std::time:: paths, Instant, SystemTime, .elapsed( in non-test \
                    engine-crate code (lines D1 already reported are not repeated; T1 \
                    does not repeat a read on a line D5 reported)",
        hatch: "none — telemetry goes through the sim-time titan-obs API",
        sources: "",
        sinks: "",
    },
    RuleMeta {
        id: "D6",
        short: "RNG draw inside a comparator or Drop impl in an engine crate",
        why: "comparator call order and Drop order are implementation details, so draws \
              inside them reorder the seeded stream between toolchains",
        looks_for: "gen/gen_bool/gen_range/sample/next_u32/next_u64/fill_bytes inside \
                    sort/retain/dedup/min/max/binary-search closures or Drop impls",
        hatch: "`// lint: allow(D6, <why>)` on the line or the line above",
        sources: "",
        sinks: "",
    },
    RuleMeta {
        id: "E1",
        short: "fallible simulation result silently discarded",
        why: "a dropped injection Result is a simulation that silently diverges from \
              the paper's error model",
        looks_for: "`let _ = expr;`, bare `.ok();`, and discarded calls to #[must_use] \
                    workspace sim APIs in non-test sim code",
        hatch: "`// lint: allow(E1, <why>)`; `let _ = write!/writeln!` is exempt",
        sources: "",
        sinks: "",
    },
    RuleMeta {
        id: "L1",
        short: "crate dependency violates the committed layering DAG",
        why: "an edge from an engine crate to the runner/CLI lets host state flow back \
              into the simulation",
        looks_for: "crates/*/Cargo.toml [dependencies] edges outside layering::LAYERS; \
                    rayon in engine manifests",
        hatch: "none — fix the edge, or amend LAYERS and the DETERMINISM.md diagram \
                together",
        sources: "",
        sinks: "",
    },
    RuleMeta {
        id: "N1",
        short: "lossy numeric cast budget exceeded in a simulation crate",
        why: "the paper's own DBE counts were corrupted by silent truncation; every \
              `as <numeric>` cast is that failure shape",
        looks_for: "`as u8..f64` casts in non-test sim code, counted per crate against \
                    the [n1] ratchet",
        hatch: "`// lint: allow(N1, <why>)`; plus the [n1] ratchet",
        sources: "",
        sinks: "",
    },
    RuleMeta {
        id: "P2",
        short: "per-function panic-surface budget exceeded",
        why: "every unwrap/index is a site where the simulator aborts instead of \
              returning an error; the budget pins each function at its current count",
        looks_for: ".unwrap()/.expect(/panic!/slice-indexing sites per fully-qualified \
                    fn path against the [p2] ratchet",
        hatch: "`// lint: allow(P2, <why>)`; plus the [p2] ratchet",
        sources: "",
        sinks: "",
    },
    RuleMeta {
        id: "S1",
        short: "frozen output schema drifted from its golden spec",
        why: "the JSON document schemas are contracts; a field rename invisible in \
              review breaks every downstream consumer",
        looks_for: "version literals and ordered field lists in schema-minting files vs \
                    the golden specs in crates/xtask/schemas/",
        hatch: "none — bump the version string and commit a new golden spec",
        sources: "",
        sinks: "",
    },
    RuleMeta {
        id: "T1",
        short: "nondeterminism source reaches a sim sink through a call chain",
        why: "D1/D2/D5 stop at the call site: a helper can read the host environment \
              and launder the value through two calls into sim state unseen. T1 walks \
              the workspace call graph to a fixed point, so the laundering path is \
              reported end to end — the proof obligation behind relaxing D4 to the \
              shard-barrier API (see DETERMINISM.md)",
        looks_for: "call chains from a nondeterminism source to a sim-crate sink, \
                    reported with the full source->sink witness (text, t1_paths in \
                    JSON, SARIF codeFlows) against the [t1] ratchet",
        hatch: "`// lint: allow(T1, <why>)` on the source read (clears every chain \
                through it) or on the importing call site (clears that chain); plus \
                the [t1] ratchet",
        sources: "env::var/var_os/vars + option_env!; Instant::now/SystemTime::now/\
                  .elapsed(); available_parallelism/current_num_threads/num_cpus/\
                  thread::current; .as_ptr()/.as_mut_ptr() as <int> and .addr(); \
                  HashMap/HashSet .iter/.keys/.values/.drain/.into_iter; \
                  thread_rng/from_entropy/rand::random",
        sinks: "assignments and mutating calls (push/insert/extend/append/record/\
                observe/push_str) through `self` in sim-crate fns; print!/println!/\
                eprint!/eprintln!/write!/writeln! and log_fault/fnv1a/write_u64/\
                write_bytes emission",
    },
    RuleMeta {
        id: "X1",
        short: "unreferenced pub item budget exceeded",
        why: "dead public surface rots, escapes review, and silently widens what the \
              determinism rules must police",
        looks_for: "pub items in titan-* crates whose name no non-test code of a \
                    crate that can reach them, example, or e2e-bench/src spells outside \
                    a `use`, against the [x1] ratchet",
        hatch: "`// lint: allow(X1, <why>)`; plus the [x1] ratchet",
        sources: "",
        sinks: "",
    },
];

/// The metadata for one rule id, if it exists.
pub fn find(id: &str) -> Option<&'static RuleMeta> {
    RULE_META.iter().find(|m| m.id == id)
}

/// The `--explain RULE` text: rationale, catalog, hatch recipe.
pub fn explain(id: &str) -> Option<String> {
    let m = find(id)?;
    let mut out = format!("{} — {}\n\nwhy:       {}\nlooks for: {}\n", m.id, m.short, m.why, m.looks_for);
    if !m.sources.is_empty() {
        out.push_str(&format!("sources:   {}\n", m.sources));
    }
    if !m.sinks.is_empty() {
        out.push_str(&format!("sinks:     {}\n", m.sinks));
    }
    out.push_str(&format!("hatch:     {}\n", m.hatch));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;

    #[test]
    fn every_rule_variant_has_metadata_and_vice_versa() {
        let variants = [
            Rule::D1,
            Rule::D2,
            Rule::D3,
            Rule::D4,
            Rule::D5,
            Rule::D6,
            Rule::E1,
            Rule::N1,
            Rule::L1,
            Rule::S1,
            Rule::P2,
            Rule::X1,
            Rule::T1,
        ];
        assert_eq!(RULE_META.len(), variants.len());
        for v in variants {
            assert!(find(v.as_str()).is_some(), "no metadata for {v}");
        }
        // Table stays in id order (the SARIF document iterates it).
        let ids: Vec<&str> = RULE_META.iter().map(|m| m.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn explain_renders_the_t1_catalog() {
        let text = explain("T1").unwrap();
        assert!(text.starts_with("T1 — "));
        assert!(text.contains("sources:"), "{text}");
        assert!(text.contains("env::var"), "{text}");
        assert!(text.contains("sinks:"), "{text}");
        assert!(text.contains("allow(T1"), "{text}");
        assert!(explain("Z9").is_none());

        // Non-T1 rules have no source/sink catalog lines.
        let d1 = explain("D1").unwrap();
        assert!(!d1.contains("sources:"));
        assert!(d1.contains("hatch:"));
    }
}
