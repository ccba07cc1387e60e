//! The structural rules: **P2** (per-function panic-surface ratchet),
//! **E1** (swallowed fallible results in sim crates), **D6** (RNG
//! draws in evaluation-order-unstable positions), plus the per-file
//! symbol harvest the **X1** dead-pub analysis in [`crate::symbols`]
//! consumes.
//!
//! All of them work over the [`crate::parser`] item tree instead of
//! raw token lines — the point of titan-lint v3. Token matching can
//! say "there is an `.unwrap()` on line 40"; only the tree can say it
//! belongs to `titan_sim::engine::Engine::run`, that a `.gen_range(`
//! sits *inside* a `sort_by` comparator, or that `pub fn retire_page`
//! is referenced by nothing the dependency DAG can reach.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{text_at, Tok, TokKind, KEYWORDS};
use crate::parser::{Item, ItemKind};
use crate::symbols::PubItem;
use crate::{join, FileCtx, Finding, Rule};

/// Calls whose closure argument runs in an order/count the replay
/// contract does not pin: comparator-driven sorts/searches, retain and
/// dedup sweeps. A seeded draw inside one makes the RNG stream depend
/// on std's comparison schedule (rule D6).
pub const UNSTABLE_CTX: &[&str] = &[
    "binary_search_by",
    "binary_search_by_key",
    "dedup_by",
    "dedup_by_key",
    "max_by",
    "max_by_key",
    "min_by",
    "min_by_key",
    "retain",
    "retain_mut",
    "sort_by",
    "sort_by_cached_key",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Draw methods of the vendored rand API (and the `RngStreams`
/// wrappers): any of these advances a seeded stream.
pub const DRAW_METHODS: &[&str] = &[
    "fill_bytes", "gen", "gen_bool", "gen_range", "next_u32", "next_u64", "sample",
];

/// A statement-position call whose result is discarded (`foo(x);`,
/// `sim.step(dt);`). Only becomes an E1 finding when the callee is a
/// workspace `#[must_use]` sim API — that join happens in
/// [`crate::run_lint`], after every crate's APIs are collected.
#[derive(Debug, Clone)]
pub struct Discard {
    pub file: String,
    pub line: usize,
    /// The callee's unqualified name (`step`, not `Engine::step`).
    pub name: String,
}

/// Result of the structural scan of one file.
#[derive(Debug, Default)]
pub struct StructScan {
    /// Fully-qualified fn path → unhatched panic-surface site count
    /// (`.unwrap()`, `.expect(`, `panic!`, indexing). Non-test only.
    pub p2: BTreeMap<String, usize>,
    /// E1 (`let _ =` / bare `.ok();`) and D6 findings.
    pub findings: Vec<Finding>,
    /// E1 discarded-call candidates (sim scope, non-test, unhatched).
    pub discards: Vec<Discard>,
    /// `pub` items eligible for the X1 dead-pub analysis.
    pub pub_items: Vec<PubItem>,
    /// Names of `#[must_use]` fns (sim scope only).
    pub must_use_fns: BTreeSet<String>,
    /// Every reference identifier in the file → occurrence count (feeds
    /// the X1 reference graph; see `FileCtx::reference_idents`).
    pub ident_counts: BTreeMap<String, usize>,
}

/// One attributable code region: a fn / const / static item's full
/// span. Regions never overlap — nested named fns are not split out by
/// the parser, and closures stay with their enclosing fn. Whether a
/// site in it is test code is the line's test-ness (`FileCtx::in_test`),
/// so a `#[cfg(test)]` fn nested in a live fn body stays test code.
struct Region {
    start: usize,
    end: usize,
    path: String,
}

/// Runs the structural rules over one file. `module_prefix` is the
/// [`crate::module_prefix`] of the file; inline `mod`s extend it.
pub(crate) fn scan_structure(
    ctx: &FileCtx,
    module_prefix: &str,
    sim_scope: bool,
    engine_scope: bool,
) -> StructScan {
    let mut out = StructScan::default();

    // Symbol harvest: reference counts, pub items, must_use APIs.
    let refs = ctx.reference_idents();
    for (_, name) in &refs {
        *out.ident_counts.entry(name.to_string()).or_insert(0) += 1;
    }
    let mut regions = Vec::new();
    harvest(ctx, &refs, &ctx.items, module_prefix, sim_scope, &mut regions, &mut out);

    // P2: panic-surface sites attributed to their innermost region.
    scan_p2(ctx, &regions, &mut out.p2);

    // E1 legs (a), (b), and discard candidates for leg (c).
    if sim_scope {
        scan_e1(ctx, &regions, &mut out);
    }

    // D6: draws in unstable-evaluation-order positions.
    if engine_scope {
        scan_d6(ctx, &mut out.findings);
    }

    out
}

/// Walks the item tree once collecting P2 regions, X1 pub items, and
/// `#[must_use]` API names. `refs` is the file's
/// `FileCtx::reference_idents`.
fn harvest(
    ctx: &FileCtx,
    refs: &[(usize, &str)],
    items: &[Item],
    prefix: &str,
    sim_scope: bool,
    regions: &mut Vec<Region>,
    out: &mut StructScan,
) {
    for it in items {
        // X1 candidates: plain-`pub` named definitions. `use`/`mod`
        // re-exports and impls are not definitions; `main` and
        // test-gated items are outside the rule.
        let x1_kind = matches!(
            it.kind,
            ItemKind::Fn
                | ItemKind::Struct
                | ItemKind::Enum
                | ItemKind::Union
                | ItemKind::Const
                | ItemKind::Static
                | ItemKind::TypeAlias
                | ItemKind::Trait
        );
        if it.vis_pub
            && !it.cfg_test
            && x1_kind
            && !it.name.is_empty()
            && it.name != "main"
            && !ctx.allowed(it.line, "X1")
        {
            let lo = refs.partition_point(|r| r.0 < it.start);
            let hi = refs.partition_point(|r| r.0 < it.end);
            let self_refs = refs[lo..hi].iter().filter(|r| r.1 == it.name).count();
            out.pub_items.push(PubItem {
                file: ctx.rel.to_string(),
                line: it.line,
                path: join(prefix, &it.name),
                name: it.name.clone(),
                self_refs,
            });
        }
        if sim_scope && it.must_use && it.kind == ItemKind::Fn && !it.cfg_test {
            out.must_use_fns.insert(it.name.clone());
        }
        match it.kind {
            ItemKind::Fn | ItemKind::Const | ItemKind::Static => {
                regions.push(Region {
                    start: it.start,
                    end: it.end,
                    path: join(prefix, &it.name),
                });
                // Closure children need no recursion here: their spans
                // lie inside this region and attribute to it.
            }
            ItemKind::Module | ItemKind::Impl | ItemKind::Trait => {
                let prefix = join(prefix, &it.name);
                harvest(ctx, refs, &it.children, &prefix, sim_scope, regions, out);
            }
            _ => {}
        }
    }
}

/// The innermost (only, since regions never overlap) region containing
/// byte `pos`.
fn region_at<'a>(regions: &'a [Region], pos: usize) -> Option<&'a Region> {
    regions.iter().find(|r| r.start <= pos && pos < r.end)
}

/// Counts P2 sites: `.unwrap()`, `.expect(`, `panic!`, and indexing
/// (`expr[...]` — a `[` whose base is an identifier, `)`, or `]`).
fn scan_p2(ctx: &FileCtx, regions: &[Region], p2: &mut BTreeMap<String, usize>) {
    let (src, code) = (ctx.src, &ctx.code);
    let text = |i: usize| text_at(src, code, i);
    let mut i = 0;
    while i < code.len() {
        let t = &code[i];
        let advance = if text(i) == "."
            && text(i + 1) == "unwrap"
            && text(i + 2) == "("
            && text(i + 3) == ")"
        {
            Some(4)
        } else if text(i) == "." && text(i + 1) == "expect" && text(i + 2) == "(" {
            Some(3)
        } else if t.kind == TokKind::Ident && text(i) == "panic" && text(i + 1) == "!" {
            Some(2)
        } else if text(i) == "[" && i > 0 && is_index_base(src, &code[i - 1]) {
            Some(1)
        } else {
            None
        };
        match advance {
            Some(adv) => {
                if !ctx.allowed(t.line, "P2") && !ctx.is_test(t.line) {
                    if let Some(r) = region_at(regions, t.start) {
                        *p2.entry(r.path.clone()).or_insert(0) += 1;
                    }
                }
                i += adv;
            }
            None => i += 1,
        }
    }
}

/// True when a `[` directly after this token opens an *index*
/// expression rather than a slice pattern / array type / literal.
fn is_index_base(src: &str, prev: &Tok) -> bool {
    match prev.kind {
        TokKind::Ident => !KEYWORDS.contains(&prev.text(src)),
        TokKind::Punct => matches!(prev.text(src), ")" | "]"),
        _ => false,
    }
}

/// E1 legs (a) `let _ = expr;` and (b) bare `.ok();`, plus the
/// discarded-call candidates for leg (c).
fn scan_e1(ctx: &FileCtx, regions: &[Region], out: &mut StructScan) {
    let (rel, src, code) = (ctx.rel, ctx.src, &ctx.code);
    let text = |i: usize| text_at(src, code, i);
    let in_live_region =
        |t: &Tok| !ctx.is_test(t.line) && region_at(regions, t.start).is_some();

    for i in 0..code.len() {
        let t = &code[i];
        // (a) `let _ = expr;` — except the idiomatic infallible
        // fmt-buffer writes (`let _ = write!(buf, ...)`): the
        // workspace's io writes live above the engine, so a write!
        // target here is a String.
        if t.kind == TokKind::Ident
            && text(i) == "let"
            && text(i + 1) == "_"
            && text(i + 2) == "="
        {
            let fmt_write = matches!(text(i + 3), "write" | "writeln") && text(i + 4) == "!";
            if !fmt_write && in_live_region(t) && !ctx.allowed(t.line, "E1") {
                out.findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: Rule::E1,
                    message: "`let _ = ...` swallows a fallible outcome in simulation code"
                        .to_string(),
                    hint: "handle the Err (propagate with `?` or match on it) or justify \
                           with `// lint: allow(E1, reason)`; fmt-buffer `write!` is exempt"
                        .to_string(),
                });
            }
        }
        // (b) a statement that *ends* in `.ok();` with nothing binding
        // it: the error is dropped and the success value unread.
        if text(i) == "."
            && text(i + 1) == "ok"
            && text(i + 2) == "("
            && text(i + 3) == ")"
            && text(i + 4) == ";"
            && statement_discards(src, code, i)
            && in_live_region(t)
            && !ctx.allowed(t.line, "E1")
        {
            out.findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: Rule::E1,
                message: "bare `.ok();` drops an error without reading the success value"
                    .to_string(),
                hint: "if the error is impossible, unwrap it where the invariant lives; \
                       otherwise handle or log it — or justify with \
                       `// lint: allow(E1, reason)`"
                    .to_string(),
            });
        }
        // (c) candidates: `name(...);` / `recv.name(...);` in statement
        // position. The must_use join happens in run_lint.
        if text(i) == ";" && i >= 1 && text(i - 1) == ")" {
            if let Some((name_idx, name)) = call_name(src, code, i - 1) {
                if statement_discards(src, code, name_idx)
                    && in_live_region(&code[name_idx])
                    && !ctx.allowed(code[name_idx].line, "E1")
                {
                    out.discards.push(Discard {
                        file: rel.to_string(),
                        line: code[name_idx].line,
                        name,
                    });
                }
            }
        }
    }
}

/// For a `)` at index `close`, finds the matching `(` and returns the
/// callee identifier directly before it (if any).
fn call_name(src: &str, code: &[Tok], close: usize) -> Option<(usize, String)> {
    let mut depth = 0usize;
    let mut j = close;
    loop {
        match code[j].text(src) {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    let name_idx = j.checked_sub(1)?;
    let t = code.get(name_idx)?;
    if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text(src)) {
        Some((name_idx, t.text(src).to_string()))
    } else {
        None
    }
}

/// Walks backward from token `from` to the start of the enclosing
/// statement (`;`, `{`, or `}` at depth 0). Returns true when nothing
/// in between consumes the value: no `let`, no `=` (any assignment or
/// comparison — conservative), no `return`, no `?`, no leading `.`
/// chain off a previous expression... i.e. the expression's result is
/// discarded.
fn statement_discards(src: &str, code: &[Tok], from: usize) -> bool {
    let mut depth = 0usize;
    let mut j = from;
    while j > 0 {
        j -= 1;
        let t = &code[j];
        match t.text(src) {
            // Walking backward, a closer opens a group — except a `}`
            // at depth 0, which is the previous block's end and thus a
            // statement boundary.
            ")" | "]" => depth += 1,
            "}" => {
                if depth == 0 {
                    return true;
                }
                depth += 1;
            }
            "(" | "[" | "{" => {
                if depth == 0 {
                    return true; // statement starts inside this group
                }
                depth -= 1;
            }
            ";" if depth == 0 => return true,
            "=" | "?" if depth == 0 => return false,
            "let" | "return" if depth == 0 && t.kind == TokKind::Ident => return false,
            _ => {}
        }
    }
    true
}

/// D6: seeded-stream draws inside comparator/retain closures and
/// `Drop` impls, where evaluation order/count is not part of the
/// replay contract.
fn scan_d6(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    let src = ctx.src;
    let mut spans: Vec<(usize, usize, String)> = Vec::new();
    collect_d6_spans(&ctx.items, &mut spans);
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    let code = &ctx.code;
    for (lo, hi, what) in &spans {
        // A draw starts inside the span; its lookahead may run past it.
        let first = code.partition_point(|t| t.start < *lo);
        let end = first + ctx.span(*lo, *hi).len();
        for k in first..end.min(code.len().saturating_sub(1)) {
            let t = &code[k];
            if t.text(src) == "."
                && code[k + 1].kind == TokKind::Ident
                && DRAW_METHODS.contains(&code[k + 1].text(src))
                && matches!(text_at(src, code, k + 2), "(" | ":")
            {
                let method = code[k + 1].text(src).to_string();
                let line = t.line;
                if !ctx.allowed(line, "D6") && seen.insert((line, method.clone())) {
                    findings.push(Finding {
                        file: ctx.rel.to_string(),
                        line,
                        rule: Rule::D6,
                        message: format!(
                            "seeded-stream draw `.{method}(...)` inside {what} — evaluation \
                             order there is not part of the replay contract"
                        ),
                        hint: "draw the values before entering the comparator/Drop and \
                               capture them; a draw count that depends on std's comparison \
                               schedule breaks cross-version replay — or justify with \
                               `// lint: allow(D6, reason)`"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// Byte spans D6 polices: non-test closures passed to [`UNSTABLE_CTX`]
/// calls, and whole `impl Drop for ...` bodies.
fn collect_d6_spans(items: &[Item], out: &mut Vec<(usize, usize, String)>) {
    for it in items {
        if !it.cfg_test {
            match it.kind {
                ItemKind::Closure => {
                    if let Some(ctx) = it.ctx.as_deref() {
                        if UNSTABLE_CTX.contains(&ctx) {
                            out.push((it.start, it.end, format!("a `{ctx}` closure")));
                        }
                    }
                }
                ItemKind::Impl if it.trait_of.as_deref() == Some("Drop") => {
                    if let Some((lo, hi)) = it.body {
                        out.push((lo, hi, "a `Drop` impl".to_string()));
                    }
                }
                _ => {}
            }
        }
        collect_d6_spans(&it.children, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structure(rel: &str, src: &str, prefix: &str, sim: bool, engine: bool) -> StructScan {
        scan_structure(&FileCtx::new(rel, src), prefix, sim, engine)
    }

    fn scan(src: &str) -> StructScan {
        structure("crates/simulator/src/engine.rs", src, "titan_sim::engine", true, true)
    }

    fn rules_of(scan: &StructScan) -> Vec<Rule> {
        scan.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn p2_attributes_sites_to_fully_qualified_fn_paths() {
        let src = "pub struct Engine;\n\
                   impl Engine {\n\
                       pub fn run(&mut self) { self.q.pop().unwrap(); }\n\
                       fn peek(&self) -> u32 { self.slots[0] }\n\
                   }\n\
                   fn free(x: Option<u32>) -> u32 { x.expect(\"set\") }\n\
                   fn clean() -> u32 { 7 }\n";
        let s = scan(src);
        assert_eq!(s.p2.get("titan_sim::engine::Engine::run"), Some(&1));
        assert_eq!(s.p2.get("titan_sim::engine::Engine::peek"), Some(&1), "{:?}", s.p2);
        assert_eq!(s.p2.get("titan_sim::engine::free"), Some(&1));
        assert_eq!(s.p2.get("titan_sim::engine::clean"), None, "zero paths stay absent");
    }

    #[test]
    fn p2_counts_panics_and_indexing_but_not_types_or_patterns() {
        let src = "fn f(v: &[u64], i: usize) -> u64 {\n\
                       let [a, b] = [1u64, 2];\n\
                       let w: &[u64] = v;\n\
                       let x = vec![0u64];\n\
                       if i > w.len() { panic!(\"oob\"); }\n\
                       v[i] + x[0] + a + b\n\
                   }\n";
        let s = scan(src);
        // panic! + v[i] + x[0]; the slice pattern, slice type, and
        // vec![] literal must not count.
        assert_eq!(s.p2.get("titan_sim::engine::f"), Some(&3), "{:?}", s.p2);
    }

    #[test]
    fn p2_skips_tests_and_hatched_lines() {
        let src = "fn live() { x.unwrap(); }\n\
                   fn hatched() {\n\
                       // lint: allow(P2, the queue is non-empty by construction)\n\
                       let v = q.pop().unwrap();\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { y.unwrap(); z[0]; panic!(); }\n\
                   }\n";
        let s = scan(src);
        assert_eq!(s.p2.get("titan_sim::engine::live"), Some(&1));
        assert_eq!(s.p2.get("titan_sim::engine::hatched"), None, "{:?}", s.p2);
        assert!(!s.p2.keys().any(|k| k.contains("tests")), "{:?}", s.p2);
    }

    #[test]
    fn e1_flags_let_underscore_but_exempts_fmt_writes() {
        let src = "use std::fmt::Write;\n\
                   fn f(r: Result<u32, String>, buf: &mut String) {\n\
                       let _ = r;\n\
                       let _ = writeln!(buf, \"ok\");\n\
                       let _ = write!(buf, \"ok\");\n\
                   }\n";
        let s = scan(src);
        assert_eq!(rules_of(&s), vec![Rule::E1], "{:?}", s.findings);
        assert_eq!(s.findings[0].line, 3);
    }

    #[test]
    fn e1_flags_bare_ok_but_not_bound_ok() {
        let src = "fn f(tx: Sender) {\n\
                       tx.send(1).ok();\n\
                       let got = tx.send(2).ok();\n\
                       if tx.send(3).ok().is_some() { }\n\
                       return tx.send(4).ok();\n\
                   }\n";
        let s = scan(src);
        assert_eq!(rules_of(&s), vec![Rule::E1], "{:?}", s.findings);
        assert_eq!(s.findings[0].line, 2);
    }

    #[test]
    fn e1_collects_discard_candidates_in_statement_position_only() {
        let src = "fn f(sim: &mut Sim) {\n\
                       sim.step(1.0);\n\
                       let out = sim.step(2.0);\n\
                       record(sim.step(3.0));\n\
                       helper();\n\
                   }\n";
        let s = scan(src);
        let names: Vec<&str> = s.discards.iter().map(|d| d.name.as_str()).collect();
        // `step` at line 2 and `record`/`helper` (also statements) are
        // candidates; bound and argument-position calls are not.
        assert_eq!(names, vec!["step", "record", "helper"], "{:?}", s.discards);
        assert_eq!(s.discards[0].line, 2);
    }

    #[test]
    fn e1_is_sim_scope_only_and_respects_tests_and_hatches() {
        let src = "fn f(r: Result<u32, u8>) { let _ = r; }\n";
        let outside =
            structure("crates/stats/src/lib.rs", src, "titan_stats", false, false);
        assert!(outside.findings.is_empty());

        let test_mod = "#[cfg(test)]\nmod tests {\n    fn t(r: Result<u8, u8>) { let _ = r; }\n}\n";
        assert!(scan(test_mod).findings.is_empty());

        let hatched = "fn f(r: Result<u32, u8>) {\n\
                           // lint: allow(E1, poisoning is handled at the call site)\n\
                           let _ = r;\n\
                       }\n";
        assert!(scan(hatched).findings.is_empty());
    }

    #[test]
    fn d6_flags_draws_in_comparators_and_drop_impls() {
        let src = "fn shuffle(v: &mut Vec<Node>, rng: &mut StdRng) {\n\
                       v.sort_by(|a, b| rng.gen::<u64>().cmp(&b.key));\n\
                       v.retain(|n| rng.gen_bool(0.5));\n\
                   }\n\
                   struct Pool { rng: StdRng }\n\
                   impl Drop for Pool {\n\
                       fn drop(&mut self) { let t = self.rng.gen_range(0..4); }\n\
                   }\n";
        let s = scan(src);
        let lines: Vec<usize> =
            s.findings.iter().filter(|f| f.rule == Rule::D6).map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 7], "{:?}", s.findings);
    }

    #[test]
    fn d6_allows_draws_in_plain_code_and_map_closures() {
        let src = "fn roll(rng: &mut StdRng, v: &mut Vec<u64>) {\n\
                       let x = rng.gen_range(0..10);\n\
                       let ys: Vec<u64> = (0..4).map(|_| rng.gen()).collect();\n\
                       v.sort_by(|a, b| a.cmp(b));\n\
                   }\n";
        let s = scan(src);
        assert!(s.findings.iter().all(|f| f.rule != Rule::D6), "{:?}", s.findings);
    }

    #[test]
    fn d6_respects_the_hatch_and_engine_scope() {
        let src = "fn f(v: &mut Vec<u64>, rng: &mut StdRng) {\n\
                       // lint: allow(D6, single element: comparator runs zero times)\n\
                       v.sort_by(|a, b| rng.gen::<u64>().cmp(b));\n\
                   }\n";
        assert!(scan(src).findings.iter().all(|f| f.rule != Rule::D6));

        let bare = "fn f(v: &mut Vec<u64>, rng: &mut StdRng) {\n\
                        v.retain(|_| rng.gen_bool(0.5));\n\
                    }\n";
        let outside =
            structure("crates/stats/src/lib.rs", bare, "titan_stats", false, false);
        assert!(outside.findings.is_empty(), "stats is not engine scope");
    }

    #[test]
    fn harvest_collects_pub_items_and_must_use() {
        let src = "pub fn api() {}\n\
                   pub(crate) fn internal() {}\n\
                   fn private() {}\n\
                   pub struct State;\n\
                   #[must_use]\n\
                   pub fn outcome() -> u32 { 1 }\n\
                   // lint: allow(X1, kept for the public API surface)\n\
                   pub fn hatched_api() {}\n\
                   #[cfg(test)]\n\
                   pub fn test_helper() {}\n";
        let s = scan(src);
        let paths: Vec<&str> = s.pub_items.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "titan_sim::engine::api",
                "titan_sim::engine::State",
                "titan_sim::engine::outcome"
            ],
            "{:?}",
            s.pub_items
        );
        assert!(s.must_use_fns.contains("outcome"));
        assert_eq!(s.pub_items[0].self_refs, 1, "own definition mentions the name once");
        assert!(s.ident_counts.get("api").copied().unwrap_or(0) >= 1);
    }
}
