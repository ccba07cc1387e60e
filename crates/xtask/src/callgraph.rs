//! The workspace call graph behind rule **T1** (interprocedural
//! determinism taint, see [`crate::taint`]).
//!
//! The token rules (D1/D2/D4/D5) and the structural rules (P2/E1/D6)
//! both stop at a function boundary: a helper that reads
//! `TITAN_NUM_THREADS`, casts a pointer to `usize`, or iterates a
//! `HashMap` can launder a nondeterministic value through one `fn`
//! call and write it into sim state unseen. This module harvests, per
//! function item in the [`crate::parser`] tree:
//!
//! - **call sites** — `name(...)`, `path::name(...)`, `.name(...)`,
//!   `Type::<T>::name(...)`, and `<Type as Trait>::name(...)` forms,
//!   each with its qualifier segments so
//!   [`CallableIndex::resolve`](crate::symbols::CallableIndex::resolve)
//!   can pick candidates across the manifest dependency DAG;
//! - a **summary**: the nondeterminism *sources* the body reads
//!   directly (env, wall clock, thread-width queries, pointer-address
//!   casts, hash iteration, entropy) and the *sinks* it feeds
//!   (assignments through `self`, mutating container/collector calls
//!   on `self`, stdout/report emission, digest inputs).
//!
//! Resolution is name-based (a zero-dependency-resolution linter has
//! no type information), so the graph *over*-approximates: a method
//! call may resolve to every visible workspace fn of that name. That
//! is the right direction for a taint analysis — a false edge can only
//! add a path to review, never hide one — and the `// lint:
//! allow(T1, reason)` hatch (on a source line or a call-site line)
//! prunes the reviewed ones.

use crate::lexer::{match_at, text_at, Tok, TokKind, KEYWORDS};
use crate::parser::{Item, ItemKind};
use crate::{join, FileCtx, NEEDLES};

/// Mutating methods that, called on a `self`-rooted place, count as a
/// sim-state write sink.
const MUTATOR_METHODS: &[&str] =
    &["append", "extend", "insert", "observe", "push", "push_str", "record"];

/// Output macros (stdout / report buffers / digest text).
const OUTPUT_MACROS: &[&str] = &["eprint", "eprintln", "print", "println", "write", "writeln"];

/// Direct digest/emission calls that count as output sinks.
const OUTPUT_CALLS: &[&str] = &["log_fault", "fnv1a", "write_bytes", "write_u64"];

/// Hash-container iteration methods (only a source when the fn also
/// names a [`SourceKind::HashIter`] container from [`NEEDLES`]).
const HASH_ITER_METHODS: &[&str] = &["drain", "into_iter", "iter", "keys", "values"];

/// What kind of nondeterminism a taint source reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SourceKind {
    /// `env::var` / `env::var_os` / `env::vars` / `option_env!`.
    EnvRead,
    /// `Instant::now()`, `SystemTime::now()`, `.elapsed()`.
    WallClock,
    /// `available_parallelism`, `current_num_threads`, `num_cpus`,
    /// `thread::current`.
    ThreadQuery,
    /// A pointer-address observation: `.as_ptr() as <int>`,
    /// `.as_mut_ptr() as <int>`, `.addr()`.
    PtrAddr,
    /// Iteration over a `HashMap`/`HashSet` named in the same fn.
    HashIter,
    /// `thread_rng`, `from_entropy`, `rand::random` (D1's set).
    Entropy,
}

impl SourceKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SourceKind::EnvRead => "env read",
            SourceKind::WallClock => "wall-clock read",
            SourceKind::ThreadQuery => "thread-width query",
            SourceKind::PtrAddr => "pointer-address cast",
            SourceKind::HashIter => "hash-order iteration",
            SourceKind::Entropy => "OS entropy",
        }
    }
}

/// One direct nondeterminism read inside a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintSource {
    pub kind: SourceKind,
    /// 1-based line of the read.
    pub line: usize,
    /// The read as written, e.g. `env::var("TITAN_NUM_THREADS")`.
    pub desc: String,
    /// A site rule (D1/D2/D4/D5) reported this line, so T1 does not
    /// report the read again inside its own fn; it still propagates
    /// across calls. Set by [`crate::scan_file`].
    pub reported: bool,
}

/// What a sink statement feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkKind {
    /// Assignment / mutating call through a `self`-rooted place.
    StateWrite,
    /// stdout, report-buffer, or digest emission.
    Output,
}

impl SinkKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SinkKind::StateWrite => "a sim-state write",
            SinkKind::Output => "an output/digest emission",
        }
    }
}

/// One sink statement inside a fn body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkSite {
    pub kind: SinkKind,
    pub line: usize,
}

/// One call expression inside a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The callee's unqualified name (`step`, not `Engine::step`).
    pub name: String,
    /// Qualifier segments as written (`["Engine"]` for
    /// `Engine::step(..)`, `["fix_stats"]` for
    /// `fix_stats::host_width(..)`); empty for bare and method calls.
    pub quals: Vec<String>,
    /// True for `.name(...)` receiver calls.
    pub method: bool,
    /// 1-based line of the callee token.
    pub line: usize,
    /// A `// lint: allow(T1, ...)` hatch covers this line.
    pub hatched: bool,
}

/// One function node of the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// Fully-qualified path (`titan_sim::engine::Engine::step`).
    pub path: String,
    /// Unqualified name (`step`).
    pub name: String,
    /// Enclosing impl/trait self-type name, if any (`Engine`).
    pub owner: Option<String>,
    /// Package name (`titan-sim`).
    pub pkg: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// The file's crate is in [`crate::SIM_CRATE_DIRS`] scope (where T1
    /// sinks live).
    pub sim_scope: bool,
    pub sources: Vec<TaintSource>,
    pub sinks: Vec<SinkSite>,
    pub calls: Vec<CallSite>,
}

/// Harvests every non-test named fn of one file into call-graph nodes.
pub(crate) fn harvest(ctx: &FileCtx, module_prefix: &str, pkg: &str, sim_scope: bool) -> Vec<FnDecl> {
    let mut out = Vec::new();
    walk(ctx, &ctx.items, module_prefix, None, pkg, sim_scope, &mut out);
    out
}

fn walk(
    ctx: &FileCtx,
    items: &[Item],
    prefix: &str,
    owner: Option<&str>,
    pkg: &str,
    sim_scope: bool,
    out: &mut Vec<FnDecl>,
) {
    for it in items {
        if it.cfg_test {
            continue; // test fns neither taint nor sink shipped state
        }
        match it.kind {
            ItemKind::Fn => {
                let Some((blo, bhi)) = it.body else { continue };
                let body = ctx.span(blo, bhi);
                // The container-name check covers the whole item span:
                // a `HashMap` parameter taints iteration in the body.
                let names_hash = ctx.span(it.start, bhi).iter().any(|t| {
                    NEEDLES.iter().any(|n| {
                        n.source == Some(SourceKind::HashIter) && *n.toks == [t.text(ctx.src)]
                    })
                });
                out.push(FnDecl {
                    path: join(prefix, &it.name),
                    name: it.name.clone(),
                    owner: owner.map(str::to_string),
                    pkg: pkg.to_string(),
                    file: ctx.rel.to_string(),
                    line: it.line,
                    sim_scope,
                    sources: scan_sources(ctx, body, names_hash),
                    sinks: scan_sinks(ctx.src, body),
                    calls: scan_calls(ctx, body),
                });
            }
            ItemKind::Module => {
                walk(ctx, &it.children, &join(prefix, &it.name), None, pkg, sim_scope, out)
            }
            ItemKind::Impl | ItemKind::Trait => {
                let nested = join(prefix, &it.name);
                walk(ctx, &it.children, &nested, Some(&it.name), pkg, sim_scope, out)
            }
            _ => {}
        }
    }
}

/// Direct nondeterminism reads: the sourced [`NEEDLES`], plus
/// `.iter()`-family calls in a fn naming a hash container. A `// lint:
/// allow(T1, reason)` on the read's line drops the source entirely —
/// every chain through it is then accepted as reviewed.
fn scan_sources(ctx: &FileCtx, body: &[Tok], names_hash_container: bool) -> Vec<TaintSource> {
    let src = ctx.src;
    let mut out: Vec<TaintSource> = Vec::new();
    let mut push = |kind: SourceKind, line: usize, desc: String| {
        if !ctx.allowed(line, "T1") && !out.iter().any(|s| s.kind == kind && s.line == line) {
            out.push(TaintSource { kind, line, desc, reported: false });
        }
    };

    for i in 0..body.len() {
        for n in NEEDLES {
            let Some(kind) = n.source.filter(|k| *k != SourceKind::HashIter) else { continue };
            if !match_at(src, body, i, n.toks) {
                continue;
            }
            let mut desc: String = n.toks.iter().take_while(|t| **t != "(").copied().collect();
            // `env::var("NAME")` reads better with its key.
            let after = i + n.toks.len();
            if kind == SourceKind::EnvRead && text_at(src, body, after) == "(" {
                if let Some(arg) = body.get(after + 1).filter(|a| a.kind.is_literal()) {
                    desc = format!("{desc}({})", arg.text(src));
                }
            }
            push(kind, body[i].line, desc);
        }
        // Hash iteration: `.iter()`-family call in a fn that names a
        // hash container. Coarse by construction (no types), but D2
        // already keeps hash containers out of sim crates, so this kind
        // matters in the analysis-side crates sim code calls into.
        if names_hash_container
            && text_at(src, body, i) == "."
            && HASH_ITER_METHODS.contains(&text_at(src, body, i + 1))
            && text_at(src, body, i + 2) == "("
        {
            push(
                SourceKind::HashIter,
                body[i].line,
                format!("HashMap/HashSet .{}()", body[i + 1].text(src)),
            );
        }
    }
    out
}

/// Sink statements: writes through `self` (assignment or mutating
/// call) and output/digest emission.
fn scan_sinks(src: &str, body: &[Tok]) -> Vec<SinkSite> {
    let text = |i: usize| text_at(src, body, i);
    let mut out: Vec<SinkSite> = Vec::new();
    let mut push = |kind: SinkKind, line: usize| {
        if !out.iter().any(|s| s.kind == kind && s.line == line) {
            out.push(SinkSite { kind, line });
        }
    };
    for i in 0..body.len() {
        let t = &body[i];
        // Output macros and digest calls.
        if t.kind == TokKind::Ident {
            let name = t.text(src);
            if OUTPUT_MACROS.contains(&name) && text(i + 1) == "!" {
                push(SinkKind::Output, t.line);
            }
            if OUTPUT_CALLS.contains(&name) && text(i + 1) == "(" {
                push(SinkKind::Output, t.line);
            }
        }
        // `self`-rooted place: walk `.field`, `.0`, `[idx]` segments,
        // then look for an assignment operator or a mutator call.
        if t.kind == TokKind::Ident && t.text(src) == "self" {
            let mut j = i + 1;
            let mut segments = 0usize;
            let mut last_method: Option<&str> = None;
            loop {
                if text(j) == "." && body.get(j + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident || n.kind == TokKind::Number
                }) {
                    last_method = Some(text(j + 1));
                    j += 2;
                    segments += 1;
                } else if text(j) == "[" {
                    // Skip the index group.
                    let mut depth = 0usize;
                    while j < body.len() {
                        match text(j) {
                            "[" => depth += 1,
                            "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    j += 1;
                } else {
                    break;
                }
            }
            if segments == 0 {
                continue;
            }
            // `self.place.push(x)` — the last chain segment is a call.
            if text(j) == "(" {
                if last_method.is_some_and(|m| MUTATOR_METHODS.contains(&m)) {
                    push(SinkKind::StateWrite, t.line);
                }
                continue;
            }
            // `self.place = x`, `self.place += x`, `self.place <<= x`.
            let assign = match text(j) {
                "=" => text(j + 1) != "=",
                "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" => text(j + 1) == "=",
                "<" => text(j + 1) == "<" && text(j + 2) == "=",
                ">" => text(j + 1) == ">" && text(j + 2) == "=",
                _ => false,
            };
            if assign {
                push(SinkKind::StateWrite, t.line);
            }
        }
    }
    out
}

/// Call-site extraction: for every `(` that closes a callee, record
/// the name, qualifier segments, and whether it is a `.method()` call.
fn scan_calls(ctx: &FileCtx, body: &[Tok]) -> Vec<CallSite> {
    let src = ctx.src;
    let text = |i: usize| text_at(src, body, i);
    let mut out: Vec<CallSite> = Vec::new();
    for i in 0..body.len() {
        if text(i) != "(" || i == 0 {
            continue;
        }
        // Find the callee ident directly before the `(`, looking
        // through a closing turbofish/UFCS `>`.
        let name_idx = match &body[i - 1] {
            t if t.kind == TokKind::Ident => {
                if KEYWORDS.contains(&t.text(src)) || t.text(src) == "self" {
                    continue;
                }
                i - 1
            }
            t if t.needle_text(src) == ">" => {
                // `name::<T>(` / `Type::<T>::name(` close here only via
                // the generic group; the callee sits before the `::<`.
                let Some(lt) = open_angle(src, body, i - 1) else { continue };
                if lt >= 3
                    && text(lt - 1) == ":"
                    && text(lt - 2) == ":"
                    && body[lt - 3].kind == TokKind::Ident
                    && !KEYWORDS.contains(&body[lt - 3].text(src))
                {
                    lt - 3
                } else {
                    continue;
                }
            }
            _ => continue,
        };
        // A macro invocation (`name!(...)`) never reaches here — the
        // `!` sits between the ident and the `(`. A nested `fn name(`
        // definition does; skip it.
        if name_idx >= 1 && text(name_idx - 1) == "fn" {
            continue;
        }
        let name = body[name_idx].text(src).to_string();
        let method = name_idx >= 1 && text(name_idx - 1) == ".";
        let quals = if method { Vec::new() } else { quals_before(src, body, name_idx) };
        let line = body[name_idx].line;
        // One record per (name, quals, line) is enough.
        let site = CallSite {
            name,
            quals,
            method,
            line,
            hatched: ctx.allowed(line, "T1"),
        };
        if !out.contains(&site) {
            out.push(site);
        }
    }
    out
}

/// For a `>` at `close`, the index of its matching `<` (angle groups
/// only nest with other angle brackets in path position).
fn open_angle(src: &str, body: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = close;
    loop {
        match body[j].needle_text(src) {
            ">" => depth += 1,
            "<" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
}

/// Qualifier segments before `name_idx`, walking `seg::`, `Type::<T>::`
/// and `<Type as Trait>::` forms backward. Returns them in source
/// order.
fn quals_before(src: &str, body: &[Tok], name_idx: usize) -> Vec<String> {
    let text = |i: usize| text_at(src, body, i);
    let mut quals = Vec::new();
    let mut j = name_idx;
    while j >= 2 && text(j - 1) == ":" && text(j - 2) == ":" {
        if j < 3 {
            break;
        }
        let k = j - 3;
        let t = &body[k];
        if t.kind == TokKind::Ident {
            let q = t.text(src);
            if !matches!(q, "crate" | "self" | "super") {
                quals.push(q.to_string());
            }
            j = k;
        } else if t.needle_text(src) == ">" {
            // `Type::<T>::name` (turbofish path segment) or
            // `<Type as Trait>::name` (UFCS): collect the idents inside
            // the angle group, minus `as`/lifetimes/keywords.
            let Some(lt) = open_angle(src, body, k) else { break };
            // Reversed here because the whole list is reversed below.
            for g in body[lt..=k].iter().rev() {
                if g.kind == TokKind::Ident && !KEYWORDS.contains(&g.text(src)) {
                    quals.push(g.text(src).to_string());
                }
            }
            j = lt;
        } else {
            break;
        }
    }
    quals.reverse();
    quals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harvest(src: &str) -> Vec<FnDecl> {
        let ctx = FileCtx::new("crates/simulator/src/lib.rs", src);
        super::harvest(&ctx, "titan_sim", "titan-sim", true)
    }

    fn one(src: &str) -> FnDecl {
        let fns = harvest(src);
        assert_eq!(fns.len(), 1, "{fns:?}");
        fns.into_iter().next().unwrap()
    }

    #[test]
    fn harvests_fn_paths_through_modules_and_impls() {
        let src = "mod host {\n\
                       pub fn width() -> usize { 1 }\n\
                   }\n\
                   pub struct Engine;\n\
                   impl Engine {\n\
                       pub fn step(&mut self) { host::width(); }\n\
                   }\n";
        let fns = harvest(src);
        let paths: Vec<&str> = fns.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, vec!["titan_sim::host::width", "titan_sim::Engine::step"]);
        assert_eq!(fns[1].owner.as_deref(), Some("Engine"));
        assert_eq!(fns[1].calls.len(), 1);
        assert_eq!(fns[1].calls[0].name, "width");
        assert_eq!(fns[1].calls[0].quals, vec!["host"]);
    }

    #[test]
    fn call_forms_free_method_path_turbofish_and_ufcs() {
        let src = "fn f(v: &mut Vec<u64>) {\n\
                       helper(1);\n\
                       v.push(2);\n\
                       fix_stats::host_width();\n\
                       Engine::step(v);\n\
                       parse::<u64>(\"4\");\n\
                       Vec::<u64>::with_capacity(8);\n\
                       <Fleet as Spare>::swap(v);\n\
                   }\n";
        let d = one(src);
        let got: Vec<(String, Vec<String>, bool)> =
            d.calls.iter().map(|c| (c.name.clone(), c.quals.clone(), c.method)).collect();
        assert_eq!(
            got,
            vec![
                ("helper".into(), vec![], false),
                ("push".into(), vec![], true),
                ("host_width".into(), vec!["fix_stats".into()], false),
                ("step".into(), vec!["Engine".into()], false),
                ("parse".into(), vec![], false),
                ("with_capacity".into(), vec!["Vec".into(), "u64".into()], false),
                ("swap".into(), vec!["Fleet".into(), "Spare".into()], false),
            ],
            "{:?}",
            d.calls
        );
    }

    #[test]
    fn keywords_macros_and_nested_fn_defs_are_not_calls() {
        let src = "fn f(x: u64) -> u64 {\n\
                       if (x > 1) { return g(x); }\n\
                       assert!(x < 10);\n\
                       fn nested(y: u64) -> u64 { y }\n\
                       nested(x)\n\
                   }\n";
        let d = one(src);
        let names: Vec<&str> = d.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["g", "nested"], "{:?}", d.calls);
    }

    #[test]
    fn sources_cover_env_clock_threads_ptr_and_hash_iter() {
        let src = "fn f(m: &std::collections::HashMap<u32, u32>, s: &str) -> usize {\n\
                       let w = std::env::var(\"TITAN_NUM_THREADS\");\n\
                       let t = Instant::now();\n\
                       let p = std::thread::available_parallelism();\n\
                       let a = s.as_ptr() as usize;\n\
                       let n: usize = m.values().count();\n\
                       a + n\n\
                   }\n";
        let d = one(src);
        let kinds: Vec<SourceKind> = d.sources.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SourceKind::EnvRead,
                SourceKind::WallClock,
                SourceKind::ThreadQuery,
                SourceKind::PtrAddr,
                SourceKind::HashIter,
            ],
            "{:?}",
            d.sources
        );
        assert_eq!(d.sources[0].desc, "env::var(\"TITAN_NUM_THREADS\")");
        assert_eq!(d.sources[0].line, 2);
    }

    #[test]
    fn sources_skip_strings_comments_and_hatched_lines() {
        let src = "fn f() -> usize {\n\
                       // env::var(\"X\") in a comment is fine\n\
                       let s = \"Instant::now()\";\n\
                       // lint: allow(T1, width is clamped to the replicate pool cap)\n\
                       let w = std::env::var(\"W\").map(|v| v.len()).unwrap_or(1);\n\
                       s.len() + w\n\
                   }\n";
        let d = one(src);
        assert!(d.sources.is_empty(), "{:?}", d.sources);
    }

    #[test]
    fn iter_without_hash_container_is_not_a_source() {
        let src = "fn f(v: &[u64]) -> u64 { v.iter().sum() }\n";
        assert!(one(src).sources.is_empty());
    }

    #[test]
    fn sinks_cover_self_writes_mutators_and_output() {
        let src = "impl Engine {\n\
                       fn a(&mut self, w: usize) { self.width = w; }\n\
                       fn b(&mut self, n: u64) { self.counts[2] += n; }\n\
                       fn c(&mut self, s: String) { self.log.push(s); }\n\
                       fn d(&self, buf: &mut String) { let _ = writeln!(buf, \"x\"); }\n\
                       fn e(&self, h: u64) -> u64 { fnv1a(h, b\"x\") }\n\
                       fn f(&self, w: usize) -> bool { self.width == w }\n\
                       fn g(&self) -> usize { self.width }\n\
                   }\n";
        let fns = harvest(src);
        let kind = |i: usize| fns[i].sinks.first().map(|s| s.kind);
        assert_eq!(kind(0), Some(SinkKind::StateWrite), "{:?}", fns[0]);
        assert_eq!(kind(1), Some(SinkKind::StateWrite), "{:?}", fns[1]);
        assert_eq!(kind(2), Some(SinkKind::StateWrite), "{:?}", fns[2]);
        assert_eq!(kind(3), Some(SinkKind::Output));
        assert_eq!(kind(4), Some(SinkKind::Output));
        assert_eq!(kind(5), None, "comparison is not a write: {:?}", fns[5].sinks);
        assert_eq!(kind(6), None, "read is not a write");
    }

    #[test]
    fn test_gated_fns_are_excluded() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() { std::env::var(\"X\").ok(); }\n\
                   }\n\
                   fn live() {}\n";
        let fns = harvest(src);
        let paths: Vec<&str> = fns.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, vec!["titan_sim::live"]);
    }
}
