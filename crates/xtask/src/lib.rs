//! titan-lint: the workspace's determinism & panic-safety static
//! analysis, run as `cargo xtask lint`.
//!
//! The whole reproduction rests on "same seed ⇒ same Observations
//! 1–14", so the rules target the ways Rust code silently loses that
//! property (see DETERMINISM.md for the handbook and LINTS.md for the
//! one-table rule catalog):
//!
//! - **D1** — wall-clock / entropy sources (`SystemTime::now`,
//!   `Instant::now`, `thread_rng`, `from_entropy`, `rand::random`)
//!   are forbidden anywhere in simulation crates.
//! - **D2** — `HashMap`/`HashSet` in non-test code of simulation
//!   crates: hash iteration order is seeded per process. Use
//!   `BTreeMap`/`BTreeSet`, or justify get-only usage with a
//!   `// lint: sorted-iter` comment.
//! - **D3** — `partial_cmp()` + `unwrap`/`expect` inside a comparator
//!   (`sort_by`, `max_by`, ...): panics on NaN and imposes no total
//!   order. Use `f64::total_cmp`.
//! - **D4** — threading primitives are forbidden in non-test code of
//!   *engine* crates. Parallelism only ever runs **across** independent
//!   simulations; the event loop itself stays single-threaded.
//! - **D5** — wall-clock *types* (`std::time::`, `Instant`,
//!   `SystemTime`, `.elapsed(`) are forbidden in non-test engine code:
//!   telemetry there goes through the sim-time `titan-obs` API. A line
//!   already reported by D1 is not reported again, and T1 does not
//!   repeat a read on a line D5 (or any site rule) reported.
//! - **N1** — `as <numeric-type>` casts in non-test simulation code:
//!   every one is a potential silent event-count or sim-time
//!   truncation (the paper's own DBE counts were corrupted by exactly
//!   this failure shape). Justify a benign cast with
//!   `// lint: allow(N1, reason)`; the remaining count per crate
//!   ratchets down via the `[n1]` baseline section.
//! - **L1** — the crate layering contract: `crates/*/Cargo.toml`
//!   dependency edges must match the DAG in [`layering::LAYERS`]
//!   (engine crates never depend on runner/bench/CLI or on each other
//!   outside the declared order; no rayon in engine manifests).
//! - **S1** — frozen output schemas (`titan-obs/3`, `titan-check/1`,
//!   `titan-obs-replicate/1`) must match their golden specs in
//!   `crates/xtask/schemas/` (version literal present, top-level field
//!   list identical and in order; new version literals need new specs).
//! - **P2** — a ratcheting panic-surface budget per *function*:
//!   `.unwrap()` / `.expect(` / `panic!` / slice-indexing sites are
//!   attributed to fully-qualified fn paths and budgeted in the `[p2]`
//!   section of `crates/xtask/lint-baseline.toml` (supersedes the old
//!   crate-blurred P1 budget).
//! - **E1** — swallowed fallible results in simulation crates:
//!   `let _ = ...`, bare `.ok();`, and discarded calls to workspace
//!   `#[must_use]` sim APIs (see [`rules`]).
//! - **D6** — seeded-stream RNG draws inside evaluation-order-unstable
//!   positions (sort/retain comparator closures, `Drop` impls) in
//!   engine crates (see [`rules`]).
//! - **X1** — dead `pub` items in `titan-*` crates: no non-test code
//!   that can reach one spells its name (see [`symbols`]); ratcheted
//!   in `[x1]`.
//! - **T1** — interprocedural determinism taint: a nondeterminism
//!   source (env read, wall clock, thread-width query, pointer-address
//!   cast, hash iteration, entropy) reaching a sim-state write or an
//!   output/digest emission through *any* call chain, reported with
//!   the full source→sink witness and ratcheted per crate in `[t1]`
//!   (see [`callgraph`] and [`taint`]).
//!
//! Since v2 the scanner is **token-based**: every file is lexed by the
//! hand-rolled [`lexer`] (comments incl. nesting, string/char/raw
//! literals, identifiers), and rules match needle *token sequences*
//! against code tokens only. A `HashMap` in a doc comment, an
//! `Instant::now` in a string literal, or an identifier that merely
//! *contains* a banned name (`Instantaneous`) can no longer flag.
//! Since v3 there is a structural layer on top: the std-only
//! recursive-descent [`parser`] turns the token stream into an item
//! tree (modules, fns, impls, closures, with exact byte spans), and
//! P2/E1/D6/X1 are expressed against that tree plus the workspace
//! symbol graph. The scanner stays std-only: it runs on a cold
//! checkout before any dependency resolution. Since v4 the same item
//! tree feeds a workspace *call graph* ([`callgraph`]) and a
//! fixed-point taint propagation ([`taint`]), so T1 sees across
//! function and crate boundaries — still with zero dependency
//! resolution. Every file is lexed, parsed and hatch-scanned once into
//! a `FileCtx` that all three layers read, and the wall-clock,
//! entropy, hash, threading, env, thread-width and pointer needles of
//! the site rules and of T1 live in one table, `NEEDLES`.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod callgraph;
pub mod layering;
pub mod lexer;
pub mod meta;
pub mod output;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod schema;
pub mod symbols;
pub mod taint;

pub use baseline::{
    check_n1_baseline, check_p2_baseline, check_t1_baseline, check_x1_baseline, Baseline,
};
pub use output::{render_github, render_json};
pub use sarif::render_sarif;

use callgraph::SourceKind;
use lexer::{lex, match_at, Tok, TokKind};
use parser::Item;

/// Crates under `crates/` holding simulation state or feeding it —
/// the D1/D2/N1 scope. Analysis-side crates (`stats`, `analysis`,
/// `bench`, `xtask`) may use wall-clock and hashed containers; they
/// consume sim output, they don't produce it.
pub const SIM_CRATE_DIRS: &[&str] = &[
    "core", "simulator", "faults", "gpu", "workload", "topology", "conlog", "nvsmi", "obs",
];

/// Crates that *produce* simulation output — the D4/D5 scope. Strictly
/// the engine side: `core` orchestrates already-produced output and may
/// use the pool for its figure computations, and `runner` exists to fan
/// whole simulations across threads; neither may appear here.
pub const ENGINE_CRATE_DIRS: &[&str] = &[
    "simulator", "faults", "gpu", "workload", "topology", "conlog", "nvsmi", "obs",
];

/// Lint rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock/entropy source in a simulation crate.
    D1,
    /// Unordered hash container in non-test simulation code.
    D2,
    /// NaN-unsafe float comparator.
    D3,
    /// Threading primitive inside an engine crate.
    D4,
    /// Wall-clock type in non-test engine code.
    D5,
    /// Seeded-stream RNG draw in an evaluation-order-unstable position.
    D6,
    /// Swallowed fallible result in simulation code.
    E1,
    /// Lossy numeric cast budget regression in simulation code.
    N1,
    /// Crate layering contract violation.
    L1,
    /// Frozen output schema drift.
    S1,
    /// Per-function panic-surface budget regression.
    P2,
    /// Dead `pub` item budget regression.
    X1,
    /// Interprocedural determinism-taint path regression.
    T1,
}

impl Rule {
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::D6 => "D6",
            Rule::E1 => "E1",
            Rule::N1 => "N1",
            Rule::L1 => "L1",
            Rule::S1 => "S1",
            Rule::P2 => "P2",
            Rule::X1 => "X1",
            Rule::T1 => "T1",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (0 for crate-level findings like P1/N1).
    pub line: usize,
    pub rule: Rule,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{}:{}: [{}] {} (hint: {})",
                self.file, self.line, self.rule, self.message, self.hint
            )
        } else {
            write!(f, "{}: [{}] {} (hint: {})", self.file, self.rule, self.message, self.hint)
        }
    }
}

/// One `as <numeric-type>` cast site (the N1 burn-down worklist,
/// surfaced through `--format json` as `n1_sites`).
#[derive(Debug, Clone)]
pub struct N1Site {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The cast as written, e.g. `as u32`.
    pub cast: String,
}

/// One unreferenced `pub` item (the X1 burn-down worklist, surfaced
/// through `--format json` as `x1_sites`).
#[derive(Debug, Clone)]
pub struct X1Site {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number of the item keyword.
    pub line: usize,
    /// Fully-qualified item path, e.g. `titan_gpu::ecc::retire_page`.
    pub path: String,
}

/// Where a site rule looks for a needle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// Every line of a simulation crate, test code included: a test
    /// that consults the wall clock flakes just as surely.
    Sim,
    /// Non-test code of simulation crates.
    SimLive,
    /// Non-test code of engine crates: tests may race threads to prove
    /// two simulations independent; the event loop may not.
    EngineLive,
}

impl Scope {
    fn applies(self, sim_scope: bool, engine_scope: bool, in_test: bool) -> bool {
        match self {
            Scope::Sim => sim_scope,
            Scope::SimLive => sim_scope && !in_test,
            Scope::EngineLive => engine_scope && !in_test,
        }
    }
}

/// One nondeterminism needle: a code-token sequence, the site rule that
/// reports it (with its scope and the name its finding uses), and the
/// T1 source kind it reads.
pub(crate) struct Needle {
    pub(crate) toks: &'static [&'static str],
    pub(crate) site: Option<(Rule, Scope, &'static str)>,
    pub(crate) source: Option<SourceKind>,
}

const fn row(
    toks: &'static [&'static str],
    site: Option<(Rule, Scope, &'static str)>,
    source: Option<SourceKind>,
) -> Needle {
    Needle { toks, site, source }
}

use Rule::{D1, D2, D4, D5};
use Scope::{EngineLive, Sim, SimLive};
use SourceKind::{Entropy, EnvRead, HashIter, PtrAddr, ThreadQuery, WallClock};

/// Every nondeterminism needle, listed once. The site rules D1/D2/D4/D5
/// report a needle where it is spelled; T1 follows a sourced needle's
/// value through the call graph from the bodies of non-test fns. A
/// `HashIter` row is not a read by itself: T1 sources the `.iter()`
/// family in a fn that names one. D4 and D5 report the first of their
/// rows that matches a line (so row order matters there), and D5 stays
/// quiet on a line D1 reported.
pub(crate) const NEEDLES: &[Needle] = &[
    row(&["SystemTime", ":", ":", "now"], Some((D1, Sim, "SystemTime::now()")), Some(WallClock)),
    row(&["Instant", ":", ":", "now"], Some((D1, Sim, "Instant::now()")), Some(WallClock)),
    row(&["thread_rng"], Some((D1, Sim, "thread_rng()")), Some(Entropy)),
    row(&["from_entropy"], Some((D1, Sim, "from_entropy()")), Some(Entropy)),
    row(&["rand", ":", ":", "random"], Some((D1, Sim, "rand::random()")), Some(Entropy)),
    row(&["HashMap"], Some((D2, SimLive, "HashMap")), Some(HashIter)),
    row(&["HashSet"], Some((D2, SimLive, "HashSet")), Some(HashIter)),
    row(&["rayon"], Some((D4, EngineLive, "the rayon thread pool")), None),
    row(&["std", ":", ":", "thread"], Some((D4, EngineLive, "std::thread")), None),
    row(&["thread", ":", ":", "spawn"], Some((D4, EngineLive, "thread::spawn")), None),
    row(&["thread", ":", ":", "scope"], Some((D4, EngineLive, "thread::scope")), None),
    row(&["into_par_iter"], Some((D4, EngineLive, "a parallel iterator")), None),
    row(&["scope_map", "("], Some((D4, EngineLive, "the pool's scope_map")), None),
    row(&["std", ":", ":", "time", ":", ":"], Some((D5, EngineLive, "a std::time type")), None),
    row(&["Instant"], Some((D5, EngineLive, "an Instant")), None),
    row(&["SystemTime"], Some((D5, EngineLive, "a SystemTime")), None),
    row(&[".", "elapsed", "("], Some((D5, EngineLive, "an .elapsed() reading")), Some(WallClock)),
    row(&["env", ":", ":", "var"], None, Some(EnvRead)),
    row(&["env", ":", ":", "var_os"], None, Some(EnvRead)),
    row(&["env", ":", ":", "vars"], None, Some(EnvRead)),
    row(&["option_env", "!"], None, Some(EnvRead)),
    row(&["available_parallelism"], None, Some(ThreadQuery)),
    row(&["current_num_threads"], None, Some(ThreadQuery)),
    row(&["num_cpus"], None, Some(ThreadQuery)),
    row(&["thread", ":", ":", "current"], None, Some(ThreadQuery)),
    row(&[".", "as_ptr", "(", ")", "as"], None, Some(PtrAddr)),
    row(&[".", "as_mut_ptr", "(", ")", "as"], None, Some(PtrAddr)),
    row(&[".", "addr", "(", ")"], None, Some(PtrAddr)),
];

/// Comparator call sites D3 inspects (matched as whole identifiers).
const D3_CONTEXTS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
];

/// The numeric types whose `as` casts N1 counts. Truncation, sign
/// wrap, and f64-precision loss all ride on these.
const N1_NUM_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    "f32", "f64",
];

/// One line's escape hatches, after carry-forward (see [`hatch_lines`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct HatchLine {
    /// A `// lint: sorted-iter` hatch applies to this line.
    pub(crate) sorted_iter: bool,
    /// Rule ids from `// lint: allow(RULE, reason)` hatches applying to
    /// this line.
    pub(crate) allows: Vec<String>,
}

/// Computes per-line escape hatches from the token stream. A hatch on
/// a line that also holds code applies to that line; a hatch on a
/// comment-only line **carries forward** to the next line holding code
/// tokens, skipping blank and further comment-only lines — so an
/// intervening comment no longer silently detaches the hatch from the
/// statement it annotates.
fn hatch_lines(src: &str, toks: &[Tok]) -> Vec<HatchLine> {
    let n_lines = toks.last().map(|t| t.line).unwrap_or(0).max(src.lines().count());
    let mut out: Vec<HatchLine> = vec![HatchLine::default(); n_lines];
    let mut has_code = vec![false; n_lines];
    for t in toks {
        let Some(line) = out.get_mut(t.line - 1) else { continue };
        if t.kind.is_comment() {
            let text = t.text(src);
            if text.contains("lint: sorted-iter") {
                line.sorted_iter = true;
            }
            if let Some(rest) = text.split("lint: allow(").nth(1) {
                let rule: String = rest
                    .chars()
                    .take_while(|c| *c != ',' && *c != ')')
                    .collect::<String>()
                    .trim()
                    .to_string();
                if !rule.is_empty() {
                    line.allows.push(rule);
                }
            }
        } else if !t.kind.is_trivia() {
            has_code[t.line - 1] = true;
        }
    }
    // Carry comment-only-line hatches forward to the next code line.
    let mut pending = HatchLine::default();
    for (i, line) in out.iter_mut().enumerate() {
        if has_code[i] {
            line.sorted_iter |= pending.sorted_iter;
            line.allows.append(&mut pending.allows);
            pending.sorted_iter = false;
        } else if line.sorted_iter || !line.allows.is_empty() {
            pending.sorted_iter |= line.sorted_iter;
            pending.allows.extend(line.allows.iter().cloned());
        }
    }
    out
}

/// One source file, lexed, parsed and hatch-scanned once. Every rule
/// layer reads it: the per-line site rules here, the structural rules
/// in [`rules`], and the T1 harvest in [`callgraph`].
pub(crate) struct FileCtx<'a> {
    /// Workspace-relative path.
    pub(crate) rel: &'a str,
    pub(crate) src: &'a str,
    /// Code (non-trivia) tokens in source order.
    pub(crate) code: Vec<Tok>,
    pub(crate) items: Vec<Item>,
    /// Escape hatches per line (index = line - 1).
    pub(crate) hatches: Vec<HatchLine>,
    /// Per line: code of a `#[cfg(test)]`/`#[test]` item (attributes
    /// included) sits on it.
    pub(crate) in_test: Vec<bool>,
}

impl<'a> FileCtx<'a> {
    pub(crate) fn new(rel: &'a str, src: &'a str) -> Self {
        let toks = lex(src);
        let hatches = hatch_lines(src, &toks);
        let code: Vec<Tok> = toks.into_iter().filter(|t| !t.kind.is_trivia()).collect();
        let items = parser::parse(src, &code);
        let mut ctx = FileCtx { rel, src, code, items, in_test: Vec::new(), hatches };
        let mut in_test = vec![false; ctx.hatches.len()];
        let mut stack: Vec<&Item> = ctx.items.iter().collect();
        while let Some(it) = stack.pop() {
            if it.cfg_test {
                for t in ctx.span(it.start, it.end) {
                    in_test[t.line - 1] = true;
                }
            } else {
                stack.extend(&it.children);
            }
        }
        ctx.in_test = in_test;
        ctx
    }

    /// The code tokens lying wholly inside bytes `lo..hi`.
    pub(crate) fn span(&self, lo: usize, hi: usize) -> &[Tok] {
        let a = self.code.partition_point(|t| t.start < lo);
        let b = self.code.partition_point(|t| t.end <= hi).max(a);
        &self.code[a..b]
    }

    /// True when 1-based `line` holds test code (see `in_test`).
    pub(crate) fn is_test(&self, line: usize) -> bool {
        line.checked_sub(1)
            .and_then(|i| self.in_test.get(i))
            .copied()
            .unwrap_or(false)
    }

    /// The identifiers that count as X1 references, as (byte start,
    /// text) in source order: code outside test lines and outside `use`
    /// declarations. An import or a re-export names an item without
    /// using it; the code that then uses it spells the name again.
    pub(crate) fn reference_idents(&self) -> Vec<(usize, &'a str)> {
        let mut out = Vec::new();
        let mut in_use = false;
        for t in &self.code {
            let text = t.text(self.src);
            if in_use {
                in_use = text != ";";
            } else if t.kind == TokKind::Ident {
                if text == "use" {
                    in_use = true;
                } else if !self.is_test(t.line) {
                    out.push((t.start, text));
                }
            }
        }
        out
    }

    /// True when a `// lint: allow(rule, ...)` hatch covers 1-based
    /// `line`.
    pub(crate) fn allowed(&self, line: usize, rule: &str) -> bool {
        line.checked_sub(1)
            .and_then(|i| self.hatches.get(i))
            .is_some_and(|h| h.allows.iter().any(|r| r == rule))
    }
}

/// What one file contributes to the lint.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Site (D1–D5), structural (E1, D6) and schema (S1) findings.
    pub findings: Vec<Finding>,
    /// Non-test `as <numeric-type>` sites (the N1 input; already
    /// filtered by the allow hatch). Empty outside sim scope.
    pub n1_sites: Vec<N1Site>,
    /// P2 counts, E1 discard candidates and the X1 symbol harvest.
    pub structure: rules::StructScan,
    /// The file's T1 call-graph nodes.
    pub fns: Vec<callgraph::FnDecl>,
}

/// Scans one file of `target` with every per-file rule layer; `specs`
/// are the golden S1 schema specs.
pub fn scan_file(
    target: &CrateTarget,
    rel: &str,
    text: &str,
    specs: &[schema::SchemaSpec],
) -> FileScan {
    let ctx = FileCtx::new(rel, text);
    let (sim, engine) = (target.sim_scope, target.engine_scope);
    let prefix = module_prefix(&target.name, rel);
    let mut out = FileScan::default();
    let site_lines = scan_sites(&ctx, sim, engine, &mut out);
    out.structure = rules::scan_structure(&ctx, &prefix, sim, engine);
    out.findings.append(&mut out.structure.findings);
    out.findings.extend(schema::check_file(&ctx, specs));
    // T1 input: every crate contributes call-graph nodes — a source in
    // an analysis-side crate taints whatever sim code calls it, even
    // though only sim-scope fns hold sinks.
    out.fns = callgraph::harvest(&ctx, &prefix, &target.name, sim);
    for s in out.fns.iter_mut().flat_map(|f| &mut f.sources) {
        s.reported = site_lines[s.line - 1];
    }
    out
}

/// The per-line rules: the [`NEEDLES`] site rules, D3, and the N1
/// cast sites. Returns, per line, whether a site rule reported it.
fn scan_sites(ctx: &FileCtx, sim: bool, engine: bool, out: &mut FileScan) -> Vec<bool> {
    let src = ctx.src;
    let mut lines: Vec<&[Tok]> = vec![&[]; ctx.hatches.len()];
    for chunk in ctx.code.chunk_by(|a, b| a.line == b.line) {
        lines[chunk[0].line - 1] = chunk;
    }
    let has =
        |toks: &[Tok], needle: &[&str]| (0..toks.len()).any(|i| match_at(src, toks, i, needle));
    let has_ident = |toks: &[Tok], idents: &[&str]| {
        toks.iter().any(|t| t.kind == TokKind::Ident && idents.contains(&t.text(src)))
    };
    let mut push = |line: usize, rule: Rule, message: String, hint: &str| {
        out.findings.push(Finding {
            file: ctx.rel.to_string(),
            line,
            rule,
            message,
            hint: hint.to_string(),
        });
    };
    let mut site_lines = vec![false; lines.len()];

    for (i, toks) in lines.iter().enumerate() {
        let lineno = i + 1;
        let in_test = ctx.in_test[i];
        let mut fired: Vec<Rule> = Vec::new();
        for n in NEEDLES {
            let Some((rule, scope, name)) = n.site else { continue };
            let quiet = match rule {
                D2 => ctx.hatches[i].sorted_iter,
                // One D4/D5 finding per line is enough, and D5 exists
                // for the wall-clock types D1's constructors miss.
                D4 => fired.contains(&D4),
                D5 => fired.contains(&D5) || fired.contains(&D1),
                _ => false,
            };
            if quiet || !scope.applies(sim, engine, in_test) || !has(toks, n.toks) {
                continue;
            }
            fired.push(rule);
            let (message, hint) = site_message(rule, name);
            push(lineno, rule, message, hint);
        }
        site_lines[i] = !fired.is_empty();

        // D3: everywhere, tests included — a NaN panic in a test
        // comparator hides the regression it was written to catch.
        if has_ident(toks, &["partial_cmp"]) {
            let in_comparator =
                lines[i.saturating_sub(3)..=i].iter().any(|l| has_ident(l, D3_CONTEXTS));
            let unwrapped = lines[i..(i + 3).min(lines.len())]
                .iter()
                .any(|l| has(l, &[".", "unwrap", "(", ")"]) || has(l, &[".", "expect", "("]));
            if in_comparator && unwrapped {
                push(
                    lineno,
                    Rule::D3,
                    "partial_cmp().unwrap() comparator panics on NaN and is not a total \
                     order"
                        .to_string(),
                    "use f64::total_cmp (flip operands to keep direction)",
                );
            }
        }

        // N1 input: `as <numeric-type>` casts in non-test sim code,
        // minus hatched sites. Sites are *counted* per crate (the
        // ratchet), not reported one-by-one — the json n1_sites list is
        // the burn-down worklist.
        if sim && !in_test && !ctx.allowed(lineno, "N1") {
            for w in toks.windows(2) {
                if w[0].kind == TokKind::Ident
                    && w[0].text(src) == "as"
                    && w[1].kind == TokKind::Ident
                    && N1_NUM_TYPES.contains(&w[1].text(src))
                {
                    out.n1_sites.push(N1Site {
                        file: ctx.rel.to_string(),
                        line: lineno,
                        cast: format!("as {}", w[1].text(src)),
                    });
                }
            }
        }
    }
    site_lines
}

/// A site rule's finding message for the needle `name`, and its hint.
fn site_message(rule: Rule, name: &str) -> (String, &'static str) {
    match rule {
        D1 => (
            format!("{name} is a nondeterminism source"),
            "derive all randomness from the seeded RngStreams; take time from the simulation \
             clock",
        ),
        D2 => (
            format!("{name} in simulation code iterates in seeded hash order"),
            "use BTreeMap/BTreeSet, or justify get-only use with `// lint: sorted-iter`",
        ),
        D4 => (
            format!(
                "{name} inside an engine crate — parallelism is only allowed across \
                 independent simulations"
            ),
            "keep the event loop single-threaded; fan out whole runs via \
             titan-runner::replicate instead",
        ),
        _ => (
            format!(
                "{name} inside an engine crate — telemetry there must stay in the sim time \
                 domain"
            ),
            "record through titan-obs (sim-time counters/spans); wall-clock profiling \
             belongs in the runner/bench/CLI layer — see OBSERVABILITY.md",
        ),
    }
}

// --- workspace walking -----------------------------------------------------

/// A crate to scan: name, root dir, and which rule scopes apply.
#[derive(Debug, Clone)]
pub struct CrateTarget {
    pub name: String,
    /// Directory name under `crates/`, or `.` for the root façade.
    pub dir: String,
    pub src_dir: PathBuf,
    pub sim_scope: bool,
    pub engine_scope: bool,
}

/// Finds the workspace root by walking up from `start` to a Cargo.toml
/// containing `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Enumerates the crates titan-lint covers: every `crates/*` member
/// with a `src/` tree (xtask itself excluded — it is build tooling and
/// its sources quote the forbidden tokens), plus the root façade.
pub fn workspace_targets(root: &Path) -> std::io::Result<Vec<CrateTarget>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort(); // deterministic scan order
    for dir in dirs {
        let dirname = dir.file_name().unwrap_or_default().to_string_lossy().to_string();
        if dirname == "xtask" {
            continue;
        }
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        out.push(CrateTarget {
            name: crate_name(&dir.join("Cargo.toml")).unwrap_or(dirname.clone()),
            dir: dirname.clone(),
            src_dir: src,
            sim_scope: SIM_CRATE_DIRS.contains(&dirname.as_str()),
            engine_scope: ENGINE_CRATE_DIRS.contains(&dirname.as_str()),
        });
    }
    // The root façade package (examples + CLI). Not a sim crate: it
    // only renders what the sim produced.
    let root_src = root.join("src");
    if root_src.is_dir() {
        out.push(CrateTarget {
            name: crate_name(&root.join("Cargo.toml")).unwrap_or("root".into()),
            dir: ".".to_string(),
            src_dir: root_src,
            sim_scope: false,
            engine_scope: false,
        });
    }
    Ok(out)
}

/// The fully-qualified module path a file's items live under:
/// package name (with `-` mapped to `_`) plus the path from `src/`
/// (`lib.rs`/`main.rs` add nothing, `a/b.rs` adds `a::b`, `a/mod.rs`
/// adds `a`). Inline `mod` segments are appended by the item walk in
/// [`rules`].
pub fn module_prefix(package: &str, rel: &str) -> String {
    let mut out = package.replace('-', "_");
    let after = rel.rsplit_once("src/").map(|(_, a)| a).unwrap_or(rel);
    let segs: Vec<&str> = after.split('/').collect();
    for (i, seg) in segs.iter().enumerate() {
        let seg = seg.strip_suffix(".rs").unwrap_or(seg);
        if i + 1 == segs.len() && matches!(seg, "lib" | "main" | "mod") {
            continue;
        }
        out.push_str("::");
        out.push_str(seg);
    }
    out
}

/// `prefix::name`, or just `prefix` for an unnamed item.
pub(crate) fn join(prefix: &str, name: &str) -> String {
    if name.is_empty() {
        prefix.to_string()
    } else {
        format!("{prefix}::{name}")
    }
}

/// Reads `name = "..."` from a manifest's `[package]` section.
fn crate_name(manifest: &Path) -> Option<String> {
    let text = std::fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Recursively lists `.rs` files under `dir`, sorted for determinism.
pub fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let p = entry?.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

// --- report ----------------------------------------------------------------

/// Full lint result for one run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by (file, line, rule, message) — the sort
    /// is what makes `--format json` byte-stable.
    pub findings: Vec<Finding>,
    pub notes: Vec<String>,
    /// Measured per-function panic-surface counts (nonzero paths only;
    /// the P2 ratchet input).
    pub p2_counts: std::collections::BTreeMap<String, usize>,
    /// Measured per-crate N1 cast counts (sim-scope crates only).
    pub n1_counts: std::collections::BTreeMap<String, usize>,
    /// Every unhatched cast site, sorted (the burn-down worklist).
    pub n1_sites: Vec<N1Site>,
    /// Measured per-crate dead-pub counts (every `titan-*` package,
    /// zero included; the X1 ratchet input).
    pub x1_counts: std::collections::BTreeMap<String, usize>,
    /// Every unhatched dead pub item, sorted (the burn-down worklist).
    pub x1_sites: Vec<X1Site>,
    /// Measured per-crate determinism-taint path counts (sim-scope
    /// packages, zero included; the T1 ratchet input).
    pub t1_counts: std::collections::BTreeMap<String, usize>,
    /// Every source→sink taint path, sorted (the T1 burn-down worklist
    /// and the SARIF codeFlows input).
    pub t1_paths: Vec<taint::T1Path>,
    pub files_scanned: usize,
}

/// Runs the full lint over a workspace root. `baseline` is the parsed
/// committed baseline (empty if the file does not exist yet).
///
/// Each file is read once into a `FileCtx` by [`scan_file`]; the
/// workspace-wide joins (E1's must-use callees, the X1 reference graph,
/// T1's call graph, the ratchets) run after the sweep.
pub fn run_lint(root: &Path, baseline: &Baseline) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut per_crate_idents: std::collections::BTreeMap<
        String,
        std::collections::BTreeMap<String, usize>,
    > = Default::default();
    let mut pub_items: std::collections::BTreeMap<String, Vec<symbols::PubItem>> =
        Default::default();
    let mut must_use: BTreeSet<String> = BTreeSet::new();
    let mut discards: Vec<rules::Discard> = Vec::new();
    let mut cg_fns: Vec<callgraph::FnDecl> = Vec::new();
    let (specs, spec_findings) = schema::load_specs(root)?;
    report.findings.extend(spec_findings);
    let mut swept: BTreeSet<String> = BTreeSet::new();

    for target in workspace_targets(root)? {
        let mut crate_casts = 0usize;
        let idents = per_crate_idents.entry(target.name.clone()).or_default();
        // X1 covers the shipped `titan-*` library crates only: the root
        // façade's items are its CLI surface, and non-titan packages
        // (fixtures, forks) are outside the dead-code contract.
        let x1_scope = target.dir != "." && target.name.starts_with("titan-");
        if x1_scope {
            pub_items.entry(target.name.clone()).or_default();
        }
        for file in rust_files(&target.src_dir)? {
            let text = std::fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let scan = scan_file(&target, &rel, &text, &specs);
            report.findings.extend(scan.findings);
            crate_casts += scan.n1_sites.len();
            report.n1_sites.extend(scan.n1_sites);
            let ss = scan.structure;
            for (path, n) in ss.p2 {
                *report.p2_counts.entry(path).or_insert(0) += n;
            }
            for (name, n) in ss.ident_counts {
                *idents.entry(name).or_insert(0) += n;
            }
            if x1_scope {
                pub_items.get_mut(&target.name).expect("entry above").extend(ss.pub_items);
            }
            must_use.extend(ss.must_use_fns);
            discards.extend(ss.discards);
            cg_fns.extend(scan.fns);
            swept.insert(rel);
            report.files_scanned += 1;
        }
        if target.sim_scope {
            report.n1_counts.insert(target.name, crate_casts);
        }
    }

    // E1 third leg: a discarded call is only a finding when the callee
    // is a workspace `#[must_use]` sim API (collected tree-wide above).
    for d in discards {
        if must_use.contains(&d.name) {
            report.findings.push(Finding {
                file: d.file,
                line: d.line,
                rule: Rule::E1,
                message: format!(
                    "result of #[must_use] sim API `{}` is discarded", d.name
                ),
                hint: "bind and check the result (the attribute marks an outcome the \
                       caller must observe), or justify with `// lint: allow(E1, reason)`"
                    .to_string(),
            });
        }
    }

    // X1: dead `pub` items via the workspace reference graph.
    let manifests = layering::read_manifests(root)?;
    let visible = symbols::visibility(&manifests);
    let pool = symbols::root_ident_counts(root)?;
    for (pkg, items) in &pub_items {
        let dead = symbols::dead_pubs(pkg, items, &per_crate_idents, &pool, &visible);
        report.x1_counts.insert(pkg.clone(), dead.len());
        for it in dead {
            report.x1_sites.push(X1Site {
                file: it.file.clone(),
                line: it.line,
                path: it.path.clone(),
            });
        }
    }

    // L1: the manifest-level layering contract.
    report.findings.extend(layering::check_layering(&manifests));

    // T1: interprocedural determinism taint over the call graph.
    let (t1_paths, t1_counts) = taint::analyze(&cg_fns, &manifests);
    report.t1_paths = t1_paths;
    report.t1_counts = t1_counts;

    // S1 for spec'd and guarded files outside the sweep.
    report.findings.extend(schema::check_unswept(root, &specs, &swept));

    // P2 + N1 + X1 + T1 ratchets.
    let (p2, mut notes) = check_p2_baseline(baseline, &report.p2_counts);
    report.findings.extend(p2);
    let (n1, n1_notes) = check_n1_baseline(baseline, &report.n1_counts);
    report.findings.extend(n1);
    notes.extend(n1_notes);
    let (x1, x1_notes) = check_x1_baseline(baseline, &report.x1_counts);
    report.findings.extend(x1);
    notes.extend(x1_notes);
    let (t1, t1_notes) = check_t1_baseline(baseline, &report.t1_counts, &report.t1_paths);
    report.findings.extend(t1);
    notes.extend(t1_notes);
    report.notes = notes;

    // Deterministic order regardless of scan interleaving.
    report.findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str(), a.message.as_str())
            .cmp(&(b.file.as_str(), b.line, b.rule.as_str(), b.message.as_str()))
    });
    report
        .n1_sites
        .sort_by(|a, b| (a.file.as_str(), a.line, a.cast.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.cast.as_str(),
        )));
    report
        .x1_sites
        .sort_by(|a, b| (a.file.as_str(), a.line, a.path.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.path.as_str(),
        )));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(text: &str, sim_scope: bool, engine_scope: bool) -> FileScan {
        let target = CrateTarget {
            name: "t".into(),
            dir: "t".into(),
            src_dir: PathBuf::new(),
            sim_scope,
            engine_scope,
        };
        scan_file(&target, "test.rs", text, &[])
    }

    fn findings(text: &str, sim: bool) -> Vec<Rule> {
        scan(text, sim, false).findings.iter().map(|f| f.rule).collect()
    }

    fn engine_findings(text: &str) -> Vec<Rule> {
        scan(text, true, true).findings.iter().map(|f| f.rule).collect()
    }

    fn n1_count(text: &str) -> usize {
        scan(text, true, false).n1_sites.len()
    }

    #[test]
    fn d1_flags_entropy_sources_in_sim_scope_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n\
                   fn g() { let mut r = rand::thread_rng(); }\n";
        assert_eq!(findings(src, true), vec![Rule::D1, Rule::D1]);
        assert!(findings(src, false).is_empty());
    }

    #[test]
    fn d1_applies_inside_test_modules_too() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = SystemTime::now(); }\n}\n";
        assert_eq!(findings(src, true), vec![Rule::D1]);
    }

    #[test]
    fn d1_ignores_comments_strings_and_doc_comments() {
        // The v1 substring scanner flagged all of these; the token
        // scanner must not.
        let src = "// Instant::now() would break determinism here\n\
                   /// Never call SystemTime::now() in engine code.\n\
                   /* thread_rng() is banned: /* even nested */ still banned */\n\
                   let s = \"Instant::now\";\n\
                   let r = r#\"rand::random inside a raw string\"#;\n\
                   let c = '\"';\n";
        assert!(findings(src, true).is_empty(), "{:?}", findings(src, true));
    }

    #[test]
    fn d1_matches_whole_identifiers_only() {
        // `Instantaneous` contains `Instant`; `thread_rng_like` contains
        // `thread_rng`. Neither is the banned token.
        let src = "struct Instantaneous;\nfn thread_rng_like() {}\nlet from_entropy_doc = 1;\n";
        assert!(findings(src, true).is_empty());
        assert!(engine_findings(src).is_empty(), "D5 `Instant` must not match a prefix");
    }

    #[test]
    fn d1_matches_spaced_paths() {
        // Tokens, not substrings: `Instant :: now` is the same call.
        let src = "let t = Instant :: now();\n";
        assert_eq!(findings(src, true), vec![Rule::D1]);
    }

    #[test]
    fn d2_flags_hash_containers_outside_tests() {
        let src = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u32, u32> }\n";
        assert_eq!(findings(src, true), vec![Rule::D2, Rule::D2]);
        assert!(findings(src, false).is_empty());
    }

    #[test]
    fn d2_exempts_cfg_test_modules() {
        let src = "struct S;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashSet;\n\
                       fn f() { let s: HashSet<u32> = HashSet::new(); }\n\
                   }\n\
                   fn after() { let m = std::collections::HashMap::<u8, u8>::new(); }\n";
        // Only the HashMap *after* the test module fires.
        let scan = scan(src, true, false);
        assert_eq!(scan.findings.len(), 1);
        assert_eq!(scan.findings[0].line, 7);
    }

    #[test]
    fn braceless_cfg_test_items_are_test_code_and_end_at_their_semicolon() {
        // The gated `use` is test-only on its own line and the next one;
        // the struct after its `;` is live code again.
        let src = "#[cfg(test)] use std::collections::HashMap;\n\
                   #[cfg(test)]\n\
                   use std::collections::HashSet;\n\
                   struct S { m: HashMap<u32, u32> }\n";
        let scan = scan(src, true, false);
        let lines: Vec<usize> = scan.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![4], "{:?}", scan.findings);
    }

    #[test]
    fn test_gated_items_and_blocks_in_fn_bodies_are_test_code() {
        let src = "pub fn outer() -> usize {\n\
                       #[cfg(test)]\n\
                       fn helper() -> usize {\n\
                           let m: std::collections::HashMap<u8, u8> = Default::default();\n\
                           m.len()\n\
                       }\n\
                       #[cfg(test)]\n\
                       {\n\
                           let probe: HashSet<u8> = HashSet::new();\n\
                       }\n\
                       let late: HashSet<u8> = HashSet::new();\n\
                       late.len()\n\
                   }\n";
        let lines: Vec<usize> = scan(src, true, false).findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![11]);
    }

    #[test]
    fn d2_escape_hatch_same_or_previous_line() {
        let same = "let m: HashMap<u32, u32> = HashMap::new(); // lint: sorted-iter\n";
        assert!(findings(same, true).is_empty());
        let prev = "// lint: sorted-iter — get-only, never iterated\n\
                    let m: HashMap<u32, u32> = HashMap::new();\n";
        assert!(findings(prev, true).is_empty());
        let unjustified = "let m: HashMap<u32, u32> = HashMap::new();\n";
        assert_eq!(findings(unjustified, true), vec![Rule::D2]);
    }

    #[test]
    fn d2_ignores_comments_and_strings() {
        let src = "// a HashMap would be wrong here\n\
                   let msg = \"HashSet iteration order\";\n\
                   /// Compare with a HashMap-based design.\n";
        assert!(findings(src, true).is_empty());
    }

    #[test]
    fn d3_flags_nan_unsafe_comparators() {
        let one_line = "xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        assert_eq!(findings(one_line, false), vec![Rule::D3]);
        let multi = "xs.sort_by(|a, b| {\n\
                         a.partial_cmp(b)\n\
                             .expect(\"NaN\")\n\
                     });\n";
        assert_eq!(findings(multi, false), vec![Rule::D3]);
        let binary = "edges.binary_search_by(|e| e.partial_cmp(&x).expect(\"NaN edge\"));\n";
        assert_eq!(findings(binary, false), vec![Rule::D3]);
    }

    #[test]
    fn d3_allows_total_cmp_and_bare_partial_cmp() {
        let total = "xs.sort_by(|a, b| a.total_cmp(b));\n";
        assert!(findings(total, false).is_empty());
        // partial_cmp without unwrap/expect (e.g. returning an Option)
        // is not a panic site.
        let bare = "let o = a.partial_cmp(&b);\n";
        assert!(findings(bare, false).is_empty());
    }

    #[test]
    fn d4_flags_threading_in_engine_scope_only() {
        let src = "fn f() { rayon::join(|| a(), || b()); }\n\
                   fn g() { std::thread::spawn(|| {}); }\n\
                   fn h() { let v = items.into_par_iter().collect(); }\n";
        assert_eq!(engine_findings(src), vec![Rule::D4, Rule::D4, Rule::D4]);
        // The same code is fine outside the engine scope (core, runner,
        // analysis-side crates).
        assert!(findings(src, true).is_empty());
    }

    #[test]
    fn d4_exempts_test_modules_comments_and_strings() {
        let src = "// rayon would be wrong here\n\
                   let why = \"std::thread breaks replay\";\n\
                   fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn race() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n\
                   }\n";
        assert!(engine_findings(src).is_empty());
    }

    #[test]
    fn d4_one_finding_per_line() {
        let src = "fn f() { rayon::scope_map(v, std::thread::available_parallelism(), g); }\n";
        assert_eq!(engine_findings(src), vec![Rule::D4]);
    }

    #[test]
    fn d5_flags_wall_clock_types_in_engine_scope_only() {
        // No `::now()` call anywhere — D1 stays silent, D5 must not.
        let src = "use std::time::Duration;\n\
                   pub struct Meter { t0: Instant }\n\
                   pub fn f(m: &Meter) -> u128 { m.t0.elapsed().as_millis() }\n";
        assert_eq!(engine_findings(src), vec![Rule::D5, Rule::D5, Rule::D5]);
        // Outside the engine scope (core, runner, analysis side) the
        // same code is fine: wall-clock profiling lives there.
        assert!(findings(src, true).is_empty());
        assert!(findings(src, false).is_empty());
    }

    #[test]
    fn d5_defers_to_d1_on_the_same_line() {
        // The classic injected violation: one line carrying both the
        // type and the ::now() call must yield exactly one finding (D1).
        let src = "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n";
        assert_eq!(engine_findings(src), vec![Rule::D1]);
    }

    #[test]
    fn d5_exempts_test_modules_comments_and_strings() {
        let src = "// an Instant would be wrong here\n\
                   let msg = \"SystemTime drift\";\n\
                   /// `.elapsed()` readings belong in the runner.\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t(d: std::time::Duration) -> u64 { d.as_secs() }\n\
                   }\n";
        assert!(engine_findings(src).is_empty());
    }

    #[test]
    fn n1_counts_numeric_casts_in_non_test_sim_code() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n\
                   fn g(t: f64) -> u64 { t as u64 }\n\
                   fn h(n: usize) -> usize { n }\n";
        assert_eq!(n1_count(src), 2);
        // Outside sim scope nothing is counted.
        assert!(scan(src, false, false).n1_sites.is_empty());
        // Cast sites carry the spelled-out target type.
        let sites = scan(src, true, false).n1_sites;
        assert_eq!(sites[0].cast, "as u32");
        assert_eq!(sites[0].line, 1);
        assert_eq!(sites[1].cast, "as u64");
    }

    #[test]
    fn n1_two_casts_on_one_line_both_count() {
        let src = "let (a, b) = (x as u32, y as usize);\n";
        assert_eq!(n1_count(src), 2);
    }

    #[test]
    fn n1_exempts_tests_hatches_comments_and_non_numeric_as() {
        let test_mod = "#[cfg(test)]\nmod tests {\n    fn t(x: u64) -> u32 { x as u32 }\n}\n";
        assert_eq!(n1_count(test_mod), 0);

        let hatched_same = "let e = big as u32; // lint: allow(N1, bounded by heap size)\n";
        assert_eq!(n1_count(hatched_same), 0);
        let hatched_prev = "// lint: allow(N1, slot index < 4 by construction)\n\
                            let s = slot as u8;\n";
        assert_eq!(n1_count(hatched_prev), 0);

        let comment = "// casting `t as u64` here would truncate\n\
                       let msg = \"x as u32\";\n";
        assert_eq!(n1_count(comment), 0);

        // `use x as y` renames and trait casts to non-numeric types are
        // not numeric casts.
        let renames = "use std::io::Result as IoResult;\nlet d = x as SimTime;\n";
        assert_eq!(n1_count(renames), 0);
    }

    #[test]
    fn n1_hatch_for_other_rules_does_not_silence_it() {
        let src = "// lint: allow(D2, unrelated)\nlet e = big as u32;\n";
        assert_eq!(n1_count(src), 1);
    }

    #[test]
    fn hatch_survives_an_intervening_comment() {
        // Regression: a hatch comment followed by further commentary
        // used to detach from the statement it annotates.
        let src = "// lint: sorted-iter — justification first\n\
                   // ...then two more lines of prose about why this\n\
                   // container is only ever read point-wise.\n\
                   \n\
                   let m: HashMap<u32, u32> = HashMap::new();\n";
        assert!(findings(src, true).is_empty(), "{:?}", findings(src, true));

        let allow = "// lint: allow(N1, bounded by construction)\n\
                     // (the slot index is always < 4)\n\
                     let s = slot as u8;\n";
        assert_eq!(n1_count(allow), 0);

        // The hatch attaches to the *next* code line only — code after
        // that line is not covered.
        let after = "// lint: sorted-iter\n\
                     let a = 1;\n\
                     let m: HashMap<u32, u32> = HashMap::new();\n";
        assert_eq!(findings(after, true), vec![Rule::D2]);
    }

    #[test]
    fn module_prefix_maps_files_to_paths() {
        assert_eq!(module_prefix("titan-gpu", "crates/gpu/src/lib.rs"), "titan_gpu");
        assert_eq!(module_prefix("titan-gpu", "crates/gpu/src/ecc.rs"), "titan_gpu::ecc");
        assert_eq!(
            module_prefix("titan-sim", "crates/simulator/src/engine/queue.rs"),
            "titan_sim::engine::queue"
        );
        assert_eq!(module_prefix("titan-sim", "crates/simulator/src/engine/mod.rs"), "titan_sim::engine");
        assert_eq!(module_prefix("titan-reliability", "src/main.rs"), "titan_reliability");
    }

    #[test]
    fn multiline_strings_no_longer_confuse_the_scanner() {
        // v1's line-based stripper couldn't see a string spanning
        // lines: the `HashMap` below sits inside one and must not flag,
        // and the stray `}` inside it must not unbalance test tracking.
        let src = "static DOC: &str = \"\n   HashMap iteration }\n   Instant::now()\n\";\n\
                   fn real() { let m: HashMap<u8, u8> = HashMap::new(); }\n";
        let scan = scan(src, true, true);
        let d2: Vec<usize> = scan
            .findings
            .iter()
            .filter(|f| f.rule == Rule::D2)
            .map(|f| f.line)
            .collect();
        assert_eq!(d2, vec![5], "{:?}", scan.findings);
        assert!(scan.findings.iter().all(|f| f.rule == Rule::D2));
    }
}
