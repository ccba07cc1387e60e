//! A std-only recursive-descent *item* parser over the titan-lint
//! lexer.
//!
//! Token matching (v2) answers "does this line spell a banned token";
//! it cannot answer "which function does this panic site belong to",
//! "is this draw inside a comparator closure", or "is this `pub` item
//! ever referenced". Those questions need structure, so this module
//! turns the token stream into an **item tree**: modules, functions,
//! impl blocks, traits, type definitions, closures, and the test-gated
//! statements inside function bodies, each with an exact byte span.
//! Its `cfg_test` flags are where every rule learns which code is
//! test code.
//!
//! Design constraints, inherited from the lexer:
//!
//! 1. **Never panic, on any input.** The parser runs over deliberately
//!    malformed fixtures; every scan is bounded and unmatched brackets
//!    clamp to the end of the file.
//! 2. **Spans partition and nest.** Every item's span starts and ends
//!    on code-token boundaries; sibling spans are disjoint and ordered;
//!    a child's span lies strictly inside its parent's body. Tokens not
//!    covered by any item belong to the innermost enclosing item (or
//!    the file). `tests/parser_prop.rs` pins this over the real
//!    workspace and over adversarial input.
//! 3. **std-only and cheap** — it runs on a cold checkout.
//!
//! It is *not* a full Rust parser: expressions are opaque except for
//! closure discovery, generics are skipped by bracket matching, and
//! macro bodies are treated as token soup. That is exactly enough for
//! the structural rules (P2, E1, D6, X1) titan-lint defines.

use crate::lexer::{Tok, TokKind};

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Module,
    Fn,
    Impl,
    Trait,
    Struct,
    Enum,
    Union,
    Const,
    Static,
    TypeAlias,
    Use,
    ExternCrate,
    ForeignMod,
    MacroDef,
    /// A closure inside a function body.
    Closure,
    /// A test-gated statement or item inside a function body;
    /// recorded so its lines count as test code.
    Stmt,
}

/// One node of the item tree.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// The declared name (`""` for closures, impls carry the self
    /// type's last path segment, `use` items the full path).
    pub name: String,
    /// Declared with plain `pub` (not `pub(crate)`/`pub(super)`).
    pub vis_pub: bool,
    /// Carries `#[cfg(test)]` / `#[test]`, directly or inherited.
    pub cfg_test: bool,
    /// Carries a `#[must_use]` attribute directly.
    pub must_use: bool,
    /// Byte span of the whole item, attributes included; `end` is
    /// exclusive and lands on a token boundary.
    pub start: usize,
    pub end: usize,
    /// Byte span of the `{ ... }` body, braces included, if any.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the item keyword (`fn`, `mod`, ...).
    pub line: usize,
    /// For closures: the call the closure is an argument of
    /// (`sort_by`, `retain`, ...), when syntactically evident.
    pub ctx: Option<String>,
    /// For impls: the trait name when this is `impl Trait for Type`.
    pub trait_of: Option<String>,
    pub children: Vec<Item>,
}

impl Item {
    /// Depth-first walk over this item and all descendants.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Item)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }
}

/// Item keywords that start a definition the parser understands.
const ITEM_KEYWORDS: &[&str] = &[
    "mod", "fn", "impl", "trait", "struct", "enum", "union", "const", "static", "type", "use",
    "extern", "macro_rules",
];

/// Parses a full file into its top-level items. Trivia tokens are
/// ignored; stray tokens between items are left to the (implicit) file
/// root.
pub fn parse(src: &str, toks: &[Tok]) -> Vec<Item> {
    let code: Vec<Tok> = toks.iter().filter(|t| !t.kind.is_trivia()).copied().collect();
    let p = Parser { src, code: &code };
    p.items(0, code.len(), false)
}

/// Convenience: lex + parse in one call.
pub fn parse_source(src: &str) -> Vec<Item> {
    parse(src, &crate::lexer::lex(src))
}

struct Parser<'a> {
    src: &'a str,
    code: &'a [Tok],
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.code.get(i).map(|t| t.text(self.src)).unwrap_or("")
    }

    fn is_ident(&self, i: usize, what: &str) -> bool {
        self.code
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text(self.src) == what)
    }

    /// Skips a balanced bracket group starting at `i` (which must sit on
    /// `(`, `[`, `{`, or `<`). Returns the index just past the matching
    /// closer, clamped to `end` when unbalanced.
    fn skip_group(&self, i: usize, end: usize) -> usize {
        let (open, close) = match self.text(i) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            "<" => ("<", ">"),
            _ => return (i + 1).min(end),
        };
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            let t = self.text(j);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            } else if open == "<" && (t == "(" || t == "[" || t == "{") {
                // Bracketed sub-groups inside generics (`Fn(A) -> B`)
                // may contain stray `<`/`>` comparisons; skip them
                // opaquely so they cannot unbalance the angle count.
                j = self.skip_group(j, end);
                continue;
            }
            j += 1;
        }
        end
    }

    /// Parses items in `[i, end)`. `in_test` marks an enclosing
    /// `#[cfg(test)]` region.
    fn items(&self, mut i: usize, end: usize, in_test: bool) -> Vec<Item> {
        let mut out = Vec::new();
        while i < end {
            match self.item(i, end, in_test) {
                Some(item) => {
                    debug_assert!(item.next > i, "parser must always advance");
                    i = item.next.max(i + 1);
                    if let Some(node) = item.node {
                        out.push(node);
                    }
                }
                None => i += 1,
            }
        }
        out
    }

    /// Tries to parse one item starting at token `i`. Returns the next
    /// token index and (when `i` really started an item) the node.
    fn item(&self, start: usize, end: usize, in_test: bool) -> Option<Parsed> {
        let mut i = start;
        let mut cfg_test = in_test;
        let mut must_use = false;

        // Leading attributes. `#![...]` (inner attrs) are not items and
        // not attached to the next one; consume and yield no node.
        while self.text(i) == "#" {
            if self.text(i + 1) == "!" {
                let next = self.skip_group(i + 2, end);
                return Some(Parsed { next, node: None });
            }
            if self.text(i + 1) != "[" {
                return None;
            }
            let after = self.skip_group(i + 1, end);
            if self.attr_is_test(i + 1, after) {
                cfg_test = true;
            }
            if self.is_ident(i + 2, "must_use") {
                must_use = true;
            }
            i = after;
        }

        // Visibility + leading modifiers.
        let mut vis_pub = false;
        loop {
            match self.text(i) {
                "pub" => {
                    if self.text(i + 1) == "(" {
                        i = self.skip_group(i + 1, end); // pub(crate), pub(super), ...
                    } else {
                        vis_pub = true;
                        i += 1;
                    }
                }
                "default" | "unsafe" | "async" => i += 1,
                "const" if self.is_ident(i + 1, "fn") => i += 1,
                "extern"
                    if self
                        .code
                        .get(i + 1)
                        .is_some_and(|t| t.kind == TokKind::Str) =>
                {
                    // `extern "C" fn` modifier vs `extern "C" { ... }`
                    // foreign module: peek past the ABI string.
                    if self.text(i + 2) == "{" {
                        break;
                    }
                    i += 2;
                }
                _ => break,
            }
            if i >= end {
                return Some(Parsed { next: end, node: None });
            }
        }

        let kw_tok = self.code.get(i)?;
        if kw_tok.kind != TokKind::Ident {
            return None;
        }
        let kw = kw_tok.text(self.src);
        if !ITEM_KEYWORDS.contains(&kw) {
            return None;
        }
        let line = kw_tok.line;

        let mk = |kind, name: String, next: usize, body, ctx, trait_of, children| {
            let span_end = self
                .code
                .get(next.saturating_sub(1).max(start))
                .map(|t| t.end)
                .unwrap_or(kw_tok.end)
                .max(kw_tok.end);
            Some(Parsed {
                next,
                node: Some(Item {
                    kind,
                    name,
                    vis_pub,
                    cfg_test,
                    must_use,
                    start: self.code[start].start,
                    end: span_end,
                    body,
                    line,
                    ctx,
                    trait_of,
                    children,
                }),
            })
        };

        match kw {
            "mod" => {
                let name = self.ident_at(i + 1).unwrap_or_default();
                let mut j = i + 2;
                if self.text(j) == ";" {
                    return mk(ItemKind::Module, name, j + 1, None, None, None, Vec::new());
                }
                // Scan to the body brace (a `mod` has nothing between
                // name and `{` in valid code; stay bounded regardless).
                while j < end && self.text(j) != "{" && self.text(j) != ";" {
                    j += 1;
                }
                if self.text(j) == ";" {
                    return mk(ItemKind::Module, name, j + 1, None, None, None, Vec::new());
                }
                let close = self.skip_group(j, end);
                let children = self.items(j + 1, close.saturating_sub(1), cfg_test);
                let body = self.brace_span(j, close);
                mk(ItemKind::Module, name, close, body, None, None, children)
            }
            "fn" => {
                let name = self.ident_at(i + 1).unwrap_or_default();
                let (body_open, next) = self.seek_body(i + 2, end);
                match body_open {
                    None => mk(ItemKind::Fn, name, next, None, None, None, Vec::new()),
                    Some(open) => {
                        let close = self.skip_group(open, end);
                        let children =
                            self.closures(open + 1, close.saturating_sub(1), cfg_test);
                        mk(
                            ItemKind::Fn,
                            name,
                            close,
                            self.brace_span(open, close),
                            None,
                            None,
                            children,
                        )
                    }
                }
            }
            "impl" | "trait" => {
                let (body_open, next) = self.seek_body(i + 1, end);
                let Some(open) = body_open else {
                    // `impl Foo;` / unterminated header: no body, no kids.
                    let kind = if kw == "impl" { ItemKind::Impl } else { ItemKind::Trait };
                    return mk(kind, String::new(), next, None, None, None, Vec::new());
                };
                let close = self.skip_group(open, end);
                let children = self.items(open + 1, close.saturating_sub(1), cfg_test);
                let body = self.brace_span(open, close);
                if kw == "trait" {
                    let name = self.ident_at(i + 1).unwrap_or_default();
                    return mk(ItemKind::Trait, name, close, body, None, None, children);
                }
                let (name, trait_of) = self.impl_header(i + 1, open);
                mk(ItemKind::Impl, name, close, body, None, trait_of, children)
            }
            "struct" | "enum" | "union" => {
                let kind = match kw {
                    "struct" => ItemKind::Struct,
                    "enum" => ItemKind::Enum,
                    _ => ItemKind::Union,
                };
                let name = self.ident_at(i + 1).unwrap_or_default();
                let (body_open, next) = self.seek_body(i + 2, end);
                match body_open {
                    None => mk(kind, name, next, None, None, None, Vec::new()),
                    Some(open) => {
                        let close = self.skip_group(open, end);
                        mk(kind, name, close, self.brace_span(open, close), None, None, Vec::new())
                    }
                }
            }
            "const" | "static" => {
                let kind = if kw == "const" { ItemKind::Const } else { ItemKind::Static };
                // `static mut NAME`, `const NAME`, `const _`.
                let mut j = i + 1;
                if self.text(j) == "mut" {
                    j += 1;
                }
                let name = if self.text(j) == "_" {
                    "_".to_string()
                } else {
                    self.ident_at(j).unwrap_or_default()
                };
                let next = self.seek_semi(j, end);
                mk(kind, name, next, None, None, None, Vec::new())
            }
            "type" => {
                let name = self.ident_at(i + 1).unwrap_or_default();
                let next = self.seek_semi(i + 2, end);
                mk(ItemKind::TypeAlias, name, next, None, None, None, Vec::new())
            }
            "use" => {
                let next = self.seek_semi(i + 1, end);
                // Record the raw path text (`titan_faults::telemetry::*`)
                // so the symbol layer can resolve cross-crate edges.
                let path: String = (i + 1..next.saturating_sub(1))
                    .map(|k| self.text(k))
                    .collect();
                mk(ItemKind::Use, path, next, None, None, None, Vec::new())
            }
            "extern" => {
                if self.is_ident(i + 1, "crate") {
                    let name = self.ident_at(i + 2).unwrap_or_default();
                    let next = self.seek_semi(i + 2, end);
                    return mk(ItemKind::ExternCrate, name, next, None, None, None, Vec::new());
                }
                // `extern "C" { ... }` foreign module: opaque body.
                let (body_open, next) = self.seek_body(i + 1, end);
                match body_open {
                    None => mk(ItemKind::ForeignMod, String::new(), next, None, None, None, Vec::new()),
                    Some(open) => {
                        let close = self.skip_group(open, end);
                        mk(
                            ItemKind::ForeignMod,
                            String::new(),
                            close,
                            self.brace_span(open, close),
                            None,
                            None,
                            Vec::new(),
                        )
                    }
                }
            }
            "macro_rules" => {
                // macro_rules ! name { ... } — or ( ... ); / [ ... ];
                let name = self.ident_at(i + 2).unwrap_or_default();
                let mut j = i + 3;
                if matches!(self.text(j), "(" | "[" | "{") {
                    let braced = self.text(j) == "{";
                    j = self.skip_group(j, end);
                    if !braced && self.text(j) == ";" {
                        j += 1;
                    }
                } else {
                    j = self.seek_semi(j, end);
                }
                mk(ItemKind::MacroDef, name, j, None, None, None, Vec::new())
            }
            _ => None,
        }
    }

    /// The identifier at `i`, if any.
    fn ident_at(&self, i: usize) -> Option<String> {
        self.code
            .get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(self.src).to_string())
    }

    /// True when the attribute group starting at `open` (the `[`)
    /// marks test-only code: `#[test]`, `#[cfg(test)]`, or a
    /// `#[cfg(...)]` requiring `test` — one that mentions it with no
    /// `not` or `any`, which could let the item into a non-test build.
    fn attr_is_test(&self, open: usize, after: usize) -> bool {
        let inner: Vec<&str> = (open + 1..after.saturating_sub(1))
            .map(|k| self.text(k))
            .collect();
        match inner.first() {
            Some(&"test") if inner.len() == 1 => true,
            Some(&"cfg") => {
                inner.contains(&"test") && !inner.iter().any(|t| matches!(*t, "not" | "any"))
            }
            _ => false,
        }
    }

    /// From `i`, finds the item's body `{` or terminating `;` at
    /// bracket depth 0. Returns (Some(open_index), _) for a body, or
    /// (None, index_past_semi) for a braceless item. Generic parameter
    /// lists are skipped as `<...>` groups so a `>` in `-> Vec<T>`
    /// cannot derail the scan.
    fn seek_body(&self, mut i: usize, end: usize) -> (Option<usize>, usize) {
        while i < end {
            match self.text(i) {
                "{" => return (Some(i), i),
                ";" => return (None, i + 1),
                "(" | "[" => i = self.skip_group(i, end),
                "<" => i = self.skip_group(i, end),
                _ => i += 1,
            }
        }
        (None, end)
    }

    /// From `i`, finds the index just past the terminating `;` at
    /// bracket depth 0 (initializer braces are skipped as groups).
    fn seek_semi(&self, mut i: usize, end: usize) -> usize {
        while i < end {
            match self.text(i) {
                ";" => return i + 1,
                "(" | "[" | "{" => i = self.skip_group(i, end),
                _ => i += 1,
            }
        }
        end
    }

    /// Byte span of a `{ ... }` group from its token indices.
    fn brace_span(&self, open: usize, close: usize) -> Option<(usize, usize)> {
        let lo = self.code.get(open)?.start;
        let hi = self.code.get(close.saturating_sub(1))?.end;
        Some((lo, hi))
    }

    /// Splits an impl header (tokens between `impl` and the body `{`)
    /// into (self type name, trait name). `impl<T> Trait<U> for Type`
    /// → ("Type", Some("Trait")); `impl Type` → ("Type", None).
    fn impl_header(&self, mut i: usize, open: usize) -> (String, Option<String>) {
        // Skip the generic parameter list directly after `impl`.
        if self.text(i) == "<" {
            i = self.skip_group(i, open);
        }
        // Find a top-level `for` (not `for<'a>` — that one is directly
        // followed by `<`).
        let mut for_at = None;
        let mut j = i;
        while j < open {
            match self.text(j) {
                "(" | "[" | "<" => j = self.skip_group(j, open),
                "for" if self.text(j + 1) != "<" => {
                    for_at = Some(j);
                    break;
                }
                _ => j += 1,
            }
        }
        let (trait_range, ty_range) = match for_at {
            Some(f) => (Some((i, f)), (f + 1, open)),
            None => (None, (i, open)),
        };
        let trait_of = trait_range.and_then(|(lo, hi)| self.first_path_ident(lo, hi));
        let name = self.last_path_ident(ty_range.0, ty_range.1).unwrap_or_default();
        (name, trait_of)
    }

    /// First identifier of a path in `[lo, hi)`, preferring the segment
    /// that names the trait/type itself: for `titan_gpu::Ecc` that is
    /// `Ecc`, so walk the leading path and take its last segment.
    fn first_path_ident(&self, lo: usize, hi: usize) -> Option<String> {
        let mut last = None;
        let mut j = lo;
        while j < hi {
            let t = self.code.get(j)?;
            match t.kind {
                TokKind::Ident if t.text(self.src) != "dyn" => {
                    last = Some(t.text(self.src).to_string());
                    // Path continues over `::`; anything else ends it.
                    if self.text(j + 1) == ":" && self.text(j + 2) == ":" {
                        j += 3;
                        continue;
                    }
                    return last;
                }
                TokKind::Punct if matches!(t.text(self.src), "&" | "*") => j += 1,
                _ => return last,
            }
        }
        last
    }

    /// Last path-segment identifier before any `<` in `[lo, hi)` —
    /// the self type's own name.
    fn last_path_ident(&self, lo: usize, hi: usize) -> Option<String> {
        let mut j = lo;
        let mut last = None;
        while j < hi {
            match self.text(j) {
                "<" | "(" | "[" => j = self.skip_group(j, hi),
                t => {
                    if self.code.get(j).is_some_and(|tok| tok.kind == TokKind::Ident)
                        && t != "dyn"
                        && t != "mut"
                    {
                        last = Some(t.to_string());
                    }
                    j += 1;
                }
            }
        }
        last
    }

    /// Scans a function body for closures, and for test-gated
    /// statements so that their lines count as test code. `|` is a
    /// closure head when the previous code token cannot end an
    /// expression (so `a | b` stays bitwise-or), or when it follows
    /// `move`/`return`.
    fn closures(&self, lo: usize, hi: usize, in_test: bool) -> Vec<Item> {
        let mut out = Vec::new();
        // For each currently-open paren, the call identifier before it
        // (if the group is a call's argument list).
        let mut calls: Vec<Option<String>> = Vec::new();
        let mut i = lo;
        while i < hi {
            let text = self.text(i);
            match text {
                "(" => {
                    let ctx = (i > lo)
                        .then(|| {
                            self.code
                                .get(i - 1)
                                .filter(|t| t.kind == TokKind::Ident)
                                .map(|t| t.text(self.src).to_string())
                        })
                        .flatten();
                    calls.push(ctx);
                    i += 1;
                }
                ")" => {
                    calls.pop();
                    i += 1;
                }
                "#" => match self.test_stmt(i, hi) {
                    Some(Parsed { next, node: Some(node) }) => {
                        out.push(node);
                        i = next;
                    }
                    _ => i += 1,
                },
                "|" if self.closure_head(lo, i) => {
                    let ctx = calls.last().cloned().flatten();
                    if let Some(item) = self.closure(i, hi, ctx, in_test) {
                        let next = item.next;
                        if let Some(node) = item.node {
                            out.push(node);
                        }
                        i = next.max(i + 1);
                    } else {
                        i += 1;
                    }
                }
                _ => i += 1,
            }
        }
        out
    }

    /// The statement or item at `start` when its outer attributes mark
    /// it test-only (see [`Self::attr_is_test`]). It runs through its
    /// first top-level `;` or `,`, or through its first top-level
    /// `{ ... }` block, and stops before an unmatched closer.
    fn test_stmt(&self, start: usize, hi: usize) -> Option<Parsed> {
        let mut i = start;
        let mut test = false;
        while self.text(i) == "#" && self.text(i + 1) == "[" {
            let after = self.skip_group(i + 1, hi);
            test |= self.attr_is_test(i + 1, after);
            i = after;
        }
        if !test || i >= hi {
            return None;
        }
        let mut next = i;
        while next < hi {
            match self.text(next) {
                ";" | "," => {
                    next += 1;
                    break;
                }
                "{" => {
                    next = self.skip_group(next, hi);
                    break;
                }
                "(" | "[" => next = self.skip_group(next, hi),
                ")" | "]" | "}" => break,
                _ => next += 1,
            }
        }
        if next == i {
            return None;
        }
        Some(Parsed {
            next,
            node: Some(Item {
                kind: ItemKind::Stmt,
                name: String::new(),
                vis_pub: false,
                cfg_test: true,
                must_use: false,
                start: self.code[start].start,
                end: self.code[next - 1].end,
                body: None,
                line: self.code[i].line,
                ctx: None,
                trait_of: None,
                children: self.closures(i, next, true),
            }),
        })
    }

    /// True when the `|` at `i` starts a closure rather than a binary
    /// operator, judged from the previous code token.
    fn closure_head(&self, lo: usize, i: usize) -> bool {
        if i == lo {
            return true;
        }
        let Some(prev) = self.code.get(i - 1) else { return true };
        match prev.kind {
            TokKind::Ident => matches!(prev.text(self.src), "move" | "return" | "else" | "in"),
            TokKind::Punct => {
                matches!(prev.text(self.src), "(" | "," | "=" | "{" | ";" | ":" | ">" | "&")
            }
            _ => false,
        }
    }

    /// Parses one closure at `i` (the opening `|`). Nested closures
    /// become children.
    fn closure(&self, i: usize, hi: usize, ctx: Option<String>, in_test: bool) -> Option<Parsed> {
        let start_tok = self.code.get(i)?;
        // Parameter list: to the matching `|`. Parameters cannot
        // contain a bare `|`, so the next one closes the list.
        let mut j = i + 1;
        while j < hi && self.text(j) != "|" {
            match self.text(j) {
                "(" | "[" | "<" => j = self.skip_group(j, hi),
                _ => j += 1,
            }
        }
        if j >= hi {
            return None; // unterminated parameter list: not a closure
        }
        j += 1; // past the closing `|`
        // Body: a brace block, or an expression up to `,` / `)` / `]`
        // / `}` / `;` at depth 0.
        let (body, end_idx) = if self.text(j) == "{" {
            let close = self.skip_group(j, hi);
            (self.brace_span(j, close), close)
        } else {
            let mut k = j;
            while k < hi {
                match self.text(k) {
                    "(" | "[" | "{" => k = self.skip_group(k, hi),
                    "," | ")" | "]" | "}" | ";" => break,
                    _ => k += 1,
                }
            }
            (None, k)
        };
        let children = self.closures(j, end_idx, in_test);
        let end_byte = self
            .code
            .get(end_idx.saturating_sub(1))
            .map(|t| t.end)
            .unwrap_or(start_tok.end)
            .max(start_tok.end);
        Some(Parsed {
            next: end_idx,
            node: Some(Item {
                kind: ItemKind::Closure,
                name: String::new(),
                vis_pub: false,
                cfg_test: in_test,
                must_use: false,
                start: start_tok.start,
                end: end_byte,
                body,
                line: start_tok.line,
                ctx,
                trait_of: None,
                children,
            }),
        })
    }
}

struct Parsed {
    /// Index of the first token after the item.
    next: usize,
    /// The parsed node; `None` for consumed-but-itemless runs (inner
    /// attributes).
    node: Option<Item>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(src: &str) -> Vec<Item> {
        parse_source(src)
    }

    fn flat<'a>(items: &'a [Item], out: &mut Vec<&'a Item>) {
        for it in items {
            out.push(it);
            flat(&it.children, out);
        }
    }

    #[test]
    fn top_level_items_with_spans() {
        let src = "use std::fmt;\n\npub struct S { a: u32 }\n\npub fn f(x: u32) -> u32 { x }\n";
        let items = parse_str(src);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].kind, ItemKind::Use);
        assert_eq!(items[1].kind, ItemKind::Struct);
        assert_eq!(items[1].name, "S");
        assert!(items[1].vis_pub);
        assert_eq!(items[2].kind, ItemKind::Fn);
        assert_eq!(items[2].name, "f");
        assert_eq!(&src[items[2].start..items[2].end], "pub fn f(x: u32) -> u32 { x }");
        // Sibling spans are disjoint and ordered.
        assert!(items[0].end <= items[1].start && items[1].end <= items[2].start);
    }

    #[test]
    fn modules_nest_and_inherit_cfg_test() {
        let src = "mod outer {\n    pub fn a() {}\n    mod inner { pub fn b() {} }\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let items = parse_str(src);
        assert_eq!(items.len(), 2);
        let outer = &items[0];
        assert_eq!(outer.kind, ItemKind::Module);
        assert_eq!(outer.children.len(), 2);
        assert_eq!(outer.children[1].children[0].name, "b");
        assert!(!outer.children[0].cfg_test);
        let tests = &items[1];
        assert!(tests.cfg_test);
        assert!(tests.children[0].cfg_test, "children inherit cfg(test)");
        // The attribute is part of the span.
        assert!(src[tests.start..tests.end].starts_with("#[cfg(test)]"));
    }

    #[test]
    fn test_gated_statements_inside_fn_bodies_are_children() {
        let src = "fn outer(v: &mut Vec<u32>) -> u32 {\n\
                       #[inline]\n    fn plain() {}\n\
                       #[cfg(test)]\n    fn helper(v: &mut Vec<u32>) { v.retain(|x| *x > 1); }\n\
                       #[cfg(test)]\n    { check(|x| x > 1); }\n\
                       #[cfg(test)]\n    let probe = [1, 2];\n\
                       match v.len() { #[cfg(test)] 0 => 1, n => n as u32 }\n\
                   }\n";
        let items = parse_str(src);
        let kids = &items[0].children;
        let got: Vec<(ItemKind, &str)> =
            kids.iter().map(|k| (k.kind, &src[k.start..k.end])).collect();
        assert_eq!(
            got,
            vec![
                (
                    ItemKind::Stmt,
                    "#[cfg(test)]\n    fn helper(v: &mut Vec<u32>) { v.retain(|x| *x > 1); }"
                ),
                (ItemKind::Stmt, "#[cfg(test)]\n    { check(|x| x > 1); }"),
                (ItemKind::Stmt, "#[cfg(test)]\n    let probe = [1, 2];"),
                (ItemKind::Stmt, "#[cfg(test)] 0 => 1,"),
            ]
        );
        assert!(kids.iter().all(|k| k.cfg_test));
        assert_eq!(kids[0].children[0].ctx.as_deref(), Some("retain"));
    }

    #[test]
    fn only_cfgs_requiring_test_mark_test_code() {
        let src = "#[cfg(all(test, unix))]\nfn a() {}\n\
                   #[cfg(not(test))]\nfn b() {}\n\
                   #[cfg(any(test, feature = \"x\"))]\nfn c() {}\n";
        let gated: Vec<bool> = parse_str(src).iter().map(|it| it.cfg_test).collect();
        assert_eq!(gated, vec![true, false, false]);
    }

    #[test]
    fn impl_blocks_carry_type_and_trait() {
        let src = "impl Engine { fn step(&mut self) {} }\n\
                   impl<T: Ord> Drop for Pool<T> { fn drop(&mut self) {} }\n\
                   impl fmt::Display for Card { fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result { Ok(()) } }\n";
        let items = parse_str(src);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].name, "Engine");
        assert_eq!(items[0].trait_of, None);
        assert_eq!(items[0].children[0].name, "step");
        assert_eq!(items[1].name, "Pool");
        assert_eq!(items[1].trait_of.as_deref(), Some("Drop"));
        assert_eq!(items[2].name, "Card");
        assert_eq!(items[2].trait_of.as_deref(), Some("Display"));
    }

    #[test]
    fn fn_bodies_with_nested_braces_and_generics() {
        let src = "fn complex<T: Into<Vec<u8>>>(x: T) -> Result<Vec<u8>, String> {\n\
                       let v = if true { vec![1] } else { vec![] };\n\
                       Ok(v)\n\
                   }\n\
                   fn after() {}\n";
        let items = parse_str(src);
        assert_eq!(items.len(), 2, "{items:?}");
        assert_eq!(items[0].name, "complex");
        assert_eq!(items[1].name, "after");
    }

    #[test]
    fn closures_found_with_call_context() {
        let src = "fn f(v: &mut Vec<f64>) {\n\
                       v.sort_by(|a, b| a.total_cmp(b));\n\
                       v.retain(|x| *x > 0.0);\n\
                       let g = |y: u32| { y + 1 };\n\
                       let h = move || 3;\n\
                   }\n";
        let items = parse_str(src);
        let mut all = Vec::new();
        flat(&items, &mut all);
        let closures: Vec<&&Item> =
            all.iter().filter(|i| i.kind == ItemKind::Closure).collect();
        assert_eq!(closures.len(), 4, "{closures:?}");
        assert_eq!(closures[0].ctx.as_deref(), Some("sort_by"));
        assert_eq!(closures[1].ctx.as_deref(), Some("retain"));
        assert_eq!(closures[2].ctx, None);
        assert_eq!(closures[3].ctx, None);
    }

    #[test]
    fn nested_closures_keep_their_own_context() {
        let src = "fn f(v: &mut Vec<Vec<f64>>) {\n\
                       v.iter_mut().for_each(|row| {\n\
                           row.sort_by(|a, b| a.total_cmp(b));\n\
                       });\n\
                   }\n";
        let items = parse_str(src);
        let outer = &items[0].children[0];
        assert_eq!(outer.kind, ItemKind::Closure);
        assert_eq!(outer.ctx.as_deref(), Some("for_each"));
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].ctx.as_deref(), Some("sort_by"));
    }

    #[test]
    fn bitwise_or_is_not_a_closure() {
        let src = "fn f(a: u32, b: u32) -> u32 { let c = a | b; c | 1 }\n";
        let items = parse_str(src);
        let mut all = Vec::new();
        flat(&items, &mut all);
        assert!(all.iter().all(|i| i.kind != ItemKind::Closure), "{all:?}");
    }

    #[test]
    fn braceless_items_end_at_semicolons() {
        let src = "pub const N: usize = [1, 2, 3].len();\n\
                   static mut G: u32 = 0;\n\
                   pub type Alias = Vec<(u32, u32)>;\n\
                   trait T { fn sig(&self); fn with_default(&self) -> u32 { 1 } }\n";
        let items = parse_str(src);
        assert_eq!(items.len(), 4, "{items:?}");
        assert_eq!(items[0].kind, ItemKind::Const);
        assert_eq!(items[0].name, "N");
        assert_eq!(items[1].kind, ItemKind::Static);
        assert_eq!(items[1].name, "G");
        assert_eq!(items[2].kind, ItemKind::TypeAlias);
        let t = &items[3];
        assert_eq!(t.kind, ItemKind::Trait);
        assert_eq!(t.children.len(), 2);
        assert_eq!(t.children[0].name, "sig");
        assert!(t.children[0].body.is_none());
        assert!(t.children[1].body.is_some());
    }

    #[test]
    fn pub_crate_is_not_pub() {
        let src = "pub(crate) fn a() {}\npub fn b() {}\nfn c() {}\n";
        let items = parse_str(src);
        assert_eq!(
            items.iter().map(|i| i.vis_pub).collect::<Vec<_>>(),
            vec![false, true, false]
        );
    }

    #[test]
    fn malformed_input_never_panics_and_stays_bounded() {
        for src in [
            "fn",
            "fn f(",
            "impl {",
            "mod m {",
            "struct S {",
            "fn f() { let c = |x { }",
            "trait T { fn",
            "pub pub pub",
            "macro_rules! m",
            "#[cfg(test)",
            "#![",
            "use ::;;",
            "extern \"C\" {",
            "const = ;",
        ] {
            let _ = parse_str(src); // must simply not panic
        }
    }

    #[test]
    fn macro_defs_and_extern_crates_parse() {
        let src = "macro_rules! check { ($e:expr) => { $e }; }\nextern crate alloc;\nfn f() {}\n";
        let items = parse_str(src);
        assert_eq!(items.len(), 3, "{items:?}");
        assert_eq!(items[0].kind, ItemKind::MacroDef);
        assert_eq!(items[0].name, "check");
        assert_eq!(items[1].kind, ItemKind::ExternCrate);
        assert_eq!(items[2].name, "f");
    }

    #[test]
    fn must_use_attribute_is_recorded() {
        let src = "#[must_use]\npub fn draw() -> u64 { 3 }\n\
                   #[must_use = \"check the outcome\"]\npub fn roll() -> u64 { 4 }\n\
                   pub fn plain() {}\n";
        let items = parse_str(src);
        assert_eq!(
            items.iter().map(|i| i.must_use).collect::<Vec<_>>(),
            vec![true, true, false]
        );
    }

    #[test]
    fn raw_identifier_items_keep_their_names() {
        let src = "pub fn r#type() {}\nstruct r#match;\n";
        let items = parse_str(src);
        assert_eq!(items[0].name, "r#type");
        assert_eq!(items[1].name, "r#match");
    }
}
