//! A small hand-rolled Rust lexer for titan-lint.
//!
//! The v1 scanner matched rule tokens as raw substrings over
//! comment-stripped lines, which meant `Instantaneous` tripped the
//! `Instant` ban and a doc comment mentioning `HashMap` could page an
//! operator. Everything in v2 matches *real tokens* instead: this
//! module turns source text into a flat token stream with byte spans,
//! and the rules match needle token sequences against it.
//!
//! Design constraints, in order:
//!
//! 1. **Never panic.** The lexer runs in CI over arbitrary checkouts
//!    (including fixtures that are deliberately malformed Rust). Any
//!    byte sequence must lex; unterminated literals extend to EOF.
//! 2. **Round-trip.** The concatenation of all token texts is exactly
//!    the input — no byte is dropped or invented. A property test
//!    pins this over arbitrary input.
//! 3. **std-only and cheap.** The lint runs on a cold checkout before
//!    any dependency resolution.
//!
//! It is *not* a full Rust lexer: numeric literal grammar is
//! approximate and tokens carry no semantic info beyond their kind.
//! That is enough for every rule titan-lint defines — the rules only
//! need to know "is this byte range code, a comment, or a literal,
//! and what identifier/punctuation does it spell".

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Spaces, tabs, newlines.
    Whitespace,
    /// `// ...` to end of line (not a doc comment).
    LineComment,
    /// `/// ...` or `//! ...` to end of line.
    DocComment,
    /// `/* ... */`, nesting respected; `/** */` and `/*! */` included.
    BlockComment,
    /// `"..."`, `b"..."`, escapes respected; may span lines.
    Str,
    /// `r"..."`, `r#"..."#`, `br#"..."#` — no escapes, hash-counted.
    RawStr,
    /// `'x'`, `'\n'`, `'"'`, `b'x'`.
    Char,
    /// `'a`, `'static`, `'_` — a quote followed by an identifier with
    /// no closing quote.
    Lifetime,
    /// Identifiers and keywords (`as`, `fn`, `HashMap`, ...).
    Ident,
    /// Numeric literal (approximate grammar: digits, `_`, type
    /// suffixes, `0x...`, and `1.5`-style decimals).
    Number,
    /// Any other single character.
    Punct,
}

impl TokKind {
    /// Comments and whitespace — never matched by rules.
    pub fn is_trivia(self) -> bool {
        matches!(
            self,
            TokKind::Whitespace
                | TokKind::LineComment
                | TokKind::DocComment
                | TokKind::BlockComment
        )
    }

    /// Any comment flavor.
    pub fn is_comment(self) -> bool {
        matches!(
            self,
            TokKind::LineComment | TokKind::DocComment | TokKind::BlockComment
        )
    }

    /// String/char literal — present in the code stream but its *body*
    /// must never match a rule needle.
    pub fn is_literal(self) -> bool {
        matches!(self, TokKind::Str | TokKind::RawStr | TokKind::Char)
    }
}

/// One token: kind plus byte span plus the 1-based line its first byte
/// sits on. Slice the source with `&src[start..end]` for the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset past the last byte, exclusive.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: usize,
}

impl Tok {
    /// The token's text within its source.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// The text a rule needle sees: literal bodies are opaque (a needle
    /// can never match into or across a string/char literal), anything
    /// else is the token's own spelling.
    pub fn needle_text<'a>(&self, src: &'a str) -> &'a str {
        if self.kind.is_literal() {
            "\u{0}"
        } else {
            self.text(src)
        }
    }
}

/// The needle text of `toks[i]`, or `""` past the end.
pub fn text_at<'a>(src: &'a str, toks: &[Tok], i: usize) -> &'a str {
    toks.get(i).map_or("", |t| t.needle_text(src))
}

/// True when `needle` matches the tokens starting at `toks[i]`.
pub fn match_at(src: &str, toks: &[Tok], i: usize, needle: &[&str]) -> bool {
    toks.get(i..).is_some_and(|rest| {
        rest.len() >= needle.len()
            && needle.iter().zip(rest).all(|(n, t)| t.needle_text(src) == *n)
    })
}

/// Keywords that never name a value: never a callee, never the base of
/// an index expression.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "do", "dyn", "else",
    "enum", "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "type", "unsafe",
    "use", "where", "while", "yield",
];

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes `src` into a complete, contiguous token stream.
///
/// Guarantees: never panics; `toks` spans partition `0..src.len()`
/// exactly in order (round-trip); every span lies on UTF-8 char
/// boundaries.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    out: Vec<Tok>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Tok> {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let line = self.line;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must always advance");
            self.out.push(Tok {
                kind,
                start,
                end: self.pos,
                line,
            });
        }
        self.out
    }

    /// First char at the cursor (the cursor always sits on a char
    /// boundary because every consumer advances by whole chars).
    fn peek_char(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek_byte(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances past one char, tracking line numbers.
    fn bump(&mut self) {
        if let Some(c) = self.peek_char() {
            if c == '\n' {
                self.line += 1;
            }
            self.pos += c.len_utf8();
        } else {
            // Defensive: out of input. Callers check first.
            self.pos = self.bytes.len();
        }
    }

    fn next_kind(&mut self) -> TokKind {
        let c = match self.peek_char() {
            Some(c) => c,
            None => return TokKind::Whitespace, // unreachable; run() guards
        };

        if c.is_whitespace() {
            while self.peek_char().is_some_and(|c| c.is_whitespace()) {
                self.bump();
            }
            return TokKind::Whitespace;
        }

        // A shebang line (`#!/usr/bin/env ...`) is only special at byte
        // 0, and `#![...]` is an inner attribute, not a shebang.
        if c == '#'
            && self.pos == 0
            && self.peek_byte(1) == Some(b'!')
            && self.peek_byte(2) != Some(b'[')
        {
            while self.peek_char().is_some_and(|c| c != '\n') {
                self.bump();
            }
            return TokKind::LineComment;
        }

        if c == '/' {
            match self.peek_byte(1) {
                Some(b'/') => return self.line_comment(),
                Some(b'*') => return self.block_comment(),
                _ => {}
            }
        }

        // Raw strings and byte strings: r" r#" br" b" b' prefixes.
        if c == 'r' || c == 'b' {
            if let Some(kind) = self.try_prefixed_literal() {
                return kind;
            }
        }

        if c == '"' {
            self.bump();
            self.string_body();
            return TokKind::Str;
        }

        if c == '\'' {
            return self.quote();
        }

        if is_ident_start(c) {
            while self.peek_char().is_some_and(is_ident_continue) {
                self.bump();
            }
            return TokKind::Ident;
        }

        if c.is_ascii_digit() {
            return self.number();
        }

        self.bump();
        TokKind::Punct
    }

    fn line_comment(&mut self) -> TokKind {
        // Cursor on the first '/'. `///x` is doc, `////x` is not
        // (rustdoc's own rule); `//!` is inner doc.
        let doc = match (self.peek_byte(2), self.peek_byte(3)) {
            (Some(b'!'), _) => true,
            (Some(b'/'), Some(b'/')) => false,
            (Some(b'/'), _) => true,
            _ => false,
        };
        while self.peek_char().is_some_and(|c| c != '\n') {
            self.bump();
        }
        if doc {
            TokKind::DocComment
        } else {
            TokKind::LineComment
        }
    }

    fn block_comment(&mut self) -> TokKind {
        // Cursor on '/', next is '*'. Rust block comments nest.
        let doc = matches!(self.peek_byte(2), Some(b'*' | b'!'))
            && self.peek_byte(3) != Some(b'/'); // `/**/` is empty, not doc
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek_byte(0), self.peek_byte(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => self.bump(),
                (None, _) => break, // unterminated: extends to EOF
            }
        }
        if doc {
            TokKind::DocComment
        } else {
            TokKind::BlockComment
        }
    }

    /// `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`. Returns None when
    /// the `r`/`b` is just an identifier head (`radius`, `b2`).
    fn try_prefixed_literal(&mut self) -> Option<TokKind> {
        let rest = &self.bytes[self.pos..];
        let (prefix_len, raw, byte_char) = match rest {
            [b'b', b'r', b'"' | b'#', ..] => (2, true, false),
            [b'r', b'b', b'"' | b'#', ..] => (2, true, false), // rb"" (reserved; lex anyway)
            [b'b', b'"', ..] => (1, false, false),
            [b'b', b'\'', ..] => (1, false, true),
            [b'r', b'"' | b'#', ..] => (1, true, false),
            _ => return None,
        };
        if raw {
            // Count hashes after the prefix; a raw string needs `#*"`.
            let mut hashes = 0usize;
            while rest.get(prefix_len + hashes) == Some(&b'#') {
                hashes += 1;
            }
            if rest.get(prefix_len + hashes) != Some(&b'"') {
                // `r#foo` is a raw identifier, not a raw string: lex the
                // whole `r#foo` as one Ident so rules see it as a name
                // (its text keeps the `r#` prefix). Anything else
                // (`r#1`, `r##x`) falls back to ident/punct lexing.
                if prefix_len == 1 && hashes == 1 && rest[0] == b'r' {
                    let after = self.src[self.pos + 2..].chars().next();
                    if after.is_some_and(is_ident_start) {
                        self.bump(); // 'r'
                        self.bump(); // '#'
                        while self.peek_char().is_some_and(is_ident_continue) {
                            self.bump();
                        }
                        return Some(TokKind::Ident);
                    }
                }
                return None; // lex as ident/punct
            }
            for _ in 0..prefix_len + hashes + 1 {
                self.bump();
            }
            // Scan for `"` followed by `hashes` hashes.
            'scan: while let Some(b) = self.peek_byte(0) {
                if b == b'"' {
                    for k in 0..hashes {
                        if self.peek_byte(1 + k) != Some(b'#') {
                            self.bump();
                            continue 'scan;
                        }
                    }
                    for _ in 0..hashes + 1 {
                        self.bump();
                    }
                    return Some(TokKind::RawStr);
                }
                self.bump();
            }
            return Some(TokKind::RawStr); // unterminated: to EOF
        }
        if byte_char {
            self.bump(); // 'b'
            return Some(self.quote());
        }
        self.bump(); // 'b'
        self.bump(); // '"'
        self.string_body();
        Some(TokKind::Str)
    }

    /// Consumes a normal string body after the opening quote.
    fn string_body(&mut self) {
        while let Some(c) = self.peek_char() {
            match c {
                '\\' => {
                    self.bump();
                    if self.peek_char().is_some() {
                        self.bump();
                    }
                }
                '"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
        // Unterminated: extends to EOF.
    }

    /// Disambiguates `'a'` (char), `'\n'` (char), `'"'` (char),
    /// `'static` (lifetime). Cursor on the `'`.
    fn quote(&mut self) -> TokKind {
        self.bump(); // the quote
        match self.peek_char() {
            Some('\\') => {
                // Escaped char literal: consume to the closing quote.
                self.bump();
                if self.peek_char().is_some() {
                    self.bump(); // the escaped char (n, \, u, ...)
                }
                // `\u{1F980}`-style payloads: walk to the quote.
                while let Some(c) = self.peek_char() {
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
                TokKind::Char
            }
            Some(c) if is_ident_start(c) || c.is_ascii_digit() => {
                // `'a'` is a char literal iff a quote directly follows
                // the one payload char; otherwise it's a lifetime.
                let after = self.src[self.pos + c.len_utf8()..].chars().next();
                if after == Some('\'') {
                    self.bump(); // payload
                    self.bump(); // closing quote
                    TokKind::Char
                } else {
                    while self.peek_char().is_some_and(is_ident_continue) {
                        self.bump();
                    }
                    TokKind::Lifetime
                }
            }
            Some('\'') => {
                // `''` — empty/garbage; consume the second quote so we
                // always advance past both.
                self.bump();
                TokKind::Char
            }
            Some(_) => {
                // `'"'`, `'('`, any other single-char literal.
                self.bump();
                if self.peek_char() == Some('\'') {
                    self.bump();
                }
                TokKind::Char
            }
            None => TokKind::Char, // lone trailing quote
        }
    }

    fn number(&mut self) -> TokKind {
        // Digits, `_`, letters (covers 0x1F, suffixes like u64/f32),
        // and a `.` only when directly followed by a digit — so `0..n`
        // leaves the range dots alone.
        self.bump();
        loop {
            match self.peek_char() {
                Some(c) if c.is_ascii_alphanumeric() || c == '_' => self.bump(),
                Some('.') => {
                    let mut it = self.src[self.pos..].chars();
                    it.next();
                    if it.next().is_some_and(|d| d.is_ascii_digit()) {
                        self.bump(); // '.'
                        self.bump(); // first fractional digit
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        TokKind::Number
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).iter().map(|t| (t.kind, t.text(src))).collect()
    }

    fn roundtrip(src: &str) {
        let toks = lex(src);
        let rebuilt: String = toks.iter().map(|t| t.text(src)).collect();
        assert_eq!(rebuilt, src, "lexer must round-trip");
        // Spans partition the input.
        let mut pos = 0;
        for t in &toks {
            assert_eq!(t.start, pos, "gap/overlap at {pos}");
            assert!(t.end > t.start, "empty token at {pos}");
            pos = t.end;
        }
        assert_eq!(pos, src.len());
    }

    #[test]
    fn idents_and_punct() {
        let src = "fn f(x: u32) -> u64 { x as u64 }";
        roundtrip(src);
        let code: Vec<&str> = lex(src)
            .iter()
            .filter(|t| !t.kind.is_trivia())
            .map(|t| t.text(src))
            .collect();
        assert_eq!(
            code,
            vec!["fn", "f", "(", "x", ":", "u32", ")", "-", ">", "u64", "{", "x", "as", "u64", "}"]
        );
    }

    #[test]
    fn line_and_doc_comments() {
        let src = "// plain\n/// doc\n//! inner doc\n//// not doc\nlet x = 1;\n";
        roundtrip(src);
        let comments: Vec<(TokKind, &str)> = kinds(src)
            .into_iter()
            .filter(|(k, _)| k.is_comment())
            .collect();
        assert_eq!(
            comments,
            vec![
                (TokKind::LineComment, "// plain"),
                (TokKind::DocComment, "/// doc"),
                (TokKind::DocComment, "//! inner doc"),
                (TokKind::LineComment, "//// not doc"),
            ]
        );
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* one /* two */ still comment */ b";
        roundtrip(src);
        let got = kinds(src);
        assert_eq!(got[0], (TokKind::Ident, "a"));
        assert_eq!(
            got[2],
            (TokKind::BlockComment, "/* one /* two */ still comment */")
        );
        assert_eq!(got[4], (TokKind::Ident, "b"));
    }

    #[test]
    fn unterminated_block_comment_extends_to_eof() {
        let src = "x /* never closed";
        roundtrip(src);
        assert_eq!(lex(src).last().unwrap().kind, TokKind::BlockComment);
    }

    #[test]
    fn strings_with_escapes() {
        let src = r#"let s = "a \" b \\"; let t = "HashMap";"#;
        roundtrip(src);
        let strs: Vec<&str> = lex(src)
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(strs, vec![r#""a \" b \\""#, r#""HashMap""#]);
    }

    #[test]
    fn raw_strings_hash_counted() {
        let src = r##"let s = r#"contains "quotes" and \ backslash"#; done"##;
        roundtrip(src);
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::RawStr && t.contains("quotes")));
        assert_eq!(toks.last().unwrap(), &(TokKind::Ident, "done"));
    }

    #[test]
    fn raw_string_multi_hash_and_byte_string() {
        let src = "r##\"inner \"# still\"## + b\"bytes\" + br#\"raw bytes\"#";
        roundtrip(src);
        let got: Vec<TokKind> = lex(src)
            .iter()
            .filter(|t| !t.kind.is_trivia())
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            got,
            vec![
                TokKind::RawStr,
                TokKind::Punct,
                TokKind::Str,
                TokKind::Punct,
                TokKind::RawStr
            ]
        );
    }

    #[test]
    fn multiline_string_tracks_lines() {
        let src = "let a = \"line one\nline two\";\nlet b = 3;";
        roundtrip(src);
        let b_tok = lex(src)
            .into_iter()
            .find(|t| t.text(src) == "b")
            .expect("b token");
        assert_eq!(b_tok.line, 3);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "let c = 'x'; let q = '\"'; let n = '\\n'; fn f<'a>(v: &'a str) -> &'static str { v }";
        roundtrip(src);
        let got: Vec<(TokKind, &str)> = kinds(src)
            .into_iter()
            .filter(|(k, _)| matches!(k, TokKind::Char | TokKind::Lifetime))
            .collect();
        assert_eq!(
            got,
            vec![
                (TokKind::Char, "'x'"),
                (TokKind::Char, "'\"'"),
                (TokKind::Char, "'\\n'"),
                (TokKind::Lifetime, "'a"),
                (TokKind::Lifetime, "'a"),
                (TokKind::Lifetime, "'static"),
            ]
        );
    }

    #[test]
    fn numbers_leave_range_dots() {
        let src = "for i in 0..10 { let f = 1.5e3; let h = 0xFF_u64; }";
        roundtrip(src);
        let nums: Vec<&str> = lex(src)
            .iter()
            .filter(|t| t.kind == TokKind::Number)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e3", "0xFF_u64"]);
    }

    #[test]
    fn raw_identifiers_lex_as_single_idents() {
        let src = "struct r#type { r#fn: u32 } let x = r#match;";
        roundtrip(src);
        let idents: Vec<&str> = lex(src)
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(
            idents,
            vec!["struct", "r#type", "r#fn", "u32", "let", "x", "r#match"]
        );
        // Raw strings after a raw identifier still lex as raw strings.
        let mixed = "let r#type = r#\"raw string\"#;";
        roundtrip(mixed);
        let kinds: Vec<TokKind> = lex(mixed)
            .iter()
            .filter(|t| !t.kind.is_trivia())
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::Ident, // let
                TokKind::Ident, // r#type
                TokKind::Punct, // =
                TokKind::RawStr,
                TokKind::Punct, // ;
            ]
        );
        // `r#1` is not a raw identifier; it must still lex (as punct soup).
        roundtrip("r#1 r## r");
    }

    #[test]
    fn shebang_line_is_a_comment_only_at_byte_zero() {
        let src = "#!/usr/bin/env run-cargo-script\nfn main() {}\n";
        roundtrip(src);
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokKind::LineComment);
        assert_eq!(toks[0].text(src), "#!/usr/bin/env run-cargo-script");
        // `#![...]` at byte 0 is an inner attribute, not a shebang.
        let attr = "#![allow(dead_code)]\nfn main() {}\n";
        roundtrip(attr);
        assert_eq!(lex(attr)[0].kind, TokKind::Punct);
        // `#!` later in the file is just punctuation.
        let late = "fn f() {}\n#!/not/a/shebang\n";
        roundtrip(late);
        assert!(lex(late).iter().all(|t| t.text(late) != "#!/not/a/shebang"));
    }

    #[test]
    fn unicode_content_round_trips() {
        for src in [
            "let s = \"héllo → 🦀\"; // commentaire ✓",
            "él /* ∆ */ 'λ' r\"Ω\"",
            "\u{0}\u{1}ident\u{7f}",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn pathological_quotes_never_panic() {
        for src in ["'", "''", "'''", "b'", "r#", "r#\"", "\"", "\\", "'\\", "b\"", "br#\"x"] {
            roundtrip(src);
        }
    }
}
