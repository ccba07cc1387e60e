//! Rule **S1** — frozen output-schema drift guard.
//!
//! Several JSON document schemas are public contracts: `titan-obs/3`
//! (metrics documents), `titan-check/1` (per-check verdicts),
//! `titan-obs-replicate/1` (replication bands), `titan-trace/1`
//! (flight-recorder records), `titan-prof/2` (cost-ledger profile
//! documents), and `titan-bench-trajectory/2` (merged perf-snapshot
//! trajectories). Downstream tooling
//! parses them by field name, so a renamed or reordered field is a
//! silent break — the same failure shape as the nvidia-smi DBE counter
//! the paper found undercounting for years.
//!
//! Each schema has a golden spec committed under `crates/xtask/schemas/`
//! (a tiny TOML: schema string, defining file, struct name, ordered
//! top-level field list). S1 reads the defining file and checks that
//! (a) the schema version string literal still appears, (b) the struct
//! still declares exactly the spec'd fields in order, and (c) no *new*
//! `titan-*/N` version literal exists in a guarded file without a spec
//! — so bumping a schema version forces committing a new golden spec in
//! the same change.

use std::collections::BTreeSet;
use std::path::Path;

use crate::lexer::{Tok, TokKind};
use crate::{FileCtx, Finding, Rule};

/// Files whose `titan-*/N` string literals must all be spec'd. Schema
/// strings are only ever *minted* in these files; everywhere else they
/// are compared against, not defined.
pub const S1_FILES: &[&str] = &[
    "crates/bench/src/bin/bench_pr.rs",
    "crates/obs/src/export.rs",
    "crates/obs/src/flight.rs",
    "crates/obs/src/health.rs",
    "crates/obs/src/prof.rs",
    "crates/runner/src/ckpt.rs",
    "crates/runner/src/lib.rs",
    "src/main.rs",
];

/// One golden schema spec, parsed from `crates/xtask/schemas/*.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaSpec {
    /// The frozen version string, e.g. `titan-obs/1`.
    pub schema: String,
    /// Workspace-relative file that defines the document struct.
    pub file: String,
    /// The document struct's name, e.g. `MetricsDoc`.
    pub strukt: String,
    /// Ordered top-level field names.
    pub fields: Vec<String>,
    /// Workspace-relative path of the spec file itself (for findings).
    pub spec_path: String,
}

/// Parses one spec file: `key = "value"` lines plus one
/// `fields = [ ... ]` array (single- or multi-line).
pub fn parse_spec(spec_path: &str, text: &str) -> Result<SchemaSpec, String> {
    let mut schema = None;
    let mut file = None;
    let mut strukt = None;
    let mut fields: Option<Vec<String>> = None;
    let mut in_fields = false;
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if in_fields {
            for part in line.split(',') {
                let part = part.trim().trim_end_matches(']').trim();
                if !part.is_empty() {
                    fields.get_or_insert_with(Vec::new).push(part.trim_matches('"').to_string());
                }
            }
            if line.contains(']') {
                in_fields = false;
            }
            continue;
        }
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| format!("{spec_path}:{}: expected `key = value`", n + 1))?;
        let (k, v) = (k.trim(), v.trim());
        match k {
            "schema" => schema = Some(v.trim_matches('"').to_string()),
            "file" => file = Some(v.trim_matches('"').to_string()),
            "struct" => strukt = Some(v.trim_matches('"').to_string()),
            "fields" => {
                fields = Some(Vec::new());
                let body = v.trim_start_matches('[');
                for part in body.split(',') {
                    let part = part.trim().trim_end_matches(']').trim();
                    if !part.is_empty() {
                        fields.as_mut().unwrap().push(part.trim_matches('"').to_string());
                    }
                }
                in_fields = !v.contains(']');
            }
            other => return Err(format!("{spec_path}:{}: unknown key `{other}`", n + 1)),
        }
    }
    Ok(SchemaSpec {
        schema: schema.ok_or_else(|| format!("{spec_path}: missing `schema`"))?,
        file: file.ok_or_else(|| format!("{spec_path}: missing `file`"))?,
        strukt: strukt.ok_or_else(|| format!("{spec_path}: missing `struct`"))?,
        fields: fields.ok_or_else(|| format!("{spec_path}: missing `fields`"))?,
        spec_path: spec_path.to_string(),
    })
}

/// Loads every spec under `crates/xtask/schemas/`, sorted by file name.
/// A missing directory is an empty spec set (synthetic test workspaces).
pub fn load_specs(root: &Path) -> std::io::Result<(Vec<SchemaSpec>, Vec<Finding>)> {
    let dir = root.join("crates/xtask/schemas");
    let mut specs = Vec::new();
    let mut findings = Vec::new();
    if !dir.is_dir() {
        return Ok((specs, findings));
    }
    let mut paths: Vec<_> = std::fs::read_dir(&dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    for p in paths {
        let rel = format!(
            "crates/xtask/schemas/{}",
            p.file_name().unwrap_or_default().to_string_lossy()
        );
        let text = std::fs::read_to_string(&p)?;
        match parse_spec(&rel, &text) {
            Ok(spec) => specs.push(spec),
            Err(e) => findings.push(Finding {
                file: rel,
                line: 0,
                rule: Rule::S1,
                message: format!("unreadable golden schema spec: {e}"),
                hint: "fix the spec file; see crates/xtask/schemas/ for the format".to_string(),
            }),
        }
    }
    Ok((specs, findings))
}

/// Extracts the ordered top-level field names of `struct name { ... }`
/// from a lexed file. Returns `None` when the struct is not found.
pub fn struct_fields(src: &str, toks: &[Tok], name: &str) -> Option<Vec<String>> {
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.kind.is_trivia()).collect();
    // Find `struct <name>`, skip a generic parameter list if present,
    // and land on the opening `{`. Tuple/unit structs yield None.
    let mut open = None;
    for w in 0..code.len().saturating_sub(2) {
        if code[w].kind == TokKind::Ident
            && code[w].text(src) == "struct"
            && code[w + 1].text(src) == name
        {
            let mut j = w + 2;
            if code.get(j).is_some_and(|t| t.text(src) == "<") {
                let mut adepth = 0usize;
                while j < code.len() {
                    match code[j].text(src) {
                        "<" => adepth += 1,
                        ">" => {
                            adepth -= 1;
                            if adepth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            if code.get(j).is_some_and(|t| t.text(src) == "{") {
                open = Some(j);
            }
            break;
        }
    }
    let open = open?;
    let mut fields = Vec::new();
    let mut depth = 1usize;
    let mut i = open + 1;
    while i < code.len() && depth > 0 {
        let t = code[i];
        let text = t.text(src);
        match text {
            "{" => depth += 1,
            "}" => depth -= 1,
            "#" if depth == 1 && code.get(i + 1).is_some_and(|n| n.text(src) == "[") => {
                // Skip a field attribute `#[...]` (serde renames etc.).
                let mut bdepth = 0usize;
                i += 1;
                while i < code.len() {
                    match code[i].text(src) {
                        "[" => bdepth += 1,
                        "]" => {
                            bdepth -= 1;
                            if bdepth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            _ => {
                // A field name: an identifier at depth 1, directly
                // followed by a single `:` (not `::`), preceded by the
                // opening brace, a comma, `pub`, a `pub(...)` close, or
                // an attribute close — this skips path segments inside
                // field types like `std::collections::BTreeMap`.
                if depth == 1
                    && t.kind == TokKind::Ident
                    && code.get(i + 1).is_some_and(|n| n.text(src) == ":")
                    && code.get(i + 2).is_none_or(|n| n.text(src) != ":")
                {
                    let prev = code[i - 1].text(src);
                    if prev == "{" || prev == "," || prev == "pub" || prev == ")" || prev == "]" {
                        fields.push(text.to_string());
                    }
                }
            }
        }
        i += 1;
    }
    Some(fields)
}

/// True for string literals shaped like a titan schema version:
/// `titan-<name>/<digits>`.
pub fn is_schema_literal(body: &str) -> bool {
    let Some((name, ver)) = body.rsplit_once('/') else {
        return false;
    };
    name.starts_with("titan-")
        && name.len() > "titan-".len()
        && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        && !ver.is_empty()
        && ver.chars().all(|c| c.is_ascii_digit())
}

/// S1 over one swept file: (a) and (b) for every spec whose struct it
/// defines, and (c) when it is a guarded file.
pub(crate) fn check_file(ctx: &FileCtx, specs: &[SchemaSpec]) -> Vec<Finding> {
    let (src, code) = (ctx.src, &ctx.code);
    let mut findings = Vec::new();

    for spec in specs.iter().filter(|s| s.file == ctx.rel) {
        // (a) The frozen version string must still be minted there.
        let needle = format!("\"{}\"", spec.schema);
        let lit = code
            .iter()
            .find(|t| t.kind == TokKind::Str && t.text(src) == needle);
        if lit.is_none() {
            findings.push(Finding {
                file: spec.file.clone(),
                line: 0,
                rule: Rule::S1,
                message: format!(
                    "schema version literal \"{}\" no longer appears in this file",
                    spec.schema
                ),
                hint: format!(
                    "a frozen schema string must not be renamed or moved silently; if the \
                     schema really changed, bump the version and add a new golden spec \
                     next to {}",
                    spec.spec_path
                ),
            });
        }

        // (b) The document struct's top-level fields must match, in order.
        match struct_fields(src, code, &spec.strukt) {
            None => findings.push(Finding {
                file: spec.file.clone(),
                line: 0,
                rule: Rule::S1,
                message: format!(
                    "struct `{}` (schema `{}`) not found in this file",
                    spec.strukt, spec.schema
                ),
                hint: format!("update {} if the struct moved or was renamed", spec.spec_path),
            }),
            Some(actual) if actual != spec.fields => {
                let line = lit.map(|t| t.line).unwrap_or(0);
                findings.push(Finding {
                    file: spec.file.clone(),
                    line,
                    rule: Rule::S1,
                    message: format!(
                        "`{}` fields drifted from the `{}` golden spec: expected [{}], \
                         found [{}]",
                        spec.strukt,
                        spec.schema,
                        spec.fields.join(", "),
                        actual.join(", ")
                    ),
                    hint: "frozen schemas never change shape in place — revert the drift, \
                           or bump the version string and commit a new golden spec"
                        .to_string(),
                });
            }
            Some(_) => {}
        }
    }

    // (c) Every minted `titan-*/N` literal in a guarded file needs a spec.
    if S1_FILES.contains(&ctx.rel) {
        for t in code.iter().filter(|t| t.kind == TokKind::Str) {
            let body = t.text(src).trim_matches('"');
            if is_schema_literal(body) && !specs.iter().any(|s| s.schema == body) {
                findings.push(Finding {
                    file: ctx.rel.to_string(),
                    line: t.line,
                    rule: Rule::S1,
                    message: format!("schema version \"{body}\" has no golden spec"),
                    hint: "add crates/xtask/schemas/<name>-<version>.toml with the \
                           document struct's ordered field list"
                        .to_string(),
                });
            }
        }
    }
    findings
}

/// S1 over the spec'd and guarded files the sweep did not visit: a
/// spec naming a missing file is a finding, a missing guarded file is
/// skipped (synthetic test workspaces don't carry these files), and any
/// other file is read and checked like a swept one.
pub(crate) fn check_unswept(
    root: &Path,
    specs: &[SchemaSpec],
    swept: &BTreeSet<String>,
) -> Vec<Finding> {
    let unswept: BTreeSet<&str> = specs
        .iter()
        .map(|s| s.file.as_str())
        .chain(S1_FILES.iter().copied())
        .filter(|f| !swept.contains(*f))
        .collect();
    let mut findings = Vec::new();
    for rel in unswept {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(src) => findings.extend(check_file(&FileCtx::new(rel, &src), specs)),
            Err(_) => {
                for spec in specs.iter().filter(|s| s.file == rel) {
                    findings.push(Finding {
                        file: spec.spec_path.clone(),
                        line: 0,
                        rule: Rule::S1,
                        message: format!(
                            "golden spec for `{}` points at missing file `{}`",
                            spec.schema, spec.file
                        ),
                        hint: "update the spec's `file` to the struct's new home".to_string(),
                    });
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const SPEC: &str = "# golden\nschema = \"titan-obs/1\"\nfile = \"crates/obs/src/export.rs\"\n\
                        struct = \"MetricsDoc\"\nfields = [\n  \"schema\",\n  \"seed\",\n]\n";

    #[test]
    fn spec_parses_multiline_field_arrays() {
        let spec = parse_spec("s.toml", SPEC).unwrap();
        assert_eq!(spec.schema, "titan-obs/1");
        assert_eq!(spec.strukt, "MetricsDoc");
        assert_eq!(spec.fields, vec!["schema", "seed"]);

        let one_line = "schema = \"titan-x/2\"\nfile = \"f.rs\"\nstruct = \"S\"\n\
                        fields = [\"a\", \"b\", \"c\"]\n";
        let spec = parse_spec("s.toml", one_line).unwrap();
        assert_eq!(spec.fields, vec!["a", "b", "c"]);
    }

    #[test]
    fn struct_fields_reads_top_level_names_in_order() {
        let src = "/// Doc.\npub struct MetricsDoc {\n\
                       /// The schema.\n    pub schema: String,\n\
                       pub seed: u64,\n\
                       #[serde(rename = \"windowDays\")]\n    pub window_days: u64,\n\
                       pub engine: std::collections::BTreeMap<String, u64>,\n\
                       pub nested: Inner<Vec<(u32, u32)>>,\n\
                   }\n\
                   struct Inner<T> { t: T }\n";
        let toks = lex(src);
        let fields = struct_fields(src, &toks, "MetricsDoc").unwrap();
        assert_eq!(fields, vec!["schema", "seed", "window_days", "engine", "nested"]);
        // Private fields (no `pub`) work too — CheckDoc in src/main.rs.
        assert_eq!(struct_fields(src, &toks, "Inner").unwrap(), vec!["t"]);
        assert!(struct_fields(src, &toks, "Absent").is_none());
    }

    #[test]
    fn struct_fields_ignores_methods_in_impl_blocks() {
        let src = "struct D { a: u32 }\nimpl D {\n    fn b(x: u32) -> u32 { x }\n}\n";
        let toks = lex(src);
        assert_eq!(struct_fields(src, &toks, "D").unwrap(), vec!["a"]);
    }

    #[test]
    fn schema_literal_shape() {
        assert!(is_schema_literal("titan-obs/1"));
        assert!(is_schema_literal("titan-obs-replicate/12"));
        assert!(!is_schema_literal("titan-obs"));
        assert!(!is_schema_literal("titan-/1"));
        assert!(!is_schema_literal("obs/1"));
        assert!(!is_schema_literal("titan-Obs/1"));
        assert!(!is_schema_literal("titan-obs/v1"));
    }
}
