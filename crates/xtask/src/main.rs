//! `cargo xtask` — workspace task runner. The one task so far is
//! `lint`, the titan-lint determinism & panic-safety pass (see lib.rs,
//! DETERMINISM.md, and the LINTS.md rule catalog).

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{find_workspace_root, run_lint, Baseline, LintReport, Rule};

const USAGE: &str = "\
usage: cargo xtask <task>

tasks:
  lint [--format text|json|github|sarif] [--out FILE] [--sarif FILE]
       [--update-baseline] [--explain RULE]
        Run the titan-lint pass (rules D1-D6, E1, N1, L1, S1, P2, X1,
        T1) over all workspace crates. Exits 1 on any violation.

        --format json       machine-readable titan-lint/4 document on
                            stdout (byte-stable: sorted findings, sorted
                            maps)
        --format github     GitHub Actions ::error annotations on stdout
        --format sarif      SARIF 2.1.0 log on stdout (what GitHub code
                            scanning ingests; T1 results carry codeFlows)
        --out FILE          always write the titan-lint/4 JSON document
                            to FILE, regardless of --format (the CI
                            artifact), even when the lint fails
        --sarif FILE        always write the SARIF 2.1.0 log to FILE,
                            regardless of --format, even when the lint
                            fails
        --update-baseline   rewrite crates/xtask/lint-baseline.toml with
                            the measured [p2] panic-surface, [n1] cast,
                            [x1] dead-pub, and [t1] taint-path counts
                            (deterministic: sorted keys, trailing
                            newline)
        --explain RULE      print one rule's rationale, source/sink
                            catalog, and escape-hatch recipe, then exit
                            (no scan)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("--help" | "-h" | "help") => {
            eprint!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Github,
    Sarif,
}

fn lint(args: &[String]) -> ExitCode {
    let mut format = Format::Text;
    let mut out_path: Option<PathBuf> = None;
    let mut sarif_path: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                Some("sarif") => format = Format::Sarif,
                Some("text") => format = Format::Text,
                other => {
                    eprintln!(
                        "xtask lint: --format takes `text`, `json`, `github`, or `sarif`, \
                         got {other:?}"
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask lint: --out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--sarif" => match it.next() {
                Some(p) => sarif_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask lint: --sarif needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--update-baseline" => update_baseline = true,
            "--explain" => match it.next() {
                Some(rule) => match xtask::meta::explain(rule) {
                    Some(text) => {
                        print!("{text}");
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        let known: Vec<&str> =
                            xtask::meta::RULE_META.iter().map(|m| m.id).collect();
                        eprintln!(
                            "xtask lint: unknown rule `{rule}` (known: {})",
                            known.join(", ")
                        );
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("xtask lint: --explain needs a rule id (e.g. T1)");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask lint: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    // CARGO_MANIFEST_DIR points at crates/xtask when run via the cargo
    // alias; fall back to the cwd for a bare `./xtask` invocation.
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let Some(root) = find_workspace_root(&start) else {
        eprintln!("xtask lint: no workspace root found above {}", start.display());
        return ExitCode::FAILURE;
    };
    let missing = xtask::symbols::missing_roots(&root);
    if !missing.is_empty() {
        eprintln!(
            "xtask lint: X1 reference root(s) missing under {}: {} (their callers would \
             vanish and the items only they call would read as dead)",
            root.display(),
            missing.join(", ")
        );
        return ExitCode::FAILURE;
    }

    let baseline_path = root.join("crates/xtask/lint-baseline.toml");
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) if update_baseline => {
                // A stale-format file is exactly what --update-baseline
                // exists to replace; start from empty budgets.
                eprintln!("xtask lint: note: replacing unparseable baseline ({e})");
                Baseline::default()
            }
            Err(e) => {
                eprintln!("xtask lint: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => Baseline::default(),
    };

    let report = match run_lint(&root, &baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if update_baseline {
        // Budgets are implicit-zero: clean fns/crates carry no entry.
        let nonzero = |m: &std::collections::BTreeMap<String, usize>| {
            m.iter().filter(|(_, &n)| n > 0).map(|(k, &n)| (k.clone(), n)).collect()
        };
        let new = Baseline {
            p2: nonzero(&report.p2_counts),
            n1: nonzero(&report.n1_counts),
            x1: nonzero(&report.x1_counts),
            t1: nonzero(&report.t1_counts),
        };
        for (section, old_map, new_map) in [
            ("p2", &baseline.p2, &new.p2),
            ("n1", &baseline.n1, &new.n1),
            ("x1", &baseline.x1, &new.x1),
            ("t1", &baseline.t1, &new.t1),
        ] {
            for (name, &count) in new_map {
                if let Some(&old) = old_map.get(name) {
                    if count > old {
                        eprintln!(
                            "xtask lint: warning: raising [{section}] `{name}` {old} -> \
                             {count}; the ratchet is meant to go down"
                        );
                    }
                }
            }
        }
        if let Err(e) = std::fs::write(&baseline_path, new.render()) {
            eprintln!("xtask lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("xtask lint: wrote {}", baseline_path.display());
    }

    // With a fresh baseline, ratchet findings from this run are stale;
    // the token-rule and structural findings still stand.
    let shown = LintReport {
        findings: if update_baseline {
            report
                .findings
                .iter()
                .filter(|f| {
                    f.rule != Rule::P2
                        && f.rule != Rule::N1
                        && f.rule != Rule::X1
                        && f.rule != Rule::T1
                })
                .cloned()
                .collect()
        } else {
            report.findings.clone()
        },
        notes: report.notes.clone(),
        p2_counts: report.p2_counts.clone(),
        n1_counts: report.n1_counts.clone(),
        n1_sites: report.n1_sites.clone(),
        x1_counts: report.x1_counts.clone(),
        x1_sites: report.x1_sites.clone(),
        t1_counts: report.t1_counts.clone(),
        t1_paths: report.t1_paths.clone(),
        files_scanned: report.files_scanned,
    };

    // The JSON and SARIF artifacts are written unconditionally and
    // before the exit path, so CI can upload findings from a failing
    // run.
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, xtask::render_json(&shown)) {
            eprintln!("xtask lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &sarif_path {
        if let Err(e) = std::fs::write(path, xtask::render_sarif(&shown)) {
            eprintln!("xtask lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    match format {
        Format::Json => print!("{}", xtask::render_json(&shown)),
        Format::Github => print!("{}", xtask::render_github(&shown)),
        Format::Sarif => print!("{}", xtask::render_sarif(&shown)),
        Format::Text => {
            for f in &shown.findings {
                println!("{f}");
            }
            for note in &shown.notes {
                eprintln!("note: {note}");
            }
            eprintln!(
                "xtask lint: {} file(s) scanned, {} violation(s)",
                shown.files_scanned,
                shown.findings.len()
            );
        }
    }

    if shown.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
