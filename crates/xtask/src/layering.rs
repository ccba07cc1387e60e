//! Rule **L1** — the crate layering contract.
//!
//! The engine crates are the part of the workspace whose output must be
//! byte-identical for a given seed. A dependency edge from an engine
//! crate to the runner, the bench harness, or the CLI would let host
//! state (thread pools, wall clocks, argv) flow back into the
//! simulation, and an edge between engine crates outside the declared
//! DAG hides exactly the kind of cross-layer coupling that made Titan's
//! nvidia-smi DBE counts untrustworthy. L1 parses every
//! `crates/*/Cargo.toml` (plus the root façade manifest), rebuilds the
//! dependency graph, and checks it against [`LAYERS`], the committed
//! DAG (drawn in DETERMINISM.md).
//!
//! Only `[dependencies]` edges count: dev-dependencies are test-only
//! and may reach anywhere.

use std::collections::BTreeMap;
use std::path::Path;

use crate::{Finding, Rule, ENGINE_CRATE_DIRS};

/// The layering contract: crate dir → titan crate dirs it may list in
/// `[dependencies]`. Vendored stubs (serde, rand, bytes, ...) are not
/// constrained except `rayon`, which is banned from engine crates
/// outright (the manifest-level mirror of rule D4).
///
/// Leaf → root order; DETERMINISM.md renders the same table as a
/// diagram. `check_layering` verifies this table stays acyclic, so a
/// future edit cannot quietly legalize a cycle.
pub const LAYERS: &[(&str, &[&str])] = &[
    ("stats", &[]),
    ("topology", &[]),
    ("gpu", &[]),
    ("conlog", &["stats", "topology", "gpu"]),
    ("nvsmi", &["topology", "gpu"]),
    ("obs", &["conlog"]),
    ("workload", &["stats", "topology", "conlog"]),
    ("faults", &["stats", "topology", "gpu", "conlog"]),
    (
        "simulator",
        &["stats", "topology", "gpu", "faults", "workload", "conlog", "nvsmi", "obs"],
    ),
    ("analysis", &["stats", "topology", "gpu", "conlog", "nvsmi"]),
    (
        "core",
        &[
            "stats", "topology", "gpu", "faults", "workload", "simulator", "conlog", "nvsmi",
            "obs", "analysis",
        ],
    ),
    ("runner", &["core", "simulator", "stats", "conlog", "nvsmi", "obs"]),
    ("bench", &["core", "simulator", "runner"]),
    // Build tooling: std-only by contract, and nothing depends on it.
    ("xtask", &[]),
];

/// One parsed crate manifest.
#[derive(Debug, Clone)]
pub struct CrateManifest {
    /// Directory name under `crates/` (`simulator`, `faults`, ...), or
    /// `.` for the root façade.
    pub dir: String,
    /// `[package] name` (`titan-sim`, ...).
    pub package: String,
    /// Manifest path relative to the workspace root.
    pub rel_path: String,
    /// `[dependencies]` package names with their 1-based manifest line.
    pub deps: Vec<(String, usize)>,
}

/// Parses one Cargo.toml: package name plus `[dependencies]` entries.
/// Dev-dependencies, build-dependencies, lints, and target tables are
/// all skipped.
pub fn parse_manifest(dir: &str, rel_path: &str, text: &str) -> CrateManifest {
    let mut package = String::new();
    let mut deps = Vec::new();
    #[derive(PartialEq)]
    enum Section {
        Package,
        Deps,
        Other,
    }
    let mut section = Section::Other;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = match line {
                "[package]" => Section::Package,
                "[dependencies]" => Section::Deps,
                _ => Section::Other,
            };
            continue;
        }
        match section {
            Section::Package => {
                if let Some(rest) = line.strip_prefix("name") {
                    if let Some(v) = rest.trim_start().strip_prefix('=') {
                        package = v.trim().trim_matches('"').to_string();
                    }
                }
            }
            Section::Deps => {
                if let Some((name, _)) = line.split_once('=') {
                    deps.push((name.trim().trim_matches('"').to_string(), i + 1));
                }
            }
            Section::Other => {}
        }
    }
    CrateManifest {
        dir: dir.to_string(),
        package,
        rel_path: rel_path.to_string(),
        deps,
    }
}

/// Reads every `crates/*/Cargo.toml` plus the root façade manifest,
/// sorted by directory for deterministic finding order.
pub fn read_manifests(root: &Path) -> std::io::Result<Vec<CrateManifest>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    for dir in dirs {
        let dirname = dir.file_name().unwrap_or_default().to_string_lossy().to_string();
        let rel = format!("crates/{dirname}/Cargo.toml");
        let text = std::fs::read_to_string(dir.join("Cargo.toml"))?;
        out.push(parse_manifest(&dirname, &rel, &text));
    }
    // The root façade manifest also declares [dependencies]; parse it
    // so its package name resolves, even though the façade itself may
    // depend on everything.
    if root.join("src").is_dir() {
        if let Ok(text) = std::fs::read_to_string(root.join("Cargo.toml")) {
            out.push(parse_manifest(".", "Cargo.toml", &text));
        }
    }
    Ok(out)
}

/// Checks the parsed manifests against [`LAYERS`]. Returns L1 findings.
pub fn check_layering(manifests: &[CrateManifest]) -> Vec<Finding> {
    let mut findings = Vec::new();

    // The committed table itself must be a DAG: walk LAYERS in order
    // and require every allowed dep to be declared *earlier* (the table
    // is written leaf → root). This makes a cycle impossible by
    // construction and catches a bad future edit at lint time.
    let mut declared: Vec<&str> = Vec::new();
    for (dir, allowed) in LAYERS {
        for dep in *allowed {
            if !declared.contains(dep) {
                findings.push(Finding {
                    file: "crates/xtask/src/layering.rs".to_string(),
                    line: 0,
                    rule: Rule::L1,
                    message: format!(
                        "LAYERS is not in leaf→root order: `{dir}` allows `{dep}` before \
                         `{dep}` is declared — the table must stay an explicit DAG"
                    ),
                    hint: "reorder LAYERS so every allowed dependency appears above its \
                           dependents"
                        .to_string(),
                });
            }
        }
        declared.push(dir);
    }

    // Package name → crate dir, for resolving `titan-*` dep edges.
    let pkg_to_dir: BTreeMap<&str, &str> = manifests
        .iter()
        .filter(|m| !m.package.is_empty())
        .map(|m| (m.package.as_str(), m.dir.as_str()))
        .collect();

    for m in manifests {
        if m.dir == "." {
            continue; // the root façade (CLI) may depend on any crate
        }
        let Some((_, allowed)) = LAYERS.iter().find(|(d, _)| *d == m.dir) else {
            findings.push(Finding {
                file: m.rel_path.clone(),
                line: 0,
                rule: Rule::L1,
                message: format!(
                    "crate dir `{}` has no entry in the layering contract", m.dir
                ),
                hint: "add it to LAYERS in crates/xtask/src/layering.rs and to the DAG \
                       diagram in DETERMINISM.md"
                    .to_string(),
            });
            continue;
        };
        let engine = ENGINE_CRATE_DIRS.contains(&m.dir.as_str());
        for (dep, line) in &m.deps {
            if dep == "rayon" && engine {
                findings.push(Finding {
                    file: m.rel_path.clone(),
                    line: *line,
                    rule: Rule::L1,
                    message: format!(
                        "engine crate `{}` lists rayon in [dependencies]", m.dir
                    ),
                    hint: "engine crates must stay single-threaded (see D4); fan out whole \
                           runs via titan-runner instead"
                        .to_string(),
                });
                continue;
            }
            let Some(dep_dir) = pkg_to_dir.get(dep.as_str()) else {
                continue; // vendored stub (serde, rand, ...) — unconstrained
            };
            if *dep_dir == "." {
                findings.push(Finding {
                    file: m.rel_path.clone(),
                    line: *line,
                    rule: Rule::L1,
                    message: format!(
                        "crate `{}` depends on the root façade package `{dep}`", m.dir
                    ),
                    hint: "the CLI sits above every crate; invert the dependency".to_string(),
                });
                continue;
            }
            if !allowed.contains(dep_dir) {
                findings.push(Finding {
                    file: m.rel_path.clone(),
                    line: *line,
                    rule: Rule::L1,
                    message: format!(
                        "layering violation: `{}` depends on `{dep}` (crates/{dep_dir}), \
                         which the declared DAG forbids",
                        m.dir
                    ),
                    hint: "route the data through an allowed layer, or (for a genuine new \
                           edge) extend LAYERS and the DETERMINISM.md diagram in the same \
                           change"
                        .to_string(),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(dir: &str, package: &str, deps: &[&str]) -> CrateManifest {
        CrateManifest {
            dir: dir.to_string(),
            package: package.to_string(),
            rel_path: format!("crates/{dir}/Cargo.toml"),
            deps: deps.iter().enumerate().map(|(i, d)| (d.to_string(), i + 1)).collect(),
        }
    }

    #[test]
    fn committed_layers_table_is_a_dag() {
        assert!(check_layering(&[]).is_empty(), "LAYERS itself must verify");
    }

    #[test]
    fn parse_manifest_reads_only_dependencies() {
        let text = "[package]\nname = \"titan-faults\"\n\n[dependencies]\n\
                    titan-stats = { workspace = true }\nserde = { workspace = true }\n\n\
                    [dev-dependencies]\ntitan-runner = { workspace = true }\n\n\
                    [lints]\nworkspace = true\n";
        let m = parse_manifest("faults", "crates/faults/Cargo.toml", text);
        assert_eq!(m.package, "titan-faults");
        let names: Vec<&str> = m.deps.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(names, vec!["titan-stats", "serde"], "dev-deps must not count");
    }

    #[test]
    fn forbidden_edge_is_flagged_with_manifest_line() {
        let ms = vec![
            manifest("stats", "titan-stats", &[]),
            manifest("runner", "titan-runner", &[]),
            manifest("simulator", "titan-sim", &["titan-stats", "titan-runner"]),
        ];
        let found = check_layering(&ms);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, Rule::L1);
        assert_eq!(found[0].file, "crates/simulator/Cargo.toml");
        assert_eq!(found[0].line, 2);
        assert!(found[0].message.contains("titan-runner"));
    }

    #[test]
    fn engine_crates_may_not_list_rayon() {
        let ms = vec![manifest("faults", "titan-faults", &["rayon"])];
        let found = check_layering(&ms);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("rayon"));

        // The analysis side may.
        let ms = vec![manifest("analysis", "titan-analysis", &["rayon"])];
        assert!(check_layering(&ms).is_empty());
    }

    #[test]
    fn unknown_crate_dir_requires_a_layers_entry() {
        let ms = vec![manifest("newthing", "titan-newthing", &[])];
        let found = check_layering(&ms);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("no entry in the layering contract"));
    }

    #[test]
    fn engine_to_engine_edges_follow_the_dag() {
        // obs → conlog is a declared edge; conlog → obs is not.
        let ms = vec![
            manifest("conlog", "titan-conlog", &[]),
            manifest("obs", "titan-obs", &["titan-conlog"]),
        ];
        assert!(check_layering(&ms).is_empty());

        let ms = vec![
            manifest("conlog", "titan-conlog", &["titan-obs"]),
            manifest("obs", "titan-obs", &[]),
        ];
        let found = check_layering(&ms);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("declared DAG forbids"));
    }
}
