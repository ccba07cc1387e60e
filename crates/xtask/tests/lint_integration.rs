//! End-to-end tests for `cargo xtask lint`: injected violations into
//! synthetic workspaces under CARGO_TARGET_TMPDIR must be found, clean
//! trees must pass, the per-function P2 / per-crate N1 / per-crate X1
//! ratchets must hold, and the committed golden fixtures under
//! `tests/fixtures/` pin one hit and one non-hit per structural rule.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::{check_p2_baseline, run_lint, Baseline, Finding, Rule};

fn mkdirs(p: &Path) {
    fs::create_dir_all(p).expect("mkdir");
}

/// Lays out a minimal workspace: root Cargo.toml with [workspace], one
/// sim-scope crate (`simulator`) and one analysis-scope crate (`stats`).
fn scaffold(name: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clean slate");
    }
    for krate in ["simulator", "stats"] {
        mkdirs(&root.join("crates").join(krate).join("src"));
        fs::write(
            root.join("crates").join(krate).join("Cargo.toml"),
            format!("[package]\nname = \"{krate}\"\n"),
        )
        .unwrap();
        fs::write(
            root.join("crates").join(krate).join("src/lib.rs"),
            "pub fn ok() {}\n",
        )
        .unwrap();
    }
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .unwrap();
    root
}

/// The committed golden fixture workspaces.
fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint(root: &Path, baseline: &Baseline) -> Vec<(Rule, String)> {
    run_lint(root, baseline)
        .expect("scan")
        .findings
        .into_iter()
        .map(|f| (f.rule, format!("{}:{}", f.file, f.line)))
        .collect()
}

#[test]
fn clean_workspace_passes() {
    let root = scaffold("lint_clean");
    assert!(lint(&root, &Baseline::default()).is_empty());
}

#[test]
fn injected_d1_violation_fails_in_sim_crate_only() {
    let root = scaffold("lint_d1");
    let src = "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n";
    fs::write(root.join("crates/simulator/src/clock.rs"), src).unwrap();
    let found = lint(&root, &Baseline::default());
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].0, Rule::D1);
    assert!(found[0].1.ends_with("clock.rs:1"), "got {}", found[0].1);

    // The same code in the analysis-scope crate is allowed: stats may
    // time itself, the simulation may not.
    let root2 = scaffold("lint_d1_stats");
    fs::write(root2.join("crates/stats/src/clock.rs"), src).unwrap();
    assert!(lint(&root2, &Baseline::default()).is_empty());
}

#[test]
fn injected_d2_violation_fails_unless_justified() {
    let root = scaffold("lint_d2");
    fs::write(
        root.join("crates/simulator/src/state.rs"),
        "use std::collections::HashMap;\npub struct S { m: HashMap<u32, u32> }\n",
    )
    .unwrap();
    let found = lint(&root, &Baseline::default());
    assert_eq!(found.iter().filter(|(r, _)| *r == Rule::D2).count(), 2);

    // The escape hatch silences it.
    fs::write(
        root.join("crates/simulator/src/state.rs"),
        "use std::collections::HashMap; // lint: sorted-iter\n\
         // lint: sorted-iter — get-only cache, never iterated\n\
         pub struct S { m: HashMap<u32, u32> }\n",
    )
    .unwrap();
    assert!(lint(&root, &Baseline::default()).is_empty());
}

/// The hatch fix pinned: a comment-only hatch line reaches across
/// blank/comment lines to the next *code* line — and a hatch already
/// consumed by one code line does not leak onto the next.
#[test]
fn hatch_attaches_to_the_next_code_line_only() {
    let root = scaffold("lint_hatch_detach");
    fs::write(
        root.join("crates/simulator/src/state.rs"),
        "// lint: sorted-iter\n\
         \n\
         // iterated only under a collected-and-sorted view\n\
         pub struct S { m: std::collections::HashMap<u32, u32> }\n",
    )
    .unwrap();
    assert!(
        lint(&root, &Baseline::default()).is_empty(),
        "a hatch must carry across blank and comment lines"
    );

    fs::write(
        root.join("crates/simulator/src/state.rs"),
        "pub struct A { m: std::collections::HashMap<u32, u32> } // lint: sorted-iter\n\
         pub struct B { m: std::collections::HashMap<u32, u32> }\n",
    )
    .unwrap();
    let found = lint(&root, &Baseline::default());
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, Rule::D2);
    assert!(found[0].1.ends_with("state.rs:2"), "got {}", found[0].1);
}

#[test]
fn injected_d3_violation_fails_in_any_crate() {
    let root = scaffold("lint_d3");
    fs::write(
        root.join("crates/stats/src/sortit.rs"),
        "pub fn s(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
    )
    .unwrap();
    // Budget the unwrap so only the D3 fires — the comparator is the
    // defect here, not the panic count.
    let mut b = Baseline::default();
    b.p2.insert("stats::sortit::s".into(), 1);
    let found = lint(&root, &b);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, Rule::D3);
}

#[test]
fn p2_budget_ratchets_per_function() {
    let root = scaffold("lint_p2");
    fs::write(
        root.join("crates/stats/src/risky.rs"),
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\npub fn g() -> u32 { 1 }\n",
    )
    .unwrap();

    // Implicit zero budget: the new unwrap is a regression, attributed
    // to the *function*, not the crate.
    let report = run_lint(&root, &Baseline::default()).expect("scan");
    let p2: Vec<&Finding> = report.findings.iter().filter(|f| f.rule == Rule::P2).collect();
    assert_eq!(p2.len(), 1, "{:?}", report.findings);
    assert!(p2[0].message.contains("stats::risky::f"), "{}", p2[0].message);
    assert_eq!(report.p2_counts.get("stats::risky::f"), Some(&1));
    assert_eq!(report.p2_counts.get("stats::risky::g"), None, "clean fns carry no entry");

    // A budget covering exactly that fn passes.
    let mut b = Baseline::default();
    b.p2.insert("stats::risky::f".into(), 1);
    assert!(lint(&root, &b).is_empty());

    // A second unwrap in a *different* fn still regresses — the crate
    // total is not the unit any more.
    fs::write(
        root.join("crates/stats/src/risky.rs"),
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
         pub fn g() -> u32 { \"1\".parse().unwrap() }\n",
    )
    .unwrap();
    let found = lint(&root, &b);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, Rule::P2);

    // Fixing f leaves a stale-entry note; re-rendering the measured
    // counts (what --update-baseline writes) drops the entry and then
    // rejects a reintroduction.
    fs::write(
        root.join("crates/stats/src/risky.rs"),
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\npub fn g() -> u32 { 1 }\n",
    )
    .unwrap();
    let report = run_lint(&root, &b).expect("scan");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.notes.len(), 1, "{:?}", report.notes);
    assert!(report.notes[0].contains("--update-baseline"));
    let updated = Baseline {
        p2: report.p2_counts.clone(),
        n1: report.n1_counts.clone(),
        x1: report.x1_counts.clone(),
        t1: report.t1_counts.clone(),
    };
    let reparsed = Baseline::parse(&updated.render()).unwrap();
    assert!(reparsed.p2.is_empty(), "zero-count fns must drop out of [p2]");
    let mut counts = std::collections::BTreeMap::new();
    counts.insert("stats::risky::f".to_string(), 1);
    let (regressions, _) = check_p2_baseline(&reparsed, &counts);
    assert_eq!(regressions.len(), 1);
}

#[test]
fn injected_d4_violation_fails_in_engine_crate_only() {
    let root = scaffold("lint_d4");
    let src = "pub fn go() { rayon::join(|| 1, || 2); }\n";
    fs::write(root.join("crates/simulator/src/par.rs"), src).unwrap();
    let found = lint(&root, &Baseline::default());
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].0, Rule::D4);
    assert!(found[0].1.ends_with("par.rs:1"), "got {}", found[0].1);

    // The same code outside the engine scope (stats) is fine: the
    // analysis side may fan out.
    let root2 = scaffold("lint_d4_stats");
    fs::write(root2.join("crates/stats/src/par.rs"), src).unwrap();
    assert!(lint(&root2, &Baseline::default()).is_empty());
}

/// The satellite guarantee: the *real* engine crates (the simulator and
/// everything it builds on) contain no thread-pool or raw-thread call
/// outside test code — `Simulator::run` cannot reach a thread. The
/// whole-tree lint above CI enforces the same thing; this pins it from
/// the test suite so a green `cargo test` implies it too.
#[test]
fn real_engine_crates_have_no_threading() {
    let root = xtask::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let baseline_text =
        fs::read_to_string(root.join("crates/xtask/lint-baseline.toml")).expect("baseline");
    let baseline = Baseline::parse(&baseline_text).expect("parse baseline");
    let report = run_lint(&root, &baseline).expect("scan");
    let d4: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::D4)
        .map(|f| format!("{}:{}", f.file, f.line))
        .collect();
    assert!(d4.is_empty(), "threading inside engine crates: {d4:?}");
}

#[test]
fn injected_d5_violation_fails_in_engine_crate_only() {
    let root = scaffold("lint_d5");
    // A stored Duration — no `::now()` call, so D1 cannot see it; the
    // wall-clock *type* leaking into engine state is D5's job.
    let src = "pub fn t(d: std::time::Duration) -> u64 { d.as_secs() }\n";
    fs::write(root.join("crates/simulator/src/meter.rs"), src).unwrap();
    let found = lint(&root, &Baseline::default());
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].0, Rule::D5);
    assert!(found[0].1.ends_with("meter.rs:1"), "got {}", found[0].1);

    // The same code in the analysis-scope crate is allowed: profiling
    // wall time is exactly what the bench/CLI side does.
    let root2 = scaffold("lint_d5_stats");
    fs::write(root2.join("crates/stats/src/meter.rs"), src).unwrap();
    assert!(lint(&root2, &Baseline::default()).is_empty());
}

/// The satellite guarantee for PR 3: the *real* engine crates
/// (simulator, faults, gpu, workload, topology, conlog, nvsmi, obs)
/// record telemetry only through the sim-time titan-obs API — no
/// wall-clock types or readings anywhere in their non-test code, so
/// every metrics document is byte-identical across thread widths.
#[test]
fn real_engine_crates_record_only_sim_time_telemetry() {
    let root = xtask::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let baseline_text =
        fs::read_to_string(root.join("crates/xtask/lint-baseline.toml")).expect("baseline");
    let baseline = Baseline::parse(&baseline_text).expect("parse baseline");
    let report = run_lint(&root, &baseline).expect("scan");
    let wall_clock: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::D5 || f.rule == Rule::D1)
        .map(|f| format!("{}:{}: [{}]", f.file, f.line, f.rule))
        .collect();
    assert!(
        wall_clock.is_empty(),
        "wall-clock telemetry inside engine crates: {wall_clock:?}"
    );
}

/// The v2 acceptance fixture: every banned token spelled inside a
/// string literal, raw string, char literal, line comment, doc
/// comment, or (nested) block comment. The v1 substring scanner
/// flagged several of these; the token-aware scanner must flag none.
#[test]
fn tokens_inside_strings_and_comments_do_not_flag() {
    let root = scaffold("lint_fixture_strings");
    fs::write(
        root.join("crates/simulator/src/fixture.rs"),
        "//! Discusses Instant::now(), thread_rng(), and std::thread freely.\n\
         /// A HashMap would break replay; so would SystemTime::now().\n\
         // rayon, into_par_iter, scope_map( — all banned: see DETERMINISM.md\n\
         /* block comment: Instant /* nested: HashSet */ still comment */\n\
         pub const WHY: &str = \"never call Instant::now() or thread_rng()\";\n\
         pub const RAW: &str = r#\"std::thread::spawn(|| {}) in a raw string\"#;\n\
         pub const QUOTE: char = '\"';\n\
         pub struct Instantaneous; // identifier *containing* a banned name\n\
         pub fn from_entropy_docs() {} // same, for from_entropy\n",
    )
    .unwrap();
    let found = lint(&root, &Baseline::default());
    assert!(found.is_empty(), "false positives: {found:?}");
}

#[test]
fn injected_n1_cast_ratchets_and_hatch_silences() {
    let root = scaffold("lint_n1");
    fs::write(
        root.join("crates/simulator/src/cast.rs"),
        "pub fn f(x: u64) -> u32 { x as u32 }\n",
    )
    .unwrap();
    // No [n1] entry: implicit zero budget, the new cast is a regression.
    let found = lint(&root, &Baseline::default());
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, Rule::N1);

    // A budget covering it passes.
    let mut b = Baseline::default();
    b.n1.insert("simulator".into(), 1);
    assert!(lint(&root, &b).is_empty());

    // So does the allow hatch, against the zero budget.
    fs::write(
        root.join("crates/simulator/src/cast.rs"),
        "// lint: allow(N1, x is a node index < 18,688)\n\
         pub fn f(x: u64) -> u32 { x as u32 }\n",
    )
    .unwrap();
    assert!(lint(&root, &Baseline::default()).is_empty());

    // The same cast in an analysis-scope crate never counts.
    let root2 = scaffold("lint_n1_stats");
    fs::write(
        root2.join("crates/stats/src/cast.rs"),
        "pub fn f(x: u64) -> u32 { x as u32 }\n",
    )
    .unwrap();
    assert!(lint(&root2, &Baseline::default()).is_empty());
}

#[test]
fn injected_l1_layering_violation_fails() {
    let root = scaffold("lint_l1");
    // stats sits below the engine: depending on the simulator inverts
    // the declared DAG.
    fs::write(
        root.join("crates/stats/Cargo.toml"),
        "[package]\nname = \"stats\"\n\n[dependencies]\n\
         simulator = { path = \"../simulator\" }\n",
    )
    .unwrap();
    let found = lint(&root, &Baseline::default());
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, Rule::L1);
    assert!(found[0].1.starts_with("crates/stats/Cargo.toml:"), "got {}", found[0].1);

    // A dev-dependency on the same crate is fine: tests may reach up.
    fs::write(
        root.join("crates/stats/Cargo.toml"),
        "[package]\nname = \"stats\"\n\n[dev-dependencies]\n\
         simulator = { path = \"../simulator\" }\n",
    )
    .unwrap();
    assert!(lint(&root, &Baseline::default()).is_empty());
}

#[test]
fn engine_manifest_listing_rayon_is_an_l1_violation() {
    let root = scaffold("lint_l1_rayon");
    fs::write(
        root.join("crates/simulator/Cargo.toml"),
        "[package]\nname = \"simulator\"\n\n[dependencies]\nrayon = \"1\"\n",
    )
    .unwrap();
    let found = lint(&root, &Baseline::default());
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, Rule::L1);
}

#[test]
fn s1_unspecced_schema_literal_and_field_drift_fail() {
    let root = scaffold("lint_s1");
    // A root façade minting a schema version: S1 guards src/main.rs.
    mkdirs(&root.join("src"));
    fs::write(
        root.join("src/main.rs"),
        "struct FooDoc { schema: String, count: u64 }\n\
         fn main() { let _ = (\"titan-foo/1\", FooDoc { schema: String::new(), count: 0 }); }\n",
    )
    .unwrap();

    // No golden spec for titan-foo/1: the minted literal is flagged.
    let found = lint(&root, &Baseline::default());
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, Rule::S1);
    assert!(found[0].1.starts_with("src/main.rs:"), "got {}", found[0].1);

    // With a matching spec the tree is clean...
    mkdirs(&root.join("crates/xtask/schemas"));
    fs::write(
        root.join("crates/xtask/schemas/titan-foo-1.toml"),
        "schema = \"titan-foo/1\"\nfile = \"src/main.rs\"\nstruct = \"FooDoc\"\n\
         fields = [\"schema\", \"count\"]\n",
    )
    .unwrap();
    assert!(lint(&root, &Baseline::default()).is_empty());

    // ...until the struct drifts (field renamed without a version bump).
    fs::write(
        root.join("src/main.rs"),
        "struct FooDoc { schema: String, total: u64 }\n\
         fn main() { let _ = (\"titan-foo/1\", FooDoc { schema: String::new(), total: 0 }); }\n",
    )
    .unwrap();
    let found = lint(&root, &Baseline::default());
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, Rule::S1);
}

/// Specs naming files the per-file sweep never visits: a missing file
/// is reported at the spec, and a file outside the crates' `src/` trees
/// is still read and checked.
#[test]
fn s1_checks_spec_files_outside_the_sweep() {
    let root = scaffold("lint_s1_unswept");
    mkdirs(&root.join("crates/xtask/schemas"));
    mkdirs(&root.join("tools"));
    fs::write(
        root.join("crates/xtask/schemas/titan-gone-1.toml"),
        "schema = \"titan-gone/1\"\nfile = \"crates/gone/src/lib.rs\"\nstruct = \"GoneDoc\"\n\
         fields = [\"schema\"]\n",
    )
    .unwrap();
    fs::write(
        root.join("crates/xtask/schemas/titan-tool-1.toml"),
        "schema = \"titan-tool/1\"\nfile = \"tools/doc.rs\"\nstruct = \"ToolDoc\"\n\
         fields = [\"schema\", \"count\"]\n",
    )
    .unwrap();
    fs::write(
        root.join("tools/doc.rs"),
        "const V: &str = \"titan-tool/1\";\nstruct ToolDoc { schema: String, total: u64 }\n",
    )
    .unwrap();
    let found = lint(&root, &Baseline::default());
    assert_eq!(
        found,
        vec![
            (Rule::S1, "crates/xtask/schemas/titan-gone-1.toml:0".to_string()),
            (Rule::S1, "tools/doc.rs:1".to_string()),
        ]
    );
}

/// The real tree satisfies the layering contract and the golden
/// schemas: the committed LAYERS table matches every manifest, and the
/// frozen document schemas match their specs.
#[test]
fn real_tree_layering_and_schemas_are_clean() {
    let root = xtask::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let baseline_text =
        fs::read_to_string(root.join("crates/xtask/lint-baseline.toml")).expect("baseline");
    let baseline = Baseline::parse(&baseline_text).expect("parse baseline");
    let report = run_lint(&root, &baseline).expect("scan");
    let structural: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::L1 || f.rule == Rule::S1)
        .map(|f| format!("{f}"))
        .collect();
    assert!(structural.is_empty(), "layering/schema violations: {structural:?}");
    // The golden specs themselves must have loaded (an empty schemas
    // dir would pass vacuously).
    let (specs, spec_errs) = xtask::schema::load_specs(&root).expect("specs");
    assert!(spec_errs.is_empty(), "unreadable specs: {spec_errs:?}");
    let mut names: Vec<&str> = specs.iter().map(|s| s.schema.as_str()).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "titan-bench-trajectory/2",
            "titan-check/1",
            "titan-ckpt/3",
            "titan-health/1",
            "titan-obs-replicate/1",
            "titan-obs/3",
            "titan-prof/2",
            "titan-trace/1",
        ],
        "golden specs missing from crates/xtask/schemas/"
    );
}

// --- golden fixtures, one per structural rule ------------------------------

#[test]
fn p2_fixture_attributes_hits_and_skips_non_hits() {
    let report = run_lint(&fixture("p2"), &Baseline::default()).expect("scan");
    assert_eq!(
        report.p2_counts.get("titan_stats::risky"),
        Some(&2),
        "unwrap + indexing: {:?}",
        report.p2_counts
    );
    assert_eq!(
        report.p2_counts.get("titan_stats::outer"),
        Some(&1),
        "the nested #[cfg(test)] helper's unwrap is test code: {:?}",
        report.p2_counts
    );
    assert!(
        report.p2_counts.keys().all(|k| !k.contains("hatched") && !k.contains("tests")),
        "hatched and test fns must stay off the budget: {:?}",
        report.p2_counts
    );
    let rules: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec![Rule::P2, Rule::P2], "{:?}", report.findings);

    let mut b = Baseline::default();
    b.p2.insert("titan_stats::risky".into(), 2);
    b.p2.insert("titan_stats::outer".into(), 1);
    let clean = run_lint(&fixture("p2"), &b).expect("scan");
    assert!(clean.findings.is_empty(), "{:?}", clean.findings);
}

#[test]
fn e1_fixture_flags_all_three_legs() {
    let report = run_lint(&fixture("e1"), &Baseline::default()).expect("scan");
    let e1: Vec<&Finding> = report.findings.iter().filter(|f| f.rule == Rule::E1).collect();
    assert_eq!(e1.len(), 4, "{:?}", report.findings);
    assert!(e1.iter().all(|f| f.file == "crates/simulator/src/lib.rs"));
    assert!(e1.iter().any(|f| f.message.contains("`let _ = ...`")), "{e1:?}");
    assert!(e1.iter().any(|f| f.message.contains("bare `.ok();`")), "{e1:?}");
    assert!(
        e1.iter().any(|f| f.message.contains("#[must_use] sim API `inject`")),
        "{e1:?}"
    );
    // In `nested`, the live discard (line 38) is a hit; the one in its
    // #[cfg(test)] helper (line 36) is not.
    let lines: Vec<usize> = e1.iter().map(|f| f.line).collect();
    assert!(lines.contains(&38) && !lines.contains(&36), "{lines:?}");
    // The non_hits fn contributes nothing, and no other rule fires.
    assert_eq!(report.findings.len(), 4, "{:?}", report.findings);
}

#[test]
fn d6_fixture_flags_comparator_and_drop_draws_only() {
    let report = run_lint(&fixture("d6"), &Baseline::default()).expect("scan");
    let msgs: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::D6)
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(msgs.len(), 3, "{:?}", report.findings);
    assert!(msgs.iter().any(|m| m.contains("`sort_by_key` closure")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("`retain` closure")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("`Drop` impl")), "{msgs:?}");
    // The draw-before-sort and the hatched retain in non_hit stay
    // silent, and no other rule fires.
    assert_eq!(report.findings.len(), 3, "{:?}", report.findings);
}

#[test]
fn x1_fixture_finds_dead_pubs_across_the_reference_graph() {
    let report = run_lint(&fixture("x1"), &Baseline::default()).expect("scan");
    assert_eq!(report.x1_counts.get("titan-stats"), Some(&2), "{:?}", report.x1_sites);
    assert_eq!(report.x1_counts.get("titan-faults"), Some(&3), "{:?}", report.x1_sites);
    let paths: Vec<&str> = report.x1_sites.iter().map(|s| s.path.as_str()).collect();
    assert_eq!(
        paths,
        vec![
            "titan_faults::mtbf",
            "titan_faults::dead_report",
            "titan_faults::test_only_scale",
            "titan_stats::orphan_quantile",
            "titan_stats::inner::reexported_only",
        ],
        "a `tests/` caller, a `#[cfg(test)]` caller and a `pub use` are no references; \
         mean is kept alive by its dependent, bench_probe by e2e-bench/src, example_entry \
         by an example, cli_entry by a binary, hatched_api by its hatch"
    );
    let x1: Vec<&Finding> = report.findings.iter().filter(|f| f.rule == Rule::X1).collect();
    assert_eq!(x1.len(), 2, "{:?}", report.findings);
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);

    let mut b = Baseline::default();
    b.x1.insert("titan-stats".into(), 2);
    b.x1.insert("titan-faults".into(), 3);
    let budgeted = run_lint(&fixture("x1"), &b).expect("scan");
    assert!(budgeted.findings.is_empty(), "{:?}", budgeted.findings);

    // The CLI refuses a tree missing a root rather than scanning nothing.
    assert!(xtask::symbols::missing_roots(&fixture("x1")).is_empty());
    assert_eq!(xtask::symbols::missing_roots(&fixture("d1d5")), ["examples", "e2e-bench/src"]);
}

/// The D-rule golden fixture: site rules at places the T1 harvest never
/// sees (`use` items, struct fields, test modules) plus the hatch carry
/// and the braceless `#[cfg(test)] use` that must not leak test-ness
/// onto the struct after it.
#[test]
fn d1d5_fixture_pins_site_rule_hits_and_non_hits() {
    let report = run_lint(&fixture("d1d5"), &Baseline::default()).expect("scan");
    let got: Vec<(Rule, String)> = report
        .findings
        .iter()
        .map(|f| (f.rule, format!("{}:{}", f.file, f.line)))
        .collect();
    let sim = "crates/simulator/src/lib.rs";
    assert_eq!(
        got,
        vec![
            (Rule::D5, format!("{sim}:9")),
            (Rule::D4, format!("{sim}:12")),
            (Rule::D2, format!("{sim}:26")),
            (Rule::D1, format!("{sim}:37")),
            (Rule::D1, format!("{sim}:60")),
            (Rule::N1, "crates/xtask/lint-baseline.toml (fix-sim):0".to_string()),
        ],
        "{:?}",
        report.findings
    );
    let casts: Vec<(usize, &str)> =
        report.n1_sites.iter().map(|s| (s.line, s.cast.as_str())).collect();
    assert_eq!(casts, vec![(43, "as u32")], "hatched and test casts stay off the count");
    assert_eq!(report.n1_counts.get("fix-sim"), Some(&1));
    assert!(report.t1_paths.is_empty(), "{:?}", report.t1_paths);
}

/// Acceptance criterion: `--format json` is byte-identical across
/// repeated runs of the real binary on the real tree.
#[test]
fn json_output_is_byte_stable_across_runs() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let run = || {
        std::process::Command::new(bin)
            .args(["lint", "--format", "json"])
            .output()
            .expect("spawn xtask")
    };
    let a = run();
    let b = run();
    assert!(a.status.success(), "lint failed: {}", String::from_utf8_lossy(&a.stdout));
    assert_eq!(a.stdout, b.stdout, "json output must be byte-identical");
    let doc = String::from_utf8(a.stdout).expect("utf8");
    assert!(doc.contains("\"schema\": \"titan-lint/4\""));
    assert!(doc.contains("\"p2_counts\""));
    assert!(doc.contains("\"n1_sites\""));
    assert!(doc.contains("\"x1_sites\""));
    assert!(doc.contains("\"t1_counts\""));
    assert!(doc.contains("\"t1_paths\""));
}

/// The SARIF artifact is stable and well-formed on the real tree too.
#[test]
fn sarif_output_is_byte_stable_across_runs() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let run = || {
        std::process::Command::new(bin)
            .args(["lint", "--format", "sarif"])
            .output()
            .expect("spawn xtask")
    };
    let a = run();
    let b = run();
    assert!(a.status.success(), "lint failed: {}", String::from_utf8_lossy(&a.stdout));
    assert_eq!(a.stdout, b.stdout, "sarif output must be byte-identical");
    let doc = String::from_utf8(a.stdout).expect("utf8");
    assert!(doc.contains("\"version\": \"2.1.0\""));
    assert!(doc.contains("\"name\": \"titan-lint\""));
}

#[test]
fn test_modules_are_exempt_from_d2_and_p2_but_not_d1() {
    let root = scaffold("lint_test_mod");
    fs::write(
        root.join("crates/simulator/src/thing.rs"),
        "pub fn ok2() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
             use std::collections::HashMap;\n\
             #[test]\n\
             fn t() {\n\
                 let m: HashMap<u32, u32> = HashMap::new();\n\
                 assert!(m.is_empty());\n\
                 let v = vec![1u32];\n\
                 assert_eq!(v[0], 1);\n\
                 let _ = std::time::SystemTime::now();\n\
             }\n\
         }\n",
    )
    .unwrap();
    let found = lint(&root, &Baseline::default());
    // Only the D1 (wall clock in a sim-crate test still flakes): no
    // D2, no P2 indexing count, no E1 for the test-local `let _ =`.
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, Rule::D1);
}

/// The T1 golden fixture: an env read in the analysis-scope crate is
/// laundered through two sim-crate helpers into a state write. The
/// per-site rules see nothing (no clock, hash container, or time type
/// anywhere in the sim crate), so every finding must be T1 — one
/// interprocedural chain, one intra-fn env hit — with the full witness
/// path in the message.
#[test]
fn t1_fixture_reports_the_laundering_chain_end_to_end() {
    let report = run_lint(&fixture("t1"), &Baseline::default()).expect("scan");
    assert!(
        report.findings.iter().all(|f| f.rule == Rule::T1),
        "per-site rules must stay silent on the laundering fixture: {:?}",
        report.findings
    );
    let t1: Vec<&Finding> = report.findings.iter().filter(|f| f.rule == Rule::T1).collect();
    assert_eq!(t1.len(), 2, "{:?}", report.findings);

    let chain = t1
        .iter()
        .find(|f| f.message.contains("->"))
        .expect("the two-helper chain is reported");
    assert!(
        chain.message.contains(
            "fix_stats::host_width_raw -> fix_sim::width_hint -> fix_sim::clamp_hint \
             -> fix_sim::Engine::apply_hint"
        ),
        "full witness chain expected, got: {}",
        chain.message
    );
    assert!(chain.message.contains("env::var(\"TITAN_NUM_THREADS\")"), "{}", chain.message);
    assert!(chain.message.contains("crates/stats/src/lib.rs"), "{}", chain.message);
    assert_eq!(chain.file, "crates/simulator/src/lib.rs");

    let intra = t1
        .iter()
        .find(|f| !f.message.contains("->"))
        .expect("the intra-fn env read is reported");
    assert!(intra.message.contains("TITAN_WIDTH"), "{}", intra.message);

    assert_eq!(report.t1_counts.get("fix-sim"), Some(&2), "{:?}", report.t1_counts);
    assert_eq!(report.t1_paths.len(), 2);

    // A committed [t1] budget accepts the measured debt.
    let mut b = Baseline::default();
    b.t1.insert("fix-sim".into(), 2);
    let budgeted = run_lint(&fixture("t1"), &b).expect("scan");
    assert!(budgeted.findings.is_empty(), "{:?}", budgeted.findings);
}

/// A wall-clock reading in `core` (sim scope, not engine scope): D1 has
/// no `.elapsed(` needle and D5 does not run there, so no site rule
/// reports the line and T1 must report the intra-fn path itself.
#[test]
fn t1_reports_a_core_elapsed_reading_no_site_rule_covers() {
    let root = scaffold("lint_t1_core_elapsed");
    mkdirs(&root.join("crates/core/src"));
    fs::write(root.join("crates/core/Cargo.toml"), "[package]\nname = \"core\"\n").unwrap();
    fs::write(
        root.join("crates/core/src/lib.rs"),
        "pub struct Study { pub took: u64 }\n\
         impl Study {\n\
             pub fn finish(&mut self, t0: std::time::Instant) {\n\
                 self.took = t0.elapsed().as_secs();\n\
             }\n\
         }\n",
    )
    .unwrap();
    let report = run_lint(&root, &Baseline::default()).expect("scan");
    let found: Vec<(Rule, String)> =
        report.findings.iter().map(|f| (f.rule, format!("{}:{}", f.file, f.line))).collect();
    assert_eq!(found, vec![(Rule::T1, "crates/core/src/lib.rs:4".to_string())]);
    assert!(report.findings[0].message.contains("wall-clock read `.elapsed`"));
}

/// Iterating a `sorted-iter`-hatched map: the hatch silences D2, so no
/// site rule reports the `.keys()` line and T1 must report it.
#[test]
fn t1_reports_iteration_of_a_hatched_hash_map() {
    let root = scaffold("lint_t1_hatched_keys");
    fs::write(
        root.join("crates/simulator/src/order.rs"),
        "use std::collections::HashMap; // lint: sorted-iter\n\
         pub struct Order { pub order: Vec<u32> }\n\
         impl Order {\n\
             pub fn rebuild(&mut self, by_id: &HashMap<u32, u64>) { // lint: sorted-iter\n\
                 for k in by_id.keys() {\n\
                     self.order.push(*k);\n\
                 }\n\
             }\n\
         }\n",
    )
    .unwrap();
    let report = run_lint(&root, &Baseline::default()).expect("scan");
    let found: Vec<(Rule, String)> =
        report.findings.iter().map(|f| (f.rule, format!("{}:{}", f.file, f.line))).collect();
    assert_eq!(found, vec![(Rule::T1, "crates/simulator/src/order.rs:5".to_string())]);
    assert!(report.findings[0].message.contains("HashMap/HashSet .keys()"));
}

/// Acceptance criterion: every T1 result in the SARIF log carries a
/// codeFlow replaying the witness chain.
#[test]
fn t1_fixture_sarif_carries_code_flows_for_every_hit() {
    let report = run_lint(&fixture("t1"), &Baseline::default()).expect("scan");
    let hits = report.findings.iter().filter(|f| f.rule == Rule::T1).count();
    assert!(hits > 0, "fixture must produce T1 results");
    let sarif = xtask::render_sarif(&report);
    assert_eq!(
        sarif.matches("\"codeFlows\"").count(),
        hits,
        "one codeFlows block per T1 result"
    );
    assert!(sarif.contains("tainted value flows through fix_sim::width_hint"), "{sarif}");
    assert!(sarif.contains("a sim-state write in fix_sim::Engine::apply_hint"), "{sarif}");
}

/// `--explain RULE` prints the rule card from the shared metadata
/// table and exits successfully without scanning; unknown ids fail.
#[test]
fn explain_flag_prints_the_rule_card() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let out = std::process::Command::new(bin)
        .args(["lint", "--explain", "T1"])
        .output()
        .expect("spawn xtask");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.starts_with("T1 — "), "{text}");
    assert!(text.contains("sources:"), "{text}");
    assert!(text.contains("sinks:"), "{text}");
    assert!(text.contains("allow(T1"), "{text}");

    let bad = std::process::Command::new(bin)
        .args(["lint", "--explain", "Z9"])
        .output()
        .expect("spawn xtask");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown rule"));
}

/// The LINTS.md "SARIF rule descriptions" mirror must match the
/// metadata table verbatim — this is the drift guard the shared table
/// exists for.
#[test]
fn lints_md_mirror_matches_rule_meta() {
    let root = xtask::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let md = fs::read_to_string(root.join("LINTS.md")).expect("LINTS.md");
    for m in xtask::meta::RULE_META {
        let row = format!("| {} | {} |", m.id, m.short);
        assert!(md.contains(&row), "LINTS.md mirror row missing or stale: {row}");
    }
}

/// Acceptance criterion: the full-workspace lint stays under the 2 s
/// cold budget (CI times the built binary as well).
#[test]
fn full_workspace_lint_stays_under_two_seconds() {
    let root = xtask::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let t0 = std::time::Instant::now();
    let report = run_lint(&root, &Baseline::default()).expect("scan");
    let elapsed = t0.elapsed();
    assert!(report.files_scanned > 40, "swept {} files", report.files_scanned);
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "full-workspace lint took {elapsed:?}, budget is 2 s"
    );
}
