//! End-to-end telemetry determinism, driven through the real
//! `titan-repro` binary (the contract OBSERVABILITY.md documents):
//!
//! 1. the metrics JSON a replication writes is byte-identical at
//!    `--threads 1` and `--threads 8` for the same seed set;
//! 2. enabling `--metrics` never changes the simulation output — the
//!    printed report is identical with and without the flag;
//! 3. `check --json` and `profile` produce their documented shapes.
//!
//! These run the binary Cargo built for this package (debug in `cargo
//! test`), so short windows keep them affordable.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_titan-repro")
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("telemetry_determinism");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

fn run_ok(args: &[&str]) -> Output {
    let out = Command::new(bin()).args(args).output().expect("spawn titan-repro");
    assert!(
        out.status.success(),
        "titan-repro {:?} failed:\nstdout: {}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Satellite guarantee: same seeds ⇒ byte-identical metrics JSON at
/// --threads 1 vs --threads 8. The document carries sim-time
/// quantities only, so the thread width of the fan-out must be
/// invisible in it.
#[test]
fn replicate_metrics_json_identical_at_threads_1_vs_8() {
    let m1 = tmp("metrics_t1.json");
    let m8 = tmp("metrics_t8.json");
    for (threads, path) in [("1", &m1), ("8", &m8)] {
        run_ok(&[
            "replicate",
            "--seeds",
            "2",
            "--days",
            "6",
            "--seed",
            "42",
            "--threads",
            threads,
            "--skip-expectations",
            "--metrics",
            path.to_str().expect("utf8 path"),
        ]);
    }
    let a = std::fs::read(&m1).expect("read t1 metrics");
    let b = std::fs::read(&m8).expect("read t8 metrics");
    assert!(!a.is_empty());
    assert_eq!(a, b, "metrics JSON differs between --threads 1 and --threads 8");
    let text = String::from_utf8(a).expect("utf8 metrics");
    assert!(text.contains("\"titan-obs-replicate/1\""), "replicate schema tag");
    assert!(text.contains("\"titan-obs/3\""), "per-seed schema tag");
    for section in ["\"engine\"", "\"faults\"", "\"sec\"", "\"nvsmi\""] {
        assert!(text.contains(section), "metrics doc missing {section} section");
    }
}

/// Satellite guarantee: a metrics-enabled run produces the same sim
/// output as a metrics-disabled run — the report text (rendered from
/// the simulation's logs) is identical; only the `wrote …` line and
/// the file on disk are new.
#[test]
fn metrics_flag_never_changes_the_report() {
    let plain = run_ok(&["run", "--days", "6", "--seed", "7"]);
    let path = tmp("single_metrics.json");
    let with_metrics = run_ok(&[
        "run",
        "--days",
        "6",
        "--seed",
        "7",
        "--metrics",
        path.to_str().expect("utf8 path"),
    ]);
    let strip = |out: &Output| -> String {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("wrote "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&plain),
        strip(&with_metrics),
        "--metrics changed the simulation report"
    );
    let doc = std::fs::read_to_string(&path).expect("metrics file");
    assert!(doc.contains("\"schema\": \"titan-obs/3\""));
    assert!(doc.contains("\"events_dequeued\""));
    assert!(doc.contains("\"timeseries\""), "titan-obs/3 doc missing timeseries section");
}

/// `check --json` writes machine-readable per-check verdicts with the
/// fields the CI consumers key on.
#[test]
fn check_json_has_per_check_verdicts() {
    let path = tmp("checks.json");
    // A 6-day window fails some long-horizon checks; the command exits
    // nonzero then, but must still have written the document.
    let out = Command::new(bin())
        .args(["check", "--days", "6", "--json", path.to_str().expect("utf8 path")])
        .output()
        .expect("spawn titan-repro");
    assert!(
        String::from_utf8_lossy(&out.stderr).is_empty(),
        "check --json errored: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&path).expect("checks file");
    assert!(doc.contains("\"schema\": \"titan-check/1\""));
    for field in ["\"id\"", "\"verdict\"", "\"paper\"", "\"measured\"", "\"pass\"", "\"fail\""] {
        assert!(doc.contains(field), "check doc missing {field}");
    }
    // Every verdict printed to stdout appears in the document.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let printed = stdout.lines().filter(|l| l.starts_with('[')).count();
    assert!(printed > 0, "no checks printed");
    assert_eq!(doc.matches("\"verdict\"").count(), printed);
}

/// `profile` prints the deterministic cost-ledger table, the
/// quarantined wall-clock attribution, and the sim-metric breakdown,
/// and its `--metrics` document matches a plain run's.
#[test]
fn profile_prints_phases_and_matches_run_metrics() {
    let prof_path = tmp("profile_metrics.json");
    let out = run_ok(&[
        "profile",
        "--days",
        "6",
        "--seed",
        "42",
        "--metrics",
        prof_path.to_str().expect("utf8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for marker in [
        "deterministic cost ledger (titan-prof/2",
        "wall-clock attribution (this host",
        "engine:event_loop",
        "study:render_parse_logs",
        "cli:collect_metrics",
        "sim-time telemetry",
        "[engine]",
        "[histograms]",
    ] {
        assert!(stdout.contains(marker), "profile output missing `{marker}`");
    }
    // The sim-time document is independent of how it was produced:
    // profile and run agree byte-for-byte for the same seed/window.
    let run_path = tmp("run_metrics.json");
    run_ok(&[
        "run",
        "--days",
        "6",
        "--seed",
        "42",
        "--metrics",
        run_path.to_str().expect("utf8 path"),
    ]);
    let a = std::fs::read(&prof_path).expect("profile metrics");
    let b = std::fs::read(&run_path).expect("run metrics");
    assert_eq!(a, b, "profile and run metrics documents differ");
}

/// Tentpole guarantee: the flight-recorder trace a replication writes
/// is byte-identical at --threads 1 and --threads 8 for the same seed
/// set. Trace ids are minted in sim order, so thread width must be
/// invisible in the JSONL.
#[test]
fn replicate_traces_identical_at_threads_1_vs_8() {
    let d1 = tmp("traces_t1");
    let d8 = tmp("traces_t8");
    for (threads, dir) in [("1", &d1), ("8", &d8)] {
        run_ok(&[
            "replicate",
            "--seeds",
            "2",
            "--days",
            "6",
            "--seed",
            "42",
            "--threads",
            threads,
            "--skip-expectations",
            "--trace",
            dir.to_str().expect("utf8 path"),
        ]);
    }
    for seed in ["42", "43"] {
        let a = std::fs::read(d1.join(format!("trace-seed-{seed}.jsonl"))).expect("t1 trace");
        let b = std::fs::read(d8.join(format!("trace-seed-{seed}.jsonl"))).expect("t8 trace");
        assert!(!a.is_empty());
        assert_eq!(a, b, "trace for seed {seed} differs between thread widths");
        let text = String::from_utf8(a).expect("utf8 trace");
        assert!(text.starts_with("{\"schema\":\"titan-trace/1\""), "trace header");
    }
}

/// Tentpole guarantee: `--trace` is a pure observer — the printed
/// report is identical with and without it.
#[test]
fn trace_flag_never_changes_the_report() {
    let plain = run_ok(&["run", "--days", "6", "--seed", "7"]);
    let path = tmp("observer.jsonl");
    let traced = run_ok(&[
        "run",
        "--days",
        "6",
        "--seed",
        "7",
        "--trace",
        path.to_str().expect("utf8 path"),
    ]);
    let strip = |out: &Output| -> String {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("wrote "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&plain), strip(&traced), "--trace changed the simulation report");
}

/// Acceptance criterion: `trace verify` proves complete provenance on
/// the default 60-day window — every chain terminates at a FaultDraft
/// root and every console line / SEC alert has a causal parent.
#[test]
fn trace_verify_passes_on_default_window() {
    let path = tmp("verify_60d.jsonl");
    run_ok(&["run", "--days", "60", "--seed", "42", "--trace", path.to_str().expect("utf8 path")]);
    let out = run_ok(&["trace", "verify", path.to_str().expect("utf8 path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("provenance OK"), "verify did not report OK:\n{stdout}");
    // Summarize and Chrome export both accept the same file.
    let sum = run_ok(&["trace", "summarize", path.to_str().expect("utf8 path")]);
    let sum_text = String::from_utf8_lossy(&sum.stdout);
    for marker in ["records", "fault_draft", "console_line", "sec_alert"] {
        assert!(sum_text.contains(marker), "summary missing `{marker}`:\n{sum_text}");
    }
    let chrome = tmp("verify_60d.chrome.json");
    run_ok(&[
        "trace",
        "show",
        path.to_str().expect("utf8 path"),
        "--chrome",
        chrome.to_str().expect("utf8 path"),
    ]);
    let chrome_doc = std::fs::read_to_string(&chrome).expect("chrome export");
    assert!(chrome_doc.contains("\"traceEvents\""), "not a Chrome trace document");
}

/// Satellite guarantee: `profile --json` writes the frozen
/// `titan-prof/2` document — the deterministic per-scope cost ledger
/// plus the embedded sim-time metrics document, with the quarantined
/// wall section last so tooling can strip it.
#[test]
fn profile_json_writes_titan_profile_doc() {
    let path = tmp("profile_doc.json");
    run_ok(&["profile", "--days", "6", "--seed", "42", "--json", path.to_str().expect("utf8 path")]);
    let doc = std::fs::read_to_string(&path).expect("profile doc");
    assert!(doc.contains("\"schema\": \"titan-prof/2\""));
    for field in [
        "\"ledger\"",
        "\"totals\"",
        "\"metrics\"",
        "\"wall\"",
        "\"dequeues\"",
        "\"rng_draws\"",
        "\"alloc_bytes\"",
        "\"ev:",
        "engine:event_loop",
    ] {
        assert!(doc.contains(field), "profile doc missing {field}");
    }
    // The embedded metrics document names its own schema, and the
    // non-deterministic wall section is the last top-level key.
    assert!(doc.contains("\"titan-obs/3\""), "embedded metrics schema tag");
    let wall_pos = doc.rfind("\"wall\"").expect("wall key");
    let metrics_pos = doc.find("\"metrics\"").expect("metrics key");
    assert!(wall_pos > metrics_pos, "wall section is not last");
}
