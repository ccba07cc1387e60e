//! End-to-end guarantees of the `titan-health/1` stream, driven
//! through the real `titan-repro` binary:
//!
//! 1. `--health` is a pure observer — the printed run report is
//!    byte-identical with and without it;
//! 2. replicated health documents are byte-identical at
//!    `TITAN_NUM_THREADS` 1 and 8;
//! 3. a `--from-checkpoint` resume re-renders the exact health bytes
//!    of the uninterrupted run, and a health-flag mismatch between the
//!    checkpoint and the resume command fails with a clean error;
//! 4. every fired alert resolves through the flight recording to a
//!    causing fault draft (`health summarize --trace` provenance walk);
//! 5. the `health summarize|watch` views carry their stable markers,
//!    and the document's header lists the rule set that ran.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_titan-repro")
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("health_determinism");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let dir = dir.join(name);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

fn run_in(dir: &Path, threads: &str, args: &[&str]) -> Output {
    let out = Command::new(bin())
        .args(args)
        .current_dir(dir)
        .env("TITAN_NUM_THREADS", threads)
        .output()
        .expect("spawn titan-repro");
    assert!(
        out.status.success(),
        "titan-repro {:?} failed:\nstdout: {}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// `--health` must never perturb the run: the console report is the
/// same bytes whether or not the sink is collecting.
#[test]
fn health_collection_is_a_pure_observer() {
    let dir = tmp("pure_observer");
    let bare = run_in(&dir, "1", &["run", "--days", "10", "--seed", "21"]);
    let with = run_in(
        &dir,
        "1",
        &["run", "--days", "10", "--seed", "21", "--health", "health.jsonl"],
    );
    let bare_text = String::from_utf8_lossy(&bare.stdout);
    let with_text = String::from_utf8_lossy(&with.stdout);
    // The collecting run prints one extra `wrote …` line; everything
    // before it (the whole report) must match byte for byte.
    assert!(
        with_text.starts_with(bare_text.as_ref()),
        "run report changed under --health:\nbare:\n{bare_text}\nwith:\n{with_text}"
    );
    let doc = std::fs::read_to_string(dir.join("health.jsonl")).expect("health doc");
    assert!(doc.starts_with("{\"schema\":\"titan-health/1\""), "health header");
}

/// Replicated health documents are a per-seed deterministic artifact:
/// the fan-out thread width must be invisible in every file.
#[test]
fn replicate_health_identical_at_threads_1_vs_8() {
    let d1 = tmp("replicate_t1");
    let d8 = tmp("replicate_t8");
    for (threads, dir) in [("1", &d1), ("8", &d8)] {
        run_in(
            dir,
            threads,
            &[
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
                "--health",
                "health",
            ],
        );
    }
    for seed in ["42", "43"] {
        let name = format!("health/health-seed-{seed}.jsonl");
        let a = std::fs::read(d1.join(&name)).expect("t1 health");
        let b = std::fs::read(d8.join(&name)).expect("t8 health");
        assert!(!a.is_empty());
        assert_eq!(a, b, "health doc for seed {seed} differs between thread widths");
        let text = String::from_utf8(a).expect("utf8 health");
        assert!(text.starts_with("{\"schema\":\"titan-health/1\""), "health header");
        assert!(text.contains("\"rec\":\"summary\""), "health summary record");
    }
}

/// The health state rides inside the checkpoint (`HealthSnap` joins
/// `ObsSnapshot`), so a resume re-renders the exact bytes of the
/// uninterrupted run's health document.
#[test]
fn resumed_health_doc_is_byte_identical() {
    for threads in ["1", "8"] {
        let through = tmp(&format!("resume_through_t{threads}"));
        let resumed = tmp(&format!("resume_resumed_t{threads}"));
        let a = run_in(
            &through,
            threads,
            &[
                "run",
                "--days",
                "30",
                "--seed",
                "7",
                "--checkpoint-every",
                "864000", // 10 days: checkpoints at t = 10 d and 20 d
                "--ckpt-dir",
                "ckpts",
                "--health",
                "health.jsonl",
            ],
        );
        let ckpt = through.join("ckpts").join("ckpt-000001.json");
        assert!(ckpt.is_file(), "second checkpoint missing");
        let b = run_in(
            &resumed,
            threads,
            &[
                "run",
                "--from-checkpoint",
                ckpt.to_str().expect("utf8 path"),
                "--health",
                "health.jsonl",
            ],
        );
        assert_eq!(
            String::from_utf8_lossy(&a.stdout),
            String::from_utf8_lossy(&b.stdout),
            "stdout diverged after resume (threads {threads})"
        );
        let x = std::fs::read(through.join("health.jsonl")).expect("through health");
        let y = std::fs::read(resumed.join("health.jsonl")).expect("resumed health");
        assert!(!x.is_empty());
        assert_eq!(x, y, "health doc diverged after resume (threads {threads})");
    }
}

/// Resuming with a different `--health` posture than the checkpoint
/// was written with would silently change what the sink observed, so
/// both directions of the mismatch must fail with a clean pointer at
/// the missing/extra flag.
#[test]
fn health_flag_mismatch_on_resume_fails_cleanly() {
    let dir = tmp("flag_mismatch");
    run_in(
        &dir,
        "1",
        &[
            "run", "--days", "12", "--seed", "3", "--checkpoint-every", "518400", // 6 d
            "--ckpt-dir", "with-health", "--health", "health.jsonl",
        ],
    );
    run_in(
        &dir,
        "1",
        &[
            "run", "--days", "12", "--seed", "3", "--checkpoint-every", "518400",
            "--ckpt-dir", "without-health",
        ],
    );
    let cases = [
        ("with-health", vec![], "written with --health"),
        ("without-health", vec!["--health", "h.jsonl"], "written without --health"),
    ];
    for (ckpt_dir, extra, needle) in cases {
        let ckpt = dir.join(ckpt_dir).join("ckpt-000000.json");
        let mut args = vec!["run", "--from-checkpoint", ckpt.to_str().expect("utf8 path")];
        args.extend(extra);
        let out = Command::new(bin())
            .args(&args)
            .current_dir(&dir)
            .env("TITAN_NUM_THREADS", "1")
            .output()
            .expect("spawn titan-repro");
        assert!(!out.status.success(), "mismatched resume from {ckpt_dir} succeeded");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(needle),
            "error from {ckpt_dir} resume missing `{needle}`:\n{err}"
        );
        assert!(!err.contains("panicked"), "mismatch panicked:\n{err}");
    }
}

/// The provenance contract: on a window long enough to fire alerts,
/// `health summarize --trace` walks every alert's trace id back to a
/// causing fault draft and says so; `watch` renders the live surface;
/// the header line names every default rule.
#[test]
fn alerts_resolve_through_trace_and_views_render() {
    let dir = tmp("provenance");
    run_in(
        &dir,
        "1",
        &[
            "run", "--days", "60", "--seed", "42", "--health", "health.jsonl", "--trace",
            "trace.jsonl",
        ],
    );
    let sum = run_in(
        &dir,
        "1",
        &["health", "summarize", "health.jsonl", "--trace", "trace.jsonl"],
    );
    let text = String::from_utf8_lossy(&sum.stdout);
    for marker in ["titan-health", "intervals", "alerts", "provenance OK"] {
        assert!(text.contains(marker), "summarize missing `{marker}`:\n{text}");
    }
    // The 60-day GEE storm load fires the burst rule — the provenance
    // line only prints after at least one successful chain walk.
    assert!(
        !text.contains("0 alert(s) walk back"),
        "expected a fired alert on the 60-day window:\n{text}"
    );

    let watch = run_in(&dir, "1", &["health", "watch", "health.jsonl"]);
    let watch_text = String::from_utf8_lossy(&watch.stdout);
    for marker in ["titan-health watch", "stripe contrast", "hot cabinets", "spares"] {
        assert!(watch_text.contains(marker), "watch missing `{marker}`:\n{watch_text}");
    }

    let doc = std::fs::read_to_string(dir.join("health.jsonl")).expect("read health.jsonl");
    let header = doc.lines().next().unwrap_or_default();
    for marker in ["Burst", "MtbfBelow", "OffenderShare", "SpareDepletion", "RetirementPressure"] {
        assert!(header.contains(marker), "header rules missing `{marker}`:\n{header}");
    }
}
