//! End-to-end checkpoint/restore identity, driven through the real
//! `titan-repro` binary (the contract DETERMINISM.md documents):
//!
//! 1. `run --from-checkpoint` at boundary T reproduces a run that
//!    passed straight through T **byte for byte** — console report on
//!    stdout, `titan-obs/3` metrics document, and `titan-trace/1`
//!    flight recording — at `TITAN_NUM_THREADS` 1 and 8;
//! 2. a corrupted checkpoint (one flipped byte) fails chained-digest
//!    verification with a clean error, never a panic;
//! 3. `ckpt bisect` localizes an injected divergence to the one
//!    checkpoint interval that contains it;
//! 4. resuming with a different set of observer flags than the
//!    checkpoint was written with fails cleanly, for every sink.
//!
//! Runs use relative artifact paths under per-test working directories
//! so the `wrote …` lines on stdout are byte-comparable too.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const DAY: u64 = 86_400;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_titan-repro")
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checkpoint_determinism");
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

/// The tentpole invariant: resuming from checkpoint T produces output
/// byte-identical to a run that passed through T — stdout (report and
/// `wrote …` lines), metrics JSON, and trace JSONL — at thread width 1
/// and 8. Checkpoint progress chatter stays on stderr, so stdout needs
/// no filtering at all.
#[test]
fn resume_is_byte_identical_to_run_through() {
    for threads in ["1", "8"] {
        let through = tmp(&format!("through_t{threads}"));
        let resumed = tmp(&format!("resumed_t{threads}"));
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
                "--metrics",
                "metrics.json",
                "--trace",
                "trace.jsonl",
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
                "--metrics",
                "metrics.json",
                "--trace",
                "trace.jsonl",
            ],
        );
        assert_eq!(
            String::from_utf8_lossy(&a.stdout),
            String::from_utf8_lossy(&b.stdout),
            "stdout diverged after resume (threads {threads})"
        );
        for artifact in ["metrics.json", "trace.jsonl"] {
            let x = std::fs::read(through.join(artifact)).expect("through artifact");
            let y = std::fs::read(resumed.join(artifact)).expect("resumed artifact");
            assert!(!x.is_empty());
            assert_eq!(x, y, "{artifact} diverged after resume (threads {threads})");
        }
    }
}

/// A resumed run that keeps checkpointing reproduces the original
/// run's remaining checkpoints exactly — same bytes, same chained
/// digests — so `ckpt bisect` can compare a partial re-run against the
/// original chain. Also covers `ckpt verify` on an intact file.
#[test]
fn resumed_checkpoints_continue_the_identical_chain() {
    let through = tmp("chain_through");
    let resumed = tmp("chain_resumed");
    run_in(
        &through,
        "1",
        &[
            "run", "--days", "30", "--seed", "11", "--checkpoint-every", "518400", // 6 d
            "--ckpt-dir", "ckpts",
        ],
    );
    let first = through.join("ckpts").join("ckpt-000000.json");
    run_in(
        &resumed,
        "1",
        &[
            "run",
            "--from-checkpoint",
            first.to_str().expect("utf8 path"),
            "--checkpoint-every",
            "518400",
            "--ckpt-dir",
            "ckpts",
        ],
    );
    // 30 d at a 6 d cadence: boundaries 6/12/18/24 d => indexes 0..=3.
    for idx in 1..=3 {
        let name = format!("ckpt-{idx:06}.json");
        let x = std::fs::read(through.join("ckpts").join(&name)).expect("through ckpt");
        let y = std::fs::read(resumed.join("ckpts").join(&name)).expect("resumed ckpt");
        assert_eq!(x, y, "{name} differs between original and resumed chains");
    }
    let verify = run_in(&through, "1", &["ckpt", "verify", "ckpts/ckpt-000003.json"]);
    let text = String::from_utf8_lossy(&verify.stdout);
    assert!(text.contains("digest OK"), "verify did not confirm digest:\n{text}");
}

/// Corruption must be detected, not propagated: flipping one byte of a
/// checkpoint makes `--from-checkpoint` fail with a clean chained-digest
/// error — nonzero exit, explanatory message, no panic.
#[test]
fn corrupted_checkpoint_fails_cleanly() {
    let dir = tmp("corrupt");
    run_in(
        &dir,
        "1",
        &[
            "run", "--days", "12", "--seed", "3", "--checkpoint-every", "345600", // 4 d
            "--ckpt-dir", "ckpts",
        ],
    );
    let path = dir.join("ckpts").join("ckpt-000000.json");
    let mut text = std::fs::read_to_string(&path).expect("checkpoint file");
    // Flip one digit of the checkpoint's sim time: still valid JSON, so
    // the failure is digest verification, not a parse error.
    let t_at = text.find("\"t\":").expect("t field") + 4;
    let digit = text[t_at..].chars().next().expect("t digit");
    let flipped = if digit == '9' { '8' } else { '9' };
    text.replace_range(t_at..t_at + 1, &flipped.to_string());
    std::fs::write(&path, text).expect("write corrupted checkpoint");

    let out = Command::new(bin())
        .args(["run", "--from-checkpoint", path.to_str().expect("utf8 path")])
        .current_dir(&dir)
        .output()
        .expect("spawn titan-repro");
    assert!(!out.status.success(), "corrupted checkpoint was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("digest mismatch"),
        "expected a chained-digest error, got:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "corruption caused a panic:\n{stderr}");
}

/// Resume checks every sink against the checkpoint, both ways: the
/// metrics registry and the flight recorder ride the checkpoint like
/// the health sink and the cost ledger, so resuming `--metrics` or
/// `--trace` state into a differently armed sink would silently drop
/// it or restart it from zero. Each mismatch must fail up front with
/// a clean error naming the flag — nonzero exit, no panic.
#[test]
fn metrics_and_trace_flag_mismatch_on_resume_fails_cleanly() {
    let dir = tmp("sink_mismatch");
    for (ckpt_dir, flags) in [
        ("plain", vec![]),
        ("with-metrics", vec!["--metrics", "m.json"]),
        ("with-trace", vec!["--trace", "t.jsonl"]),
    ] {
        let mut args = vec![
            "run", "--days", "12", "--seed", "3", "--checkpoint-every", "345600", // 4 d
            "--ckpt-dir", ckpt_dir,
        ];
        args.extend(flags);
        run_in(&dir, "1", &args);
    }
    let cases = [
        ("with-metrics", vec![], "written with --metrics"),
        ("plain", vec!["--metrics", "m2.json"], "written without --metrics"),
        ("with-trace", vec![], "written with --trace"),
        ("plain", vec!["--trace", "t2.jsonl"], "written without --trace"),
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
        assert!(!out.status.success(), "mismatched resume {args:?} succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "resume {args:?} error missing `{needle}`:\n{stderr}");
        assert!(!stderr.contains("panicked"), "mismatch caused a panic:\n{stderr}");
    }
}

/// Acceptance criterion: `ckpt bisect` pins an injected divergence to
/// the single checkpoint interval that contains it, and reports clean
/// agreement for identical runs.
#[test]
fn bisect_localizes_injected_divergence() {
    let clean = tmp("bisect_clean");
    let dirty = tmp("bisect_dirty");
    let base = [
        "run", "--days", "30", "--seed", "5", "--checkpoint-every", "864000", // 10 d
        "--ckpt-dir", "ckpts",
    ];
    run_in(&clean, "1", &base);
    // One extra RNG draw at day 15 — inside the (10 d, 20 d] interval.
    let inject = format!("{}", 15 * DAY);
    let mut dirty_args: Vec<&str> = base.to_vec();
    dirty_args.extend_from_slice(&["--inject-divergence", &inject]);
    run_in(&dirty, "1", &dirty_args);

    let clean_ckpts = clean.join("ckpts");
    let dirty_ckpts = dirty.join("ckpts");
    let out = run_in(
        &clean,
        "1",
        &[
            "ckpt",
            "bisect",
            clean_ckpts.to_str().expect("utf8 path"),
            dirty_ckpts.to_str().expect("utf8 path"),
        ],
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("first divergence at checkpoint 1"),
        "bisect did not localize to checkpoint 1:\n{text}"
    );
    assert!(
        text.contains(&format!("({} s, {} s]", 10 * DAY, 20 * DAY)),
        "bisect interval wrong:\n{text}"
    );
    // A chain compared against itself reports no divergence.
    let same = run_in(
        &clean,
        "1",
        &[
            "ckpt",
            "bisect",
            clean_ckpts.to_str().expect("utf8 path"),
            clean_ckpts.to_str().expect("utf8 path"),
        ],
    );
    let text = String::from_utf8_lossy(&same.stdout);
    assert!(text.contains("no divergence"), "self-comparison diverged:\n{text}");
}

/// Telemetry accounting across the resume boundary: every `titan-obs/3`
/// time series is an exact bucketization of its run-end counter, even
/// when the run was split by `--from-checkpoint` — the restored
/// `TimeBuckets` carry the pre-boundary mass, and the resumed half
/// only adds to it. Verified on both the uninterrupted and the resumed
/// document (which are also byte-identical by the resume contract).
#[test]
fn timeseries_sums_match_counters_across_resume() {
    let through = tmp("ts_sum_through");
    let resumed = tmp("ts_sum_resumed");
    run_in(
        &through,
        "1",
        &[
            "run", "--days", "30", "--seed", "9", "--checkpoint-every", "864000", // 10 d
            "--ckpt-dir", "ckpts", "--metrics", "metrics.json",
        ],
    );
    let ckpt = through.join("ckpts").join("ckpt-000000.json");
    run_in(
        &resumed,
        "1",
        &[
            "run",
            "--from-checkpoint",
            ckpt.to_str().expect("utf8 path"),
            "--metrics",
            "metrics.json",
        ],
    );
    for dir in [&through, &resumed] {
        let text = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics doc");
        let doc: titan_obs::MetricsDoc =
            serde_json::from_str(&text).expect("titan-obs/3 metrics parse");
        assert!(!doc.timeseries.series.is_empty(), "no time series in {}", dir.display());
        for (name, buckets) in &doc.timeseries.series {
            let sum: u64 = buckets.iter().sum();
            let counter = doc
                .engine
                .get(name)
                .or_else(|| doc.faults.get(name))
                .or_else(|| doc.sec.get(name))
                .or_else(|| doc.nvsmi.get(name))
                .unwrap_or_else(|| panic!("series `{name}` has no run-end counter"));
            assert_eq!(
                sum, *counter,
                "series `{name}` buckets sum to {sum} but the run-end counter is {counter} \
                 ({})",
                dir.display()
            );
        }
    }
    // And the split run's document is the uninterrupted one, byte for
    // byte — the sums above are the same numbers.
    let x = std::fs::read(through.join("metrics.json")).expect("through metrics");
    let y = std::fs::read(resumed.join("metrics.json")).expect("resumed metrics");
    assert_eq!(x, y, "metrics diverged across the resume boundary");
}
