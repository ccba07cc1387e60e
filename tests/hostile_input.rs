//! Hostile bytes fail cleanly in every JSON reader.
//!
//! 1. Deeply nested input (2,000,000 `[`) given to `ckpt verify`,
//!    `trace verify`, `health summarize` and `bench diff` exits non-zero
//!    with an error on stderr: the reader's nesting cap, not a stack
//!    overflow or a panic.
//! 2. `parse_checkpoint` is total: arbitrary text and random corruptions
//!    of a real checkpoint return `Ok` or `Err`, never panic, and a
//!    corruption that still parses as a checkpoint fails the schema or
//!    digest check unless it left the document itself unchanged.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use proptest::test_runner::TestRng;
use titan_gpu_reliability::obs::Obs;
use titan_gpu_reliability::runner::ckpt;
use titan_gpu_reliability::StudyConfig;

const DAY: u64 = 86_400;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("hostile_input");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

/// Writes `[` × 2,000,000 (plus `tail`) to `name` and returns its path.
fn deep_file(name: &str, tail: &str) -> String {
    let path = tmp(name);
    std::fs::write(&path, format!("{}{tail}", "[".repeat(2_000_000))).expect("write deep file");
    path.to_str().expect("utf8 path").to_string()
}

/// Runs the CLI and asserts a clean failure naming the nesting cap.
fn fails_cleanly(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_titan-repro"))
        .args(args)
        .output()
        .expect("spawn titan-repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.code().is_some_and(|c| c != 0),
        "titan-repro {args:?} must exit non-zero, not {:?}:\n{stderr}",
        out.status
    );
    assert!(
        stderr.contains("nested deeper than") && stderr.contains("at byte"),
        "titan-repro {args:?}: expected the nesting-cap error, got:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("overflow"),
        "titan-repro {args:?} crashed:\n{stderr}"
    );
}

#[test]
fn ckpt_verify_rejects_deep_nesting() {
    fails_cleanly(&["ckpt", "verify", &deep_file("deep-ckpt.json", "")]);
}

#[test]
fn trace_verify_rejects_deep_nesting() {
    fails_cleanly(&["trace", "verify", &deep_file("deep-trace.jsonl", "\n")]);
}

#[test]
fn health_summarize_rejects_deep_nesting() {
    fails_cleanly(&["health", "summarize", &deep_file("deep-health.jsonl", "\n")]);
}

#[test]
fn bench_diff_rejects_deep_nesting() {
    let path = deep_file("deep-bench.json", "");
    fails_cleanly(&["bench", "diff", &path, &path]);
}

/// A real checkpoint with every observing sink armed: the first of a
/// 4-day run checkpointed every 2 days.
fn checkpoint_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut obs = Obs::new(true);
        obs.enable_trace();
        obs.enable_health();
        let mut first = None;
        ckpt::run_checkpointed(&StudyConfig::quick(4, 11), 2 * DAY, None, &mut obs, |doc| {
            first.get_or_insert_with(|| ckpt::render_checkpoint(doc));
            Ok(())
        })
        .expect("checkpointed run");
        first.expect("one checkpoint")
    })
}

/// Bytes that keep a corruption close to JSON: punctuation, digits,
/// literal letters, escapes and whitespace, plus a multibyte char.
const SPLICE: &[&str] = &[
    "{", "}", "[", "]", "\"", ",", ":", "-", ".", "0", "7", "e", "n", "t", "\\", "\\u", " ", "\n",
    "null", "é",
];

/// Either arbitrary text or one to three random corruptions of the
/// real checkpoint. A digit swap keeps the text valid JSON, so those
/// reach the digest check.
fn corruption(rng: &mut TestRng) -> String {
    if rng.below(8) == 0 {
        let bytes: Vec<u8> = (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect();
        return String::from_utf8_lossy(&bytes).into_owned();
    }
    let mut text = checkpoint_text().to_string();
    for _ in 0..1 + rng.below(3) {
        let mut at = rng.below(text.len() as u64 + 1) as usize;
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let mut end = (at + 1 + rng.below(8) as usize).min(text.len());
        while !text.is_char_boundary(end) {
            end += 1;
        }
        let splice = SPLICE[rng.below(SPLICE.len() as u64) as usize];
        match rng.below(5) {
            0 => text.truncate(at),
            1 => text.replace_range(at..end, ""),
            2 => text.insert_str(at, splice),
            3 => text.replace_range(at..end, splice),
            _ => {
                if let Some(d) = text[at..].find(|c: char| c.is_ascii_digit()) {
                    let digit = if &text[at + d..at + d + 1] == "7" {
                        "3"
                    } else {
                        "7"
                    };
                    text.replace_range(at + d..at + d + 1, digit);
                }
            }
        }
    }
    text
}

#[test]
fn parse_checkpoint_is_total() {
    let mut rng = TestRng::for_test("hostile_input::parse_checkpoint_is_total");
    let mut digest_failures = 0;
    for _ in 0..64 {
        let text = corruption(&mut rng);
        // Any `Err` is a clean failure. An `Ok` is allowed only when the
        // corruption left the document itself unchanged (whitespace, a
        // dropped trailing newline): every other corruption that still
        // parses must fail the schema or digest check.
        match ckpt::parse_checkpoint(&text) {
            Ok(doc) => assert!(
                ckpt::render_checkpoint(&doc) == checkpoint_text(),
                "a changed checkpoint passed verification"
            ),
            Err(e) if e.contains("digest mismatch") => digest_failures += 1,
            Err(_) => {}
        }
    }
    assert!(
        digest_failures > 0,
        "no corruption reached the digest check"
    );
}

#[test]
fn the_uncorrupted_checkpoint_verifies() {
    let doc = ckpt::parse_checkpoint(checkpoint_text()).expect("verify");
    assert_eq!(ckpt::render_checkpoint(&doc), checkpoint_text());
}
