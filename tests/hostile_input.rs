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
//! 3. A checkpoint re-sealed around an inconsistent engine heap, fleet
//!    or job table passes the digest but fails to resume, naming the
//!    heap entry or the section.
//! 4. `parse_trace` and `parse_health` are total: arbitrary text and one
//!    edit of a rendered `titan-trace/1` or `titan-health/1` document
//!    return `Ok` or `Err`, never panic.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::{Deserialize, Serialize, Value};
use titan_gpu_reliability::obs::{parse_health, parse_trace, Obs, ObsPlan};
use titan_gpu_reliability::runner::{ckpt, run_seed_with};
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

/// Up to 63 arbitrary bytes, made valid UTF-8 lossily.
fn arbitrary_text(rng: &mut TestRng) -> String {
    let bytes: Vec<u8> = (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Applies one edit to `text` at byte `at` (at most `text.len()`):
/// `op` 0 truncates there, 1 deletes 1 + `len` bytes, 2 inserts
/// `splice`, 3 replaces 1 + `len` bytes with `splice`, and 4 changes the
/// first digit from there on, which keeps JSON valid.
fn edit(text: &mut String, at: u64, len: u64, splice: &str, op: u64) {
    let mut at = at as usize;
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    let mut end = (at + 1 + len as usize).min(text.len());
    while !text.is_char_boundary(end) {
        end += 1;
    }
    match op {
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

/// Either arbitrary text or one to three random corruptions of the
/// real checkpoint. A digit swap keeps the text valid JSON, so those
/// reach the digest check.
fn corruption(rng: &mut TestRng) -> String {
    if rng.below(8) == 0 {
        return arbitrary_text(rng);
    }
    let mut text = checkpoint_text().to_string();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(text.len() as u64 + 1);
        let len = rng.below(8);
        let splice = SPLICE[rng.below(SPLICE.len() as u64) as usize];
        edit(&mut text, at, len, splice, rng.below(5));
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

/// `field` of a JSON object.
fn field<'a>(v: &'a mut Value, name: &str) -> &'a mut Value {
    match v {
        Value::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == name).expect(name).1,
        _ => panic!("`{name}`: not an object"),
    }
}

/// The array at `path` (below `engine`) of a checkpoint tree.
fn engine_array<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Vec<Value> {
    let at = path.iter().fold(field(v, "engine"), |v, name| field(v, name));
    match at {
        Value::Array(items) => items,
        _ => panic!("{path:?}: not an array"),
    }
}

/// The `(t, class, seq)` parts of heap entry `i` of a checkpoint tree.
fn heap_entry(v: &mut Value, i: usize) -> &mut Vec<Value> {
    match &mut engine_array(v, &["heap"])[i] {
        Value::Array(parts) => parts,
        _ => panic!("heap entry: not an array"),
    }
}

/// Checkpoints that pass the digest but hold an engine heap, fleet or
/// job table no paused run could hold fail to resume with an error
/// naming the entry or section, never a panic or a resume that silently
/// differs.
#[test]
fn inconsistent_checkpoints_fail_to_resume() {
    let doc = ckpt::parse_checkpoint(checkpoint_text()).expect("verify");
    let resume = |doc: &ckpt::CheckpointDoc| {
        ckpt::resume_checkpointed(doc, 0, None, &mut Obs::from_plan(&doc.plan()), |_| Ok(()))
    };
    assert!(resume(&doc).is_ok(), "the unedited checkpoint resumes");
    let (t, first_seq) = (doc.t, heap_entry(&mut doc.to_value(), 0)[2].clone());
    type Edit = Box<dyn Fn(&mut Value)>;
    // Heap entry `i`'s part 0 (`t`) or 2 (`seq`), or element `i` of an
    // engine array, set to `value`; or an engine array cut to `len`.
    let heap = |i: usize, part: usize, value: Value| -> Edit {
        Box::new(move |v| heap_entry(v, i)[part] = value.clone())
    };
    let set = |path: &'static [&'static str], i: usize, value: Value| -> Edit {
        Box::new(move |v| engine_array(v, path)[i] = value.clone())
    };
    let cut = |path: &'static [&'static str], len: usize| -> Edit {
        Box::new(move |v| engine_array(v, path).truncate(len))
    };
    let far = Value::UInt(u64::from(u32::MAX - 1));
    // The last unplaced job given a place in the active set it is not in.
    let stray: Edit = Box::new(|v| {
        let unplaced = Value::UInt(u64::from(u32::MAX));
        let pos = engine_array(v, &["jobs", "active_pos"]);
        *pos.iter_mut().rev().find(|p| **p == unplaced).expect("an unplaced job") = Value::UInt(0);
    });
    // Each row: the section the error names, what it says, the edit.
    let edits: [(&str, &str, Edit); 12] = [
        ("checkpoint heap entry", "names no payload", heap(0, 2, Value::UInt(1 << 40))),
        ("checkpoint heap entry", "lies before the checkpoint time", heap(0, 0, Value::UInt(t - 1))),
        ("checkpoint heap entry", "repeats the seq", heap(1, 2, first_seq)),
        ("engine.fleet", "slot_card holds 10 entries", cut(&["fleet", "slot_card"], 10)),
        ("engine.fleet", "cards holds 10 entries", cut(&["fleet", "cards"], 10)),
        ("engine.fleet", "card_slot does not map it back", set(&["fleet", "slot_card"], 0, Value::UInt(1))),
        ("engine.fleet", "card_slot places", set(&["fleet", "card_slot"], 18_690, Value::UInt(0))),
        ("engine.fleet", "spare card 0", set(&["fleet", "spares"], 0, Value::UInt(0))),
        ("engine.jobs", "node_job holds 10 entries", cut(&["jobs", "node_job"], 10)),
        ("engine.jobs", "node_job names job 4294967294", set(&["jobs", "node_job"], 0, far.clone())),
        ("engine.jobs", "active[0] names job 4294967294", set(&["jobs", "active"], 0, far)),
        ("engine.jobs", "active_pos places", stray),
    ];
    for (section, want, edit) in edits {
        let mut v = doc.to_value();
        edit(&mut v);
        let mut edited = ckpt::CheckpointDoc::from_value(&v).expect("edited doc");
        edited.digest = ckpt::checkpoint_digest(&edited);
        let edited = ckpt::parse_checkpoint(&ckpt::render_checkpoint(&edited))
            .expect("the re-sealed checkpoint passes the digest");
        let err = resume(&edited).err().unwrap_or_else(|| panic!("resumed an edit where {want}"));
        assert!(err.contains(section) && err.contains(want), "{err}");
    }
}

/// The trace and health documents of a 4-day run with both sinks armed.
fn obs_documents() -> &'static (String, String) {
    static DOCS: OnceLock<(String, String)> = OnceLock::new();
    DOCS.get_or_init(|| {
        let plan = ObsPlan {
            trace: true,
            health: true,
            ..ObsPlan::default()
        };
        let (_, docs) = run_seed_with(&StudyConfig::quick(4, 11), 11, true, &plan);
        (
            docs.trace.expect("trace planned"),
            docs.health.expect("health planned"),
        )
    })
}

/// `doc` with one edit; `at` is reduced to a byte offset within it.
fn edited(doc: &str, at: u64, len: u64, splice: usize, op: u64) -> String {
    let mut text = doc.to_string();
    let at = at % (doc.len() as u64 + 1);
    edit(&mut text, at, len, SPLICE[splice], op);
    text
}

#[test]
fn the_unedited_obs_documents_parse() {
    let (trace, health) = obs_documents();
    let (_, records) = parse_trace(trace).expect("trace parses");
    assert!(!records.is_empty());
    let doc = parse_health(health).expect("health parses");
    assert!(!doc.records.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any text reaches `Ok` or `Err` in both JSONL readers.
    #[test]
    fn obs_readers_are_total_on_arbitrary_text(text in "\\PC{0,400}") {
        let _ = parse_trace(&text);
        let _ = parse_health(&text);
    }

    /// One edit of a real trace reaches `Ok` or `Err`.
    #[test]
    fn parse_trace_is_total_on_edits(
        at in any::<u64>(),
        len in 0u64..8,
        splice in 0usize..SPLICE.len(),
        op in 0u64..5,
    ) {
        let _ = parse_trace(&edited(&obs_documents().0, at, len, splice, op));
    }

    /// One edit of a real health document reaches `Ok` or `Err`.
    #[test]
    fn parse_health_is_total_on_edits(
        at in any::<u64>(),
        len in 0u64..8,
        splice in 0usize..SPLICE.len(),
        op in 0u64..5,
    ) {
        let _ = parse_health(&edited(&obs_documents().1, at, len, splice, op));
    }
}
