//! Checkpoints are verified on the bytes read, not on a re-serialization.
//!
//! `parse_checkpoint` hashes the text it was given beside the parse
//! (`ckpt::checkpoint_text_digest`: FNV-1a with the top-level digest's
//! digits read as `0`) and accepts the document when that equals the
//! stored digest. Any other layout falls back to re-serializing the
//! parsed document. Checked here:
//!
//! 1. every checkpoint of two seeds at two cadences verifies on the byte
//!    path, and the byte hash equals `checkpoint_digest`;
//! 2. a pretty-printed checkpoint, and one with the digest key moved to
//!    the end, verify through the fallback to the same document;
//! 3. single-byte flips are refused: sampled across the file, and every
//!    byte of the digest's digits, of its key and of `prev_digest`;
//! 4. a missing key, overflowing digits, or a `,"digest":` only inside a
//!    later section return an error, never panic.

use std::sync::OnceLock;

use titan_gpu_reliability::obs::Obs;
use titan_gpu_reliability::runner::ckpt::{
    checkpoint_digest, checkpoint_text_digest, parse_checkpoint, render_checkpoint,
    run_checkpointed, CheckpointDoc,
};
use titan_gpu_reliability::StudyConfig;

const DAY: u64 = 86_400;
const KEY: &str = ",\"digest\":";

/// Every checkpoint of a `days`-day run with the trace and health sinks
/// armed, so the hashed document carries nested observability state.
fn checkpoints(days: u64, seed: u64, every_days: u64) -> Vec<CheckpointDoc> {
    let mut obs = Obs::new(true);
    obs.enable_trace();
    obs.enable_health();
    let mut docs = Vec::new();
    run_checkpointed(
        &StudyConfig::quick(days, seed),
        every_days * DAY,
        None,
        &mut obs,
        |d| {
            docs.push(d.clone());
            Ok(())
        },
    )
    .expect("checkpointed run");
    docs
}

/// The first checkpoint of a 4-day run at a 2-day cadence, rendered.
fn sample() -> &'static (CheckpointDoc, String) {
    static SAMPLE: OnceLock<(CheckpointDoc, String)> = OnceLock::new();
    SAMPLE.get_or_init(|| {
        let doc = checkpoints(4, 3, 2).swap_remove(0);
        let text = render_checkpoint(&doc);
        (doc, text)
    })
}

/// The byte range of the value that follows `key` in `text`.
fn value_span(text: &str, key: &str) -> std::ops::Range<usize> {
    let start = text.find(key).expect(key) + key.len();
    let len = text[start..].bytes().take_while(u8::is_ascii_digit).count();
    start..start + len
}

#[test]
fn every_checkpoint_verifies_on_the_byte_path() {
    let mut seen = 0;
    for seed in [3, 8] {
        for every in [3, 4] {
            for doc in checkpoints(8, seed, every) {
                let text = render_checkpoint(&doc);
                assert_eq!(
                    checkpoint_text_digest(&text),
                    Some(doc.digest),
                    "seed {seed} every {every}d checkpoint {}: byte hash",
                    doc.index
                );
                assert_eq!(checkpoint_digest(&doc), doc.digest);
                assert_eq!(parse_checkpoint(&text).as_ref(), Ok(&doc));
                seen += 1;
            }
        }
    }
    assert_eq!(seen, 6, "two seeds, three checkpoints each");
}

#[test]
fn other_layouts_verify_through_the_fallback() {
    let (doc, text) = sample();
    let pretty = serde_json::to_string_pretty(doc).expect("pretty");
    assert_ne!(checkpoint_text_digest(&pretty), Some(doc.digest));
    assert_eq!(parse_checkpoint(&pretty).as_ref(), Ok(doc));

    // The digest key moved to the end of the object: still the same
    // document, hashed at the wrong place by the byte path.
    let span = value_span(text, KEY);
    let field = &text[span.start - KEY.len()..span.end];
    let body = text.trim_end().strip_suffix('}').expect("object");
    let moved = format!("{}{field}}}", body.replacen(field, "", 1));
    assert_ne!(checkpoint_text_digest(&moved), Some(doc.digest));
    assert_eq!(parse_checkpoint(&moved).as_ref(), Ok(doc));
}

#[test]
fn single_byte_flips_are_refused() {
    let (doc, text) = sample();
    let digest = value_span(text, KEY);
    let prev = value_span(text, "\"prev_digest\":");
    // Every byte of the digest's key and digits and of `prev_digest`'s
    // key and digits, then 200 positions spread over the whole file.
    let mut at: Vec<usize> = (digest.start - KEY.len()..digest.end).collect();
    at.extend(prev.start - "\"prev_digest\":".len()..prev.end);
    let named = at.len();
    at.extend((0..200).map(|k| k * text.len() / 200));
    let mut refused = 0;
    for (n, &i) in at.iter().enumerate() {
        if !text.as_bytes()[i].is_ascii() {
            continue;
        }
        let mut bytes = text.clone().into_bytes();
        bytes[i] ^= 0x01;
        let flipped = String::from_utf8(bytes).expect("an ASCII flip stays UTF-8");
        // FNV-1a changes under any one-byte substitution, so only a flip
        // in the digits it reads as `0` keeps the byte hash.
        if !digest.contains(&i) {
            assert_ne!(
                checkpoint_text_digest(&flipped),
                Some(doc.digest),
                "byte {i}"
            );
        }
        match parse_checkpoint(&flipped) {
            Err(_) => refused += 1,
            // A flip elsewhere may re-spell the same document, such as a
            // float's last digit that rounds to the same value.
            Ok(back) => assert!(n >= named && back == *doc, "flip at byte {i} was accepted"),
        }
    }
    assert!(
        refused >= named + 175,
        "only {refused} of {} flips refused",
        at.len()
    );
}

#[test]
fn malformed_digest_keys_fail_cleanly() {
    let (doc, text) = sample();
    let span = value_span(text, KEY);
    let field = &text[span.start - KEY.len()..span.end];
    let stored = doc.digest.to_string();

    let missing = text.replacen(field, "", 1);
    assert_eq!(checkpoint_text_digest(&missing), None);
    let err = parse_checkpoint(&missing).expect_err("no digest");
    assert!(err.contains("checkpoint parse"), "{err}");

    let overflow = text.replacen(field, &format!("{KEY}{}", "9".repeat(40)), 1);
    assert_eq!(checkpoint_text_digest(&overflow), Some(doc.digest));
    assert!(parse_checkpoint(&overflow).is_err());

    let no_digits = text.replacen(field, &format!("{KEY}-{stored}"), 1);
    assert_eq!(checkpoint_text_digest(&no_digits), None);
    assert!(parse_checkpoint(&no_digits).is_err());

    // The top-level key gone, and one only inside a later section.
    let nested = missing.replacen("\"config\":{", &format!("\"config\":{{\"x\":0{field},"), 1);
    assert!(checkpoint_text_digest(&nested).is_some());
    assert_ne!(checkpoint_text_digest(&nested), Some(doc.digest));
    assert!(parse_checkpoint(&nested).is_err());

    for cut in [KEY, &KEY[..KEY.len() - 1]] {
        let truncated = &text[..text.find(KEY).expect("key") + cut.len()];
        assert_eq!(checkpoint_text_digest(truncated), None);
        assert!(parse_checkpoint(truncated).is_err());
    }
}
