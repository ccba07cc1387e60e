//! Pinned fingerprints: the seed output digest and the sealed
//! checkpoint digest are defined over exact bytes (compact JSON plus the
//! rendered logs; see DETERMINISM.md). Changing how those bytes are
//! produced must never change them, so the values below are frozen
//! constants rather than values recomputed by a second code path.

use titan_gpu_reliability::obs::{Obs, ObsPlan};
use titan_gpu_reliability::runner::{ckpt, run_seed, run_seed_with};
use titan_gpu_reliability::StudyConfig;

const DAY: u64 = 86_400;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `output_digest` of two 30-day replicate seeds.
#[test]
fn seed_output_digests_are_pinned() {
    for (seed, want) in [
        (1093u64, 0x00a7_4eb7_1085_1f37u64),
        (35, 0xd787_a796_65a9_28fb),
    ] {
        let run = run_seed(&StudyConfig::quick(30, seed), seed, true);
        assert_eq!(
            run.output_digest, want,
            "seed {seed}: digest {:#018x}",
            run.output_digest
        );
    }
}

/// The first checkpoint of a short checkpointed run: its chained digest
/// and the FNV-1a of its rendered document bytes.
#[test]
fn first_checkpoint_digest_and_bytes_are_pinned() {
    let config = StudyConfig::quick(10, 7);
    let mut obs = Obs::new(false);
    let mut first = None;
    ckpt::run_checkpointed(&config, 5 * DAY, None, &mut obs, |doc| {
        if first.is_none() {
            first = Some(doc.clone());
        }
        Ok(())
    })
    .expect("checkpointed run");
    let doc = first.expect("at least one checkpoint");
    let text = ckpt::render_checkpoint(&doc);
    assert_eq!(doc.index, 0);
    assert_eq!(
        doc.digest, 0xd2d2_3c7c_6f63_0a8b,
        "digest {:#018x}",
        doc.digest
    );
    assert_eq!(ckpt::checkpoint_digest(&doc), doc.digest);
    assert_eq!(text.len(), 8_210_832);
    let bytes = fnv1a(text.as_bytes());
    assert_eq!(bytes, 0x8649_77a3_ccfe_d592, "document bytes {bytes:#018x}");
}

/// The plan with every sink armed (default span-ring capacity).
fn all_sinks() -> ObsPlan {
    ObsPlan {
        metrics: true,
        trace: true,
        health: true,
        prof: true,
        ..ObsPlan::default()
    }
}

/// Every document a fully armed quick study yields: the metrics JSON,
/// the trace and health JSONL, and the closed cost ledger's JSON.
#[test]
fn armed_run_documents_are_pinned() {
    let (_, docs) = run_seed_with(&StudyConfig::quick(10, 7), 7, true, &all_sinks());
    let metrics = docs.metrics.expect("metrics planned").to_json();
    let trace = docs.trace.expect("trace planned");
    let health = docs.health.expect("health planned");
    let ledger = serde_json::to_string(&docs.ledger.expect("prof planned")).expect("ledger json");
    for (name, text, want) in [
        ("metrics", &metrics, 0xed81_6ff4_372d_951cu64),
        ("trace", &trace, 0xadb0_ef25_10d3_f033),
        ("health", &health, 0x1a1b_f956_eb62_e110),
        ("ledger", &ledger, 0xc8f6_6155_7995_4c48),
    ] {
        let got = fnv1a(text.as_bytes());
        assert_eq!(got, want, "{name} document {got:#018x}");
    }
}

/// The first checkpoint of the same study with every sink armed: the
/// observability state rides the hashed document.
#[test]
fn first_armed_checkpoint_digest_and_bytes_are_pinned() {
    let config = StudyConfig::quick(10, 7);
    let mut obs = Obs::from_plan(&all_sinks());
    let mut first = None;
    ckpt::run_checkpointed(&config, 5 * DAY, None, &mut obs, |doc| {
        if first.is_none() {
            first = Some(doc.clone());
        }
        Ok(())
    })
    .expect("checkpointed run");
    let doc = first.expect("at least one checkpoint");
    let bytes = fnv1a(ckpt::render_checkpoint(&doc).as_bytes());
    assert_eq!(
        doc.digest, 0x3b43_dead_27d8_87d0,
        "digest {:#018x}",
        doc.digest
    );
    assert_eq!(bytes, 0x6001_e789_731e_1182, "document bytes {bytes:#018x}");
}
