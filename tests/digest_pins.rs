//! Pinned fingerprints: the seed output digest and the sealed
//! checkpoint digest are defined over exact bytes (compact JSON plus the
//! rendered logs; see DETERMINISM.md). Changing how those bytes are
//! produced must never change them, so the values below are frozen
//! constants rather than values recomputed by a second code path.

use titan_gpu_reliability::obs::Obs;
use titan_gpu_reliability::runner::{ckpt, run_seed};
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
