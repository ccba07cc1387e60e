//! Pinned fingerprints: the seed output digest and the sealed
//! checkpoint digest are defined over exact bytes (compact JSON plus the
//! rendered logs; see DETERMINISM.md). Changing how those bytes are
//! produced must never change them, so the values below are frozen
//! constants rather than values recomputed by a second code path.

use titan_gpu_reliability::obs::{Obs, ObsPlan};
use titan_gpu_reliability::runner::{ckpt, run_seed, run_seed_with};
use titan_gpu_reliability::{evaluate_all, full_report, Study, StudyConfig};

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
        (1093u64, 0x7e54_706d_a4ee_bb8cu64),
        (35, 0x432b_ac5f_7675_4e50),
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
        doc.digest, 0xd77e_a0bf_59e6_ce2a,
        "digest {:#018x}",
        doc.digest
    );
    assert_eq!(ckpt::checkpoint_digest(&doc), doc.digest);
    assert_eq!(text.len(), 7_211_205);
    let bytes = fnv1a(text.as_bytes());
    assert_eq!(bytes, 0xba04_fc15_db3a_53cf, "document bytes {bytes:#018x}");
}

/// The plan with every sink armed.
fn all_sinks() -> ObsPlan {
    ObsPlan {
        metrics: true,
        trace: true,
        health: true,
        prof: true,
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
        ("metrics", &metrics, 0xa08d_565f_3b05_77f2u64),
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
        doc.digest, 0x5fbc_430d_17bc_f94f,
        "digest {:#018x}",
        doc.digest
    );
    assert_eq!(bytes, 0x53ee_78e2_e2a2_7300, "document bytes {bytes:#018x}");
}

/// What the paper's numbers are computed from: the full report text,
/// the compact `Figures` JSON and every expectation verdict. These must
/// not move when only the simulator's output encoding changes.
#[test]
fn analysis_documents_are_pinned() {
    for (days, seed, want) in [
        (
            30u64,
            1093u64,
            [
                0x08e0_44c8_09f5_f862u64,
                0x18c7_8bbc_cbec_388d,
                0x84d0_7982_7eb4_2dfe,
            ],
        ),
        (
            90,
            272,
            [
                0xe4de_23d3_6999_23a3,
                0x3981_103b_ab01_34e6,
                0x2e1c_26aa_962f_3280,
            ],
        ),
    ] {
        let study = Study::new(StudyConfig::quick(days, seed)).run();
        let figures = study.figures();
        let report = full_report(&study);
        let figures_json = serde_json::to_string(&figures).expect("figures json");
        let verdicts: String = evaluate_all(&figures)
            .iter()
            .map(|e| format!("{} {}\n", e.id, e.verdict))
            .collect();
        for (name, text, want) in [
            ("report", &report, want[0]),
            ("figures", &figures_json, want[1]),
            ("verdicts", &verdicts, want[2]),
        ] {
            let got = fnv1a(text.as_bytes());
            assert_eq!(got, want, "quick({days}, {seed}) {name} {got:#018x}");
        }
    }
}

/// The `figures.json` artifact: the pretty (two-space indent) `Figures`
/// document, whose layout is printed apart from the compact bytes.
#[test]
fn pretty_figures_json_is_pinned() {
    for (days, seed, want) in [
        (30u64, 1093u64, 0xe5af_57f9_8059_5cf5u64),
        (90, 272, 0x921b_eb66_dd76_6496),
    ] {
        let figures = Study::new(StudyConfig::quick(days, seed)).run().figures();
        let pretty = serde_json::to_string_pretty(&figures).expect("figures json");
        let got = fnv1a(pretty.as_bytes());
        assert_eq!(got, want, "quick({days}, {seed}) pretty {got:#018x}");
    }
}
