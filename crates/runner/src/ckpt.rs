//! Hash-chained checkpoint/restore: the `titan-ckpt/3` document.
//!
//! A 638-day window is minutes of wall time, but the reliability story
//! the paper tells is about *recovering* long computations — so the
//! runner can freeze the whole deterministic machine state at fixed
//! sim-time boundaries and resume it later with **byte-identical**
//! output: same console log, same `titan-obs/3` metrics document, same
//! `titan-trace/1` flight recording as a run that passed straight
//! through the boundary (pinned by `tests/checkpoint_determinism.rs`).
//!
//! Each checkpoint is one JSON document carrying the engine snapshot
//! ([`titan_sim::EngineSnapshot`]: heap, payload tail, fleet, job
//! table, RNG stream positions), the observability snapshot
//! ([`titan_obs::ObsSnapshot`]: one section per observer, `null` when
//! it is off),
//! and an FNV-1a digest **chained over the previous checkpoint's
//! digest** (the `prev_digest` field is part of the hashed bytes). The
//! chain is what makes [`bisect`] work: because the state at boundary
//! *k* is a pure function of the state at *k−1*, the first index where
//! two runs' chained digests differ brackets the first diverging event
//! to one checkpoint interval — no replay needed, though a resumed run
//! re-produces the identical chain, which is how the tests confirm it.
//!
//! Corruption is detected, never propagated: [`parse_checkpoint`]
//! recomputes the digest and refuses a document whose stored digest
//! does not match (a single flipped byte fails cleanly, without a
//! panic and without resuming from poisoned state). It hashes the bytes
//! it was given, beside the parse, rather than re-serializing what it
//! parsed: the text [`render_checkpoint`] writes *is* the hashed
//! document, up to the digest's own digits
//! ([`checkpoint_text_digest`]). Text in any other layout (re-indented,
//! re-escaped) falls back to [`checkpoint_digest`] of the parsed
//! document, so it verifies exactly as before.

use serde::{Deserialize, Serialize};
use titan_conlog::time::SimTime;
use titan_obs::{Obs, ObsSnapshot};
use titan_reliability::study::CompletedStudy;
use titan_reliability::{Study, StudyConfig};
use titan_sim::{EngineSnapshot, EngineState};

use crate::Fnv1a;

/// Schema identifier written into every checkpoint document. `/2` read
/// the observer plan off the `obs` sections present, in place of the
/// `metrics_enabled` / `trace_enabled` flags of `/1`, and gave each
/// observer one `obs` section. `/3` stores each fact once: the seed and
/// window live only in `config`, the pause time only in `t`, and no
/// section keeps a value the resume derives from the rest.
pub const CKPT_SCHEMA: &str = "titan-ckpt/3";

/// One frozen machine state. Field order is part of the on-disk format
/// (lint S1, `titan-ckpt-3` golden spec): the digest is FNV-1a over the
/// serialized document with `digest` zeroed, so any reordering would
/// invalidate every existing checkpoint file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointDoc {
    /// Schema identifier ([`CKPT_SCHEMA`]).
    pub schema: String,
    /// Sim time (seconds since window start) of this boundary.
    pub t: u64,
    /// Checkpoint number within the run, 0-based, cadence order.
    pub index: u64,
    /// The previous checkpoint's `digest` (0 for index 0). Hashing this
    /// field is what chains the digests.
    pub prev_digest: u64,
    /// FNV-1a digest of this document serialized with `digest = 0`.
    pub digest: u64,
    /// The full study configuration, seed and window included; a
    /// resumed run needs no CLI config.
    pub config: StudyConfig,
    /// The engine state at `t` (heap, fleet, jobs, RNG positions).
    pub engine: EngineSnapshot,
    /// The observability state at `t`: one section per armed sink, so
    /// the sections present are the run's observer plan.
    pub obs: ObsSnapshot,
}

/// The chained digest of a document: FNV-1a over its compact JSON
/// with the `digest` field zeroed. `prev_digest` is inside the hashed
/// bytes, so this value commits to the entire chain back to index 0.
/// The JSON streams into the hasher; a document whose `digest` is
/// already 0 (one being sealed) is hashed in place, without a copy.
pub fn checkpoint_digest(doc: &CheckpointDoc) -> u64 {
    if doc.digest != 0 {
        let mut zeroed = doc.clone();
        zeroed.digest = 0;
        return checkpoint_digest(&zeroed);
    }
    let mut h = Fnv1a::new();
    // `Fnv1a::write_str` never fails, so the stream always completes.
    let _ = doc.write_json(&mut h);
    h.finish()
}

/// Renders a sealed document as compact JSON (one line + newline).
pub fn render_checkpoint(doc: &CheckpointDoc) -> String {
    let mut s = String::new();
    // Writing into a `String` cannot fail.
    let _ = doc.write_json(&mut s);
    s.push('\n');
    s
}

/// The chained digest read off a checkpoint's own bytes: FNV-1a over
/// `text` (trailing whitespace trimmed) with the digits after its first
/// `,"digest":` read as `0`. In the text [`render_checkpoint`] writes,
/// that is the top-level key right after `prev_digest`, and the value
/// equals [`checkpoint_digest`] of the parsed document, with no
/// re-serialization. For text in any other layout it is some other
/// value. `None` when the key is missing or no digits follow it.
pub fn checkpoint_text_digest(text: &str) -> Option<u64> {
    const KEY: &str = ",\"digest\":";
    let (head, rest) = text.trim_end().split_once(KEY)?;
    let tail = rest.trim_start_matches(|c: char| c.is_ascii_digit());
    if tail.len() == rest.len() {
        return None;
    }
    let mut h = Fnv1a::new();
    for part in [head, KEY, "0", tail] {
        h.update(part.as_bytes());
    }
    Some(h.finish())
}

/// Parses and **verifies** a checkpoint document: schema must match and
/// the recomputed chained digest must equal the stored one. A corrupted
/// file (any flipped byte) fails here with a clean error, and a document
/// of another schema (an older `titan-ckpt/1` or `/2` file) with one
/// naming both schemas.
///
/// One [`rayon::join`] parses the text on the caller and hashes its
/// bytes ([`checkpoint_text_digest`]) on the other thread. When the
/// byte hash equals the stored digest, the text is the canonical
/// document and is verified. Otherwise the parsed document is
/// re-serialized and hashed ([`checkpoint_digest`]), which verifies a
/// re-indented file and names the canonical value on a mismatch.
pub fn parse_checkpoint(text: &str) -> Result<CheckpointDoc, String> {
    let text = text.trim_end();
    let (doc, on_bytes) = rayon::join(
        || serde_json::from_str::<CheckpointDoc>(text),
        || checkpoint_text_digest(text),
    );
    let mut doc = doc.map_err(|e| format!("checkpoint parse: {e}"))?;
    if doc.schema != CKPT_SCHEMA {
        return Err(format!(
            "unsupported checkpoint schema `{}` (expected `{CKPT_SCHEMA}`)",
            doc.schema
        ));
    }
    if on_bytes == Some(doc.digest) {
        return Ok(doc);
    }
    // Zero the stored digest while hashing so the document is hashed in
    // place rather than copied.
    let stored = std::mem::take(&mut doc.digest);
    let computed = checkpoint_digest(&doc);
    if computed != stored {
        return Err(format!(
            "checkpoint digest mismatch: stored {stored:016x}, computed {computed:016x} \
             (file corrupted, truncated, or hand-edited — refusing to resume)"
        ));
    }
    doc.digest = stored;
    Ok(doc)
}

/// Runs `st` forward writing a checkpoint at every multiple of `every`
/// past `start_t` (strictly inside the window), feeding each sealed
/// document to `on_checkpoint` as it is produced so callers can stream
/// them to disk instead of holding the whole run in memory.
fn advance_with_checkpoints(
    st: &mut EngineState,
    config: &StudyConfig,
    every: SimTime,
    start_t: SimTime,
    first_index: u64,
    mut prev_digest: u64,
    obs: &mut Obs,
    on_checkpoint: &mut dyn FnMut(&CheckpointDoc) -> Result<(), String>,
) -> Result<(), String> {
    let window = config.sim.window;
    let mut index = first_index;
    let mut t = start_t.saturating_add(every);
    while t < window {
        st.run_until(t, obs);
        let mut doc = CheckpointDoc {
            schema: CKPT_SCHEMA.to_string(),
            t,
            index,
            prev_digest,
            digest: 0,
            config: config.clone(),
            engine: st.snapshot(),
            obs: ObsSnapshot::capture(obs),
        };
        doc.digest = checkpoint_digest(&doc);
        prev_digest = doc.digest;
        on_checkpoint(&doc)?;
        // The snapshot/serialization machinery above allocates heavily;
        // none of it is engine cost, so the ledger discards the delta at
        // its next scope switch instead of charging the next event kind.
        obs.prof_rebaseline();
        index += 1;
        t = t.saturating_add(every);
    }
    Ok(())
}

/// Drains the engine to the horizon and completes the study (render →
/// parse → bundle), exactly as a straight-through run would.
fn finish(mut st: EngineState, config: &StudyConfig, obs: &mut Obs) -> CompletedStudy {
    st.run_until(SimTime::MAX, obs);
    let sim = st.finalize(obs);
    Study::new(config.clone()).complete_from_sim(sim, obs)
}

/// Runs a full study, checkpointing every `every` sim seconds. Each
/// sealed [`CheckpointDoc`] is handed to `on_checkpoint` the moment its
/// boundary is reached. With `every == 0` no checkpoints are written,
/// as in [`resume_checkpointed`], and the run is a plain study run.
/// `divergence` arms the engine's test-only divergence probe
/// (`--inject-divergence`): one extra RNG draw at that sim time, used
/// to validate [`bisect`] localization.
pub fn run_checkpointed(
    config: &StudyConfig,
    every: SimTime,
    divergence: Option<SimTime>,
    obs: &mut Obs,
    mut on_checkpoint: impl FnMut(&CheckpointDoc) -> Result<(), String>,
) -> Result<CompletedStudy, String> {
    config.sim.validate()?;
    let mut st = EngineState::new(&config.sim, obs);
    st.set_divergence_probe(divergence);
    if every > 0 {
        advance_with_checkpoints(&mut st, config, every, 0, 0, 0, obs, &mut on_checkpoint)?;
    }
    Ok(finish(st, config, obs))
}

/// Resumes a verified checkpoint and runs it to completion. With
/// `every > 0` the run keeps checkpointing on the same absolute grid
/// (`doc.t + every`, `doc.t + 2·every`, …), continuing the digest
/// chain from `doc.digest` — a deterministic resume therefore produces
/// checkpoints *identical* to the original run's, which is the
/// property `ckpt bisect` leans on. With `every == 0` no further
/// checkpoints are written.
///
/// The caller's `obs` must arm exactly the sinks the original run
/// armed: every sink's state rides the checkpoint, and restoring into a
/// differently armed sink would silently drop that state or restart it
/// from zero. A mismatch is an error naming the flag, before any
/// restore.
pub fn resume_checkpointed(
    doc: &CheckpointDoc,
    every: SimTime,
    divergence: Option<SimTime>,
    obs: &mut Obs,
    mut on_checkpoint: impl FnMut(&CheckpointDoc) -> Result<(), String>,
) -> Result<CompletedStudy, String> {
    let written = doc.obs.plan();
    // `--prof` goes first: it arms the metrics sink too, so a mismatch
    // is named by the flag that was actually given.
    for (flag, was, now) in [
        ("--prof", written.prof, obs.prof_enabled()),
        ("--health", written.health, obs.health_enabled()),
        ("--trace", written.trace, obs.trace_enabled()),
        ("--metrics", written.metrics, obs.is_enabled()),
    ] {
        if was != now {
            let (with, hint) = if was {
                ("with", format!("pass {flag} FILE to resume it"))
            } else {
                ("without", "resume with the same flags as the original run".into())
            };
            return Err(format!("the checkpoint was written {with} {flag}; {hint}"));
        }
    }
    doc.config.sim.validate().map_err(|e| format!("checkpoint config: {e}"))?;
    let mut st = EngineState::restore(&doc.config.sim, &doc.engine, doc.t, obs)?;
    // Engine setup during restore feeds the sinks; each sink's restore
    // overwrites what its section carries, after checking the
    // section's shape (the trace's against the engine's console).
    doc.obs.restore(obs, doc.t, &doc.engine.out.console)?;
    st.set_divergence_probe(divergence);
    if every > 0 {
        advance_with_checkpoints(
            &mut st,
            &doc.config,
            every,
            doc.t,
            doc.index + 1,
            doc.digest,
            obs,
            &mut on_checkpoint,
        )?;
    }
    Ok(finish(st, &doc.config, obs))
}

/// Where two checkpointed runs first disagree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BisectInterval {
    /// Index of the first checkpoint whose chained digest differs.
    pub index: u64,
    /// Sim time of the last agreeing checkpoint (0 when the very first
    /// checkpoint already differs).
    pub t_lo: u64,
    /// Sim time of the first diverging checkpoint: the divergent event
    /// lies in `(t_lo, t_hi]`.
    pub t_hi: u64,
}

/// Outcome of comparing two runs' checkpoint chains.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BisectReport {
    /// Checkpoint pairs compared (the shorter chain's length).
    pub compared: u64,
    /// First diverging interval, `None` when every compared pair
    /// agrees.
    pub divergence: Option<BisectInterval>,
}

/// Localizes the first divergence between two checkpointed runs of the
/// same configuration. Because each digest is chained over the previous
/// one and the machine state at boundary *k* is a pure function of the
/// state at *k−1*, comparing the chains index by index is equivalent to
/// replaying from each successive common checkpoint: the first
/// mismatching digest brackets the first diverging event to one
/// interval. Both slices must be index-sorted on the same cadence grid.
pub fn bisect(a: &[CheckpointDoc], b: &[CheckpointDoc]) -> Result<BisectReport, String> {
    if a.is_empty() || b.is_empty() {
        return Err("bisect: both runs need at least one checkpoint".into());
    }
    let mut prev_t = 0u64;
    let mut compared = 0u64;
    for (x, y) in a.iter().zip(b.iter()) {
        if x.index != y.index || x.t != y.t {
            return Err(format!(
                "bisect: checkpoint grids differ (index {} t {}s vs index {} t {}s) — \
                 both runs must use the same --checkpoint-every cadence",
                x.index, x.t, y.index, y.t
            ));
        }
        compared += 1;
        if x.digest != y.digest {
            return Ok(BisectReport {
                compared,
                divergence: Some(BisectInterval {
                    index: x.index,
                    t_lo: prev_t,
                    t_hi: x.t,
                }),
            });
        }
        prev_t = x.t;
    }
    Ok(BisectReport {
        compared,
        divergence: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_obs::ObsPlan;

    const DAY: u64 = 86_400;

    fn collect(
        config: &StudyConfig,
        every: u64,
        divergence: Option<u64>,
    ) -> (CompletedStudy, Vec<CheckpointDoc>) {
        let mut docs = Vec::new();
        let mut obs = Obs::disabled();
        let study = run_checkpointed(config, every, divergence, &mut obs, |d| {
            docs.push(d.clone());
            Ok(())
        })
        .expect("checkpointed run");
        (study, docs)
    }

    /// The tentpole invariant at the library level: resuming from any
    /// checkpoint reproduces the run-through output exactly, and the
    /// resumed run re-produces the identical digest chain.
    #[test]
    fn resume_reproduces_run_through_exactly() {
        let config = StudyConfig::quick(30, 7);
        let (through, docs) = collect(&config, 10 * DAY, None);
        assert_eq!(docs.len(), 2, "30 days / 10-day cadence => t=10d, t=20d");
        for doc in &docs {
            let mut redone = Vec::new();
            let mut obs = Obs::disabled();
            let resumed = resume_checkpointed(doc, 10 * DAY, None, &mut obs, |d| {
                redone.push(d.clone());
                Ok(())
            })
            .expect("resume");
            assert_eq!(resumed.sim, through.sim, "resume from t={} diverged", doc.t);
            assert_eq!(
                crate::output_digest(&resumed.sim),
                crate::output_digest(&through.sim)
            );
            // The continued chain matches the original run's tail.
            let tail: Vec<&CheckpointDoc> =
                docs.iter().filter(|d| d.index > doc.index).collect();
            assert_eq!(redone.len(), tail.len());
            for (r, t) in redone.iter().zip(tail) {
                assert_eq!(r, t, "resumed checkpoint {} differs", r.index);
            }
        }
    }

    /// Metrics and trace survive a resume byte-for-byte.
    #[test]
    fn resume_preserves_metrics_and_trace_bytes() {
        let config = StudyConfig::quick(30, 11);
        let seed = config.sim.seed;
        let window = config.sim.window;
        let mk_obs = || {
            let mut o = Obs::new(true);
            o.enable_trace();
            o
        };
        let mut docs = Vec::new();
        let mut obs_a = mk_obs();
        let through = run_checkpointed(&config, 12 * DAY, None, &mut obs_a, |d| {
            docs.push(d.clone());
            Ok(())
        })
        .expect("run");
        let doc_a = crate::collect_metrics(&through.sim, seed, window, &mut obs_a);
        let trace_a = obs_a.stream.render_jsonl(seed, window / DAY);

        let mut obs_b = mk_obs();
        let resumed =
            resume_checkpointed(&docs[0], 0, None, &mut obs_b, |_| Ok(())).expect("resume");
        let doc_b = crate::collect_metrics(&resumed.sim, seed, window, &mut obs_b);
        let trace_b = obs_b.stream.render_jsonl(seed, window / DAY);

        assert_eq!(through.sim.render_console_log(), resumed.sim.render_console_log());
        assert_eq!(doc_a.to_json(), doc_b.to_json(), "metrics doc diverged");
        assert_eq!(trace_a, trace_b, "trace JSONL diverged");
    }

    /// A checkpoint whose per-job SBE tables list every allocated node,
    /// zeros included, as checkpoints written before the tables became
    /// sparse do, still verifies and resumes to the same report, metrics
    /// and trace as a straight run.
    #[test]
    fn dense_sbe_tables_resume_to_the_same_documents() {
        use serde::Value;
        use titan_conlog::JobRecord;
        use titan_nvsmi::JobEccDelta;

        fn field<'a>(v: &'a mut Value, name: &str) -> &'a mut Value {
            match v {
                Value::Object(fields) => {
                    &mut fields.iter_mut().find(|(k, _)| k == name).expect(name).1
                }
                _ => panic!("`{name}`: not an object"),
            }
        }

        let config = StudyConfig::quick(30, 11);
        let seed = config.sim.seed;
        let window = config.sim.window;
        let mk_obs = || {
            let mut o = Obs::new(true);
            o.enable_trace();
            o
        };
        let mut docs = Vec::new();
        let mut obs_a = mk_obs();
        let through = run_checkpointed(&config, 12 * DAY, None, &mut obs_a, |d| {
            docs.push(d.clone());
            Ok(())
        })
        .expect("run");
        let metrics_a = crate::collect_metrics(&through.sim, seed, window, &mut obs_a).to_json();
        let trace_a = obs_a.stream.render_jsonl(seed, window / DAY);

        // Densify the first checkpoint's finished jobs and re-seal it.
        let mut v = docs[0].to_value();
        let out = field(field(&mut v, "engine"), "out");
        let jobs = Vec::<JobRecord>::from_value(field(out, "jobs")).expect("jobs");
        let nodes: std::collections::BTreeMap<u64, _> =
            jobs.iter().map(|j| (j.apid, &j.nodes)).collect();
        let mut deltas = Vec::<JobEccDelta>::from_value(field(out, "job_sbe")).expect("job_sbe");
        let mut zeros = 0;
        for d in &mut deltas {
            let dense: Vec<_> = nodes[&d.apid]
                .iter()
                .map(|n| {
                    let c = d.per_node_sbe.iter().find(|&&(m, _)| m == n);
                    (n, c.map_or(0, |&(_, c)| c))
                })
                .collect();
            zeros += dense.len() - d.per_node_sbe.len();
            d.per_node_sbe = dense;
        }
        assert!(zeros > 0, "the checkpoint has no zero deltas to restore");
        *field(out, "job_sbe") = deltas.to_value();
        let mut dense = CheckpointDoc::from_value(&v).expect("dense doc");
        dense.digest = checkpoint_digest(&dense);
        let dense = parse_checkpoint(&render_checkpoint(&dense)).expect("dense doc verifies");

        let mut obs_b = mk_obs();
        let resumed = resume_checkpointed(&dense, 0, None, &mut obs_b, |_| Ok(())).expect("resume");
        let metrics_b = crate::collect_metrics(&resumed.sim, seed, window, &mut obs_b).to_json();
        let trace_b = obs_b.stream.render_jsonl(seed, window / DAY);

        assert_ne!(resumed.sim.job_sbe, through.sim.job_sbe);
        assert_eq!(
            titan_reliability::full_report(&resumed),
            titan_reliability::full_report(&through),
            "report diverged"
        );
        assert_eq!(metrics_a, metrics_b, "metrics doc diverged");
        assert_eq!(trace_a, trace_b, "trace JSONL diverged");
    }

    #[test]
    fn digests_chain_and_verify() {
        let config = StudyConfig::quick(30, 3);
        let (_, docs) = collect(&config, 10 * DAY, None);
        assert_eq!(docs[0].prev_digest, 0);
        assert_eq!(docs[1].prev_digest, docs[0].digest);
        for doc in &docs {
            let text = render_checkpoint(doc);
            let back = parse_checkpoint(&text).expect("round trip");
            assert_eq!(&back, doc);
        }
        // A flipped byte anywhere in the JSON fails verification
        // cleanly — no panic, no resume from poisoned state.
        let text = render_checkpoint(&docs[0]);
        let mid = text.len() / 2;
        let mut bytes = text.into_bytes();
        bytes[mid] ^= 0x01;
        match String::from_utf8(bytes) {
            Ok(corrupt) => {
                let err = parse_checkpoint(&corrupt).expect_err("corruption must fail");
                assert!(
                    err.contains("digest mismatch") || err.contains("parse"),
                    "unexpected error: {err}"
                );
            }
            Err(_) => { /* flip landed in a multibyte char — not valid UTF-8, unreadable anyway */ }
        }
    }

    #[test]
    fn bisect_localizes_an_injected_divergence() {
        let config = StudyConfig::quick(30, 5);
        let (_, clean) = collect(&config, 10 * DAY, None);
        // One extra RNG draw at day 15: inside the (10d, 20d] interval.
        let (_, dirty) = collect(&config, 10 * DAY, Some(15 * DAY));
        assert_eq!(clean.len(), dirty.len());
        let report = bisect(&clean, &dirty).expect("bisect");
        let div = report.divergence.expect("probe must diverge the chain");
        assert_eq!(div.t_lo, 10 * DAY);
        assert_eq!(div.t_hi, 20 * DAY);
        assert_eq!(div.index, 1);
        // Identical runs: no divergence, full chain compared.
        let (_, again) = collect(&config, 10 * DAY, None);
        let same = bisect(&clean, &again).expect("bisect");
        assert_eq!(same.compared, clean.len() as u64);
        assert!(same.divergence.is_none());
    }

    /// Resume compares the checkpoint's sinks with the armed ones in
    /// the library, so no caller can restore into a mismatched sink.
    #[test]
    fn resume_rejects_a_mismatched_sink() {
        let config = StudyConfig::quick(12, 3);
        let armed = || {
            Obs::from_plan(&ObsPlan {
                metrics: true,
                trace: true,
                health: true,
                prof: true,
            })
        };
        let first = |obs: &mut Obs| {
            let mut docs = Vec::new();
            run_checkpointed(&config, 4 * DAY, None, obs, |d| {
                docs.push(d.clone());
                Ok(())
            })
            .expect("checkpointed run");
            docs.swap_remove(0)
        };
        let armed_doc = first(&mut armed());
        let plain_doc = first(&mut Obs::disabled());
        let err = resume_checkpointed(&armed_doc, 0, None, &mut Obs::disabled(), |_| Ok(()))
            .expect_err("armed checkpoint into a disabled sink");
        assert!(err.contains("written with --prof"), "{err}");
        let err = resume_checkpointed(&plain_doc, 0, None, &mut armed(), |_| Ok(()))
            .expect_err("plain checkpoint into an armed sink");
        assert!(err.contains("written without --prof"), "{err}");
        assert!(resume_checkpointed(&armed_doc, 0, None, &mut armed(), |_| Ok(())).is_ok());
    }

    /// A written checkpoint stores each fact once: none of the copies
    /// `titan-ckpt/2` kept beside their sources, and an empty
    /// `console_lines` series, which is bucketed only at finalize.
    #[test]
    fn a_checkpoint_holds_no_derived_copy() {
        use serde::Value;
        let config = StudyConfig::quick(8, 3);
        let mut obs = Obs::from_plan(&ObsPlan {
            metrics: true,
            trace: true,
            health: true,
            prof: true,
        });
        let mut docs = Vec::new();
        run_checkpointed(&config, 4 * DAY, None, &mut obs, |d| {
            docs.push(d.to_value());
            Ok(())
        })
        .expect("checkpointed run");
        let doc = &docs[0];
        let keys = |v: &Value| -> Vec<String> {
            v.as_object("section").expect("an object").iter().map(|(k, _)| k.clone()).collect()
        };
        let obs = doc.get_field("obs");
        for (section, gone) in [
            (doc, &["seed", "window_days"][..]),
            (doc.get_field("engine"), &["t"][..]),
            (obs.get_field("trace"), &["console"][..]),
            (obs.get_field("health"), &["next_boundary", "finished"][..]),
        ] {
            let keys = keys(section);
            for key in gone {
                assert!(!keys.iter().any(|k| k == key), "`{key}` is stored: {keys:?}");
            }
        }
        let series = obs.get_field("metrics").get_field("timeseries");
        assert_eq!(series.as_array_n(6, "timeseries").expect("six series")[0], Value::Array(vec![]));
    }

    #[test]
    fn mismatched_grids_and_bad_input_are_rejected() {
        let config = StudyConfig::quick(30, 5);
        let (_, a) = collect(&config, 10 * DAY, None);
        let (_, b) = collect(&config, 15 * DAY, None);
        assert!(bisect(&a, &b).is_err(), "different cadences must not compare");
        assert!(bisect(&a, &[]).is_err());
        // `every == 0` writes no checkpoints and runs the plain study.
        let mut written = 0;
        let plain = run_checkpointed(&config, 0, None, &mut Obs::disabled(), |_| {
            written += 1;
            Ok(())
        })
        .expect("a run without checkpoints");
        assert_eq!(written, 0);
        assert_eq!(plain.sim, Study::new(config.clone()).run().sim);
        // A checkpoint from one config must not resume under another:
        // parse succeeds (the doc is intact) but restore rejects it.
        let mut doc = a[0].clone();
        doc.config = StudyConfig::quick(20, 5);
        doc.config.sim.seed = 5;
        assert!(
            resume_checkpointed(&doc, 0, None, &mut Obs::disabled(), |_| Ok(())).is_err(),
            "tampered config must be rejected by the engine's setup fingerprint"
        );
    }
}
