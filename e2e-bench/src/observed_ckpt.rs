//! `observed-ckpt`: one seed, a medium window, every sink armed
//! (metrics, flight recorder, health, prof ledger); checkpoints on a
//! 30-sim-day cadence, written, read back, and resumed from the first;
//! then SEC replay, the full report, and the trace/health/metrics docs
//! of both the uninterrupted and the resumed run.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use titan_conlog::time::SimTime;
use titan_obs::flight::{parse_trace, verify_trace};
use titan_obs::Obs;
use titan_reliability::full_report;
use titan_reliability::study::CompletedStudy;
use titan_reliability::StudyConfig;
use titan_runner::{
    collect_metrics, parse_checkpoint, render_checkpoint, resume_checkpointed, run_checkpointed,
    CheckpointDoc,
};
use titan_sim::EngineState;

use crate::compose::{self, add, text_digest, Counts};
use crate::trace::{self, SpanId, Tracer};
use crate::{check, seeds, time_setups, Outcome, Traced};

/// Study window, in days.
pub const DAYS: u64 = 90;
/// Checkpoint cadence: boundaries at day 30 and day 60.
pub const EVERY: SimTime = 30 * 86_400;
/// Checkpoints an uninterrupted run writes: one per boundary before
/// the end of the window.
const CHECKPOINTS: u64 = (DAYS * 86_400).div_ceil(EVERY) - 1;
/// Armed set-ups per iteration, for `setup_s`.
const SETUPS: usize = 5;

fn armed() -> Obs {
    let mut obs = Obs::new(true);
    obs.enable_trace();
    obs.enable_health();
    obs.enable_prof();
    obs
}

/// The user-visible documents of one finished run.
struct Docs {
    report: String,
    metrics: String,
    trace: String,
    health: String,
    sec_events: u64,
    sec_alerts: u64,
    trace_records: usize,
}

/// Tracing context: the tracer and the span new spans nest under, or
/// `None` for the untraced run.
type Ctx<'a> = Option<(&'a Tracer, SpanId)>;

/// Runs `f` inside a span when tracing, a plain call otherwise; `f`
/// receives the context its own spans nest under.
fn span<'a, R>(t: Ctx<'a>, name: &'static str, study: u64, f: impl FnOnce(Ctx<'a>) -> R) -> R {
    match t {
        Some((tracer, parent)) => {
            tracer.span(name, study, Some(parent), |id| f(Some((tracer, id))))
        }
        None => f(None),
    }
}

fn docs(t: Ctx<'_>, study: &CompletedStudy, obs: &mut Obs) -> Docs {
    let seed = study.config.sim.seed;
    let window = study.config.sim.window;
    let days = window / 86_400;
    let doc = span(t, "runner.collect", seed, |_| {
        collect_metrics(&study.sim, seed, window, obs)
    });
    let report = span(t, "core.report", seed, |_| full_report(study));
    let trace = span(t, "obs.trace.render", seed, |_| {
        obs.stream.render_jsonl(seed, days)
    });
    let health = span(t, "obs.health.render", seed, |_| {
        obs.health.render_jsonl(seed, days)
    });
    let metrics = span(t, "obs.metrics.render", seed, |_| doc.to_json());
    Docs {
        report,
        metrics,
        trace,
        health,
        sec_events: doc.sec.get("events_ingested").copied().unwrap_or(0),
        sec_alerts: doc.sec.get("alerts").copied().unwrap_or(0),
        trace_records: obs.stream.records().len(),
    }
}

/// Writes one checkpoint document; returns its path and byte count.
fn write_ckpt(
    dir: &Path,
    doc: &CheckpointDoc,
    written: &mut Vec<(PathBuf, usize)>,
) -> Result<(), String> {
    let path = dir.join(format!("ckpt-{:06}.json", doc.index));
    let text = render_checkpoint(doc);
    fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    written.push((path, text.len()));
    Ok(())
}

/// Everything the workload produced, for the checks after the window.
struct Run {
    through: Result<Docs, String>,
    written: Vec<(PathBuf, usize)>,
    parsed: Vec<Result<CheckpointDoc, String>>,
    resumed: Result<Docs, String>,
    resumed_written: Vec<(PathBuf, usize)>,
    verified: Result<(), String>,
}

fn workload(t: Ctx<'_>, config: &StudyConfig, work: &Path) -> Run {
    let seed = config.sim.seed;
    let through_dir = work.join("through");
    let resumed_dir = work.join("resumed");
    let mut run = Run {
        through: Err("not run".into()),
        written: Vec::new(),
        parsed: Vec::new(),
        resumed: Err("not run".into()),
        resumed_written: Vec::new(),
        verified: Err("not run".into()),
    };
    for dir in [&through_dir, &resumed_dir] {
        if let Err(e) = fs::create_dir_all(dir) {
            run.through = Err(format!("create {}: {e}", dir.display()));
            return run;
        }
    }

    let mut obs = armed();
    let mut written = Vec::new();
    let through = span(t, "runner.ckpt.run", seed, |t| {
        run_checkpointed(config, EVERY, None, &mut obs, |doc| {
            span(t, "runner.ckpt.write", seed, |_| {
                write_ckpt(&through_dir, doc, &mut written)
            })
        })
    });
    run.through = through.map(|study| docs(t, &study, &mut obs));
    drop(obs);

    run.parsed = written
        .iter()
        .map(|(path, _)| {
            span(t, "runner.ckpt.read", seed, |_| {
                let text = fs::read_to_string(path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                parse_checkpoint(&text)
            })
        })
        .collect();
    run.written = written;

    if let Some(Ok(first)) = run.parsed.first() {
        let mut obs = armed();
        let mut written = Vec::new();
        let resumed = span(t, "runner.ckpt.resume", seed, |t| {
            resume_checkpointed(first, EVERY, None, &mut obs, |doc| {
                span(t, "runner.ckpt.write", seed, |_| {
                    write_ckpt(&resumed_dir, doc, &mut written)
                })
            })
        });
        run.resumed = resumed.map(|study| docs(t, &study, &mut obs));
        run.resumed_written = written;
    } else {
        run.resumed = Err("no readable first checkpoint to resume from".into());
    }

    if let Ok(d) = &run.through {
        run.verified = span(t, "obs.trace.verify", seed, |_| {
            let (header, records) = parse_trace(&d.trace)?;
            let report = verify_trace(&header, &records);
            if report.ok() {
                Ok(())
            } else {
                Err(format!("trace provenance: {:?}", report.errors))
            }
        });
    }
    run
}

fn config(seed: u64) -> StudyConfig {
    StudyConfig::quick(DAYS, seeds::pick(seeds::OBSERVED_CKPT, seed, 1)[0])
}

pub fn run(seed: u64, work: &Path, identity: bool) -> Outcome {
    let config = config(seed);
    let t0 = Instant::now();
    let run = workload(None, &config, work);
    let mut out = Outcome::new(t0.elapsed().as_secs_f64());
    finish(&mut out, &run, identity);
    drop(run);
    // `run_checkpointed` sets up inside; set-up time comes from
    // sequential set-ups with the same armed sinks, outside the window.
    out.setup_s = time_setups(&config.sim, armed, SETUPS);
    out.study_seeds.push(config.sim.seed);
    out
}

pub fn run_traced(seed: u64, work: &Path) -> Outcome {
    let config = config(seed);
    let seed = config.sim.seed;
    let t = Tracer::new();
    let run = t.span("observed-ckpt", seed, None, |root| {
        workload(Some((&t, root)), &config, work)
    });
    let spans = t.finish();
    let wall_s = trace::times(&spans)
        .inclusive_s
        .get("observed-ckpt")
        .copied()
        .unwrap_or(0.0);
    let mut out = Outcome::new(wall_s);
    finish(&mut out, &run, true);
    out.study_seeds.push(seed);

    let mut counts = Counts::new();
    let written = run.written.iter().chain(&run.resumed_written);
    add(
        &mut counts,
        "runner.ckpt.docs",
        written.clone().count() as f64,
    );
    add(
        &mut counts,
        "runner.ckpt.bytes",
        written.map(|(_, n)| *n as f64).sum(),
    );
    // The share of each checkpoint that is observability state (trace
    // records, spans, health, ledger) rather than engine state.
    for doc in run.parsed.iter().flatten() {
        let obs_bytes = serde_json::to_string(&doc.obs).map_or(0, |s| s.len());
        add(&mut counts, "runner.ckpt.obs_bytes", obs_bytes as f64);
    }
    if let Ok(d) = &run.through {
        add(&mut counts, "conlog.sec.events", d.sec_events as f64);
        add(&mut counts, "conlog.sec.alerts", d.sec_alerts as f64);
        add(&mut counts, "obs.trace.records", d.trace_records as f64);
        add(&mut counts, "obs.trace.bytes", d.trace.len() as f64);
        add(&mut counts, "obs.health.bytes", d.health.len() as f64);
        add(&mut counts, "core.report.bytes", d.report.len() as f64);
    }
    let mut values = BTreeMap::new();
    values.insert("obs.loop_overhead".to_string(), loop_overhead(&config));
    out.traced = Some(Traced {
        spans,
        counts,
        values,
        container: "observed-ckpt",
    });
    out
}

/// Armed-sink over plain `run_until` wall, same seed and window, minus
/// one; the faster of two runs on each side.
fn loop_overhead(config: &StudyConfig) -> f64 {
    let time_loop = |mk: fn() -> Obs| {
        (0..2)
            .map(|_| {
                let mut obs = mk();
                let mut st = EngineState::new(&config.sim, &mut obs);
                let t0 = Instant::now();
                st.run_until(SimTime::MAX, &mut obs);
                let s = t0.elapsed().as_secs_f64();
                std::hint::black_box(&st);
                s
            })
            .fold(f64::INFINITY, f64::min)
    };
    let plain = time_loop(Obs::disabled);
    let armed = time_loop(armed);
    armed / plain - 1.0
}

/// Operations: the uninterrupted study, each checkpoint write, each
/// checkpoint read, and the resume. Checked after the timed window.
fn finish(out: &mut Outcome, run: &Run, identity: bool) {
    let mut problems = Vec::new();
    match &run.through {
        Ok(d) => {
            out.checks_pass = d.report.lines().filter(|l| l.starts_with("[PASS]")).count() as u64;
        }
        Err(e) => problems.push(e.clone()),
    }
    if let Err(e) = &run.verified {
        problems.push(e.clone());
    }
    check(
        &mut problems,
        run.written.len() as u64 == CHECKPOINTS,
        || {
            format!(
                "{} checkpoints written, {CHECKPOINTS} expected",
                run.written.len()
            )
        },
    );
    out.op("study", problems);

    // A failed write aborts its run (counted above); every write that
    // returned is one successful operation.
    for (path, _) in run.written.iter().chain(&run.resumed_written) {
        out.op(&format!("write {}", path.display()), Vec::new());
    }
    for (i, parsed) in run.parsed.iter().enumerate() {
        let problems = match parsed {
            Ok(doc) => {
                let mut p = Vec::new();
                check(&mut p, doc.index == i as u64, || {
                    format!("index {} at position {i}", doc.index)
                });
                p
            }
            Err(e) => vec![e.clone()],
        };
        out.op(&format!("read checkpoint {i}"), problems);
    }

    let mut problems = Vec::new();
    match (&run.through, &run.resumed) {
        (Ok(a), Ok(b)) => {
            for (name, x, y) in [
                ("report", &a.report, &b.report),
                ("metrics", &a.metrics, &b.metrics),
                ("trace", &a.trace, &b.trace),
                ("health", &a.health, &b.health),
            ] {
                check(&mut problems, x == y, || {
                    format!("resumed {name} bytes differ")
                });
            }
        }
        (_, Err(e)) => problems.push(e.clone()),
        (Err(_), Ok(_)) => problems.push("no uninterrupted run to compare against".into()),
    }
    // The resume keeps checkpointing on the same grid, so it writes
    // every checkpoint after the first again, and each must repeat the
    // original byte for byte.
    let rewritten = run.resumed_written.len() as u64;
    check(&mut problems, rewritten + 1 == CHECKPOINTS, || {
        format!(
            "resume wrote {rewritten} checkpoints, {} expected",
            CHECKPOINTS - 1
        )
    });
    for (path, _) in &run.resumed_written {
        let original = run
            .written
            .iter()
            .find(|(p, _)| p.file_name() == path.file_name());
        let same = original.is_some_and(|(p, _)| fs::read(p).ok() == fs::read(path).ok());
        check(&mut problems, same, || {
            format!("resumed {} differs from the original", path.display())
        });
    }
    out.op("resume", problems);

    if identity {
        if let Ok(d) = &run.through {
            out.digest("report", text_digest(&d.report));
            out.digest("metrics", text_digest(&d.metrics));
            out.digest("trace", text_digest(&d.trace));
            out.digest("health", text_digest(&d.health));
        }
        for (path, _) in &run.written {
            let bytes = fs::read(path).unwrap_or_default();
            let mut h = compose::Fnv::new();
            h.eat(&bytes);
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            out.digest(&name, h.0);
        }
    }
}
