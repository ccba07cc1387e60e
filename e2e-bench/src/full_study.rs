//! `full-study`: one seed, the full 638-day window, observers off —
//! `titan-repro check` plus the `figures` example's artifact writers.

use std::path::Path;
use std::time::Instant;

use titan_conlog::time::SimTime;
use titan_obs::Obs;
use titan_reliability::study::CompletedStudy;
use titan_reliability::{evaluate_all, Expectation, Figures, Study, StudyConfig, Verdict};
use titan_sim::EngineState;

use crate::compose::{self, add, debug_digest, Counts};
use crate::trace::{self, Tracer};
use crate::{artifacts, check, seeds, time_setups, Outcome, Traced};

fn config(seed: u64) -> StudyConfig {
    let mut config = StudyConfig::default();
    config.sim.seed = seeds::pick(seeds::FULL_STUDY, seed, 1)[0];
    config
}

/// Set-up samples per iteration besides the one inside the timed window.
const SETUPS: usize = 2;

pub fn run(seed: u64, work: &Path, identity: bool) -> Outcome {
    let config = config(seed);
    let mut obs = Obs::disabled();
    let t0 = Instant::now();
    let mut st = EngineState::new(&config.sim, &mut obs);
    let setup_s = t0.elapsed().as_secs_f64();
    st.run_until(SimTime::MAX, &mut obs);
    let sim = st.finalize(&mut obs);
    let study = Study::new(config.clone()).complete_from_sim(sim, &mut obs);
    let figures = study.figures();
    let exps = evaluate_all(&figures);
    let written = artifacts::write_all(&work.join("artifacts"), &figures, &exps);
    let wall_s = t0.elapsed().as_secs_f64();

    let mut out = Outcome::new(wall_s);
    finish(
        &mut out,
        &study,
        &figures,
        &exps,
        written.map(|_| ()),
        identity,
    );
    drop((study, figures, exps));
    out.setup_s.push(setup_s);
    out.setup_s
        .extend(time_setups(&config.sim, Obs::disabled, SETUPS));
    out
}

pub fn run_traced(seed: u64, work: &Path) -> Outcome {
    let config = config(seed);
    let seed = config.sim.seed;
    let t = Tracer::new();
    // The cost ledger supplies the engine's deterministic work counts;
    // it is a pure observer, which the identity digests confirm.
    let mut obs = Obs::new(false);
    obs.enable_prof();
    let mut counts = Counts::new();
    let (study, figures, exps, written) = t.span("full-study", seed, None, |root| {
        let sim = compose::simulate(&t, root, seed, &config.sim, &mut obs);
        let data = compose::roundtrip(&t, root, seed, &sim, &mut counts);
        let study = CompletedStudy {
            config: config.clone(),
            sim,
            data,
        };
        let figures = compose::figures(&t, root, seed, &study.data);
        let exps = t.span("core.checks", seed, Some(root), |_| evaluate_all(&figures));
        let written = t.span("core.artifacts", seed, Some(root), |_| {
            artifacts::write_all(&work.join("artifacts"), &figures, &exps)
        });
        (study, figures, exps, written)
    });
    obs.prof_finish();
    compose::engine_counts(&obs.prof_ledger().ledger_map(), &mut counts);
    add(
        &mut counts,
        "analysis.records",
        compose::analysis_records(&study.data),
    );
    // What `bench_pr` divides by wall time as "events": output records,
    // not heap events.
    let sim = &study.sim;
    let sbe: u64 = sim.truth.sbe_by_card.iter().sum();
    let records =
        sim.console.len() as u64 + 2 * sim.jobs.len() as u64 + sbe + sim.truth.sbe_rejected;
    add(&mut counts, "simulator.output_records", records as f64);
    add(&mut counts, "core.checks.evaluated", exps.len() as f64);
    if let Ok((files, bytes)) = &written {
        add(&mut counts, "core.artifacts.files", *files as f64);
        add(&mut counts, "core.artifacts.bytes", *bytes as f64);
    }

    let spans = t.finish();
    let mut out = Outcome::new(
        trace::times(&spans)
            .inclusive_s
            .get("full-study")
            .copied()
            .unwrap_or(0.0),
    );
    finish(&mut out, &study, &figures, &exps, written.map(|_| ()), true);
    out.traced = Some(Traced {
        spans,
        counts,
        values: Default::default(),
        container: "full-study",
    });
    out
}

/// The iteration's one operation (the study) and its correctness
/// checks, run after the timed window.
fn finish(
    out: &mut Outcome,
    study: &CompletedStudy,
    figures: &Figures,
    exps: &[Expectation],
    written: std::io::Result<()>,
    identity: bool,
) {
    let data = &study.data;
    out.study_seeds.push(study.config.sim.seed);
    let mut problems = Vec::new();
    check(&mut problems, data.console_parse.skipped == 0, || {
        format!(
            "{} console lines skipped by the parser",
            data.console_parse.skipped
        )
    });
    check(&mut problems, data.job_parse_errors == 0, || {
        format!("{} job-log lines failed to parse", data.job_parse_errors)
    });
    check(&mut problems, data.console == study.sim.console, || {
        "parsed console differs from the simulated console".to_string()
    });
    check(
        &mut problems,
        data.jobs.len() == study.sim.jobs.len(),
        || {
            format!(
                "{} jobs parsed back, {} simulated",
                data.jobs.len(),
                study.sim.jobs.len()
            )
        },
    );
    if let Err(e) = written {
        problems.push(format!("artifact write failed: {e}"));
    }
    out.op("study", problems);
    out.checks_pass = exps.iter().filter(|e| e.verdict == Verdict::Pass).count() as u64;
    if identity {
        out.digest("study_data", debug_digest(data));
        out.digest("figures", debug_digest(figures));
        out.digest("expectations", debug_digest(&exps));
    }
}
