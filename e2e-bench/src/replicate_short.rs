//! `replicate-short`: many seeds with short windows through
//! `titan_runner::replicate`, expectations on, one worker per core.

use std::time::Instant;

use titan_obs::Obs;
use titan_reliability::study::CompletedStudy;
use titan_reliability::{evaluate_all, StudyConfig, Verdict};
use titan_runner::{replicate, run_seed, seed_metrics, ReplicateOptions, SeedRun};

use crate::compose::{self, add, debug_digest, Counts};
use crate::trace::{self, SpanId, Tracer};
use crate::{check, seeds, time_setups, Outcome, Traced};

/// Seeds per iteration, drawn from the size-matched pool.
pub const SEEDS: u64 = 8;
/// Study window of each seed, in days.
pub const DAYS: u64 = 30;
/// Sequential set-ups of the first seed per iteration, for `setup_s`.
const SETUPS: usize = 5;

fn options(seed: u64, threads: usize) -> ReplicateOptions {
    let seeds = seeds::pick(seeds::REPLICATE_SHORT, seed, SEEDS as usize);
    let first = seeds[0];
    let mut opts =
        ReplicateOptions::consecutive(StudyConfig::quick(DAYS, first), first, 0, threads)
            .expect("an empty consecutive range cannot overflow");
    opts.seeds = seeds;
    opts
}

pub fn run(seed: u64, threads: usize) -> Outcome {
    let opts = options(seed, threads);
    let t0 = Instant::now();
    let report = replicate(&opts);
    let wall_s = t0.elapsed().as_secs_f64();

    let mut out = Outcome::new(wall_s);
    match report {
        Ok(report) => finish(&mut out, &opts.seeds, &report.runs),
        Err(e) => {
            for s in &opts.seeds {
                out.op(&format!("seed {s}"), vec![format!("replicate failed: {e}")]);
            }
        }
    }
    // `replicate` sets up inside its workers; set-up time comes from
    // sequential set-ups of the first seed, outside the timed window.
    out.setup_s = time_setups(&opts.base.sim, Obs::disabled, SETUPS);
    out
}

pub fn run_traced(seed: u64, threads: usize) -> Outcome {
    let opts = options(seed, threads);
    let seed = opts.base.sim.seed;
    let t = Tracer::new();
    let results: Vec<(SeedRun, Counts)> = t.span("replicate-short", seed, None, |root| {
        t.span("runner.replicate", seed, Some(root), |rep| {
            rayon::scope_map(opts.seeds.clone(), opts.threads, |s| {
                t.span("runner.seed", s, Some(rep), |sp| {
                    seed_traced(&t, sp, &opts.base, s)
                })
            })
        })
    });
    let spans = t.finish();
    let times = trace::times(&spans);
    let wall_s = times
        .inclusive_s
        .get("replicate-short")
        .copied()
        .unwrap_or(0.0);

    let mut counts = Counts::new();
    let mut runs = Vec::new();
    for (run, c) in results {
        for (k, v) in c {
            add(&mut counts, &k, v);
        }
        runs.push(run);
    }
    add(&mut counts, "runner.replicate.seeds", runs.len() as f64);
    let mut out = Outcome::new(wall_s);
    finish(&mut out, &opts.seeds, &runs);
    // Σ per-seed time ÷ (threads × fan-out wall): 1.0 keeps every
    // worker busy from the first seed to the last.
    let per_seed = times.inclusive_s.get("runner.seed").copied().unwrap_or(0.0);
    let fan_out = times
        .inclusive_s
        .get("runner.replicate")
        .copied()
        .unwrap_or(0.0);
    let mut values = std::collections::BTreeMap::new();
    if fan_out > 0.0 {
        values.insert(
            "runner.replicate.efficiency".to_string(),
            per_seed / (opts.threads as f64 * fan_out),
        );
    }
    out.traced = Some(Traced {
        spans,
        counts,
        values,
        // Coverage per seed: the layers inside each `runner.seed`, not
        // the fan-out wrapper that encloses them all.
        container: "runner.seed",
    });
    out
}

/// `run_seed_full` for one seed, split into its public parts.
fn seed_traced(t: &Tracer, sp: SpanId, base: &StudyConfig, seed: u64) -> (SeedRun, Counts) {
    let mut counts = Counts::new();
    let mut config = base.clone();
    config.sim.seed = seed;
    let mut obs = Obs::new(false);
    obs.enable_prof();
    let sim = compose::simulate(t, sp, seed, &config.sim, &mut obs);
    let data = compose::roundtrip(t, sp, seed, &sim, &mut counts);
    let study = CompletedStudy { config, sim, data };
    let figures = compose::figures(t, sp, seed, &study.data);
    let expectations = t.span("core.checks", seed, Some(sp), |_| evaluate_all(&figures));
    let metrics = t.span("runner.seed_metrics", seed, Some(sp), |_| {
        seed_metrics(&study.sim)
    });
    let output_digest = compose::digest(t, sp, seed, &study.sim, &mut counts);
    obs.prof_finish();
    compose::engine_counts(&obs.prof_ledger().ledger_map(), &mut counts);
    add(
        &mut counts,
        "analysis.records",
        compose::analysis_records(&study.data),
    );
    let run = SeedRun {
        seed,
        output_digest,
        metrics,
        expectations,
        obs: None,
    };
    (run, counts)
}

/// One operation per seed: it ran, in seed order, with its registry.
fn finish(out: &mut Outcome, seeds: &[u64], runs: &[SeedRun]) {
    out.study_seeds = seeds.to_vec();
    for (i, &s) in seeds.iter().enumerate() {
        let mut problems = Vec::new();
        match runs.get(i) {
            Some(run) => {
                check(&mut problems, run.seed == s, || {
                    format!("report slot holds seed {}", run.seed)
                });
                check(&mut problems, !run.expectations.is_empty(), || {
                    "no expectations evaluated".to_string()
                });
                out.checks_pass += run
                    .expectations
                    .iter()
                    .filter(|e| e.verdict == Verdict::Pass)
                    .count() as u64;
                out.digest(&format!("seed.{s}.output"), run.output_digest);
                out.digest(&format!("seed.{s}.run"), debug_digest(run));
            }
            None => problems.push("missing from the report".to_string()),
        }
        out.op(&format!("seed {s}"), problems);
    }
}

/// The sequential spot check: `run_seed` of the first seed, whose
/// digest every iteration's first per-seed digest must equal.
pub fn spot(seed: u64) -> Outcome {
    let seed = seeds::pick(seeds::REPLICATE_SHORT, seed, 1)[0];
    let base = StudyConfig::quick(DAYS, seed);
    let t0 = Instant::now();
    let run = run_seed(&base, seed, false);
    let mut out = Outcome::new(t0.elapsed().as_secs_f64());
    out.digest(&format!("seed.{seed}.output"), run.output_digest);
    out.digest(&format!("seed.{seed}.run"), debug_digest(&run));
    out
}
