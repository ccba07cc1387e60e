//! Worker of the end-to-end benchmark: runs ONE iteration of one
//! workload in this process and prints its result as one JSON line.
//! `run.py` starts a fresh worker per iteration (so peak RSS is the
//! iteration's own), repeats for the measured time, and reports.
//!
//! ```text
//! titan-e2e-bench iter --workload W --seed N --work-dir DIR
//!                      [--identity] [--traced]
//! titan-e2e-bench spot --seed N
//! titan-e2e-bench vet --days D --seed FIRST --count N
//! ```
//!
//! - `iter` (untraced) times the workload's top-level calls, with extra
//!   set-up samples taken before the timed window; `--identity` adds
//!   the digests a traced iteration is compared against.
//! - `iter --traced` runs the workload's traced composition (see
//!   `compose`) and adds spans, per-layer times and work counts.
//! - `spot` is the sequential `run_seed` spot check of `replicate-short`.
//! - `vet` prints the console volume of `N` study seeds from `FIRST` at
//!   a `D`-day window (0 = the full window): how the pools in `seeds`
//!   were chosen.

mod artifacts;
mod compose;
mod full_study;
mod observed_ckpt;
mod replicate_short;
mod seeds;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde::{Serialize, Value};
use titan_obs::Obs;
use titan_sim::{EngineState, SimConfig};

use crate::compose::Counts;
use crate::trace::Span;

/// What one iteration measured and checked.
pub struct Outcome {
    pub wall_s: f64,
    pub setup_s: Vec<f64>,
    /// The pool seeds the workload seed selected.
    pub study_seeds: Vec<u64>,
    pub checks_pass: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digests: BTreeMap<String, u64>,
    pub traced: Option<Traced>,
}

/// The traced iteration's extra output.
pub struct Traced {
    pub spans: Vec<Span>,
    /// Deterministic work counts.
    pub counts: Counts,
    /// Per-layer values measured outside the spans.
    pub values: BTreeMap<String, f64>,
    /// Name of the spans whose children are the layer spans; coverage
    /// is measured against them.
    pub container: &'static str,
}

impl Outcome {
    pub fn new(wall_s: f64) -> Self {
        Outcome {
            wall_s,
            setup_s: Vec::new(),
            study_seeds: Vec::new(),
            checks_pass: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digests: BTreeMap::new(),
            traced: None,
        }
    }

    /// Counts one operation, failed when `problems` is non-empty.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
        self.failures
            .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
    }

    pub fn digest(&mut self, name: &str, value: u64) {
        self.digests.insert(name.to_string(), value);
    }
}

/// Records `msg()` as a problem unless `ok`.
pub fn check(problems: &mut Vec<String>, ok: bool, msg: impl FnOnce() -> String) {
    if !ok {
        problems.push(msg());
    }
}

/// Host seconds in each of `n` sequential `EngineState::new` calls:
/// workload generation, fault drafting and heap seeding, before the
/// first event is dequeued. Workloads take these samples after their
/// checks, once their own data is freed, so the samples cannot raise
/// the iteration's memory peak.
pub fn time_setups(cfg: &SimConfig, sink: fn() -> Obs, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let mut obs = sink();
            let t0 = Instant::now();
            let st = EngineState::new(cfg, &mut obs);
            let s = t0.elapsed().as_secs_f64();
            std::hint::black_box(&st);
            s
        })
        .collect()
}

/// Per-layer metrics of a traced iteration: self time per span name
/// (`<name>_s`), the derived sums and ratios, and the values measured
/// beside the spans.
fn layer_metrics(workload: &str, traced: &Traced) -> BTreeMap<String, f64> {
    let times = trace::times(&traced.spans);
    let mut m = BTreeMap::new();
    for (name, s) in &times.self_s {
        if *name != workload {
            m.insert(format!("{name}_s"), *s);
        }
    }
    // The digest is reported whole (inclusive); its parts stay as self
    // time under their own names.
    if let Some(s) = times.inclusive_s.get("runner.digest") {
        m.insert("runner.digest_s".into(), *s);
    }
    let sum = |m: &BTreeMap<String, f64>, keys: [&str; 3]| {
        keys.iter().filter_map(|k| m.get(*k)).sum::<f64>()
    };
    let render = sum(
        &m,
        [
            "conlog.render.console_s",
            "conlog.render.job_s",
            "conlog.render.aprun_s",
        ],
    );
    let parse = sum(
        &m,
        [
            "conlog.parse.console_s",
            "conlog.parse.job_s",
            "conlog.parse.aprun_s",
        ],
    );
    if render > 0.0 {
        m.insert("conlog.render_s".into(), render);
        m.insert("conlog.parse_s".into(), parse);
    }
    let c = &traced.counts;
    if let (Some(ok), Some(lines)) = (c.get("conlog.parse.ok_lines"), c.get("conlog.parse.lines")) {
        if *lines > 0.0 {
            m.insert("conlog.parse.ok_ratio".into(), ok / lines);
        }
    }
    if let (Some(d), Some(s)) = (c.get("simulator.loop.dequeues"), m.get("simulator.loop_s")) {
        if *s > 0.0 {
            m.insert("simulator.loop.dequeues_per_s".into(), d / s);
        }
    }
    m.extend(traced.values.iter().map(|(k, v)| (k.clone(), *v)));
    m
}

fn render(workload: &str, seed: u64, threads: usize, out: &Outcome) -> String {
    let digests: BTreeMap<&str, String> = out
        .digests
        .iter()
        .map(|(k, v)| (k.as_str(), format!("{v:016x}")))
        .collect();
    let mut fields = vec![
        ("workload", workload.to_value()),
        ("seed", seed.to_value()),
        ("threads", threads.to_value()),
        ("study_seeds", out.study_seeds.to_value()),
        ("wall_s", out.wall_s.to_value()),
        ("setup_s", out.setup_s.to_value()),
        ("checks_pass", out.checks_pass.to_value()),
        ("attempted", out.attempted.to_value()),
        ("failed", out.failed.to_value()),
        ("failures", out.failures.to_value()),
        ("digests", digests.to_value()),
    ];
    if let Some(traced) = &out.traced {
        fields.push(("layers", layer_metrics(workload, traced).to_value()));
        fields.push(("counts", traced.counts.to_value()));
        fields.push((
            "coverage",
            trace::coverage(&traced.spans, traced.container).to_value(),
        ));
        fields.push(("spans", trace::spans_json(&traced.spans)));
    }
    let doc = Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    serde_json::to_string(&doc).expect("a Value tree always serializes")
}

struct Args {
    command: String,
    workload: String,
    seed: u64,
    work_dir: PathBuf,
    identity: bool,
    traced: bool,
    days: u64,
    count: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let command = raw.next().ok_or("missing command (iter | spot)")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 48716,
        work_dir: PathBuf::from(".bench_work"),
        identity: false,
        traced: false,
        days: 0,
        count: 1,
    };
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            "--identity" => args.identity = true,
            "--traced" => args.traced = true,
            "--days" => args.days = value()?.parse().map_err(|e| format!("--days: {e}"))?,
            "--count" => args.count = value()?.parse().map_err(|e| format!("--count: {e}"))?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("titan-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (seed, work) = (args.seed, args.work_dir.as_path());
    let out = match (args.command.as_str(), args.workload.as_str(), args.traced) {
        ("vet", _, _) => {
            seeds::vet(args.days, seed, args.count);
            return ExitCode::SUCCESS;
        }
        ("spot", _, _) => replicate_short::spot(seed),
        ("iter", "full-study", false) => full_study::run(seed, work, args.identity),
        ("iter", "full-study", true) => full_study::run_traced(seed, work),
        ("iter", "replicate-short", false) => replicate_short::run(seed, threads),
        ("iter", "replicate-short", true) => replicate_short::run_traced(seed, threads),
        ("iter", "observed-ckpt", false) => observed_ckpt::run(seed, work, args.identity),
        ("iter", "observed-ckpt", true) => observed_ckpt::run_traced(seed, work),
        (command, workload, _) => {
            eprintln!("titan-e2e-bench: unknown command `{command}` / workload `{workload}`");
            return ExitCode::from(2);
        }
    };
    println!("{}", render(&args.workload, seed, threads, &out));
    ExitCode::SUCCESS
}
