//! `titan-repro` — the command-line front end of the reproduction.
//!
//! ```text
//! titan-repro taxonomy                      Tables 1 & 2 (XID taxonomy)
//! titan-repro run   [--days N] [--seed S] [--metrics FILE]
//!                                           simulate and print the report
//! titan-repro check [--days N] [--seed S] [--metrics FILE] [--json FILE]
//!                                           evaluate paper-shape checks;
//!                                           exit 1 on any FAIL
//! titan-repro logs  [--days N] [--seed S] --out DIR
//!                                           write console/job/aprun logs
//! titan-repro replicate --seeds N [--threads T] [--days D] [--seed S]
//!                       [--skip-expectations] [--out FILE.json]
//!                       [--metrics FILE.json]
//!                                           run N seeds in parallel and
//!                                           report mean/95% CI bands
//! titan-repro profile [--days N] [--seed S] [--metrics FILE]
//!                                           run a window and print the
//!                                           titan-prof/2 deterministic
//!                                           cost ledger plus a wall-clock
//!                                           attribution table
//! ```
//!
//! Without `--days` the full Jun'13–Feb'15 window runs (about two
//! minutes in release). Everything is seed-deterministic: the same
//! seed and window produce byte-identical output.
//!
//! Time domains: the metrics documents written by `--metrics` carry
//! sim-time quantities only and are byte-identical across thread
//! widths; wall-clock timing appears exclusively in `profile` output
//! and the quarantined `wall` section of `titan-prof/2` (this binary is
//! outside the engine, so `std::time` is allowed here — see
//! OBSERVABILITY.md and lint rule D5).

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use titan_gpu_reliability::gpu::{ErrorCategory, GpuErrorKind};
use titan_gpu_reliability::sim::Simulator;
use titan_gpu_reliability::{evaluate_all, full_report, Study, StudyConfig, Verdict};
use titan_obs::{Obs, ObsPlan};
use titan_runner::RunDocs;

/// Process-wide allocation accounting for the `titan-prof/2` cost
/// ledger. The engine crates all `#![forbid(unsafe_code)]`, so the
/// counting allocator lives here in the binary and reaches the ledger
/// as a plain `fn() -> AllocStats` probe pointer.
///
/// The counters are thread-local `Cell`s: a `GlobalAlloc` impl must not
/// allocate, lock, or panic, and the engine is strictly single-threaded
/// by design (lint rule D4), so the engine thread's cells observe every
/// engine allocation and the probe's deltas are deterministic — rayon
/// replication workers each count their own thread without contending.
/// The study's joins are not engine work: when they thread, the other
/// thread's allocations are not counted, so `study:render_parse_logs`
/// excludes the console, aprun and job-tail parsing done there (and
/// `cli:figures_checks` half of the analyses);
/// `ProfDoc::deterministic_json` zeroes both scopes' alloc columns.
mod alloc_track {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
        static BYTES: Cell<u64> = const { Cell::new(0) };
        static FREES: Cell<u64> = const { Cell::new(0) };
    }

    /// Pass-through system allocator that counts per-thread traffic.
    pub struct CountingAlloc;

    // SAFETY: defers every allocation to `System`; the bookkeeping is
    // plain `Cell` arithmetic on already-initialized thread-locals
    // (`try_with` makes the TLS-teardown window a silent no-op).
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                let _ = ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
                let _ =
                    BYTES.try_with(|c| c.set(c.get().wrapping_add(layout.size() as u64)));
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            let _ = FREES.try_with(|c| c.set(c.get().wrapping_add(1)));
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                // A realloc retires one block and produces another.
                let _ = ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
                let _ = BYTES.try_with(|c| c.set(c.get().wrapping_add(new_size as u64)));
                let _ = FREES.try_with(|c| c.set(c.get().wrapping_add(1)));
            }
            p
        }
    }

    /// Monotone allocation totals for the calling thread — the ledger
    /// snapshots these at every scope switch and charges the delta.
    pub fn probe() -> titan_obs::AllocStats {
        titan_obs::AllocStats {
            allocs: ALLOCS.try_with(Cell::get).unwrap_or(0),
            bytes: BYTES.try_with(Cell::get).unwrap_or(0),
            frees: FREES.try_with(Cell::get).unwrap_or(0),
        }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: alloc_track::CountingAlloc = alloc_track::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "taxonomy" => taxonomy(&args[1..]),
        "run" => run(&args[1..]),
        "check" => check(&args[1..]),
        "logs" => logs(&args[1..]),
        "replicate" => replicate(&args[1..]),
        "profile" => profile(&args[1..]),
        "trace" => trace_cmd(&args[1..]),
        // lint: allow(P2, first() returned Some above, so index 1.. is in bounds)
        "health" => health_cmd(&args[1..]),
        "ckpt" => ckpt_cmd(&args[1..]),
        // lint: allow(P2, first() returned Some above, so index 1.. is in bounds)
        "bench" => bench_cmd(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: titan-repro <command> [options]

commands:
  taxonomy                          print Tables 1 & 2 (the XID taxonomy)
  run   [--days N] [--seed S] [--metrics FILE] [--trace FILE] [--health FILE]
        [--prof FILE] [--checkpoint-every SECS --ckpt-dir DIR]
        [--from-checkpoint FILE]
                                    simulate and print the full report;
                                    --metrics writes the sim-time telemetry
                                    document (stable JSON, seed-deterministic);
                                    --trace writes the titan-trace/1 causal
                                    flight-recorder JSONL;
                                    --health writes the titan-health/1 online
                                    reliability-analytics JSONL (rolling MTBF,
                                    spatial heat, top offenders, fired alerts);
                                    --prof arms the deterministic cost ledger
                                    and writes the titan-prof/2 document;
                                    --checkpoint-every freezes the full machine
                                    state into DIR/ckpt-NNNNNN.json (titan-ckpt/2,
                                    hash-chained) every SECS sim seconds;
                                    --from-checkpoint resumes one and reproduces
                                    the run-through output byte for byte (use the
                                    same --metrics/--trace/--health/--prof flags
                                    as the original)
  check [--days N] [--seed S] [--metrics FILE] [--json FILE] [--health FILE]
                                    run the paper-shape checks; exit 1 on FAIL;
                                    --json writes per-check verdicts as JSON
  logs  [--days N] [--seed S] --out DIR
                                    write console.log / job.log / aprun.log
  replicate --seeds N [--threads T] [--days D] [--seed S]
            [--skip-expectations] [--out FILE.json] [--metrics FILE.json]
            [--trace DIR] [--health DIR]
                                    run N independent seeds across T threads
                                    (default: all cores) and report mean/95% CI
                                    bands; per-seed output is byte-identical
                                    to a sequential run of the same seed;
                                    --metrics writes per-seed telemetry
                                    documents plus aggregate metric bands;
                                    --trace writes DIR/trace-seed-<seed>.jsonl
                                    per seed; --health writes
                                    DIR/health-seed-<seed>.jsonl per seed
  profile [--days N] [--seed S] [--metrics FILE] [--json FILE] [--health FILE]
          [--flamegraph FILE] [--perfetto FILE]
                                    run one window with the titan-prof/2 cost
                                    ledger armed and print the deterministic
                                    per-scope cost table plus a quarantined
                                    wall-clock attribution table;
                                    --json writes the titan-prof/2 document;
                                    --flamegraph writes collapsed stacks
                                    (flamegraph.pl / inferno input);
                                    --perfetto writes Chrome/Perfetto counter
                                    tracks from the sim-time series
  health <summarize|watch|rules> FILE [--trace TRACEFILE]
                                    inspect a titan-health/1 JSONL: summarize
                                    prints the end-of-run fleet summary; watch
                                    replays the interval stream as deterministic
                                    heatmap frames; rules prints the default
                                    alert-rule set as JSON; --trace additionally
                                    walks every fired alert back to its causing
                                    fault draft in the given titan-trace/1 file
                                    (exit 1 on a provenance hole)
  trace <verify|summarize|show> FILE
        [--card N] [--node N] [--job APID] [--window LO:HI] [--chrome FILE]
                                    inspect a titan-trace/1 JSONL: verify walks
                                    every alert/retirement back to an injected
                                    fault draft (exit 1 on provenance holes);
                                    summarize prints per-kind counts; show
                                    prints matching records; --chrome exports
                                    Chrome trace events (open in Perfetto)
  ckpt <verify|bisect> ...
                                    verify FILE: recompute a checkpoint's chained
                                    digest and report its provenance;
                                    bisect DIR_A DIR_B: compare two runs'
                                    checkpoint chains and report the first
                                    interval whose chained digest diverges
  bench diff A.json B.json
                                    compare two bench_pr snapshots (BENCH_PR*.json)
                                    and attribute the dequeues_per_s delta to the
                                    deterministic per-kind cost ledger they embed

Without --days the full 21-month study window runs (~2 min in release).";

/// The common flags each subcommand accepts. Any other known flag is
/// rejected by name, with the subcommands that do take it, so no flag
/// is ever parsed and then silently ignored.
const ACCEPTS: &[(&str, &[&str])] = &[
    ("taxonomy", &[]),
    (
        "run",
        &[
            "--days", "--seed", "--metrics", "--trace", "--health", "--prof", "--checkpoint-every",
            "--ckpt-dir", "--from-checkpoint", "--inject-divergence",
        ],
    ),
    ("check", &["--days", "--seed", "--metrics", "--json", "--health"]),
    ("logs", &["--days", "--seed", "--out"]),
    (
        "replicate",
        &[
            "--days", "--seed", "--seeds", "--threads", "--skip-expectations", "--out",
            "--metrics", "--trace", "--health",
        ],
    ),
    (
        "profile",
        &["--days", "--seed", "--metrics", "--json", "--health", "--flamegraph", "--perfetto"],
    ),
];

/// Parsed common options.
#[derive(Default)]
struct Opts {
    days: Option<u64>,
    seed: Option<u64>,
    seeds: Option<u64>,
    threads: Option<usize>,
    skip_expectations: bool,
    out: Option<String>,
    metrics: Option<String>,
    json: Option<String>,
    trace: Option<String>,
    health: Option<String>,
    prof: Option<String>,
    flamegraph: Option<String>,
    perfetto: Option<String>,
    checkpoint_every: Option<u64>,
    ckpt_dir: Option<String>,
    from_checkpoint: Option<String>,
    inject_divergence: Option<u64>,
}

impl Opts {
    /// The observers the flags ask for. `--prof` arms the metrics sink
    /// too: titan-prof/2 embeds the metrics document.
    fn plan(&self) -> ObsPlan {
        ObsPlan {
            metrics: self.metrics.is_some() || self.prof.is_some(),
            trace: self.trace.is_some(),
            health: self.health.is_some(),
            prof: self.prof.is_some(),
        }
    }
}

/// Parses `args` against the flags `cmd` accepts in [`ACCEPTS`].
fn parse_opts(cmd: &str, args: &[String]) -> Result<Opts, String> {
    let accepted = ACCEPTS.iter().find(|(c, _)| *c == cmd).map(|(_, f)| *f).unwrap_or_default();
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if !accepted.contains(&flag) {
            let takers: Vec<String> = ACCEPTS
                .iter()
                .filter(|(_, f)| f.contains(&flag))
                .map(|(c, _)| format!("`{c}`"))
                .collect();
            return Err(if takers.is_empty() {
                format!("unknown flag `{flag}`\n{USAGE}")
            } else {
                format!("{flag} applies to {} only, not `{cmd}`", takers.join(", "))
            });
        }
        if flag == "--skip-expectations" {
            opts.skip_expectations = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let text = Some(v.clone());
        match flag {
            "--days" => opts.days = Some(num(flag, v)?),
            "--seed" => opts.seed = Some(num(flag, v)?),
            "--seeds" => opts.seeds = Some(num(flag, v)?),
            "--threads" => opts.threads = Some(num(flag, v)?),
            "--inject-divergence" => opts.inject_divergence = Some(num(flag, v)?),
            "--checkpoint-every" => opts.checkpoint_every = Some(positive(flag, v)?),
            "--out" => opts.out = text,
            "--metrics" => opts.metrics = text,
            "--json" => opts.json = text,
            "--trace" => opts.trace = text,
            "--health" => opts.health = text,
            "--prof" => opts.prof = text,
            "--flamegraph" => opts.flamegraph = text,
            "--perfetto" => opts.perfetto = text,
            "--ckpt-dir" => opts.ckpt_dir = text,
            "--from-checkpoint" => opts.from_checkpoint = text,
            other => return Err(format!("flag `{other}` has no parser (internal error)")),
        }
    }
    Ok(opts)
}

fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: `{v}` is not a non-negative integer"))
}

fn positive<T>(flag: &str, v: &str) -> Result<T, String>
where
    T: std::str::FromStr + PartialEq + From<u8>,
{
    match v.parse() {
        Ok(n) if n != T::from(0) => Ok(n),
        _ => Err(format!("{flag}: `{v}` is not a positive integer")),
    }
}

/// Builds a validated study config from the common options.
fn study_config(opts: &Opts) -> Result<StudyConfig, String> {
    let mut config = match opts.days {
        Some(days) => StudyConfig::quick(days, opts.seed.unwrap_or(0x7174_414E)),
        None => StudyConfig::default(),
    };
    if let Some(seed) = opts.seed {
        config.sim.seed = seed;
    }
    config
        .sim
        .validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    Ok(config)
}

fn write_text(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Arms the observers `plan` asks for. With the cost ledger on, the
/// binary's allocator probe is installed and the ledger's scope edges
/// feed a fresh [`KindClock`] whose epoch starts now.
fn arm(plan: &ObsPlan) -> (Obs, Option<Rc<RefCell<KindClock>>>) {
    let mut obs = Obs::from_plan(plan);
    let clock = plan.prof.then(|| {
        let clock = Rc::new(RefCell::new(KindClock::new()));
        obs.set_prof_alloc_probe(alloc_track::probe);
        let hook = Rc::clone(&clock);
        obs.set_prof_wall_hook(Box::new(move |name| hook.borrow_mut().mark(name)));
        clock
    });
    (obs, clock)
}

/// Writes the metrics, trace and health documents the flags name. Each
/// rendered stream is dropped once written, inside the open ledger
/// scope, like the rest of the write.
fn write_docs(opts: &Opts, docs: &mut RunDocs) -> Result<(), String> {
    if let (Some(path), Some(doc)) = (&opts.metrics, &docs.metrics) {
        write_text(path, &doc.to_json())?;
    }
    if let (Some(path), Some(text)) = (&opts.trace, docs.trace.take()) {
        write_text(path, &text)?;
    }
    if let (Some(path), Some(text)) = (&opts.health, docs.health.take()) {
        write_text(path, &text)?;
    }
    Ok(())
}

/// Closes the cost ledger and assembles the `titan-prof/2` document:
/// the one place `run --prof` and `profile` build it.
fn prof_doc(
    docs: &mut RunDocs,
    obs: &mut Obs,
    clock: &RefCell<KindClock>,
) -> Result<titan_obs::ProfDoc, String> {
    docs.close_ledger(obs);
    let wall = clock.borrow_mut().finish();
    match (docs.ledger.take(), &docs.metrics) {
        (Some(ledger), Some(metrics)) => {
            Ok(titan_obs::ProfDoc::build(ledger, metrics.clone(), wall))
        }
        _ => Err("prof collected no ledger or telemetry (internal error)".into()),
    }
}

fn taxonomy(args: &[String]) -> Result<ExitCode, String> {
    parse_opts("taxonomy", args)?;
    println!("Table 1 — hardware (and ambiguous) GPU errors:");
    for k in GpuErrorKind::ALL {
        if matches!(
            k.category(),
            ErrorCategory::Hardware | ErrorCategory::Ambiguous
        ) {
            print_kind(k);
        }
    }
    println!();
    println!("Table 2 — software/firmware (and ambiguous) GPU errors:");
    for k in GpuErrorKind::ALL {
        if matches!(
            k.category(),
            ErrorCategory::SoftwareFirmware | ErrorCategory::Ambiguous
        ) {
            print_kind(k);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn print_kind(k: GpuErrorKind) {
    let xid = match k.xid() {
        Some(x) => format!("XID {:>3}", x.0),
        None => "no XID ".to_string(),
    };
    println!("  {xid}  {}", k.description());
}

/// Builds the `--ckpt-dir` writer: each sealed checkpoint document goes
/// to `DIR/ckpt-<index>.json` the moment its boundary is reached.
/// Progress chatter goes to **stderr** so stdout stays byte-comparable
/// between checkpointed, plain, and resumed runs.
fn checkpoint_sink(
    dir: Option<String>,
) -> Result<impl FnMut(&titan_runner::CheckpointDoc) -> Result<(), String>, String> {
    if let Some(d) = &dir {
        std::fs::create_dir_all(d).map_err(|e| format!("create {d}: {e}"))?;
    }
    Ok(move |doc: &titan_runner::CheckpointDoc| {
        let Some(d) = &dir else { return Ok(()) };
        let path = format!("{d}/ckpt-{:06}.json", doc.index);
        std::fs::write(&path, titan_runner::render_checkpoint(doc))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "checkpoint {:>3}  t = {:>10} s  digest {:016x}  -> {path}",
            doc.index, doc.t, doc.digest
        );
        Ok(())
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts("run", args)?;
    if opts.checkpoint_every.is_some() != opts.ckpt_dir.is_some() {
        return Err("--checkpoint-every and --ckpt-dir must be given together".into());
    }
    if opts.inject_divergence.is_some()
        && opts.checkpoint_every.is_none()
        && opts.from_checkpoint.is_none()
    {
        return Err(
            "--inject-divergence is for validating `ckpt bisect`; combine it with \
             --checkpoint-every or --from-checkpoint"
                .into(),
        );
    }
    let every = opts.checkpoint_every.unwrap_or(0);
    let plan = opts.plan();
    let ck = match &opts.from_checkpoint {
        Some(path) => Some(resume_point(path, &opts)?),
        None => None,
    };
    // A resumed run takes its configuration from the checkpoint.
    let config = match &ck {
        Some(ck) => ck.config.clone(),
        None => study_config(&opts)?,
    };
    let (mut obs, clock) = arm(&plan);
    let sink = checkpoint_sink(opts.ckpt_dir.clone())?;
    // Checkpointing and resumed runs drive the engine in boundary-sized
    // steps; their output is byte-identical to a run without
    // checkpoints (`every == 0`).
    let study = if let (Some(ck), Some(path)) = (&ck, &opts.from_checkpoint) {
        titan_runner::resume_checkpointed(ck, every, opts.inject_divergence, &mut obs, sink)
            .map_err(|e| format!("--from-checkpoint {path}: {e}"))?
    } else {
        titan_runner::run_checkpointed(&config, every, opts.inject_divergence, &mut obs, sink)?
    };
    let ((), mut docs) = titan_runner::collect_docs(&study, &plan, &mut obs, |_| {
        println!("{}", full_report(&study));
    });
    write_docs(&opts, &mut docs)?;
    if let (Some(path), Some(clock)) = (&opts.prof, &clock) {
        write_text(path, &prof_doc(&mut docs, &mut obs, clock)?.to_json())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Reads and verifies the checkpoint a resumed run starts from.
fn resume_point(path: &str, opts: &Opts) -> Result<titan_runner::CheckpointDoc, String> {
    if opts.days.is_some() || opts.seed.is_some() {
        return Err("--from-checkpoint carries its own configuration; drop --days/--seed".into());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let ck = titan_runner::parse_checkpoint(&text)?;
    eprintln!(
        "resuming from checkpoint {} (t = {} s, digest {:016x})",
        ck.index, ck.t, ck.digest
    );
    Ok(ck)
}

/// The `ckpt` subcommand: offline tooling over `titan-ckpt/2` files.
fn ckpt_cmd(args: &[String]) -> Result<ExitCode, String> {
    let Some(mode) = args.first() else {
        return Err(format!("ckpt needs a mode (verify | bisect)\n{USAGE}"));
    };
    match mode.as_str() {
        "verify" => {
            let [_, file] = args else {
                return Err("usage: ckpt verify FILE".into());
            };
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
            let doc = titan_runner::parse_checkpoint(&text)?;
            println!(
                "{file}: checkpoint {} of seed {} ({} days), t = {} s, digest {:016x} \
                 (chained over {:016x}) — digest OK",
                doc.index, doc.seed, doc.window_days, doc.t, doc.digest, doc.prev_digest
            );
            Ok(ExitCode::SUCCESS)
        }
        "bisect" => {
            let [_, dir_a, dir_b] = args else {
                return Err("usage: ckpt bisect DIR_A DIR_B".into());
            };
            let a = load_checkpoint_chain(dir_a)?;
            let b = load_checkpoint_chain(dir_b)?;
            println!(
                "run A: {} checkpoints ({dir_a}), run B: {} checkpoints ({dir_b})",
                a.len(),
                b.len()
            );
            let report = titan_runner::bisect(&a, &b)?;
            match report.divergence {
                Some(d) => {
                    println!(
                        "first divergence at checkpoint {}: the runs diverged in \
                         ({} s, {} s] — chained digests agree through t = {} s",
                        d.index, d.t_lo, d.t_hi, d.t_lo
                    );
                }
                None => {
                    println!(
                        "chains agree through all {} compared checkpoints — no divergence",
                        report.compared
                    );
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown ckpt mode `{other}`\n{USAGE}")),
    }
}

/// Loads every `ckpt-*.json` in `dir`, digest-verifying each, sorted by
/// checkpoint index.
fn load_checkpoint_chain(dir: &str) -> Result<Vec<titan_runner::CheckpointDoc>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {dir}: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("ckpt-") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("{dir}: no ckpt-*.json checkpoint files"));
    }
    let mut docs = Vec::new();
    for name in names {
        let path = format!("{dir}/{name}");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        docs.push(titan_runner::parse_checkpoint(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    docs.sort_by_key(|d| d.index);
    Ok(docs)
}

/// The `throughput` section of a bench_pr snapshot. Snapshots written
/// before `dequeues_per_s` existed lack it.
#[derive(serde::Deserialize)]
struct BenchThroughput {
    window_days: u64,
    dequeues: u64,
    loop_seconds: f64,
    dequeues_per_s: f64,
}

/// The `prof` section a `titan-prof/2`-aware bench_pr embeds: the
/// deterministic per-scope ledger of the overhead window.
#[derive(serde::Deserialize)]
struct BenchProfSection {
    kinds: Option<std::collections::BTreeMap<String, titan_obs::KindCost>>,
}

/// The slice of a `BENCH_PR*.json` snapshot `bench diff` reads. Extra
/// keys in the file are ignored, so one parser covers every snapshot
/// vintage.
#[derive(serde::Deserialize)]
struct BenchSnapshot {
    pr: Option<u64>,
    mode: Option<String>,
    throughput: Option<BenchThroughput>,
    prof: Option<BenchProfSection>,
}

fn read_bench_snapshot(path: &str) -> Result<BenchSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `bench` subcommand: offline tooling over bench_pr snapshots
/// (`BENCH_PR*.json`, written by `cargo run --release -p titan-bench
/// --bin bench_pr`). `diff` explains a `dequeues_per_s` delta between two
/// snapshots in terms of the deterministic cost ledger they embed —
/// count deltas are seed-deterministic, so a throughput change splits
/// cleanly into "the workload mix changed" (counts moved) versus "the
/// per-event cost changed" (counts held, wall moved).
fn bench_cmd(args: &[String]) -> Result<ExitCode, String> {
    let Some(mode) = args.first() else {
        return Err(format!("bench needs a mode (diff)\n{USAGE}"));
    };
    match mode.as_str() {
        "diff" => {
            let [_, a_path, b_path] = args else {
                return Err("usage: bench diff A.json B.json".into());
            };
            let a = read_bench_snapshot(a_path)?;
            let b = read_bench_snapshot(b_path)?;
            print_bench_diff(&a, &b, a_path, b_path);
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown bench mode `{other}`\n{USAGE}")),
    }
}

fn print_bench_diff(a: &BenchSnapshot, b: &BenchSnapshot, a_path: &str, b_path: &str) {
    let label = |s: &BenchSnapshot, path: &str| {
        format!(
            "{path} (pr {}, {} mode)",
            s.pr.map_or("?".to_string(), |p| p.to_string()),
            s.mode.as_deref().unwrap_or("?")
        )
    };
    println!("bench diff: {}", label(a, a_path));
    println!("         -> {}", label(b, b_path));
    if a.mode != b.mode {
        println!("note: the snapshots ran different modes; walls are not comparable");
    }
    let rows: [(&str, fn(&BenchThroughput) -> f64); 4] = [
        // lint: allow(N1, u64 day and dequeue counts are far below f64's exact-integer range)
        ("window_days", |t| t.window_days as f64),
        // lint: allow(N1, u64 day and dequeue counts are far below f64's exact-integer range)
        ("dequeues", |t| t.dequeues as f64),
        ("loop_seconds", |t| t.loop_seconds),
        ("dequeues_per_s", |t| t.dequeues_per_s),
    ];
    for (name, get) in rows {
        match (a.throughput.as_ref().map(get), b.throughput.as_ref().map(get)) {
            (Some(va), Some(vb)) => {
                let pct = if va != 0.0 { (vb - va) / va * 100.0 } else { 0.0 };
                println!("  {name:<16} {va:>14.2} -> {vb:>14.2}  ({pct:+.1}%)");
            }
            _ => println!("  {name:<16} (absent from one snapshot)"),
        }
    }
    let (Some(ka), Some(kb)) = (
        a.prof.as_ref().and_then(|p| p.kinds.as_ref()),
        b.prof.as_ref().and_then(|p| p.kinds.as_ref()),
    ) else {
        println!(
            "no deterministic ledger in one of the snapshots (written by a \
             pre-titan-prof/2 bench_pr) — per-kind attribution unavailable"
        );
        return;
    };
    // Union of scopes, sorted by the magnitude of the dequeue delta:
    // the scopes that moved the most work lead the attribution.
    let mut names: Vec<&String> = ka.keys().chain(kb.keys()).collect();
    names.sort();
    names.dedup();
    let zero = titan_obs::KindCost::default();
    let mut deltas: Vec<(&String, i128, i128, i128)> = names
        .iter()
        .map(|name| {
            let ca = ka.get(*name).unwrap_or(&zero);
            let cb = kb.get(*name).unwrap_or(&zero);
            (
                *name,
                i128::from(cb.dequeues) - i128::from(ca.dequeues),
                i128::from(cb.rng_draws) - i128::from(ca.rng_draws),
                i128::from(cb.allocs) - i128::from(ca.allocs),
            )
        })
        .collect();
    deltas.sort_by_key(|&(name, dq, rng, al)| {
        (std::cmp::Reverse(dq.abs().max(rng.abs()).max(al.abs())), name.clone())
    });
    let total_dq: i128 = deltas.iter().map(|&(_, dq, _, _)| dq.abs()).sum();
    println!();
    println!("deterministic ledger deltas (B - A, seed-deterministic counts):");
    println!(
        "  {:<28} {:>12} {:>14} {:>12} {:>7}",
        "scope", "dequeues", "rng_draws", "allocs", "share"
    );
    let mut moved = false;
    for (name, dq, rng, al) in &deltas {
        if *dq == 0 && *rng == 0 && *al == 0 {
            continue;
        }
        moved = true;
        let share = if total_dq > 0 {
            format!("{:>6.1}%", (dq.abs() as f64) / (total_dq as f64) * 100.0)
        } else {
            "     —".to_string()
        };
        println!("  {name:<28} {dq:>+12} {rng:>+14} {al:>+12} {share}");
    }
    if !moved {
        println!(
            "  (no scope moved — the event mix is identical; any dequeues_per_s \
             delta is host or per-event cost, not workload)"
        );
    }
}

/// One line of the `check --json` document.
#[derive(serde::Serialize)]
struct CheckVerdict {
    id: String,
    verdict: String,
    paper: String,
    measured: String,
}

/// The `check --json` document: machine-readable per-check verdicts.
#[derive(serde::Serialize)]
struct CheckDoc {
    schema: String,
    seed: u64,
    window_days: u64,
    pass: u32,
    weak: u32,
    fail: u32,
    checks: Vec<CheckVerdict>,
}

fn check(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts("check", args)?;
    let config = study_config(&opts)?;
    let seed = config.sim.seed;
    let window_days = config.sim.window / 86_400;
    let plan = opts.plan();
    let (mut obs, _) = arm(&plan);
    let study = Study::new(config).run_with_obs(&mut obs);
    let (evals, mut docs) =
        titan_runner::collect_docs(&study, &plan, &mut obs, |_| evaluate_all(&study.figures()));
    let (mut pass, mut weak, mut fail) = (0u32, 0u32, 0u32);
    let mut checks = Vec::new();
    for e in evals {
        println!("[{}] {:<6} {}", e.verdict, e.id, e.measured);
        match e.verdict {
            Verdict::Pass => pass += 1,
            Verdict::Weak => weak += 1,
            Verdict::Fail => fail += 1,
        }
        checks.push(CheckVerdict {
            id: e.id,
            verdict: e.verdict.to_string(),
            paper: e.paper,
            measured: e.measured,
        });
    }
    println!("{pass} PASS / {weak} WEAK / {fail} FAIL");
    if let Some(path) = &opts.json {
        let doc = CheckDoc {
            schema: "titan-check/1".to_string(),
            seed,
            window_days,
            pass,
            weak,
            fail,
            checks,
        };
        let mut json = serde_json::to_string_pretty(&doc)
            .map_err(|e| format!("serialize checks: {e}"))?;
        json.push('\n');
        write_text(path, &json)?;
    }
    write_docs(&opts, &mut docs)?;
    if fail > 0 {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn replicate(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts("replicate", args)?;
    let n = opts.seeds.ok_or("replicate requires --seeds N")?;
    if n == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let base = study_config(&opts)?;
    let base_seed = base.sim.seed;
    let threads = opts.threads.unwrap_or_else(titan_runner::recommended_threads);
    let mut ropts = titan_runner::ReplicateOptions::consecutive(base, base_seed, n, threads)?;
    ropts.skip_expectations = opts.skip_expectations;
    ropts.plan = opts.plan();
    let (report, docs) = titan_runner::replicate_full(&ropts)?;
    print!("{}", titan_runner::render_report(&report));
    if let Some(dir) = &opts.trace {
        write_per_seed(dir, "trace", &report, docs.iter().map(|d| d.trace.as_ref()))?;
    }
    if let Some(dir) = &opts.health {
        write_per_seed(dir, "health", &report, docs.iter().map(|d| d.health.as_ref()))?;
    }
    if let Some(path) = &opts.out {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("serialize report: {e}"))?;
        write_text(path, &json)?;
    }
    if let Some(path) = &opts.metrics {
        let doc = titan_runner::obs_replicate_doc(&report)
            .ok_or("replicate produced no telemetry (internal error)")?;
        write_text(path, &titan_runner::render_obs_metrics_json(&doc))?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes each seed's `kind` document to `DIR/<kind>-seed-<seed>.jsonl`.
fn write_per_seed<'a>(
    dir: &str,
    kind: &str,
    report: &titan_runner::ReplicationReport,
    texts: impl Iterator<Item = Option<&'a String>>,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    for (run, text) in report.runs.iter().zip(texts) {
        let text = text.ok_or(format!("replicate produced no {kind} (internal error)"))?;
        write_text(&format!("{dir}/{kind}-seed-{}.jsonl", run.seed), text)?;
    }
    Ok(())
}

/// Wall-clock scope ledger the cost ledger's edge hook writes into. This
/// is the only place in the workspace where scope markers meet
/// `Instant`: the engine emits pure `&'static str` edges (phase markers
/// and `ev:` kind names), and this CLI timestamps them on arrival (lint
/// rule D5 keeps it that way). Unlike the retired `PhaseClock`, scopes
/// repeat — every row is find-or-push accumulated.
struct KindClock {
    started: Instant,
    current: Option<(&'static str, Instant)>,
    scopes: Vec<(&'static str, Duration, u64)>,
}

impl KindClock {
    fn new() -> Self {
        KindClock {
            started: Instant::now(),
            current: None,
            scopes: Vec::new(),
        }
    }

    fn mark(&mut self, name: &'static str) {
        let now = Instant::now();
        if let Some((prev, t0)) = self.current.take() {
            self.credit(prev, now.duration_since(t0));
        }
        self.current = Some((name, now));
    }

    fn credit(&mut self, name: &'static str, d: Duration) {
        match self.scopes.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, total, switches)) => {
                *total += d;
                *switches += 1;
            }
            None => self.scopes.push((name, d, 1)),
        }
    }

    /// Closes the open scope and renders the quarantined wall section:
    /// rows largest-first, attribution percentage against the time since
    /// the ledger was armed.
    fn finish(&mut self) -> titan_obs::WallDoc {
        let now = Instant::now();
        if let Some((prev, t0)) = self.current.take() {
            self.credit(prev, now.duration_since(t0));
        }
        let total_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let attributed_ms: f64 =
            self.scopes.iter().map(|(_, d, _)| d.as_secs_f64() * 1e3).sum();
        let mut scopes: Vec<titan_obs::WallScope> = self
            .scopes
            .iter()
            .map(|(name, d, switches)| titan_obs::WallScope {
                name: (*name).to_string(),
                wall_ms: d.as_secs_f64() * 1e3,
                switches: *switches,
            })
            .collect();
        scopes.sort_by(|a, b| {
            b.wall_ms.partial_cmp(&a.wall_ms).unwrap_or(std::cmp::Ordering::Equal)
        });
        titan_obs::WallDoc {
            total_ms,
            attributed_ms,
            attributed_pct: if total_ms > 0.0 { attributed_ms / total_ms * 100.0 } else { 0.0 },
            scopes,
        }
    }
}

fn profile(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts("profile", args)?;
    let config = study_config(&opts)?;
    // The ledger, the metrics document it embeds and the health sink are
    // always armed here, so titan-prof/2 exposes what the online
    // analytics layer costs on top of the metrics sink.
    let plan = ObsPlan {
        metrics: true,
        health: true,
        prof: true,
        ..opts.plan()
    };
    let (mut obs, clock) = arm(&plan);
    let clock = clock.ok_or("prof clock missing (internal error)")?;
    let study = Study::new(config).run_with_obs(&mut obs);
    // The health render that follows the checks gets its own ledger
    // scope. `_figures` is held to the end: its teardown is not profile
    // work, so it stays outside the ledger.
    let checks = |obs: &mut Obs| {
        obs.phase("cli:figures_checks");
        let figures = study.figures();
        let evals = evaluate_all(&figures);
        obs.phase("cli:render_health");
        (figures, evals)
    };
    let ((_figures, evals), mut docs) =
        titan_runner::collect_docs(&study, &plan, &mut obs, checks);
    let prof_doc = prof_doc(&mut docs, &mut obs, &clock)?;
    let doc = &prof_doc.metrics;
    let (seed, window_days) = (prof_doc.seed, prof_doc.window_days);

    println!("titan-repro profile — seed {seed}, {window_days} days");
    println!();
    println!("deterministic cost ledger (titan-prof/2; seed-deterministic):");
    println!(
        "  {:<28} {:>9} {:>9} {:>10} {:>8} {:>8} {:>11}",
        "scope", "dequeues", "pushes", "rng_draws", "trace", "console", "alloc_bytes"
    );
    for (name, c) in &prof_doc.ledger {
        println!(
            "  {name:<28} {:>9} {:>9} {:>10} {:>8} {:>8} {:>11}",
            c.dequeues, c.heap_pushes, c.rng_draws, c.trace_records, c.console_lines,
            c.alloc_bytes
        );
    }
    let t = &prof_doc.totals;
    println!(
        "  {:<28} {:>9} {:>9} {:>10} {:>8} {:>8} {:>11}",
        "totals", t.dequeues, t.heap_pushes, t.rng_draws, t.trace_records, t.console_lines,
        t.alloc_bytes
    );
    println!();
    println!("wall-clock attribution (this host; quarantined from digests):");
    for s in &prof_doc.wall.scopes {
        println!(
            "  {:<28} {:>10.3} ms  ({} switch{})",
            s.name,
            s.wall_ms,
            s.switches,
            if s.switches == 1 { "" } else { "es" }
        );
    }
    println!(
        "  {:<28} {:>10.3} ms  ({:.1}% attributed)",
        "total", prof_doc.wall.total_ms, prof_doc.wall.attributed_pct
    );
    println!();
    println!("sim-time telemetry (seed-deterministic; see OBSERVABILITY.md):");
    for (section, map) in [
        ("engine", &doc.engine),
        ("faults", &doc.faults),
        ("sec", &doc.sec),
        ("nvsmi", &doc.nvsmi),
    ] {
        println!("  [{section}]");
        for (name, value) in map {
            println!("    {name:<38} {value:>12}");
        }
    }
    println!("  [histograms]");
    for (name, h) in &doc.histograms {
        println!("    {name:<38} count {:>8}  sum {:>10}", h.count, h.sum);
    }
    let fails = evals.iter().filter(|e| e.verdict == Verdict::Fail).count();
    println!("  [health]");
    let hdoc = titan_obs::parse_health(docs.health.as_deref().unwrap_or_default())?;
    println!("    {:<38} {:>12}", "intervals", hdoc.header.intervals);
    println!("    {:<38} {:>12}", "alerts_fired", hdoc.header.alerts);
    println!();
    println!(
        "checks: {} evaluated, {fails} FAIL (run `titan-repro check` for detail)",
        evals.len()
    );
    write_docs(&opts, &mut docs)?;
    if let Some(path) = &opts.json {
        write_text(path, &prof_doc.to_json())?;
    }
    if let Some(path) = &opts.flamegraph {
        write_text(path, &prof_doc.collapsed_stacks())?;
    }
    if let Some(path) = &opts.perfetto {
        write_text(path, &prof_doc.perfetto_counters())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// The `trace` subcommand: verify / summarize / show over a
/// `titan-trace/1` JSONL file written by `run --trace` or
/// `replicate --trace`.
fn trace_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut mode: Option<String> = None;
    let mut file: Option<String> = None;
    let mut filter = titan_obs::TraceFilter::default();
    let mut chrome: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            let v = it.next().ok_or(format!("{name} needs a value"))?;
            v.parse()
                .map_err(|_| format!("{name}: `{v}` is not a non-negative integer"))
        };
        match arg.as_str() {
            "--card" => filter.card = Some(num("--card")?),
            "--node" => filter.node = Some(num("--node")?),
            "--job" => filter.apid = Some(num("--job")?),
            "--window" => {
                let v = it.next().ok_or("--window needs LO:HI (sim seconds)")?;
                let Some((lo, hi)) = v.split_once(':') else {
                    return Err(format!("--window: `{v}` is not LO:HI"));
                };
                let lo: u64 = lo
                    .parse()
                    .map_err(|_| format!("--window: `{lo}` is not a non-negative integer"))?;
                let hi: u64 = hi
                    .parse()
                    .map_err(|_| format!("--window: `{hi}` is not a non-negative integer"))?;
                if lo > hi {
                    return Err(format!("--window: {lo} > {hi}"));
                }
                filter.window = Some((lo, hi));
            }
            "--chrome" => {
                chrome = Some(it.next().ok_or("--chrome needs a file")?.clone());
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`\n{USAGE}"));
            }
            word if mode.is_none() => mode = Some(word.to_string()),
            word if file.is_none() => file = Some(word.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    let mode = mode.ok_or(format!("trace needs a mode\n{USAGE}"))?;
    let file = file.ok_or(format!("trace needs a FILE\n{USAGE}"))?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("read {file}: {e}"))?;
    let (header, records) = titan_obs::parse_trace(&text)?;
    match mode.as_str() {
        "verify" => {
            let report = titan_obs::verify_trace(&header, &records);
            println!(
                "{}: {} records, {} chains walked, max depth {}",
                file, report.records, report.chains_walked, report.max_depth
            );
            if report.ok() {
                println!("provenance OK: every alert and retirement walks back to a fault draft");
                Ok(ExitCode::SUCCESS)
            } else {
                for e in &report.errors {
                    println!("VIOLATION: {e}");
                }
                println!("{} provenance violation(s)", report.errors.len());
                Ok(ExitCode::FAILURE)
            }
        }
        "summarize" => {
            let kept: Vec<titan_obs::TraceRecord> = records
                .iter()
                .filter(|r| filter.matches(r))
                .cloned()
                .collect();
            print!("{}", titan_obs::summarize_trace(&header, &kept));
            Ok(ExitCode::SUCCESS)
        }
        "show" => {
            let kept: Vec<titan_obs::TraceRecord> = records
                .iter()
                .filter(|r| filter.matches(r))
                .cloned()
                .collect();
            if let Some(path) = chrome {
                write_text(&path, &titan_obs::chrome_trace(&kept))?;
            } else {
                for r in &kept {
                    println!(
                        "{}",
                        serde_json::to_string(r).map_err(|e| format!("serialize record: {e}"))?
                    );
                }
                eprintln!("{} of {} records matched", kept.len(), records.len());
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown trace mode `{other}`\n{USAGE}")),
    }
}

/// The `health` subcommand: summarize / watch / rules over a
/// `titan-health/1` JSONL file written by `run --health`,
/// `check --health`, or `replicate --health`.
fn health_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut mode: Option<String> = None;
    let mut file: Option<String> = None;
    let mut trace_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                trace_file = Some(it.next().ok_or("--trace needs a file")?.clone());
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`\n{USAGE}"));
            }
            word if mode.is_none() => mode = Some(word.to_string()),
            word if file.is_none() => file = Some(word.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    let mode = mode.ok_or(format!("health needs a mode\n{USAGE}"))?;
    if mode == "rules" {
        // `rules` takes no FILE: it prints the default alert-rule set,
        // the starting point for a hand-rolled rule JSON.
        if let Some(extra) = file {
            return Err(format!("health rules takes no FILE (got `{extra}`)"));
        }
        print!(
            "{}",
            titan_obs::rules_to_json(&titan_obs::olcf_default_rules())
        );
        return Ok(ExitCode::SUCCESS);
    }
    let file = file.ok_or(format!("health needs a FILE\n{USAGE}"))?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("read {file}: {e}"))?;
    let doc = titan_obs::parse_health(&text).map_err(|e| format!("{file}: {e}"))?;
    let walk = |doc: &titan_obs::HealthDoc| -> Result<(), String> {
        let Some(tf) = &trace_file else { return Ok(()) };
        let ttext = std::fs::read_to_string(tf).map_err(|e| format!("read {tf}: {e}"))?;
        let (_, records) = titan_obs::parse_trace(&ttext).map_err(|e| format!("{tf}: {e}"))?;
        let walked = titan_obs::verify_health_alerts(doc, &records)?;
        println!("provenance OK: {walked} alert(s) walk back to a causing fault draft");
        Ok(())
    };
    match mode.as_str() {
        "summarize" => {
            print!("{}", titan_obs::summarize_health(&doc));
            walk(&doc)?;
            Ok(ExitCode::SUCCESS)
        }
        "watch" => {
            print!("{}", titan_obs::watch_health(&doc));
            walk(&doc)?;
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown health mode `{other}`\n{USAGE}")),
    }
}

fn logs(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts("logs", args)?;
    let out_dir = opts.out.clone().ok_or("logs requires --out DIR")?;
    let config = study_config(&opts)?;
    let sim = Simulator::new(config.sim)?;
    let output = sim.run();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;
    let write = |name: &str, text: String| -> Result<(), String> {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
        Ok(())
    };
    write("console.log", output.render_console_log())?;
    write("job.log", output.render_job_log())?;
    write("aprun.log", output.render_aprun_log())?;
    Ok(ExitCode::SUCCESS)
}
