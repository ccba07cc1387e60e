//! `bench_pr` — the two performance numbers `e2e-bench` does not take:
//! the wall cost of each observer sink over the plain run (the overhead
//! arms), and the event loop's throughput, committed per PR as
//! `BENCH_PR<N>.json` and merged into the trajectory. Render, parse,
//! analysis and replication are timed layer by layer by `e2e-bench`.
//!
//! ```text
//! cargo run --release -p titan-bench --bin bench_pr -- \
//!     [--quick] [--pr N] [--out FILE] \
//!     [--gate-metrics-overhead PCT] [--gate-health-overhead PCT] \
//!     [--gate-prof-overhead PCT] [--gate-throughput-regression PCT]
//! cargo run --release -p titan-bench --bin bench_pr -- --trajectory [--out FILE]
//! ```
//!
//! Writing a snapshot needs `--pr N`, which records `"pr": N` and names
//! the file `BENCH_PR<N>.json`, or `--out FILE`, which alone records
//! `"pr": null`. `--quick` shrinks the windows so CI can afford the
//! run; the snapshot's `"mode"` records which one produced it.
//!
//! Throughput is `dequeues_per_s`, defined as `e2e-bench` defines
//! `simulator.loop.dequeues_per_s`: the loop's heap dequeues (the cost
//! ledger's deterministic `dequeues`, same seed and window) over the
//! wall time of `EngineState::run_until` with no sink armed, set-up and
//! finalize excluded. The snapshot also embeds the deterministic
//! `titan-prof/2` ledger of the overhead window, which
//! `titan-repro bench diff` uses to attribute a delta between two
//! snapshots to the event kinds whose counts moved.
//!
//! Every measurement is taken [`GATE_ATTEMPTS`] times, every attempt is
//! recorded in the snapshot, and each gate is judged on the median of
//! its own attempts. The snapshot is written before the exit status is
//! decided, so the file holds the numbers the verdict came from. The
//! gates (CI wires all four):
//! - `--gate-{metrics,health,prof}-overhead PCT`: the arm's median wall
//!   overhead over the plain run must be at most PCT percent. A median
//!   within the gate passes only when the attempts' median noise floor
//!   is within it too; a wider noise floor makes the gate `Unresolved`
//!   (the host cannot certify a percentage finer than its own jitter),
//!   which fails the run as `Fail` does;
//! - `--gate-throughput-regression PCT`: the median `dequeues_per_s`
//!   must not drop more than PCT percent below the highest-numbered
//!   `BENCH_PR*.json` in the working directory, read before the new
//!   snapshot is written. A baseline of the other mode, or one written
//!   before the unit existed, skips the gate with a note.
//!
//! `--trajectory` runs no simulation: it merges every `BENCH_PR*.json`
//! that carries `dequeues_per_s` into `BENCH_TRAJECTORY.json`
//! (`titan-bench-trajectory/2`, one point per PR, ascending, numbered
//! by the file name) and fails
//! if the newest point dropped more than 10% below the previous point
//! of the same mode.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use titan_reliability::StudyConfig;
use titan_runner::{run_seed_with, KindCost, Obs, ObsPlan};
use titan_sim::{EngineState, SimConfig};

/// Independent measurements behind every gate. Odd, so the median is
/// one of the recorded attempts.
const GATE_ATTEMPTS: usize = 3;

/// Runs of each variant inside one attempt; the attempt keeps the
/// fastest, because scheduling noise only ever adds time.
const RUNS_EACH: usize = 5;

/// The bench seed (48716).
const SEED: u64 = 0xBE4C;

/// `--trajectory` fails when the newest point drops more than this far
/// below the previous point of the same mode, in percent.
const TRAJECTORY_GATE_PCT: f64 = 10.0;

/// The observer arms timed against the plain run, in snapshot order;
/// each arms exactly one sink (see [`arm_plan`]).
const ARMS: [&str; 3] = ["metrics", "health", "prof"];

/// The gate flags: one per arm of [`ARMS`], in order, then throughput.
const GATE_FLAGS: [&str; 4] = [
    "--gate-metrics-overhead",
    "--gate-health-overhead",
    "--gate-prof-overhead",
    "--gate-throughput-regression",
];

struct Args {
    quick: bool,
    trajectory: bool,
    pr: Option<u64>,
    out: Option<String>,
    /// Percent per flag of [`GATE_FLAGS`].
    gates: [Option<f64>; 4],
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        quick: false,
        trajectory: false,
        pr: None,
        out: None,
        gates: [None; 4],
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--quick" => a.quick = true,
            "--trajectory" => a.trajectory = true,
            "--pr" => a.pr = Some(value()?.parse().map_err(|_| "--pr needs a number")?),
            "--out" => a.out = Some(value()?.clone()),
            _ => {
                let (_, slot) = GATE_FLAGS
                    .iter()
                    .zip(a.gates.iter_mut())
                    .find(|(gate, _)| *gate == flag)
                    .ok_or_else(|| {
                        format!(
                            "unknown flag `{flag}` (expected --quick, --pr N, --out FILE, \
                             --trajectory, {} PCT)",
                            GATE_FLAGS.join(" PCT, ")
                        )
                    })?;
                let pct = value()?.parse::<f64>().ok().filter(|p| *p >= 0.0);
                *slot = Some(pct.ok_or_else(|| format!("{flag} needs a non-negative percent"))?);
            }
        }
    }
    if !a.trajectory && a.pr.is_none() && a.out.is_none() {
        return Err("writing a snapshot needs --pr N or --out FILE".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_pr: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trajectory {
        let out = args
            .out
            .unwrap_or_else(|| "BENCH_TRAJECTORY.json".to_string());
        trajectory(Path::new("."), &out)
    } else {
        let pr = args.pr;
        let out = args
            .out
            .unwrap_or_else(|| format!("BENCH_PR{}.json", pr.unwrap_or_default()));
        emit(args.quick, pr, &out, args.gates)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_pr: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The plan of one overhead arm of [`ARMS`]. The prof arm runs with
/// *only* the ledger armed (no metrics sink, no probe, no wall hook), so
/// its wall isolates the in-loop accounting cost.
fn arm_plan(arm: &str) -> ObsPlan {
    ObsPlan {
        metrics: arm == "metrics",
        health: arm == "health",
        prof: arm == "prof",
        ..ObsPlan::default()
    }
}

/// A `BENCH_PR<N>.json` snapshot, written with `to_string_pretty` and
/// read back by the throughput gate and `--trajectory`. The sections
/// are optional only so that older snapshots still read: one without
/// `throughput` was written before `dequeues_per_s` existed.
#[derive(Serialize, Deserialize)]
struct Snapshot {
    /// `None` for a snapshot written with `--out` and no `--pr`.
    pr: Option<u64>,
    mode: String,
    throughput: Option<Throughput>,
    overhead: Option<Vec<Arm>>,
    prof: Option<Prof>,
}

/// The event loop's throughput.
#[derive(Serialize, Deserialize)]
struct Throughput {
    window_days: u64,
    seed: u64,
    /// Heap dequeues of the loop: seed-deterministic.
    dequeues: u64,
    /// Each attempt's loop wall: the fastest of [`RUNS_EACH`] runs.
    attempt_loop_seconds: Vec<f64>,
    /// The median of `attempt_loop_seconds`.
    loop_seconds: f64,
    /// `dequeues / loop_seconds`.
    dequeues_per_s: f64,
    /// The snapshot the throughput gate compared against.
    baseline: Option<Baseline>,
    gate: Option<Verdict>,
}

#[derive(Serialize, Deserialize)]
struct Baseline {
    file: String,
    dequeues_per_s: f64,
}

/// One observer sink's wall overhead over the plain run.
#[derive(Serialize, Deserialize)]
struct Arm {
    arm: String,
    window_days: u64,
    runs_each: u64,
    attempts: Vec<OverheadAttempt>,
    median_overhead_pct: f64,
    median_noise_floor_pct: f64,
    gate: Option<Verdict>,
}

/// One interleaved measurement of one arm (see [`measure_overheads`]).
#[derive(Serialize, Deserialize, Clone, Copy)]
struct OverheadAttempt {
    off_wall_seconds: f64,
    on_wall_seconds: f64,
    overhead_pct: f64,
    noise_floor_pct: f64,
}

/// What a gate decided.
#[derive(Serialize, Deserialize, Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// The median and the noise floor are both at or below the gate.
    Pass,
    /// The median is above the gate (or missing).
    Fail,
    /// The median is at or below the gate, but the noise floor is above
    /// it: the host's jitter is too wide to certify the gate either way.
    Unresolved,
}

/// A gate's decision on the median of its own attempts.
#[derive(Serialize, Deserialize)]
struct Verdict {
    /// The percent the gate flag set.
    gate_pct: f64,
    /// The median that was judged: an overhead over the plain run, or
    /// a drop below the baseline.
    median_pct: f64,
    /// The median noise floor of the judged attempts; 0 for the
    /// throughput drop, which is judged against a recorded baseline.
    /// Absent in snapshots written before `Unresolved` existed, which
    /// recorded a `limit_pct` instead.
    noise_floor_pct: Option<f64>,
    /// The decision. Absent in those older snapshots, whose `pass` held
    /// the median to the wider of the gate and the noise floor.
    outcome: Option<Outcome>,
}

/// The deterministic per-scope cost ledger of the overhead window.
#[derive(Serialize, Deserialize)]
struct Prof {
    window_days: u64,
    seed: u64,
    kinds: BTreeMap<String, KindCost>,
}

/// The middle value of `xs`; NaN when empty.
fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Judges `median_pct` against `gate_pct`: a median above the gate
/// fails whatever the noise; one within it passes only when the noise
/// floor is within it too, and is `Unresolved` otherwise. A NaN median
/// fails and a NaN noise floor never certifies.
fn judge(gate_pct: f64, median_pct: f64, noise_floor_pct: f64) -> Verdict {
    let outcome = if median_pct.is_nan() || median_pct > gate_pct {
        Outcome::Fail
    } else if noise_floor_pct.is_nan() || noise_floor_pct > gate_pct {
        Outcome::Unresolved
    } else {
        Outcome::Pass
    };
    Verdict {
        gate_pct,
        median_pct,
        noise_floor_pct: Some(noise_floor_pct),
        outcome: Some(outcome),
    }
}

/// One arm's record: its own attempts, their medians, and the verdict
/// of its gate, if one was asked for.
fn arm_record(
    arm: &str,
    window_days: u64,
    attempts: Vec<OverheadAttempt>,
    gate: Option<f64>,
) -> Arm {
    let median_overhead_pct = median(attempts.iter().map(|a| a.overhead_pct));
    let median_noise_floor_pct = median(attempts.iter().map(|a| a.noise_floor_pct));
    Arm {
        arm: arm.to_string(),
        window_days,
        runs_each: RUNS_EACH as u64,
        attempts,
        median_overhead_pct,
        median_noise_floor_pct,
        gate: gate.map(|g| judge(g, median_overhead_pct, median_noise_floor_pct)),
    }
}

/// The `BENCH_PR<N>.json` file names in `dir`, PR-ascending.
fn snapshot_names(dir: &Path) -> Result<Vec<(u64, String)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut found: Vec<(u64, String)> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let num = name
                .strip_prefix("BENCH_PR")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((num, name))
        })
        .collect();
    found.sort();
    Ok(found)
}

fn read_snapshot(path: &Path) -> Result<Snapshot, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes `doc` to `path` and prints it.
fn write_json<T: Serialize>(path: &str, doc: &T) -> Result<(), String> {
    let mut json = serde_json::to_string_pretty(doc).map_err(|e| format!("serialize: {e}"))?;
    json.push('\n');
    std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    println!("{json}wrote {path}");
    Ok(())
}

/// The throughput gate's baseline: the highest-numbered snapshot in the
/// working directory, when it is of `mode` and carries `dequeues_per_s`.
fn baseline(mode: &str) -> Result<Option<Baseline>, String> {
    let Some((_, file)) = snapshot_names(Path::new("."))?.pop() else {
        return Ok(None);
    };
    let snap = read_snapshot(Path::new(&file))?;
    let rate = snap
        .throughput
        .filter(|_| snap.mode == mode)
        .map(|t| t.dequeues_per_s);
    Ok(rate.map(|dequeues_per_s| Baseline {
        file,
        dequeues_per_s,
    }))
}

/// One throughput attempt: the fastest of [`RUNS_EACH`] plain
/// `run_until` walls, set-up and finalize outside the clock.
fn loop_wall(cfg: &SimConfig) -> f64 {
    (0..RUNS_EACH)
        .map(|_| {
            let mut obs = Obs::disabled();
            let mut st = EngineState::new(cfg, &mut obs);
            let t0 = Instant::now();
            st.run_until(u64::MAX, &mut obs);
            let s = t0.elapsed().as_secs_f64();
            std::hint::black_box(&st);
            s
        })
        .fold(f64::INFINITY, f64::min)
}

/// The loop's heap dequeues, from the cost ledger of one untimed run.
fn loop_dequeues(cfg: &SimConfig) -> u64 {
    let mut obs = Obs::from_plan(&arm_plan("prof"));
    let mut st = EngineState::new(cfg, &mut obs);
    st.run_until(u64::MAX, &mut obs);
    obs.prof_finish();
    obs.prof_ledger()
        .ledger_map()
        .values()
        .map(|c| c.dequeues)
        .sum()
}

/// One interleaved overhead attempt: each of [`RUNS_EACH`] rounds times
/// the plain run, every arm of [`ARMS`], and the plain run *again*.
/// Interleaving cancels slow host drift (thermal, cache warmup, a
/// neighbor starting work) that back-to-back runs would charge to
/// whichever variant ran later, and the gap between the two plain
/// minima is the noise floor the host showed during this attempt.
/// Also checks that no sink perturbed the output digest, and returns
/// the prof arm's ledger.
fn measure_overheads(
    cfg: &StudyConfig,
) -> Result<([OverheadAttempt; ARMS.len()], BTreeMap<String, KindCost>), String> {
    let timed = |plan: &ObsPlan| {
        let t0 = Instant::now();
        let (run, docs) = run_seed_with(cfg, SEED, true, plan);
        (t0.elapsed().as_secs_f64(), run.output_digest, docs.ledger)
    };
    let (mut off_a, mut off_b) = (f64::INFINITY, f64::INFINITY);
    let mut on = [f64::INFINITY; ARMS.len()];
    let mut ledger = BTreeMap::new();
    for _ in 0..RUNS_EACH {
        let (w, plain, _) = timed(&ObsPlan::default());
        off_a = off_a.min(w);
        for (arm, best) in ARMS.iter().zip(on.iter_mut()) {
            let (w, digest, arm_ledger) = timed(&arm_plan(arm));
            *best = best.min(w);
            if digest != plain {
                return Err(format!("the {arm} sink perturbed the simulation output"));
            }
            ledger = arm_ledger.unwrap_or(ledger);
        }
        off_b = off_b.min(timed(&ObsPlan::default()).0);
    }
    let off = off_a.min(off_b);
    let noise_floor_pct = (off_a - off_b).abs() / off.max(1e-9) * 100.0;
    let attempts = on.map(|on| OverheadAttempt {
        off_wall_seconds: off,
        on_wall_seconds: on,
        overhead_pct: (on - off) / off.max(1e-9) * 100.0,
        noise_floor_pct,
    });
    Ok((attempts, ledger))
}

fn emit(
    quick: bool,
    pr: Option<u64>,
    out_path: &str,
    gates: [Option<f64>; 4],
) -> Result<(), String> {
    let mode = if quick { "quick" } else { "full" };
    let [metrics_gate, health_gate, prof_gate, throughput_gate] = gates;
    let loop_cfg = if quick {
        SimConfig::quick(30, SEED)
    } else {
        SimConfig::default()
    };
    let dequeues = loop_dequeues(&loop_cfg);
    let attempt_loop_seconds: Vec<f64> = (0..GATE_ATTEMPTS).map(|_| loop_wall(&loop_cfg)).collect();
    let loop_seconds = median(attempt_loop_seconds.iter().copied());
    let dequeues_per_s = dequeues as f64 / loop_seconds.max(1e-9);
    // Read before the new snapshot can overwrite it.
    let baseline = match throughput_gate {
        Some(_) => baseline(mode)?,
        None => None,
    };
    let gate = throughput_gate.zip(baseline.as_ref()).map(|(gate, b)| {
        judge(
            gate,
            (b.dequeues_per_s - dequeues_per_s) / b.dequeues_per_s * 100.0,
            0.0,
        )
    });
    if throughput_gate.is_some() && gate.is_none() {
        println!(
            "throughput gate skipped: the newest BENCH_PR*.json is not a `{mode}`-mode \
             snapshot with dequeues_per_s"
        );
    }
    let throughput = Throughput {
        window_days: loop_cfg.window / 86_400,
        seed: SEED,
        dequeues,
        attempt_loop_seconds,
        loop_seconds,
        dequeues_per_s,
        baseline,
        gate,
    };

    let ov_days = if quick { 30 } else { 60 };
    let ov_cfg = StudyConfig::quick(ov_days, SEED);
    let mut per_arm: [Vec<OverheadAttempt>; ARMS.len()] = Default::default();
    let mut ledger = BTreeMap::new();
    for _ in 0..GATE_ATTEMPTS {
        let (attempt, attempt_ledger) = measure_overheads(&ov_cfg)?;
        for (arm, a) in per_arm.iter_mut().zip(attempt) {
            arm.push(a);
        }
        ledger = attempt_ledger;
    }
    let overhead = ARMS
        .iter()
        .zip(per_arm)
        .zip([metrics_gate, health_gate, prof_gate])
        .map(|((arm, attempts), gate)| arm_record(arm, ov_days, attempts, gate))
        .collect();

    let snapshot = Snapshot {
        pr,
        mode: mode.to_string(),
        throughput: Some(throughput),
        overhead: Some(overhead),
        prof: Some(Prof {
            window_days: ov_days,
            seed: SEED,
            kinds: ledger,
        }),
    };
    write_json(out_path, &snapshot)?;
    verdicts(&snapshot)
}

/// Prints every verdict in `snapshot`; `Err` names the gates that did
/// not pass: those whose median failed and those left unresolved.
fn verdicts(snapshot: &Snapshot) -> Result<(), String> {
    let throughput = snapshot
        .throughput
        .iter()
        .map(|t| ("throughput drop".to_string(), &t.gate));
    let arms = snapshot
        .overhead
        .iter()
        .flatten()
        .map(|a| (format!("{} overhead", a.arm), &a.gate));
    let mut failed = Vec::new();
    let mut unresolved = Vec::new();
    for (name, verdict) in throughput.chain(arms) {
        let Some(v) = verdict else { continue };
        let (word, list) = match v.outcome {
            Some(Outcome::Pass) => ("pass", None),
            Some(Outcome::Unresolved) => ("UNRESOLVED", Some(&mut unresolved)),
            Some(Outcome::Fail) | None => ("FAIL", Some(&mut failed)),
        };
        println!(
            "{name}: median {:+.2}% against the {:.2}% gate, noise floor {:.2}%, over \
             {GATE_ATTEMPTS} attempts — {word}",
            v.median_pct,
            v.gate_pct,
            v.noise_floor_pct.unwrap_or(f64::NAN)
        );
        if let Some(list) = list {
            list.push(name);
        }
    }
    let mut problems = Vec::new();
    if !failed.is_empty() {
        problems.push(format!("gates failed on their medians: {}", failed.join(", ")));
    }
    if !unresolved.is_empty() {
        problems.push(format!(
            "gates unresolved (median within the gate, noise floor above it): {}",
            unresolved.join(", ")
        ));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// One point of the `titan-bench-trajectory/2` document.
#[derive(Serialize)]
struct TrajectoryPoint {
    pr: u64,
    mode: String,
    throughput: Throughput,
}

/// The merged perf-trajectory document: one point per snapshot that
/// carries `dequeues_per_s`, PR-ascending.
#[derive(Serialize)]
struct TrajectoryDoc {
    schema: String,
    points: Vec<TrajectoryPoint>,
}

/// `--trajectory`: merges the `BENCH_PR*.json` snapshots in `dir` into
/// the trajectory document at `out_path` and gates the newest point
/// (see [`trajectory_gate`]). Pure file work — no simulation runs.
fn trajectory(dir: &Path, out_path: &str) -> Result<(), String> {
    let mut points = Vec::new();
    for (pr, name) in snapshot_names(dir)? {
        let snap = read_snapshot(&dir.join(&name))?;
        match snap.throughput {
            Some(throughput) => points.push(TrajectoryPoint {
                pr,
                mode: snap.mode,
                throughput,
            }),
            None => {
                println!("skipping {name}: no dequeues_per_s (written before the unit existed)")
            }
        }
    }
    if points.is_empty() {
        return Err(format!(
            "no BENCH_PR*.json in {} carries dequeues_per_s",
            dir.display()
        ));
    }
    let doc = TrajectoryDoc {
        schema: "titan-bench-trajectory/2".to_string(),
        points,
    };
    write_json(out_path, &doc)?;
    println!("{}", trajectory_gate(&doc.points)?);
    Ok(())
}

/// The newest point against the previous point of the same mode (full
/// and quick windows are incomparable): `Err` on a drop of more than
/// [`TRAJECTORY_GATE_PCT`].
fn trajectory_gate(points: &[TrajectoryPoint]) -> Result<String, String> {
    let Some((newest, older)) = points.split_last() else {
        return Err("the trajectory has no points".into());
    };
    let Some(prev) = older.iter().rev().find(|p| p.mode == newest.mode) else {
        return Ok(format!(
            "trajectory gate skipped: no previous `{}`-mode point before pr {}",
            newest.mode, newest.pr
        ));
    };
    let (was, now) = (
        prev.throughput.dequeues_per_s,
        newest.throughput.dequeues_per_s,
    );
    let drop_pct = (was - now) / was * 100.0;
    if drop_pct > TRAJECTORY_GATE_PCT {
        return Err(format!(
            "pr {} dropped {drop_pct:.1}% below pr {} ({was:.0} -> {now:.0} dequeues/s) — over \
             the {TRAJECTORY_GATE_PCT}% trajectory gate",
            newest.pr, prev.pr
        ));
    }
    Ok(format!(
        "trajectory gate clear: pr {} vs pr {} ({:+.1}%)",
        newest.pr, prev.pr, -drop_pct
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attempt(overhead_pct: f64, noise_floor_pct: f64) -> OverheadAttempt {
        OverheadAttempt {
            off_wall_seconds: 0.4,
            on_wall_seconds: 0.4 * (1.0 + overhead_pct / 100.0),
            overhead_pct,
            noise_floor_pct,
        }
    }

    fn snapshot(pr: u64, mode: &str, dequeues_per_s: f64) -> Snapshot {
        Snapshot {
            pr: Some(pr),
            mode: mode.to_string(),
            throughput: Some(Throughput {
                window_days: 30,
                seed: SEED,
                dequeues: 17_046,
                attempt_loop_seconds: vec![0.03, 0.02, 0.04],
                loop_seconds: 0.03,
                dequeues_per_s,
                baseline: None,
                gate: Some(judge(10.0, 1.5, 0.0)),
            }),
            overhead: Some(vec![arm_record(
                "prof",
                30,
                vec![attempt(0.5, 0.2), attempt(2.0, 0.4), attempt(0.1, 0.3)],
                Some(1.0),
            )]),
            prof: Some(Prof {
                window_days: 30,
                seed: SEED,
                kinds: BTreeMap::from([("ev:sbe".to_string(), KindCost::default())]),
            }),
        }
    }

    /// A fresh directory for one test's snapshot files.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bench_pr-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_snapshot(dir: &Path, snap: &Snapshot) {
        let path = dir.join(format!("BENCH_PR{}.json", snap.pr.expect("a numbered snapshot")));
        write_json(path.to_str().unwrap(), snap).unwrap();
    }

    /// A snapshot from before `dequeues_per_s`: `events_per_sec` only.
    const OLD_SNAPSHOT: &str = r#"{
  "pr": 1,
  "mode": "quick",
  "single_run": {"window_days": 30, "seed": 48716, "wall_seconds": 0.087,
                 "events": 60766, "events_per_sec": 701188},
  "metrics_overhead": {"overhead_pct": 1.22, "noise_floor_pct": 2.59}
}
"#;

    #[test]
    fn median_picks_the_middle_attempt() {
        assert_eq!(median([9.0, 1.0, 4.0]), 4.0);
        assert_eq!(median([2.0]), 2.0);
        assert!(median([]).is_nan());
    }

    #[test]
    fn each_gate_is_judged_on_the_median_of_its_own_attempts() {
        // One outlier attempt per arm does not decide its verdict.
        let metrics = arm_record(
            "metrics",
            30,
            vec![attempt(9.0, 0.5), attempt(2.0, 0.5), attempt(3.0, 0.5)],
            Some(5.0),
        );
        let v = metrics.gate.as_ref().unwrap();
        assert_eq!((v.median_pct, v.outcome), (3.0, Some(Outcome::Pass)));
        let health = arm_record(
            "health",
            30,
            vec![attempt(0.2, 0.1), attempt(1.5, 0.1), attempt(1.8, 0.1)],
            Some(1.0),
        );
        let v = health.gate.as_ref().unwrap();
        assert_eq!((v.median_pct, v.outcome), (1.5, Some(Outcome::Fail)));
        // The noise floor is judged on its median too: a 2% median noise
        // floor leaves a 0.5% median against a 1% gate unresolved.
        let noisy = arm_record(
            "prof",
            30,
            vec![attempt(0.5, 2.0), attempt(0.5, 1.0), attempt(0.5, 3.0)],
            Some(1.0),
        );
        let v = noisy.gate.as_ref().unwrap();
        assert_eq!((v.noise_floor_pct, v.outcome), (Some(2.0), Some(Outcome::Unresolved)));
        // No gate asked for: every attempt is still recorded.
        let ungated = arm_record("prof", 30, vec![attempt(50.0, 0.0); 3], None);
        assert!(ungated.gate.is_none());
        assert_eq!(ungated.attempts.len(), 3);
    }

    #[test]
    fn another_gates_breaches_do_not_reproduce_the_first() {
        // Attempt 1 breaches the prof gate only; attempts 2 and 3 breach
        // the metrics gate only. Prof breached once in three and passes;
        // metrics fails on its own attempts, and its breaches never count
        // as prof reproducing.
        let prof = arm_record(
            "prof",
            30,
            vec![attempt(8.6, 0.1), attempt(0.4, 0.1), attempt(0.6, 0.1)],
            Some(1.0),
        );
        let metrics = arm_record(
            "metrics",
            30,
            vec![attempt(1.0, 0.1), attempt(7.0, 0.1), attempt(6.0, 0.1)],
            Some(5.0),
        );
        assert_eq!(
            prof.gate.as_ref().unwrap().outcome,
            Some(Outcome::Pass),
            "prof breached once, not three times"
        );
        assert_eq!(metrics.gate.as_ref().unwrap().outcome, Some(Outcome::Fail));
        let snap = Snapshot {
            overhead: Some(vec![metrics, prof]),
            ..snapshot(21, "quick", 1.0)
        };
        let err = verdicts(&snap).unwrap_err();
        assert!(err.contains("metrics") && !err.contains("prof"), "{err}");
    }

    #[test]
    fn judge_passes_only_a_median_and_a_noise_floor_within_the_gate() {
        let outcome = |gate, median, noise| judge(gate, median, noise).outcome.unwrap();
        use Outcome::*;
        // At or below the gate, on a quiet host.
        assert_eq!(outcome(5.0, 3.0, 0.5), Pass);
        assert_eq!(outcome(5.0, 5.0, 5.0), Pass);
        assert_eq!(outcome(5.0, -2.0, 0.0), Pass);
        // Above the gate fails, however noisy the host: BENCH_PR21.json's
        // metrics (8.61% against 5%) and health (8.22% against 1%)
        // medians under an 11.86% median noise floor.
        assert_eq!(outcome(5.0, 8.61, 11.86), Fail);
        assert_eq!(outcome(1.0, 8.22, 11.86), Fail);
        assert_eq!(outcome(1.0, 1.0001, 0.0), Fail);
        // Within the gate, but the host jitters more than the gate.
        assert_eq!(outcome(1.0, 0.4, 11.86), Unresolved);
        assert_eq!(outcome(1.0, 1.0, 1.0001), Unresolved);
        // Nothing measured never passes.
        assert_eq!(outcome(5.0, f64::NAN, 0.0), Fail);
        assert_eq!(outcome(5.0, 1.0, f64::NAN), Unresolved);
        // The throughput drop: no noise floor, a negative drop is a gain.
        assert_eq!(outcome(10.0, -95.9, 0.0), Pass);
        assert_eq!(outcome(10.0, 10.5, 0.0), Fail);
    }

    #[test]
    fn unresolved_gates_fail_the_run_by_name() {
        let snap = Snapshot {
            overhead: Some(vec![
                arm_record("metrics", 30, vec![attempt(2.0, 9.0); 3], Some(5.0)),
                arm_record("health", 30, vec![attempt(2.0, 0.1); 3], Some(1.0)),
                arm_record("prof", 30, vec![attempt(0.2, 0.1); 3], Some(1.0)),
            ]),
            ..snapshot(22, "quick", 1.0)
        };
        let err = verdicts(&snap).unwrap_err();
        assert!(
            err.contains("failed on their medians: health")
                && err.contains("unresolved (median within the gate, noise floor above it): metrics")
                && !err.contains("prof"),
            "{err}"
        );
        let clean = Snapshot {
            overhead: Some(vec![arm_record("prof", 30, vec![attempt(0.2, 0.1); 3], Some(1.0))]),
            ..snapshot(22, "quick", 1.0)
        };
        assert_eq!(verdicts(&clean), Ok(()));
    }

    #[test]
    fn committed_snapshots_still_read() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (_, name) in snapshot_names(&root).unwrap() {
            let snap = read_snapshot(&root.join(&name)).unwrap();
            // Gates written before `outcome` existed read without one.
            for arm in snap.overhead.iter().flatten() {
                if let Some(v) = &arm.gate {
                    assert!(v.outcome.is_none() || v.noise_floor_pct.is_some(), "{name}");
                }
            }
        }
        let pr21 = read_snapshot(&root.join("BENCH_PR21.json")).unwrap();
        let metrics = &pr21.overhead.unwrap()[0];
        assert_eq!(metrics.arm, "metrics");
        assert_eq!(metrics.gate.as_ref().map(|v| v.outcome), Some(None));
    }

    #[test]
    fn a_snapshot_needs_a_number_or_a_path() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let err = args(&["--quick"]).err().expect("no --pr and no --out");
        assert!(err.contains("--pr N or --out FILE"), "{err}");
        assert_eq!(args(&["--pr", "27"]).map(|a| a.pr), Ok(Some(27)));
        assert_eq!(args(&["--out", "bench-ci.json"]).map(|a| a.pr), Ok(None));
        assert!(args(&["--trajectory"]).is_ok());
    }

    #[test]
    fn snapshot_round_trips_through_the_struct() {
        let text = serde_json::to_string_pretty(&snapshot(21, "quick", 600_000.0)).unwrap();
        let back: Snapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), text);
        let old: Snapshot = serde_json::from_str(OLD_SNAPSHOT).unwrap();
        assert_eq!((old.pr, old.mode.as_str()), (Some(1), "quick"));
        assert!(old.throughput.is_none() && old.overhead.is_none() && old.prof.is_none());
    }

    #[test]
    fn trajectory_gates_dequeues_per_s_and_skips_snapshots_without_it() {
        let dir = scratch_dir("trajectory");
        std::fs::write(dir.join("BENCH_PR1.json"), OLD_SNAPSHOT).unwrap();
        write_snapshot(&dir, &snapshot(2, "quick", 1_000.0));
        write_snapshot(&dir, &snapshot(3, "full", 100.0));
        // An `--out` snapshot records no number; its file name gives it.
        let unnumbered = Snapshot {
            pr: None,
            ..snapshot(4, "quick", 950.0)
        };
        write_json(dir.join("BENCH_PR4.json").to_str().unwrap(), &unnumbered).unwrap();
        let out = dir.join("trajectory.json");
        let out = out.to_str().unwrap();
        trajectory(&dir, out).unwrap();
        let doc = std::fs::read_to_string(out).unwrap();
        assert!(
            doc.contains("\"schema\": \"titan-bench-trajectory/2\""),
            "{doc}"
        );
        let prs: Vec<&str> = doc
            .lines()
            .filter(|l| l.contains("\"pr\":"))
            .map(str::trim)
            .collect();
        assert_eq!(
            prs,
            ["\"pr\": 2,", "\"pr\": 3,", "\"pr\": 4,"],
            "the events_per_sec-only snapshot is skipped"
        );

        // pr 5 is 11.6% below pr 4, the previous quick point, and fails;
        // pr 3, a full-mode point, is not compared.
        write_snapshot(&dir, &snapshot(5, "quick", 840.0));
        let err = trajectory(&dir, out).unwrap_err();
        assert!(err.contains("pr 5 dropped 11.6% below pr 4"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
