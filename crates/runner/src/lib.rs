//! Multi-seed replication: the statistical-confidence engine.
//!
//! The paper's conclusions rest on 21 months × 18,688 GPUs of field
//! data; our substitute is a calibrated simulator, so confidence has to
//! come from *replications* — many seeds per configuration — the way
//! later field studies report rates with confidence intervals across
//! populations. [`replicate`] fans N seeds out over a thread pool (one
//! whole simulation per task — parallelism never reaches inside a run,
//! see DETERMINISM.md), merges the per-seed summaries **in seed order**,
//! and reports mean / 95% CI bands plus per-expectation verdict
//! distributions, so EXPERIMENTS.md can check intervals instead of
//! points.
//!
//! Determinism contract: for a fixed seed list the report is
//! byte-identical at any thread width, and each per-seed digest equals
//! the digest of a plain sequential [`Study`] run of that seed.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use serde::{Deserialize, Serialize};
use titan_conlog::SecEngine;

pub mod ckpt;

pub use ckpt::{
    bisect, checkpoint_digest, parse_checkpoint, render_checkpoint, resume_checkpointed,
    run_checkpointed, BisectInterval, BisectReport, CheckpointDoc, CKPT_SCHEMA,
};
// Re-exported so CLI code can name the telemetry types through the
// runner without a direct titan-obs dependency.
pub use titan_obs::{KindCost, MetricsDoc, Obs, ObsPlan};
use titan_obs::TraceKind;
use titan_reliability::study::CompletedStudy;
use titan_reliability::{evaluate_all, Expectation, Study, StudyConfig, Verdict};
use titan_sim::SimOutput;
use titan_stats::Summary;

/// z-value for a two-sided 95% interval under the normal approximation.
/// With the handful-of-seeds replication counts used here the Student-t
/// correction would widen bands slightly; the registry's pass bands are
/// an order of magnitude wider than that correction.
const Z95: f64 = 1.96;

/// Recommended fan-out width: the pool's configured width — the
/// `TITAN_NUM_THREADS` override when set, else available parallelism.
pub fn recommended_threads() -> usize {
    rayon::current_num_threads()
}

/// What to replicate and how wide to fan out.
#[derive(Debug, Clone)]
pub struct ReplicateOptions {
    /// Base study configuration; its `sim.seed` is overridden per seed.
    pub base: StudyConfig,
    /// Master seeds, one simulation each. Order defines report order.
    pub seeds: Vec<u64>,
    /// Worker threads (1 = fully sequential, still the same results).
    pub threads: usize,
    /// When true, skip the per-seed expectation registry (figures are
    /// by far the dominant cost when the window is short).
    pub skip_expectations: bool,
    /// The observers every seed runs with; each seed's documents come
    /// back from [`replicate_full`]. With `plan.metrics` the per-seed
    /// metrics document also rides in [`SeedRun::obs`] and its
    /// flattened scalars join the metric bands under an `obs.` prefix.
    pub plan: ObsPlan,
}

impl ReplicateOptions {
    /// `count` consecutive seeds derived from `base_seed`, ready to fan
    /// out over `threads`. Rejects a range that would wrap past
    /// `u64::MAX`: wrapping silently re-issues seeds already in the
    /// list, and duplicate seeds make the "independent replications"
    /// premise of every CI band a lie.
    pub fn consecutive(
        base: StudyConfig,
        base_seed: u64,
        count: u64,
        threads: usize,
    ) -> Result<Self, String> {
        let mut seeds = Vec::new();
        for i in 0..count {
            let Some(seed) = base_seed.checked_add(i) else {
                return Err(format!(
                    "seed range overflows: base seed {base_seed} + {count} consecutive seeds \
                     wraps past u64::MAX and would duplicate seeds; lower --seed or --seeds"
                ));
            };
            seeds.push(seed);
        }
        Ok(ReplicateOptions {
            base,
            seeds,
            threads,
            skip_expectations: false,
            plan: ObsPlan::default(),
        })
    }
}

/// One seed's compressed outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedRun {
    /// The master seed.
    pub seed: u64,
    /// FNV-1a digest of the full serialized `SimOutput` plus all three
    /// rendered logs — the byte-identity fingerprint replication tests
    /// compare against sequential runs.
    pub output_digest: u64,
    /// Scalar fleet metrics (see [`seed_metrics`] for the catalogue).
    pub metrics: BTreeMap<String, f64>,
    /// The full expectation registry for this seed (empty when
    /// `skip_expectations` was set).
    pub expectations: Vec<Expectation>,
    /// The seed's full metrics document (present only when the run
    /// collected observability metrics).
    pub obs: Option<MetricsDoc>,
}

/// Mean / spread / 95% CI of one metric across seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricBand {
    /// Replication count.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (NaN when n < 2).
    pub std_dev: f64,
    /// 95% CI lower bound (normal approximation; equals `mean` at n = 1).
    pub ci_lo: f64,
    /// 95% CI upper bound.
    pub ci_hi: f64,
    /// Per-seed values, in seed order.
    pub per_seed: Vec<f64>,
}

impl MetricBand {
    fn of(per_seed: Vec<f64>) -> Self {
        let s = Summary::of(&per_seed);
        let n = s.count();
        let half = if n >= 2 {
            Z95 * s.std_dev() / (n as f64).sqrt()
        } else {
            0.0
        };
        MetricBand {
            n,
            mean: s.mean(),
            std_dev: s.std_dev(),
            ci_lo: s.mean() - half,
            ci_hi: s.mean() + half,
            per_seed,
        }
    }

    /// Whether `value` lies inside the 95% band.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.ci_lo && value <= self.ci_hi
    }
}

/// One expectation's verdict distribution across seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerdictBand {
    /// Experiment id (e.g. "F2").
    pub id: String,
    /// The paper's claim.
    pub paper: String,
    /// Seeds that passed.
    pub pass: u32,
    /// Seeds that were weak.
    pub weak: u32,
    /// Seeds that failed.
    pub fail: u32,
    /// Interval verdict: Pass when a majority of seeds pass and none
    /// fail; Weak when no seed fails; Fail otherwise. Stricter than any
    /// single-seed check — one failing replication fails the band.
    pub overall: Verdict,
    /// A representative measured string (first seed's).
    pub sample_measured: String,
}

/// The merged multi-seed report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicationReport {
    /// Worker threads used (informational; never affects content).
    pub threads: usize,
    /// Study window in days.
    pub window_days: u64,
    /// Per-seed outcomes, in seed order.
    pub runs: Vec<SeedRun>,
    /// Mean/CI bands per metric, keyed by metric name.
    pub metrics: BTreeMap<String, MetricBand>,
    /// Per-expectation verdict distributions, registry order.
    pub expectations: Vec<VerdictBand>,
}

/// Runs one seed sequentially and summarizes it. This is the exact code
/// a replication worker runs; the determinism test compares its digest
/// against threaded output.
pub fn run_seed(base: &StudyConfig, seed: u64, skip_expectations: bool) -> SeedRun {
    run_seed_with(base, seed, skip_expectations, &ObsPlan::default()).0
}

/// [`run_seed`] with the observers `plan` arms, returning the summary
/// plus the documents they yield. Every observer is a pure observer:
/// the [`SeedRun`] digest is identical under any plan. With
/// `plan.metrics` the metrics document also rides in [`SeedRun::obs`]
/// and its flattened scalars join `metrics` under an `obs.` prefix. No
/// allocator probe or wall hook is installed, so a prof-only plan
/// measures the pure in-loop ledger cost (the bench_pr overhead arm).
pub fn run_seed_with(
    base: &StudyConfig,
    seed: u64,
    skip_expectations: bool,
    plan: &ObsPlan,
) -> (SeedRun, RunDocs) {
    let mut config = base.clone();
    config.sim.seed = seed;
    let mut obs = Obs::from_plan(plan);
    let study = Study::new(config).run_with_obs(&mut obs);
    let (expectations, mut docs) = collect_docs(&study, plan, &mut obs, |_| {
        if skip_expectations {
            Vec::new()
        } else {
            evaluate_all(&study.figures())
        }
    });
    let mut metrics = seed_metrics(&study.sim);
    if let Some(doc) = &docs.metrics {
        for (k, v) in doc.flatten() {
            metrics.insert(format!("obs.{k}"), v);
        }
    }
    docs.close_ledger(&mut obs);
    let run = SeedRun {
        seed,
        output_digest: output_digest(&study.sim),
        metrics,
        expectations,
        obs: docs.metrics.clone(),
    };
    (run, docs)
}

/// The documents one finished study yields: each field is `Some`
/// exactly when its sink was planned. They travel beside [`SeedRun`],
/// not inside it (only the metrics document is also copied into
/// [`SeedRun::obs`]), so the replicate report does not depend on them.
#[derive(Debug, PartialEq)]
pub struct RunDocs {
    /// The `titan-obs/2` metrics document (`plan.metrics`).
    pub metrics: Option<MetricsDoc>,
    /// The rendered `titan-trace/1` JSONL (`plan.trace`).
    pub trace: Option<String>,
    /// The rendered `titan-health/1` JSONL (`plan.health`).
    pub health: Option<String>,
    /// The closed per-scope cost ledger (`plan.prof`), filled by
    /// [`RunDocs::close_ledger`].
    pub ledger: Option<BTreeMap<String, KindCost>>,
}

impl RunDocs {
    /// Closes the cost ledger, when armed, and keeps its scope table.
    /// Everything `obs` did before this call is charged; nothing after.
    pub fn close_ledger(&mut self, obs: &mut Obs) {
        if obs.prof_enabled() {
            obs.prof_finish();
            self.ledger = Some(obs.prof_ledger().ledger_map());
        }
    }
}

/// Collects what `plan` asks for from a finished study — the one place
/// that decides which documents a run yields. In order:
///
/// 1. the collect-time SEC replay and nvsmi rollup ([`collect_metrics`])
///    under the `cli:collect_metrics` ledger scope. It runs for a
///    trace-only plan too: it mints the collect-time trace records;
/// 2. `consume`, the caller's own use of the study (print the report,
///    evaluate the checks), charged to whatever ledger scope it opens;
/// 3. the trace and health renders — pure reads of the flushed streams.
///
/// The ledger stays open so the caller's artifact writes are charged
/// too; [`RunDocs::close_ledger`] closes it.
pub fn collect_docs<T>(
    study: &CompletedStudy,
    plan: &ObsPlan,
    obs: &mut Obs,
    consume: impl FnOnce(&mut Obs) -> T,
) -> (T, RunDocs) {
    let seed = study.config.sim.seed;
    let window = study.config.sim.window;
    let metrics = if plan.metrics || plan.trace {
        obs.phase("cli:collect_metrics");
        let doc = collect_metrics(&study.sim, seed, window, obs);
        plan.metrics.then_some(doc)
    } else {
        None
    };
    let consumed = consume(obs);
    let docs = RunDocs {
        metrics,
        trace: plan.trace.then(|| obs.stream.render_jsonl(seed, window / 86_400)),
        health: plan.health.then(|| obs.health.render_jsonl(seed, window / 86_400)),
        ledger: None,
    };
    (consumed, docs)
}

/// Fills the SEC and nvsmi sections of the registry from a finished
/// run and snapshots everything into the stable [`MetricsDoc`].
///
/// The SEC pipeline is replayed here, at collect time, over the run's
/// console log with the default OLCF rule set — the engine never feeds
/// the SEC during simulation (the paper's correlators run on the SMW,
/// outside the machine), so its rule-hit/suppression counters live in
/// the collector, not the hot loop.
///
/// When the flight recorder is on, the replay runs line by line so each
/// SEC action can be parented to the exact console-line trace record
/// that triggered it, and an `nvsmi_rollup` record is minted per card
/// with retired pages, parented to that card's last retirement.
pub fn collect_metrics(
    sim: &SimOutput,
    seed: u64,
    window: titan_conlog::time::SimTime,
    obs: &mut Obs,
) -> MetricsDoc {
    let mut sec = SecEngine::olcf_default();
    // The engine's stable time-sort makes console-line record i describe
    // console line i (see `TraceStream::console_ids_in_log_order`); the
    // length check keeps a stream from a different run from misparenting.
    let console_ids = obs.stream.console_ids_in_log_order();
    let tracing = obs.stream.is_enabled() && console_ids.len() == sim.console.len();
    for (i, ev) in sim.console.iter().enumerate() {
        let actions = sec.ingest(ev);
        if tracing {
            for a in &actions {
                obs.stream.mint(
                    TraceKind::SecAlert,
                    console_ids[i],
                    a.time(),
                    None,
                    a.node().map(|n| u64::from(n.0)),
                    ev.apid,
                    || format!("sec {}", a.label()),
                );
            }
        }
    }
    let stats = sec.stats();
    for (name, value) in [
        ("events_ingested", stats.events_ingested),
        ("alerts", stats.alerts),
        ("suppressed", stats.suppressed),
        ("threshold_alarms", stats.threshold_alarms),
        ("cluster_alarms", stats.cluster_alarms),
    ] {
        let c = obs.reg.counter("sec", name);
        obs.reg.add(c, value);
    }
    for (desc, hits) in &stats.rule_hits {
        let c = obs.reg.counter("sec", &format!("rule_hits.{desc}"));
        obs.reg.add(c, *hits);
    }

    let fleet = titan_nvsmi::summarize(&sim.final_snapshots);
    for (name, value) in [
        ("fleet_total_sbe", fleet.total_sbe),
        ("fleet_total_dbe", fleet.total_dbe),
        ("retired_pages_dbe", fleet.retired_pages_dbe),
        ("retired_pages_sbe", fleet.retired_pages_sbe),
        ("dbe_exceeds_sbe_cards", fleet.dbe_exceeds_sbe_cards),
        ("cards_with_sbe", fleet.cards_with_sbe),
        ("cards_with_dbe", fleet.cards_with_dbe),
    ] {
        let c = obs.reg.counter("nvsmi", name);
        obs.reg.add(c, value);
    }

    if tracing {
        // Last retirement record per card: the rollup's causal parent.
        let mut last_retirement: BTreeMap<u64, u64> = BTreeMap::new();
        for r in obs.stream.records() {
            if r.kind == TraceKind::Retirement.name() {
                if let Some(c) = r.card {
                    last_retirement.insert(c, r.id);
                }
            }
        }
        let rollups: Vec<(u64, u64, u64, u32, u32)> = sim
            .final_snapshots
            .iter()
            .filter(|s| s.retired_pages != (0, 0))
            .map(|s| {
                let card = u64::from(s.serial.0);
                (
                    last_retirement.get(&card).copied().unwrap_or(0),
                    card,
                    u64::from(s.node.0),
                    s.retired_pages.0,
                    s.retired_pages.1,
                )
            })
            .collect();
        for (parent, card, node, pd, ps) in rollups {
            // A rollup with no retirement ancestor mints parent 0, which
            // `verify_trace` rejects — retired pages with no recorded
            // cause are exactly the provenance hole verify exists for.
            obs.stream.mint(
                TraceKind::NvsmiRollup,
                parent,
                window,
                Some(card),
                Some(node),
                None,
                || format!("retired_pages dbe={pd} sbe={ps}"),
            );
        }
    }

    MetricsDoc::from_obs(obs, seed, window / 86_400)
}

/// Fans the seeds out over `threads` workers and merges in seed order.
///
/// Each worker runs one *whole* simulation; results are gathered by
/// input index and folded in seed order, so the report is byte-identical
/// at any thread width (the same guarantee the vendored pool makes for
/// every `map`/`reduce`, see `rayon::scope_map`).
pub fn replicate(opts: &ReplicateOptions) -> Result<ReplicationReport, String> {
    replicate_full(opts).map(|(report, _)| report)
}

/// [`replicate`] that also returns each seed's [`RunDocs`], in seed
/// order. The documents ride the same seed-order merge, so for a fixed
/// seed list every one is byte-identical at any thread width.
pub fn replicate_full(
    opts: &ReplicateOptions,
) -> Result<(ReplicationReport, Vec<RunDocs>), String> {
    if opts.seeds.is_empty() {
        return Err("replicate: need at least one seed".into());
    }
    if opts.threads == 0 {
        return Err("replicate: need at least one thread".into());
    }
    {
        let mut sorted = opts.seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != opts.seeds.len() {
            return Err("replicate: duplicate seeds (replications must be independent)".into());
        }
    }
    opts.base.sim.validate()?;

    let base = &opts.base;
    let skip = opts.skip_expectations;
    let plan = &opts.plan;
    let (runs, docs): (Vec<SeedRun>, Vec<RunDocs>) =
        rayon::scope_map(opts.seeds.clone(), opts.threads, |seed| {
            run_seed_with(base, seed, skip, plan)
        })
        .into_iter()
        .unzip();
    Ok((merge(runs, opts.threads, base.sim.window / 86_400), docs))
}

/// Merges per-seed runs (already in seed order) into the report.
fn merge(runs: Vec<SeedRun>, threads: usize, window_days: u64) -> ReplicationReport {
    // Metric bands: every metric name present in any run; a run missing
    // a name contributes 0 (metrics are counts).
    let mut names: Vec<String> = Vec::new();
    for r in &runs {
        for k in r.metrics.keys() {
            if !names.contains(k) {
                names.push(k.clone());
            }
        }
    }
    names.sort_unstable();
    let mut metrics = BTreeMap::new();
    for name in names {
        let per_seed: Vec<f64> = runs
            .iter()
            .map(|r| r.metrics.get(&name).copied().unwrap_or(0.0))
            .collect();
        metrics.insert(name, MetricBand::of(per_seed));
    }

    // Verdict bands, in the first run's registry order. The registry is
    // deterministic, so every seed reports the same ids in the same
    // order; assert-by-lookup keeps a drifting registry from silently
    // misaligning counts.
    let mut expectations = Vec::new();
    if let Some(first) = runs.first() {
        for e in &first.expectations {
            let (mut pass, mut weak, mut fail) = (0u32, 0u32, 0u32);
            for r in &runs {
                let v = r
                    .expectations
                    .iter()
                    .find(|x| x.id == e.id)
                    .map(|x| x.verdict);
                match v {
                    Some(Verdict::Pass) => pass += 1,
                    Some(Verdict::Weak) => weak += 1,
                    _ => fail += 1,
                }
            }
            let overall = if fail > 0 {
                Verdict::Fail
            } else if weak > pass {
                Verdict::Weak
            } else {
                Verdict::Pass
            };
            expectations.push(VerdictBand {
                id: e.id.clone(),
                paper: e.paper.clone(),
                pass,
                weak,
                fail,
                overall,
                sample_measured: e.measured.clone(),
            });
        }
    }

    ReplicationReport {
        threads,
        window_days,
        runs,
        metrics,
        expectations,
    }
}

/// Scalar fleet metrics extracted from one run's output.
pub fn seed_metrics(sim: &SimOutput) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    m.insert("console_events".into(), sim.console.len() as f64);
    m.insert("jobs_completed".into(), sim.jobs.len() as f64);
    m.insert("dbe_count".into(), sim.truth.dbe.len() as f64);
    m.insert("otb_count".into(), sim.truth.otb.len() as f64);
    m.insert("retirements".into(), sim.truth.retirements.len() as f64);
    m.insert(
        "retirements_emitted".into(),
        sim.truth.retirements.iter().filter(|r| r.emitted).count() as f64,
    );
    m.insert("swaps".into(), sim.truth.swaps.len() as f64);
    m.insert(
        "sbe_total".into(),
        sim.truth.sbe_by_card.iter().sum::<u64>() as f64,
    );
    m
}

/// Streaming 64-bit FNV-1a: a [`fmt::Write`] sink, so documents and log
/// lines hash as they are written, with no intermediate string. Shared
/// by [`output_digest`] and [`checkpoint_digest`].
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        Ok(())
    }
}

/// FNV-1a digest of the full serialized output plus all rendered logs —
/// any byte of divergence between two runs changes it. The hashed bytes
/// are the compact JSON of `sim` followed by the console, job and aprun
/// logs exactly as `render_*_log` writes them; both stream straight into
/// the hasher.
pub fn output_digest(sim: &SimOutput) -> u64 {
    let mut h = Fnv1a::new();
    // `Fnv1a::write_str` never fails, so the stream always completes.
    let _ = stream_output(&mut h, sim);
    h.finish()
}

fn stream_output(h: &mut Fnv1a, sim: &SimOutput) -> fmt::Result {
    sim.write_json(h)?;
    for ev in &sim.console {
        writeln!(h, "{ev}")?;
    }
    for j in &sim.jobs {
        writeln!(h, "{j}")?;
    }
    for a in &sim.apruns {
        writeln!(h, "{a}")?;
    }
    Ok(())
}

/// The `--metrics FILE` artifact of a replicate run: every seed's full
/// metrics document plus the cross-seed bands of the flattened scalars.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsReplicateDoc {
    /// Schema identifier.
    pub schema: String,
    /// Study window in days.
    pub window_days: u64,
    /// Per-seed metrics documents, in seed order.
    pub per_seed: Vec<MetricsDoc>,
    /// Mean/CI bands of the flattened observability scalars, keyed by
    /// the un-prefixed metric name (`engine.events_dequeued`, ...).
    pub bands: BTreeMap<String, MetricBand>,
}

/// Builds the replicate metrics artifact; `None` when the report was
/// produced without `plan.metrics`.
pub fn obs_replicate_doc(report: &ReplicationReport) -> Option<ObsReplicateDoc> {
    let per_seed: Vec<MetricsDoc> =
        report.runs.iter().filter_map(|r| r.obs.clone()).collect();
    if per_seed.len() != report.runs.len() {
        return None;
    }
    let bands = report
        .metrics
        .iter()
        .filter_map(|(k, b)| {
            k.strip_prefix("obs.").map(|name| (name.to_string(), b.clone()))
        })
        .collect();
    Some(ObsReplicateDoc {
        schema: "titan-obs-replicate/1".to_string(),
        window_days: report.window_days,
        per_seed,
        bands,
    })
}

/// Renders the replicate metrics artifact as pretty JSON.
pub fn render_obs_metrics_json(doc: &ObsReplicateDoc) -> String {
    let mut s = serde_json::to_string_pretty(doc).unwrap_or_else(|_| "{}".to_string());
    s.push('\n');
    s
}

/// Human-readable report table for the CLI.
pub fn render_report(report: &ReplicationReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "replication: {} seeds x {} days, {} threads",
        report.runs.len(),
        report.window_days,
        report.threads
    );
    let _ = writeln!(s, "\nper-seed digests:");
    for r in &report.runs {
        let _ = writeln!(s, "  seed {:>6}  {:016x}", r.seed, r.output_digest);
    }
    let _ = writeln!(s, "\nmetric bands (mean [95% CI]):");
    let mut obs_bands = 0usize;
    for (name, b) in &report.metrics {
        // Observability scalars go to the --metrics artifact; the
        // human table stays the fleet summary.
        if name.starts_with("obs.") {
            obs_bands += 1;
            continue;
        }
        let _ = writeln!(
            s,
            "  {name:<22} {:>12.1}  [{:>12.1}, {:>12.1}]  sd {:.1}",
            b.mean,
            b.ci_lo,
            b.ci_hi,
            if b.std_dev.is_nan() { 0.0 } else { b.std_dev }
        );
    }
    if obs_bands > 0 {
        let _ = writeln!(
            s,
            "  (+ {obs_bands} observability metric bands; write them with --metrics FILE)"
        );
    }
    if !report.expectations.is_empty() {
        let _ = writeln!(s, "\nexpectation verdicts across seeds (pass/weak/fail):");
        for v in &report.expectations {
            let _ = writeln!(
                s,
                "  [{}] {:<6} {}/{}/{}  {}",
                v.overall, v.id, v.pass, v.weak, v.fail, v.paper
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(metrics: bool, trace: bool, health: bool) -> ObsPlan {
        ObsPlan {
            metrics,
            trace,
            health,
            ..ObsPlan::default()
        }
    }

    fn opts(days: u64, n: u64, threads: usize) -> ReplicateOptions {
        let mut o = ReplicateOptions::consecutive(StudyConfig::quick(days, 0), 100, n, threads)
            .expect("test seed range never overflows");
        // Figures are the dominant cost; the runner's own tests exercise
        // fan-out and merge, not the registry.
        o.skip_expectations = true;
        o
    }

    /// Regression: consecutive seed derivation used `wrapping_add`, so a
    /// base seed near u64::MAX silently wrapped to 0, 1, … and could
    /// duplicate seeds already in the list. Overflow is now rejected.
    #[test]
    fn consecutive_seed_overflow_is_rejected() {
        let base = StudyConfig::quick(10, 0);
        // Exactly fits: MAX-2, MAX-1, MAX.
        let ok = ReplicateOptions::consecutive(base.clone(), u64::MAX - 2, 3, 1)
            .expect("range that ends exactly at u64::MAX is fine");
        assert_eq!(ok.seeds, vec![u64::MAX - 2, u64::MAX - 1, u64::MAX]);
        // One more wraps — rejected, not silently duplicated.
        let err = ReplicateOptions::consecutive(base, u64::MAX - 2, 4, 1)
            .expect_err("wrapping range must be rejected");
        assert!(err.contains("overflows"), "unexpected error: {err}");
    }

    /// The tentpole determinism guarantee: a threaded replicate run is
    /// byte-identical to N sequential runs, per seed.
    #[test]
    fn threaded_replicate_matches_sequential_per_seed() {
        let threaded = replicate(&opts(10, 4, 3)).unwrap();
        let sequential = replicate(&opts(10, 4, 1)).unwrap();
        assert_eq!(threaded.runs, sequential.runs);
        assert_eq!(threaded.metrics, sequential.metrics);
        // And each per-seed digest equals a direct single-study run.
        let base = StudyConfig::quick(10, 0);
        for r in &threaded.runs {
            let solo = run_seed(&base, r.seed, true);
            assert_eq!(r, &solo, "seed {} diverged from sequential", r.seed);
        }
    }

    #[test]
    fn report_is_in_seed_order_and_seeds_differ() {
        let rep = replicate(&opts(10, 3, 2)).unwrap();
        let seeds: Vec<u64> = rep.runs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![100, 101, 102]);
        // Different seeds must not produce identical outputs.
        let digests: std::collections::BTreeSet<u64> =
            rep.runs.iter().map(|r| r.output_digest).collect();
        assert_eq!(digests.len(), 3);
    }

    #[test]
    fn bands_cover_their_samples() {
        let rep = replicate(&opts(10, 4, 2)).unwrap();
        let dbe = &rep.metrics["dbe_count"];
        assert_eq!(dbe.n, 4);
        assert_eq!(dbe.per_seed.len(), 4);
        let mn = dbe.per_seed.iter().cloned().fold(f64::INFINITY, f64::min);
        let mx = dbe
            .per_seed
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(dbe.mean >= mn && dbe.mean <= mx);
        assert!(dbe.ci_lo <= dbe.mean && dbe.mean <= dbe.ci_hi);
    }

    #[test]
    fn single_seed_band_degenerates_to_point() {
        let rep = replicate(&opts(10, 1, 1)).unwrap();
        let b = &rep.metrics["console_events"];
        assert_eq!(b.n, 1);
        assert_eq!(b.ci_lo, b.mean);
        assert_eq!(b.ci_hi, b.mean);
    }

    #[test]
    fn bad_options_are_rejected() {
        let mut o = opts(10, 2, 2);
        o.seeds = vec![];
        assert!(replicate(&o).is_err());
        let mut o = opts(10, 2, 0);
        o.threads = 0;
        assert!(replicate(&o).is_err());
        let mut o = opts(10, 2, 2);
        o.seeds = vec![5, 5];
        assert!(replicate(&o).is_err());
    }

    /// Telemetry must be a pure observer: a metrics-collecting run and
    /// a plain run of the same seed produce byte-identical sim output.
    #[test]
    fn metrics_collection_never_perturbs_the_run() {
        let base = StudyConfig::quick(10, 0);
        let plain = run_seed(&base, 100, true);
        let (observed, docs) = run_seed_with(&base, 100, true, &plan(true, false, false));
        assert_eq!(docs.metrics, observed.obs, "the doc rides in SeedRun and beside it");
        assert_eq!(plain.output_digest, observed.output_digest);
        assert!(plain.obs.is_none());
        let doc = observed.obs.expect("collected");
        // The engine counted real work.
        assert!(doc.engine["events_dequeued"] > 0);
        assert!(doc.engine["console_lines"] > 0);
        assert!(doc.faults["dbe_drafts"] > 0);
        assert!(doc.sec["events_ingested"] > 0);
        assert!(doc.nvsmi["final_snapshots"] > 0);
        assert!(doc.spans.recorded > 0);
        // Flattened scalars joined the band metrics.
        assert_eq!(
            observed.metrics["obs.engine.events_dequeued"],
            doc.engine["events_dequeued"] as f64
        );
        // Fleet metrics agree between the two paths.
        assert_eq!(plain.metrics["dbe_count"], observed.metrics["dbe_count"]);
    }

    /// Engine counters must agree with ground truth where both exist.
    #[test]
    fn engine_metrics_consistent_with_truth() {
        let mut config = StudyConfig::quick(30, 9);
        config.sim.seed = 9;
        let mut obs = Obs::enabled();
        let study = Study::new(config).run_with_obs(&mut obs);
        let doc = collect_metrics(&study.sim, 9, 30 * 86_400, &mut obs);
        assert_eq!(doc.engine["ev_dbe"], study.sim.truth.dbe.len() as u64);
        assert_eq!(doc.engine["sbe_thinned"], study.sim.truth.sbe_rejected);
        assert_eq!(
            doc.engine["sbe_accepted"],
            study.sim.truth.sbe_by_card.iter().sum::<u64>()
        );
        assert_eq!(
            doc.engine["console_lines"],
            study.sim.console.len() as u64
        );
        assert_eq!(
            doc.engine["swaps_fired"],
            study.sim.truth.swaps.len() as u64
        );
        // SEC replay saw every console line.
        assert_eq!(doc.sec["events_ingested"], study.sim.console.len() as u64);
        // nvsmi fleet rollup matches a direct summarize.
        let fleet = titan_nvsmi::summarize(&study.sim.final_snapshots);
        assert_eq!(doc.nvsmi["fleet_total_sbe"], fleet.total_sbe);
        // Accepted + thinned = drafts that reached an in-production card.
        assert!(doc.engine["sbe_accepted"] + doc.engine["sbe_thinned"] <= doc.faults["sbe_drafts"]);
    }

    /// Replicate with plan.metrics: per-seed documents are identical at
    /// any thread width, and the artifact carries the obs bands.
    #[test]
    fn replicate_obs_docs_are_thread_width_invariant() {
        let mut a = opts(10, 3, 1);
        a.plan.metrics = true;
        let mut b = opts(10, 3, 3);
        b.plan.metrics = true;
        let seq = replicate(&a).unwrap();
        let par = replicate(&b).unwrap();
        for (x, y) in seq.runs.iter().zip(&par.runs) {
            let dx = x.obs.as_ref().expect("seq doc");
            let dy = y.obs.as_ref().expect("par doc");
            assert_eq!(dx.to_json(), dy.to_json(), "seed {}", x.seed);
        }
        let doc = obs_replicate_doc(&seq).expect("all seeds collected");
        assert_eq!(doc.per_seed.len(), 3);
        assert!(doc.bands.contains_key("engine.events_dequeued"));
        let json = render_obs_metrics_json(&doc);
        assert!(json.contains("titan-obs-replicate/1"));
        // Without collection there is no artifact.
        assert!(obs_replicate_doc(&replicate(&opts(10, 2, 1)).unwrap()).is_none());
    }

    /// Acceptance pin: the fixed-bucket timeseries in the metrics doc
    /// sums exactly to the run-end counters it shadows.
    #[test]
    fn timeseries_buckets_sum_to_run_end_counters() {
        let base = StudyConfig::quick(30, 0);
        let (run, _) = run_seed_with(&base, 100, true, &plan(true, false, false));
        let doc = run.obs.expect("collected");
        assert_eq!(doc.schema, "titan-obs/2");
        for name in [
            "console_lines",
            "ev_dbe",
            "ev_otb",
            "ev_sbe",
            "sbe_accepted",
            "swaps_fired",
        ] {
            let series = &doc.timeseries.series[name];
            assert_eq!(series.len() as u64, doc.timeseries.buckets, "{name} length");
            assert_eq!(
                series.iter().sum::<u64>(),
                doc.engine[name],
                "{name} bucket sum != counter"
            );
        }
        // 30 days at the default weekly bucket = 5 buckets.
        assert_eq!(doc.timeseries.bucket_secs, 7 * 86_400);
        assert_eq!(doc.timeseries.buckets, 5);
        assert!(doc.engine["console_lines"] > 0);
    }

    /// Tracing must be a pure observer: the seed summary (digest
    /// included) and the metrics document are identical with the flight
    /// recorder on or off.
    #[test]
    fn trace_capture_never_perturbs_run_or_metrics() {
        let base = StudyConfig::quick(10, 0);
        let (plain, _) = run_seed_with(&base, 100, true, &plan(true, false, false));
        let (traced, docs) = run_seed_with(&base, 100, true, &plan(true, true, false));
        assert_eq!(plain, traced, "tracing changed the seed summary");
        let text = docs.trace.expect("trace requested");
        assert!(text.starts_with("{\"schema\":\"titan-trace/1\""));
        // Trace-only capture (no metrics) leaves the digest alone too.
        let (bare, docs) = run_seed_with(&base, 100, true, &plan(false, true, false));
        assert_eq!(plain.output_digest, bare.output_digest);
        assert!(bare.obs.is_none() && docs.metrics.is_none());
        // And so does health collection — the third pure observer.
        let (healthy, docs) = run_seed_with(&base, 100, true, &plan(false, false, true));
        assert_eq!(plain.output_digest, healthy.output_digest);
        let htext = docs.health.expect("health requested");
        assert!(htext.starts_with("{\"schema\":\"titan-health/1\""));
        // The ledger is the fourth; only a prof plan closes one.
        assert!(docs.ledger.is_none());
        let prof = ObsPlan {
            prof: true,
            ..ObsPlan::default()
        };
        let (profiled, docs) = run_seed_with(&base, 100, true, &prof);
        assert_eq!(plain.output_digest, profiled.output_digest);
        assert!(docs.ledger.expect("ledger requested")["ev:sbe"].dequeues > 0);
    }

    /// Full-pipeline provenance: a traced run's chains — SEC alerts and
    /// nvsmi rollups included — all walk back to injected fault drafts.
    #[test]
    fn traced_run_passes_provenance_verification() {
        let base = StudyConfig::quick(30, 0);
        let (_, docs) = run_seed_with(&base, 7, true, &plan(false, true, false));
        let text = docs.trace.expect("trace requested");
        let (header, records) = titan_obs::parse_trace(&text).expect("parse");
        let report = titan_obs::verify_trace(&header, &records);
        assert!(report.ok(), "{:?}", report.errors);
        assert!(report.chains_walked > 0, "no SEC alerts in 30 days");
        // draft -> engine event -> console line -> SEC alert.
        assert!(report.max_depth >= 4, "max depth {}", report.max_depth);
        assert!(records
            .iter()
            .any(|r| r.kind == TraceKind::SecAlert.name()));
    }

    /// Replicate traces are byte-identical at any thread width.
    #[test]
    fn replicate_traces_are_thread_width_invariant() {
        let mut a = opts(10, 2, 1);
        a.plan.trace = true;
        let mut b = opts(10, 2, 2);
        b.plan.trace = true;
        let (_, seq) = replicate_full(&a).unwrap();
        let (_, par) = replicate_full(&b).unwrap();
        assert_eq!(seq, par);
        let texts: std::collections::BTreeSet<&String> =
            seq.iter().map(|d| d.trace.as_ref().expect("trace")).collect();
        assert_eq!(texts.len(), 2, "different seeds must trace differently");
    }

    /// Replicate health docs are byte-identical at any thread width.
    #[test]
    fn replicate_health_docs_are_thread_width_invariant() {
        let mut a = opts(10, 2, 1);
        a.plan.health = true;
        let mut b = opts(10, 2, 2);
        b.plan.health = true;
        let (_, seq) = replicate_full(&a).unwrap();
        let (_, par) = replicate_full(&b).unwrap();
        assert_eq!(seq, par);
        let texts: std::collections::BTreeSet<&String> =
            seq.iter().map(|d| d.health.as_ref().expect("health")).collect();
        assert_eq!(texts.len(), 2, "different seeds must differ in health");
    }

    #[test]
    fn expectation_bands_aggregate_verdicts() {
        let mut o = opts(12, 2, 2);
        o.skip_expectations = false;
        let rep = replicate(&o).unwrap();
        assert!(!rep.expectations.is_empty());
        for v in &rep.expectations {
            assert_eq!(v.pass + v.weak + v.fail, 2, "{} counts", v.id);
            if v.fail > 0 {
                assert_eq!(v.overall, Verdict::Fail);
            }
        }
        let rendered = render_report(&rep);
        assert!(rendered.contains("expectation verdicts"));
        assert!(rendered.contains("metric bands"));
    }
}
