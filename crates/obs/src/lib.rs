//! # titan-obs
//!
//! The fleet simulator's own observability layer — the paper's whole
//! methodology is telemetry (SEC-filtered console logs plus nvidia-smi
//! snapshots), and this crate gives the *simulator* the same courtesy:
//! counters, gauges, histograms, and structured spans describing what
//! the engine did, exported as one stable JSON document.
//!
//! ## Time-domain rule (the determinism contract)
//!
//! Everything recorded here lives in the **simulation time domain**
//! ([`titan_conlog::time::SimTime`]) or is a pure count of simulation
//! work. No wall-clock value may ever enter the registry or the trace
//! ring: recorded telemetry must be byte-identical for a fixed seed
//! across thread widths, hosts, and reruns. Wall-clock profiling lives
//! strictly in `titan-runner`, `titan-bench`, and the CLI — titan-lint
//! rule D5 enforces this mechanically for every engine crate, this one
//! included. The only wall-clock bridge is the
//! [`Obs::set_prof_wall_hook`] callback: the cost ledger reports scope
//! edges (pure `&'static str` markers) and a non-engine caller may
//! timestamp them on its side.
//!
//! ## Cost model
//!
//! Handles ([`Counter`], [`Gauge`], [`HistId`]) are `Copy` indices;
//! recording through a disabled registry is a single branch on a bool,
//! so the instrumented engine with metrics off stays within noise of
//! the uninstrumented one (the CI overhead gate in `bench_pr2` holds
//! even the *enabled* path to < 5% on the quick window).
//!
//! See `OBSERVABILITY.md` at the workspace root for the metric catalog,
//! the span taxonomy, and how to add a metric without breaking
//! determinism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod health;
pub mod metrics;
pub mod prof;
pub mod series;
pub mod snapshot;
pub mod trace;

pub use export::{HistogramSnapshot, MetricsDoc, SpanRecord, TimeSeriesDoc, TraceSummary, SCHEMA};
pub use flight::{
    chrome_trace, parse_trace, summarize_trace, verify_trace, TraceFilter, TraceHeader,
    TraceKind, TraceRecord, TraceStream, VerifyReport, TRACE_SCHEMA,
};
pub use health::{
    olcf_default_rules, parse_health, rules_from_json, rules_to_json, summarize_health,
    verify_health_alerts, watch_health, HealthAlert, HealthDoc, HealthEvent, HealthHeader,
    HealthInterval, HealthRec, HealthRule, HealthSink, HealthSnap, HealthSummary,
    DEFAULT_HEALTH_INTERVAL_SECS, HEALTH_SCHEMA,
};
pub use metrics::{metric_key, Counter, Gauge, HistId, Registry};
pub use prof::{
    AllocStats, CostKind, KindCost, ProfDoc, ProfLedger, ProfSnap, WallDoc, WallScope,
    PROF_SCHEMA,
};
pub use series::{TimeBuckets, TsSeries, DEFAULT_BUCKET_SECS};
pub use snapshot::ObsSnapshot;
pub use trace::{Span, SpanKind, TraceRing};

/// Default span-ring capacity: enough to hold every interesting span of
/// a quick window and the tail of a full one.
pub const DEFAULT_SPAN_CAPACITY: usize = 256;

/// Pre-registered handles for the engine hot loop ("engine" section).
#[derive(Debug, Clone, Copy)]
pub struct EngineCat {
    /// Every event dequeued from the heap (includes past-horizon drops).
    pub events_dequeued: Counter,
    /// Events dropped at the study horizon.
    pub events_past_horizon: Counter,
    /// Job-start events executed.
    pub ev_job_start: Counter,
    /// Job-end events executed.
    pub ev_job_end: Counter,
    /// DBE events executed.
    pub ev_dbe: Counter,
    /// Off-the-bus events executed.
    pub ev_otb: Counter,
    /// SBE draft events executed (before activity thinning).
    pub ev_sbe: Counter,
    /// Software XID events executed.
    pub ev_soft: Counter,
    /// Cascade-child events executed.
    pub ev_child: Counter,
    /// Deferred retirement-record events executed.
    pub ev_retire_record: Counter,
    /// Hot-spare swap events executed.
    pub ev_swap: Counter,
    /// Console lines emitted.
    pub console_lines: Counter,
    /// SBE drafts accepted after activity thinning.
    pub sbe_accepted: Counter,
    /// SBE drafts rejected by activity thinning.
    pub sbe_thinned: Counter,
    /// Software incidents that found no running job to strike.
    pub soft_no_target: Counter,
    /// Swaps that fired (card actually pulled).
    pub swaps_fired: Counter,
    /// Swap schedules rejected at fire time (stale / pool drained).
    pub swaps_stale: Counter,
    /// Jobs still running at the horizon, closed after the loop.
    pub jobs_closed_at_horizon: Counter,
    /// Pre-SBE snapshot buffers recycled from the spare pool.
    pub pre_sbe_reuse_hits: Counter,
    /// Pre-SBE snapshot buffers freshly allocated.
    pub pre_sbe_allocs: Counter,
    /// Event-heap depth high-water mark.
    pub heap_high_water: Gauge,
    /// Concurrent running-job high-water mark.
    pub active_jobs_high_water: Gauge,
    /// Final payload-arena length (total events ever scheduled).
    pub payload_slots: Gauge,
    /// Nodes-per-started-job distribution.
    pub job_nodes: HistId,
}

/// Pre-registered handles for fault-process consumption ("faults").
#[derive(Debug, Clone, Copy)]
pub struct FaultsCat {
    /// DBE drafts sampled inside the window.
    pub dbe_drafts: Counter,
    /// DBE drafts striking device memory.
    pub dbe_device_memory: Counter,
    /// DBE drafts striking the register file.
    pub dbe_register_file: Counter,
    /// DBE drafts whose InfoROM write is lost (Observation 2 path).
    pub dbe_inforom_lost: Counter,
    /// Off-the-bus drafts sampled inside the window.
    pub otb_drafts: Counter,
    /// OTB drafts that seeded a cluster.
    pub otb_cluster_roots: Counter,
    /// OTB drafts that are cluster children.
    pub otb_cluster_children: Counter,
    /// SBE drafts sampled inside the window (per-structure counters are
    /// registered dynamically from the draft mix).
    pub sbe_drafts: Counter,
    /// Software XID incidents sampled inside the window.
    pub soft_incidents: Counter,
    /// Job-wide software incidents.
    pub soft_job_wide: Counter,
    /// Parent events offered to the cascade model.
    pub cascade_parents: Counter,
    /// Cascade children scheduled.
    pub cascade_children: Counter,
    /// Children-per-parent fan-out distribution.
    pub cascade_fanout: HistId,
}

/// Pre-registered handles for the nvidia-smi pipeline ("nvsmi").
#[derive(Debug, Clone, Copy)]
pub struct NvsmiCat {
    /// Per-node counter reads at job start (the prologue).
    pub prologue_reads: Counter,
    /// Per-node counter reads at job end (the epilogue).
    pub epilogue_reads: Counter,
    /// End-of-study fleet snapshots taken.
    pub final_snapshots: Counter,
}

/// The full pre-registered handle catalog. `Copy`, so call sites can
/// lift it out of [`Obs`] before mutably borrowing the registry.
#[derive(Debug, Clone, Copy)]
pub struct Catalog {
    /// Engine hot-loop handles.
    pub engine: EngineCat,
    /// Fault-process handles.
    pub faults: FaultsCat,
    /// nvidia-smi pipeline handles.
    pub nvsmi: NvsmiCat,
}

/// Bucket bounds for the nodes-per-job histogram.
const JOB_NODES_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 64, 256, 1024, 4096];

/// Bucket bounds for the cascade fan-out histogram.
const CASCADE_FANOUT_BOUNDS: &[u64] = &[0, 1, 2, 3, 5, 8];

/// Which observers a run arms: the one plain value that travels from
/// CLI flags through [`Obs::from_plan`] to the documents a run writes.
/// The default arms nothing, with the default span-ring capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsPlan {
    /// Metrics registry, span ring and time series (`--metrics`).
    pub metrics: bool,
    /// Causal flight recorder (`--trace`).
    pub trace: bool,
    /// Online health analytics (`--health`).
    pub health: bool,
    /// Deterministic cost ledger (`--prof`).
    pub prof: bool,
    /// Span-ring capacity (`--span-capacity`).
    pub span_capacity: usize,
}

impl Default for ObsPlan {
    fn default() -> Self {
        ObsPlan {
            metrics: false,
            trace: false,
            health: false,
            prof: false,
            span_capacity: DEFAULT_SPAN_CAPACITY,
        }
    }
}

/// The observability sink threaded through a simulation run: metrics
/// registry, span ring, and the optional flight recorder, health sink
/// and cost ledger.
pub struct Obs {
    /// The metrics registry (standard catalog pre-registered).
    pub reg: Registry,
    /// The bounded span ring.
    pub trace: TraceRing,
    /// The causal flight recorder (off by default; see
    /// [`Obs::enable_trace`]).
    pub stream: TraceStream,
    /// Fixed sim-time bucket counters for the `timeseries` document
    /// section (enabled together with the registry).
    pub ts: TimeBuckets,
    /// The online reliability-analytics sink (off by default; see
    /// [`Obs::enable_health`]).
    pub health: HealthSink,
    /// Pre-registered handles for the standard catalog.
    pub cat: Catalog,
    /// The deterministic cost ledger (off by default; see
    /// [`Obs::enable_prof`]). Private: the engine records through the
    /// `prof_*` methods so watermark reads stay in one place.
    prof: prof::ProfLedger,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.reg.enabled())
            .field("trace", &self.trace)
            .field("stream_enabled", &self.stream.is_enabled())
            .finish()
    }
}

impl Obs {
    /// A sink with collection on (`enabled = true`) or off. Disabled
    /// sinks still carry the catalog so the engine code is identical on
    /// both paths; every record call is a cheap no-op.
    pub fn new(enabled: bool) -> Self {
        Obs::with_span_capacity(enabled, DEFAULT_SPAN_CAPACITY)
    }

    /// [`Obs::new`] with an explicit span-ring capacity (the
    /// `--span-capacity` CLI flag). The exported `spans.capacity` field
    /// reflects this value.
    pub fn with_span_capacity(enabled: bool, span_capacity: usize) -> Self {
        let mut reg = Registry::new(enabled);
        let cat = Catalog {
            engine: EngineCat {
                events_dequeued: reg.counter("engine", "events_dequeued"),
                events_past_horizon: reg.counter("engine", "events_past_horizon"),
                ev_job_start: reg.counter("engine", "ev_job_start"),
                ev_job_end: reg.counter("engine", "ev_job_end"),
                ev_dbe: reg.counter("engine", "ev_dbe"),
                ev_otb: reg.counter("engine", "ev_otb"),
                ev_sbe: reg.counter("engine", "ev_sbe"),
                ev_soft: reg.counter("engine", "ev_soft"),
                ev_child: reg.counter("engine", "ev_child"),
                ev_retire_record: reg.counter("engine", "ev_retire_record"),
                ev_swap: reg.counter("engine", "ev_swap"),
                console_lines: reg.counter("engine", "console_lines"),
                sbe_accepted: reg.counter("engine", "sbe_accepted"),
                sbe_thinned: reg.counter("engine", "sbe_thinned"),
                soft_no_target: reg.counter("engine", "soft_no_target"),
                swaps_fired: reg.counter("engine", "swaps_fired"),
                swaps_stale: reg.counter("engine", "swaps_stale"),
                jobs_closed_at_horizon: reg.counter("engine", "jobs_closed_at_horizon"),
                pre_sbe_reuse_hits: reg.counter("engine", "pre_sbe_reuse_hits"),
                pre_sbe_allocs: reg.counter("engine", "pre_sbe_allocs"),
                heap_high_water: reg.gauge("engine", "heap_high_water"),
                active_jobs_high_water: reg.gauge("engine", "active_jobs_high_water"),
                payload_slots: reg.gauge("engine", "payload_slots"),
                job_nodes: reg.histogram("job_nodes", JOB_NODES_BOUNDS),
            },
            faults: FaultsCat {
                dbe_drafts: reg.counter("faults", "dbe_drafts"),
                dbe_device_memory: reg.counter("faults", "dbe_device_memory"),
                dbe_register_file: reg.counter("faults", "dbe_register_file"),
                dbe_inforom_lost: reg.counter("faults", "dbe_inforom_lost"),
                otb_drafts: reg.counter("faults", "otb_drafts"),
                otb_cluster_roots: reg.counter("faults", "otb_cluster_roots"),
                otb_cluster_children: reg.counter("faults", "otb_cluster_children"),
                sbe_drafts: reg.counter("faults", "sbe_drafts"),
                soft_incidents: reg.counter("faults", "soft_incidents"),
                soft_job_wide: reg.counter("faults", "soft_job_wide"),
                cascade_parents: reg.counter("faults", "cascade_parents"),
                cascade_children: reg.counter("faults", "cascade_children"),
                cascade_fanout: reg.histogram("cascade_fanout", CASCADE_FANOUT_BOUNDS),
            },
            nvsmi: NvsmiCat {
                prologue_reads: reg.counter("nvsmi", "prologue_reads"),
                epilogue_reads: reg.counter("nvsmi", "epilogue_reads"),
                final_snapshots: reg.counter("nvsmi", "final_snapshots"),
            },
        };
        Obs {
            reg,
            trace: TraceRing::new(enabled, span_capacity),
            stream: TraceStream::new(false),
            ts: TimeBuckets::new(enabled, series::DEFAULT_BUCKET_SECS),
            health: HealthSink::new(false),
            cat,
            prof: prof::ProfLedger::new(false),
        }
    }

    /// A sink with every observer `plan` asks for armed.
    pub fn from_plan(plan: &ObsPlan) -> Self {
        let mut obs = Obs::with_span_capacity(plan.metrics, plan.span_capacity);
        if plan.trace {
            obs.enable_trace();
        }
        if plan.health {
            obs.enable_health();
        }
        if plan.prof {
            obs.enable_prof();
        }
        obs
    }

    /// A no-op sink: the default for plain `Simulator::run()`.
    pub fn disabled() -> Self {
        Obs::new(false)
    }

    /// An enabled sink with default settings.
    pub fn enabled() -> Self {
        Obs::new(true)
    }

    /// Whether metric collection is on.
    pub fn is_enabled(&self) -> bool {
        self.reg.enabled()
    }

    /// Turns the causal flight recorder on (`--trace FILE`). Tracing is
    /// independent of metric collection and is a pure observer either
    /// way: the per-seed digests are identical with it on or off.
    pub fn enable_trace(&mut self) {
        self.stream = TraceStream::new(true);
    }

    /// Whether the flight recorder is on.
    pub fn trace_enabled(&self) -> bool {
        self.stream.is_enabled()
    }

    /// Turns the online health-analytics sink on (`--health FILE`).
    /// Like tracing, independent of metric collection and a pure
    /// observer: per-seed digests are identical with it on or off.
    pub fn enable_health(&mut self) {
        self.health = HealthSink::new(true);
    }

    /// Whether the health sink is on.
    pub fn health_enabled(&self) -> bool {
        self.health.is_enabled()
    }

    /// Marks a phase boundary: `name` starts now, the previous phase
    /// (if any) ends now. With the cost ledger on this opens a ledger
    /// phase scope, so every phase marker doubles as a prof attribution
    /// boundary (and a wall-hook edge).
    pub fn phase(&mut self, name: &'static str) {
        if self.prof.enabled() {
            // Phase boundaries sit outside the event loop: no engine RNG
            // is in scope, so the carried watermark is exact (the loop
            // flushes its true totals before returning).
            let rng = self.prof.last_rng();
            let trace = self.stream.next_id();
            self.prof.switch_phase(name, rng, trace);
        }
    }

    /// Turns the deterministic cost ledger on (`--prof FILE` /
    /// `profile`). Like tracing and health, a pure observer: per-seed
    /// output digests are identical with it on or off.
    pub fn enable_prof(&mut self) {
        self.prof = prof::ProfLedger::new(true);
    }

    /// Whether the cost ledger is on — the engine's one-branch gate
    /// around every prof call site.
    #[inline]
    pub fn prof_enabled(&self) -> bool {
        self.prof.enabled()
    }

    /// Installs the counting-allocator probe (see
    /// [`prof::ProfLedger::set_alloc_probe`]).
    pub fn set_prof_alloc_probe(&mut self, probe: fn() -> prof::AllocStats) {
        self.prof.set_alloc_probe(probe);
    }

    /// Installs the wall-clock edge hook (see
    /// [`prof::ProfLedger::set_wall_hook`]); CLI-side only — the engine
    /// itself never sees a clock (lint D5).
    pub fn set_prof_wall_hook(&mut self, hook: Box<dyn FnMut(&'static str)>) {
        self.prof.set_wall_hook(hook);
    }

    /// Switches the ledger to the event kind dispatched at a heap pop.
    /// `rng_total` is the summed draw count of every loop RNG; the
    /// trace watermark is read from the sibling stream here.
    #[inline]
    pub fn prof_event(&mut self, kind: prof::CostKind, rng_total: u64) {
        let trace = self.stream.next_id();
        self.prof.switch_kind(kind, rng_total, trace);
    }

    /// Closes the open ledger span with the true loop-RNG totals — the
    /// engine calls this when a `run_until` slice returns, so captures
    /// at checkpoint boundaries see a fully attributed table.
    pub fn prof_flush(&mut self, rng_total: u64) {
        let trace = self.stream.next_id();
        self.prof.flush(rng_total, trace);
    }

    /// Closes the open ledger span with carried watermarks — for the
    /// CLI after the last post-engine phase, where no engine RNG
    /// exists to total.
    pub fn prof_finish(&mut self) {
        let rng = self.prof.last_rng();
        let trace = self.stream.next_id();
        self.prof.flush(rng, trace);
    }

    /// Marks a ledger rebaseline after checkpoint capture (see
    /// [`prof::ProfLedger::mark_rebaseline`]).
    pub fn prof_rebaseline(&mut self) {
        self.prof.mark_rebaseline();
    }

    /// Charges `n` heap pushes to the open ledger scope.
    #[inline]
    pub fn prof_heap_push(&mut self, n: u64) {
        self.prof.heap_push(n);
    }

    /// Charges one console line of `bytes` rendered bytes.
    #[inline]
    pub fn prof_console(&mut self, bytes: u64) {
        self.prof.console(bytes);
    }

    /// Charges setup-stream RNG draws directly to the open scope.
    #[inline]
    pub fn prof_rng_direct(&mut self, draws: u64) {
        self.prof.rng_direct(draws);
    }

    /// Read access to the ledger (document building).
    pub fn prof_ledger(&self) -> &prof::ProfLedger {
        &self.prof
    }

    /// Plain-data ledger copy for the checkpoint ride-along.
    pub fn prof_snap(&self) -> prof::ProfSnap {
        self.prof.snap()
    }

    /// Restores the ledger from a checkpoint (inert when off on either
    /// side, like every other sub-sink).
    pub fn prof_restore(&mut self, snap: &prof::ProfSnap) {
        self.prof.restore(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut obs = Obs::disabled();
        let c = obs.cat.engine.ev_dbe;
        obs.reg.inc(c);
        obs.reg.set_max(obs.cat.engine.heap_high_water, 999);
        obs.trace.record(Span {
            kind: SpanKind::JobLifecycle,
            start: 0,
            end: 1,
            key: 1,
            extra: 1,
        });
        assert_eq!(obs.reg.counter_value(c), 0);
        assert_eq!(obs.reg.gauge_value(obs.cat.engine.heap_high_water), 0);
        assert_eq!(obs.trace.recorded(), 0);
    }

    #[test]
    fn enabled_sink_counts() {
        let mut obs = Obs::enabled();
        let c = obs.cat.faults.dbe_drafts;
        obs.reg.inc(c);
        obs.reg.add(c, 4);
        assert_eq!(obs.reg.counter_value(c), 5);
        obs.reg.set_max(obs.cat.engine.heap_high_water, 10);
        obs.reg.set_max(obs.cat.engine.heap_high_water, 7);
        assert_eq!(obs.reg.gauge_value(obs.cat.engine.heap_high_water), 10);
    }

    #[test]
    fn from_plan_arms_exactly_the_planned_sinks() {
        let off = Obs::from_plan(&ObsPlan::default());
        assert!(!off.is_enabled() && !off.trace_enabled() && !off.health_enabled());
        assert!(!off.prof_enabled());
        assert_eq!(off.trace.capacity(), DEFAULT_SPAN_CAPACITY);
        let all = Obs::from_plan(&ObsPlan {
            metrics: true,
            trace: true,
            health: true,
            prof: true,
            span_capacity: 3,
        });
        assert!(all.is_enabled() && all.trace_enabled() && all.health_enabled());
        assert!(all.prof_enabled());
        assert_eq!(all.trace.capacity(), 3);
    }

    #[test]
    fn span_capacity_is_configurable() {
        let mut obs = Obs::with_span_capacity(true, 2);
        for t in 0..5 {
            obs.trace.record(Span {
                kind: SpanKind::JobLifecycle,
                start: t,
                end: t,
                key: t,
                extra: 0,
            });
        }
        assert_eq!(obs.trace.capacity(), 2);
        assert_eq!(obs.trace.recorded(), 5);
        assert_eq!(obs.trace.spans().len(), 2);
        // The default constructor keeps the documented default.
        assert_eq!(Obs::enabled().trace.capacity(), DEFAULT_SPAN_CAPACITY);
    }

    #[test]
    fn trace_stream_is_off_by_default_and_opt_in() {
        let mut obs = Obs::enabled();
        assert!(!obs.trace_enabled());
        assert_eq!(
            obs.stream
                .mint(TraceKind::FaultDraft, 0, 1, None, None, None, String::new),
            0
        );
        obs.enable_trace();
        assert!(obs.trace_enabled());
        assert_eq!(
            obs.stream
                .mint(TraceKind::FaultDraft, 0, 1, None, None, None, String::new),
            1
        );
    }

    #[test]
    fn health_sink_is_off_by_default_and_opt_in() {
        let mut obs = Obs::enabled();
        assert!(!obs.health_enabled());
        obs.health.on_sbe(1, 5, 0);
        obs.health.finish(100);
        assert_eq!(
            parse_health(&obs.health.render_jsonl(1, 1))
                .expect("parse")
                .header
                .intervals,
            0
        );
        obs.enable_health();
        assert!(obs.health_enabled());
        obs.health.on_sbe(1, 5, 0);
        obs.health.finish(100);
        let doc = parse_health(&obs.health.render_jsonl(1, 1)).expect("parse");
        assert_eq!(doc.header.intervals, 1);
    }
}
