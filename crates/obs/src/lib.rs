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
//! The engine reports each action once, as an [`ObsEvent`] handed to
//! [`Obs::emit`]; every armed sink folds it. With no sink armed `emit`
//! is a single branch on a bool, so the instrumented engine with
//! observers off stays within noise of the uninstrumented one. The
//! *enabled* sinks are not free: `bench_pr` gates the metrics path at
//! 5% and the health and prof paths at 1% on the quick window, judged
//! on the median of three attempts, and on a 2-vCPU shared host the
//! metrics median has exceeded 5% in every measured run.
//!
//! See `OBSERVABILITY.md` at the workspace root for the metric catalog,
//! the span taxonomy, and how to add a metric without breaking
//! determinism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod flight;
pub mod health;
pub mod metrics;
pub mod prof;
pub mod series;
pub mod snapshot;
pub mod trace;

pub use event::ObsEvent;
pub use export::{HistogramSnapshot, MetricsDoc, SpanRecord, TimeSeriesDoc, TraceSummary, SCHEMA};
pub use flight::{
    chrome_trace, parse_trace, summarize_trace, verify_trace, TraceFilter, TraceHeader,
    TraceKind, TraceRecord, TraceStream, VerifyReport, TRACE_SCHEMA,
};
pub use health::{
    olcf_default_rules, parse_health, rules_to_json, summarize_health,
    verify_health_alerts, watch_health, HealthAlert, HealthDoc, HealthEvent, HealthHeader,
    HealthInterval, HealthRec, HealthRule, HealthSink, HealthSnap, HealthSummary,
    DEFAULT_HEALTH_INTERVAL_SECS, HEALTH_SCHEMA,
};
pub use metrics::{Counter, Gauge, HistId, Registry};
pub use prof::{
    AllocStats, CostKind, KindCost, ProfDoc, ProfLedger, ProfSnap, WallDoc, WallScope,
    PROF_SCHEMA,
};
pub use series::{TimeBuckets, TsSeries, DEFAULT_BUCKET_SECS};
pub use snapshot::ObsSnapshot;
pub use trace::{Span, SpanKind, TraceRing};

use event::count;

/// Default span-ring capacity: enough to hold every interesting span of
/// a quick window and the tail of a full one.
pub const DEFAULT_SPAN_CAPACITY: usize = 256;

/// Registry handles the metrics fold writes through. Private fold
/// state: the engine reports [`ObsEvent`]s and never touches a handle.
/// Registration order is frozen — checkpoints list counters in it.
#[derive(Debug, Clone, Copy)]
struct Catalog {
    dequeued: Counter,
    /// `ev_<kind>` per dispatch kind; a horizon drop counts as
    /// `events_past_horizon`. Indexed like [`CostKind::ALL`].
    by_kind: [Counter; CostKind::ALL.len()],
    console_lines: Counter,
    sbe_accepted: Counter,
    sbe_thinned: Counter,
    soft_no_target: Counter,
    swaps_fired: Counter,
    swaps_stale: Counter,
    closed_at_horizon: Counter,
    pre_sbe_reuse_hits: Counter,
    pre_sbe_allocs: Counter,
    heap_high_water: Gauge,
    active_jobs_high_water: Gauge,
    payload_slots: Gauge,
    job_nodes: HistId,
    cascade_parents: Counter,
    cascade_children: Counter,
    cascade_fanout: HistId,
    prologue_reads: Counter,
    epilogue_reads: Counter,
    final_snapshots: Counter,
}

/// Bucket bounds for the nodes-per-job histogram.
const JOB_NODES_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 64, 256, 1024, 4096];

/// Bucket bounds for the cascade fan-out histogram.
const CASCADE_FANOUT_BOUNDS: &[u64] = &[0, 1, 2, 3, 5, 8];

/// The drafted-stream counters, registered up front so their order
/// never depends on which fault processes a run enables; the values
/// arrive by name with [`ObsEvent::DraftStream`].
const DRAFT_COUNTERS: [&str; 10] = [
    "dbe_drafts",
    "dbe_device_memory",
    "dbe_register_file",
    "dbe_inforom_lost",
    "otb_drafts",
    "otb_cluster_roots",
    "otb_cluster_children",
    "sbe_drafts",
    "soft_incidents",
    "soft_job_wide",
];

impl Catalog {
    fn register(reg: &mut Registry) -> Catalog {
        let dequeued = reg.counter("engine", "events_dequeued");
        let past_horizon = reg.counter("engine", "events_past_horizon");
        let by_kind = CostKind::ALL.map(|k| match k {
            CostKind::Horizon => past_horizon,
            k => reg.counter("engine", &k.name().replace(':', "_")),
        });
        // Counters register in field order here, so this literal is the
        // frozen counter order; gauges and histograms are separate lists.
        Catalog {
            dequeued,
            by_kind,
            console_lines: reg.counter("engine", "console_lines"),
            sbe_accepted: reg.counter("engine", "sbe_accepted"),
            sbe_thinned: reg.counter("engine", "sbe_thinned"),
            soft_no_target: reg.counter("engine", "soft_no_target"),
            swaps_fired: reg.counter("engine", "swaps_fired"),
            swaps_stale: reg.counter("engine", "swaps_stale"),
            closed_at_horizon: reg.counter("engine", "jobs_closed_at_horizon"),
            pre_sbe_reuse_hits: reg.counter("engine", "pre_sbe_reuse_hits"),
            pre_sbe_allocs: reg.counter("engine", "pre_sbe_allocs"),
            cascade_parents: {
                for name in DRAFT_COUNTERS {
                    reg.counter("faults", name);
                }
                reg.counter("faults", "cascade_parents")
            },
            cascade_children: reg.counter("faults", "cascade_children"),
            prologue_reads: reg.counter("nvsmi", "prologue_reads"),
            epilogue_reads: reg.counter("nvsmi", "epilogue_reads"),
            final_snapshots: reg.counter("nvsmi", "final_snapshots"),
            heap_high_water: reg.gauge("engine", "heap_high_water"),
            active_jobs_high_water: reg.gauge("engine", "active_jobs_high_water"),
            payload_slots: reg.gauge("engine", "payload_slots"),
            job_nodes: reg.histogram("job_nodes", JOB_NODES_BOUNDS),
            cascade_fanout: reg.histogram("cascade_fanout", CASCADE_FANOUT_BOUNDS),
        }
    }

    /// The metrics fold: registry counters, gauges and histograms, the
    /// time series and the span ring.
    fn fold(&self, reg: &mut Registry, ts: &mut TimeBuckets, spans: &mut TraceRing, ev: &ObsEvent<'_>) {
        match *ev {
            ObsEvent::DraftStream { counts, .. } => {
                for (name, value) in counts() {
                    let c = reg.counter("faults", &name);
                    reg.add(c, value);
                }
            }
            ObsEvent::Dequeue { t, kind, depth, .. } => {
                reg.inc(self.dequeued);
                reg.set_max(self.heap_high_water, count(depth));
                if let Some(&c) = self.by_kind.get(kind.index()) {
                    reg.inc(c);
                }
                match kind {
                    CostKind::Dbe => ts.inc(TsSeries::EvDbe, t),
                    CostKind::Otb => ts.inc(TsSeries::EvOtb, t),
                    CostKind::Sbe => ts.inc(TsSeries::EvSbe, t),
                    _ => {}
                }
            }
            ObsEvent::JobStart { nodes, reused, active } => {
                reg.inc(if reused { self.pre_sbe_reuse_hits } else { self.pre_sbe_allocs });
                reg.add(self.prologue_reads, count(nodes));
                reg.set_max(self.active_jobs_high_water, count(active));
                reg.observe(self.job_nodes, count(nodes));
            }
            ObsEvent::JobEnd { start, end, apid, nodes } => {
                reg.add(self.epilogue_reads, count(nodes));
                spans.record(Span {
                    kind: SpanKind::JobLifecycle,
                    start,
                    end,
                    key: apid,
                    extra: count(nodes),
                });
            }
            ObsEvent::Fault { lines, .. } => {
                for line in lines {
                    ts.inc(TsSeries::ConsoleLines, line.time);
                }
            }
            ObsEvent::Sbe { accepted: true, t, .. } => {
                reg.inc(self.sbe_accepted);
                ts.inc(TsSeries::SbeAccepted, t);
            }
            ObsEvent::Sbe { accepted: false, .. } => reg.inc(self.sbe_thinned),
            ObsEvent::SoftNoTarget => reg.inc(self.soft_no_target),
            ObsEvent::Reboot { t, node, xid } => spans.record(Span {
                kind: SpanKind::RepairReboot,
                start: t,
                end: t,
                key: node,
                extra: xid,
            }),
            ObsEvent::Cascade { children } => {
                reg.inc(self.cascade_parents);
                reg.add(self.cascade_children, count(children));
                reg.observe(self.cascade_fanout, count(children));
            }
            // Fault → SEC-visible record causal chain: the XID 63 line
            // lands when the record fires.
            ObsEvent::Retirement { t, card, record_at: Some(at), by_sbe, .. } => {
                spans.record(Span {
                    kind: SpanKind::FaultChain,
                    start: t,
                    end: at,
                    key: card,
                    extra: u64::from(by_sbe),
                });
            }
            ObsEvent::Swap { t, slot, card, fired: true, .. } => {
                reg.inc(self.swaps_fired);
                ts.inc(TsSeries::SwapsFired, t);
                // The span covers schedule (one maintenance window,
                // 24 h, earlier) to fire.
                spans.record(Span {
                    kind: SpanKind::HotSpareSwap,
                    start: t.saturating_sub(24 * 3600),
                    end: t,
                    key: u64::from(slot),
                    extra: u64::from(card),
                });
            }
            ObsEvent::Swap { fired: false, .. } => reg.inc(self.swaps_stale),
            ObsEvent::Finalize {
                jobs_closed,
                final_snapshots,
                console_lines,
                payload_slots,
                ..
            } => {
                reg.add(self.closed_at_horizon, count(jobs_closed));
                reg.add(self.final_snapshots, count(final_snapshots));
                reg.add(self.console_lines, count(console_lines));
                reg.set_max(self.payload_slots, count(payload_slots));
            }
            _ => {}
        }
    }
}

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
/// registry, span ring and time series, and the optional flight
/// recorder, health sink and cost ledger. The engine feeds it through
/// [`Obs::emit`] only; every sink folds the same event stream.
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
    /// The online health-analytics sink (off by default; see
    /// [`Obs::enable_health`]).
    pub health: HealthSink,
    /// Registry handles of the metrics fold.
    cat: Catalog,
    /// The deterministic cost ledger (off by default; see
    /// [`Obs::enable_prof`]).
    pub(crate) prof: prof::ProfLedger,
    /// Whether any sink is on: with none, [`Obs::emit`] is one branch.
    armed: bool,
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
    /// A sink with metric collection on (`enabled = true`) or off; the
    /// other sinks start off.
    pub fn new(enabled: bool) -> Self {
        Obs::from_plan(&ObsPlan {
            metrics: enabled,
            ..ObsPlan::default()
        })
    }

    /// A sink with every observer `plan` asks for armed. The exported
    /// `spans.capacity` field reflects `plan.span_capacity`.
    pub fn from_plan(plan: &ObsPlan) -> Self {
        let mut reg = Registry::new(plan.metrics);
        let cat = Catalog::register(&mut reg);
        Obs {
            reg,
            trace: TraceRing::new(plan.metrics, plan.span_capacity),
            stream: TraceStream::new(plan.trace),
            ts: TimeBuckets::new(plan.metrics, series::DEFAULT_BUCKET_SECS),
            health: HealthSink::new(plan.health),
            cat,
            prof: prof::ProfLedger::new(plan.prof),
            armed: plan.metrics || plan.trace || plan.health || plan.prof,
        }
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
        self.armed = true;
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
        self.armed = true;
    }

    /// Whether the health sink is on.
    pub fn health_enabled(&self) -> bool {
        self.health.is_enabled()
    }

    /// Turns the deterministic cost ledger on (`--prof FILE` /
    /// `profile`). Like tracing and health, a pure observer: per-seed
    /// output digests are identical with it on or off.
    pub fn enable_prof(&mut self) {
        self.prof = prof::ProfLedger::new(true);
        self.armed = true;
    }

    /// Whether the cost ledger is on.
    pub fn prof_enabled(&self) -> bool {
        self.prof.enabled()
    }

    /// Reports one engine action to every armed sink and returns the
    /// flight-recorder id it minted (0 when it mints none or the
    /// recorder is off). The sinks fold the event in a fixed order.
    /// The ledger goes first: a pop's scope switch must close before
    /// any other sink allocates on the popped event's behalf (no event
    /// that switches scopes mints a record). The health sink follows
    /// the recorder, so it sees the ids just minted.
    #[inline]
    pub fn emit(&mut self, ev: ObsEvent<'_>) -> u64 {
        if !self.armed {
            return 0;
        }
        self.fold(&ev)
    }

    fn fold(&mut self, ev: &ObsEvent<'_>) -> u64 {
        self.prof.fold(ev, self.stream.next_id());
        let id = self.stream.fold(ev);
        if self.reg.enabled() {
            self.cat.fold(&mut self.reg, &mut self.ts, &mut self.trace, ev);
        }
        self.health.fold(ev, id);
        id
    }

    /// Marks a phase boundary: `name` starts now, the previous phase
    /// (if any) ends now. With the cost ledger on this opens a ledger
    /// phase scope, so every phase marker doubles as a prof attribution
    /// boundary (and a wall-hook edge).
    pub fn phase(&mut self, name: &'static str) {
        self.emit(ObsEvent::Phase(name));
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

    /// Closes the open ledger span with carried watermarks — for the
    /// CLI after the last post-engine phase, where no engine RNG
    /// exists to total.
    pub fn prof_finish(&mut self) {
        self.prof.finish(self.stream.next_id());
    }

    /// Marks a ledger rebaseline after checkpoint capture (see
    /// [`prof::ProfLedger::mark_rebaseline`]).
    pub fn prof_rebaseline(&mut self) {
        self.prof.mark_rebaseline();
    }

    /// Read access to the ledger (document building).
    pub fn prof_ledger(&self) -> &prof::ProfLedger {
        &self.prof
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(obs: &mut Obs, section: &str, name: &str) -> u64 {
        let c = obs.reg.counter(section, name);
        obs.reg.counter_value(c)
    }

    fn dequeue(t: u64, kind: CostKind) -> ObsEvent<'static> {
        ObsEvent::Dequeue {
            t,
            kind,
            rng_draws: 0,
            pushed: 0,
            depth: 10,
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut obs = Obs::disabled();
        assert_eq!(obs.emit(dequeue(5, CostKind::Dbe)), 0);
        obs.emit(ObsEvent::Reboot { t: 5, node: 1, xid: 48 });
        assert_eq!(counter(&mut obs, "engine", "ev_dbe"), 0);
        assert_eq!(counter(&mut obs, "engine", "events_dequeued"), 0);
        assert_eq!(obs.trace.recorded(), 0);
    }

    #[test]
    fn dequeues_count_per_kind_and_horizon_drops() {
        let mut obs = Obs::enabled();
        obs.emit(dequeue(5, CostKind::Dbe));
        obs.emit(dequeue(6, CostKind::Dbe));
        obs.emit(dequeue(7, CostKind::Horizon));
        assert_eq!(counter(&mut obs, "engine", "events_dequeued"), 3);
        assert_eq!(counter(&mut obs, "engine", "ev_dbe"), 2);
        assert_eq!(counter(&mut obs, "engine", "events_past_horizon"), 1);
        assert_eq!(obs.ts.series(TsSeries::EvDbe), &[2]);
        let g = obs.reg.gauge("engine", "heap_high_water");
        assert_eq!(obs.reg.gauge_value(g), 10);
        // No `ev_horizon` counter exists: the catalog is frozen.
        assert!(obs.reg.counters().all(|(_, name, _)| name != "ev_horizon"));
    }

    #[test]
    fn catalog_registers_in_the_frozen_order() {
        let obs = Obs::disabled();
        let names: Vec<&str> = obs.reg.counters().map(|(_, n, _)| n).collect();
        assert_eq!(names.len(), 35);
        assert_eq!(&names[..4], ["events_dequeued", "events_past_horizon", "ev_job_start", "ev_job_end"]);
        assert_eq!(names[10], "ev_swap");
        assert_eq!(names[19], "pre_sbe_allocs");
        assert_eq!(names[20], "dbe_drafts");
        assert_eq!(&names[30..32], ["cascade_parents", "cascade_children"]);
        assert_eq!(&names[32..], ["prologue_reads", "epilogue_reads", "final_snapshots"]);
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
        let mut obs = Obs::from_plan(&ObsPlan {
            metrics: true,
            span_capacity: 2,
            ..ObsPlan::default()
        });
        for t in 0..5 {
            obs.emit(ObsEvent::Reboot { t, node: t, xid: 0 });
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
        let draft = ObsEvent::FaultDraft {
            t: 1,
            detail: &String::new,
        };
        assert!(!obs.trace_enabled());
        assert_eq!(obs.emit(draft), 0);
        obs.enable_trace();
        assert!(obs.trace_enabled());
        assert_eq!(obs.emit(draft), 1);
    }

    #[test]
    fn a_trace_only_sink_is_armed() {
        let mut obs = Obs::disabled();
        obs.enable_trace();
        let id = obs.emit(ObsEvent::Swap {
            parent: 0,
            t: 9,
            slot: 1,
            card: 2,
            fired: false,
            spares: 0,
        });
        assert_eq!(id, 1);
        assert_eq!(obs.stream.records()[0].payload, "swap_stale");
        assert_eq!(counter(&mut obs, "engine", "swaps_stale"), 0, "metrics stay off");
    }

    #[test]
    fn health_sink_is_off_by_default_and_opt_in() {
        let sbe = ObsEvent::Sbe {
            accepted: true,
            parent: 0,
            t: 5,
            card: 1,
            node: 1,
            detail: &String::new,
        };
        let finish = ObsEvent::Finalize {
            window: 100,
            jobs_closed: 0,
            final_snapshots: 0,
            console_lines: 0,
            payload_slots: 0,
        };
        let mut obs = Obs::enabled();
        assert!(!obs.health_enabled());
        obs.emit(sbe);
        obs.emit(finish);
        assert_eq!(
            parse_health(&obs.health.render_jsonl(1, 1))
                .expect("parse")
                .header
                .intervals,
            0
        );
        obs.enable_health();
        assert!(obs.health_enabled());
        obs.emit(sbe);
        obs.emit(finish);
        let doc = parse_health(&obs.health.render_jsonl(1, 1)).expect("parse");
        assert_eq!(doc.header.intervals, 1);
    }
}
