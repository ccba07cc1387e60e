//! titan-health: online reliability analytics on an absolute sim-time
//! grid.
//!
//! The paper's reliability practice was *operational*: OLCF staff
//! watched rolling failure rates, spatial striping, and repeat-offender
//! cards while Titan ran — the bad-SXM-batch and the resistor striping
//! problem were both caught by eye on live dashboards, not by post-hoc
//! log mining. [`HealthSink`] is that dashboard's data layer: the
//! engine feeds it every console-visible error, accepted SBE,
//! scheduled retirement and hot-spare swap as they happen, and the sink
//! evaluates streaming estimators — rolling MTBF per XID class,
//! cumulative cabinet heat with an incremental per-incident striping
//! score (the online form of `titan_analysis::incident_stripe`),
//! top-offender card shares, retirement pressure and spare depletion —
//! flushing one [`HealthInterval`] record per grid interval plus
//! [`HealthAlert`] records fired by a declarative rule set.
//!
//! Determinism contract (the same one `titan-obs/3` and `titan-trace/1`
//! obey):
//!
//! * **pure observer** — a run with health collection on is
//!   byte-identical to the same run with it off; a disabled sink costs
//!   one branch per hook;
//! * **absolute grid** — interval boundaries are `k · interval_secs`
//!   from sim-time zero and flushing is driven by the engine's monotone
//!   event-loop clock ([`HealthSink::tick`]), never by wall time or by
//!   how `run_until` slices the window, so a checkpointed + resumed run
//!   renders the exact bytes of an uninterrupted one;
//! * **snapshot-complete** — the sink folds into one [`HealthSnap`]
//!   that holds every mutable field (already-emitted records included),
//!   so the `obs.health` section of a `titan-ckpt/3` checkpoint is a
//!   copy of it, and a restore checks it against the sink's own rules
//!   and grid before taking it whole.
//!
//! Events are bucketed in feed order on the loop-time grid; console
//! skew can spill a line up to 5 s across a boundary, which is the same
//! small smear a live collector tailing the console would see.
//!
//! Every fired alert carries the `titan-trace` record id of the event
//! that tripped it (0 when the run was not traced), so
//! [`verify_health_alerts`] can walk each alert back to the causing
//! fault draft through a `titan-trace/1` file.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::ObsEvent;
use crate::flight::TraceRecord;

/// Frozen schema identifier of the health doc (S1-guarded).
pub const HEALTH_SCHEMA: &str = "titan-health/1";

/// Default interval grid: weekly, matching the `titan-obs/3` timeseries
/// bucket so the two surfaces line up.
pub const DEFAULT_HEALTH_INTERVAL_SECS: u64 = 7 * 86_400;

/// Rolling-MTBF span: the newest `ROLL_INTERVALS` flushed intervals.
const ROLL_INTERVALS: usize = 4;

/// Titan floor shape (25 rows × 8 columns of cabinets, 3 cages each).
/// Kept as local constants so `titan-obs` stays on its conlog-only
/// layering edge; `fold` resolves each `ConsoleEvent`'s cabinet and
/// cage from its node id.
const HEALTH_ROWS: usize = 25;
const HEALTH_COLS: usize = 8;
const HEALTH_CAGES: usize = 3;

/// The striping estimator watches the paper's canonical bursty
/// application error (Xid 13) with the paper's 5 s incident window.
const STRIPE_CLASS: &str = "graphics_engine_exception";
const STRIPE_WINDOW_SECS: u64 = 5;

const TOP_CABINETS: usize = 5;
const TOP_CARDS: usize = 10;

/// u64 → f64 for ratio reporting. Every count here is bounded by the
/// run's event count, far below 2^53, so the conversion is exact.
fn to_f64(n: u64) -> f64 {
    // lint: allow(N1, counts stay far below 2^53 and convert exactly)
    n as f64
}

/// usize → u64 for lengths and scan indices.
fn as_u64(n: usize) -> u64 {
    // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
    n as u64
}

/// u64 → usize for table lookups already bounded by a table length.
fn as_usize(n: u64) -> usize {
    // lint: allow(N1, value is pre-clamped below the table length)
    n as usize
}

/// `num / den` with a 0.0 sentinel for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        to_f64(num) / to_f64(den)
    }
}

/// One streamed observation: what `fold` reads off each console line
/// before feeding [`HealthSink::on_console`].
#[derive(Debug, Clone, Copy)]
pub struct HealthEvent {
    /// Sim time of the observation (console skew included).
    pub t: u64,
    /// Stable class label (`GpuErrorKind::short_name`).
    pub class: &'static str,
    /// Table-1 attribution: counted into the spatial heat grid.
    pub hardware: bool,
    /// Cabinet row (0..25).
    pub row: u8,
    /// Cabinet column (0..8).
    pub col: u8,
    /// Cage within the cabinet (0..3).
    pub cage: u8,
    /// `titan-trace` record id of the observation (0 when untraced).
    pub trace: u64,
}

/// Declarative alert rules. Serialized (serde-derived JSON) into the
/// doc header so every alert stream documents the rule set that
/// produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HealthRule {
    /// `count` events of `class` inside a sliding `window_secs` window.
    /// Re-arms after firing (the window clears).
    Burst {
        /// Watched class label.
        class: String,
        /// Events needed to trip.
        count: u64,
        /// Sliding window width in seconds.
        window_secs: u64,
    },
    /// Rolling MTBF of `class` dropped below `secs` at an interval
    /// flush. Latched: fires once per run.
    MtbfBelow {
        /// Watched class label.
        class: String,
        /// MTBF floor in seconds.
        secs: f64,
    },
    /// The top-10 SBE offender cards hold at least `min_pct` percent of
    /// all accepted SBEs at an interval flush (the paper's bad-batch
    /// signal). Latched.
    OffenderShare {
        /// Share floor in percent.
        min_pct: f64,
    },
    /// The hot-spare pool dropped below `below` cards. Latched.
    SpareDepletion {
        /// Pool floor.
        below: u64,
    },
    /// `count` page retirements scheduled inside `window_secs`.
    /// Re-arms after firing.
    RetirementPressure {
        /// Retirements needed to trip.
        count: u64,
        /// Sliding window width in seconds.
        window_secs: u64,
    },
}

impl HealthRule {
    /// Stable snake_case rule name used in alert records.
    pub fn name(&self) -> &'static str {
        match self {
            HealthRule::Burst { .. } => "burst",
            HealthRule::MtbfBelow { .. } => "mtbf_below",
            HealthRule::OffenderShare { .. } => "offender_share",
            HealthRule::SpareDepletion { .. } => "spare_depletion",
            HealthRule::RetirementPressure { .. } => "retirement_pressure",
        }
    }
}

/// The default OLCF-flavoured rule set: thresholds chosen against the
/// simulated fleet's own baseline rates so only the signals the paper's
/// operators actually acted on trip on a plain 30–60 day window. The
/// steady Xid-13 drizzle runs at roughly one event every 2–3 minutes
/// fleet-wide; a job-wide strike on a big allocation lands hundreds of
/// console lines inside seconds, so the burst rule asks for 200 lines
/// in ten minutes — an alert storm, not the baseline. The offender rule
/// trips when the top-10 cards hold over a fifth of all accepted SBEs
/// (the paper's bad-batch concentration signal; a healthy uniform fleet
/// of ~19k cards sits orders of magnitude below that).
fn olcf_default_rules() -> Vec<HealthRule> {
    vec![
        HealthRule::Burst {
            class: STRIPE_CLASS.to_string(),
            count: 200,
            window_secs: 600,
        },
        HealthRule::MtbfBelow {
            class: "dbe".to_string(),
            secs: 100_000.0,
        },
        HealthRule::OffenderShare { min_pct: 20.0 },
        HealthRule::SpareDepletion { below: 64 },
        HealthRule::RetirementPressure {
            count: 50,
            window_secs: 7 * 86_400,
        },
    ]
}

/// First line of a `titan-health/1` JSONL doc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthHeader {
    /// Always [`HEALTH_SCHEMA`].
    pub schema: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Study window in days.
    pub window_days: u64,
    /// Interval grid step in seconds.
    pub interval_secs: u64,
    /// Interval records in the stream.
    pub intervals: u64,
    /// Alert records in the stream.
    pub alerts: u64,
    /// The rule set that produced the alerts.
    pub rules: Vec<HealthRule>,
}

/// One flushed grid interval (S1-frozen field order — see
/// `crates/xtask/schemas/titan-health-1.toml`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthInterval {
    /// Record discriminator, always `"interval"`.
    pub rec: String,
    /// Interval index on the grid, from 0.
    pub index: u64,
    /// Inclusive interval start (sim seconds).
    pub t_lo: u64,
    /// Exclusive interval end; the run horizon for the final partial.
    pub t_hi: u64,
    /// Events per class fed during this interval (every class ever seen
    /// is listed, zeros included).
    pub counts: BTreeMap<String, u64>,
    /// Rolling MTBF per class in seconds over the newest ≤4 intervals;
    /// 0.0 means no events in the rolling span.
    pub mtbf: BTreeMap<String, f64>,
    /// Cumulative hardware-event heat, 25×8 cabinets row-major.
    pub heat_cells: Vec<u64>,
    /// Cumulative hardware-event heat per cage (bottom, middle, top).
    pub heat_cages: Vec<u64>,
    /// Top-5 hottest cabinets as `(count, row, col)`, count-descending.
    pub hot_cabinets: Vec<(u64, u64, u64)>,
    /// Event-weighted per-incident column contrast of the stripe class
    /// (cumulative; the online `incident_stripe`).
    pub stripe_contrast: f64,
    /// Size-matched uniform null for the same incidents.
    pub stripe_null: f64,
    /// Closed stripe incidents so far.
    pub stripe_incidents: u64,
    /// Top-10 SBE offender cards as `(count, card)`, count-descending.
    pub top_cards: Vec<(u64, u64)>,
    /// Share of all accepted SBEs held by the top-10 cards, percent.
    pub top10_share_pct: f64,
    /// Retirements scheduled during this interval.
    pub retirements: u64,
    /// Retirements scheduled since sim-time zero.
    pub retirements_total: u64,
    /// Hot-spare swaps fired during this interval.
    pub swaps: u64,
    /// Swaps since sim-time zero.
    pub swaps_total: u64,
    /// Hot spares remaining (null until the engine reports the pool).
    pub spares: Option<u64>,
    /// Alerts fired during this interval.
    pub alerts: u64,
}

/// One fired alert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthAlert {
    /// Record discriminator, always `"alert"`.
    pub rec: String,
    /// Fire sequence number, from 1.
    pub seq: u64,
    /// Sim time the rule tripped (interval end for flush-evaluated
    /// rules).
    pub t: u64,
    /// Rule name ([`HealthRule::name`]).
    pub rule: String,
    /// Class the rule watched; empty for class-blind rules.
    pub class: String,
    /// Observed value that tripped the rule.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// `titan-trace` record id of the tripping observation (0 when the
    /// run was untraced).
    pub trace: u64,
}

/// Trailing summary record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSummary {
    /// Record discriminator, always `"summary"`.
    pub rec: String,
    /// Run horizon the sink was finished at.
    pub t_end: u64,
    /// Total events per class over the whole run.
    pub counts: BTreeMap<String, u64>,
    /// Rolling MTBF per class at the final flush.
    pub mtbf: BTreeMap<String, f64>,
    /// Final cumulative stripe contrast.
    pub stripe_contrast: f64,
    /// Final size-matched null.
    pub stripe_null: f64,
    /// Closed stripe incidents.
    pub stripe_incidents: u64,
    /// Final top-10 SBE offender cards.
    pub top_cards: Vec<(u64, u64)>,
    /// Final top-10 share, percent.
    pub top10_share_pct: f64,
    /// Total retirements scheduled.
    pub retirements: u64,
    /// Total swaps fired.
    pub swaps: u64,
    /// Hot spares remaining at the end.
    pub spares: Option<u64>,
    /// Total alerts fired.
    pub alerts: u64,
}

/// A stream record in emission order (snapshot-carried so a resumed
/// run re-renders the exact bytes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HealthRec {
    /// A flushed interval.
    Interval {
        /// The record.
        v: HealthInterval,
    },
    /// A fired alert.
    Alert {
        /// The record.
        v: HealthAlert,
    },
}

/// One class's streaming state, checkpointed as the array `[class,
/// interval, recent, total, last_trace]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ClassState(
    /// Class label.
    String,
    /// Events this interval.
    u64,
    /// `(events, span_secs)` of the newest ≤`ROLL_INTERVALS` flushed
    /// intervals, oldest first.
    Vec<(u64, u64)>,
    /// Events since sim-time zero.
    u64,
    /// Trace id of the newest event of this class.
    u64,
);

/// One rule's mutable state, checkpointed as the array `[times,
/// latched, holdoff]`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct RuleState(
    /// Sliding event-time window (Burst / RetirementPressure).
    Vec<u64>,
    /// Whether a latched rule already fired.
    bool,
    /// Re-arming rules hold off until this sim time after a fire, so
    /// one storm raises one alert instead of one per threshold-full.
    u64,
);

impl RuleState {
    /// One step of a re-arming sliding-window rule: outside the
    /// holdoff, `t` joins the window and events `window_secs` or more
    /// before it leave. A window of `count` events fires: it clears,
    /// the holdoff runs to `t + window_secs`, and the window's size is
    /// returned as the alert's value.
    fn slide(&mut self, t: u64, count: u64, window_secs: u64) -> Option<f64> {
        let RuleState(times, _, holdoff_until) = self;
        if t < *holdoff_until {
            return None;
        }
        times.push(t);
        times.retain(|&x| t.saturating_sub(x) < window_secs);
        let n = as_u64(times.len());
        if n < count {
            return None;
        }
        times.clear();
        *holdoff_until = t.saturating_add(window_secs);
        Some(to_f64(n))
    }

    /// Latches the rule; true only the first time, so a latched rule
    /// fires once per run.
    fn latch(&mut self) -> bool {
        !std::mem::replace(&mut self.1, true)
    }
}

/// Every mutable field of a [`HealthSink`], already-emitted records
/// included. The sink folds into this struct, and a checkpoint's
/// `obs.health` section is its serialization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSnap {
    /// Interval grid step.
    pub(crate) interval_secs: u64,
    /// Start of the interval being accumulated; the next unflushed
    /// boundary is one grid step past it.
    pub(crate) cur_lo: u64,
    /// Flushed-interval count.
    pub(crate) intervals_flushed: u64,
    /// Per-class state in first-seen order. A `Vec` rather than a map:
    /// the per-event lookup goes through the sink's class memo, and the
    /// rendered documents sort by name at flush time, so ordering here
    /// never reaches the output.
    pub(crate) classes: Vec<ClassState>,
    /// Cumulative heat grid, row-major.
    pub(crate) grid: Vec<u64>,
    /// Cumulative cage heat.
    pub(crate) cages: Vec<u64>,
    /// Open stripe incident: even-column events.
    pub(crate) stripe_even: u64,
    /// Open stripe incident: odd-column events.
    pub(crate) stripe_odd: u64,
    /// Incident-parent time of the open incident.
    pub(crate) stripe_last_kept: Option<u64>,
    /// Σ |even − odd| over closed incidents.
    pub(crate) stripe_contrast_num: u64,
    /// Σ n·min(1, sqrt(2/(π·n))) over closed incidents.
    pub(crate) stripe_null_num: f64,
    /// Σ n over closed incidents.
    pub(crate) stripe_events: u64,
    /// Closed incidents.
    pub(crate) stripe_incidents: u64,
    /// Accepted SBEs per card serial.
    pub(crate) card_sbe: Vec<u64>,
    /// Retirements since sim-time zero.
    pub(crate) retirements_total: u64,
    /// Retirements this interval.
    pub(crate) retirements_interval: u64,
    /// Swaps since sim-time zero.
    pub(crate) swaps_total: u64,
    /// Swaps this interval.
    pub(crate) swaps_interval: u64,
    /// Hot spares remaining, when known.
    pub(crate) spares: Option<u64>,
    /// MTBF per class at the newest flush, sorted by class.
    pub(crate) mtbf_last: Vec<(String, f64)>,
    /// Alerts fired in total.
    pub(crate) alerts_total: u64,
    /// Alerts fired this interval.
    pub(crate) alerts_interval: u64,
    /// Per-rule state, in rule order.
    pub(crate) rule_state: Vec<RuleState>,
    /// Every record emitted so far, in order.
    pub(crate) records: Vec<HealthRec>,
}

/// The streaming health evaluator. Disabled sinks ignore every hook
/// behind a single branch, so engine call sites are identical on both
/// paths (the telemetry pure-observer invariant).
#[derive(Debug)]
pub struct HealthSink {
    /// Whether the sink is collecting.
    enabled: bool,
    /// Whether [`HealthSink::finish`] ran; never true at a pause, so
    /// not part of the snapshot.
    finished: bool,
    /// The folded state; [`HealthSink::snap`] is a copy of it.
    state: HealthSnap,
    rules: Vec<HealthRule>,
    /// Hot-path accelerator: `(ptr, len, index)` of every `&'static
    /// str` class label already routed to its `classes` slot. Same
    /// pointer + length ⇒ same literal, so the common case is two
    /// integer compares instead of a string search. Purely a cache —
    /// not snapshotted, rebuilt lazily after a restore.
    class_memo: Vec<(usize, usize, usize)>,
    /// Burst-rule targets resolved to `classes` indices on first
    /// encounter, so the per-event rule scan compares integers, not
    /// strings. Lazily resolved, reset on restore.
    burst_target: Vec<Option<usize>>,
}

impl HealthSink {
    /// A sink on the default weekly grid with the default rule set.
    pub fn new(enabled: bool) -> Self {
        HealthSink::with_rules(enabled, DEFAULT_HEALTH_INTERVAL_SECS, olcf_default_rules())
    }

    /// A sink with an explicit grid step (at least 1) and rule set.
    fn with_rules(enabled: bool, interval_secs: u64, rules: Vec<HealthRule>) -> Self {
        let state = HealthSnap {
            interval_secs,
            cur_lo: 0,
            intervals_flushed: 0,
            classes: Vec::new(),
            grid: vec![0; HEALTH_ROWS * HEALTH_COLS],
            cages: vec![0; HEALTH_CAGES],
            stripe_even: 0,
            stripe_odd: 0,
            stripe_last_kept: None,
            stripe_contrast_num: 0,
            stripe_null_num: 0.0,
            stripe_events: 0,
            stripe_incidents: 0,
            card_sbe: Vec::new(),
            retirements_total: 0,
            retirements_interval: 0,
            swaps_total: 0,
            swaps_interval: 0,
            spares: None,
            mtbf_last: Vec::new(),
            alerts_total: 0,
            alerts_interval: 0,
            rule_state: vec![RuleState::default(); rules.len()],
            records: Vec::new(),
        };
        HealthSink {
            enabled,
            finished: false,
            state,
            burst_target: vec![None; rules.len()],
            rules,
            class_memo: Vec::new(),
        }
    }

    /// Whether the sink is collecting.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Advances the interval grid to the engine's monotone loop time,
    /// flushing every boundary at or below `t`. Called once per
    /// dequeued event; the cheap path is one compare.
    #[inline]
    pub fn tick(&mut self, t: u64) {
        if !self.enabled {
            return;
        }
        let step = self.state.interval_secs;
        while let Some(b) = self.state.cur_lo.checked_add(step).filter(|&b| b <= t) {
            self.flush_interval(b);
        }
    }

    /// The health sink's fold over one engine event; `id` is the
    /// flight-recorder id the event minted (0 when untraced). Console
    /// lines are derived from the fault's own [`ConsoleEvent`]s.
    ///
    /// [`ConsoleEvent`]: titan_conlog::ConsoleEvent
    pub(crate) fn fold(&mut self, ev: &ObsEvent<'_>, id: u64) {
        if !self.enabled {
            return;
        }
        match *ev {
            // The first slice seeds the hot-spare gauge; a resumed run
            // keeps the restored one.
            ObsEvent::LoopStart { spares } => {
                self.state.spares.get_or_insert(as_u64(spares));
            }
            // The grid runs on the monotone loop clock, advanced before
            // the popped event is fed, so interval boundaries land
            // identically however `run_until` slices the drain.
            ObsEvent::Dequeue { t, .. } => self.tick(t),
            ObsEvent::Fault { lines, .. } => {
                for (i, line) in (1u64..).zip(lines) {
                    let loc = line.node.location();
                    self.on_console(HealthEvent {
                        t: line.time,
                        class: line.kind.short_name(),
                        hardware: line.is_hardware(),
                        row: loc.row,
                        col: loc.col,
                        cage: loc.cage,
                        trace: if id == 0 { 0 } else { id + i },
                    });
                }
            }
            ObsEvent::Sbe {
                accepted: true,
                card,
                t,
                ..
            } => self.on_sbe(card, t, id),
            ObsEvent::Retirement { t, .. } => self.on_retirement(t, id),
            ObsEvent::Swap {
                fired: true,
                t,
                spares,
                ..
            } => self.on_swap(t, as_u64(spares), id),
            ObsEvent::Finalize { window, .. } => self.finish(window),
            _ => {}
        }
    }

    /// Feeds one console-visible error event.
    pub fn on_console(&mut self, ev: HealthEvent) {
        if !self.enabled {
            return;
        }
        if ev.hardware {
            let cell = usize::from(ev.row) * HEALTH_COLS + usize::from(ev.col);
            if let Some(c) = self.state.grid.get_mut(cell) {
                *c += 1;
            }
            if let Some(c) = self.state.cages.get_mut(usize::from(ev.cage)) {
                *c += 1;
            }
        }
        if ev.class == STRIPE_CLASS {
            self.stripe_feed(ev.t, ev.col);
        }
        self.on_class_event(ev.class, ev.t, ev.trace);
    }

    /// Feeds one accepted single-bit error (nvidia-smi visibility only,
    /// so it arrives outside the console path).
    fn on_sbe(&mut self, card: u64, t: u64, trace: u64) {
        let idx = as_usize(card);
        let card_sbe = &mut self.state.card_sbe;
        if card_sbe.len() <= idx {
            card_sbe.resize(idx + 1, 0);
        }
        if let Some(c) = card_sbe.get_mut(idx) {
            *c += 1;
        }
        self.on_class_event("sbe", t, trace);
    }

    /// Feeds one scheduled page retirement.
    fn on_retirement(&mut self, t: u64, trace: u64) {
        self.state.retirements_total += 1;
        self.state.retirements_interval += 1;
        let mut fired: Vec<(f64, f64)> = Vec::new();
        for (rule, rs) in self.rules.iter().zip(self.state.rule_state.iter_mut()) {
            if let HealthRule::RetirementPressure { count, window_secs } = rule {
                fired.extend(rs.slide(t, *count, *window_secs).map(|v| (v, to_f64(*count))));
            }
        }
        for (value, threshold) in fired {
            self.fire(t, "retirement_pressure", "", value, threshold, trace);
        }
    }

    /// Feeds one hot-spare swap; `spares_left` is the pool size after.
    fn on_swap(&mut self, t: u64, spares_left: u64, trace: u64) {
        self.state.swaps_total += 1;
        self.state.swaps_interval += 1;
        self.state.spares = Some(spares_left);
        let mut fired: Vec<(f64, f64)> = Vec::new();
        for (rule, rs) in self.rules.iter().zip(self.state.rule_state.iter_mut()) {
            if let HealthRule::SpareDepletion { below } = rule {
                if spares_left < *below && rs.latch() {
                    fired.push((to_f64(spares_left), to_f64(*below)));
                }
            }
        }
        for (value, threshold) in fired {
            self.fire(t, "spare_depletion", "", value, threshold, trace);
        }
    }

    /// Flushes every remaining boundary up to the run horizon plus the
    /// final partial interval. Idempotent.
    pub fn finish(&mut self, t_end: u64) {
        if !self.enabled || self.finished {
            return;
        }
        self.finished = true;
        self.close_stripe_incident();
        self.tick(t_end);
        if t_end > self.state.cur_lo {
            self.flush_interval(t_end);
        }
    }

    /// Routes a `&'static str` class label to its `classes` slot. The
    /// hot path is a pointer+length scan over `class_memo` (the labels
    /// are a closed set of literals, so identity is content); the slow
    /// path — first sighting of a label, or the first event after a
    /// restore emptied the memo — falls back to a string search and
    /// caches the result.
    fn class_index(&mut self, class: &'static str) -> usize {
        // lint: allow(T1, the address is a memo identity key only; the index it yields comes from insertion-ordered `classes`, so no pointer value reaches state or output)
        // lint: allow(N1, usize is pointer-sized, so ptr-to-usize never truncates)
        let key = (class.as_ptr() as usize, class.len());
        for &(p, l, i) in &self.class_memo {
            if p == key.0 && l == key.1 {
                return i;
            }
        }
        let classes = &mut self.state.classes;
        let idx = match classes.iter().position(|c| c.0 == class) {
            Some(i) => i,
            None => {
                classes.push(ClassState(class.to_string(), 0, Vec::new(), 0, 0));
                classes.len() - 1
            }
        };
        self.class_memo.push((key.0, key.1, idx));
        idx
    }

    fn on_class_event(&mut self, class: &'static str, t: u64, trace: u64) {
        let idx = self.class_index(class);
        let Some(ClassState(_, interval, _, total, last_trace)) = self.state.classes.get_mut(idx)
        else {
            return;
        };
        *interval += 1;
        *total += 1;
        *last_trace = trace;
        let mut fired: Vec<(String, f64, f64)> = Vec::new();
        let rules = self.rules.iter().zip(self.state.rule_state.iter_mut());
        for ((rule, rs), slot) in rules.zip(self.burst_target.iter_mut()) {
            let HealthRule::Burst {
                class: rc,
                count,
                window_secs,
            } = rule
            else {
                continue;
            };
            // Resolve the rule's class to an index once; after that the
            // per-event check is an integer compare.
            let hits = match *slot {
                Some(ci) => ci == idx,
                None if rc == class => {
                    *slot = Some(idx);
                    true
                }
                None => false,
            };
            if !hits {
                continue;
            }
            if let Some(value) = rs.slide(t, *count, *window_secs) {
                fired.push((rc.clone(), value, to_f64(*count)));
            }
        }
        for (class, value, threshold) in fired {
            self.fire(t, "burst", &class, value, threshold, trace);
        }
    }

    /// Online incident grouping with `incident_stripe`'s rule: a parent
    /// plus everything within the window of the last kept parent.
    fn stripe_feed(&mut self, t: u64, col: u8) {
        let same_incident = matches!(
            self.state.stripe_last_kept,
            Some(kept) if t.saturating_sub(kept) < STRIPE_WINDOW_SECS
        );
        if !same_incident {
            self.close_stripe_incident();
            self.state.stripe_last_kept = Some(t);
        }
        if col % 2 == 0 {
            self.state.stripe_even += 1;
        } else {
            self.state.stripe_odd += 1;
        }
    }

    fn close_stripe_incident(&mut self) {
        let s = &mut self.state;
        let n = s.stripe_even + s.stripe_odd;
        if n == 0 {
            return;
        }
        // Event-weighted terms of `incident_stripe`: n·(|even−odd|/n)
        // collapses to |even−odd|, an exact integer.
        s.stripe_contrast_num += s.stripe_even.abs_diff(s.stripe_odd);
        let nf = to_f64(n);
        s.stripe_null_num += nf * (2.0 / (std::f64::consts::PI * nf)).sqrt().min(1.0);
        s.stripe_events += n;
        s.stripe_incidents += 1;
        s.stripe_even = 0;
        s.stripe_odd = 0;
    }

    fn stripe_stats(&self) -> (f64, f64) {
        let s = &self.state;
        if s.stripe_events == 0 {
            return (0.0, 0.0);
        }
        (
            ratio(s.stripe_contrast_num, s.stripe_events),
            s.stripe_null_num / to_f64(s.stripe_events),
        )
    }

    fn top_cards(&self) -> (Vec<(u64, u64)>, f64) {
        let card_sbe = &self.state.card_sbe;
        let mut cards: Vec<(u64, u64)> = card_sbe
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (c, as_u64(i)))
            .collect();
        cards.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        cards.truncate(TOP_CARDS);
        let total: u64 = card_sbe.iter().sum();
        let top: u64 = cards.iter().map(|(c, _)| *c).sum();
        (cards, 100.0 * ratio(top, total))
    }

    fn hot_cabinets(&self) -> Vec<(u64, u64, u64)> {
        let mut cells: Vec<(u64, u64, u64)> = self
            .state
            .grid
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (c, as_u64(i / HEALTH_COLS), as_u64(i % HEALTH_COLS)))
            .collect();
        cells.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        cells.truncate(TOP_CABINETS);
        cells
    }

    fn flush_interval(&mut self, t_hi: u64) {
        let t_lo = self.state.cur_lo;
        let span = t_hi.saturating_sub(t_lo);
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut mtbf: BTreeMap<String, f64> = BTreeMap::new();
        for ClassState(name, interval, recent, _, _) in self.state.classes.iter_mut() {
            counts.insert(name.clone(), *interval);
            recent.push((*interval, span));
            if recent.len() > ROLL_INTERVALS {
                recent.remove(0);
            }
            *interval = 0;
            let ev_sum: u64 = recent.iter().map(|(c, _)| *c).sum();
            let span_sum: u64 = recent.iter().map(|(_, s)| *s).sum();
            mtbf.insert(name.clone(), ratio(span_sum, ev_sum));
        }
        self.state.mtbf_last = mtbf.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let (top_cards, top10_share_pct) = self.top_cards();

        // Flush-evaluated rules fire before the interval record so the
        // record's alert count includes them.
        let classes = &self.state.classes;
        let last_trace = |class: &str| classes.iter().find(|c| c.0 == class).map(|c| c.4);
        let mut fired: Vec<(&'static str, String, f64, f64, u64)> = Vec::new();
        for (rule, rs) in self.rules.iter().zip(self.state.rule_state.iter_mut()) {
            match rule {
                HealthRule::MtbfBelow { class, secs } => {
                    let Some((m, trace)) = mtbf.get(class).zip(last_trace(class)) else {
                        continue;
                    };
                    if *m > 0.0 && *m < *secs && rs.latch() {
                        fired.push(("mtbf_below", class.clone(), *m, *secs, trace));
                    }
                }
                HealthRule::OffenderShare { min_pct } => {
                    if top10_share_pct >= *min_pct && top10_share_pct > 0.0 && rs.latch() {
                        let trace = last_trace("sbe").unwrap_or(0);
                        fired.push(("offender_share", "sbe".to_string(), top10_share_pct, *min_pct, trace));
                    }
                }
                _ => {}
            }
        }
        for (rule, class, value, threshold, trace) in fired {
            self.fire(t_hi, rule, &class, value, threshold, trace);
        }

        let (stripe_contrast, stripe_null) = self.stripe_stats();
        let hot_cabinets = self.hot_cabinets();
        let s = &mut self.state;
        let record = HealthInterval {
            rec: "interval".to_string(),
            index: s.intervals_flushed,
            t_lo,
            t_hi,
            counts,
            mtbf,
            heat_cells: s.grid.clone(),
            heat_cages: s.cages.clone(),
            hot_cabinets,
            stripe_contrast,
            stripe_null,
            stripe_incidents: s.stripe_incidents,
            top_cards,
            top10_share_pct,
            retirements: s.retirements_interval,
            retirements_total: s.retirements_total,
            swaps: s.swaps_interval,
            swaps_total: s.swaps_total,
            spares: s.spares,
            alerts: s.alerts_interval,
        };
        s.records.push(HealthRec::Interval { v: record });
        s.intervals_flushed += 1;
        s.retirements_interval = 0;
        s.swaps_interval = 0;
        s.alerts_interval = 0;
        s.cur_lo = t_hi;
    }

    fn fire(&mut self, t: u64, rule: &str, class: &str, value: f64, threshold: f64, trace: u64) {
        let s = &mut self.state;
        s.alerts_total += 1;
        s.alerts_interval += 1;
        s.records.push(HealthRec::Alert {
            v: HealthAlert {
                rec: "alert".to_string(),
                seq: s.alerts_total,
                t,
                rule: rule.to_string(),
                class: class.to_string(),
                value,
                threshold,
                trace,
            },
        });
    }

    /// Renders the full `titan-health/1` JSONL doc: header, then every
    /// interval/alert record in emission order, then the summary.
    pub fn render_jsonl(&self, seed: u64, window_days: u64) -> String {
        let s = &self.state;
        let intervals = s
            .records
            .iter()
            .filter(|r| matches!(r, HealthRec::Interval { .. }))
            .count();
        let header = HealthHeader {
            schema: HEALTH_SCHEMA.to_string(),
            seed,
            window_days,
            interval_secs: s.interval_secs,
            intervals: as_u64(intervals),
            alerts: s.alerts_total,
            rules: self.rules.clone(),
        };
        let mut out = String::new();
        let mut line = |json: Result<String, serde_json::Error>| {
            out.push_str(&json.unwrap_or_else(|_| "{}".to_string()));
            out.push('\n');
        };
        line(serde_json::to_string(&header));
        for rec in &s.records {
            match rec {
                HealthRec::Interval { v } => line(serde_json::to_string(v)),
                HealthRec::Alert { v } => line(serde_json::to_string(v)),
            }
        }
        let counts = s.classes.iter().map(|c| (c.0.clone(), c.3)).collect();
        let (top_cards, top10_share_pct) = self.top_cards();
        let (stripe_contrast, stripe_null) = self.stripe_stats();
        let summary = HealthSummary {
            rec: "summary".to_string(),
            t_end: s.cur_lo,
            counts,
            mtbf: s.mtbf_last.iter().cloned().collect(),
            stripe_contrast,
            stripe_null,
            stripe_incidents: s.stripe_incidents,
            top_cards,
            top10_share_pct,
            retirements: s.retirements_total,
            swaps: s.swaps_total,
            spares: s.spares,
            alerts: s.alerts_total,
        };
        line(serde_json::to_string(&summary));
        out
    }

    /// Captures the complete mutable state.
    pub fn snap(&self) -> HealthSnap {
        self.state.clone()
    }

    /// Absolute restore from a snapshot. A disabled sink stays inert.
    /// The rules and the grid are the sink's own, so a
    /// snapshot whose interval, rule states or heat grid do not fit
    /// them is refused, not repaired. So is one no paused run holds: an
    /// open interval that does not start on the grid.
    pub fn restore(&mut self, snap: &HealthSnap) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        let (own, step) = (&self.state, self.state.interval_secs);
        for (what, got, want) in [
            ("interval_secs", snap.interval_secs, step),
            ("rule_state length", as_u64(snap.rule_state.len()), as_u64(self.rules.len())),
            ("grid length", as_u64(snap.grid.len()), as_u64(own.grid.len())),
            ("cages length", as_u64(snap.cages.len()), as_u64(own.cages.len())),
            ("cur_lo mod interval_secs", snap.cur_lo % step, 0),
        ] {
            if got != want {
                return Err(format!("{what} is {got}, the sink's is {want}"));
            }
        }
        self.state = snap.clone();
        // The pointer memo and resolved burst targets index into the
        // old `classes` — drop them; both rebuild lazily and identically
        // on the next events.
        self.class_memo.clear();
        self.burst_target.fill(None);
        Ok(())
    }
}

/// A parsed `titan-health/1` doc.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthDoc {
    /// The header line.
    pub header: HealthHeader,
    /// Interval and alert records in stream order.
    pub records: Vec<HealthRec>,
    /// The trailing summary (absent only in truncated files).
    pub summary: Option<HealthSummary>,
}

impl HealthDoc {
    /// Interval records in stream order.
    pub fn intervals(&self) -> impl Iterator<Item = &HealthInterval> {
        self.records.iter().filter_map(|r| match r {
            HealthRec::Interval { v } => Some(v),
            HealthRec::Alert { .. } => None,
        })
    }

    /// Alert records in fire order.
    pub fn alerts(&self) -> impl Iterator<Item = &HealthAlert> {
        self.records.iter().filter_map(|r| match r {
            HealthRec::Alert { v } => Some(v),
            HealthRec::Interval { .. } => None,
        })
    }
}

/// Parses a rendered `titan-health/1` JSONL doc.
pub fn parse_health(text: &str) -> Result<HealthDoc, String> {
    let mut lines = text.lines();
    let first = lines.next().ok_or("empty health file")?;
    let header: HealthHeader =
        serde_json::from_str(first).map_err(|e| format!("health header: {e}"))?;
    if header.schema != HEALTH_SCHEMA {
        return Err(format!(
            "unsupported health schema `{}` (expected `{HEALTH_SCHEMA}`)",
            header.schema
        ));
    }
    let mut records = Vec::new();
    let mut summary = None;
    for (i, line) in lines.enumerate() {
        let lineno = i + 2;
        if line.contains("\"rec\":\"interval\"") {
            let v: HealthInterval =
                serde_json::from_str(line).map_err(|e| format!("line {lineno}: {e}"))?;
            records.push(HealthRec::Interval { v });
        } else if line.contains("\"rec\":\"alert\"") {
            let v: HealthAlert =
                serde_json::from_str(line).map_err(|e| format!("line {lineno}: {e}"))?;
            records.push(HealthRec::Alert { v });
        } else if line.contains("\"rec\":\"summary\"") {
            if summary.is_some() {
                return Err(format!("line {lineno}: duplicate summary record"));
            }
            let v: HealthSummary =
                serde_json::from_str(line).map_err(|e| format!("line {lineno}: {e}"))?;
            summary = Some(v);
        } else {
            return Err(format!("line {lineno}: unrecognized health record"));
        }
    }
    Ok(HealthDoc {
        header,
        records,
        summary,
    })
}

/// Density ramp for the watch heatmap.
const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

fn ramp(v: u64, max: u64) -> char {
    if v == 0 || max == 0 {
        return ' ';
    }
    let idx = 1 + as_usize(v.saturating_mul(8) / max);
    RAMP.get(idx.min(9)).copied().unwrap_or('@')
}

/// Deterministic end-of-run summary view (`health summarize`).
pub fn summarize_health(doc: &HealthDoc) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let h = &doc.header;
    let _ = writeln!(
        s,
        "titan-health seed {} window {}d  interval {}s  intervals {}  alerts {}",
        h.seed, h.window_days, h.interval_secs, h.intervals, h.alerts
    );
    if let Some(sum) = &doc.summary {
        let _ = writeln!(s, "\nclass totals (rolling MTBF at end, seconds):");
        for (class, count) in &sum.counts {
            let m = sum.mtbf.get(class).copied().unwrap_or(0.0);
            let _ = writeln!(s, "  {class:<28} {count:>9}  mtbf {m:>12.0}");
        }
        let _ = writeln!(
            s,
            "\nstripe (xid13, 5s incidents): contrast {:.3} vs null {:.3} over {} incidents",
            sum.stripe_contrast, sum.stripe_null, sum.stripe_incidents
        );
        let _ = writeln!(
            s,
            "top-10 offender cards hold {:.1}% of accepted SBEs:",
            sum.top10_share_pct
        );
        for (count, card) in &sum.top_cards {
            let _ = writeln!(s, "  card {card:>6}  sbe {count}");
        }
        let spares = sum
            .spares
            .map_or("unknown".to_string(), |v| v.to_string());
        let _ = writeln!(
            s,
            "retirements {}  swaps {}  spares left {}",
            sum.retirements, sum.swaps, spares
        );
    }
    let alerts: Vec<&HealthAlert> = doc.alerts().collect();
    if alerts.is_empty() {
        let _ = writeln!(s, "\nno alerts fired");
    } else {
        let _ = writeln!(s, "\nalerts:");
        for a in alerts {
            let _ = writeln!(
                s,
                "  #{:<3} t={:>9}  {:<20} {:<28} value {:.1} (threshold {:.1})  trace {}",
                a.seq, a.t, a.rule, a.class, a.value, a.threshold, a.trace
            );
        }
    }
    s
}

/// Deterministic per-interval fleet view (`health watch`): one frame
/// per interval with the cumulative cabinet heatmap (8 column lines ×
/// 25 row characters — the machine-room floor on its side), hottest
/// cabinets, offender share and the interval's alerts.
pub fn watch_health(doc: &HealthDoc) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let h = &doc.header;
    let _ = writeln!(
        s,
        "titan-health watch  seed {}  {} intervals of {}s",
        h.seed, h.intervals, h.interval_secs
    );
    for iv in doc.intervals() {
        let _ = writeln!(
            s,
            "\n=== interval {}  [{} .. {}){} ===",
            iv.index,
            iv.t_lo,
            iv.t_hi,
            if iv.alerts > 0 {
                format!("  ALERTS {}", iv.alerts)
            } else {
                String::new()
            }
        );
        let max = iv.heat_cells.iter().copied().max().unwrap_or(0);
        for col in 0..HEALTH_COLS {
            let mut row_chars = String::new();
            for row in 0..HEALTH_ROWS {
                let v = iv
                    .heat_cells
                    .get(row * HEALTH_COLS + col)
                    .copied()
                    .unwrap_or(0);
                row_chars.push(ramp(v, max));
            }
            let _ = writeln!(s, "  col{col} |{row_chars}|");
        }
        let cages: Vec<String> = iv.heat_cages.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(s, "  cage heat [bottom,middle,top]: [{}]", cages.join(","));
        let hot: Vec<String> = iv
            .hot_cabinets
            .iter()
            .map(|(c, r, col)| format!("r{r}c{col}={c}"))
            .collect();
        let _ = writeln!(
            s,
            "  hot cabinets: {}",
            if hot.is_empty() {
                "none".to_string()
            } else {
                hot.join("  ")
            }
        );
        let _ = writeln!(
            s,
            "  stripe contrast {:.3} (null {:.3}, {} incidents)  top10 sbe share {:.1}%",
            iv.stripe_contrast, iv.stripe_null, iv.stripe_incidents, iv.top10_share_pct
        );
        let _ = writeln!(
            s,
            "  retirements {} (total {})  swaps {} (total {})  spares {}",
            iv.retirements,
            iv.retirements_total,
            iv.swaps,
            iv.swaps_total,
            iv.spares.map_or("?".to_string(), |v| v.to_string())
        );
    }
    for a in doc.alerts() {
        let _ = writeln!(
            s,
            "alert #{} t={} {} {} value {:.1} threshold {:.1} trace {}",
            a.seq, a.t, a.rule, a.class, a.value, a.threshold, a.trace
        );
    }
    s
}

/// Walks every fired alert's `trace` id back through a `titan-trace/1`
/// record set to its fault-draft root. Returns the number of chains
/// walked; the error names the first alert whose provenance is broken
/// (no trace id, dangling parent, or a root that is not a fault draft).
pub fn verify_health_alerts(doc: &HealthDoc, records: &[TraceRecord]) -> Result<u64, String> {
    let by_id: BTreeMap<u64, &TraceRecord> = records.iter().map(|r| (r.id, r)).collect();
    let mut walked = 0u64;
    for a in doc.alerts() {
        if a.trace == 0 {
            return Err(format!(
                "alert #{} ({}) carries no trace id — record the run with --trace to verify \
                 alert provenance",
                a.seq, a.rule
            ));
        }
        let mut cur = a.trace;
        let mut steps = 0u32;
        loop {
            let Some(rec) = by_id.get(&cur) else {
                return Err(format!(
                    "alert #{} ({}) references trace id {cur} which is not in the trace",
                    a.seq, a.rule
                ));
            };
            if rec.parent == 0 {
                if rec.kind != "fault_draft" {
                    return Err(format!(
                        "alert #{} ({}) chain ends at `{}` record {} instead of a fault draft",
                        a.seq, a.rule, rec.kind, rec.id
                    ));
                }
                break;
            }
            cur = rec.parent;
            steps += 1;
            if steps > 64 {
                return Err(format!(
                    "alert #{} ({}) chain exceeds 64 steps (parent cycle?)",
                    a.seq, a.rule
                ));
            }
        }
        walked += 1;
    }
    Ok(walked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, class: &'static str, row: u8, col: u8, trace: u64) -> HealthEvent {
        HealthEvent {
            t,
            class,
            hardware: class == "dbe",
            row,
            col,
            cage: 1,
            trace,
        }
    }

    fn quiet_rules() -> Vec<HealthRule> {
        vec![HealthRule::Burst {
            class: "dbe".to_string(),
            count: 1_000_000,
            window_secs: 1,
        }]
    }

    #[test]
    fn disabled_sink_is_inert() {
        let mut h = HealthSink::new(false);
        h.tick(1_000_000);
        h.on_console(ev(5, "dbe", 1, 2, 7));
        let detail: &dyn Fn() -> String = &String::new;
        for event in [
            ObsEvent::Sbe {
                accepted: true,
                parent: 0,
                t: 6,
                card: 3,
                node: 3,
                detail,
            },
            ObsEvent::Retirement {
                parent: 0,
                t: 7,
                card: 3,
                detail,
            },
            ObsEvent::Swap {
                parent: 0,
                t: 8,
                card: 3,
                fired: true,
                spares: 2,
            },
            ObsEvent::Finalize {
                window: 1_000_000,
                jobs_closed: 0,
                final_snapshots: 0,
                console: &[],
                payload_slots: 0,
            },
        ] {
            h.fold(&event, 9);
        }
        assert!(!h.is_enabled());
        let doc = parse_health(&h.render_jsonl(1, 10)).expect("parse");
        assert_eq!(doc.header.intervals, 0);
        assert_eq!(doc.header.alerts, 0);
    }

    #[test]
    fn intervals_flush_on_the_absolute_grid() {
        let mut h = HealthSink::with_rules(true, 100, quiet_rules());
        // The engine ticks the loop clock before feeding each event.
        h.tick(10);
        h.on_console(ev(10, "dbe", 2, 3, 1));
        h.tick(150); // crosses boundary 100
        h.on_console(ev(150, "dbe", 2, 3, 2));
        h.tick(460); // crosses 200, 300, 400 with no events
        h.finish(460);
        let doc = parse_health(&h.render_jsonl(42, 1)).expect("parse");
        let ivs: Vec<&HealthInterval> = doc.intervals().collect();
        // [0,100) [100,200) [200,300) [300,400) [400,460]
        assert_eq!(ivs.len(), 5);
        let counts: Vec<u64> = ivs.iter().map(|i| i.counts.get("dbe").copied().unwrap_or(0)).collect();
        assert_eq!(counts, vec![1, 1, 0, 0, 0]);
        let first = ivs.first().expect("first");
        assert_eq!((first.t_lo, first.t_hi), (0, 100));
        let last = ivs.last().expect("last");
        assert_eq!((last.t_lo, last.t_hi), (400, 460));
        // Heat is cumulative: both events land on cabinet (2,3), cage 1.
        assert_eq!(last.heat_cells.iter().sum::<u64>(), 2);
        assert_eq!(last.hot_cabinets, vec![(2, 2, 3)]);
        assert_eq!(last.heat_cages, vec![0, 2, 0]);
        let sum = doc.summary.expect("summary");
        assert_eq!(sum.t_end, 460);
        assert_eq!(sum.counts.get("dbe"), Some(&2));
    }

    #[test]
    fn rolling_mtbf_spans_the_newest_four_intervals() {
        let mut h = HealthSink::with_rules(true, 100, quiet_rules());
        // 4 events in [0,100), nothing afterwards.
        for t in [10, 20, 30, 40] {
            h.on_console(ev(t, "dbe", 0, 0, 0));
        }
        h.finish(600);
        let doc = parse_health(&h.render_jsonl(1, 1)).expect("parse");
        let mtbfs: Vec<f64> = doc
            .intervals()
            .map(|i| i.mtbf.get("dbe").copied().unwrap_or(-1.0))
            .collect();
        // Interval 0: 100s / 4 events = 25. Interval 3: 400s / 4 = 100.
        // Interval 4: the event interval rolled out → sentinel 0.0.
        assert_eq!(mtbfs, vec![25.0, 50.0, 75.0, 100.0, 0.0, 0.0]);
    }

    #[test]
    fn burst_rule_fires_and_rearms() {
        let rules = vec![HealthRule::Burst {
            class: "dbe".to_string(),
            count: 3,
            window_secs: 60,
        }];
        let mut h = HealthSink::with_rules(true, 1_000, rules);
        for t in [10, 20, 30] {
            h.on_console(ev(t, "dbe", 0, 0, t));
        }
        // Still inside the holdoff (fire + 60 s): one storm, one alert —
        // these three would otherwise re-fill the threshold immediately.
        for t in [40, 50, 60] {
            h.on_console(ev(t, "dbe", 0, 0, t));
        }
        // Far outside the window: re-armed, needs 3 fresh events.
        for t in [500, 510] {
            h.on_console(ev(t, "dbe", 0, 0, t));
        }
        h.finish(1_000);
        let doc = parse_health(&h.render_jsonl(1, 1)).expect("parse");
        let alerts: Vec<&HealthAlert> = doc.alerts().collect();
        assert_eq!(alerts.len(), 1);
        let a = alerts.first().expect("one alert");
        assert_eq!((a.seq, a.t, a.trace), (1, 30, 30));
        assert_eq!(a.rule, "burst");
        assert_eq!(a.class, "dbe");
        assert_eq!((a.value, a.threshold), (3.0, 3.0));
        // The interval record counted it.
        let iv = doc.intervals().next().expect("interval");
        assert_eq!(iv.alerts, 1);

        // A fresh storm after the holdoff fires again.
        let rules = vec![HealthRule::Burst {
            class: "dbe".to_string(),
            count: 3,
            window_secs: 60,
        }];
        let mut h = HealthSink::with_rules(true, 10_000, rules);
        for t in [10, 20, 30, 200, 210, 220] {
            h.on_console(ev(t, "dbe", 0, 0, t));
        }
        h.finish(10_000);
        let doc = parse_health(&h.render_jsonl(1, 1)).expect("parse");
        assert_eq!(doc.alerts().count(), 2);
    }

    #[test]
    fn latched_rules_fire_once() {
        let rules = vec![HealthRule::SpareDepletion { below: 5 }];
        let mut h = HealthSink::with_rules(true, 1_000, rules);
        h.fold(&ObsEvent::LoopStart { spares: 6 }, 0);
        h.on_swap(10, 4, 1);
        h.on_swap(20, 3, 2);
        h.finish(100);
        let doc = parse_health(&h.render_jsonl(1, 1)).expect("parse");
        assert_eq!(doc.alerts().count(), 1);
        let sum = doc.summary.expect("summary");
        assert_eq!(sum.spares, Some(3));
        assert_eq!(sum.swaps, 2);
    }

    #[test]
    fn mtbf_below_fires_at_flush_with_class_trace() {
        let rules = vec![HealthRule::MtbfBelow {
            class: "dbe".to_string(),
            secs: 100.0,
        }];
        let mut h = HealthSink::with_rules(true, 100, rules);
        for t in [10, 20] {
            h.on_console(ev(t, "dbe", 0, 0, 40 + t));
        }
        h.finish(100);
        let doc = parse_health(&h.render_jsonl(1, 1)).expect("parse");
        let a = doc.alerts().next().expect("alert");
        assert_eq!(a.rule, "mtbf_below");
        assert_eq!(a.t, 100);
        assert_eq!(a.value, 50.0);
        assert_eq!(a.trace, 60, "carries the newest dbe event's trace id");
    }

    #[test]
    fn offender_share_tracks_top_cards() {
        let rules = vec![HealthRule::OffenderShare { min_pct: 50.0 }];
        let mut h = HealthSink::with_rules(true, 1_000, rules);
        // Card 7 hoards SBEs; 11 other cards take one each.
        for i in 0..20 {
            h.on_sbe(7, i, 100 + i);
        }
        for card in 10..21 {
            h.on_sbe(card, 30 + card, 200 + card);
        }
        h.finish(1_000);
        let doc = parse_health(&h.render_jsonl(1, 1)).expect("parse");
        let sum = doc.summary.clone().expect("summary");
        let top = sum.top_cards.first().expect("top card");
        assert_eq!(*top, (20, 7));
        assert_eq!(sum.top_cards.len(), 10);
        // Top-10 hold 29 of 31.
        assert!((sum.top10_share_pct - 100.0 * 29.0 / 31.0).abs() < 1e-9);
        let a = doc.alerts().next().expect("offender alert");
        assert_eq!(a.rule, "offender_share");
        assert_eq!(a.class, "sbe");
    }

    #[test]
    fn stripe_matches_incident_math() {
        let mut h = HealthSink::with_rules(true, 1_000_000, quiet_rules());
        // One 4-event incident striped on even columns, one lone event.
        for (i, col) in [0u8, 2, 4, 6].into_iter().enumerate() {
            h.on_console(ev(100 + as_u64(i), STRIPE_CLASS, 0, col, 0));
        }
        h.on_console(ev(10_000, STRIPE_CLASS, 5, 1, 0));
        h.finish(1_000_000);
        let doc = parse_health(&h.render_jsonl(1, 1)).expect("parse");
        let sum = doc.summary.expect("summary");
        assert_eq!(sum.stripe_incidents, 2);
        // Both incidents are pure-parity: contrast 1.
        assert!((sum.stripe_contrast - 1.0).abs() < 1e-12);
        // Null: (4·sqrt(2/(4π)) + 1·sqrt(2/π)) / 5.
        let expect = (4.0 * (2.0 / (std::f64::consts::PI * 4.0)).sqrt()
            + (2.0 / std::f64::consts::PI).sqrt())
            / 5.0;
        assert!((sum.stripe_null - expect).abs() < 1e-12, "{}", sum.stripe_null);
    }

    #[test]
    fn snapshot_roundtrips_and_resumes_identically() {
        let mk = || {
            let mut h = HealthSink::with_rules(
                true,
                100,
                vec![HealthRule::Burst {
                    class: "dbe".to_string(),
                    count: 2,
                    window_secs: 1_000,
                }],
            );
            h.fold(&ObsEvent::LoopStart { spares: 48 }, 0);
            h.on_console(ev(10, "dbe", 1, 1, 1));
            h.on_sbe(3, 20, 2);
            h.tick(120);
            h.on_retirement(130, 3);
            h
        };
        let feed_rest = |h: &mut HealthSink| {
            h.on_console(ev(140, "dbe", 1, 2, 4));
            h.on_swap(150, 40, 5);
            h.finish(300);
        };
        // Uninterrupted.
        let mut a = mk();
        feed_rest(&mut a);
        // Snapshot at the cut, restore into a fresh enabled sink.
        let cut = mk();
        let snap = cut.snap();
        let json = serde_json::to_string(&snap).expect("snap json");
        let back: HealthSnap = serde_json::from_str(&json).expect("snap parse");
        assert_eq!(snap, back, "snapshot JSON roundtrip");
        let mut b = HealthSink::with_rules(
            true,
            100,
            vec![HealthRule::Burst {
                class: "dbe".to_string(),
                count: 2,
                window_secs: 1_000,
            }],
        );
        b.restore(&back).expect("restore");
        feed_rest(&mut b);
        assert_eq!(a.render_jsonl(9, 1), b.render_jsonl(9, 1));
        // The burst window straddled the cut: the alert still fired.
        let doc = parse_health(&b.render_jsonl(9, 1)).expect("parse");
        assert_eq!(doc.alerts().filter(|a| a.rule == "burst").count(), 1);
        // An open interval off the grid is refused: no paused run
        // holds one.
        let mut bad = back.clone();
        bad.cur_lo += 1;
        assert!(b.restore(&bad).is_err(), "{bad:?}");
        // A disabled sink ignores restore.
        let mut inert = HealthSink::new(false);
        inert.restore(&back).expect("inert restore");
        assert_eq!(inert.snap(), HealthSink::new(false).snap());
    }

    #[test]
    fn render_parse_roundtrip_and_views() {
        let mut h = HealthSink::with_rules(true, 50, olcf_default_rules());
        h.fold(&ObsEvent::LoopStart { spares: 48 }, 0);
        for t in 0..30 {
            h.on_console(ev(t, "dbe", 3, 4, t + 1));
            h.tick(t);
        }
        h.on_swap(40, 30, 99);
        h.finish(120);
        let text = h.render_jsonl(7, 2);
        assert!(text.starts_with("{\"schema\":\"titan-health/1\""));
        let doc = parse_health(&text).expect("parse");
        assert_eq!(doc.header.seed, 7);
        assert_eq!(as_u64(doc.intervals().count()), doc.header.intervals);
        assert_eq!(as_u64(doc.alerts().count()), doc.header.alerts);
        assert!(doc.summary.is_some());
        let s = summarize_health(&doc);
        assert!(s.contains("titan-health seed 7"), "{s}");
        assert!(s.contains("class totals"), "{s}");
        let w = watch_health(&doc);
        assert!(w.contains("=== interval 0"), "{w}");
        assert!(w.contains("col0 |"), "{w}");
        // Spare depletion (30 < 40) fired and both views list it.
        assert!(s.contains("spare_depletion"), "{s}");
        assert!(w.contains("spare_depletion"), "{w}");
        // Garbage rejects cleanly.
        assert!(parse_health("").is_err());
        assert!(parse_health("{\"schema\":\"nope/9\"}").is_err());
        let broken = format!("{}\nnot json", text.lines().next().expect("header"));
        assert!(parse_health(&broken).is_err());
    }

    fn trace_rec(id: u64, parent: u64, kind: &str) -> TraceRecord {
        TraceRecord {
            id,
            parent,
            kind: kind.to_string(),
            ts: 0,
            card: None,
            node: None,
            apid: None,
            payload: String::new(),
        }
    }

    #[test]
    fn alert_provenance_walks_to_fault_drafts() {
        let mut h = HealthSink::with_rules(
            true,
            1_000,
            vec![HealthRule::Burst {
                class: "dbe".to_string(),
                count: 1,
                window_secs: 10,
            }],
        );
        h.on_console(ev(5, "dbe", 0, 0, 3));
        h.finish(1_000);
        let doc = parse_health(&h.render_jsonl(1, 1)).expect("parse");
        let records = vec![
            trace_rec(1, 0, "fault_draft"),
            trace_rec(2, 1, "engine_event"),
            trace_rec(3, 2, "console_line"),
        ];
        assert_eq!(verify_health_alerts(&doc, &records), Ok(1));
        // A chain rooted off a fault draft fails.
        let bad_root = vec![
            trace_rec(1, 0, "console_line"),
            trace_rec(2, 1, "engine_event"),
            trace_rec(3, 2, "console_line"),
        ];
        assert!(verify_health_alerts(&doc, &bad_root).is_err());
        // A dangling parent fails.
        let dangling = vec![trace_rec(3, 99, "console_line")];
        assert!(verify_health_alerts(&doc, &dangling).is_err());
        // An untraced alert (trace 0) fails with a helpful message.
        let mut h0 = HealthSink::with_rules(
            true,
            1_000,
            vec![HealthRule::Burst {
                class: "dbe".to_string(),
                count: 1,
                window_secs: 10,
            }],
        );
        h0.on_console(ev(5, "dbe", 0, 0, 0));
        h0.finish(1_000);
        let doc0 = parse_health(&h0.render_jsonl(1, 1)).expect("parse");
        let err = verify_health_alerts(&doc0, &records).expect_err("no trace id");
        assert!(err.contains("--trace"), "{err}");
    }
}
