//! titan-prof: the deterministic cost ledger (`titan-prof/2`).
//!
//! The paper's method is attribution — every observed failure tied back
//! to a location, class, and cause — and the ROADMAP's raw-speed push
//! needs the same discipline applied to the simulator itself: *which
//! event kind, queue operation, or allocation pays for each event?*
//! This module answers that with a [`ProfLedger`] threaded through the
//! engine hot loop, charging every deterministic cost to a named scope:
//!
//! * **event kinds** (`ev:dbe`, `ev:sbe`, …) — one scope per hot-loop
//!   dispatch arm, switched at each heap pop;
//! * **phases** (`engine:workload`, `cli:collect_metrics`, …) — the
//!   existing [`crate::Obs::phase`] markers, which now double as ledger
//!   scopes for everything outside the loop.
//!
//! Per scope the ledger counts dequeues, heap pushes, console lines and
//! bytes formatted, RNG draws, trace records minted, and — via an
//! injected allocator probe — allocations, allocated bytes, and frees.
//! Determinism comes in tiers. The count columns (dequeues, pushes,
//! console, RNG, trace) are pure simulation arithmetic: byte-identical
//! across thread widths, hosts, *and* `--from-checkpoint` resume. The
//! allocator columns are thread-local counts on the engine thread; lint
//! rule D4 keeps the engine single-threaded, so the *engine* scopes'
//! (`ev:*`, `engine:*`) alloc numbers are a deterministic function of
//! the seed across thread widths — but CLI/study scopes cover
//! rayon-parallel work whose inline-vs-worker placement depends on the
//! pool width, so their alloc counters are host-variant
//! ([`ProfDoc::deterministic_json`] zeroes them). On a pool wider than
//! one, `study:render_parse_logs` counts only the caller's share of the
//! log round trip: the console and aprun logs and the job log's tail
//! are parsed on the join's other thread, whose allocations its own
//! counters see. And no alloc counter
//! survives resume ([`ProfDoc::invariant_json`] — heap capacity is
//! host-process state a checkpoint does not carry, so a resumed run's
//! realloc pattern differs from the straight run's).
//!
//! ## The wall-clock quarantine (lint D5)
//!
//! The engine never sees a clock. Wall-time attribution goes through
//! [`crate::Obs::set_prof_wall_hook`]: the ledger fires a registered
//! hook with the new scope's static name on every scope *change*, and a
//! non-engine caller (the CLI / `titan-bench`) timestamps the edges on
//! its side. The resulting [`WallDoc`] is carried in the **last** field
//! of [`ProfDoc`] and every byte-identity comparison strips it first —
//! no wall-clock value ever enters a digest.
//!
//! ## Delta attribution
//!
//! RNG draws, trace mints, and allocator counts are monotone totals
//! owned elsewhere (the engine's RNGs, [`crate::TraceStream`], the
//! binary's counting allocator). The ledger snapshots each total at
//! every scope switch and charges the delta to the scope being closed.
//! Checkpoint resume restores the scope table from the snapshot and
//! marks a *rebaseline*: the first switch after restore discards the
//! restore-machinery delta and re-reads the watermarks, so a resumed
//! run's ledger continues byte-for-byte where the original left off.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::{count, ObsEvent};
use crate::export::MetricsDoc;

/// Schema identifier written into every profile document. `/2` replaces
/// the retired coarse wall-clock phase table (`titan-profile/1`) with
/// the deterministic per-kind cost ledger.
pub const PROF_SCHEMA: &str = "titan-prof/2";

/// Hot-loop cost scopes: one per dispatch arm plus the horizon drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// Job-start events.
    JobStart,
    /// Job-end events.
    JobEnd,
    /// Double-bit-error events.
    Dbe,
    /// Off-the-bus events.
    Otb,
    /// SBE draft events (accepted or thinned).
    Sbe,
    /// Software-XID events.
    Soft,
    /// Cascade-child events.
    Child,
    /// Deferred retirement-record events.
    RetireRecord,
    /// Hot-spare swap events.
    Swap,
    /// Events dropped at the study horizon.
    Horizon,
}

impl CostKind {
    /// All kinds, in dispatch order.
    pub const ALL: [CostKind; 10] = [
        CostKind::JobStart,
        CostKind::JobEnd,
        CostKind::Dbe,
        CostKind::Otb,
        CostKind::Sbe,
        CostKind::Soft,
        CostKind::Child,
        CostKind::RetireRecord,
        CostKind::Swap,
        CostKind::Horizon,
    ];

    /// Stable ledger key; the `ev:` prefix separates event kinds from
    /// phase scopes in the flat scope namespace.
    pub fn name(self) -> &'static str {
        match self {
            CostKind::JobStart => "ev:job_start",
            CostKind::JobEnd => "ev:job_end",
            CostKind::Dbe => "ev:dbe",
            CostKind::Otb => "ev:otb",
            CostKind::Sbe => "ev:sbe",
            CostKind::Soft => "ev:soft",
            CostKind::Child => "ev:child",
            CostKind::RetireRecord => "ev:retire_record",
            CostKind::Swap => "ev:swap",
            CostKind::Horizon => "ev:horizon",
        }
    }

    /// Inverse of [`CostKind::name`].
    pub fn parse(name: &str) -> Option<CostKind> {
        CostKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            CostKind::JobStart => 0,
            CostKind::JobEnd => 1,
            CostKind::Dbe => 2,
            CostKind::Otb => 3,
            CostKind::Sbe => 4,
            CostKind::Soft => 5,
            CostKind::Child => 6,
            CostKind::RetireRecord => 7,
            CostKind::Swap => 8,
            CostKind::Horizon => 9,
        }
    }
}

/// Deterministic cost counters for one scope. Field order is frozen by
/// the `titan-prof-2` golden spec (these structs serialize inside
/// [`ProfDoc`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindCost {
    /// Heap pops dispatched to this scope (0 for phase scopes).
    pub dequeues: u64,
    /// Heap pushes performed while this scope was open.
    pub heap_pushes: u64,
    /// Console lines emitted.
    pub console_lines: u64,
    /// Exact rendered bytes of those console lines.
    pub console_bytes: u64,
    /// RNG draws (`next_u64` invocations across every engine stream).
    pub rng_draws: u64,
    /// Flight-recorder records minted.
    pub trace_records: u64,
    /// Heap allocations (counting global allocator; 0 without a probe).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Heap frees.
    pub frees: u64,
}

impl KindCost {
    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &KindCost) {
        self.dequeues += other.dequeues;
        self.heap_pushes += other.heap_pushes;
        self.console_lines += other.console_lines;
        self.console_bytes += other.console_bytes;
        self.rng_draws += other.rng_draws;
        self.trace_records += other.trace_records;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
        self.frees += other.frees;
    }

    /// True when every counter is zero (such scopes stay out of the
    /// exported ledger to keep the document stable across configs).
    pub fn is_zero(&self) -> bool {
        *self == KindCost::default()
    }
}

/// A monotone snapshot of the process allocator, read through the probe
/// installed by the binary (the engine crates forbid `unsafe`, so the
/// counting `GlobalAlloc` lives in the CLI and reaches the ledger as a
/// plain function pointer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations since process start (current thread).
    pub allocs: u64,
    /// Bytes requested since process start.
    pub bytes: u64,
    /// Frees since process start.
    pub frees: u64,
}

/// The open scope a span is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Nothing open: deltas are discarded (pre-engine CLI startup).
    Idle,
    /// An event kind, by [`CostKind::index`].
    Kind(usize),
    /// A phase scope, by index into the phase table.
    Phase(usize),
}

/// The deterministic cost ledger. Disabled ledgers are inert: every
/// record call is one branch, so the uninstrumented hot loop stays
/// within the `bench_pr` prof-overhead gate (≤ 1%).
pub struct ProfLedger {
    enabled: bool,
    kinds: [KindCost; CostKind::ALL.len()],
    /// Phase scopes in first-seen order. Keys are owned strings so a
    /// checkpoint-restored table (which arrives as parsed JSON) can be
    /// re-installed without a `&'static` round trip.
    phases: Vec<(String, KindCost)>,
    current: Scope,
    last_rng: u64,
    last_trace: u64,
    last_alloc: AllocStats,
    /// Set after checkpoint capture/restore: the next switch re-reads
    /// every watermark and discards the machinery delta.
    rebaseline: bool,
    alloc_probe: Option<fn() -> AllocStats>,
    wall_hook: Option<Box<dyn FnMut(&'static str)>>,
}

impl std::fmt::Debug for ProfLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfLedger")
            .field("enabled", &self.enabled)
            .field("current", &self.current)
            .field("phases", &self.phases.len())
            .field("alloc_probe", &self.alloc_probe.is_some())
            .field("wall_hook", &self.wall_hook.is_some())
            .finish()
    }
}

impl ProfLedger {
    /// A ledger with collection on or off.
    pub fn new(enabled: bool) -> Self {
        ProfLedger {
            enabled,
            kinds: [KindCost::default(); CostKind::ALL.len()],
            phases: Vec::new(),
            current: Scope::Idle,
            last_rng: 0,
            last_trace: 0,
            last_alloc: AllocStats::default(),
            rebaseline: false,
            alloc_probe: None,
            wall_hook: None,
        }
    }

    /// Whether the ledger records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Installs the allocator probe (a plain function pointer into the
    /// binary's counting global allocator).
    pub fn set_alloc_probe(&mut self, probe: fn() -> AllocStats) {
        self.alloc_probe = probe.into();
    }

    /// Installs the wall-clock edge hook, fired with the new scope's
    /// static name on every scope *change* — the D5 bridge behind
    /// [`crate::Obs::set_prof_wall_hook`]: the ledger reports edges, the
    /// non-engine caller owns the clock.
    pub fn set_wall_hook(&mut self, hook: Box<dyn FnMut(&'static str)>) {
        self.wall_hook = Some(hook);
    }

    /// The cost ledger's fold over one engine event; `trace_total` is
    /// the flight recorder's id watermark (events that switch scopes
    /// mint no record, so it is the same before and after them).
    /// Phase boundaries outside the loop reuse the carried RNG
    /// watermark: no engine RNG is in scope there to total.
    pub(crate) fn fold(&mut self, ev: &ObsEvent<'_>, trace_total: u64) {
        if !self.enabled {
            return;
        }
        let rng = self.last_rng;
        match *ev {
            ObsEvent::Phase(name) => self.switch_phase(name, rng, trace_total),
            ObsEvent::LoopStart { .. } => self.switch_phase("engine:event_loop", rng, trace_total),
            ObsEvent::Finalize { .. } => self.switch_phase("engine:finalize", rng, trace_total),
            ObsEvent::Draws(draws) => self.charge(|c| c.rng_draws += draws),
            ObsEvent::DraftStream { pushed, .. } => self.charge(|c| c.heap_pushes += count(pushed)),
            // Pushes since the last pop were made by the event still
            // open, so they are charged before the switch.
            ObsEvent::Dequeue {
                kind,
                rng_draws,
                pushed,
                ..
            } => {
                self.charge(|c| c.heap_pushes += count(pushed));
                self.switch_kind(kind, rng_draws, trace_total);
            }
            ObsEvent::Fault { lines, .. } => {
                for line in lines {
                    let bytes = count(titan_conlog::rendered_len(line));
                    self.charge(|c| {
                        c.console_lines += 1;
                        c.console_bytes += bytes;
                    });
                }
            }
            // The slice closes with the true loop totals, so a
            // checkpoint captured here rides a fully attributed table.
            ObsEvent::SliceEnd { rng_draws, pushed } => {
                self.charge(|c| c.heap_pushes += count(pushed));
                self.close_span(rng_draws, trace_total);
            }
            _ => {}
        }
    }

    /// Closes the open span with the carried watermarks: the last
    /// charge of a run, after its final phase.
    pub(crate) fn finish(&mut self, trace_total: u64) {
        if self.enabled {
            self.close_span(self.last_rng, trace_total);
        }
    }

    fn scope_slot(&mut self, scope: Scope) -> Option<&mut KindCost> {
        match scope {
            Scope::Idle => None,
            Scope::Kind(i) => self.kinds.get_mut(i),
            Scope::Phase(i) => self.phases.get_mut(i).map(|(_, c)| c),
        }
    }

    /// Closes the open span: charges watermark deltas to the current
    /// scope (or discards them — idle scope or pending rebaseline) and
    /// advances every watermark.
    fn close_span(&mut self, rng_total: u64, trace_total: u64) {
        let alloc = self.alloc_probe.map(|p| p()).unwrap_or_default();
        if self.rebaseline {
            self.rebaseline = false;
        } else {
            let rng = rng_total.wrapping_sub(self.last_rng);
            let trace = trace_total.wrapping_sub(self.last_trace);
            let allocs = alloc.allocs.wrapping_sub(self.last_alloc.allocs);
            let bytes = alloc.bytes.wrapping_sub(self.last_alloc.bytes);
            let frees = alloc.frees.wrapping_sub(self.last_alloc.frees);
            if let Some(slot) = self.scope_slot(self.current) {
                slot.rng_draws += rng;
                slot.trace_records += trace;
                slot.allocs += allocs;
                slot.alloc_bytes += bytes;
                slot.frees += frees;
            }
        }
        self.last_rng = rng_total;
        self.last_trace = trace_total;
        self.last_alloc = alloc;
    }

    /// Switches to an event-kind scope at a heap pop. Consecutive pops
    /// of the same kind skip the switch entirely (the open span keeps
    /// accumulating), so a run of SBE drafts costs one compare and one
    /// increment per event.
    #[inline]
    fn switch_kind(&mut self, kind: CostKind, rng_total: u64, trace_total: u64) {
        let idx = kind.index();
        if self.current == Scope::Kind(idx) && !self.rebaseline {
            // lint: allow(P2, kind.index() < ALL.len() == kinds.len() by construction)
            self.kinds[idx].dequeues += 1;
            return;
        }
        self.close_span(rng_total, trace_total);
        self.current = Scope::Kind(idx);
        // lint: allow(P2, kind.index() < ALL.len() == kinds.len() by construction)
        self.kinds[idx].dequeues += 1;
        if let Some(hook) = &mut self.wall_hook {
            hook(kind.name());
        }
        self.skip_own_allocs();
    }

    /// Switches to a phase scope.
    fn switch_phase(&mut self, name: &'static str, rng_total: u64, trace_total: u64) {
        self.close_span(rng_total, trace_total);
        let idx = match self.phases.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.phases.push((name.to_string(), KindCost::default()));
                self.phases.len() - 1
            }
        };
        self.current = Scope::Phase(idx);
        if let Some(hook) = &mut self.wall_hook {
            hook(name);
        }
        self.skip_own_allocs();
    }

    /// Re-reads the allocator watermark once a switch's own bookkeeping
    /// and wall hook are done: the ledger never charges a scope for its
    /// own allocations, which a resumed run (whose restored table already
    /// names every scope) would not repeat.
    fn skip_own_allocs(&mut self) {
        if let Some(probe) = self.alloc_probe {
            self.last_alloc = probe();
        }
    }

    /// Marks a rebaseline: the next switch discards its delta and
    /// re-reads every watermark. Called after checkpoint capture (the
    /// serialization machinery's allocations must not leak into the
    /// next scope) and by [`ProfLedger::restore`].
    pub fn mark_rebaseline(&mut self) {
        if self.enabled {
            self.rebaseline = true;
        }
    }

    /// Applies `f` to the open scope's row (nothing while idle).
    #[inline]
    fn charge(&mut self, f: impl FnOnce(&mut KindCost)) {
        let scope = self.current;
        if let Some(slot) = self.scope_slot(scope) {
            f(slot);
        }
    }

    /// The deterministic ledger as a sorted map: every event kind with
    /// nonzero cost plus every phase scope seen.
    pub fn ledger_map(&self) -> BTreeMap<String, KindCost> {
        let mut out = BTreeMap::new();
        for kind in CostKind::ALL {
            // lint: allow(P2, kind.index() < ALL.len() == kinds.len() by construction)
            let cost = self.kinds[kind.index()];
            if !cost.is_zero() {
                out.insert(kind.name().to_string(), cost);
            }
        }
        for (name, cost) in &self.phases {
            if !cost.is_zero() {
                out.insert(name.clone(), *cost);
            }
        }
        out
    }

    /// Plain-data copy for the checkpoint ride-along, allocator columns
    /// written as 0.
    pub fn snap(&self) -> ProfSnap {
        let mut scopes = Vec::new();
        for kind in CostKind::ALL {
            // lint: allow(P2, kind.index() < ALL.len() == kinds.len() by construction)
            let cost = self.kinds[kind.index()];
            if !cost.is_zero() {
                scopes.push((kind.name().to_string(), cost));
            }
        }
        for (name, cost) in &self.phases {
            scopes.push((name.clone(), *cost));
        }
        // No allocator column survives resume (heap capacity is process
        // state a checkpoint does not carry; see
        // [`ProfDoc::invariant_json`]), so none rides the hashed bytes.
        for (_, cost) in &mut scopes {
            cost.allocs = 0;
            cost.alloc_bytes = 0;
            cost.frees = 0;
        }
        ProfSnap { scopes }
    }

    /// Overwrites the scope table from a checkpoint and marks a
    /// rebaseline. Inert when the ledger is off, matching the
    /// disabled-sink-is-inert invariant of every other sub-sink.
    pub fn restore(&mut self, snap: &ProfSnap) {
        if !self.enabled {
            return;
        }
        self.kinds = [KindCost::default(); CostKind::ALL.len()];
        self.phases.clear();
        for (name, cost) in &snap.scopes {
            match CostKind::parse(name) {
                // lint: allow(P2, kind.index() < ALL.len() == kinds.len() by construction)
                Some(kind) => self.kinds[kind.index()] = *cost,
                None => self.phases.push((name.clone(), *cost)),
            }
        }
        self.current = Scope::Idle;
        self.rebaseline = true;
    }
}

/// The prof ledger's checkpoint section (`obs.prof`): scope table in
/// kind-then-phase order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfSnap {
    /// `(scope name, cost)` rows, kinds first, phases in seen order.
    pub scopes: Vec<(String, KindCost)>,
}

/// One wall-clock row of [`WallDoc`] (quarantined — see module docs).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WallScope {
    /// Scope name (an `ev:` kind or a phase marker).
    pub name: String,
    /// Total wall time attributed to the scope, milliseconds.
    pub wall_ms: f64,
    /// Scope-entry edges observed (contiguous same-kind runs count 1).
    pub switches: u64,
}

/// The wall-clock section of a [`ProfDoc`] — host-dependent by nature,
/// carried **last** in the document and stripped before every
/// byte-identity comparison. Built outside the engine (lint D5) from
/// the edge hook; an engine-only consumer may ignore it entirely.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WallDoc {
    /// Wall time from ledger arm to document build, milliseconds.
    pub total_ms: f64,
    /// Wall time inside named scopes, milliseconds.
    pub attributed_ms: f64,
    /// `attributed_ms / total_ms`, percent (the acceptance bar is 95).
    pub attributed_pct: f64,
    /// Per-scope rows, largest first.
    pub scopes: Vec<WallScope>,
}

/// The frozen `titan-prof/2` document (`profile --json`, `run --prof`).
/// Everything before `wall` is deterministic: byte-identical for a
/// fixed seed across thread widths, hosts, and checkpoint resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfDoc {
    /// Schema identifier ([`PROF_SCHEMA`]).
    pub schema: String,
    /// Seed the window ran with.
    pub seed: u64,
    /// Window length in days.
    pub window_days: u64,
    /// Deterministic per-scope cost rows, sorted by scope name.
    pub ledger: BTreeMap<String, KindCost>,
    /// Sum over every scope.
    pub totals: KindCost,
    /// The run's full metrics document. It names its own schema
    /// (`titan-obs/3`), so a metrics bump leaves `titan-prof/2` as is.
    pub metrics: MetricsDoc,
    /// Host wall-clock attribution — the one non-deterministic section,
    /// last on purpose; strip before comparing documents.
    pub wall: WallDoc,
}

impl ProfDoc {
    /// Assembles a document from a finished run's closed ledger
    /// ([`ProfLedger::ledger_map`]) and metrics document, whose seed and
    /// window it shares.
    pub fn build(
        ledger: BTreeMap<String, KindCost>,
        metrics: MetricsDoc,
        wall: WallDoc,
    ) -> ProfDoc {
        let mut totals = KindCost::default();
        for cost in ledger.values() {
            totals.add(cost);
        }
        ProfDoc {
            schema: PROF_SCHEMA.to_string(),
            seed: metrics.seed,
            window_days: metrics.window_days,
            ledger,
            totals,
            metrics,
            wall,
        }
    }

    /// Pretty JSON with trailing newline, like every other artifact.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string());
        s.push('\n');
        s
    }

    /// The deterministic section: the document with the quarantined
    /// `wall` zeroed and the allocator counters of the *non-engine*
    /// scopes zeroed too. Byte-identical for a fixed seed across thread
    /// widths and hosts — this is the form digests and cross-width
    /// comparisons use.
    ///
    /// Engine scopes (`ev:*`, `engine:*`) keep their allocator tallies:
    /// D4 keeps the engine single-threaded, so every engine allocation
    /// lands on the counted thread regardless of pool width. CLI and
    /// study scopes cover figure evaluation that fans out on rayon, and
    /// whether that work runs inline (counted) or on pool workers
    /// (uncounted) depends on the pool width — so their alloc counters
    /// are host-variant, the same class as wall clock.
    // lint: allow(X1, the form the thread-width determinism tests compare prof documents in)
    pub fn deterministic_json(&self) -> String {
        let mut doc = self.clone();
        doc.wall = WallDoc::default();
        let mut engine_totals = (0u64, 0u64, 0u64);
        for (name, cost) in doc.ledger.iter_mut() {
            if name.starts_with("ev:") || name.starts_with("engine:") {
                engine_totals.0 += cost.allocs;
                engine_totals.1 += cost.alloc_bytes;
                engine_totals.2 += cost.frees;
            } else {
                cost.allocs = 0;
                cost.alloc_bytes = 0;
                cost.frees = 0;
            }
        }
        // Keep the totals row the exact column sum of the rows above.
        doc.totals.allocs = engine_totals.0;
        doc.totals.alloc_bytes = engine_totals.1;
        doc.totals.frees = engine_totals.2;
        doc.to_json()
    }

    /// The resume-invariant section: [`ProfDoc::deterministic_json`]
    /// with the allocator counters additionally zeroed. Allocation
    /// counts are deterministic for a given invocation shape, but *not*
    /// across `--from-checkpoint` resume: heap capacity is host-process
    /// state the checkpoint deliberately does not carry, so restore
    /// rebuilds collections at exact size and the subsequent
    /// growth/realloc pattern legitimately differs from the straight
    /// run's amortized doubling. Everything else — dequeues, pushes,
    /// console, RNG, trace — is machine-state arithmetic and survives
    /// resume byte for byte.
    // lint: allow(X1, the form the resume determinism tests compare prof documents in)
    pub fn invariant_json(&self) -> String {
        let mut doc = self.clone();
        doc.wall = WallDoc::default();
        let strip = |c: &mut KindCost| {
            c.allocs = 0;
            c.alloc_bytes = 0;
            c.frees = 0;
        };
        for cost in doc.ledger.values_mut() {
            strip(cost);
        }
        strip(&mut doc.totals);
        doc.to_json()
    }

    /// Collapsed-stack flamegraph lines (`inferno` / `flamegraph.pl`
    /// input): one `titan;<group>;<scope> <µs>` line per wall scope,
    /// event kinds nested under `engine:event_loop`. Wall-derived, so
    /// quarantined with [`WallDoc`].
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for scope in &self.wall.scopes {
            // lint: allow(N1, rounded non-negative ms→µs fits u64 for any real run)
            let us = (scope.wall_ms * 1000.0).round().max(0.0) as u64;
            if scope.name.starts_with("ev:") {
                out.push_str(&format!("titan;engine:event_loop;{} {us}\n", scope.name));
            } else {
                out.push_str(&format!("titan;{} {us}\n", scope.name));
            }
        }
        out
    }

    /// Perfetto / Chrome counter tracks from the deterministic
    /// `timeseries` section: one `"ph": "C"` event per sim-time bucket
    /// per series, sim-µs timestamps. Contains no wall-clock values, so
    /// the output is byte-identical for a fixed seed.
    pub fn perfetto_counters(&self) -> String {
        let ts = &self.metrics.timeseries;
        let mut out = String::from("[");
        let mut first = true;
        for (name, buckets) in &ts.series {
            for (i, &v) in buckets.iter().enumerate() {
                if !first {
                    out.push(',');
                }
                first = false;
                // Sim seconds → trace µs; bucket start marks the sample.
                // lint: allow(N1, bucket index: usize to u64 is lossless on 64-bit targets)
                let t = (i as u64) * ts.bucket_secs * 1_000_000;
                out.push_str(&format!(
                    "\n{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{t},\"pid\":1,\
                     \"args\":{{\"value\":{v}}}}}"
                ));
            }
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn kind_names_round_trip() {
        for kind in CostKind::ALL {
            assert_eq!(CostKind::parse(kind.name()), Some(kind));
            assert!(kind.name().starts_with("ev:"));
        }
        assert_eq!(CostKind::parse("engine:event_loop"), None);
    }

    /// A heap pop of `kind` with `rng` loop draws so far.
    fn pop(kind: CostKind, rng: u64) -> ObsEvent<'static> {
        ObsEvent::Dequeue {
            t: 0,
            kind,
            rng_draws: rng,
            pushed: 0,
            depth: 1,
        }
    }

    /// A slice end with `rng` loop draws so far.
    fn slice_end(rng: u64) -> ObsEvent<'static> {
        ObsEvent::SliceEnd {
            rng_draws: rng,
            pushed: 0,
        }
    }

    fn pushes(n: usize) -> ObsEvent<'static> {
        ObsEvent::DraftStream {
            pushed: n,
            counts: &Vec::new,
        }
    }

    /// Charges one console line of `bytes` rendered bytes.
    fn line(l: &mut ProfLedger, bytes: u64) {
        l.charge(|c| {
            c.console_lines += 1;
            c.console_bytes += bytes;
        });
    }

    #[test]
    fn disabled_ledger_is_inert() {
        let mut l = ProfLedger::new(false);
        l.fold(&pop(CostKind::Dbe, 10), 10);
        l.fold(&pushes(3), 10);
        l.fold(&ObsEvent::Draws(5), 10);
        l.fold(&slice_end(20), 20);
        assert!(l.ledger_map().is_empty());
        assert!(l.snap().scopes.is_empty());
    }

    #[test]
    fn deltas_charge_the_closed_scope() {
        let mut l = ProfLedger::new(true);
        l.fold(&ObsEvent::Phase("engine:workload"), 0);
        l.fold(&ObsEvent::Draws(100), 0);
        l.fold(&pushes(7), 0);
        // First pop: closes the workload span (no loop draws yet).
        l.fold(&pop(CostKind::Sbe, 0), 0);
        // Same-kind pops accumulate without switching.
        l.fold(&pop(CostKind::Sbe, 0), 0);
        l.fold(&pop(CostKind::Sbe, 0), 0);
        line(&mut l, 40);
        line(&mut l, 42);
        // Kind change: the SBE span closes with 5 draws and 2 mints.
        l.fold(&pop(CostKind::Dbe, 5), 2);
        // The DBE's push is reported by the slice end, which closes the
        // span with the final totals.
        l.fold(
            &ObsEvent::SliceEnd {
                rng_draws: 9,
                pushed: 1,
            },
            3,
        );

        let map = l.ledger_map();
        let wl = &map["engine:workload"];
        assert_eq!(wl.rng_draws, 100);
        assert_eq!(wl.heap_pushes, 7);
        assert_eq!(wl.dequeues, 0);
        let sbe = &map["ev:sbe"];
        assert_eq!(sbe.dequeues, 3);
        assert_eq!(sbe.rng_draws, 5);
        assert_eq!(sbe.trace_records, 2);
        assert_eq!(sbe.console_lines, 2);
        assert_eq!(sbe.console_bytes, 82);
        let dbe = &map["ev:dbe"];
        assert_eq!(dbe.dequeues, 1);
        assert_eq!(dbe.rng_draws, 4);
        assert_eq!(dbe.trace_records, 1);
        assert_eq!(dbe.heap_pushes, 1);
        let mut totals = KindCost::default();
        map.values().for_each(|c| totals.add(c));
        assert_eq!(totals.dequeues, 4);
        assert_eq!(totals.rng_draws, 109);
    }

    #[test]
    fn pushes_reported_at_a_pop_charge_the_event_before_it() {
        let mut l = ProfLedger::new(true);
        l.fold(&pop(CostKind::Dbe, 0), 0);
        l.fold(
            &ObsEvent::Dequeue {
                t: 0,
                kind: CostKind::Child,
                rng_draws: 0,
                pushed: 2,
                depth: 1,
            },
            0,
        );
        l.fold(&slice_end(0), 0);
        let map = l.ledger_map();
        assert_eq!(map["ev:dbe"].heap_pushes, 2);
        assert_eq!(map["ev:child"].heap_pushes, 0);
    }

    #[test]
    fn idle_deltas_are_discarded() {
        let mut l = ProfLedger::new(true);
        // Draws before the first scope (CLI startup) charge nothing.
        l.fold(&pop(CostKind::Sbe, 50), 5);
        l.fold(&slice_end(50), 5);
        let map = l.ledger_map();
        assert_eq!(map["ev:sbe"].rng_draws, 0);
        assert_eq!(map["ev:sbe"].trace_records, 0);
        assert_eq!(map["ev:sbe"].dequeues, 1);
    }

    #[test]
    fn rebaseline_discards_the_machinery_delta() {
        let mut l = ProfLedger::new(true);
        l.fold(&pop(CostKind::Sbe, 0), 0);
        l.fold(&slice_end(10), 1);
        assert_eq!(l.ledger_map()["ev:sbe"].rng_draws, 10);
        // Checkpoint capture happens here; its costs must vanish.
        l.mark_rebaseline();
        l.fold(&pop(CostKind::Dbe, 999), 99);
        l.fold(&slice_end(1004), 101);
        let map = l.ledger_map();
        assert_eq!(map["ev:sbe"].rng_draws, 10);
        assert_eq!(map["ev:dbe"].rng_draws, 5);
        assert_eq!(map["ev:dbe"].trace_records, 2);
    }

    #[test]
    fn snap_restore_round_trips_and_rebaselines() {
        let mut l = ProfLedger::new(true);
        l.fold(&ObsEvent::Phase("engine:workload"), 0);
        l.fold(&ObsEvent::Draws(11), 0);
        l.fold(&pop(CostKind::Swap, 0), 0);
        l.fold(&slice_end(3), 1);
        let snap = l.snap();

        let mut r = ProfLedger::new(true);
        // Pollute with restore-machinery history, as a real resume does.
        r.fold(&ObsEvent::Phase("engine:workload"), 0);
        r.fold(&ObsEvent::Draws(999_999), 0);
        r.restore(&snap);
        // The table is the checkpoint's, wholesale.
        assert_eq!(r.ledger_map(), l.ledger_map());
        // And the first post-restore switch discards its delta.
        r.fold(&pop(CostKind::Sbe, 77), 7);
        r.fold(&slice_end(80), 8);
        assert_eq!(r.ledger_map()["ev:sbe"].rng_draws, 3);

        // Restoring into a disabled ledger is inert.
        let mut off = ProfLedger::new(false);
        off.restore(&snap);
        assert!(off.ledger_map().is_empty());
    }

    #[test]
    fn snap_writes_the_allocator_columns_as_zero() {
        fn counting_probe() -> AllocStats {
            thread_local!(static N: std::cell::Cell<u64> = const { std::cell::Cell::new(0) });
            let n = N.with(|n| {
                n.set(n.get() + 1);
                n.get()
            });
            AllocStats {
                allocs: n,
                bytes: 64 * n,
                frees: n,
            }
        }
        let mut l = ProfLedger::new(true);
        l.set_alloc_probe(counting_probe);
        l.fold(&pop(CostKind::Dbe, 0), 0);
        l.fold(&slice_end(4), 1);
        assert!(l.ledger_map()["ev:dbe"].allocs > 0, "the probe must have charged");
        let snap = l.snap();
        let (_, dbe) = snap.scopes.iter().find(|(n, _)| n == "ev:dbe").expect("row");
        assert_eq!((dbe.allocs, dbe.alloc_bytes, dbe.frees), (0, 0, 0));
        assert_eq!((dbe.dequeues, dbe.rng_draws, dbe.trace_records), (1, 4, 1));
    }

    #[test]
    fn alloc_probe_deltas_attribute_per_scope() {
        fn fake_probe() -> AllocStats {
            AllocStats {
                allocs: 10,
                bytes: 640,
                frees: 4,
            }
        }
        let mut l = ProfLedger::new(true);
        l.set_alloc_probe(fake_probe);
        l.fold(&pop(CostKind::Dbe, 0), 0);
        // Probe is constant, so the first close baselines and later
        // deltas are zero — the shape of a quiet allocator.
        l.fold(&slice_end(0), 0);
        assert_eq!(l.ledger_map()["ev:dbe"].allocs, 0);
        assert_eq!(l.ledger_map()["ev:dbe"].alloc_bytes, 0);
    }

    #[test]
    fn wall_hook_fires_on_scope_changes_only() {
        let edges = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink = edges.clone();
        let mut l = ProfLedger::new(true);
        l.set_wall_hook(Box::new(move |name| sink.borrow_mut().push(name)));
        l.fold(&ObsEvent::LoopStart { spares: 0 }, 0);
        l.fold(&pop(CostKind::Sbe, 0), 0);
        l.fold(&pop(CostKind::Sbe, 0), 0); // same kind: no edge
        l.fold(&pop(CostKind::Dbe, 0), 0);
        assert_eq!(*edges.borrow(), vec!["engine:event_loop", "ev:sbe", "ev:dbe"]);
    }

    #[test]
    fn prof_doc_strips_cleanly_and_renders_stably() {
        let mut l = ProfLedger::new(true);
        l.fold(&pop(CostKind::Sbe, 0), 0);
        l.fold(&slice_end(4), 2);
        let obs = Obs::new(true);
        let metrics = MetricsDoc::from_obs(&obs, 7, 30);
        let wall = WallDoc {
            total_ms: 12.5,
            attributed_ms: 12.0,
            attributed_pct: 96.0,
            scopes: vec![WallScope {
                name: "ev:sbe".to_string(),
                wall_ms: 12.0,
                switches: 1,
            }],
        };
        let doc = ProfDoc::build(l.ledger_map(), metrics, wall);
        assert_eq!(doc.schema, PROF_SCHEMA);
        let json = doc.to_json();
        assert_eq!(json, doc.to_json());
        let back: ProfDoc = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back, doc);
        // `wall` is the last top-level key: everything before it is the
        // deterministic section.
        let wall_pos = json.find("\"wall\"").expect("wall key");
        let ledger_pos = json.find("\"ledger\"").expect("ledger key");
        let metrics_pos = json.find("\"metrics\"").expect("metrics key");
        assert!(ledger_pos < metrics_pos && metrics_pos < wall_pos);
        // Flamegraph output derives from wall only; counter tracks from
        // the deterministic timeseries only.
        let folded = doc.collapsed_stacks();
        assert_eq!(folded, "titan;engine:event_loop;ev:sbe 12000\n");
        let perfetto = doc.perfetto_counters();
        assert!(perfetto.contains("\"ph\":\"C\""));
        assert!(perfetto.trim_end().ends_with(']'));
        // The comparison tiers: deterministic strips wall and the
        // host-variant CLI-scope alloc counters (engine scopes keep
        // theirs), the resume-invariant form zeroes every alloc column.
        let mut alloc_doc = doc.clone();
        alloc_doc.ledger.get_mut("ev:sbe").expect("sbe row").allocs = 9;
        let mut cli_cost = KindCost::default();
        cli_cost.allocs = 5;
        cli_cost.dequeues = 3;
        alloc_doc.ledger.insert("cli:collect_metrics".to_string(), cli_cost);
        let det = alloc_doc.deterministic_json();
        assert!(!det.contains("12.5"), "wall leaked into the deterministic tier");
        assert!(det.contains("\"allocs\": 9"), "engine alloc counters must survive");
        assert!(!det.contains("\"allocs\": 5"), "CLI alloc counters leaked");
        assert!(det.contains("\"dequeues\": 3"), "CLI count columns must survive");
        let back: ProfDoc = serde_json::from_str(&det).expect("det parse");
        assert_eq!(back.totals.allocs, 9, "totals must re-sum the kept rows");
        let inv = alloc_doc.invariant_json();
        assert!(!inv.contains("\"allocs\": 9"), "alloc counters leaked into the invariant tier");
    }
}
