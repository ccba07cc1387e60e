//! The engine's observation vocabulary: one [`ObsEvent`] per observable
//! action, handed to [`crate::Obs::emit`].
//!
//! The engine describes *what happened*; every sink derives its own
//! record from that description. The metrics registry and time series,
//! the flight recorder, the health sink and the cost ledger are each a
//! fold over the event stream, so adding a sink never adds an engine
//! call site. Events carry plain numbers, sim times and
//! console lines, never `titan-gpu` types. Trace payload text arrives
//! as a closure, called only when the flight recorder is on.

use titan_conlog::time::SimTime;
use titan_conlog::ConsoleEvent;

use crate::prof::CostKind;

/// Lazily rendered flight-recorder payload text.
pub type Detail<'a> = &'a dyn Fn() -> String;

/// Lazily computed `faults.*` counter values of one drafted stream:
/// `(name, value)` pairs, each naming a counter of the metrics catalog.
pub type DraftCounts<'a> = &'a dyn Fn() -> Vec<(String, u64)>;

/// One observable engine action. Counts the engine holds as `usize`
/// stay `usize`; the folds widen them.
#[derive(Clone, Copy)]
pub enum ObsEvent<'a> {
    /// A ledger phase boundary: the named phase starts now.
    Phase(&'static str),
    /// A setup stream drew this many values from its own generator;
    /// they are charged to the open phase.
    Draws(u64),
    /// Setup pushed one drafted stream onto the heap: the job schedule
    /// or one fault process.
    DraftStream {
        /// Payloads pushed.
        pushed: usize,
        /// The stream's `faults.*` counters (empty for the schedule).
        counts: DraftCounts<'a>,
    },
    /// One in-window fault draft entered the heap; it roots a causal
    /// chain in the flight recorder.
    FaultDraft {
        /// Sim time the draft fires.
        t: SimTime,
        /// Payload text of the root record.
        detail: Detail<'a>,
    },
    /// A `run_until` slice starts: opens the `engine:event_loop` phase.
    LoopStart {
        /// Hot-spare pool size; seeds the health gauge once.
        spares: usize,
    },
    /// One heap pop, horizon drops included.
    Dequeue {
        /// The popped event's sim time.
        t: SimTime,
        /// Dispatch kind ([`CostKind::Horizon`] at or past the window).
        kind: CostKind,
        /// Draws so far across every loop RNG stream.
        rng_draws: u64,
        /// Payloads pushed since the previous pop of this slice.
        pushed: usize,
        /// Heap depth before the pop.
        depth: usize,
    },
    /// A job started.
    JobStart {
        /// Nodes the job occupies (one prologue read each).
        nodes: usize,
        /// Whether its prologue buffer came from the spare pool.
        reused: bool,
        /// Jobs running once it started.
        active: usize,
    },
    /// A job ended: completed, crashed, or closed at the horizon.
    JobEnd {
        /// Nodes the job occupied (one epilogue read each).
        nodes: usize,
    },
    /// A fault executed and logged `lines` to the console, in order.
    Fault {
        /// Flight-recorder id of the draft or event that caused it.
        parent: u64,
        /// Sim time of the fault.
        t: SimTime,
        /// Struck card, when card-scoped (its console lines name it too).
        card: Option<u64>,
        /// Struck node, when node-scoped.
        node: Option<u64>,
        /// Application on the node, when a job was involved.
        apid: Option<u64>,
        /// Payload text of the engine record.
        detail: Detail<'a>,
        /// Console lines the fault logged.
        lines: &'a [ConsoleEvent],
    },
    /// An SBE draft met activity thinning.
    Sbe {
        /// Whether the draft survived thinning.
        accepted: bool,
        /// Flight-recorder id of the draft.
        parent: u64,
        /// Sim time of the draft.
        t: SimTime,
        /// Struck card.
        card: u64,
        /// Node holding the card.
        node: u64,
        /// Payload text; a thinned draft's record appends ` thinned`.
        detail: Detail<'a>,
    },
    /// A job-wide software incident found no running job to strike.
    SoftNoTarget,
    /// A cascade parent spawned its children.
    Cascade {
        /// Children scheduled.
        children: usize,
    },
    /// A page retirement was decided.
    Retirement {
        /// Flight-recorder id of the triggering engine event.
        parent: u64,
        /// Sim time of the decision.
        t: SimTime,
        /// The card retiring a page.
        card: u64,
        /// Payload text of the retirement record.
        detail: Detail<'a>,
    },
    /// A scheduled hot-spare swap came due.
    Swap {
        /// Flight-recorder id of the DBE that scheduled it.
        parent: u64,
        /// Sim time it came due.
        t: SimTime,
        /// The card scheduled for pulling.
        card: u32,
        /// Whether the card was pulled (stale otherwise).
        fired: bool,
        /// Spares left afterwards.
        spares: usize,
    },
    /// A `run_until` slice returned.
    SliceEnd {
        /// Draws so far across every loop RNG stream.
        rng_draws: u64,
        /// Payloads pushed since the slice's last pop.
        pushed: usize,
    },
    /// The run closes at the horizon: opens the `engine:finalize` phase.
    Finalize {
        /// The study window (the horizon).
        window: SimTime,
        /// Jobs still running, closed at the horizon.
        jobs_closed: usize,
        /// Final fleet snapshots taken.
        final_snapshots: usize,
        /// Every console line the run logged.
        console: &'a [ConsoleEvent],
        /// Payload slots ever scheduled.
        payload_slots: usize,
    },
}

/// Widens an engine count for a sink.
pub(crate) fn count(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}
