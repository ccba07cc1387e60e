//! titan-trace: the causal flight recorder.
//!
//! The paper's methodology is provenance stitching — correlating a
//! fault's console lines, SEC alerts, and nvidia-smi rollups across 21
//! months to attribute every failure. This module gives the simulator
//! the same capability over its own runs: a [`TraceStream`] mints one
//! monotonically increasing [`TraceRecord`] id per observable step, and
//! each record names its causal parent, so a page retirement or an SEC
//! alert can be walked back to the exact injected fault draft that
//! caused it.
//!
//! Determinism contract (same as the rest of this crate): ids come from
//! a plain counter, never the RNG streams; timestamps are sim-time only
//! (lint D5); a disabled stream is a no-op returning id 0 everywhere,
//! so tracing can never perturb a run. The rendered JSONL is therefore
//! byte-identical for a fixed seed at any thread width.
//!
//! On-disk format (`titan-trace/1`, S1-guarded): line 1 is a
//! [`TraceHeader`], every following line one [`TraceRecord`], compact
//! JSON, one per line, ids strictly increasing.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use titan_conlog::time::SimTime;

use crate::event::ObsEvent;

/// Schema identifier written into every trace header.
pub const TRACE_SCHEMA: &str = "titan-trace/1";

/// The record taxonomy, in causal-chain order. Root records are always
/// `FaultDraft`; everything else names a parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// An injected fault draft (DBE / OTB / SBE / software XID) — the
    /// only kind allowed at the root of a chain (`parent == 0`).
    FaultDraft,
    /// The engine executing a fault event against the fleet.
    EngineEvent,
    /// One console-log line emitted for an engine event.
    ConsoleLine,
    /// A page-retirement decision (emitted or not) on a card.
    Retirement,
    /// An SEC action produced at collect time from a console line.
    SecAlert,
    /// An end-of-study nvidia-smi rollup of a card's retired pages.
    NvsmiRollup,
}

impl TraceKind {
    /// All kinds, in stable summary order.
    pub const ALL: [TraceKind; 6] = [
        TraceKind::FaultDraft,
        TraceKind::EngineEvent,
        TraceKind::ConsoleLine,
        TraceKind::Retirement,
        TraceKind::SecAlert,
        TraceKind::NvsmiRollup,
    ];

    /// Stable snake_case name used in the JSONL records.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::FaultDraft => "fault_draft",
            TraceKind::EngineEvent => "engine_event",
            TraceKind::ConsoleLine => "console_line",
            TraceKind::Retirement => "retirement",
            TraceKind::SecAlert => "sec_alert",
            TraceKind::NvsmiRollup => "nvsmi_rollup",
        }
    }

    /// Inverse of [`TraceKind::name`].
    pub fn parse(name: &str) -> Option<TraceKind> {
        TraceKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// First line of a trace file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Schema identifier ([`TRACE_SCHEMA`]).
    pub schema: String,
    /// Seed the traced window ran with.
    pub seed: u64,
    /// Window length in days.
    pub window_days: u64,
    /// Number of record lines that follow.
    pub records: u64,
}

/// One flight-recorder record. Field order is frozen by the
/// `titan-trace-1` golden spec (lint S1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Monotonic id, unique within a run, starting at 1.
    pub id: u64,
    /// Causal parent id; 0 marks a chain root (always a fault draft).
    pub parent: u64,
    /// Stable kind name (see [`TraceKind::name`]).
    pub kind: String,
    /// Sim time (seconds since window start) of the step.
    pub ts: u64,
    /// Card serial, when the step is card-scoped.
    pub card: Option<u64>,
    /// Node id, when the step is node-scoped.
    pub node: Option<u64>,
    /// Application id (apid), when a job was involved.
    pub apid: Option<u64>,
    /// Short human-readable detail, stable per record kind.
    pub payload: String,
}

/// The flight recorder's checkpoint section (`obs.trace`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct TraceSnap {
    /// Id watermark: the next id to be minted.
    next: u64,
    /// Records minted so far, id order.
    records: Vec<TraceRecord>,
    /// Console `(ts, id)` pairs, emission order.
    console: Vec<(u64, u64)>,
}

/// The deterministic trace sink threaded through a run. Disabled
/// streams mint id 0 and record nothing, so the engine code is
/// identical on both paths.
#[derive(Debug)]
pub struct TraceStream {
    enabled: bool,
    next: u64,
    records: Vec<TraceRecord>,
    /// `(ts, id)` of every console-line record in emission order; the
    /// engine sorts its console log by time *stably* after the loop, so
    /// a stable sort of this list by `ts` reproduces the exact post-sort
    /// console order (used to align SEC replay with console lines).
    console: Vec<(u64, u64)>,
}

impl TraceStream {
    /// A stream with recording on or off.
    pub fn new(enabled: bool) -> Self {
        TraceStream {
            enabled,
            next: 1,
            records: Vec::new(),
            console: Vec::new(),
        }
    }

    /// Whether the stream records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Mints the next record and returns its id (0 when disabled; the
    /// payload closure is never called then, so the disabled path costs
    /// one branch).
    #[inline]
    pub fn mint(
        &mut self,
        kind: TraceKind,
        parent: u64,
        ts: SimTime,
        card: Option<u64>,
        node: Option<u64>,
        apid: Option<u64>,
        payload: impl FnOnce() -> String,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        self.records.push(TraceRecord {
            id,
            parent,
            kind: kind.name().to_string(),
            ts,
            card,
            node,
            apid,
            payload: payload(),
        });
        id
    }

    /// The recorder's fold over one engine event: mints its records and
    /// returns the id of the event's own record (0 when it mints none
    /// or recording is off). A fault's console lines are minted right
    /// after it, so its line `i` (from 0) gets id `returned + 1 + i`.
    pub(crate) fn fold(&mut self, ev: &ObsEvent<'_>) -> u64 {
        if !self.enabled {
            return 0;
        }
        match *ev {
            ObsEvent::FaultDraft { t, detail } => {
                self.mint(TraceKind::FaultDraft, 0, t, None, None, None, detail)
            }
            ObsEvent::Fault {
                parent,
                t,
                card,
                node,
                apid,
                detail,
                lines,
            } => {
                let id = self.mint(TraceKind::EngineEvent, parent, t, card, node, apid, detail);
                for line in lines {
                    let (ts, node) = (line.time, Some(u64::from(line.node.0)));
                    let payload = || format!("console {:?}", line.kind);
                    let cid = self.mint(TraceKind::ConsoleLine, id, ts, card, node, line.apid, payload);
                    // Collect-time SEC replay aligns alerts with the
                    // time-sorted console log through these pairs.
                    self.console.push((ts, cid));
                }
                id
            }
            ObsEvent::Sbe {
                accepted,
                parent,
                t,
                card,
                node,
                detail,
            } => self.mint(TraceKind::EngineEvent, parent, t, Some(card), Some(node), None, || {
                if accepted {
                    detail()
                } else {
                    detail() + " thinned"
                }
            }),
            ObsEvent::Retirement {
                parent,
                t,
                card,
                detail,
                ..
            } => self.mint(TraceKind::Retirement, parent, t, Some(card), None, None, detail),
            ObsEvent::Swap {
                parent,
                t,
                card,
                fired,
                ..
            } => self.mint(TraceKind::EngineEvent, parent, t, Some(u64::from(card)), None, None, || {
                if fired { "swap_fired" } else { "swap_stale" }.to_string()
            }),
            _ => 0,
        }
    }

    /// All records minted so far, in id order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The id the next [`TraceStream::mint`] call will return — the
    /// trace-id watermark carried in checkpoints.
    pub fn next_id(&self) -> u64 {
        self.next
    }

    /// The recorder's checkpoint section: the id watermark, the
    /// records minted so far, and the raw `(ts, id)` console pairs in
    /// emission order (the input to
    /// [`TraceStream::console_ids_in_log_order`]), carried verbatim so
    /// a resumed stream aligns SEC replay the same way.
    pub(crate) fn snap(&self) -> TraceSnap {
        TraceSnap {
            next: self.next,
            records: self.records.clone(),
            console: self.console.clone(),
        }
    }

    /// Overwrites the stream wholesale from its checkpoint section. A
    /// watermark at or below the newest record's id is refused: the
    /// next mint would repeat an id. No-op when disabled, preserving
    /// the disabled-stream-is-inert invariant.
    pub(crate) fn restore(&mut self, snap: &TraceSnap) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        let (next, newest) = (snap.next, snap.records.last().map_or(0, |r| r.id));
        if next <= newest {
            return Err(format!("next {next} is not above the newest record id {newest}"));
        }
        self.next = next;
        self.records = snap.records.clone();
        self.console = snap.console.clone();
        Ok(())
    }

    /// Console-line record ids reordered to match the engine's final
    /// console log: the engine pushes lines in heap order and stably
    /// sorts by time afterwards, so a stable sort of the emission-order
    /// `(ts, id)` pairs by `ts` yields the id of console line *i* at
    /// index *i* of `SimOutput::console`.
    pub fn console_ids_in_log_order(&self) -> Vec<u64> {
        let mut pairs = self.console.clone();
        pairs.sort_by_key(|&(ts, _)| ts);
        pairs.into_iter().map(|(_, id)| id).collect()
    }

    /// Renders the full stream as `titan-trace/1` JSONL (header first,
    /// one compact JSON record per line, trailing newline). Every line
    /// is written straight into the one output buffer.
    pub fn render_jsonl(&self, seed: u64, window_days: u64) -> String {
        let header = TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            seed,
            window_days,
            // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
            records: self.records.len() as u64,
        };
        let mut out = String::new();
        // lint: allow(E1, writing into a String cannot fail)
        let _ = header.write_json(&mut out);
        out.push('\n');
        for r in &self.records {
            // lint: allow(E1, writing into a String cannot fail)
            let _ = r.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

/// Parses a `titan-trace/1` JSONL document back into header + records.
pub fn parse_trace(text: &str) -> Result<(TraceHeader, Vec<TraceRecord>), String> {
    let mut lines = text.lines();
    let first = lines.next().ok_or("empty trace file")?;
    let header: TraceHeader =
        serde_json::from_str(first).map_err(|e| format!("trace header: {e}"))?;
    if header.schema != TRACE_SCHEMA {
        return Err(format!(
            "unsupported trace schema `{}` (expected `{TRACE_SCHEMA}`)",
            header.schema
        ));
    }
    let mut records = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let r: TraceRecord =
            serde_json::from_str(line).map_err(|e| format!("trace line {}: {e}", i + 2))?;
        records.push(r);
    }
    Ok((header, records))
}

/// Outcome of a provenance walk over a parsed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Records examined.
    pub records: u64,
    /// Terminal records (SEC alerts, retirements, nvsmi rollups) whose
    /// chains were walked to a root.
    pub chains_walked: u64,
    /// Longest chain found (root = depth 1).
    pub max_depth: u64,
    /// Every provenance violation found; empty means the trace proves
    /// complete fault-to-alert attribution.
    pub errors: Vec<String>,
}

impl VerifyReport {
    /// Whether the trace passed.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Cap on error spam: verification keeps going but stops *recording*
/// individual violations past this count.
const MAX_VERIFY_ERRORS: usize = 20;

/// Walks every record's provenance: ids must be strictly increasing,
/// parents must exist and precede their children (which also rules out
/// cycles), only fault drafts may be roots, and every SEC alert,
/// retirement, and nvsmi rollup must chase back to an injected fault
/// draft.
pub fn verify_trace(header: &TraceHeader, records: &[TraceRecord]) -> VerifyReport {
    let mut report = VerifyReport {
        // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
        records: records.len() as u64,
        chains_walked: 0,
        max_depth: 0,
        errors: Vec::new(),
    };
    let err = |errors: &mut Vec<String>, msg: String| {
        if errors.len() < MAX_VERIFY_ERRORS {
            errors.push(msg);
        }
    };
    if header.records != report.records {
        err(
            &mut report.errors,
            format!(
                "header claims {} records, file holds {}",
                header.records, report.records
            ),
        );
    }

    // Pass 1: structural checks + parent index.
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    let mut prev_id = 0u64;
    for (i, r) in records.iter().enumerate() {
        if r.id <= prev_id {
            err(
                &mut report.errors,
                format!("record {} id {} not strictly increasing", i + 1, r.id),
            );
        }
        prev_id = r.id;
        let kind = TraceKind::parse(&r.kind);
        if kind.is_none() {
            err(
                &mut report.errors,
                format!("record id {} has unknown kind `{}`", r.id, r.kind),
            );
        }
        if r.parent == 0 {
            if kind != Some(TraceKind::FaultDraft) {
                err(
                    &mut report.errors,
                    format!("record id {} ({}) is an orphan root", r.id, r.kind),
                );
            }
        } else {
            if r.parent >= r.id {
                err(
                    &mut report.errors,
                    format!(
                        "record id {} parent {} does not precede it (cycle/forward ref)",
                        r.id, r.parent
                    ),
                );
            }
            if !by_id.contains_key(&r.parent) {
                err(
                    &mut report.errors,
                    format!("record id {} parent {} does not exist", r.id, r.parent),
                );
            }
        }
        if kind == Some(TraceKind::FaultDraft) && r.parent != 0 {
            err(
                &mut report.errors,
                format!("fault draft id {} has a parent ({})", r.id, r.parent),
            );
        }
        by_id.insert(r.id, i);
    }

    // Pass 2: chase every terminal record to a fault-draft root.
    for r in records {
        let terminal = matches!(
            TraceKind::parse(&r.kind),
            Some(TraceKind::SecAlert | TraceKind::Retirement | TraceKind::NvsmiRollup)
        );
        if !terminal {
            continue;
        }
        report.chains_walked += 1;
        let mut cur = r;
        let mut depth = 1u64;
        loop {
            if cur.parent == 0 {
                if cur.kind != TraceKind::FaultDraft.name() {
                    err(
                        &mut report.errors,
                        format!(
                            "chain from {} id {} ends at {} id {} (not a fault draft)",
                            r.kind, r.id, cur.kind, cur.id
                        ),
                    );
                }
                break;
            }
            let Some(&idx) = by_id.get(&cur.parent) else {
                // Already reported as a missing parent in pass 1.
                break;
            };
            let next = &records[idx];
            if next.id >= cur.id {
                // Already reported as a forward ref in pass 1; stop so
                // a malformed file cannot loop the walker.
                break;
            }
            cur = next;
            depth += 1;
        }
        report.max_depth = report.max_depth.max(depth);
    }
    report
}

/// Record filter for `trace show`: every set field must match.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceFilter {
    /// Keep records on this card serial.
    pub card: Option<u64>,
    /// Keep records on this node.
    pub node: Option<u64>,
    /// Keep records of this job (apid).
    pub apid: Option<u64>,
    /// Keep records with `lo <= ts <= hi` (sim seconds).
    pub window: Option<(u64, u64)>,
}

impl TraceFilter {
    /// Whether `r` passes every set constraint.
    pub fn matches(&self, r: &TraceRecord) -> bool {
        if let Some(c) = self.card {
            if r.card != Some(c) {
                return false;
            }
        }
        if let Some(n) = self.node {
            if r.node != Some(n) {
                return false;
            }
        }
        if let Some(a) = self.apid {
            if r.apid != Some(a) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.window {
            if r.ts < lo || r.ts > hi {
                return false;
            }
        }
        true
    }
}

/// Renders the `trace summarize` table: per-kind counts and time spans,
/// root/terminal tallies, and the busiest cards.
pub fn summarize_trace(header: &TraceHeader, records: &[TraceRecord]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} — seed {}, {} days, {} records",
        header.schema,
        header.seed,
        header.window_days,
        records.len()
    );
    let _ = writeln!(s, "\nrecords by kind (count, first ts, last ts):");
    for kind in TraceKind::ALL {
        let mut count = 0u64;
        let mut first = u64::MAX;
        let mut last = 0u64;
        for r in records.iter().filter(|r| r.kind == kind.name()) {
            count += 1;
            first = first.min(r.ts);
            last = last.max(r.ts);
        }
        if count == 0 {
            let _ = writeln!(s, "  {:<14} {:>10}", kind.name(), 0);
        } else {
            let _ = writeln!(
                s,
                "  {:<14} {:>10}  t=[{first}, {last}]",
                kind.name(),
                count
            );
        }
    }
    let roots = records.iter().filter(|r| r.parent == 0).count();
    let _ = writeln!(s, "\nchain roots (fault drafts): {roots}");
    let mut per_card: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if let Some(c) = r.card {
            *per_card.entry(c).or_insert(0) += 1;
        }
    }
    let mut busiest: Vec<(u64, u64)> = per_card.into_iter().collect();
    busiest.sort_by_key(|&(card, n)| (std::cmp::Reverse(n), card));
    busiest.truncate(5);
    if !busiest.is_empty() {
        let _ = writeln!(s, "busiest cards (records):");
        for (card, n) in busiest {
            let _ = writeln!(s, "  card {card:<8} {n:>8}");
        }
    }
    s
}

/// Minimal JSON string escaping for the hand-built Chrome export.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            // lint: allow(N1, char to u32 is the lossless scalar value)
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders records in the Chrome trace-event format (open the file in
/// Perfetto or `about://tracing`). Every record becomes an instant
/// event on its node's track (`tid` = node, 0 when node-less); every
/// parent→child edge becomes a flow-event pair, so chains draw as
/// arrows. One sim second maps to one displayed second (`ts` is µs).
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut loc: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // id -> (ts_us, tid)
    for r in records {
        loc.insert(r.id, (r.ts * 1_000_000, r.node.unwrap_or(0)));
    }
    let mut events: Vec<String> = Vec::new();
    for r in records {
        let (ts_us, tid) = loc[&r.id];
        let mut args = format!("\"id\":{},\"parent\":{}", r.id, r.parent);
        if let Some(c) = r.card {
            args.push_str(&format!(",\"card\":{c}"));
        }
        if let Some(a) = r.apid {
            args.push_str(&format!(",\"apid\":{a}"));
        }
        args.push_str(&format!(",\"payload\":\"{}\"", esc(&r.payload)));
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us},\"pid\":1,\"tid\":{tid},\"args\":{{{args}}}}}",
            esc(&r.payload),
            esc(&r.kind),
        ));
        if r.parent != 0 {
            if let Some(&(pts, ptid)) = loc.get(&r.parent) {
                events.push(format!(
                    "{{\"name\":\"chain\",\"cat\":\"chain\",\"ph\":\"s\",\"id\":{},\"ts\":{pts},\"pid\":1,\"tid\":{ptid}}}",
                    r.id
                ));
                events.push(format!(
                    "{{\"name\":\"chain\",\"cat\":\"chain\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"ts\":{ts_us},\"pid\":1,\"tid\":{tid}}}",
                    r.id
                ));
            }
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draft(s: &mut TraceStream, ts: u64) -> u64 {
        s.mint(TraceKind::FaultDraft, 0, ts, None, None, None, || {
            "dbe_draft".to_string()
        })
    }

    #[test]
    fn disabled_stream_mints_zero_and_records_nothing() {
        let mut s = TraceStream::new(false);
        let mut called = false;
        let id = s.mint(TraceKind::FaultDraft, 0, 5, None, None, None, || {
            called = true;
            String::new()
        });
        assert_eq!(id, 0);
        assert!(!called, "payload closure must not run when disabled");
        assert!(s.records().is_empty());
        assert_eq!(fault(&mut s, 0, &[1]), 0);
        assert!(s.snap().console.is_empty());
    }

    /// Folds a fault logging one console line per entry of `times`;
    /// returns the fault's id.
    fn fault(s: &mut TraceStream, parent: u64, times: &[u64]) -> u64 {
        let lines: Vec<titan_conlog::ConsoleEvent> = times
            .iter()
            .map(|&time| titan_conlog::ConsoleEvent {
                time,
                node: titan_topology::NodeId(2),
                kind: titan_gpu::GpuErrorKind::GraphicsEngineException,
                structure: None,
                page: None,
                apid: Some(9),
            })
            .collect();
        s.fold(&ObsEvent::Fault {
            parent,
            t: times.first().copied().unwrap_or(0),
            card: None,
            node: None,
            apid: Some(9),
            detail: &|| "soft GraphicsEngineException job_wide".into(),
            lines: &lines,
        })
    }

    #[test]
    fn fault_lines_mint_right_after_the_fault() {
        let mut s = TraceStream::new(true);
        let p = draft(&mut s, 0);
        let e = fault(&mut s, p, &[5, 7]);
        let kinds: Vec<&str> = s.records().iter().map(|r| r.kind.as_str()).collect();
        assert_eq!(kinds, ["fault_draft", "engine_event", "console_line", "console_line"]);
        assert_eq!(s.records()[2].id, e + 1);
        assert_eq!(s.records()[3].parent, e);
        assert_eq!(s.records()[3].node, Some(2));
        assert_eq!(s.records()[3].payload, "console GraphicsEngineException");
    }

    #[test]
    fn ids_are_monotonic_from_one() {
        let mut s = TraceStream::new(true);
        let a = draft(&mut s, 10);
        let b = s.mint(TraceKind::EngineEvent, a, 10, Some(3), Some(7), None, || {
            "dbe".into()
        });
        assert_eq!((a, b), (1, 2));
        assert_eq!(s.records()[1].parent, 1);
        assert_eq!(s.records()[1].card, Some(3));
    }

    #[test]
    fn console_ids_follow_stable_time_sort() {
        let mut s = TraceStream::new(true);
        let p = draft(&mut s, 0);
        // Emission order: t=50, t=10, t=50 — the engine's stable sort
        // puts t=10 first and keeps the two t=50 lines in push order.
        let e = fault(&mut s, p, &[50, 10, 50]);
        let (a, b, c) = (e + 1, e + 2, e + 3);
        assert_eq!(s.console_ids_in_log_order(), vec![b, a, c]);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut s = TraceStream::new(true);
        let d = draft(&mut s, 100);
        let e = s.mint(
            TraceKind::EngineEvent,
            d,
            100,
            Some(42),
            Some(7),
            Some(9001),
            || "dbe DeviceMemory".into(),
        );
        s.mint(TraceKind::Retirement, e, 100, Some(42), None, None, || {
            "retire emitted=true".into()
        });
        let text = s.render_jsonl(17, 60);
        assert!(text.starts_with("{\"schema\":\"titan-trace/1\""));
        let (header, records) = parse_trace(&text).expect("parse");
        assert_eq!(header.seed, 17);
        assert_eq!(header.records, 3);
        assert_eq!(records, s.records());
        // Rendering twice is byte-identical.
        assert_eq!(text, s.render_jsonl(17, 60));
    }

    #[test]
    fn verify_passes_a_complete_chain() {
        let mut s = TraceStream::new(true);
        let d = draft(&mut s, 100);
        let e = s.mint(TraceKind::EngineEvent, d, 100, Some(1), Some(2), None, || {
            "dbe".into()
        });
        let c = s.mint(TraceKind::ConsoleLine, e, 100, Some(1), Some(2), None, || {
            "console".into()
        });
        s.mint(TraceKind::SecAlert, c, 100, None, Some(2), None, || {
            "sec alert".into()
        });
        s.mint(TraceKind::Retirement, e, 100, Some(1), None, None, || {
            "retire".into()
        });
        let (h, r) = parse_trace(&s.render_jsonl(1, 30)).unwrap();
        let rep = verify_trace(&h, &r);
        assert!(rep.ok(), "{:?}", rep.errors);
        assert_eq!(rep.chains_walked, 2);
        assert_eq!(rep.max_depth, 4);
    }

    #[test]
    fn verify_flags_orphans_missing_parents_and_bad_headers() {
        let rec = |id, parent, kind: TraceKind| TraceRecord {
            id,
            parent,
            kind: kind.name().to_string(),
            ts: 0,
            card: None,
            node: None,
            apid: None,
            payload: String::new(),
        };
        let header = TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            seed: 0,
            window_days: 1,
            records: 3,
        };
        // An engine event at the root, an alert with a missing parent,
        // and a header count mismatch.
        let records = vec![
            rec(1, 0, TraceKind::EngineEvent),
            rec(2, 99, TraceKind::SecAlert),
        ];
        let rep = verify_trace(&header, &records);
        assert!(!rep.ok());
        assert!(rep.errors.iter().any(|e| e.contains("orphan root")));
        assert!(rep.errors.iter().any(|e| e.contains("does not exist")));
        assert!(rep.errors.iter().any(|e| e.contains("header claims")));
    }

    #[test]
    fn verify_rejects_forward_refs_and_nonmonotonic_ids() {
        let rec = |id, parent, kind: TraceKind| TraceRecord {
            id,
            parent,
            kind: kind.name().to_string(),
            ts: 0,
            card: None,
            node: None,
            apid: None,
            payload: String::new(),
        };
        let header = TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            seed: 0,
            window_days: 1,
            records: 2,
        };
        // A record claiming a *later* parent (would be a cycle if the
        // walker followed it) and a duplicate id.
        let records = vec![
            rec(5, 6, TraceKind::Retirement),
            rec(5, 0, TraceKind::FaultDraft),
        ];
        let rep = verify_trace(&header, &records);
        assert!(rep.errors.iter().any(|e| e.contains("does not precede")));
        assert!(rep
            .errors
            .iter()
            .any(|e| e.contains("not strictly increasing")));
    }

    #[test]
    fn filter_constrains_each_set_field() {
        let r = TraceRecord {
            id: 1,
            parent: 0,
            kind: "fault_draft".into(),
            ts: 500,
            card: Some(3),
            node: Some(9),
            apid: None,
            payload: String::new(),
        };
        assert!(TraceFilter::default().matches(&r));
        assert!(TraceFilter { card: Some(3), ..Default::default() }.matches(&r));
        assert!(!TraceFilter { card: Some(4), ..Default::default() }.matches(&r));
        assert!(!TraceFilter { apid: Some(1), ..Default::default() }.matches(&r));
        assert!(TraceFilter { window: Some((0, 500)), ..Default::default() }.matches(&r));
        assert!(!TraceFilter { window: Some((501, 900)), ..Default::default() }.matches(&r));
    }

    #[test]
    fn summarize_and_chrome_have_stable_shape() {
        let mut s = TraceStream::new(true);
        let d = draft(&mut s, 60);
        let e = s.mint(TraceKind::EngineEvent, d, 60, Some(5), Some(2), None, || {
            "dbe".into()
        });
        s.mint(TraceKind::ConsoleLine, e, 60, Some(5), Some(2), None, || {
            "console".into()
        });
        let (h, r) = parse_trace(&s.render_jsonl(3, 30)).unwrap();
        let table = summarize_trace(&h, &r);
        assert!(table.contains("fault_draft"));
        assert!(table.contains("busiest cards"));
        let chrome = chrome_trace(&r);
        assert!(chrome.starts_with("{\"displayTimeUnit\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        // One flow pair per parented record (2 of 3 records here).
        assert_eq!(chrome.matches("\"ph\":\"s\"").count(), 2);
        assert_eq!(chrome.matches("\"ph\":\"f\"").count(), 2);
        // ts is µs: 60 sim seconds = 60,000,000.
        assert!(chrome.contains("\"ts\":60000000"));
        // Byte-stable.
        assert_eq!(chrome, chrome_trace(&r));
    }
}
