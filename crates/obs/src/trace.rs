//! Bounded structured tracing in the simulation time domain.
//!
//! Spans are fixed-size records carrying **sim timestamps only** — the
//! ring's contents are part of the deterministic metrics document, so a
//! wall-clock value here would break byte-identical replication (and
//! trip lint D5). When the fixed-size ring is full the oldest span is
//! evicted and counted in `dropped`, so memory stays bounded on 638-day
//! windows while totals remain exact via the `by_kind` counters.

use serde::{Deserialize, Serialize};
use titan_conlog::time::SimTime;

/// Spans the ring keeps: every interesting span of a quick window and
/// the tail of a full one.
pub const SPAN_CAPACITY: usize = 256;

/// The span taxonomy. Keep in sync with OBSERVABILITY.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One job from scheduler start to end; `key` = job id, `extra` =
    /// node count.
    JobLifecycle,
    /// Fault event → deferred SEC-visible record; `key` = card serial,
    /// `extra` = retirement cause discriminant.
    FaultChain,
    /// Hot-spare swap from schedule to fire; `key` = slot index,
    /// `extra` = card serial.
    HotSpareSwap,
    /// Repair/reboot sequence after a fatal event; `key` = node id,
    /// `extra` = event class discriminant.
    RepairReboot,
}

impl SpanKind {
    /// All kinds in stable export order.
    pub const ALL: [SpanKind; 4] = [
        SpanKind::JobLifecycle,
        SpanKind::FaultChain,
        SpanKind::HotSpareSwap,
        SpanKind::RepairReboot,
    ];

    /// Stable snake_case name used in the JSON document.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::JobLifecycle => "job_lifecycle",
            SpanKind::FaultChain => "fault_chain",
            SpanKind::HotSpareSwap => "hot_spare_swap",
            SpanKind::RepairReboot => "repair_reboot",
        }
    }

    fn index(self) -> usize {
        match self {
            SpanKind::JobLifecycle => 0,
            SpanKind::FaultChain => 1,
            SpanKind::HotSpareSwap => 2,
            SpanKind::RepairReboot => 3,
        }
    }
}

/// One completed span. `key`/`extra` are kind-specific identifiers
/// (see [`SpanKind`]); instantaneous events use `start == end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Taxonomy bucket.
    pub kind: SpanKind,
    /// Sim time the span opened.
    pub start: SimTime,
    /// Sim time the span closed (`>= start`).
    pub end: SimTime,
    /// Primary identifier (job id, card serial, slot, node).
    pub key: u64,
    /// Secondary payload (node count, cause, serial, class).
    pub extra: u64,
}

/// One retained span as a checkpoint carries it: `kind` is the index
/// into [`SpanKind::ALL`], which keeps the enum out of the frozen
/// on-disk schema.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct SpanSnap {
    /// Index into [`SpanKind::ALL`].
    kind: u8,
    /// Sim time the span opened.
    start: u64,
    /// Sim time the span closed.
    end: u64,
    /// Primary identifier (job id, card serial, slot, node).
    key: u64,
    /// Secondary payload (node count, cause, serial, class).
    extra: u64,
}

/// Bounded ring of completed spans plus exact per-kind totals.
#[derive(Debug)]
pub struct TraceRing {
    enabled: bool,
    buf: Vec<Span>,
    /// Index of the oldest span once the ring has wrapped.
    head: usize,
    recorded: u64,
    by_kind: [u64; 4],
}

impl TraceRing {
    /// A ring holding at most [`SPAN_CAPACITY`] spans (counters stay
    /// exact past that). Disabled rings drop everything for free.
    pub fn new(enabled: bool) -> Self {
        TraceRing {
            enabled,
            buf: Vec::new(),
            head: 0,
            recorded: 0,
            by_kind: [0; 4],
        }
    }

    /// Records a completed span (no-op when disabled).
    #[inline]
    pub fn record(&mut self, span: Span) {
        if !self.enabled {
            return;
        }
        self.recorded += 1;
        self.by_kind[span.kind.index()] += 1;
        if self.buf.len() < SPAN_CAPACITY {
            self.buf.push(span);
        } else {
            self.buf[self.head] = span;
            self.head = (self.head + 1) % SPAN_CAPACITY;
        }
    }

    /// Total spans ever recorded.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// Exact per-kind totals, in [`SpanKind::ALL`] order.
    pub fn counts_by_kind(&self) -> [(SpanKind, u64); 4] {
        [
            (SpanKind::JobLifecycle, self.by_kind[0]),
            (SpanKind::FaultChain, self.by_kind[1]),
            (SpanKind::HotSpareSwap, self.by_kind[2]),
            (SpanKind::RepairReboot, self.by_kind[3]),
        ]
    }

    /// The retained spans, oldest first (record order — deterministic,
    /// since the engine records in event order).
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// The ring's checkpoint section: the retained spans oldest first,
    /// the total ever recorded, and the per-kind totals in
    /// [`SpanKind::ALL`] order.
    pub(crate) fn snap(&self) -> (Vec<SpanSnap>, u64, Vec<u64>) {
        let spans = self
            .spans()
            .iter()
            .map(|s| SpanSnap {
                // lint: allow(N1, a SpanKind index is below 4 and fits u8)
                kind: s.kind.index() as u8,
                start: s.start,
                end: s.end,
                key: s.key,
                extra: s.extra,
            })
            .collect();
        (spans, self.recorded, self.by_kind.to_vec())
    }

    /// Overwrites the ring from its checkpoint section, which must hold
    /// what a live ring would: 4 per-kind totals summing to `recorded`
    /// and `min(recorded, SPAN_CAPACITY)` spans of known kinds. Anything
    /// else is refused. No-op when disabled.
    pub(crate) fn restore(
        &mut self,
        spans: &[SpanSnap],
        recorded: u64,
        by_kind: &[u64],
    ) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        let by_kind: [u64; 4] = by_kind.try_into().map_err(|_| {
            format!("spans_by_kind holds {} totals, there are 4 span kinds", by_kind.len())
        })?;
        if by_kind.iter().try_fold(0u64, |a, &n| a.checked_add(n)) != Some(recorded) {
            return Err(format!("spans_by_kind {by_kind:?} does not sum to {recorded}"));
        }
        let held = usize::try_from(recorded).map_or(SPAN_CAPACITY, |n| n.min(SPAN_CAPACITY));
        if spans.len() != held {
            return Err(format!("{} spans kept of {recorded} recorded, want {held}", spans.len()));
        }
        let mut buf = Vec::with_capacity(spans.len());
        for s in spans {
            let Some(&kind) = SpanKind::ALL.get(usize::from(s.kind)) else {
                return Err(format!("span kind {} is not one of the 4 span kinds", s.kind));
            };
            buf.push(Span { kind, start: s.start, end: s.end, key: s.key, extra: s.extra });
        }
        self.buf = buf;
        self.head = 0;
        self.recorded = recorded;
        self.by_kind = by_kind;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start: SimTime) -> Span {
        Span { kind, start, end: start + 1, key: start, extra: 0 }
    }

    /// A ring that recorded `n` job spans starting at 0, 1, 2, ….
    fn ring(n: u64) -> TraceRing {
        let mut r = TraceRing::new(true);
        for t in 0..n {
            r.record(span(SpanKind::JobLifecycle, t));
        }
        r
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let cap = SPAN_CAPACITY as u64;
        let r = ring(cap + 2);
        assert_eq!(r.recorded(), cap + 2);
        assert_eq!(r.dropped(), 2);
        let kept: Vec<_> = r.spans().iter().map(|s| s.start).collect();
        assert_eq!(kept, (2..cap + 2).collect::<Vec<_>>());
    }

    #[test]
    fn by_kind_totals_are_exact_past_capacity() {
        let mut r = TraceRing::new(true);
        for t in 0..SPAN_CAPACITY as u64 + 2 {
            r.record(span(SpanKind::FaultChain, t));
        }
        r.record(span(SpanKind::HotSpareSwap, 9));
        let counts = r.counts_by_kind();
        assert_eq!(counts[1], (SpanKind::FaultChain, SPAN_CAPACITY as u64 + 2));
        assert_eq!(counts[2], (SpanKind::HotSpareSwap, 1));
    }

    #[test]
    fn disabled_ring_is_inert() {
        let mut r = TraceRing::new(false);
        r.record(span(SpanKind::RepairReboot, 1));
        assert_eq!(r.recorded(), 0);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn partial_ring_returns_in_order() {
        let kept: Vec<_> = ring(2).spans().iter().map(|s| s.start).collect();
        assert_eq!(kept, vec![0, 1]);
    }

    /// A wrapped ring restores from its own section and keeps evicting
    /// oldest-first; a section with a span missing or a per-kind total
    /// off by one is refused.
    #[test]
    fn restore_takes_only_the_ring_shape() {
        let cap = SPAN_CAPACITY as u64;
        let (spans, recorded, by_kind) = ring(cap + 5).snap();
        let mut r = TraceRing::new(true);
        r.restore(&spans, recorded, &by_kind).expect("a live ring's section");
        r.record(span(SpanKind::JobLifecycle, cap + 5));
        assert_eq!(r.spans(), ring(cap + 6).spans());
        assert_eq!(r.dropped(), 6);

        let err = r.restore(&spans[1..], recorded, &by_kind).expect_err("a span short");
        assert!(err.contains("255 spans kept"), "{err}");
        let err = r.restore(&spans, recorded + 1, &by_kind).expect_err("sum off by one");
        assert!(err.contains("does not sum to"), "{err}");
    }
}
