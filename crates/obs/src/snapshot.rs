//! Whole-sink snapshots for checkpoint/restore (`titan-ckpt/1`).
//!
//! A checkpoint must carry the observability state alongside the engine
//! state, or a resumed run's metrics document and trace file would
//! restart from zero and break the byte-identity contract. An
//! [`ObsSnapshot`] is a plain-data copy of everything inside an [`Obs`]
//! sink — counters, gauges, histograms, time-series buckets, the span
//! ring, and the causal flight recorder including its id watermark —
//! addressed *by name*, never by handle index, so restore is immune to
//! registration-order drift.
//!
//! Restore preserves the disabled-sink-is-inert invariant: every
//! underlying `restore_*` call is a no-op when the corresponding sink is
//! off, so resuming a `--metrics`-off run from a checkpoint written by a
//! `--metrics`-on run silently drops the counters instead of reviving
//! them (byte-identity then holds only when the flags match — see
//! DETERMINISM.md).

use serde::{Deserialize, Serialize};

use crate::flight::TraceRecord;
use crate::health::HealthSnap;
use crate::prof::ProfSnap;
use crate::trace::{Span, SpanKind};
use crate::{Obs, TsSeries};

/// One retained span, flattened for serialization ([`Span`] itself
/// carries a [`SpanKind`] enum we keep out of the frozen on-disk
/// schema). `kind` is the index into [`SpanKind::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpanSnap {
    /// Index into [`SpanKind::ALL`].
    pub kind: u8,
    /// Sim time the span opened.
    pub start: u64,
    /// Sim time the span closed.
    pub end: u64,
    /// Primary identifier (job id, card serial, slot, node).
    pub key: u64,
    /// Secondary payload (node count, cause, serial, class).
    pub extra: u64,
}

/// A plain-data copy of one [`Obs`] sink, suitable for embedding in a
/// checkpoint document. Capture with [`ObsSnapshot::capture`], apply
/// with [`ObsSnapshot::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// `(section, name, value)` for every counter, registration order.
    counters: Vec<(String, String, u64)>,
    /// `(section, name, value)` for every gauge, registration order.
    gauges: Vec<(String, String, u64)>,
    /// `(name, bounds, counts, count, sum)` for every histogram.
    hists: Vec<(String, Vec<u64>, Vec<u64>, u64, u64)>,
    /// Raw buckets of every series, in [`TsSeries::ALL`] order.
    timeseries: Vec<Vec<u64>>,
    /// Retained spans, oldest first.
    spans: Vec<SpanSnap>,
    /// Total spans ever recorded (exact, past ring capacity).
    spans_recorded: u64,
    /// Exact per-kind span totals, in [`SpanKind::ALL`] order.
    spans_by_kind: Vec<u64>,
    /// Flight-recorder id watermark (next id to be minted).
    trace_next: u64,
    /// Flight-recorder records minted so far, id order.
    trace_records: Vec<TraceRecord>,
    /// Flight-recorder console `(ts, id)` pairs, emission order.
    trace_console: Vec<(u64, u64)>,
    /// Complete health-sink state (inert on restore when health
    /// collection is off on either side).
    health: HealthSnap,
    /// Deterministic cost-ledger scope table (inert on restore when the
    /// ledger is off on either side). Checkpoints are per-build
    /// artifacts, never long-lived archives, so the field is plain
    /// (the vendored serde_derive supports no `#[serde(default)]`).
    prof: ProfSnap,
}

fn kind_index(k: SpanKind) -> u8 {
    // lint: allow(N1, position over a 4-element array fits u8 trivially)
    SpanKind::ALL.iter().position(|&a| a == k).unwrap_or(0) as u8
}

impl ObsSnapshot {
    /// Copies the full state of `obs` into a serializable snapshot.
    /// Disabled sinks contribute their (empty / zero) state verbatim.
    pub fn capture(obs: &Obs) -> ObsSnapshot {
        let counters = obs
            .reg
            .counters()
            .map(|(s, n, v)| (s.to_string(), n.to_string(), v))
            .collect();
        let gauges = obs
            .reg
            .gauges()
            .map(|(s, n, v)| (s.to_string(), n.to_string(), v))
            .collect();
        let hists = obs
            .reg
            .histograms()
            .map(|(name, bounds, counts, count, sum)| {
                (name.to_string(), bounds.to_vec(), counts.to_vec(), count, sum)
            })
            .collect();
        let timeseries = TsSeries::ALL.iter().map(|&s| obs.ts.series(s).to_vec()).collect();
        let spans = obs
            .trace
            .spans()
            .iter()
            .map(|s| SpanSnap {
                kind: kind_index(s.kind),
                start: s.start,
                end: s.end,
                key: s.key,
                extra: s.extra,
            })
            .collect();
        let spans_by_kind = obs.trace.counts_by_kind().iter().map(|&(_, v)| v).collect();
        ObsSnapshot {
            counters,
            gauges,
            hists,
            timeseries,
            spans,
            spans_recorded: obs.trace.recorded(),
            spans_by_kind,
            trace_next: obs.stream.next_id(),
            trace_records: obs.stream.records().to_vec(),
            trace_console: obs.stream.console_pairs().to_vec(),
            health: obs.health.snap(),
            prof: obs.prof.snap(),
        }
    }

    /// Whether the snapshotted run had health collection on (resume
    /// validates this against the `--health` flag).
    pub fn health_enabled(&self) -> bool {
        self.health.enabled
    }

    /// Whether the snapshotted run had the cost ledger on (resume
    /// validates this against the `--prof` flag).
    pub fn prof_enabled(&self) -> bool {
        self.prof.enabled
    }

    /// Overwrites `obs` with the snapshot's state. Every write goes
    /// through a name-addressed `restore_*` method, so it is safe to
    /// apply to a sink whose registration order differs, and a no-op
    /// for each sub-sink that is disabled on the receiving side.
    pub fn restore(&self, obs: &mut Obs) {
        for (section, name, value) in &self.counters {
            obs.reg.restore_counter(section, name, *value);
        }
        for (section, name, value) in &self.gauges {
            obs.reg.restore_gauge(section, name, *value);
        }
        for (name, bounds, counts, count, sum) in &self.hists {
            obs.reg.restore_histogram(name, bounds, counts, *count, *sum);
        }
        for (&series, buckets) in TsSeries::ALL.iter().zip(self.timeseries.iter()) {
            obs.ts.restore(series, buckets);
        }
        let spans: Vec<Span> = self
            .spans
            .iter()
            .map(|s| Span {
                kind: SpanKind::ALL
                    .get(s.kind as usize)
                    .copied()
                    .unwrap_or(SpanKind::JobLifecycle),
                start: s.start,
                end: s.end,
                key: s.key,
                extra: s.extra,
            })
            .collect();
        let mut by_kind = [0u64; 4];
        for (slot, &v) in by_kind.iter_mut().zip(self.spans_by_kind.iter()) {
            *slot = v;
        }
        obs.trace.restore(&spans, self.spans_recorded, by_kind);
        obs.stream.restore(
            self.trace_next,
            self.trace_records.clone(),
            self.trace_console.clone(),
        );
        obs.health.restore(&self.health);
        obs.prof.restore(&self.prof);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostKind, ObsEvent};

    fn populated() -> Obs {
        let mut obs = Obs::enabled();
        obs.enable_trace();
        obs.enable_health();
        obs.emit(ObsEvent::LoopStart { spares: 48 });
        obs.emit(ObsEvent::Sbe {
            accepted: true,
            parent: 0,
            t: 5,
            card: 77,
            node: 3,
            detail: &String::new,
        });
        obs.emit(ObsEvent::Dequeue {
            t: 5,
            kind: CostKind::Dbe,
            rng_draws: 0,
            pushed: 0,
            depth: 41,
        });
        obs.emit(ObsEvent::JobStart {
            nodes: 16,
            reused: false,
            active: 1,
        });
        obs.ts.inc(TsSeries::EvDbe, 100_000_000);
        obs.trace.record(Span {
            kind: SpanKind::FaultChain,
            start: 5,
            end: 9,
            key: 77,
            extra: 1,
        });
        let root = obs.emit(ObsEvent::FaultDraft {
            t: 5,
            detail: &|| "dbe".to_string(),
        });
        let line = titan_conlog::ConsoleEvent {
            time: 5,
            node: titan_topology::NodeId(3),
            kind: titan_gpu::GpuErrorKind::OffTheBus,
            structure: None,
            page: None,
            apid: None,
        };
        obs.emit(ObsEvent::Fault {
            parent: root,
            t: 5,
            card: Some(77),
            node: Some(3),
            apid: None,
            detail: &|| "otb".to_string(),
            lines: &[line],
        });
        obs.enable_prof();
        obs.phase("engine:workload");
        obs.emit(ObsEvent::Draws(42));
        obs.emit(ObsEvent::DraftStream {
            pushed: 3,
            counts: &Vec::new,
        });
        obs.prof_finish();
        obs
    }

    fn ev_dbe(obs: &mut Obs) -> u64 {
        let c = obs.reg.counter("engine", "ev_dbe");
        obs.reg.counter_value(c)
    }

    #[test]
    fn roundtrip_restores_every_sink() {
        let src = populated();
        let snap = ObsSnapshot::capture(&src);
        let mut dst = Obs::enabled();
        dst.enable_trace();
        dst.enable_health();
        dst.enable_prof();
        snap.restore(&mut dst);
        assert!(snap.health_enabled());
        assert!(snap.prof_enabled());
        assert_eq!(
            dst.prof_ledger().ledger_map()["engine:workload"].rng_draws,
            42
        );
        assert_eq!(dst.health.snap(), src.health.snap());
        assert_eq!(ev_dbe(&mut dst), 1);
        let g = dst.reg.gauge("engine", "heap_high_water");
        assert_eq!(dst.reg.gauge_value(g), 41);
        assert_eq!(dst.ts.series(TsSeries::EvDbe), src.ts.series(TsSeries::EvDbe));
        assert_eq!(dst.trace.recorded(), 1);
        assert_eq!(dst.trace.spans(), src.trace.spans());
        assert_eq!(dst.stream.next_id(), src.stream.next_id());
        assert_eq!(dst.stream.records(), src.stream.records());
        assert_eq!(dst.stream.console_pairs(), src.stream.console_pairs());
        // And the re-captured snapshot is identical — capture∘restore is
        // the identity on the observable state.
        assert_eq!(ObsSnapshot::capture(&dst), snap);
    }

    #[test]
    fn restore_into_disabled_sink_is_inert() {
        let snap = ObsSnapshot::capture(&populated());
        let mut dst = Obs::disabled();
        snap.restore(&mut dst);
        assert_eq!(ev_dbe(&mut dst), 0);
        assert_eq!(dst.trace.recorded(), 0);
        assert_eq!(dst.stream.next_id(), 1);
        assert!(dst.stream.records().is_empty());
        assert!(!dst.health_enabled());
        assert_eq!(dst.health.snap(), crate::HealthSink::new(false).snap());
    }

    #[test]
    fn snapshot_survives_json_roundtrip() {
        let snap = ObsSnapshot::capture(&populated());
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: ObsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
    }
}
