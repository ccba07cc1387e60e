//! Whole-sink snapshots for checkpoint/restore (`titan-ckpt/1`).
//!
//! A checkpoint must carry the observability state alongside the engine
//! state, or a resumed run's metrics document and trace file would
//! restart from zero and break the byte-identity contract. An
//! [`ObsSnapshot`] holds one section per sink of an [`Obs`] — metrics
//! registry, time series, span ring, causal flight recorder, health
//! sink and cost ledger — and each sink writes and reads its own
//! section (`snap` / `restore` beside the sink's code).
//!
//! An observer is on or off and has no other setting, so each section
//! has exactly one valid shape: the registry's names in registration
//! order, `min(recorded, SPAN_CAPACITY)` spans, one series per
//! [`crate::TsSeries`], an open health interval on the weekly grid. A
//! restore checks its section against that shape and refuses anything
//! else, naming the sink (`checkpoint obs.<sink>: …`), rather than
//! trimming, registering or re-gridding it. It also
//! preserves the disabled-sink-is-inert invariant: each sink's restore
//! is a no-op when that sink is off, so a sink's state is dropped, not
//! revived, when the flags differ (resume refuses a flag mismatch
//! before restoring — see DETERMINISM.md).

use serde::{Deserialize, Serialize};

use crate::flight::TraceRecord;
use crate::health::HealthSnap;
use crate::metrics::{HistRow, ValueRow};
use crate::prof::ProfSnap;
use crate::trace::SpanSnap;
use crate::Obs;

/// A plain-data copy of one [`Obs`] sink, suitable for embedding in a
/// checkpoint document. Capture with [`ObsSnapshot::capture`], apply
/// with [`ObsSnapshot::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// `(section, name, value)` for every counter, registration order.
    counters: Vec<ValueRow>,
    /// `(section, name, value)` for every gauge, registration order.
    gauges: Vec<ValueRow>,
    /// `(name, bounds, counts, count, sum)` for every histogram.
    hists: Vec<HistRow>,
    /// Raw buckets of every time series, in export order.
    timeseries: Vec<Vec<u64>>,
    /// Retained spans, oldest first.
    spans: Vec<SpanSnap>,
    /// Total spans ever recorded (exact, past ring capacity).
    spans_recorded: u64,
    /// Exact per-kind span totals, in export order.
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
    /// ledger is off on either side).
    prof: ProfSnap,
}

impl ObsSnapshot {
    /// Copies the full state of `obs` into a serializable snapshot.
    /// Disabled sinks contribute their (empty / zero) state verbatim.
    pub fn capture(obs: &Obs) -> ObsSnapshot {
        let (counters, gauges, hists) = obs.reg.snap();
        let (spans, spans_recorded, spans_by_kind) = obs.trace.snap();
        let (trace_next, trace_records, trace_console) = obs.stream.snap();
        ObsSnapshot {
            counters,
            gauges,
            hists,
            timeseries: obs.ts.snap(),
            spans,
            spans_recorded,
            spans_by_kind,
            trace_next,
            trace_records,
            trace_console,
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

    /// Overwrites `obs` with the snapshot's state, one sink at a time.
    /// Each sink checks its section first; the error names the first
    /// sink whose section it cannot hold.
    pub fn restore(&self, obs: &mut Obs) -> Result<(), String> {
        let at = |sink: &'static str| move |e: String| format!("checkpoint obs.{sink}: {e}");
        obs.reg.restore(&self.counters, &self.gauges, &self.hists).map_err(at("metrics"))?;
        obs.ts.restore(&self.timeseries).map_err(at("timeseries"))?;
        obs.trace
            .restore(&self.spans, self.spans_recorded, &self.spans_by_kind)
            .map_err(at("spans"))?;
        obs.stream
            .restore(self.trace_next, &self.trace_records, &self.trace_console)
            .map_err(at("trace"))?;
        obs.health.restore(&self.health).map_err(at("health"))?;
        obs.prof.restore(&self.prof);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostKind, ObsEvent};

    fn populated() -> Obs {
        let mut obs = Obs::new(true);
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
        obs.emit(ObsEvent::Reboot { t: 9, node: 3, xid: 48 });
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
        let mut dst = Obs::new(true);
        dst.enable_trace();
        dst.enable_health();
        dst.enable_prof();
        snap.restore(&mut dst).expect("restore");
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
        assert_eq!(dst.ts.snap(), src.ts.snap());
        assert_eq!(dst.trace.recorded(), 1);
        assert_eq!(dst.trace.spans(), src.trace.spans());
        assert_eq!(dst.stream.snap(), src.stream.snap());
        // And the re-captured snapshot is identical — capture∘restore is
        // the identity on the observable state.
        assert_eq!(ObsSnapshot::capture(&dst), snap);
    }

    #[test]
    fn restore_into_disabled_sink_is_inert() {
        let snap = ObsSnapshot::capture(&populated());
        let mut dst = Obs::disabled();
        snap.restore(&mut dst).expect("inert restore");
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
