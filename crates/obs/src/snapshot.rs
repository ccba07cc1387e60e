//! Whole-sink snapshots for checkpoint/restore (`titan-ckpt/3`).
//!
//! A checkpoint must carry the observability state alongside the engine
//! state, or a resumed run's metrics document and trace file would
//! restart from zero and break the byte-identity contract. An
//! [`ObsSnapshot`] holds one section per sink of an [`Obs`] — `metrics`
//! (registry and time series, armed together), `trace` (the causal
//! flight recorder), `health` and `prof` (the cost ledger) — and each
//! section is the sink's own snap type, written and read beside the
//! sink's code. A sink that is off has a `null` section, so the
//! sections present are the run's observer plan ([`ObsSnapshot::plan`]).
//!
//! An observer is on or off and has no other setting, so each section
//! has exactly one valid shape: the registry's names in registration
//! order, one series per [`crate::TsSeries`] with no bucket past the
//! checkpoint's week and each summing to the counter it shadows, an
//! open health interval on the weekly grid; no section stores what the
//! resume derives from the rest. A restore checks its section against
//! that shape and refuses anything else, naming the section
//! (`checkpoint obs.<section>: …`), rather than trimming, registering
//! or re-gridding it. Resume arms exactly the sinks whose sections are
//! present, refusing a flag mismatch before restoring (see
//! DETERMINISM.md); a disabled sink's restore is a no-op.

use serde::{Deserialize, Serialize};
use titan_conlog::time::SimTime;
use titan_conlog::ConsoleEvent;

use crate::flight::TraceSnap;
use crate::health::HealthSnap;
use crate::metrics::MetricsSnap;
use crate::prof::ProfSnap;
use crate::{Obs, ObsPlan};

/// A plain-data copy of every armed [`Obs`] sink, suitable for
/// embedding in a checkpoint document. Capture with
/// [`ObsSnapshot::capture`], apply with [`ObsSnapshot::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Registry and time series (`--metrics`).
    metrics: Option<MetricsSnap>,
    /// Causal flight recorder (`--trace`).
    trace: Option<TraceSnap>,
    /// Health sink (`--health`).
    health: Option<HealthSnap>,
    /// Cost ledger (`--prof`).
    prof: Option<ProfSnap>,
}

impl ObsSnapshot {
    /// Copies the state of every armed sink of `obs`; a sink that is
    /// off contributes no section.
    pub fn capture(obs: &Obs) -> ObsSnapshot {
        ObsSnapshot {
            metrics: obs.reg.enabled().then(|| obs.reg.snap(obs.ts.snap())),
            trace: obs.stream.is_enabled().then(|| obs.stream.snap()),
            health: obs.health.is_enabled().then(|| obs.health.snap()),
            prof: obs.prof.enabled().then(|| obs.prof.snap()),
        }
    }

    /// The observer plan of the snapshotted run: the sinks whose
    /// sections are present.
    pub fn plan(&self) -> ObsPlan {
        ObsPlan {
            metrics: self.metrics.is_some(),
            trace: self.trace.is_some(),
            health: self.health.is_some(),
            prof: self.prof.is_some(),
        }
    }

    /// Overwrites `obs` with the snapshot's state, one section at a
    /// time; `t` is the sim time the run paused at and `console` the
    /// paused engine's console log. Each sink checks its section first;
    /// the error names the first section it cannot hold.
    pub fn restore(&self, obs: &mut Obs, t: SimTime, console: &[ConsoleEvent]) -> Result<(), String> {
        let at = |sink: &'static str| move |e: String| format!("checkpoint obs.{sink}: {e}");
        if let Some(m) = &self.metrics {
            obs.reg.restore(m).map_err(at("metrics"))?;
            obs.ts.restore(&m.timeseries, t, &obs.reg).map_err(at("metrics"))?;
        }
        if let Some(trace) = &self.trace {
            obs.stream.restore(trace, console).map_err(at("trace"))?;
        }
        if let Some(health) = &self.health {
            obs.health.restore(health).map_err(at("health"))?;
        }
        if let Some(prof) = &self.prof {
            obs.prof.restore(prof);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostKind, ObsEvent};

    /// The sim time the populated sinks pause at.
    const T: SimTime = 10;

    /// The one console line the populated run logs.
    fn line() -> ConsoleEvent {
        ConsoleEvent {
            time: 5,
            node: titan_topology::NodeId(3),
            kind: titan_gpu::GpuErrorKind::OffTheBus,
            structure: None,
            page: None,
            apid: None,
        }
    }

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
        let root = obs.emit(ObsEvent::FaultDraft {
            t: 5,
            detail: &|| "dbe".to_string(),
        });
        obs.emit(ObsEvent::Fault {
            parent: root,
            t: 5,
            card: Some(77),
            node: Some(3),
            apid: None,
            detail: &|| "otb".to_string(),
            lines: &[line()],
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
        let all = ObsPlan {
            metrics: true,
            trace: true,
            health: true,
            prof: true,
        };
        assert_eq!(snap.plan(), all);
        let mut dst = Obs::from_plan(&all);
        snap.restore(&mut dst, T, &[line()]).expect("restore");
        assert_eq!(
            dst.prof_ledger().ledger_map()["engine:workload"].rng_draws,
            42
        );
        assert_eq!(dst.health.snap(), src.health.snap());
        assert_eq!(ev_dbe(&mut dst), 1);
        let g = dst.reg.gauge("engine", "heap_high_water");
        assert_eq!(dst.reg.gauge_value(g), 41);
        assert_eq!(dst.ts.snap(), src.ts.snap());
        assert_eq!(dst.stream.snap(), src.stream.snap());
        // And the re-captured snapshot is identical — capture∘restore is
        // the identity on the observable state.
        assert_eq!(ObsSnapshot::capture(&dst), snap);
    }

    #[test]
    fn restore_into_disabled_sink_is_inert() {
        let snap = ObsSnapshot::capture(&populated());
        let mut dst = Obs::disabled();
        snap.restore(&mut dst, T, &[line()]).expect("inert restore");
        assert_eq!(ev_dbe(&mut dst), 0);
        assert!(dst.ts.series(crate::TsSeries::EvDbe).is_empty());
        assert_eq!(dst.stream.next_id(), 1);
        assert!(dst.stream.records().is_empty());
        assert!(!dst.health_enabled());
        assert_eq!(dst.health.snap(), crate::HealthSink::new(false).snap());
    }

    /// A disabled sink writes a `null` section, and the plan reads it
    /// back as off.
    #[test]
    fn a_disabled_sink_has_a_null_section() {
        let snap = ObsSnapshot::capture(&Obs::new(true));
        assert_eq!(snap.plan(), ObsPlan { metrics: true, ..ObsPlan::default() });
        let json = serde_json::to_string(&snap).expect("serialize");
        assert!(json.ends_with(r#""trace":null,"health":null,"prof":null}"#), "{json}");
    }

    /// The time series restore only as a run paused at `T` holds them:
    /// each series has no bucket past `T`'s week and sums to the
    /// counter it shadows. `console_lines` is bucketed at finalize, so
    /// a paused run holds it empty.
    #[test]
    fn timeseries_must_fit_the_pause_and_the_counters() {
        let snap = ObsSnapshot::capture(&populated());
        let restore = |edit: fn(&mut Vec<Vec<u64>>)| {
            let mut s = snap.clone();
            edit(&mut s.metrics.as_mut().expect("metrics section").timeseries);
            s.restore(&mut Obs::new(true), T, &[])
        };
        assert!(restore(|_| {}).is_ok());
        let err = restore(|ts| ts[0] = vec![5]).expect_err("console lines before finalize");
        assert!(err.contains("timeseries.console_lines sums to 5, engine.console_lines is 0"), "{err}");
        let err = restore(|ts| ts[1] = vec![1, 0, 0, 7]).expect_err("buckets past the pause");
        assert!(err.contains("obs.metrics: timeseries.ev_dbe holds 4 buckets"), "{err}");
        let err = restore(|ts| ts[1] = vec![2]).expect_err("a sum off its counter");
        assert!(err.contains("timeseries.ev_dbe sums to 2, engine.ev_dbe is 1"), "{err}");
    }

    #[test]
    fn snapshot_survives_json_roundtrip() {
        let snap = ObsSnapshot::capture(&populated());
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: ObsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
    }
}
