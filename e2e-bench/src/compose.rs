//! The traced composition: the program's top-level calls split into
//! their public parts, each inside a span. Every composition here
//! mirrors one top-level function —
//!
//! - `simulate` mirrors `Simulator::run_with`,
//! - `roundtrip` mirrors `Study::complete_from_sim` (the text round trip),
//! - `figures` mirrors `Figures::compute`,
//! - `digest` mirrors `titan_runner::output_digest` —
//!
//! and the traced run checks that its results equal the top-level
//! call's (see the identity digests in each workload), so the
//! composition cannot drift from the program unnoticed.

use std::collections::BTreeMap;
use std::fmt;

use titan_analysis::consistency::dbe_accounting;
use titan_analysis::cooccurrence::cooccurrence_heatmap;
use titan_analysis::correlation::job_sbe_correlations;
use titan_analysis::filtering::dedup_by_job;
use titan_analysis::granularity::aprun_granularity;
use titan_analysis::interarrival::retirement_delays;
use titan_analysis::offenders::sbe_offender_analysis;
use titan_analysis::spatial::{cage_tally, incident_stripe, spatial_grid, spatial_with_filtering};
use titan_analysis::thermal::thermal_survey;
use titan_analysis::timeseries::{burstiness, monthly_counts, mtbf_hours};
use titan_analysis::user_proxy::user_level_correlation;
use titan_analysis::workload_charac::workload_characterization;
use titan_conlog::format::parse_stream;
use titan_conlog::time::SimTime;
use titan_conlog::{Aprun, JobRecord};
use titan_faults::calibration;
use titan_gpu::{GpuErrorKind, MemoryStructure};
use titan_obs::{KindCost, Obs};
use titan_reliability::{Figures, StudyData};
use titan_sim::{EngineState, SimConfig, SimOutput};

use crate::trace::{SpanId, Tracer};

/// Deterministic work counts, keyed by metric name.
pub type Counts = BTreeMap<String, f64>;

pub fn add(counts: &mut Counts, name: &str, v: f64) {
    *counts.entry(name.to_string()).or_insert(0.0) += v;
}

/// Streaming FNV-1a (the constants `output_digest` uses).
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

/// Digest of a value's `Debug` form, streamed so a large bundle is
/// never held as one string. Output types use ordered containers only,
/// so the form is identical across processes.
pub fn debug_digest<T: fmt::Debug>(v: &T) -> u64 {
    let mut h = Fnv::new();
    let _ = fmt::Write::write_fmt(&mut h, format_args!("{v:?}"));
    h.0
}

pub fn text_digest(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.eat(s.as_bytes());
    h.0
}

const SETUP_SCOPES: [&str; 2] = ["engine:workload", "engine:fault_drafts"];
const FINALIZE_SCOPE: &str = "engine:finalize";

/// Engine work counts from the `titan-prof/2` ledger of a prof-armed
/// sink: set-up (workload generation + fault drafting), the event loop
/// (every other engine scope) and finalize.
pub fn engine_counts(ledger: &BTreeMap<String, KindCost>, counts: &mut Counts) {
    let mut setup = KindCost::default();
    let mut looped = KindCost::default();
    for (scope, cost) in ledger {
        if SETUP_SCOPES.contains(&scope.as_str()) {
            setup.add(cost);
        } else if scope != FINALIZE_SCOPE
            && (scope.starts_with("ev:") || scope.starts_with("engine:"))
        {
            looped.add(cost);
        }
    }
    let drafts = ledger.get("engine:fault_drafts").map_or(0, |c| c.rng_draws);
    add(counts, "simulator.setup.rng_draws", setup.rng_draws as f64);
    add(
        counts,
        "simulator.setup.heap_pushes",
        setup.heap_pushes as f64,
    );
    add(
        counts,
        "simulator.setup.fault_draft_rng_draws",
        drafts as f64,
    );
    add(counts, "simulator.loop.dequeues", looped.dequeues as f64);
    add(
        counts,
        "simulator.loop.heap_pushes",
        looped.heap_pushes as f64,
    );
    add(
        counts,
        "simulator.loop.console_lines",
        looped.console_lines as f64,
    );
    add(
        counts,
        "simulator.loop.console_bytes",
        looped.console_bytes as f64,
    );
}

/// `Simulator::run_with`: set-up, the event loop to the horizon, and
/// finalize, one span each.
pub fn simulate(
    t: &Tracer,
    parent: SpanId,
    study: u64,
    cfg: &SimConfig,
    obs: &mut Obs,
) -> SimOutput {
    let p = Some(parent);
    let mut st = t.span("simulator.setup", study, p, |_| EngineState::new(cfg, obs));
    t.span("simulator.loop", study, p, |_| {
        st.run_until(SimTime::MAX, obs)
    });
    t.span("simulator.finalize", study, p, |_| st.finalize(obs))
}

/// The text round trip of `Study::complete_from_sim`: render each log,
/// parse it back, bundle the observable data.
pub fn roundtrip(
    t: &Tracer,
    parent: SpanId,
    study: u64,
    sim: &SimOutput,
    counts: &mut Counts,
) -> StudyData {
    let p = Some(parent);
    let console_text = t.span("conlog.render.console", study, p, |_| {
        sim.render_console_log()
    });
    let (console, console_parse) = t.span("conlog.parse.console", study, p, |_| {
        parse_stream(&console_text)
    });
    let job_text = t.span("conlog.render.job", study, p, |_| sim.render_job_log());
    let (jobs, job_parse_errors) = t.span("conlog.parse.job", study, p, |_| {
        let mut jobs = Vec::new();
        let mut errors = 0u64;
        for line in job_text.lines() {
            match JobRecord::parse(line) {
                Ok(j) => jobs.push(j),
                Err(_) => errors += 1,
            }
        }
        (jobs, errors)
    });
    let aprun_text = t.span("conlog.render.aprun", study, p, |_| sim.render_aprun_log());
    let apruns: Vec<Aprun> = t.span("conlog.parse.aprun", study, p, |_| {
        aprun_text.lines().filter_map(Aprun::parse).collect()
    });

    let aprun_lines = aprun_text.lines().count() as f64;
    let lines =
        (console_parse.parsed + console_parse.skipped + jobs.len() as u64 + job_parse_errors)
            as f64
            + aprun_lines;
    let ok = (console_parse.parsed + jobs.len() as u64 + apruns.len() as u64) as f64;
    add(
        counts,
        "conlog.render.console_bytes",
        console_text.len() as f64,
    );
    add(counts, "conlog.render.job_bytes", job_text.len() as f64);
    add(counts, "conlog.render.aprun_bytes", aprun_text.len() as f64);
    add(
        counts,
        "conlog.render.bytes",
        (console_text.len() + job_text.len() + aprun_text.len()) as f64,
    );
    add(counts, "conlog.parse.lines", lines);
    add(counts, "conlog.parse.ok_lines", ok);

    t.span("core.bundle", study, p, |_| StudyData {
        console,
        jobs,
        job_sbe: sim.job_sbe.clone(),
        apruns,
        snapshots: sim.final_snapshots.clone(),
        console_parse,
        job_parse_errors,
    })
}

/// `Figures::compute`, with every analysis call in a span named after
/// its `titan-analysis` module. The four heavy families fan out exactly
/// as the program fans them out.
pub fn figures(t: &Tracer, parent: SpanId, study: u64, data: &StudyData) -> Figures {
    use GpuErrorKind::*;

    t.span("core.figures", study, Some(parent), |fig| {
        macro_rules! an {
            ($module:literal, $e:expr) => {
                t.span(concat!("analysis.", $module), study, Some(fig), |_| $e)
            };
        }
        let console = &data.console;

        let ((offenders, correlation), (user, heatmap)) = rayon::join(
            || {
                rayon::join(
                    || an!("offenders", sbe_offender_analysis(&data.snapshots)),
                    || {
                        an!(
                            "correlation",
                            job_sbe_correlations(&data.jobs, &data.job_sbe, &data.snapshots)
                        )
                    },
                )
            },
            || {
                rayon::join(
                    || {
                        an!(
                            "user_proxy",
                            user_level_correlation(&data.jobs, &data.job_sbe, &data.snapshots)
                        )
                    },
                    || an!("cooccurrence", cooccurrence_heatmap(console)),
                )
            },
        );

        let mut sbe_by_structure: Vec<(MemoryStructure, u64)> = MemoryStructure::ECC_COUNTED
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let total = data
                    .job_sbe
                    .iter()
                    .map(|d| d.per_structure_sbe.get(i).copied().unwrap_or(0))
                    .sum();
                (m, total)
            })
            .collect();
        sbe_by_structure.sort_by_key(|&(_, c)| std::cmp::Reverse(c));

        Figures {
            fig02_dbe_monthly: an!("timeseries", monthly_counts(console, DoubleBitError)),
            fig02_mtbf_hours: an!("timeseries", mtbf_hours(console, DoubleBitError)),
            fig02_burstiness: an!("timeseries", burstiness(console, DoubleBitError)),

            fig03_dbe_grid: an!("spatial", spatial_grid(console, DoubleBitError, false)),
            fig03_dbe_cage: an!("spatial", cage_tally(console, DoubleBitError)),
            fig03_accounting: an!("consistency", dbe_accounting(console, &data.snapshots)),

            fig04_otb_monthly: an!("timeseries", monthly_counts(console, OffTheBus)),
            fig05_otb_grid: an!("spatial", spatial_grid(console, OffTheBus, false)),
            fig05_otb_cage: an!("spatial", cage_tally(console, OffTheBus)),

            fig06_retire_monthly: an!("timeseries", monthly_counts(console, EccPageRetirement)),
            fig07_retire_grid: an!("spatial", spatial_grid(console, EccPageRetirement, false)),
            fig07_retire_cage: an!("spatial", cage_tally(console, EccPageRetirement)),

            fig08_delays: an!(
                "interarrival",
                retirement_delays(console, calibration::retirement_xid_introduced())
            ),

            fig09_xid_monthly: [
                GpuMemoryPageFault,
                PushBufferStream,
                GpuStoppedProcessing,
                ContextSwitchFault,
                DriverFirmware,
                VideoProcessorSw,
            ]
            .iter()
            .map(|&k| {
                if k.user_application_possible() {
                    let deduped = an!("filtering", dedup_by_job(console, k, 5));
                    an!("timeseries", monthly_counts(&deduped.parents, k))
                } else {
                    an!("timeseries", monthly_counts(console, k))
                }
            })
            .collect(),
            fig10_xid13_monthly: an!(
                "timeseries",
                monthly_counts(console, GraphicsEngineException)
            ),
            fig10_xid13_burstiness: an!("timeseries", burstiness(console, GraphicsEngineException)),
            fig10_xid43_burstiness: an!("timeseries", burstiness(console, GpuStoppedProcessing)),
            fig11_uchalt_monthly: [MicrocontrollerHaltOld, MicrocontrollerHaltNew]
                .iter()
                .map(|&k| an!("timeseries", monthly_counts(console, k)))
                .collect(),

            fig12_xid13_spatial: an!(
                "spatial",
                spatial_with_filtering(console, GraphicsEngineException)
            ),
            fig12_incident_stripe: an!(
                "spatial",
                incident_stripe(console, GraphicsEngineException, 5)
            ),

            fig13_heatmap: heatmap,
            fig14_15_offenders: offenders,
            fig16_19_correlation: correlation,
            fig20_user: user,
            fig21_workload: an!("workload_charac", workload_characterization(&data.jobs)),

            sbe_by_structure,

            thermal: an!("thermal", thermal_survey(&data.snapshots)),
            granularity: an!(
                "granularity",
                aprun_granularity(&data.apruns, &data.job_sbe)
            ),
        }
    })
}

/// Records consumed by the analysis layer: every row of the bundle.
pub fn analysis_records(data: &StudyData) -> f64 {
    (data.console.len()
        + data.jobs.len()
        + data.job_sbe.len()
        + data.apruns.len()
        + data.snapshots.len()) as f64
}

/// `titan_runner::output_digest`: FNV-1a over the serialized output
/// and the three re-rendered logs, in that order.
pub fn digest(t: &Tracer, parent: SpanId, study: u64, sim: &SimOutput, counts: &mut Counts) -> u64 {
    t.span("runner.digest", study, Some(parent), |d| {
        let p = Some(d);
        let json = t.span("runner.digest.serialize", study, p, |_| {
            serde_json::to_string(sim).unwrap_or_default()
        });
        let logs = t.span("runner.digest.render", study, p, |_| {
            [
                sim.render_console_log(),
                sim.render_job_log(),
                sim.render_aprun_log(),
            ]
        });
        let bytes = json.len() + logs.iter().map(String::len).sum::<usize>();
        add(counts, "runner.digest.bytes", bytes as f64);
        t.span("runner.digest.hash", study, p, |_| {
            let mut h = Fnv::new();
            h.eat(json.as_bytes());
            for log in &logs {
                h.eat(log.as_bytes());
            }
            h.0
        })
    })
}
