//! The [`Study`] runner: simulate → render logs → re-parse → analyze.

use serde::{Deserialize, Serialize};
use titan_conlog::format::{parse_into, ParseStats};
use titan_conlog::{Aprun, ConsoleEvent, JobRecord, LogLine};
use titan_nvsmi::{GpuSnapshot, JobEccDelta};
use titan_obs::Obs;
use titan_sim::{SimConfig, SimOutput, Simulator};

use crate::figures::Figures;

/// Study configuration: a thin veneer over [`SimConfig`] with the
/// study-level choices exposed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct StudyConfig {
    /// Underlying simulation config.
    pub sim: SimConfig,
    /// When true (default false), skip the render→parse round trip and
    /// feed simulator events straight to analysis. The round trip is the
    /// honest path; the shortcut exists for benchmarking the analysis in
    /// isolation.
    pub skip_text_roundtrip: bool,
}

impl StudyConfig {
    /// Quick config for tests: `days` of simulated operation.
    pub fn quick(days: u64, seed: u64) -> Self {
        StudyConfig {
            sim: SimConfig::quick(days, seed),
            skip_text_roundtrip: false,
        }
    }
}

/// The observable data bundle the analysis runs on.
#[derive(Debug, Clone, Default)]
pub struct StudyData {
    /// Console events (parsed back from rendered text unless the
    /// shortcut was taken).
    pub console: Vec<ConsoleEvent>,
    /// Batch job records (parsed back from the job log text).
    pub jobs: Vec<JobRecord>,
    /// Per-job SBE deltas from the snapshot framework.
    pub job_sbe: Vec<JobEccDelta>,
    /// Aprun (ALPS) log records.
    pub apruns: Vec<Aprun>,
    /// End-of-study fleet snapshots.
    pub snapshots: Vec<GpuSnapshot>,
    /// Console parse statistics (skipped lines indicate format drift).
    pub console_parse: ParseStats,
    /// Job-log lines that failed to parse.
    pub job_parse_errors: u64,
}

/// A runnable study.
#[derive(Debug, Clone)]
pub struct Study {
    config: StudyConfig,
}

/// A completed study: raw simulator output plus the re-parsed bundle.
#[derive(Debug, Clone)]
pub struct CompletedStudy {
    /// The configuration used.
    pub config: StudyConfig,
    /// Raw simulator output (contains ground truth — tests only).
    pub sim: SimOutput,
    /// The observable bundle the analysis uses.
    pub data: StudyData,
}

impl Study {
    /// Creates a study.
    pub fn new(config: StudyConfig) -> Self {
        Study { config }
    }

    /// Runs simulation and the log round trip.
    pub fn run(&self) -> CompletedStudy {
        self.run_with_obs(&mut Obs::disabled())
    }

    /// [`run`](Self::run) with a telemetry sink threaded through the
    /// engine. The sink only observes (see `Simulator::run_with`), so
    /// this produces the same [`CompletedStudy`] as `run()`.
    pub fn run_with_obs(&self, obs: &mut Obs) -> CompletedStudy {
        let sim = Simulator::new(self.config.sim.clone())
            .expect("config validated by construction")
            .run_with(obs);
        self.complete_from_sim(sim, obs)
    }

    /// The post-simulation half of a study: render → parse → bundle.
    /// Split out so checkpoint/resume paths (which drive the engine
    /// themselves, see `titan-runner`) produce the same
    /// [`CompletedStudy`] as a straight-through [`run`](Self::run).
    pub fn complete_from_sim(&self, sim: SimOutput, obs: &mut Obs) -> CompletedStudy {
        obs.phase("study:render_parse_logs");
        let data = if self.config.skip_text_roundtrip {
            StudyData {
                console: sim.console.clone(),
                jobs: sim.jobs.clone(),
                job_sbe: sim.job_sbe.clone(),
                apruns: sim.apruns.clone(),
                snapshots: sim.final_snapshots.clone(),
                console_parse: ParseStats {
                    parsed: sim.console.len() as u64,
                    skipped: 0,
                },
                job_parse_errors: 0,
            }
        } else {
            // The honest path: render to text, parse back, one record
            // at a time so no whole-log string is built.
            let mut console = Vec::with_capacity(sim.console.len());
            let mut console_parse = ParseStats::default();
            for_each_rendered(&sim.console, |text| {
                parse_into(text, &mut console, &mut console_parse);
            });
            let mut jobs = Vec::with_capacity(sim.jobs.len());
            let mut job_parse_errors = 0u64;
            for_each_rendered(&sim.jobs, |text| {
                for line in text.lines() {
                    match JobRecord::parse(line) {
                        Ok(j) => jobs.push(j),
                        Err(_) => job_parse_errors += 1,
                    }
                }
            });
            let mut apruns = Vec::with_capacity(sim.apruns.len());
            for_each_rendered(&sim.apruns, |text| {
                apruns.extend(text.lines().filter_map(Aprun::parse));
            });
            StudyData {
                console,
                jobs,
                job_sbe: sim.job_sbe.clone(),
                apruns,
                snapshots: sim.final_snapshots.clone(),
                console_parse,
                job_parse_errors,
            }
        };
        CompletedStudy {
            config: self.config.clone(),
            sim,
            data,
        }
    }
}

/// Renders each record as its log line (newline-terminated, as the
/// `SimOutput::render_*_log` renderers write it) into one reused buffer
/// and hands the text to `parse`. The pieces concatenate to the whole
/// rendered log and each ends in a newline, so splitting each piece into
/// lines yields exactly the lines of the whole log.
fn for_each_rendered<T: LogLine>(records: &[T], mut parse: impl FnMut(&str)) {
    let mut line = String::new();
    for r in records {
        line.clear();
        r.write_line(&mut line);
        line.push('\n');
        parse(&line);
    }
}

impl CompletedStudy {
    /// Computes every figure from the observable bundle.
    pub fn figures(&self) -> Figures {
        Figures::compute(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_lossless() {
        let study = Study::new(StudyConfig::quick(20, 42)).run();
        // Every rendered console line must parse back.
        assert_eq!(study.data.console_parse.skipped, 0);
        assert_eq!(study.data.job_parse_errors, 0);
        assert_eq!(study.data.console, study.sim.console);
        assert_eq!(study.data.jobs.len(), study.sim.jobs.len());
        for (a, b) in study.data.jobs.iter().zip(&study.sim.jobs) {
            assert_eq!(a.apid, b.apid);
            // The job-log wire format stores nodes as sorted id ranges, so
            // allocation order is normalized away; compare as sets.
            let mut bn = b.nodes.to_vec();
            bn.sort_unstable();
            assert_eq!(a.nodes.to_vec(), bn);
            assert!((a.gpu_core_hours - b.gpu_core_hours).abs() < 1e-3);
        }
    }

    #[test]
    fn shortcut_matches_roundtrip() {
        let mut cfg = StudyConfig::quick(15, 7);
        let honest = Study::new(cfg.clone()).run();
        cfg.skip_text_roundtrip = true;
        let fast = Study::new(cfg).run();
        assert_eq!(honest.data.console, fast.data.console);
    }
}
