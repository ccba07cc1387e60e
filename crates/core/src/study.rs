//! The [`Study`] runner: simulate → render logs → re-parse → analyze.

use std::ops::Range;
use std::sync::{Mutex, PoisonError};

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
#[derive(Debug, Clone, Default, PartialEq)]
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
            parse_back(&sim)
        };
        CompletedStudy {
            config: self.config.clone(),
            sim,
            data,
        }
    }
}

/// The honest path: renders the three logs to text and parses them
/// back, one record at a time so no whole-log string is built.
///
/// The logs are independent, so one `rayon::join` runs them on two
/// threads. The caller takes job records from the front; the worker
/// renders the console and aprun logs, then takes job records from the
/// back. The split point is wherever the two meet, so it follows the
/// input's sizes and the host's speed with nothing tuned, and the
/// worker's tail is appended after the caller's head in log order.
/// Every output `Vec` is allocated here, before the join: a worker
/// thread allocates from its own malloc arena, which cannot reuse the
/// memory the simulator freed.
fn parse_back(sim: &SimOutput) -> StudyData {
    let mut console = Vec::with_capacity(sim.console.len());
    let mut apruns = Vec::with_capacity(sim.apruns.len());
    let mut jobs = Vec::with_capacity(sim.jobs.len());
    // The worker's share of the job log, in reverse log order. Its share
    // is not known in advance; only the part it fills is written.
    let mut tail = Vec::with_capacity(sim.jobs.len());
    let unclaimed = Mutex::new(0..sim.jobs.len());
    let (head_errors, (console_parse, tail_errors)) = rayon::join(
        || parse_jobs(&sim.jobs, &unclaimed, Range::next, &mut jobs),
        || {
            let mut console_parse = ParseStats::default();
            for_each_rendered(&sim.console, |text| {
                parse_into(text, &mut console, &mut console_parse);
            });
            for_each_rendered(&sim.apruns, |text| {
                apruns.extend(text.lines().filter_map(Aprun::parse));
            });
            let errors = parse_jobs(&sim.jobs, &unclaimed, Range::next_back, &mut tail);
            (console_parse, errors)
        },
    );
    jobs.extend(tail.into_iter().rev());
    StudyData {
        console,
        jobs,
        job_sbe: sim.job_sbe.clone(),
        apruns,
        snapshots: sim.final_snapshots.clone(),
        console_parse,
        job_parse_errors: head_errors + tail_errors,
    }
}

/// Renders and parses back the job records that `claim` takes from the
/// shared `unclaimed` range, pushing each in claim order; returns the
/// number of lines that failed to parse. A job record is one line.
fn parse_jobs(
    records: &[JobRecord],
    unclaimed: &Mutex<Range<usize>>,
    claim: fn(&mut Range<usize>) -> Option<usize>,
    out: &mut Vec<JobRecord>,
) -> u64 {
    let mut line = String::new();
    let mut errors = 0;
    loop {
        // The guard drops at the end of this statement, so the lock is
        // held only for the claim. `Range::next`/`next_back` cannot
        // panic, so the other side never poisons it.
        let claimed = claim(&mut unclaimed.lock().unwrap_or_else(PoisonError::into_inner));
        let Some(record) = claimed.and_then(|i| records.get(i)) else {
            break;
        };
        line.clear();
        record.write_line(&mut line);
        match JobRecord::parse(&line) {
            Ok(j) => out.push(j),
            Err(_) => errors += 1,
        }
    }
    errors
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
