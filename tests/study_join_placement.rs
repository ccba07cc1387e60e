//! A study gives the same bytes wherever its joins run.
//!
//! `Study::complete_from_sim` and `Figures::compute` each make one
//! `rayon::join`. On the test's own thread, with a pool wider than one,
//! each join runs its second half on a scoped thread; on a
//! `rayon::scope_map` worker it runs both halves inline. The job log is
//! split wherever the two halves of the round trip meet, so the windows
//! with no job and with one job cover the edges of that split. CI runs
//! this file under `TITAN_NUM_THREADS=2`, so that the joins thread even
//! on a one-CPU runner.

use titan_gpu_reliability::{evaluate_all, Expectation, Study, StudyConfig, StudyData};

/// What a study yields: the parsed bundle, the compact figures JSON and
/// the expectation verdicts.
type Outcome = (StudyData, String, Vec<Expectation>);

fn outcome(config: &StudyConfig) -> Outcome {
    let study = Study::new(config.clone()).run();
    let figures = study.figures();
    let json = serde_json::to_string(&figures).expect("figures serialize");
    let expectations = evaluate_all(&figures);
    (study.data, json, expectations)
}

/// Runs `config` on this thread, then twice inside a two-item
/// `scope_map`, and requires all three outcomes to be equal. Returns the
/// number of jobs the study parsed.
fn placements_agree(config: StudyConfig) -> usize {
    let on_caller = outcome(&config);
    let on_workers = rayon::scope_map(vec![config.clone(), config], 2, |c| outcome(&c));
    // `assert!` rather than `assert_eq!`: the `Debug` form of a study's
    // bundle runs to megabytes.
    for on_worker in &on_workers {
        assert!(on_worker.0 == on_caller.0, "StudyData differs");
        assert!(on_worker.1 == on_caller.1, "figures JSON differs");
        assert!(on_worker.2 == on_caller.2, "expectations differ");
    }
    on_caller.0.jobs.len()
}

/// `StudyConfig::quick` cut to `minutes` of simulated time.
fn minutes(minutes: u64, seed: u64) -> StudyConfig {
    let mut config = StudyConfig::quick(1, seed);
    config.sim.window = minutes * 60;
    config.sim.schedule.window = minutes * 60;
    config
}

#[test]
fn quick_studies_agree_threaded_and_inline() {
    for seed in [99, 7] {
        assert!(placements_agree(StudyConfig::quick(30, seed)) > 1);
    }
}

#[test]
fn windows_with_no_job_and_one_job_agree_threaded_and_inline() {
    assert_eq!(placements_agree(minutes(5, 30)), 0);
    assert_eq!(placements_agree(minutes(10, 30)), 1);
}
