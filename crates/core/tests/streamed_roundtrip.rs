//! The study's log round trip renders and parses one record at a time.
//! Whatever the window, it must yield exactly the bundle that parsing
//! each whole rendered log gives: the same events, records and parse
//! counters.

use titan_conlog::format::parse_stream;
use titan_conlog::{Aprun, JobRecord};
use titan_obs::Obs;
use titan_reliability::{Study, StudyConfig, StudyData};
use titan_sim::{SimOutput, Simulator};

/// The bundle built from the three whole-log strings.
fn whole_text_bundle(sim: &SimOutput) -> StudyData {
    let (console, console_parse) = parse_stream(&sim.render_console_log());
    let mut jobs = Vec::new();
    let mut job_parse_errors = 0u64;
    for line in sim.render_job_log().lines() {
        match JobRecord::parse(line) {
            Ok(j) => jobs.push(j),
            Err(_) => job_parse_errors += 1,
        }
    }
    let apruns = sim
        .render_aprun_log()
        .lines()
        .filter_map(Aprun::parse)
        .collect();
    StudyData {
        console,
        jobs,
        job_sbe: sim.job_sbe.clone(),
        apruns,
        snapshots: sim.final_snapshots.clone(),
        console_parse,
        job_parse_errors,
    }
}

#[test]
fn streamed_round_trip_equals_whole_text_parse() {
    for (days, seed) in [(1u64, 4_242u64), (10, 17), (30, 1093)] {
        let config = StudyConfig::quick(days, seed);
        let sim = Simulator::new(config.sim.clone())
            .expect("valid config")
            .run();
        let want = whole_text_bundle(&sim);
        let got = Study::new(config)
            .complete_from_sim(sim, &mut Obs::disabled())
            .data;
        let case = format!("quick({days}, {seed})");
        assert!(
            !want.console.is_empty() && !want.jobs.is_empty(),
            "{case}: empty logs"
        );
        assert_eq!(
            got.console_parse, want.console_parse,
            "{case}: console_parse"
        );
        assert_eq!(
            got.job_parse_errors, want.job_parse_errors,
            "{case}: job_parse_errors"
        );
        assert!(got.console == want.console, "{case}: console events differ");
        assert!(got.jobs == want.jobs, "{case}: job records differ");
        assert!(got.apruns == want.apruns, "{case}: aprun records differ");
        assert!(got.job_sbe == want.job_sbe, "{case}: job SBE deltas differ");
        assert!(got.snapshots == want.snapshots, "{case}: snapshots differ");
    }
}
