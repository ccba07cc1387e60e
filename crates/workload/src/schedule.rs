//! End-to-end workload generation: submission stream → placed, time-
//! ordered schedule.
//!
//! A tiny event-driven scheduler: jobs start at submission when enough
//! nodes are free, otherwise they queue FIFO and start as releases free
//! capacity. Output is the [`WorkloadSchedule`] the fleet simulator and
//! the job logs are built from.

use std::collections::{BinaryHeap, VecDeque};

use rand::Rng;
use serde::{Deserialize, Serialize};
use titan_conlog::time::{SimTime, STUDY_SECONDS};
use titan_topology::NodeId;

use crate::allocation::TorusAllocator;
use crate::jobs::{JobSizer, JobSpec};
use crate::users::UserPopulation;

/// Generation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleConfig {
    /// Users in the population.
    pub n_users: usize,
    /// Mean job submissions per day.
    pub jobs_per_day: f64,
    /// Generation window, seconds from the study epoch.
    pub window: SimTime,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            n_users: 400,
            jobs_per_day: 110.0,
            window: STUDY_SECONDS,
        }
    }
}

/// One placed job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledJob {
    /// The sized spec.
    pub spec: JobSpec,
    /// Actual start (≥ submit).
    pub start: SimTime,
    /// Actual end.
    pub end: SimTime,
    /// Placed nodes, in allocation order.
    pub nodes: Vec<NodeId>,
}

impl ScheduledJob {
    /// Wall-clock seconds actually run.
    pub fn wall_seconds(&self) -> u64 {
        self.end - self.start
    }

}

/// The full placed workload, sorted by start time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSchedule {
    /// Jobs sorted by start.
    pub jobs: Vec<ScheduledJob>,
    /// Jobs that never started (machine saturated through window end).
    pub dropped: usize,
}

impl WorkloadSchedule {
    /// Generates the schedule.
    pub fn generate<R: Rng + ?Sized>(config: &ScheduleConfig, rng: &mut R) -> Self {
        let population = UserPopulation::generate(config.n_users, rng);
        let stream = JobSizer.generate_stream(
            &population,
            config.jobs_per_day,
            config.window,
            rng,
        );
        Self::place(stream, config.window)
    }

    /// Places an explicit submission stream (exposed for tests and
    /// ablations).
    pub fn place(stream: Vec<JobSpec>, window: SimTime) -> Self {
        let mut alloc = TorusAllocator::new();
        let mut jobs: Vec<ScheduledJob> = Vec::with_capacity(stream.len());
        // Min-heap of (end_time, job_index) for releases.
        let mut running: BinaryHeap<std::cmp::Reverse<(SimTime, usize)>> = BinaryHeap::new();
        let mut queue: VecDeque<JobSpec> = VecDeque::new();
        let mut dropped = 0usize;

        let try_start =
            |spec: JobSpec,
             now: SimTime,
             alloc: &mut TorusAllocator,
             jobs: &mut Vec<ScheduledJob>,
             running: &mut BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>|
             -> Option<JobSpec> {
                match alloc.allocate(spec.nodes as usize) {
                    Some(nodes) => {
                        let start = now;
                        let end = (start + spec.wall).min(window);
                        let idx = jobs.len();
                        jobs.push(ScheduledJob {
                            spec,
                            start,
                            end,
                            nodes,
                        });
                        running.push(std::cmp::Reverse((end, idx)));
                        None
                    }
                    None => Some(spec),
                }
            };

        for spec in stream {
            let now = spec.submit;
            // Drain releases up to the submission instant, starting queued
            // jobs as capacity frees.
            while let Some(&std::cmp::Reverse((end, idx))) = running.peek() {
                if end > now {
                    break;
                }
                running.pop();
                let nodes = std::mem::take(&mut jobs[idx].nodes);
                alloc.release(&nodes);
                jobs[idx].nodes = nodes;
                // FIFO backfill: start as many queued jobs as now fit.
                while let Some(q) = queue.pop_front() {
                    match try_start(q, end, &mut alloc, &mut jobs, &mut running) {
                        None => {}
                        Some(q) => {
                            queue.push_front(q);
                            break;
                        }
                    }
                }
            }
            if let Some(spec) = try_start(spec, now, &mut alloc, &mut jobs, &mut running) {
                queue.push_back(spec);
            }
        }
        dropped += queue.len();

        jobs.sort_by_key(|j| j.start);
        WorkloadSchedule { jobs, dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_schedule() -> WorkloadSchedule {
        let mut rng = StdRng::seed_from_u64(31337);
        let config = ScheduleConfig {
            n_users: 50,
            jobs_per_day: 80.0,
            window: 30 * 86_400,
        };
        WorkloadSchedule::generate(&config, &mut rng)
    }

    #[test]
    fn jobs_run_within_window_and_walls() {
        let s = small_schedule();
        assert!(!s.jobs.is_empty());
        for j in &s.jobs {
            assert!(j.start >= j.spec.submit);
            assert!(j.end <= 30 * 86_400);
            assert!(j.wall_seconds() <= j.spec.wall);
            assert_eq!(j.nodes.len(), j.spec.nodes as usize);
        }
    }

    #[test]
    fn queued_jobs_start_after_release() {
        // Saturate the machine with one huge job, then submit another: it
        // must start when the first ends, not be dropped.
        let big = JobSpec {
            apid: 1,
            user: 0,
            nodes: 18_000,
            submit: 0,
            wall: 3_600,
            mem_max_bytes: 1 << 30,
            gpu_util: 0.9,
            is_debug: false,
        };
        let second = JobSpec {
            apid: 2,
            nodes: 10_000,
            submit: 10,
            ..big.clone()
        };
        let third = JobSpec {
            apid: 3,
            nodes: 100,
            submit: 7_200,
            ..big.clone()
        };
        let s = WorkloadSchedule::place(vec![big, second, third], 30 * 86_400);
        assert_eq!(s.jobs.len(), 3);
        assert_eq!(s.dropped, 0);
        let j2 = s.jobs.iter().find(|j| j.spec.apid == 2).unwrap();
        assert_eq!(j2.start, 3_600, "second job starts at first release");
    }

    #[test]
    fn determinism() {
        let a = small_schedule();
        let b = small_schedule();
        assert_eq!(a.jobs.len(), b.jobs.len());
        assert_eq!(a.jobs[0], b.jobs[0]);
    }
}
