//! Property-based tests for the workload substrate: the scheduler must
//! uphold its invariants for arbitrary submission streams.

use proptest::prelude::*;
use titan_workload::{JobSpec, WorkloadSchedule};

fn arb_stream(max_jobs: usize) -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec(
        (
            0u64..30 * 86_400,  // submit
            1u32..4_000,        // nodes
            60u64..12 * 3_600,  // wall
            0u32..40,           // user
            any::<bool>(),      // debug
        ),
        0..max_jobs,
    )
    .prop_map(|mut v| {
        v.sort_by_key(|j| j.0);
        v.into_iter()
            .enumerate()
            .map(|(i, (submit, nodes, wall, user, is_debug))| JobSpec {
                apid: 1_000_000 + i as u64,
                user,
                nodes,
                submit,
                wall,
                mem_max_bytes: 1 << 30,
                gpu_util: 0.5,
                is_debug,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Placement never oversubscribes a node, never shrinks a job, and
    /// never starts it before submission.
    #[test]
    fn scheduler_invariants(stream in arb_stream(60)) {
        let window = 40 * 86_400;
        let n_jobs = stream.len();
        let schedule = WorkloadSchedule::place(stream, window);
        prop_assert!(schedule.jobs.len() + schedule.dropped == n_jobs);

        for j in &schedule.jobs {
            prop_assert!(j.start >= j.spec.submit);
            prop_assert!(j.end <= window);
            prop_assert_eq!(j.nodes.len(), j.spec.nodes as usize);
        }

        // No node is double-booked: per-node intervals must not overlap.
        let mut timelines = std::collections::BTreeMap::<u32, Vec<(u64, u64)>>::new();
        for j in &schedule.jobs {
            for n in j.nodes.iter() {
                timelines.entry(n.0).or_default().push((j.start, j.end));
            }
        }
        for tl in timelines.values_mut() {
            tl.sort_unstable();
            for w in tl.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "double booking: {:?} {:?}", w[0], w[1]);
            }
        }
    }

    /// Jobs small enough always run eventually (FIFO queue drains) when
    /// the machine can hold them at all.
    #[test]
    fn small_jobs_never_dropped(count in 1usize..40) {
        let stream: Vec<JobSpec> = (0..count)
            .map(|i| JobSpec {
                apid: i as u64,
                user: 0,
                nodes: 16,
                submit: (i as u64) * 60,
                wall: 600,
                mem_max_bytes: 1 << 20,
                gpu_util: 0.5,
                is_debug: false,
            })
            .collect();
        let schedule = WorkloadSchedule::place(stream, 10 * 86_400);
        prop_assert_eq!(schedule.dropped, 0);
        prop_assert_eq!(schedule.jobs.len(), count);
    }
}
