//! Fig. 13's reverse sweep counts what a forward scan of every 300 s
//! window counts.
//!
//! [`forward_scan`] is the scan `cooccurrence_heatmap` used before the
//! sweep, kept as an oracle: every event looks ahead through its window
//! and marks each kind it sees on the same node or in the same job. The
//! generated streams are time-sorted, as the function's contract
//! requires, and full of what makes the two differ if either is wrong:
//! bursts of more than a thousand lines in one window, runs of equal
//! timestamps, followers at exactly 300 s and at 301 s, jobs spanning
//! nodes, events with no job, sparse and huge node ids, and kinds off
//! the heatmap's axes.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use titan_gpu_reliability::analysis::cooccurrence::{
    cooccurrence_heatmap, Heatmap, HEATMAP_KINDS, WINDOW_SECS,
};
use titan_gpu_reliability::conlog::ConsoleEvent;
use titan_gpu_reliability::gpu::GpuErrorKind;
use titan_gpu_reliability::topology::NodeId;
use titan_gpu_reliability::{Study, StudyConfig};

/// The forward scan, sequential: for each event, every later event in
/// the slice up to the first one past the window.
fn forward_scan(events: &[ConsoleEvent]) -> Heatmap {
    let kinds = HEATMAP_KINDS.to_vec();
    let n = kinds.len();
    let evs: Vec<(usize, &ConsoleEvent)> = events
        .iter()
        .filter_map(|e| kinds.iter().position(|&k| k == e.kind).map(|i| (i, e)))
        .collect();
    let mut followed = vec![vec![0u64; n]; n];
    let mut totals = vec![0u64; n];
    for (pos, &(i, prev)) in evs.iter().enumerate() {
        totals[i] += 1;
        let mut seen = vec![false; n];
        for &(j, follow) in &evs[pos + 1..] {
            if follow.time.saturating_sub(prev.time) > WINDOW_SECS {
                break;
            }
            if seen[j] {
                continue;
            }
            let related =
                follow.node == prev.node || (follow.apid.is_some() && follow.apid == prev.apid);
            if related {
                seen[j] = true;
                followed[i][j] += 1;
            }
        }
    }
    let fraction = followed
        .iter()
        .zip(&totals)
        .map(|(row, &t)| {
            row.iter()
                .map(|&f| if t == 0 { 0.0 } else { f as f64 / t as f64 })
                .collect()
        })
        .collect();
    Heatmap {
        kinds,
        fraction,
        totals,
    }
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

/// Node ids: a dense cluster, the machine's last slot, and sparse ids
/// past the machine's 19,200 slots up to `u32::MAX`.
const NODES: &[u32] = &[0, 1, 2, 7, 19_199, 19_200, 1 << 20, u32::MAX - 1, u32::MAX];

/// A time-sorted stream of events.
struct AnyStream;

impl Strategy for AnyStream {
    type Value = Vec<ConsoleEvent>;
    fn new_value(&self, rng: &mut TestRng) -> Vec<ConsoleEvent> {
        let mut t = pick(rng, &[0, 1_000, 40_000_000, u64::MAX - 100_000]);
        let mut out: Vec<ConsoleEvent> = Vec::new();
        let ev = |rng: &mut TestRng, time: u64| ConsoleEvent {
            time,
            node: NodeId(pick(rng, NODES)),
            // Mostly heatmap kinds; the rest are filtered out.
            kind: if rng.below(5) == 0 {
                pick(rng, &GpuErrorKind::ALL)
            } else {
                pick(rng, &HEATMAP_KINDS)
            },
            structure: None,
            page: None,
            apid: pick(rng, &[None, None, Some(1), Some(2), Some(u64::MAX)]),
        };
        for _ in 0..rng.below(40) {
            match rng.below(12) {
                // A job-wide burst: over a thousand lines in one window.
                0 if rng.below(8) == 0 => {
                    let apid = Some(pick(rng, &[1, 2, 3]));
                    for _ in 0..1_001 + rng.below(200) {
                        t = t.saturating_add(pick(rng, &[0, 0, 0, 1]));
                        let mut e = ev(rng, t);
                        e.apid = apid;
                        out.push(e);
                    }
                }
                // A follower at exactly the edge and one just past it.
                1 => {
                    let prev = ev(rng, t);
                    let mut edge = prev;
                    edge.time = t.saturating_add(WINDOW_SECS);
                    edge.kind = pick(rng, &HEATMAP_KINDS);
                    let mut past = edge;
                    past.time = edge.time.saturating_add(1);
                    past.kind = pick(rng, &HEATMAP_KINDS);
                    out.extend([prev, edge, past]);
                    t = past.time;
                }
                // A run of equal timestamps.
                2 => {
                    for _ in 0..2 + rng.below(6) {
                        out.push(ev(rng, t));
                    }
                }
                _ => {
                    t = t.saturating_add(pick(rng, &[0, 1, 2, 60, 299, 300, 301, 5_000]));
                    out.push(ev(rng, t));
                }
            }
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sweep_counts_what_the_forward_scan_counts(events in AnyStream) {
        prop_assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        prop_assert_eq!(cooccurrence_heatmap(&events), forward_scan(&events));
    }

    #[test]
    fn unsorted_input_returns(events in AnyStream) {
        let mut reversed = events;
        reversed.reverse();
        let h = cooccurrence_heatmap(&reversed);
        let counted: u64 = h.totals.iter().sum();
        let on_axes = reversed
            .iter()
            .filter(|e| HEATMAP_KINDS.contains(&e.kind))
            .count();
        prop_assert_eq!(counted, on_axes as u64);
    }
}

/// The console of a real 30-day study.
#[test]
fn real_console_matches_the_forward_scan() {
    let study = Study::new(StudyConfig::quick(30, 1093)).run();
    let console = &study.data.console;
    assert!(console.len() > 1_000, "{} events", console.len());
    let h = cooccurrence_heatmap(console);
    assert!(h.totals.iter().sum::<u64>() > 0);
    assert_eq!(h, forward_scan(console));
}
