//! Aprun subdivision of batch jobs.
//!
//! On Titan, a batch job script launches one or more `aprun` invocations
//! (the ALPS application launcher). The paper's §4 leans on this
//! distinction: "the SBE counts can not be collected on a per aprun
//! basis instead it is collected on a job basis since the nvidia-smi
//! output is run before and after the job script, irrespective of number
//! of apruns within the job script."
//!
//! This module generates the aprun structure inside each scheduled job so
//! the repository can *demonstrate* that limitation (see
//! `titan-analysis`'s aprun-ambiguity helper): with only job-level SBE
//! deltas, any multi-aprun job's errors are unattributable to a specific
//! aprun.

use rand::Rng;
use titan_conlog::time::SimTime;
use titan_conlog::Aprun;

/// Mean setup/teardown gap between consecutive apruns, seconds.
pub const INTER_APRUN_GAP_SECS: u64 = 30;

/// Subdivides a job's `start..end` runtime into `1..=max_apruns`
/// sequential segments with small gaps. Production jobs usually run one
/// aprun; debug scripts iterate. Deterministic given the RNG.
pub fn subdivide_span<R: Rng + ?Sized>(
    apid: u64,
    start: SimTime,
    end: SimTime,
    is_debug: bool,
    max_apruns: u32,
    rng: &mut R,
) -> Vec<Aprun> {
    let wall = end.saturating_sub(start);
    if wall == 0 {
        return Vec::new();
    }
    // Debug scripts iterate: geometric-ish count; production mostly 1.
    let n = if is_debug {
        let mut n = 1u32;
        while n < max_apruns && rng.gen::<f64>() < 0.5 {
            n += 1;
        }
        n
    } else if rng.gen::<f64>() < 0.15 {
        2.min(max_apruns)
    } else {
        1
    };
    let n = n.max(1);

    // Each aprun needs at least 1 s; shrink n if the job is too short.
    let gap = INTER_APRUN_GAP_SECS;
    let mut n = n;
    while n > 1 && wall < (n as u64) * (gap + 1) {
        n -= 1;
    }

    // Random proportional splits.
    let mut weights: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 0.2).collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }

    let usable = wall - (n as u64 - 1) * gap;
    let mut out = Vec::with_capacity(n as usize);
    let mut t = start;
    for (i, w) in weights.iter().enumerate() {
        let len = if i as u32 == n - 1 {
            end.saturating_sub(t)
        } else {
            ((usable as f64 * w) as u64).max(1)
        };
        let seg_end = (t + len).min(end);
        out.push(Aprun {
            apid,
            index: i as u32,
            start: t,
            end: seg_end,
        });
        t = seg_end + gap;
        if t >= end {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobSpec;
    use crate::schedule::ScheduledJob;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use titan_topology::NodeId;

    fn job(apid: u64, start: SimTime, end: SimTime, debug: bool) -> ScheduledJob {
        ScheduledJob {
            spec: JobSpec {
                apid,
                user: 0,
                nodes: 4,
                submit: start,
                wall: end - start,
                mem_max_bytes: 1 << 30,
                gpu_util: 0.5,
                is_debug: debug,
            },
            start,
            end,
            nodes: (0..4).map(NodeId).collect(),
        }
    }

    #[test]
    fn segments_tile_the_job() {
        let mut rng = StdRng::seed_from_u64(5);
        for seed_job in 0..50u64 {
            let j = job(seed_job, 1_000, 1_000 + 7_200, seed_job % 2 == 0);
            let apruns = subdivide_span(j.spec.apid, j.start, j.end, j.spec.is_debug, 8, &mut rng);
            assert!(!apruns.is_empty());
            assert_eq!(apruns[0].start, j.start);
            assert!(apruns.last().unwrap().end <= j.end);
            for w in apruns.windows(2) {
                assert!(w[0].end < w[1].start, "segments must not overlap");
                assert_eq!(w[0].index + 1, w[1].index);
            }
            for a in &apruns {
                assert!(a.duration() >= 1);
                assert_eq!(a.apid, seed_job);
            }
        }
    }

    #[test]
    fn production_jobs_mostly_single_aprun() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut multi = 0;
        for i in 0..500u64 {
            let j = job(i, 0, 10_000, false);
            if subdivide_span(j.spec.apid, j.start, j.end, j.spec.is_debug, 8, &mut rng).len() > 1 {
                multi += 1;
            }
        }
        assert!(multi > 20 && multi < 150, "{multi}");
    }

    #[test]
    fn debug_jobs_iterate_more() {
        let mut rng = StdRng::seed_from_u64(9);
        let count = |debug: bool, rng: &mut StdRng| -> f64 {
            let mut total = 0usize;
            for i in 0..500u64 {
                let j = job(i, 0, 10_000, debug);
                total += subdivide_span(j.spec.apid, j.start, j.end, j.spec.is_debug, 8, rng).len();
            }
            total as f64 / 500.0
        };
        let debug_mean = count(true, &mut rng);
        let prod_mean = count(false, &mut rng);
        assert!(debug_mean > prod_mean + 0.3, "{debug_mean} vs {prod_mean}");
    }

    #[test]
    fn short_jobs_degrade_gracefully() {
        let mut rng = StdRng::seed_from_u64(11);
        let j = job(1, 0, 60, true); // one minute
        let apruns = subdivide_span(j.spec.apid, j.start, j.end, j.spec.is_debug, 8, &mut rng);
        assert_eq!(apruns.len(), 1);
        assert_eq!(apruns[0].start, 0);
        assert_eq!(apruns[0].end, 60);
    }
}
