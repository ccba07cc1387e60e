//! Size-matched study seeds.
//!
//! The simulated fleet's work is heavy-tailed across seeds: over seeds
//! 1–360 of the full window, console volume spans 0.27M to 4.8M lines
//! and the job log's node count 1.8M to 57M, and wall time and peak
//! memory follow both. A timing taken on one arbitrary seed would
//! measure the seed, not the code. So each workload draws its study
//! seeds from a fixed pool of typical studies: console lines and job
//! nodes both within a band around their medians over the scanned
//! seeds at the workload's window, and the same number of PASS verdicts
//! (the most common count in the band), so that `checks_pass` does not
//! depend on which members a seed picks. The numbers are those printed
//! by `titan-e2e-bench vet` at the commit that introduced this
//! benchmark. The pools are frozen inputs; re-vet them only when the
//! simulator's output changes on purpose.
//!
//! The workload seed from the command line picks pool members: a seed
//! that is itself a member is used as is, any other seed starts at a
//! hashed position.

use titan_reliability::{evaluate_all, Study, StudyConfig, Verdict};

/// Full window (638 days), seeds 1–360: ±5% of 845,710 console lines
/// and 19,119,542 job nodes, 24 PASS of 24.
pub const FULL_STUDY: &[u64] = &[127, 155, 196, 198, 207, 254, 285, 328];

/// 30-day window, seeds 1–1503: ±7.5% of 62,743 console lines and
/// 838,175 job nodes (the medians over seeds 1–600), 17 PASS. Eight
/// are drawn per iteration, so the sum is tighter than the band.
pub const REPLICATE_SHORT: &[u64] = &[
    35, 97, 313, 416, 467, 767, 841, 864, 888, 992, 1085, 1093, 1291,
];

/// 90-day window, seeds 1–400: ±5% of 118,002 console lines and
/// 2,472,884 job nodes, 19 PASS.
pub const OBSERVED_CKPT: &[u64] = &[17, 94, 272, 331];

/// Prints `days seed console_lines jobs job_nodes passes` for `count`
/// seeds from `first`, running each study (`days` 0 is the full window)
/// and counting its PASS verdicts: the scan the pools above were chosen
/// from.
pub fn vet(days: u64, first: u64, count: u64) {
    for seed in first..first.saturating_add(count) {
        let mut config = if days == 0 {
            StudyConfig::default()
        } else {
            StudyConfig::quick(days, seed)
        };
        config.sim.seed = seed;
        let study = Study::new(config).run();
        let passes = evaluate_all(&study.figures())
            .iter()
            .filter(|e| e.verdict == Verdict::Pass)
            .count();
        let sim = &study.sim;
        let nodes: usize = sim.jobs.iter().map(|j| j.nodes.len()).sum();
        println!(
            "{days} {seed} {} {} {nodes} {passes}",
            sim.console.len(),
            sim.jobs.len()
        );
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `n` distinct members of `pool` (n ≤ pool length), consecutive from
/// the position the workload seed selects.
pub fn pick(pool: &[u64], seed: u64, n: usize) -> Vec<u64> {
    let len = pool.len() as u64;
    let start = match pool.iter().position(|&s| s == seed) {
        Some(i) => i as u64,
        None => splitmix64(seed) % len,
    };
    (0..n as u64)
        .map(|i| pool[((start + i) % len) as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_map_to_themselves_and_picks_are_distinct() {
        assert_eq!(pick(FULL_STUDY, 127, 1), vec![127]);
        let p = pick(REPLICATE_SHORT, 7, 8);
        let mut d = p.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 8);
        assert_eq!(p, pick(REPLICATE_SHORT, 7, 8));
    }
}
