//! Hardware fault generators: DBE, off-the-bus, and SBE.
//!
//! Each generator produces *ground-truth fault drafts* — times plus
//! device-level attributes. The fleet simulator assigns them to cards and
//! slots (it owns the card↔slot mapping, which changes as operators swap
//! cards) and runs them through the ECC model.

use rand::Rng;
use titan_conlog::time::{SimTime, STUDY_SECONDS};
use titan_gpu::pages::PAGE_COUNT;
use titan_gpu::{MemoryStructure, PageAddress};
use titan_stats::PoissonCounter;

use crate::calibration;
use crate::process::{PiecewisePoisson, PoissonProcess};

/// One double-bit-error draft.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbeDraft {
    /// When it strikes.
    pub time: SimTime,
    /// Structure struck (86% device memory / 14% register file).
    pub structure: MemoryStructure,
    /// Device-memory page for device-memory strikes.
    pub page: Option<PageAddress>,
    /// Whether NVML persists it to the InfoROM before the node dies
    /// (false = the Observation 2 undercount path).
    pub inforom_persisted: bool,
}

/// The fleet DBE process (Observation 1: MTBF ≈ 160 h).
#[derive(Debug, Clone, Copy)]
pub struct DbeProcess {
    rate: f64,
}

impl Default for DbeProcess {
    fn default() -> Self {
        DbeProcess {
            rate: calibration::DBE_FLEET_RATE_PER_SEC,
        }
    }
}

impl DbeProcess {
    /// Samples all DBE drafts over the study window.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<DbeDraft> {
        let p = PoissonProcess::new(self.rate).expect("calibrated rate");
        p.sample_window(0, STUDY_SECONDS, rng)
            .into_iter()
            .map(|time| {
                let structure = if rng.gen::<f64>() < calibration::DBE_DEVICE_MEMORY_FRACTION {
                    MemoryStructure::DeviceMemory
                } else {
                    MemoryStructure::RegisterFile
                };
                let page = (structure == MemoryStructure::DeviceMemory)
                    .then(|| PageAddress(rng.gen_range(0..PAGE_COUNT)));
                DbeDraft {
                    time,
                    structure,
                    page,
                    inforom_persisted: rng.gen::<f64>() >= calibration::DBE_INFOROM_LOSS_PROB,
                }
            })
            .collect()
    }
}

/// One off-the-bus draft. `cluster_root` marks the parent of a cluster;
/// children carry the same flag false.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OtbDraft {
    /// When the host loses the GPU.
    pub time: SimTime,
    /// True for the spontaneous event that seeded a cluster.
    pub cluster_root: bool,
}

/// The off-the-bus process: an integration-defect epidemic until the
/// soldering campaign (Dec 2013), negligible after (Observation 4), with
/// 24 h clustering.
#[derive(Debug, Clone)]
pub struct OtbProcess {
    rates: PiecewisePoisson,
    cluster_mean: f64,
}

impl Default for OtbProcess {
    fn default() -> Self {
        OtbProcess {
            rates: PiecewisePoisson::new(vec![
                (0, calibration::OTB_EPIDEMIC_RATE_PER_SEC),
                (
                    calibration::otb_fix_date(),
                    calibration::OTB_RESIDUAL_RATE_PER_SEC,
                ),
            ])
            .expect("valid calibration segments"),
            cluster_mean: calibration::OTB_CLUSTER_MEAN_CHILDREN,
        }
    }
}

impl OtbProcess {
    /// Custom process for ablations (e.g. "what if the fix never landed").
    pub fn new(rates: PiecewisePoisson, cluster_mean: f64) -> Self {
        OtbProcess {
            rates,
            cluster_mean,
        }
    }

    /// Samples all OTB drafts over the study window, cluster children
    /// included, sorted by time.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<OtbDraft> {
        let mut out = Vec::new();
        for t in self.rates.sample_window(0, STUDY_SECONDS, rng) {
            out.push(OtbDraft {
                time: t,
                cluster_root: true,
            });
            // Clustering only during the epidemic: the defect was a batch
            // property, so one failure predicted more nearby in time.
            if t < calibration::otb_fix_date() {
                let n = PoissonCounter::new(self.cluster_mean)
                    .expect("nonneg mean")
                    .sample(rng);
                for _ in 0..n {
                    let dt = rng.gen_range(0..24 * 3600);
                    let ct = (t + dt).min(STUDY_SECONDS - 1);
                    out.push(OtbDraft {
                        time: ct,
                        cluster_root: false,
                    });
                }
            }
        }
        out.sort_unstable_by_key(|d| d.time);
        out
    }
}

/// One single-bit-error draft.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SbeDraft {
    /// When it strikes.
    pub time: SimTime,
    /// Structure struck (L2-dominant, per §4).
    pub structure: MemoryStructure,
    /// Device-memory page for device-memory strikes — feeds the two-SBE
    /// retirement path.
    pub page: Option<PageAddress>,
}

/// The fleet SBE process: "we observe SBEs in the order of hundreds per
/// day". Day-level Poisson counts with uniform intra-day placement.
#[derive(Debug, Clone, Copy)]
pub struct SbeProcess {
    per_day: f64,
    /// Weak pages per card: a handful of physically degraded cells that
    /// repeated SBEs can re-strike. Collisions here drive the two-SBE
    /// retirement path.
    pub weak_pages_per_card: u32,
    /// Probability a device-memory SBE hits a weak page rather than a
    /// uniformly random one (where a same-page repeat is essentially
    /// impossible across 1.5 M pages). Calibrated so the window sees
    /// tens of two-SBE retirements, matching Fig. 8's tail.
    pub weak_page_prob: f64,
}

impl Default for SbeProcess {
    fn default() -> Self {
        SbeProcess {
            per_day: calibration::SBE_FLEET_PER_DAY,
            weak_pages_per_card: 8,
            weak_page_prob: 0.004,
        }
    }
}

impl SbeProcess {
    /// Expected total SBEs over the window.
    pub fn expected_total(&self) -> f64 {
        // lint: allow(N1, STUDY_SECONDS = 55,123,200 is exact in f64)
        self.per_day * STUDY_SECONDS as f64 / 86_400.0
    }

    /// Samples all SBE drafts, sorted by time. Device-memory strikes hit
    /// one of the card's few weak pages with `weak_page_prob` (where
    /// repeats collide and retire the page) and a uniformly random page
    /// otherwise.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<SbeDraft> {
        // lint: allow(N1, 638 whole study days fit any usize)
        let days = (STUDY_SECONDS / 86_400) as usize;
        let counter = PoissonCounter::new(self.per_day).expect("nonneg volume");
        // lint: allow(N1, capacity hint only — a short allocation cannot corrupt counts)
        let mut out = Vec::with_capacity((self.expected_total() * 1.05) as usize);
        for d in 0..days {
            let n = counter.sample(rng);
            let day_start = d as SimTime * 86_400;
            for _ in 0..n {
                let time = day_start + rng.gen_range(0..86_400);
                let structure = pick_sbe_structure(rng);
                let page = (structure == MemoryStructure::DeviceMemory).then(|| {
                    if rng.gen::<f64>() < self.weak_page_prob {
                        PageAddress(rng.gen_range(0..self.weak_pages_per_card))
                    } else {
                        PageAddress(rng.gen_range(self.weak_pages_per_card..PAGE_COUNT))
                    }
                });
                out.push(SbeDraft {
                    time,
                    structure,
                    page,
                });
            }
        }
        out.sort_unstable_by_key(|d| d.time);
        out
    }
}

/// Draws an SBE structure from the calibrated mix (L2-dominant).
pub fn pick_sbe_structure<R: Rng + ?Sized>(rng: &mut R) -> MemoryStructure {
    let mut x = rng.gen::<f64>();
    for &(s, f) in calibration::SBE_STRUCTURE_MIX.iter() {
        x -= f;
        if x <= 0.0 {
            return s;
        }
    }
    calibration::SBE_STRUCTURE_MIX[0].0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2718)
    }

    #[test]
    fn dbe_volume_near_weekly() {
        let drafts = DbeProcess::default().sample(&mut rng());
        // Poisson(≈95.7): accept a wide but meaningful band.
        assert!(
            (60..140).contains(&drafts.len()),
            "dbe count {}",
            drafts.len()
        );
        assert!(drafts.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn dbe_structure_split_near_86_14() {
        // Crank the rate for statistics.
        let drafts = DbeProcess { rate: 0.001 }.sample(&mut rng());
        assert!(drafts.len() > 10_000);
        let dm = drafts
            .iter()
            .filter(|d| d.structure == MemoryStructure::DeviceMemory)
            .count() as f64
            / drafts.len() as f64;
        assert!((dm - 0.86).abs() < 0.02, "device-memory share {dm}");
        // Device-memory strikes carry pages; register-file ones don't.
        for d in &drafts {
            assert_eq!(
                d.page.is_some(),
                d.structure == MemoryStructure::DeviceMemory
            );
        }
    }

    #[test]
    fn dbe_inforom_loss_rate() {
        let drafts = DbeProcess { rate: 0.001 }.sample(&mut rng());
        let lost = drafts.iter().filter(|d| !d.inforom_persisted).count() as f64
            / drafts.len() as f64;
        assert!(
            (lost - calibration::DBE_INFOROM_LOSS_PROB).abs() < 0.02,
            "loss rate {lost}"
        );
    }

    #[test]
    fn otb_epidemic_shape() {
        let drafts = OtbProcess::default().sample(&mut rng());
        let fix = calibration::otb_fix_date();
        let before = drafts.iter().filter(|d| d.time < fix).count();
        let after = drafts.len() - before;
        assert!(before > 30, "epidemic events {before}");
        assert!(
            before > 20 * after.max(1),
            "before={before} after={after}"
        );
        // Clustering: children exist during the epidemic.
        assert!(drafts.iter().any(|d| !d.cluster_root));
        // Sorted.
        assert!(drafts.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn sbe_daily_volume() {
        let p = SbeProcess { per_day: 100.0, ..SbeProcess::default() };
        let drafts = p.sample(&mut rng());
        let days = (STUDY_SECONDS / 86_400) as f64;
        let per_day = drafts.len() as f64 / days;
        assert!((per_day - 100.0).abs() < 5.0, "per-day {per_day}");
    }

    #[test]
    fn sbe_structure_mix_l2_dominant() {
        let drafts = SbeProcess { per_day: 200.0, ..SbeProcess::default() }.sample(&mut rng());
        let l2 = drafts
            .iter()
            .filter(|d| d.structure == MemoryStructure::L2Cache)
            .count() as f64
            / drafts.len() as f64;
        assert!((l2 - 0.55).abs() < 0.02, "L2 share {l2}");
    }

    #[test]
    fn sbe_pages_only_for_device_memory() {
        let p = SbeProcess::default();
        let drafts = p.sample(&mut rng());
        let mut weak = 0u64;
        let mut dm = 0u64;
        for d in &drafts {
            assert_eq!(
                d.page.is_some(),
                d.structure == MemoryStructure::DeviceMemory
            );
            if let Some(pg) = d.page {
                assert!(pg.0 < PAGE_COUNT);
                dm += 1;
                if pg.0 < p.weak_pages_per_card {
                    weak += 1;
                }
            }
        }
        // Weak-page strikes are rare, near the calibrated probability.
        let rate = weak as f64 / dm as f64;
        assert!(rate < 0.02, "weak-page rate {rate}");
    }

    #[test]
    fn structure_picker_covers_mix() {
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            seen.insert(pick_sbe_structure(&mut r));
        }
        assert_eq!(seen.len(), calibration::SBE_STRUCTURE_MIX.len());
    }
}
