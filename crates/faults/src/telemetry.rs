//! Sim-time draft telemetry for the observability layer.
//!
//! The fault processes pre-sample their whole windows as draft vectors;
//! [`DraftTelemetry`] describes a draft to the flight recorder and
//! folds a draft slice into plain counts, so the engine can publish a
//! "what did the generators draw" section without the metrics layer
//! ever touching the RNG streams. Everything here is a pure function of
//! the drafts — running it (or not) cannot perturb a simulation, which
//! is exactly the property the telemetry determinism tests pin.

use titan_conlog::time::SimTime;
use titan_gpu::MemoryStructure;

use crate::hardware::{DbeDraft, OtbDraft, SbeDraft};
use crate::software::SoftwareIncident;

/// What the observability layer reads off one kind of fault draft.
pub trait DraftTelemetry: Sized {
    /// Sim time the draft fires.
    fn time(&self) -> SimTime;

    /// Payload of the draft's `titan-trace/1` root record. Stable,
    /// format-only strings: the trace schema freezes the record shape,
    /// and these keep the payloads deterministic and greppable.
    fn payload(&self) -> String;

    /// `faults.*` counter values over a draft slice, as `(name, value)`
    /// pairs in metrics-catalog order.
    fn counts<'a>(drafts: impl IntoIterator<Item = &'a Self>) -> Vec<(String, u64)>
    where
        Self: 'a;
}

fn named<const N: usize>(counts: [(&str, u64); N]) -> Vec<(String, u64)> {
    counts.into_iter().map(|(name, v)| (name.to_string(), v)).collect()
}

impl DraftTelemetry for DbeDraft {
    fn time(&self) -> SimTime {
        self.time
    }

    fn payload(&self) -> String {
        format!(
            "dbe_draft structure={:?} persisted={}",
            self.structure, self.inforom_persisted
        )
    }

    /// Totals, strikes on device memory and the register file, and
    /// drafts whose InfoROM write is lost in the crash (Observation 2).
    fn counts<'a>(drafts: impl IntoIterator<Item = &'a Self>) -> Vec<(String, u64)> {
        let (mut total, mut device, mut register, mut lost) = (0, 0, 0, 0);
        for d in drafts {
            total += 1;
            device += u64::from(d.structure == MemoryStructure::DeviceMemory);
            register += u64::from(d.structure == MemoryStructure::RegisterFile);
            lost += u64::from(!d.inforom_persisted);
        }
        named([
            ("dbe_drafts", total),
            ("dbe_device_memory", device),
            ("dbe_register_file", register),
            ("dbe_inforom_lost", lost),
        ])
    }
}

impl DraftTelemetry for OtbDraft {
    fn time(&self) -> SimTime {
        self.time
    }

    fn payload(&self) -> String {
        format!("otb_draft cluster_root={}", self.cluster_root)
    }

    /// Totals, spontaneous cluster roots, and cluster members.
    fn counts<'a>(drafts: impl IntoIterator<Item = &'a Self>) -> Vec<(String, u64)> {
        let (mut total, mut roots) = (0, 0);
        for d in drafts {
            total += 1;
            roots += u64::from(d.cluster_root);
        }
        named([
            ("otb_drafts", total),
            ("otb_cluster_roots", roots),
            ("otb_cluster_children", total - roots),
        ])
    }
}

impl DraftTelemetry for SbeDraft {
    fn time(&self) -> SimTime {
        self.time
    }

    fn payload(&self) -> String {
        format!("sbe_draft structure={:?}", self.structure)
    }

    /// Totals, then one `sbe_draft_<structure>` per
    /// [`MemoryStructure::ECC_COUNTED`] entry, zeros included. Other
    /// structures cannot be drawn by the SBE mix; they count in the
    /// total only.
    fn counts<'a>(drafts: impl IntoIterator<Item = &'a Self>) -> Vec<(String, u64)> {
        let mut by_structure = [0u64; MemoryStructure::ECC_COUNTED.len()];
        let mut total = 0;
        for d in drafts {
            total += 1;
            let slot = MemoryStructure::ECC_COUNTED
                .iter()
                .position(|&m| m == d.structure)
                .and_then(|i| by_structure.get_mut(i));
            if let Some(c) = slot {
                *c += 1;
            }
        }
        // "Shared/L1" → `sbe_draft_shared_l1`.
        let key = |m: &MemoryStructure| m.label().to_ascii_lowercase().replace([' ', '/'], "_");
        let per_structure = MemoryStructure::ECC_COUNTED
            .iter()
            .zip(by_structure)
            .map(|(m, c)| (format!("sbe_draft_{}", key(m)), c));
        std::iter::once(("sbe_drafts".to_string(), total))
            .chain(per_structure)
            .collect()
    }
}

impl DraftTelemetry for SoftwareIncident {
    fn time(&self) -> SimTime {
        self.time
    }

    fn payload(&self) -> String {
        format!("soft_draft kind={:?} job_wide={}", self.kind, self.job_wide)
    }

    /// Totals and incidents striking every node of a job at once.
    fn counts<'a>(incidents: impl IntoIterator<Item = &'a Self>) -> Vec<(String, u64)> {
        let (mut total, mut job_wide) = (0, 0);
        for i in incidents {
            total += 1;
            job_wide += u64::from(i.job_wide);
        }
        named([("soft_incidents", total), ("soft_job_wide", job_wide)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_gpu::PageAddress;

    fn pairs(counts: &[(String, u64)]) -> Vec<(&str, u64)> {
        counts.iter().map(|(n, v)| (n.as_str(), *v)).collect()
    }

    #[test]
    fn dbe_counts_split_structures_and_inforom() {
        let drafts = vec![
            DbeDraft {
                time: 1,
                structure: MemoryStructure::DeviceMemory,
                page: Some(PageAddress(7)),
                inforom_persisted: true,
            },
            DbeDraft {
                time: 2,
                structure: MemoryStructure::RegisterFile,
                page: None,
                inforom_persisted: false,
            },
            DbeDraft {
                time: 3,
                structure: MemoryStructure::DeviceMemory,
                page: None,
                inforom_persisted: false,
            },
        ];
        assert_eq!(
            pairs(&DbeDraft::counts(&drafts)),
            [
                ("dbe_drafts", 3),
                ("dbe_device_memory", 2),
                ("dbe_register_file", 1),
                ("dbe_inforom_lost", 2)
            ]
        );
    }

    #[test]
    fn otb_counts_split_roots_from_children() {
        let drafts = vec![
            OtbDraft { time: 1, cluster_root: true },
            OtbDraft { time: 2, cluster_root: false },
            OtbDraft { time: 3, cluster_root: false },
        ];
        assert_eq!(
            pairs(&OtbDraft::counts(&drafts)),
            [("otb_drafts", 3), ("otb_cluster_roots", 1), ("otb_cluster_children", 2)]
        );
    }

    #[test]
    fn sbe_counts_per_structure_in_stable_order() {
        let drafts = vec![
            SbeDraft { time: 1, structure: MemoryStructure::L2Cache, page: None },
            SbeDraft { time: 2, structure: MemoryStructure::L2Cache, page: None },
            SbeDraft {
                time: 3,
                structure: MemoryStructure::DeviceMemory,
                page: Some(PageAddress(1)),
            },
        ];
        let counts = SbeDraft::counts(&drafts);
        let per = pairs(&counts);
        assert_eq!(per.len(), 1 + MemoryStructure::ECC_COUNTED.len());
        assert_eq!(per[0], ("sbe_drafts", 3));
        assert_eq!(per[1], ("sbe_draft_device_memory", 1));
        assert_eq!(per[2], ("sbe_draft_l2_cache", 2));
        assert_eq!(per[3], ("sbe_draft_register_file", 0));
        assert_eq!(per[4], ("sbe_draft_shared_l1", 0));
        assert_eq!(per[5], ("sbe_draft_texture_memory", 0));
    }

    #[test]
    fn draft_payloads_are_stable_strings() {
        let d = DbeDraft {
            time: 1,
            structure: MemoryStructure::DeviceMemory,
            page: None,
            inforom_persisted: false,
        };
        assert_eq!(d.payload(), "dbe_draft structure=DeviceMemory persisted=false");
        assert_eq!(
            OtbDraft { time: 2, cluster_root: true }.payload(),
            "otb_draft cluster_root=true"
        );
        assert_eq!(
            SbeDraft {
                time: 3,
                structure: MemoryStructure::L2Cache,
                page: None,
            }
            .payload(),
            "sbe_draft structure=L2Cache"
        );
        let i = SoftwareIncident {
            time: 4,
            kind: titan_gpu::GpuErrorKind::GraphicsEngineException,
            job_wide: true,
        };
        assert_eq!(i.payload(), "soft_draft kind=GraphicsEngineException job_wide=true");
    }

    #[test]
    fn soft_counts_count_job_wide() {
        let incidents = vec![
            SoftwareIncident {
                time: 1,
                kind: titan_gpu::GpuErrorKind::GraphicsEngineException,
                job_wide: true,
            },
            SoftwareIncident {
                time: 2,
                kind: titan_gpu::GpuErrorKind::GpuMemoryPageFault,
                job_wide: false,
            },
        ];
        assert_eq!(
            pairs(&SoftwareIncident::counts(&incidents)),
            [("soft_incidents", 2), ("soft_job_wide", 1)]
        );
    }
}
