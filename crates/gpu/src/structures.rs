//! Memory-structure taxonomy.
//!
//! Paper §2.1: "Major structures of a GPU, such as device memory, L2
//! cache, instruction cache, register files, shared memory, and L1 cache
//! region, are typically protected by a Single Error Correction Double
//! Error Detection (SECDED) ECC. … In K20X GPU architecture, the register
//! files, shared-memory, L1 and L2 caches are SECDED ECC protected, while
//! the read-only data cache is parity protected." Logic, queues,
//! schedulers and the interconnect are unprotected.

use serde::{Deserialize, Serialize};

/// Storage and logic structures of the K20X that faults can strike.
///
/// The SECDED-protected memory structures are the ones that appear in the
/// paper's per-structure breakdowns (Fig. 3(c) for DBEs; §4 notes most
/// SBEs land in the L2 despite its small size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MemoryStructure {
    /// 6 GB GDDR5 framebuffer.
    DeviceMemory,
    /// 1536 KB chip-wide L2.
    L2Cache,
    /// Per-SM register files, 3.5 MiB total.
    RegisterFile,
    /// Per-SM shared memory / L1 split, 896 KiB total.
    SharedL1,
    /// Per-SM read-only (texture/const) data cache, 672 KiB total.
    /// Parity-protected only.
    ReadOnlyCache,
    /// Texture memory path (the paper's Fig. 3(c) lists texture memory as
    /// a DBE-able structure).
    TextureMemory,
    /// Instruction cache.
    InstructionCache,
    /// Unprotected control logic: queues, thread-block & warp schedulers,
    /// instruction dispatch, interconnect.
    ControlLogic,
}

impl MemoryStructure {
    /// All structures, in a stable order used for reporting.
    pub const ALL: [MemoryStructure; 8] = [
        MemoryStructure::DeviceMemory,
        MemoryStructure::L2Cache,
        MemoryStructure::RegisterFile,
        MemoryStructure::SharedL1,
        MemoryStructure::ReadOnlyCache,
        MemoryStructure::TextureMemory,
        MemoryStructure::InstructionCache,
        MemoryStructure::ControlLogic,
    ];

    /// The SECDED-protected subset whose SBE/DBE counters nvidia-smi
    /// reports.
    pub const ECC_COUNTED: [MemoryStructure; 5] = [
        MemoryStructure::DeviceMemory,
        MemoryStructure::L2Cache,
        MemoryStructure::RegisterFile,
        MemoryStructure::SharedL1,
        MemoryStructure::TextureMemory,
    ];

    /// Short label used in logs and reports (matches nvidia-smi wording
    /// where one exists).
    pub fn label(self) -> &'static str {
        match self {
            MemoryStructure::DeviceMemory => "Device Memory",
            MemoryStructure::L2Cache => "L2 Cache",
            MemoryStructure::RegisterFile => "Register File",
            MemoryStructure::SharedL1 => "Shared/L1",
            MemoryStructure::ReadOnlyCache => "Read-Only Cache",
            MemoryStructure::TextureMemory => "Texture Memory",
            MemoryStructure::InstructionCache => "Instruction Cache",
            MemoryStructure::ControlLogic => "Control Logic",
        }
    }

    /// Parses a [`MemoryStructure::label`] back; used by the log parser.
    pub fn from_label(s: &str) -> Option<MemoryStructure> {
        MemoryStructure::ALL.into_iter().find(|m| m.label() == s)
    }
}

impl std::fmt::Display for MemoryStructure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_roundtrip() {
        for m in MemoryStructure::ALL {
            assert_eq!(MemoryStructure::from_label(m.label()), Some(m));
            assert_eq!(format!("{m}"), m.label());
        }
        assert_eq!(MemoryStructure::from_label("bogus"), None);
    }
}
