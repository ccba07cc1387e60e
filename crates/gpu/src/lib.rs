//! # titan-gpu
//!
//! Device model of the NVIDIA Tesla K20X (GK110) as deployed on Titan —
//! the hardware substrate of the paper's §2.1:
//!
//! * [`structures`] — the memory-structure taxonomy, with the
//!   SECDED-protected subset whose counters nvidia-smi reports.
//! * [`errors`] — the GPU error taxonomy of Tables 1 and 2, keyed by
//!   NVIDIA XID code.
//! * [`pages`] — dynamic page retirement: a device-memory page is retired
//!   after one DBE or two SBEs, addresses persist in the InfoROM, and the
//!   framebuffer excludes them at the next driver load (paper §3.1).
//! * [`inforom`] — the InfoROM counter store with its documented
//!   pathology: a DBE that brings the node down before the NVML write
//!   completes is never persisted, which is why nvidia-smi undercounts
//!   DBEs relative to the console log (Observation 2).
//! * [`card`] — a physical card: serial number + InfoROM + page state,
//!   which keeps its history when operators move it between slots and the
//!   hot-spare cluster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod card;
pub mod errors;
pub mod inforom;
pub mod pages;
pub mod structures;

pub use card::{CardSerial, GpuCard};
pub use errors::{ErrorCategory, GpuErrorKind, Xid};
pub use inforom::InfoRom;
pub use pages::{PageAddress, PageRetirement, RetirementCause};
pub use structures::MemoryStructure;
