//! # titan-conlog
//!
//! The logging substrate of the study — everything the paper's §2.2
//! ("GPU Errors, Collection and Analysis Methodology") says about how
//! Titan's data was captured:
//!
//! > "The console logs from the Titan supercomputer are parsed using
//! > simple event correlators (SEC) on software management workstations
//! > (SMW) to log critical system events."
//!
//! * [`time`] — the study calendar, Jun 2013 – Feb 2015, with simulation
//!   time ⇄ wall-clock conversions and the month axis used by every
//!   monthly-frequency figure.
//! * [`record`] — the typed console event (node, XID, structure, apid).
//! * [`mod@line`] — the [`LogLine`] writer trait every log format implements,
//!   the digit writer behind it, and the byte cursor of the parse fast
//!   paths.
//! * [`mod@format`] — the text wire format: rendering events to console-log
//!   lines and the robust parser the analysis pipeline uses. Parsing is
//!   total: garbage lines are counted, never panicked on.
//! * [`sec`] — a simple-event-correlator rule engine: per-card DBE
//!   thresholds, cluster alarms, duplicate suppression — the operator-side
//!   alerting the paper describes.
//! * [`joblog`] — batch job records (user, node list, walltime, GPU
//!   core-hours, memory) matching the job-log + RUR utilization sources
//!   the correlation study (§4) joins against.
//! * [`nodeset`] — the job node list those records hold, at two bytes
//!   per id.
//!
//! The crate is deliberately independent of the simulator: the analysis
//! pipeline consumes *only* these formats, mirroring how the paper's
//! authors only saw logs, never ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod joblog;
pub mod line;
pub mod nodeset;
pub mod record;
pub mod sec;
pub mod time;

pub use format::{parse_line, render_line, rendered_len, ParseStats};
pub use joblog::{Aprun, JobLogError, JobRecord};
pub use line::LogLine;
pub use nodeset::NodeSet;
pub use record::{ConsoleEvent, Severity};
pub use sec::{SecAction, SecEngine, SecRule, SecStats};
pub use time::{SimTime, StudyCalendar, STUDY_MONTHS, STUDY_SECONDS};
