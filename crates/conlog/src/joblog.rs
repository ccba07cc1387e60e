//! Batch-job log records — the job-log + RUR (resource utilization
//! reporting) data source of the paper's §4.
//!
//! Each completed batch job leaves one record carrying exactly the fields
//! the correlation study uses: user, node allocation, wall clock, GPU
//! core-hours, and maximum/total GPU memory consumption. Node allocations
//! are rendered as compact id ranges (`17-40,96,112-143`) because Titan
//! jobs routinely span thousands of nodes.

use std::fmt;

use serde::{Deserialize, Serialize};
use titan_topology::{NodeId, TOTAL_SLOTS};

use crate::time::SimTime;

/// One completed batch job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// ALPS application id.
    pub apid: u64,
    /// Submitting user (the paper uses userID "as a proxy for the kind of
    /// application", Observation 13).
    pub user: u32,
    /// Allocated compute nodes.
    pub nodes: Vec<NodeId>,
    /// Job start.
    pub start: SimTime,
    /// Job end.
    pub end: SimTime,
    /// GPU core-hours consumed (busy cores × hours, summed over nodes).
    pub gpu_core_hours: f64,
    /// Peak per-node GPU memory footprint, bytes.
    pub max_memory_bytes: u64,
    /// Integrated GPU memory consumption, byte-hours across all nodes.
    pub total_memory_byte_hours: f64,
}

impl JobRecord {
    /// Wall-clock duration, seconds.
    pub fn wall_seconds(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node-hours (nodes × wall-clock hours).
    pub fn node_hours(&self) -> f64 {
        self.node_count() as f64 * self.wall_seconds() as f64 / 3600.0
    }

    /// Renders one job-log line (the [`Display`](fmt::Display) form).
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Parses a [`render`](Self::render)ed line.
    pub fn parse(line: &str) -> Result<JobRecord, JobLogError> {
        let err = |what: &str| JobLogError {
            what: what.to_string(),
            line: line.chars().take(120).collect(),
        };
        let rest = line.trim().strip_prefix("JOB ").ok_or_else(|| err("missing JOB prefix"))?;
        let mut apid = None;
        let mut user = None;
        let mut start = None;
        let mut end = None;
        let mut gch = None;
        let mut max_mem = None;
        let mut total_mem = None;
        let mut nodes = None;
        for field in rest.split_ascii_whitespace() {
            let (k, v) = field.split_once('=').ok_or_else(|| err("field without ="))?;
            match k {
                "apid" => apid = Some(v.parse().map_err(|_| err("bad apid"))?),
                "user" => user = Some(v.parse().map_err(|_| err("bad user"))?),
                "start" => start = Some(v.parse().map_err(|_| err("bad start"))?),
                "end" => end = Some(v.parse().map_err(|_| err("bad end"))?),
                "gpu_core_hours" => gch = Some(v.parse().map_err(|_| err("bad gpu_core_hours"))?),
                "max_mem" => max_mem = Some(v.parse().map_err(|_| err("bad max_mem"))?),
                "total_mem_bh" => {
                    total_mem = Some(v.parse().map_err(|_| err("bad total_mem_bh"))?)
                }
                "nodes" => nodes = Some(expand_ranges(v).ok_or_else(|| err("bad nodes"))?),
                _ => return Err(err("unknown field")),
            }
        }
        Ok(JobRecord {
            apid: apid.ok_or_else(|| err("missing apid"))?,
            user: user.ok_or_else(|| err("missing user"))?,
            nodes: nodes.ok_or_else(|| err("missing nodes"))?,
            start: start.ok_or_else(|| err("missing start"))?,
            end: end.ok_or_else(|| err("missing end"))?,
            gpu_core_hours: gch.ok_or_else(|| err("missing gpu_core_hours"))?,
            max_memory_bytes: max_mem.ok_or_else(|| err("missing max_mem"))?,
            total_memory_byte_hours: total_mem.ok_or_else(|| err("missing total_mem_bh"))?,
        })
    }
}

/// Writes the job-log line: the one definition of the format, used by
/// [`JobRecord::render`], the log renderers and the run digest.
impl fmt::Display for JobRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JOB apid={} user={} start={} end={} gpu_core_hours={:.4} max_mem={} total_mem_bh={:.4} nodes={}",
            self.apid,
            self.user,
            self.start,
            self.end,
            self.gpu_core_hours,
            self.max_memory_bytes,
            self.total_memory_byte_hours,
            NodeRanges(&self.nodes),
        )
    }
}

/// One `aprun` segment inside a batch job — ALPS launches these; §4 of
/// the paper: "the SBE counts can not be collected on a per aprun basis
/// instead it is collected on a job basis".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Aprun {
    /// Owning job's apid.
    pub apid: u64,
    /// Index within the job script, 0-based.
    pub index: u32,
    /// Segment start.
    pub start: SimTime,
    /// Segment end.
    pub end: SimTime,
}

impl Aprun {
    /// Segment length, seconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// Renders one aprun log line (the [`Display`](fmt::Display) form).
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Parses a [`render`](Self::render)ed aprun line.
    pub fn parse(line: &str) -> Option<Aprun> {
        let rest = line.trim().strip_prefix("APRUN ")?;
        let mut apid = None;
        let mut index = None;
        let mut start = None;
        let mut end = None;
        for field in rest.split_ascii_whitespace() {
            let (k, v) = field.split_once('=')?;
            match k {
                "apid" => apid = v.parse().ok(),
                "idx" => index = v.parse().ok(),
                "start" => start = v.parse().ok(),
                "end" => end = v.parse().ok(),
                _ => return None,
            }
        }
        let (start, end) = (start?, end?);
        if end < start {
            return None; // inverted span: corrupt log line
        }
        Some(Aprun {
            apid: apid?,
            index: index?,
            start,
            end,
        })
    }
}

/// Writes the aprun log line (the ALPS log format stand-in): the one
/// definition of the format, used by [`Aprun::render`], the log
/// renderers and the run digest.
impl fmt::Display for Aprun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "APRUN apid={} idx={} start={} end={}",
            self.apid, self.index, self.start, self.end
        )
    }
}

/// Job-log parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobLogError {
    /// What was wrong.
    pub what: String,
    /// Prefix of the offending line.
    pub line: String,
}

impl std::fmt::Display for JobLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job log parse error ({}) in {:?}", self.what, self.line)
    }
}

impl std::error::Error for JobLogError {}

/// Compresses sorted-or-not node ids to `a-b,c,d-e` ranges.
pub fn compress_ranges(nodes: &[NodeId]) -> String {
    NodeRanges(nodes).to_string()
}

/// Writes node ids as `a-b,c,d-e` ranges (`-` when empty), sorted and
/// deduplicated.
struct NodeRanges<'a>(&'a [NodeId]);

impl fmt::Display for NodeRanges<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nodes = self.0;
        if nodes.is_empty() {
            return f.write_str("-");
        }
        // Allocations arrive sorted and distinct; only other input needs
        // a normalized copy.
        let normalized = nodes.windows(2).all(|w| matches!(w, [a, b] if a.0 < b.0));
        if normalized {
            write_ranges(f, nodes.iter().map(|n| n.0))
        } else {
            let mut ids: Vec<u32> = nodes.iter().map(|n| n.0).collect();
            ids.sort_unstable();
            ids.dedup();
            write_ranges(f, ids.into_iter())
        }
    }
}

/// Writes strictly increasing ids, collapsing consecutive runs.
fn write_ranges(f: &mut fmt::Formatter<'_>, ids: impl Iterator<Item = u32>) -> fmt::Result {
    let mut ids = ids.peekable();
    let mut first = true;
    while let Some(start) = ids.next() {
        let mut end = start;
        while let Some(next) = ids.next_if(|&n| Some(n) == end.checked_add(1)) {
            end = next;
        }
        if !first {
            f.write_str(",")?;
        }
        first = false;
        if start == end {
            write!(f, "{start}")?;
        } else {
            write!(f, "{start}-{end}")?;
        }
    }
    Ok(())
}

/// Inverse of [`compress_ranges`]. `None` for a malformed list, and for
/// one that expands past [`TOTAL_SLOTS`] ids: no job runs on more nodes
/// than the machine has, and a short `0-4294967295` must not ask for
/// 2^32 ids.
pub fn expand_ranges(s: &str) -> Option<Vec<NodeId>> {
    if s == "-" {
        return Some(Vec::new());
    }
    let mut out = Vec::new();
    for part in s.split(',') {
        let (a, b) = match part.split_once('-') {
            Some((a, b)) => (a.parse::<u32>().ok()?, b.parse::<u32>().ok()?),
            None => {
                let n = part.parse::<u32>().ok()?;
                (n, n)
            }
        };
        if a > b || usize::try_from(b - a).ok()? >= TOTAL_SLOTS - out.len() {
            return None;
        }
        out.extend((a..=b).map(NodeId));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobRecord {
        JobRecord {
            apid: 1_048_576,
            user: 42,
            nodes: vec![NodeId(5), NodeId(6), NodeId(7), NodeId(100), NodeId(200), NodeId(201)],
            start: 1000,
            end: 8200,
            gpu_core_hours: 12.5,
            max_memory_bytes: 4 * 1024 * 1024 * 1024,
            total_memory_byte_hours: 1.5e12,
        }
    }

    #[test]
    fn derived_metrics() {
        let j = job();
        assert_eq!(j.wall_seconds(), 7200);
        assert_eq!(j.node_count(), 6);
        assert!((j.node_hours() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn render_parse_roundtrip() {
        let j = job();
        let line = j.render();
        let back = JobRecord::parse(&line).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn range_compression() {
        assert_eq!(compress_ranges(&[]), "-");
        assert_eq!(compress_ranges(&[NodeId(5)]), "5");
        assert_eq!(
            compress_ranges(&[NodeId(5), NodeId(6), NodeId(7)]),
            "5-7"
        );
        // Unsorted with duplicates.
        assert_eq!(
            compress_ranges(&[NodeId(7), NodeId(5), NodeId(6), NodeId(5), NodeId(9)]),
            "5-7,9"
        );
    }

    #[test]
    fn range_expansion() {
        assert_eq!(expand_ranges("-"), Some(vec![]));
        assert_eq!(
            expand_ranges("5-7,9"),
            Some(vec![NodeId(5), NodeId(6), NodeId(7), NodeId(9)])
        );
        assert_eq!(expand_ranges("9-5"), None);
        assert_eq!(expand_ranges("abc"), None);
        assert_eq!(expand_ranges("1,,2"), None);
    }

    #[test]
    fn node_lists_past_the_machine_are_rejected_before_expanding() {
        let line = |nodes: &str| {
            format!(
                "JOB apid=1 user=1 start=0 end=1 gpu_core_hours=0 max_mem=0 total_mem_bh=0 \
                 nodes={nodes}"
            )
        };
        // About 100 bytes that ask for 2^32 ids (16 GiB): an error, with
        // nothing materialized.
        let err = JobRecord::parse(&line("0-4294967295")).unwrap_err();
        assert!(err.to_string().contains("bad nodes"), "{err}");
        // Every slot of the machine is still one valid list.
        let all = JobRecord::parse(&line("0-19199")).unwrap();
        assert_eq!(all.nodes.len(), TOTAL_SLOTS);
        assert_eq!(all.nodes.last(), Some(&NodeId(19_199)));
        // One id more is not, in one range or summed over parts.
        assert_eq!(expand_ranges("0-19200"), None);
        assert_eq!(expand_ranges("0-19198,5,6"), None);
        assert_eq!(
            expand_ranges("0-19198,5").map(|v| v.len()),
            Some(TOTAL_SLOTS)
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(JobRecord::parse("not a job line").is_err());
        assert!(JobRecord::parse("JOB apid=1").is_err()); // missing fields
        assert!(JobRecord::parse("JOB apid=x user=1 start=0 end=1 gpu_core_hours=0 max_mem=0 total_mem_bh=0 nodes=1").is_err());
        let mut line = job().render();
        line.push_str(" rogue=1");
        assert!(JobRecord::parse(&line).is_err());
    }

    #[test]
    fn aprun_roundtrip() {
        let a = Aprun {
            apid: 1_048_577,
            index: 3,
            start: 777,
            end: 9_999,
        };
        assert_eq!(Aprun::parse(&a.render()), Some(a));
        assert_eq!(a.duration(), 9_222);
        assert_eq!(Aprun::parse("garbage"), None);
        assert_eq!(Aprun::parse("APRUN apid=1 idx=0 start=5"), None);
        // Inverted spans are corrupt, not negative-duration apruns.
        assert_eq!(Aprun::parse("APRUN apid=1 idx=0 start=10 end=5"), None);
    }

    #[test]
    fn error_display() {
        let e = JobRecord::parse("garbage").unwrap_err();
        let s = format!("{e}");
        assert!(s.contains("missing JOB prefix"), "{s}");
    }
}
