//! Batch-job log records — the job-log + RUR (resource utilization
//! reporting) data source of the paper's §4.
//!
//! Each completed batch job leaves one record carrying exactly the fields
//! the correlation study uses: user, node allocation, wall clock, GPU
//! core-hours, and maximum/total GPU memory consumption. Node allocations
//! are rendered as compact id ranges (`17-40,96,112-143`) because Titan
//! jobs routinely span thousands of nodes.

use std::fmt::{self, Write as _};

use serde::{Deserialize, Serialize};
use titan_topology::{NodeId, TOTAL_SLOTS};

use crate::line::{self, Cursor, LogLine};
use crate::nodeset::NodeSet;
use crate::time::SimTime;

/// One completed batch job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// ALPS application id.
    pub apid: u64,
    /// Submitting user (the paper uses userID "as a proxy for the kind of
    /// application", Observation 13).
    pub user: u32,
    /// Allocated compute nodes, in allocation order when the simulator
    /// wrote the record and ascending when the job log was parsed.
    pub nodes: NodeSet,
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

    /// Renders one job-log line (the [`LogLine::write_line`] form).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write_line(&mut s);
        s
    }

    /// Parses a [`render`](Self::render)ed line. Canonical lines take
    /// [`parse_fast`](Self::parse_fast); every other line goes to
    /// [`parse_fields`](Self::parse_fields).
    pub fn parse(line: &str) -> Result<JobRecord, JobLogError> {
        match Self::parse_fast(line) {
            Some(j) => Ok(j),
            None => Self::parse_fields(line),
        }
    }

    /// The byte-cursor fast path of [`parse`](Self::parse): takes only
    /// the exact line [`LogLine::write_line`] writes (fields in render
    /// order, single spaces, canonical integers, `{:.4}` floats, node
    /// runs ascending and collapsed). `None` means "not canonical": the
    /// line may still parse through [`parse_fields`](Self::parse_fields),
    /// which returns the same record for every line this accepts.
    pub fn parse_fast(line: &str) -> Option<JobRecord> {
        let mut c = Cursor::new(line);
        c.tag("JOB apid=")?;
        let apid = c.uint()?;
        c.tag(" user=")?;
        let user = u32::try_from(c.uint()?).ok()?;
        c.tag(" start=")?;
        let start = c.uint()?;
        c.tag(" end=")?;
        let end = c.uint()?;
        if end < start {
            return None;
        }
        c.tag(" gpu_core_hours=")?;
        let gpu_core_hours = c.fixed4()?.parse().ok()?;
        c.tag(" max_mem=")?;
        let max_memory_bytes = c.uint()?;
        c.tag(" total_mem_bh=")?;
        let total_memory_byte_hours = c.fixed4()?.parse().ok()?;
        c.tag(" nodes=")?;
        let nodes = if c.eat("-") { NodeSet::default() } else { canonical_ranges(&mut c)? };
        if !c.is_empty() {
            return None;
        }
        Some(JobRecord {
            apid,
            user,
            nodes,
            start,
            end,
            gpu_core_hours,
            max_memory_bytes,
            total_memory_byte_hours,
        })
    }

    /// The field-map parser behind [`parse`](Self::parse): fields in
    /// any order, any number formatting `str::parse` takes. It is the
    /// fallback for non-canonical lines and the oracle
    /// [`parse_fast`](Self::parse_fast) is tested against. A job that
    /// ends before it starts is an error, as is a node list that
    /// [`expand_ranges`] rejects.
    pub fn parse_fields(line: &str) -> Result<JobRecord, JobLogError> {
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
                "nodes" => {
                    nodes = Some(expand_ranges(v).map(NodeSet::from).ok_or_else(|| err("bad nodes"))?)
                }
                _ => return Err(err("unknown field")),
            }
        }
        let start = start.ok_or_else(|| err("missing start"))?;
        let end = end.ok_or_else(|| err("missing end"))?;
        if end < start {
            return Err(err("end before start"));
        }
        Ok(JobRecord {
            apid: apid.ok_or_else(|| err("missing apid"))?,
            user: user.ok_or_else(|| err("missing user"))?,
            nodes: nodes.ok_or_else(|| err("missing nodes"))?,
            start,
            end,
            gpu_core_hours: gch.ok_or_else(|| err("missing gpu_core_hours"))?,
            max_memory_bytes: max_mem.ok_or_else(|| err("missing max_mem"))?,
            total_memory_byte_hours: total_mem.ok_or_else(|| err("missing total_mem_bh"))?,
        })
    }
}

/// Appends the job-log line: the one definition of the format, used by
/// [`JobRecord::render`], `Display`, the log renderers and the run
/// digest.
impl LogLine for JobRecord {
    fn write_line(&self, out: &mut String) {
        out.push_str("JOB apid=");
        line::push_uint(out, self.apid);
        out.push_str(" user=");
        line::push_uint(out, u64::from(self.user));
        out.push_str(" start=");
        line::push_uint(out, self.start);
        out.push_str(" end=");
        line::push_uint(out, self.end);
        let _ = write!(out, " gpu_core_hours={:.4}", self.gpu_core_hours);
        out.push_str(" max_mem=");
        line::push_uint(out, self.max_memory_bytes);
        let _ = write!(out, " total_mem_bh={:.4}", self.total_memory_byte_hours);
        out.push_str(" nodes=");
        push_ranges(out, self.nodes.iter());
    }
}

/// The job-log line, through [`LogLine::write_line`].
impl fmt::Display for JobRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        line::display(self, f)
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

    /// Renders one aprun log line (the [`LogLine::write_line`] form).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write_line(&mut s);
        s
    }

    /// Parses a [`render`](Self::render)ed aprun line. Canonical lines
    /// take [`parse_fast`](Self::parse_fast); every other line goes to
    /// [`parse_fields`](Self::parse_fields).
    pub fn parse(line: &str) -> Option<Aprun> {
        Self::parse_fast(line).or_else(|| Self::parse_fields(line))
    }

    /// The byte-cursor fast path of [`parse`](Self::parse): takes only
    /// the exact line [`LogLine::write_line`] writes. `None` means "not
    /// canonical"; [`parse_fields`](Self::parse_fields) returns the same
    /// segment for every line this accepts.
    pub fn parse_fast(line: &str) -> Option<Aprun> {
        let mut c = Cursor::new(line);
        c.tag("APRUN apid=")?;
        let apid = c.uint()?;
        c.tag(" idx=")?;
        let index = u32::try_from(c.uint()?).ok()?;
        c.tag(" start=")?;
        let start = c.uint()?;
        c.tag(" end=")?;
        let end = c.uint()?;
        if end < start || !c.is_empty() {
            return None;
        }
        Some(Aprun {
            apid,
            index,
            start,
            end,
        })
    }

    /// The field-map parser behind [`parse`](Self::parse), and the
    /// oracle [`parse_fast`](Self::parse_fast) is tested against.
    pub fn parse_fields(line: &str) -> Option<Aprun> {
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

/// Appends the aprun log line (the ALPS log format stand-in): the one
/// definition of the format, used by [`Aprun::render`], `Display`, the
/// log renderers and the run digest.
impl LogLine for Aprun {
    fn write_line(&self, out: &mut String) {
        out.push_str("APRUN apid=");
        line::push_uint(out, self.apid);
        out.push_str(" idx=");
        line::push_uint(out, u64::from(self.index));
        out.push_str(" start=");
        line::push_uint(out, self.start);
        out.push_str(" end=");
        line::push_uint(out, self.end);
    }
}

/// The aprun log line, through [`LogLine::write_line`].
impl fmt::Display for Aprun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        line::display(self, f)
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
    let mut s = String::new();
    push_ranges(&mut s, nodes.iter().copied());
    s
}

/// Words of a bitmap over every slot of the machine.
const SLOT_WORDS: usize = TOTAL_SLOTS.div_ceil(64);

/// Appends node ids as `a-b,c,d-e` ranges (`-` when empty), sorted and
/// deduplicated. Ids inside the machine go through a stack bitmap, so
/// an unsorted allocation is never copied or sorted; a list holding an
/// id past [`TOTAL_SLOTS`] takes a sorted copy instead.
fn push_ranges(out: &mut String, nodes: impl Iterator<Item = NodeId> + Clone) {
    let mut words = [0u64; SLOT_WORDS];
    let mut empty = true;
    for n in nodes.clone() {
        empty = false;
        let id = usize::try_from(n.0).unwrap_or(usize::MAX);
        match words.get_mut(id / 64) {
            Some(w) => *w |= 1 << (id % 64),
            None => return push_sorted_ranges(out, nodes),
        }
    }
    if empty {
        out.push('-');
        return;
    }
    let mut first = true;
    let mut from = 0;
    while let Some(start) = next_bit(&words, from, true) {
        // Bits past the last slot are clear, so every run ends in range.
        let end = next_bit(&words, start, false).unwrap_or(SLOT_WORDS * 64);
        let (Ok(a), Ok(b)) = (u64::try_from(start), u64::try_from(end - 1)) else {
            break;
        };
        push_run(out, &mut first, a, b);
        from = end;
    }
}

/// The first bit index at or after `from` whose bit is `set`, if any.
fn next_bit(words: &[u64; SLOT_WORDS], from: usize, set: bool) -> Option<usize> {
    let flip = if set { 0 } else { u64::MAX };
    let mut wi = from / 64;
    let mut w = (words.get(wi)? ^ flip) & (u64::MAX << (from % 64));
    while w == 0 {
        wi += 1;
        w = words.get(wi)? ^ flip;
    }
    Some(wi * 64 + usize::try_from(w.trailing_zeros()).ok()?)
}

/// The fallback of [`push_ranges`] for ids past the machine: a sorted,
/// deduplicated copy walked run by run.
fn push_sorted_ranges(out: &mut String, nodes: impl Iterator<Item = NodeId>) {
    let mut ids: Vec<u32> = nodes.map(|n| n.0).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut first = true;
    let mut ids = ids.into_iter().peekable();
    while let Some(start) = ids.next() {
        let mut end = start;
        while let Some(next) = ids.next_if(|&n| Some(n) == end.checked_add(1)) {
            end = next;
        }
        push_run(out, &mut first, u64::from(start), u64::from(end));
    }
}

/// Appends one run `start-end` (or `start` alone), comma-separated from
/// the previous one.
fn push_run(out: &mut String, first: &mut bool, start: u64, end: u64) {
    if !*first {
        out.push(',');
    }
    *first = false;
    line::push_uint(out, start);
    if end != start {
        out.push('-');
        line::push_uint(out, end);
    }
}

/// Reads the canonical node list [`push_ranges`] writes: runs ascending
/// with a gap between them, `a-b` only for `a < b`, at most
/// [`TOTAL_SLOTS`] ids. `None` for anything else, including a list that
/// [`expand_ranges`] would take. The runs are read first so the id list
/// is allocated once, at its exact length.
fn canonical_ranges(c: &mut Cursor<'_>) -> Option<NodeSet> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut total = 0usize;
    let mut next_start = 0u32;
    loop {
        let a = u32::try_from(c.uint()?).ok()?;
        let b = if c.eat("-") { u32::try_from(c.uint()?).ok().filter(|&b| b > a)? } else { a };
        let len = usize::try_from(b - a).ok()?;
        if a < next_start || len >= TOTAL_SLOTS - total {
            return None;
        }
        total += len + 1;
        runs.push((a, b));
        if !c.eat(",") {
            break;
        }
        next_start = b.checked_add(2)?;
    }
    Some(NodeSet::from_runs(&runs, total))
}

/// Inverse of [`compress_ranges`]. `None` for a malformed list, for one
/// whose runs are not ascending and disjoint (a run must start after the
/// previous run's end, so a parsed list is always sorted and distinct),
/// and for one that expands past [`TOTAL_SLOTS`] ids: no job runs on
/// more nodes than the machine has, and a short `0-4294967295` must not
/// ask for 2^32 ids.
pub fn expand_ranges(s: &str) -> Option<Vec<NodeId>> {
    if s == "-" {
        return Some(Vec::new());
    }
    let mut out: Vec<NodeId> = Vec::new();
    for part in s.split(',') {
        let (a, b) = match part.split_once('-') {
            Some((a, b)) => (a.parse::<u32>().ok()?, b.parse::<u32>().ok()?),
            None => {
                let n = part.parse::<u32>().ok()?;
                (n, n)
            }
        };
        if a > b
            || out.last().is_some_and(|prev| a <= prev.0)
            || usize::try_from(b - a).ok()? >= TOTAL_SLOTS - out.len()
        {
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
            nodes: vec![NodeId(5), NodeId(6), NodeId(7), NodeId(100), NodeId(200), NodeId(201)].into(),
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
        assert_eq!(all.nodes.iter().last(), Some(NodeId(19_199)));
        // One id more is not, in one range or summed over parts.
        assert_eq!(expand_ranges("0-19200"), None);
        assert_eq!(expand_ranges("0-19198,5,6"), None);
        assert_eq!(
            expand_ranges("0-19198,19199").map(|v| v.len()),
            Some(TOTAL_SLOTS)
        );
        assert_eq!(expand_ranges("0-19198,19199,19200"), None);
    }

    #[test]
    fn parsed_lists_are_sorted_and_distinct() {
        // A run must start after the previous run's end: no repeats, no
        // reordering, so `node_count` never counts a node twice.
        assert_eq!(expand_ranges("3,3,1"), None);
        assert_eq!(expand_ranges("1,3,2"), None);
        assert_eq!(expand_ranges("1-5,5-9"), None);
        assert_eq!(expand_ranges("1-5,4"), None);
        assert_eq!(
            expand_ranges("1,2,4-5"),
            Some(vec![NodeId(1), NodeId(2), NodeId(4), NodeId(5)])
        );
        let line = "JOB apid=1 user=1 start=0 end=1 gpu_core_hours=0 max_mem=0 total_mem_bh=0 \
                    nodes=3,3,1";
        assert!(JobRecord::parse(line).is_err());
    }

    #[test]
    fn inverted_job_spans_are_rejected() {
        let line = |start: u64, end: u64| {
            format!(
                "JOB apid=1 user=1 start={start} end={end} gpu_core_hours=0 max_mem=0 \
                 total_mem_bh=0 nodes=1"
            )
        };
        let err = JobRecord::parse(&line(100, 5)).unwrap_err();
        assert!(err.to_string().contains("end before start"), "{err}");
        assert_eq!(JobRecord::parse(&line(5, 5)).map(|j| j.wall_seconds()), Ok(0));
    }

    #[test]
    fn unsorted_allocations_render_like_sorted_ones() {
        // The bitmap path (ids in the machine) and the sorted path (an id
        // past it) agree with a sort + dedup of the input.
        let cases: [&[u32]; 5] = [
            &[19_199, 0, 63, 64, 65, 127, 128, 5, 5],
            &[1, 3, 5],
            &[100, 99, 98, 97, 200],
            &[19_199],
            &[7, 7, 7, 19_200, 19_201, 6],
        ];
        for ids in cases {
            let nodes: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
            let mut sorted = ids.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            let back = expand_ranges(&compress_ranges(&nodes)).unwrap();
            assert_eq!(back.iter().map(|n| n.0).collect::<Vec<_>>(), sorted);
        }
        assert_eq!(compress_ranges(&[NodeId(64), NodeId(63), NodeId(62)]), "62-64");
        assert_eq!(
            compress_ranges(&(0..19_200).rev().map(NodeId).collect::<Vec<_>>()),
            "0-19199"
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
