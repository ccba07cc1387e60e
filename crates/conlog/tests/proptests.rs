//! Property tests: the log wire formats must round-trip exactly, the
//! parsers must be total (never panic) on arbitrary input, and each
//! byte-cursor fast path must take every rendered line and agree with
//! the field-map parser on every line it takes.

use std::collections::BTreeSet;

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use titan_conlog::format::{
    parse_line, parse_line_fast, parse_line_fields, parse_stream, render_line,
};
use titan_conlog::joblog::{compress_ranges, expand_ranges, Aprun, JobRecord};
use titan_conlog::time::{StudyCalendar, STUDY_SECONDS};
use titan_conlog::{ConsoleEvent, NodeSet};
use titan_gpu::{GpuErrorKind, MemoryStructure};
use titan_topology::NodeId;

fn any_kind() -> impl Strategy<Value = GpuErrorKind> {
    prop::sample::select(
        GpuErrorKind::ALL
            .into_iter()
            .filter(|k| *k != GpuErrorKind::SingleBitError)
            .collect::<Vec<_>>(),
    )
}

fn any_structure() -> impl Strategy<Value = Option<MemoryStructure>> {
    prop::option::of(prop::sample::select(MemoryStructure::ALL.to_vec()))
}

/// A job record as the simulator writes one: nodes sorted and distinct,
/// floats at the four decimals the log keeps.
#[allow(clippy::too_many_arguments)]
fn job(
    apid: u64,
    user: u32,
    ids: &[u32],
    start: u64,
    dur: u64,
    gch: f64,
    max_mem: u64,
    tmb: f64,
) -> JobRecord {
    let mut nodes: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
    nodes.sort_unstable();
    nodes.dedup();
    JobRecord {
        apid,
        user,
        nodes: nodes.into(),
        start,
        end: start + dur,
        gpu_core_hours: (gch * 1e4).round() / 1e4,
        max_memory_bytes: max_mem,
        total_memory_byte_hours: (tmb * 1e4).round() / 1e4,
    }
}

/// An id as a `Vec<NodeId>` may hold one: mostly a slot of the machine,
/// else one around 2^16 or any `u32`.
fn any_id() -> impl Strategy<Value = u32> {
    (0u8..4, 0u32..19_200, 65_530u32..65_545, any::<u32>()).prop_map(|(pick, slot, edge, any)| {
        match pick {
            0 | 1 => slot,
            2 => edge,
            _ => any,
        }
    })
}

/// Start of the `at`-th run of ASCII digits in `b` (cyclically), if any.
fn digit_run(b: &[u8], at: usize) -> Option<usize> {
    let starts: Vec<usize> = (0..b.len())
        .filter(|&i| b[i].is_ascii_digit() && (i == 0 || !b[i - 1].is_ascii_digit()))
        .collect();
    (!starts.is_empty()).then(|| starts[at % starts.len()])
}

/// One edit of a rendered (ASCII) line, of the kinds a fast path must
/// refuse or read exactly as the field-map parser does: a `+` sign, a
/// leading zero, uppercase hex, a doubled space, two fields swapped,
/// trailing whitespace, truncation, or one number replaced (which can
/// invert a span, repeat a node or overflow a field).
fn mutate(line: &str, how: u8, at: usize) -> String {
    let mut b = line.as_bytes().to_vec();
    match how {
        0 | 1 => {
            if let Some(i) = digit_run(&b, at) {
                b.insert(i, if how == 0 { b'+' } else { b'0' });
            }
        }
        2 => {
            let from = at % (b.len() + 1);
            b[from..].make_ascii_uppercase();
        }
        3 => {
            let spaces: Vec<usize> = (0..b.len()).filter(|&i| b[i] == b' ').collect();
            if !spaces.is_empty() {
                b.insert(spaces[at % spaces.len()], b' ');
            }
        }
        4 => {
            let mut tokens: Vec<&str> = line.split(' ').collect();
            if tokens.len() > 1 {
                let k = at % (tokens.len() - 1);
                tokens.swap(k, k + 1);
            }
            b = tokens.join(" ").into_bytes();
        }
        5 => b.push([b' ', b'\t'][at % 2]),
        6 => b.truncate(at % (b.len() + 1)),
        _ => {
            if let Some(i) = digit_run(&b, at) {
                let end = (i..b.len()).find(|&k| !b[k].is_ascii_digit()).unwrap_or(b.len());
                let new = ["0", "1", "19199", "4294967296"][at % 4];
                b.splice(i..end, new.bytes());
            }
        }
    }
    String::from_utf8(b).expect("edits of an ASCII line stay ASCII")
}

/// The fast path of each parser either declines `line` or returns what
/// the field-map parser returns.
fn fast_paths_agree(line: &str) {
    if let Some(ev) = parse_line_fast(line) {
        prop_assert_eq!(parse_line_fields(line), Some(ev), "{}", line);
    }
    prop_assert_eq!(parse_line(line), parse_line_fields(line), "{}", line);
    if let Some(j) = JobRecord::parse_fast(line) {
        prop_assert_eq!(JobRecord::parse_fields(line), Ok(j), "{}", line);
    }
    if let Some(a) = Aprun::parse_fast(line) {
        prop_assert_eq!(Aprun::parse_fields(line), Some(a), "{}", line);
    }
}

proptest! {
    /// Console event -> line -> event is the identity.
    #[test]
    fn console_roundtrip(
        time in 0u64..STUDY_SECONDS,
        node in 0u32..19_200,
        kind in any_kind(),
        structure in any_structure(),
        page in prop::option::of(any::<u32>()),
        apid in prop::option::of(any::<u64>()),
    ) {
        let ev = ConsoleEvent { time, node: NodeId(node), kind, structure, page, apid };
        let line = render_line(&ev);
        prop_assert_eq!(parse_line(&line), Some(ev), "{}", line);
        // Every rendered line takes the fast path itself.
        prop_assert_eq!(parse_line_fast(&line), Some(ev), "{}", line);
    }

    /// The line parser never panics and never invents events from noise
    /// that lacks the GPU markers.
    #[test]
    fn parser_total(s in "\\PC{0,200}") {
        let r = parse_line(&s);
        if !s.contains("GPU") {
            prop_assert_eq!(r, None);
        }
    }

    /// Stream parsing conserves lines: parsed + skipped == nonempty lines.
    #[test]
    fn stream_conservation(lines in prop::collection::vec("\\PC{0,80}", 0..30)) {
        let text = lines.join("\n");
        let (events, stats) = parse_stream(&text);
        let nonempty = text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        prop_assert_eq!(stats.parsed + stats.skipped, nonempty);
        prop_assert_eq!(events.len() as u64, stats.parsed);
    }

    /// A `NodeSet` stands in for the `Vec<NodeId>` it was built from,
    /// whatever the list: unsorted, repeated, empty, ids past 2^16.
    #[test]
    fn node_set_stands_in_for_the_vec(
        ids in prop::collection::vec(any_id(), 0..80),
        probe in prop::collection::vec(any_id(), 0..6),
        member in any::<usize>(),
    ) {
        let v: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        let s: NodeSet = v.iter().copied().collect();
        prop_assert_eq!(s.len(), v.len());
        prop_assert_eq!(s.is_empty(), v.is_empty());
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), v.clone());
        prop_assert_eq!(s.iter().len(), v.len());
        prop_assert_eq!(format!("{s:?}"), format!("{v:?}"));
        prop_assert_eq!(&NodeSet::from(v.clone()), &s);

        let mut set: BTreeSet<NodeId> = probe.iter().map(|&i| NodeId(i)).collect();
        prop_assert_eq!(s.intersects(&set), v.iter().any(|n| set.contains(n)));
        if !v.is_empty() {
            set.insert(v[member % v.len()]);
            prop_assert!(s.intersects(&set));
        }

        let json = serde_json::to_string(&v).unwrap();
        prop_assert_eq!(serde_json::to_string(&s).unwrap(), json.clone());
        prop_assert_eq!(s.to_value(), v.to_value());
        let back: NodeSet = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(&NodeSet::from_value(&v.to_value()).unwrap(), &s);

        // In a job line: the ranges of the sorted, distinct ids.
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let j = JobRecord { nodes: s, ..job(1, 2, &[], 3, 4, 5.0, 6, 7.0) };
        prop_assert_eq!(j.render(), job(1, 2, &sorted, 3, 4, 5.0, 6, 7.0).render());
        if sorted.len() <= 19_200 {
            let back = JobRecord::parse(&j.render()).unwrap();
            prop_assert_eq!(back.nodes.iter().map(|n| n.0).collect::<Vec<_>>(), sorted);
        }
    }

    /// Node-range compression round-trips through expansion (after
    /// sort+dedup normalization).
    #[test]
    fn ranges_roundtrip(ids in prop::collection::vec(0u32..19_200, 0..200)) {
        let nodes: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        let mut normalized: Vec<u32> = ids.clone();
        normalized.sort_unstable();
        normalized.dedup();
        let s = compress_ranges(&nodes);
        let back = expand_ranges(&s).unwrap();
        let back_ids: Vec<u32> = back.iter().map(|n| n.0).collect();
        prop_assert_eq!(back_ids, normalized);
    }

    /// Job records round-trip exactly (floats rendered with enough
    /// precision for the analysis tolerances), through the fast path.
    #[test]
    fn job_roundtrip(
        apid in any::<u64>(),
        user in any::<u32>(),
        ids in prop::collection::vec(0u32..19_200, 1..50),
        start in 0u64..STUDY_SECONDS,
        dur in 60u64..86_400,
        gch in 0.0f64..1e6,
        max_mem in 0u64..6_442_450_944,
        tmb in 0.0f64..1e15,
    ) {
        let j = job(apid, user, &ids, start, dur, gch, max_mem, tmb);
        let line = j.render();
        let back = JobRecord::parse(&line).unwrap();
        prop_assert_eq!(back.apid, j.apid);
        prop_assert_eq!(back.user, j.user);
        prop_assert_eq!(&back.nodes, &j.nodes);
        prop_assert!((back.gpu_core_hours - j.gpu_core_hours).abs() < 1e-3);
        prop_assert_eq!(back.max_memory_bytes, j.max_memory_bytes);
        // Every rendered line takes the fast path itself.
        prop_assert_eq!(JobRecord::parse_fast(&line), Some(back), "{}", line);
    }

    /// Aprun segments round-trip exactly, through the fast path.
    #[test]
    fn aprun_roundtrip(
        apid in any::<u64>(),
        index in any::<u32>(),
        start in 0u64..STUDY_SECONDS,
        dur in 0u64..86_400,
    ) {
        let a = Aprun { apid, index, start, end: start + dur };
        let line = a.render();
        prop_assert_eq!(Aprun::parse(&line), Some(a), "{}", line);
        prop_assert_eq!(Aprun::parse_fast(&line), Some(a), "{}", line);
    }

    /// The aprun parser never panics, and what it returns is a real
    /// segment: `end >= start`, so `duration` cannot underflow.
    #[test]
    fn aprun_parser_total(s in "\\PC{0,200}") {
        if let Some(a) = Aprun::parse(&s) {
            prop_assert!(a.end >= a.start);
            let _ = a.duration();
        }
        if !s.contains("APRUN") {
            prop_assert_eq!(Aprun::parse(&s), None);
        }
    }

    /// The aprun parser stays total on near-miss lines: edited renders
    /// and `key=value` soup.
    #[test]
    fn aprun_parser_total_on_near_misses(
        apid in any::<u64>(),
        start in 0u64..STUDY_SECONDS,
        end in 0u64..STUDY_SECONDS,
        how in 0u8..8,
        at in 0usize..64,
        junk in "\\PC{0,24}",
    ) {
        let line = format!("APRUN apid={apid} idx=0 start={start} end={end}");
        for l in [mutate(&line, how, at), format!("{line} {junk}"), format!("APRUN {junk}")] {
            if let Some(a) = Aprun::parse(&l) {
                prop_assert!(a.end >= a.start, "{}", l);
            }
        }
        prop_assert_eq!(Aprun::parse(&line).is_some(), end >= start);
    }

    /// On arbitrary text the fast paths never take a line the field-map
    /// parsers read differently.
    #[test]
    fn fast_paths_agree_on_noise(s in "\\PC{0,200}") {
        fast_paths_agree(&s);
    }

    /// Timestamp render/parse round-trips across the window.
    #[test]
    fn timestamp_roundtrip(t in 0u64..STUDY_SECONDS) {
        let cal = StudyCalendar;
        prop_assert_eq!(cal.parse_timestamp(&cal.format_timestamp(t)), Some(t));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On edited console lines the fast path declines or agrees.
    #[test]
    fn console_fast_path_agrees_on_edits(
        time in 0u64..STUDY_SECONDS,
        node in 0u32..19_200,
        kind in any_kind(),
        structure in any_structure(),
        page in prop::option::of(any::<u32>()),
        apid in prop::option::of(any::<u64>()),
        how in 0u8..8,
        at in 0usize..256,
    ) {
        let ev = ConsoleEvent { time, node: NodeId(node), kind, structure, page, apid };
        fast_paths_agree(&mutate(&render_line(&ev), how, at));
    }

    /// On edited job lines the fast path declines or agrees, and a
    /// parsed job is always a real one: it ends no earlier than it
    /// starts and lists each node once, in order.
    #[test]
    fn job_fast_path_agrees_on_edits(
        apid in any::<u64>(),
        user in any::<u32>(),
        ids in prop::collection::vec(0u32..19_200, 1..50),
        start in 0u64..STUDY_SECONDS,
        dur in 0u64..86_400,
        gch in 0.0f64..1e6,
        tmb in 0.0f64..1e15,
        how in 0u8..8,
        at in 0usize..256,
    ) {
        let j = job(apid, user, &ids, start, dur, gch, 1 << 32, tmb);
        let line = mutate(&j.render(), how, at);
        fast_paths_agree(&line);
        if let Ok(back) = JobRecord::parse(&line) {
            prop_assert!(back.end >= back.start, "{}", line);
            prop_assert!(back.nodes.to_vec().windows(2).all(|w| w[0] < w[1]), "{}", line);
        }
    }

    /// On edited aprun lines the fast path declines or agrees.
    #[test]
    fn aprun_fast_path_agrees_on_edits(
        apid in any::<u64>(),
        index in any::<u32>(),
        start in 0u64..STUDY_SECONDS,
        dur in 0u64..86_400,
        how in 0u8..8,
        at in 0usize..64,
    ) {
        let a = Aprun { apid, index, start, end: start + dur };
        fast_paths_agree(&mutate(&a.render(), how, at));
    }
}
