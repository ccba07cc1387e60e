//! The console-log wire format.
//!
//! One event renders to one line, e.g.:
//!
//! ```text
//! [2013-09-14 03:22:41] c3-17c2s5n1 GPU Xid 48: Double Bit Error (detected by the SECDED ECC, but not corrected) struct="Device Memory" page=0x0001a2b3 apid=1048576
//! [2013-07-02 11:00:05] c0-4c2s1n3 GPU has fallen off the bus apid=77341
//! ```
//!
//! Rendering and parsing are exact inverses for every well-formed event;
//! the parser additionally tolerates (and counts) malformed lines, since
//! real console streams interleave GPU events with unrelated chatter.

use std::fmt;

use titan_gpu::{GpuErrorKind, MemoryStructure, Xid};
use titan_topology::Location;

use crate::line::{self, digits, Cursor, LogLine};
use crate::record::ConsoleEvent;
use crate::time::{CalendarTime, StudyCalendar};

/// Counters from a parsing pass over a log stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Lines that produced an event.
    pub parsed: u64,
    /// Lines skipped as non-GPU chatter or garbage.
    pub skipped: u64,
}

/// Appends the event's console-log line (no trailing newline). This is
/// the one definition of the line format: [`render_line`], `Display`,
/// the log renderers and the run digest all write through it.
impl LogLine for ConsoleEvent {
    fn write_line(&self, out: &mut String) {
        out.push('[');
        line::push_timestamp(out, &StudyCalendar.breakdown(self.time));
        out.push_str("] ");
        line::push_cname(out, &self.node.location());
        out.push(' ');
        match self.kind.xid() {
            Some(x) => {
                out.push_str("GPU Xid ");
                line::push_uint(out, u64::from(x.0));
                out.push_str(": ");
                out.push_str(self.kind.description());
            }
            None => match self.kind {
                GpuErrorKind::OffTheBus => out.push_str(OFF_THE_BUS),
                // SBEs never appear in console logs; render defensively anyway.
                _ => out.push_str(self.kind.description()),
            },
        }
        if let Some(st) = self.structure {
            out.push_str(" struct=\"");
            out.push_str(st.label());
            out.push('"');
        }
        if let Some(p) = self.page {
            out.push_str(" page=0x");
            line::push_hex8(out, p);
        }
        if let Some(a) = self.apid {
            out.push_str(" apid=");
            line::push_uint(out, a);
        }
    }
}

/// The console-log line, through [`LogLine::write_line`].
impl fmt::Display for ConsoleEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        line::display(self, f)
    }
}

/// The off-the-bus line body, which carries no XID.
const OFF_THE_BUS: &str = "GPU has fallen off the bus";

/// Renders one event as a console-log line (no trailing newline).
pub fn render_line(ev: &ConsoleEvent) -> String {
    let mut s = String::with_capacity(rendered_len(ev));
    ev.write_line(&mut s);
    s
}

/// Exact byte length of [`render_line`] for `ev`, computed without
/// formatting or allocating. The titan-prof cost ledger charges console
/// bytes per event kind on the hot path; rendering each line twice just
/// to measure it would cost more than the ledger is allowed to
/// (`bench_pr`'s prof-overhead gate). Pinned equal to
/// `render_line(ev).len()` by the `rendered_len_matches_render_line`
/// test over the full event corpus.
pub fn rendered_len(ev: &ConsoleEvent) -> usize {
    // "[" + fixed 19-char timestamp + "] "
    let mut n = 1 + 19 + 2;
    // cname "c{col}-{row}c{cage}s{blade}n{node}" + trailing space.
    let loc = ev.node.location();
    n += 1
        + digits(u64::from(loc.col))
        + 1
        + digits(u64::from(loc.row))
        + 1
        + digits(u64::from(loc.cage))
        + 1
        + digits(u64::from(loc.blade))
        + 1
        + digits(u64::from(loc.node))
        + 1;
    match ev.kind.xid() {
        Some(x) => n += "GPU Xid ".len() + digits(u64::from(x.0)) + ": ".len() + ev.kind.description().len(),
        None => match ev.kind {
            GpuErrorKind::OffTheBus => n += OFF_THE_BUS.len(),
            _ => n += ev.kind.description().len(),
        },
    }
    if let Some(st) = ev.structure {
        n += " struct=\"".len() + st.label().len() + 1;
    }
    if ev.page.is_some() {
        n += " page=0x".len() + 8; // {:08x} of a u32 is always 8 hex digits
    }
    if let Some(a) = ev.apid {
        n += " apid=".len() + digits(a);
    }
    n
}

/// Parses one console-log line. `None` for anything that is not a
/// GPU event line (the stream carries plenty of other traffic).
/// Canonical lines, the ones [`LogLine::write_line`] writes, take
/// [`parse_line_fast`]; every other line goes to [`parse_line_fields`].
pub fn parse_line(line: &str) -> Option<ConsoleEvent> {
    parse_line_fast(line).or_else(|| parse_line_fields(line))
}

/// The byte-cursor fast path of [`parse_line`]: takes only the exact
/// line [`LogLine::write_line`] writes (single spaces, canonical
/// numbers, the kind's own description, attributes in render order,
/// nothing after the last one). `None` means "not canonical", not "not
/// an event": the line may still parse through [`parse_line_fields`],
/// which returns the same event for every line this accepts.
pub fn parse_line_fast(line: &str) -> Option<ConsoleEvent> {
    let mut c = Cursor::new(line);
    c.tag("[")?;
    let year = c.fixed(4)?;
    c.tag("-")?;
    let month = c.fixed(2)?;
    c.tag("-")?;
    let day = c.fixed(2)?;
    c.tag(" ")?;
    let hour = c.fixed(2)?;
    c.tag(":")?;
    let minute = c.fixed(2)?;
    c.tag(":")?;
    let second = c.fixed(2)?;
    let time = StudyCalendar.sim_time(CalendarTime {
        year: u16::try_from(year).ok()?,
        month: u8::try_from(month).ok()?,
        day: u8::try_from(day).ok()?,
        hour: u8::try_from(hour).ok()?,
        minute: u8::try_from(minute).ok()?,
        second: u8::try_from(second).ok()?,
    })?;
    c.tag("] c")?;
    let col = c.uint()?;
    c.tag("-")?;
    let row = c.uint()?;
    c.tag("c")?;
    let cage = c.uint()?;
    c.tag("s")?;
    let blade = c.uint()?;
    c.tag("n")?;
    let slot = c.uint()?;
    let loc = Location {
        row: u8::try_from(row).ok()?,
        col: u8::try_from(col).ok()?,
        cage: u8::try_from(cage).ok()?,
        blade: u8::try_from(blade).ok()?,
        node: u8::try_from(slot).ok()?,
    };
    if !loc.is_valid() {
        return None;
    }
    let kind = if c.eat(" GPU Xid ") {
        let kind = GpuErrorKind::from_xid(Xid(u8::try_from(c.uint()?).ok()?))?;
        c.tag(": ")?;
        c.tag(kind.description())?;
        kind
    } else {
        c.tag(" ")?;
        c.tag(OFF_THE_BUS)?;
        GpuErrorKind::OffTheBus
    };
    let structure = if c.eat(" struct=\"") {
        let st = MemoryStructure::from_label(c.until(b'"')?)?;
        c.tag("\"")?;
        Some(st)
    } else {
        None
    };
    let page = if c.eat(" page=0x") { Some(c.hex8()?) } else { None };
    let apid = if c.eat(" apid=") { Some(c.uint()?) } else { None };
    if !c.is_empty() {
        return None;
    }
    Some(ConsoleEvent {
        time,
        node: loc.node_id(),
        kind,
        structure,
        page,
        apid,
    })
}

/// The field-map parser behind [`parse_line`]: tolerates trailing
/// whitespace, any number formatting `str::parse` takes, attributes in
/// any order and unknown ones. It is the fallback for non-canonical
/// lines and the oracle [`parse_line_fast`] is tested against.
pub fn parse_line_fields(line: &str) -> Option<ConsoleEvent> {
    let cal = StudyCalendar;
    let line = line.trim_end();
    // "[" ts "]" — fixed-width timestamp.
    let rest = line.strip_prefix('[')?;
    // Checked slicing: arbitrary console chatter may contain multi-byte
    // UTF-8 right where the timestamp should be.
    let ts = rest.get(..19)?;
    let time = cal.parse_timestamp(ts)?;
    let rest = rest.get(19..)?;
    let rest = rest.strip_prefix("] ")?;
    // cname up to next space.
    let sp = rest.find(' ')?;
    let (cname, rest) = rest.split_at(sp);
    let node = Location::parse_cname(cname).ok()?.node_id();
    let rest = rest.get(1..)?;

    // Event body.
    let (kind, after): (GpuErrorKind, &str) = if let Some(r) = rest.strip_prefix("GPU Xid ") {
        let colon = r.find(':')?;
        let xid: u8 = r.get(..colon)?.parse().ok()?;
        let kind = GpuErrorKind::from_xid(Xid(xid))?;
        // Skip ": <description>" through to the attribute section.
        let body = r.get(colon + 1..)?;
        (kind, attr_tail(body))
    } else if let Some(r) = rest.strip_prefix(OFF_THE_BUS) {
        (GpuErrorKind::OffTheBus, r)
    } else {
        return None;
    };

    let mut structure = None;
    let mut page = None;
    let mut apid = None;
    for (key, value) in attrs(after) {
        match key {
            "struct" => structure = MemoryStructure::from_label(value),
            "page" => {
                let hex = value.strip_prefix("0x")?;
                page = Some(u32::from_str_radix(hex, 16).ok()?);
            }
            "apid" => apid = Some(value.parse().ok()?),
            _ => {}
        }
    }

    Some(ConsoleEvent {
        time,
        node,
        kind,
        structure,
        page,
        apid,
    })
}

/// Finds the start of the `key=value` attribute section: the earliest
/// ` key=` occurrence after the free-text description, whichever key it
/// is.
fn attr_tail(body: &str) -> &str {
    [" struct=", " page=", " apid="]
        .into_iter()
        .filter_map(|key| body.find(key))
        .min()
        .and_then(|i| body.get(i..))
        .unwrap_or("")
}

/// Iterates `key=value` pairs; values may be double-quoted to contain
/// spaces.
fn attrs(mut s: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    loop {
        s = s.trim_start();
        let Some(eq) = s.find('=') else { break };
        let key = &s[..eq];
        let rest = &s[eq + 1..];
        let (value, next) = if let Some(r) = rest.strip_prefix('"') {
            match r.find('"') {
                Some(q) => (&r[..q], &r[q + 1..]),
                None => break,
            }
        } else {
            match rest.find(' ') {
                Some(sp) => (&rest[..sp], &rest[sp..]),
                None => (rest, ""),
            }
        };
        out.push((key, value));
        s = next;
    }
    out
}

/// Parses a whole log stream, collecting events and counting skips.
pub fn parse_stream(text: &str) -> (Vec<ConsoleEvent>, ParseStats) {
    let mut events = Vec::new();
    let mut stats = ParseStats::default();
    parse_into(text, &mut events, &mut stats);
    (events, stats)
}

/// Parses every line of `text`, appending events to `events` and
/// adding to `stats`; blank lines are ignored. Feeding a log to this in
/// newline-terminated pieces gives what [`parse_stream`] gives for the
/// whole log.
pub fn parse_into(text: &str, events: &mut Vec<ConsoleEvent>, stats: &mut ParseStats) {
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Some(ev) => {
                events.push(ev);
                stats.parsed += 1;
            }
            None => stats.skipped += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_topology::NodeId;

    fn sample(kind: GpuErrorKind) -> ConsoleEvent {
        ConsoleEvent {
            time: 8_982_161,
            node: NodeId(10_000),
            kind,
            structure: Some(MemoryStructure::DeviceMemory),
            page: Some(0x1a2b3),
            apid: Some(1_048_576),
        }
    }

    #[test]
    fn rendered_len_matches_render_line() {
        // The prof ledger relies on the arithmetic mirror being exact;
        // sweep every kind × attribute combination × awkward numbers.
        for kind in GpuErrorKind::ALL {
            for st in [None, Some(MemoryStructure::DeviceMemory), Some(MemoryStructure::SharedL1)] {
                for pg in [None, Some(0u32), Some(0x1a2b3), Some(u32::MAX)] {
                    for ap in [None, Some(0u64), Some(9), Some(10), Some(99), Some(100), Some(u64::MAX)] {
                        for node in [0u32, 1, 3, 10_000, 17_000] {
                            let ev = ConsoleEvent {
                                time: 8_982_161,
                                node: NodeId(node),
                                kind,
                                structure: st,
                                page: pg,
                                apid: ap,
                            };
                            let line = render_line(&ev);
                            assert_eq!(rendered_len(&ev), line.len(), "{line}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn render_dbe_line_shape() {
        let line = render_line(&sample(GpuErrorKind::DoubleBitError));
        assert!(line.starts_with('['), "{line}");
        assert!(line.contains("GPU Xid 48:"), "{line}");
        assert!(line.contains("struct=\"Device Memory\""), "{line}");
        assert!(line.contains("page=0x0001a2b3"), "{line}");
        assert!(line.contains("apid=1048576"), "{line}");
    }

    #[test]
    fn roundtrip_all_xid_kinds() {
        for kind in GpuErrorKind::ALL {
            if kind == GpuErrorKind::SingleBitError {
                continue; // never logged to console
            }
            let ev = ConsoleEvent {
                structure: if kind == GpuErrorKind::DoubleBitError {
                    Some(MemoryStructure::RegisterFile)
                } else {
                    None
                },
                page: None,
                ..sample(kind)
            };
            let line = render_line(&ev);
            let back = parse_line(&line).unwrap_or_else(|| panic!("parse {line}"));
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn roundtrip_optional_fields() {
        for (st, pg, ap) in [
            (None, None, None),
            (Some(MemoryStructure::L2Cache), None, None),
            (None, Some(7u32), None),
            (None, None, Some(9u64)),
            (Some(MemoryStructure::DeviceMemory), Some(0xffff_ffff), Some(u64::MAX)),
        ] {
            let ev = ConsoleEvent {
                structure: st,
                page: pg,
                apid: ap,
                ..sample(GpuErrorKind::DoubleBitError)
            };
            assert_eq!(parse_line(&render_line(&ev)), Some(ev));
        }
    }

    #[test]
    fn off_the_bus_roundtrip() {
        let ev = ConsoleEvent {
            structure: None,
            page: None,
            ..sample(GpuErrorKind::OffTheBus)
        };
        let line = render_line(&ev);
        assert!(line.contains("fallen off the bus"), "{line}");
        assert!(!line.contains("Xid"), "{line}");
        assert_eq!(parse_line(&line), Some(ev));
    }

    #[test]
    fn parser_skips_chatter() {
        let text = "\
[2013-06-01 00:00:10] c0-0c1s2n3 GPU Xid 13: Graphics Engine Exception apid=5
random kernel chatter
[2013-06-01 00:00:11] c0-0c1s2n3 LNet: some lustre noise
[bogus timestamp] c0-0c1s2n3 GPU Xid 13: x

[2013-06-01 00:00:12] c0-0c1s2n3 GPU Xid 43: GPU stopped processing apid=5
";
        let (events, stats) = parse_stream(text);
        assert_eq!(events.len(), 2);
        assert_eq!(stats.parsed, 2);
        assert_eq!(stats.skipped, 3);
        assert_eq!(events[0].kind, GpuErrorKind::GraphicsEngineException);
        assert_eq!(events[1].kind, GpuErrorKind::GpuStoppedProcessing);
    }

    #[test]
    fn parser_rejects_unknown_xid() {
        let line = "[2013-06-01 00:00:10] c0-0c1s2n3 GPU Xid 99: Mystery error";
        assert_eq!(parse_line(line), None);
    }

    #[test]
    fn parser_rejects_bad_cname() {
        let line = "[2013-06-01 00:00:10] c9-0c1s2n3 GPU Xid 13: Graphics Engine Exception";
        assert_eq!(parse_line(line), None);
    }

    #[test]
    fn attributes_are_found_whichever_key_comes_first() {
        // The attribute section starts at the earliest key, not at the
        // first key of a fixed list that occurs anywhere in the line.
        let pf = "[2013-06-01 00:00:10] c0-0c1s2n3 GPU Xid 31: GPU memory page fault \
                  apid=5 page=0x00000001";
        let ev = parse_line(pf).unwrap();
        assert_eq!((ev.apid, ev.page), (Some(5), Some(1)));
        let dbe = "[2013-06-01 00:00:10] c0-0c1s2n3 GPU Xid 48: Double Bit Error \
                   page=0x00000001 struct=\"Device Memory\"";
        let ev = parse_line(dbe).unwrap();
        assert_eq!(ev.page, Some(1));
        assert_eq!(ev.structure, Some(MemoryStructure::DeviceMemory));
        // Neither is canonical: both took the field-map parser.
        assert_eq!(parse_line_fast(pf), None);
        assert_eq!(parse_line_fast(dbe), None);
    }

    #[test]
    fn descriptions_and_labels_hold_no_attribute_syntax() {
        // The field-map parser finds the attribute section by its keys;
        // a description or label carrying `=` or `"` could fake one.
        for kind in GpuErrorKind::ALL {
            let d = kind.description();
            assert!(!d.contains('=') && !d.contains('"'), "{d}");
        }
        for st in MemoryStructure::ALL {
            let l = st.label();
            assert!(!l.contains('=') && !l.contains('"'), "{l}");
        }
    }

    #[test]
    fn description_containing_attr_like_text_is_safe() {
        // The attr scanner must find the *first* attribute key, not text
        // inside the description.
        let ev = ConsoleEvent {
            structure: Some(MemoryStructure::SharedL1),
            page: None,
            apid: Some(3),
            ..sample(GpuErrorKind::PreemptiveCleanup)
        };
        assert_eq!(parse_line(&render_line(&ev)), Some(ev));
    }
}
