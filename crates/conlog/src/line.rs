//! The byte-level pieces shared by the three log formats: the
//! [`LogLine`] writer trait, a digit writer that appends integers
//! without the `fmt` machinery, and a byte cursor that reads back
//! exactly the canonical form those writers produce.
//!
//! Each format has one writer (`write_line`) and two parsers: a
//! byte-cursor fast path that accepts only the canonical line, and the
//! field-map parser that accepts everything the format tolerates. The
//! fast path returns `None` for any line it does not take, and the
//! public parser then defers to the field-map one, which doubles as the
//! oracle the proptests hold the fast path to.

use std::fmt;

use titan_topology::Location;

use crate::time::CalendarTime;

/// A record with one log-line form. `write_line` appends the line (no
/// trailing newline) and is the single definition of that format: the
/// `Display` impl, the log renderers, the text round trip and the run
/// digest all write through it.
pub trait LogLine {
    /// Appends the record's log line to `out`, without a newline.
    fn write_line(&self, out: &mut String);
}

/// `Display` for a [`LogLine`] record: the line, through `write_line`.
pub(crate) fn display<T: LogLine>(rec: &T, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let mut s = String::new();
    rec.write_line(&mut s);
    f.write_str(&s)
}

/// Decimal digit count of `v` (1 for zero).
pub(crate) fn digits(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 10 {
        v /= 10;
        n += 1;
    }
    n
}

/// The ASCII digit of `v % 10`.
fn ascii_digit(v: u64) -> u8 {
    u8::try_from(v % 10).map_or(b'0', |d| b'0' + d)
}

/// Appends `v` in decimal, as `{}` writes it.
pub(crate) fn push_uint(out: &mut String, v: u64) {
    push_padded(out, v, 0);
}

/// Appends `v` in decimal, zero-padded to `width`, as `{:0width$}`
/// writes it.
pub(crate) fn push_padded(out: &mut String, mut v: u64, width: usize) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    for slot in buf.iter_mut().rev() {
        *slot = ascii_digit(v);
        start -= 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let text = buf.get(start..).unwrap_or_default();
    for _ in text.len()..width {
        out.push('0');
    }
    for &b in text {
        out.push(char::from(b));
    }
}

/// Appends `v` as exactly 8 lowercase hex digits, as `{:08x}` writes a
/// `u32`.
pub(crate) fn push_hex8(out: &mut String, v: u32) {
    for shift in (0..8).rev() {
        let nibble = (v >> (shift * 4)) & 0xf;
        out.push(char::from_digit(nibble, 16).unwrap_or('0'));
    }
}

/// Appends the log timestamp, `2013-06-01 12:34:56`.
pub(crate) fn push_timestamp(out: &mut String, c: &CalendarTime) {
    push_padded(out, u64::from(c.year), 4);
    out.push('-');
    push_padded(out, u64::from(c.month), 2);
    out.push('-');
    push_padded(out, u64::from(c.day), 2);
    out.push(' ');
    push_padded(out, u64::from(c.hour), 2);
    out.push(':');
    push_padded(out, u64::from(c.minute), 2);
    out.push(':');
    push_padded(out, u64::from(c.second), 2);
}

/// Appends the Cray cname, as [`Location::cname`] writes it.
pub(crate) fn push_cname(out: &mut String, loc: &Location) {
    out.push('c');
    push_uint(out, u64::from(loc.col));
    out.push('-');
    push_uint(out, u64::from(loc.row));
    out.push('c');
    push_uint(out, u64::from(loc.cage));
    out.push('s');
    push_uint(out, u64::from(loc.blade));
    out.push('n');
    push_uint(out, u64::from(loc.node));
}

/// A forward-only reader over one line's bytes for the canonical-form
/// fast paths. Every read either consumes exactly what the log writers
/// produce or returns `None`; after a `None` the position is
/// unspecified, and the caller abandons the line.
pub(crate) struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    /// A cursor at the start of `line`.
    pub(crate) fn new(line: &'a str) -> Self {
        Cursor(line.as_bytes())
    }

    /// Whether the whole line has been consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Consumes `tag` when the rest starts with it.
    pub(crate) fn tag(&mut self, tag: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(tag.as_bytes())?;
        Some(())
    }

    /// Consumes `tag` when the rest starts with it; reports whether it
    /// did.
    pub(crate) fn eat(&mut self, tag: &str) -> bool {
        self.tag(tag).is_some()
    }

    /// Consumes a canonical decimal: ASCII digits, no sign, no leading
    /// zero. `None` when absent, non-canonical or past `u64::MAX`.
    pub(crate) fn uint(&mut self) -> Option<u64> {
        let (&first, mut rest) = self.0.split_first()?;
        if !first.is_ascii_digit() {
            return None;
        }
        let mut v = u64::from(first - b'0');
        while let Some((&b, tail)) = rest.split_first() {
            if !b.is_ascii_digit() {
                break;
            }
            if v == 0 {
                return None; // leading zero
            }
            v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            rest = tail;
        }
        self.0 = rest;
        Some(v)
    }

    /// Consumes exactly `n` ASCII digits (leading zeros allowed, as in
    /// the fixed-width timestamp fields).
    pub(crate) fn fixed(&mut self, n: usize) -> Option<u64> {
        let (head, rest) = (self.0.get(..n)?, self.0.get(n..)?);
        let mut v = 0u64;
        for &b in head {
            if !b.is_ascii_digit() {
                return None;
            }
            v = v * 10 + u64::from(b - b'0');
        }
        self.0 = rest;
        Some(v)
    }

    /// Consumes exactly 8 lowercase hex digits.
    pub(crate) fn hex8(&mut self) -> Option<u32> {
        let (head, rest) = (self.0.get(..8)?, self.0.get(8..)?);
        let mut v = 0u32;
        for &b in head {
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                _ => return None,
            };
            v = (v << 4) | u32::from(d);
        }
        self.0 = rest;
        Some(v)
    }

    /// Consumes the bytes up to (not including) the first `stop` byte
    /// and returns them as text; `None` when no `stop` follows.
    pub(crate) fn until(&mut self, stop: u8) -> Option<&'a str> {
        let i = self.0.iter().position(|&b| b == stop)?;
        let (head, rest) = (self.0.get(..i)?, self.0.get(i..)?);
        self.0 = rest;
        std::str::from_utf8(head).ok()
    }

    /// Consumes the rest of a `{:.4}` float (digits with no leading
    /// zero, a dot, exactly four digits) and returns its text, which the
    /// caller parses with `str::parse` exactly as the fallback does.
    pub(crate) fn fixed4(&mut self) -> Option<&'a str> {
        let start = self.0;
        self.uint()?;
        self.tag(".")?;
        self.fixed(4)?;
        let used = start.len() - self.0.len();
        std::str::from_utf8(start.get(..used)?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_topology::{NodeId, TOTAL_SLOTS};

    #[test]
    fn digit_writers_match_format() {
        let samples = [
            0u64,
            1,
            9,
            10,
            99,
            100,
            12_345,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in samples {
            let mut s = String::new();
            push_uint(&mut s, v);
            assert_eq!(s, format!("{v}"));
            assert_eq!(digits(v), s.len());
            for width in [0, 1, 2, 4, 25] {
                let mut s = String::new();
                push_padded(&mut s, v, width);
                assert_eq!(s, format!("{v:0width$}"));
            }
        }
        for v in [0u32, 1, 0xa, 0x1a2b3, 0xdead_beef, u32::MAX] {
            let mut s = String::new();
            push_hex8(&mut s, v);
            assert_eq!(s, format!("{v:08x}"));
        }
    }

    #[test]
    fn cname_writer_matches_location_for_every_slot() {
        for i in 0..u32::try_from(TOTAL_SLOTS).unwrap() {
            let loc = NodeId(i).location();
            let mut s = String::new();
            push_cname(&mut s, &loc);
            assert_eq!(s, loc.cname());
        }
    }

    #[test]
    fn cursor_reads_only_canonical_numbers() {
        let uint = |s: &str| {
            let mut c = Cursor::new(s);
            c.uint().filter(|_| c.is_empty())
        };
        assert_eq!(uint("0"), Some(0));
        assert_eq!(uint("1048576"), Some(1_048_576));
        assert_eq!(uint("18446744073709551615"), Some(u64::MAX));
        for bad in [
            "",
            "+1",
            "-1",
            "01",
            "00",
            "18446744073709551616",
            "1a",
            " 1",
        ] {
            assert_eq!(uint(bad), None, "{bad:?}");
        }
        let hex = |s: &str| {
            let mut c = Cursor::new(s);
            c.hex8().filter(|_| c.is_empty())
        };
        assert_eq!(hex("0001a2b3"), Some(0x1a2b3));
        for bad in ["0001A2B3", "1a2b3", "+001a2b3", "0001a2b3f"] {
            assert_eq!(hex(bad), None, "{bad:?}");
        }
        fn float(s: &str) -> Option<&str> {
            let mut c = Cursor::new(s);
            c.fixed4().filter(|_| c.is_empty())
        }
        assert_eq!(float("12.5000"), Some("12.5000"));
        assert_eq!(float("0.0000"), Some("0.0000"));
        for bad in [
            "12.5", "012.5000", "-1.0000", "1e3", "NaN", "inf", "1.00000",
        ] {
            assert_eq!(float(bad), None, "{bad:?}");
        }
    }
}
