//! Node identity and physical coordinates, including Cray cname parsing.
//!
//! Cray names locations `cX-Yc C s S n N`: cabinet at column `X`, row `Y`,
//! cage `C` (0 = bottom, 2 = top), slot/blade `S`, node-within-blade `N`.
//! Titan console-log lines key events by cname, so the round trip
//! `Location -> cname -> Location` has to be exact — the log parser relies
//! on it.

use serde::{Deserialize, Serialize};

use crate::{
    BLADES_PER_CAGE, CAGES_PER_CABINET, COLS, NODES_PER_BLADE, NODES_PER_CABINET, NODES_PER_CAGE,
    ROWS, TOTAL_SLOTS,
};

/// Flat slot index in `0..TOTAL_SLOTS` (19,200), ordered row-major by
/// cabinet, then cage, blade, node-within-blade.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Decodes the physical coordinates of this slot.
    pub fn location(self) -> Location {
        let id = self.0 as usize;
        debug_assert!(id < TOTAL_SLOTS);
        let cab = id / NODES_PER_CABINET;
        let within = id % NODES_PER_CABINET;
        Location {
            row: (cab / COLS) as u8,
            col: (cab % COLS) as u8,
            cage: (within / NODES_PER_CAGE) as u8,
            blade: ((within % NODES_PER_CAGE) / NODES_PER_BLADE) as u8,
            node: (within % NODES_PER_BLADE) as u8,
        }
    }

}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.location().cname())
    }
}

/// Physical coordinates of one node slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Cabinet row, `0..25`.
    pub row: u8,
    /// Cabinet column, `0..8`.
    pub col: u8,
    /// Cage within the cabinet, `0..3`; 0 is the bottom (coolest) cage.
    pub cage: u8,
    /// Blade (slot) within the cage, `0..8`.
    pub blade: u8,
    /// Node within the blade, `0..4`.
    pub node: u8,
}

impl Location {
    /// Re-encodes into the flat slot index. Inverse of [`NodeId::location`].
    pub fn node_id(&self) -> NodeId {
        debug_assert!(self.is_valid());
        let cab = self.row as usize * COLS + self.col as usize;
        let within = self.cage as usize * NODES_PER_CAGE
            + self.blade as usize * NODES_PER_BLADE
            + self.node as usize;
        NodeId((cab * NODES_PER_CABINET + within) as u32)
    }

    /// Row-major cabinet index in `0..200`.
    pub fn cabinet_index(&self) -> usize {
        self.row as usize * COLS + self.col as usize
    }

    /// Whether every coordinate is within the machine's bounds.
    pub fn is_valid(&self) -> bool {
        (self.row as usize) < ROWS
            && (self.col as usize) < COLS
            && (self.cage as usize) < CAGES_PER_CABINET
            && (self.blade as usize) < BLADES_PER_CAGE
            && (self.node as usize) < NODES_PER_BLADE
    }

    /// Cray cname, e.g. `c3-17c2s5n1` (column 3, row 17, cage 2, slot 5,
    /// node 1).
    pub fn cname(&self) -> String {
        format!(
            "c{}-{}c{}s{}n{}",
            self.col, self.row, self.cage, self.blade, self.node
        )
    }

    /// Parses a cname produced by [`Location::cname`]. Tolerates
    /// surrounding whitespace, nothing else — console-log fields are
    /// machine-generated.
    pub fn parse_cname(s: &str) -> Result<Location, ParseCnameError> {
        let s = s.trim();
        let bad = || ParseCnameError {
            input: s.to_string(),
        };
        let rest = s.strip_prefix('c').ok_or_else(bad)?;
        let (col, rest) = take_number(rest).ok_or_else(bad)?;
        let rest = rest.strip_prefix('-').ok_or_else(bad)?;
        let (row, rest) = take_number(rest).ok_or_else(bad)?;
        let rest = rest.strip_prefix('c').ok_or_else(bad)?;
        let (cage, rest) = take_number(rest).ok_or_else(bad)?;
        let rest = rest.strip_prefix('s').ok_or_else(bad)?;
        let (blade, rest) = take_number(rest).ok_or_else(bad)?;
        let rest = rest.strip_prefix('n').ok_or_else(bad)?;
        let (node, rest) = take_number(rest).ok_or_else(bad)?;
        if !rest.is_empty() {
            return Err(bad());
        }
        let loc = Location {
            row: row as u8,
            col: col as u8,
            cage: cage as u8,
            blade: blade as u8,
            node: node as u8,
        };
        if row > u8::MAX as u32 || col > u8::MAX as u32 || !loc.is_valid() {
            return Err(bad());
        }
        Ok(loc)
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "c{}-{}c{}s{}n{}",
            self.col, self.row, self.cage, self.blade, self.node
        )
    }
}

/// Error parsing a Cray cname.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCnameError {
    /// The offending input.
    pub input: String,
}

impl std::fmt::Display for ParseCnameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid cname: {:?}", self.input)
    }
}

impl std::error::Error for ParseCnameError {}

/// Splits a leading decimal number (at most 3 digits) off `s`.
fn take_number(s: &str) -> Option<(u32, &str)> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    if end == 0 || end > 3 {
        return None;
    }
    let (digits, rest) = s.split_at(end);
    digits.parse().ok().map(|n| (n, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TOTAL_SLOTS;

    #[test]
    fn id_location_roundtrip_exhaustive() {
        for i in 0..TOTAL_SLOTS as u32 {
            let n = NodeId(i);
            let loc = n.location();
            assert!(loc.is_valid());
            assert_eq!(loc.node_id(), n);
        }
    }

    #[test]
    fn cname_format() {
        let loc = Location {
            row: 17,
            col: 3,
            cage: 2,
            blade: 5,
            node: 1,
        };
        assert_eq!(loc.cname(), "c3-17c2s5n1");
        assert_eq!(format!("{loc}"), "c3-17c2s5n1");
    }

    #[test]
    fn cname_roundtrip_exhaustive() {
        for i in (0..TOTAL_SLOTS as u32).step_by(7) {
            let loc = NodeId(i).location();
            assert_eq!(Location::parse_cname(&loc.cname()).unwrap(), loc);
        }
    }

    #[test]
    fn cname_rejects_garbage() {
        for s in [
            "",
            "c3-17c2s5",
            "c3-17c2s5n1x",
            "x3-17c2s5n1",
            "c-17c2s5n1",
            "c3-17c9s5n1", // cage out of range
            "c8-17c2s5n1", // col out of range
            "c3-25c2s5n1", // row out of range
            "c3-17c2s8n1", // blade out of range
            "c3-17c2s5n4", // node out of range
            "c3--17c2s5n1",
            "c3-17c2s5n1 extra",
        ] {
            assert!(Location::parse_cname(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn cname_tolerates_whitespace() {
        assert!(Location::parse_cname("  c0-0c0s0n0 ").is_ok());
    }

    #[test]
    fn slot_order_is_cage_major_within_cabinet() {
        // First 32 slots of cabinet 0 are cage 0; next 32 cage 1; etc.
        assert_eq!(NodeId(0).location().cage, 0);
        assert_eq!(NodeId(31).location().cage, 0);
        assert_eq!(NodeId(32).location().cage, 1);
        assert_eq!(NodeId(64).location().cage, 2);
        assert_eq!(NodeId(95).location().cage, 2);
        assert_eq!(NodeId(96).location().cabinet_index(), 1);
    }
}
