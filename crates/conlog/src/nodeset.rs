//! [`NodeSet`]: a job's node list at two bytes per id.
//!
//! Observations 12–13 ask two things of a job's allocation: how many
//! nodes, and whether the job touched a top-offender node. The full
//! window's jobs hold ~18.7M ids, once in the simulator's output and
//! once in the parsed job log, so the width of one id is most of the
//! study's resident memory. Every slot of the machine is below 2^16
//! ([`titan_topology::TOTAL_SLOTS`] is 19,200), so a list is kept as
//! `u16`s; only a list holding a larger id (a hand-edited log line can
//! name one) is kept at four bytes.

use std::collections::BTreeSet;
use std::fmt;

use serde::{DeError, Deserialize, Reader, Serialize, Value};
use titan_topology::NodeId;

/// A job's allocated nodes: exactly the ids it was built from, in that
/// order, repeats kept, so it stands in for the `Vec<NodeId>` it came
/// from (`Debug` and JSON print the same list).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct NodeSet(Ids);

/// The storage. Canonical: `Wide` only when some id does not fit a
/// `u16`, so the derived equality is equality of the id lists.
#[derive(Clone, PartialEq, Eq)]
enum Ids {
    Narrow(Box<[u16]>),
    Wide(Box<[u32]>),
}

impl Default for Ids {
    fn default() -> Self {
        Ids::Narrow(Box::default())
    }
}

impl NodeSet {
    /// The ids of ascending runs `a..=b` holding `total` ids together,
    /// allocated once at that length (the job-log parse reads the runs
    /// first).
    pub(crate) fn from_runs(runs: &[(u32, u32)], total: usize) -> NodeSet {
        // Runs ascend, so the last end is the largest id.
        if runs.last().map_or(true, |&(_, b)| u16::try_from(b).is_ok()) {
            let mut narrow = Vec::with_capacity(total);
            for &(a, b) in runs {
                if let (Ok(a), Ok(b)) = (u16::try_from(a), u16::try_from(b)) {
                    narrow.extend(a..=b);
                }
            }
            NodeSet(Ids::Narrow(narrow.into_boxed_slice()))
        } else {
            let mut wide = Vec::with_capacity(total);
            for &(a, b) in runs {
                wide.extend(a..=b);
            }
            NodeSet(Ids::Wide(wide.into_boxed_slice()))
        }
    }

    /// Number of ids (a repeated id counts each time).
    pub fn len(&self) -> usize {
        match &self.0 {
            Ids::Narrow(ids) => ids.len(),
            Ids::Wide(ids) => ids.len(),
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(match &self.0 {
            Ids::Narrow(ids) => IdsIter::Narrow(ids.iter()),
            Ids::Wide(ids) => IdsIter::Wide(ids.iter()),
        })
    }

    /// Whether any id is in `set` (Observation 12's "did the job run on
    /// a top offender").
    pub fn intersects(&self, set: &BTreeSet<NodeId>) -> bool {
        !set.is_empty() && self.iter().any(|n| set.contains(&n))
    }

    /// The ids as a `Vec`.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

/// The ids in order, as [`NodeSet::iter`] yields them.
#[derive(Debug, Clone)]
pub struct Iter<'a>(IdsIter<'a>);

#[derive(Debug, Clone)]
enum IdsIter<'a> {
    Narrow(std::slice::Iter<'a, u16>),
    Wide(std::slice::Iter<'a, u32>),
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match &mut self.0 {
            IdsIter::Narrow(it) => it.next().map(|&id| NodeId(u32::from(id))),
            IdsIter::Wide(it) => it.next().map(|&id| NodeId(id)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IdsIter::Narrow(it) => it.size_hint(),
            IdsIter::Wide(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut narrow: Vec<u16> = Vec::with_capacity(iter.size_hint().0);
        while let Some(n) = iter.next() {
            let Ok(id) = u16::try_from(n.0) else {
                // The first wide id: widen what was read and take the
                // rest at four bytes.
                let mut wide: Vec<u32> = Vec::with_capacity(narrow.len() + 1 + iter.size_hint().0);
                wide.extend(narrow.iter().map(|&id| u32::from(id)));
                wide.push(n.0);
                wide.extend(iter.map(|n| n.0));
                return NodeSet(Ids::Wide(wide.into_boxed_slice()));
            };
            narrow.push(id);
        }
        NodeSet(Ids::Narrow(narrow.into_boxed_slice()))
    }
}

impl From<Vec<NodeId>> for NodeSet {
    fn from(ids: Vec<NodeId>) -> Self {
        ids.into_iter().collect()
    }
}

/// The `Vec<NodeId>` form: `[NodeId(5), NodeId(6)]`.
impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The expanded id array, byte for byte what the `Vec<NodeId>` wrote.
impl Serialize for NodeSet {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|n| n.to_value()).collect())
    }

    fn write_json(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        out.write_str("[")?;
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                out.write_str(",")?;
            }
            n.write_json(out)?;
        }
        out.write_str("]")
    }
}

/// Reads what `Vec<NodeId>` reads, with the same errors.
impl Deserialize for NodeSet {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<NodeId>::from_value(v).map(NodeSet::from)
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.begin_array()?;
        std::iter::from_fn(|| match r.next_element() {
            Ok(true) => Some(NodeId::read_json(r)),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn keeps_order_repeats_and_wide_ids() {
        for case in [
            &[][..],
            &[7, 5, 6, 5, 9],
            &[19_199, 0, 65_535],
            &[3, 65_536, 1, u32::MAX, 3],
            &[70_000],
        ] {
            let v = ids(case);
            let s: NodeSet = v.iter().copied().collect();
            assert_eq!(s.len(), v.len());
            assert_eq!(s.to_vec(), v);
            assert_eq!(format!("{s:?}"), format!("{v:?}"));
            assert_eq!(serde_json::to_string(&s).unwrap(), serde_json::to_string(&v).unwrap());
            let back: NodeSet = serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
            assert_eq!(back, s);
        }
        assert!(matches!(NodeSet::from(ids(&[65_535])).0, Ids::Narrow(_)));
        assert!(matches!(NodeSet::from(ids(&[1, 65_536])).0, Ids::Wide(_)));
    }

    #[test]
    fn runs_expand_in_order() {
        let s = NodeSet::from_runs(&[(5, 7), (9, 9), (100, 101)], 6);
        assert_eq!(s.to_vec(), ids(&[5, 6, 7, 9, 100, 101]));
        assert_eq!(NodeSet::from_runs(&[], 0), NodeSet::default());
        let wide = NodeSet::from_runs(&[(65_534, 65_537)], 4);
        assert_eq!(wide, NodeSet::from(ids(&[65_534, 65_535, 65_536, 65_537])));
    }

    #[test]
    fn intersects_any_member() {
        let s = NodeSet::from(ids(&[4, 2, 70_000]));
        let set = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<BTreeSet<_>>();
        assert!(s.intersects(&set(&[2])));
        assert!(s.intersects(&set(&[70_000, 9])));
        assert!(!s.intersects(&set(&[3, 5])));
        assert!(!s.intersects(&set(&[])));
        assert!(!NodeSet::default().intersects(&set(&[1])));
    }

    #[test]
    fn reads_reject_what_the_vec_rejects() {
        for text in ["{}", "[1,", "[-1]", "[1.5]", "[4294967296]", "null"] {
            let vec = serde_json::from_str::<Vec<NodeId>>(text).map_err(|e| e.to_string());
            let set = serde_json::from_str::<NodeSet>(text).map_err(|e| e.to_string());
            assert_eq!(set.map(|s| s.to_vec()), vec, "{text}");
        }
    }
}
