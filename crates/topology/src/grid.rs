//! The 25 × 8 cabinet grid behind every spatial figure in the paper
//! (Figs. 3a, 5, 7, 12, 14).

use serde::{Deserialize, Serialize};

use crate::geometry::NodeId;
use crate::{CABINETS, COLS, ROWS};

/// A per-cabinet accumulator laid out as the machine-room floor:
/// `ROWS` rows × `COLS` columns of `f64` cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CabinetGrid {
    cells: Vec<f64>,
}

impl Default for CabinetGrid {
    fn default() -> Self {
        Self::new()
    }
}

impl CabinetGrid {
    /// An all-zero grid.
    pub fn new() -> Self {
        CabinetGrid {
            cells: vec![0.0; CABINETS],
        }
    }

    /// Adds `w` to the cabinet containing `node`.
    pub fn add_node(&mut self, node: NodeId, w: f64) {
        self.cells[node.location().cabinet_index()] += w;
    }

    /// Cell value at (row, col).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.cells[row * COLS + col]
    }

    /// Mutable cell at (row, col).
    pub fn get_mut(&mut self, row: usize, col: usize) -> &mut f64 {
        &mut self.cells[row * COLS + col]
    }

    /// Flat row-major view.
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    /// Sum of all cells.
    pub fn total(&self) -> f64 {
        self.cells.iter().sum()
    }

    /// Per-column sums — the "alternate cabinets" stripe signature of
    /// Fig. 12 shows up here as an even/odd column imbalance.
    pub fn column_sums(&self) -> [f64; COLS] {
        let mut out = [0.0; COLS];
        for r in 0..ROWS {
            for (c, o) in out.iter_mut().enumerate() {
                *o += self.get(r, c);
            }
        }
        out
    }

    /// Ratio of mass on even columns vs the even/odd mean; > 1 indicates
    /// the folded-torus striping. Returns `None` for an empty grid.
    pub fn even_column_bias(&self) -> Option<f64> {
        let sums = self.column_sums();
        let even: f64 = sums.iter().step_by(2).sum();
        let odd: f64 = sums.iter().skip(1).step_by(2).sum();
        let total = even + odd;
        if total == 0.0 {
            return None;
        }
        Some(even / (total / 2.0))
    }

    /// Alternating-column stripe contrast: |even-column mass − odd-column
    /// mass| / total. 0 for a column-balanced field; large when alternate
    /// cabinets carry more events (the Fig. 12 signature). `None` when
    /// the grid is empty.
    pub fn stripe_contrast(&self) -> Option<f64> {
        let sums = self.column_sums();
        let even: f64 = sums.iter().step_by(2).sum();
        let odd: f64 = sums.iter().skip(1).step_by(2).sum();
        let total = even + odd;
        if total == 0.0 {
            return None;
        }
        Some((even - odd).abs() / total)
    }

    /// Coefficient of variation across cells — the paper's "uneven spatial
    /// distribution" statements quantified. 0 for perfectly uniform.
    pub fn spatial_cv(&self) -> f64 {
        let n = self.cells.len() as f64;
        let mean = self.total() / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .cells
            .iter()
            .map(|&c| (c - mean) * (c - mean))
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }

    /// Merges another grid (parallel reduction).
    pub fn merge(&mut self, other: &CabinetGrid) {
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a += b;
        }
    }
}

/// Per-cage tallies within cabinets — the paper's cage-level bar charts
/// (Figs. 3b, 5, 7, 15). Index 0 = bottom cage, 2 = top (hottest).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CageTally {
    /// Totals by cage, bottom to top.
    pub by_cage: [f64; 3],
}

impl CageTally {
    /// Adds `w` for an event at `node`.
    pub fn add_node(&mut self, node: NodeId, w: f64) {
        self.by_cage[node.location().cage as usize] += w;
    }

    /// Total across cages.
    pub fn total(&self) -> f64 {
        self.by_cage.iter().sum()
    }

    /// True when the top cage strictly dominates the bottom cage — the
    /// temperature-sensitivity signature of Observations 1 and 4.
    pub fn top_heavy(&self) -> bool {
        self.by_cage[2] > self.by_cage[0]
    }

    /// Max/min cage ratio (∞ when a cage is empty); a rough uniformity
    /// check used for the distinct-SBE-card analysis of Fig. 15(b).
    pub fn imbalance(&self) -> f64 {
        let max = self.by_cage.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.by_cage.iter().cloned().fold(f64::MAX, f64::min);
        if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Location;

    #[test]
    fn empty_grid() {
        let g = CabinetGrid::new();
        assert_eq!(g.total(), 0.0);
        assert_eq!(g.even_column_bias(), None);
        assert_eq!(g.spatial_cv(), 0.0);
    }

    #[test]
    fn add_and_read_back() {
        let mut g = CabinetGrid::new();
        let loc = Location {
            row: 3,
            col: 5,
            cage: 1,
            blade: 2,
            node: 0,
        };
        g.add_node(loc.node_id(), 2.0);
        g.add_node(loc.node_id(), 1.0);
        assert_eq!(g.get(3, 5), 3.0);
        assert_eq!(g.total(), 3.0);
    }

    #[test]
    fn column_sums_and_bias() {
        let mut g = CabinetGrid::new();
        // All mass on even columns.
        for r in 0..ROWS {
            for c in [0usize, 2, 4, 6] {
                *g.get_mut(r, c) += 1.0;
            }
        }
        let bias = g.even_column_bias().unwrap();
        assert!((bias - 2.0).abs() < 1e-12, "bias {bias}");
        let sums = g.column_sums();
        assert_eq!(sums[0], 25.0);
        assert_eq!(sums[1], 0.0);
    }

    #[test]
    fn uniform_grid_has_zero_cv_and_unit_bias() {
        let mut g = CabinetGrid::new();
        for r in 0..ROWS {
            for c in 0..COLS {
                *g.get_mut(r, c) = 4.0;
            }
        }
        assert!(g.spatial_cv() < 1e-12);
        assert!((g.even_column_bias().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_cellwise() {
        let mut a = CabinetGrid::new();
        let mut b = CabinetGrid::new();
        *a.get_mut(0, 0) = 1.0;
        *b.get_mut(0, 0) = 2.0;
        *b.get_mut(24, 7) = 5.0;
        a.merge(&b);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(24, 7), 5.0);
    }

    #[test]
    fn cage_tally() {
        let mut t = CageTally::default();
        let top = Location {
            row: 0,
            col: 0,
            cage: 2,
            blade: 0,
            node: 0,
        };
        let bottom = Location {
            row: 0,
            col: 0,
            cage: 0,
            blade: 0,
            node: 0,
        };
        t.add_node(top.node_id(), 3.0);
        t.add_node(bottom.node_id(), 1.0);
        assert!(t.top_heavy());
        assert_eq!(t.total(), 4.0);
        assert!(t.imbalance().is_infinite()); // middle cage empty
        t.by_cage[1] = 1.0;
        assert_eq!(t.imbalance(), 3.0);
    }
}
