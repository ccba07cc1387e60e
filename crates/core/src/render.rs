//! ASCII rendering of figures (terminal-friendly reproduction of the
//! paper's plots) plus CSV export helpers.

use std::fmt::Write as _;

use titan_analysis::cooccurrence::Heatmap;
use titan_analysis::timeseries::MonthlySeries;
use titan_gpu::GpuErrorKind;
use titan_topology::grid::CageTally;
use titan_topology::{CabinetGrid, COLS, ROWS};

/// ASCII rendering for figure data.
pub trait Render {
    /// Renders the figure as terminal text.
    fn render(&self) -> String;
}

/// Horizontal bar chart of a monthly series.
impl Render for MonthlySeries {
    fn render(&self) -> String {
        let mut out = String::new();
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        out.push_str(&format!(
            "Monthly frequency of {:?} (total {})\n",
            self.kind,
            self.total()
        ));
        for (label, &c) in self.labels.iter().zip(&self.counts) {
            let bar = "#".repeat((c * 48 / max) as usize);
            out.push_str(&format!("{label:>7} | {bar:<48} {c}\n"));
        }
        out
    }
}

/// Shade-character heatmap of the 25 × 8 cabinet grid, oriented like
/// Fig. 1 (rows of cabinets).
impl Render for CabinetGrid {
    fn render(&self) -> String {
        const SHADES: [char; 7] = [' ', '.', ':', '-', '=', '#', '@'];
        let max = self
            .cells()
            .iter()
            .cloned()
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let mut out = String::new();
        out.push_str("      col 0  1  2  3  4  5  6  7\n");
        for r in 0..ROWS {
            out.push_str(&format!("row {r:>2} |"));
            for c in 0..COLS {
                let v = self.get(r, c);
                let idx = ((v / max) * (SHADES.len() - 1) as f64).round() as usize;
                out.push_str(&format!(" {} ", SHADES[idx.min(SHADES.len() - 1)]));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "total {:.0}  spatial CV {:.2}  even-column bias {:.2}\n",
            self.total(),
            self.spatial_cv(),
            self.even_column_bias().unwrap_or(1.0)
        ));
        out
    }
}

/// Bar chart of per-cage tallies (bottom to top, as racked).
impl Render for CageTally {
    fn render(&self) -> String {
        let max = self.by_cage.iter().cloned().fold(0.0f64, f64::max).max(1.0);
        let names = ["cage 0 (bottom)", "cage 1 (middle)", "cage 2 (top)   "];
        let mut out = String::new();
        for (i, name) in names.iter().enumerate().rev() {
            let v = self.by_cage[i];
            let bar = "#".repeat(((v / max) * 40.0).round() as usize);
            out.push_str(&format!("{name} | {bar:<40} {v:.0}\n"));
        }
        out
    }
}

/// Numeric matrix with kind labels, like Fig. 13.
impl Render for Heatmap {
    fn render(&self) -> String {
        let label = |k: GpuErrorKind| -> String {
            match k.xid() {
                Some(x) => format!("{x:>3}"),
                None => "OTB".to_string(),
            }
        };
        let mut out = String::new();
        out.push_str("prev\\next ");
        for &k in &self.kinds {
            out.push_str(&format!("{} ", label(k)));
        }
        out.push('\n');
        for (i, &k) in self.kinds.iter().enumerate() {
            out.push_str(&format!("     {}  ", label(k)));
            for j in 0..self.kinds.len() {
                let f = self.fraction[i][j];
                if f == 0.0 {
                    out.push_str("  . ");
                } else {
                    out.push_str(&format!("{:>3.0} ", f * 100.0));
                }
            }
            out.push_str(&format!("  (n={})\n", self.totals[i]));
        }
        out.push_str("(values are percentages; '.' = zero)\n");
        out
    }
}

// The CSV writers format each row straight into the output; writing to
// a `String` cannot fail.

/// One CSV line per month: `month,count`.
pub fn monthly_csv(series: &MonthlySeries) -> String {
    let mut out = String::from("month,count\n");
    for (l, c) in series.labels.iter().zip(&series.counts) {
        let _ = writeln!(out, "{l},{c}");
    }
    out
}

/// CSV of a cabinet grid: `row,col,value`.
pub fn grid_csv(grid: &CabinetGrid) -> String {
    let mut out = String::from("row,col,value\n");
    for r in 0..ROWS {
        for c in 0..COLS {
            let _ = writeln!(out, "{r},{c},{}", grid.get(r, c));
        }
    }
    out
}

/// CSV of two aligned normalized series (the Figs. 16–19 panels):
/// `index,metric,sbe`.
pub fn series_csv(metric: &[f64], sbe: &[f64]) -> String {
    let mut out = String::with_capacity(16 + 48 * metric.len().min(sbe.len()));
    out.push_str("index,metric,sbe\n");
    for (i, (m, s)) in metric.iter().zip(sbe).enumerate() {
        let _ = writeln!(out, "{i},{m},{s}");
    }
    out
}

/// A plain two-column ASCII table.
pub fn table(title: &str, rows: &[(String, String)]) -> String {
    let w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0).max(8);
    let mut out = format!("{title}\n");
    for (k, v) in rows {
        out.push_str(&format!("  {k:<w$}  {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_conlog::time::StudyCalendar;
    use titan_gpu::GpuErrorKind;

    fn series() -> MonthlySeries {
        MonthlySeries {
            kind: GpuErrorKind::DoubleBitError,
            counts: (0..21).map(|i| (i % 7) as u64).collect(),
            labels: StudyCalendar.month_labels(),
        }
    }

    #[test]
    fn monthly_render_has_all_months() {
        let text = series().render();
        assert_eq!(text.lines().count(), 22); // title + 21 months
        assert!(text.contains("Jun'13"));
        assert!(text.contains("Feb'15"));
    }

    #[test]
    fn monthly_csv_shape() {
        let csv = monthly_csv(&series());
        assert_eq!(csv.lines().count(), 22);
        assert!(csv.starts_with("month,count\n"));
    }

    #[test]
    fn grid_render_dimensions() {
        let mut g = CabinetGrid::new();
        *g.get_mut(0, 0) = 5.0;
        let text = g.render();
        assert_eq!(text.lines().count(), 27); // header + 25 rows + footer
        let csv = grid_csv(&g);
        assert_eq!(csv.lines().count(), 201);
    }

    #[test]
    fn cage_render_order_top_first() {
        let t = CageTally {
            by_cage: [1.0, 2.0, 3.0],
        };
        let text = t.render();
        let first = text.lines().next().unwrap();
        assert!(first.contains("top"), "{first}");
    }

    #[test]
    fn heatmap_render_marks_zeros() {
        let h = titan_analysis::cooccurrence::cooccurrence_heatmap(&[]);
        let text = h.render();
        assert!(text.contains("  . "));
        assert!(text.contains("OTB"));
    }

    #[test]
    fn table_alignment() {
        let t = table(
            "Things",
            &[("a".into(), "1".into()), ("longer-key".into(), "2".into())],
        );
        assert!(t.contains("longer-key"));
        assert!(t.starts_with("Things\n"));
    }

    /// The CSV writers produce the bytes of the `format!`-per-row writers
    /// they replaced, across the float spellings `Display` has.
    #[test]
    fn csv_writers_match_a_format_per_row() {
        let floats = [
            0.0,
            -0.0,
            1.0,
            -3.0,
            1e21,
            0.1 + 0.2,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            123_456.789,
        ];
        let rev: Vec<f64> = floats.iter().rev().copied().collect();
        let mut want = String::from("index,metric,sbe\n");
        for (i, (m, s)) in floats.iter().zip(&rev).enumerate() {
            want.push_str(&format!("{i},{m},{s}\n"));
        }
        assert_eq!(series_csv(&floats, &rev), want);
        assert!(want.contains(",NaN,") && want.contains(",-0,") && want.contains("inf"));

        let mut g = CabinetGrid::new();
        for (i, &v) in floats.iter().enumerate() {
            *g.get_mut(i % ROWS, i % COLS) = v;
        }
        let mut want = String::from("row,col,value\n");
        for r in 0..ROWS {
            for c in 0..COLS {
                want.push_str(&format!("{r},{c},{}\n", g.get(r, c)));
            }
        }
        assert_eq!(grid_csv(&g), want);

        let s = series();
        let mut want = String::from("month,count\n");
        for (l, c) in s.labels.iter().zip(&s.counts) {
            want.push_str(&format!("{l},{c}\n"));
        }
        assert_eq!(monthly_csv(&s), want);
    }

    #[test]
    fn series_csv_pairs() {
        let csv = series_csv(&[1.0, 2.0], &[0.5, 0.7]);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("1,2,0.7"));
    }
}
