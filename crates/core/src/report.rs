//! The consolidated study report: every figure rendered into one
//! operator-readable document, with the expectation registry appended.
//!
//! This is the artifact a site reliability team would circulate — the
//! textual equivalent of the paper's evaluation section.

use std::fmt::Write as _;

use titan_analysis::correlation::JobMetric;

use crate::expectations::evaluate_all;
use crate::render::{table, Render};
use crate::study::CompletedStudy;

/// Renders the full study report.
pub fn full_report(study: &CompletedStudy) -> String {
    let f = study.figures();
    let mut out = String::with_capacity(64 * 1024);

    let _ = writeln!(out, "# Titan GPU reliability study — simulated reproduction\n");
    let _ = writeln!(
        out,
        "window: {} days   seed: {:#x}   console events: {}   jobs: {}   parse skips: {}\n",
        study.config.sim.window / 86_400,
        study.config.sim.seed,
        study.data.console.len(),
        study.data.jobs.len(),
        study.data.console_parse.skipped,
    );

    // §3.1 hardware errors.
    let _ = writeln!(out, "## Hardware errors\n");
    let _ = writeln!(out, "{}", f.fig02_dbe_monthly.render());
    let _ = writeln!(
        out,
        "{}",
        table(
            "DBE summary (Observation 1 & 2)",
            &[
                (
                    "MTBF".into(),
                    format!("{:.0} h (paper ≈160 h)", f.fig02_mtbf_hours.unwrap_or(f64::NAN))
                ),
                (
                    "burstiness".into(),
                    format!("{:.2}", f.fig02_burstiness.unwrap_or(f64::NAN))
                ),
                (
                    "device-memory share".into(),
                    format!("{:.0}%", f.fig03_accounting.device_memory_fraction * 100.0)
                ),
                (
                    "console vs nvidia-smi".into(),
                    format!(
                        "{} vs {}",
                        f.fig03_accounting.console_dbe, f.fig03_accounting.nvsmi_dbe
                    )
                ),
                (
                    "cards with DBE>SBE".into(),
                    f.fig03_accounting.cards_dbe_exceeds_sbe.to_string()
                ),
            ]
        )
    );
    let _ = writeln!(out, "DBE cage distribution:\n{}", f.fig03_dbe_cage.0.render());
    let _ = writeln!(out, "{}", f.fig04_otb_monthly.render());
    let _ = writeln!(out, "{}", f.fig06_retire_monthly.render());
    let d = &f.fig08_delays;
    let _ = writeln!(
        out,
        "{}",
        table(
            "Retirement delay after DBE (Fig. 8)",
            &[
                ("<=10 min".into(), d.within_10min.to_string()),
                ("10 min - 6 h".into(), d.min10_to_6h.to_string()),
                ("later (two-SBE path)".into(), d.later.to_string()),
                (
                    "DBE pairs without retirement".into(),
                    d.dbe_pairs_without_retirement.to_string()
                ),
            ]
        )
    );
    let _ = writeln!(
        out,
        "{}",
        table(
            "Cage thermal survey (nvidia-smi)",
            &[
                (
                    "means bottom/mid/top".into(),
                    format!(
                        "{:.1} / {:.1} / {:.1} F",
                        f.thermal.mean_by_cage[0],
                        f.thermal.mean_by_cage[1],
                        f.thermal.mean_by_cage[2]
                    )
                ),
                (
                    "top-bottom delta".into(),
                    format!("{:.1} F (paper: >10 F)", f.thermal.top_bottom_delta_f)
                ),
            ]
        )
    );

    // §3.2 software errors.
    let _ = writeln!(out, "## Software / firmware errors\n");
    let _ = writeln!(out, "{}", f.fig10_xid13_monthly.render());
    let _ = writeln!(out, "Fig. 13 co-occurrence heatmap:\n{}", f.fig13_heatmap.render());
    let _ = writeln!(
        out,
        "Fig. 12 XID 13 spatial (5 s-filtered):\n{}",
        f.fig12_xid13_spatial.filtered.render()
    );

    // §3.3–§4 SBE analyses.
    let _ = writeln!(out, "## Single-bit errors\n");
    let o = &f.fig14_15_offenders;
    let _ = writeln!(
        out,
        "{}",
        table(
            "Offender structure (Observation 10)",
            &[
                (
                    "cards with SBEs".into(),
                    format!("{} ({:.1}%)", o.cards_with_sbe, o.affected_fraction * 100.0)
                ),
                ("top-10 share".into(), format!("{:.0}%", o.top10_share * 100.0)),
                ("top-50 share".into(), format!("{:.0}%", o.top50_share * 100.0)),
                ("gini".into(), format!("{:.2}", o.gini)),
                (
                    "spatial CV (0/10/50 removed)".into(),
                    format!(
                        "{:.2} / {:.2} / {:.2}",
                        o.levels[0].spatial_cv, o.levels[1].spatial_cv, o.levels[2].spatial_cv
                    )
                ),
            ]
        )
    );
    let mut corr_rows = Vec::new();
    for m in JobMetric::ALL {
        corr_rows.push((
            m.label().to_string(),
            format!(
                "{:.2} all / {:.2} excl. top-10",
                f.fig16_19_correlation.spearman_of(m, false).unwrap_or(f64::NAN),
                f.fig16_19_correlation.spearman_of(m, true).unwrap_or(f64::NAN)
            ),
        ));
    }
    corr_rows.push((
        "user-level core-hours".into(),
        format!(
            "{:.2}",
            f.fig20_user.spearman_all.map(|r| r.r).unwrap_or(f64::NAN)
        ),
    ));
    let _ = writeln!(out, "{}", table("Spearman vs per-job SBEs (Figs. 16–20)", &corr_rows));
    let _ = writeln!(
        out,
        "{}",
        table(
            "SBE by structure (Observation 11)",
            &f.sbe_by_structure
                .iter()
                .map(|(m, c)| (m.label().to_string(), c.to_string()))
                .collect::<Vec<_>>()
        )
    );

    // §4 granularity limitation.
    let g = &f.granularity;
    let _ = writeln!(
        out,
        "{}",
        table(
            "Attribution granularity (§4: no per-aprun SBE counts)",
            &[
                ("jobs with SBEs".into(), g.jobs_with_sbe.to_string()),
                (
                    "multi-aprun among them".into(),
                    g.multi_aprun_jobs_with_sbe.to_string()
                ),
                (
                    "SBE volume ambiguous below job level".into(),
                    format!("{:.0}%", g.ambiguous_fraction() * 100.0)
                ),
            ]
        )
    );

    // Registry.
    let _ = writeln!(out, "## Paper-shape checks\n");
    for e in evaluate_all(&f) {
        let _ = writeln!(out, "[{}] {:<6} {}", e.verdict, e.id, e.measured);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{Study, StudyConfig};

    #[test]
    fn report_renders_all_sections() {
        let study = Study::new(StudyConfig::quick(30, 3)).run();
        let r = full_report(&study);
        for needle in [
            "# Titan GPU reliability study",
            "## Hardware errors",
            "## Software / firmware errors",
            "## Single-bit errors",
            "## Paper-shape checks",
            "MTBF",
            "top-10 share",
            "Spearman vs per-job SBEs",
        ] {
            assert!(r.contains(needle), "missing {needle:?}");
        }
        // Registry lines present with verdicts.
        assert!(r.contains("[PASS]") || r.contains("[WEAK]") || r.contains("[FAIL]"));
    }
}
