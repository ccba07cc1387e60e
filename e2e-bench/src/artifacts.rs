//! The `figures` example's artifact writers: every table and figure
//! rendered through `titan_reliability::render` into a directory, plus
//! the raw figure JSON and the expectation registry.

use std::fs;
use std::io;
use std::path::Path;

use titan_reliability::expectations::render_markdown;
use titan_reliability::render::{grid_csv, monthly_csv, series_csv, Render};
use titan_reliability::{Expectation, Figures};

/// Writes every artifact under `out`; returns `(files, bytes)` written.
pub fn write_all(out: &Path, f: &Figures, exps: &[Expectation]) -> io::Result<(u64, u64)> {
    fs::create_dir_all(out)?;
    let mut files = 0u64;
    let mut bytes = 0u64;
    let mut write = |name: &str, content: String| -> io::Result<()> {
        fs::write(out.join(name), &content)?;
        files += 1;
        bytes += content.len() as u64;
        Ok(())
    };

    write("fig02_dbe_monthly.txt", f.fig02_dbe_monthly.render())?;
    write("fig02_dbe_monthly.csv", monthly_csv(&f.fig02_dbe_monthly))?;
    write("fig04_otb_monthly.txt", f.fig04_otb_monthly.render())?;
    write("fig04_otb_monthly.csv", monthly_csv(&f.fig04_otb_monthly))?;
    write("fig06_retire_monthly.txt", f.fig06_retire_monthly.render())?;
    write(
        "fig06_retire_monthly.csv",
        monthly_csv(&f.fig06_retire_monthly),
    )?;
    for s in &f.fig09_xid_monthly {
        let xid = s.kind.xid().map(|x| x.0).unwrap_or(0);
        write(&format!("fig09_xid{xid:02}_monthly.txt"), s.render())?;
        write(&format!("fig09_xid{xid:02}_monthly.csv"), monthly_csv(s))?;
    }
    write("fig10_xid13_monthly.txt", f.fig10_xid13_monthly.render())?;
    write(
        "fig10_xid13_monthly.csv",
        monthly_csv(&f.fig10_xid13_monthly),
    )?;
    for s in &f.fig11_uchalt_monthly {
        let xid = s.kind.xid().map(|x| x.0).unwrap_or(0);
        write(&format!("fig11_xid{xid}_monthly.txt"), s.render())?;
    }

    write("fig03a_dbe_grid.txt", f.fig03_dbe_grid.render())?;
    write("fig03a_dbe_grid.csv", grid_csv(&f.fig03_dbe_grid))?;
    let (all, distinct) = &f.fig03_dbe_cage;
    write(
        "fig03b_dbe_cage.txt",
        format!(
            "All DBEs:\n{}\nDistinct cards:\n{}",
            all.render(),
            distinct.render()
        ),
    )?;
    write("fig05_otb_grid.txt", f.fig05_otb_grid.render())?;
    write("fig07_retire_grid.txt", f.fig07_retire_grid.render())?;
    let sp = &f.fig12_xid13_spatial;
    write(
        "fig12_xid13_spatial.txt",
        format!(
            "UNFILTERED (top):\n{}\n5s-FILTERED (middle):\n{}\nCHILDREN <5s (bottom):\n{}",
            sp.unfiltered.render(),
            sp.filtered.render(),
            sp.children.render()
        ),
    )?;

    let d = &f.fig08_delays;
    write(
        "fig08_retire_after_dbe.txt",
        format!(
            "retirement delay after DBE:\n  <=10min   : {}\n  10min-6h  : {}\n  later     : {}\n  no preceding DBE (pure 2-SBE): {}\n  DBE pairs without retirement : {}\n  raw delays (s): {:?}\n",
            d.within_10min, d.min10_to_6h, d.later, d.no_preceding_dbe,
            d.dbe_pairs_without_retirement, d.delays
        ),
    )?;

    write("fig13_heatmap_top.txt", f.fig13_heatmap.render())?;
    write(
        "fig13_heatmap_bottom.txt",
        f.fig13_heatmap.without_diagonal().render(),
    )?;

    for level in &f.fig14_15_offenders.levels {
        write(
            &format!("fig14_sbe_grid_top{}_removed.txt", level.removed),
            level.grid.render(),
        )?;
        write(
            &format!("fig15_sbe_cage_top{}_removed.txt", level.removed),
            format!(
                "SBE totals by cage:\n{}\nDistinct cards by cage:\n{}",
                level.cage_totals.render(),
                level.cage_distinct.render()
            ),
        )?;
    }

    for (panel, name) in f.fig16_19_correlation.all_jobs.iter().zip([
        "fig16_maxmem",
        "fig17_totalmem",
        "fig18_nodes",
        "fig19_corehours",
    ]) {
        write(
            &format!("{name}.csv"),
            series_csv(&panel.metric_norm, &panel.sbe_norm),
        )?;
        write(
            &format!("{name}.txt"),
            format!(
                "{} vs SBE  Spearman {:?}  Pearson {:?}\n",
                panel.metric.label(),
                panel.spearman.map(|r| (r.r, r.p_value)),
                panel.pearson.map(|r| (r.r, r.p_value)),
            ),
        )?;
    }

    let u = &f.fig20_user;
    write(
        "fig20_user.txt",
        format!(
            "user-level Spearman: all {:?}, excluding top-10 offenders {:?}\nusers: {}\n",
            u.spearman_all.map(|r| r.r),
            u.spearman_excluding_top10.map(|r| r.r),
            u.rows.len()
        ),
    )?;
    let mut users = String::from("user,core_hours,sbe,jobs\n");
    for r in &u.rows {
        users.push_str(&format!(
            "{},{},{},{}\n",
            r.user, r.core_hours, r.sbe, r.jobs
        ));
    }
    write("fig20_user.csv", users)?;

    let w = &f.fig21_workload;
    write(
        "fig21_workload.txt",
        format!(
            "jobs {}\nSpearman(core-hours, nodes) {:?}\nmem-heavy core-hour ratio {:.3}\nmem-heavy node ratio {:.3}\nlongest-jobs-small fraction {:.3}\n",
            w.n_jobs,
            w.corehours_nodes_spearman,
            w.memheavy_corehours_ratio,
            w.memheavy_nodes_ratio,
            w.longest_jobs_small_fraction
        ),
    )?;

    let json = serde_json::to_string_pretty(f)
        .map_err(|e| io::Error::other(format!("figures serialize: {e:?}")))?;
    write("figures.json", json)?;
    write("expectations.md", render_markdown(exps))?;
    Ok((files, bytes))
}
