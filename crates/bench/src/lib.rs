//! Shared helpers for the figure/table regeneration benches.
//!
//! Every bench target prints a "paper vs measured" block; these helpers
//! keep the formatting uniform, fail the run on a verdict that misses
//! the paper, and decide the run scale (set `QIC_FULL=1` for
//! paper-scale runs where a reduced default exists).

pub mod hotpath;

/// Whether the full paper-scale configuration was requested.
pub fn full_scale() -> bool {
    std::env::var("QIC_FULL").map(|v| v == "1").unwrap_or(false)
}

/// Prints the standard bench header.
pub fn header(id: &str, title: &str, paper_claim: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper: {paper_claim}");
    println!("================================================================");
}

/// Prints one labelled series as aligned columns.
pub fn print_series(label: &str, points: &[(f64, f64)]) {
    println!("\n--- {label}");
    for (x, y) in points {
        if y.is_finite() {
            println!("  {x:>12.4}  {y:>14.6e}");
        } else {
            println!("  {x:>12.4}  {:>14}", "off-chart");
        }
    }
}

/// Prints the one-line identity of a `qic-sweep` campaign: its name,
/// axes and point count.
pub fn campaign_line(report: &qic_sweep::CampaignReport) {
    let axes = report
        .axes
        .iter()
        .map(|a| format!("{}[{}]", a.name(), a.len()))
        .collect::<Vec<_>>()
        .join(" × ");
    println!(
        "campaign: {} ({} = {} points, {} replicate(s), seed {})",
        report.name,
        axes,
        report.points.len(),
        report.replicates,
        report.seed
    );
}

/// Prints a one-line verdict comparing a measured value to the paper's.
/// A `CHECK` verdict (the ratio falls outside `tolerance_factor` either
/// way) ends the program with exit status 1, so a report target that
/// drifts from the paper fails its run.
pub fn verdict(what: &str, paper: f64, measured: f64, tolerance_factor: f64) {
    let ratio = if paper != 0.0 {
        measured / paper
    } else {
        f64::NAN
    };
    let ok = ratio.is_finite() && ratio >= 1.0 / tolerance_factor && ratio <= tolerance_factor;
    println!(
        "  {:<44} paper={:>12.4e} measured={:>12.4e} ratio={:>7.3} {}",
        what,
        paper,
        measured,
        ratio,
        if ok { "OK" } else { "CHECK" }
    );
    if !ok {
        eprintln!("paper verdict failed: {what}");
        std::process::exit(1);
    }
}
