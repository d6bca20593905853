//! Shared formatting helpers for the figure/table regeneration binaries
//! (`crates/bench/src/bin/*`). Each binary reproduces one table or figure
//! of the paper and prints the same rows/series the paper reports; see
//! `DESIGN.md` §2 for the experiment index and `EXPERIMENTS.md` for
//! paper-versus-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

pub use report::BenchReport;

/// Prints a figure/table banner.
pub fn banner(title: &str, caption: &str) {
    println!("\n=== {title} ===");
    println!("{caption}\n");
}

/// Prints a header row followed by an underline.
pub fn header(cols: &[&str], widths: &[usize]) {
    let line: Vec<String> = cols
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect();
    let text = line.join("  ");
    println!("{text}");
    println!("{}", "-".repeat(text.len()));
}

/// Formats one row of right-aligned cells.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect();
    println!("{}", line.join("  "));
}

/// Renders a unit-interval value as a crude inline bar for trend scanning.
#[must_use]
pub fn bar(value: f64, width: usize) -> String {
    let filled = (value.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_clamps_and_scales() {
        assert_eq!(bar(0.0, 10), "..........");
        assert_eq!(bar(1.0, 10), "##########");
        assert_eq!(bar(0.5, 10), "#####.....");
        assert_eq!(bar(7.0, 4), "####");
    }
}
