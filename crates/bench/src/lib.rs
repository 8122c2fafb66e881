//! Shared helpers for the table/figure harness binaries. Each binary
//! under `src/bin/` regenerates one table or figure of the paper's
//! evaluation section; see `DESIGN.md` for the index and `EXPERIMENTS.md`
//! for recorded paper-vs-measured values.

use scalefbp_geom::{CbctGeometry, DatasetPreset, ProjectionStack};
use scalefbp_phantom::{forward_project, uniform_ball};

/// Prints a row of right-aligned cells under a fixed width.
pub fn print_row(cells: &[String], width: usize) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>width$}")).collect();
    println!("{}", line.join(" "));
}

/// Formats seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.3}")
    }
}

/// Formats a byte count as GB/MB.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1}GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1}MB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1}KB", b as f64 / 1024.0)
    }
}

/// A laptop-scale measurement workload: a dataset preset scaled down with
/// a uniform-ball scan, used by the "measured (real compute)" sections of
/// the harnesses.
pub struct MeasuredWorkload {
    /// The scaled geometry.
    pub geom: CbctGeometry,
    /// Simulated projections.
    pub projections: ProjectionStack,
    /// The preset's paper name.
    pub name: &'static str,
}

impl MeasuredWorkload {
    /// Builds the workload for `preset_name` scaled down by `2^log2`.
    pub fn new(preset_name: &str, log2: u32) -> Self {
        let preset = DatasetPreset::by_name(preset_name)
            .unwrap_or_else(|| panic!("unknown preset {preset_name}"));
        let scaled = preset.scaled(log2);
        let geom = scaled.geometry;
        let projections = forward_project(&geom, &uniform_ball(&geom, 0.5, 1.0));
        MeasuredWorkload {
            geom,
            projections,
            name: scaled.name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(12.34), "12.3");
        assert_eq!(fmt_secs(0.1234), "0.123");
        assert_eq!(fmt_bytes(2 << 30), "2.0GB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MB");
        assert_eq!(fmt_bytes(2048), "2.0KB");
    }

    #[test]
    fn measured_workload_builds() {
        let w = MeasuredWorkload::new("tomo_00030", 4);
        assert_eq!(w.name, "tomo_00030");
        assert_eq!(w.projections.np(), w.geom.np);
    }
}
