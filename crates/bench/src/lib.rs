//! Shared helpers for the programs behind `scalefbp-bench <name>`. Each
//! program (one module beside `main.rs`) regenerates one table, figure or
//! `BENCH_*.json` of the evaluation; see `DESIGN.md` for the index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured values.

use scalefbp_geom::{CbctGeometry, DatasetPreset, ProjectionStack};
use scalefbp_phantom::{forward_project, uniform_ball};

pub use scalefbp::substrates::obs::JsonValue;

/// Declares structs that are also JSON objects — one key per field, in
/// declaration order — so the schema of a `BENCH_*.json` row is written
/// once, where the row is.
#[macro_export]
macro_rules! json_record {
    ($($(#[$meta:meta])* struct $name:ident {
        $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)?
    })*) => {$(
        $(#[$meta])*
        #[derive(Clone)]
        struct $name {
            $($(#[$fmeta])* $field: $ty),*
        }

        impl From<$name> for $crate::JsonValue {
            fn from(row: $name) -> Self {
                $crate::JsonValue::object([$((stringify!($field), row.$field.into())),*])
            }
        }
    )*};
}

/// Writes `doc` to `out_dir/file` through the one JSON pretty-printer,
/// creating `out_dir` if needed.
pub fn write_json(out_dir: &str, file: &str, doc: &JsonValue) {
    std::fs::create_dir_all(out_dir).expect("create out-dir");
    let path = format!("{out_dir}/{file}");
    std::fs::write(&path, doc.to_pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
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
