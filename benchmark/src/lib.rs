//! The repo's benchmark: one scan file on disk → one volume file on
//! disk, timed from outside the program on four workloads, plus a traced
//! pass that attributes the time to layers. See `README.md`.
//!
//! Everything here depends only on the CLI crate and on geom / phantom /
//! iosim (input generation, output checking). The substrate crates are
//! named by `src/bin/trace.rs` alone.

pub mod check;
pub mod child;
pub mod json;
pub mod metricsv1;
pub mod options;
pub mod report;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;
