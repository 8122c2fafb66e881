//! The four workloads: what each one feeds the program and which CLI
//! invocation is its operation. Sizes are fixed here and are the same on
//! every commit; `BENCHMARK.json` records why each workload exists.

use std::path::{Path, PathBuf};
use std::time::Instant;

use scalefbp_geom::{CbctGeometry, Volume};
use scalefbp_iosim::format::{encode_projections, geometry_to_text};
use scalefbp_phantom::{bead_pile, forward_project, rasterize};

use crate::child::{run_cli, ChildRun};
use crate::metricsv1::Snapshot;
use crate::options::fresh_dir;

/// The reconstruction drivers reachable through `reconstruct --mode`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Incore,
    Outofcore,
    Pipeline,
    Distributed,
}

impl Mode {
    pub const ALL: [Mode; 4] = [
        Mode::Incore,
        Mode::Outofcore,
        Mode::Pipeline,
        Mode::Distributed,
    ];

    /// The `--mode` value.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Incore => "incore",
            Mode::Outofcore => "outofcore",
            Mode::Pipeline => "pipeline",
            Mode::Distributed => "distributed",
        }
    }
}

/// Ranks of the distributed driver (`--nr 2 --ng 1`): one per core of
/// the 2-core box the workloads were sized on.
pub const DIST_RANKS: usize = 2;

/// Beads in the seeded phantom.
const BEADS: usize = 6;

/// One workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// The end-to-end operation: one reconstruction through this driver,
    /// or `None` for the serve job stream.
    pub mode: Option<Mode>,
    /// The scan. On `serve-burst` it is the serve path's own long-job
    /// geometry and only the traced pass reconstructs it.
    pub geom: CbctGeometry,
    /// `--device` of the out-of-core and pipelined drivers.
    pub device: &'static str,
    /// Lowest accepted Pearson correlation with the rasterised phantom.
    pub corr_floor: f64,
    /// Jobs in one serve stream: the operation on `serve-burst`, a short
    /// stand-in for the serve-layer numbers of the traced pass elsewhere.
    pub serve_jobs: usize,
}

/// The workloads, in the order they are run. `quick` quarters every
/// linear size; its numbers are not comparable with a full run's.
pub fn workloads(quick: bool) -> Vec<Workload> {
    let q = if quick { 4 } else { 1 };
    vec![
        Workload {
            name: "cube-incore",
            mode: Some(Mode::Incore),
            geom: CbctGeometry::ideal(128 / q, 192 / q, 192 / q, 192 / q),
            device: "v100",
            corr_floor: if quick { 0.80 } else { 0.95 },
            serve_jobs: 100 / q,
        },
        Workload {
            name: "wide-pipeline",
            mode: Some(Mode::Pipeline),
            geom: CbctGeometry::ideal(320 / q, 240 / q, 320 / q, 320 / q).with_volume(
                64 / q,
                64 / q,
                64 / q,
            ),
            // 8 batches over a 134-row ring at full size.
            device: if quick {
                "tiny:750000"
            } else {
                "tiny:48000000"
            },
            corr_floor: if quick { 0.50 } else { 0.80 },
            serve_jobs: 100 / q,
        },
        Workload {
            name: "sparse-dist",
            mode: Some(Mode::Distributed),
            geom: CbctGeometry::ideal(192 / q, 32 / q, 288 / q, 288 / q),
            device: "v100",
            corr_floor: if quick { 0.50 } else { 0.78 },
            serve_jobs: 100 / q,
        },
        Workload {
            name: "serve-burst",
            mode: None,
            // `scalefbp_serve::scan_geometry(16)`, the long serve job.
            geom: CbctGeometry::ideal(16, 24, 24, 24),
            // The serve command's default device.
            device: "tiny:300000",
            corr_floor: 0.50,
            serve_jobs: 500 / q,
        },
    ]
}

pub fn find(name: &str, quick: bool) -> Option<Workload> {
    workloads(quick).into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The driver that makes the reference volume in set-up: never the
    /// one the workload measures.
    pub fn reference_mode(&self) -> Mode {
        match self.mode {
            Some(Mode::Incore) => Mode::Outofcore,
            _ => Mode::Incore,
        }
    }

    /// Voxel updates of one reconstruction of the scan, `Nx·Ny·Nz·Np`
    /// (computed from the geometry, not counted by the program).
    pub fn recon_updates(&self) -> u64 {
        (self.geom.nx * self.geom.ny * self.geom.nz * self.geom.np) as u64
    }

    /// CLI tokens of one reconstruction of `scan` into `out`. Only flags
    /// of the stable CLI surface: never `--filter-mode`, no kernel but
    /// `simd`.
    pub fn recon_tokens(&self, mode: Mode, scan: &Path, out: &Path) -> Vec<String> {
        let mut t = vec![
            "reconstruct".to_string(),
            "--scan".into(),
            scan.display().to_string(),
            "--out".into(),
            out.display().to_string(),
            "--mode".into(),
            mode.name().into(),
            "--kernel".into(),
            "simd".into(),
            "--backend".into(),
            "cpu".into(),
        ];
        match mode {
            Mode::Incore => {}
            Mode::Outofcore | Mode::Pipeline => {
                t.extend(["--device".to_string(), self.device.to_string()]);
            }
            Mode::Distributed => t.extend(
                [
                    "--nr",
                    &DIST_RANKS.to_string(),
                    "--ng",
                    "1",
                    "--reduce-mode",
                    "segmented",
                ]
                .map(String::from),
            ),
        }
        t
    }

    /// CLI tokens of one serve job stream. Every operation gets a fresh
    /// `dir` for its checkpoints and exports.
    pub fn serve_tokens(&self, seed: u64, dir: &Path) -> Vec<String> {
        [
            "serve",
            "--jobs",
            &self.serve_jobs.to_string(),
            "--devices",
            "2",
            "--tenants",
            "3",
            "--rate",
            "200",
            "--seed",
            &seed.to_string(),
            "--backend",
            "cpu",
            "--ckpt-dir",
            &dir.join("ckpt").display().to_string(),
            "--metrics-out",
            &serve_metrics_path(dir).display().to_string(),
            "--schedule-out",
            &serve_schedule_path(dir).display().to_string(),
        ]
        .map(String::from)
        .to_vec()
    }
}

fn serve_metrics_path(dir: &Path) -> PathBuf {
    dir.join("metrics.json")
}

fn serve_schedule_path(dir: &Path) -> PathBuf {
    dir.join("schedule.txt")
}

/// Slab files committed under a serve operation's directory: the
/// checkpoint saves, counted from outside (the serve export has no
/// `ckpt.*` counters).
pub fn count_slab_files(dir: &Path) -> std::io::Result<u64> {
    let mut n = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            n += count_slab_files(&entry.path())?;
        } else if entry.file_name().to_string_lossy().starts_with("slab_") {
            n += 1;
        }
    }
    Ok(n)
}

/// What one serve operation left behind in its directory.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOutcome {
    /// Jobs completed (`serve.jobs.completed`).
    pub completed: u64,
    /// Voxel updates over all devices (`gpu.kernel.updates`).
    pub updates: u64,
    /// Kernel calls over all devices (`gpu.kernel.launches`).
    pub launches: u64,
    pub batches: u64,
    pub preemptions: u64,
    pub migrations: u64,
    /// Checkpoint slab commits, counted as files.
    pub saves: u64,
    /// The `--schedule-out` export: equal between repetitions.
    pub schedule: String,
}

/// Reads the exports of the serve operation that ran in `dir`.
fn serve_outcome(dir: &Path) -> Result<ServeOutcome, String> {
    let read = |path: PathBuf| {
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let snap = Snapshot::parse(&read(serve_metrics_path(dir))?)?;
    Ok(ServeOutcome {
        completed: snap.require("serve.jobs.completed")?,
        updates: snap.require("gpu.kernel.updates")?,
        launches: snap.require("gpu.kernel.launches")?,
        batches: snap.require("serve.batches")?,
        preemptions: snap.require("serve.preemptions")?,
        migrations: snap.require("serve.migrations")?,
        saves: count_slab_files(&dir.join("ckpt")).map_err(|e| format!("ckpt dir: {e}"))?,
        schedule: read(serve_schedule_path(dir))?,
    })
}

/// One serve job stream of `w` in a CLI child of `exe`, in a fresh `dir`
/// that is removed again afterwards (a stream leaves some 700 checkpoint
/// files). The outer error is the harness's, the inner one the
/// operation's.
pub fn run_serve_stream(
    exe: &Path,
    w: &Workload,
    seed: u64,
    dir: &Path,
) -> Result<(ChildRun, Result<ServeOutcome, String>), String> {
    fresh_dir(dir)?;
    let run = run_cli(exe, &w.serve_tokens(seed, dir))?;
    let outcome = if run.ok {
        serve_outcome(dir)
    } else {
        Err(run.failure())
    };
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok((run, outcome))
}

/// A generated scan on disk plus what is needed to check a
/// reconstruction of it.
pub struct ReconInputs {
    pub scan: PathBuf,
    pub scan_bytes: u64,
    /// The phantom rasterised on the volume grid.
    pub truth: Volume,
    /// Seconds the phantom forward projection took.
    pub forward_s: f64,
}

/// Writes the seeded scan of `w` (and its `.geom` sidecar) into `dir`.
/// The same seed gives the same bytes.
pub fn make_recon_inputs(w: &Workload, seed: u64, dir: &Path) -> std::io::Result<ReconInputs> {
    std::fs::create_dir_all(dir)?;
    let phantom = bead_pile(&w.geom, BEADS, seed);
    let t0 = Instant::now();
    let projections = forward_project(&w.geom, &phantom);
    let forward_s = t0.elapsed().as_secs_f64();
    let encoded = encode_projections(&projections);
    let scan = dir.join("scan.sfbp");
    std::fs::write(&scan, &encoded)?;
    std::fs::write(dir.join("scan.sfbp.geom"), geometry_to_text(&w.geom))?;
    Ok(ReconInputs {
        scan,
        scan_bytes: encoded.len() as u64,
        truth: rasterize(&w.geom, &phantom),
        forward_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_size_workloads_match_the_issue_table() {
        let ws = workloads(false);
        let names: Vec<_> = ws.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            ["cube-incore", "wide-pipeline", "sparse-dist", "serve-burst"]
        );
        assert_eq!(ws[0].recon_updates(), 128 * 128 * 128 * 192);
        assert_eq!(ws[1].geom.projection_bytes(), 320 * 240 * 320 * 4);
        assert_eq!((ws[1].geom.nx, ws[1].geom.nz), (64, 64));
        assert_eq!(ws[2].geom.volume_bytes(), 192 * 192 * 192 * 4);
        for w in &ws {
            w.geom.validate().unwrap();
            assert_ne!(Some(w.reference_mode()), w.mode);
        }
        for w in workloads(true) {
            w.geom.validate().unwrap();
        }
    }

    #[test]
    fn tokens_use_only_the_stable_cli_surface() {
        let w = find("wide-pipeline", false).unwrap();
        for mode in Mode::ALL {
            let t = w.recon_tokens(mode, Path::new("s"), Path::new("o"));
            assert!(!t.iter().any(|x| x == "--filter-mode"));
            let kernel = t.iter().position(|x| x == "--kernel").unwrap();
            assert_eq!(t[kernel + 1], "simd");
            assert_eq!(
                t.iter().any(|x| x == "tiny:48000000"),
                matches!(mode, Mode::Outofcore | Mode::Pipeline)
            );
        }
        let t = w.serve_tokens(7, Path::new("d"));
        let seed = t.iter().position(|x| x == "--seed").unwrap();
        assert_eq!(t[seed + 1], "7");
    }
}
