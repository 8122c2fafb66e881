//! The CLI subcommands.

use std::path::{Path, PathBuf};

use rand::SeedableRng;
use scalefbp::{
    fault_tolerant_reconstruct, fdk_reconstruct_configured, iterative_reconstruct_distributed,
    BackendChoice, CheckpointSpec, DeviceSpec, FdkConfig, FilterWindow, IterativeConfig,
    IterativeSolver, KernelChoice, MetricsRegistry, MetricsSnapshot, OutOfCoreReconstructor,
    RankLayout, ReduceMode, Schedule, StreamRun,
};
use scalefbp_faults::{FaultPlan, FaultScenario, RecoveryEvent};
use scalefbp_geom::{CbctGeometry, DatasetPreset, ProjectionStack};
use scalefbp_iosim::format::{
    decode_projections, decode_volume, encode_projections, geometry_from_text, geometry_to_text,
    mip_to_pgm, slice_to_pgm, write_volume, ScanFile,
};
use scalefbp_iosim::StorageEndpoint;
use scalefbp_obs::{chrome_trace_json, validate_chrome_trace, validate_metrics_json};
use scalefbp_perfmodel::{MachineParams, PerfModel, RunShape};
use scalefbp_phantom::{
    bead_pile, bumblebee_like, coffee_bean_like, forward_project, uniform_ball, Phantom, PhotonScan,
};

use crate::{Args, CliError};

fn geometry_path(scan: &Path) -> PathBuf {
    let mut p = scan.as_os_str().to_owned();
    p.push(".geom");
    PathBuf::from(p)
}

fn parse_window(name: &str) -> Result<FilterWindow, CliError> {
    Ok(match name {
        "ramlak" => FilterWindow::RamLak,
        "shepplogan" => FilterWindow::SheppLogan,
        "cosine" => FilterWindow::Cosine,
        "hamming" => FilterWindow::Hamming,
        "hann" => FilterWindow::Hann,
        other => return Err(CliError::Message(format!("unknown window `{other}`"))),
    })
}

fn parse_device(spec: &str) -> Result<DeviceSpec, CliError> {
    if spec == "v100" {
        return Ok(DeviceSpec::v100_16gb());
    }
    if spec == "a100" {
        return Ok(DeviceSpec::a100_40gb());
    }
    if let Some(bytes) = spec.strip_prefix("tiny:") {
        let b: u64 = bytes
            .parse()
            .map_err(|_| CliError::Message(format!("bad --device size `{bytes}`")))?;
        return Ok(DeviceSpec::tiny(b));
    }
    Err(CliError::Message(format!(
        "unknown --device `{spec}` (v100 | a100 | tiny:BYTES)"
    )))
}

fn build_phantom(name: &str, geom: &CbctGeometry) -> Result<Phantom, CliError> {
    Ok(match name {
        "ball" => uniform_ball(geom, 0.55, 1.0),
        "shepp" => Phantom::shepp_logan(geom.footprint_radius() * 0.9),
        "coffee" => coffee_bean_like(geom),
        "bee" => bumblebee_like(geom),
        "beads" => bead_pile(geom, 24, 2021),
        other => return Err(CliError::Message(format!("unknown phantom `{other}`"))),
    })
}

/// `scalefbp presets`.
pub fn presets() -> Result<String, CliError> {
    let mut out =
        String::from("name          detector        N_p   output   mag    σ_u     σ_v    σ_cor\n");
    for p in DatasetPreset::all() {
        let g = &p.geometry;
        out.push_str(&format!(
            "{:<13} {:>5}×{:<8} {:>5} {:>6}³ {:>5.2} {:>6} {:>7} {:>8}\n",
            p.name,
            g.nu,
            g.nv,
            g.np,
            g.nx,
            g.magnification(),
            g.sigma_u,
            g.sigma_v,
            g.sigma_cor
        ));
    }
    out.push_str("\nuse --preset NAME --scale LOG2 to shrink for local runs\n");
    Ok(out)
}

/// `scalefbp simulate`.
pub fn simulate(args: &mut Args) -> Result<String, CliError> {
    let out_path = PathBuf::from(args.require("out")?);
    let scale: u32 = args.typed_or("scale", 0, "integer")?;
    let geom = if let Some(preset) = args.opt("preset") {
        DatasetPreset::by_name(&preset)
            .ok_or_else(|| CliError::Message(format!("unknown preset `{preset}`")))?
            .scaled(scale)
            .geometry
    } else {
        let n: usize = args.typed_or("ideal", 32, "integer")?;
        CbctGeometry::ideal(n, n * 3 / 2, n * 3 / 2, n * 3 / 2)
    };
    geom.validate()
        .map_err(|e| CliError::Message(format!("invalid geometry: {e}")))?;

    let phantom_name = args.opt("phantom").unwrap_or_else(|| "ball".into());
    let phantom = build_phantom(&phantom_name, &geom)?;
    let mut projections = forward_project(&geom, &phantom);

    let mut noise_note = String::new();
    if args.flag("noise") {
        let dark: f32 = args.typed_or("dark", 100.0, "number")?;
        let blank: f32 = args.typed_or("blank", 60_000.0, "number")?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let scan = PhotonScan::from_projections(&projections, dark, blank, Some(&mut rng));
        projections = scan.normalise();
        noise_note = format!(" with photon noise (dark={dark}, blank={blank})");
    }

    std::fs::write(&out_path, encode_projections(&projections))?;
    std::fs::write(geometry_path(&out_path), geometry_to_text(&geom))?;
    Ok(format!(
        "simulated `{phantom_name}` scan{noise_note}: {}×{}×{} projections → {}\n\
         geometry sidecar: {}\n",
        geom.nv,
        geom.np,
        geom.nu,
        out_path.display(),
        geometry_path(&out_path).display()
    ))
}

/// `scalefbp info`.
pub fn info(args: &mut Args) -> Result<String, CliError> {
    let path = PathBuf::from(args.require("file")?);
    let data = std::fs::read(&path)?;
    if let Ok(p) = decode_projections(&data) {
        return Ok(format!(
            "{}: projection stack {}×{}×{} (v×s×u), v_offset={}, s_offset={}, {:.1} MB\n",
            path.display(),
            p.nv(),
            p.np(),
            p.nu(),
            p.v_offset(),
            p.s_offset(),
            data.len() as f64 / 1e6
        ));
    }
    if let Ok(v) = decode_volume(&data) {
        return Ok(format!(
            "{}: volume {}×{}×{} (x×y×z), z_offset={}, {:.1} MB\n",
            path.display(),
            v.nx(),
            v.ny(),
            v.nz(),
            v.z_offset(),
            data.len() as f64 / 1e6
        ));
    }
    Err(CliError::Message(format!(
        "{} is not a scalefbp container",
        path.display()
    )))
}

/// Resolves `--fault-seed` / `--fault-plan` into a plan. `scenario` is
/// used only when generating from a seed; an explicit plan file wins.
fn parse_fault_plan(
    args: &mut Args,
    scenario: &FaultScenario,
) -> Result<Option<FaultPlan>, CliError> {
    if let Some(path) = args.opt("fault-plan") {
        let text = std::fs::read_to_string(&path)?;
        let plan =
            FaultPlan::parse(&text).map_err(|e| CliError::Message(format!("{path}: {e}")))?;
        return Ok(Some(plan));
    }
    if let Some(seed) = args.opt("fault-seed") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| CliError::Message(format!("bad --fault-seed `{seed}`")))?;
        return Ok(Some(FaultPlan::generate(seed, scenario)));
    }
    Ok(None)
}

/// Resolves `--checkpoint-dir` / `--checkpoint-every` / `--resume` into
/// a storage endpoint rooted at the checkpoint directory plus the spec
/// the drivers consume. `--resume` without `--checkpoint-dir` is an
/// error; stale or corrupt manifests surface later as clear
/// `checkpoint error:` messages from the drivers.
fn parse_checkpoint_spec(
    args: &mut Args,
) -> Result<Option<(StorageEndpoint, CheckpointSpec)>, CliError> {
    let dir = args.opt("checkpoint-dir");
    let every = args.opt("checkpoint-every");
    let resume = args.flag("resume");
    let Some(dir) = dir else {
        if resume || every.is_some() {
            return Err(CliError::Message(
                "--resume/--checkpoint-every need --checkpoint-dir DIR".into(),
            ));
        }
        return Ok(None);
    };
    let every: usize =
        match every {
            Some(e) => e.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                CliError::Message(format!("bad --checkpoint-every `{e}` (want ≥ 1)"))
            })?,
            None => 1,
        };
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir)
        .map_err(|e| CliError::Message(format!("--checkpoint-dir {}: {e}", dir.display())))?;
    let endpoint = StorageEndpoint::local_nvme(Some(dir));
    let mut spec = CheckpointSpec::new("", every);
    if resume {
        spec = spec.resuming();
    }
    Ok(Some((endpoint, spec)))
}

/// Resolves `--straggler-seed` / `--stragglers` / `--slow-factor` into
/// seeded slow-device events appended to `plan`. Stragglers compose with
/// any other fault schedule: the events live on a disjoint channel
/// (compute) and never target rank 0.
fn apply_straggler_plan(
    args: &mut Args,
    plan: FaultPlan,
    world_size: usize,
) -> Result<FaultPlan, CliError> {
    let Some(ss) = args.opt("straggler-seed") else {
        return Ok(plan);
    };
    let sseed: u64 = ss
        .parse()
        .map_err(|_| CliError::Message(format!("bad --straggler-seed `{ss}`")))?;
    let why = format!("rank 0 of a {world_size}-rank world never straggles");
    let count = parse_stragglers(args, world_size.saturating_sub(1), &why)?;
    let factor = parse_slow_factor(args)?;
    let mut events = plan.events().to_vec();
    events.extend(
        FaultPlan::stragglers(sseed, world_size, count, factor)
            .events()
            .iter()
            .cloned(),
    );
    Ok(FaultPlan::from_events(events))
}

/// Resolves `--stragglers` against the `limit` ranks or devices that may
/// straggle (`why` says why no more): a count past it is an error naming
/// the flag, and the default, one, is clamped to it.
fn parse_stragglers(args: &mut Args, limit: usize, why: &str) -> Result<usize, CliError> {
    let count = args.typed_or("stragglers", limit.min(1), "integer")?;
    if count > limit {
        return Err(CliError::Message(format!(
            "--stragglers {count} exceeds {limit}: {why}"
        )));
    }
    Ok(count)
}

/// Resolves `--slow-factor` (default 4): a straggler runs at least
/// twice as slow, so 0 and 1 are errors rather than silently raised to 2.
fn parse_slow_factor(args: &mut Args) -> Result<u32, CliError> {
    let factor: u32 = args.typed_or("slow-factor", 4, "integer")?;
    if factor < 2 {
        return Err(CliError::Message(format!(
            "--slow-factor must be an integer ≥ 2, got {factor}"
        )));
    }
    Ok(factor)
}

/// Resolves `--timeout-scale` (default 2.0) for the fault-tolerant
/// distributed driver's derived failure-detection deadlines.
fn parse_timeout_scale(args: &mut Args) -> Result<f64, CliError> {
    let Some(ts) = args.opt("timeout-scale") else {
        return Ok(2.0);
    };
    ts.parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| {
            CliError::Message(format!(
                "bad --timeout-scale `{ts}` (want a positive number)"
            ))
        })
}

/// Fault scenario for a single-rank streaming run: only device and
/// storage faults are meaningful for a generated plan.
fn single_rank_scenario() -> FaultScenario {
    FaultScenario {
        world_size: 1,
        max_rank_failures: 0,
        message_drops: 0,
        message_delays: 0,
        device_faults: 2,
        io_faults: 2,
        corrupt_faults: 0,
        op_horizon: 16,
    }
}

/// Consumes `--trace-out`, `--metrics-out` and `--stats`, writing the
/// deterministic exports where asked. Returns the lines to append to the
/// command's output (empty when none of the three was given).
fn write_observability(
    args: &mut Args,
    trace_json: &str,
    metrics: &MetricsSnapshot,
) -> Result<String, CliError> {
    let mut note = String::new();
    if let Some(path) = args.opt("trace-out") {
        std::fs::write(&path, trace_json)
            .map_err(|e| CliError::Message(format!("--trace-out {path}: {e}")))?;
        note.push_str(&format!("chrome trace → {path}\n"));
    }
    if let Some(path) = args.opt("metrics-out") {
        std::fs::write(&path, metrics.to_json())
            .map_err(|e| CliError::Message(format!("--metrics-out {path}: {e}")))?;
        note.push_str(&format!("metrics snapshot → {path}\n"));
    }
    if args.flag("stats") {
        note.push_str(&metrics.render_table());
    }
    Ok(note)
}

/// Opens a `.sfbp` scan for reading by rows; its header and length are
/// checked here, before any driver starts.
fn open_scan(path: &Path) -> Result<ScanFile, CliError> {
    ScanFile::open(path).map_err(|e| CliError::Message(format!("{}: {e}", path.display())))
}

/// The geometry sidecar of `scan`: `--geom` when given, otherwise the
/// `.geom` file written next to the scan.
fn read_geometry(args: &mut Args, scan: &Path) -> Result<CbctGeometry, CliError> {
    let path = args
        .opt("geom")
        .map(PathBuf::from)
        .unwrap_or_else(|| geometry_path(scan));
    geometry_from_text(&std::fs::read_to_string(&path)?)
        .map_err(|e| CliError::Message(format!("{}: {e}", path.display())))
}

/// Input for `iterative`: an on-disk scan when `--scan` is given,
/// otherwise a synthesized uniform-ball scan of an ideal geometry
/// (`--ideal N`, default 24).
fn load_or_synthesize(
    args: &mut Args,
) -> Result<(CbctGeometry, ProjectionStack, String), CliError> {
    if let Some(scan) = args.opt("scan") {
        let scan_path = PathBuf::from(scan);
        let geom = read_geometry(args, &scan_path)?;
        let projections = open_scan(&scan_path)?
            .read_all()
            .map_err(|e| CliError::Message(format!("{}: {e}", scan_path.display())))?;
        Ok((geom, projections, format!("{}", scan_path.display())))
    } else {
        let _ = args.opt("geom");
        let n: usize = args.typed_or("ideal", 24, "integer")?;
        let geom = CbctGeometry::ideal(n, n * 3 / 2, n * 3 / 2, n * 3 / 2);
        geom.validate()
            .map_err(|e| CliError::Message(format!("invalid geometry: {e}")))?;
        let projections = forward_project(&geom, &uniform_ball(&geom, 0.55, 1.0));
        Ok((geom, projections, format!("synthetic ball, ideal {n}")))
    }
}

fn checkpoint_note(checkpoint: &Option<(StorageEndpoint, CheckpointSpec)>) -> String {
    match checkpoint {
        Some((_, spec)) if spec.resume => {
            format!(", resumed from checkpoint (every {})", spec.every)
        }
        Some((_, spec)) => format!(", checkpointing every {}", spec.every),
        None => String::new(),
    }
}

fn recovery_summary(events: &[RecoveryEvent]) -> String {
    if events.is_empty() {
        return ", no recoveries".to_string();
    }
    let mut s = format!(", {} recovery events:", events.len());
    for e in events {
        s.push_str(&format!("\n    {e}"));
    }
    s
}

/// `--name` as one of the dispatch enums. Without the flag the run takes
/// the enum's own `Default`, so the library and the CLI cannot disagree
/// about what the default is.
fn parse_choice<T>(args: &mut Args, name: &str) -> Result<T, CliError>
where
    T: Default + std::str::FromStr<Err = String>,
{
    args.opt(name).map_or_else(
        || Ok(T::default()),
        |v| v.parse().map_err(CliError::Message),
    )
}

/// `scalefbp reconstruct`.
pub fn reconstruct(args: &mut Args) -> Result<String, CliError> {
    let scan_path = PathBuf::from(args.require("scan")?);
    let out_path = PathBuf::from(args.require("out")?);
    let window = parse_window(&args.opt("window").unwrap_or_else(|| "ramlak".into()))?;
    let mode = args.opt("mode").unwrap_or_else(|| "incore".into());
    let device = parse_device(&args.opt("device").unwrap_or_else(|| "v100".into()))?;
    let kernel: KernelChoice = parse_choice(args, "kernel")?;
    let backend: BackendChoice = parse_choice(args, "backend")?;
    let reduce_mode: ReduceMode = parse_choice(args, "reduce-mode")?;
    let checkpoint = parse_checkpoint_spec(args)?;
    if checkpoint.is_some() && mode == "incore" {
        return Err(CliError::Message(format!(
            "--checkpoint-dir needs --mode outofcore, pipeline or distributed (got `{mode}`)"
        )));
    }
    let slab: Option<(usize, usize)> = match args.opt("slab") {
        Some(_) if mode != "incore" => {
            return Err(CliError::Message(format!(
                "--slab needs --mode incore (got `{mode}`)"
            )))
        }
        Some(slab) => Some(
            slab.split_once(':')
                .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                .ok_or_else(|| CliError::Message(format!("bad --slab `{slab}` (want Z0:Z1)")))?,
        ),
        None => None,
    };

    let geom = read_geometry(args, &scan_path)?;
    if let Some((z0, z1)) = slab.filter(|&(z0, z1)| z0 >= z1 || z1 > geom.nz) {
        return Err(CliError::Message(format!(
            "bad --slab `{z0}:{z1}` (want Z0 < Z1 <= {})",
            geom.nz
        )));
    }
    let scan = open_scan(&scan_path)?;

    let t0 = std::time::Instant::now();
    // Every arm yields (volume, detail, chrome-trace JSON, metrics);
    // modes without instrumented substrates export empty-but-valid
    // documents so --trace-out / --metrics-out work uniformly.
    // The flags every mode shares; the arms add what only they honour.
    let cfg = FdkConfig::new(geom.clone())
        .with_window(window)
        .with_kernel(kernel)
        .with_backend(backend);
    let (volume, detail, trace_json, metrics) = match mode.as_str() {
        "incore" => {
            let v = fdk_reconstruct_configured(&cfg, &scan, slab)?;
            let what = match slab {
                Some((z0, z1)) => format!("ROI slab [{z0}, {z1})"),
                None => "in-core".to_string(),
            };
            (
                v,
                format!("{what}, {kernel} kernel, {backend} backend"),
                chrome_trace_json(&[]),
                MetricsRegistry::new().snapshot(),
            )
        }
        "outofcore" | "pipeline" => {
            let schedule = match mode.as_str() {
                "outofcore" => Schedule::Serial,
                _ => Schedule::Overlapped,
            };
            let plan = parse_fault_plan(args, &single_rank_scenario())?;
            // The modelled NVMe endpoint attaches exactly when a fault plan
            // is given: it is where storage faults are injected, and its
            // `io.*` traffic then lands in the report's metrics.
            let nvme = plan.as_ref().map(|_| StorageEndpoint::local_nvme(None));
            let run = StreamRun {
                schedule,
                faults: plan.as_ref(),
                storage: nvme.as_ref(),
                checkpoint: checkpoint.as_ref().map(|(ep, spec)| (ep, spec)),
            };
            let rec = OutOfCoreReconstructor::new(cfg.with_device(device))?;
            let (v, report) = rec.reconstruct(&scan, run)?;
            let mut notes = checkpoint_note(&checkpoint);
            if plan.is_some() {
                notes.push_str(&recovery_summary(&report.recovery));
            }
            let detail = match schedule {
                Schedule::Serial => format!(
                    "out-of-core: N_b={} over {} batches, H2D {:.1} MB{notes}",
                    report.nb,
                    report.batches.len(),
                    report.device.h2d_bytes as f64 / 1e6
                ),
                Schedule::Overlapped => format!(
                    "pipeline: modelled overlap efficiency {:.0}%{notes}",
                    report.model_trace.overlap_efficiency() * 100.0
                ),
            };
            (
                v,
                detail,
                report.model_trace.to_chrome_trace(),
                report.metrics,
            )
        }
        "distributed" => {
            let nr: usize = args.typed_or("nr", 2, "integer")?;
            let ng: usize = args.typed_or("ng", 2, "integer")?;
            let world = nr.saturating_mul(ng);
            let plan = parse_fault_plan(args, &FaultScenario::mixed(world))?
                .unwrap_or_else(FaultPlan::none);
            let plan = apply_straggler_plan(args, plan, world)?;
            let cfg = cfg
                .with_reduce_mode(reduce_mode)
                .with_timeout_scale(parse_timeout_scale(args)?);
            // A struct literal, not `RankLayout::new`: the driver validates
            // the layout against the scan and reports a bad one as an error.
            let out = fault_tolerant_reconstruct(
                &cfg,
                RankLayout { nr, ng, nc: 2 },
                &scan,
                &plan,
                checkpoint.as_ref().map(|(ep, spec)| (ep, spec)),
            )?;
            let detail = format!(
                "fault-tolerant distributed: N_r={nr} N_g={ng}, {} reduce, \
                 {:.1} MB network{}{}",
                cfg.reduce_mode,
                out.network.bytes as f64 / 1e6,
                checkpoint_note(&checkpoint),
                recovery_summary(&out.recovery)
            );
            let trace = out.chrome_trace();
            (out.volume, detail, trace, out.metrics)
        }
        other => {
            return Err(CliError::Message(format!(
                "unknown mode `{other}` (incore | outofcore | pipeline | distributed)"
            )))
        }
    };
    let obs_note = write_observability(args, &trace_json, &metrics)?;
    let secs = t0.elapsed().as_secs_f64();
    write_volume(&out_path, &volume)?;
    Ok(format!(
        "reconstructed {}×{}×{} ({detail}) in {secs:.2} s → {}\n{obs_note}",
        volume.nx(),
        volume.ny(),
        volume.nz(),
        out_path.display()
    ))
}

/// `scalefbp iterative` — distributed iterative reconstruction (SIRT or
/// MLEM) sharded over simulated ranks, with the per-iteration correction
/// merge running on the chosen `--reduce-mode` collective. The iterate
/// is bitwise identical to the serial solver for every (ranks, mode)
/// pair; `--checkpoint-dir`/`--resume` make long runs crash-consistent
/// (see docs/iterative.md).
pub fn iterative(args: &mut Args) -> Result<String, CliError> {
    let (geom, projections, source) = load_or_synthesize(args)?;
    let solver_name = args.opt("solver").unwrap_or_else(|| "sirt".into());
    let iters: usize = args.typed_or("iters", 10, "integer")?;
    let ranks: usize = args.typed_or("ranks", 4, "integer")?;
    if iters == 0 || ranks == 0 {
        return Err(CliError::Message(
            "--iters and --ranks must be positive".into(),
        ));
    }
    let relaxation: f32 = args.typed_or("relaxation", 1.0, "number")?;
    let solver = match solver_name.as_str() {
        "sirt" if relaxation.is_nan() || relaxation <= 0.0 || relaxation > 2.0 => {
            return Err(CliError::Message(format!(
                "--relaxation must be in (0, 2], got {relaxation}"
            )))
        }
        "sirt" => IterativeSolver::Sirt { relaxation },
        "mlem" => IterativeSolver::Mlem,
        other => {
            return Err(CliError::Message(format!(
                "unknown solver `{other}` (sirt | mlem)"
            )))
        }
    };
    let mut cfg = IterativeConfig::new(solver, iters);
    cfg.ranks = ranks;
    cfg.reduce_mode = parse_choice(args, "reduce-mode")?;
    cfg.checkpoint = parse_checkpoint_spec(args)?;
    let ckpt_note = checkpoint_note(&cfg.checkpoint);

    let t0 = std::time::Instant::now();
    let out = iterative_reconstruct_distributed(&geom, &projections, &cfg)?;
    let secs = t0.elapsed().as_secs_f64();

    let obs_note = write_observability(args, &chrome_trace_json(&[]), &out.metrics)?;
    if let Some(path) = args.opt("out") {
        write_volume(Path::new(&path), &out.volume)?;
    }
    let resumed = if out.resumed_iterations > 0 {
        format!(" ({} resumed)", out.resumed_iterations)
    } else {
        String::new()
    };
    Ok(format!(
        "iterative ({source}): {solver_name} ×{iters}{resumed} on {ranks} ranks, \
         {} reduce{ckpt_note}, residual {:.3e} → {:.3e}, \
         {:.1} MB network, {secs:.2} s\n{obs_note}",
        cfg.reduce_mode,
        out.residuals.first().copied().unwrap_or(0.0),
        out.residuals.last().copied().unwrap_or(0.0),
        out.network.bytes as f64 / 1e6,
    ))
}

/// `scalefbp trace-validate` — parses an exported chrome trace (and
/// optionally a metrics snapshot) and checks the invariants the golden
/// tests rely on: numeric pid/tid/ts/dur, known phases, per-track span
/// non-overlap, counter/histogram well-formedness.
pub fn trace_validate(args: &mut Args) -> Result<String, CliError> {
    let trace_path = PathBuf::from(args.require("trace")?);
    let text = std::fs::read_to_string(&trace_path)?;
    let summary = validate_chrome_trace(&text)
        .map_err(|e| CliError::Message(format!("{}: {e}", trace_path.display())))?;
    let mut out = format!(
        "{}: valid chrome trace — {} spans, {} instants, {} tracks\n",
        trace_path.display(),
        summary.spans,
        summary.instants,
        summary.tracks
    );
    if let Some(mpath) = args.opt("metrics") {
        let mtext = std::fs::read_to_string(&mpath)?;
        let n = validate_metrics_json(&mtext)
            .map_err(|e| CliError::Message(format!("{mpath}: {e}")))?;
        out.push_str(&format!("{mpath}: valid metrics snapshot — {n} metrics\n"));
    }
    Ok(out)
}

/// `scalefbp slice`.
pub fn slice(args: &mut Args) -> Result<String, CliError> {
    let vol_path = PathBuf::from(args.require("volume")?);
    let out_path = PathBuf::from(args.require("out")?);
    let volume = decode_volume(&std::fs::read(&vol_path)?)
        .map_err(|e| CliError::Message(format!("{}: {e}", vol_path.display())))?;
    if let Some(axis_name) = args.opt("mip") {
        let axis = match axis_name.as_str() {
            "x" => 0,
            "y" => 1,
            "z" => 2,
            other => return Err(CliError::Message(format!("bad --mip axis `{other}`"))),
        };
        std::fs::write(&out_path, mip_to_pgm(&volume, axis))?;
        return Ok(format!(
            "wrote {axis_name}-axis maximum-intensity projection → {}\n",
            out_path.display()
        ));
    }
    let k: usize = args.typed_or("k", volume.nz() / 2, "integer")?;
    if k >= volume.nz() {
        return Err(CliError::Message(format!(
            "slice {k} out of range (volume has {} slices)",
            volume.nz()
        )));
    }
    std::fs::write(&out_path, slice_to_pgm(&volume, k))?;
    Ok(format!(
        "wrote slice {k} ({}×{}) → {}\n",
        volume.nx(),
        volume.ny(),
        out_path.display()
    ))
}

/// `scalefbp serve`: run a seeded multi-tenant workload through the
/// reconstruction-as-a-service scheduler and print the outcome.
pub fn serve(args: &mut Args) -> Result<String, CliError> {
    use scalefbp_serve::{generate, FleetFaultPlan, Scheduler, ServeConfig, WorkloadSpec};

    let devices: usize = args.typed_or("devices", 4, "integer")?;
    if devices == 0 {
        return Err(CliError::Message("--devices must be positive".into()));
    }
    let device = parse_device(&args.opt("device").unwrap_or_else(|| "tiny:300000".into()))?;
    let jobs: usize = args.typed_or("jobs", 24, "integer")?;
    let tenants: usize = args.typed_or("tenants", 3, "integer")?;
    let rate: f64 = args.typed_or("rate", 200.0, "number")?;
    if tenants == 0 {
        return Err(CliError::Message("--tenants must be positive".into()));
    }
    if !rate.is_finite() || rate <= 0.0 {
        return Err(CliError::Message(format!(
            "--rate must be a positive finite number, got {rate}"
        )));
    }
    let seed: u64 = args.typed_or("seed", 42, "integer")?;
    let ckpt_root = args.opt("ckpt-dir").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("scalefbp-serve-{}", std::process::id()))
    });

    let backend: BackendChoice = parse_choice(args, "backend")?;

    let mut cfg = ServeConfig::new(devices, device, ckpt_root).with_backend(backend);
    if let Some(fs) = args.opt("fault-seed") {
        let fseed: u64 = fs
            .parse()
            .map_err(|_| CliError::Message(format!("bad --fault-seed `{fs}`")))?;
        // Spread injected device kills over the expected arrival span.
        let horizon = (jobs as f64 / rate * 1e9).round() as u64;
        cfg = cfg.with_faults(FleetFaultPlan::generate(fseed, devices, horizon.max(1)));
    }
    if let Some(ss) = args.opt("straggler-seed") {
        let sseed: u64 = ss
            .parse()
            .map_err(|_| CliError::Message(format!("bad --straggler-seed `{ss}`")))?;
        let why = format!("one of the {devices} devices stays healthy");
        let count = parse_stragglers(args, devices - 1, &why)?;
        let factor = parse_slow_factor(args)?;
        let horizon = (jobs as f64 / rate * 1e9).round() as u64;
        let mut plan = cfg.faults.clone();
        plan.slowdowns.extend(
            FleetFaultPlan::generate_stragglers(sseed, devices, count, factor, horizon.max(1))
                .slowdowns,
        );
        cfg = cfg.with_faults(plan);
    }
    if args.flag("no-hedging") {
        cfg = cfg.with_hedging(false);
    }
    if let Some(a) = args.opt("aging-nanos") {
        let nanos: u64 = a
            .parse()
            .map_err(|_| CliError::Message(format!("bad --aging-nanos `{a}`")))?;
        cfg = cfg.with_aging_nanos(nanos);
    }

    let workload = WorkloadSpec::new(seed, tenants, jobs, rate);
    let report = Scheduler::new(cfg, MetricsRegistry::new())
        .run(generate(&workload))
        .map_err(|e| CliError::Message(e.to_string()))?;
    // Nothing was admitted, so each job was refused with nothing else
    // outstanding: it needs more than the fleet's devices have.
    let admitted = report.jobs.len() + report.stranded.len();
    if let Some(r) = report.rejections.first().filter(|_| admitted == 0) {
        let why = format!("--device too small for any job: {}", r.reason);
        return Err(CliError::Message(why));
    }

    if let Some(path) = args.opt("schedule-out") {
        std::fs::write(&path, report.schedule_text())
            .map_err(|e| CliError::Message(format!("--schedule-out {path}: {e}")))?;
    }
    if let Some(path) = args.opt("metrics-out") {
        std::fs::write(&path, report.metrics.to_json())
            .map_err(|e| CliError::Message(format!("--metrics-out {path}: {e}")))?;
    }

    let mut out = format!(
        "serve: {} devices, {tenants} tenants, {jobs} jobs at {rate:.1}/s (seed {seed})\n\
         completed {} | rejected {} | stranded {}\n",
        devices,
        report.jobs.len(),
        report.rejections.len(),
        report.stranded.len()
    );
    let fmt_ms = |q: Option<u64>| match q {
        Some(n) => format!("{:.2} ms", n as f64 / 1e6),
        None => "n/a".to_string(),
    };
    out.push_str(&format!(
        "latency p50 {} | p99 {} | makespan {:.2} ms\n",
        fmt_ms(report.latency_quantile_nanos(0.50, None)),
        fmt_ms(report.latency_quantile_nanos(0.99, None)),
        report.makespan_nanos as f64 / 1e6
    ));
    let counter = |name: &str| report.metrics.counter(name, None).unwrap_or(0);
    out.push_str(&format!(
        "batches {} | preemptions {} | migrations {} | requeues {} | device kills {}\n",
        counter("serve.batches"),
        counter("serve.preemptions"),
        counter("serve.migrations"),
        counter("serve.requeues"),
        counter("serve.device.kills"),
    ));
    out.push_str(&format!(
        "stragglers {} | hedges issued {} won {} wasted {}\n",
        counter("serve.stragglers"),
        counter("serve.hedges.issued"),
        counter("serve.hedges.won"),
        counter("serve.hedges.wasted"),
    ));
    for d in 0..devices {
        out.push_str(&format!(
            "device {d}: utilisation {:.2}{}\n",
            report.utilisation(d),
            if report.device_alive[d] {
                ""
            } else {
                " (killed)"
            }
        ));
    }
    for t in 0..tenants {
        let done = report
            .metrics
            .counter("serve.tenant.jobs.completed", Some(t))
            .unwrap_or(0);
        out.push_str(&format!(
            "tenant {t}: completed {done}, p99 {}\n",
            fmt_ms(report.latency_quantile_nanos(0.99, Some(t)))
        ));
    }
    if args.flag("stats") {
        out.push('\n');
        out.push_str(&report.metrics.render_table());
    }
    Ok(out)
}

/// `scalefbp model`.
pub fn model(args: &mut Args) -> Result<String, CliError> {
    let preset = args.require("preset")?;
    let gpus: usize = args.typed("gpus", "integer")?;
    let nr: usize = args.typed("nr", "integer")?;
    let nc: usize = args.typed_or("nc", 8, "integer")?;
    let machine = match args.opt("machine").as_deref().unwrap_or("v100") {
        "v100" => MachineParams::abci_v100(),
        "a100" => MachineParams::abci_a100(),
        other => return Err(CliError::Message(format!("unknown machine `{other}`"))),
    };
    if gpus == 0 || nr == 0 || gpus % nr != 0 {
        return Err(CliError::Message(format!(
            "--gpus {gpus} must be a positive multiple of --nr {nr}"
        )));
    }
    let geom = DatasetPreset::by_name(&preset)
        .ok_or_else(|| CliError::Message(format!("unknown preset `{preset}`")))?
        .geometry;
    let shape = RunShape {
        geom: geom.clone(),
        layout: RankLayout::new(nr, gpus / nr, nc),
    };
    let model = PerfModel::new(machine);
    let projected = model.runtime(&shape, ReduceMode::default());
    let sim = scalefbp::timing::simulate_distributed(
        &geom,
        shape.layout,
        &machine,
        ReduceMode::default(),
        1.0,
    );
    Ok(format!(
        "{preset} → {}³ on {gpus} GPUs (N_r={nr}, N_g={}, N_c={nc}):\n\
         projected (Eq 17): {projected:.1} s\n\
         simulated (DES):   {:.1} s\n\
         aggregate:         {:.0} GUPS\n",
        geom.nx,
        gpus / nr,
        sim.measured_secs,
        sim.gups
    ))
}
