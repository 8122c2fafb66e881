//! The traced pass: one workload, layer by layer. Every number is taken
//! from outside the program, by timing calls into public functions under
//! the benchmark's own span recorder; spans inside the program are a
//! later change. Writes one Chrome trace per workload.
//!
//! This is the only file of the benchmark that names substrate
//! functions, so a signature change in a substrate crate can break the
//! layer numbers without breaking the end-to-end numbers. It names no
//! kernel or filter variant but `KernelChoice::Simd`,
//! `KernelChoice::default()` and `FilterChoice::default()`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use scalefbp_backproject::{backproject_simd, detected_cpu_features};
use scalefbp_benchmark::check::check_volume;
use scalefbp_benchmark::child::{
    cli_child_main, report_peak_rss, run_child, run_cli, ChildRun, CLI_CHILD,
};
use scalefbp_benchmark::json::{number, quote};
use scalefbp_benchmark::metricsv1::Snapshot;
use scalefbp_benchmark::options::{fresh_dir, Layout, Options};
use scalefbp_benchmark::report::{Metric, RunResult};
use scalefbp_benchmark::spans::{spans_from_lines, spans_to_lines, Recorder, Span};
use scalefbp_benchmark::stats::median;
use scalefbp_benchmark::workloads::{
    find, make_recon_inputs, run_serve_stream, Mode, ReconInputs, ServeOutcome, Workload,
    DIST_RANKS,
};
use scalefbp_ckpt::CheckpointStore;
use scalefbp_exec::{CpuExecutor, Executor, FilterChoice, KernelChoice};
use scalefbp_faults::crc32;
use scalefbp_fft::{Complex, RealFftPlan};
use scalefbp_filter::{FilterPipeline, FilterWindow, RampKernel};
use scalefbp_geom::{CbctGeometry, ProjectionMatrix, Volume};
use scalefbp_iosim::format::{decode_projections, encode_volume, geometry_from_text};
use scalefbp_iosim::StorageEndpoint;
use scalefbp_mpisim::{hierarchical_reduce_sum, World};
use scalefbp_phantom::{forward_project, uniform_ball};
use scalefbp_pipeline::BoundedQueue;
use scalefbp_serve::scan_geometry;

/// First argument that turns this binary into a staged child.
const STAGED_CHILD: &str = "__staged-child";

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some(CLI_CHILD) => std::process::exit(cli_child_main(argv.split_off(1))),
        Some(STAGED_CHILD) => std::process::exit(match staged_child_main(&argv[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("staged child: {e}");
                1
            }
        }),
        _ => {}
    }
    let outcome = Options::parse(argv).and_then(|opts| {
        let layout = Layout::discover()?;
        let name = opts
            .workload
            .as_deref()
            .ok_or("bench-trace needs --workload (bench-e2e runs the suite)")?;
        if !opts.trace {
            return Err("--trace 0 is bench-e2e's pass".to_string());
        }
        let w = find(name, opts.quick).ok_or(format!("unknown workload `{name}`"))?;
        run_traced(&layout, &w, &opts)?.print();
        Ok(())
    });
    if let Err(e) = outcome {
        eprintln!("bench-trace: {e}");
        std::process::exit(1);
    }
}

// ───────────────────────── the staged operation ─────────────────────────

/// Body of a staged child: the in-core reconstruction of `scan` into
/// `out`, stage by stage under one root span, followed by the bare
/// kernels on the same inputs. Prints its spans, counts and peak RSS.
fn staged_child_main(args: &[String]) -> Result<(), String> {
    let [scan, out] = args else {
        return Err("usage: __staged-child SCAN OUT".into());
    };
    let scan = PathBuf::from(scan);
    let mut rec = Recorder::new();
    let mut counts: Vec<(&str, u64)> = Vec::new();

    let staged = rec.span("op", |rec| -> Result<_, String> {
        let (bytes, geom) = rec.span("read", |_| -> Result<_, String> {
            let bytes = std::fs::read(&scan).map_err(|e| format!("{}: {e}", scan.display()))?;
            let mut sidecar = scan.clone().into_os_string();
            sidecar.push(".geom");
            let text = std::fs::read_to_string(&sidecar).map_err(|e| format!("sidecar: {e}"))?;
            let geom = geometry_from_text(&text).map_err(|e| format!("sidecar: {e}"))?;
            Ok((bytes, geom))
        })?;
        let stack = rec
            .span("decode", |_| decode_projections(&bytes))
            .map_err(|e| format!("scan does not decode: {e}"))?;
        counts.push(("iosim.scan_bytes", bytes.len() as u64));
        counts.push(("filter.rows", (stack.nv() * stack.np()) as u64));
        drop(bytes);

        let (exec, plan, mats, mut filtered, mut vol) = rec.span("prepare", |_| {
            (
                CpuExecutor::new(),
                FilterPipeline::new(&geom, FilterWindow::RamLak),
                ProjectionMatrix::full_scan(&geom),
                stack.clone(),
                Volume::zeros(geom.nx, geom.ny, geom.nz),
            )
        });
        let exec: &dyn Executor = &exec;
        rec.span("exec.filter", |_| {
            exec.filter_stack(&plan, FilterChoice::default(), &mut filtered)
        })
        .map_err(|e| format!("exec.filter: {e}"))?;
        rec.span("exec.backproject", |_| {
            exec.backproject(KernelChoice::Simd, &filtered, &mats, &mut vol)
        })
        .map_err(|e| format!("exec.backproject: {e}"))?;
        rec.span("scale", |_| {
            let scale = plan.backprojection_scale() as f32;
            for v in vol.data_mut() {
                *v *= scale;
            }
        });
        let encoded = rec.span("encode", |_| encode_volume(&vol));
        counts.push(("iosim.volume_bytes", encoded.len() as u64));
        rec.span("write", |_| std::fs::write(out, &encoded))
            .map_err(|e| format!("{out}: {e}"))?;
        Ok((stack, plan, mats, filtered))
    });
    let (stack, plan, mats, filtered) = staged?;

    // The same work without the executor in between.
    let mut direct = stack;
    rec.span("filter.stack", |_| plan.filter_stack(&mut direct));
    let mut vol = Volume::zeros(plan.geometry().nx, plan.geometry().ny, plan.geometry().nz);
    let stats = rec.span("backproject.simd", |_| {
        backproject_simd(&filtered, &mats, &mut vol)
    });
    counts.push(("backproject.updates", stats.updates));
    counts.push((
        "check.exec_equals_direct",
        u64::from(direct.data() == filtered.data()),
    ));

    print!("{}", spans_to_lines(rec.spans()));
    for (name, value) in counts {
        println!("count {name} {value}");
    }
    report_peak_rss();
    Ok(())
}

/// What the parent keeps of one staged child.
struct Staged {
    spans: Vec<Span>,
    counts: Vec<(String, u64)>,
}

impl Staged {
    fn parse(run: &ChildRun) -> Result<Staged, String> {
        let counts = run
            .stdout
            .lines()
            .filter_map(|l| l.strip_prefix("count "))
            .map(|l| {
                let (name, value) = l.split_once(' ').ok_or("malformed count line")?;
                Ok((
                    name.to_string(),
                    value.parse::<u64>().map_err(|_| "malformed count line")?,
                ))
            })
            .collect::<Result<Vec<_>, &str>>()?;
        Ok(Staged {
            spans: spans_from_lines(&run.stdout)?,
            counts,
        })
    }

    /// Duration of the span named `name`.
    fn secs(&self, name: &str) -> Result<f64, String> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(Span::duration)
            .ok_or(format!("staged child recorded no `{name}` span"))
    }

    fn count(&self, name: &str) -> Result<u64, String> {
        self.counts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or(format!("staged child reported no `{name}` count"))
    }
}

// ───────────────────────────── micro-probes ─────────────────────────────

/// Results of the probes that do not depend on the workload's scan.
struct Probes {
    spawn_ms: f64,
    fft_row_us: f64,
    small_call_us: f64,
    pingpong_us: f64,
    stream_gbps: f64,
    checked_gbps: f64,
    reduce_seg_s: f64,
    reduce_hier_s: f64,
    crc32_gbps: f64,
    handoff_us: f64,
    ckpt_save_ms: f64,
}

/// Seconds `f` takes.
fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median wall of a child that only prints the preset table: process
/// start, dynamic linking and exit.
fn probe_spawn(layout: &Layout, reps: usize) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let run = run_cli(&layout.exe, &["presets".to_string()])?.into_ok()?;
        ms.push(run.wall_s * 1e3);
    }
    Ok(median(&ms))
}

/// One forward + inverse real FFT at the filter's padded row length.
fn probe_fft(geom: &CbctGeometry, reps: usize) -> f64 {
    let tau = geom.du * geom.dso / geom.dsd;
    let n = RampKernel::new(geom.nu, tau, FilterWindow::RamLak).padded_len();
    let plan = RealFftPlan::new(n);
    let input: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 / 101.0).collect();
    let mut spectrum = vec![Complex::ZERO; plan.spectrum_len()];
    let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
    let mut output = vec![0.0f64; n];
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let ((), secs) = time(|| {
            plan.forward_into(std::hint::black_box(&input), &mut spectrum, &mut scratch);
            plan.inverse_into(&spectrum, &mut output, &mut scratch);
            std::hint::black_box(&mut output);
        });
        us.push(secs * 1e6);
    }
    median(&us)
}

/// Median of many tiny back-projections through the executor: what one
/// small serve job pays per kernel call.
fn probe_small_calls(reps: usize) -> Result<f64, String> {
    let geom = scan_geometry(12);
    let mut stack = forward_project(&geom, &uniform_ball(&geom, 0.5, 1.0));
    FilterPipeline::new(&geom, FilterWindow::RamLak).filter_stack(&mut stack);
    let mats = ProjectionMatrix::full_scan(&geom);
    let exec = CpuExecutor::new();
    let exec: &dyn Executor = &exec;
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut vol = Volume::zeros(geom.nx, geom.ny, geom.nz);
        let (stats, secs) =
            time(|| exec.backproject(KernelChoice::default(), &stack, &mats, &mut vol));
        stats.map_err(|e| format!("small call: {e}"))?;
        std::hint::black_box(&vol);
        us.push(secs * 1e6);
    }
    Ok(median(&us))
}

/// Mean round trip of an 8-byte message between two rank threads.
fn probe_pingpong(trips: usize) -> f64 {
    let secs = World::run(2, |mut comm| {
        let me = comm.rank();
        let ((), secs) = time(|| {
            for _ in 0..trips {
                if me == 0 {
                    comm.send(1, 1, vec![0u8; 8]);
                    std::hint::black_box(comm.recv(1, 2));
                } else {
                    std::hint::black_box(comm.recv(0, 1));
                    comm.send(0, 2, vec![0u8; 8]);
                }
            }
        });
        secs
    });
    secs[0] * 1e6 / trips as f64
}

/// One-way f32 streaming rate, rank 0 → rank 1, in computed GB/s of
/// payload; `checked` uses the CRC-sealed data plane of the
/// fault-tolerant driver.
fn probe_stream(messages: usize, elems: usize, checked: bool) -> Result<f64, String> {
    let results = World::run(2, |mut comm| -> Result<f64, String> {
        let me = comm.rank();
        let data: Vec<f32> = (0..elems).map(|i| i as f32).collect();
        let (outcome, secs) = time(|| -> Result<(), String> {
            for m in 0..messages as u64 {
                if me == 0 && checked {
                    comm.send_f32_checked(1, m, &data)
                        .map_err(|e| e.to_string())?;
                } else if me == 0 {
                    comm.send_f32(1, m, &data);
                } else if checked {
                    let got = comm
                        .recv_f32_checked_timeout(0, m, Duration::from_secs(60))
                        .map_err(|e| e.to_string())?;
                    std::hint::black_box(got);
                } else {
                    std::hint::black_box(comm.recv_f32(0, m));
                }
            }
            Ok(())
        });
        outcome.map(|()| secs)
    });
    // The receiver finishes last: its clock covers the whole transfer.
    let secs = results.into_iter().nth(1).expect("two ranks")?;
    Ok((messages * elems * 4) as f64 / secs / 1e9)
}

/// One reduce of a `slices × stride` f32 buffer over two ranks, with the
/// chunking the distributed driver uses (one z-slice per message).
/// Returns the slower rank's seconds.
fn probe_reduce(slices: usize, stride: usize, segmented: bool) -> Result<f64, String> {
    let results = World::run(DIST_RANKS, |mut comm| -> Result<f64, String> {
        let mut buf: Vec<f32> = (0..slices * stride).map(|i| (i % 97) as f32).collect();
        let counts: Vec<usize> = scalefbp_mpisim::segment_partition(slices, DIST_RANKS)
            .iter()
            .map(|r| r.len() * stride)
            .collect();
        comm.barrier();
        let (outcome, secs) = time(|| {
            if segmented {
                comm.segmented_reduce_scatter_f32(&buf, &counts, stride)
                    .map(|seg| {
                        std::hint::black_box(seg);
                    })
            } else {
                hierarchical_reduce_sum(&mut comm, 0, &mut buf, 1)
            }
        });
        outcome.map_err(|e| e.to_string())?;
        std::hint::black_box(&buf);
        Ok(secs)
    });
    let mut slowest = 0.0f64;
    for r in results {
        slowest = slowest.max(r?);
    }
    Ok(slowest)
}

/// CRC-32 rate over `bytes` bytes, in computed GB/s.
fn probe_crc32(bytes: usize) -> f64 {
    let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
    let (sum, secs) = time(|| crc32(std::hint::black_box(&data)));
    std::hint::black_box(sum);
    bytes as f64 / secs / 1e9
}

/// Mean hand-off through the pipeline's bounded queue between two threads.
fn probe_handoff(items: usize) -> f64 {
    let queue: BoundedQueue<u64> = BoundedQueue::new(2);
    let ((), secs) = time(|| {
        std::thread::scope(|scope| {
            let producer = queue.clone();
            scope.spawn(move || {
                for i in 0..items as u64 {
                    producer.push(i).expect("consumer is alive");
                }
            });
            for _ in 0..items {
                std::hint::black_box(queue.pop().expect("producer is alive"));
            }
        });
    });
    secs * 1e6 / items as f64
}

/// Median durable commit of a 3 KB slab, in stores of six slabs like a
/// long serve job's.
fn probe_ckpt(dir: &Path, stores: usize) -> Result<f64, String> {
    fresh_dir(dir)?;
    let endpoint = StorageEndpoint::local_nvme(Some(dir.to_path_buf()));
    let payload = vec![0x5au8; 3072];
    let mut ms = Vec::with_capacity(stores * 6);
    for s in 0..stores {
        let mut store = CheckpointStore::create(&endpoint, Path::new(&format!("job-{s:04}")), 0)
            .map_err(|e| format!("checkpoint store: {e}"))?;
        for z in 0..6 {
            let (saved, secs) = time(|| store.save_slab(z, z + 1, &payload));
            saved.map_err(|e| format!("save_slab: {e}"))?;
            ms.push(secs * 1e3);
        }
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(median(&ms))
}

/// Runs every probe under its own span. `quick` divides the work by 8.
fn run_probes(
    rec: &mut Recorder,
    layout: &Layout,
    w: &Workload,
    dir: &Path,
    quick: bool,
) -> Result<Probes, String> {
    let q = if quick { 8 } else { 1 };
    // One 28 MB buffer, the volume of `sparse-dist`: 192 slices of 192².
    let (slices, stride) = (192 / q, 192 * 192);
    Ok(Probes {
        spawn_ms: rec.span("probe cli.spawn", |_| probe_spawn(layout, 24 / q))?,
        fft_row_us: rec.span("probe fft.row", |_| probe_fft(&w.geom, 2000 / q)),
        small_call_us: rec.span("probe exec.small_call", |_| probe_small_calls(500 / q))?,
        pingpong_us: rec.span("probe mpisim.pingpong", |_| probe_pingpong(10_000 / q)),
        stream_gbps: rec.span("probe mpisim.stream", |_| {
            probe_stream(64 / q, 1 << 20, false)
        })?,
        checked_gbps: rec.span("probe mpisim.checked", |_| {
            probe_stream(16 / q, 1 << 20, true)
        })?,
        reduce_seg_s: rec.span("probe mpisim.reduce_seg", |_| {
            probe_reduce(slices, stride, true)
        })?,
        reduce_hier_s: rec.span("probe mpisim.reduce_hier", |_| {
            probe_reduce(slices, stride, false)
        })?,
        crc32_gbps: rec.span("probe faults.crc32", |_| probe_crc32((64 << 20) / q)),
        handoff_us: rec.span("probe pipeline.handoff", |_| probe_handoff(25_000 / q)),
        ckpt_save_ms: rec.span("probe ckpt.save", |_| {
            probe_ckpt(&dir.join("ckpt-probe"), 34 / q + 1)
        })?,
    })
}

/// Machine context, written beside the results and never reported as a
/// metric. The copy rate is computed from the buffer size, not measured
/// on a memory bus counter.
fn machine_json(layout: &Layout) -> String {
    // Git must not look for a repository above the checkout.
    let above = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let command_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", &above)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    const COPY_BYTES: usize = 256 << 20;
    let src = vec![1u8; COPY_BYTES];
    // Written once before timing, or the copy would time page faults.
    let mut dst = vec![2u8; COPY_BYTES];
    let ((), secs) = time(|| dst.copy_from_slice(std::hint::black_box(&src)));
    std::hint::black_box(&dst);
    format!(
        "{{\"nproc\": {}, \"cpu_features\": [{}], \"copy_from_slice_bytes\": {COPY_BYTES}, \
         \"copy_from_slice_gbps_computed\": {}, \"rustc\": {}, \"git_commit\": {}, \"exe\": {}}}\n",
        std::thread::available_parallelism().map_or(0, usize::from),
        detected_cpu_features()
            .iter()
            .map(|f| quote(f))
            .collect::<Vec<_>>()
            .join(", "),
        number(COPY_BYTES as f64 / secs / 1e9),
        quote(&command_line("rustc", &["--version"])),
        quote(&command_line("git", &["rev-parse", "HEAD"])),
        quote(&layout.exe.display().to_string()),
    )
}

// ──────────────────────────── the traced run ────────────────────────────

/// Spans of the staged child whose durations are kept: the stages of
/// the operation, then the bare kernels.
const STAGES: [&str; 10] = [
    "read",
    "decode",
    "prepare",
    "exec.filter",
    "exec.backproject",
    "scale",
    "encode",
    "write",
    "filter.stack",
    "backproject.simd",
];

/// Time samples of the rounds, one vector per measured quantity.
#[derive(Default)]
struct Rounds {
    /// Seconds per successful staged child, in the order of [`STAGES`].
    stage_s: [Vec<f64>; STAGES.len()],
    /// Seconds per CLI mode, in the order of [`Mode::ALL`].
    mode_s: [Vec<f64>; 4],
    untraced_s: Vec<f64>,
    serve_s: Vec<f64>,
    tally: Tally,
}

/// Counts of one round. Every round must report the same.
#[derive(Clone, Debug, PartialEq)]
struct Counts {
    scan_bytes: u64,
    volume_bytes: u64,
    filter_rows: u64,
    updates: u64,
    h2d_bytes: u64,
    kernel_launches: u64,
    rows_loaded: u64,
    mpi_bytes: u64,
    mpi_messages: u64,
    serve: ServeOutcome,
}

/// Operations attempted and failed in the traced pass.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Rounds {
    /// The samples of the staged span `name`.
    fn stage(&self, name: &str) -> &[f64] {
        let i = STAGES.iter().position(|s| *s == name);
        &self.stage_s[i.expect("a name of STAGES")]
    }
}

impl Tally {
    /// Counts one operation; a failed one is recorded and yields `None`.
    fn judge<T>(&mut self, what: &str, verdict: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match verdict {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// One serve stream in which every job must complete.
fn serve_stream(
    layout: &Layout,
    w: &Workload,
    seed: u64,
    dir: &Path,
) -> Result<(f64, ServeOutcome), String> {
    let (run, outcome) = run_serve_stream(&layout.exe, w, seed, dir)?;
    let outcome = outcome?;
    if outcome.completed != w.serve_jobs as u64 {
        return Err(format!(
            "{} of {} jobs completed",
            outcome.completed, w.serve_jobs
        ));
    }
    Ok((run.wall_s, outcome))
}

/// One round: the staged operation, the workload's own operation
/// untraced, the four drivers with their exports on, one serve stream.
/// A failed operation is tallied; the round then has no counts.
fn round(
    rec: &mut Recorder,
    layout: &Layout,
    w: &Workload,
    inputs: &ReconInputs,
    seed: u64,
    dir: &Path,
    rounds: &mut Rounds,
) -> Result<Option<Counts>, String> {
    // The reference for every other volume of the round: the in-core
    // driver's, itself held against the phantom.
    let volume_of = |mode: Mode| dir.join(format!("{}.sfbp", mode.name()));
    let metrics_of = |mode: Mode| dir.join(format!("{}-metrics.json", mode.name()));
    let mut reference: Option<Volume> = None;
    let mut exports: Vec<Option<Snapshot>> = Vec::new();
    for (i, mode) in Mode::ALL.into_iter().enumerate() {
        let mut tokens = w.recon_tokens(mode, &inputs.scan, &volume_of(mode));
        tokens.extend([
            "--metrics-out".to_string(),
            metrics_of(mode).display().to_string(),
        ]);
        let run = rec.span(&format!("core.{}", mode.name()), |_| {
            run_cli(&layout.exe, &tokens)
        });
        let verdict = run?.into_ok().and_then(|run| {
            let bytes = std::fs::read(volume_of(mode)).map_err(|e| format!("no volume: {e}"))?;
            let (vol, _) = check_volume(
                &bytes,
                &w.geom,
                &inputs.truth,
                reference.as_ref(),
                w.corr_floor,
            )?;
            let text = std::fs::read_to_string(metrics_of(mode))
                .map_err(|e| format!("no metrics export: {e}"))?;
            Ok((run.wall_s, vol, Snapshot::parse(&text)?))
        });
        match rounds
            .tally
            .judge(&format!("--mode {}", mode.name()), verdict)
        {
            Some((wall_s, vol, snap)) => {
                rounds.mode_s[i].push(wall_s);
                reference.get_or_insert(vol);
                exports.push(Some(snap));
            }
            None => exports.push(None),
        }
    }

    // The staged operation, in a fresh child like every other operation.
    // Its spans are adopted under the span that covers the child.
    let staged_out = dir.join("staged.sfbp");
    let verdict = rec.span("op.staged", |rec| {
        let spawned_at = rec.now();
        let run = run_child(
            &layout.exe,
            STAGED_CHILD,
            &[
                inputs.scan.display().to_string(),
                staged_out.display().to_string(),
            ],
        )
        .map_err(|e| format!("cannot spawn staged child: {e}"))?;
        let staged = Staged::parse(&run.into_ok()?)?;
        rec.adopt(&staged.spans, spawned_at);
        Ok(staged)
    });
    let verdict = verdict.and_then(|staged: Staged| {
        let bytes = std::fs::read(&staged_out).map_err(|e| format!("no volume: {e}"))?;
        check_volume(
            &bytes,
            &w.geom,
            &inputs.truth,
            reference.as_ref(),
            w.corr_floor,
        )?;
        if staged.count("check.exec_equals_direct")? != 1 {
            return Err("executor and direct filter outputs differ".into());
        }
        Ok(staged)
    });
    let staged = rounds.tally.judge("staged operation", verdict);
    if let Some(staged) = &staged {
        for (samples, name) in rounds.stage_s.iter_mut().zip(STAGES) {
            samples.push(staged.secs(name)?);
        }
    }

    // The workload's own operation exactly as the end-to-end pass runs
    // it: no exports, no span around anything but the spawn.
    let untraced = match w.mode {
        Some(mode) => {
            let out = dir.join("untraced.sfbp");
            let tokens = w.recon_tokens(mode, &inputs.scan, &out);
            let run = rec.span("op.untraced", |_| run_cli(&layout.exe, &tokens));
            run?.into_ok().map(|run| run.wall_s)
        }
        None => rec
            .span("op.untraced", |_| {
                serve_stream(layout, w, seed, &dir.join("serve-untraced"))
            })
            .map(|(wall_s, _)| wall_s),
    };
    if let Some(wall_s) = rounds.tally.judge("untraced operation", untraced) {
        rounds.untraced_s.push(wall_s);
    }

    let stream = rec.span("serve.stream", |_| {
        serve_stream(layout, w, seed, &dir.join("serve"))
    });
    let stream = rounds.tally.judge("serve stream", stream);
    if let Some((wall_s, _)) = &stream {
        rounds.serve_s.push(*wall_s);
    }

    let (Some(staged), Some((_, serve)), [_, _, Some(pipeline), Some(dist)]) =
        (staged, stream, &exports[..])
    else {
        return Ok(None);
    };
    Ok(Some(Counts {
        scan_bytes: staged.count("iosim.scan_bytes")?,
        volume_bytes: staged.count("iosim.volume_bytes")?,
        filter_rows: staged.count("filter.rows")?,
        updates: staged.count("backproject.updates")?,
        h2d_bytes: pipeline.require("gpu.h2d.bytes")?,
        kernel_launches: pipeline.require("gpu.kernel.launches")?,
        rows_loaded: pipeline.require("pipeline.rows.loaded")?,
        mpi_bytes: dist.require("mpi.send.bytes")?,
        mpi_messages: dist.require("mpi.send.messages")?,
        serve,
    }))
}

fn run_traced(layout: &Layout, w: &Workload, opts: &Options) -> Result<RunResult, String> {
    let dir = layout.fresh_run_dir(w.name, true)?;
    let seconds = opts.seconds_or_default();
    let started = Instant::now();
    let mut rec = Recorder::new();

    let inputs = rec
        .span("setup", |_| make_recon_inputs(w, opts.seed, &dir))
        .map_err(|e| format!("writing the scan: {e}"))?;
    let probes = rec.span("probes", |rec| run_probes(rec, layout, w, &dir, opts.quick))?;
    // Machine context is the same for every run that shares the scratch
    // directory, and touching 512 MiB of fresh pages costs over a second.
    let machine = layout.scratch.join("machine.json");
    if !machine.exists() {
        std::fs::write(&machine, machine_json(layout)).map_err(|e| format!("machine.json: {e}"))?;
    }

    // Rounds until `--seconds` are used up: another one starts only if
    // it would still end inside them. Always at least one.
    let mut rounds = Rounds::default();
    let mut counts: Option<Counts> = None;
    loop {
        let round_started = Instant::now();
        rec.next_op();
        let this = rec.span("round", |rec| {
            round(rec, layout, w, &inputs, opts.seed, &dir, &mut rounds)
        })?;
        match (this, &counts) {
            (Some(this), Some(first)) if this != *first => {
                let differ = Err::<(), _>(format!("{first:?} then {this:?}"));
                rounds.tally.judge("counts differ between rounds", differ);
            }
            (Some(this), None) => counts = Some(this),
            _ => {}
        }
        let next_would_end = started.elapsed() + round_started.elapsed();
        if opts.quick || next_would_end.as_secs_f64() > seconds {
            break;
        }
    }

    let trace_path = layout.scratch.join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_path, rec.chrome_trace())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;

    let Some(counts) = counts else {
        // No round completed: there are no layer numbers to report.
        return Err(format!(
            "no round completed:\n  {}",
            rounds.tally.failures.join("\n  ")
        ));
    };
    let metrics = layer_metrics(w, &inputs, &probes, &rounds, &counts)?;
    Ok(RunResult {
        workload: w.name.to_string(),
        attempted: rounds.tally.attempted,
        failed: rounds.tally.failed,
        failures: rounds.tally.failures,
        metrics,
        comparable: !opts.quick,
    })
}

/// Every per-layer metric of `BENCHMARK.json`, in its order.
fn layer_metrics(
    w: &Workload,
    inputs: &ReconInputs,
    p: &Probes,
    r: &Rounds,
    c: &Counts,
) -> Result<Vec<Metric>, String> {
    let med = |samples: &[f64], what: &str| {
        if samples.is_empty() {
            Err(format!("no successful sample of {what}"))
        } else {
            Ok(median(samples))
        }
    };
    let [incore, outofcore, pipeline, dist] = [
        med(&r.mode_s[0], "--mode incore")?,
        med(&r.mode_s[1], "--mode outofcore")?,
        med(&r.mode_s[2], "--mode pipeline")?,
        med(&r.mode_s[3], "--mode distributed")?,
    ];
    let untraced = med(&r.untraced_s, "the untraced operation")?;
    let serve_wall = med(&r.serve_s, "the serve stream")?;
    let spawn_s = p.spawn_ms / 1e3;
    let read = median(r.stage("read"));
    let decode = median(r.stage("decode"));
    let exec_filter = median(r.stage("exec.filter"));
    let exec_bp = median(r.stage("exec.backproject"));
    let encode = median(r.stage("encode"));
    let store = encode + median(r.stage("write"));
    let filter_stack = median(r.stage("filter.stack"));
    let bp_simd = median(r.stage("backproject.simd"));
    let staged_sum = spawn_s
        + read
        + decode
        + median(r.stage("prepare"))
        + exec_filter
        + exec_bp
        + median(r.stage("scale"))
        + store;

    // Fully overlapped, a pipeline takes as long as its longest stage.
    let stages = [read + decode, exec_filter, exec_bp, store];
    let longest = stages.iter().fold(0.0f64, |m, s| m.max(*s));
    let pipeline_ideal = 1.0 - longest / stages.iter().sum::<f64>();

    let (own_traced, explained) = match w.mode {
        Some(mode) => {
            let own = [incore, outofcore, pipeline, dist][Mode::ALL
                .iter()
                .position(|m| *m == mode)
                .expect("mode is listed")];
            (own, staged_sum / untraced)
        }
        // A serve stream cannot be staged from outside; what the probes
        // explain of it is its commits and its kernel calls.
        None => {
            let commits = p.ckpt_save_ms / 1e3 * c.serve.saves as f64;
            let calls = p.small_call_us / 1e6 * c.serve.launches as f64;
            (serve_wall, (spawn_s + commits + calls) / untraced)
        }
    };

    let s = Metric::single;
    Ok(vec![
        s("cli.spawn_ms", "ms", p.spawn_ms),
        Metric::median("cli.read_s", "s", r.stage("read")),
        s("cli.store_s", "s", store),
        Metric::median("iosim.decode_s", "s", r.stage("decode")),
        s(
            "iosim.decode_gbps",
            "GB/s",
            c.scan_bytes as f64 / decode / 1e9,
        ),
        Metric::median("iosim.encode_s", "s", r.stage("encode")),
        s("iosim.scan_bytes", "count", c.scan_bytes as f64),
        s("iosim.volume_bytes", "count", c.volume_bytes as f64),
        Metric::median("filter.stack_s", "s", r.stage("filter.stack")),
        s(
            "filter.rows_per_s",
            "1/s",
            c.filter_rows as f64 / filter_stack,
        ),
        s("filter.rows", "count", c.filter_rows as f64),
        s("fft.row_us", "us", p.fft_row_us),
        Metric::median("backproject.simd_s", "s", r.stage("backproject.simd")),
        s(
            "backproject.simd_gups",
            "GUPS",
            c.updates as f64 / bp_simd / 1e9,
        ),
        s("backproject.updates", "count", c.updates as f64),
        Metric::median("exec.filter_s", "s", r.stage("exec.filter")),
        Metric::median("exec.backproject_s", "s", r.stage("exec.backproject")),
        s(
            "exec.tax_frac",
            "frac",
            (exec_filter + exec_bp) / (filter_stack + bp_simd) - 1.0,
        ),
        s("exec.small_call_us", "us", p.small_call_us),
        Metric::median("core.incore_s", "s", &r.mode_s[0]),
        Metric::median("core.outofcore_s", "s", &r.mode_s[1]),
        Metric::median("core.pipeline_s", "s", &r.mode_s[2]),
        Metric::median("core.dist_s", "s", &r.mode_s[3]),
        s(
            "core.driver_tax_frac",
            "frac",
            1.0 - (spawn_s + read + decode + exec_filter + exec_bp + store) / incore,
        ),
        s("core.outofcore_tax_frac", "frac", outofcore / incore - 1.0),
        s(
            "core.pipeline_gain_frac",
            "frac",
            1.0 - pipeline / outofcore,
        ),
        s("core.pipeline_ideal_frac", "frac", pipeline_ideal),
        s(
            "core.dist_efficiency",
            "ratio",
            incore / (DIST_RANKS as f64 * dist),
        ),
        s("core.h2d_bytes", "count", c.h2d_bytes as f64),
        s("core.kernel_launches", "count", c.kernel_launches as f64),
        s(
            "core.rows_loaded_ratio",
            "ratio",
            c.rows_loaded as f64 / w.geom.nv as f64,
        ),
        s("mpisim.bytes", "count", c.mpi_bytes as f64),
        s("mpisim.messages", "count", c.mpi_messages as f64),
        s("mpisim.pingpong_us", "us", p.pingpong_us),
        s("mpisim.stream_gbps", "GB/s", p.stream_gbps),
        s("mpisim.checked_gbps", "GB/s", p.checked_gbps),
        s("mpisim.reduce_seg_s", "s", p.reduce_seg_s),
        s("mpisim.reduce_hier_s", "s", p.reduce_hier_s),
        s("faults.crc32_gbps", "GB/s", p.crc32_gbps),
        s("pipeline.handoff_us", "us", p.handoff_us),
        s("ckpt.save_ms", "ms", p.ckpt_save_ms),
        s("ckpt.saves", "count", c.serve.saves as f64),
        s(
            "serve.per_job_ms",
            "ms",
            serve_wall * 1e3 / w.serve_jobs as f64,
        ),
        s("serve.jobs", "count", c.serve.completed as f64),
        s("serve.batches", "count", c.serve.batches as f64),
        s("serve.preemptions", "count", c.serve.preemptions as f64),
        s("serve.migrations", "count", c.serve.migrations as f64),
        s(
            "serve.ckpt_share_frac",
            "frac",
            p.ckpt_save_ms / 1e3 * c.serve.saves as f64 / serve_wall,
        ),
        s("phantom.forward_s", "s", inputs.forward_s),
        s("trace.explained_frac", "frac", explained),
        s("trace.overhead_frac", "frac", own_traced / untraced - 1.0),
    ])
}
