//! The end-to-end pass: one workload, untraced. Generates the seeded
//! inputs, runs the workload's operation in fresh child processes until
//! `--seconds` have been measured, checks every output, and prints every
//! end-to-end metric. Without `--workload` it runs the whole suite.
//!
//! This binary reaches the program only through `scalefbp_cli::run`: CLI
//! flags are the stable surface, the reconstruction entry points are not.

use std::path::Path;
use std::time::Instant;

use scalefbp_benchmark::check::check_volume;
use scalefbp_benchmark::child::{cli_child_main, run_cli, ChildRun, CLI_CHILD};
use scalefbp_benchmark::options::{Layout, Options};
use scalefbp_benchmark::report::{Metric, RunResult};
use scalefbp_benchmark::suite;
use scalefbp_benchmark::workloads::{
    find, make_recon_inputs, run_serve_stream, Mode, ReconInputs, Workload,
};
use scalefbp_geom::Volume;

/// Set-ups per run. `setup_s` is their median, so that one slow disk
/// flush does not read as a set-up regression.
const SETUP_REPS: usize = 3;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(CLI_CHILD) {
        std::process::exit(cli_child_main(argv.split_off(1)));
    }
    let outcome = Options::parse(argv).and_then(|opts| {
        let layout = Layout::discover()?;
        match &opts.workload {
            None => suite::run(&layout, &opts),
            Some(_) if opts.trace => Err("--trace 1 is bench-trace's pass".to_string()),
            Some(name) => {
                let w = find(name, opts.quick).ok_or(format!("unknown workload `{name}`"))?;
                run_workload(&layout, &w, &opts)?.print();
                Ok(())
            }
        }
    });
    if let Err(e) = outcome {
        eprintln!("bench-e2e: {e}");
        std::process::exit(1);
    }
}

/// Samples of the timed operations of one run.
#[derive(Default)]
struct Samples {
    wall_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Samples {
    fn record(&mut self, run: &ChildRun) {
        self.wall_s.push(run.wall_s);
        if let Some(kb) = run.peak_rss_kb {
            self.peak_rss_mb.push(kb as f64 * 1024.0 / 1e6);
        }
    }

    fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.failures.push(why);
    }

    fn into_result(
        mut self,
        w: &Workload,
        opts: &Options,
        setup_s: &[f64],
        updates: u64,
    ) -> RunResult {
        if self.peak_rss_mb.is_empty() {
            // Every child died before reporting; the run is failed anyway.
            self.peak_rss_mb.push(0.0);
        }
        let wall = Metric::median("wall_s", "s", &self.wall_s);
        let gups = Metric::single("gups", "GUPS", updates as f64 / wall.value / 1e9);
        RunResult {
            workload: w.name.to_string(),
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            metrics: vec![
                wall,
                gups,
                Metric::median("peak_rss_mb", "MB", &self.peak_rss_mb),
                Metric::median("setup_s", "s", setup_s),
            ],
            comparable: !opts.quick,
        }
    }
}

/// Runs `body` once per set-up repetition and keeps the last result.
fn timed_setups<T>(
    opts: &Options,
    mut body: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let reps = if opts.quick { 1 } else { SETUP_REPS };
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(body()?);
        samples.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), samples))
}

/// True while another operation should be started.
fn keep_measuring(opts: &Options, started: Instant) -> bool {
    !opts.quick && started.elapsed().as_secs_f64() < opts.seconds_or_default()
}

fn run_workload(layout: &Layout, w: &Workload, opts: &Options) -> Result<RunResult, String> {
    let dir = layout.fresh_run_dir(w.name, false)?;
    let result = match w.mode {
        Some(mode) => run_recon(layout, w, mode, opts, &dir),
        None => run_serve(layout, w, opts, &dir),
    }?;
    // Scans are tens of megabytes; leave nothing behind but the report.
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(result)
}

/// Set-up of a reconstruction workload: the scan on disk, the rasterised
/// phantom, and a reference volume made by a different driver.
fn prepare_recon(
    layout: &Layout,
    w: &Workload,
    seed: u64,
    dir: &Path,
) -> Result<(ReconInputs, Volume), String> {
    let inputs = make_recon_inputs(w, seed, dir).map_err(|e| format!("writing the scan: {e}"))?;
    let ref_path = dir.join("reference.sfbp");
    run_cli(
        &layout.exe,
        &w.recon_tokens(w.reference_mode(), &inputs.scan, &ref_path),
    )?
    .into_ok()
    .map_err(|e| format!("reference run: {e}"))?;
    let bytes = std::fs::read(&ref_path).map_err(|e| format!("reference volume: {e}"))?;
    let (reference, _) = check_volume(&bytes, &w.geom, &inputs.truth, None, w.corr_floor)
        .map_err(|e| format!("reference volume: {e}"))?;
    Ok((inputs, reference))
}

fn run_recon(
    layout: &Layout,
    w: &Workload,
    mode: Mode,
    opts: &Options,
    dir: &Path,
) -> Result<RunResult, String> {
    let ((inputs, reference), setup_s) =
        timed_setups(opts, || prepare_recon(layout, w, opts.seed, dir))?;
    let out = dir.join("volume.sfbp");
    let tokens = w.recon_tokens(mode, &inputs.scan, &out);

    // One discarded warm-up operation.
    run_cli(&layout.exe, &tokens)?;

    let mut samples = Samples::default();
    // The first accepted output; later repetitions must equal it byte for byte.
    let mut accepted: Option<Vec<u8>> = None;
    let started = Instant::now();
    loop {
        let _ = std::fs::remove_file(&out);
        let run = run_cli(&layout.exe, &tokens)?;
        samples.record(&run);
        samples.attempted += 1;
        let verdict = if !run.ok {
            Err(run.failure())
        } else {
            std::fs::read(&out)
                .map_err(|e| format!("no output volume: {e}"))
                .and_then(|bytes| match &accepted {
                    Some(first) if *first == bytes => Ok(()),
                    Some(_) => Err("output bytes differ between repetitions".to_string()),
                    None => {
                        check_volume(
                            &bytes,
                            &w.geom,
                            &inputs.truth,
                            Some(&reference),
                            w.corr_floor,
                        )?;
                        accepted = Some(bytes);
                        Ok(())
                    }
                })
        };
        if let Err(why) = verdict {
            samples.fail(1, why);
        }
        if !keep_measuring(opts, started) {
            break;
        }
    }
    Ok(samples.into_result(w, opts, &setup_s, w.recon_updates()))
}

fn run_serve(
    layout: &Layout,
    w: &Workload,
    opts: &Options,
    dir: &Path,
) -> Result<RunResult, String> {
    let jobs = w.serve_jobs as u64;
    let op_dir = dir.join("op");
    // Set-up is the reference run: its schedule is what every timed
    // repetition must reproduce. It also serves as the warm-up.
    let (reference, setup_s) = timed_setups(opts, || {
        let (_, outcome) = run_serve_stream(&layout.exe, w, opts.seed, &op_dir)?;
        outcome.map_err(|e| format!("reference run: {e}"))
    })?;

    let mut samples = Samples::default();
    let started = Instant::now();
    loop {
        let (run, outcome) = run_serve_stream(&layout.exe, w, opts.seed, &op_dir)?;
        samples.record(&run);
        samples.attempted += jobs;
        match outcome {
            Err(why) => samples.fail(jobs, why),
            Ok(o) if o.schedule != reference.schedule => {
                samples.fail(jobs, "schedule differs between repetitions".to_string());
            }
            Ok(o) if o.completed != jobs => {
                samples.fail(
                    jobs.saturating_sub(o.completed),
                    format!("{} of {jobs} jobs completed", o.completed),
                );
            }
            Ok(_) => {}
        }
        if !keep_measuring(opts, started) {
            break;
        }
    }
    Ok(samples.into_result(w, opts, &setup_s, reference.updates))
}
