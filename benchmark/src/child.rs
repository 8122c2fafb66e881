//! Operations run in fresh child processes: the benchmark binary
//! re-executes itself, the child does the work and reports its peak
//! resident set, and the parent times spawn → exit.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// First argument that turns a benchmark binary into a CLI child: the
/// rest of the arguments are `scalefbp` tokens.
pub const CLI_CHILD: &str = "__cli-child";

/// Line prefix under which a child reports its `VmHWM`.
const PEAK_RSS_PREFIX: &str = "peak_rss_kb ";

/// What the parent saw of one child.
#[derive(Clone, Debug)]
pub struct ChildRun {
    /// Wall seconds from just before spawn to just after exit.
    pub wall_s: f64,
    /// Exit status was 0.
    pub ok: bool,
    /// The child's `VmHWM` in kB, if it reported one.
    pub peak_rss_kb: Option<u64>,
    pub stdout: String,
    pub stderr: String,
}

impl ChildRun {
    /// One line describing a failed child.
    pub fn failure(&self) -> String {
        let last = self.stderr.lines().last().unwrap_or("no error output");
        format!("child failed: {last}")
    }

    /// This run if it exited with 0, its failure line otherwise.
    pub fn into_ok(self) -> Result<ChildRun, String> {
        if self.ok {
            Ok(self)
        } else {
            Err(self.failure())
        }
    }
}

/// This process's peak resident set (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Prints the peak-RSS line a parent's [`run_child`] looks for. Call it
/// last in a child.
pub fn report_peak_rss() {
    if let Some(kb) = peak_rss_kb() {
        println!("{PEAK_RSS_PREFIX}{kb}");
    }
}

/// Body of a CLI child: what `scalefbp`'s `main` does, then the
/// peak-RSS line. Returns the exit code.
pub fn cli_child_main(tokens: Vec<String>) -> i32 {
    match scalefbp_cli::run(tokens) {
        Ok(output) => {
            print!("{output}");
            report_peak_rss();
            0
        }
        Err(e) => {
            eprintln!("scalefbp: {e}");
            1
        }
    }
}

/// Runs `exe kind args…` to completion. One client, closed loop: the
/// caller starts its next child only after this one has exited.
pub fn run_child(exe: &Path, kind: &str, args: &[String]) -> std::io::Result<ChildRun> {
    let mut cmd = Command::new(exe);
    cmd.arg(kind).args(args).stdin(Stdio::null());
    let t0 = Instant::now();
    let out = cmd.output()?;
    let wall_s = t0.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let peak_rss_kb = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(PEAK_RSS_PREFIX))
        .and_then(|kb| kb.trim().parse().ok());
    Ok(ChildRun {
        wall_s,
        ok: out.status.success(),
        peak_rss_kb,
        stdout,
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    })
}

/// Runs one `scalefbp` invocation in a CLI child of `exe`. An error
/// means the child could not be started, not that it failed.
pub fn run_cli(exe: &Path, tokens: &[String]) -> Result<ChildRun, String> {
    run_child(exe, CLI_CHILD, tokens).map_err(|e| format!("cannot spawn child: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_peak_rss() {
        let kb = peak_rss_kb().expect("VmHWM is readable on Linux");
        assert!(kb > 100, "{kb} kB");
    }

    #[test]
    fn cli_child_reports_errors_as_exit_code() {
        assert_eq!(cli_child_main(vec!["help".into()]), 0);
        assert_eq!(cli_child_main(vec!["frobnicate".into()]), 1);
    }
}
