//! Command-line options shared by both benchmark binaries, and where
//! they keep their scratch files.

use std::path::{Path, PathBuf};

use scalefbp_cli::Args;

/// Default `--seed`; 7 is the hold-out seed no change is tuned on.
pub const DEFAULT_SEED: u64 = 2021;

/// Seconds one run measures when neither `--seconds` nor
/// `BENCHMARK.json` says: its `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Parsed options. `run.sh` passes its arguments through unchanged.
#[derive(Clone, Debug)]
pub struct Options {
    /// One workload (how the driver calls), or all of them.
    pub workload: Option<String>,
    pub seed: u64,
    /// Seconds one run measures; `None` means `run_seconds` of
    /// `BENCHMARK.json`.
    pub seconds: Option<f64>,
    /// `--trace 1`: the per-layer pass.
    pub trace: bool,
    /// One repetition on quarter-size inputs; numbers not comparable.
    pub quick: bool,
    /// Validate what the runs print against `BENCHMARK.json`.
    pub check: bool,
    /// Run both passes this many times and compare the runs.
    pub repeat: usize,
}

impl Options {
    /// `--seconds`, or the default.
    pub fn seconds_or_default(&self) -> f64 {
        self.seconds.unwrap_or(DEFAULT_SECONDS)
    }

    pub fn parse(tokens: Vec<String>) -> Result<Options, String> {
        // The CLI's parser wants a command word first.
        let mut args = Args::parse(std::iter::once("benchmark".to_string()).chain(tokens))
            .map_err(|e| e.to_string())?;
        let err = |e: scalefbp_cli::ArgError| e.to_string();
        let seconds = match args.opt("seconds") {
            None => None,
            Some(s) => Some(
                s.parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds `{s}` is not a positive number"))?,
            ),
        };
        let opts = Options {
            workload: args.opt("workload"),
            seed: args
                .typed_or("seed", DEFAULT_SEED, "integer")
                .map_err(err)?,
            seconds,
            trace: match args.opt("trace").as_deref() {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace `{other}` is neither 0 nor 1")),
            },
            quick: args.flag("quick"),
            check: args.flag("check"),
            repeat: args.typed_or("repeat", 1, "integer").map_err(err)?,
        };
        args.finish().map_err(err)?;
        if opts.repeat == 0 {
            return Err("--repeat must be at least 1".into());
        }
        Ok(opts)
    }
}

/// Where the running binary lives and where it may write.
#[derive(Clone, Debug)]
pub struct Layout {
    /// This executable, re-executed for every child operation.
    pub exe: PathBuf,
    /// `<target dir>/benchmark`: on the repo's filesystem, so `fsync`
    /// costs what it costs a user, and ignored by git.
    pub scratch: PathBuf,
}

impl Layout {
    /// The binaries are built to `<target dir>/release/`, so the scratch
    /// directory is found from the executable's own path.
    pub fn discover() -> Result<Layout, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or(format!("{} is not in a target directory", exe.display()))?;
        Ok(Layout {
            scratch: target.join("benchmark"),
            exe,
        })
    }

    /// The other benchmark binary, built beside this one.
    pub fn sibling(&self, name: &str) -> PathBuf {
        self.exe.with_file_name(name)
    }

    /// An empty directory for one run of one workload.
    pub fn fresh_run_dir(&self, workload: &str, traced: bool) -> Result<PathBuf, String> {
        let pass = if traced { "trace" } else { "e2e" };
        let dir = self.scratch.join(format!("{workload}-{pass}"));
        fresh_dir(&dir)?;
        Ok(dir)
    }
}

/// Removes `dir` with everything in it, then creates it empty.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot clear {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Options, String> {
        Options::parse(tokens.iter().map(|t| t.to_string()).collect())
    }

    #[test]
    fn parses_the_driver_call() {
        let o = parse(&[
            "--workload",
            "sparse-dist",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("sparse-dist"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, Some(12.0), true));
        assert!(!o.quick && !o.check && o.repeat == 1);
    }

    #[test]
    fn defaults_and_suite_flags() {
        let o = parse(&["--quick", "--check", "--repeat", "2"]).unwrap();
        assert_eq!((o.workload, o.seed, o.seconds), (None, DEFAULT_SEED, None));
        assert!(o.quick && o.check && !o.trace && o.repeat == 2);
    }

    #[test]
    fn refuses_bad_values_and_unknown_options() {
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--repeat", "0"]).is_err());
        assert!(parse(&["--wat"]).is_err());
    }
}
