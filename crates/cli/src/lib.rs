//! Library backing the `scalefbp` command-line tool.
//!
//! Everything is testable without a process boundary: [`run`] takes the
//! raw argument vector and returns the text that `main` prints.

mod args;
pub mod commands;

pub use args::{ArgError, Args};

/// Top-level CLI errors.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/usage error.
    Args(ArgError),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// An I/O failure.
    Io(std::io::Error),
    /// Anything a command wants to report.
    Message(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command `{c}` (try `scalefbp help`)")
            }
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Message(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<scalefbp::ReconstructionError> for CliError {
    fn from(e: scalefbp::ReconstructionError) -> Self {
        match e {
            // The one planning error a flag alone decides.
            scalefbp::ReconstructionError::DeviceTooSmall { .. } => {
                CliError::Message(format!("--device {e}"))
            }
            e => CliError::Message(e.to_string()),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// The usage text of `scalefbp help`.
pub const USAGE: &str = "\
scalefbp — scalable FBP decomposition for cone-beam CT (SC'21 reproduction)

USAGE: scalefbp <command> [options]

COMMANDS:
  presets                       list the built-in dataset geometries
  simulate    --out scan.sfbp   simulate a cone-beam scan of a phantom
              [--preset NAME | --ideal N] [--scale LOG2]
              [--phantom ball|shepp|coffee|bee|beads] [--noise]
              [--dark F --blank F]
  info        --file x.sfbp     describe a container file
  reconstruct --scan scan.sfbp --geom scan.geom --out vol.sfbp
              [--window ramlak|shepplogan|cosine|hamming|hann]
              [--mode incore|outofcore|pipeline|distributed]
              [--kernel reference|simd]
                  pick the back-projection kernel (default: simd, which
                  reproduces the reference oracle bit for bit; see
                  docs/performance.md)
              [--backend sim|cpu]
                  cost model of the streaming modes' device: `sim`
                  charges the gpusim V100 model, `cpu` counts bytes with
                  unlimited memory and zero modelled time; device faults
                  fire on both, volumes are bitwise identical, and the
                  incore and distributed modes charge no device
                  (see docs/backends.md)
              [--device v100|a100|tiny:BYTES]
              [--slab Z0:Z1]            (incore mode: only slices
                                         Z0 ≤ z < Z1 ≤ N_z)
              [--nr N --ng N]           (distributed rank layout,
                                         1 ≤ nr ≤ N_p and 1 ≤ ng ≤ N_z)
              [--reduce-mode dense|hierarchical|segmented]
                  distributed mode folds worker chunks at the group
                  leader in rank order whatever the mode (same bits in
                  all three); the flag picks the wire framing (segmented
                  ships one message per z-segment) and the modelled
                  reduce cost the deadlines derive from (default
                  hierarchical; see docs/communication.md)
              [--fault-seed N | --fault-plan FILE]
                  inject a deterministic fault schedule (every mode but
                  incore) and recover; prints the recovery log
              [--straggler-seed N] [--stragglers N] [--slow-factor F]
                  additionally slow N (default 1, at most ranks − 1)
                  seeded worker devices F ≥ 2 times (distributed mode); the driver detects the stragglers and
                  speculatively re-executes their chunks on healthy peers
              [--timeout-scale F]
                  patience multiplier on the perf-model-derived failure
                  detection deadlines (distributed mode, default 2.0;
                  see docs/fault-model.md)
              [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
                  crash-consistent slab checkpoints (every mode but
                  incore); --resume picks up from the latest
                  valid checkpoint, bitwise identical to an uninterrupted
                  run (see docs/checkpointing.md)
              [--trace-out trace.json] [--metrics-out metrics.json] [--stats]
                  export the deterministic chrome trace / metrics snapshot
                  (see docs/observability.md); --stats prints the table
  iterative   [--scan scan.sfbp | --ideal N] [--solver sirt|mlem]
              [--iters N] [--relaxation F] [--ranks N]
              [--reduce-mode dense|hierarchical|segmented]
              [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
              [--out vol.sfbp] [--metrics-out F] [--stats]
              distributed iterative reconstruction (SIRT/MLEM) with the
              forward/back-projection pair sharded across ranks and the
              per-iteration merge on the chosen collective — bitwise
              identical to the serial solver for every rank count and
              reduce mode (see docs/iterative.md)
  trace-validate --trace trace.json [--metrics metrics.json]
              check an exported trace/snapshot against the format invariants
  slice       --volume vol.sfbp --out img.pgm [--k K | --mip x|y|z]
  model       --preset NAME --gpus N --nr N [--nc 8] [--machine v100|a100]
              project the paper-scale runtime (Eq 17 + DES)
  serve       [--devices 4] [--device v100|a100|tiny:BYTES] [--jobs 24]
              [--tenants 3] [--rate HZ] [--seed N] [--fault-seed N]
              [--straggler-seed N] [--stragglers N] [--slow-factor F]
              [--no-hedging] [--aging-nanos N]
                  slow N (default 1, at most devices − 1) seeded devices
                  mid-run; the scheduler detects the
                  stragglers and hedges their stuck small-job batches
                  onto idle healthy devices (disable with --no-hedging);
                  --aging-nanos overrides the FIFO-aging limit that also
                  gates hedge eligibility (default 50 ms)
              [--backend sim|cpu]
              [--ckpt-dir DIR] [--schedule-out F] [--metrics-out F] [--stats]
              run a seeded multi-tenant workload through the
              reconstruction-as-a-service scheduler: batched small jobs,
              checkpoint-sliced long jobs that migrate across the fleet,
              deterministic schedule/metrics exports (see docs/serving.md)
  help                          this text
";

/// Runs one CLI invocation (tokens exclude the program name) and returns
/// the text to print.
pub fn run<I: IntoIterator<Item = String>>(tokens: I) -> Result<String, CliError> {
    let mut args = Args::parse(tokens)?;
    let out = match args.command.as_str() {
        "help" | "--help" => USAGE.to_string(),
        "presets" => commands::presets()?,
        "simulate" => commands::simulate(&mut args)?,
        "info" => commands::info(&mut args)?,
        "reconstruct" => commands::reconstruct(&mut args)?,
        "iterative" => commands::iterative(&mut args)?,
        "trace-validate" => commands::trace_validate(&mut args)?,
        "slice" => commands::slice(&mut args)?,
        "model" => commands::model(&mut args)?,
        "serve" => commands::serve(&mut args)?,
        other => return Err(CliError::UnknownCommand(other.to_string())),
    };
    args.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_prints_usage() {
        let out = run(["help".to_string()]).unwrap();
        assert!(out.contains("reconstruct"));
        assert!(out.contains("simulate"));
        let kernels: Vec<_> = scalefbp::KernelChoice::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert!(out.contains(&format!("--kernel {}", kernels.join("|"))));
        assert!(out.contains(&format!("default: {}", scalefbp::KernelChoice::default())));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(
            run(["frobnicate".to_string()]),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn presets_lists_all_six() {
        let out = run(["presets".to_string()]).unwrap();
        for name in [
            "coffee_bean",
            "bumblebee",
            "tomo_00027",
            "tomo_00028",
            "tomo_00029",
            "tomo_00030",
        ] {
            assert!(out.contains(name), "{name} missing from:\n{out}");
        }
    }

    #[test]
    fn unknown_option_is_reported() {
        let r = run(["presets".to_string(), "--wat".to_string()]);
        assert!(matches!(
            r,
            Err(CliError::Args(ArgError::UnknownOptions(_)))
        ));
    }
}
