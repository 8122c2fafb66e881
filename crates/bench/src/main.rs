//! `scalefbp-bench <name>` — the one harness behind every table, figure
//! and `BENCH_*.json` of the evaluation. [`PROGRAMS`] is the whole
//! interface: a name, what it regenerates, and the function that does it.
//!
//! ```text
//! cargo run --release -p scalefbp-bench -- <name> [--quick] [--out-dir DIR] [--reps N]
//! ```

/// What follows the program name on the command line. The five
/// JSON-writing programs honour `quick` and `out_dir`; `reps` is
/// `backproject`'s best-of count. The figure programs take no options.
pub struct Options {
    pub quick: bool,
    pub out_dir: String,
    pub reps: Option<usize>,
}

type Run = fn(&Options);
type Program = (&'static str, &'static str, Run);

/// Declares the module of every program (its `run` is the entry point)
/// and the one table of them, so a name is written once.
macro_rules! programs {
    ($($name:ident: $what:literal,)*) => {
        $(mod $name;)*

        const PROGRAMS: &[Program] = &[$((stringify!($name), $what, $name::run)),*];
    };
}

programs! {
    backproject: "kernel wall-clock bench -> BENCH_backproject.json",
    scaling: "reduce-mode scaling sweep to 1024 GPUs -> BENCH_scaling.json",
    serve: "multi-tenant saturation sweep -> BENCH_serve.json, serve_metrics.json",
    iterative: "distributed SIRT/MLEM conformance grid -> BENCH_iterative.json",
    straggler: "speculation and hedging economics -> BENCH_straggler.json",
    table2_ablation: "Table 2: decomposition scheme comparison",
    table5_outofcore: "Table 5: out-of-core single-GPU evaluation",
    fig8_reduce_slice: "Figure 8: group-reduced slice (writes fig8_slice.pgm)",
    fig10_timeline: "Figure 10: pipeline overlap timelines",
    fig11_renderings: "Figure 11 analogue: dataset-shaped renderings (writes PGMs)",
    fig12_roofline: "Figure 12: kernel roofline on a V100",
    fig13_strong_scaling: "Figure 13 a-d: strong scaling to 1024 GPUs",
    fig14_weak_scaling: "Figure 14 a-b: weak scaling onto the store floor",
    fig15_gups: "Figure 15: aggregate GUPS for 4096^3 outputs",
    ir_vs_fbp: "Section 1: one FBP pass vs SIRT/MLEM iterations",
    nc_ablation: "batch count N_c vs device footprint vs runtime",
    layout_search: "does Eq 17 recover the paper's N_r choices?",
    mar_workflow: "Section 6.3: metal-artifact-reduction rerun loop",
}

fn usage() -> String {
    let mut text = String::from(
        "usage: scalefbp-bench <name> [--quick] [--out-dir DIR] [--reps N]\n\nnames:\n",
    );
    for (name, what, _) in PROGRAMS {
        text.push_str(&format!("  {name:<22}{what}\n"));
    }
    text
}

/// Resolves a command line (without `argv[0]`) to a program and its
/// options; the error is the one-line reason printed above the usage.
fn parse(args: &[String]) -> Result<(Run, Options), String> {
    let name = args.first().ok_or("missing <name>")?;
    let &(_, _, program) = PROGRAMS
        .iter()
        .find(|(n, _, _)| n == name)
        .ok_or_else(|| format!("unknown name `{name}`"))?;
    let mut opts = Options {
        quick: false,
        out_dir: ".".to_string(),
        reps: None,
    };
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out-dir" => opts.out_dir = value()?.clone(),
            "--reps" => {
                let v = value()?;
                let reps = v
                    .parse()
                    .map_err(|_| format!("--reps: `{v}` is not a count"))?;
                opts.reps = Some(reps);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok((program, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok((program, opts)) => program(&opts),
        Err(reason) => {
            eprintln!("scalefbp-bench: {reason}\n\n{}", usage());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        parse(&args).map(|(_, opts)| opts)
    }

    #[test]
    fn every_table_name_is_unique_and_listed_in_the_usage() {
        let usage = usage();
        for (i, (name, what, _)) in PROGRAMS.iter().enumerate() {
            assert!(
                PROGRAMS[..i].iter().all(|(n, _, _)| n != name),
                "duplicate name {name}"
            );
            assert!(usage.contains(&format!("  {name} ")) && usage.contains(what));
        }
    }

    #[test]
    fn options_parse_in_any_order() {
        let opts = parse_words(&["backproject", "--reps", "3", "--quick", "--out-dir", "d"])
            .expect("valid command line");
        assert!(opts.quick);
        assert_eq!(opts.out_dir, "d");
        assert_eq!(opts.reps, Some(3));
        let opts = parse_words(&["scaling"]).expect("name alone");
        assert!(!opts.quick);
        assert_eq!(opts.out_dir, ".");
        assert_eq!(opts.reps, None);
    }

    #[test]
    fn missing_or_unknown_name_is_refused() {
        assert_eq!(parse_words(&[]).err().unwrap(), "missing <name>");
        // The parent ran the full back-projection bench for any unknown
        // first word and overwrote ./BENCH_backproject.json.
        assert!(parse_words(&["scalling", "--quick"])
            .err()
            .unwrap()
            .contains("unknown name `scalling`"));
        assert!(parse_words(&["--quick"]).is_err(), "no implicit program");
        assert!(parse_words(&["chaos"]).is_err());
    }

    #[test]
    fn unknown_option_is_refused() {
        assert!(parse_words(&["scaling", "--quik"])
            .err()
            .unwrap()
            .contains("unknown option `--quik`"));
        assert!(parse_words(&["scaling", "serve"]).is_err());
    }

    #[test]
    fn missing_or_unparsable_value_is_refused() {
        assert!(parse_words(&["backproject", "--reps", "abc"])
            .err()
            .unwrap()
            .contains("`abc` is not a count"));
        assert!(parse_words(&["backproject", "--reps"])
            .err()
            .unwrap()
            .contains("--reps needs a value"));
        assert!(parse_words(&["scaling", "--out-dir"])
            .err()
            .unwrap()
            .contains("--out-dir needs a value"));
    }

    /// The token after each `scalefbp-bench ` / `scalefbp-bench -- ` in
    /// `text`, where one follows (`--bin`, a back-tick or a `<` do not).
    fn mentioned_names(text: &str) -> Vec<&str> {
        let blank = |c: char| c.is_whitespace() || c == '\\';
        text.split("scalefbp-bench")
            .skip(1)
            .filter_map(|after| {
                let after = after.strip_prefix(blank)?.trim_start_matches(blank);
                let after = match after.strip_prefix("--") {
                    Some(rest) => rest.strip_prefix(blank)?.trim_start_matches(blank),
                    None => after,
                };
                let end = after
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(after.len());
                (end > 0).then(|| &after[..end])
            })
            .collect()
    }

    /// Docs name programs as `scalefbp-bench <name>`; a renamed or deleted
    /// program must not survive in them, and every program must be
    /// documented somewhere.
    #[test]
    fn every_name_the_docs_mention_is_in_the_table() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files: Vec<std::path::PathBuf> = [
            "README.md",
            "EXPERIMENTS.md",
            "DESIGN.md",
            "scripts/reproduce_all.sh",
            ".claude/skills/verify/SKILL.md",
        ]
        .iter()
        .map(|f| root.join(f))
        .collect();
        for entry in std::fs::read_dir(root.join("docs")).expect("docs/") {
            let path = entry.expect("docs/ entry").path();
            if path.extension().is_some_and(|e| e == "md") {
                files.push(path);
            }
        }
        let known = |name: &str| PROGRAMS.iter().any(|(n, _, _)| *n == name);
        let mut seen = std::collections::BTreeSet::new();
        for path in &files {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            for name in mentioned_names(&text) {
                assert!(known(name), "{}: `scalefbp-bench {name}`", path.display());
                seen.insert(name.to_string());
            }
        }
        for (name, _, _) in PROGRAMS {
            assert!(seen.contains(*name), "{name} is documented nowhere");
        }
        // The script loops over its list instead of spelling each command.
        let script = std::fs::read_to_string(root.join("scripts/reproduce_all.sh")).unwrap();
        let list = script
            .split_once("for name in")
            .and_then(|(_, rest)| rest.split_once("; do"))
            .expect("reproduce_all.sh loops `for name in …; do`")
            .0;
        for name in list.split(|c: char| c.is_whitespace() || c == '\\') {
            assert!(name.is_empty() || known(name), "reproduce_all.sh: {name}");
        }
    }

    #[test]
    fn name_scanner_reads_the_forms_the_docs_use() {
        let text = "run `scalefbp-bench scaling --quick`, or\n\
                    cargo run -p scalefbp-bench -- \\\n    fig12_roofline\n\
                    but not `scalefbp-bench` alone, scalefbp-bench <name>,\n\
                    -p scalefbp-bench --release or scalefbp-bench's.";
        assert_eq!(mentioned_names(text), ["scaling", "fig12_roofline"]);
    }
}
