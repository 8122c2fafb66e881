//! The whole benchmark in one command: every workload untraced, then
//! every workload traced, each in a fresh process exactly as the driver
//! would start it; then the checks of `--check` and `--repeat`.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::{number, quote};
use crate::options::{fresh_dir, Layout, Options};
use crate::report::{metrics_object, parse_result_line, ParsedResult, Spec};

/// One child run of one workload, as parsed from its last line.
struct Run {
    workload: String,
    traced: bool,
    rep: usize,
    result: ParsedResult,
}

/// Runs `exe` on one workload and returns its parsed result line. The
/// child's report is passed through to this process's standard output.
fn run_one(
    exe: &Path,
    workload: &str,
    traced: bool,
    seconds: f64,
    opts: &Options,
) -> Result<ParsedResult, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!(
            "{} on `{workload}` exited with {}",
            exe.display(),
            out.status
        ));
    }
    parse_result_line(&stdout)
}

/// Relative differences of repetition `rep` against repetition 0, held
/// against the bounds; counts must repeat exactly. Returns the
/// violations.
fn compare_repetitions(spec: &Spec, runs: &[Run], rep: usize) -> Vec<String> {
    let mut violations = Vec::new();
    println!("\n# repetition {rep} against repetition 0");
    let pick = |workload: &str, traced: bool, rep: usize| {
        runs.iter()
            .find(|r| r.workload == workload && r.traced == traced && r.rep == rep)
            .map(|r| &r.result)
    };
    for workload in &spec.workloads {
        if let (Some(a), Some(b)) = (pick(workload, false, 0), pick(workload, false, rep)) {
            for m in &spec.end_to_end {
                let (Some(x), Some(y)) = (a.value(&m.name), b.value(&m.name)) else {
                    continue;
                };
                let diff = (y - x).abs() / x.abs();
                let bound = m.bound.expect("end-to-end metrics have bounds");
                let verdict = if diff > bound { "EXCEEDS" } else { "within" };
                println!(
                    "{workload:<14} {:<28} {x:>14.6} -> {y:>14.6}  diff {diff:.4} {verdict} bound {bound}",
                    m.name
                );
                if diff > bound {
                    violations.push(format!(
                        "{}@{workload} differs by {diff:.4}, bound {bound}",
                        m.name
                    ));
                }
            }
        }
        if let (Some(a), Some(b)) = (pick(workload, true, 0), pick(workload, true, rep)) {
            for m in spec.per_layer.iter().filter(|m| m.unit == "count") {
                let (x, y) = (a.value(&m.name), b.value(&m.name));
                if x != y {
                    violations.push(format!(
                        "count {}@{workload} does not repeat: {x:?} then {y:?}",
                        m.name
                    ));
                }
            }
        }
    }
    violations
}

/// All runs as one JSON document, written beside the traces.
fn results_json(opts: &Options, seconds: f64, runs: &[Run]) -> String {
    let mut out = format!(
        "{{\"comparable\": {}, \"seed\": {}, \"seconds\": {}, \"runs\": [",
        !opts.quick,
        opts.seed,
        number(seconds)
    );
    for (i, r) in runs.iter().enumerate() {
        let metrics = r.result.metrics.iter();
        out.push_str(&format!(
            "{}\n{{\"workload\": {}, \"trace\": {}, \"rep\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"metrics\": {}}}",
            if i > 0 { "," } else { "" },
            quote(&r.workload),
            r.traced,
            r.rep,
            r.result.correct,
            r.result.attempted,
            r.result.failed,
            metrics_object(metrics.map(|(n, v, u)| (n.as_str(), *v, u.as_str())))
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Runs every workload of `BENCHMARK.json` (read from the current
/// directory) through both passes. An error means: do not trust or
/// compare the numbers.
pub fn run(layout: &Layout, opts: &Options) -> Result<(), String> {
    if opts.trace {
        return Err("--trace selects a pass of one --workload; the suite runs both".into());
    }
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    let seconds = opts.seconds.unwrap_or(spec.run_seconds as f64);
    fresh_dir(&layout.scratch)?;

    let mut runs = Vec::new();
    let mut problems = Vec::new();
    for rep in 0..opts.repeat {
        for traced in [false, true] {
            let exe = if traced {
                layout.sibling("bench-trace")
            } else {
                layout.exe.clone()
            };
            for workload in &spec.workloads {
                println!(
                    "\n# {workload}: {} pass, repetition {rep}",
                    if traced { "traced" } else { "end-to-end" }
                );
                let result = run_one(&exe, workload, traced, seconds, opts)?;
                if !result.correct || result.failed > 0 {
                    problems.push(format!(
                        "{workload}: {} of {} operations failed",
                        result.failed, result.attempted
                    ));
                }
                if opts.check {
                    for p in spec.check(&result, traced) {
                        problems.push(format!("{workload} (--trace {}): {p}", traced as u8));
                    }
                }
                runs.push(Run {
                    workload: workload.clone(),
                    traced,
                    rep,
                    result,
                });
            }
        }
    }
    for rep in 1..opts.repeat {
        problems.extend(compare_repetitions(&spec, &runs, rep));
    }

    let results = layout.scratch.join("results.json");
    std::fs::write(&results, results_json(opts, seconds, &runs))
        .map_err(|e| format!("{}: {e}", results.display()))?;
    println!(
        "\n# results: {}; traces: {}/trace-<workload>.json",
        results.display(),
        layout.scratch.display()
    );
    if opts.quick {
        println!("# QUICK RUN — NOT COMPARABLE with a full run");
    }
    if opts.check && problems.is_empty() {
        println!("# check: every result matches BENCHMARK.json");
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n  "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_of(workload: &str, traced: bool, rep: usize, metrics: &[(&str, f64, &str)]) -> Run {
        Run {
            workload: workload.into(),
            traced,
            rep,
            result: ParsedResult {
                correct: true,
                attempted: 1,
                failed: 0,
                metrics: metrics
                    .iter()
                    .map(|(n, v, u)| (n.to_string(), *v, u.to_string()))
                    .collect(),
            },
        }
    }

    #[test]
    fn repetitions_are_held_to_bounds_and_counts_to_equality() {
        let spec = Spec::parse(
            r#"{"run_seconds": 12, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.05}],
            "per_layer": [{"name": "a.count", "unit": "count", "better": "lower"},
                          {"name": "a.time_s", "unit": "s", "better": "lower"}]}"#,
        )
        .unwrap();
        let mut runs = vec![
            run_of("w", false, 0, &[("wall_s", 1.00, "s")]),
            run_of(
                "w",
                true,
                0,
                &[("a.count", 8.0, "count"), ("a.time_s", 1.0, "s")],
            ),
            run_of("w", false, 1, &[("wall_s", 1.04, "s")]),
            run_of(
                "w",
                true,
                1,
                &[("a.count", 8.0, "count"), ("a.time_s", 3.0, "s")],
            ),
        ];
        assert_eq!(compare_repetitions(&spec, &runs, 1), Vec::<String>::new());
        runs[2] = run_of("w", false, 1, &[("wall_s", 0.90, "s")]);
        runs[3] = run_of(
            "w",
            true,
            1,
            &[("a.count", 9.0, "count"), ("a.time_s", 1.0, "s")],
        );
        let violations = compare_repetitions(&spec, &runs, 1).join("; ");
        assert!(
            violations.contains("wall_s@w differs by 0.1000"),
            "{violations}"
        );
        assert!(
            violations.contains("count a.count@w does not repeat"),
            "{violations}"
        );
        let doc = crate::json::parse(&results_json(&Options::parse(vec![]).unwrap(), 12.0, &runs))
            .unwrap();
        assert_eq!(doc.get("runs").unwrap().as_array().unwrap().len(), 4);
    }
}
