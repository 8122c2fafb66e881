//! What a run prints: every metric by name with its unit, then — as the
//! last line of standard output — the one JSON object the driver reads.
//! Also reads that line back and holds it against `BENCHMARK.json`.

use std::path::Path;

use crate::json::{number, parse, quote, Value};
use crate::stats::{summarize, Summary};

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Present when the value is a median of timed samples.
    pub summary: Option<Summary>,
}

impl Metric {
    /// A count, a ratio, or a single measurement.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: None,
        }
    }

    /// The median of `samples`, with count and quartiles beside it.
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = summarize(samples);
        Metric {
            name,
            unit,
            value: summary.median,
            summary: Some(summary),
        }
    }
}

/// `{name: {"value": …, "unit": …}, …}`, the `metrics` member of a result.
pub fn metrics_object<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let members: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The outcome of one run of one workload.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, one line each.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Quick runs use quarter-size inputs: never compare their numbers.
    pub comparable: bool,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_object(self.metrics.iter().map(|m| (m.name, m.value, m.unit)))
        )
    }

    /// Prints the human-readable report, then the JSON line last.
    pub fn print(&self) {
        if !self.comparable {
            println!(
                "# QUICK RUN: quarter-size inputs, one repetition — NOT COMPARABLE with a full run"
            );
        }
        for m in &self.metrics {
            let beside = m.summary.map_or(String::new(), |s| format!("  ({s})"));
            let digits = if m.unit == "count" { 0 } else { 6 };
            println!(
                "{:<14} {:<28} {:>16.digits$} {}{beside}",
                self.workload, m.name, m.value, m.unit
            );
        }
        for f in &self.failures {
            println!("{:<14} FAILED: {f}", self.workload);
        }
        println!(
            "{:<14} attempted {} failed {} fail_frac {:.6}",
            self.workload,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!("{}", self.json_line());
    }
}

/// A result line read back.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ParsedResult {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Parses the last line of a run's standard output.
pub fn parse_result_line(stdout: &str) -> Result<ParsedResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let doc = parse(line).map_err(|e| format!("last line is not a result: {e}"))?;
    let members = doc.as_object().ok_or("result is not an object")?;
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let count = |key: &str| -> Result<u64, String> {
        let n = doc.get(key).and_then(Value::as_f64);
        n.filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
            .ok_or(format!("`{key}` is not a whole number"))
    };
    let mut metrics = Vec::new();
    for (name, m) in doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("`metrics` is not an object")?
    {
        let keys: Vec<&str> = m
            .as_object()
            .ok_or(format!("metric `{name}` is not an object"))?
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if keys != ["value", "unit"] {
            return Err(format!("metric `{name}` has keys {keys:?}"));
        }
        let value = m.get("value").and_then(Value::as_f64);
        let unit = m.get("unit").and_then(Value::as_str);
        match (value, unit) {
            (Some(v), Some(u)) => metrics.push((name.clone(), v, u.to_string())),
            _ => return Err(format!("metric `{name}` lacks a numeric value or a unit")),
        }
    }
    Ok(ParsedResult {
        correct: doc
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("`correct` is not a boolean")?,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark checks itself against.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// Names are letters, digits, `_`, `.`, `-`; at most 64; start alphanumeric.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("BENCHMARK.json has no `{key}` list"))
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = text_of(m, "better")?;
                    if better != "lower" && better != "higher" {
                        return Err(format!("`better` is `{better}`"));
                    }
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        let spec = Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json has no `run_seconds`")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };
        let mut names: Vec<&String> = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
            .collect();
        if let Some(bad) = names.iter().find(|n| !valid_name(n)) {
            return Err(format!("BENCHMARK.json name `{bad}` is not allowed"));
        }
        names.sort();
        if let Some(pair) = names.windows(2).find(|p| p[0] == p[1]) {
            return Err(format!("BENCHMARK.json uses the name `{}` twice", pair[0]));
        }
        if let Some(m) = spec.end_to_end.iter().find(|m| m.bound.is_none()) {
            return Err(format!("end-to-end metric `{}` has no bound", m.name));
        }
        Ok(spec)
    }

    /// Holds one run's result against the declaration: every declared
    /// metric of the pass present with its unit, and nothing else.
    /// Returns the problems found.
    pub fn check(&self, result: &ParsedResult, traced: bool) -> Vec<String> {
        let declared = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut problems = Vec::new();
        for spec in declared {
            match result.metrics.iter().find(|(n, _, _)| *n == spec.name) {
                None => problems.push(format!("metric `{}` is missing", spec.name)),
                Some((_, v, unit)) => {
                    if *unit != spec.unit {
                        problems.push(format!(
                            "metric `{}` has unit `{unit}`, declared `{}`",
                            spec.name, spec.unit
                        ));
                    }
                    if !v.is_finite() {
                        problems.push(format!("metric `{}` is not finite", spec.name));
                    }
                }
            }
        }
        for (name, _, _) in &result.metrics {
            if !valid_name(name) {
                problems.push(format!("metric name `{name}` is not allowed"));
            }
            if !declared.iter().any(|s| s.name == *name) {
                problems.push(format!("metric `{name}` is not declared"));
            }
        }
        if result.attempted == 0 {
            problems.push("`attempted` is 0".to_string());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            workload: "cube-incore".into(),
            attempted: 3,
            failed: 0,
            failures: vec![],
            metrics: vec![
                Metric::median("wall_s", "s", &[1.5, 1.7, 1.6]),
                Metric::single("setup_s", "s", 2.25),
            ],
            comparable: true,
        }
    }

    const SPEC: &str = r#"{
        "command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 12,
        "workloads": [{"name": "cube-incore", "why": "w"}, {"name": "serve-burst", "why": "w"}],
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.08},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
        "per_layer": [{"name": "cli.spawn_ms", "unit": "ms", "better": "lower"}]
    }"#;

    #[test]
    fn result_line_round_trips() {
        let r = result();
        let parsed = parse_result_line(&format!("chatter\n{}\n\n", r.json_line())).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (3, 0));
        assert_eq!(parsed.value("wall_s"), Some(1.6));
        assert_eq!(parsed.metrics[1], ("setup_s".into(), 2.25, "s".into()));
    }

    #[test]
    fn result_line_with_other_keys_is_refused() {
        assert!(parse_result_line("{\"correct\": true}").is_err());
        assert!(parse_result_line(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(parse_result_line("").is_err());
    }

    #[test]
    fn check_finds_missing_undeclared_and_mislabelled_metrics() {
        let spec = Spec::parse(SPEC).unwrap();
        assert_eq!(spec.run_seconds, 12);
        assert_eq!(spec.workloads, ["cube-incore", "serve-burst"]);
        let good = parse_result_line(&result().json_line()).unwrap();
        assert_eq!(spec.check(&good, false), Vec::<String>::new());

        let mut bad = good.clone();
        bad.metrics[0].2 = "ms".into();
        bad.metrics.remove(1);
        bad.metrics.push(("extra metric!".into(), 1.0, "s".into()));
        let problems = spec.check(&bad, false).join("; ");
        assert!(problems.contains("`wall_s` has unit `ms`"), "{problems}");
        assert!(problems.contains("`setup_s` is missing"), "{problems}");
        assert!(
            problems.contains("`extra metric!` is not allowed"),
            "{problems}"
        );
        assert!(
            problems.contains("`extra metric!` is not declared"),
            "{problems}"
        );
        // The traced pass is held against the per-layer list instead.
        assert!(spec.check(&good, true).join(";").contains("cli.spawn_ms"));
    }

    #[test]
    fn spec_refuses_bad_names_and_duplicates() {
        assert!(Spec::parse(&SPEC.replace("cli.spawn_ms", "wall_s")).is_err());
        assert!(Spec::parse(&SPEC.replace("cli.spawn_ms", "cli spawn")).is_err());
        assert!(Spec::parse(&SPEC.replace(", \"bound\": 0.08", "")).is_err());
        assert!(valid_name("a.b-c_9") && !valid_name(".a") && !valid_name(&"x".repeat(65)));
    }
}
