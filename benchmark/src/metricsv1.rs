//! Reader for the `scalefbp-metrics-v1` document the CLI writes with
//! `--metrics-out`: the source of every count the benchmark reports that
//! it cannot take from outside the program.

use crate::json::{parse, Value};

/// One entry of the export, whatever rank reported it. Histograms keep
/// only their `count`.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    pub name: String,
    pub kind: String,
    pub value: f64,
}

/// A parsed `--metrics-out` export.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub entries: Vec<Entry>,
}

impl Snapshot {
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let doc = parse(text)?;
        let format = doc.get("format").and_then(Value::as_str);
        if format != Some("scalefbp-metrics-v1") {
            return Err(format!("not a scalefbp-metrics-v1 document: {format:?}"));
        }
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_array)
            .ok_or("metrics export has no `metrics` array")?;
        let mut entries = Vec::with_capacity(metrics.len());
        for m in metrics {
            let field = |key: &str| m.get(key).ok_or(format!("metric entry lacks `{key}`"));
            let name = field("name")?
                .as_str()
                .ok_or("metric name is not a string")?;
            let kind = field("type")?
                .as_str()
                .ok_or("metric type is not a string")?;
            let value = field(if kind == "histogram" {
                "count"
            } else {
                "value"
            })?
            .as_f64()
            .ok_or(format!("metric `{name}` has no numeric value"))?;
            entries.push(Entry {
                name: name.to_string(),
                kind: kind.to_string(),
                value,
            });
        }
        Ok(Snapshot { entries })
    }

    /// The counter `name` summed over every rank that reports it, or
    /// `None` if no rank does.
    pub fn counter(&self, name: &str) -> Option<u64> {
        let mut found = false;
        let mut sum = 0u64;
        for e in &self.entries {
            if e.name == name && e.kind == "counter" {
                found = true;
                sum += e.value as u64;
            }
        }
        found.then_some(sum)
    }

    /// [`counter`](Self::counter), with a missing counter an error.
    pub fn require(&self, name: &str) -> Result<u64, String> {
        self.counter(name)
            .ok_or(format!("metrics export has no counter `{name}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `scalefbp serve --jobs 12 --devices 2 --tenants 3 --rate 200
    /// --seed 2021 --backend cpu --metrics-out …`, as written at the
    /// commit that added the benchmark.
    const FIXTURE: &str = include_str!("../tests/fixtures/serve-metrics-v1.json");

    #[test]
    fn reads_the_checked_in_export() {
        let snap = Snapshot::parse(FIXTURE).unwrap();
        assert_eq!(snap.counter("serve.jobs.completed"), Some(12));
        assert_eq!(snap.counter("serve.batches"), Some(9));
        // Per-rank counters are summed.
        assert_eq!(snap.counter("gpu.kernel.updates"), Some(247_296 + 260_352));
        assert_eq!(snap.counter("serve.tenant.jobs.completed"), Some(12));
        // A gauge is not a counter; a histogram is kept by its count.
        assert_eq!(snap.counter("serve.queue.depth.peak"), None);
        let hist = snap
            .entries
            .iter()
            .find(|e| e.name == "serve.job.latency.nanos")
            .unwrap();
        assert_eq!((hist.kind.as_str(), hist.value), ("histogram", 12.0));
        assert!(snap.require("no.such.counter").is_err());
    }

    #[test]
    fn rejects_other_documents() {
        assert!(Snapshot::parse("{\"format\": \"v2\", \"metrics\": []}").is_err());
        assert!(Snapshot::parse("{\"format\": \"scalefbp-metrics-v1\"}").is_err());
        assert!(Snapshot::parse(
            "{\"format\": \"scalefbp-metrics-v1\", \"metrics\": [{\"name\": \"x\"}]}"
        )
        .is_err());
        assert!(Snapshot::parse("not json").is_err());
    }
}
