//! The metrics registry and its mergeable snapshots.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic**: nothing here reads a clock. Durations enter as
//!    simulated nanoseconds, sizes as bytes. Snapshots render with
//!    `BTreeMap` ordering, so serialization is canonical.
//! 2. **Exactly mergeable**: every accumulating value is a `u64`
//!    (saturating adds form a commutative monoid); gauges merge by `max`.
//!    A distributed run's global snapshot therefore *equals* the merge of
//!    its per-rank snapshots, bit for bit — a property the proptests pin.
//! 3. **Lock-cheap**: the registry mutex is only taken when a handle is
//!    first created; after that every increment is a single atomic op on
//!    an `Arc<AtomicU64>`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::json::{parse_json, write_json_escaped, JsonValue};

/// Identifies one metric: a dotted name plus an optional MPI-rank label.
///
/// Rank-labelled metrics keep per-rank attribution (`mpi.send.bytes` on
/// rank 3); unlabelled metrics are process-global (shared storage
/// endpoints). `Ord` puts the unlabelled entry before any rank.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Dotted metric name, e.g. `"gpu.h2d.bytes"`.
    pub name: String,
    /// Owning rank, or `None` for process-global metrics.
    pub rank: Option<usize>,
}

impl MetricKey {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, rank: Option<usize>) -> Self {
        MetricKey {
            name: name.into(),
            rank,
        }
    }
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.rank {
            Some(r) => write!(f, "{}[rank {}]", self.name, r),
            None => write!(f, "{}", self.name),
        }
    }
}

/// A monotonically increasing `u64`. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating, so merges stay associative even at the rim).
    pub fn add(&self, n: u64) {
        self.0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            })
            .ok();
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last/max-value gauge stored as `f64` bits. Merges by `max`, which is
/// associative and commutative — the right semantics for peaks
/// (high-water marks, queue occupancy).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Sets the gauge unconditionally.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (CAS loop).
    pub fn raise(&self, v: f64) {
        self.0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                let cur = f64::from_bits(bits);
                if v > cur {
                    Some(v.to_bits())
                } else {
                    None
                }
            })
            .ok();
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    /// Upper bucket bounds (inclusive), strictly increasing; an implicit
    /// overflow bucket catches everything above the last bound.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram over `u64` observations (bytes, simulated
/// nanoseconds). All state is integer, so merging two histograms is an
/// exact bucket-wise addition.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn with_bounds(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.0.bounds.partition_point(|&b| b < v);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            })
            .ok();
    }

    /// Records a simulated duration in seconds as integer nanoseconds
    /// (negative or non-finite inputs count as zero).
    pub fn observe_secs(&self, secs: f64) {
        let nanos = if secs.is_finite() && secs > 0.0 {
            (secs * 1e9).round() as u64
        } else {
            0
        };
        self.observe(nanos);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    fn value(&self) -> MetricValue {
        MetricValue::Histogram {
            bounds: self.0.bounds.clone(),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, Counter>,
    gauges: BTreeMap<MetricKey, Gauge>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

/// The process-wide metric store. Cloning shares state; a fresh registry
/// per run keeps runs independent.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        write!(
            f,
            "MetricsRegistry({} counters, {} gauges, {} histograms)",
            inner.counters.len(),
            inner.gauges.len(),
            inner.histograms.len()
        )
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A process-global counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_for(name, None)
    }

    /// A rank-labelled counter.
    pub fn rank_counter(&self, name: &str, rank: usize) -> Counter {
        self.counter_for(name, Some(rank))
    }

    fn counter_for(&self, name: &str, rank: Option<usize>) -> Counter {
        let key = MetricKey::new(name, rank);
        let mut inner = self.inner.lock();
        assert!(
            !inner.gauges.contains_key(&key) && !inner.histograms.contains_key(&key),
            "metric {key} already registered with a different kind"
        );
        inner.counters.entry(key).or_default().clone()
    }

    /// A process-global gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_for(name, None)
    }

    /// A rank-labelled gauge.
    pub fn rank_gauge(&self, name: &str, rank: usize) -> Gauge {
        self.gauge_for(name, Some(rank))
    }

    fn gauge_for(&self, name: &str, rank: Option<usize>) -> Gauge {
        let key = MetricKey::new(name, rank);
        let mut inner = self.inner.lock();
        assert!(
            !inner.counters.contains_key(&key) && !inner.histograms.contains_key(&key),
            "metric {key} already registered with a different kind"
        );
        inner.gauges.entry(key).or_default().clone()
    }

    /// A process-global histogram with the given inclusive upper bounds.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.histogram_for(name, None, bounds)
    }

    /// A rank-labelled histogram.
    pub fn rank_histogram(&self, name: &str, rank: usize, bounds: &[u64]) -> Histogram {
        self.histogram_for(name, Some(rank), bounds)
    }

    fn histogram_for(&self, name: &str, rank: Option<usize>, bounds: &[u64]) -> Histogram {
        let key = MetricKey::new(name, rank);
        let mut inner = self.inner.lock();
        assert!(
            !inner.counters.contains_key(&key) && !inner.gauges.contains_key(&key),
            "metric {key} already registered with a different kind"
        );
        let h = inner
            .histograms
            .entry(key.clone())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone();
        assert!(
            h.0.bounds == bounds,
            "histogram {key} re-registered with different bounds"
        );
        h
    }

    /// An immutable, canonically ordered copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let mut entries = BTreeMap::new();
        for (k, c) in &inner.counters {
            entries.insert(k.clone(), MetricValue::Counter(c.get()));
        }
        for (k, g) in &inner.gauges {
            entries.insert(k.clone(), MetricValue::Gauge(g.get()));
        }
        for (k, h) in &inner.histograms {
            entries.insert(k.clone(), h.value());
        }
        MetricsSnapshot { entries }
    }
}

/// One snapshotted metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic count; merges by saturating addition.
    Counter(u64),
    /// Peak value; merges by `max`.
    Gauge(f64),
    /// Fixed-bucket histogram; merges bucket-wise.
    Histogram {
        /// Inclusive upper bounds, strictly increasing.
        bounds: Vec<u64>,
        /// `bounds.len() + 1` bucket counts (last is overflow).
        buckets: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
    },
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        }
    }

    /// The associative, commutative combine used by [`MetricsSnapshot::merge`].
    ///
    /// Panics on kind or bucket-bound mismatch — merging incompatible
    /// metrics is a programming error, not a runtime condition.
    pub fn merge(&self, other: &MetricValue) -> MetricValue {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                MetricValue::Counter(a.saturating_add(*b))
            }
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => MetricValue::Gauge(a.max(*b)),
            (
                MetricValue::Histogram {
                    bounds: ba,
                    buckets: ka,
                    count: ca,
                    sum: sa,
                },
                MetricValue::Histogram {
                    bounds: bb,
                    buckets: kb,
                    count: cb,
                    sum: sb,
                },
            ) => {
                assert!(ba == bb, "cannot merge histograms with different bounds");
                MetricValue::Histogram {
                    bounds: ba.clone(),
                    buckets: ka
                        .iter()
                        .zip(kb)
                        .map(|(x, y)| x.saturating_add(*y))
                        .collect(),
                    count: ca.saturating_add(*cb),
                    sum: sa.saturating_add(*sb),
                }
            }
            (a, b) => panic!("cannot merge {} with {}", a.kind(), b.kind()),
        }
    }
}

/// An immutable set of metrics, canonically ordered and exactly
/// mergeable. This is the unit that crosses rank boundaries and lands in
/// `--metrics-out` files.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: BTreeMap<MetricKey, MetricValue>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a snapshot from explicit entries (tests, proptests).
    pub fn from_entries(entries: impl IntoIterator<Item = (MetricKey, MetricValue)>) -> Self {
        MetricsSnapshot {
            entries: entries.into_iter().collect(),
        }
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metrics are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in canonical order.
    pub fn entries(&self) -> impl Iterator<Item = (&MetricKey, &MetricValue)> {
        self.entries.iter()
    }

    /// Looks up a counter value.
    pub fn counter(&self, name: &str, rank: Option<usize>) -> Option<u64> {
        match self.entries.get(&MetricKey::new(name, rank)) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a gauge value.
    pub fn gauge(&self, name: &str, rank: Option<usize>) -> Option<f64> {
        match self.entries.get(&MetricKey::new(name, rank)) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Raw lookup.
    pub fn get(&self, key: &MetricKey) -> Option<&MetricValue> {
        self.entries.get(key)
    }

    /// Ranks appearing in any key, ascending.
    pub fn ranks(&self) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for k in self.entries.keys() {
            if let Some(r) = k.rank {
                if !out.contains(&r) {
                    out.push(r);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Only the entries labelled with `rank`.
    pub fn rank_view(&self, rank: usize) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| k.rank == Some(rank))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Only the unlabelled (process-global) entries.
    pub fn unranked_view(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| k.rank.is_none())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Collapses the rank dimension: all entries sharing a name are merged
    /// into one unlabelled entry. `aggregate(merge(ranks)) == aggregate(global)`.
    pub fn aggregate(&self) -> MetricsSnapshot {
        let mut out: BTreeMap<MetricKey, MetricValue> = BTreeMap::new();
        for (k, v) in &self.entries {
            let key = MetricKey::new(k.name.clone(), None);
            match out.entry(key) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let merged = e.get().merge(v);
                    e.insert(merged);
                }
            }
        }
        MetricsSnapshot { entries: out }
    }

    /// The associative, commutative union of two snapshots: keys present
    /// in both are combined with [`MetricValue::merge`].
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.entries.clone();
        for (k, v) in &other.entries {
            match out.entry(k.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let merged = e.get().merge(v);
                    e.insert(merged);
                }
            }
        }
        MetricsSnapshot { entries: out }
    }

    /// Renders the canonical flat-JSON form written by `--metrics-out`.
    ///
    /// Formatting is deterministic: BTreeMap order, integer values where
    /// possible, and Rust's shortest-roundtrip `f64` display for gauges.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"format\": \"scalefbp-metrics-v1\",\n  \"metrics\": [");
        let mut first = true;
        for (k, v) in &self.entries {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    {\"name\": ");
            write_json_escaped(&mut out, &k.name);
            if let Some(r) = k.rank {
                let _ = write!(out, ", \"rank\": {r}");
            }
            match v {
                MetricValue::Counter(c) => {
                    let _ = write!(out, ", \"type\": \"counter\", \"value\": {c}}}");
                }
                MetricValue::Gauge(g) => {
                    let g = if g.is_finite() { *g } else { 0.0 };
                    let _ = write!(out, ", \"type\": \"gauge\", \"value\": {g}}}");
                }
                MetricValue::Histogram {
                    bounds,
                    buckets,
                    count,
                    sum,
                } => {
                    let _ = write!(
                        out,
                        ", \"type\": \"histogram\", \"bounds\": {bounds:?}, \
                         \"buckets\": {buckets:?}, \"count\": {count}, \"sum\": {sum}}}"
                    );
                }
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the human `--stats` table.
    pub fn render_table(&self) -> String {
        if self.entries.is_empty() {
            return String::from("(no metrics)\n");
        }
        let name_w = self
            .entries
            .keys()
            .map(|k| k.to_string().len())
            .max()
            .unwrap_or(6)
            .max(6);
        let mut out = format!("{:<name_w$}  value\n", "metric");
        for (k, v) in &self.entries {
            let rendered = match v {
                MetricValue::Counter(c) => format!("{c}"),
                MetricValue::Gauge(g) => format!("{g}"),
                MetricValue::Histogram { count, sum, .. } => {
                    let mean = sum.checked_div(*count).unwrap_or(0);
                    format!("count={count} sum={sum} mean={mean}")
                }
            };
            let _ = writeln!(out, "{:<name_w$}  {rendered}", k.to_string());
        }
        out
    }
}

/// Parses and structurally checks a `--metrics-out` file; returns the
/// number of metrics on success. Used by `scalefbp trace-validate`, the
/// golden tests, and the CI smoke step.
pub fn validate_metrics_json(text: &str) -> Result<usize, String> {
    let doc = parse_json(text).map_err(|e| format!("metrics JSON does not parse: {e}"))?;
    let format = doc
        .get("format")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"format\" field")?;
    if format != "scalefbp-metrics-v1" {
        return Err(format!("unexpected format {format:?}"));
    }
    let metrics = doc
        .get("metrics")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"metrics\" array")?;
    for (i, m) in metrics.iter().enumerate() {
        let name = m
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("metric {i}: missing name"))?;
        let ty = m
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("metric {name}: missing type"))?;
        match ty {
            "counter" | "gauge" => {
                m.get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("metric {name}: missing value"))?;
            }
            "histogram" => {
                let bounds = m
                    .get("bounds")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| format!("metric {name}: missing bounds"))?;
                let buckets = m
                    .get("buckets")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| format!("metric {name}: missing buckets"))?;
                if buckets.len() != bounds.len() + 1 {
                    return Err(format!(
                        "metric {name}: {} buckets for {} bounds",
                        buckets.len(),
                        bounds.len()
                    ));
                }
            }
            other => return Err(format!("metric {name}: unknown type {other:?}")),
        }
    }
    Ok(metrics.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(reg.snapshot().counter("x", None), Some(4));
    }

    #[test]
    fn rank_labels_are_distinct() {
        let reg = MetricsRegistry::new();
        reg.rank_counter("n", 0).add(1);
        reg.rank_counter("n", 1).add(2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("n", Some(0)), Some(1));
        assert_eq!(snap.counter("n", Some(1)), Some(2));
        assert_eq!(snap.ranks(), vec![0, 1]);
    }

    #[test]
    fn gauge_raise_keeps_peak() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("peak");
        g.raise(2.0);
        g.raise(1.0);
        g.raise(3.0);
        assert_eq!(reg.snapshot().gauge("peak", None), Some(3.0));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[10, 100]);
        h.observe(5);
        h.observe(10); // inclusive upper bound
        h.observe(50);
        h.observe(1000); // overflow
        match reg.snapshot().get(&MetricKey::new("lat", None)).unwrap() {
            MetricValue::Histogram {
                buckets,
                count,
                sum,
                ..
            } => {
                assert_eq!(buckets, &vec![2, 1, 1]);
                assert_eq!(*count, 4);
                assert_eq!(*sum, 1065);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let a = MetricsSnapshot::from_entries([
            (MetricKey::new("c", None), MetricValue::Counter(2)),
            (MetricKey::new("g", None), MetricValue::Gauge(5.0)),
        ]);
        let b = MetricsSnapshot::from_entries([
            (MetricKey::new("c", None), MetricValue::Counter(3)),
            (MetricKey::new("g", None), MetricValue::Gauge(4.0)),
            (MetricKey::new("only-b", None), MetricValue::Counter(7)),
        ]);
        let m = a.merge(&b);
        assert_eq!(m.counter("c", None), Some(5));
        assert_eq!(m.gauge("g", None), Some(5.0));
        assert_eq!(m.counter("only-b", None), Some(7));
        assert_eq!(m, b.merge(&a));
    }

    #[test]
    fn aggregate_collapses_ranks() {
        let reg = MetricsRegistry::new();
        reg.rank_counter("n", 0).add(1);
        reg.rank_counter("n", 2).add(4);
        let agg = reg.snapshot().aggregate();
        assert_eq!(agg.counter("n", None), Some(5));
        assert!(agg.ranks().is_empty());
    }

    #[test]
    fn snapshot_json_round_trips_through_validator() {
        let reg = MetricsRegistry::new();
        reg.rank_counter("mpi.send.bytes", 0).add(128);
        reg.gauge("gpu.mem.peak_bytes").raise(1.5e9);
        reg.histogram("io.read.latency_nanos", &[1_000, 1_000_000])
            .observe(500);
        let json = reg.snapshot().to_json();
        assert_eq!(validate_metrics_json(&json), Ok(3));
    }

    #[test]
    fn json_is_deterministic() {
        let build = || {
            let reg = MetricsRegistry::new();
            reg.rank_counter("b", 1).add(2);
            reg.counter("a").add(1);
            reg.snapshot().to_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn table_renders_every_metric() {
        let reg = MetricsRegistry::new();
        reg.counter("alpha").add(3);
        reg.rank_counter("beta", 1).add(4);
        let table = reg.snapshot().render_table();
        assert!(table.contains("alpha"));
        assert!(table.contains("beta[rank 1]"));
        assert!(table.contains('3') && table.contains('4'));
    }
}
