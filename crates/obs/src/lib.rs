//! Deterministic observability for the scalefbp stack.
//!
//! Everything in this crate is driven by *simulated* quantities — byte
//! counts, modelled seconds, operation indices — never the wall clock, so
//! every exported artifact (Chrome-trace JSON, metrics snapshot, stats
//! table) is byte-identical across runs of the same seeded workload. That
//! determinism is what lets the golden-trace test suite pin the exact
//! output and what makes per-rank snapshots exactly mergeable.
//!
//! The crate has four pieces:
//!
//! * [`MetricsRegistry`] — lock-cheap counters, gauges, and fixed-bucket
//!   histograms, each optionally labelled with an MPI rank. Handles are
//!   plain `Arc<AtomicU64>` wrappers, so the hot path is one atomic op.
//! * [`MetricsSnapshot`] — an immutable copy of a registry with an
//!   associative, commutative [`merge`](MetricsSnapshot::merge): counters
//!   add, gauges take the max, histograms add bucket-wise. All sums are
//!   integers (bytes, counts, nanoseconds) so the merge is *exact*.
//! * [`TraceEvent`] — the structured event model that subsumes the
//!   pipeline `Span`: spans and instants on named tracks.
//! * [`chrome_trace_json`] — renders events as Chrome-trace JSON loadable
//!   by `chrome://tracing` and Perfetto, with [`validate_chrome_trace`]
//!   as the matching parser-side check used by tests and CI.

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;

pub use chrome::{chrome_trace_json, validate_chrome_trace, TraceSummary};
pub use event::{InstantEvent, SpanEvent, TraceEvent};
pub use json::{parse_json, JsonError, JsonValue};
pub use metrics::{
    validate_metrics_json, Counter, Gauge, Histogram, MetricKey, MetricValue, MetricsRegistry,
    MetricsSnapshot,
};
