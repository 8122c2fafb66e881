//! Stage-span tracing and the Figure 10 timeline rendering.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use scalefbp_faults::{RecoveryEvent, RecoveryLog};
use scalefbp_obs::{chrome_trace_json, EventSink, InstantEvent, SpanEvent, TraceEvent};

/// The rank that *acted* in a recovery event — the one whose timeline the
/// event lands on when recoveries become trace instants.
fn recovery_event_rank(ev: &RecoveryEvent) -> usize {
    match ev {
        RecoveryEvent::RankDeclaredDead { detected_by, .. } => *detected_by,
        RecoveryEvent::WorkRequeued { to_rank, .. } => *to_rank,
        RecoveryEvent::MessageRetry { rank, .. } => *rank,
        RecoveryEvent::DeviceRetry { rank, .. } => *rank,
        RecoveryEvent::IoRetry { rank, .. } => *rank,
        RecoveryEvent::LeaderSetDegraded { new_leader, .. } => *new_leader,
        RecoveryEvent::CorruptionDetected { rank, .. } => *rank,
        RecoveryEvent::StragglerDetected { rank, .. } => *rank,
        RecoveryEvent::SpeculativeWin { winner, .. } => *winner,
    }
}

/// One stage execution over one work item.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Stage name (e.g. `"load"`, `"bp"`).
    pub stage: String,
    /// Work-item (batch) index.
    pub item: usize,
    /// Start time in seconds (wall-clock or simulated, caller's choice —
    /// just be consistent within one collector).
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
}

/// Collects [`Span`]s from any number of stage threads and derives the
/// overlap metrics of Figure 10. Cheap to clone (shared storage).
#[derive(Clone, Default)]
pub struct TraceCollector {
    spans: Arc<Mutex<Vec<Span>>>,
    clamped: Arc<AtomicU64>,
    recoveries: Arc<Mutex<Vec<RecoveryEvent>>>,
    sink: EventSink,
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceCollector({} spans)", self.spans.lock().len())
    }
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The event sink receiving this collector's rate-limited diagnostics.
    pub fn sink(&self) -> &EventSink {
        &self.sink
    }

    /// Records one span. An inverted span (`end < start` — possible when
    /// stage clocks are read across threads under injected delays) is
    /// clamped to a zero-length span at `start` and counted in
    /// [`clamped_spans`](Self::clamped_spans) instead of panicking. The
    /// diagnostic goes through the event sink, rate-limited — recording
    /// is a hot path shared by every stage thread, and an injected-delay
    /// storm used to flood stderr from here.
    pub fn record(&self, stage: &str, item: usize, start: f64, end: f64) {
        let end = if end < start {
            self.clamped.fetch_add(1, Ordering::Relaxed);
            self.sink.warn(
                0,
                "trace.span_clamped",
                &format!("{stage}[{item}]: {end:.6} < {start:.6}"),
            );
            start
        } else {
            end
        };
        self.spans.lock().push(Span {
            stage: stage.to_string(),
            item,
            start,
            end,
        });
    }

    /// How many recorded spans had to be clamped because they ended
    /// before they started.
    pub fn clamped_spans(&self) -> u64 {
        self.clamped.load(Ordering::Relaxed)
    }

    /// Absorbs a [`RecoveryLog`] produced by a fault-tolerant run, so the
    /// timeline and the recovery history travel together.
    pub fn absorb_recovery_log(&self, log: &RecoveryLog) {
        self.recoveries.lock().extend(log.events());
    }

    /// Recovery events absorbed so far, canonically sorted.
    pub fn recovery_events(&self) -> Vec<RecoveryEvent> {
        let mut v = self.recoveries.lock().clone();
        v.sort();
        v
    }

    /// All spans, sorted by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().clone();
        v.sort_by(|a, b| a.start.total_cmp(&b.start));
        v
    }

    /// Stage names in order of first appearance.
    pub fn stages(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in self.spans() {
            if !out.contains(&s.stage) {
                out.push(s.stage.clone());
            }
        }
        out
    }

    /// Total busy seconds of one stage.
    pub fn stage_busy(&self, stage: &str) -> f64 {
        self.spans
            .lock()
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// End-to-end makespan (max end − min start), 0 if empty.
    pub fn makespan(&self) -> f64 {
        let spans = self.spans.lock();
        let start = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
        let end = spans
            .iter()
            .map(|s| s.end)
            .fold(f64::NEG_INFINITY, f64::max);
        if spans.is_empty() {
            0.0
        } else {
            end - start
        }
    }

    /// Overlap efficiency: busiest stage's busy time divided by the
    /// makespan. 1.0 means the pipeline is perfectly hidden behind its
    /// bottleneck stage (the ideal the paper's performance model assumes);
    /// the paper reports ~78 % of peak on average for the measured runs.
    pub fn overlap_efficiency(&self) -> f64 {
        let makespan = self.makespan();
        if makespan <= 0.0 {
            return 1.0;
        }
        let busiest = self
            .stages()
            .iter()
            .map(|st| self.stage_busy(st))
            .fold(0.0, f64::max);
        busiest / makespan
    }

    /// Renders the Figure 10 Gantt view: one row per stage, `width`
    /// character columns spanning the makespan, `#` where the stage is
    /// busy.
    pub fn render_ascii(&self, width: usize) -> String {
        assert!(width >= 10, "timeline width too small");
        let spans = self.spans();
        if spans.is_empty() {
            return String::from("(no spans)\n");
        }
        let t0 = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
        let t1 = spans.iter().map(|s| s.end).fold(0.0f64, f64::max);
        let dur = (t1 - t0).max(1e-12);
        let name_w = self
            .stages()
            .iter()
            .map(|s| s.len())
            .max()
            .unwrap_or(4)
            .max(5);
        let mut out = String::new();
        for stage in self.stages() {
            let mut row = vec![b' '; width];
            for s in spans.iter().filter(|s| s.stage == stage) {
                let a = (((s.start - t0) / dur) * width as f64).floor() as usize;
                let b = (((s.end - t0) / dur) * width as f64).ceil() as usize;
                for c in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *c = b'#';
                }
            }
            out.push_str(&format!(
                "{:>name_w$} |{}|\n",
                stage,
                String::from_utf8(row).unwrap()
            ));
        }
        out.push_str(&format!(
            "{:>name_w$} |0{:>w$}|\n",
            "t(s)",
            format!("{:.2}s", dur),
            w = width - 1
        ));
        let recoveries = self.recovery_events();
        if !recoveries.is_empty() {
            out.push_str(&format!("recoveries ({}):\n", recoveries.len()));
            for ev in &recoveries {
                out.push_str(&format!("  {ev}\n"));
            }
        }
        out
    }

    /// Converts the timeline to canonical [`TraceEvent`]s, attributing
    /// spans to `rank`. Span times round to integer microseconds with a
    /// per-track monotonic fix-up (rounding two abutting sub-µs spans
    /// independently could otherwise create a 1 µs overlap that the trace
    /// validator rejects). Recovery events become instants on the
    /// `"recovery"` track of the rank that acted, timestamped by their
    /// canonical index so the export never depends on the wall clock.
    pub fn trace_events(&self, rank: usize) -> Vec<TraceEvent> {
        let mut events = self.sink.events();
        let spans = self.spans();
        for stage in self.stages() {
            let mut cursor = 0u64;
            let mut stage_spans: Vec<&Span> = spans.iter().filter(|s| s.stage == stage).collect();
            stage_spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.item.cmp(&b.item)));
            for s in stage_spans {
                let ts = ((s.start.max(0.0)) * 1e6).round() as u64;
                let dur = (((s.end - s.start).max(0.0)) * 1e6).round() as u64;
                let ts = ts.max(cursor);
                cursor = ts + dur;
                events.push(TraceEvent::Span(SpanEvent {
                    rank,
                    track: stage.clone(),
                    start_us: ts,
                    dur_us: dur,
                    name: format!("{stage} #{}", s.item),
                }));
            }
        }
        for (i, ev) in self.recovery_events().iter().enumerate() {
            events.push(TraceEvent::Instant(InstantEvent {
                rank: recovery_event_rank(ev),
                track: "recovery".to_string(),
                ts_us: i as u64,
                name: ev.to_string(),
            }));
        }
        events.sort();
        events
    }

    /// Renders this collector's timeline (attributed to rank 0) as
    /// Chrome-trace JSON loadable by `chrome://tracing` or Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace_json(&self.trace_events(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceCollector {
        let t = TraceCollector::new();
        t.record("load", 0, 0.0, 1.0);
        t.record("bp", 0, 1.0, 3.0);
        t.record("load", 1, 1.0, 2.0);
        t.record("bp", 1, 3.0, 5.0);
        t
    }

    #[test]
    fn busy_and_makespan() {
        let t = sample();
        assert_eq!(t.stage_busy("load"), 2.0);
        assert_eq!(t.stage_busy("bp"), 4.0);
        assert_eq!(t.makespan(), 5.0);
    }

    #[test]
    fn overlap_efficiency_is_bottleneck_over_makespan() {
        let t = sample();
        assert!((t.overlap_efficiency() - 4.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_overlap_scores_one() {
        let t = TraceCollector::new();
        // One stage saturating the whole run.
        t.record("bp", 0, 0.0, 2.0);
        t.record("bp", 1, 2.0, 4.0);
        t.record("load", 0, 0.0, 0.5);
        assert!((t.overlap_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stages_keep_first_appearance_order() {
        let t = sample();
        assert_eq!(t.stages(), vec!["load".to_string(), "bp".to_string()]);
    }

    #[test]
    fn ascii_render_shows_rows_and_marks() {
        let t = sample();
        let s = t.render_ascii(40);
        assert!(s.contains("load |"));
        assert!(s.contains("bp |") || s.contains("  bp |"));
        assert!(s.contains('#'));
        // load busy first 40% of the line roughly.
        let load_line = s
            .lines()
            .find(|l| l.trim_start().starts_with("load"))
            .unwrap();
        let hashes = load_line.matches('#').count();
        assert!((12..=20).contains(&hashes), "load hashes {hashes}");
    }

    #[test]
    fn empty_collector_is_benign() {
        let t = TraceCollector::new();
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.overlap_efficiency(), 1.0);
        assert_eq!(t.render_ascii(20), "(no spans)\n");
    }

    #[test]
    fn clones_share_spans() {
        let t = TraceCollector::new();
        let t2 = t.clone();
        t.record("x", 0, 0.0, 1.0);
        assert_eq!(t2.spans().len(), 1);
    }

    #[test]
    fn inverted_span_clamped_and_counted() {
        let t = TraceCollector::new();
        t.record("x", 0, 2.0, 1.0);
        t.record("x", 1, 3.0, 4.0);
        assert_eq!(t.clamped_spans(), 1);
        let spans = t.spans();
        assert_eq!(spans[0].start, 2.0);
        assert_eq!(spans[0].end, 2.0); // clamped to zero length
        assert_eq!(t.makespan(), 2.0);
    }

    #[test]
    fn clamped_spans_warn_through_sink_without_flooding() {
        let t = TraceCollector::new();
        // A storm of inverted spans — this used to eprintln! per span on
        // the hot path; now the sink keeps at most WARN_EVENT_LIMIT
        // instants while the clamped counter tracks every occurrence.
        for i in 0..500 {
            t.record("bp", i, 2.0, 1.0);
        }
        assert_eq!(t.clamped_spans(), 500);
        assert_eq!(t.sink().warn_count("trace.span_clamped"), 500);
        let warn_instants = t
            .sink()
            .events()
            .into_iter()
            .filter(|e| e.track() == "warnings")
            .count();
        assert_eq!(warn_instants as u64, scalefbp_obs::WARN_EVENT_LIMIT);
    }

    #[test]
    fn chrome_export_is_valid_and_deterministic() {
        let export = || {
            let t = sample();
            let log = RecoveryLog::new();
            log.record(RecoveryEvent::DeviceRetry {
                rank: 0,
                op: "h2d".to_string(),
                attempt: 1,
            });
            t.absorb_recovery_log(&log);
            t.to_chrome_trace()
        };
        let json = export();
        let summary = scalefbp_obs::validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.spans, 4);
        assert_eq!(summary.instants, 1);
        assert_eq!(json, export());
    }

    #[test]
    fn sub_microsecond_spans_never_overlap_after_rounding() {
        let t = TraceCollector::new();
        // Rounding each span independently would put several of these on
        // the same microsecond; the monotonic fix-up must keep the track
        // valid.
        for i in 0..20 {
            let start = i as f64 * 0.4e-6;
            t.record("fast", i, start, start + 0.4e-6);
        }
        let json = t.to_chrome_trace();
        scalefbp_obs::validate_chrome_trace(&json).unwrap();
    }

    #[test]
    fn recovery_log_is_absorbed_and_rendered() {
        use scalefbp_faults::{RecoveryEvent, RecoveryLog};
        let t = sample();
        let log = RecoveryLog::new();
        log.record(RecoveryEvent::WorkRequeued {
            group: 0,
            from_rank: 2,
            to_rank: 1,
            chunk: 3,
        });
        log.record(RecoveryEvent::RankDeclaredDead {
            group: 0,
            rank: 2,
            detected_by: 0,
        });
        t.absorb_recovery_log(&log);
        assert_eq!(t.recovery_events().len(), 2);
        let rendered = t.render_ascii(40);
        assert!(rendered.contains("recoveries (2):"));
        assert!(rendered.contains("rank 2"));
    }
}
