//! Chrome-trace JSON export and the matching validator.
//!
//! The output is the Trace Event Format's JSON-object flavour
//! (`{"traceEvents": [...]}`) with `"X"` complete events for spans,
//! `"i"` instants, and `"M"` metadata naming each process (`rank N`) and
//! thread (track name). Both `chrome://tracing` and Perfetto load it
//! directly. Everything — event order, tid assignment, number formatting
//! — is canonical, so the same workload always serialises to the same
//! bytes (the golden-trace tests diff the raw strings).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::TraceEvent;
use crate::json::{parse_json, write_json_escaped, JsonValue};

/// Renders events as Chrome-trace JSON.
///
/// tids are assigned per rank in sorted track order, starting at 1 (tid 0
/// is left to the implicit process row). Events are emitted in canonical
/// [`TraceEvent`] order after the metadata block.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut events = events.to_vec();
    events.sort();

    // (rank, track) -> tid, assigned in sorted order.
    let mut tids: BTreeMap<(usize, String), u64> = BTreeMap::new();
    for e in &events {
        tids.entry((e.rank(), e.track().to_string())).or_insert(0);
    }
    let mut next: BTreeMap<usize, u64> = BTreeMap::new();
    for ((rank, _), tid) in tids.iter_mut() {
        let n = next.entry(*rank).or_insert(1);
        *tid = *n;
        *n += 1;
    }

    let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    let mut first = true;
    let push_event = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    // Metadata: name every process and thread.
    let mut ranks_named: Vec<usize> = Vec::new();
    for ((rank, track), tid) in &tids {
        if !ranks_named.contains(rank) {
            ranks_named.push(*rank);
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {rank}, \"tid\": 0, \
                 \"args\": {{\"name\": \"rank {rank}\"}}}}"
            );
            push_event(line, &mut out, &mut first);
        }
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {rank}, \"tid\": {tid}, \
             \"args\": {{\"name\": "
        );
        write_json_escaped(&mut line, track);
        line.push_str("}}");
        push_event(line, &mut out, &mut first);
    }

    for e in &events {
        let tid = tids[&(e.rank(), e.track().to_string())];
        let mut line = String::new();
        match e {
            TraceEvent::Span(s) => {
                line.push_str("{\"name\": ");
                write_json_escaped(&mut line, &s.name);
                let _ = write!(
                    line,
                    ", \"cat\": \"span\", \"ph\": \"X\", \"pid\": {}, \"tid\": {tid}, \
                     \"ts\": {}, \"dur\": {}}}",
                    s.rank, s.start_us, s.dur_us
                );
            }
            TraceEvent::Instant(i) => {
                line.push_str("{\"name\": ");
                write_json_escaped(&mut line, &i.name);
                let _ = write!(
                    line,
                    ", \"cat\": \"instant\", \"ph\": \"i\", \"s\": \"t\", \"pid\": {}, \
                     \"tid\": {tid}, \"ts\": {}}}",
                    i.rank, i.ts_us
                );
            }
        }
        push_event(line, &mut out, &mut first);
    }
    out.push_str("\n]\n}\n");
    out
}

/// What [`validate_chrome_trace`] found in a well-formed trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Number of `"X"` complete events.
    pub spans: usize,
    /// Number of `"i"` instant events.
    pub instants: usize,
    /// Number of distinct `(pid, tid)` pairs carrying spans or instants.
    pub tracks: usize,
}

/// Parses a Chrome-trace file and checks the invariants the golden tests
/// rely on: every span has numeric `pid`/`tid`/`ts`/`dur`, every instant
/// has `pid`/`tid`/`ts`, and spans on one `(pid, tid)` track never
/// overlap (each starts at or after the previous one's end).
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = parse_json(text).map_err(|e| format!("trace JSON does not parse: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"traceEvents\" array")?;

    let mut summary = TraceSummary::default();
    let mut per_track: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();

    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let field = |name: &str| -> Result<u64, String> {
            e.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("event {i} (ph={ph}): missing numeric {name:?}"))
        };
        match ph {
            "X" => {
                e.get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("event {i}: span without name"))?;
                let (pid, tid) = (field("pid")?, field("tid")?);
                let (ts, dur) = (field("ts")?, field("dur")?);
                per_track.entry((pid, tid)).or_default().push((ts, dur));
                summary.spans += 1;
            }
            "i" | "I" => {
                let (pid, tid, _ts) = (field("pid")?, field("tid")?, field("ts")?);
                per_track.entry((pid, tid)).or_default();
                summary.instants += 1;
            }
            "M" => {}
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }

    summary.tracks = per_track.len();
    for ((pid, tid), mut spans) in per_track {
        spans.sort_unstable();
        for w in spans.windows(2) {
            let (ts0, dur0) = w[0];
            let (ts1, _) = w[1];
            if ts1 < ts0 + dur0 {
                return Err(format!(
                    "overlapping spans on pid {pid} tid {tid}: \
                     [{ts0}, {}) then start {ts1}",
                    ts0 + dur0
                ));
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{InstantEvent, SpanEvent};

    fn span(rank: usize, track: &str, name: &str, start_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent::Span(SpanEvent {
            rank,
            track: track.to_string(),
            start_us,
            dur_us,
            name: name.to_string(),
        })
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            span(0, "load", "load #0", 0, 100),
            span(0, "load", "load #1", 100, 80),
            span(0, "bp", "bp #0", 100, 300),
            span(1, "bp", "bp #0", 50, 200),
            TraceEvent::Instant(InstantEvent {
                rank: 0,
                track: "recovery".to_string(),
                ts_us: 120,
                name: "retry h2d".to_string(),
            }),
        ]
    }

    #[test]
    fn export_validates_and_counts() {
        let json = chrome_trace_json(&sample_events());
        let summary = validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.spans, 4);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.tracks, 4); // (0,load) (0,bp) (0,recovery) (1,bp)
    }

    #[test]
    fn export_is_byte_deterministic() {
        let a = chrome_trace_json(&sample_events());
        let b = chrome_trace_json(&sample_events());
        assert_eq!(a, b);
    }

    #[test]
    fn overlap_is_rejected() {
        let json = chrome_trace_json(&[span(0, "t", "a", 0, 100), span(0, "t", "b", 50, 100)]);
        let err = validate_chrome_trace(&json).unwrap_err();
        assert!(err.contains("overlapping"), "{err}");
    }

    #[test]
    fn same_track_on_two_ranks_does_not_collide() {
        // Would overlap if pids merged.
        let json = chrome_trace_json(&[span(0, "bp", "a", 0, 100), span(1, "bp", "b", 50, 100)]);
        assert!(validate_chrome_trace(&json).is_ok());
    }

    #[test]
    fn metadata_names_ranks_and_tracks() {
        let json = chrome_trace_json(&sample_events());
        assert!(json.contains("\"rank 0\""));
        assert!(json.contains("\"rank 1\""));
        assert!(json.contains("\"load\""));
        assert!(json.contains("process_name"));
        assert!(json.contains("thread_name"));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }
}
