//! The structured trace-event model.
//!
//! A [`TraceEvent`] generalises the pipeline's `Span`: every event lives
//! on a `(rank, track)` pair — rank maps to a Chrome-trace *process*,
//! track (a stage, a device engine or `recovery`) to a *thread* —
//! and carries integer microsecond timestamps taken from the simulated
//! timeline, never the wall clock.

/// A duration on a track. Field order defines the canonical sort:
/// rank, then track, then time.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanEvent {
    /// Owning rank (Chrome-trace pid).
    pub rank: usize,
    /// Track name (Chrome-trace tid), e.g. a pipeline stage.
    pub track: String,
    /// Start, integer microseconds of simulated time.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Event name shown in the trace viewer.
    pub name: String,
}

/// A zero-duration marker on a track (recovery events).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct InstantEvent {
    /// Owning rank (Chrome-trace pid).
    pub rank: usize,
    /// Track name (Chrome-trace tid).
    pub track: String,
    /// Timestamp, integer microseconds of simulated time.
    pub ts_us: u64,
    /// Event name shown in the trace viewer.
    pub name: String,
}

/// One trace event. `Ord` gives the canonical export order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceEvent {
    /// A duration.
    Span(SpanEvent),
    /// A point marker.
    Instant(InstantEvent),
}

impl TraceEvent {
    /// The owning rank.
    pub fn rank(&self) -> usize {
        match self {
            TraceEvent::Span(s) => s.rank,
            TraceEvent::Instant(i) => i.rank,
        }
    }

    /// The track name.
    pub fn track(&self) -> &str {
        match self {
            TraceEvent::Span(s) => &s.track,
            TraceEvent::Instant(i) => &i.track,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sort_canonically() {
        let span = |rank: usize, track: &str, start_us| {
            TraceEvent::Span(SpanEvent {
                rank,
                track: track.to_string(),
                start_us,
                dur_us: 5,
                name: format!("{track} #0"),
            })
        };
        let mut evs = [
            span(1, "bp", 10),
            span(0, "load", 0),
            TraceEvent::Instant(InstantEvent {
                rank: 0,
                track: "recovery".to_string(),
                ts_us: 2,
                name: "retry".to_string(),
            }),
        ];
        evs.sort();
        // Spans sort before instants; within spans, rank-major.
        assert_eq!(evs[0].rank(), 0);
        assert_eq!(evs[1].rank(), 1);
        assert!(matches!(evs[2], TraceEvent::Instant(_)));
    }
}
