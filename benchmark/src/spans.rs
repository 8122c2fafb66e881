//! The benchmark's own span recorder. Spans are taken from outside the
//! program, around calls into public functions; they live in memory until
//! the run ends and are then written as one Chrome trace.

use std::time::Instant;

use crate::json::{number, quote};

/// One recorded interval. Times are seconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share an identifier.
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span log with a stack of open spans.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Seconds since the recorder started.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Starts a new operation: spans recorded from now on carry a fresh
    /// identifier, which is returned.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Runs `f` under a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        result
    }

    /// Adopts spans recorded by another process (a staged child), whose
    /// clock started at `offset` seconds on this recorder's clock. Their
    /// roots become children of the innermost open span.
    pub fn adopt(&mut self, spans: &[Span], offset: f64) {
        let base = self.spans.len();
        let root_parent = self.open.last().copied();
        for s in spans {
            self.spans.push(Span {
                name: s.name.clone(),
                start: s.start + offset,
                end: s.end + offset,
                parent: s.parent.map(|p| p + base).or(root_parent),
                op: self.op,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The Chrome trace (`chrome://tracing`, Perfetto) of everything
    /// recorded: one complete event per span, one track per operation.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"id\": {id}, \"parent\": {}, \"self_us\": {}}}}}",
                quote(&s.name),
                s.op,
                number(s.start * 1e6),
                number(s.duration() * 1e6),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                number(self_time(&self.spans, id) * 1e6),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Children may overlap each other (threads) and
/// may stick out of the parent (clock offset of an adopted child); the
/// covered part is the union of the children clipped to the parent.
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(me.start), s.end.min(me.end)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.partial_cmp(b).expect("span time is NaN"));
    let mut covered = 0.0;
    let mut frontier = me.start;
    for (a, b) in children {
        let a = a.max(frontier);
        if b > a {
            covered += b - a;
            frontier = b;
        }
    }
    me.duration() - covered
}

/// Serialises spans for the pipe from a staged child to its parent: one
/// `span <start> <end> <parent|-> <name>` line each.
pub fn spans_to_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!("span {} {} {parent} {}\n", s.start, s.end, s.name));
    }
    out
}

/// Reads back what [`spans_to_lines`] wrote; other lines are skipped.
pub fn spans_from_lines(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("span ") else {
            continue;
        };
        let mut parts = rest.splitn(4, ' ');
        let bad = || format!("malformed span line `{line}`");
        let start: f64 = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
        let end: f64 = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
        let parent = match parts.next().ok_or_else(bad)? {
            "-" => None,
            p => Some(p.parse::<usize>().map_err(|_| bad())?),
        };
        if parent.is_some_and(|p| p >= spans.len()) {
            return Err(bad());
        }
        let name = parts.next().ok_or_else(bad)?.to_string();
        spans.push(Span {
            name,
            start,
            end,
            parent,
            op: 0,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..10; child a 1..4 with grandchild 2..3; child b 6..9.
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a.inner", 2.0, 3.0, Some(1)),
            span("b", 6.0, 9.0, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 4.0); // grandchild is not counted twice
        assert_eq!(self_time(&spans, 1), 2.0);
        assert_eq!(self_time(&spans, 2), 1.0);
        assert_eq!(self_time(&spans, 3), 3.0);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Two threads' spans overlap on 3..5; one child sticks out past
        // the parent's end and one lies wholly outside it.
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("t1", 1.0, 5.0, Some(0)),
            span("t2", 3.0, 7.0, Some(0)),
            span("inside t1", 2.0, 4.0, Some(0)),
            span("late", 9.0, 12.0, Some(0)),
            span("outside", 11.0, 13.0, Some(0)),
        ];
        // Covered: 1..7 and 9..10 = 7 s.
        assert_eq!(self_time(&spans, 0), 3.0);
    }

    #[test]
    fn recorder_nests_and_adopts() {
        let mut rec = Recorder::new();
        let op = rec.next_op();
        rec.span("outer", |rec| {
            rec.span("inner", |_| ());
            rec.adopt(
                &[
                    span("child.root", 0.0, 1.0, None),
                    span("child.leaf", 0.2, 0.4, Some(0)),
                ],
                5.0,
            );
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0)); // adopted root hangs off `outer`
        assert_eq!(spans[3].parent, Some(2)); // adopted leaf is re-indexed
        assert_eq!(spans[2].start, 5.0);
        assert!(spans.iter().all(|s| s.op == op));
        let trace = crate::json::parse(&rec.chrome_trace()).unwrap();
        assert_eq!(
            trace.get("traceEvents").unwrap().as_array().unwrap().len(),
            4
        );
    }

    #[test]
    fn span_lines_round_trip_and_reject_garbage() {
        let spans = vec![
            span("op root", 0.0, 1.5, None),
            span("stage with spaces", 0.25, 0.75, Some(0)),
        ];
        let mut back = spans_from_lines(&format!("noise\n{}", spans_to_lines(&spans))).unwrap();
        for s in &mut back {
            s.op = 1;
        }
        assert_eq!(back, spans);
        assert!(spans_from_lines("span 0 1 7 forward-reference\n").is_err());
        assert!(spans_from_lines("span x 1 - bad-number\n").is_err());
    }
}
