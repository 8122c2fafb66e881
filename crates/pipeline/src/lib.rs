//! The end-to-end pipeline substrate (Figure 9 of the paper).
//!
//! The paper overlaps five stages — load, filter, back-projection,
//! segmented reduce, store — with FIFO queues between them, and reports
//! the resulting overlap as the Figure 10 timelines. The streaming
//! driver runs the stages back to back on one thread and draws the
//! overlapped timeline from a model replay. This crate supplies the
//! three reusable pieces:
//!
//! * [`BoundedQueue`] — the FIFO of Figure 9 (a bounded crossbeam
//!   channel with occupancy statistics).
//! * [`TraceCollector`] / [`Span`] — per-stage span recording, by one
//!   thread in order, with busy times, makespan, overlap efficiency, and
//!   an ASCII timeline renderer that regenerates Figure 10's Gantt view.
//! * [`PipelineModel`] — the discrete-event engine for **timing mode**: a
//!   linear pipeline of single-server stages with per-item durations,
//!   evaluated by the classic recurrence
//!   `end[s][i] = max(end[s][i−1], end[s−1][i]) + d[s][i]`.
//!   With uniform batches this reduces exactly to the paper's Equation 17
//!   (first-item fill + per-batch max over stages), which the tests assert;
//!   with non-uniform batches it reproduces the queueing effects that make
//!   measured runtimes trail the projected ones in Figure 13.

mod des;
mod queue;
mod trace;

pub use des::PipelineModel;
pub use queue::BoundedQueue;
pub use trace::{Span, TraceCollector};
