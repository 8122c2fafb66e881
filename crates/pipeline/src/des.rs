//! Discrete-event model of the linear pipeline (timing mode).

use crate::TraceCollector;

/// A linear pipeline of single-server stages evaluated symbolically.
///
/// Stage `s` processes item `i` for `durations[s][i]` simulated seconds;
/// items flow in order through every stage; each stage handles one item at
/// a time. The completion recurrence
///
/// ```text
/// end[s][i] = max(end[s][i−1], end[s−1][i]) + d[s][i]
/// ```
///
/// is exactly the structure of the paper's Equation 17: the makespan equals
/// the fill time of the first item plus, per subsequent item, the maximum
/// stage time — when durations are uniform. Non-uniform batches (e.g. the
/// first slab's full `a₀b₀` load vs the later differential `b_i b_{i+1}`
/// loads) produce the pipeline-stall effects visible in Figure 10a.
#[derive(Clone, Debug)]
pub struct PipelineModel {
    stage_names: Vec<String>,
    /// `durations[stage][item]`, all rows the same length.
    durations: Vec<Vec<f64>>,
    /// Inter-stage queue capacity (`None` = unbounded).
    queue_capacity: Option<usize>,
}

impl PipelineModel {
    /// Builds the model. All duration rows must have equal length and
    /// non-negative entries.
    pub fn new(stage_names: &[&str], durations: Vec<Vec<f64>>) -> Self {
        assert_eq!(
            stage_names.len(),
            durations.len(),
            "one duration row per stage required"
        );
        assert!(!durations.is_empty(), "at least one stage required");
        let n = durations[0].len();
        for (s, row) in durations.iter().enumerate() {
            assert_eq!(
                row.len(),
                n,
                "stage {s} has {} items, expected {n}",
                row.len()
            );
            assert!(
                row.iter().all(|&d| d >= 0.0 && d.is_finite()),
                "stage {s} has a negative or non-finite duration"
            );
        }
        PipelineModel {
            stage_names: stage_names.iter().map(|s| s.to_string()).collect(),
            durations,
            queue_capacity: None,
        }
    }

    /// Bounds every inter-stage FIFO to `capacity` items (the Figure 9
    /// queues are small in practice — back-pressure keeps the load thread
    /// from racing ahead of device memory). Unbounded by default.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        self.queue_capacity = Some(capacity);
        self
    }

    /// Number of work items.
    pub fn num_items(&self) -> usize {
        self.durations[0].len()
    }

    /// Evaluates the recurrence; returns the trace (one span per
    /// stage×item) and the makespan.
    ///
    /// With a bounded queue of capacity `C`, stage `s` cannot *start* item
    /// `i` before stage `s+1` has started item `i − C` (there would be
    /// nowhere to put the result) — evaluated with a reverse-sweep fixed
    /// point over the start times.
    pub fn simulate(&self) -> (TraceCollector, f64) {
        let n = self.num_items();
        let s_count = self.durations.len();
        let mut start = vec![vec![0.0f64; n]; s_count];
        let mut end = vec![vec![0.0f64; n]; s_count];

        // Iterate the recurrence to a fixed point; without bounded queues
        // one forward pass suffices, with them the back-pressure term
        // converges in ≤ s_count passes.
        let passes = if self.queue_capacity.is_some() {
            s_count + 1
        } else {
            1
        };
        for _ in 0..passes {
            for s in 0..s_count {
                let mut server_free = 0.0f64;
                for i in 0..n {
                    let mut t = if s == 0 { 0.0 } else { end[s - 1][i] };
                    t = t.max(server_free);
                    if let Some(cap) = self.queue_capacity {
                        if s + 1 < s_count && i >= cap {
                            // Downstream must have begun draining.
                            t = t.max(start[s + 1][i - cap]);
                        }
                    }
                    start[s][i] = t;
                    end[s][i] = t + self.durations[s][i];
                    server_free = end[s][i];
                }
            }
        }

        let mut trace = TraceCollector::new();
        let mut makespan = 0.0f64;
        for s in 0..s_count {
            for i in 0..n {
                trace.record(&self.stage_names[s], i, start[s][i], end[s][i]);
                makespan = makespan.max(end[s][i]);
            }
        }
        (trace, makespan)
    }

    /// Equation 17's perfect-overlap projection for the same durations:
    /// first item through every stage, plus the per-item max over stages
    /// for the rest. For uniform batches this equals the simulated
    /// makespan; for irregular batches the two diverge (the projection
    /// assumes each item serialises at its own bottleneck, while the real
    /// pipeline can hide a slow item of one stage behind neighbours).
    pub fn projected_runtime(&self) -> f64 {
        let n = self.num_items();
        if n == 0 {
            return 0.0;
        }
        let fill: f64 = self.durations.iter().map(|row| row[0]).sum();
        let steady: f64 = (1..n)
            .map(|i| {
                self.durations
                    .iter()
                    .map(|row| row[i])
                    .fold(0.0f64, f64::max)
            })
            .sum();
        fill + steady
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stage_is_sum_of_durations() {
        let m = PipelineModel::new(&["bp"], vec![vec![1.0, 2.0, 3.0]]);
        let (_, makespan) = m.simulate();
        assert!((makespan - 6.0).abs() < 1e-12);
        assert!((m.projected_runtime() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_pipeline_matches_equation_17_exactly() {
        // 4 stages × 8 items, uniform durations: makespan = fill + (n−1)·max.
        let d = vec![
            vec![0.5; 8],
            vec![1.0; 8],
            vec![2.0; 8], // bottleneck
            vec![0.25; 8],
        ];
        let m = PipelineModel::new(&["load", "flt", "bp", "store"], d);
        let (_, makespan) = m.simulate();
        let projected = m.projected_runtime();
        assert!((projected - (3.75 + 7.0 * 2.0)).abs() < 1e-12);
        assert!(
            (makespan - projected).abs() < 1e-9,
            "{makespan} vs {projected}"
        );
    }

    #[test]
    fn simulation_respects_true_bounds() {
        // Irregular durations: the makespan is bounded below by every
        // stage's total busy time and above by the fully serial sum.
        let d = vec![
            vec![5.0, 0.1, 0.1, 0.1],
            vec![0.1, 4.0, 0.1, 3.0],
            vec![1.0, 1.0, 1.0, 1.0],
        ];
        let serial: f64 = d.iter().flatten().sum();
        let max_busy = d
            .iter()
            .map(|row| row.iter().sum::<f64>())
            .fold(0.0f64, f64::max);
        let m = PipelineModel::new(&["a", "b", "c"], d);
        let (trace, makespan) = m.simulate();
        assert!(makespan >= max_busy - 1e-12);
        assert!(makespan <= serial + 1e-12);
        // The Eq-17 projection diverges from the DES here (irregular
        // batches), unlike the uniform case.
        assert!((makespan - m.projected_runtime()).abs() > 0.5);
        assert!(trace.overlap_efficiency() < 1.0);
    }

    #[test]
    fn bottleneck_stage_dominates_long_runs() {
        let n = 100;
        let d = vec![vec![0.1; n], vec![1.0; n], vec![0.05; n]];
        let m = PipelineModel::new(&["load", "bp", "store"], d);
        let (trace, makespan) = m.simulate();
        // Bottleneck busy fraction approaches 1.
        assert!(trace.overlap_efficiency() > 0.98);
        assert!((makespan - (100.0 + 0.15 + 0.1 * 0.0)).abs() < 1.0);
    }

    #[test]
    fn trace_spans_respect_dependencies() {
        let m = PipelineModel::new(&["a", "b"], vec![vec![1.0, 1.0], vec![2.0, 2.0]]);
        let (trace, _) = m.simulate();
        let spans = trace.spans();
        for i in 0..2 {
            let a = spans
                .iter()
                .find(|s| s.stage == "a" && s.item == i)
                .unwrap();
            let b = spans
                .iter()
                .find(|s| s.stage == "b" && s.item == i)
                .unwrap();
            assert!(b.start >= a.end - 1e-12, "item {i} started early");
        }
    }

    #[test]
    fn unbounded_and_huge_capacity_agree() {
        let d = vec![
            vec![1.0, 0.2, 0.4, 0.1, 0.9],
            vec![0.5, 1.5, 0.3, 0.8, 0.2],
            vec![0.2, 0.2, 2.0, 0.1, 0.5],
        ];
        let unbounded = PipelineModel::new(&["a", "b", "c"], d.clone());
        let huge = PipelineModel::new(&["a", "b", "c"], d).with_queue_capacity(1000);
        let (_, m1) = unbounded.simulate();
        let (_, m2) = huge.simulate();
        assert!((m1 - m2).abs() < 1e-12);
    }

    #[test]
    fn tight_queues_apply_backpressure() {
        // Fast producer, slow consumer: with capacity 1 the producer is
        // throttled (later start times) but the makespan — set by the
        // consumer — is unchanged.
        let d = vec![vec![0.1; 10], vec![1.0; 10]];
        let free = PipelineModel::new(&["fast", "slow"], d.clone());
        let tight = PipelineModel::new(&["fast", "slow"], d).with_queue_capacity(1);
        let (trace_free, m_free) = free.simulate();
        let (trace_tight, m_tight) = tight.simulate();
        assert!((m_free - m_tight).abs() < 1e-12);
        // The producer's last item starts much later under back-pressure.
        let last_start = |t: &crate::TraceCollector| {
            t.spans()
                .iter()
                .filter(|s| s.stage == "fast" && s.item == 9)
                .map(|s| s.start)
                .next_back()
                .unwrap()
        };
        assert!(last_start(&trace_tight) > last_start(&trace_free) + 5.0);
    }

    #[test]
    fn backpressure_can_extend_the_makespan() {
        // A slow middle stage with capacity 1 stalls a bursty tail through
        // a fast first stage: the pipeline loses the freedom to buffer.
        let d = vec![
            vec![0.1, 0.1, 0.1, 5.0], // the big item arrives late
            vec![2.0, 2.0, 2.0, 0.1],
            vec![0.1, 0.1, 0.1, 0.1],
        ];
        let free = PipelineModel::new(&["a", "b", "c"], d.clone());
        let tight = PipelineModel::new(&["a", "b", "c"], d).with_queue_capacity(1);
        let (_, m_free) = free.simulate();
        let (_, m_tight) = tight.simulate();
        assert!(m_tight >= m_free - 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = PipelineModel::new(&["a"], vec![vec![1.0]]).with_queue_capacity(0);
    }

    #[test]
    fn empty_item_list_is_zero() {
        let m = PipelineModel::new(&["a"], vec![vec![]]);
        let (_, makespan) = m.simulate();
        assert_eq!(makespan, 0.0);
        assert_eq!(m.projected_runtime(), 0.0);
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn ragged_rows_rejected() {
        let _ = PipelineModel::new(&["a", "b"], vec![vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "negative or non-finite")]
    fn negative_durations_rejected() {
        let _ = PipelineModel::new(&["a"], vec![vec![-1.0]]);
    }
}
