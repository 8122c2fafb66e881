//! Property tests for the geometric decomposition invariants (Eq 9–12,
//! Algorithm 3) and the simulated-MPI reductions the distributed path
//! is built on.

use proptest::prelude::*;
use scalefbp_backproject::TextureWindow;
use scalefbp_geom::{CbctGeometry, ProjectionStack, RankLayout, VolumeDecomposition};
use scalefbp_mpisim::{hierarchical_reduce_sum, World};
use scalefbp_obs::{
    validate_chrome_trace, MetricKey, MetricValue, MetricsRegistry, MetricsSnapshot,
};
use scalefbp_pipeline::TraceCollector;

fn geometry(nz: usize, np: usize) -> CbctGeometry {
    let mut g = CbctGeometry::ideal(16, 12, 24, 16);
    g.nz = nz;
    g.np = np;
    g
}

fn lcg(state: &mut u64) -> f32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 40) as f32 / (1u64 << 23) as f32) - 0.5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq 9–12: the rank layout partitions both decomposed axes exactly —
    /// groups tile the Z slices with no gap or overlap, ranks within a
    /// group tile the projection range, and every group's batch
    /// decomposition tiles its slab.
    #[test]
    fn rank_layout_partitions_slices_and_projections_exactly(
        nz in 1usize..97,
        np in 1usize..97,
        nr in 1usize..7,
        ng in 1usize..7,
        nc in 1usize..5,
    ) {
        let g = geometry(nz, np);
        let layout = RankLayout::new(nr, ng, nc);

        // Groups partition [0, nz) contiguously.
        let mut z = 0usize;
        for grp in 0..ng {
            let (b, e) = layout.group_slices(&g, grp);
            prop_assert_eq!(b, z, "group {} starts at a gap/overlap", grp);
            prop_assert!(e >= b);
            z = e;
        }
        prop_assert_eq!(z, nz);

        for a in layout.assignments(&g) {
            // Every rank agrees with its group's slice range.
            let (b, e) = layout.group_slices(&g, a.group);
            prop_assert_eq!((a.z_begin, a.z_end), (b, e));
            // nc batches of nb slices always cover the slab.
            if a.ns() > 0 {
                prop_assert!(a.nb * nc >= a.ns());
            }
        }

        // Ranks within each group partition [0, np) contiguously.
        for grp in 0..ng {
            let mut s = 0usize;
            for r in 0..nr {
                let a = layout.assignment(&g, grp * nr + r);
                prop_assert_eq!(a.s_begin, s);
                s = a.s_end;
            }
            prop_assert_eq!(s, np);
        }

        // Composing with the sub-volume decomposition: each non-empty
        // group slab is tiled by its batch tasks with no gap or overlap.
        for grp in 0..ng {
            let (b, e) = layout.group_slices(&g, grp);
            if b == e {
                continue;
            }
            let nb = layout.assignment(&g, grp * nr).nb;
            let d = VolumeDecomposition::new(&g, b, e, nb);
            let mut covered = b;
            for t in d.tasks() {
                prop_assert_eq!(t.z_begin, covered);
                prop_assert!(t.z_end > t.z_begin, "empty task");
                prop_assert!(t.nz() <= nb);
                covered = t.z_end;
            }
            prop_assert_eq!(covered, e);
        }
    }

    /// The ring buffer's modular addressing (`Z = z % dimZ`, Listing 1):
    /// streaming *upward* across wrap boundaries, every row still inside
    /// the valid window reads back exactly as from the flat stack, and
    /// evicted/unwritten rows read zero.
    #[test]
    fn texture_window_wrap_matches_flat_buffer_ascending(
        h in 3usize..9,
        start in 0usize..7,
        seed in any::<u64>(),
    ) {
        let (nv, np, nu) = (32usize, 2usize, 3usize);
        let mut stack = ProjectionStack::zeros(nv, np, nu);
        let mut state = seed | 1;
        for px in stack.data_mut() {
            *px = lcg(&mut state);
        }
        let mut w = TextureWindow::new(h, np, nu, 0);
        // A non-zero start misaligns rows against the ring height so the
        // wrap boundary falls mid-block.
        let mut v = start;
        w.write_rows(stack.rows_block(v, v + 1), v, v + 1);
        v += 1;
        while v < nv {
            let step = (1 + (state as usize ^ v) % (h - 1)).min(nv - v);
            w.write_rows(stack.rows_block(v, v + step), v, v + step);
            v += step;
            state = state.wrapping_mul(25214903917).wrapping_add(11);
            let (lo, hi) = w.valid_rows();
            prop_assert_eq!(hi, v);
            prop_assert!(hi - lo <= h);
            for row in lo..hi {
                for s in 0..np {
                    for u in 0..nu {
                        prop_assert_eq!(
                            w.pixel(s, u as isize, row as isize),
                            stack.get(row, s, u),
                            "row {} (slot {}) diverged from the flat stack",
                            row, row % h
                        );
                    }
                }
            }
            // One row past either edge of the window reads zero.
            if lo > 0 {
                prop_assert_eq!(w.pixel(0, 0, lo as isize - 1), 0.0);
            }
            prop_assert_eq!(w.pixel(0, 0, hi as isize), 0.0);
        }
    }

    /// Same property streaming *downward* (the paper's decomposition walks
    /// detector rows top-down): wrap-boundary reads equal the flat stack.
    #[test]
    fn texture_window_wrap_matches_flat_buffer_descending(
        h in 3usize..9,
        seed in any::<u64>(),
    ) {
        let (nv, np, nu) = (32usize, 2usize, 3usize);
        let mut stack = ProjectionStack::zeros(nv, np, nu);
        let mut state = seed | 1;
        for px in stack.data_mut() {
            *px = lcg(&mut state);
        }
        let mut w = TextureWindow::new(h, np, nu, 0);
        let mut v = nv;
        while v > 0 {
            let step = (1 + (state as usize ^ v) % (h - 1)).min(v);
            w.write_rows(stack.rows_block(v - step, v), v - step, v);
            v -= step;
            state = state.wrapping_mul(25214903917).wrapping_add(11);
            let (lo, hi) = w.valid_rows();
            prop_assert_eq!(lo, v);
            prop_assert!(hi - lo <= h);
            for row in lo..hi {
                for s in 0..np {
                    for u in 0..nu {
                        prop_assert_eq!(
                            w.pixel(s, u as isize, row as isize),
                            stack.get(row, s, u),
                            "row {} (slot {}) diverged from the flat stack",
                            row, row % h
                        );
                    }
                }
            }
        }
    }
}

/// Histogram bounds shared by every generated `h*` metric, so merging
/// the same key across snapshots never trips the bounds-mismatch check.
const HIST_BOUNDS: [u64; 3] = [10, 100, 1_000];

/// SplitMix64 step — expands one sampled word into several independent
/// sub-values (the vendored proptest stub has no tuple strategies).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decodes sampled words into snapshot entries over a small fixed key
/// pool, one name pool per metric kind (`c*` counters, `g*` gauges,
/// `h*` histograms) so two snapshots never register one name with two
/// kinds, which `MetricValue::merge` treats as a programming error.
fn entries_from_words(words: &[u64]) -> Vec<(MetricKey, MetricValue)> {
    words
        .iter()
        .map(|&w| {
            let name_i = (w >> 2) % 3;
            let rank = match (w >> 4) % 4 {
                0 => None,
                r => Some(r as usize - 1),
            };
            match w % 3 {
                0 => (
                    MetricKey::new(format!("c{name_i}"), rank),
                    MetricValue::Counter(mix(w)),
                ),
                1 => {
                    let unit = (mix(w) >> 11) as f64 / (1u64 << 53) as f64;
                    (
                        MetricKey::new(format!("g{name_i}"), rank),
                        MetricValue::Gauge((unit - 0.5) * 2.0e12),
                    )
                }
                _ => {
                    let buckets: Vec<u64> = (0..HIST_BOUNDS.len() as u64 + 1)
                        .map(|i| mix(w ^ i) % 1_000_000)
                        .collect();
                    (
                        MetricKey::new(format!("h{name_i}"), rank),
                        MetricValue::Histogram {
                            bounds: HIST_BOUNDS.to_vec(),
                            count: buckets.iter().sum(),
                            sum: mix(w ^ 0xFF) % (u64::MAX / 4),
                            buckets,
                        },
                    )
                }
            }
        })
        .collect()
}

fn empty_snapshot() -> MetricsSnapshot {
    MetricsSnapshot::from_entries(Vec::<(MetricKey, MetricValue)>::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Snapshot merge is a commutative monoid: counters saturating-add,
    /// gauges max, histograms bucket-wise — so rank snapshots can be
    /// folded together in any grouping or order and the empty snapshot
    /// is the identity. This is what makes per-rank metrics shippable.
    #[test]
    fn metrics_merge_is_associative_commutative_with_identity(
        wa in proptest::collection::vec(any::<u64>(), 0..24),
        wb in proptest::collection::vec(any::<u64>(), 0..24),
        wc in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let a = MetricsSnapshot::from_entries(entries_from_words(&wa));
        let b = MetricsSnapshot::from_entries(entries_from_words(&wb));
        let c = MetricsSnapshot::from_entries(entries_from_words(&wc));
        prop_assert_eq!(a.merge(&b).to_json(), b.merge(&a).to_json(), "commutativity");
        prop_assert_eq!(
            a.merge(&b).merge(&c).to_json(),
            a.merge(&b.merge(&c)).to_json(),
            "associativity"
        );
        prop_assert_eq!(a.merge(&empty_snapshot()).to_json(), a.to_json(), "identity");
    }

    /// Distributed counting equals serial counting, exactly: recording
    /// every op into one shared registry yields the same snapshot as
    /// recording each rank's ops into its own registry and merging the
    /// per-rank snapshots. Counters are integers, so equality is exact —
    /// no tree-order tolerance needed.
    #[test]
    fn per_rank_registries_merge_to_the_serial_registry(
        ops in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        let serial = MetricsRegistry::new();
        let rank_regs: Vec<MetricsRegistry> =
            (0..3).map(|_| MetricsRegistry::new()).collect();
        for &w in &ops {
            let name = format!("op{}", w % 4);
            let rank = ((w >> 2) % 3) as usize;
            let v = (w >> 8) % 1_000 + 1;
            serial.rank_counter(&name, rank).add(v);
            rank_regs[rank].rank_counter(&name, rank).add(v);
        }
        let merged = rank_regs
            .iter()
            .map(|r| r.snapshot())
            .fold(empty_snapshot(), |acc, s| acc.merge(&s));
        prop_assert_eq!(merged.to_json(), serial.snapshot().to_json());
    }

    /// The trace collector accepts arbitrary (even inverted or negative)
    /// span endpoints without ever producing a span with `end < start`,
    /// and its chrome export survives validation — spans on one track
    /// stay non-overlapping after µs rounding.
    #[test]
    fn trace_clamping_never_inverts_spans(
        words in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let stages = ["load", "filter", "bp"];
        let mut trace = TraceCollector::new();
        for &w in &words {
            let endpoint = |z: u64| ((mix(z) >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0e3;
            trace.record(
                stages[(w % 3) as usize],
                ((w >> 2) % 8) as usize,
                endpoint(w),
                endpoint(w ^ 0xA5A5),
            );
        }
        for span in trace.spans() {
            prop_assert!(
                span.end >= span.start,
                "span {}[{}] inverted: {} < {}",
                span.stage, span.item, span.end, span.start
            );
        }
        validate_chrome_trace(&trace.to_chrome_trace()).map_err(TestCaseError::fail)?;
    }
}

proptest! {
    // World-spawning properties are costlier: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The two-level reduction (Section 4.4.2) sums to the same totals as
    /// a sequential loop, for any group shape, within f32 tree-order
    /// tolerance.
    #[test]
    fn hierarchical_reduce_matches_serial_sum(
        nr in 1usize..5,
        ng in 1usize..4,
        len in 1usize..40,
        seed in any::<u64>(),
    ) {
        let p = nr * ng;
        let mut state = seed | 1;
        let data: Vec<Vec<f32>> = (0..p)
            .map(|_| (0..len).map(|_| lcg(&mut state)).collect())
            .collect();
        let data_ref = &data;
        let results = World::run(p, move |mut comm| {
            let mut buf = data_ref[comm.rank()].clone();
            hierarchical_reduce_sum(&mut comm, 0, &mut buf, nr).unwrap();
            buf
        });
        for i in 0..len {
            let serial: f32 = data.iter().map(|row| row[i]).sum();
            prop_assert!(
                (results[0][i] - serial).abs() < 1e-4,
                "element {}: hierarchical {} vs serial {}",
                i, results[0][i], serial
            );
        }
    }

    /// NetworkStats is a property of the communication pattern, not of the
    /// thread schedule: re-running the same world yields identical byte
    /// and message counts.
    #[test]
    fn network_stats_are_schedule_independent(
        p in 2usize..6,
        len in 1usize..50,
        seed in any::<u64>(),
    ) {
        let run_once = || {
            World::run_with_stats(p, |mut comm| {
                let me = comm.rank();
                let payload = vec![(seed % 251) as u8; len + me];
                for to in 0..p {
                    if to != me {
                        comm.send(to, 500 + me as u64, payload.clone());
                    }
                }
                for from in 0..p {
                    if from != me {
                        let got = comm.recv(from, 500 + from as u64);
                        assert_eq!(got.len(), len + from);
                    }
                }
            }).1
        };
        let a = run_once();
        let b = run_once();
        prop_assert_eq!(a, b);
        // And the totals are exactly the sum of the payloads sent.
        let expect_bytes: u64 = (0..p)
            .map(|me| ((p - 1) * (len + me)) as u64)
            .sum();
        prop_assert_eq!(a.bytes, expect_bytes);
        prop_assert_eq!(a.messages, (p * (p - 1)) as u64);
    }
}
