//! Equations 13–17: from machine constants to projected runtime.

use scalefbp_geom::{CbctGeometry, RankLayout, VolumeDecomposition};
use scalefbp_mpisim::ReduceMode;

use crate::MachineParams;

const F32_BYTES: f64 = 4.0; // η of Section 5

/// The per-batch stage times of one rank/group (the columns of Table 5).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchTimes {
    /// `T_load^i` — Eq 13.
    pub load: f64,
    /// `T_flt^i`.
    pub filter: f64,
    /// `T_H2D^i`.
    pub h2d: f64,
    /// `T_bp^i` — Eq 14.
    pub bp: f64,
    /// `T_D2H^i`.
    pub d2h: f64,
    /// `T_reduce^i` (zero when `N_r = 1`).
    pub reduce: f64,
    /// `T_store^i` (group leader, PFS shared by all groups).
    pub store: f64,
}

impl BatchTimes {
    /// `T_CPU^i = T_load + T_flt` (Eq 16).
    pub fn cpu(&self) -> f64 {
        self.load + self.filter
    }

    /// `T_GPU^i = T_H2D + T_bp + T_D2H` (Eq 16).
    pub fn gpu(&self) -> f64 {
        self.h2d + self.bp + self.d2h
    }

    /// The per-batch steady-state cost: `max(T_CPU, T_GPU, T_reduce,
    /// T_store)` (the summand of Eq 17).
    pub fn steady_max(&self) -> f64 {
        self.cpu().max(self.gpu()).max(self.reduce).max(self.store)
    }
}

/// A fully described run: geometry + rank layout.
#[derive(Clone, Debug)]
pub struct RunShape {
    /// Acquisition/reconstruction geometry.
    pub geom: CbctGeometry,
    /// Rank grouping (`N_r`, `N_g`, `N_c`).
    pub layout: RankLayout,
}

/// Evaluates the Section-5 model for a machine.
#[derive(Clone, Debug)]
pub struct PerfModel {
    machine: MachineParams,
}

impl PerfModel {
    /// Creates the model.
    pub fn new(machine: MachineParams) -> Self {
        machine.validate().expect("invalid machine parameters");
        PerfModel { machine }
    }

    /// The machine constants.
    pub fn machine(&self) -> &MachineParams {
        &self.machine
    }

    /// Per-batch times for group 0 of the run (groups are symmetric),
    /// with the reduce stage charged per `mode`:
    ///
    /// * `hierarchical` — `⌈log₂(leaders)⌉` inter-node rounds of the full
    ///   sub-volume (Section 4.4.2; intra-node rounds assumed free).
    /// * `dense` — the root serially ingests and folds all `N_r − 1`
    ///   contributions: `(N_r − 1)` full-volume transfers.
    /// * `segmented` — the chunk-pipelined reduce-scatter: every link in
    ///   the chain carries the full sub-volume once, but the chain stages
    ///   overlap across chunks, so the critical path is one full-volume
    ///   transfer, scaled by `(N_r − 1)/N_r` (the share a rank forwards).
    ///
    /// Batch `i`'s projection traffic uses `SizeAB` for `i = 0` and the
    /// differential `SizeBB` afterwards (Eq 13 / Eq 5 / Eq 7).
    pub fn batch_times(&self, shape: &RunShape, mode: ReduceMode) -> Vec<BatchTimes> {
        let g = &shape.geom;
        let m = &self.machine;
        let layout = shape.layout;
        let (z0, z1) = layout.group_slices(g, 0);
        let assign = layout.assignment(g, 0);
        let decomp = VolumeDecomposition::new(g, z0, z1, assign.nb);
        let np_local = assign.np_local() as f64;

        decomp
            .tasks()
            .iter()
            .map(|task| {
                let rows = if task.index == 0 {
                    task.rows.len()
                } else {
                    task.new_rows.len()
                } as f64;
                let proj_elems = g.nu as f64 * np_local * rows;
                let vol_elems = (g.nx * g.ny * task.nz()) as f64;
                let vol_bytes = vol_elems * F32_BYTES;
                let updates = vol_elems * np_local;

                let reduce = if layout.nr > 1 {
                    match mode {
                        ReduceMode::Hierarchical => {
                            // log₂ rounds over the group's node leaders,
                            // intra-node rounds assumed free relative to the
                            // inter-node link (Section 4.4.2).
                            let leaders = layout.nr.div_ceil(m.ranks_per_node).max(1);
                            let rounds =
                                (leaders.next_power_of_two().trailing_zeros() as f64).max(1.0);
                            vol_bytes * rounds / m.th_reduce
                        }
                        ReduceMode::Dense => {
                            // Root ingress is serialised: one full sub-volume
                            // per non-root rank.
                            vol_bytes * (layout.nr - 1) as f64 / m.th_reduce
                        }
                        ReduceMode::Segmented => {
                            // Chunk pipeline: each rank forwards all segments
                            // but its own, and the chain stages overlap.
                            vol_bytes * (layout.nr - 1) as f64 / layout.nr as f64 / m.th_reduce
                        }
                    }
                } else {
                    0.0
                };

                BatchTimes {
                    load: proj_elems * F32_BYTES / m.bw_load,
                    filter: proj_elems / m.th_flt,
                    h2d: proj_elems * F32_BYTES / m.bw_pci,
                    bp: updates / m.th_bp,
                    d2h: vol_bytes / m.bw_pci,
                    reduce,
                    // All N_g group leaders share the PFS bandwidth.
                    store: vol_bytes * layout.ng as f64 / m.bw_store,
                }
            })
            .collect()
    }

    /// Equation 17 with the reduce stage charged per `mode` (see
    /// [`PerfModel::batch_times`]): projected runtime assuming perfect
    /// stage overlap — batch 0 runs through every stage, later batches
    /// cost their bottleneck stage.
    pub fn runtime(&self, shape: &RunShape, mode: ReduceMode) -> f64 {
        let batches = self.batch_times(shape, mode);
        if batches.is_empty() {
            return 0.0;
        }
        let first = &batches[0];
        let fill = first.cpu() + first.gpu() + first.reduce + first.store;
        let steady: f64 = batches[1..].iter().map(BatchTimes::steady_max).sum();
        fill + steady
    }

    /// Aggregate performance in GUPS (the paper's Figure 15 metric):
    /// `N_x·N_y·N_z·N_p / runtime / 1e9`.
    pub fn gups(&self, shape: &RunShape, mode: ReduceMode) -> f64 {
        let updates = shape.geom.voxel_updates() as f64;
        updates / self.runtime(shape, mode) / 1e9
    }

    /// Searches every divisor split `(N_r, N_g)` of `gpus` ranks and
    /// returns the layout with the smallest projected runtime, with the
    /// full ranking. How a user should pick `N_r` — and a validation of
    /// the paper's per-dataset choices (16/8/8/4), which this search
    /// recovers to within the flat part of the optimum.
    pub fn optimal_layout(
        &self,
        geom: &CbctGeometry,
        gpus: usize,
        nc: usize,
        mode: ReduceMode,
    ) -> Vec<(RankLayout, f64)> {
        assert!(gpus > 0, "need at least one GPU");
        let mut ranked: Vec<(RankLayout, f64)> = (1..=gpus)
            .filter(|nr| gpus % nr == 0)
            // More groups than slices is degenerate.
            .filter(|nr| gpus / nr <= geom.nz)
            .map(|nr| {
                let layout = RankLayout::new(nr, gpus / nr, nc);
                let shape = RunShape {
                    geom: geom.clone(),
                    layout,
                };
                (layout, self.runtime(&shape, mode))
            })
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalefbp_geom::DatasetPreset;

    fn tomo30_1024() -> CbctGeometry {
        DatasetPreset::by_name("tomo_00030")
            .unwrap()
            .geometry
            .with_volume(1024, 1024, 1024)
    }

    #[test]
    fn table5_tomo30_1024_on_v100_is_about_8_seconds() {
        // Table 5: 1024³ from tomo_00030 on one V100 runs in ~7.9 s with
        // T_bp ≈ 6.7 s.
        let model = PerfModel::new(MachineParams::abci_v100());
        let shape = RunShape {
            geom: tomo30_1024(),
            layout: RankLayout::new(1, 1, 8),
        };
        let batches = model.batch_times(&shape, ReduceMode::default());
        let t_bp: f64 = batches.iter().map(|b| b.bp).sum();
        assert!((t_bp - 6.7).abs() < 0.7, "T_bp modelled {t_bp}");
        let rt = model.runtime(&shape, ReduceMode::default());
        assert!(rt > 6.7 && rt < 11.0, "runtime modelled {rt}");
    }

    #[test]
    fn differential_loading_makes_later_batches_cheaper() {
        let model = PerfModel::new(MachineParams::abci_v100());
        let shape = RunShape {
            geom: tomo30_1024(),
            layout: RankLayout::new(1, 1, 8),
        };
        let batches = model.batch_times(&shape, ReduceMode::default());
        assert_eq!(batches.len(), 8);
        for b in &batches[1..] {
            assert!(b.load < batches[0].load, "differential load not cheaper");
        }
    }

    #[test]
    fn strong_scaling_is_near_linear_then_flattens() {
        // Figure 13 shape: halving per doubling early, flattening late.
        let model = PerfModel::new(MachineParams::abci_v100());
        let geom = DatasetPreset::by_name("coffee_bean")
            .unwrap()
            .geometry
            .clone();
        let sweep: Vec<(usize, f64)> = [16, 32, 64, 128, 256, 512, 1024]
            .into_iter()
            .map(|n| {
                let shape = RunShape {
                    geom: geom.clone(),
                    layout: RankLayout::new(16, n / 16, 8),
                };
                (n, model.runtime(&shape, ReduceMode::default()))
            })
            .collect();
        // Early regime: ~2× speedup per doubling.
        let r0 = sweep[0].1 / sweep[1].1;
        assert!(r0 > 1.7 && r0 < 2.1, "16→32 speedup {r0}");
        // Late regime: far less than 2×.
        let r_late = sweep[5].1 / sweep[6].1;
        assert!(r_late < 1.6, "512→1024 speedup {r_late}");
        // Monotone decreasing runtimes.
        for w in sweep.windows(2) {
            assert!(w[1].1 < w[0].1);
        }
        // End-to-end: the paper reports ~16 s at 1024 GPUs (including I/O);
        // the model lands in the same regime (order of ten seconds).
        let t1024 = sweep[6].1;
        assert!(t1024 > 5.0 && t1024 < 40.0, "1024-GPU runtime {t1024}");
    }

    #[test]
    fn weak_scaling_floors_at_the_store_time() {
        // Figure 14: past a point the 4096³ store (~9.6 s at 28.5 GB/s)
        // dominates the projected runtime.
        let model = PerfModel::new(MachineParams::abci_v100());
        let geom = DatasetPreset::by_name("coffee_bean").unwrap().geometry;
        let vol_store = geom.volume_bytes() as f64 / model.machine().bw_store;
        let shape = RunShape {
            geom: geom.clone(),
            layout: RankLayout::new(16, 64, 8),
        };
        let rt = model.runtime(&shape, ReduceMode::default());
        assert!(
            rt >= vol_store * 0.95,
            "runtime {rt} below store floor {vol_store}"
        );
        assert!(
            rt < vol_store * 2.5,
            "runtime {rt} far above store floor {vol_store}"
        );
    }

    #[test]
    fn a100_beats_v100() {
        let geom = tomo30_1024();
        let shape = RunShape {
            geom,
            layout: RankLayout::new(1, 1, 8),
        };
        let v = PerfModel::new(MachineParams::abci_v100()).runtime(&shape, ReduceMode::default());
        let a = PerfModel::new(MachineParams::abci_a100()).runtime(&shape, ReduceMode::default());
        assert!(a < v, "A100 {a} not faster than V100 {v}");
    }

    #[test]
    fn gups_grows_with_gpus() {
        let model = PerfModel::new(MachineParams::abci_v100());
        let geom = DatasetPreset::by_name("bumblebee").unwrap().geometry;
        let gups_at = |ng: usize| {
            let shape = RunShape {
                geom: geom.clone(),
                layout: RankLayout::new(8, ng, 8),
            };
            model.gups(&shape, ReduceMode::default())
        };
        let (g64, g512) = (gups_at(8), gups_at(64));
        // 8× the GPUs buys clearly more throughput, but sub-linearly — the
        // flattening visible at the right edge of Figure 15.
        assert!(g512 > 2.0 * g64, "GUPS {g64} → {g512}");
        assert!(
            g512 < 8.0 * g64,
            "GUPS scaled super-linearly: {g64} → {g512}"
        );
    }

    #[test]
    fn single_rank_has_no_reduce_cost() {
        let model = PerfModel::new(MachineParams::abci_v100());
        let shape = RunShape {
            geom: tomo30_1024(),
            layout: RankLayout::new(1, 1, 4),
        };
        for b in model.batch_times(&shape, ReduceMode::default()) {
            assert_eq!(b.reduce, 0.0);
        }
    }

    #[test]
    fn optimal_layout_ranks_all_divisor_splits() {
        let model = PerfModel::new(MachineParams::abci_v100());
        let geom = DatasetPreset::by_name("bumblebee").unwrap().geometry;
        let ranked = model.optimal_layout(&geom, 64, 8, ReduceMode::default());
        // 64 = 2^6: seven divisor splits.
        assert_eq!(ranked.len(), 7);
        // Sorted ascending by runtime.
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // Every layout uses all 64 ranks.
        for (l, _) in &ranked {
            assert_eq!(l.num_ranks(), 64);
        }
    }

    #[test]
    fn optimal_layout_prefers_moderate_nr_like_the_paper() {
        // At 1024 GPUs the paper picks N_r ∈ {4..16}; the extremes (no
        // projection split / no volume split) must rank worse than the
        // best.
        let model = PerfModel::new(MachineParams::abci_v100());
        let geom = DatasetPreset::by_name("coffee_bean").unwrap().geometry;
        let ranked = model.optimal_layout(&geom, 1024, 8, ReduceMode::default());
        let best_nr = ranked[0].0.nr;
        let runtime_of = |nr: usize| {
            ranked
                .iter()
                .find(|(l, _)| l.nr == nr)
                .map(|(_, t)| *t)
                .unwrap()
        };
        assert!(
            (2..=64).contains(&best_nr),
            "best N_r {best_nr} outside the paper's regime"
        );
        assert!(runtime_of(1024) > ranked[0].1, "pure Np split should lose");
    }

    #[test]
    fn dense_reduce_cost_grows_linearly_with_nr() {
        // The dense root ingests N_r − 1 sub-volumes serially; widening the
        // group must widen the reduce stage proportionally.
        let model = PerfModel::new(MachineParams::abci_v100());
        let geom = DatasetPreset::by_name("coffee_bean").unwrap().geometry;
        let reduce_of = |nr: usize| {
            let shape = RunShape {
                geom: geom.clone(),
                layout: RankLayout::new(nr, 1, 8),
            };
            model.batch_times(&shape, ReduceMode::Dense)[0].reduce
        };
        let (r4, r32) = (reduce_of(4), reduce_of(32));
        assert!(r4 > 0.0);
        let ratio = r32 / r4;
        // Same sub-volume, 31 vs 3 ingests.
        assert!((ratio - 31.0 / 3.0).abs() < 1e-6, "dense ratio {ratio}");
    }

    #[test]
    fn segmented_reduce_stays_flat_and_beats_dense() {
        // The pipelined reduce-scatter approaches one full-volume transfer
        // regardless of N_r, while dense grows as N_r − 1.
        let model = PerfModel::new(MachineParams::abci_v100());
        let geom = DatasetPreset::by_name("coffee_bean").unwrap().geometry;
        for nr in [4usize, 16, 64] {
            let shape = RunShape {
                geom: geom.clone(),
                layout: RankLayout::new(nr, 1, 8),
            };
            let dense = model.batch_times(&shape, ReduceMode::Dense)[0].reduce;
            let seg = model.batch_times(&shape, ReduceMode::Segmented)[0].reduce;
            let hier = model.batch_times(&shape, ReduceMode::Hierarchical)[0].reduce;
            assert!(seg < dense, "nr={nr}: segmented {seg} vs dense {dense}");
            assert!(
                seg <= hier + 1e-12,
                "nr={nr}: segmented {seg} vs hierarchical {hier}"
            );
            // One full transfer is the asymptote.
            let one_transfer = dense / (nr - 1) as f64;
            assert!(seg < one_transfer * (1.0 + 1e-9), "nr={nr}: seg {seg}");
        }
    }
}
