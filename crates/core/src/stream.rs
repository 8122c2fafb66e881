//! The one data path every driver computes with: read a block of
//! detector rows over a projection share from a [`RowSource`] straight
//! into its slots of a ring of rows, filter it there, and back-project a
//! slab from the ring. The in-core driver runs it over a one-slab plan,
//! each distributed rank over its projection share, and the single-device
//! driver wraps it in device charges, retries and counters
//! (`outofcore.rs`). A row is written once, into the ring, so whoever
//! owns a ring holds it and one row's bytes, never a block or the scan.

use std::ops::Range;
use std::time::Instant;

use scalefbp_backproject::{KernelStats, TextureWindow};
use scalefbp_exec::host;
use scalefbp_filter::FilterPipeline;
use scalefbp_geom::{
    ProjectionMatrix, RowRange, RowSource, SubVolumeTask, Volume, VolumeDecomposition,
};

use crate::{FdkConfig, ReconstructionError};

/// Bytes of one row block (rounded down to whole rows, at least one).
pub(crate) const BLOCK_BYTES: usize = 4 << 20;

/// A ring of filtered detector rows over one projection share.
pub(crate) struct Ring {
    rows: TextureWindow,
}

impl Ring {
    /// Makes way for a batch loading `rows`: unless they extend the
    /// window at either end, the window starts afresh. That is a batch
    /// after a resumed one, or after a slab whose rows lie above `rows`
    /// with a gap between (a z grid coarser than the detector's rows).
    fn start_batch(&mut self, rows: RowRange) {
        let (lo, hi) = self.rows.valid_rows();
        if !rows.is_empty() && lo < hi && rows.begin != hi && rows.end != lo {
            let w = &self.rows;
            self.rows = TextureWindow::new(w.height(), w.np(), w.nu(), w.s_offset());
        }
    }

    /// Whether no row was written into the ring yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.rows_written() == 0
    }

    /// The global projections the ring holds.
    fn share(&self) -> Range<usize> {
        self.rows.s_offset()..self.rows.s_offset() + self.rows.np()
    }
}

/// What every driver computes with: the source, the filter, the full
/// scan's matrices, the kernel choice and the block size.
pub(crate) struct DataPath<'a> {
    config: &'a FdkConfig,
    source: &'a dyn RowSource,
    filter: FilterPipeline,
    mats: Vec<ProjectionMatrix>,
    /// Bytes per row block ([`BLOCK_BYTES`]; the stream tests shrink it).
    block_bytes: usize,
}

impl<'a> DataPath<'a> {
    /// The path of `config` over `source`, reading blocks of about
    /// `block_bytes`.
    pub(crate) fn new(
        config: &'a FdkConfig,
        source: &'a dyn RowSource,
        block_bytes: usize,
    ) -> Self {
        let g = &config.geometry;
        DataPath {
            config,
            source,
            filter: FilterPipeline::new(g, config.window),
            mats: ProjectionMatrix::full_scan(g),
            block_bytes,
        }
    }

    /// An empty ring for `plan`'s slabs over the projections `share`, as
    /// tall as the plan's tallest row range (Algorithm 3's `H`).
    pub(crate) fn ring(&self, plan: &VolumeDecomposition, share: Range<usize>) -> Ring {
        let (np, nu) = (share.len(), self.config.geometry.nu);
        Ring {
            rows: TextureWindow::new(plan.max_rows().max(1), np, nu, share.start),
        }
    }

    /// `r` as blocks of `max(1, block_bytes / (np·nu·4))` rows over the
    /// projections `share`, top-down: world Z maps to the detector's
    /// downward `v` ([`ProjectionMatrix::new`]), so slabs walk down the
    /// detector, each batch's new rows lie below the ring, and only
    /// top-down blocks stay contiguous with its window. An empty range is
    /// one empty block, so every batch sends something.
    fn split(&self, r: RowRange, share: &Range<usize>) -> Vec<RowRange> {
        let rows = (self.block_bytes / (share.len() * self.config.geometry.nu * 4).max(1)).max(1);
        if r.is_empty() {
            return vec![r];
        }
        let mut blocks: Vec<RowRange> = (r.begin..r.end)
            .step_by(rows)
            .map(|b| RowRange::new(b, (b + rows).min(r.end)))
            .collect();
        blocks.reverse();
        blocks
    }

    /// Loads `rows` into `ring` block by block, each read straight into
    /// its ring slots and filtered there (Equation 2, the paper's CPU
    /// stage); a block that wraps the ring's end as its two runs of slots,
    /// upper first, so reads stay top-down. A failed or malformed read is
    /// an error naming the rows. Returns the seconds the reads took.
    pub(crate) fn fill(&self, ring: &mut Ring, rows: RowRange) -> Result<f64, ReconstructionError> {
        ring.start_batch(rows);
        let share = ring.share();
        let mut read_secs = 0.0;
        for block in self.split(rows, &share) {
            ring.rows.fill_rows(block.begin, block.end, |b, e, slots| {
                let t = Instant::now();
                let read = self
                    .source
                    .read_rows_into(RowRange::new(b, e), share.clone(), slots);
                let (s0, s1) = (share.start, share.end);
                let what = |err| format!("rows [{b}, {e}) of projections [{s0}, {s1}): {err}");
                read.map_err(|err| ReconstructionError::Input(what(err)))?;
                read_secs += t.elapsed().as_secs_f64();
                self.filter.filter_rows(slots, b, share.len());
                Ok::<_, ReconstructionError>(())
            })?;
        }
        Ok(read_secs)
    }

    /// Back-projects `task`'s slab over the ring's share, from the ring,
    /// which must hold `task.rows`. The slab is not yet normalised
    /// ([`scale_sum`]): a distributed chunk is one term of a sum.
    pub(crate) fn backproject(&self, task: &SubVolumeTask, ring: &Ring) -> (Volume, KernelStats) {
        let g = &self.config.geometry;
        let mut slab = Volume::zeros_slab(g.nx, g.ny, task.nz(), task.z_begin);
        let mats = &self.mats[ring.share()];
        let stats =
            host::run_window_backprojection(self.config.kernel, &ring.rows, mats, &mut slab);
        (slab, stats)
    }

    /// The FDK normalisation weight of a finished sum ([`scale_sum`]).
    pub(crate) fn weight(&self) -> f32 {
        self.filter.backprojection_scale() as f32
    }
}

/// Scales a finished sum by the back-projection weight.
pub(crate) fn scale_sum(sum: &mut [f32], weight: f32) {
    for v in sum {
        *v *= weight;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    use std::time::Duration;

    use scalefbp_ckpt::CheckpointSpec;
    use scalefbp_geom::{CbctGeometry, ProjectionStack, VolumeDecomposition};
    use scalefbp_gpusim::DeviceSpec;
    use scalefbp_iosim::format::{encode_projections, ScanFile};
    use scalefbp_iosim::StorageEndpoint;
    use scalefbp_phantom::{forward_project, uniform_ball};

    use super::*;
    use crate::ReconstructionError;
    use crate::{
        fault_tolerant_reconstruct, fdk_reconstruct, fdk_reconstruct_configured, FaultPlan,
        FdkConfig, OutOfCoreReconstructor, OutOfCoreReport, Schedule, StreamRun,
    };
    use scalefbp_faults::{Channel, FaultEvent, FaultKind};
    use scalefbp_geom::{compute_ab, RankLayout};

    /// Rows per block in these tests: small enough that most batches
    /// arrive in several blocks.
    const ROWS: usize = 3;

    fn geom() -> CbctGeometry {
        CbctGeometry::ideal(32, 48, 64, 56)
    }

    fn config(g: &CbctGeometry) -> FdkConfig {
        FdkConfig::new(g.clone()).with_device(DeviceSpec::tiny(
            (g.projection_bytes() + g.volume_bytes()) as u64 / 3,
        ))
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("scalefbp-stream-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Both schedules of the streaming driver, cut into `ROWS`-row blocks.
    #[derive(Clone, Copy, Debug)]
    enum Driver {
        OutOfCore,
        Pipeline,
    }

    impl Driver {
        const ALL: [Driver; 2] = [Driver::OutOfCore, Driver::Pipeline];

        /// The volume, and the rows the driver says it loaded.
        fn run(
            self,
            g: &CbctGeometry,
            source: &dyn RowSource,
        ) -> Result<(scalefbp_geom::Volume, u64), ReconstructionError> {
            let (vol, report) = self.run_with(g, source, None)?;
            Ok((vol, self.rows_loaded(&report)))
        }

        /// The rows the driver's own counter says it loaded.
        fn rows_loaded(self, report: &OutOfCoreReport) -> u64 {
            let loaded = match self {
                Driver::OutOfCore => report.metrics.counter("ooc.rows.loaded", None),
                Driver::Pipeline => report.metrics.counter("pipeline.rows.loaded", Some(0)),
            };
            loaded.unwrap()
        }

        /// A run with an optional checkpoint, on a fresh reconstructor
        /// per call, as after a real crash.
        fn run_with(
            self,
            g: &CbctGeometry,
            source: &dyn RowSource,
            checkpoint: Option<(&StorageEndpoint, &CheckpointSpec)>,
        ) -> Result<(scalefbp_geom::Volume, OutOfCoreReport), ReconstructionError> {
            let mut rec = OutOfCoreReconstructor::new(config(g))?;
            rec.block_bytes = ROWS * g.np * g.nu * 4;
            let schedule = match self {
                Driver::OutOfCore => Schedule::Serial,
                Driver::Pipeline => Schedule::Overlapped,
            };
            rec.reconstruct(
                source,
                StreamRun {
                    checkpoint,
                    ..schedule.into()
                },
            )
        }
    }

    /// Records every read, and fails the reads `fail` picks: it is
    /// called with the read's projections and how many reads of them came
    /// before it.
    struct Counting<'a> {
        inner: &'a dyn RowSource,
        reads: Mutex<Vec<(RowRange, Range<usize>)>>,
        fail: Pick,
    }

    /// Which reads a [`Counting`] source fails.
    type Pick = Box<dyn Fn(&Range<usize>, usize) -> bool + Send + Sync>;

    impl<'a> Counting<'a> {
        fn new(inner: &'a dyn RowSource) -> Self {
            Counting::failing(inner, Box::new(|_, _| false))
        }

        fn failing(inner: &'a dyn RowSource, fail: Pick) -> Self {
            Counting {
                inner,
                reads: Mutex::new(Vec::new()),
                fail,
            }
        }

        /// The non-empty reads, in order.
        fn reads(&self) -> Vec<RowRange> {
            let reads = self.reads.lock().unwrap();
            reads
                .iter()
                .map(|(r, _)| *r)
                .filter(|r| !r.is_empty())
                .collect()
        }

        /// How often each detector row of `share` was read.
        fn times_read(&self, share: &Range<usize>) -> Vec<usize> {
            let mut times = vec![0; self.inner.shape().0];
            for (r, _) in self
                .reads
                .lock()
                .unwrap()
                .iter()
                .filter(|(_, s)| s == share)
            {
                for n in &mut times[r.begin..r.end] {
                    *n += 1;
                }
            }
            times
        }
    }

    impl RowSource for Counting<'_> {
        fn shape(&self) -> (usize, usize, usize) {
            self.inner.shape()
        }

        fn read_rows(&self, rows: RowRange, s: Range<usize>) -> std::io::Result<ProjectionStack> {
            let mut reads = self.reads.lock().unwrap();
            let before = reads.iter().filter(|(_, other)| *other == s).count();
            if (self.fail)(&s, before) {
                return Err(std::io::Error::other("injected read failure"));
            }
            reads.push((rows, s.clone()));
            drop(reads);
            self.inner.read_rows(rows, s)
        }
    }

    #[test]
    fn split_covers_the_range_in_ring_order() {
        let g = geom();
        let p = ProjectionStack::zeros(g.nv, g.np, g.nu);
        let cfg = FdkConfig::new(g.clone());
        let path = DataPath::new(&cfg, &p, ROWS * g.np * g.nu * 4);
        let all = 0..g.np;
        // Increasing Z maps to decreasing detector v: every plan walks down.
        let tasks = VolumeDecomposition::full(&g, 4).tasks().to_vec();
        assert!(tasks.windows(2).all(|w| w[1].rows.begin <= w[0].rows.begin));
        let ranges = |r: &[(usize, usize)]| r.iter().map(|&(b, e)| RowRange::new(b, e)).collect();
        let blocks: Vec<RowRange> = ranges(&[(16, 18), (13, 16), (10, 13)]);
        assert_eq!(path.split(RowRange::new(10, 18), &all), blocks);
        assert_eq!(path.split(RowRange::new(7, 7), &all), [RowRange::new(7, 7)]);
        // Half the projections make blocks twice as tall.
        let blocks: Vec<RowRange> = ranges(&[(16, 18), (10, 16)]);
        assert_eq!(path.split(RowRange::new(10, 18), &(0..g.np / 2)), blocks);
        // Rows wider than a block still make one-row blocks.
        let one = DataPath::new(&cfg, &p, 1);
        assert_eq!(one.split(RowRange::new(0, 2), &all).len(), 2);
    }

    #[test]
    fn each_needed_row_is_read_once_top_down_in_blocks() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
        let reference = fdk_reconstruct(&g, &p).unwrap();
        let nb = OutOfCoreReconstructor::new(config(&g)).unwrap().nb();
        let tasks = VolumeDecomposition::full(&g, nb).tasks().to_vec();
        assert!(tasks.len() > 2, "expected an actual streaming plan");
        assert!(
            tasks.iter().any(|t| t.new_rows.len() > ROWS),
            "expected a batch cut into several blocks"
        );
        for driver in Driver::ALL {
            let source = Counting::new(&p);
            let (vol, loaded) = driver.run(&g, &source).unwrap();
            assert_eq!(vol.data(), reference.data(), "{driver:?}");
            let reads = source.reads();
            // Every row some slab needs was read exactly once, and the
            // driver's own counter agrees with the source.
            let mut times_read = vec![0; g.nv];
            for r in &reads {
                assert!(r.len() <= ROWS, "{driver:?}: read {r:?} exceeds a block");
                for n in &mut times_read[r.begin..r.end] {
                    *n += 1;
                }
            }
            for (v, &n) in times_read.iter().enumerate() {
                let needed = tasks.iter().any(|t| t.rows.contains(v));
                assert_eq!(n, usize::from(needed), "{driver:?}: row {v}");
            }
            assert_eq!(loaded, reads.iter().map(|r| r.len() as u64).sum());
            // Batch by batch, the blocks arrive top-down.
            let mut reads = reads.into_iter();
            for t in tasks.iter().filter(|t| !t.new_rows.is_empty()) {
                let mut end = t.new_rows.end;
                while end > t.new_rows.begin {
                    let r = reads.next().unwrap();
                    assert_eq!(r.end, end, "{driver:?}: batch {}", t.index);
                    end = r.begin;
                }
            }
        }
    }

    /// Both schedules run one slab loop: the overlapped one makes the
    /// serial one's reads in the same order and the same device charges,
    /// and its wall trace holds one span per stage and batch, back to
    /// back in `load → filter → bp → store` order.
    #[test]
    fn both_schedules_run_one_slab_loop() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
        let run = |driver: Driver| {
            let source = Counting::new(&p);
            let (_, report) = driver.run_with(&g, &source, None).unwrap();
            (source.reads.into_inner().unwrap(), report)
        };
        let (serial_reads, serial) = run(Driver::OutOfCore);
        let (reads, report) = run(Driver::Pipeline);
        assert_eq!(reads, serial_reads);
        assert_eq!(report.device, serial.device);
        let spans = report.trace.spans();
        let want: Vec<_> = report
            .batches
            .iter()
            .flat_map(|b| ["load", "filter", "bp", "store"].map(|s| (s, b.index)))
            .collect();
        let got: Vec<_> = spans.iter().map(|s| (s.stage.as_str(), s.item)).collect();
        assert_eq!(got, want);
        for w in spans.windows(2) {
            assert!(w[0].end <= w[1].start, "overlapping spans: {w:?}");
        }
    }

    /// Runs `f` on its own thread and waits at most a minute for it: a
    /// driver that hangs fails the test instead of the suite.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(f()));
        let out = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("driver did not return within a minute");
        worker
            .join()
            .expect("the driver thread returned")
            .expect("the receiver was alive");
        out
    }

    #[test]
    fn a_failed_read_is_an_error_and_every_stage_joins() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
        let reads = {
            let source = Counting::new(&p);
            Driver::OutOfCore.run(&g, &source).unwrap();
            source.reads().len()
        };
        assert!(reads > 3);
        for driver in Driver::ALL {
            for k in [0, 1, reads / 2, reads - 1] {
                let (g, p) = (g.clone(), p.clone());
                let outcome = within_a_minute(move || {
                    let source = Counting::failing(&p, Box::new(move |_, n| n == k));
                    driver.run(&g, &source).map(|_| ())
                });
                match outcome {
                    Err(ReconstructionError::Input(what)) => {
                        assert!(what.contains("injected read failure"), "{what}")
                    }
                    other => panic!("{driver:?} read {k}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_malformed_block_is_an_error() {
        struct Short(ProjectionStack);
        impl RowSource for Short {
            fn shape(&self) -> (usize, usize, usize) {
                self.0.shape()
            }
            fn read_rows(&self, r: RowRange, s: Range<usize>) -> std::io::Result<ProjectionStack> {
                let short = RowRange::new(r.begin, r.end.saturating_sub(1).max(r.begin));
                self.0.read_rows(short, s)
            }
        }
        let g = geom();
        let short = Short(ProjectionStack::zeros(g.nv, g.np, g.nu));
        for driver in Driver::ALL {
            match driver.run(&g, &short) {
                Err(ReconstructionError::Input(what)) => assert!(what.contains("returned")),
                other => panic!("{driver:?}: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn file_and_memory_sources_give_the_in_core_bits() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
        let reference = fdk_reconstruct(&g, &p).unwrap();
        let dir = scratch("sources");
        let scan_path = dir.join("scan.sfbp");
        std::fs::write(&scan_path, encode_projections(&p)).unwrap();
        let scan = ScanFile::open(&scan_path).unwrap();
        let sources: [(&str, &dyn RowSource); 2] = [("stack", &p), ("file", &scan)];
        for driver in Driver::ALL {
            for (name, source) in sources {
                let (vol, _) = driver.run(&g, source).unwrap();
                assert_eq!(vol.data(), reference.data(), "{driver:?} from {name}");
            }
        }
        assert_eq!(scan.read_all().unwrap(), p);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn killed_run_resumes_from_a_scan_file_bitwise() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
        let reference = fdk_reconstruct(&g, &p).unwrap();
        let dir = scratch("resume");
        let scan_path = dir.join("scan.sfbp");
        std::fs::write(&scan_path, encode_projections(&p)).unwrap();
        let scan = ScanFile::open(&scan_path).unwrap();
        for driver in Driver::ALL {
            // A fresh reconstructor per run, as after a real crash: the
            // driver's counters then count this run's reads only.
            let ep = StorageEndpoint::local_nvme(Some(dir.join(format!("{driver:?}"))));
            let kill = CheckpointSpec::new("ck", 1).killing_after(2);
            assert!(matches!(
                driver.run_with(&g, &scan, Some((&ep, &kill))),
                Err(ReconstructionError::Interrupted { completed_slabs: 2 })
            ));
            let source = Counting::new(&scan);
            let resume = CheckpointSpec::new("ck", 1).resuming();
            let (vol, report) = driver.run_with(&g, &source, Some((&ep, &resume))).unwrap();
            assert_eq!(vol.data(), reference.data(), "{driver:?}");
            // The committed slabs were loaded, not read again from the scan.
            let read: usize = source.reads().iter().map(|r| r.len()).sum();
            assert_eq!(driver.rows_loaded(&report), read as u64, "{driver:?}");
            assert_eq!(
                report.batches[..2]
                    .iter()
                    .map(|b| b.rows_loaded)
                    .sum::<usize>(),
                0,
                "{driver:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// In core, the one-slab plan reads each row its slab needs once,
    /// and a region of interest reads only its own rows.
    #[test]
    fn in_core_reads_each_needed_row_once() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
        let full = fdk_reconstruct(&g, &p).unwrap();
        for (z0, z1) in [(0, g.nz), (20, 28), (g.nz - 3, g.nz)] {
            let source = Counting::new(&p);
            let cfg = FdkConfig::new(g.clone());
            let vol = fdk_reconstruct_configured(&cfg, &source, Some((z0, z1))).unwrap();
            assert_eq!(vol.data(), &full.data()[z0 * g.nx * g.ny..z1 * g.nx * g.ny]);
            let needed = compute_ab(&g, z0, z1);
            for (v, n) in source.times_read(&(0..g.np)).into_iter().enumerate() {
                assert_eq!(n, usize::from(needed.contains(v)), "[{z0}, {z1}): row {v}");
            }
        }
    }

    /// The reference a ring must match: the whole filtered stack
    /// back-projected at once.
    fn whole_stack(g: &CbctGeometry, p: &ProjectionStack) -> Volume {
        let cfg = FdkConfig::new(g.clone());
        let filter = FilterPipeline::new(g, cfg.window);
        let mut filtered = p.clone();
        filter.filter_stack(&mut filtered);
        let mut vol = Volume::zeros(g.nx, g.ny, g.nz);
        let mats = ProjectionMatrix::full_scan(g);
        host::run_backprojection(cfg.kernel, &filtered, &mats, &mut vol);
        scale_sum(vol.data_mut(), filter.backprojection_scale() as f32);
        vol
    }

    /// An in-core region of interest whose rows start off a multiple of
    /// the ring's height reads its one wrapped block as two runs of slots,
    /// the upper first, and still gives the whole-stack bits, as every
    /// mode does.
    #[test]
    fn a_wrapped_block_in_core_gives_the_whole_stack_bits_in_every_mode() {
        let _serial = crate::TIMING_TEST_LOCK.lock();
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
        let slab = |v: &Volume, z0: usize, z1: usize| {
            v.data()[z0 * g.nx * g.ny..z1 * g.nx * g.ny].to_vec()
        };
        let reference = whole_stack(&g, &p);
        let (z0, z1) = (20, 28);
        let rows = compute_ab(&g, z0, z1);
        let cut = rows.begin.div_ceil(rows.len()) * rows.len();
        assert!(
            rows.begin < cut && cut < rows.end,
            "expected a wrapped block: {rows:?}"
        );
        let source = Counting::new(&p);
        let roi = fdk_reconstruct_configured(&FdkConfig::new(g.clone()), &source, Some((z0, z1)));
        assert_eq!(roi.unwrap().data(), slab(&reference, z0, z1));
        let runs = [RowRange::new(cut, rows.end), RowRange::new(rows.begin, cut)];
        assert_eq!(source.reads(), runs);
        for driver in Driver::ALL {
            let (vol, _) = driver.run(&g, &p).unwrap();
            assert_eq!(vol.data(), reference.data(), "{driver:?}");
        }
        // One rank per group: a sum over every projection, as in core.
        let cfg = FdkConfig::new(g.clone()).with_nc(2);
        let layout = RankLayout::new(1, 2, 2);
        let out = fault_tolerant_reconstruct(&cfg, layout, &p, &FaultPlan::none(), None).unwrap();
        assert_eq!(out.volume.data(), reference.data());
    }

    /// A rectangular footprint's corner voxel is off the diagonal that
    /// `ComputeAB` samples, so its slabs' rows come from the conservative
    /// bound: the one-slab ring holds every row the kernel samples. A wide
    /// cone and noise on every row make a missed row show.
    #[test]
    fn in_core_on_a_rectangular_footprint_is_the_whole_stack_bits() {
        let mut g = CbctGeometry::ideal(16, 8, 256, 320);
        g.ny = 4;
        let mut p = ProjectionStack::zeros(g.nv, g.np, g.nu);
        let mut x = 0x2545_f491_u32;
        for v in p.data_mut() {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            *v = x as f32 / u32::MAX as f32;
        }
        let vol = fdk_reconstruct(&g, &p).unwrap();
        assert_eq!(vol.data(), whole_stack(&g, &p).data());
    }

    /// A z grid coarser than the detector's rows: adjacent slabs' rows
    /// leave a gap, so a batch's rows do not extend the ring's window and
    /// the window starts afresh. Every mode still writes the in-core bits.
    #[test]
    fn a_coarse_z_grid_reconstructs_in_every_mode() {
        let _serial = crate::TIMING_TEST_LOCK.lock();
        let g = CbctGeometry::ideal(16, 16, 64, 64).with_volume(6, 6, 6);
        let p = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
        let gap = |nb| {
            let plan = VolumeDecomposition::full(&g, nb);
            let tasks = plan.tasks().to_vec();
            tasks.windows(2).any(|w| w[1].rows.end < w[0].rows.begin)
        };
        let reference = fdk_reconstruct(&g, &p).unwrap();
        assert_eq!(reference.data(), whole_stack(&g, &p).data());
        assert!(gap(OutOfCoreReconstructor::new(config(&g)).unwrap().nb()));
        for driver in Driver::ALL {
            let (vol, _) = driver.run(&g, &p).unwrap();
            assert_eq!(vol.data(), reference.data(), "{driver:?}");
        }
        // One rank per group, each walking its three one-slice batches.
        assert!(gap(1));
        let cfg = FdkConfig::new(g.clone()).with_nc(3);
        let layout = RankLayout::new(1, 2, 3);
        let out = fault_tolerant_reconstruct(&cfg, layout, &p, &FaultPlan::none(), None).unwrap();
        assert_eq!(out.volume.data(), reference.data());
    }

    /// Each distributed rank keeps one ring across its batches, so at
    /// `N_c = 8` it reads (and filters) each row of its share once, not
    /// once per batch whose window holds the row.
    #[test]
    fn each_rank_reads_each_row_of_its_share_once() {
        let _serial = crate::TIMING_TEST_LOCK.lock();
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
        let layout = RankLayout::new(2, 1, 8);
        let cfg = FdkConfig::new(g.clone()).with_nc(8);
        let source = Counting::new(&p);
        let out =
            fault_tolerant_reconstruct(&cfg, layout, &source, &FaultPlan::none(), None).unwrap();
        assert!(out.recovery.is_empty(), "{:?}", out.recovery);
        let tasks = VolumeDecomposition::full(&g, g.nz.div_ceil(8))
            .tasks()
            .to_vec();
        assert_eq!(tasks.len(), 8);
        let windows: usize = tasks.iter().map(|t| t.rows.len()).sum();
        for rank in 0..layout.num_ranks() {
            let a = layout.assignment(&g, rank);
            let times = source.times_read(&(a.s_begin..a.s_end));
            for (v, &n) in times.iter().enumerate() {
                let needed = tasks.iter().any(|t| t.rows.contains(v));
                assert_eq!(n, usize::from(needed), "rank {rank}: row {v}");
            }
            assert!(windows > times.iter().sum::<usize>() * 3 / 2);
        }
    }

    /// A read that fails on a distributed rank — a worker, a leader, or a
    /// deputy recomputing a dead leader's slabs — is the run's input
    /// error naming the rows, however the protocol recovered, and the
    /// world joins.
    #[test]
    fn a_failed_read_on_a_rank_is_an_error_and_the_world_joins() {
        let _serial = crate::TIMING_TEST_LOCK.lock();
        let g = CbctGeometry::ideal(16, 16, 24, 20);
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let half = g.np / 2;
        // Rank 2 leads group 1 and dies at its first receive, after its
        // first read; its deputy's takeover recompute reads fail.
        let kill_leader = FaultPlan::from_events(vec![FaultEvent {
            rank: 2,
            channel: Channel::Recv,
            op_index: 0,
            kind: FaultKind::RankFailure,
        }]);
        let cases: Vec<(&str, usize, FaultPlan, Pick)> = vec![
            (
                "root",
                1,
                FaultPlan::none(),
                Box::new(|s, n| s.start == 0 && n == 0),
            ),
            (
                "root, second batch",
                1,
                FaultPlan::none(),
                Box::new(|s, n| s.start == 0 && n == 1),
            ),
            (
                "worker",
                1,
                FaultPlan::none(),
                Box::new(move |s, n| s.start == half && n == 0),
            ),
            (
                "worker, second batch",
                1,
                FaultPlan::none(),
                Box::new(move |s, n| s.start == half && n == 1),
            ),
            (
                "takeover",
                2,
                kill_leader,
                Box::new(|s, n| s.start == 0 && n >= 3),
            ),
        ];
        let threads: Vec<_> = cases
            .into_iter()
            .map(|(name, ng, plan, fail)| {
                let (g, p) = (g.clone(), p.clone());
                let run = std::thread::spawn(move || {
                    within_a_minute(move || {
                        let source = Counting::failing(&p, fail);
                        let cfg = FdkConfig::new(g).with_nc(2);
                        let layout = RankLayout::new(2, ng, 2);
                        fault_tolerant_reconstruct(&cfg, layout, &source, &plan, None).map(|_| ())
                    })
                });
                (name, run)
            })
            .collect();
        for (name, run) in threads {
            match run.join().unwrap() {
                Err(ReconstructionError::Input(what)) => assert!(
                    what.contains("injected read failure") && what.starts_with("rows ["),
                    "{name}: {what}"
                ),
                other => panic!("{name}: {other:?}"),
            }
        }
    }
}
