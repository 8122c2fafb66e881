//! How the streaming driver cuts a batch's detector rows into blocks: the
//! unit it reads from a [`scalefbp_geom::RowSource`], filters, and writes
//! into the ring. A block is dropped as soon as it is in the ring, so a
//! run holds the ring plus a few blocks, never the scan.

use scalefbp_geom::{RowRange, SubVolumeTask};

/// Bytes of one row block (rounded down to whole rows, at least one).
pub(crate) const BLOCK_BYTES: usize = 4 << 20;

/// The block plan of one decomposition.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RowBlocks {
    /// Rows per block.
    rows: usize,
    /// Whether the slabs walk down the detector. Then each batch's new
    /// rows lie below the ring, and its blocks must arrive top-down for
    /// every write to stay contiguous with the ring's window.
    downward: bool,
}

impl RowBlocks {
    /// Blocks of `max(1, block_bytes / (np·nu·4))` rows for `tasks`.
    pub(crate) fn new(tasks: &[SubVolumeTask], np: usize, nu: usize, block_bytes: usize) -> Self {
        RowBlocks {
            rows: (block_bytes / (np * nu * 4).max(1)).max(1),
            downward: tasks.windows(2).any(|w| w[1].rows.begin < w[0].rows.begin),
        }
    }

    /// `r` as consecutive blocks in the order the ring accepts them. An
    /// empty range is one empty block, so every batch sends something.
    pub(crate) fn split(&self, r: RowRange) -> Vec<RowRange> {
        if r.is_empty() {
            return vec![r];
        }
        let mut blocks: Vec<RowRange> = (r.begin..r.end)
            .step_by(self.rows)
            .map(|b| RowRange::new(b, (b + self.rows).min(r.end)))
            .collect();
        if self.downward {
            blocks.reverse();
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    use std::time::Duration;

    use scalefbp_ckpt::CheckpointSpec;
    use scalefbp_geom::{CbctGeometry, VolumeDecomposition};
    use scalefbp_gpusim::DeviceSpec;
    use scalefbp_iosim::format::{encode_projections, ScanFile};
    use scalefbp_iosim::StorageEndpoint;
    use scalefbp_phantom::{forward_project, uniform_ball};

    use super::*;
    use crate::ReconstructionError;
    use crate::{
        fdk_reconstruct, FdkConfig, OutOfCoreReconstructor, OutOfCoreReport, Schedule, StreamRun,
    };
    use scalefbp_geom::{ProjectionStack, RowSource};

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

    /// Records every read, and fails the `fail_at`-th one.
    struct Counting<'a> {
        inner: &'a dyn RowSource,
        reads: Mutex<Vec<RowRange>>,
        fail_at: Option<usize>,
    }

    impl<'a> Counting<'a> {
        fn new(inner: &'a dyn RowSource, fail_at: Option<usize>) -> Self {
            Counting {
                inner,
                reads: Mutex::new(Vec::new()),
                fail_at,
            }
        }

        /// The non-empty reads, in order.
        fn reads(&self) -> Vec<RowRange> {
            let reads = self.reads.lock().unwrap();
            reads.iter().copied().filter(|r| !r.is_empty()).collect()
        }
    }

    impl RowSource for Counting<'_> {
        fn shape(&self) -> (usize, usize, usize) {
            self.inner.shape()
        }

        fn read_rows(&self, v_begin: usize, v_end: usize) -> std::io::Result<ProjectionStack> {
            let mut reads = self.reads.lock().unwrap();
            if self.fail_at == Some(reads.len()) {
                return Err(std::io::Error::other("injected read failure"));
            }
            reads.push(RowRange::new(v_begin, v_end));
            drop(reads);
            self.inner.read_rows(v_begin, v_end)
        }
    }

    #[test]
    fn split_covers_the_range_in_ring_order() {
        let g = geom();
        let tasks = VolumeDecomposition::full(&g, 4).tasks().to_vec();
        let blocks = RowBlocks::new(&tasks, g.np, g.nu, ROWS * g.np * g.nu * 4);
        // Increasing Z maps to decreasing detector v: this plan walks down.
        assert!(blocks.downward);
        assert_eq!(
            blocks.split(RowRange::new(10, 18)),
            [(16, 18), (13, 16), (10, 13)].map(|(b, e)| RowRange::new(b, e))
        );
        let up = RowBlocks {
            downward: false,
            ..blocks
        };
        assert_eq!(
            up.split(RowRange::new(10, 17)),
            [(10, 13), (13, 16), (16, 17)].map(|(b, e)| RowRange::new(b, e))
        );
        assert_eq!(blocks.split(RowRange::new(7, 7)), [RowRange::new(7, 7)]);
        // Rows wider than a block still make one-row blocks.
        let one = RowBlocks::new(&tasks, g.np, g.nu, 1);
        assert_eq!(one.split(RowRange::new(0, 2)).len(), 2);
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
            let source = Counting::new(&p, None);
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
            let source = Counting::new(&p, None);
            Driver::OutOfCore.run(&g, &source).unwrap();
            source.reads().len()
        };
        assert!(reads > 3);
        for driver in Driver::ALL {
            for k in [0, 1, reads / 2, reads - 1] {
                let (g, p) = (g.clone(), p.clone());
                let outcome = within_a_minute(move || {
                    let source = Counting::new(&p, Some(k));
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
            fn read_rows(&self, v_begin: usize, v_end: usize) -> std::io::Result<ProjectionStack> {
                self.0
                    .read_rows(v_begin, v_end.saturating_sub(1).max(v_begin))
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
            let source = Counting::new(&scan, None);
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
}
