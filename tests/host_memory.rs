//! Host memory of an in-core reconstruction from a `.sfbp` file: the ring
//! of rows, the volume and a small constant, never a block of rows on
//! top. Every row is read, decoded and filtered straight into its ring
//! slot, so the peak live heap stays well under one block above the ring
//! and the volume.
//!
//! A counting global allocator measures the live heap, so this binary
//! holds one test: run it by itself (`--test-threads 1`), so that no
//! other test's allocations show in the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use scalefbp::{fdk_reconstruct_configured, FdkConfig};
use scalefbp_geom::{compute_ab, CbctGeometry};
use scalefbp_iosim::format::{encode_projections, ScanFile};
use scalefbp_phantom::{forward_project, uniform_ball};

/// The system allocator, counting the live heap and its peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(n: usize) {
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What an in-core run may hold besides its ring and its volume: the
/// matrices, one row's bytes, the filter's plan and its per-thread
/// buffers (about 60 KB on two threads), with room for more threads.
const SLACK: usize = 512 << 10;

#[test]
fn in_core_holds_the_ring_and_the_volume_and_no_block() {
    let g = CbctGeometry::ideal(48, 96, 96, 96);
    let path =
        std::env::temp_dir().join(format!("scalefbp-host-memory-{}.sfbp", std::process::id()));
    let scan = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
    std::fs::write(&path, encode_projections(&scan)).unwrap();
    drop(scan);
    let file = ScanFile::open(&path).unwrap();
    let config = FdkConfig::new(g.clone());
    let rows = compute_ab(&g, 0, g.nz).len();
    let ring = rows * g.np * g.nu * 4;
    let volume = g.nx * g.ny * g.nz * 4;
    // In core the ring is the one slab's rows, read in blocks of up to
    // 4 MiB: here the block would be every row, the ring's size.
    assert!(ring >= 1 << 20 && SLACK * 4 <= ring.min(4 << 20));

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let vol = fdk_reconstruct_configured(&config, &file, None).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    std::fs::remove_file(&path).unwrap();

    assert_eq!(vol.data().len() * 4, volume);
    assert!(
        peak <= ring + volume + SLACK,
        "peak live heap {peak} B exceeds ring {ring} B + volume {volume} B + {SLACK} B"
    );
}
