//! Shared kill/resume helpers for the checkpoint/restart tests, the
//! serve scheduler tests and the `scalefbp-bench` programs; they live
//! here once so the bitwise-identity assertion and the kill-grid policy
//! cannot drift between the suites.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use scalefbp_geom::Volume;
use scalefbp_iosim::StorageEndpoint;
use scalefbp_obs::MetricsSnapshot;

/// Asserts `got` is bitwise identical to `golden` — the acceptance
/// criterion every kill/resume and scheduler path must meet. Compares
/// f32 bit patterns, so `-0.0` vs `0.0` or NaN payload drift fails.
pub fn assert_bitwise(golden: &Volume, got: &Volume, what: &str) {
    assert!(
        golden.data().len() == got.data().len()
            && golden
                .data()
                .iter()
                .zip(got.data())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{what}: not bitwise identical to the golden run"
    );
}

/// A fresh scratch directory under the system temp dir, namespaced by
/// tag and pid so parallel test binaries do not collide. Any previous
/// contents are removed.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("scalefbp-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A local-NVMe storage endpoint rooted at a fresh scratch directory —
/// the canonical checkpoint target of the kill/resume tests.
pub fn scratch_endpoint(tag: &str) -> StorageEndpoint {
    StorageEndpoint::local_nvme(Some(scratch_dir(tag)))
}

/// A clean subdirectory `name` under `root` (removed first if present),
/// as the bench harnesses use below their `--out-dir`.
pub fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let d = root.join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create checkpoint dir");
    d
}

/// Slabs the resume path loaded from the checkpoint instead of
/// recomputing, read from the endpoint's `ckpt.resumed.slabs` counter.
pub fn resumed_slabs(ep: &StorageEndpoint) -> u64 {
    ep.metrics_registry()
        .snapshot()
        .counter("ckpt.resumed.slabs", None)
        .unwrap_or(0)
}

/// Renders a metrics snapshot as stable `key = value` lines, skipping
/// every metric whose name is in `exclude`. The canonical form the
/// cross-backend conformance suite diffs: two snapshots are "equal
/// modulo the time domain" iff these lines are equal with
/// `exclude = TIME_DOMAIN_METRICS`.
pub fn snapshot_lines(snapshot: &MetricsSnapshot, exclude: &[&str]) -> Vec<String> {
    snapshot
        .entries()
        .filter(|(k, _)| !exclude.contains(&k.name.as_str()))
        .map(|(k, v)| format!("{k} = {v:?}"))
        .collect()
}

/// Asserts two metrics snapshots are identical outside the `exclude`d
/// metric names, printing the exact lines that differ. Pass `&[]` to
/// demand full equality (the golden-replay tests), or
/// `scalefbp_exec::TIME_DOMAIN_METRICS` for sim-vs-cpu comparisons.
pub fn assert_snapshots_match(
    golden: &MetricsSnapshot,
    got: &MetricsSnapshot,
    exclude: &[&str],
    what: &str,
) {
    let a = snapshot_lines(golden, exclude);
    let b = snapshot_lines(got, exclude);
    if a == b {
        return;
    }
    let missing: Vec<_> = a.iter().filter(|l| !b.contains(l)).collect();
    let extra: Vec<_> = b.iter().filter(|l| !a.contains(l)).collect();
    panic!(
        "{what}: metric snapshots differ (excluding {exclude:?})\n\
         only in golden:\n  {}\nonly in got:\n  {}",
        missing
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join("\n  "),
        extra
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join("\n  ")
    );
}

/// Serialises every test that touches the `SCALEFBP_SIMD` process
/// environment variable. The kernel reads it *per call*, so a test that
/// sets it while another backend-sensitive test runs on a sibling
/// thread would silently flip that test's kernel selection.
static SIMD_ENV_LOCK: Mutex<()> = Mutex::new(());

/// RAII override of `SCALEFBP_SIMD`: takes the process-wide serial lock,
/// snapshots the current value, applies the override, and restores the
/// snapshot on drop (unset stays unset). Tests that *read* backend
/// selection without overriding it should hold [`SimdEnvGuard::cleared`]
/// so a concurrently scheduled override cannot leak into them.
pub struct SimdEnvGuard {
    prev: Option<OsString>,
    _lock: MutexGuard<'static, ()>,
}

impl SimdEnvGuard {
    fn acquire() -> (Option<OsString>, MutexGuard<'static, ()>) {
        // A panic while holding the guard poisons the mutex but leaves
        // the variable restored (Drop ran), so the state is still clean.
        let lock = SIMD_ENV_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        (std::env::var_os("SCALEFBP_SIMD"), lock)
    }

    /// Forces `SCALEFBP_SIMD=value` for the guard's lifetime.
    pub fn force(value: &str) -> Self {
        let (prev, lock) = Self::acquire();
        std::env::set_var("SCALEFBP_SIMD", value);
        SimdEnvGuard { prev, _lock: lock }
    }

    /// Clears any `SCALEFBP_SIMD` override for the guard's lifetime, so
    /// the kernel uses genuine CPU-feature detection.
    pub fn cleared() -> Self {
        let (prev, lock) = Self::acquire();
        std::env::remove_var("SCALEFBP_SIMD");
        SimdEnvGuard { prev, _lock: lock }
    }
}

impl Drop for SimdEnvGuard {
    fn drop(&mut self) {
        match &self.prev {
            Some(v) => std::env::set_var("SCALEFBP_SIMD", v),
            None => std::env::remove_var("SCALEFBP_SIMD"),
        }
    }
}

/// Kill grid for a run of `slabs` durable commits: first commit, middle,
/// and last-but-one (so the resume path covers nearly-empty and
/// nearly-full checkpoints).
pub fn kill_points(slabs: usize) -> Vec<usize> {
    assert!(
        slabs >= 2,
        "kill/resume needs a multi-slab run, got {slabs}"
    );
    let mut ks = vec![1, (slabs / 2).max(1), slabs - 1];
    ks.dedup();
    ks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_points_cover_edges_and_dedup() {
        assert_eq!(kill_points(2), vec![1]);
        assert_eq!(kill_points(6), vec![1, 3, 5]);
    }

    #[test]
    fn bitwise_assert_accepts_identical_volumes() {
        let v = Volume::zeros(2, 2, 2);
        assert_bitwise(&v, &v.clone(), "self");
    }

    #[test]
    #[should_panic(expected = "not bitwise identical")]
    fn bitwise_assert_rejects_negative_zero() {
        let a = Volume::zeros(1, 1, 1);
        let mut b = Volume::zeros(1, 1, 1);
        b.data_mut()[0] = -0.0;
        assert_bitwise(&a, &b, "signed zero");
    }

    #[test]
    fn simd_env_guard_restores_previous_value_even_across_nesting() {
        let outer = SimdEnvGuard::force("scalar");
        assert_eq!(
            std::env::var("SCALEFBP_SIMD").as_deref(),
            Ok("scalar"),
            "guard applies the override"
        );
        drop(outer);

        // Whatever the ambient value was before the first guard, a
        // force → cleared → drop-all sequence must restore it exactly.
        let ambient = std::env::var_os("SCALEFBP_SIMD");
        {
            let _forced = SimdEnvGuard::force("scalar");
            assert!(std::env::var_os("SCALEFBP_SIMD").is_some());
        }
        assert_eq!(std::env::var_os("SCALEFBP_SIMD"), ambient);
        {
            let _cleared = SimdEnvGuard::cleared();
            assert!(std::env::var_os("SCALEFBP_SIMD").is_none());
        }
        assert_eq!(std::env::var_os("SCALEFBP_SIMD"), ambient);
    }

    #[test]
    fn snapshot_diff_reports_the_offending_metric_and_honours_excludes() {
        use scalefbp_obs::MetricsRegistry;
        let a = MetricsRegistry::new();
        a.counter("gpu.h2d.bytes").add(7);
        a.counter("gpu.kernel.nanos").add(100);
        let b = MetricsRegistry::new();
        b.counter("gpu.h2d.bytes").add(7);
        b.counter("gpu.kernel.nanos").add(999);

        // Equal outside the excluded time metric...
        assert_snapshots_match(
            &a.snapshot(),
            &b.snapshot(),
            &["gpu.kernel.nanos"],
            "modulo time",
        );
        // ...and the full comparison names the culprit.
        let err = std::panic::catch_unwind(|| {
            assert_snapshots_match(&a.snapshot(), &b.snapshot(), &[], "strict");
        })
        .expect_err("strict comparison must fail");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("gpu.kernel.nanos"),
            "diff should name the differing metric, got: {msg}"
        );
    }
}
