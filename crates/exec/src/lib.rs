//! Pluggable compute backends for the scalefbp drivers.
//!
//! ROADMAP item 2: kernels, transfers and reductions used to assume
//! rayon-on-host plus `gpusim` accounting inline in every driver. This
//! crate puts one [`Executor`] trait between the drivers and the
//! resources — buffer alloc/free, host↔device transfer, kernel launch,
//! sync, and the byte+time accounting hooks feeding `scalefbp-obs` —
//! with two implementations:
//!
//! * [`SimExecutor`] — today's `gpusim` cost model, reproducing the
//!   pre-executor `gpu.*` counters and modelled seconds exactly.
//! * [`CpuExecutor`] — the same host kernels natively: unlimited
//!   memory, zero modelled time, byte/call accounting only.
//!
//! The cross-backend contracts (bitwise volumes, snapshot equality
//! outside [`TIME_DOMAIN_METRICS`]) are pinned by
//! `tests/backend_conformance.rs` and documented in `docs/backends.md`.

mod choices;
pub mod cpu;
mod executor;
pub mod host;
pub mod sim;

pub use choices::{BackendChoice, FilterChoice, KernelChoice};
pub use cpu::CpuExecutor;
pub use executor::{
    BufferId, ExecBuffer, ExecError, Executor, KernelKind, LaunchDescriptor, TIME_DOMAIN_METRICS,
};
pub use sim::SimExecutor;

#[cfg(test)]
mod tests {
    use super::*;
    use scalefbp_geom::CbctGeometry;
    use scalefbp_gpusim::{Device, DeviceSpec, FLOPS_PER_UPDATE};
    use scalefbp_obs::MetricsRegistry;
    use scalefbp_phantom::{forward_project, uniform_ball};

    #[test]
    fn sim_executor_charges_exactly_like_the_raw_device() {
        let reg_a = MetricsRegistry::new();
        let reg_b = MetricsRegistry::new();
        let exec = SimExecutor::with_observability(
            DeviceSpec::tiny(1 << 20),
            std::sync::Arc::new(scalefbp_faults::NoFaults),
            3,
            reg_a.clone(),
        );
        let dev = Device::with_observability(
            DeviceSpec::tiny(1 << 20),
            std::sync::Arc::new(scalefbp_faults::NoFaults),
            3,
            reg_b.clone(),
        );

        let buf = exec.alloc(4096).unwrap();
        let _raw = dev.alloc(4096).unwrap();
        let t1 = exec.h2d(Some(buf.id()), 1_000_000).unwrap();
        let t2 = dev.try_h2d(1_000_000).unwrap();
        assert_eq!(t1.to_bits(), t2.to_bits());
        let l1 = exec
            .launch(&LaunchDescriptor::backprojection(50_000))
            .unwrap();
        let l2 = dev.launch_backprojection(50_000);
        assert_eq!(l1.to_bits(), l2.to_bits());
        let d1 = exec.d2h(Some(buf.id()), 2_000_000).unwrap();
        let d2 = dev.try_d2h(2_000_000).unwrap();
        assert_eq!(d1.to_bits(), d2.to_bits());
        exec.sync().unwrap();

        assert_eq!(exec.counters(), dev.counters());
        assert_eq!(reg_a.snapshot().to_json(), reg_b.snapshot().to_json());
    }

    #[test]
    fn sim_alloc_enforces_capacity_and_frees_on_drop() {
        let exec = SimExecutor::new(DeviceSpec::tiny(1000));
        let a = exec.alloc(600).unwrap();
        match exec.alloc(500) {
            Err(ExecError::Device(scalefbp_gpusim::DeviceError::OutOfMemory {
                requested,
                free,
            })) => {
                assert_eq!((requested, free), (500, 400));
            }
            other => panic!("expected OOM, got {other:?}"),
        }
        drop(a);
        exec.alloc(1000).unwrap();
    }

    #[test]
    fn cpu_executor_records_byte_domain_metrics_with_zero_time() {
        let reg = MetricsRegistry::new();
        let exec = CpuExecutor::with_observability(0, reg.clone());
        let buf = exec.alloc(1 << 40).unwrap(); // unlimited memory
        exec.h2d(Some(buf.id()), 12345).unwrap();
        exec.d2h(None, 6789).unwrap();
        exec.launch(&LaunchDescriptor::backprojection(1000))
            .unwrap();
        let c = exec.counters();
        assert_eq!(c.h2d_bytes, 12345);
        assert_eq!(c.d2h_bytes, 6789);
        assert_eq!(c.kernel_updates, 1000);
        assert_eq!(c.kernel_launches, 1);
        assert_eq!(c.transfer_secs, 0.0);
        assert_eq!(c.kernel_secs, 0.0);
        assert_eq!(c.peak_allocated, 1 << 40);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("gpu.kernel.flops", Some(0)),
            Some(1000 * FLOPS_PER_UPDATE)
        );
        // The CPU backend never records modelled time.
        assert_eq!(snap.counter("gpu.transfer.nanos", Some(0)), None);
        assert_eq!(snap.counter("gpu.kernel.nanos", Some(0)), None);
        drop(buf);
        assert_eq!(exec.allocated(), 0);
    }

    #[test]
    fn computing_backends_agree_bitwise_on_the_kernels() {
        let g = CbctGeometry::ideal(16, 20, 24, 24);
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let mats = scalefbp_geom::ProjectionMatrix::full_scan(&g);
        let sim = SimExecutor::new(DeviceSpec::v100_16gb());
        let cpu = CpuExecutor::new();
        for kernel in KernelChoice::ALL {
            let mut va = scalefbp_geom::Volume::zeros(g.nx, g.ny, g.nz);
            let mut vb = scalefbp_geom::Volume::zeros(g.nx, g.ny, g.nz);
            let sa = sim.backproject(kernel, &p, &mats, &mut va).unwrap();
            let sb = cpu.backproject(kernel, &p, &mats, &mut vb).unwrap();
            assert_eq!(sa.updates, sb.updates, "{kernel}");
            assert_eq!(va.data(), vb.data(), "{kernel}");
        }
    }
}
