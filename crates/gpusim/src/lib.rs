//! Simulated GPU accelerator.
//!
//! No CUDA device exists in this environment, so this crate supplies the two
//! properties of a GPU that the paper's contribution actually depends on:
//!
//! 1. **A hard device-memory capacity** — the entire point of the
//!    out-of-core decomposition is that a 4096³ volume (256 GB) does not fit
//!    in a 16 GB V100. [`Device`] enforces the capacity on every
//!    [`Device::alloc`] and fails with [`DeviceError::OutOfMemory`] exactly
//!    where RTK fails in Table 5 (the ✗ cells).
//! 2. **A calibrated cost model** — [`DeviceSpec`] carries the measured
//!    constants of the paper's evaluation hardware (V100: ~115 GUPS
//!    back-projection, PCIe 3.0 ×16 ≈ 12 GB/s; A100: ~155 GUPS, ×16 PCIe 4)
//!    and converts byte/update counts into simulated seconds, which the
//!    discrete-event pipeline and the Table 5 / Figure 13–15 harnesses
//!    consume.
//!
//! Transfers and kernel launches are also *counted* ([`DeviceCounters`]) so
//! ablation benches can compare data-movement volumes between decomposition
//! schemes without any timing at all.

mod device;
mod spec;

pub use device::{
    Device, DeviceBuffer, DeviceCounters, DeviceError, FLOPS_PER_UPDATE, TRANSFER_SIZE_BOUNDS,
};
pub use spec::DeviceSpec;
