//! Storage substrate: the parallel file system and node-local NVMe the
//! paper's pipeline loads projections from and stores volumes to.
//!
//! Two halves:
//!
//! * [`StorageEndpoint`] — a bandwidth-modelled storage target with traffic
//!   counters. Presets carry the constants measured on ABCI
//!   (`BW_store ≈ 28.5 GB/s` aggregate Lustre writes — the number that
//!   makes the weak-scaling floor of Figure 14 land at ~9 s — and
//!   NVMe-class local read bandwidth consistent with Table 5's `T_load`).
//!   Endpoints can also *actually* read/write files, so small runs exercise
//!   real I/O while paper-scale runs only run the cost model.
//! * [`mod@format`] — minimal on-disk formats: a raw f32 container for volumes
//!   and projection stacks (`SFBP` header + little-endian data), read whole
//!   or by detector rows ([`format::ScanFile`]), and binary PGM slice export
//!   for visual inspection (the Figure 8 / Figure 11 deliverables).

pub mod format;
mod storage;

pub use storage::{StorageCounters, StorageEndpoint};
