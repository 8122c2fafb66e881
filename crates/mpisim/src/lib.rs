//! In-process MPI substitute.
//!
//! The paper's distributed framework uses MPI for exactly four things:
//! point-to-point transfers, `MPI_Comm_split` to form the `N_g` groups of
//! `N_r` ranks (Section 4.4.1), a *segmented* `MPI_Reduce` over each group
//! (Section 4.4.2), and a hierarchical node-leader reduction to cut
//! inter-node traffic. No MPI runtime exists in this environment, so this
//! crate reimplements that surface with threads and crossbeam channels:
//!
//! * [`World::run`] — launches `size` rank threads, hands each a
//!   [`Communicator`], joins them and returns their results in rank order.
//! * [`Communicator`] — `rank`/`size`, tagged `send`, one selective
//!   receive ([`Communicator::recv_any`]: a set of `(from, tag)` keys and
//!   an optional deadline, `MPI_Waitany`-style, with the CRC-checked twin
//!   [`Communicator::recv_any_sealed`]; `recv` is its one-key form),
//!   `barrier`, `bcast`, `gather`, binomial-tree
//!   [`Communicator::reduce_sum_f32`], and [`Communicator::split`]
//!   (the `MPI_Comm_split` of the paper, giving every group its own
//!   context so collectives never cross groups).
//! * [`hierarchical_reduce_sum`] — the paper's two-level reduction: ranks
//!   sharing a node first reduce to a node leader, then leaders reduce to
//!   the root (Section 4.4.2).
//! * [`Communicator::segmented_reduce_scatter_f32`] — the paper's headline
//!   segmented `MPI_Reduce`: a chunk-pipelined reduce-scatter delivering
//!   each rank only its own `Nz` segment, with a canonical rank-ordered
//!   summation shared by [`Communicator::reduce_sum_f32_canonical`] and
//!   [`hierarchical_reduce_sum_canonical`] so all three are bit-identical
//!   (the contract `docs/communication.md` documents and
//!   `tests/collective_conformance.rs` pins).
//! * [`ReduceMode`] — selects among the three algorithms on the driver
//!   configs and the CLI (`--reduce-mode`).
//! * [`CommCostModel`] — an α–β (latency/bandwidth) model of collective
//!   cost used by the discrete-event pipeline; the tree reduce costs
//!   `⌈log₂ N_r⌉` rounds, the dense reduce `p-1` serial ingests, and the
//!   segmented reduce-scatter a chunk pipeline that approaches
//!   `bytes·(β+γ)` independent of `p` — the Table 2 communication column.
//!
//! Every byte through the network is counted ([`NetworkStats`], plus the
//! `mpisim.segreduce.*` per-rank counters) so the Table 2 ablation can
//! compare communication volumes across decomposition schemes without
//! timing anything.

mod comm;
mod cost;
mod mode;
mod world;

pub use comm::{CommError, Communicator, NetworkStats, SealedF32};
pub use cost::CommCostModel;
pub use mode::ReduceMode;
pub use world::World;

pub use comm::{hierarchical_reduce_sum, hierarchical_reduce_sum_canonical, segment_partition};
