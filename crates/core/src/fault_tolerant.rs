//! The distributed framework (Section 4.4) on the in-process MPI
//! substrate: rank groups (Eq 9–12), per-group sub-volume batches, one
//! reduction per group and batch — run under an explicit failure model.
//!
//! Every rank takes its `N_p/N_r` projection share and the detector-row
//! ranges of its group's sub-volume batches (the 2-D input split of
//! Figure 3a), filters and back-projects a *partial* sub-volume per batch,
//! and the group leader ships the reduced, normalised slabs to world rank
//! 0 (the stand-in for the parallel file system), which assembles the
//! volume. A group collective deadlocks the moment a rank dies, and a
//! blocking receive waits forever on a lost message, so the data plane is
//! point-to-point with deadlines, and a [`scalefbp_faults::FaultPlan`]
//! (possibly empty) says what goes wrong. The recovery protocol has three
//! ingredients:
//!
//! 1. **Chunked point-to-point reduction.** Each worker ships its partial
//!    sub-volume (one *chunk* per batch) to the group leader, which
//!    accumulates chunks in a fixed rank order — in every
//!    [`ReduceMode`], which here only selects how many pieces a chunk
//!    travels in and the modelled deadlines (see
//!    `docs/communication.md`). The fixed order
//!    makes the summation bitwise reproducible no matter when — or on
//!    which surviving rank — a chunk was produced.
//! 2. **Timeout + retry-with-backoff failure detection.** Every awaited
//!    message has a deadline; deadlines double per attempt. A peer that
//!    misses all attempts is declared dead and its outstanding work is
//!    re-queued onto surviving ranks of the same group (workers first,
//!    the leader as a last resort). Because a lost message and a dead
//!    sender are indistinguishable to a timeout detector, a dropped chunk
//!    is handled the same way — recomputation yields identical bits, so
//!    correctness never depends on telling the two apart.
//! 3. **Leader takeover.** When a group *leader* dies, the root promotes
//!    the next surviving rank of that group to deputy leader
//!    (degrading the leader set), which recomputes and ships the group's
//!    slabs. With no survivors the root recomputes the group itself.
//!
//! Every recovery decision is appended to a [`RecoveryLog`]; with the
//! same seed (hence the same [`FaultPlan`]) the log is identical across
//! runs. Rank 0 is the recovery coordinator and must not be targeted by
//! rank-failure events ([`FaultPlan::generate`] never does).

use std::cell::Cell;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use scalefbp_ckpt::CheckpointSpec;
use scalefbp_exec::{host, KernelChoice};
use scalefbp_faults::{
    BackoffPolicy, Channel, FaultInject, FaultInjector, FaultKind, FaultPlan, RecoveryEvent,
    RecoveryLog,
};
use scalefbp_filter::FilterPipeline;
use scalefbp_geom::{
    CbctGeometry, ProjectionMatrix, ProjectionStack, RankLayout, SubVolumeTask, Volume,
    VolumeDecomposition,
};
use scalefbp_iosim::StorageEndpoint;
use scalefbp_mpisim::{
    segment_partition, CommError, Communicator, NetworkStats, ReduceMode, World,
};
use scalefbp_obs::{Counter, MetricsRegistry, MetricsSnapshot};
use scalefbp_perfmodel::{MachineParams, PerfModel, RunShape};
use scalefbp_pipeline::TraceCollector;

use crate::checkpoint::{commit_slab, config_fingerprint, open_store, slab_from_bytes};
use crate::{with_rank_budget, FdkConfig, ReconstructionError};

/// Worker → leader chunk *piece*, tag + `b·nr + piece`. A chunk travels
/// as one message per piece ([`FtCtx::pieces`]): one per z-segment in
/// [`ReduceMode::Segmented`], so faults can land mid-reduce-scatter, and
/// one whole-chunk piece in every other mode. The leader joins the
/// pieces before the (unchanged) fixed-order fold; recovery resends are
/// always whole chunks ([`RECHUNK_TAG`]).
const PIECE_TAG: u64 = 60_000;
/// Recomputed chunk (survivor → leader), tag + `b·nr + j` — the tag
/// encodes *which* rank's chunk was recomputed, so a late speculative
/// reply for `(b, j)` can never satisfy a wait for a different chunk of
/// the same batch. Duplicates on one tag are bitwise-identical pure
/// recomputes, so consuming either copy yields the same fold.
const RECHUNK_TAG: u64 = 30_000;
/// Leader → worker recompute request.
const CTRL_TAG: u64 = 40_000;
/// Root → deputy leader takeover order.
const TAKEOVER_TAG: u64 = 41_000;
/// Root → everyone: the world is done (reliable control plane).
const SHUTDOWN_TAG: u64 = 42_000;
/// Leader → root finished slab, tag + slab z offset.
const SLAB_TAG: u64 = 7_000;
/// Deputy → root finished slab after takeover, tag + slab z offset.
const TAKEOVER_SLAB_TAG: u64 = 50_000;

/// Floor of the first deadline when a leader awaits a chunk. The actual
/// deadline is derived from the perf-model batch estimate (see
/// [`derive_deadlines`]); this constant only keeps tiny problems — whose
/// modelled batch time is microseconds — at the legacy detection
/// latency. It is **not** a valid deadline on its own: a large volume's
/// honest chunk takes far longer than 500 ms, and waiting a fixed 500 ms
/// would declare every healthy rank dead.
const CHUNK_TIMEOUT: Duration = Duration::from_millis(500);
/// Floor of the first deadline when the root awaits a leader's slab;
/// the derived deadline scales with the modelled time of the *whole
/// group's* work, and is additionally kept above twice the chunk
/// deadline so a leader mid-recovery is never declared dead.
const SLAB_TIMEOUT: Duration = Duration::from_secs(4);
/// Attempts before a peer is declared dead; deadline doubles per attempt.
const MAX_ATTEMPTS: u32 = 2;
/// Poll interval of the worker serve loop and of the leader's
/// alternating original/speculative polls.
const POLL: Duration = Duration::from_millis(20);

/// Per-attempt receive deadline: the derived base deadline doubled per
/// attempt (the legacy exponential ladder), plus deterministic seeded
/// jitter salted by the awaited peer so leaders that share a fault do
/// not re-fire their detectors in lockstep. Jitter only *lengthens* a
/// deadline (bounded at +50%), so delay-only plans stay timeout-free
/// and the ladder's worst case is unchanged in order of magnitude.
fn attempt_deadline(base: Duration, attempt: u32, peer: usize) -> Duration {
    let policy = BackoffPolicy::new(base.as_millis() as u64, MAX_ATTEMPTS);
    Duration::from_millis(policy.delay_millis_jittered(attempt + 1, peer as u64))
}

/// The failure detector's first-attempt deadlines, derived from the
/// performance model instead of hard-coded: the legacy constants were
/// silently wrong for large volumes (an honest 500 ms chunk deadline
/// against a multi-second modelled chunk declares every rank dead).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FtDeadlines {
    /// First deadline when a leader awaits one worker chunk.
    pub chunk: Duration,
    /// First deadline when the root awaits one finished group slab.
    pub slab: Duration,
}

/// Derives the fault-tolerant driver's deadlines from the perf-model
/// batch estimate for this `(config, layout)`: the chunk deadline is
/// `timeout_scale ×` the worst modelled batch steady-state cost, the
/// slab deadline `timeout_scale ×` the modelled cost of the whole
/// group's batches (a leader cannot ship a slab before collecting every
/// chunk of it), both floored at the legacy constants so tiny problems
/// keep their historical detection latency. Pure — no clock, no I/O —
/// so the same config always detects at the same model-derived points.
pub fn derive_deadlines(config: &FdkConfig, layout: RankLayout) -> FtDeadlines {
    let shape = RunShape {
        geom: config.geometry.clone(),
        layout,
    };
    let model = PerfModel::new(MachineParams::abci_v100());
    let batches = model.batch_times(&shape, config.reduce_mode);
    let worst = batches
        .iter()
        .map(|b| b.steady_max())
        .fold(0.0_f64, f64::max);
    let group_total: f64 = batches.iter().map(|b| b.steady_max()).sum();
    let chunk = CHUNK_TIMEOUT.max(Duration::from_secs_f64(worst * config.timeout_scale));
    let slab = SLAB_TIMEOUT
        .max(Duration::from_secs_f64(group_total * config.timeout_scale))
        .max(chunk * 2);
    FtDeadlines { chunk, slab }
}

/// Per-group chunk ledger: one slot per `(batch, rank-in-group)`. The
/// first copy offered to a slot wins; later duplicates — a straggler's
/// late original after a speculative win, or a twin recompute — are
/// discarded. Every copy of a chunk is a bitwise-identical pure
/// recompute, so offer order can never change the fixed-order fold.
pub struct ChunkLedger {
    nr: usize,
    slots: Vec<Option<Vec<f32>>>,
    duplicates: u64,
}

impl ChunkLedger {
    /// An empty ledger for `batches × nr` chunk slots.
    pub fn new(batches: usize, nr: usize) -> Self {
        ChunkLedger {
            nr,
            slots: vec![None; batches * nr],
            duplicates: 0,
        }
    }

    /// Offers one copy of chunk `(b, j)`. Returns `true` if the copy was
    /// accepted (first arrival) and `false` if the slot was already
    /// filled and the duplicate discarded.
    pub fn offer(&mut self, b: usize, j: usize, data: Vec<f32>) -> bool {
        let slot = &mut self.slots[b * self.nr + j];
        if slot.is_some() {
            self.duplicates += 1;
            return false;
        }
        *slot = Some(data);
        true
    }

    /// True once chunk `(b, j)` holds a copy.
    pub fn has(&self, b: usize, j: usize) -> bool {
        self.slots[b * self.nr + j].is_some()
    }

    /// Duplicate copies discarded so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Fixed-rank-order fold of batch `b`'s chunks into a scaled slab.
    /// Panics if a slot is still empty — phase 2 guarantees it is not.
    pub fn fold_batch(
        &self,
        b: usize,
        nx: usize,
        ny: usize,
        nz: usize,
        z_begin: usize,
        scale: f32,
    ) -> Volume {
        let slots = self.slots[b * self.nr..(b + 1) * self.nr].iter();
        let chunks = slots.map(|slot| slot.as_deref().expect("every chunk was recovered"));
        let slab = Volume::zeros_slab(nx, ny, nz, z_begin);
        fold_chunks(slab, chunks, |c| c, scale)
    }
}

/// The one fixed-order fold: adds every chunk's `data` into `slab` in
/// the order given — rank order at every call site — then scales, so the
/// bits never depend on arrival or recovery history.
fn fold_chunks<C>(
    mut slab: Volume,
    chunks: impl IntoIterator<Item = C>,
    data: impl Fn(&C) -> &[f32],
    scale: f32,
) -> Volume {
    for chunk in chunks {
        for (acc, v) in slab.data_mut().iter_mut().zip(data(&chunk)) {
            *acc += *v;
        }
    }
    for v in slab.data_mut() {
        *v *= scale;
    }
    slab
}

/// The recompute-reply tag for chunk `(b, j)` in a group of `nr` ranks.
fn rechunk_tag(b: usize, j: usize, nr: usize) -> u64 {
    RECHUNK_TAG + (b * nr + j) as u64
}

/// Result of a fault-tolerant distributed run.
#[derive(Clone, Debug)]
pub struct FaultTolerantOutcome {
    /// The assembled volume (gathered at world rank 0).
    pub volume: Volume,
    /// Network traffic observed (all ranks, post-join snapshot).
    pub network: NetworkStats,
    /// Every recovery action taken, canonically ordered. Deterministic
    /// for a given fault plan; empty for a fault-free run.
    pub recovery: Vec<RecoveryEvent>,
    /// Snapshot of the run's metrics registry: per-rank `mpi.*` traffic
    /// and `ft.*` protocol counters — deterministic for a given plan.
    pub metrics: MetricsSnapshot,
}

impl FaultTolerantOutcome {
    /// Chrome-trace JSON of the run's recovery timeline: one instant per
    /// recovery event on the acting rank's `recovery` track, timestamped
    /// by canonical event index (model time, not wall clock) — so the
    /// export is byte-identical across runs of the same fault plan.
    pub fn chrome_trace(&self) -> String {
        let log = RecoveryLog::new();
        for ev in &self.recovery {
            log.record(ev.clone());
        }
        let trace = TraceCollector::new();
        trace.absorb_recovery_log(&log);
        trace.to_chrome_trace()
    }
}

/// Shared read-only state of one rank's protocol role.
struct FtCtx<'a> {
    g: &'a CbctGeometry,
    layout: RankLayout,
    /// This rank (world numbering) — the identity its compute-channel
    /// faults are pinned to.
    me: usize,
    /// The run's fault injector, consulted once per chunk computation on
    /// [`Channel::Compute`] — the slow-device straggler channel.
    injector: Arc<dyn FaultInject>,
    /// Sticky slow-device factor: once a [`FaultKind::SlowDevice`]
    /// fires, this rank's device stays degraded for the rest of the run
    /// (1 = healthy).
    slow_factor: Cell<u32>,
    /// Model-derived failure-detection deadlines for this run.
    deadlines: FtDeadlines,
    projections: &'a ProjectionStack,
    filter: &'a FilterPipeline,
    mats: &'a [ProjectionMatrix],
    recovery: &'a RecoveryLog,
    scale: f32,
    /// The configured back-projection kernel. Dispatch is pure, so any
    /// rank can recompute any chunk bit for bit.
    kernel: KernelChoice,
    /// Pieces per worker→leader chunk: `N_r` z-segments in
    /// [`ReduceMode::Segmented`], one whole chunk in every other mode.
    /// The summation order never changes, so recovered volumes are
    /// bitwise identical across modes.
    pieces: usize,
    /// `ft.chunks.computed`, labelled with this rank — every
    /// [`compute_chunk`](Self::compute_chunk) call, including recoveries.
    chunks_computed: Counter,
    /// `integrity.mpi.failures`, labelled with this rank — every sealed
    /// frame whose CRC failed to verify on receive.
    integrity_failures: Counter,
    /// `ft.chunks.deduped`, labelled with this rank — every duplicate
    /// chunk copy discarded by the ledger (speculation twins).
    chunk_duplicates: Counter,
}

/// Checkpoint wiring handed to the root: storage endpoint, spec, and the
/// config fingerprint the manifest must carry.
type FtCkpt<'a> = (&'a StorageEndpoint, &'a CheckpointSpec, u64);

impl FtCtx<'_> {
    /// The partial sub-volume rank `j` of `group` owes for `task`:
    /// its projection share filtered and back-projected onto the batch
    /// slab. Pure — any rank can recompute any chunk, bit for bit.
    fn compute_chunk(&self, group: usize, task: &SubVolumeTask, j: usize) -> Volume {
        self.chunks_computed.inc();
        // Straggler channel: one compute op per chunk. A fired
        // SlowDevice sticks — this rank's device stays slow for the
        // rest of the run (its onset is pinned by the plan's op index).
        if let Some(FaultKind::SlowDevice { factor, .. }) =
            self.injector.on_op(self.me, Channel::Compute)
        {
            self.slow_factor
                .set(self.slow_factor.get().max(factor.max(1)));
        }
        if self.slow_factor.get() > 1 {
            // Bounded wall-clock realisation of the degraded rate:
            // stall past the leader's first chunk deadline (so the
            // straggler is detected and speculated against) but well
            // inside the second, doubled window (so a slow-but-alive
            // rank's late original still arrives and is deduplicated
            // rather than the rank being declared dead).
            std::thread::sleep((self.deadlines.chunk * 2).min(Duration::from_secs(3)));
        }
        let a = self.layout.assignment(self.g, group * self.layout.nr + j);
        let mut part =
            self.projections
                .extract_window(task.rows.begin, task.rows.end, a.s_begin, a.s_end);
        self.filter.filter_stack(&mut part);
        let mut slab = Volume::zeros_slab(self.g.nx, self.g.ny, task.nz(), task.z_begin);
        let mats = &self.mats[a.s_begin..a.s_end];
        host::run_backprojection(self.kernel, &part, mats, &mut slab);
        slab
    }

    /// A finished (summed + scaled) slab for `task`, recomputed from
    /// scratch in fixed chunk order — the takeover path.
    fn recompute_task(&self, group: usize, task: &SubVolumeTask) -> Volume {
        let slab = Volume::zeros_slab(self.g.nx, self.g.ny, task.nz(), task.z_begin);
        let chunks = (0..self.layout.nr).map(|j| self.compute_chunk(group, task, j));
        fold_chunks(slab, chunks, Volume::data, self.scale)
    }

    /// The wire framing of chunk `b` of `task`: `(piece, tag, span)` per
    /// non-empty piece, where `span` indexes the chunk's voxels. One
    /// message per piece, so fault-plan send ops count pieces.
    fn pieces_of(
        &self,
        b: usize,
        task: &SubVolumeTask,
    ) -> impl Iterator<Item = (usize, u64, Range<usize>)> {
        let (nr, stride) = (self.layout.nr, self.g.nx * self.g.ny);
        let parts = segment_partition(task.nz(), self.pieces).into_iter();
        parts
            .enumerate()
            .filter(|(_, z)| !z.is_empty())
            .map(move |(s, z)| {
                let tag = PIECE_TAG + (b * nr + s) as u64;
                (s, tag, z.start * stride..z.end * stride)
            })
    }

    /// Books a sealed frame that failed its CRC on receive: one
    /// `integrity.mpi.failures` and one `CorruptionDetected` for `what`.
    fn corruption(&self, what: String, attempt: u32) {
        self.integrity_failures.inc();
        self.recovery.record(RecoveryEvent::CorruptionDetected {
            rank: self.me,
            what,
            attempt,
        });
    }

    fn group_decomp(&self, group: usize) -> VolumeDecomposition {
        let leader = group * self.layout.nr;
        let a = self.layout.assignment(self.g, leader);
        VolumeDecomposition::new(self.g, a.z_begin, a.z_end, a.nb)
    }
}

/// Runs the paper's distributed reconstruction on `layout.num_ranks()`
/// simulated ranks (threads) under the given fault plan, recovering from
/// injected rank failures, message drops and stragglers. With
/// `FaultPlan::none()` this is the fault-free baseline the recovered runs
/// are compared against: recomputed chunks are bit-identical and summed
/// in the same fixed order, so a recovered volume equals the fault-free
/// volume bit for bit.
///
/// The layout must give every rank a projection and every group a slice
/// (`1 ≤ N_r ≤ N_p`, `1 ≤ N_g ≤ N_z`, `N_c ≥ 1`); anything else is
/// [`ReconstructionError::Layout`]. Rank 0 assembles the volume and
/// coordinates recovery, and nothing recovers it, so a plan with a
/// [`FaultKind::RankFailure`] on rank 0 is [`ReconstructionError::Input`]
/// before any rank starts.
///
/// The outcome's `metrics` snapshot carries the world's per-rank `mpi.*`
/// traffic plus the protocol's `ft.*` per-rank counters; its per-rank
/// views merge back to the global aggregate (see
/// [`MetricsSnapshot::rank_view`]).
///
/// With `checkpoint = Some((endpoint, spec))` the root commits
/// crash-consistent slab checkpoints into `spec.dir` on `endpoint` every
/// `spec.every` slabs. With `spec.resume`, groups whose slabs are all
/// committed are loaded from the checkpoint instead of collected; the
/// resumed volume is bitwise identical to an uninterrupted run under the
/// same fault plan. The chaos harness arms `spec.kill_after_saves` to
/// abort the root mid-run with [`ReconstructionError::Interrupted`] —
/// shutdown is still delivered to every rank, so the world joins cleanly.
pub fn fault_tolerant_reconstruct(
    config: &FdkConfig,
    layout: RankLayout,
    projections: &ProjectionStack,
    plan: &FaultPlan,
    checkpoint: Option<(&StorageEndpoint, &CheckpointSpec)>,
) -> Result<FaultTolerantOutcome, ReconstructionError> {
    config.validate()?;
    let g = &config.geometry;
    config.check_projections(projections)?;
    if layout.nr == 0 || layout.nr > g.np {
        return Err(ReconstructionError::Layout(format!(
            "N_r={} must be between 1 and N_p={} (every rank needs a projection)",
            layout.nr, g.np
        )));
    }
    if layout.ng == 0 || layout.ng > g.nz {
        return Err(ReconstructionError::Layout(format!(
            "N_g={} must be between 1 and N_z={} (every group needs a slice)",
            layout.ng, g.nz
        )));
    }
    if layout.nc == 0 {
        return Err(ReconstructionError::Layout("N_c must be positive".into()));
    }
    if let Some(e) = plan
        .events()
        .iter()
        .find(|e| e.rank == 0 && e.kind == FaultKind::RankFailure)
    {
        return Err(ReconstructionError::Input(format!(
            "fault plan event `{e}` fails rank 0, the assembly root, which nothing recovers"
        )));
    }
    let ckpt: Option<FtCkpt> = checkpoint.map(|(endpoint, spec)| {
        let driver = format!("distributed:nr={},ng={}", layout.nr, layout.ng);
        (endpoint, spec, config_fingerprint(config, &driver))
    });
    let registry = MetricsRegistry::new();

    let injector = FaultInjector::new(plan.clone());
    let recovery = RecoveryLog::new();
    let deadlines = derive_deadlines(config, layout);
    let (results, network) = World::run_with_observability(
        layout.num_ranks(),
        injector.clone() as Arc<dyn FaultInject>,
        registry.clone(),
        with_rank_budget(layout.num_ranks(), |mut comm| {
            let filter = FilterPipeline::new(g, config.window);
            let mats = ProjectionMatrix::full_scan(g);
            let ctx = FtCtx {
                g,
                layout,
                me: comm.rank(),
                injector: injector.clone() as Arc<dyn FaultInject>,
                slow_factor: Cell::new(1),
                deadlines,
                projections,
                filter: &filter,
                mats: &mats,
                recovery: &recovery,
                scale: filter.backprojection_scale() as f32,
                kernel: config.kernel,
                pieces: if config.reduce_mode == ReduceMode::Segmented {
                    layout.nr
                } else {
                    1
                },
                chunks_computed: registry.rank_counter("ft.chunks.computed", comm.rank()),
                integrity_failures: registry.rank_counter("integrity.mpi.failures", comm.rank()),
                chunk_duplicates: registry.rank_counter("ft.chunks.deduped", comm.rank()),
            };
            let assign = layout.assignment(g, comm.rank());
            if comm.rank() == 0 {
                Some(ft_root(&mut comm, &ctx, ckpt))
            } else if assign.is_group_leader {
                ft_leader(&mut comm, &ctx);
                None
            } else {
                ft_worker(&mut comm, &ctx);
                None
            }
        }),
    );

    let volume = results
        .into_iter()
        .next()
        .flatten()
        .expect("rank 0 must assemble the volume")?;
    Ok(FaultTolerantOutcome {
        volume,
        network,
        recovery: recovery.events(),
        metrics: registry.snapshot(),
    })
}

/// Terminal state of a rank killed by injection: consume (and discard)
/// traffic until the root's shutdown arrives, so no sender ever blocks
/// on a full mailbox and no late message hits a closed channel.
fn dead_wait(comm: &mut Communicator) {
    comm.drain_until(0, SHUTDOWN_TAG);
}

/// Blocks until the root announces shutdown; any error (including a
/// fault injected on the delivery itself) simply ends the rank.
fn shutdown_wait(comm: &mut Communicator) {
    let _ = comm.recv_timeout(0, SHUTDOWN_TAG, Duration::from_secs(60));
}

fn ft_worker(comm: &mut Communicator, ctx: &FtCtx) {
    let assign = ctx.layout.assignment(ctx.g, comm.rank());
    let leader = assign.group * ctx.layout.nr;
    let decomp = ctx.group_decomp(assign.group);

    for (b, task) in decomp.tasks().iter().enumerate() {
        let chunk = ctx.compute_chunk(assign.group, task, assign.rank_in_group);
        send_chunk(comm, ctx, leader, b, task, &chunk);
        if comm.self_failed() {
            return dead_wait(comm);
        }
    }
    if serve(comm, ctx, assign.group, &decomp).is_err() {
        dead_wait(comm);
    }
}

/// The worker's serve loop: recompute requests from the leader, takeover
/// orders from the root, until shutdown. Polling never touches the fault
/// injector (only deliveries do), so op counts stay deterministic. `Err`
/// means this rank failed: a killed rank's next poll reports it.
fn serve(
    comm: &mut Communicator,
    ctx: &FtCtx,
    group: usize,
    decomp: &VolumeDecomposition,
) -> Result<(), CommError> {
    let leader = group * ctx.layout.nr;
    loop {
        if let Some(payload) = poll(comm, leader, CTRL_TAG)? {
            let (b, j) = decode_ctrl(&payload);
            let chunk = ctx.compute_chunk(group, &decomp.tasks()[b], j);
            let _ = comm.send_f32_checked(leader, rechunk_tag(b, j, ctx.layout.nr), chunk.data());
        }
        if let Some(payload) = poll(comm, 0, TAKEOVER_TAG)? {
            // Deputy leader: recompute the dead leader's slabs (every
            // chunk, fixed order — bitwise identical to what it would
            // have produced) and ship them to the root.
            let group = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
            for task in ctx.group_decomp(group).tasks() {
                let slab = ctx.recompute_task(group, task);
                let tag = TAKEOVER_SLAB_TAG + task.z_begin as u64;
                let _ = comm.send_f32_checked(0, tag, slab.data());
            }
        }
        if poll(comm, 0, SHUTDOWN_TAG)?.is_some() {
            return Ok(());
        }
    }
}

/// One serve-loop poll of `(from, tag)`: `None` when nothing arrives
/// within [`POLL`].
fn poll(comm: &mut Communicator, from: usize, tag: u64) -> Result<Option<Vec<u8>>, CommError> {
    match comm.recv_timeout(from, tag, POLL) {
        Ok(payload) => Ok(Some(payload)),
        Err(CommError::Timeout { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Ships one computed chunk to the group leader, one message per piece
/// (tags `PIECE_TAG + b·nr + piece`). In segmented mode an injected fault
/// can therefore kill or delay a rank *between* pieces —
/// mid-reduce-scatter.
fn send_chunk(
    comm: &Communicator,
    ctx: &FtCtx,
    leader: usize,
    b: usize,
    task: &SubVolumeTask,
    chunk: &Volume,
) {
    for (_, tag, span) in ctx.pieces_of(b, task) {
        let _ = comm.send_f32_checked(leader, tag, &chunk.data()[span]);
    }
}

/// Leader-side receive of one worker chunk: awaits every still-missing
/// piece, each within `timeout`, then joins them — a one-piece chunk is
/// moved, not copied. Pieces already received survive a miss, so a retry
/// re-awaits only what is actually missing.
fn recv_chunk_pieces(
    comm: &mut Communicator,
    ctx: &FtCtx,
    from: usize,
    b: usize,
    task: &SubVolumeTask,
    pieces: &mut [Option<Vec<f32>>],
    timeout: Duration,
) -> Result<Vec<f32>, CommError> {
    for (s, tag, _) in ctx.pieces_of(b, task) {
        if pieces[s].is_none() {
            pieces[s] = Some(comm.recv_f32_checked_timeout(from, tag, timeout)?);
        }
    }
    let joined = pieces
        .iter_mut()
        .filter_map(Option::take)
        .reduce(|mut chunk, piece| {
            chunk.extend_from_slice(&piece);
            chunk
        });
    Ok(joined.unwrap_or_default())
}

/// How a wait on one peer's deadline ladder ended.
enum Awaited<T> {
    /// The frame arrived intact.
    Got(T),
    /// The peer missed every attempt and was declared dead (recorded).
    Dead,
    /// This rank itself failed, or its mailbox closed, mid-wait.
    Failed(CommError),
}

/// The protocol's one receive-with-deadline. Awaits a frame from `peer`
/// on the ladder that starts at `base`; `recv(comm,
/// deadline, attempt)` makes one attempt. A frame that fails its CRC is
/// booked as corruption of `"{what} from rank {peer}"` and a missed
/// deadline as a `MessageRetry`; either costs an attempt, and after
/// [`MAX_ATTEMPTS`] the peer is declared dead. A corrupt frame was
/// consumed, so from then on it is indistinguishable from a dropped
/// message. Callers keep only their policy: what to do on a miss lives in
/// `recv`, what to do with a dead peer follows [`Awaited::Dead`].
fn await_peer<T>(
    comm: &mut Communicator,
    ctx: &FtCtx,
    peer: usize,
    base: Duration,
    what: std::fmt::Arguments,
    mut recv: impl FnMut(&mut Communicator, Duration, u32) -> Result<T, CommError>,
) -> Awaited<T> {
    let mut attempt = 0;
    while attempt < MAX_ATTEMPTS {
        match recv(comm, attempt_deadline(base, attempt, peer), attempt) {
            Ok(frame) => return Awaited::Got(frame),
            Err(CommError::IntegrityFailure { detail, .. }) => {
                attempt += 1;
                ctx.corruption(format!("{what} from rank {peer}: {detail}"), attempt);
            }
            Err(CommError::Timeout { .. }) => {
                attempt += 1;
                ctx.recovery.record(RecoveryEvent::MessageRetry {
                    rank: ctx.me,
                    peer,
                    attempt,
                });
            }
            Err(e) => return Awaited::Failed(e),
        }
    }
    ctx.recovery.record(RecoveryEvent::RankDeclaredDead {
        group: peer / ctx.layout.nr,
        rank: peer,
        detected_by: ctx.me,
    });
    Awaited::Dead
}

/// Phase-1 wait for rank `j`'s chunk `b` with straggler speculation. On
/// the *first* missed deadline the sender is suspected slow — not yet
/// dead — and the chunk is speculatively requeued onto a healthy
/// survivor ([`next_survivor`]; the leader itself when the group has no
/// third rank). From then on each attempt alternates short polls across
/// both sources: the first copy to land wins the slot, and the loser's
/// twin is discarded by the ledger on arrival (every copy is a
/// bitwise-identical pure recompute, so either yields the same fold).
/// A sender whose original arrives late is slow, not dead; only a
/// sender that misses the whole doubled ladder is declared dead.
/// `Err(())` means this leader was itself killed mid-collection.
#[allow(clippy::too_many_arguments)]
fn await_chunk_speculatively(
    comm: &mut Communicator,
    ctx: &FtCtx,
    group: usize,
    b: usize,
    task: &SubVolumeTask,
    j: usize,
    dead: &mut BTreeSet<usize>,
    ledger: &mut ChunkLedger,
) -> Result<(), ()> {
    let me = ctx.me;
    let nr = ctx.layout.nr;
    let from = group * nr + j;
    let mut pieces = vec![None; ctx.pieces];
    let mut spec_from: Option<usize> = None; // world rank owing the speculative copy
    let awaited = await_peer(
        comm,
        ctx,
        from,
        ctx.deadlines.chunk,
        format_args!("chunk {b}"),
        |comm, window, attempt| {
            let Some(spec) = spec_from else {
                let received = recv_chunk_pieces(comm, ctx, from, b, task, &mut pieces, window);
                if matches!(received, Err(CommError::Timeout { .. })) {
                    // First miss: suspect a straggler, requeue speculatively.
                    ctx.recovery.record(RecoveryEvent::StragglerDetected {
                        group,
                        rank: from,
                        chunk: b,
                    });
                    let target = next_survivor(j, nr, dead).map_or(me, |t| group * nr + t);
                    if let Some(data) = requeue(comm, ctx, group, task, b, j, target) {
                        ledger.offer(b, j, data);
                        ctx.recovery.record(RecoveryEvent::SpeculativeWin {
                            group,
                            chunk: b,
                            winner: me,
                        });
                    }
                    spec_from = Some(target);
                }
                return received;
            };
            // Speculation in flight: alternate short polls across the
            // original and the speculative reply for one window. A
            // corrupt frame is booked and polled past.
            let rounds = (window.as_millis() / (2 * POLL.as_millis())).max(1);
            for _ in 0..rounds {
                for speculative in [false, true] {
                    let (received, peer) = if !speculative {
                        let r = recv_chunk_pieces(comm, ctx, from, b, task, &mut pieces, POLL);
                        (r, from)
                    } else if spec != me && !ledger.has(b, j) {
                        let tag = rechunk_tag(b, j, nr);
                        (comm.recv_f32_checked_timeout(spec, tag, POLL), spec)
                    } else {
                        continue;
                    };
                    match received {
                        // The original ends the wait even after a
                        // speculative win; the ledger discards the twin.
                        Ok(data) if !speculative => return Ok(data),
                        Ok(data) => {
                            ledger.offer(b, j, data);
                            ctx.recovery.record(RecoveryEvent::SpeculativeWin {
                                group,
                                chunk: b,
                                winner: spec,
                            });
                        }
                        Err(CommError::Timeout { .. }) => {}
                        Err(CommError::IntegrityFailure { detail, .. }) => {
                            let label = if speculative { "speculative " } else { "" };
                            ctx.corruption(
                                format!("{label}chunk {b} from rank {peer}: {detail}"),
                                attempt + 1,
                            );
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            // The window ran out without the original: a missed attempt.
            Err(CommError::Timeout {
                from,
                tag: PIECE_TAG,
            })
        },
    );
    match awaited {
        Awaited::Got(data) => {
            if !ledger.offer(b, j, data) {
                ctx.chunk_duplicates.inc();
            }
            Ok(())
        }
        // If the speculative copy landed the slot is already filled;
        // otherwise phase 2 requeues it.
        Awaited::Dead => {
            dead.insert(j);
            Ok(())
        }
        Awaited::Failed(_) => Err(()),
    }
}

/// Records the requeue of rank `j`'s chunk `b` onto world rank `target`
/// and hands it over: a worker gets a recompute order, while this leader
/// computes the chunk at once and returns it.
fn requeue(
    comm: &Communicator,
    ctx: &FtCtx,
    group: usize,
    task: &SubVolumeTask,
    b: usize,
    j: usize,
    target: usize,
) -> Option<Vec<f32>> {
    ctx.recovery.record(RecoveryEvent::WorkRequeued {
        group,
        from_rank: group * ctx.layout.nr + j,
        to_rank: target,
        chunk: b,
    });
    if target == ctx.me {
        return Some(ctx.compute_chunk(group, task, j).data().to_vec());
    }
    comm.send(target, CTRL_TAG, encode_ctrl(b, j));
    None
}

/// Group-leader collection: gather every batch's chunks from the group's
/// workers (speculating against stragglers, detecting dead ones),
/// requeue missing chunks onto survivors, then sum in fixed rank order
/// and scale. `None` means this leader was itself killed mid-collection.
fn ft_collect_group_as_leader(
    comm: &mut Communicator,
    ctx: &FtCtx,
    group: usize,
) -> Option<Vec<Volume>> {
    let nr = ctx.layout.nr;
    let decomp = ctx.group_decomp(group);
    let tasks = decomp.tasks();
    let mut ledger = ChunkLedger::new(tasks.len(), nr);
    let mut dead: BTreeSet<usize> = BTreeSet::new();

    // Phase 1: own chunks + collection with straggler speculation and
    // failure detection.
    for (b, task) in tasks.iter().enumerate() {
        ledger.offer(b, 0, ctx.compute_chunk(group, task, 0).data().to_vec());
        for j in 1..nr {
            if dead.contains(&j) {
                continue; // requeued in phase 2
            }
            if await_chunk_speculatively(comm, ctx, group, b, task, j, &mut dead, &mut ledger)
                .is_err()
            {
                return None;
            }
        }
    }

    // Phase 2: requeue every still-missing chunk onto a surviving rank
    // of the group — the next live worker after the dead one in cyclic
    // order — and onto this leader when none is left or it dies too.
    for (b, task) in tasks.iter().enumerate() {
        for j in 1..nr {
            if ledger.has(b, j) {
                continue;
            }
            let mut target = next_survivor(j, nr, &dead).map_or(ctx.me, |t| group * nr + t);
            let tag = rechunk_tag(b, j, nr);
            let data = loop {
                if let Some(data) = requeue(comm, ctx, group, task, b, j, target) {
                    break data;
                }
                match await_peer(
                    comm,
                    ctx,
                    target,
                    ctx.deadlines.chunk,
                    format_args!("recomputed chunk {b}"),
                    |comm, deadline, _| comm.recv_f32_checked_timeout(target, tag, deadline),
                ) {
                    Awaited::Got(data) => break data,
                    Awaited::Dead => {
                        dead.insert(target - group * nr);
                        target = ctx.me;
                    }
                    Awaited::Failed(_) => return None,
                }
            };
            if !ledger.offer(b, j, data) {
                ctx.chunk_duplicates.inc();
            }
        }
    }

    // Phase 3: fixed-order summation + scaling. The order never depends
    // on arrival or recovery history, so results are bitwise stable.
    Some(
        tasks
            .iter()
            .enumerate()
            .map(|(b, task)| {
                ledger.fold_batch(b, ctx.g.nx, ctx.g.ny, task.nz(), task.z_begin, ctx.scale)
            })
            .collect(),
    )
}

/// The next healthy worker after `j` in cyclic group order: the
/// speculative executor for a suspected straggler `j`, and the recompute
/// target for a dead one. Never `j` itself and never the leader — slot
/// 0 — which is the explicit local fallback.
fn next_survivor(j: usize, nr: usize, dead: &BTreeSet<usize>) -> Option<usize> {
    (1..nr)
        .map(|step| 1 + (j - 1 + step) % (nr - 1))
        .find(|&t| t != j && !dead.contains(&t))
}

fn ft_leader(comm: &mut Communicator, ctx: &FtCtx) {
    let group = ctx.layout.assignment(ctx.g, comm.rank()).group;
    let Some(finished) = ft_collect_group_as_leader(comm, ctx, group) else {
        return dead_wait(comm);
    };
    for slab in &finished {
        let _ = comm.send_f32_checked(0, SLAB_TAG + slab.z_offset() as u64, slab.data());
    }
    if comm.self_failed() {
        return dead_wait(comm);
    }
    shutdown_wait(comm);
}

fn ft_root(
    comm: &mut Communicator,
    ctx: &FtCtx,
    ckpt: Option<FtCkpt>,
) -> Result<Volume, ReconstructionError> {
    let result = ft_root_inner(comm, ctx, ckpt);
    // Reliable shutdown to every rank, dead or alive — also on the error
    // paths (checkpoint failure, chaos kill), so the world always joins.
    for r in 1..comm.size() {
        comm.send_control(r, SHUTDOWN_TAG, vec![0]);
    }
    result
}

/// What the root reports when its own receive fails. Only an injected
/// failure of rank 0 can cause it, and `fault_tolerant_reconstruct`
/// refuses such plans before a rank starts.
fn root_failed(e: impl std::fmt::Display) -> ReconstructionError {
    ReconstructionError::Input(format!("the assembly root failed: {e}"))
}

fn ft_root_inner(
    comm: &mut Communicator,
    ctx: &FtCtx,
    ckpt: Option<FtCkpt>,
) -> Result<Volume, ReconstructionError> {
    // The store travels with its spec; `committed` is what an earlier
    // (interrupted) run left behind.
    let mut store = None;
    let mut committed: Vec<(usize, usize)> = Vec::new();
    if let Some((endpoint, spec, fp)) = ckpt {
        let s = open_store(endpoint, spec, fp)?;
        committed = s.manifest().committed_ranges();
        store = Some((s, spec));
    }

    let mut out = Volume::zeros(ctx.g.nx, ctx.g.ny, ctx.g.nz);
    let mut pending: Vec<Volume> = Vec::new();
    for group in 0..ctx.layout.ng {
        let ranges: Vec<(usize, usize)> = ctx
            .group_decomp(group)
            .tasks()
            .iter()
            .map(|t| (t.z_begin, t.z_begin + t.nz()))
            .collect();

        // Resume: a group whose slabs are all committed is loaded, not
        // collected. Its ranks still compute and send — those messages
        // sit in mailboxes until shutdown — so the fault replay under a
        // given plan stays deterministic.
        if let Some((s, _)) = store
            .as_ref()
            .filter(|_| ranges.iter().all(|r| committed.contains(r)))
        {
            for z in ranges {
                let payload = s.load_slab(z, Some(ctx.recovery))?;
                out.paste_slab(&slab_from_bytes(ctx.g.nx, ctx.g.ny, z, &payload)?);
            }
            continue;
        }

        let slabs = if group == 0 {
            // Rank 0 leads group 0 itself; collection returns `None`
            // only when the collecting rank is killed.
            ft_collect_group_as_leader(comm, ctx, 0)
                .ok_or_else(|| root_failed("killed while leading group 0"))?
        } else {
            ft_collect_group_slabs(comm, ctx, group)?
        };
        for slab in slabs {
            out.paste_slab(&slab);
            if let Some((s, spec)) = store.as_mut() {
                commit_slab(s, spec, &mut pending, slab)?;
            }
        }
    }
    Ok(out)
}

/// Root-side collection of one remote group's finished slabs, degrading
/// through the group's leader set: original leader → deputies in rank
/// order → the root itself. A provider declared dead forfeits its partial
/// slabs; the successor resends the full set, bit-identical.
fn ft_collect_group_slabs(
    comm: &mut Communicator,
    ctx: &FtCtx,
    group: usize,
) -> Result<Vec<Volume>, ReconstructionError> {
    let nr = ctx.layout.nr;
    let leader = group * nr;
    let decomp = ctx.group_decomp(group);
    let tasks = decomp.tasks();

    let mut provider = leader;
    let mut tag_base = SLAB_TAG;
    loop {
        let mut slabs = Vec::with_capacity(tasks.len());
        for task in tasks {
            let tag = tag_base + task.z_begin as u64;
            match await_peer(
                comm,
                ctx,
                provider,
                ctx.deadlines.slab,
                format_args!("slab z{}", task.z_begin),
                |comm, deadline, _| comm.recv_f32_checked_timeout(provider, tag, deadline),
            ) {
                Awaited::Got(data) => {
                    let mut slab = Volume::zeros_slab(ctx.g.nx, ctx.g.ny, task.nz(), task.z_begin);
                    slab.data_mut().copy_from_slice(&data);
                    slabs.push(slab);
                }
                Awaited::Dead => break,
                Awaited::Failed(e) => return Err(root_failed(e)),
            }
        }
        if slabs.len() == tasks.len() {
            return Ok(slabs);
        }
        let next = provider + 1;
        if next >= leader + nr {
            // Leader set exhausted: the root recomputes the group.
            ctx.recovery.record(RecoveryEvent::LeaderSetDegraded {
                group,
                dead_leader: provider,
                new_leader: 0,
            });
            return Ok(tasks
                .iter()
                .enumerate()
                .map(|(b, task)| {
                    ctx.recovery.record(RecoveryEvent::WorkRequeued {
                        group,
                        from_rank: provider,
                        to_rank: 0,
                        chunk: b,
                    });
                    ctx.recompute_task(group, task)
                })
                .collect());
        }
        ctx.recovery.record(RecoveryEvent::LeaderSetDegraded {
            group,
            dead_leader: provider,
            new_leader: next,
        });
        comm.send(next, TAKEOVER_TAG, (group as u32).to_le_bytes().to_vec());
        provider = next;
        tag_base = TAKEOVER_SLAB_TAG;
    }
}

fn encode_ctrl(b: usize, j: usize) -> Vec<u8> {
    let mut p = (b as u32).to_le_bytes().to_vec();
    p.extend_from_slice(&(j as u32).to_le_bytes());
    p
}

fn decode_ctrl(payload: &[u8]) -> (usize, usize) {
    let b = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    let j = u32::from_le_bytes(payload[4..8].try_into().unwrap()) as usize;
    (b, j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdk_reconstruct;
    use scalefbp_phantom::{forward_project, uniform_ball};

    #[test]
    fn fault_free_run_matches_reference() {
        let _serial = crate::TIMING_TEST_LOCK.lock();
        let g = CbctGeometry::ideal(16, 16, 24, 20);
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let reference = fdk_reconstruct(&g, &p).unwrap();
        let out = fault_tolerant_reconstruct(
            &FdkConfig::new(g).with_nc(2),
            RankLayout::new(2, 2, 2),
            &p,
            &FaultPlan::none(),
            None,
        )
        .unwrap();
        assert!(out.recovery.is_empty());
        let err = reference.max_abs_diff(&out.volume);
        assert!(err < 2e-4, "max diff {err}");
    }

    #[test]
    fn fault_free_single_group_is_bitwise() {
        let _serial = crate::TIMING_TEST_LOCK.lock();
        // nr = 1: one chunk per batch, no reduction regrouping at all.
        let g = CbctGeometry::ideal(16, 16, 24, 20);
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let reference = fdk_reconstruct(&g, &p).unwrap();
        let out = fault_tolerant_reconstruct(
            &FdkConfig::new(g).with_nc(2),
            RankLayout::new(1, 2, 2),
            &p,
            &FaultPlan::none(),
            None,
        )
        .unwrap();
        assert_eq!(out.volume.data(), reference.data());
    }

    #[test]
    fn observed_metrics_merge_across_ranks() {
        let _serial = crate::TIMING_TEST_LOCK.lock();
        let g = CbctGeometry::ideal(16, 16, 24, 20);
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let layout = RankLayout::new(2, 2, 2);
        let out = fault_tolerant_reconstruct(
            &FdkConfig::new(g).with_nc(2),
            layout,
            &p,
            &FaultPlan::none(),
            None,
        )
        .unwrap();
        let m = &out.metrics;
        // Every rank computed at least one chunk.
        assert_eq!(m.ranks(), (0..layout.num_ranks()).collect::<Vec<_>>());
        for r in 0..layout.num_ranks() {
            assert!(m.counter("ft.chunks.computed", Some(r)).unwrap() > 0);
        }
        // Per-rank views merge back to the global snapshot — the property
        // that lets distributed runs ship one snapshot per rank.
        let merged = m
            .ranks()
            .iter()
            .map(|&r| m.rank_view(r))
            .fold(m.unranked_view(), |acc, v| acc.merge(&v));
        assert_eq!(merged.to_json(), m.to_json());
        // Registry-backed traffic equals the post-join NetworkStats.
        assert_eq!(
            merged.aggregate().counter("mpi.send.bytes", None),
            Some(out.network.bytes)
        );
        // Fault-free: the recovery trace is an empty (but valid) export.
        let summary = scalefbp_obs::validate_chrome_trace(&out.chrome_trace()).unwrap();
        assert_eq!(summary.spans, 0);
        assert_eq!(summary.instants, 0);
    }

    /// The wire format (whole chunks vs per-segment pieces) never touches
    /// the fixed-order fold, so every reduce mode yields the same bits.
    #[test]
    fn all_reduce_modes_are_bitwise_identical_fault_free() {
        let _serial = crate::TIMING_TEST_LOCK.lock();
        let g = CbctGeometry::ideal(16, 16, 24, 20);
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let layout = RankLayout::new(3, 2, 2);
        let volumes: Vec<Vec<f32>> = ReduceMode::ALL
            .iter()
            .map(|&mode| {
                fault_tolerant_reconstruct(
                    &FdkConfig::new(g.clone()).with_nc(2).with_reduce_mode(mode),
                    layout,
                    &p,
                    &FaultPlan::none(),
                    None,
                )
                .unwrap()
                .volume
                .data()
                .to_vec()
            })
            .collect();
        assert_eq!(volumes[0], volumes[1], "dense vs hierarchical");
        assert_eq!(volumes[0], volumes[2], "dense vs segmented");
    }

    #[test]
    fn injected_corruption_is_detected_and_recovered_bitwise() {
        let _serial = crate::TIMING_TEST_LOCK.lock();
        let g = CbctGeometry::ideal(16, 16, 24, 20);
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let layout = RankLayout::new(2, 2, 2);
        let cfg = FdkConfig::new(g)
            .with_nc(2)
            .with_reduce_mode(ReduceMode::Segmented);
        let golden = fault_tolerant_reconstruct(&cfg, layout, &p, &FaultPlan::none(), None)
            .unwrap()
            .volume;
        // Corrupt the first sealed frame rank 1 sends: its leader detects
        // the CRC mismatch, the retry times out (the frame was consumed),
        // and the chunk is requeued — bitwise-identical recovery.
        let plan = FaultPlan::from_events(vec![scalefbp_faults::FaultEvent {
            rank: 1,
            channel: scalefbp_faults::Channel::Corrupt,
            op_index: 0,
            kind: scalefbp_faults::FaultKind::BitFlip { seed: 7 },
        }]);
        let out = fault_tolerant_reconstruct(&cfg, layout, &p, &plan, None).unwrap();
        assert_eq!(out.volume.data(), golden.data());
        assert!(
            out.recovery
                .iter()
                .any(|e| matches!(e, RecoveryEvent::CorruptionDetected { .. })),
            "no corruption recorded: {:?}",
            out.recovery
        );
        let detected: u64 = (0..layout.num_ranks())
            .filter_map(|r| out.metrics.counter("integrity.mpi.failures", Some(r)))
            .sum();
        assert!(detected >= 1, "integrity.mpi.failures not recorded");
    }

    #[test]
    fn checkpointed_distributed_run_resumes_bitwise() {
        let _serial = crate::TIMING_TEST_LOCK.lock();
        let g = CbctGeometry::ideal(16, 16, 24, 20);
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let layout = RankLayout::new(2, 2, 2);
        let cfg = FdkConfig::new(g)
            .with_nc(2)
            .with_reduce_mode(ReduceMode::Segmented);
        let golden = fault_tolerant_reconstruct(&cfg, layout, &p, &FaultPlan::none(), None)
            .unwrap()
            .volume;

        let d = std::env::temp_dir().join(format!("scalefbp-ft-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let ep = StorageEndpoint::local_nvme(Some(d));
        // Kill after group 0's two slabs commit, mid-distributed-run.
        let spec = CheckpointSpec::new("ck", 1).killing_after(2);
        match fault_tolerant_reconstruct(&cfg, layout, &p, &FaultPlan::none(), Some((&ep, &spec))) {
            Err(ReconstructionError::Interrupted { completed_slabs: 2 }) => {}
            other => panic!("kill switch did not fire: {:?}", other.map(|_| ())),
        }

        let resume = CheckpointSpec::new("ck", 1).resuming();
        let out =
            fault_tolerant_reconstruct(&cfg, layout, &p, &FaultPlan::none(), Some((&ep, &resume)))
                .unwrap();
        assert_eq!(
            out.volume.data(),
            golden.data(),
            "resumed distributed run must be bitwise identical"
        );
        let snap = ep.metrics_registry().snapshot();
        assert_eq!(snap.counter("ckpt.resumed.slabs", None), Some(2));
    }

    /// A layout that leaves a rank without a projection or a group
    /// without a slice is refused before any rank starts: a rank that
    /// panics mid-protocol (empty share, `N_r > N_p`) never joins, and the
    /// world hangs with it.
    #[test]
    fn layout_that_does_not_fit_the_scan_is_a_typed_error() {
        let g = CbctGeometry::ideal(16, 16, 24, 20);
        let cfg = FdkConfig::new(g.clone());
        let run = |nr, ng, p: &ProjectionStack| {
            let layout = RankLayout { nr, ng, nc: 2 };
            fault_tolerant_reconstruct(&cfg, layout, p, &FaultPlan::none(), None).map(|_| ())
        };
        let p = ProjectionStack::zeros(g.nv, g.np, g.nu);
        for (nr, ng) in [(0, 1), (g.np + 1, 1), (1, 0), (1, g.nz + 1)] {
            assert!(
                matches!(run(nr, ng, &p), Err(ReconstructionError::Layout(_))),
                "nr={nr} ng={ng}"
            );
        }
        let bad = ProjectionStack::zeros(g.nv, g.np, g.nu + 2);
        assert!(matches!(
            run(1, 1, &bad),
            Err(ReconstructionError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn next_survivor_cycles_and_skips_dead() {
        let dead: BTreeSet<usize> = [2].into_iter().collect();
        assert_eq!(next_survivor(2, 4, &dead), Some(3));
        assert_eq!(next_survivor(3, 4, &dead), Some(1));
        let all: BTreeSet<usize> = [1, 2, 3].into_iter().collect();
        assert_eq!(next_survivor(1, 4, &all), None);
        assert_eq!(next_survivor(1, 1, &BTreeSet::new()), None);
    }

    #[test]
    fn speculation_target_skips_suspect_and_dead() {
        let none = BTreeSet::new();
        // nr = 4: the next worker after the suspect, cyclically.
        assert_eq!(next_survivor(1, 4, &none), Some(2));
        assert_eq!(next_survivor(3, 4, &none), Some(1));
        // Dead ranks are skipped.
        let dead: BTreeSet<usize> = [2].into_iter().collect();
        assert_eq!(next_survivor(1, 4, &dead), Some(3));
        // nr = 2: the only other worker IS the suspect — leader-local.
        assert_eq!(next_survivor(1, 2, &none), None);
        // Everyone else dead — leader-local.
        let all: BTreeSet<usize> = [2, 3].into_iter().collect();
        assert_eq!(next_survivor(1, 4, &all), None);
    }

    /// Regression for the silent failure mode the hard-coded timeouts
    /// had: a large volume's honest chunk takes longer than the fixed
    /// 500 ms deadline, so every healthy rank would have been declared
    /// dead. Derived deadlines must scale with the modelled work and
    /// with `timeout_scale`, while tiny problems keep the legacy floors.
    #[test]
    fn derived_deadlines_scale_with_problem_size_and_timeout_scale() {
        let layout = RankLayout::new(2, 2, 2);

        // Tiny problem: modelled batch time is microseconds, so the
        // legacy floors win — detection latency unchanged.
        let tiny = FdkConfig::new(CbctGeometry::ideal(16, 16, 24, 20)).with_nc(2);
        let d_tiny = derive_deadlines(&tiny, layout);
        assert_eq!(d_tiny.chunk, CHUNK_TIMEOUT);
        assert_eq!(d_tiny.slab, SLAB_TIMEOUT);

        // Paper-scale problem: the modelled batch cost dwarfs 500 ms,
        // and the old constants would misdetect every honest rank.
        let large = FdkConfig::new(CbctGeometry::ideal(2048, 2048, 2048, 4096));
        let d_large = derive_deadlines(&large, layout);
        assert!(
            d_large.chunk > CHUNK_TIMEOUT,
            "large-volume chunk deadline stuck at the floor: {:?}",
            d_large.chunk
        );
        assert!(
            d_large.slab > SLAB_TIMEOUT,
            "large-volume slab deadline stuck at the floor: {:?}",
            d_large.slab
        );
        // The slab wait covers a whole group's chunks, so it dominates.
        assert!(d_large.slab >= d_large.chunk * 2);

        // Monotone in timeout_scale: a more patient config waits longer.
        let patient = derive_deadlines(&large.clone().with_timeout_scale(8.0), layout);
        assert!(patient.chunk > d_large.chunk);
        assert!(patient.slab > d_large.slab);

        // Pure: same inputs, same deadlines.
        assert_eq!(derive_deadlines(&large, layout), d_large);
    }

    /// Deadlines depend on the reduce mode's modelled communication
    /// pattern — each mode derives from its own batch estimate, and all
    /// stay at or above the floors.
    #[test]
    fn derived_deadlines_cover_all_reduce_modes() {
        let layout = RankLayout::new(3, 2, 2);
        for mode in ReduceMode::ALL {
            let cfg = FdkConfig::new(CbctGeometry::ideal(16, 16, 24, 20))
                .with_nc(2)
                .with_reduce_mode(mode);
            let d = derive_deadlines(&cfg, layout);
            assert!(d.chunk >= CHUNK_TIMEOUT, "{mode:?}: {:?}", d.chunk);
            assert!(d.slab >= SLAB_TIMEOUT, "{mode:?}: {:?}", d.slab);
            assert!(d.slab >= d.chunk * 2, "{mode:?}");
        }
    }

    #[test]
    fn chunk_ledger_first_copy_wins_and_folds_in_rank_order() {
        let mut ledger = ChunkLedger::new(1, 2);
        assert!(!ledger.has(0, 1));
        assert!(ledger.offer(0, 1, vec![1.0; 4]));
        assert!(ledger.has(0, 1));
        // The duplicate (bitwise twin in real runs) is discarded.
        assert!(!ledger.offer(0, 1, vec![2.0; 4]));
        assert_eq!(ledger.duplicates(), 1);
        assert!(ledger.offer(0, 0, vec![0.5; 4]));
        let slab = ledger.fold_batch(0, 2, 2, 1, 0, 2.0);
        assert_eq!(slab.data(), &[3.0; 4]);
    }
}
