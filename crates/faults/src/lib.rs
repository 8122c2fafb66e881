//! Deterministic fault injection for the simulated distributed pipeline.
//!
//! A [`FaultPlan`] is a finite schedule of fault events, each pinned to a
//! `(rank, channel, op_index)` coordinate: "the 17th send performed by
//! rank 3 is dropped". Plans are built three ways — empty
//! ([`FaultPlan::none`]), generated from an explicit `u64` seed
//! ([`FaultPlan::generate`]), or parsed from a text file
//! ([`FaultPlan::parse`]). No wall-clock time enters plan construction or
//! triggering, so the same plan against the same workload injects the
//! same faults at the same operations on every run, regardless of thread
//! scheduling: op indices are counted per rank, and each simulated rank
//! is a single thread.
//!
//! The simulators (`mpisim`, `gpusim`, `iosim`) consult a shared
//! [`FaultInject`] implementation at each instrumented operation; the
//! recovery machinery in `scalefbp` records what it did about each fault
//! in a [`RecoveryLog`], whose canonical event ordering is independent of
//! thread interleaving.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

pub mod backoff;
pub mod crc32;

pub use backoff::{retry_with_backoff, retry_with_backoff_salted, BackoffPolicy};
pub use crc32::{crc32, open_frame, seal_frame, Crc32, FrameError};

/// Splitmix64: the only randomness source for plan generation.
#[derive(Clone, Debug)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`; `n` must be nonzero.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The instrumented operation class an injected fault attaches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Channel {
    /// A point-to-point message send in `mpisim`.
    Send,
    /// A point-to-point receive in `mpisim`.
    Recv,
    /// A device memory allocation in `gpusim`.
    DeviceAlloc,
    /// A host↔device transfer in `gpusim`.
    DeviceTransfer,
    /// A storage read in `iosim`.
    StorageRead,
    /// An integrity-sealed payload (a checksummed message frame in
    /// `mpisim` or a sealed slab/shard read in `iosim`). Faults on this
    /// channel flip bytes *after* the checksum is computed, so they are
    /// detected — not silently absorbed — downstream.
    Corrupt,
    /// A kernel launch in `gpusim` (or a chunk computation in the
    /// fault-tolerant driver). Faults on this channel degrade the
    /// *rate* of compute — the device stays alive but slow — which is
    /// the straggler model: results are never perturbed, only model
    /// time and scheduling.
    Compute,
}

impl Channel {
    /// All channels, in canonical order.
    pub const ALL: [Channel; 7] = [
        Channel::Send,
        Channel::Recv,
        Channel::DeviceAlloc,
        Channel::DeviceTransfer,
        Channel::StorageRead,
        Channel::Corrupt,
        Channel::Compute,
    ];

    fn token(self) -> &'static str {
        match self {
            Channel::Send => "send",
            Channel::Recv => "recv",
            Channel::DeviceAlloc => "device-alloc",
            Channel::DeviceTransfer => "device-transfer",
            Channel::StorageRead => "storage-read",
            Channel::Corrupt => "corrupt",
            Channel::Compute => "compute",
        }
    }

    fn from_token(s: &str) -> Option<Channel> {
        Channel::ALL.into_iter().find(|c| c.token() == s)
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// What goes wrong when a fault event triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// The rank dies at this operation and never communicates again.
    RankFailure,
    /// The message being sent is silently discarded.
    MessageDrop,
    /// The operation completes only after a straggler delay.
    MessageDelay {
        /// Injected delay in milliseconds (kept small; perturbs
        /// scheduling, never results).
        millis: u64,
    },
    /// The device reports out-of-memory for this allocation.
    DeviceOom,
    /// The host↔device transfer fails transiently.
    TransferError,
    /// The storage read fails transiently.
    ReadError,
    /// A sealed payload has one deterministically-seeded byte flipped
    /// after its checksum is computed; the consumer's CRC check detects
    /// it. Valid only on [`Channel::Corrupt`].
    BitFlip {
        /// Seed selecting which byte/bit of the payload flips
        /// (`SplitMix64(seed ^ len)` picks the position, so the same
        /// event corrupts the same relative position in every run).
        seed: u64,
    },
    /// The rank's device degrades to `1/factor` of its healthy compute
    /// rate once its accumulated modelled kernel time passes
    /// `from_nanos` — a slow-but-alive straggler. Valid only on
    /// [`Channel::Compute`]. The degradation scales model time (and, in
    /// the fault-tolerant driver, a small bounded wall delay per chunk);
    /// computed bits are never touched.
    SlowDevice {
        /// Integer slowdown multiplier (≥ 1; 1 is a no-op).
        factor: u32,
        /// Accumulated modelled kernel nanoseconds after which the
        /// slowdown takes effect (0 = degraded from the start).
        from_nanos: u64,
    },
}

impl FaultKind {
    /// The channels on which this fault kind is meaningful.
    pub fn valid_channels(self) -> &'static [Channel] {
        match self {
            FaultKind::RankFailure => &[Channel::Send, Channel::Recv],
            FaultKind::MessageDrop => &[Channel::Send],
            FaultKind::MessageDelay { .. } => &[Channel::Send, Channel::Recv],
            FaultKind::DeviceOom => &[Channel::DeviceAlloc],
            FaultKind::TransferError => &[Channel::DeviceTransfer],
            FaultKind::ReadError => &[Channel::StorageRead],
            FaultKind::BitFlip { .. } => &[Channel::Corrupt],
            FaultKind::SlowDevice { .. } => &[Channel::Compute],
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::RankFailure => write!(f, "rank-failure"),
            FaultKind::MessageDrop => write!(f, "drop"),
            FaultKind::MessageDelay { millis } => write!(f, "delay:{millis}"),
            FaultKind::DeviceOom => write!(f, "device-oom"),
            FaultKind::TransferError => write!(f, "transfer-error"),
            FaultKind::ReadError => write!(f, "read-error"),
            FaultKind::BitFlip { seed } => write!(f, "bit-flip:{seed}"),
            FaultKind::SlowDevice { factor, from_nanos } => {
                write!(f, "slow:{factor}:{from_nanos}")
            }
        }
    }
}

/// Flips one deterministically-chosen bit of `payload` in place — the
/// effect of a fired [`FaultKind::BitFlip`]. The position depends only
/// on `(seed, payload.len())`, so the same event corrupts the same
/// offset on every run. Empty payloads are left untouched.
pub fn apply_bit_flip(payload: &mut [u8], seed: u64) {
    if payload.is_empty() {
        return;
    }
    let mut rng = SplitMix64::new(seed ^ payload.len() as u64);
    let byte = rng.below(payload.len() as u64) as usize;
    let bit = rng.below(8) as u8;
    payload[byte] ^= 1 << bit;
}

/// One scheduled fault: `kind` triggers on rank `rank`'s `op_index`-th
/// operation (0-based) on `channel`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Rank whose operation stream the fault is pinned to.
    pub rank: usize,
    /// Operation class counted.
    pub channel: Channel,
    /// 0-based index into that rank's operation stream on `channel`.
    pub op_index: u64,
    /// What happens when the operation is reached.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} {} op {} {}",
            self.rank, self.channel, self.op_index, self.kind
        )
    }
}

/// Knobs for seeded plan generation.
#[derive(Clone, Debug)]
pub struct FaultScenario {
    /// Number of ranks in the world; generated events target ranks
    /// `1..world_size` (rank 0 is the assembly root and is never failed).
    pub world_size: usize,
    /// Upper bound on generated rank failures (at most one per rank).
    pub max_rank_failures: usize,
    /// Number of message drop events.
    pub message_drops: usize,
    /// Number of straggler delay events.
    pub message_delays: usize,
    /// Number of device OOM/transfer-error events.
    pub device_faults: usize,
    /// Number of storage read-error events.
    pub io_faults: usize,
    /// Number of sealed-payload corruption ([`FaultKind::BitFlip`])
    /// events on [`Channel::Corrupt`].
    pub corrupt_faults: usize,
    /// Exclusive upper bound on scheduled op indices.
    pub op_horizon: u64,
}

impl FaultScenario {
    /// A mixed default scenario for a world of `world_size` ranks.
    pub fn mixed(world_size: usize) -> Self {
        FaultScenario {
            world_size,
            max_rank_failures: 1,
            message_drops: 2,
            message_delays: 2,
            device_faults: 2,
            io_faults: 2,
            corrupt_faults: 1,
            op_horizon: 24,
        }
    }

    /// A delay-only scenario (results must stay bit-for-bit identical).
    pub fn delays_only(world_size: usize, count: usize) -> Self {
        FaultScenario {
            world_size,
            max_rank_failures: 0,
            message_drops: 0,
            message_delays: count,
            device_faults: 0,
            io_faults: 0,
            corrupt_faults: 0,
            op_horizon: 24,
        }
    }
}

/// Error from [`FaultPlan::parse`], qualified with the source span of
/// the offending token(s) so malformed plans are diagnosed in place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// 1-based column range `[start, end)` of the offending token(s)
    /// within the source line, when a specific token is at fault.
    pub span: Option<(usize, usize)>,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some((start, end)) => write!(
                f,
                "fault plan line {}, cols {}-{}: {}",
                self.line, start, end, self.message
            ),
            None => write!(f, "fault plan line {}: {}", self.line, self.message),
        }
    }
}

impl std::error::Error for PlanParseError {}

/// A finite, deterministic schedule of fault events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults ever trigger. Running the
    /// fault-tolerant path under `none()` is the reference baseline.
    pub fn none() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// Builds a plan from explicit events (used by tests and targeted
    /// scenarios). Events are stored in canonical sorted order.
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_unstable();
        events.dedup();
        FaultPlan { events }
    }

    /// Generates a plan from an explicit seed. Identical
    /// `(seed, scenario)` pairs always yield identical plans; no clock or
    /// environment state is consulted.
    pub fn generate(seed: u64, scenario: &FaultScenario) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::new();
        let injectable_ranks = scenario.world_size.saturating_sub(1).max(1) as u64;
        // Ranks 1..world_size; a world of one rank keeps faults on rank 0
        // (device / IO faults still make sense there).
        let pick_rank = |rng: &mut SplitMix64| {
            if scenario.world_size <= 1 {
                0
            } else {
                1 + rng.below(injectable_ranks) as usize
            }
        };
        let pick_op = |rng: &mut SplitMix64| rng.below(scenario.op_horizon.max(1));

        let mut failed: Vec<usize> = Vec::new();
        for _ in 0..scenario.max_rank_failures {
            if scenario.world_size <= 2 {
                break; // need at least one survivor besides the root
            }
            let rank = pick_rank(&mut rng);
            if failed.contains(&rank) {
                continue;
            }
            failed.push(rank);
            let channel = if rng.below(2) == 0 {
                Channel::Send
            } else {
                Channel::Recv
            };
            events.push(FaultEvent {
                rank,
                channel,
                op_index: pick_op(&mut rng),
                kind: FaultKind::RankFailure,
            });
        }
        for _ in 0..scenario.message_drops {
            events.push(FaultEvent {
                rank: pick_rank(&mut rng),
                channel: Channel::Send,
                op_index: pick_op(&mut rng),
                kind: FaultKind::MessageDrop,
            });
        }
        for _ in 0..scenario.message_delays {
            let rank = pick_rank(&mut rng);
            let channel = if rng.below(2) == 0 {
                Channel::Send
            } else {
                Channel::Recv
            };
            events.push(FaultEvent {
                rank,
                channel,
                op_index: pick_op(&mut rng),
                kind: FaultKind::MessageDelay {
                    millis: 1 + rng.below(15),
                },
            });
        }
        for _ in 0..scenario.device_faults {
            let rank = pick_rank(&mut rng);
            let (channel, kind) = if rng.below(2) == 0 {
                (Channel::DeviceAlloc, FaultKind::DeviceOom)
            } else {
                (Channel::DeviceTransfer, FaultKind::TransferError)
            };
            events.push(FaultEvent {
                rank,
                channel,
                op_index: pick_op(&mut rng),
                kind,
            });
        }
        for _ in 0..scenario.io_faults {
            events.push(FaultEvent {
                rank: pick_rank(&mut rng),
                channel: Channel::StorageRead,
                op_index: pick_op(&mut rng),
                kind: FaultKind::ReadError,
            });
        }
        for _ in 0..scenario.corrupt_faults {
            events.push(FaultEvent {
                rank: pick_rank(&mut rng),
                channel: Channel::Corrupt,
                op_index: pick_op(&mut rng),
                kind: FaultKind::BitFlip {
                    seed: rng.next_u64(),
                },
            });
        }
        FaultPlan::from_events(events)
    }

    /// Generates a straggler-only plan: `count` seeded
    /// [`FaultKind::SlowDevice`] events on [`Channel::Compute`], each on
    /// a distinct non-root rank, firing on that rank's first compute op.
    /// The slowdown factor is drawn from `2..=max_factor` and
    /// `from_nanos` is 0 (degraded from the start), so the plan models
    /// devices that were slow when the job landed on them. Identical
    /// `(seed, world_size, count, max_factor)` always yield identical
    /// plans.
    pub fn stragglers(seed: u64, world_size: usize, count: usize, max_factor: u32) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x57AA_661E_5057_AA66);
        let mut events = Vec::new();
        let mut slowed: Vec<usize> = Vec::new();
        let candidates = world_size.saturating_sub(1);
        let max_factor = max_factor.max(2);
        for _ in 0..count.min(candidates) {
            // Distinct ranks so a plan never stacks two slowdowns.
            let rank = loop {
                let r = 1 + rng.below(candidates.max(1) as u64) as usize;
                if !slowed.contains(&r) {
                    break r;
                }
            };
            slowed.push(rank);
            events.push(FaultEvent {
                rank,
                channel: Channel::Compute,
                op_index: 0,
                kind: FaultKind::SlowDevice {
                    factor: 2 + rng.below((max_factor - 1) as u64) as u32,
                    from_nanos: 0,
                },
            });
        }
        FaultPlan::from_events(events)
    }

    /// Parses the text form produced by [`fmt::Display`]: one event per
    /// line, `rank <r> <channel> op <n> <kind>`, with `#` comments and
    /// blank lines ignored. Kinds: `rank-failure`, `drop`,
    /// `delay:<millis>`, `device-oom`, `transfer-error`, `read-error`,
    /// `bit-flip:<seed>`, `slow:<factor>:<from_nanos>`. Errors carry the
    /// line number and, where a specific token is at fault, its column
    /// span.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanParseError> {
        let mut events = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let code = raw.split('#').next().unwrap_or("");
            if code.trim().is_empty() {
                continue;
            }
            let err = |message: String| PlanParseError {
                line,
                span: None,
                message,
            };
            // Tokens paired with their 0-based byte offsets in the
            // source line, so diagnostics can point at the offender.
            let toks: Vec<(usize, &str)> = {
                let mut out = Vec::new();
                let mut off = 0usize;
                for part in code.split_whitespace() {
                    let at = code[off..].find(part).unwrap() + off;
                    out.push((at, part));
                    off = at + part.len();
                }
                out
            };
            let span_of = |first: (usize, &str), last: (usize, &str)| {
                Some((first.0 + 1, last.0 + 1 + last.1.len()))
            };
            let span_err = |tok: (usize, &str), message: String| PlanParseError {
                line,
                span: span_of(tok, tok),
                message,
            };
            if toks.len() != 6 || toks[0].1 != "rank" || toks[3].1 != "op" {
                return Err(err(format!(
                    "expected `rank <r> <channel> op <n> <kind>`, got `{}`",
                    code.trim()
                )));
            }
            let rank: usize = toks[1]
                .1
                .parse()
                .map_err(|_| span_err(toks[1], format!("bad rank `{}`", toks[1].1)))?;
            let channel = Channel::from_token(toks[2].1)
                .ok_or_else(|| span_err(toks[2], format!("unknown channel `{}`", toks[2].1)))?;
            let op_index: u64 = toks[4]
                .1
                .parse()
                .map_err(|_| span_err(toks[4], format!("bad op index `{}`", toks[4].1)))?;
            let kind = match toks[5].1 {
                "rank-failure" => FaultKind::RankFailure,
                "drop" => FaultKind::MessageDrop,
                "device-oom" => FaultKind::DeviceOom,
                "transfer-error" => FaultKind::TransferError,
                "read-error" => FaultKind::ReadError,
                other => {
                    if let Some(ms) = other.strip_prefix("delay:") {
                        FaultKind::MessageDelay {
                            millis: ms
                                .parse()
                                .map_err(|_| span_err(toks[5], format!("bad delay `{other}`")))?,
                        }
                    } else if let Some(seed) = other.strip_prefix("bit-flip:") {
                        FaultKind::BitFlip {
                            seed: seed.parse().map_err(|_| {
                                span_err(toks[5], format!("bad bit-flip seed `{other}`"))
                            })?,
                        }
                    } else if let Some(rest) = other.strip_prefix("slow:") {
                        let bad = || span_err(toks[5], format!("bad slow-device fault `{other}`"));
                        let (factor, from_nanos) = rest.split_once(':').ok_or_else(bad)?;
                        let factor: u32 = factor.parse().map_err(|_| bad())?;
                        if factor == 0 {
                            return Err(span_err(
                                toks[5],
                                format!("slow-device factor must be >= 1 in `{other}`"),
                            ));
                        }
                        FaultKind::SlowDevice {
                            factor,
                            from_nanos: from_nanos.parse().map_err(|_| bad())?,
                        }
                    } else {
                        return Err(span_err(toks[5], format!("unknown fault kind `{other}`")));
                    }
                }
            };
            if !kind.valid_channels().contains(&channel) {
                let valid = kind
                    .valid_channels()
                    .iter()
                    .map(|c| format!("`{c}`"))
                    .collect::<Vec<_>>()
                    .join(", ");
                // The channel and kind tokens conspire: span both.
                return Err(PlanParseError {
                    line,
                    span: span_of(toks[2], toks[5]),
                    message: format!(
                        "fault `{kind}` cannot attach to `{channel}` (valid: {valid})"
                    ),
                });
            }
            events.push(FaultEvent {
                rank,
                channel,
                op_index,
                kind,
            });
        }
        Ok(FaultPlan::from_events(events))
    }

    /// The scheduled events in canonical order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True when every scheduled fault is a [`FaultKind::MessageDelay`]
    /// (the class whose injection must leave results bit-for-bit
    /// identical).
    pub fn delays_only(&self) -> bool {
        self.events
            .iter()
            .all(|e| matches!(e.kind, FaultKind::MessageDelay { .. }))
    }

    /// True when every scheduled fault is a [`FaultKind::SlowDevice`]
    /// straggler (another class that must leave results bit-for-bit
    /// identical — only scheduling and model time are perturbed).
    pub fn stragglers_only(&self) -> bool {
        self.events
            .iter()
            .all(|e| matches!(e.kind, FaultKind::SlowDevice { .. }))
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// The hook the simulators call at each instrumented operation.
///
/// Implementations must be deterministic functions of the call sequence:
/// the `n`-th call for a given `(rank, channel)` must return the same
/// answer on every run.
pub trait FaultInject: Send + Sync {
    /// Advances rank `rank`'s op counter on `channel` and returns the
    /// fault scheduled at that index, if any.
    fn on_op(&self, rank: usize, channel: Channel) -> Option<FaultKind>;

    /// True once `rank` has hit a [`FaultKind::RankFailure`].
    fn rank_failed(&self, rank: usize) -> bool;
}

/// A [`FaultInject`] that never injects anything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultInject for NoFaults {
    fn on_op(&self, _rank: usize, _channel: Channel) -> Option<FaultKind> {
        None
    }

    fn rank_failed(&self, _rank: usize) -> bool {
        false
    }
}

/// Executes a [`FaultPlan`]: counts operations per `(rank, channel)` and
/// fires each scheduled event exactly once when its coordinate is
/// reached.
pub struct FaultInjector {
    plan: FaultPlan,
    counters: Mutex<HashMap<(usize, Channel), u64>>,
    fired: Vec<AtomicBool>,
    failed_ranks: Mutex<Vec<usize>>,
}

impl FaultInjector {
    /// Wraps a plan for execution.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        let fired = (0..plan.events.len())
            .map(|_| AtomicBool::new(false))
            .collect();
        Arc::new(FaultInjector {
            plan,
            counters: Mutex::new(HashMap::new()),
            fired,
            failed_ranks: Mutex::new(Vec::new()),
        })
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl FaultInject for FaultInjector {
    fn on_op(&self, rank: usize, channel: Channel) -> Option<FaultKind> {
        if self.plan.events.is_empty() {
            return None;
        }
        let index = {
            let mut counters = self
                .counters
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let slot = counters.entry((rank, channel)).or_insert(0);
            let index = *slot;
            *slot += 1;
            index
        };
        for (pos, event) in self.plan.events.iter().enumerate() {
            if event.rank == rank && event.channel == channel && event.op_index == index {
                if self.fired[pos].swap(true, Ordering::SeqCst) {
                    continue; // already consumed (duplicate coordinates)
                }
                if event.kind == FaultKind::RankFailure {
                    let mut failed = self
                        .failed_ranks
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if !failed.contains(&rank) {
                        failed.push(rank);
                    }
                }
                return Some(event.kind);
            }
        }
        None
    }

    fn rank_failed(&self, rank: usize) -> bool {
        self.failed_ranks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .contains(&rank)
    }
}

/// One recovery action taken by the fault-tolerant reconstruction path.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecoveryEvent {
    /// A rank stopped responding and was declared dead by `detected_by`.
    RankDeclaredDead {
        /// Group the dead rank belonged to.
        group: usize,
        /// The dead rank (world numbering).
        rank: usize,
        /// The rank that timed out on it (world numbering).
        detected_by: usize,
    },
    /// A projection chunk originally owned by `from_rank` was recomputed
    /// by `to_rank`.
    WorkRequeued {
        /// Group the chunk belongs to.
        group: usize,
        /// Original owner (world numbering).
        from_rank: usize,
        /// Surviving rank that recomputed it (world numbering).
        to_rank: usize,
        /// Chunk index within the group.
        chunk: usize,
    },
    /// A point-to-point exchange timed out and was retried.
    MessageRetry {
        /// Rank doing the retrying (world numbering).
        rank: usize,
        /// The unresponsive peer (world numbering).
        peer: usize,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// A device operation failed transiently and was retried.
    DeviceRetry {
        /// Rank whose device op failed.
        rank: usize,
        /// Which operation (`alloc`, `h2d`, `d2h`).
        op: String,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// A storage read failed transiently and was retried.
    IoRetry {
        /// Rank whose read failed.
        rank: usize,
        /// What was being read.
        what: String,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// A group leader died; the hierarchical reduce degraded to the
    /// surviving-leader set with `new_leader` taking over the group.
    LeaderSetDegraded {
        /// Group whose leader died.
        group: usize,
        /// The dead leader (world numbering).
        dead_leader: usize,
        /// The surviving rank now leading the group (world numbering).
        new_leader: usize,
    },
    /// A checksum mismatch was detected on a sealed payload (message
    /// frame, shard read or checkpoint slab) and the payload discarded.
    CorruptionDetected {
        /// Rank that detected the mismatch (world numbering).
        rank: usize,
        /// What was being opened.
        what: String,
        /// 1-based detection count for this payload (retries re-detect).
        attempt: u32,
    },
    /// A rank fell past the straggler deadline for one chunk and a
    /// speculative copy was requested from a survivor. Fields are
    /// scheduling-insensitive (no durations) so double runs under the
    /// same plan produce identical logs.
    StragglerDetected {
        /// Group whose collection stalled.
        group: usize,
        /// The slow (but alive) rank, world numbering.
        rank: usize,
        /// Chunk index within the group that was past deadline.
        chunk: usize,
    },
    /// A speculatively re-executed chunk copy was the first to arrive;
    /// the original (still owed by the straggler) is deduplicated on
    /// arrival. Bits are identical either way.
    SpeculativeWin {
        /// Group the chunk belongs to.
        group: usize,
        /// Chunk index within the group.
        chunk: usize,
        /// Rank whose speculative copy won, world numbering.
        winner: usize,
    },
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryEvent::RankDeclaredDead {
                group,
                rank,
                detected_by,
            } => write!(
                f,
                "group {group}: rank {rank} declared dead by {detected_by}"
            ),
            RecoveryEvent::WorkRequeued {
                group,
                from_rank,
                to_rank,
                chunk,
            } => write!(
                f,
                "group {group}: chunk {chunk} requeued from rank {from_rank} to {to_rank}"
            ),
            RecoveryEvent::MessageRetry {
                rank,
                peer,
                attempt,
            } => {
                write!(f, "rank {rank}: retry {attempt} waiting on {peer}")
            }
            RecoveryEvent::DeviceRetry { rank, op, attempt } => {
                write!(f, "rank {rank}: device {op} retry {attempt}")
            }
            RecoveryEvent::IoRetry {
                rank,
                what,
                attempt,
            } => {
                write!(f, "rank {rank}: io retry {attempt} reading {what}")
            }
            RecoveryEvent::LeaderSetDegraded {
                group,
                dead_leader,
                new_leader,
            } => write!(
                f,
                "group {group}: leader {dead_leader} dead, degraded to leader {new_leader}"
            ),
            RecoveryEvent::CorruptionDetected {
                rank,
                what,
                attempt,
            } => {
                write!(f, "rank {rank}: checksum mismatch {attempt} opening {what}")
            }
            RecoveryEvent::StragglerDetected { group, rank, chunk } => write!(
                f,
                "group {group}: rank {rank} straggling on chunk {chunk}, speculating"
            ),
            RecoveryEvent::SpeculativeWin {
                group,
                chunk,
                winner,
            } => write!(
                f,
                "group {group}: speculative copy of chunk {chunk} from rank {winner} won"
            ),
        }
    }
}

/// Thread-safe accumulator of [`RecoveryEvent`]s.
///
/// [`RecoveryLog::events`] returns a canonically sorted snapshot, so two
/// runs that take the same recovery actions compare equal even if threads
/// recorded them in different interleavings.
#[derive(Debug, Default)]
pub struct RecoveryLog {
    events: Mutex<Vec<RecoveryEvent>>,
}

impl RecoveryLog {
    /// An empty log.
    pub fn new() -> Arc<Self> {
        Arc::new(RecoveryLog::default())
    }

    /// Appends one recovery action.
    pub fn record(&self, event: RecoveryEvent) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event);
    }

    /// Canonically sorted snapshot of all recorded events.
    pub fn events(&self) -> Vec<RecoveryEvent> {
        let mut snapshot = self
            .events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        snapshot.sort();
        snapshot
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// True when nothing was recorded (the fault-free case).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let scenario = FaultScenario::mixed(8);
        let a = FaultPlan::generate(42, &scenario);
        let b = FaultPlan::generate(42, &scenario);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let scenario = FaultScenario::mixed(8);
        let a = FaultPlan::generate(1, &scenario);
        let b = FaultPlan::generate(2, &scenario);
        assert_ne!(a, b);
    }

    #[test]
    fn generated_plans_never_fail_rank_zero() {
        let scenario = FaultScenario::mixed(6);
        for seed in 0..64 {
            let plan = FaultPlan::generate(seed, &scenario);
            assert!(plan
                .events()
                .iter()
                .filter(|e| e.kind == FaultKind::RankFailure)
                .all(|e| e.rank != 0));
        }
    }

    #[test]
    fn roundtrip_through_text() {
        let plan = FaultPlan::generate(7, &FaultScenario::mixed(8));
        let text = plan.to_string();
        let reparsed = FaultPlan::parse(&text).unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn parse_rejects_mismatched_channel() {
        let err = FaultPlan::parse("rank 1 send op 3 device-oom").unwrap_err();
        assert!(err.message.contains("cannot attach"));
        assert!(err.message.contains("valid: `device-alloc`"), "{err}");
        // The span covers the conspiring channel and kind tokens.
        assert_eq!(err.line, 1);
        assert_eq!(err.span, Some((8, 28)));
        assert!(err.to_string().contains("cols 8-28"), "{err}");
    }

    #[test]
    fn parse_spans_point_at_offending_token() {
        // Leading whitespace and comments shift nothing: columns are
        // relative to the raw source line.
        let err = FaultPlan::parse("# header\n  rank 1 warp op 3 drop").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.span, Some((10, 14)));
        assert!(err.message.contains("unknown channel `warp`"));
    }

    #[test]
    fn parse_rejects_each_malformed_case() {
        for (text, needle) in [
            ("rank x send op 3 drop", "bad rank `x`"),
            ("rank 1 warp op 3 drop", "unknown channel `warp`"),
            ("rank 1 send op x drop", "bad op index `x`"),
            ("rank 1 send op 3 explode", "unknown fault kind `explode`"),
            ("rank 1 send op 3 delay:ms", "bad delay `delay:ms`"),
            ("rank 1 corrupt op 3 bit-flip:x", "bad bit-flip seed"),
            ("rank 1 send op 3", "expected `rank"),
            ("rank 1 send 3 op drop", "expected `rank"),
            // Channel/kind mismatches, including the new channel.
            ("rank 1 corrupt op 3 drop", "cannot attach"),
            ("rank 1 send op 0 bit-flip:7", "cannot attach"),
            ("rank 1 storage-read op 0 bit-flip:7", "cannot attach"),
            ("rank 1 recv op 0 drop", "cannot attach"),
            ("rank 1 device-alloc op 0 transfer-error", "cannot attach"),
            // Slow-device grammar and channel gating.
            ("rank 1 compute op 0 slow:x:0", "bad slow-device fault"),
            ("rank 1 compute op 0 slow:3", "bad slow-device fault"),
            ("rank 1 compute op 0 slow:0:0", "factor must be >= 1"),
            ("rank 1 send op 0 slow:3:0", "cannot attach"),
            ("rank 1 compute op 0 drop", "cannot attach"),
            ("rank 1 compute op 0 delay:5", "cannot attach"),
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(err.message.contains(needle), "`{text}` → {err}");
        }
    }

    #[test]
    fn parse_accepts_corrupt_channel() {
        let plan = FaultPlan::parse("rank 2 corrupt op 4 bit-flip:99").unwrap();
        assert_eq!(
            plan.events(),
            &[FaultEvent {
                rank: 2,
                channel: Channel::Corrupt,
                op_index: 4,
                kind: FaultKind::BitFlip { seed: 99 },
            }]
        );
        // Display round-trips the new grammar.
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn bit_flip_is_deterministic_and_single_bit() {
        let clean: Vec<u8> = (0..64u8).collect();
        let mut a = clean.clone();
        let mut b = clean.clone();
        apply_bit_flip(&mut a, 1234);
        apply_bit_flip(&mut b, 1234);
        assert_eq!(a, b);
        let flipped_bits: u32 = clean
            .iter()
            .zip(&a)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(flipped_bits, 1);
        // Different seeds pick (generally) different positions.
        let mut c = clean.clone();
        apply_bit_flip(&mut c, 5678);
        assert_ne!(a, clean);
        assert_ne!(c, clean);
        // Empty payloads are untouched.
        let mut empty: Vec<u8> = Vec::new();
        apply_bit_flip(&mut empty, 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn parse_ignores_comments_and_blanks() {
        let plan = FaultPlan::parse("# header\n\nrank 2 send op 5 drop # trailing\n").unwrap();
        assert_eq!(
            plan.events(),
            &[FaultEvent {
                rank: 2,
                channel: Channel::Send,
                op_index: 5,
                kind: FaultKind::MessageDrop,
            }]
        );
    }

    #[test]
    fn injector_fires_at_exact_op_index() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 1,
            channel: Channel::Send,
            op_index: 2,
            kind: FaultKind::MessageDrop,
        }]);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.on_op(1, Channel::Send), None); // op 0
        assert_eq!(inj.on_op(1, Channel::Send), None); // op 1
        assert_eq!(inj.on_op(1, Channel::Send), Some(FaultKind::MessageDrop));
        assert_eq!(inj.on_op(1, Channel::Send), None); // fires once
    }

    #[test]
    fn injector_counts_per_rank_and_channel() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 1,
            channel: Channel::Send,
            op_index: 0,
            kind: FaultKind::MessageDrop,
        }]);
        let inj = FaultInjector::new(plan);
        // Other ranks and channels do not consume rank 1's send slots.
        assert_eq!(inj.on_op(0, Channel::Send), None);
        assert_eq!(inj.on_op(1, Channel::Recv), None);
        assert_eq!(inj.on_op(1, Channel::Send), Some(FaultKind::MessageDrop));
    }

    #[test]
    fn rank_failure_marks_rank_dead() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 3,
            channel: Channel::Recv,
            op_index: 0,
            kind: FaultKind::RankFailure,
        }]);
        let inj = FaultInjector::new(plan);
        assert!(!inj.rank_failed(3));
        assert_eq!(inj.on_op(3, Channel::Recv), Some(FaultKind::RankFailure));
        assert!(inj.rank_failed(3));
        assert!(!inj.rank_failed(2));
    }

    #[test]
    fn recovery_log_snapshot_is_canonical() {
        let log = RecoveryLog::new();
        log.record(RecoveryEvent::MessageRetry {
            rank: 5,
            peer: 1,
            attempt: 1,
        });
        log.record(RecoveryEvent::RankDeclaredDead {
            group: 0,
            rank: 1,
            detected_by: 0,
        });
        let other = RecoveryLog::new();
        other.record(RecoveryEvent::RankDeclaredDead {
            group: 0,
            rank: 1,
            detected_by: 0,
        });
        other.record(RecoveryEvent::MessageRetry {
            rank: 5,
            peer: 1,
            attempt: 1,
        });
        assert_eq!(log.events(), other.events());
    }

    #[test]
    fn parse_accepts_compute_channel_slow_device() {
        let plan = FaultPlan::parse("rank 2 compute op 0 slow:4:1500").unwrap();
        assert_eq!(
            plan.events(),
            &[FaultEvent {
                rank: 2,
                channel: Channel::Compute,
                op_index: 0,
                kind: FaultKind::SlowDevice {
                    factor: 4,
                    from_nanos: 1500,
                },
            }]
        );
        assert!(plan.stragglers_only());
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn straggler_plans_are_seeded_distinct_and_never_rank_zero() {
        let a = FaultPlan::stragglers(9, 6, 3, 8);
        let b = FaultPlan::stragglers(9, 6, 3, 8);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 3);
        assert!(a.stragglers_only() && !a.delays_only());
        let mut ranks: Vec<_> = a.events().iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), 3, "slowdowns must land on distinct ranks");
        assert!(ranks.iter().all(|&r| r != 0));
        for e in a.events() {
            match e.kind {
                FaultKind::SlowDevice { factor, from_nanos } => {
                    assert!((2..=8).contains(&factor));
                    assert_eq!(from_nanos, 0);
                }
                other => panic!("unexpected kind {other:?}"),
            }
        }
        // A two-rank world has one candidate: count clamps, no spin.
        assert_eq!(FaultPlan::stragglers(1, 2, 5, 4).events().len(), 1);
        assert_ne!(a, FaultPlan::stragglers(10, 6, 3, 8));
    }

    #[test]
    fn delays_only_classification() {
        let delays = FaultPlan::generate(3, &FaultScenario::delays_only(4, 3));
        assert!(delays.delays_only());
        assert!(delays
            .events()
            .iter()
            .all(|e| matches!(e.kind, FaultKind::MessageDelay { .. })));
        let mixed = FaultPlan::generate(3, &FaultScenario::mixed(6));
        assert!(!mixed.delays_only());
    }
}
