//! Communicators: tagged point-to-point plus the collectives the paper uses.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use scalefbp_faults::{apply_bit_flip, open_frame, Channel, Crc32, FaultInject, FaultKind};
use scalefbp_obs::{Counter, MetricValue, MetricsRegistry};

/// Communication failures surfaced to fault-aware callers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived within the deadline.
    Timeout {
        /// Expected sender (local rank).
        from: usize,
        /// Expected tag.
        tag: u64,
    },
    /// A wire frame failed to deserialize.
    MalformedFrame {
        /// What was wrong with the frame.
        detail: String,
    },
    /// A checked frame arrived but its CRC-32 seal did not verify — the
    /// payload was corrupted in flight. The frame has already been
    /// consumed; the receiver must treat the message as lost.
    IntegrityFailure {
        /// Sender (local rank) of the corrupt frame.
        from: usize,
        /// Tag of the corrupt frame.
        tag: u64,
        /// Checksum mismatch detail.
        detail: String,
    },
    /// This rank hit an injected [`FaultKind::RankFailure`] — it must stop
    /// participating in the protocol.
    SelfFailed,
    /// The network shut down while waiting.
    Closed,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { from, tag } => {
                write!(f, "timed out waiting for rank {from} tag {tag}")
            }
            CommError::MalformedFrame { detail } => write!(f, "malformed frame: {detail}"),
            CommError::IntegrityFailure { from, tag, detail } => {
                write!(f, "corrupt frame from rank {from} tag {tag}: {detail}")
            }
            CommError::SelfFailed => write!(f, "this rank was killed by fault injection"),
            CommError::Closed => write!(f, "network closed"),
        }
    }
}

impl std::error::Error for CommError {}

/// A message in flight.
#[derive(Debug)]
struct Envelope {
    context: u64,
    from: usize,
    tag: u64,
    payload: Vec<u8>,
}

/// Cumulative network counters (shared by all communicators of a world).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Total messages sent.
    pub messages: u64,
}

pub(crate) struct Network {
    senders: Vec<Sender<Envelope>>,
    /// Per-rank traffic counters live here; [`Network::stats`] folds them
    /// back into the aggregate [`NetworkStats`] view.
    pub(crate) metrics: MetricsRegistry,
    /// Consulted on every send and on every delivered receive; the
    /// world-rank operation counters it keeps are what make injected
    /// faults land on the same operations every run.
    injector: Arc<dyn FaultInject>,
}

impl Network {
    /// Aggregate traffic counters, folded from the per-rank metrics.
    pub(crate) fn stats(&self) -> NetworkStats {
        let snap = self.metrics.snapshot();
        let mut stats = NetworkStats::default();
        for (key, value) in snap.entries() {
            if let MetricValue::Counter(c) = value {
                match key.name.as_str() {
                    "mpi.send.bytes" => stats.bytes += c,
                    "mpi.send.messages" => stats.messages += c,
                    _ => {}
                }
            }
        }
        stats
    }
}

/// Cached counter handles for one world rank — registered once at world
/// construction, then every send/receive is a single atomic increment
/// (the registry lock is never taken on the message path).
#[derive(Clone)]
struct RankCounters {
    sent_bytes: Counter,
    sent_messages: Counter,
    recv_messages: Counter,
    collective_calls: Counter,
}

impl RankCounters {
    fn new(metrics: &MetricsRegistry, world_rank: usize) -> Self {
        RankCounters {
            sent_bytes: metrics.rank_counter("mpi.send.bytes", world_rank),
            sent_messages: metrics.rank_counter("mpi.send.messages", world_rank),
            recv_messages: metrics.rank_counter("mpi.recv.messages", world_rank),
            collective_calls: metrics.rank_counter("mpi.collective.calls", world_rank),
        }
    }
}

/// Reserved tag namespace for collective internals.
const COLLECTIVE_TAG: u64 = u64::MAX - 1024;

/// Tag namespace for segmented reduce-scatter chunks. Every chunk of every
/// call gets a *unique* tag (`base + (call_seq << 32) + chunk_id`), so a
/// mismatched chunk is a protocol error rather than a silent wrong-chunk
/// delivery — and the fault-tolerant piece protocol can re-request a
/// specific chunk by tag.
const SEGREDUCE_TAG_BASE: u64 = 1 << 61;

/// An MPI-style communicator handle owned by one rank thread.
///
/// A communicator formed by [`split`](Self::split) maps its local ranks onto
/// a subset of the world's mailboxes and stamps every message with a context
/// id, so concurrent collectives in different groups never interfere — the
/// property that makes the paper's *segmented* reduce correct.
pub struct Communicator {
    network: Arc<Network>,
    /// Local rank → world rank.
    group: Arc<Vec<usize>>,
    /// This thread's local rank.
    local: usize,
    context: u64,
    /// How many times `split` has been called on this communicator (all
    /// members call collectives in lockstep, so this agrees everywhere).
    split_seq: u64,
    /// How many segmented reduce-scatters this communicator has run; like
    /// `split_seq` it agrees across members and disambiguates chunk tags
    /// between consecutive calls.
    seg_seq: u64,
    receiver: Receiver<Envelope>,
    /// Out-of-order messages awaiting a matching `recv`. Shared by every
    /// communicator of this rank (parents and `split` children drain the
    /// same mailbox, so a message stashed by one must stay visible to all).
    pending: Arc<Mutex<Vec<Envelope>>>,
    /// This world rank's cached metric handles (world-rank keyed, so
    /// `split` children keep attributing traffic to the same rank).
    counters: RankCounters,
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.local)
            .field("size", &self.group.len())
            .field("context", &self.context)
            .finish()
    }
}

impl Communicator {
    pub(crate) fn world_with_observability(
        size: usize,
        injector: Arc<dyn FaultInject>,
        metrics: MetricsRegistry,
    ) -> (Vec<Communicator>, Arc<Network>) {
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(r);
        }
        let network = Arc::new(Network {
            senders,
            metrics,
            injector,
        });
        let group = Arc::new((0..size).collect::<Vec<_>>());
        let comms = receivers
            .into_iter()
            .enumerate()
            .map(|(local, receiver)| Communicator {
                network: Arc::clone(&network),
                group: Arc::clone(&group),
                local,
                context: 0,
                split_seq: 0,
                seg_seq: 0,
                receiver,
                pending: Arc::new(Mutex::new(Vec::new())),
                counters: RankCounters::new(&network.metrics, local),
            })
            .collect();
        (comms, network)
    }

    /// This rank's id in the original world (stable across `split`s; fault
    /// injection sites are addressed by world rank).
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.group[self.local]
    }

    /// True once this rank has hit an injected rank failure.
    pub fn self_failed(&self) -> bool {
        self.network.injector.rank_failed(self.world_rank())
    }

    /// This rank's id within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.local
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Network-wide traffic counters.
    pub fn network_stats(&self) -> NetworkStats {
        self.network.stats()
    }

    /// The registry holding this world's per-rank communication metrics
    /// (`mpi.send.bytes`, `mpi.recv.messages`, …). Rank closures use it
    /// to register their own counters into the same exported snapshot.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.network.metrics
    }

    /// Sends `payload` to local rank `to` with `tag`.
    ///
    /// Under fault injection, a scheduled delay sleeps before delivery, a
    /// drop discards the payload after counting it, and a rank failure (or
    /// a previously failed self) suppresses delivery silently — use
    /// [`try_send`](Self::try_send) to observe the failure.
    pub fn send(&self, to: usize, tag: u64, payload: Vec<u8>) {
        let _ = self.try_send(to, tag, payload);
    }

    /// Fault-aware send: reports [`CommError::SelfFailed`] when this rank
    /// has been killed by injection (the message is not delivered).
    pub fn try_send(&self, to: usize, tag: u64, payload: Vec<u8>) -> Result<(), CommError> {
        assert!(to < self.size(), "send to rank {to} of {}", self.size());
        let me = self.world_rank();
        if self.network.injector.rank_failed(me) {
            return Err(CommError::SelfFailed);
        }
        let mut dropped = false;
        match self.network.injector.on_op(me, Channel::Send) {
            Some(FaultKind::MessageDelay { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
            }
            Some(FaultKind::MessageDrop) => dropped = true,
            Some(FaultKind::RankFailure) => return Err(CommError::SelfFailed),
            _ => {}
        }
        self.counters.sent_bytes.add(payload.len() as u64);
        self.counters.sent_messages.inc();
        if dropped {
            return Ok(()); // the sender never learns — that is the point
        }
        let world_to = self.group[to];
        // A rank that has already returned (e.g. the root after resuming
        // everything from a checkpoint) can never observe this message,
        // so delivery and drop are indistinguishable — drop it.
        let _ = self.network.senders[world_to].send(Envelope {
            context: self.context,
            from: self.local,
            tag,
            payload,
        });
        Ok(())
    }

    /// Control-plane send: delivered unconditionally, bypassing the fault
    /// injector and the sender's failure state. The fault-tolerant
    /// protocols use it for orchestration messages (shutdown, takeover)
    /// whose loss would hang the world — injected faults target the data
    /// plane only. Traffic is still counted.
    pub fn send_control(&self, to: usize, tag: u64, payload: Vec<u8>) {
        assert!(to < self.size(), "send to rank {to} of {}", self.size());
        self.counters.sent_bytes.add(payload.len() as u64);
        self.counters.sent_messages.inc();
        let world_to = self.group[to];
        // As in `try_send`: an already-exited peer makes this a no-op.
        let _ = self.network.senders[world_to].send(Envelope {
            context: self.context,
            from: self.local,
            tag,
            payload,
        });
    }

    /// Blocking selective receive from local rank `from` with `tag`.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<u8> {
        self.recv_any(&[(from, tag)], None)
            .expect("receive failed (injected rank failure without fault handling?)")
            .1
    }

    /// The one selective receive, `MPI_Waitany`-style: blocks until a
    /// message matching one of `keys` (`(from, tag)` pairs) is delivered,
    /// or until `deadline`, and returns the index of the key it matched
    /// with the payload. Among messages already stashed the key earlier in
    /// `keys` wins; otherwise the first to arrive does. Messages matching
    /// no key are stashed in arrival order, so two in the same `(from,
    /// tag)` class never overtake each other. A missed deadline is
    /// [`CommError::Timeout`] naming the first key.
    ///
    /// Injection is consulted once per *delivered* message, never per
    /// key or per wake-up, so the operation count a fault plan indexes
    /// into depends only on which messages are delivered.
    pub fn recv_any(
        &mut self,
        keys: &[(usize, u64)],
        deadline: Option<Instant>,
    ) -> Result<(usize, Vec<u8>), CommError> {
        assert!(!keys.is_empty(), "receive on an empty key set");
        for &(from, _) in keys {
            assert!(
                from < self.size(),
                "recv from rank {from} of {}",
                self.size()
            );
        }
        let me = self.world_rank();
        if self.network.injector.rank_failed(me) {
            return Err(CommError::SelfFailed);
        }
        let context = self.context;
        let matches = |e: &Envelope, &(from, tag): &(usize, u64)| {
            e.context == context && e.from == from && e.tag == tag
        };
        let mut pending = self.pending.lock();
        let stashed = keys.iter().enumerate().find_map(|(key, k)| {
            let idx = pending.iter().position(|e| matches(e, k))?;
            Some((key, idx))
        });
        let (key, payload) = match stashed {
            // `remove`, not `swap_remove`: the stash must stay in arrival
            // order (MPI's non-overtaking guarantee).
            Some((key, idx)) => (key, pending.remove(idx).payload),
            None => loop {
                let env = match deadline {
                    None => self.receiver.recv().map_err(|_| CommError::Closed)?,
                    Some(d) => match self
                        .receiver
                        .recv_timeout(d.saturating_duration_since(Instant::now()))
                    {
                        Ok(env) => env,
                        Err(RecvTimeoutError::Timeout) => {
                            let (from, tag) = keys[0];
                            return Err(CommError::Timeout { from, tag });
                        }
                        Err(RecvTimeoutError::Disconnected) => return Err(CommError::Closed),
                    },
                };
                match keys.iter().position(|k| matches(&env, k)) {
                    Some(key) => break (key, env.payload),
                    None => pending.push(env),
                }
            },
        };
        drop(pending);
        self.on_delivery(me)?;
        Ok((key, payload))
    }

    /// Receive-side injection hook, called once per delivered message.
    fn on_delivery(&self, me: usize) -> Result<(), CommError> {
        self.counters.recv_messages.inc();
        match self.network.injector.on_op(me, Channel::Recv) {
            Some(FaultKind::MessageDelay { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                Ok(())
            }
            Some(FaultKind::RankFailure) => Err(CommError::SelfFailed),
            _ => Ok(()),
        }
    }

    /// Drains this rank's mailbox without fault instrumentation until a
    /// `(from, tag)` match arrives. Used by dead or spectator ranks that
    /// only wait for shutdown; skipping the injector here keeps protocol
    /// operation counts deterministic.
    pub fn drain_until(&mut self, from: usize, tag: u64) {
        let mut pending = self.pending.lock();
        if let Some(idx) = pending
            .iter()
            .position(|e| e.context == self.context && e.from == from && e.tag == tag)
        {
            pending.remove(idx);
            return;
        }
        loop {
            match self.receiver.recv() {
                Ok(env) => {
                    if env.context == self.context && env.from == from && env.tag == tag {
                        return;
                    }
                    // Everything else is discarded: a dead rank consumes
                    // and ignores its traffic.
                }
                Err(_) => return,
            }
        }
    }

    /// Convenience: send an f32 slice.
    pub fn send_f32(&self, to: usize, tag: u64, data: &[f32]) {
        self.send(to, tag, encode_f32(data));
    }

    /// Convenience: receive an f32 vector.
    pub fn recv_f32(&mut self, from: usize, tag: u64) -> Vec<f32> {
        let bytes = self.recv(from, tag);
        decode_f32(&bytes).expect("payload is not an f32 array")
    }

    /// Integrity-checked f32 send: encodes and seals the payload in a
    /// CRC-32 frame in one pass before transmission.
    /// Injection on [`Channel::Corrupt`] flips one seeded bit of the
    /// sealed frame *after* sealing, modelling on-the-wire corruption the
    /// receiver's checksum must catch. Used by the fault-tolerant data
    /// plane; the raw [`send_f32`](Self::send_f32) path and the
    /// collectives keep their unsealed framing.
    pub fn send_f32_checked(&self, to: usize, tag: u64, data: &[f32]) -> Result<(), CommError> {
        let mut frame = seal_f32(data);
        let me = self.world_rank();
        if let Some(FaultKind::BitFlip { seed }) = self.network.injector.on_op(me, Channel::Corrupt)
        {
            apply_bit_flip(&mut frame, seed);
        }
        self.try_send(to, tag, frame)
    }

    /// Integrity-checked f32 receive with a deadline, into a fresh
    /// vector: awaits the frame, verifies its CRC-32 seal, then decodes.
    pub fn recv_f32_checked_timeout(
        &mut self,
        from: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<f32>, CommError> {
        let deadline = Instant::now() + timeout;
        let (_, frame) = self.recv_any_sealed(&[(from, tag)], Some(deadline))?;
        decode_f32(&frame.0[4..])
    }

    /// The sealed twin of [`recv_any`](Self::recv_any): the same wait,
    /// then the matched frame's CRC-32 seal is verified. A mismatch is
    /// [`CommError::IntegrityFailure`] naming the matched key; the corrupt
    /// frame is consumed, so callers recover exactly as they would from a
    /// dropped message.
    pub fn recv_any_sealed(
        &mut self,
        keys: &[(usize, u64)],
        deadline: Option<Instant>,
    ) -> Result<(usize, SealedF32), CommError> {
        let (key, frame) = self.recv_any(keys, deadline)?;
        match open_frame(&frame) {
            Ok(_) => Ok((key, SealedF32(frame))),
            Err(e) => Err(CommError::IntegrityFailure {
                from: keys[key].0,
                tag: keys[key].1,
                detail: e.to_string(),
            }),
        }
    }

    /// Broadcast from `root` to all ranks (binomial tree). Non-roots pass
    /// an empty buffer and receive the root's.
    pub fn bcast(&mut self, root: usize, data: &mut Vec<u8>) {
        self.counters.collective_calls.inc();
        let p = self.size();
        if p == 1 {
            return;
        }
        // Rotate so the root is virtual rank 0.
        let me = (self.local + p - root) % p;
        let mut mask = 1usize;
        // Receive phase: find the bit where I get the data.
        while mask < p {
            if me & mask != 0 {
                let src = (me - mask + root) % p;
                *data = self.recv(src, COLLECTIVE_TAG + 1);
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to my subtree.
        mask >>= 1;
        while mask > 0 {
            if me + mask < p {
                let dst = (me + mask + root) % p;
                self.send(dst, COLLECTIVE_TAG + 1, data.clone());
            }
            mask >>= 1;
        }
    }

    /// Typed broadcast of an f32 buffer: on return every rank's `buf`
    /// holds the root's values bit-for-bit. All ranks must pass buffers
    /// of the same length — unlike [`bcast`](Self::bcast), receivers keep
    /// their allocation, which lets callers broadcast straight into a
    /// sub-slice of a larger stack or volume (the row/segment allgathers
    /// of the distributed iterative driver).
    pub fn bcast_f32(&mut self, root: usize, buf: &mut [f32]) -> Result<(), CommError> {
        let mut bytes = if self.local == root {
            encode_f32(buf)
        } else {
            Vec::new()
        };
        self.bcast(root, &mut bytes);
        if self.local != root {
            let vals = decode_f32(&bytes)?;
            if vals.len() != buf.len() {
                return Err(CommError::MalformedFrame {
                    detail: format!(
                        "bcast_f32 length mismatch: got {}, expected {}",
                        vals.len(),
                        buf.len()
                    ),
                });
            }
            buf.copy_from_slice(&vals);
        }
        Ok(())
    }

    /// Allgather of rank-owned contiguous segments: rank `r` contributes
    /// `mine` (exactly `counts[r]` values) and every rank returns the
    /// concatenation of all segments in ascending rank order — pure
    /// concatenation, no arithmetic, so the result is trivially
    /// bit-identical across ranks. One broadcast per owner.
    pub fn allgather_f32_segments(
        &mut self,
        mine: &[f32],
        counts: &[usize],
    ) -> Result<Vec<f32>, CommError> {
        let p = self.size();
        assert_eq!(counts.len(), p, "one segment count per rank");
        assert_eq!(
            mine.len(),
            counts[self.local],
            "segment length does not match this rank's count"
        );
        self.counters.collective_calls.inc();
        let total: usize = counts.iter().sum();
        let mut out = vec![0.0f32; total];
        let mut begin = 0usize;
        for (owner, &count) in counts.iter().enumerate() {
            let seg = &mut out[begin..begin + count];
            if owner == self.local {
                seg.copy_from_slice(mine);
            }
            self.bcast_f32(owner, seg)?;
            begin += count;
        }
        Ok(out)
    }

    /// Gather every rank's buffer to `root`; returns `Some(vec)` (rank
    /// order) at the root, `None` elsewhere.
    pub fn gather(&mut self, root: usize, data: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        self.counters.collective_calls.inc();
        if self.local == root {
            let mut out = Vec::with_capacity(self.size());
            for from in 0..self.size() {
                out.push(if from == root {
                    data.clone()
                } else {
                    self.recv(from, COLLECTIVE_TAG + 2)
                });
            }
            Some(out)
        } else {
            self.send(root, COLLECTIVE_TAG + 2, data);
            None
        }
    }

    /// Barrier: gather of empty payloads followed by a broadcast.
    pub fn barrier(&mut self) {
        let _ = self.gather(0, Vec::new());
        let mut token = if self.local == 0 {
            vec![1u8]
        } else {
            Vec::new()
        };
        self.bcast(0, &mut token);
    }

    /// Binomial-tree sum-reduction of f32 buffers to `root` — the
    /// `MPI_Reduce` of Figure 3b/Figure 8. Every rank passes its
    /// contribution in `buf`; on return the root's `buf` holds the
    /// element-wise sum (other ranks' buffers are unspecified).
    ///
    /// `⌈log₂ p⌉` rounds; each rank sends at most once.
    pub fn reduce_sum_f32(&mut self, root: usize, buf: &mut [f32]) {
        self.counters.collective_calls.inc();
        let p = self.size();
        if p == 1 {
            return;
        }
        let me = (self.local + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if me & mask != 0 {
                // Send my partial to the partner below and exit.
                let dst = (me - mask + root) % p;
                self.send_f32(dst, COLLECTIVE_TAG + 3, buf);
                return;
            }
            let src_virtual = me + mask;
            if src_virtual < p {
                let src = (src_virtual + root) % p;
                let incoming = self.recv_f32(src, COLLECTIVE_TAG + 3);
                assert_eq!(incoming.len(), buf.len(), "reduce buffer length mismatch");
                for (a, b) in buf.iter_mut().zip(&incoming) {
                    *a += b;
                }
            }
            mask <<= 1;
        }
    }

    /// Flat *canonical* sum-reduction to `root`: every non-root rank ships
    /// its whole contribution, and the root folds the raw buffers in
    /// ascending rank order (`((b₀ + b₁) + b₂) + …`). That ordering is the
    /// bit-exactness contract shared with
    /// [`segmented_reduce_scatter_f32`](Self::segmented_reduce_scatter_f32)
    /// and [`hierarchical_reduce_sum_canonical`]; see
    /// `docs/communication.md`.
    ///
    /// Root ingress is `(p-1) · len` values — linear in `p`, the prior-art
    /// dense baseline the paper's segmented collective replaces.
    pub fn reduce_sum_f32_canonical(
        &mut self,
        root: usize,
        buf: &mut [f32],
    ) -> Result<(), CommError> {
        self.counters.collective_calls.inc();
        let p = self.size();
        if p == 1 {
            return Ok(());
        }
        if self.local != root {
            return self.try_send(root, COLLECTIVE_TAG + 4, encode_f32(buf));
        }
        let own = buf.to_vec();
        for r in 0..p {
            if r == root {
                if r == 0 {
                    continue; // `buf` already holds this rank's contribution
                }
                for (a, b) in buf.iter_mut().zip(&own) {
                    *a += *b;
                }
            } else {
                let bytes = self.recv_any(&[(r, COLLECTIVE_TAG + 4)], None)?.1;
                let incoming = decode_f32(&bytes)?;
                assert_eq!(incoming.len(), buf.len(), "reduce buffer length mismatch");
                if r == 0 {
                    buf.copy_from_slice(&incoming);
                } else {
                    for (a, b) in buf.iter_mut().zip(&incoming) {
                        *a += *b;
                    }
                }
            }
        }
        Ok(())
    }

    /// The paper's segmented `MPI_Reduce` (Figure 8): a chain-pipelined
    /// reduce-scatter in which rank `r` ends up holding only the reduced
    /// values of its own segment (`counts[r]` elements, laid out
    /// contiguously in rank order).
    ///
    /// For every `chunk`-element chunk of every segment, a partial flows
    /// down the rank chain `0 → 1 → … → p-1`, each rank adding its own
    /// contribution — a running left fold, so the result is bit-identical
    /// to [`reduce_sum_f32_canonical`](Self::reduce_sum_f32_canonical) on
    /// the same data. The tail rank forwards each finished chunk straight
    /// to its owner, and owners collect their deliveries only after
    /// feeding the whole chain, so chunk `b` is in flight while chunk
    /// `b+1` is still being accumulated.
    ///
    /// Per-rank traffic: at most `total` elements of through-traffic on
    /// the chain, plus the owner's `counts[r]` elements of finished
    /// results — the `Nz/p` scaling the paper's Fig. 9/10 measures
    /// (counted under `mpisim.segreduce.*`).
    pub fn segmented_reduce_scatter_f32(
        &mut self,
        buf: &[f32],
        counts: &[usize],
        chunk: usize,
    ) -> Result<Vec<f32>, CommError> {
        let p = self.size();
        assert_eq!(counts.len(), p, "one segment count per rank");
        assert!(chunk > 0, "chunk must be positive");
        let total: usize = counts.iter().sum();
        assert_eq!(total, buf.len(), "segment counts must cover the buffer");
        self.counters.collective_calls.inc();

        let me = self.local;
        let world_rank = self.world_rank();
        let metrics = self.metrics();
        let calls = metrics.rank_counter("mpisim.segreduce.calls", world_rank);
        let chunks_ctr = metrics.rank_counter("mpisim.segreduce.chunks", world_rank);
        let chain_bytes = metrics.rank_counter("mpisim.segreduce.chain.bytes", world_rank);
        let owner_bytes = metrics.rank_counter("mpisim.segreduce.owner.bytes", world_rank);
        calls.inc();

        let mut offsets = Vec::with_capacity(p + 1);
        offsets.push(0usize);
        for &c in counts {
            offsets.push(offsets.last().unwrap() + c);
        }
        let my_begin = offsets[me];
        let mut out = buf[my_begin..offsets[me + 1]].to_vec();
        if p == 1 {
            return Ok(out);
        }

        let seq = self.seg_seq;
        self.seg_seq += 1;
        // Every rank enumerates (owner, chunk) identically, so the derived
        // tags agree without any negotiation.
        let mut chunk_id: u64 = 0;
        // Chunks this rank owns but the tail rank finishes: collected
        // after the chain loop so waiting for them never stalls the chain.
        let mut deliveries: Vec<(usize, usize, u64)> = Vec::new();
        for owner in 0..p {
            let mut c0 = offsets[owner];
            let seg_end = offsets[owner + 1];
            while c0 < seg_end {
                let c1 = (c0 + chunk).min(seg_end);
                debug_assert!(chunk_id < u64::from(u32::MAX));
                let tag = SEGREDUCE_TAG_BASE + (seq << 32) + chunk_id;
                chunk_id += 1;
                if me == 0 {
                    self.try_send(1, tag, encode_f32(&buf[c0..c1]))?;
                } else {
                    let bytes = self.recv_any(&[(me - 1, tag)], None)?.1;
                    chain_bytes.add(bytes.len() as u64);
                    let mut partial = decode_f32(&bytes)?;
                    assert_eq!(partial.len(), c1 - c0, "chunk length mismatch");
                    for (a, b) in partial.iter_mut().zip(&buf[c0..c1]) {
                        *a += *b;
                    }
                    if me < p - 1 {
                        self.try_send(me + 1, tag, encode_f32(&partial))?;
                    } else if owner == me {
                        out[c0 - my_begin..c1 - my_begin].copy_from_slice(&partial);
                    } else {
                        self.try_send(owner, tag, encode_f32(&partial))?;
                    }
                }
                chunks_ctr.inc();
                if owner == me && me < p - 1 {
                    deliveries.push((c0 - my_begin, c1 - my_begin, tag));
                }
                c0 = c1;
            }
        }
        for (d0, d1, tag) in deliveries {
            let bytes = self.recv_any(&[(p - 1, tag)], None)?.1;
            owner_bytes.add(bytes.len() as u64);
            let finished = decode_f32(&bytes)?;
            assert_eq!(finished.len(), d1 - d0, "delivered chunk length mismatch");
            out[d0..d1].copy_from_slice(&finished);
        }
        Ok(out)
    }

    /// `MPI_Comm_split`: ranks with equal `color` form a new communicator,
    /// ordered by `(key, old rank)`. Collective — every rank must call it.
    /// Fails with [`CommError::MalformedFrame`] if the allgathered
    /// membership frames do not deserialize.
    pub fn split(&mut self, color: u64, key: i64) -> Result<Communicator, CommError> {
        // Allgather (gather + bcast) of (color, key, local).
        let mut triple = Vec::with_capacity(24);
        triple.extend_from_slice(&color.to_le_bytes());
        triple.extend_from_slice(&key.to_le_bytes());
        triple.extend_from_slice(&(self.local as u64).to_le_bytes());
        let gathered = self.gather(0, triple.clone());
        let mut all = match gathered {
            Some(v) => v.concat(),
            None => Vec::new(),
        };
        self.bcast(0, &mut all);

        let members = parse_split_frames(&all, color, self.size())?;
        let group: Vec<usize> = members.iter().map(|&(_, r)| self.group[r]).collect();
        let local = members
            .iter()
            .position(|&(_, r)| r == self.local)
            .ok_or_else(|| CommError::MalformedFrame {
                detail: format!(
                    "split: caller rank {} missing from its own color {color} group",
                    self.local
                ),
            })?;

        self.split_seq += 1;
        let context = self
            .context
            .wrapping_mul(1_000_003)
            .wrapping_add(self.split_seq.wrapping_mul(131))
            .wrapping_add(color)
            .wrapping_add(1);

        Ok(Communicator {
            network: Arc::clone(&self.network),
            group: Arc::new(group),
            local,
            context,
            split_seq: 0,
            seg_seq: 0,
            receiver: self.receiver.clone(),
            pending: Arc::clone(&self.pending),
            counters: self.counters.clone(),
        })
    }
}

/// Values encoded per step of [`seal_f32`]: 16 KiB of payload, so the
/// checksum reads each block while the encoder's writes are still in L1.
const SEAL_BLOCK: usize = 4096;

/// Appends `data` to `out` as little-endian f32 bytes.
fn put_f32_le(out: &mut Vec<u8>, data: &[f32]) {
    let start = out.len();
    out.resize(start + data.len() * 4, 0);
    for (b, v) in out[start..].chunks_exact_mut(4).zip(data) {
        b.copy_from_slice(&v.to_le_bytes());
    }
}

/// Encodes an f32 slice as a little-endian payload.
fn encode_f32(data: &[f32]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(data.len() * 4);
    put_f32_le(&mut bytes, data);
    bytes
}

/// Encodes and seals `data` as `[crc32 u32-le][f32-le payload]` in one
/// pass: each block is encoded into the frame and checksummed while it is
/// cache-hot. The bytes are those of `seal_frame(&encode_f32(data))`,
/// without the intermediate payload copy.
fn seal_f32(data: &[f32]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + data.len() * 4);
    frame.extend_from_slice(&[0; 4]);
    let mut crc = Crc32::new();
    for block in data.chunks(SEAL_BLOCK) {
        let start = frame.len();
        put_f32_le(&mut frame, block);
        crc.update(&frame[start..]);
    }
    frame[..4].copy_from_slice(&crc.finish().to_le_bytes());
    frame
}

/// A received frame whose CRC-32 seal verified, holding an f32 payload
/// ([`Communicator::recv_any_sealed`]).
#[derive(Debug)]
pub struct SealedF32(Vec<u8>);

impl SealedF32 {
    /// Decodes the payload into `dst`, which it must fill exactly: a
    /// payload of another length is [`CommError::MalformedFrame`] and
    /// leaves `dst` untouched.
    pub fn decode_into(&self, dst: &mut [f32]) -> Result<(), CommError> {
        decode_f32_into(&self.0[4..], dst)
    }
}

/// Decodes a little-endian f32 payload, rejecting ragged lengths.
fn decode_f32(bytes: &[u8]) -> Result<Vec<f32>, CommError> {
    let mut out = vec![0.0; bytes.len() / 4];
    decode_f32_into(bytes, &mut out)?;
    Ok(out)
}

/// Decodes a little-endian f32 payload into `dst`, which it must fill
/// exactly; on a ragged or mismatched length `dst` is untouched.
fn decode_f32_into(bytes: &[u8], dst: &mut [f32]) -> Result<(), CommError> {
    if bytes.len() % 4 != 0 {
        return Err(CommError::MalformedFrame {
            detail: format!("f32 payload length {} is not a multiple of 4", bytes.len()),
        });
    }
    if bytes.len() / 4 != dst.len() {
        return Err(CommError::MalformedFrame {
            detail: format!(
                "f32 payload of {} values, expected {}",
                bytes.len() / 4,
                dst.len()
            ),
        });
    }
    for (v, c) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
        *v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
    Ok(())
}

/// Deserializes the `(color, key, rank)` triples allgathered by
/// [`Communicator::split`], returning the sorted members of `color`.
/// Every framing defect — ragged length, truncated field, out-of-range
/// rank — is reported as [`CommError::MalformedFrame`] instead of
/// panicking mid-collective.
fn parse_split_frames(all: &[u8], color: u64, size: usize) -> Result<Vec<(i64, usize)>, CommError> {
    if all.len() % 24 != 0 {
        return Err(CommError::MalformedFrame {
            detail: format!(
                "split allgather payload of {} bytes is not a whole number of 24-byte triples",
                all.len()
            ),
        });
    }
    let field = |chunk: &[u8], at: usize| -> Result<[u8; 8], CommError> {
        chunk
            .get(at..at + 8)
            .and_then(|s| <[u8; 8]>::try_from(s).ok())
            .ok_or_else(|| CommError::MalformedFrame {
                detail: format!("split triple truncated at byte {at}"),
            })
    };
    let mut members: Vec<(i64, usize)> = Vec::new();
    for chunk in all.chunks_exact(24) {
        let c = u64::from_le_bytes(field(chunk, 0)?);
        let k = i64::from_le_bytes(field(chunk, 8)?);
        let r = u64::from_le_bytes(field(chunk, 16)?) as usize;
        if r >= size {
            return Err(CommError::MalformedFrame {
                detail: format!("split triple names rank {r} of a {size}-rank communicator"),
            });
        }
        if c == color {
            members.push((k, r));
        }
    }
    members.sort_unstable();
    Ok(members)
}

/// The paper's hierarchical segmented reduction (Section 4.4.2): ranks on
/// the same node (consecutive blocks of `ranks_per_node`) first reduce to a
/// node leader, then the leaders reduce to `root` — halving inter-node
/// traffic relative to a flat tree when `ranks_per_node > 1`.
///
/// `root` must be a node leader (true for the paper's group leaders, which
/// are rank 0 of each group). On return the root's `buf` holds the sum.
pub fn hierarchical_reduce_sum(
    comm: &mut Communicator,
    root: usize,
    buf: &mut [f32],
    ranks_per_node: usize,
) -> Result<(), CommError> {
    assert!(ranks_per_node > 0, "ranks_per_node must be positive");
    assert_eq!(
        root % ranks_per_node,
        0,
        "root {root} must be a node leader (multiple of {ranks_per_node})"
    );
    // Intra-node reduce to the node leader.
    let node = comm.rank() / ranks_per_node;
    let mut intra = comm.split(node as u64, comm.rank() as i64)?;
    intra.reduce_sum_f32(0, buf);
    let is_leader = intra.rank() == 0;
    // Inter-node reduce among leaders.
    let mut inter = comm.split(u64::from(is_leader), comm.rank() as i64)?;
    if is_leader {
        let root_leader = root / ranks_per_node;
        inter.reduce_sum_f32(root_leader, buf);
    }
    Ok(())
}

/// Contiguous even partition of `len` items into `parts` segments: the
/// first `len % parts` segments get one extra item. The partition is
/// disjoint, exhaustive, and ordered — the segment-ownership contract of
/// [`Communicator::segmented_reduce_scatter_f32`] (pinned by proptests in
/// `tests/collective_conformance.rs`).
pub fn segment_partition(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0, "cannot partition into zero segments");
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut begin = 0;
    for idx in 0..parts {
        let n = base + usize::from(idx < extra);
        out.push(begin..begin + n);
        begin += n;
    }
    debug_assert_eq!(begin, len);
    out
}

/// Canonical-ordering variant of [`hierarchical_reduce_sum`]: node leaders
/// gather their node's *raw* contributions (no partial folding) and forward
/// the concatenated block, so the root can fold all `p` buffers in
/// ascending rank order — bit-identical to
/// [`Communicator::reduce_sum_f32_canonical`].
///
/// Relative to the flat canonical reduce this keeps the hierarchical
/// message pattern (inter-node message count = number of nodes) but not
/// its byte savings: canonical ordering requires every raw contribution at
/// the folding site. See `docs/communication.md` for the trade-off.
pub fn hierarchical_reduce_sum_canonical(
    comm: &mut Communicator,
    root: usize,
    buf: &mut [f32],
    ranks_per_node: usize,
) -> Result<(), CommError> {
    assert!(ranks_per_node > 0, "ranks_per_node must be positive");
    assert_eq!(
        root % ranks_per_node,
        0,
        "root {root} must be a node leader (multiple of {ranks_per_node})"
    );
    let p = comm.size();
    let n = buf.len();
    if p == 1 {
        return Ok(());
    }
    // Intra-node gather to the node leader; intra rank order is ascending
    // communicator rank, so each node block is already canonically ordered.
    let node = comm.rank() / ranks_per_node;
    let mut intra = comm.split(node as u64, comm.rank() as i64)?;
    let node_block = intra.gather(0, encode_f32(buf));
    let is_leader = intra.rank() == 0;
    // Inter-node gather of the node blocks; node order is ascending, so
    // the concatenation enumerates ranks 0..p.
    let mut inter = comm.split(u64::from(is_leader), comm.rank() as i64)?;
    if is_leader {
        let root_leader = root / ranks_per_node;
        let block = node_block.expect("node leader gathers its block").concat();
        if let Some(blocks) = inter.gather(root_leader, block) {
            let vals = decode_f32(&blocks.concat())?;
            assert_eq!(vals.len(), p * n, "hierarchical gather length mismatch");
            buf.copy_from_slice(&vals[..n]);
            for r in 1..p {
                for (a, b) in buf.iter_mut().zip(&vals[r * n..(r + 1) * n]) {
                    *a += *b;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn bcast_f32_delivers_root_bits_to_fixed_buffers() {
        for p in [1, 2, 3, 5] {
            let results = World::run(p, move |mut comm| {
                let mut buf = if comm.rank() == 2 % p {
                    vec![1.5f32, -0.0, f32::MIN_POSITIVE / 4.0, 7.25]
                } else {
                    vec![0.0f32; 4]
                };
                comm.bcast_f32(2 % p, &mut buf).unwrap();
                buf
            });
            for r in &results {
                assert_eq!(r[0].to_bits(), 1.5f32.to_bits());
                assert_eq!(
                    r[1].to_bits(),
                    (-0.0f32).to_bits(),
                    "signed zero must survive"
                );
                assert_eq!(r[2].to_bits(), (f32::MIN_POSITIVE / 4.0).to_bits());
                assert_eq!(r[3].to_bits(), 7.25f32.to_bits());
            }
        }
    }

    #[test]
    fn allgather_segments_concatenates_in_rank_order() {
        let counts = [3usize, 1, 0, 2];
        let results = World::run(4, move |mut comm| {
            let me = comm.rank();
            let mine: Vec<f32> = (0..counts[me]).map(|i| (me * 10 + i) as f32).collect();
            comm.allgather_f32_segments(&mine, &counts).unwrap()
        });
        let expected = vec![0.0f32, 1.0, 2.0, 10.0, 30.0, 31.0];
        for r in &results {
            assert_eq!(r, &expected);
        }
    }

    #[test]
    fn ping_pong_roundtrip() {
        let results = World::run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send_f32(1, 7, &[1.0, 2.5, -3.0]);
                comm.recv_f32(1, 8)
            } else {
                let got = comm.recv_f32(0, 7);
                comm.send_f32(0, 8, &[got[2], got[1], got[0]]);
                got
            }
        });
        assert_eq!(results[0], vec![-3.0, 2.5, 1.0]);
        assert_eq!(results[1], vec![1.0, 2.5, -3.0]);
    }

    #[test]
    fn checked_frames_round_trip_and_catch_injected_corruption() {
        use scalefbp_faults::{FaultEvent, FaultInjector, FaultPlan};
        use std::time::Duration;
        // Rank 0's first corrupt-channel op flips one seeded bit in the
        // sealed frame; the resend (op 1) goes through clean.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 0,
            channel: Channel::Corrupt,
            op_index: 0,
            kind: FaultKind::BitFlip { seed: 41 },
        }]);
        let (results, _) = World::run_with_faults(2, FaultInjector::new(plan), |mut c| {
            if c.rank() == 0 {
                c.send_f32_checked(1, 7, &[1.0, -2.0, 3.5]).unwrap();
                c.send_f32_checked(1, 7, &[1.0, -2.0, 3.5]).unwrap();
                Ok(vec![])
            } else {
                let first = c.recv_f32_checked_timeout(0, 7, Duration::from_secs(2));
                assert!(
                    matches!(
                        first,
                        Err(CommError::IntegrityFailure {
                            from: 0,
                            tag: 7,
                            ..
                        })
                    ),
                    "corruption not caught: {first:?}"
                );
                c.recv_f32_checked_timeout(0, 7, Duration::from_secs(2))
            }
        });
        assert_eq!(results[1].as_deref(), Ok(&[1.0, -2.0, 3.5][..]));
    }

    /// The one-pass seal writes the bytes of the two-pass
    /// `seal_frame(&encode_f32(..))`, across block edges.
    #[test]
    fn one_pass_seal_matches_seal_of_encoding() {
        for n in [
            0,
            1,
            3,
            SEAL_BLOCK - 1,
            SEAL_BLOCK,
            SEAL_BLOCK + 5,
            3 * SEAL_BLOCK,
        ] {
            let data: Vec<f32> = (0..n).map(|i| i as f32 * -0.75 + 0.125).collect();
            assert_eq!(
                seal_f32(&data),
                scalefbp_faults::seal_frame(&encode_f32(&data)),
                "n = {n}"
            );
        }
    }

    /// A checked receive lands in the caller's slice; a frame of the
    /// wrong length or a corrupt one leaves the slice untouched.
    #[test]
    fn checked_receive_lands_in_place_or_not_at_all() {
        use scalefbp_faults::{FaultEvent, FaultInjector, FaultPlan};
        use std::time::Duration;
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 0,
            channel: Channel::Corrupt,
            op_index: 1,
            kind: FaultKind::BitFlip { seed: 3 },
        }]);
        let (results, _) = World::run_with_faults(2, FaultInjector::new(plan), |mut c| {
            if c.rank() == 0 {
                c.send_f32_checked(1, 1, &[1.0, 2.0]).unwrap(); // wrong length
                c.send_f32_checked(1, 2, &[5.0, 6.0, 7.0]).unwrap(); // corrupted
                c.send_f32_checked(1, 3, &[-1.5, 0.0, 9.0]).unwrap();
                return Ok::<_, CommError>(vec![]);
            }
            let deadline = Some(std::time::Instant::now() + Duration::from_secs(2));
            let mut dst = vec![4.0f32; 5];
            let (_, short) = c.recv_any_sealed(&[(0, 1)], deadline)?;
            let short = short.decode_into(&mut dst[1..4]);
            assert!(
                matches!(short, Err(CommError::MalformedFrame { .. })),
                "{short:?}"
            );
            let bad = c.recv_any_sealed(&[(0, 2)], deadline);
            assert!(
                matches!(bad, Err(CommError::IntegrityFailure { tag: 2, .. })),
                "{bad:?}"
            );
            assert_eq!(dst, vec![4.0; 5]);
            c.recv_any_sealed(&[(0, 3)], deadline)?
                .1
                .decode_into(&mut dst[1..4])?;
            Ok(dst)
        });
        assert_eq!(results[1].as_deref(), Ok(&[4.0, -1.5, 0.0, 9.0, 4.0][..]));
    }

    #[test]
    fn selective_receive_reorders_tags() {
        let results = World::run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1]);
                comm.send(1, 2, vec![2]);
                vec![0u8]
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let b = comm.recv(0, 2);
                let a = comm.recv(0, 1);
                vec![b[0], a[0]]
            }
        });
        assert_eq!(results[1], vec![2, 1]);
    }

    /// Non-overtaking: two messages in the same `(from, tag)` class must be
    /// delivered in send order even when an out-of-order receive removes an
    /// unrelated message that was stashed *before* them. (Regression: the
    /// stash once used `swap_remove`, which moved the later same-class
    /// message in front of the earlier one — the root of a batch-mixing
    /// race in `reduce_sum_f32_canonical` under parallel test load.)
    #[test]
    fn same_class_messages_never_overtake() {
        let results = World::run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![2]);
                comm.send(1, 9, vec![1]);
                comm.send(1, 9, vec![3]);
                comm.send(1, 7, vec![4]);
                vec![0u8]
            } else {
                // Stash fills as [5, 9:[1], 9:[3]] while waiting for tag 7;
                // popping tag 5 from the front must not reorder the two
                // tag-9 messages behind it.
                let d = comm.recv(0, 7);
                let x = comm.recv(0, 5);
                let first = comm.recv(0, 9);
                let second = comm.recv(0, 9);
                vec![d[0], x[0], first[0], second[0]]
            }
        });
        assert_eq!(results[1], vec![4, 2, 1, 3]);
    }

    /// Among stashed messages the key earlier in the list wins, whatever
    /// the arrival order; with nothing stashed the first arrival wins.
    #[test]
    fn key_set_receive_prefers_the_earlier_stashed_key() {
        let results = World::run(2, |mut comm| {
            if comm.rank() == 0 {
                for tag in [3, 2, 1] {
                    comm.send(1, tag, vec![tag as u8]);
                }
                comm.send(1, 4, vec![4]); // the tag-1 receive stashes 3 and 2
                return vec![];
            }
            let first = comm.recv(0, 1);
            let keys = [(0, 2), (0, 3), (0, 4)];
            let (a, pa) = comm.recv_any(&keys, None).unwrap();
            let (b, pb) = comm.recv_any(&keys, None).unwrap();
            let (c, pc) = comm.recv_any(&keys, None).unwrap();
            vec![first[0], a as u8, pa[0], b as u8, pb[0], c as u8, pc[0]]
        });
        assert_eq!(results[1], vec![1, 0, 2, 1, 3, 2, 4]);
    }

    /// A key set that nothing matches times out at its deadline, naming
    /// its first key, and leaves the unmatched traffic to a later receive.
    #[test]
    fn key_set_receive_times_out_at_its_deadline() {
        let results = World::run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, vec![9]);
                return Ok(vec![]);
            }
            let start = Instant::now();
            let deadline = Some(start + Duration::from_millis(30));
            let missed = comm.recv_any(&[(0, 5), (0, 6)], deadline);
            assert_eq!(missed, Err(CommError::Timeout { from: 0, tag: 5 }));
            assert!(start.elapsed() >= Duration::from_millis(30));
            comm.recv_any(&[(0, 9)], None).map(|(_, p)| p)
        });
        assert_eq!(results[1], Ok(vec![9]));
    }

    /// A stashed message that matches no key keeps its place: a later
    /// message of its own class never overtakes it.
    #[test]
    fn key_set_receive_never_overtakes_a_stashed_non_match() {
        let results = World::run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1]);
                comm.send(1, 8, vec![0]);
                comm.send(1, 7, vec![2]);
                comm.send(1, 5, vec![5]);
                return vec![];
            }
            let (_, p5) = comm.recv_any(&[(0, 5), (0, 6)], None).unwrap();
            let (k, p8) = comm.recv_any(&[(0, 6), (0, 8)], None).unwrap();
            let first = comm.recv_any(&[(0, 6), (0, 7)], None).unwrap();
            let second = comm.recv_any(&[(0, 7)], None).unwrap();
            vec![p5[0], k as u8, p8[0], first.1[0], second.1[0]]
        });
        assert_eq!(results[1], vec![5, 1, 0, 1, 2]);
    }

    /// One receive-channel fault op is consumed per delivered message,
    /// however many keys the receive waits on: the plan's op 2 lands on
    /// the third delivery.
    #[test]
    fn key_set_receive_consumes_one_fault_op_per_delivery() {
        use scalefbp_faults::{FaultEvent, FaultInjector, FaultPlan};
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 1,
            channel: Channel::Recv,
            op_index: 2,
            kind: FaultKind::RankFailure,
        }]);
        let (results, _) = World::run_with_faults(2, FaultInjector::new(plan), |mut c| {
            if c.rank() == 0 {
                for tag in 0..4 {
                    c.send(1, tag, vec![tag as u8]);
                }
                return Ok(vec![]);
            }
            let keys = [(0, 3), (0, 2), (0, 1), (0, 0)];
            let mut got = Vec::new();
            for _ in 0..3 {
                match c.recv_any(&keys, None) {
                    Ok((_, p)) => got.push(p[0]),
                    Err(e) => return Err((got, e)),
                }
            }
            Ok(got)
        });
        assert_eq!(results[1], Err((vec![0, 1], CommError::SelfFailed)));
    }

    #[test]
    fn reduce_sums_across_all_ranks() {
        for p in [1, 2, 3, 4, 7, 8] {
            let results = World::run(p, move |mut comm| {
                let r = comm.rank() as f32;
                let mut buf = vec![r, 2.0 * r, 100.0];
                comm.reduce_sum_f32(0, &mut buf);
                buf
            });
            let sum_r: f32 = (0..p).map(|r| r as f32).sum();
            assert_eq!(results[0][0], sum_r, "p={p}");
            assert_eq!(results[0][1], 2.0 * sum_r, "p={p}");
            assert_eq!(results[0][2], 100.0 * p as f32, "p={p}");
        }
    }

    #[test]
    fn reduce_to_nonzero_root() {
        let results = World::run(5, |mut comm| {
            let mut buf = vec![1.0f32];
            comm.reduce_sum_f32(3, &mut buf);
            (comm.rank(), buf[0])
        });
        assert_eq!(results[3].1, 5.0);
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..4 {
            let results = World::run(4, move |mut comm| {
                let mut data = if comm.rank() == root {
                    vec![42u8, root as u8]
                } else {
                    Vec::new()
                };
                comm.bcast(root, &mut data);
                data
            });
            for r in results {
                assert_eq!(r, vec![42, root as u8]);
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results = World::run(4, |mut comm| comm.gather(2, vec![comm.rank() as u8]));
        assert!(results[0].is_none());
        let at_root = results[2].clone().unwrap();
        assert_eq!(at_root, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn split_forms_independent_groups() {
        // 6 ranks, 2 groups of 3 (paper's grouping: color = rank / nr).
        let results = World::run(6, |mut comm| {
            let color = (comm.rank() / 3) as u64;
            let mut sub = comm.split(color, comm.rank() as i64).unwrap();
            let mut buf = vec![comm.rank() as f32];
            sub.reduce_sum_f32(0, &mut buf);
            (sub.rank(), sub.size(), buf[0])
        });
        // Group 0 = {0,1,2}: sum 3; group 1 = {3,4,5}: sum 12.
        assert_eq!(results[0], (0, 3, 3.0));
        assert_eq!(results[3], (0, 3, 12.0));
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.0, i % 3, "sub-rank of world rank {i}");
            assert_eq!(r.1, 3);
        }
    }

    #[test]
    fn split_orders_by_key() {
        let results = World::run(3, |mut comm| {
            // Reverse order keys: world rank 2 becomes sub-rank 0.
            let sub = comm.split(0, -(comm.rank() as i64)).unwrap();
            sub.rank()
        });
        assert_eq!(results, vec![2, 1, 0]);
    }

    #[test]
    fn nested_splits_do_not_interfere() {
        let results = World::run(4, |mut comm| {
            let mut a = comm.split((comm.rank() % 2) as u64, 0).unwrap();
            let mut b = comm.split((comm.rank() / 2) as u64, 0).unwrap();
            let mut x = vec![1.0f32];
            let mut y = vec![10.0f32];
            a.reduce_sum_f32(0, &mut x);
            b.reduce_sum_f32(0, &mut y);
            (a.rank() == 0, x[0], b.rank() == 0, y[0])
        });
        for r in &results {
            if r.0 {
                assert_eq!(r.1, 2.0);
            }
            if r.2 {
                assert_eq!(r.3, 20.0);
            }
        }
    }

    #[test]
    fn hierarchical_reduce_equals_flat() {
        for (p, rpn) in [(8, 4), (8, 2), (6, 3), (4, 1), (8, 8)] {
            let results = World::run(p, move |mut comm| {
                let mut buf = vec![comm.rank() as f32 + 1.0, 0.5];
                hierarchical_reduce_sum(&mut comm, 0, &mut buf, rpn).unwrap();
                buf
            });
            let expect: f32 = (0..p).map(|r| r as f32 + 1.0).sum();
            assert_eq!(results[0][0], expect, "p={p} rpn={rpn}");
            assert_eq!(results[0][1], 0.5 * p as f32, "p={p} rpn={rpn}");
        }
    }

    #[test]
    fn barrier_completes_for_many_ranks() {
        let results = World::run(9, |mut comm| {
            for _ in 0..5 {
                comm.barrier();
            }
            comm.rank()
        });
        assert_eq!(results.len(), 9);
    }

    /// Deterministic, association-sensitive per-rank test data.
    fn contribution(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 37 + rank * 101) % 89) as f32 * 0.173 - 7.5 + (rank as f32) * 1e-3)
            .collect()
    }

    /// The canonical left fold in ascending rank order — the ordering
    /// contract all three canonical collectives must reproduce bitwise.
    fn oracle_fold(p: usize, len: usize) -> Vec<f32> {
        let mut acc = contribution(0, len);
        for r in 1..p {
            for (a, b) in acc.iter_mut().zip(&contribution(r, len)) {
                *a += *b;
            }
        }
        acc
    }

    #[test]
    fn canonical_reduce_matches_rank_order_fold() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            for root in [0, p - 1] {
                let len = 23;
                let results = World::run(p, move |mut comm| {
                    let mut buf = contribution(comm.rank(), len);
                    comm.reduce_sum_f32_canonical(root, &mut buf).unwrap();
                    buf
                });
                let expect = oracle_fold(p, len);
                assert_eq!(
                    results[root]
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "p={p} root={root}"
                );
            }
        }
    }

    #[test]
    fn segmented_reduce_scatter_matches_canonical_fold() {
        for p in [1usize, 2, 3, 5, 8] {
            for (len, chunk) in [(40, 7), (17, 1), (9, 64)] {
                let results = World::run(p, move |mut comm| {
                    let counts: Vec<usize> = segment_partition(len, p)
                        .into_iter()
                        .map(|r| r.len())
                        .collect();
                    let buf = contribution(comm.rank(), len);
                    comm.segmented_reduce_scatter_f32(&buf, &counts, chunk)
                        .unwrap()
                });
                let expect = oracle_fold(p, len);
                let parts = segment_partition(len, p);
                for (rank, seg) in parts.iter().enumerate() {
                    assert_eq!(
                        results[rank]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        expect[seg.clone()]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        "p={p} len={len} chunk={chunk} rank={rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn hierarchical_canonical_matches_rank_order_fold() {
        for (p, rpn) in [(8, 4), (8, 2), (6, 3), (5, 2), (4, 1), (8, 8)] {
            let len = 19;
            let results = World::run(p, move |mut comm| {
                let mut buf = contribution(comm.rank(), len);
                hierarchical_reduce_sum_canonical(&mut comm, 0, &mut buf, rpn).unwrap();
                buf
            });
            let expect = oracle_fold(p, len);
            assert_eq!(
                results[0].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "p={p} rpn={rpn}"
            );
        }
    }

    #[test]
    fn back_to_back_segmented_calls_do_not_cross_talk() {
        let results = World::run(3, |mut comm| {
            let counts: Vec<usize> = segment_partition(30, 3).iter().map(|r| r.len()).collect();
            let a = contribution(comm.rank(), 30);
            let b: Vec<f32> = a.iter().map(|v| v * 2.0).collect();
            let ra = comm.segmented_reduce_scatter_f32(&a, &counts, 4).unwrap();
            let rb = comm.segmented_reduce_scatter_f32(&b, &counts, 4).unwrap();
            (ra, rb)
        });
        for (rank, (ra, rb)) in results.iter().enumerate() {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!((x * 2.0).to_bits(), y.to_bits(), "rank={rank}");
            }
        }
    }

    #[test]
    fn segmented_reduce_counts_owner_bytes() {
        let results = World::run(4, |mut comm| {
            let counts = vec![8usize, 8, 8, 8];
            let buf = contribution(comm.rank(), 32);
            comm.segmented_reduce_scatter_f32(&buf, &counts, 8).unwrap();
            let snap = comm.metrics().snapshot();
            snap.counter("mpisim.segreduce.owner.bytes", Some(comm.rank()))
                .unwrap_or(0)
        });
        // Ranks 0..2 receive their 8-element (32-byte) finished segment
        // from the tail rank; rank 3 keeps its segment locally.
        assert_eq!(results[0], 32);
        assert_eq!(results[1], 32);
        assert_eq!(results[2], 32);
        assert_eq!(results[3], 0);
    }

    #[test]
    fn segment_partition_is_disjoint_exhaustive_ordered() {
        for (len, parts) in [(0, 3), (1, 4), (10, 3), (16, 4), (33, 16)] {
            let segs = segment_partition(len, parts);
            assert_eq!(segs.len(), parts);
            assert_eq!(segs[0].start, 0);
            assert_eq!(segs[parts - 1].end, len);
            for w in segs.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous at {w:?}");
                assert!(w[0].len() >= w[1].len(), "front-loaded at {w:?}");
            }
            assert!(segs.iter().all(|s| s.len() <= len.div_ceil(parts)));
        }
    }

    #[test]
    fn network_stats_count_bytes() {
        let results = World::run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0u8; 100]);
            } else {
                let _ = comm.recv(0, 0);
            }
            comm.barrier();
            comm.network_stats()
        });
        assert!(results[0].bytes >= 100);
        assert!(results[0].messages >= 1);
    }
}
