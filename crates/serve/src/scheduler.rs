//! The deterministic multi-tenant job scheduler over the simulated
//! GPU fleet.
//!
//! The scheduler is a discrete-event simulation in integer-nanosecond
//! *model time*: arrivals, dispatches, completions, and device kills
//! are events; service durations come from the [`DeviceSpec`] cost
//! model (PCIe transfers + back-projection throughput), never from a
//! wall clock. Given the same workload, configuration, and fault plan,
//! a run therefore produces byte-identical schedules, logs, and metric
//! exports — while every job's *numerics* are computed for real, so
//! outputs are bitwise comparable against standalone
//! [`fdk_reconstruct_configured`] runs.
//!
//! Scheduling policy, in one paragraph: jobs are admitted against a
//! global memory-backlog budget and queued FIFO. Each device runs one
//! dispatch at a time. A dispatch is either a *batch* of consecutive
//! small in-core jobs (packed under the device's memory capacity to
//! amortise the per-dispatch overhead) or one *slice* of a long
//! out-of-core job (`slice_slabs` durable checkpoint commits, after
//! which the job is preempted and requeued — so a long job never
//! monopolises a device, and can migrate to a different device for its
//! next slice). Batch gathering may pass over a queued job only while
//! that job's wait is below the aging limit; an aged job blocks all
//! younger work (FIFO-with-aging), which bounds every job's wait.

use std::path::PathBuf;
use std::sync::Arc;

use scalefbp::{
    fdk_reconstruct_configured, BackendChoice, FdkConfig, OutOfCoreReconstructor,
    ReconstructionError, Schedule, StreamRun,
};
use scalefbp_faults::{crc32, NoFaults};
use scalefbp_geom::{CbctGeometry, Volume, VolumeDecomposition};
use scalefbp_gpusim::{Device, DeviceBuffer, DeviceSpec};
use scalefbp_iosim::StorageEndpoint;
use scalefbp_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};

use crate::fleetfaults::FleetFaultPlan;
use crate::job::{JobClass, JobSpec, RejectReason};
use crate::quantile::{histogram_quantile, LATENCY_BOUNDS_NANOS};

/// Bytes of the per-projection 3×4 f32 matrix table per projection.
const MATS_BYTES_PER_PROJ: u64 = 12 * 4;

/// Overrun margin before a dispatch's device is declared a straggler:
/// a dispatch still running at `start + margin × healthy_duration` is
/// evidence the device is degraded. 5/4 keeps detection well before a
/// ×2 slowdown completes while never firing on a healthy device (whose
/// dispatches finish exactly at 1× the healthy duration).
const STRAGGLER_MARGIN_NUM: u64 = 5;
const STRAGGLER_MARGIN_DEN: u64 = 4;

/// Converts simulated seconds to integer model-time nanoseconds.
fn nanos(secs: f64) -> u64 {
    debug_assert!(secs.is_finite() && secs >= 0.0);
    (secs * 1e9).round() as u64
}

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of fleet devices (all share one spec — required so a
    /// long job's checkpoint fingerprint stays valid across devices).
    pub devices: usize,
    /// The device spec of every fleet member.
    pub device: DeviceSpec,
    /// Global memory-backlog budget: the sum of working sets of all
    /// queued + running jobs may not exceed this. `None` defaults to
    /// `devices × device.memory_bytes`.
    pub memory_budget_bytes: Option<u64>,
    /// FIFO-with-aging limit: batch gathering may overtake a queued
    /// job only while `now - enqueue ≤ aging_nanos`.
    pub aging_nanos: u64,
    /// Maximum small jobs per batched dispatch.
    pub max_batch: usize,
    /// Fixed per-dispatch overhead (host setup + launch latency) in
    /// simulated seconds — the cost batching amortises.
    pub dispatch_overhead_secs: f64,
    /// Directory under which long jobs keep their checkpoint stores
    /// (one subdirectory per job).
    pub checkpoint_root: PathBuf,
    /// Keep every completed volume in the report (tests); benches
    /// leave this off and rely on the recorded CRCs.
    pub keep_volumes: bool,
    /// Fleet-level fault plan (device kills, slab corruption, compute
    /// slowdowns).
    pub faults: FleetFaultPlan,
    /// Hedge small-job batches stuck on a detected-slow device by
    /// duplicating them onto an idle healthy device (first completion
    /// wins; the duplicate is deduplicated). Inert without slowdowns in
    /// the fault plan — a healthy fleet never triggers detection.
    /// Disable for a wait-it-out baseline.
    pub hedging: bool,
    /// Cost model of each job's own device. Scheduling always uses the
    /// [`DeviceSpec`] cost model, so the schedule, logs and metric
    /// exports are identical on both backends, and so are the volumes
    /// (see `docs/backends.md`).
    pub backend: BackendChoice,
}

impl ServeConfig {
    /// A config with policy defaults: budget = fleet capacity, 50 ms
    /// aging, batches of up to 8, 5 ms dispatch overhead, no faults.
    pub fn new(devices: usize, device: DeviceSpec, checkpoint_root: impl Into<PathBuf>) -> Self {
        assert!(devices >= 1, "fleet must have at least one device");
        ServeConfig {
            devices,
            device,
            memory_budget_bytes: None,
            aging_nanos: 50_000_000,
            max_batch: 8,
            dispatch_overhead_secs: 0.005,
            checkpoint_root: checkpoint_root.into(),
            keep_volumes: false,
            faults: FleetFaultPlan::none(),
            hedging: true,
            backend: BackendChoice::default(),
        }
    }

    /// Overrides the global memory-backlog budget.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget_bytes = Some(bytes);
        self
    }

    /// Overrides the aging limit.
    pub fn with_aging_nanos(mut self, nanos: u64) -> Self {
        self.aging_nanos = nanos;
        self
    }

    /// Overrides the batch cap (1 disables batching).
    pub fn with_max_batch(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.max_batch = n;
        self
    }

    /// Keeps completed volumes in the report.
    pub fn keeping_volumes(mut self) -> Self {
        self.keep_volumes = true;
        self
    }

    /// Installs a fleet fault plan.
    pub fn with_faults(mut self, faults: FleetFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables or disables hedged dispatch (on by default; disabling
    /// gives the wait-it-out straggler baseline).
    pub fn with_hedging(mut self, hedging: bool) -> Self {
        self.hedging = hedging;
        self
    }

    /// Selects the cost model of each job's own device.
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// The effective global memory budget.
    pub fn budget_bytes(&self) -> u64 {
        self.memory_budget_bytes
            .unwrap_or(self.devices as u64 * self.device.memory_bytes)
    }
}

/// The reconstruction configuration the scheduler uses for `job` —
/// exposed so tests can reproduce any job standalone and compare
/// volumes bitwise.
pub fn job_config(cfg: &ServeConfig, job: &JobSpec) -> FdkConfig {
    let c = FdkConfig::new(job.geom.clone())
        .with_device(cfg.device.clone())
        .with_backend(cfg.backend);
    match job.class {
        JobClass::Small => c,
        JobClass::Long { nc, .. } => c.with_nc(nc),
    }
}

/// Analytic device cost of one small in-core job: move the projections
/// in, back-project every voxel against every projection, move the
/// volume out.
fn small_cost(g: &CbctGeometry) -> (u64, u64, u64) {
    let h2d = g.projection_bytes() as u64;
    let updates = (g.nx * g.ny * g.nz) as u64 * g.np as u64;
    let d2h = g.volume_bytes() as u64;
    (h2d, updates, d2h)
}

fn small_secs(spec: &DeviceSpec, g: &CbctGeometry) -> f64 {
    let (h2d, updates, d2h) = small_cost(g);
    spec.transfer_secs(h2d) + spec.backprojection_secs(updates) + spec.transfer_secs(d2h)
}

/// Per-slab analytic costs of a long job's out-of-core plan, mirroring
/// the serial schedule of `OutOfCoreReconstructor` exactly: the first
/// computed slab of a run loads its full row range, later slabs load
/// only the differential rows.
#[derive(Clone, Copy, Debug)]
struct TaskCost {
    full_rows_bytes: u64,
    new_rows_bytes: u64,
    updates: u64,
    slab_bytes: u64,
}

fn long_plan(cfg_job: &FdkConfig) -> Result<(Vec<TaskCost>, u64), ReconstructionError> {
    let rec = OutOfCoreReconstructor::new(cfg_job.clone())?;
    let g = &cfg_job.geometry;
    let decomp = VolumeDecomposition::full(g, rec.nb());
    let row_bytes = (g.np * g.nu * 4) as u64;
    let costs = decomp
        .tasks()
        .iter()
        .map(|t| TaskCost {
            full_rows_bytes: t.rows.len() as u64 * row_bytes,
            new_rows_bytes: t.new_rows.len() as u64 * row_bytes,
            updates: (g.nx * g.ny * t.nz()) as u64 * g.np as u64,
            slab_bytes: (g.nx * g.ny * t.nz() * 4) as u64,
        })
        .collect();
    let window_bytes = (rec.window_rows() * g.np * g.nu * 4) as u64;
    let slab_bytes = (g.nx * g.ny * rec.nb() * 4) as u64;
    let ws = window_bytes + slab_bytes + g.np as u64 * MATS_BYTES_PER_PROJ;
    Ok((costs, ws))
}

/// Simulated seconds of one slice covering tasks `[from, to)`.
fn slice_secs(spec: &DeviceSpec, costs: &[TaskCost], from: usize, to: usize) -> f64 {
    let mut secs = 0.0;
    for (i, c) in costs[from..to].iter().enumerate() {
        let rows = if i == 0 {
            c.full_rows_bytes
        } else {
            c.new_rows_bytes
        };
        if rows > 0 {
            secs += spec.transfer_secs(rows);
        }
        secs += spec.backprojection_secs(c.updates) + spec.transfer_secs(c.slab_bytes);
    }
    secs
}

/// Modelled device seconds of the whole job (all slices, plus one
/// dispatch overhead per slice) — the capacity-planning quantity load
/// generators use to pick arrival rates.
pub fn job_service_secs(cfg: &ServeConfig, job: &JobSpec) -> f64 {
    match job.class {
        JobClass::Small => cfg.dispatch_overhead_secs + small_secs(&cfg.device, &job.geom),
        JobClass::Long { slice_slabs, .. } => {
            let (costs, _) = long_plan(&job_config(cfg, job)).expect("long job plan");
            let mut secs = 0.0;
            let mut from = 0;
            while from < costs.len() {
                let to = (from + slice_slabs.max(1)).min(costs.len());
                secs += cfg.dispatch_overhead_secs + slice_secs(&cfg.device, &costs, from, to);
                from = to;
            }
            secs
        }
    }
}

/// A structured scheduler failure. These replace the panicking
/// `expect()`s that used to sit on the admission/dispatch path: a
/// degraded fleet (reservation pressure, a failing reconstruction, an
/// unwritable checkpoint store) now surfaces an error the caller can
/// handle instead of aborting the whole scheduler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// A device-memory reservation failed for work the admission check
    /// had already sized against capacity.
    Reservation {
        /// Fleet device the reservation was attempted on.
        device: usize,
        /// Job whose working set could not be reserved.
        job: usize,
        /// The underlying device error.
        detail: String,
    },
    /// An admitted job's reconstruction failed at completion time.
    Reconstruction {
        /// The failing job.
        job: usize,
        /// The underlying reconstruction error.
        detail: String,
    },
    /// A checkpoint-store filesystem operation failed.
    CheckpointIo {
        /// The job whose store was being touched.
        job: usize,
        /// What failed.
        detail: String,
    },
    /// An internal scheduling invariant broke (a bug, not a fault).
    Scheduling(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Reservation {
                device,
                job,
                detail,
            } => write!(
                f,
                "device {device} reservation for job {job} failed: {detail}"
            ),
            ServeError::Reconstruction { job, detail } => {
                write!(f, "reconstruction of job {job} failed: {detail}")
            }
            ServeError::CheckpointIo { job, detail } => {
                write!(f, "checkpoint I/O for job {job} failed: {detail}")
            }
            ServeError::Scheduling(msg) => write!(f, "scheduler invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A rejected admission.
#[derive(Clone, Debug)]
pub struct Rejection {
    /// Job id.
    pub id: usize,
    /// Owning tenant.
    pub tenant: usize,
    /// Arrival time.
    pub arrival_nanos: u64,
    /// Why.
    pub reason: RejectReason,
}

/// Completion record of one admitted job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Job id.
    pub id: usize,
    /// Owning tenant.
    pub tenant: usize,
    /// Class name (`small`/`long`).
    pub class: &'static str,
    /// Arrival time.
    pub arrival_nanos: u64,
    /// First dispatch time.
    pub first_start_nanos: u64,
    /// Completion time.
    pub finish_nanos: u64,
    /// Devices the job's dispatches ran on, in order (a long job that
    /// migrated lists more than one distinct device).
    pub devices: Vec<usize>,
    /// Slices executed (1 for small jobs).
    pub slices: usize,
    /// Times the job was requeued by a fault (kill or corruption).
    pub requeues: usize,
    /// Size of the batch the job completed in (1 if unbatched).
    pub batch_size: usize,
    /// Reserved working-set bytes.
    pub working_set_bytes: u64,
    /// CRC-32 of the output volume's f32 bit patterns.
    pub volume_crc: u32,
}

impl JobRecord {
    /// End-to-end latency (arrival → completion).
    pub fn latency_nanos(&self) -> u64 {
        self.finish_nanos - self.arrival_nanos
    }

    /// Whether the job ran on more than one distinct device.
    pub fn migrated(&self) -> bool {
        self.devices.windows(2).any(|w| w[0] != w[1])
    }
}

/// Outcome of one scheduler run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Completed jobs, in completion order.
    pub jobs: Vec<JobRecord>,
    /// Rejected admissions, in arrival order.
    pub rejections: Vec<Rejection>,
    /// Jobs left unrunnable (every fleet device dead), by id.
    pub stranded: Vec<usize>,
    /// The deterministic event log.
    pub log: Vec<String>,
    /// Model time of the last event.
    pub makespan_nanos: u64,
    /// Per-device busy nanoseconds (completed dispatches).
    pub device_busy_nanos: Vec<u64>,
    /// Per-device nanoseconds lost to killed dispatches.
    pub device_wasted_nanos: Vec<u64>,
    /// Per-device liveness at the end of the run.
    pub device_alive: Vec<bool>,
    /// Snapshot of the run's metrics registry.
    pub metrics: MetricsSnapshot,
    /// Completed volumes by job id (only with
    /// [`ServeConfig::keeping_volumes`]).
    pub volumes: Vec<(usize, Volume)>,
}

impl ServeReport {
    /// Busy share of `device` over the makespan, in `[0, 1]`.
    pub fn utilisation(&self, device: usize) -> f64 {
        if self.makespan_nanos == 0 {
            return 0.0;
        }
        self.device_busy_nanos[device] as f64 / self.makespan_nanos as f64
    }

    /// Mean utilisation across the fleet.
    pub fn mean_utilisation(&self) -> f64 {
        if self.device_busy_nanos.is_empty() {
            return 0.0;
        }
        (0..self.device_busy_nanos.len())
            .map(|d| self.utilisation(d))
            .sum::<f64>()
            / self.device_busy_nanos.len() as f64
    }

    /// Latency quantile from the run's histograms: global with
    /// `tenant = None`, per-tenant otherwise.
    pub fn latency_quantile_nanos(&self, q: f64, tenant: Option<usize>) -> Option<u64> {
        match tenant {
            None => histogram_quantile(&self.metrics, "serve.job.latency.nanos", None, q),
            Some(t) => histogram_quantile(&self.metrics, "serve.tenant.latency.nanos", Some(t), q),
        }
    }

    /// The canonical schedule export: a line-oriented text rendering of
    /// every completion, rejection, device tally, and event-log line.
    /// Two runs of the same seeded workload must produce byte-identical
    /// schedule text — the determinism contract the tests pin.
    pub fn schedule_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("scalefbp-serve schedule v1\n");
        for j in &self.jobs {
            let devices: Vec<String> = j.devices.iter().map(|d| d.to_string()).collect();
            let _ = writeln!(
                out,
                "job {} tenant {} class {} arrival {} start {} finish {} latency {} \
                 devices {} slices {} requeues {} batch {} ws {} crc {:08x}",
                j.id,
                j.tenant,
                j.class,
                j.arrival_nanos,
                j.first_start_nanos,
                j.finish_nanos,
                j.latency_nanos(),
                devices.join(","),
                j.slices,
                j.requeues,
                j.batch_size,
                j.working_set_bytes,
                j.volume_crc
            );
        }
        for r in &self.rejections {
            let _ = writeln!(
                out,
                "reject {} tenant {} arrival {} reason {}",
                r.id, r.tenant, r.arrival_nanos, r.reason
            );
        }
        for id in &self.stranded {
            let _ = writeln!(out, "stranded {id}");
        }
        for d in 0..self.device_busy_nanos.len() {
            let _ = writeln!(
                out,
                "device {d} busy {} wasted {} alive {}",
                self.device_busy_nanos[d], self.device_wasted_nanos[d], self.device_alive[d]
            );
        }
        let _ = writeln!(out, "makespan {}", self.makespan_nanos);
        for line in &self.log {
            let _ = writeln!(out, "event {line}");
        }
        out
    }
}

/// CRC-32 over the volume's f32 bit patterns (little-endian).
fn volume_crc(v: &Volume) -> u32 {
    let mut bytes = Vec::with_capacity(v.data().len() * 4);
    for x in v.data() {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    crc32(&bytes)
}

// ---------------------------------------------------------------------
// Internal engine state.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct JobState {
    spec: JobSpec,
    ws_bytes: u64,
    /// Long jobs: per-slab analytic costs; empty for small jobs.
    task_costs: Vec<TaskCost>,
    enqueue_nanos: u64,
    slabs_done: usize,
    slices_done: usize,
    requeues: usize,
    devices: Vec<usize>,
    first_start: Option<u64>,
    ckpt: Option<StorageEndpoint>,
    ckpt_dir: Option<PathBuf>,
}

impl JobState {
    fn total_slabs(&self) -> usize {
        self.task_costs.len()
    }

    fn slice_slabs(&self) -> usize {
        match self.spec.class {
            JobClass::Small => 0,
            JobClass::Long { slice_slabs, .. } => slice_slabs.max(1),
        }
    }
}

enum WorkKind {
    /// Consecutive small jobs packed into one dispatch.
    Batch(Vec<JobState>),
    /// One slice of a long job: slabs `[from, to)` of its plan. The
    /// state is boxed so a slice dispatch isn't as large as a whole
    /// batch of small-job states.
    Slice {
        job: Box<JobState>,
        from: usize,
        to: usize,
    },
}

struct Running {
    start_nanos: u64,
    finish_nanos: u64,
    /// Pending straggler-detection event: `Some(t)` when the dispatch
    /// runs degraded and the overrun becomes observable at `t` (the
    /// healthy completion time plus margin); cleared once processed.
    detect_nanos: Option<u64>,
    /// The overrun was confirmed: the dispatch outlived its healthy
    /// model estimate, so it is eligible for hedging.
    overrun: bool,
    /// A hedge duplicate has been issued for this dispatch.
    hedged: bool,
    /// This dispatch *is* a hedge duplicate.
    is_hedge: bool,
    kind: WorkKind,
    /// RAII memory reservations on the fleet device.
    _reservations: Vec<DeviceBuffer>,
}

impl Running {
    fn job_ids(&self) -> Vec<usize> {
        match &self.kind {
            WorkKind::Batch(jobs) => jobs.iter().map(|j| j.spec.id).collect(),
            WorkKind::Slice { job, .. } => vec![job.spec.id],
        }
    }
}

struct FleetDevice {
    device: Device,
    alive: bool,
    kill_at: Option<u64>,
    /// Set once a dispatch on this device overran its healthy model
    /// estimate: the device is treated as degraded from then on —
    /// dispatch placement deprioritises it (so requeued checkpoint
    /// slices migrate off) and its small batches become hedgeable.
    detected_slow: bool,
}

struct Tallies {
    submitted: Counter,
    admitted: Counter,
    rejected: Counter,
    completed: Counter,
    batches: Counter,
    batch_jobs: Counter,
    preemptions: Counter,
    migrations: Counter,
    requeues: Counter,
    device_kills: Counter,
    corruptions: Counter,
    stragglers: Counter,
    hedges_issued: Counter,
    hedges_won: Counter,
    hedges_wasted: Counter,
    queue_peak: Gauge,
    latency: Histogram,
    wait: Histogram,
}

/// The scheduler. Construct with a config and a metrics registry, then
/// [`run`](Scheduler::run) one workload to completion.
pub struct Scheduler {
    cfg: ServeConfig,
    registry: MetricsRegistry,
}

impl Scheduler {
    /// Creates a scheduler reporting into `registry`.
    pub fn new(cfg: ServeConfig, registry: MetricsRegistry) -> Self {
        Scheduler { cfg, registry }
    }

    /// The registry this scheduler reports into.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Runs `jobs` (any order; sorted by arrival internally) to
    /// completion and returns the report, or the structured error that
    /// stopped the run (a failed reservation, reconstruction, or
    /// checkpoint I/O — see [`ServeError`]).
    pub fn run(&self, jobs: Vec<JobSpec>) -> Result<ServeReport, ServeError> {
        let mut engine = Engine::new(&self.cfg, self.registry.clone());
        engine.run(jobs)
    }
}

struct Engine<'a> {
    cfg: &'a ServeConfig,
    registry: MetricsRegistry,
    devices: Vec<FleetDevice>,
    running: Vec<Option<Running>>,
    queue: Vec<JobState>,
    outstanding_bytes: u64,
    now: u64,
    makespan: u64,
    busy: Vec<u64>,
    wasted: Vec<u64>,
    tallies: Tallies,
    jobs_out: Vec<JobRecord>,
    rejections: Vec<Rejection>,
    volumes: Vec<(usize, Volume)>,
    log: Vec<String>,
    /// Corruption plan entries already applied, as `(job, after_slices)`
    /// pairs. Each planned corruption fires exactly once: after the
    /// wiped job restarts from scratch it passes the same slice count
    /// again, and re-corrupting would loop the job forever.
    corruptions_applied: std::collections::HashSet<(usize, usize)>,
    /// Jobs whose numerics have completed — the hedging dedup set: a
    /// duplicate dispatch arriving second finds its jobs here and is
    /// discarded (its time counts as wasted, never its results twice).
    completed_ids: std::collections::HashSet<usize>,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a ServeConfig, registry: MetricsRegistry) -> Self {
        let devices: Vec<FleetDevice> = (0..cfg.devices)
            .map(|d| FleetDevice {
                device: Device::with_observability(
                    cfg.device.clone(),
                    Arc::new(NoFaults),
                    d,
                    registry.clone(),
                ),
                alive: true,
                kill_at: cfg.faults.kill_time(d),
                detected_slow: false,
            })
            .collect();
        let tallies = Tallies {
            submitted: registry.counter("serve.jobs.submitted"),
            admitted: registry.counter("serve.jobs.admitted"),
            rejected: registry.counter("serve.jobs.rejected"),
            completed: registry.counter("serve.jobs.completed"),
            batches: registry.counter("serve.batches"),
            batch_jobs: registry.counter("serve.batch.jobs"),
            preemptions: registry.counter("serve.preemptions"),
            migrations: registry.counter("serve.migrations"),
            requeues: registry.counter("serve.requeues"),
            device_kills: registry.counter("serve.device.kills"),
            corruptions: registry.counter("serve.checkpoint.corruptions"),
            stragglers: registry.counter("serve.stragglers"),
            hedges_issued: registry.counter("serve.hedges.issued"),
            hedges_won: registry.counter("serve.hedges.won"),
            hedges_wasted: registry.counter("serve.hedges.wasted"),
            queue_peak: registry.gauge("serve.queue.depth.peak"),
            latency: registry.histogram("serve.job.latency.nanos", &LATENCY_BOUNDS_NANOS),
            wait: registry.histogram("serve.queue.wait.nanos", &LATENCY_BOUNDS_NANOS),
        };
        Engine {
            running: (0..cfg.devices).map(|_| None).collect(),
            busy: vec![0; cfg.devices],
            wasted: vec![0; cfg.devices],
            devices,
            cfg,
            registry,
            queue: Vec::new(),
            outstanding_bytes: 0,
            now: 0,
            makespan: 0,
            tallies,
            jobs_out: Vec::new(),
            rejections: Vec::new(),
            volumes: Vec::new(),
            log: Vec::new(),
            corruptions_applied: std::collections::HashSet::new(),
            completed_ids: std::collections::HashSet::new(),
        }
    }

    fn run(&mut self, mut jobs: Vec<JobSpec>) -> Result<ServeReport, ServeError> {
        jobs.sort_by_key(|j| (j.arrival_nanos, j.id));
        let mut arrivals = jobs.into_iter().peekable();

        loop {
            // Next event: the earliest of (a) the next arrival, (b) a
            // running dispatch finishing, (c) a running dispatch's
            // device being killed mid-flight, (d) a straggling dispatch
            // overrunning its healthy model estimate.
            let next_arrival = arrivals.peek().map(|j| j.arrival_nanos);
            let next_device = (0..self.devices.len())
                .filter_map(|d| self.device_event_nanos(d))
                .min();
            let t = match (next_arrival, next_device) {
                (None, None) => break,
                (a, b) => a.into_iter().chain(b).min().unwrap(),
            };
            self.now = t;
            self.makespan = self.makespan.max(t);

            // Device kills and completions first (capacity frees up
            // before same-instant arrivals are admitted), ascending
            // device index; a kill at the same instant as a completion
            // wins — the crash happened before the result was read.
            // Straggler detections come after both: an overrun is only
            // meaningful on a dispatch that is still in flight.
            for d in 0..self.devices.len() {
                if self.running[d].is_some() {
                    let kill = self.pending_kill(d);
                    if kill == Some(t) {
                        self.kill_device(d, t);
                    } else if self.running[d].as_ref().unwrap().finish_nanos == t {
                        self.complete(d)?;
                    } else if self.running[d].as_ref().unwrap().detect_nanos == Some(t) {
                        self.detect_straggler(d, t);
                    }
                }
            }
            // Idle devices whose kill time has passed die too.
            for d in 0..self.devices.len() {
                if self.devices[d].alive && self.devices[d].kill_at.is_some_and(|k| k <= t) {
                    let k = self.devices[d].kill_at.unwrap();
                    self.mark_dead(d, k);
                }
            }
            while arrivals.peek().is_some_and(|j| j.arrival_nanos == t) {
                let job = arrivals.next().unwrap();
                self.admit(job);
            }
            self.dispatch()?;
        }

        let stranded: Vec<usize> = self.queue.iter().map(|j| j.spec.id).collect();
        for id in &stranded {
            self.push_log(format!("t={} job {id} stranded: no device alive", self.now));
        }

        Ok(ServeReport {
            jobs: std::mem::take(&mut self.jobs_out),
            rejections: std::mem::take(&mut self.rejections),
            stranded,
            log: std::mem::take(&mut self.log),
            makespan_nanos: self.makespan,
            device_busy_nanos: self.busy.clone(),
            device_wasted_nanos: self.wasted.clone(),
            device_alive: self.devices.iter().map(|d| d.alive).collect(),
            metrics: self.registry.snapshot(),
            volumes: std::mem::take(&mut self.volumes),
        })
    }

    /// The model time of the next event on device `d`, if it is busy:
    /// its dispatch completion or pending straggler detection, cut
    /// short by a pending kill.
    fn device_event_nanos(&self, d: usize) -> Option<u64> {
        let r = self.running[d].as_ref()?;
        let next = r
            .detect_nanos
            .map_or(r.finish_nanos, |t| t.min(r.finish_nanos));
        Some(match self.pending_kill(d) {
            Some(k) if k <= next => k,
            _ => next,
        })
    }

    fn pending_kill(&self, d: usize) -> Option<u64> {
        if !self.devices[d].alive {
            return None;
        }
        self.devices[d].kill_at
    }

    fn push_log(&mut self, line: String) {
        self.log.push(line);
    }

    // -- admission ----------------------------------------------------

    fn admit(&mut self, spec: JobSpec) {
        self.tallies.submitted.inc();
        let planned = match spec.class {
            JobClass::Small => {
                let g = &spec.geom;
                let ws = (g.projection_bytes() + g.volume_bytes()) as u64
                    + g.np as u64 * MATS_BYTES_PER_PROJ;
                if ws > self.cfg.device.memory_bytes {
                    Err(RejectReason::Unschedulable(format!(
                        "working set {ws} exceeds device memory {}",
                        self.cfg.device.memory_bytes
                    )))
                } else {
                    Ok((Vec::new(), ws))
                }
            }
            JobClass::Long { .. } => long_plan(&job_config(self.cfg, &spec))
                .map_err(|e| RejectReason::Unschedulable(e.to_string())),
        };
        let (task_costs, ws) = match planned {
            Ok(p) => p,
            Err(reason) => return self.reject(spec, reason),
        };
        let available = self
            .cfg
            .budget_bytes()
            .saturating_sub(self.outstanding_bytes);
        if ws > available {
            return self.reject(
                spec,
                RejectReason::MemoryBudget {
                    requested: ws,
                    available,
                },
            );
        }
        self.outstanding_bytes += ws;
        self.tallies.admitted.inc();
        self.push_log(format!(
            "t={} job {} tenant {} class {} admitted ws={ws}",
            self.now,
            spec.id,
            spec.tenant,
            spec.class.name()
        ));
        self.enqueue(JobState {
            spec,
            ws_bytes: ws,
            task_costs,
            enqueue_nanos: self.now,
            slabs_done: 0,
            slices_done: 0,
            requeues: 0,
            devices: Vec::new(),
            first_start: None,
            ckpt: None,
            ckpt_dir: None,
        });
    }

    fn reject(&mut self, spec: JobSpec, reason: RejectReason) {
        self.tallies.rejected.inc();
        self.registry
            .rank_counter("serve.tenant.jobs.rejected", spec.tenant)
            .inc();
        self.push_log(format!(
            "t={} job {} tenant {} rejected: {reason}",
            self.now, spec.id, spec.tenant
        ));
        self.rejections.push(Rejection {
            id: spec.id,
            tenant: spec.tenant,
            arrival_nanos: spec.arrival_nanos,
            reason,
        });
    }

    fn enqueue(&mut self, job: JobState) {
        self.queue.push(job);
        self.tallies.queue_peak.raise(self.queue.len() as f64);
    }

    // -- dispatch -----------------------------------------------------

    fn device_ready(&self, d: usize) -> bool {
        self.devices[d].alive
            && self.running[d].is_none()
            && self.devices[d].kill_at.is_none_or(|k| self.now < k)
    }

    /// The next device to place work on: healthy devices first, so
    /// requeued checkpoint slices and fresh batches migrate *off* a
    /// detected-slow device whenever a full-rate one is free.
    fn idle_device(&self) -> Option<usize> {
        (0..self.devices.len())
            .find(|&d| self.device_ready(d) && !self.devices[d].detected_slow)
            .or_else(|| (0..self.devices.len()).find(|&d| self.device_ready(d)))
    }

    fn dispatch(&mut self) -> Result<(), ServeError> {
        while let Some(d) = self.idle_device() {
            if self.queue.is_empty() {
                break;
            }
            match self.queue[0].spec.class {
                JobClass::Small => self.start_batch(d)?,
                JobClass::Long { .. } => self.start_slice(d)?,
            }
        }
        if self.cfg.hedging {
            self.issue_hedges();
        }
        Ok(())
    }

    /// Hedged dispatch: a small-job batch stuck on a detected-slow
    /// device — its overrun confirmed and at least one of its jobs past
    /// the aging limit — is duplicated onto an idle healthy device.
    /// First completion wins; the loser is deduplicated by job id and
    /// its span counted as wasted. Long-job slices are never hedged:
    /// two dispatches of the same slice would race on the one
    /// checkpoint store.
    fn issue_hedges(&mut self) {
        loop {
            let Some(target) = (0..self.devices.len())
                .find(|&d| self.device_ready(d) && !self.devices[d].detected_slow)
            else {
                return;
            };
            let aged =
                |j: &JobState| self.now.saturating_sub(j.enqueue_nanos) > self.cfg.aging_nanos;
            let Some(src) = (0..self.devices.len()).find(|&d| {
                self.devices[d].detected_slow
                    && self.running[d].as_ref().is_some_and(|r| {
                        r.overrun
                            && !r.hedged
                            && !r.is_hedge
                            && match &r.kind {
                                WorkKind::Batch(jobs) => jobs.iter().any(aged),
                                WorkKind::Slice { .. } => false,
                            }
                    })
            }) else {
                return;
            };
            let mut hedge_jobs: Vec<JobState> = match &self.running[src].as_ref().unwrap().kind {
                WorkKind::Batch(jobs) => jobs.clone(),
                WorkKind::Slice { .. } => return,
            };
            let mut reservations = Vec::with_capacity(hedge_jobs.len());
            for job in &hedge_jobs {
                match self.devices[target].device.alloc(job.ws_bytes) {
                    Ok(buf) => reservations.push(buf),
                    // Hedging is opportunistic: a target without room
                    // simply declines, the original keeps running.
                    Err(_) => return,
                }
            }
            let mut secs = self.cfg.dispatch_overhead_secs;
            for job in &mut hedge_jobs {
                secs += small_secs(&self.cfg.device, &job.spec.geom);
                job.devices.push(target);
            }
            self.running[src].as_mut().unwrap().hedged = true;
            self.tallies.hedges_issued.inc();
            let ids: Vec<String> = hedge_jobs.iter().map(|j| j.spec.id.to_string()).collect();
            let kind = WorkKind::Batch(hedge_jobs);
            let finish = self.launch(target, secs, true, kind, reservations);
            self.push_log(format!(
                "t={} hedge dev {src} -> dev {target} batch [{}] finish {finish}",
                self.now,
                ids.join(",")
            ));
        }
    }

    /// Gathers a batch for device `d`: consecutive queued small jobs
    /// under the device's capacity, up to `max_batch`. Gathering may
    /// pass over a job (a long job, or a small one that no longer
    /// fits) only while that job's wait is within the aging limit;
    /// an aged job is a barrier — nothing younger may overtake it.
    fn start_batch(&mut self, d: usize) -> Result<(), ServeError> {
        let mut picked: Vec<usize> = Vec::new();
        let mut free = self.cfg.device.memory_bytes;
        for (qi, job) in self.queue.iter().enumerate() {
            if picked.len() >= self.cfg.max_batch {
                break;
            }
            if job.spec.class == JobClass::Small && job.ws_bytes <= free {
                free -= job.ws_bytes;
                picked.push(qi);
            } else if self.now.saturating_sub(job.enqueue_nanos) > self.cfg.aging_nanos {
                break;
            }
        }
        debug_assert!(!picked.is_empty(), "queue head must be dispatchable");

        let mut batch: Vec<JobState> = Vec::with_capacity(picked.len());
        for qi in picked.into_iter().rev() {
            batch.push(self.queue.remove(qi));
        }
        batch.reverse();

        let mut reservations = Vec::with_capacity(batch.len());
        let mut secs = self.cfg.dispatch_overhead_secs;
        for job in &mut batch {
            let buf = self.devices[d].device.alloc(job.ws_bytes).map_err(|e| {
                ServeError::Reservation {
                    device: d,
                    job: job.spec.id,
                    detail: e.to_string(),
                }
            })?;
            reservations.push(buf);
            secs += small_secs(&self.cfg.device, &job.spec.geom);
            job.first_start.get_or_insert(self.now);
            job.devices.push(d);
        }
        self.tallies.batches.inc();
        self.tallies.batch_jobs.add(batch.len() as u64);
        let ids: Vec<String> = batch.iter().map(|j| j.spec.id.to_string()).collect();
        let finish = self.launch(d, secs, false, WorkKind::Batch(batch), reservations);
        self.push_log(format!(
            "t={} dispatch dev {d} batch [{}] finish {finish}",
            self.now,
            ids.join(",")
        ));
        Ok(())
    }

    /// The completion and straggler-detection times of a dispatch of
    /// healthy duration `secs` started now on device `d`. Under a
    /// fault-plan slowdown the dispatch takes `factor ×` its healthy
    /// duration, and the overrun becomes observable at the healthy
    /// finish time plus margin; at factor 1 the duration is bit-exact
    /// (`secs * 1.0` is the identity) and no detection event exists, so
    /// a fault-free run's schedule is byte-identical to before.
    fn dispatch_window(&self, d: usize, secs: f64) -> (u64, Option<u64>) {
        let factor = self.cfg.faults.slow_factor_at(d, self.now);
        let finish = self.now + nanos(secs * factor as f64);
        let detect = (factor > 1)
            .then(|| self.now + nanos(secs) * STRAGGLER_MARGIN_NUM / STRAGGLER_MARGIN_DEN);
        (finish, detect)
    }

    /// Starts `kind` on device `d` now, holding `reservations`, for its
    /// [`dispatch_window`](Self::dispatch_window) of healthy duration
    /// `secs`. A hedge duplicate counts as hedged from the start, so it
    /// is never hedged in turn. Returns the finish time.
    fn launch(
        &mut self,
        d: usize,
        secs: f64,
        is_hedge: bool,
        kind: WorkKind,
        reservations: Vec<DeviceBuffer>,
    ) -> u64 {
        let (finish, detect) = self.dispatch_window(d, secs);
        self.running[d] = Some(Running {
            start_nanos: self.now,
            finish_nanos: finish,
            detect_nanos: detect,
            overrun: false,
            hedged: is_hedge,
            is_hedge,
            kind,
            _reservations: reservations,
        });
        finish
    }

    /// Dispatches the next slice of the long job at the queue head.
    fn start_slice(&mut self, d: usize) -> Result<(), ServeError> {
        let mut job = self.queue.remove(0);
        let from = job.slabs_done;
        let to = (from + job.slice_slabs()).min(job.total_slabs());
        let secs = self.cfg.dispatch_overhead_secs
            + slice_secs(&self.cfg.device, &job.task_costs, from, to);
        let reservation =
            self.devices[d]
                .device
                .alloc(job.ws_bytes)
                .map_err(|e| ServeError::Reservation {
                    device: d,
                    job: job.spec.id,
                    detail: e.to_string(),
                })?;
        if let Some(&prev) = job.devices.last() {
            if prev != d {
                self.tallies.migrations.inc();
                self.push_log(format!(
                    "t={} job {} migrated dev {prev} -> dev {d} (resume from slab {from})",
                    self.now, job.spec.id
                ));
            }
        }
        job.first_start.get_or_insert(self.now);
        job.devices.push(d);
        let id = job.spec.id;
        let kind = WorkKind::Slice {
            job: Box::new(job),
            from,
            to,
        };
        let finish = self.launch(d, secs, false, kind, vec![reservation]);
        self.push_log(format!(
            "t={} dispatch dev {d} job {id} slice slabs {from}..{to} finish {finish}",
            self.now
        ));
        Ok(())
    }

    // -- events -------------------------------------------------------

    /// A dispatch on device `d` has outlived its healthy model estimate
    /// by the detection margin: mark the dispatch overrun (making it
    /// hedgeable) and the device detected-slow (deprioritising it for
    /// future placement).
    fn detect_straggler(&mut self, d: usize, t: u64) {
        if let Some(r) = self.running[d].as_mut() {
            r.detect_nanos = None;
            r.overrun = true;
        }
        if !self.devices[d].detected_slow {
            self.devices[d].detected_slow = true;
            self.tallies.stragglers.inc();
        }
        self.push_log(format!(
            "t={t} device {d} straggler detected (dispatch overran healthy estimate)"
        ));
    }

    fn mark_dead(&mut self, d: usize, at: u64) {
        self.devices[d].alive = false;
        self.tallies.device_kills.inc();
        self.push_log(format!("t={at} device {d} killed"));
    }

    /// An injected kill hits device `d` at time `t` while a dispatch is
    /// in flight: the dispatch is lost (nothing was committed — slices
    /// commit only at completion) and every job on it is requeued.
    fn kill_device(&mut self, d: usize, t: u64) {
        let r = self.running[d].take().expect("kill of a busy device");
        self.wasted[d] += t - r.start_nanos;
        self.registry
            .rank_counter("serve.device.wasted.nanos", d)
            .add(t - r.start_nanos);
        self.mark_dead(d, t);
        let jobs = match r.kind {
            WorkKind::Batch(jobs) => jobs,
            WorkKind::Slice { job, .. } => vec![*job],
        };
        for mut job in jobs {
            let id = job.spec.id;
            // A job covered by a hedge twin — already completed, or
            // still running as a duplicate dispatch elsewhere — is not
            // requeued: the twin delivers (or delivered) its result.
            if self.completed_ids.contains(&id) {
                self.push_log(format!(
                    "t={t} job {id} duplicate lost with device {d} (already complete)"
                ));
                continue;
            }
            let twin_running = (0..self.running.len()).any(|o| {
                o != d
                    && self.running[o]
                        .as_ref()
                        .is_some_and(|r| r.job_ids().contains(&id))
            });
            if twin_running {
                self.push_log(format!(
                    "t={t} job {id} not requeued (twin dispatch still in flight)"
                ));
                continue;
            }
            job.requeues += 1;
            job.enqueue_nanos = t;
            self.tallies.requeues.inc();
            self.push_log(format!(
                "t={t} job {} requeued (device {d} died; resume from slab {})",
                job.spec.id, job.slabs_done
            ));
            self.enqueue(job);
        }
    }

    /// A dispatch completes: now the real numerics run. Deferring the
    /// computation to the completion event keeps killed dispatches
    /// side-effect-free, so the checkpoint state on disk always equals
    /// what the model says was durably committed.
    fn complete(&mut self, d: usize) -> Result<(), ServeError> {
        let r = self.running[d]
            .take()
            .ok_or_else(|| ServeError::Scheduling(format!("completion on idle device {d}")))?;
        let span = r.finish_nanos - r.start_nanos;
        match r.kind {
            WorkKind::Batch(jobs) => {
                let batch_size = jobs.len();
                // Hedging dedup: jobs already delivered by a twin
                // dispatch are dropped here — first completion won.
                let fresh: Vec<JobState> = jobs
                    .into_iter()
                    .filter(|j| !self.completed_ids.contains(&j.spec.id))
                    .collect();
                if fresh.is_empty() {
                    self.wasted[d] += span;
                    self.registry
                        .rank_counter("serve.device.wasted.nanos", d)
                        .add(span);
                    self.tallies.hedges_wasted.inc();
                    self.push_log(format!(
                        "t={} dev {d} duplicate batch discarded (twin won)",
                        self.now
                    ));
                    return Ok(());
                }
                self.busy[d] += span;
                self.registry
                    .rank_counter("serve.device.busy.nanos", d)
                    .add(span);
                if r.is_hedge {
                    self.tallies.hedges_won.inc();
                    self.push_log(format!("t={} dev {d} hedge won", self.now));
                }
                for job in fresh {
                    self.completed_ids.insert(job.spec.id);
                    let cfg_job = job_config(self.cfg, &job.spec);
                    let volume = fdk_reconstruct_configured(&cfg_job, &job.spec.projections, None)
                        .map_err(|e| ServeError::Reconstruction {
                            job: job.spec.id,
                            detail: e.to_string(),
                        })?;
                    self.mirror_small(d, &job.spec.geom);
                    self.finish_job(job, d, batch_size, 1, volume);
                }
            }
            WorkKind::Slice { job, from, to } => {
                self.busy[d] += span;
                self.registry
                    .rank_counter("serve.device.busy.nanos", d)
                    .add(span);
                self.complete_slice(d, *job, from, to)?;
            }
        }
        Ok(())
    }

    /// Mirrors a small job's traffic onto the fleet device so the
    /// per-device `gpu.*` metrics reflect scheduled work. Fleet devices
    /// inject no faults, so the mirrored transfers never fail.
    fn mirror_small(&self, d: usize, g: &CbctGeometry) {
        let (h2d, updates, d2h) = small_cost(g);
        let dev = &self.devices[d].device;
        let _ = dev.h2d(h2d);
        let _ = dev.launch_backprojection(updates);
        let _ = dev.d2h(d2h);
    }

    fn complete_slice(
        &mut self,
        d: usize,
        mut job: JobState,
        from: usize,
        to: usize,
    ) -> Result<(), ServeError> {
        let is_final = to == job.total_slabs();
        self.ensure_ckpt(&mut job)?;
        let endpoint = job.ckpt.clone().ok_or_else(|| {
            ServeError::Scheduling(format!("job {} has no checkpoint endpoint", job.spec.id))
        })?;
        let cfg_job = job_config(self.cfg, &job.spec);
        let rec = OutOfCoreReconstructor::new(cfg_job).map_err(|e| ServeError::Reconstruction {
            job: job.spec.id,
            detail: e.to_string(),
        })?;
        let mut spec = scalefbp::CheckpointSpec::new("ck", 1);
        if from > 0 {
            spec = spec.resuming();
        }
        if !is_final {
            spec = spec.killing_after(to - from);
        }

        // Mirror the slice's modelled traffic onto the fleet device.
        {
            let dev = &self.devices[d].device;
            let mut h2d = 0u64;
            let mut updates = 0u64;
            let mut d2h = 0u64;
            for (i, c) in job.task_costs[from..to].iter().enumerate() {
                h2d += if i == 0 {
                    c.full_rows_bytes
                } else {
                    c.new_rows_bytes
                };
                updates += c.updates;
                d2h += c.slab_bytes;
            }
            if h2d > 0 {
                let _ = dev.h2d(h2d);
            }
            let _ = dev.launch_backprojection(updates);
            let _ = dev.d2h(d2h);
        }

        match rec.reconstruct(
            &job.spec.projections,
            StreamRun {
                checkpoint: Some((&endpoint, &spec)),
                ..Schedule::Serial.into()
            },
        ) {
            Err(ReconstructionError::Interrupted { completed_slabs }) if !is_final => {
                debug_assert_eq!(completed_slabs, to - from);
                job.slabs_done = to;
                job.slices_done += 1;
                self.tallies.preemptions.inc();
                self.push_log(format!(
                    "t={} job {} preempted after slab {to}/{} (slice {} done on dev {d})",
                    self.now,
                    job.spec.id,
                    job.total_slabs(),
                    job.slices_done
                ));
                self.maybe_corrupt(&mut job)?;
                job.enqueue_nanos = self.now;
                self.enqueue(job);
            }
            Ok((volume, _report)) if is_final => {
                job.slabs_done = to;
                job.slices_done += 1;
                let slices = job.slices_done;
                self.completed_ids.insert(job.spec.id);
                self.finish_job(job, d, 1, slices, volume);
            }
            Err(e) => {
                // A corrupted (or otherwise unreadable) checkpoint was
                // detected by the CRC seal on resume. Nothing of this
                // slice committed; wipe the store and restart the job
                // from scratch — the recomputed volume is bitwise
                // identical, only later.
                self.tallies.corruptions.inc();
                self.tallies.requeues.inc();
                self.push_log(format!(
                    "t={} job {} checkpoint unreadable on resume ({}); restarting from scratch",
                    self.now,
                    job.spec.id,
                    short_error(&e)
                ));
                if let Some(dir) = &job.ckpt_dir {
                    let _ = std::fs::remove_dir_all(dir);
                    std::fs::create_dir_all(dir).map_err(|e| ServeError::CheckpointIo {
                        job: job.spec.id,
                        detail: format!("recreate {}: {e}", dir.display()),
                    })?;
                }
                job.ckpt = job
                    .ckpt_dir
                    .clone()
                    .map(|dir| StorageEndpoint::local_nvme(Some(dir)));
                job.slabs_done = 0;
                job.slices_done = 0;
                job.requeues += 1;
                job.enqueue_nanos = self.now;
                self.enqueue(job);
            }
            Ok(_) => {
                // (Interrupted on a final slice cannot happen: no kill
                // switch is installed there.)
                return Err(ServeError::Scheduling(format!(
                    "non-final slice of job {} completed without interrupting",
                    job.spec.id
                )));
            }
        }
        Ok(())
    }

    fn ensure_ckpt(&mut self, job: &mut JobState) -> Result<(), ServeError> {
        if job.ckpt.is_some() {
            return Ok(());
        }
        let dir = self
            .cfg
            .checkpoint_root
            .join(format!("job-{:04}", job.spec.id));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| ServeError::CheckpointIo {
            job: job.spec.id,
            detail: format!("create {}: {e}", dir.display()),
        })?;
        job.ckpt = Some(StorageEndpoint::local_nvme(Some(dir.clone())));
        job.ckpt_dir = Some(dir);
        Ok(())
    }

    /// Applies a planned corruption fault: flip one byte of the first
    /// committed slab file after the job's `slices_done`-th slice.
    fn maybe_corrupt(&mut self, job: &mut JobState) -> Result<(), ServeError> {
        if !self.cfg.faults.corrupts(job.spec.id, job.slices_done)
            || !self
                .corruptions_applied
                .insert((job.spec.id, job.slices_done))
        {
            return Ok(());
        }
        let Some(dir) = &job.ckpt_dir else {
            return Ok(());
        };
        let mut slabs: Vec<PathBuf> = Vec::new();
        collect_slab_files(dir, &mut slabs);
        slabs.sort();
        let Some(path) = slabs.first() else {
            return Ok(());
        };
        let mut bytes = std::fs::read(path).map_err(|e| ServeError::CheckpointIo {
            job: job.spec.id,
            detail: format!("read {}: {e}", path.display()),
        })?;
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(path, &bytes).map_err(|e| ServeError::CheckpointIo {
            job: job.spec.id,
            detail: format!("write {}: {e}", path.display()),
        })?;
        self.push_log(format!(
            "t={} job {} fault: slab file corrupted after slice {}",
            self.now, job.spec.id, job.slices_done
        ));
        Ok(())
    }

    fn finish_job(
        &mut self,
        job: JobState,
        _device: usize,
        batch_size: usize,
        slices: usize,
        volume: Volume,
    ) {
        let finish = self.now;
        let arrival = job.spec.arrival_nanos;
        let first_start = job.first_start.expect("completed job was dispatched");
        let latency = finish - arrival;
        self.tallies.completed.inc();
        self.tallies.latency.observe(latency);
        self.tallies.wait.observe(first_start - arrival);
        self.registry
            .rank_counter("serve.tenant.jobs.completed", job.spec.tenant)
            .inc();
        self.registry
            .rank_histogram(
                "serve.tenant.latency.nanos",
                job.spec.tenant,
                &LATENCY_BOUNDS_NANOS,
            )
            .observe(latency);
        self.outstanding_bytes -= job.ws_bytes;
        let crc = volume_crc(&volume);
        self.push_log(format!(
            "t={finish} job {} tenant {} done latency {latency} crc {crc:08x}",
            job.spec.id, job.spec.tenant
        ));
        self.jobs_out.push(JobRecord {
            id: job.spec.id,
            tenant: job.spec.tenant,
            class: job.spec.class.name(),
            arrival_nanos: arrival,
            first_start_nanos: first_start,
            finish_nanos: finish,
            devices: job.devices,
            slices,
            requeues: job.requeues,
            batch_size,
            working_set_bytes: job.ws_bytes,
            volume_crc: crc,
        });
        if self.cfg.keep_volumes {
            self.volumes.push((job.spec.id, volume));
        }
    }
}

fn short_error(e: &ReconstructionError) -> &'static str {
    match e {
        ReconstructionError::Checkpoint(_) => "checkpoint error",
        _ => "reconstruction error",
    }
}

fn collect_slab_files(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_slab_files(&path, out);
        } else if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("slab_") && n.ends_with(".bin"))
        {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{generate, scan_geometry, WorkloadSpec};

    fn scratch(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("scalefbp-serve-ut-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn tiny_config(tag: &str) -> ServeConfig {
        ServeConfig::new(2, DeviceSpec::tiny(300_000), scratch(tag))
    }

    #[test]
    fn small_workload_completes_with_bounded_utilisation() {
        let cfg = tiny_config("smoke");
        let jobs = generate(&WorkloadSpec::new(3, 2, 8, 500.0).small_only());
        let report = Scheduler::new(cfg, MetricsRegistry::new())
            .run(jobs)
            .unwrap();
        assert_eq!(report.jobs.len(), 8);
        assert!(report.rejections.is_empty() && report.stranded.is_empty());
        for d in 0..2 {
            let u = report.utilisation(d);
            assert!((0.0..=1.0).contains(&u), "utilisation {u} out of range");
        }
        assert!(report.makespan_nanos > 0);
        assert_eq!(
            report.metrics.counter("serve.jobs.completed", None),
            Some(8)
        );
    }

    #[test]
    fn slice_cost_model_matches_executed_report() {
        // The analytic slice duration must mirror the out-of-core
        // loop's modelled seconds exactly (same spec arithmetic).
        let g = scan_geometry(16);
        let cfg_job = FdkConfig::new(g.clone())
            .with_device(DeviceSpec::tiny(300_000))
            .with_nc(6);
        let (costs, _) = long_plan(&cfg_job).unwrap();
        let rec = OutOfCoreReconstructor::new(cfg_job.clone()).unwrap();
        let p = generate(&WorkloadSpec::new(1, 1, 5, 100.0))
            .into_iter()
            .find(|j| matches!(j.class, JobClass::Long { .. }))
            .unwrap()
            .projections;
        let (_, report) = rec.reconstruct(&p, Schedule::Serial).unwrap();
        let actual: f64 = report
            .batches
            .iter()
            .map(|b| b.h2d_secs + b.bp_secs + b.d2h_secs)
            .sum();
        let analytic = slice_secs(&cfg_job.device, &costs, 0, costs.len());
        assert!(
            (actual - analytic).abs() <= 1e-12 * actual.max(1.0),
            "analytic {analytic} vs executed {actual}"
        );
    }

    #[test]
    fn job_service_secs_is_positive_and_overhead_sensitive() {
        let cfg = tiny_config("svc");
        let jobs = generate(&WorkloadSpec::new(5, 1, 5, 100.0));
        for job in &jobs {
            let base = job_service_secs(&cfg, job);
            assert!(base > 0.0);
            let mut costly = cfg.clone();
            costly.dispatch_overhead_secs *= 2.0;
            assert!(job_service_secs(&costly, job) > base);
        }
    }
}
