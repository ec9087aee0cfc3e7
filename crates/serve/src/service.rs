//! The solve service: worker pool, bounded intake, deadlines, retries,
//! circuit breaking, panic isolation, and graceful drain.
//!
//! # Lifecycle of a job
//!
//! ```text
//! submit ──▶ bounded queue ──▶ worker ──▶ attempt loop ──▶ report
//!    │            │               │            │
//!    │ full:      │ deadline      │ panic:     │ corruption: retry with
//!    │ Rejected   │ expired:      │ isolate +  │ backoff; packed failures
//!    │            │ never run     │ replace    │ feed the circuit breaker
//! ```
//!
//! An idle worker never waits for batchmates: it takes the oldest queued
//! job at once. With batching on, it also takes queued jobs of the same
//! batch key (see [`BatchingConfig`]), so waves form only from jobs that
//! would otherwise wait behind busy workers.
//!
//! Every attempt runs on a **fresh machine** (transient faults do not
//! outlive an attempt), under a cooperative [`CancelToken`] armed by the
//! deadline watchdog and a controller step budget
//! ([`Ppa::limit_steps`](ppa_ppc::Ppa::limit_steps)) — so no input, fault
//! pattern, or deadline can wedge a worker. Workers that panic are
//! allowed to die: the panic is caught, the client still gets a typed
//! [`ServeError::WorkerPanicked`] report, and a supervisor thread spawns
//! a replacement. All of it is counted under `serve.*` metrics, which the
//! stress campaign reconciles 1:1 against client-side observations.

use crate::breaker::{BreakerState, CircuitBreaker, Route};
use crate::checkpoint::ApspCheckpoint;
use crate::health::{HealthLedger, HealthPolicy, MachineHealth};
use crate::introspect::{BreakerView, HealthView, InflightJob, Introspection, WorkerView};
use crate::job::{JobKind, JobOutcome, JobReport, JobSpec, ServeError};
use crate::policy::RetryPolicy;
use crate::BreakerConfig;
use ppa_graph::{Weight, WeightMatrix, INF};
use ppa_machine::{
    BackendSpec, BackendVisitor, CancelToken, Executor, FaultMap, FaultReport, Machine,
    TransientFaults,
};
use ppa_mcp::batch::replicate;
use ppa_mcp::widest::{widest_path, WidestOutput};
use ppa_mcp::{
    mcp, BatchSession, LaneLimit, McpError, McpOutput, McpSession, Redundancy, VoteReport,
};
use ppa_obs::{Json, Metrics};
use ppa_ppc::Ppa;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Service tuning. `Default` is sized for tests and the CLI: a small
/// pool with modest backpressure and the stock retry/breaker policies.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads in the pool (clamped to at least 1).
    pub workers: usize,
    /// Bounded intake queue capacity; a full queue rejects submissions
    /// with [`ServeError::Rejected`] (clamped to at least 1).
    pub queue_capacity: usize,
    /// Deadline applied when a job does not carry its own.
    pub default_deadline: Option<Duration>,
    /// Per-attempt step budget applied when a job does not carry its own.
    pub default_step_budget: Option<u64>,
    /// Retry pacing for corruption-class failures.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning for the packed backend.
    pub breaker: BreakerConfig,
    /// The fast backend jobs route to while the circuit breaker allows
    /// it (packed with 64-bit words by default). A divergence-probe
    /// failure downgrades it to scalar; [`BackendSpec::Scalar`] pins
    /// everything to the reference backend.
    pub backend: BackendSpec,
    /// Seed for worker-local RNGs (retry jitter). Worker `k` derives its
    /// stream from `seed` and `k`, so runs are reproducible.
    pub seed: u64,
    /// Lane-batched solving: a worker that picks up a shortest-path job
    /// also takes queued jobs of the same size and word fit and solves
    /// them as lanes of one [`BatchSession`] wave, and APSP campaigns run
    /// in destination wavefronts. Off by default. Batching changes
    /// scheduling, not results (every lane is bit-identical to its solo
    /// run).
    pub batching: BatchingConfig,
    /// Lane-replicated redundant execution for shortest-path jobs:
    /// `Dmr` detects a corrupted replica by vote alone, `Tmr` can also
    /// out-vote it — no sequential reference runs on the hot path.
    /// Redundant waves count every replica lane against
    /// [`BatchingConfig::max_lanes`].
    pub redundancy: Redundancy,
    /// Background BIST scrubbing of idle workers (and the bench/probe
    /// loop of quarantined machines).
    pub scrubbing: ScrubConfig,
    /// Deterministic per-worker fault injection for drills; empty in
    /// production.
    pub fault_plan: MachineFaultPlan,
    /// Quarantine state-machine thresholds.
    pub health: HealthPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 3,
            queue_capacity: 16,
            default_deadline: None,
            default_step_budget: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            backend: BackendSpec::Packed,
            seed: 0x5eed,
            batching: BatchingConfig::default(),
            redundancy: Redundancy::Off,
            scrubbing: ScrubConfig::default(),
            fault_plan: MachineFaultPlan::default(),
            health: HealthPolicy::default(),
        }
    }
}

/// Which queued jobs a worker takes together as one lane-batched wave.
///
/// Nothing is ever held for batchmates. A worker takes the oldest queued
/// job as soon as it is idle. If that job is a shortest-path job, it also
/// takes queued jobs with the same batch key (machine size and fitted
/// word width), up to `max_lanes` and up to its share of the backlog,
/// `⌈queued / workers⌉`. The share splits a backlog across the pool
/// instead of landing it on one worker.
#[derive(Debug, Clone)]
pub struct BatchingConfig {
    /// Enable batching. When `false` (the default) every worker takes one
    /// job at a time.
    pub enabled: bool,
    /// Most jobs in one wave (clamped to `1..=64`, the simulator's lane
    /// ceiling; redundant waves divide it by their replica count).
    pub max_lanes: usize,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        BatchingConfig {
            enabled: false,
            max_lanes: 16,
        }
    }
}

/// Background scrubber tuning: idle workers run the machine's
/// six-pattern BIST between jobs, under a duty-cycle budget so
/// scrubbing can never crowd out serving. The same knobs pace the
/// maintenance loop of benched (quarantined/probation) workers.
#[derive(Debug, Clone)]
pub struct ScrubConfig {
    /// Enable background scrubbing. Off by default — the quarantine
    /// ledger still records sightings either way, but nothing sweeps.
    pub enabled: bool,
    /// How long a worker must sit idle before it starts a sweep.
    pub idle_after: Duration,
    /// Minimum spacing between two idle sweeps on one worker.
    pub min_interval: Duration,
    /// Greatest fraction of a worker's wall-clock lifetime that may go
    /// to scrubbing (clamped to `0.0..=1.0`); over-budget sweeps are
    /// skipped and counted under `serve.scrub.skipped_budget`.
    pub duty_cycle: f64,
    /// Mesh size of scrub/probe machines (clamped to at least 2).
    pub probe_n: usize,
    /// Pause between maintenance rounds on a benched worker.
    pub benched_pause: Duration,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            enabled: false,
            idle_after: Duration::from_millis(1),
            min_interval: Duration::from_millis(2),
            duty_cycle: 0.25,
            probe_n: 6,
            benched_pause: Duration::from_micros(500),
        }
    }
}

/// A deterministic per-worker fault plan for drills: every machine
/// worker `k` builds (job attempts, batched waves, scrub sweeps,
/// probation probes) carries `FaultMap::random(dim, count, seed)` until
/// — if set — `heal_after_builds` machines have been built, modeling a
/// field repair so quarantine re-admission can be exercised end to end.
#[derive(Debug, Clone, Default)]
pub struct MachineFaultPlan {
    /// Worker index -> its planted fault spec.
    pub faulty: BTreeMap<u64, FaultSpec>,
}

impl MachineFaultPlan {
    /// Plants `spec` on every machine worker `worker` builds.
    pub fn with(mut self, worker: u64, spec: FaultSpec) -> Self {
        self.faulty.insert(worker, spec);
        self
    }
}

/// One worker's planted fault (see [`MachineFaultPlan`]).
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Stuck switches per machine (clamped to at least 1).
    pub count: usize,
    /// Seed of the deterministic fault placement.
    pub seed: u64,
    /// Machines built before the fault clears (`None` = permanent).
    pub heal_after_builds: Option<u64>,
}

/// Locks a mutex, ignoring poisoning: a worker that panicked never holds
/// these locks across the panic point, and the service must keep serving
/// even after isolated panics.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A submitted job waiting in the intake queue.
struct QueuedJob {
    id: u64,
    spec: JobSpec,
    submitted: Instant,
    reply: Sender<JobReport>,
    /// The job's cancel token, created at submission so
    /// [`SolveService::cancel`] can fire it while the job is still
    /// queued (the deadline watchdog arms the same token later).
    token: CancelToken,
    /// Set when batching is on and the job may share a wave: jobs with
    /// equal keys are lane-compatible (see [`batch_key`]).
    batch_key: Option<(usize, u32)>,
}

/// What a worker's wait on the intake ended with.
enum Pickup {
    /// One job, or a wave of lane-compatible shortest-path jobs to solve
    /// as lanes of one [`BatchSession`], oldest first.
    Jobs(Vec<QueuedJob>),
    /// Nothing arrived within the idle window (time to scrub).
    Idle,
    /// The intake is closed and empty: the worker exits.
    Closed,
}

/// The service's one intake queue, bounded by `queue_capacity`:
/// [`SolveService::submit`] pushes, idle workers pop.
struct Intake {
    queue: Mutex<Queue>,
    ready: Condvar,
    /// Most jobs waiting at once.
    capacity: usize,
    /// Most jobs in one wave: `max_lanes` over the replica count.
    lanes: usize,
    /// Pool size a backlog is shared across.
    workers: usize,
}

struct Queue {
    jobs: VecDeque<QueuedJob>,
    /// Cleared by the drain; a closed intake refuses new jobs.
    open: bool,
}

impl Intake {
    fn new(config: &ServeConfig) -> Intake {
        let replicas = config.redundancy.replicas().max(1);
        Intake {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            lanes: (config.batching.max_lanes.clamp(1, 64) / replicas).max(1),
            workers: config.workers.max(1),
        }
    }

    /// Jobs accepted and not yet picked up by a worker.
    fn depth(&self) -> u64 {
        lock(&self.queue).jobs.len() as u64
    }

    /// Enqueues `job` and wakes one idle worker. Never blocks: a full or
    /// closed queue refuses the job with the reason.
    fn push(&self, job: QueuedJob) -> Result<(), ServeError> {
        let mut q = lock(&self.queue);
        if !q.open {
            return Err(ServeError::ShuttingDown);
        }
        if q.jobs.len() >= self.capacity {
            return Err(ServeError::Rejected {
                capacity: self.capacity,
            });
        }
        q.jobs.push_back(job);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Refuses new jobs and wakes every worker, so each drains what is
    /// queued and exits once the queue is empty.
    fn close(&self) {
        lock(&self.queue).open = false;
        self.ready.notify_all();
    }

    /// Waits for work. With `idle` set, gives up after that long with
    /// [`Pickup::Idle`].
    fn pop(&self, idle: Option<Duration>) -> Pickup {
        let until = idle.map(|d| Instant::now() + d);
        let mut q = lock(&self.queue);
        loop {
            if let Some(jobs) = self.take(&mut q.jobs) {
                return Pickup::Jobs(jobs);
            }
            if !q.open {
                return Pickup::Closed;
            }
            q = match until {
                None => self.ready.wait(q).unwrap_or_else(PoisonError::into_inner),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Pickup::Idle;
                    }
                    self.ready
                        .wait_timeout(q, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// The oldest job, plus — when it carries a batch key — queued jobs
    /// with the same key, up to `lanes` and this worker's share of the
    /// backlog.
    fn take(&self, jobs: &mut VecDeque<QueuedJob>) -> Option<Vec<QueuedJob>> {
        let share = jobs.len().div_ceil(self.workers);
        let first = jobs.pop_front()?;
        let key = first.batch_key;
        let cap = if key.is_some() {
            self.lanes.min(share)
        } else {
            1
        };
        let mut wave = vec![first];
        let mut i = 0;
        while wave.len() < cap && i < jobs.len() {
            if jobs[i].batch_key == key {
                wave.extend(jobs.remove(i));
            } else {
                i += 1;
            }
        }
        Some(wave)
    }
}

/// Supervisor mailbox messages.
enum Supervise {
    /// A worker died after an isolated panic; spawn a replacement.
    Died,
    /// A worker's machine was quarantined; spawn a replacement so
    /// serving capacity survives the bench. The benched worker lives
    /// on, scrubbing toward re-admission.
    Benched,
    /// Drain complete; the supervisor should exit.
    Stop,
}

/// What a worker thread is doing right now (introspection state).
#[derive(Clone, Copy)]
enum WorkerState {
    Idle,
    /// Running the job with this id (a batch shows its first lane's id).
    Running(u64),
    /// Sweeping or probing its machine (idle scrub, quarantine sweep,
    /// probation probe) — deliberately distinct from `Idle` so client
    /// tallies reconcile 1:1 against snapshots.
    Scrubbing,
}

/// What the pool knows about one executing job (introspection state;
/// keyed by job id in [`Shared::inflight`]).
struct InflightEntry {
    kind: &'static str,
    submitted: Instant,
    deadline: Option<Duration>,
    worker: u64,
}

/// State shared by the service handle, every worker, and the supervisor.
struct Shared {
    config: ServeConfig,
    metrics: Mutex<Metrics>,
    breaker: Mutex<CircuitBreaker>,
    accepting: AtomicBool,
    /// Jobs accepted and not yet picked up by a worker.
    intake: Intake,
    /// Jobs currently executing, keyed by job id.
    inflight: Mutex<BTreeMap<u64, InflightEntry>>,
    /// Live workers: index -> what the worker is doing right now.
    /// Entries are removed when a worker exits or panics.
    workers: Mutex<BTreeMap<u64, WorkerState>>,
    /// The persistent per-machine health ledger (records outlive their
    /// workers).
    health: Mutex<HealthLedger>,
    /// Cancel tokens for every job between submission and report, keyed
    /// by job id, so [`SolveService::cancel`] can reach queued *and*
    /// running jobs. Entries are removed when the job reports.
    cancels: Mutex<BTreeMap<u64, CancelToken>>,
    /// Ids whose token was fired by a *client* cancel (as opposed to the
    /// deadline watchdog), so the worker maps the cooperative stop to
    /// [`ServeError::Cancelled`] instead of `DeadlineExceeded`.
    client_cancelled: Mutex<BTreeSet<u64>>,
    /// Lanes of batched waves currently executing on workers.
    batch_lanes_inflight: AtomicU64,
}

impl Shared {
    /// Attaches the drill fault plan's faults, if any, to a machine
    /// worker `index` just built. Every call with a planted spec counts a
    /// build, so `heal_after_builds` models a repair that lands after a
    /// fixed number of faulty builds.
    fn arm<E: Executor>(&self, index: u64, machine: &mut Machine<E>) {
        let Some(spec) = self.config.fault_plan.faulty.get(&index).copied() else {
            return;
        };
        let builds = lock(&self.health).count_build(index);
        if spec.heal_after_builds.is_some_and(|h| builds > h) {
            return;
        }
        machine.attach_faults(FaultMap::random(
            machine.dim(),
            spec.count.max(1),
            spec.seed,
        ));
    }
}

/// Work that runs on one freshly built worker machine (see
/// [`on_machine`]).
trait OnMachine {
    /// What the work returns.
    type Output;

    /// Builds its machine from `fresh` and runs.
    fn run<E: Executor>(self, fresh: Fresh<'_, E>) -> Self::Output;
}

/// A worker's fresh executor. Every way of turning it into a machine
/// attaches the worker's drill faults, so no serve path can build a
/// machine that skips the fault plan.
struct Fresh<'a, E> {
    exec: E,
    shared: &'a Shared,
    index: u64,
}

impl<E: Executor> Fresh<'_, E> {
    /// An `n x n` runtime.
    fn ppa(self, n: usize) -> Ppa<E> {
        let mut ppa = Ppa::with_backend(n, self.exec);
        self.shared.arm(self.index, ppa.machine_mut());
        ppa
    }

    /// A lane batch sized and word-fitted for `graphs`.
    fn batch(self, graphs: &[WeightMatrix]) -> Result<BatchSession<E>, McpError> {
        let mut batch = BatchSession::with_backend(graphs, self.exec)?;
        self.shared.arm(self.index, batch.ppa_mut().machine_mut());
        Ok(batch)
    }
}

/// Builds every machine worker `index` runs work on: dispatches
/// `backend` to its executor and hands `work` the [`Fresh`] wrapper.
fn on_machine<W: OnMachine>(
    shared: &Shared,
    index: u64,
    backend: BackendSpec,
    work: W,
) -> W::Output {
    struct Build<'a, W> {
        shared: &'a Shared,
        index: u64,
        work: W,
    }

    impl<W: OnMachine> BackendVisitor for Build<'_, W> {
        type Output = W::Output;

        fn run<E: Executor>(self, exec: E) -> W::Output {
            self.work.run(Fresh {
                exec,
                shared: self.shared,
                index: self.index,
            })
        }
    }

    backend.dispatch(Build {
        shared,
        index,
        work,
    })
}

/// Everything a worker thread needs; cloneable so the supervisor can
/// spawn replacements.
#[derive(Clone)]
struct WorkerCtx {
    shared: Arc<Shared>,
    watchdog_tx: Sender<(Instant, CancelToken)>,
    death_tx: Sender<Supervise>,
    worker_seq: Arc<AtomicU64>,
}

/// A handle to one submitted job's eventual report.
#[derive(Debug)]
pub struct JobTicket {
    id: u64,
    rx: Receiver<JobReport>,
}

impl JobTicket {
    /// The id the service assigned at submission.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the job's report arrives.
    ///
    /// Never loses a job: if the worker side vanished without reporting
    /// (which the panic-isolation path prevents, but the client must not
    /// have to trust that), a synthetic [`ServeError::WorkerPanicked`]
    /// report is returned instead of hanging or dropping the job.
    pub fn wait(self) -> JobReport {
        match self.rx.recv() {
            Ok(report) => report,
            Err(_) => JobReport {
                id: self.id,
                outcome: Err(ServeError::WorkerPanicked {
                    message: "worker lost before reporting".to_owned(),
                }),
                attempts: 0,
                backend: None,
                latency: Duration::ZERO,
            },
        }
    }
}

/// The concurrent solve service (see module docs).
pub struct SolveService {
    shared: Arc<Shared>,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    supervisor: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    death_tx: Sender<Supervise>,
    next_id: AtomicU64,
}

impl SolveService {
    /// Starts the worker pool, supervisor, and deadline watchdog.
    pub fn start(config: ServeConfig) -> SolveService {
        let workers = config.workers.max(1);
        let breaker = CircuitBreaker::new(config.breaker);
        let (watchdog_tx, watchdog_rx) = mpsc::channel();
        let (death_tx, death_rx) = mpsc::channel();
        let ledger = HealthLedger::new(config.health);
        let intake = Intake::new(&config);
        let shared = Arc::new(Shared {
            config,
            metrics: Mutex::new(Metrics::new()),
            breaker: Mutex::new(breaker),
            accepting: AtomicBool::new(true),
            intake,
            inflight: Mutex::new(BTreeMap::new()),
            workers: Mutex::new(BTreeMap::new()),
            health: Mutex::new(ledger),
            cancels: Mutex::new(BTreeMap::new()),
            client_cancelled: Mutex::new(BTreeSet::new()),
            batch_lanes_inflight: AtomicU64::new(0),
        });
        let ctx = WorkerCtx {
            shared: Arc::clone(&shared),
            watchdog_tx,
            death_tx: death_tx.clone(),
            worker_seq: Arc::new(AtomicU64::new(0)),
        };
        let handles = Arc::new(Mutex::new(Vec::new()));
        {
            let mut hs = lock(&handles);
            for _ in 0..workers {
                hs.push(spawn_worker(ctx.clone()));
            }
        }
        let sup_handles = Arc::clone(&handles);
        let supervisor = thread::spawn(move || supervisor_loop(death_rx, ctx, sup_handles));
        let watchdog = thread::spawn(move || watchdog_loop(watchdog_rx));
        SolveService {
            shared,
            handles,
            supervisor: Some(supervisor),
            watchdog: Some(watchdog),
            death_tx,
            next_id: AtomicU64::new(0),
        }
    }

    /// Submits a job. Never blocks: a full queue is backpressure
    /// ([`ServeError::Rejected`]) and a draining service refuses new work
    /// ([`ServeError::ShuttingDown`]); in both cases nothing was
    /// enqueued and the caller may resubmit later.
    ///
    /// # Errors
    /// [`ServeError::Rejected`] or [`ServeError::ShuttingDown`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, ServeError> {
        lock(&self.shared.metrics).inc("serve.submitted", 1);
        if !self.shared.accepting.load(Ordering::Acquire) {
            lock(&self.shared.metrics).inc("serve.rejected_shutdown", 1);
            return Err(ServeError::ShuttingDown);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = mpsc::channel();
        let token = CancelToken::new();
        let batch_key = (self.shared.config.batching.enabled && batch_eligible(&spec))
            .then(|| batch_key(&spec));
        let job = QueuedJob {
            id,
            spec,
            submitted: Instant::now(),
            reply: reply_tx,
            token: token.clone(),
            batch_key,
        };
        // Register the token before enqueueing so a cancel can never
        // race past a job that a worker already picked up.
        lock(&self.shared.cancels).insert(id, token);
        match self.shared.intake.push(job) {
            Ok(()) => {
                lock(&self.shared.metrics).inc("serve.accepted", 1);
                Ok(JobTicket { id, rx: reply_rx })
            }
            Err(e) => {
                lock(&self.shared.cancels).remove(&id);
                let counter = match e {
                    ServeError::Rejected { .. } => "serve.rejected_queue_full",
                    _ => "serve.rejected_shutdown",
                };
                lock(&self.shared.metrics).inc(counter, 1);
                Err(e)
            }
        }
    }

    /// Cancels a job by id. Returns `true` when the job was still known
    /// to the service (queued or executing) and the cancel was
    /// delivered; `false` when the id already reported (or never
    /// existed), in which case nothing changes.
    ///
    /// A queued job is dropped unrun; a running job's machine stops
    /// cooperatively between instructions. Either way the ticket still
    /// receives a report — with [`ServeError::Cancelled`] (wrapped in
    /// [`ServeError::Interrupted`] for an APSP campaign that already
    /// flushed a checkpoint).
    pub fn cancel(&self, id: u64) -> bool {
        lock(&self.shared.metrics).inc("serve.cancel_requests", 1);
        let token = lock(&self.shared.cancels).get(&id).cloned();
        match token {
            Some(token) => {
                lock(&self.shared.client_cancelled).insert(id);
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// A snapshot of the service metrics so far.
    pub fn metrics(&self) -> Metrics {
        lock(&self.shared.metrics).clone()
    }

    /// How many accepted jobs are waiting in the queue right now. The
    /// network edge scales its rejection `retry_after_ms` hint by this.
    pub fn queue_depth(&self) -> u64 {
        self.shared.intake.depth()
    }

    /// The breaker's current state (drills and reports inspect this).
    pub fn breaker_state(&self) -> BreakerState {
        lock(&self.shared.breaker).state()
    }

    /// A point-in-time snapshot of the whole service: queue depth,
    /// in-flight jobs with their age and effective deadline, per-worker
    /// state, breaker state, retry/replacement counters, and the full
    /// metrics registry. The snapshot is consistent enough to reconcile:
    /// on an idle service (`queue_depth == 0`, no in-flight jobs) every
    /// counter is final. Serializes exactly via
    /// [`Introspection::to_json`]/[`Introspection::from_json`].
    pub fn introspect(&self) -> Introspection {
        let now = Instant::now();
        let inflight: Vec<InflightJob> = lock(&self.shared.inflight)
            .iter()
            .map(|(&id, e)| InflightJob {
                id,
                kind: e.kind.to_owned(),
                age_us: now.saturating_duration_since(e.submitted).as_micros() as u64,
                deadline_us: e.deadline.map(|d| d.as_micros() as u64),
                worker: e.worker,
            })
            .collect();
        let workers: Vec<WorkerView> = lock(&self.shared.workers)
            .iter()
            .map(|(&index, &state)| {
                let (job, scrubbing) = match state {
                    WorkerState::Running(id) => (Some(id), false),
                    WorkerState::Scrubbing => (None, true),
                    WorkerState::Idle => (None, false),
                };
                WorkerView {
                    index,
                    job,
                    scrubbing,
                }
            })
            .collect();
        let health: Vec<HealthView> = lock(&self.shared.health)
            .snapshot()
            .into_iter()
            .map(|(worker, rec)| HealthView {
                worker,
                state: rec.state.label().to_owned(),
                fault_sightings: rec.fault_sightings,
                vote_disagreements: rec.vote_disagreements,
                scrubs: rec.scrubs,
                bist_faults: rec.bist_faults,
                probes: rec.probes,
                clean_streak: rec.clean_streak,
            })
            .collect();
        let metrics = lock(&self.shared.metrics).clone();
        Introspection {
            queue_depth: self.shared.intake.depth(),
            accepting: self.shared.accepting.load(Ordering::Acquire),
            batch_lanes_inflight: self.shared.batch_lanes_inflight.load(Ordering::Acquire),
            inflight,
            workers,
            health,
            breaker: BreakerView::from_state(lock(&self.shared.breaker).state()),
            retries: metrics.counter("serve.retries"),
            workers_replaced: metrics.counter("serve.workers_replaced"),
            quarantine_leaks: metrics.counter("serve.health.quarantine_leaks"),
            metrics,
        }
    }

    /// Graceful drain: stop accepting, let the workers finish every
    /// accepted job, join all threads, and return the final metrics.
    /// Every ticket issued before the drain still receives its report.
    pub fn shutdown(mut self) -> Metrics {
        self.drain();
        lock(&self.shared.metrics).clone()
    }

    fn drain(&mut self) {
        self.shared.accepting.store(false, Ordering::Release);
        // Closing the intake lets the workers empty it and exit.
        self.shared.intake.close();
        self.join_workers();
        let _ = self.death_tx.send(Supervise::Stop);
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        // The supervisor may have spawned a replacement between our last
        // sweep and its Stop; it exits immediately, but must be joined.
        self.join_workers();
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
    }

    fn join_workers(&self) {
        loop {
            let batch: Vec<JoinHandle<()>> = lock(&self.handles).drain(..).collect();
            if batch.is_empty() {
                return;
            }
            for h in batch {
                let _ = h.join();
            }
        }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Registers a worker under a fresh index, in the workers map and the
/// health ledger, before its thread exists, so `introspect()` right after
/// `start()` or a replacement spawn lists every worker that is running.
fn spawn_worker(ctx: WorkerCtx) -> JoinHandle<()> {
    let index = ctx.worker_seq.fetch_add(1, Ordering::Relaxed);
    lock(&ctx.shared.workers).insert(index, WorkerState::Idle);
    lock(&ctx.shared.health).register(index);
    thread::spawn(move || worker_loop(ctx, index))
}

fn worker_loop(ctx: WorkerCtx, index: u64) {
    let scrub = ctx.shared.config.scrubbing.clone();
    let mut clock = ScrubClock::new();
    // Golden-ratio stride keeps worker streams disjoint for nearby seeds.
    let mut rng = SmallRng::seed_from_u64(
        ctx.shared
            .config
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index + 1)),
    );
    loop {
        // Benched machines never pull jobs: a quarantined worker scrubs
        // itself toward a clean sweep, a probation worker earns
        // re-admission with probe solves. Health transitions for worker
        // `index` only ever happen on this thread, so the gate cannot
        // race with a later state change.
        // Bind the state first: a `match` on the locked expression
        // would hold the health mutex across the arms and deadlock the
        // scrub/probe calls below.
        let health_state = lock(&ctx.shared.health).state(index);
        match health_state {
            MachineHealth::Quarantined => {
                if !ctx.shared.accepting.load(Ordering::Acquire) {
                    lock(&ctx.shared.workers).remove(&index);
                    return;
                }
                run_scrub(&ctx, index);
                thread::sleep(scrub.benched_pause);
                continue;
            }
            MachineHealth::Probation => {
                if !ctx.shared.accepting.load(Ordering::Acquire) {
                    lock(&ctx.shared.workers).remove(&index);
                    return;
                }
                run_probe(&ctx, index);
                thread::sleep(scrub.benched_pause);
                continue;
            }
            _ => {}
        }
        // Idle scrubbing: when no work arrives within the idle window,
        // sweep under the duty-cycle budget (the intake lock is already
        // released, so a sweep never stalls pickup on other workers).
        let idle = scrub.enabled.then_some(scrub.idle_after);
        let mut jobs = match ctx.shared.intake.pop(idle) {
            Pickup::Jobs(jobs) => jobs,
            Pickup::Idle => {
                maybe_idle_scrub(&ctx, index, &mut clock);
                continue;
            }
            Pickup::Closed => {
                // Queue closed and drained: graceful exit.
                lock(&ctx.shared.workers).remove(&index);
                return;
            }
        };
        note_pickup(&ctx.shared, &jobs);
        // Audit: a benched machine must never receive work. The health
        // gate above makes that impossible by construction; this
        // counter exists so the chaos drill can prove it stayed zero.
        if lock(&ctx.shared.health).is_benched(index) {
            lock(&ctx.shared.metrics).inc("serve.health.quarantine_leaks", 1);
        }
        if jobs.len() > 1 {
            if run_batch_on_worker(&ctx, index, jobs, &mut rng) {
                continue;
            }
            // The batch panicked; this worker is done (the supervisor
            // was already asked for a replacement).
            return;
        }
        let Some(job) = jobs.pop() else {
            continue;
        };
        let (id, submitted, reply) = (job.id, job.submitted, job.reply.clone());
        lock(&ctx.shared.inflight).insert(
            id,
            InflightEntry {
                kind: job.spec.kind.label(),
                submitted,
                deadline: job.spec.deadline.or(ctx.shared.config.default_deadline),
                worker: index,
            },
        );
        lock(&ctx.shared.workers).insert(index, WorkerState::Running(id));
        let verdict = catch_unwind(AssertUnwindSafe(|| run_job(&ctx, index, job, &mut rng)));
        lock(&ctx.shared.inflight).remove(&id);
        lock(&ctx.shared.cancels).remove(&id);
        lock(&ctx.shared.client_cancelled).remove(&id);
        match verdict {
            Ok(report) => {
                lock(&ctx.shared.workers).insert(index, WorkerState::Idle);
                let _ = reply.send(report);
            }
            Err(payload) => {
                // The dying worker disappears from introspection; its
                // replacement is registered under a fresh index.
                lock(&ctx.shared.workers).remove(&index);
                let latency = submitted.elapsed();
                let mut m = lock(&ctx.shared.metrics);
                m.inc("serve.worker_panics", 1);
                m.inc("serve.failed", 1);
                m.observe("serve.latency_us", latency.as_micros() as u64);
                drop(m);
                let _ = reply.send(JobReport {
                    id,
                    outcome: Err(ServeError::WorkerPanicked {
                        message: panic_message(payload),
                    }),
                    attempts: 1,
                    backend: None,
                    latency,
                });
                // A worker that panicked may hold corrupted thread state;
                // report the death and let the supervisor replace it.
                let _ = ctx.death_tx.send(Supervise::Died);
                return;
            }
        }
    }
}

/// Records one pickup: each job's wait from submission, and for
/// batchable work how many jobs this dispatch carries (singles
/// included, so `serve.batch.occupancy` averages jobs per wave).
fn note_pickup(shared: &Shared, jobs: &[QueuedJob]) {
    let now = Instant::now();
    let mut m = lock(&shared.metrics);
    for job in jobs {
        let waited = now.saturating_duration_since(job.submitted);
        m.observe("serve.queue_wait_us", waited.as_micros() as u64);
    }
    if jobs.first().is_some_and(|j| j.batch_key.is_some()) {
        m.observe("serve.batch.occupancy", jobs.len() as u64);
        if jobs.len() >= 2 {
            m.inc("serve.batch.jobs", jobs.len() as u64);
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Worker-local duty-cycle accounting for idle scrubbing.
struct ScrubClock {
    started: Instant,
    spent: Duration,
    last: Option<Instant>,
}

impl ScrubClock {
    fn new() -> ScrubClock {
        ScrubClock {
            started: Instant::now(),
            spent: Duration::ZERO,
            last: None,
        }
    }
}

/// Runs an idle BIST sweep if pacing and the duty-cycle budget allow
/// it; over-budget sweeps are skipped (and counted) rather than queued.
fn maybe_idle_scrub(ctx: &WorkerCtx, index: u64, clock: &mut ScrubClock) {
    let cfg = &ctx.shared.config.scrubbing;
    if clock.last.is_some_and(|at| at.elapsed() < cfg.min_interval) {
        return;
    }
    let alive = clock.started.elapsed().max(Duration::from_micros(1));
    if clock.spent.as_secs_f64() > cfg.duty_cycle.clamp(0.0, 1.0) * alive.as_secs_f64() {
        lock(&ctx.shared.metrics).inc("serve.scrub.skipped_budget", 1);
        return;
    }
    let began = Instant::now();
    run_scrub(ctx, index);
    clock.spent += began.elapsed();
    clock.last = Some(Instant::now());
}

/// One BIST sweep of this worker's machine: builds a scrub machine the
/// way the worker builds job machines (drill fault plans included),
/// runs the six-pattern self test, and feeds the verdict to the health
/// ledger. A fault-localizing sweep quarantines the machine from any
/// serving state and asks the supervisor for a replacement; a clean
/// sweep builds the streak that clears a suspect, or moves a
/// quarantined machine to probation.
fn run_scrub(ctx: &WorkerCtx, index: u64) -> bool {
    let shared = &ctx.shared;
    lock(&shared.workers).insert(index, WorkerState::Scrubbing);
    let n = shared.config.scrubbing.probe_n.max(2);
    let report = on_machine(shared, index, BackendSpec::Scalar, Sweep(n));
    let healthy = report.is_healthy();
    {
        let mut m = lock(&shared.metrics);
        m.inc("serve.scrub.sweeps", 1);
        m.inc("serve.scrub.steps", report.steps.total());
        m.inc(
            if healthy {
                "serve.scrub.clean"
            } else {
                "serve.scrub.faulty"
            },
            1,
        );
    }
    let transition = lock(&shared.health).scrub(index, healthy);
    match transition {
        Some(MachineHealth::Quarantined) => {
            lock(&shared.metrics).inc("serve.health.quarantined", 1);
            let _ = ctx.death_tx.send(Supervise::Benched);
        }
        Some(MachineHealth::Probation) => {
            lock(&shared.metrics).inc("serve.health.probation", 1);
        }
        Some(MachineHealth::Healthy) => {
            lock(&shared.metrics).inc("serve.health.cleared", 1);
        }
        _ => {}
    }
    lock(&shared.workers).insert(index, WorkerState::Idle);
    healthy
}

/// One probation probe: a verified solve of a fixed reference graph on
/// a machine built exactly as this worker builds job machines. Clean
/// probes build toward re-admission; a failed probe re-quarantines.
/// Off the serving hot path, so host verification is fine here.
fn run_probe(ctx: &WorkerCtx, index: u64) {
    let shared = &ctx.shared;
    lock(&shared.workers).insert(index, WorkerState::Scrubbing);
    let n = shared.config.scrubbing.probe_n.max(4);
    let w = ppa_graph::gen::random_connected(n, 0.5, 9, 0x09ED);
    let clean = on_machine(shared, index, BackendSpec::Scalar, Probe(&w));
    {
        let mut m = lock(&shared.metrics);
        m.inc("serve.health.probes", 1);
        if !clean {
            m.inc("serve.health.probe_failures", 1);
        }
    }
    let transition = lock(&shared.health).probe(index, clean);
    match transition {
        Some(MachineHealth::Healthy) => {
            lock(&shared.metrics).inc("serve.health.readmitted", 1);
        }
        Some(MachineHealth::Quarantined) => {
            lock(&shared.metrics).inc("serve.health.quarantined", 1);
        }
        _ => {}
    }
    lock(&shared.workers).insert(index, WorkerState::Idle);
}

/// A BIST sweep of a fresh `n x n` machine (the scrubber's check).
struct Sweep(usize);

impl OnMachine for Sweep {
    type Output = FaultReport;

    fn run<E: Executor>(self, fresh: Fresh<'_, E>) -> FaultReport {
        fresh.ppa(self.0).machine_mut().self_test()
    }
}

/// A verified solve toward vertex 0 (the probation probe); true when
/// clean.
struct Probe<'a>(&'a WeightMatrix);

impl OnMachine for Probe<'_> {
    type Output = bool;

    fn run<E: Executor>(self, fresh: Fresh<'_, E>) -> bool {
        let ppa = fresh
            .ppa(self.0.n())
            .with_word_bits(mcp::fit_word_bits(self.0).clamp(2, 62));
        McpSession::from_ppa(ppa, self.0)
            .and_then(|mut s| s.solve_verified(0))
            .is_ok()
    }
}

/// Records a corruption-class failure against this worker's machine.
/// `vote` marks a redundant-vote disagreement (already known to be a
/// replica-level divergence, the strongest soft evidence we have).
fn note_sighting(shared: &Shared, index: u64, vote: bool) {
    let transition = lock(&shared.health).sighting(index, vote);
    let mut m = lock(&shared.metrics);
    m.inc("serve.health.sightings", 1);
    if vote {
        m.inc("serve.health.vote_disagreements", 1);
    }
    if transition == Some(MachineHealth::Suspect) {
        m.inc("serve.health.suspect", 1);
    }
}

/// Records a redundant vote's disagreement, if any, against this
/// worker's machine.
fn note_vote(shared: &Shared, index: u64, vote: &VoteReport) {
    if vote.disagreed {
        note_sighting(shared, index, true);
        if vote.corrected {
            lock(&shared.metrics).inc("serve.health.vote_corrected", 1);
        }
    }
}

/// Runs a batched wave on this worker with the same bookkeeping and
/// panic isolation as a single job: every lane gets its own inflight
/// entry and its own report, and a panic anywhere in the wave reports
/// [`ServeError::WorkerPanicked`] to *every* lane's ticket. Returns
/// `false` when the worker must die (panic path).
fn run_batch_on_worker(
    ctx: &WorkerCtx,
    index: u64,
    jobs: Vec<QueuedJob>,
    rng: &mut SmallRng,
) -> bool {
    let lanes = jobs.len() as u64;
    let meta: Vec<(u64, Instant, Sender<JobReport>)> = jobs
        .iter()
        .map(|j| (j.id, j.submitted, j.reply.clone()))
        .collect();
    {
        let mut inflight = lock(&ctx.shared.inflight);
        for job in &jobs {
            inflight.insert(
                job.id,
                InflightEntry {
                    kind: job.spec.kind.label(),
                    submitted: job.submitted,
                    deadline: job.spec.deadline.or(ctx.shared.config.default_deadline),
                    worker: index,
                },
            );
        }
    }
    lock(&ctx.shared.workers).insert(index, WorkerState::Running(meta[0].0));
    ctx.shared
        .batch_lanes_inflight
        .fetch_add(lanes, Ordering::AcqRel);
    let verdict = catch_unwind(AssertUnwindSafe(|| run_batch(ctx, index, jobs, rng)));
    ctx.shared
        .batch_lanes_inflight
        .fetch_sub(lanes, Ordering::AcqRel);
    for (id, _, _) in &meta {
        lock(&ctx.shared.inflight).remove(id);
        lock(&ctx.shared.cancels).remove(id);
        lock(&ctx.shared.client_cancelled).remove(id);
    }
    match verdict {
        Ok(reports) => {
            lock(&ctx.shared.workers).insert(index, WorkerState::Idle);
            for ((_, _, reply), report) in meta.into_iter().zip(reports) {
                let _ = reply.send(report);
            }
            true
        }
        Err(payload) => {
            lock(&ctx.shared.workers).remove(&index);
            let message = panic_message(payload);
            {
                let mut m = lock(&ctx.shared.metrics);
                m.inc("serve.worker_panics", 1);
                m.inc("serve.failed", lanes);
                for (_, submitted, _) in &meta {
                    m.observe("serve.latency_us", submitted.elapsed().as_micros() as u64);
                }
            }
            for (id, submitted, reply) in meta {
                let _ = reply.send(JobReport {
                    id,
                    outcome: Err(ServeError::WorkerPanicked {
                        message: message.clone(),
                    }),
                    attempts: 1,
                    backend: None,
                    latency: submitted.elapsed(),
                });
            }
            let _ = ctx.death_tx.send(Supervise::Died);
            false
        }
    }
}

/// Whether a job may share a wave. Only shortest-path jobs without
/// per-job fault injection batch; everything else runs as a single.
fn batch_eligible(spec: &JobSpec) -> bool {
    matches!(spec.kind, JobKind::Shortest { .. }) && spec.transient_faults.is_none()
}

/// Jobs share a wave only when their lanes would be indistinguishable
/// from solo runs: same machine size and the same fitted word width (the
/// batch runs at the max lane width, so mixing widths would change a
/// narrower job's step counts).
fn batch_key(spec: &JobSpec) -> (usize, u32) {
    (spec.graph.n(), mcp::fit_word_bits(&spec.graph).clamp(2, 62))
}

/// Executes a batched wave: per-lane queued gates, one
/// [`BatchSession`] solve on the routed backend with each job's budget
/// and cancel token as its lane limit, then per-lane error mapping
/// identical to the solo path. A corrupted lane (or a whole-wave
/// machine failure) falls back to [`run_job`] so the retry/breaker
/// machinery treats it exactly like a solo corruption.
fn run_batch(
    ctx: &WorkerCtx,
    index: u64,
    jobs: Vec<QueuedJob>,
    rng: &mut SmallRng,
) -> Vec<JobReport> {
    let shared = &ctx.shared;
    let config = &shared.config;
    let total = jobs.len();
    let mut slots: Vec<Option<QueuedJob>> = jobs.into_iter().map(Some).collect();
    let mut reports: Vec<Option<JobReport>> = (0..total).map(|_| None).collect();

    // Queued gates, per lane: client cancels and queue expiry resolve a
    // lane before any machine is built — identically to the solo path.
    let mut live: Vec<usize> = Vec::new();
    for i in 0..total {
        let job = slots[i].as_ref().expect("unresolved slot");
        let deadline = job.spec.deadline.or(config.default_deadline);
        if job.token.is_cancelled() && lock(&shared.client_cancelled).contains(&job.id) {
            let job = slots[i].take().expect("unresolved slot");
            reports[i] = Some(finish(
                ctx,
                &job,
                Err(ServeError::Cancelled),
                0,
                None,
                false,
                None,
            ));
            continue;
        }
        let waited = job.submitted.elapsed();
        if let Some(d) = deadline {
            if waited >= d {
                let job = slots[i].take().expect("unresolved slot");
                let mut m = lock(&shared.metrics);
                m.inc("serve.failed", 1);
                m.inc("serve.deadline_exceeded", 1);
                m.inc("serve.expired_in_queue", 1);
                m.observe("serve.latency_us", waited.as_micros() as u64);
                drop(m);
                reports[i] = Some(JobReport {
                    id: job.id,
                    outcome: Err(ServeError::DeadlineExpiredInQueue { waited }),
                    attempts: 0,
                    backend: None,
                    latency: waited,
                });
                continue;
            }
            let _ = ctx.watchdog_tx.send((job.submitted + d, job.token.clone()));
        }
        live.push(i);
    }

    if !live.is_empty() {
        let backend = route_backend(ctx);
        // The breaker guards only the fast backends.
        let fast = backend != BackendSpec::Scalar;
        let graphs: Vec<WeightMatrix> = live
            .iter()
            .map(|&i| slots[i].as_ref().expect("live slot").spec.graph.clone())
            .collect();
        let dests: Vec<usize> = live
            .iter()
            .map(|&i| match slots[i].as_ref().expect("live slot").spec.kind {
                JobKind::Shortest { dest } => dest,
                _ => unreachable!("only shortest jobs carry a batch key"),
            })
            .collect();
        let limits: Vec<LaneLimit> = live
            .iter()
            .map(|&i| {
                let job = slots[i].as_ref().expect("live slot");
                LaneLimit {
                    step_budget: job.spec.step_budget.or(config.default_step_budget),
                    cancel: Some(job.token.clone()),
                }
            })
            .collect();
        let wave = on_machine(
            shared,
            index,
            backend,
            Wave {
                graphs: &graphs,
                dests: &dests,
                limits: &limits,
                mode: config.redundancy,
            },
        );
        match wave {
            Err(_whole_wave) => {
                // A machine-global failure takes down every lane at once;
                // rather than inventing per-lane results, each job re-runs
                // on the solo path with its full retry/breaker treatment.
                if fast && lock(&shared.breaker).record_failure() {
                    lock(&shared.metrics).inc("serve.breaker.trips", 1);
                }
                lock(&shared.metrics).inc("serve.batch.fallback_single", live.len() as u64);
                for &i in &live {
                    let job = slots[i].take().expect("live slot");
                    reports[i] = Some(run_job(ctx, index, job, rng));
                }
            }
            Ok(wave) => {
                let mut fast_success = false;
                for (&i, lane) in live.iter().zip(wave) {
                    let job = slots[i].take().expect("live slot");
                    let report = match lane {
                        Ok(out) => {
                            fast_success = true;
                            finish(
                                ctx,
                                &job,
                                Ok(JobOutcome::Shortest(out)),
                                1,
                                Some(backend),
                                false,
                                None,
                            )
                        }
                        Err(e) if e.is_cancelled() => {
                            let cause = if lock(&shared.client_cancelled).contains(&job.id) {
                                ServeError::Cancelled
                            } else {
                                ServeError::DeadlineExceeded
                            };
                            finish(ctx, &job, Err(cause), 1, Some(backend), false, None)
                        }
                        Err(e) if e.is_step_budget_exhausted() => {
                            let budget = job.spec.step_budget.or(config.default_step_budget);
                            finish(
                                ctx,
                                &job,
                                Err(ServeError::StepBudgetExhausted {
                                    budget: budget.unwrap_or_default(),
                                }),
                                1,
                                Some(backend),
                                false,
                                None,
                            )
                        }
                        Err(e) if e.indicates_corruption() => {
                            if fast && lock(&shared.breaker).record_failure() {
                                lock(&shared.metrics).inc("serve.breaker.trips", 1);
                            }
                            lock(&shared.metrics).inc("serve.batch.fallback_single", 1);
                            run_job(ctx, index, job, rng)
                        }
                        Err(e) => finish(
                            ctx,
                            &job,
                            Err(ServeError::Solver(e)),
                            1,
                            Some(backend),
                            false,
                            None,
                        ),
                    };
                    reports[i] = Some(report);
                }
                if fast_success && fast {
                    lock(&shared.breaker).record_success();
                }
            }
        }
    }
    reports
        .into_iter()
        .map(|r| r.expect("every lane resolves to a report"))
        .collect()
}

/// A batched wave: one lane-batch solve of every live job, verified
/// against the host invariants. Under a redundancy mode every job's graph
/// is instead replicated into `mode.replicas()` adjacent lanes, voted per
/// destination — vote-only, no sequential reference on the hot path —
/// and mapped back to one outcome per job; vote disagreements are
/// recorded against this worker's health record.
struct Wave<'a> {
    graphs: &'a [WeightMatrix],
    dests: &'a [usize],
    limits: &'a [LaneLimit],
    mode: Redundancy,
}

impl OnMachine for Wave<'_> {
    type Output = Result<Vec<Result<McpOutput, McpError>>, McpError>;

    fn run<E: Executor>(self, fresh: Fresh<'_, E>) -> Self::Output {
        if self.mode.replicas() <= 1 {
            return fresh
                .batch(self.graphs)?
                .solve_verified_with(self.dests, self.limits);
        }
        let (shared, index) = (fresh.shared, fresh.index);
        let wave = fresh
            .batch(&self.mode.expand(self.graphs))?
            .solve_redundant_with(self.dests, self.limits, self.mode)?;
        let mut outcomes = Vec::with_capacity(wave.lanes.len());
        for voted in wave.lanes {
            note_vote(shared, index, &voted.vote);
            outcomes.push(voted.outcome);
        }
        Ok(outcomes)
    }
}

fn supervisor_loop(
    death_rx: Receiver<Supervise>,
    ctx: WorkerCtx,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while let Ok(msg) = death_rx.recv() {
        match msg {
            Supervise::Died => {
                lock(&ctx.shared.metrics).inc("serve.workers_replaced", 1);
                lock(&handles).push(spawn_worker(ctx.clone()));
            }
            Supervise::Benched => {
                lock(&ctx.shared.metrics).inc("serve.health.replacements", 1);
                lock(&handles).push(spawn_worker(ctx.clone()));
            }
            Supervise::Stop => return,
        }
    }
}

/// Fires cancel tokens when their deadlines pass. Exits when every
/// sender (worker contexts) is gone.
fn watchdog_loop(rx: Receiver<(Instant, CancelToken)>) {
    let mut pending: Vec<(Instant, CancelToken)> = Vec::new();
    loop {
        let now = Instant::now();
        pending.retain(|(at, token)| {
            if *at <= now {
                token.cancel();
                false
            } else {
                true
            }
        });
        let wait = pending
            .iter()
            .map(|(at, _)| at.saturating_duration_since(now))
            .min()
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(wait) {
            Ok(entry) => pending.push(entry),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Executes one job to a report: deadline gate, backend routing, the
/// attempt/retry loop, APSP checkpointing, and outcome metrics.
fn run_job(ctx: &WorkerCtx, index: u64, job: QueuedJob, rng: &mut SmallRng) -> JobReport {
    let shared = &ctx.shared;
    let config = &shared.config;
    let deadline = job.spec.deadline.or(config.default_deadline);

    // Cancelled while queued: drop unrun (no machine was built).
    if job.token.is_cancelled() && lock(&shared.client_cancelled).contains(&job.id) {
        return finish(ctx, &job, Err(ServeError::Cancelled), 0, None, false, None);
    }

    // Expired while queued: reject unrun (no machine was built).
    let waited = job.submitted.elapsed();
    if let Some(d) = deadline {
        if waited >= d {
            let mut m = lock(&shared.metrics);
            m.inc("serve.failed", 1);
            m.inc("serve.deadline_exceeded", 1);
            m.inc("serve.expired_in_queue", 1);
            m.observe("serve.latency_us", waited.as_micros() as u64);
            drop(m);
            return JobReport {
                id: job.id,
                outcome: Err(ServeError::DeadlineExpiredInQueue { waited }),
                attempts: 0,
                backend: None,
                latency: waited,
            };
        }
    }

    // Chaos probes panic on purpose — before any lock is held, so the
    // catch_unwind in the worker loop is the only thing that sees it.
    if matches!(job.spec.kind, JobKind::Chaos) {
        panic!("chaos job {}: deliberate worker panic", job.id);
    }

    // Validate a resume document before spending any solve time on it.
    let mut last_flush: Option<Json> = None;
    if let JobKind::Apsp {
        resume_from: Some(doc),
        ..
    } = &job.spec.kind
    {
        match ApspCheckpoint::from_json(doc) {
            Ok(cp) if cp.n() == job.spec.graph.n() => {
                lock(&shared.metrics).inc("serve.resumes", 1);
                last_flush = Some(cp.to_json());
            }
            Ok(cp) => {
                return finish(
                    ctx,
                    &job,
                    Err(ServeError::InvalidResume {
                        reason: format!(
                            "checkpoint is for an {}-vertex graph, job graph has {}",
                            cp.n(),
                            job.spec.graph.n()
                        ),
                    }),
                    0,
                    None,
                    false,
                    None,
                );
            }
            Err(reason) => {
                return finish(
                    ctx,
                    &job,
                    Err(ServeError::InvalidResume { reason }),
                    0,
                    None,
                    false,
                    None,
                );
            }
        }
    }
    let is_apsp = matches!(job.spec.kind, JobKind::Apsp { .. });

    let token = job.token.clone();
    if let Some(d) = deadline {
        let _ = ctx.watchdog_tx.send((job.submitted + d, token.clone()));
    }
    let budget = job.spec.step_budget.or(config.default_step_budget);
    let n = job.spec.graph.n();
    let plan = match &job.spec.kind {
        // With batching enabled, an APSP campaign retires destinations in
        // wavefronts of up to `max_lanes` per batched solve. Fault-injected
        // campaigns stay on the solo path: transient faults on a wide
        // machine would not reproduce the solo fault pattern.
        JobKind::Apsp { .. } if config.batching.enabled && job.spec.transient_faults.is_none() => {
            Plan::ApspWaves(config.batching.max_lanes.clamp(1, 64).min(n.max(1)))
        }
        // Shortest-path jobs run lane-replicated under the configured
        // redundancy mode: the vote replaces the host reference check on
        // the hot path (DMR detects, TMR can correct).
        JobKind::Shortest { .. } if config.redundancy.replicas() > 1 => {
            Plan::Voted(config.redundancy)
        }
        _ => Plan::Solo,
    };

    let mut attempts = 0u32;
    let mut backend;
    let outcome = loop {
        attempts += 1;
        backend = route_backend(ctx);
        let fast = backend != BackendSpec::Scalar;
        let attempt = Attempt {
            spec: &job.spec,
            token: &token,
            budget,
            attempt: attempts,
            plan,
            last_flush: &mut last_flush,
        };
        match on_machine(shared, index, backend, attempt) {
            Ok(out) => {
                if fast {
                    lock(&shared.breaker).record_success();
                }
                break Ok(out);
            }
            Err(e) if e.is_cancelled() => {
                // The same token serves the deadline watchdog and client
                // cancels; the client-cancel ledger disambiguates.
                if lock(&shared.client_cancelled).contains(&job.id) {
                    break Err(ServeError::Cancelled);
                }
                break Err(ServeError::DeadlineExceeded);
            }
            Err(e) if e.is_step_budget_exhausted() => {
                break Err(ServeError::StepBudgetExhausted {
                    budget: budget.unwrap_or_default(),
                })
            }
            Err(e) if e.indicates_corruption() => {
                // Vote disagreements were already recorded (with their
                // vote flavor) inside the redundant attempt.
                if !matches!(e, McpError::VoteDisagreement { .. }) {
                    note_sighting(shared, index, false);
                }
                if fast && lock(&shared.breaker).record_failure() {
                    lock(&shared.metrics).inc("serve.breaker.trips", 1);
                }
                if attempts <= config.retry.max_retries && !token.is_cancelled() {
                    lock(&shared.metrics).inc("serve.retries", 1);
                    thread::sleep(config.retry.backoff(attempts, rng));
                    continue;
                }
                break Err(ServeError::Solver(e));
            }
            Err(e) => break Err(ServeError::Solver(e)),
        }
    };
    finish(
        ctx,
        &job,
        outcome,
        attempts,
        Some(backend),
        is_apsp,
        last_flush,
    )
}

/// Wraps APSP interruptions around their checkpoint, records outcome
/// metrics, and builds the report.
fn finish(
    ctx: &WorkerCtx,
    job: &QueuedJob,
    outcome: Result<JobOutcome, ServeError>,
    attempts: u32,
    backend: Option<BackendSpec>,
    is_apsp: bool,
    last_flush: Option<Json>,
) -> JobReport {
    let outcome = match (outcome, is_apsp, last_flush) {
        (Err(cause), true, Some(checkpoint)) => Err(ServeError::Interrupted {
            checkpoint,
            cause: Box::new(cause),
        }),
        (other, _, _) => other,
    };
    let latency = job.submitted.elapsed();
    let mut m = lock(&ctx.shared.metrics);
    match &outcome {
        Ok(_) => m.inc("serve.completed", 1),
        Err(e) => {
            m.inc("serve.failed", 1);
            let root = match e {
                ServeError::Interrupted { cause, .. } => cause.as_ref(),
                other => other,
            };
            match root {
                ServeError::DeadlineExceeded => m.inc("serve.deadline_exceeded", 1),
                ServeError::StepBudgetExhausted { .. } => m.inc("serve.budget_exhausted", 1),
                ServeError::Cancelled => m.inc("serve.cancelled", 1),
                _ => {}
            }
        }
    }
    m.observe("serve.latency_us", latency.as_micros() as u64);
    drop(m);
    JobReport {
        id: job.id,
        outcome,
        attempts,
        backend,
        latency,
    }
}

/// Picks the backend for the next attempt via the circuit breaker,
/// running the divergence probe when the breaker is half-open.
fn route_backend(ctx: &WorkerCtx) -> BackendSpec {
    let fast = ctx.shared.config.backend;
    if fast == BackendSpec::Scalar {
        return fast;
    }
    let route = lock(&ctx.shared.breaker).route();
    match route {
        Route::Packed => fast,
        Route::Scalar => {
            lock(&ctx.shared.metrics).inc("serve.breaker.scalar_fallback", 1);
            BackendSpec::Scalar
        }
        Route::ProbeFirst => {
            lock(&ctx.shared.metrics).inc("serve.breaker.probes", 1);
            let passed = divergence_probe(fast);
            lock(&ctx.shared.breaker).probe_result(passed);
            let mut m = lock(&ctx.shared.metrics);
            if passed {
                m.inc("serve.breaker.probe_pass", 1);
                drop(m);
                fast
            } else {
                m.inc("serve.breaker.probe_fail", 1);
                m.inc("serve.breaker.trips", 1);
                m.inc("serve.breaker.scalar_fallback", 1);
                drop(m);
                BackendSpec::Scalar
            }
        }
    }
}

/// The half-open health check: solve a fixed reference graph on the fast
/// backend under probe and on the scalar reference (fresh, clean
/// machines) and demand bit-identical results — the differential
/// equivalence the test suites assert statically, run live before fast
/// traffic resumes.
fn divergence_probe(fast: BackendSpec) -> bool {
    struct Reference<'a>(&'a WeightMatrix);

    impl BackendVisitor for Reference<'_> {
        type Output = Result<McpOutput, McpError>;

        fn run<E: Executor>(self, exec: E) -> Self::Output {
            McpSession::with_backend(self.0, exec)?.solve(0)
        }
    }

    let w = ppa_graph::gen::random_connected(6, 0.5, 9, 0xD1FF);
    match (
        fast.dispatch(Reference(&w)),
        BackendSpec::Scalar.dispatch(Reference(&w)),
    ) {
        (Ok(a), Ok(b)) => a.sow == b.sow && a.ptn == b.ptn && a.iterations == b.iterations,
        _ => false,
    }
}

/// Host-side verification of a widest-path result, mirroring what
/// [`McpSession::solve_verified`] does for shortest paths: a silently
/// corrupted run must surface as corruption-class [`McpError`] so the
/// retry/breaker machinery sees it.
///
/// Two invariants together pin the result exactly. The capacity vector
/// must be a Bellman fixed point (`cap[i] = max_j min(edge(i,j),
/// cap[j])` with the destination unlimited), which bounds every entry
/// from *below* by the true optimum; and walking the returned pointer
/// tree from each reachable vertex must hit the destination within `n`
/// hops with a bottleneck equal to the claimed capacity, which bounds it
/// from *above* (a claimed width is only real if some concrete path
/// achieves it). A spurious fixed point inflated by a cycle fails the
/// walk; a deflated tree fails the fixed point.
fn verify_widest(w: &WeightMatrix, out: &WidestOutput) -> Result<(), McpError> {
    let n = w.n();
    let d = out.dest;
    let edge = |i: usize, j: usize| -> Weight {
        let e = w.get(i, j);
        if e == INF {
            0
        } else {
            e
        }
    };
    let cap_to = |j: usize| -> Weight {
        if j == d {
            Weight::MAX
        } else {
            out.cap[j]
        }
    };
    for i in 0..n {
        if i == d {
            continue;
        }
        let best = (0..n)
            .filter(|&j| j != i)
            .map(|j| edge(i, j).min(cap_to(j)))
            .max()
            .unwrap_or(0);
        if out.cap[i] != best {
            return Err(McpError::InvariantViolation {
                invariant: "widest capacities are not a Bellman fixed point",
            });
        }
        if out.cap[i] > 0 {
            let mut v = i;
            let mut bottleneck = Weight::MAX;
            for _ in 0..n {
                let next = out.ptn[v];
                if next >= n {
                    return Err(McpError::InvariantViolation {
                        invariant: "widest pointer tree escapes the vertex set",
                    });
                }
                bottleneck = bottleneck.min(edge(v, next));
                v = next;
                if v == d {
                    break;
                }
            }
            if v != d || bottleneck != out.cap[i] {
                return Err(McpError::InvariantViolation {
                    invariant: "widest pointer tree does not achieve the claimed capacity",
                });
            }
        }
    }
    Ok(())
}

/// How a job's attempts solve it.
#[derive(Clone, Copy)]
enum Plan {
    /// One verified solve on an `n x n` machine.
    Solo,
    /// A shortest-path job replicated into `mode.replicas()` lanes and
    /// voted (see [`Attempt::voted`]).
    Voted(Redundancy),
    /// An APSP campaign retired in wavefronts of this many lanes (see
    /// [`Attempt::apsp_waves`]).
    ApspWaves(usize),
}

/// One solve attempt of a job on a fresh machine, armed with the job's
/// cancel token, step budget, and fault injection.
struct Attempt<'a> {
    spec: &'a JobSpec,
    token: &'a CancelToken,
    budget: Option<u64>,
    /// 1-based attempt number; salts the transient-fault seed.
    attempt: u32,
    plan: Plan,
    /// The last flushed APSP checkpoint: campaigns restart from it and
    /// update it every `checkpoint_every` completed destinations.
    last_flush: &'a mut Option<Json>,
}

impl OnMachine for Attempt<'_> {
    type Output = Result<JobOutcome, McpError>;

    fn run<E: Executor>(self, fresh: Fresh<'_, E>) -> Self::Output {
        match self.plan {
            Plan::Solo => self.solo(fresh),
            Plan::Voted(mode) => self.voted(fresh, mode),
            Plan::ApspWaves(lanes) => self.apsp_waves(fresh, lanes),
        }
    }
}

impl Attempt<'_> {
    /// Attaches the job's transient-fault drill, if any. Salting by
    /// attempt keeps faults transient: a retry sees a different (still
    /// deterministic) fault pattern.
    fn attach_transient<E: Executor>(&self, machine: &mut Machine<E>) {
        if let Some((p, seed)) = self.spec.transient_faults {
            machine.attach_transient_faults(TransientFaults::new(
                p,
                seed.wrapping_add(self.attempt as u64),
            ));
        }
    }

    /// The plain path: dispatches on the job kind. APSP campaigns
    /// restart from the last flushed checkpoint.
    fn solo<E: Executor>(self, fresh: Fresh<'_, E>) -> Result<JobOutcome, McpError> {
        let metrics = &fresh.shared.metrics;
        let spec = self.spec;
        let word_bits = mcp::fit_word_bits(&spec.graph).clamp(2, 62);
        let mut ppa = fresh.ppa(spec.graph.n()).with_word_bits(word_bits);
        ppa.attach_cancel(self.token.clone());
        if let Some(b) = self.budget {
            ppa.limit_steps(b);
        }
        self.attach_transient(ppa.machine_mut());
        match &spec.kind {
            JobKind::Shortest { dest } => {
                let mut session = McpSession::from_ppa(ppa, &spec.graph)?;
                Ok(JobOutcome::Shortest(session.solve_verified(*dest)?))
            }
            JobKind::Widest { dest } => {
                let out = widest_path(&mut ppa, &spec.graph, *dest)?;
                verify_widest(&spec.graph, &out)?;
                Ok(JobOutcome::Widest(out))
            }
            JobKind::Apsp {
                checkpoint_every, ..
            } => {
                let every = (*checkpoint_every).max(1);
                let mut cp = self.resume()?;
                let mut session = McpSession::from_ppa(ppa, &spec.graph)?;
                while !cp.is_complete() {
                    let out = session.solve_verified(cp.next_dest())?;
                    cp.record(&out);
                    if cp.next_dest() % every == 0 {
                        *self.last_flush = Some(cp.to_json());
                        lock(metrics).inc("serve.checkpoints", 1);
                    }
                }
                let doc = cp.to_json();
                *self.last_flush = Some(doc.clone());
                Ok(JobOutcome::Apsp(doc))
            }
            JobKind::Chaos => unreachable!("chaos jobs panic before the attempt loop"),
        }
    }

    /// The campaign's starting point: the last flushed checkpoint, or a
    /// fresh one. A flushed checkpoint always round-trips; degrade to a
    /// typed error rather than panicking the worker if that invariant is
    /// ever broken.
    fn resume(&self) -> Result<ApspCheckpoint, McpError> {
        match self.last_flush.as_ref() {
            Some(doc) => ApspCheckpoint::from_json(doc).map_err(|_| McpError::InvariantViolation {
                invariant: "a flushed APSP checkpoint failed to round-trip",
            }),
            None => Ok(ApspCheckpoint::new(self.spec.graph.n())),
        }
    }

    /// A redundant shortest-path attempt: the job's graph is replicated
    /// into `mode.replicas()` disjoint lanes of one wide session, solved
    /// vote-only (no sequential reference on the hot path), and the voted
    /// outcome of the single destination is the job's outcome. TMR with
    /// correction can succeed despite a corrupted replica; an unresolved
    /// disagreement surfaces as corruption-class
    /// [`McpError::VoteDisagreement`] and flows into the ordinary
    /// retry/breaker machinery.
    fn voted<E: Executor>(
        self,
        fresh: Fresh<'_, E>,
        mode: Redundancy,
    ) -> Result<JobOutcome, McpError> {
        let JobKind::Shortest { dest } = self.spec.kind else {
            return Err(McpError::InvariantViolation {
                invariant: "only shortest-path jobs run redundantly",
            });
        };
        let (shared, index) = (fresh.shared, fresh.index);
        let mut sess = fresh.batch(&replicate(&self.spec.graph, mode.replicas()))?;
        self.attach_transient(sess.ppa_mut().machine_mut());
        // The budget is per destination (solo-equivalent semantics), so a
        // redundant run keeps the caller's budget meaning unchanged.
        let limits = [LaneLimit {
            step_budget: self.budget,
            cancel: Some(self.token.clone()),
        }];
        let wave = sess.solve_redundant_with(&[dest], &limits, mode)?;
        let voted = wave
            .lanes
            .into_iter()
            .next()
            .ok_or(McpError::InvariantViolation {
                invariant: "a redundant wave returns one voted lane per destination",
            })?;
        note_vote(shared, index, &voted.vote);
        Ok(JobOutcome::Shortest(voted.outcome?))
    }

    /// A batched APSP attempt: the campaign's destinations are retired in
    /// wavefronts of `lanes` per [`BatchSession`] solve instead of one at
    /// a time. Checkpoints are recorded in destination order and flushed
    /// at exactly the same destination boundaries as the solo campaign,
    /// so an interrupted-and-resumed batched campaign produces a
    /// byte-identical final checkpoint (outputs per destination are
    /// bit-identical anyway).
    fn apsp_waves<E: Executor>(
        self,
        fresh: Fresh<'_, E>,
        lanes: usize,
    ) -> Result<JobOutcome, McpError> {
        let metrics = &fresh.shared.metrics;
        let mut batch = fresh.batch(&replicate(&self.spec.graph, lanes))?;
        // The campaign is one job: deadline/cancel and the step budget apply
        // machine-wide, exactly like the solo campaign's session machine.
        batch.ppa_mut().attach_cancel(self.token.clone());
        if let Some(b) = self.budget {
            batch.ppa_mut().limit_steps(b);
        }
        let every = match &self.spec.kind {
            JobKind::Apsp {
                checkpoint_every, ..
            } => (*checkpoint_every).max(1),
            _ => unreachable!("batched campaigns are APSP jobs"),
        };
        let n = self.spec.graph.n();
        let mut cp = self.resume()?;
        while !cp.is_complete() {
            let start = cp.next_dest();
            // Ragged final wave: padding lanes re-solve `n - 1` and are
            // discarded, mirroring `BatchSession::all_pairs`.
            let dests: Vec<usize> = (0..lanes).map(|l| (start + l).min(n - 1)).collect();
            let wave = batch.solve_verified(&dests)?;
            for (l, out) in wave.into_iter().enumerate() {
                if start + l >= n {
                    break;
                }
                cp.record(&out?);
                if cp.next_dest() % every == 0 {
                    *self.last_flush = Some(cp.to_json());
                    lock(metrics).inc("serve.checkpoints", 1);
                }
            }
        }
        let doc = cp.to_json();
        *self.last_flush = Some(doc.clone());
        Ok(JobOutcome::Apsp(doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_graph::gen;

    fn quick_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            retry: RetryPolicy {
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_micros(500),
                ..RetryPolicy::default()
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn mixed_batch_solves_to_reference_answers() {
        let w = gen::random_connected(7, 0.4, 9, 11);
        let svc = SolveService::start(quick_config());
        let shortest = svc
            .submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: 3 }))
            .unwrap();
        let widest = svc
            .submit(JobSpec::new(w.clone(), JobKind::Widest { dest: 2 }))
            .unwrap();
        let short_report = shortest.wait();
        let wide_report = widest.wait();
        let metrics = svc.shutdown();

        let want_short = McpSession::new(&w).unwrap().solve_verified(3).unwrap();
        match short_report.outcome.unwrap() {
            JobOutcome::Shortest(out) => {
                assert_eq!(out.sow, want_short.sow);
                assert_eq!(out.ptn, want_short.ptn);
            }
            other => panic!("wrong outcome kind: {other:?}"),
        }
        let mut ppa = Ppa::square(7).with_word_bits(mcp::fit_word_bits(&w).clamp(2, 62));
        let want_wide = widest_path(&mut ppa, &w, 2).unwrap();
        match wide_report.outcome.unwrap() {
            JobOutcome::Widest(out) => assert_eq!(out.cap, want_wide.cap),
            other => panic!("wrong outcome kind: {other:?}"),
        }
        assert_eq!(metrics.counter("serve.accepted"), 2);
        assert_eq!(metrics.counter("serve.completed"), 2);
        assert_eq!(metrics.counter("serve.failed"), 0);
        assert_eq!(metrics.histogram("serve.latency_us").unwrap().count, 2);
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let w = gen::random_connected(10, 0.4, 9, 5);
        let svc = SolveService::start(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..quick_config()
        });
        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for _ in 0..6 {
            match svc.submit(JobSpec::new(
                w.clone(),
                JobKind::Apsp {
                    resume_from: None,
                    checkpoint_every: 4,
                },
            )) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Rejected { capacity }) => {
                    assert_eq!(capacity, 1);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        assert!(rejected > 0, "one worker + capacity 1 must shed load");
        for t in tickets {
            assert!(t.wait().outcome.is_ok());
        }
        let metrics = svc.shutdown();
        assert_eq!(metrics.counter("serve.rejected_queue_full"), rejected);
        assert_eq!(
            metrics.counter("serve.accepted") + rejected,
            metrics.counter("serve.submitted")
        );
    }

    #[test]
    fn step_budget_failure_is_typed_and_not_retried() {
        let w = gen::random_connected(8, 0.4, 9, 2);
        let svc = SolveService::start(quick_config());
        let mut spec = JobSpec::new(w, JobKind::Shortest { dest: 0 });
        spec.step_budget = Some(10);
        let report = svc.submit(spec).unwrap().wait();
        assert_eq!(
            report.outcome.unwrap_err(),
            ServeError::StepBudgetExhausted { budget: 10 }
        );
        assert_eq!(report.attempts, 1, "resource limits are not retried");
        let metrics = svc.shutdown();
        assert_eq!(metrics.counter("serve.budget_exhausted"), 1);
        assert_eq!(metrics.counter("serve.retries"), 0);
    }

    #[test]
    fn deadline_cancels_cooperatively() {
        // The n = 96 campaign lasts many times its deadline on the default
        // packed backend, so the watchdog fires mid-run even when its
        // thread wakes late on a busy host.
        let w = gen::random_connected(96, 0.4, 9, 8);
        let svc = SolveService::start(quick_config());
        let mut spec = JobSpec::new(
            w,
            JobKind::Apsp {
                resume_from: None,
                checkpoint_every: 1,
            },
        );
        spec.deadline = Some(Duration::from_micros(500));
        let report = svc.submit(spec).unwrap().wait();
        let err = report.outcome.unwrap_err();
        let root = match &err {
            ServeError::Interrupted { cause, .. } => cause.as_ref(),
            other => other,
        };
        assert!(
            matches!(
                root,
                ServeError::DeadlineExceeded | ServeError::DeadlineExpiredInQueue { .. }
            ),
            "expected a deadline-class failure, got {err}"
        );
        let metrics = svc.shutdown();
        assert_eq!(metrics.counter("serve.deadline_exceeded"), 1);
        assert_eq!(metrics.counter("serve.failed"), 1);
    }

    #[test]
    fn client_cancel_stops_a_running_job_with_a_typed_error() {
        // The blocker campaign outlasts the cancel by far on the default
        // packed backend, so the job is still running when the cancel lands.
        let svc = SolveService::start(ServeConfig {
            workers: 1,
            ..quick_config()
        });
        let ticket = occupy(&svc);
        assert!(svc.cancel(ticket.id()), "a running job must be known");
        let report = ticket.wait();
        let err = report.outcome.unwrap_err();
        let root = match &err {
            ServeError::Interrupted { cause, .. } => cause.as_ref(),
            other => other,
        };
        assert!(
            matches!(root, ServeError::Cancelled),
            "expected a client-cancel failure, got {err}"
        );
        let metrics = svc.shutdown();
        assert_eq!(metrics.counter("serve.cancelled"), 1);
        assert_eq!(metrics.counter("serve.cancel_requests"), 1);
        assert_eq!(metrics.counter("serve.deadline_exceeded"), 0);
    }

    #[test]
    fn client_cancel_drops_a_queued_job_unrun() {
        let w = gen::random_connected(24, 0.4, 9, 9);
        let svc = SolveService::start(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            ..quick_config()
        });
        // One long campaign occupies the single worker; the next job
        // waits in the queue where the cancel must reach it.
        let busy = svc
            .submit(JobSpec::new(
                w.clone(),
                JobKind::Apsp {
                    resume_from: None,
                    checkpoint_every: 1,
                },
            ))
            .unwrap();
        let queued = svc
            .submit(JobSpec::new(w, JobKind::Shortest { dest: 0 }))
            .unwrap();
        assert!(svc.cancel(queued.id()), "a queued job must be known");
        let report = queued.wait();
        assert_eq!(report.outcome.unwrap_err(), ServeError::Cancelled);
        assert_eq!(report.attempts, 0, "cancelled in queue: never started");
        assert!(busy.wait().outcome.is_ok());
        let metrics = svc.shutdown();
        assert_eq!(metrics.counter("serve.cancelled"), 1);
    }

    #[test]
    fn cancel_of_a_finished_or_unknown_job_is_a_no_op() {
        let w = gen::ring(5);
        let svc = SolveService::start(quick_config());
        let ticket = svc
            .submit(JobSpec::new(w, JobKind::Shortest { dest: 1 }))
            .unwrap();
        let id = ticket.id();
        assert!(ticket.wait().outcome.is_ok());
        assert!(!svc.cancel(id), "a reported job is no longer cancellable");
        assert!(!svc.cancel(9999), "an unknown id is not cancellable");
        let metrics = svc.shutdown();
        assert_eq!(metrics.counter("serve.cancelled"), 0);
        assert_eq!(metrics.counter("serve.cancel_requests"), 2);
        assert_eq!(metrics.counter("serve.completed"), 1);
    }

    #[test]
    fn chaos_panic_is_isolated_and_worker_replaced() {
        let w = gen::ring(5);
        let svc = SolveService::start(quick_config());
        let report = svc
            .submit(JobSpec::new(w.clone(), JobKind::Chaos))
            .unwrap()
            .wait();
        match report.outcome.unwrap_err() {
            ServeError::WorkerPanicked { message } => {
                assert!(message.contains("chaos"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other}"),
        }
        // The pool still serves after the panic.
        let after = svc
            .submit(JobSpec::new(w, JobKind::Shortest { dest: 1 }))
            .unwrap()
            .wait();
        assert!(after.outcome.is_ok(), "service must survive a worker panic");
        // The supervisor replaces the dead worker asynchronously.
        let mut replaced = 0;
        for _ in 0..200 {
            replaced = svc.metrics().counter("serve.workers_replaced");
            if replaced == 1 {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(replaced, 1);
        let metrics = svc.shutdown();
        assert_eq!(metrics.counter("serve.worker_panics"), 1);
    }

    #[test]
    fn corruption_is_retried_with_backoff_until_exhausted() {
        let w = gen::random_connected(6, 0.5, 9, 4);
        let svc = SolveService::start(ServeConfig {
            workers: 1,
            backend: BackendSpec::Scalar, // keep the breaker out of this test
            ..quick_config()
        });
        let mut spec = JobSpec::new(w, JobKind::Shortest { dest: 0 });
        spec.transient_faults = Some((1.0, 99)); // every transfer corrupted
        let report = svc.submit(spec).unwrap().wait();
        assert!(matches!(report.outcome.unwrap_err(), ServeError::Solver(_)));
        let want_attempts = 1 + RetryPolicy::default().max_retries;
        assert_eq!(report.attempts, want_attempts);
        let metrics = svc.shutdown();
        assert_eq!(
            metrics.counter("serve.retries"),
            u64::from(RetryPolicy::default().max_retries)
        );
    }

    #[test]
    fn breaker_trips_to_scalar_then_probe_recovers_packed() {
        let w = gen::random_connected(6, 0.5, 9, 4);
        let svc = SolveService::start(ServeConfig {
            workers: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_jobs: 1,
            },
            ..quick_config()
        });
        // Attempt 1+2 fail packed (trips at threshold 2); attempt 3 routes
        // scalar (burning the 1-job cooldown -> HalfOpen) and also fails.
        let mut faulty = JobSpec::new(w.clone(), JobKind::Shortest { dest: 0 });
        faulty.transient_faults = Some((1.0, 7));
        let report = svc.submit(faulty).unwrap().wait();
        assert!(report.outcome.is_err());
        assert_eq!(report.backend, Some(BackendSpec::Scalar));
        // Clean job: half-open -> divergence probe passes -> packed again.
        let clean = svc
            .submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: 0 }))
            .unwrap()
            .wait();
        assert_eq!(clean.backend, Some(BackendSpec::Packed));
        assert_eq!(svc.breaker_state(), BreakerState::Closed);
        // The packed answer that came back is the scalar answer: the
        // soak campaign's silent_wrong: 0 invariant has teeth here too.
        let want = McpSession::new(&w).unwrap().solve_verified(0).unwrap();
        match clean.outcome.unwrap() {
            JobOutcome::Shortest(out) => {
                assert_eq!(out.sow, want.sow);
                assert_eq!(out.ptn, want.ptn);
            }
            other => panic!("wrong outcome kind: {other:?}"),
        }
        let metrics = svc.shutdown();
        assert_eq!(metrics.counter("serve.breaker.trips"), 1);
        assert_eq!(metrics.counter("serve.breaker.scalar_fallback"), 1);
        assert_eq!(metrics.counter("serve.breaker.probes"), 1);
        assert_eq!(metrics.counter("serve.breaker.probe_pass"), 1);
    }

    #[test]
    fn apsp_interrupts_with_checkpoint_and_resumes_byte_identically() {
        let w = gen::random_connected(6, 0.5, 9, 31);

        // Reference: the uninterrupted campaign document.
        let svc = SolveService::start(quick_config());
        let full = svc
            .submit(JobSpec::new(
                w.clone(),
                JobKind::Apsp {
                    resume_from: None,
                    checkpoint_every: 1,
                },
            ))
            .unwrap()
            .wait();
        let JobOutcome::Apsp(reference) = full.outcome.unwrap() else {
            panic!("expected an APSP outcome");
        };

        // Measure the full campaign's step cost, then grant half of it.
        let mut session = McpSession::new(&w).unwrap();
        session.ppa_mut().limit_steps(1_000_000);
        session.all_pairs().unwrap();
        let used = 1_000_000 - session.ppa_mut().steps_remaining().unwrap();

        let mut partial = JobSpec::new(
            w.clone(),
            JobKind::Apsp {
                resume_from: None,
                checkpoint_every: 1,
            },
        );
        partial.step_budget = Some(used / 2);
        let interrupted = svc.submit(partial).unwrap().wait();
        let ServeError::Interrupted { checkpoint, cause } = interrupted.outcome.unwrap_err() else {
            panic!("half the steps must interrupt mid-campaign");
        };
        assert!(matches!(*cause, ServeError::StepBudgetExhausted { .. }));
        let flushed = ApspCheckpoint::from_json(&checkpoint).unwrap();
        assert!(
            flushed.next_dest() > 0,
            "some destination must have flushed"
        );
        assert!(!flushed.is_complete());

        // Resume from the flushed checkpoint; no budget this time.
        let resumed = svc
            .submit(JobSpec::new(
                w,
                JobKind::Apsp {
                    resume_from: Some(checkpoint),
                    checkpoint_every: 1,
                },
            ))
            .unwrap()
            .wait();
        let JobOutcome::Apsp(resumed_doc) = resumed.outcome.unwrap() else {
            panic!("resumed campaign must complete");
        };
        assert_eq!(
            resumed_doc.to_string_compact(),
            reference.to_string_compact(),
            "resumed campaign must be byte-identical to the uninterrupted one"
        );
        let metrics = svc.shutdown();
        assert_eq!(metrics.counter("serve.resumes"), 1);
        assert!(metrics.counter("serve.checkpoints") > 0);
    }

    #[test]
    fn invalid_resume_document_is_a_typed_error() {
        let svc = SolveService::start(quick_config());
        let report = svc
            .submit(JobSpec::new(
                gen::ring(4),
                JobKind::Apsp {
                    resume_from: Some(Json::Null),
                    checkpoint_every: 1,
                },
            ))
            .unwrap()
            .wait();
        assert!(matches!(
            report.outcome.unwrap_err(),
            ServeError::InvalidResume { .. }
        ));
        svc.shutdown();
    }

    #[test]
    fn drain_reports_every_accepted_job() {
        let w = gen::random_connected(6, 0.4, 9, 13);
        let svc = SolveService::start(ServeConfig {
            workers: 2,
            queue_capacity: 32,
            ..quick_config()
        });
        let tickets: Vec<_> = (0..10)
            .map(|d| {
                svc.submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: d % 6 }))
                    .unwrap()
            })
            .collect();
        let metrics = svc.shutdown(); // drain first, then collect
        for t in tickets {
            assert!(t.wait().outcome.is_ok(), "drained job lost its report");
        }
        assert_eq!(metrics.counter("serve.accepted"), 10);
        assert_eq!(metrics.counter("serve.completed"), 10);
    }

    #[test]
    fn introspection_reconciles_on_an_idle_service() {
        let w = gen::random_connected(6, 0.4, 9, 17);
        let svc = SolveService::start(quick_config());
        // Workers register before their threads start, so the pool is
        // complete from the first snapshot on.
        assert_eq!(svc.introspect().workers.len(), 2, "registered at start");
        let tickets: Vec<_> = (0..4)
            .map(|d| {
                svc.submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: d % 6 }))
                    .unwrap()
            })
            .collect();
        for t in tickets {
            assert!(t.wait().outcome.is_ok());
        }
        let snap = svc.introspect();
        assert_eq!(snap.queue_depth, 0, "all tickets reported: queue empty");
        assert!(snap.inflight.is_empty(), "no job can still be running");
        assert!(snap.accepting);
        assert_eq!(snap.workers.len(), 2, "quick_config starts two workers");
        assert!(snap.workers.iter().all(|w| w.job.is_none()));
        assert_eq!(snap.breaker.state, "closed");
        assert_eq!(snap.retries, 0);
        assert_eq!(snap.workers_replaced, 0);
        assert_eq!(snap.metrics.counter("serve.accepted"), 4);
        assert_eq!(snap.metrics.counter("serve.completed"), 4);
        assert_eq!(
            snap.metrics
                .histogram("serve.queue_wait_us")
                .map_or(0, |h| h.count),
            snap.metrics.counter("serve.accepted"),
            "every accepted job records its queue wait once"
        );
        svc.shutdown();
    }

    #[test]
    fn live_snapshot_round_trips_exactly_and_sees_running_jobs() {
        // At n = 96 the campaign lasts many polling intervals on the
        // default packed backend; a small one can start and finish between
        // two polls.
        let w = gen::random_connected(96, 0.4, 9, 23);
        let svc = SolveService::start(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            ..quick_config()
        });
        let mut spec = JobSpec::new(
            w,
            JobKind::Apsp {
                resume_from: None,
                checkpoint_every: 1,
            },
        );
        spec.deadline = Some(Duration::from_secs(60));
        let ticket = svc.submit(spec).unwrap();
        // Poll until the single worker has picked the job up.
        let mut seen_running = None;
        for _ in 0..400 {
            let snap = svc.introspect();
            if let Some(job) = snap.inflight.first() {
                seen_running = Some(snap.clone());
                let _ = job;
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        let snap = seen_running.expect("a 96-vertex APSP must be observable in flight");
        let job = &snap.inflight[0];
        assert_eq!(job.id, ticket.id());
        assert_eq!(job.kind, "apsp");
        assert_eq!(job.deadline_us, Some(60_000_000));
        let running = snap
            .workers
            .iter()
            .find(|v| v.job == Some(job.id))
            .expect("the worker executing the job must be marked running");
        assert_eq!(running.index, job.worker);
        // The live snapshot round-trips exactly, bytes and all.
        let doc = snap.to_json();
        let back = Introspection::from_json(&doc).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json().to_string_compact(), doc.to_string_compact());
        assert!(ticket.wait().outcome.is_ok());
        svc.shutdown();
    }

    #[test]
    fn introspection_tracks_panic_replacement_and_drain() {
        let svc = SolveService::start(quick_config());
        let report = svc
            .submit(JobSpec::new(gen::ring(5), JobKind::Chaos))
            .unwrap()
            .wait();
        assert!(matches!(
            report.outcome.unwrap_err(),
            ServeError::WorkerPanicked { .. }
        ));
        // Wait for the supervisor to install the replacement worker.
        let mut snap = svc.introspect();
        for _ in 0..200 {
            snap = svc.introspect();
            if snap.workers_replaced == 1 && snap.workers.len() == 2 {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(snap.workers_replaced, 1);
        assert_eq!(snap.workers.len(), 2, "replacement registered");
        assert!(
            snap.workers.iter().any(|w| w.index >= 2),
            "the replacement gets a fresh index: {:?}",
            snap.workers
        );
        assert!(snap.inflight.is_empty(), "the chaos job is gone");
        let metrics = svc.shutdown();
        assert_eq!(metrics.counter("serve.worker_panics"), 1);
    }

    fn fast_scrub() -> ScrubConfig {
        ScrubConfig {
            enabled: true,
            idle_after: Duration::from_micros(200),
            min_interval: Duration::from_micros(100),
            duty_cycle: 1.0,
            probe_n: 5,
            benched_pause: Duration::from_micros(200),
        }
    }

    #[test]
    fn idle_workers_scrub_between_jobs_and_stay_healthy() {
        let svc = SolveService::start(ServeConfig {
            workers: 2,
            scrubbing: fast_scrub(),
            ..quick_config()
        });
        // Let the idle pool sweep a few times.
        let mut metrics = svc.metrics();
        for _ in 0..500 {
            metrics = svc.metrics();
            if metrics.counter("serve.scrub.sweeps") >= 3 {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        assert!(
            metrics.counter("serve.scrub.sweeps") >= 3,
            "pool never scrubbed"
        );
        assert_eq!(
            metrics.counter("serve.scrub.clean"),
            metrics.counter("serve.scrub.sweeps"),
            "clean machines must sweep clean"
        );
        assert!(metrics.counter("serve.scrub.steps") > 0, "BIST costs steps");
        let snap = svc.introspect();
        assert!(
            snap.health.iter().all(|h| h.state == "healthy"),
            "{:?}",
            snap.health
        );
        assert_eq!(snap.quarantine_leaks, 0);
        // Scrubbing never blocks serving: jobs still solve to reference.
        let w = gen::random_connected(6, 0.4, 9, 31);
        let report = svc
            .submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: 1 }))
            .unwrap()
            .wait();
        let want = McpSession::new(&w).unwrap().solve_verified(1).unwrap();
        match report.outcome.unwrap() {
            JobOutcome::Shortest(out) => assert_eq!(out.sow, want.sow),
            other => panic!("wrong outcome kind: {other:?}"),
        }
        svc.shutdown();
    }

    #[test]
    fn a_planted_fault_is_quarantined_benched_and_readmitted() {
        let svc = SolveService::start(ServeConfig {
            workers: 1,
            scrubbing: fast_scrub(),
            // Worker 0's machines carry three stuck switches until two
            // faulty machines have been built — then the "repair" lands
            // and re-admission can be earned.
            fault_plan: MachineFaultPlan::default().with(
                0,
                FaultSpec {
                    count: 3,
                    seed: 0xFA117,
                    heal_after_builds: Some(2),
                },
            ),
            ..quick_config()
        });
        // The full drill: scrub localizes the fault -> quarantine (+ a
        // replacement worker) -> clean sweep -> probation -> clean
        // probes -> readmitted.
        let mut metrics = svc.metrics();
        for _ in 0..2000 {
            metrics = svc.metrics();
            if metrics.counter("serve.health.readmitted") >= 1 {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        assert!(
            metrics.counter("serve.health.readmitted") >= 1,
            "worker 0 was never readmitted: {metrics:?}"
        );
        assert!(metrics.counter("serve.scrub.faulty") >= 1);
        assert!(metrics.counter("serve.health.quarantined") >= 1);
        assert!(
            metrics.counter("serve.health.replacements") >= 1,
            "a benched machine must be replaced to keep capacity"
        );
        assert!(metrics.counter("serve.health.probes") >= 1);
        assert_eq!(
            metrics.counter("serve.health.quarantine_leaks"),
            0,
            "no job may ever reach a benched machine"
        );
        let snap = svc.introspect();
        let rec = snap
            .health
            .iter()
            .find(|h| h.worker == 0)
            .expect("worker 0 keeps its ledger record");
        assert_eq!(rec.state, "healthy", "{rec:?}");
        assert!(rec.bist_faults >= 1);
        // The healed, readmitted pool serves correctly.
        let w = gen::random_connected(6, 0.4, 9, 37);
        let report = svc
            .submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: 0 }))
            .unwrap()
            .wait();
        assert!(report.outcome.is_ok());
        svc.shutdown();
    }

    #[test]
    fn redundant_shortest_solves_are_bit_identical_to_the_reference() {
        for mode in [Redundancy::Dmr, Redundancy::Tmr { correct: true }] {
            let w = gen::random_connected(6, 0.4, 9, 41);
            let svc = SolveService::start(ServeConfig {
                workers: 1,
                redundancy: mode,
                ..quick_config()
            });
            let report = svc
                .submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: 2 }))
                .unwrap()
                .wait();
            let want = McpSession::new(&w).unwrap().solve_verified(2).unwrap();
            match report.outcome.unwrap() {
                JobOutcome::Shortest(out) => {
                    assert_eq!(out.sow, want.sow, "{mode}");
                    assert_eq!(out.ptn, want.ptn, "{mode}");
                    assert_eq!(out.iterations, want.iterations, "{mode}");
                }
                other => panic!("wrong outcome kind: {other:?}"),
            }
            let metrics = svc.shutdown();
            assert_eq!(metrics.counter("serve.completed"), 1);
            assert_eq!(metrics.counter("serve.health.vote_disagreements"), 0);
        }
    }

    #[test]
    fn redundant_batched_waves_match_the_reference() {
        let w = gen::random_connected(6, 0.4, 9, 43);
        let svc = SolveService::start(ServeConfig {
            workers: 1,
            redundancy: Redundancy::Tmr { correct: true },
            batching: BatchingConfig {
                enabled: true,
                max_lanes: 9,
            },
            ..quick_config()
        });
        let tickets: Vec<_> = (0..4)
            .map(|d| {
                svc.submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: d % 6 }))
                    .unwrap()
            })
            .collect();
        for (d, t) in tickets.into_iter().enumerate() {
            let want = McpSession::new(&w).unwrap().solve_verified(d % 6).unwrap();
            match t.wait().outcome.unwrap() {
                JobOutcome::Shortest(out) => {
                    assert_eq!(out.sow, want.sow);
                    assert_eq!(out.ptn, want.ptn);
                }
                other => panic!("wrong outcome kind: {other:?}"),
            }
        }
        let metrics = svc.shutdown();
        assert_eq!(metrics.counter("serve.completed"), 4);
        assert_eq!(metrics.counter("serve.health.vote_disagreements"), 0);
    }

    #[test]
    fn a_faulty_redundant_pool_never_returns_a_silent_wrong() {
        // A permanently faulty worker under DMR: every job either
        // returns the bit-identical reference answer or a typed
        // corruption-class failure — never a silently wrong result.
        let w = gen::random_connected(6, 0.4, 9, 47);
        let svc = SolveService::start(ServeConfig {
            workers: 1,
            redundancy: Redundancy::Dmr,
            fault_plan: MachineFaultPlan::default().with(
                0,
                FaultSpec {
                    count: 2,
                    seed: 0xBAD,
                    heal_after_builds: None,
                },
            ),
            ..quick_config()
        });
        let want = McpSession::new(&w).unwrap().solve_verified(1).unwrap();
        let mut disagreements_seen = false;
        for _ in 0..4 {
            let report = svc
                .submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: 1 }))
                .unwrap()
                .wait();
            match report.outcome {
                Ok(JobOutcome::Shortest(out)) => {
                    assert_eq!(out.sow, want.sow, "silent wrong accepted");
                    assert_eq!(out.ptn, want.ptn, "silent wrong accepted");
                }
                Ok(other) => panic!("wrong outcome kind: {other:?}"),
                Err(ServeError::Solver(e)) => {
                    assert!(e.indicates_corruption(), "untyped failure: {e}");
                }
                Err(other) => panic!("unexpected serve error: {other}"),
            }
        }
        let metrics = svc.shutdown();
        if metrics.counter("serve.health.vote_disagreements") > 0 {
            disagreements_seen = true;
            assert!(metrics.counter("serve.health.sightings") > 0);
        }
        // The planted faults sit on real job machines; whether they
        // disturb this workload is seed-dependent, but when they do the
        // ledger must have seen it.
        let _ = disagreements_seen;
    }

    /// Occupies the only worker of `svc` with a long all-pairs campaign
    /// and returns its ticket once the worker has picked it up, so the
    /// jobs submitted next queue behind it. At n = 96 even a packed
    /// campaign, or a faulty machine's three failing attempts, lasts tens
    /// of milliseconds.
    fn occupy(svc: &SolveService) -> JobTicket {
        let w = gen::random_connected(96, 0.3, 9, 0xB10C);
        let blocker = svc
            .submit(JobSpec::new(
                w,
                JobKind::Apsp {
                    resume_from: None,
                    checkpoint_every: 1,
                },
            ))
            .unwrap();
        for _ in 0..2000 {
            if svc.queue_depth() == 0 {
                return blocker;
            }
            thread::sleep(Duration::from_millis(1));
        }
        panic!("the blocker was never picked up");
    }

    /// A queued job for [`Intake::take`] tests: `key` is its batch key.
    fn queued(id: u64, key: Option<(usize, u32)>) -> QueuedJob {
        QueuedJob {
            id,
            spec: JobSpec::new(gen::ring(4), JobKind::Shortest { dest: 0 }),
            submitted: Instant::now(),
            reply: mpsc::channel().0,
            token: CancelToken::new(),
            batch_key: key,
        }
    }

    fn ids(wave: Option<Vec<QueuedJob>>) -> Vec<u64> {
        wave.unwrap_or_default().iter().map(|j| j.id).collect()
    }

    #[test]
    fn a_worker_takes_its_share_of_same_key_jobs_in_order() {
        let intake = Intake::new(&ServeConfig {
            workers: 2,
            batching: BatchingConfig {
                enabled: true,
                max_lanes: 16,
            },
            ..quick_config()
        });
        let (a, b) = (Some((8, 5)), Some((9, 5)));
        let mut jobs: VecDeque<QueuedJob> = [(0, a), (1, None), (2, b), (3, a), (4, a), (5, a)]
            .into_iter()
            .map(|(id, key)| queued(id, key))
            .collect();
        // Six queued over two workers: a share of 3, skipping the
        // ineligible and other-key jobs, oldest first.
        assert_eq!(ids(intake.take(&mut jobs)), [0, 3, 4]);
        // The head is ineligible: a single, however long the queue.
        assert_eq!(ids(intake.take(&mut jobs)), [1]);
        // Two queued over two workers: a share of 1.
        assert_eq!(ids(intake.take(&mut jobs)), [2]);
        assert_eq!(ids(intake.take(&mut jobs)), [5]);
        assert!(intake.take(&mut jobs).is_none());
        // One worker's share is the whole backlog, capped by max_lanes
        // over the replica count: 9 lanes of TMR carry 3 jobs.
        let voted = Intake::new(&ServeConfig {
            workers: 1,
            redundancy: Redundancy::Tmr { correct: true },
            batching: BatchingConfig {
                enabled: true,
                max_lanes: 9,
            },
            ..quick_config()
        });
        let mut jobs: VecDeque<QueuedJob> = (0..5).map(|id| queued(id, a)).collect();
        assert_eq!(ids(voted.take(&mut jobs)), [0, 1, 2]);
        assert_eq!(ids(voted.take(&mut jobs)), [3, 4]);
    }

    #[test]
    fn plain_coalesced_waves_carry_the_worker_fault_plan() {
        // Batching on, redundancy off, and a permanently faulty worker:
        // the batched wave is built on that worker's (faulty) machine,
        // so its corruption must surface and fall back to the solo path —
        // and no job may come back silently wrong.
        let w = gen::random_connected(6, 0.4, 9, 53);
        let svc = SolveService::start(ServeConfig {
            workers: 1,
            backend: BackendSpec::Scalar,
            batching: BatchingConfig {
                enabled: true,
                max_lanes: 4,
            },
            fault_plan: MachineFaultPlan::default().with(
                0,
                FaultSpec {
                    count: 3,
                    seed: 0xBAD,
                    heal_after_builds: None,
                },
            ),
            ..quick_config()
        });
        // The four jobs queue behind a blocker, so the worker takes them
        // as one wave of four once the blocker is cancelled.
        let blocker = occupy(&svc);
        let tickets: Vec<_> = (0..4)
            .map(|d| {
                svc.submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: d }))
                    .unwrap()
            })
            .collect();
        assert_eq!(
            svc.queue_depth(),
            4,
            "the wave must queue behind the blocker"
        );
        assert!(svc.cancel(blocker.id()));
        assert!(blocker.wait().outcome.is_err());
        for (d, t) in tickets.into_iter().enumerate() {
            let want = McpSession::new(&w).unwrap().solve_verified(d).unwrap();
            match t.wait().outcome {
                Ok(JobOutcome::Shortest(out)) => {
                    assert_eq!(out.sow, want.sow, "silent wrong accepted");
                    assert_eq!(out.ptn, want.ptn, "silent wrong accepted");
                }
                Ok(other) => panic!("wrong outcome kind: {other:?}"),
                Err(ServeError::Solver(e)) => {
                    assert!(e.indicates_corruption(), "untyped failure: {e}");
                }
                Err(other) => panic!("unexpected serve error: {other}"),
            }
        }
        let metrics = svc.shutdown();
        assert_eq!(metrics.counter("serve.batch.jobs"), 4, "one wave of four");
        assert!(
            metrics.counter("serve.batch.fallback_single") > 0,
            "the wave never saw the worker's faults: {metrics:?}"
        );
    }
}
