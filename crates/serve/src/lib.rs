//! `ppa-serve` — a hardened concurrent solve service over the PPA stack.
//!
//! The solver crates answer *"is the algorithm right?"*; this crate
//! answers *"can it be operated?"*. A [`SolveService`] runs a pool of
//! worker threads over [`McpSession`](ppa_mcp::McpSession)s and accepts
//! MCP, widest-path, and all-pairs jobs through a **bounded** queue:
//!
//! * **Backpressure** — a full queue rejects the submission
//!   ([`ServeError::Rejected`]) instead of buffering unboundedly.
//! * **Deadlines & step budgets** — a watchdog cancels the machine
//!   cooperatively ([`ppa_machine::CancelToken`]) when a job's deadline
//!   passes, and every attempt runs under a controller step budget, so a
//!   pathological input (the paper's `O(p·h)` loop with an adversarial
//!   `p`) can never wedge a worker. Both surface as typed errors.
//! * **Panic isolation** — a panicking job is caught, reported as
//!   [`ServeError::WorkerPanicked`], and the worker is replaced by a
//!   supervisor thread. No ticket is ever left hanging.
//! * **Retries** — corruption-class failures (transient injected faults)
//!   are retried on a fresh machine with exponential backoff + jitter
//!   ([`RetryPolicy`]), reusing the recovery layer's failure taxonomy.
//! * **Circuit breaking** — repeated failures on the fast backend
//!   ([`ServeConfig::backend`]: packed by default) trip a
//!   [`CircuitBreaker`] that falls back to the scalar
//!   reference backend and only re-admits fast traffic after a live
//!   divergence probe passes.
//! * **Self-healing** — shortest-path jobs can run lane-replicated
//!   under DMR/TMR voting ([`ServeConfig::redundancy`]); a background
//!   scrubber runs six-pattern BIST on idle workers under a duty-cycle
//!   budget, and a persistent per-machine [`HealthLedger`] quarantines
//!   machines with localized faults (routing jobs away, spinning up
//!   replacements) and re-admits them only after a clean sweep plus N
//!   clean probe solves.
//! * **Checkpoint/resume** — all-pairs campaigns flush an
//!   [`ApspCheckpoint`] as they go; an interrupted campaign returns
//!   [`ServeError::Interrupted`] with the last flushed document and can
//!   be resumed to a byte-identical final result.
//!
//! Everything observable flows through [`ppa_obs::Metrics`] under
//! `serve.*` names, so a client can reconcile what it saw (rejections,
//! deadline misses, retries, panics) 1:1 against the service's own
//! counters — the stress campaign in `ppa-bench` does exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod checkpoint;
pub mod health;
pub mod introspect;
pub mod job;
pub mod net;
pub mod policy;
pub mod service;
pub mod shard;
pub mod wire;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, Route};
pub use checkpoint::{ApspCheckpoint, DestResult};
pub use health::{HealthLedger, HealthPolicy, HealthRecord, MachineHealth};
pub use introspect::{
    BreakerView, HealthView, InflightJob, Introspection, StatusReporter, WorkerView,
};
pub use job::{JobKind, JobOutcome, JobReport, JobSpec, ServeError};
pub use net::{ClientError, NetClient, NetConfig, NetServer};
pub use policy::RetryPolicy;
pub use service::{
    BatchingConfig, FaultSpec, JobTicket, MachineFaultPlan, ScrubConfig, ServeConfig, SolveService,
};
pub use shard::{
    merge_shard_files, merge_shards, run_shard_worker, shard_ranges, ShardCheckpoint, ShardError,
};
pub use wire::{Request, Response, SubmitRequest, WireError, WireFailure};
