//! Point-in-time service introspection: a JSON-round-trippable snapshot
//! of everything a live [`SolveService`] knows
//! about itself — queue depth, in-flight jobs with their age and
//! deadline, per-worker state, breaker state, the retry/replacement
//! counters, and the full merged metrics registry.
//!
//! The snapshot is *exact*: [`Introspection::from_json`] of
//! [`Introspection::to_json`] reproduces the value (and its JSON bytes)
//! identically, so a snapshot persisted by `report serve` or dumped by
//! `solve --serve --status-every` can be diffed, archived, and
//! reconciled against client-side tallies without loss.

use crate::breaker::BreakerState;
use crate::service::SolveService;
use ppa_obs::{Json, Metrics};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One job the pool is executing right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InflightJob {
    /// Job id (matches the ticket and the eventual report).
    pub id: u64,
    /// Job kind label (`shortest`, `widest`, `apsp`, `chaos`).
    pub kind: String,
    /// Microseconds since the job was submitted.
    pub age_us: u64,
    /// Effective deadline in microseconds from submission (per-job
    /// deadline, else the service default), when one applies.
    pub deadline_us: Option<u64>,
    /// Index of the worker executing the job.
    pub worker: u64,
}

impl InflightJob {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Num(self.id as f64)),
            ("kind", Json::Str(self.kind.clone())),
            ("age_us", Json::Num(self.age_us as f64)),
            (
                "deadline_us",
                match self.deadline_us {
                    Some(d) => Json::Num(d as f64),
                    None => Json::Null,
                },
            ),
            ("worker", Json::Num(self.worker as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<InflightJob, String> {
        Ok(InflightJob {
            id: field_u64(v, "id")?,
            kind: field_str(v, "kind")?,
            age_us: field_u64(v, "age_us")?,
            deadline_us: match v.get("deadline_us") {
                Some(Json::Null) | None => None,
                Some(d) => Some(
                    d.as_f64()
                        .ok_or_else(|| "inflight deadline_us is not a number".to_owned())?
                        as u64,
                ),
            },
            worker: field_u64(v, "worker")?,
        })
    }
}

/// One worker thread's state at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerView {
    /// Worker index (monotonically assigned; replacements get new
    /// indices, so gaps mean panics happened).
    pub index: u64,
    /// The id of the job this worker is executing, `None` when idle
    /// (blocked on the intake queue) or scrubbing.
    pub job: Option<u64>,
    /// Whether the worker is sweeping/probing its machine right now
    /// (background scrub, quarantine sweep, or probation probe). A
    /// scrubbing worker is deliberately *not* "idle", so client tallies
    /// reconcile 1:1 against snapshots.
    pub scrubbing: bool,
}

impl WorkerView {
    fn state_label(self) -> &'static str {
        if self.job.is_some() {
            "running"
        } else if self.scrubbing {
            "scrubbing"
        } else {
            "idle"
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("index", Json::Num(self.index as f64)),
            ("state", Json::Str(self.state_label().to_owned())),
            (
                "job",
                match self.job {
                    Some(id) => Json::Num(id as f64),
                    None => Json::Null,
                },
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<WorkerView, String> {
        let job = match v.get("job") {
            Some(Json::Null) | None => None,
            Some(j) => Some(
                j.as_f64()
                    .ok_or_else(|| "worker job is not a number".to_owned())? as u64,
            ),
        };
        let state = field_str(v, "state")?;
        let scrubbing = match state.as_str() {
            "running" | "idle" => false,
            "scrubbing" => true,
            other => return Err(format!("unknown worker state {other:?}")),
        };
        let view = WorkerView {
            index: field_u64(v, "index")?,
            job,
            scrubbing,
        };
        if state != view.state_label() {
            return Err(format!(
                "worker state {state:?} contradicts its job field (expected {:?})",
                view.state_label()
            ));
        }
        Ok(view)
    }
}

/// One machine's health-ledger record at snapshot time (see
/// [`crate::health::HealthLedger`]). Records outlive their workers, so
/// a snapshot may show machines whose worker already exited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthView {
    /// Worker index the machine belongs to.
    pub worker: u64,
    /// Quarantine state label: `healthy`, `suspect`, `quarantined`, or
    /// `probation`.
    pub state: String,
    /// Corruption-class failures sighted while serving.
    pub fault_sightings: u64,
    /// Redundant-vote disagreements among the sightings.
    pub vote_disagreements: u64,
    /// BIST sweeps run against this machine.
    pub scrubs: u64,
    /// Sweeps that localized at least one stuck switch.
    pub bist_faults: u64,
    /// Probation probe solves.
    pub probes: u64,
    /// Consecutive clean observations in the current state.
    pub clean_streak: u64,
}

impl HealthView {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("worker", Json::Num(self.worker as f64)),
            ("state", Json::Str(self.state.clone())),
            ("fault_sightings", Json::Num(self.fault_sightings as f64)),
            (
                "vote_disagreements",
                Json::Num(self.vote_disagreements as f64),
            ),
            ("scrubs", Json::Num(self.scrubs as f64)),
            ("bist_faults", Json::Num(self.bist_faults as f64)),
            ("probes", Json::Num(self.probes as f64)),
            ("clean_streak", Json::Num(self.clean_streak as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<HealthView, String> {
        let view = HealthView {
            worker: field_u64(v, "worker")?,
            state: field_str(v, "state")?,
            fault_sightings: field_u64(v, "fault_sightings")?,
            vote_disagreements: field_u64(v, "vote_disagreements")?,
            scrubs: field_u64(v, "scrubs")?,
            bist_faults: field_u64(v, "bist_faults")?,
            probes: field_u64(v, "probes")?,
            clean_streak: field_u64(v, "clean_streak")?,
        };
        match view.state.as_str() {
            "healthy" | "suspect" | "quarantined" | "probation" => Ok(view),
            other => Err(format!("unknown machine health state {other:?}")),
        }
    }
}

/// The circuit breaker's state, flattened for JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerView {
    /// `closed`, `open`, or `half-open`.
    pub state: String,
    /// Jobs left in the Open-state cooldown (0 unless `state == open`).
    pub cooldown_left: u64,
}

impl BreakerView {
    /// Flattens a live [`BreakerState`].
    pub fn from_state(s: BreakerState) -> BreakerView {
        match s {
            BreakerState::Closed => BreakerView {
                state: "closed".to_owned(),
                cooldown_left: 0,
            },
            BreakerState::Open { cooldown_left } => BreakerView {
                state: "open".to_owned(),
                cooldown_left: u64::from(cooldown_left),
            },
            BreakerState::HalfOpen => BreakerView {
                state: "half-open".to_owned(),
                cooldown_left: 0,
            },
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("state", Json::Str(self.state.clone())),
            ("cooldown_left", Json::Num(self.cooldown_left as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<BreakerView, String> {
        let view = BreakerView {
            state: field_str(v, "state")?,
            cooldown_left: field_u64(v, "cooldown_left")?,
        };
        match view.state.as_str() {
            "closed" | "open" | "half-open" => Ok(view),
            other => Err(format!("unknown breaker state {other:?}")),
        }
    }
}

/// A point-in-time snapshot of a running [`SolveService`]
/// (see [`SolveService::introspect`](crate::SolveService::introspect)).
#[derive(Debug, Clone, PartialEq)]
pub struct Introspection {
    /// Jobs accepted but not yet picked up by a worker.
    pub queue_depth: u64,
    /// Whether the intake is open (`false` once a drain began).
    pub accepting: bool,
    /// Lanes of batched waves executing right now (counts lanes,
    /// not batches; always 0 with batching disabled).
    pub batch_lanes_inflight: u64,
    /// Jobs currently executing, ordered by id.
    pub inflight: Vec<InflightJob>,
    /// Live workers, ordered by index.
    pub workers: Vec<WorkerView>,
    /// Per-machine health records, ordered by worker index (persistent:
    /// includes machines whose worker already exited).
    pub health: Vec<HealthView>,
    /// Circuit-breaker state.
    pub breaker: BreakerView,
    /// Convenience mirror of the `serve.retries` counter.
    pub retries: u64,
    /// Convenience mirror of the `serve.workers_replaced` counter.
    pub workers_replaced: u64,
    /// Convenience mirror of the `serve.health.quarantine_leaks`
    /// counter — the chaos drill's "no job ever reached a benched
    /// machine" audit; always 0 unless the health gate is broken.
    pub quarantine_leaks: u64,
    /// The full metrics registry at snapshot time.
    pub metrics: Metrics,
}

impl Introspection {
    /// Serializes the snapshot. The field order is fixed, so equal
    /// snapshots always produce byte-identical JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("queue_depth", Json::Num(self.queue_depth as f64)),
            ("accepting", Json::Bool(self.accepting)),
            (
                "batch_lanes_inflight",
                Json::Num(self.batch_lanes_inflight as f64),
            ),
            ("breaker", self.breaker.to_json()),
            (
                "workers",
                Json::Array(self.workers.iter().map(|w| w.to_json()).collect()),
            ),
            (
                "health",
                Json::Array(self.health.iter().map(HealthView::to_json).collect()),
            ),
            (
                "inflight",
                Json::Array(self.inflight.iter().map(InflightJob::to_json).collect()),
            ),
            ("retries", Json::Num(self.retries as f64)),
            ("workers_replaced", Json::Num(self.workers_replaced as f64)),
            ("quarantine_leaks", Json::Num(self.quarantine_leaks as f64)),
            ("metrics", self.metrics.to_json()),
        ])
    }

    /// Parses a snapshot serialized by [`Introspection::to_json`].
    ///
    /// # Errors
    /// A message naming the first malformed field.
    pub fn from_json(v: &Json) -> Result<Introspection, String> {
        let workers = match v.get("workers") {
            Some(Json::Array(items)) => items
                .iter()
                .map(WorkerView::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing workers array".to_owned()),
        };
        let health = match v.get("health") {
            Some(Json::Array(items)) => items
                .iter()
                .map(HealthView::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing health array".to_owned()),
        };
        let inflight = match v.get("inflight") {
            Some(Json::Array(items)) => items
                .iter()
                .map(InflightJob::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing inflight array".to_owned()),
        };
        Ok(Introspection {
            queue_depth: field_u64(v, "queue_depth")?,
            accepting: match v.get("accepting") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("missing accepting flag".to_owned()),
            },
            batch_lanes_inflight: field_u64(v, "batch_lanes_inflight")?,
            inflight,
            workers,
            health,
            breaker: BreakerView::from_json(
                v.get("breaker")
                    .ok_or_else(|| "missing breaker".to_owned())?,
            )?,
            retries: field_u64(v, "retries")?,
            workers_replaced: field_u64(v, "workers_replaced")?,
            quarantine_leaks: field_u64(v, "quarantine_leaks")?,
            metrics: Metrics::from_json(
                v.get("metrics")
                    .ok_or_else(|| "missing metrics".to_owned())?,
            )?,
        })
    }
}

/// A periodic status dumper with a **guaranteed final snapshot**: the
/// sink receives an [`Introspection`] every `period` while the service
/// runs, and exactly one more — flagged `final` — taken strictly
/// *after* [`StatusReporter::finish`] was called. Because the caller
/// finishes the reporter only after its last ticket reported, the
/// final snapshot's counters are settled and reconcile 1:1 against
/// client-side tallies (`solve --serve --status-every` relies on this;
/// the raw sidecar thread it replaced could take its last snapshot
/// before the report landed and miss the job's own counters).
pub struct StatusReporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StatusReporter {
    /// Starts the reporter thread. `sink` is called as
    /// `sink(snapshot, is_final)`; `is_final` is `true` on exactly the
    /// last call, which happens after `finish` (or drop) requested the
    /// stop.
    pub fn start(
        svc: Arc<SolveService>,
        period: Duration,
        mut sink: impl FnMut(Introspection, bool) + Send + 'static,
    ) -> StatusReporter {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Acquire) {
                sink(svc.introspect(), false);
                // Sleep in slices so a finish() mid-period is observed
                // promptly instead of after a full period.
                let mut slept = Duration::ZERO;
                while slept < period && !flag.load(Ordering::Acquire) {
                    let slice = (period - slept).min(Duration::from_millis(10));
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
            // The guaranteed final snapshot: taken only after the stop
            // request, so every counter the caller could have observed
            // is already in it.
            sink(svc.introspect(), true);
        });
        StatusReporter {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the reporter and blocks until the final snapshot has been
    /// delivered to the sink.
    pub fn finish(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StatusReporter {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn field_u64(v: &Json, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(Json::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("missing numeric field {name:?}"))
}

fn field_str(v: &Json, name: &str) -> Result<String, String> {
    match v.get(name) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field {name:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Introspection {
        let mut metrics = Metrics::new();
        metrics.inc("serve.accepted", 5);
        metrics.observe("serve.latency_us", 1234);
        Introspection {
            queue_depth: 2,
            accepting: true,
            batch_lanes_inflight: 3,
            inflight: vec![InflightJob {
                id: 7,
                kind: "apsp".to_owned(),
                age_us: 431,
                deadline_us: Some(9000),
                worker: 1,
            }],
            workers: vec![
                WorkerView {
                    index: 0,
                    job: None,
                    scrubbing: false,
                },
                WorkerView {
                    index: 1,
                    job: Some(7),
                    scrubbing: false,
                },
                WorkerView {
                    index: 2,
                    job: None,
                    scrubbing: true,
                },
            ],
            health: vec![
                HealthView {
                    worker: 0,
                    state: "healthy".to_owned(),
                    fault_sightings: 0,
                    vote_disagreements: 0,
                    scrubs: 3,
                    bist_faults: 0,
                    probes: 0,
                    clean_streak: 3,
                },
                HealthView {
                    worker: 2,
                    state: "quarantined".to_owned(),
                    fault_sightings: 2,
                    vote_disagreements: 1,
                    scrubs: 4,
                    bist_faults: 2,
                    probes: 1,
                    clean_streak: 0,
                },
            ],
            breaker: BreakerView::from_state(BreakerState::Open { cooldown_left: 3 }),
            retries: 4,
            workers_replaced: 1,
            quarantine_leaks: 0,
            metrics,
        }
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let snap = sample();
        let doc = snap.to_json();
        let back = Introspection::from_json(&doc).unwrap();
        assert_eq!(back, snap);
        assert_eq!(
            back.to_json().to_string_compact(),
            doc.to_string_compact(),
            "round-tripped snapshot must re-serialize byte-identically"
        );
    }

    #[test]
    fn parse_survives_json_text_round_trip() {
        let snap = sample();
        let text = snap.to_json().to_string_pretty();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(Introspection::from_json(&doc).unwrap(), snap);
    }

    #[test]
    fn breaker_states_flatten_distinctly() {
        let closed = BreakerView::from_state(BreakerState::Closed);
        let open = BreakerView::from_state(BreakerState::Open { cooldown_left: 8 });
        let half = BreakerView::from_state(BreakerState::HalfOpen);
        assert_eq!(closed.state, "closed");
        assert_eq!(open.state, "open");
        assert_eq!(open.cooldown_left, 8);
        assert_eq!(half.state, "half-open");
    }

    #[test]
    fn the_final_snapshot_reconciles_with_client_tallies() {
        use crate::job::{JobKind, JobSpec};
        use crate::service::ServeConfig;
        use std::sync::Mutex;

        let svc = Arc::new(SolveService::start(ServeConfig {
            workers: 2,
            queue_capacity: 2,
            ..ServeConfig::default()
        }));
        let snaps: Arc<Mutex<Vec<(Introspection, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_snaps = Arc::clone(&snaps);
        let reporter = StatusReporter::start(
            Arc::clone(&svc),
            Duration::from_millis(5),
            move |snap, is_final| sink_snaps.lock().unwrap().push((snap, is_final)),
        );

        // Client-side tallies: submissions, rejections, completions.
        let w = ppa_graph::gen::random_connected(16, 0.4, 9, 0x57A7);
        let (mut submitted, mut rejected, mut completed) = (0u64, 0u64, 0u64);
        let mut tickets = Vec::new();
        for _ in 0..12 {
            submitted += 1;
            match svc.submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: 0 })) {
                Ok(t) => tickets.push(t),
                Err(_) => rejected += 1,
            }
        }
        for t in tickets {
            assert!(t.wait().outcome.is_ok());
            completed += 1;
        }

        // Finish only after the last report: the final snapshot must
        // contain every counter the client observed.
        reporter.finish();
        let snaps = snaps.lock().unwrap();
        let finals: Vec<&(Introspection, bool)> = snaps.iter().filter(|(_, f)| *f).collect();
        assert_eq!(finals.len(), 1, "exactly one final snapshot");
        assert!(
            std::ptr::eq(finals[0], snaps.last().unwrap()),
            "the final snapshot is the last one delivered"
        );
        let last = &finals[0].0;
        assert_eq!(last.metrics.counter("serve.submitted"), submitted);
        assert_eq!(last.metrics.counter("serve.rejected_queue_full"), rejected);
        assert_eq!(last.metrics.counter("serve.completed"), completed);
        assert_eq!(
            last.metrics.counter("serve.accepted"),
            completed,
            "accepted == completed once every ticket reported"
        );
        assert_eq!(last.queue_depth, 0, "final snapshot sees a drained queue");
        assert!(last.inflight.is_empty(), "nothing may still be running");
        // Without the guaranteed final snapshot, a fast run could end
        // with NO snapshot containing the settled counters; the
        // periodic ones are allowed to be mid-flight.
        for (snap, is_final) in snaps.iter() {
            if !is_final {
                assert!(snap.metrics.counter("serve.completed") <= completed);
            }
        }
    }

    #[test]
    fn malformed_fields_are_named_in_errors() {
        let mut doc = sample().to_json();
        // Corrupt the worker state so it contradicts the job field.
        if let Json::Object(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "workers" {
                    if let Json::Array(ws) = v {
                        if let Json::Object(w) = &mut ws[0] {
                            for (wk, wv) in w.iter_mut() {
                                if wk == "state" {
                                    *wv = Json::Str("running".to_owned());
                                }
                            }
                        }
                    }
                }
            }
        }
        let err = Introspection::from_json(&doc).unwrap_err();
        assert!(err.contains("contradicts"), "{err}");
        assert!(Introspection::from_json(&Json::Null).is_err());

        // A scrubbing worker claiming a job contradicts too.
        let mut doc = sample().to_json();
        if let Json::Object(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "workers" {
                    if let Json::Array(ws) = v {
                        if let Json::Object(w) = &mut ws[2] {
                            for (wk, wv) in w.iter_mut() {
                                if wk == "job" {
                                    *wv = Json::Num(9.0);
                                }
                            }
                        }
                    }
                }
            }
        }
        let err = Introspection::from_json(&doc).unwrap_err();
        assert!(err.contains("contradicts"), "{err}");

        // An unknown machine-health state is named.
        let mut doc = sample().to_json();
        if let Json::Object(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "health" {
                    if let Json::Array(hs) = v {
                        if let Json::Object(h) = &mut hs[0] {
                            for (hk, hv) in h.iter_mut() {
                                if hk == "state" {
                                    *hv = Json::Str("benched".to_owned());
                                }
                            }
                        }
                    }
                }
            }
        }
        let err = Introspection::from_json(&doc).unwrap_err();
        assert!(err.contains("machine health"), "{err}");
    }

    #[test]
    fn scrubbing_workers_are_not_idle_in_snapshots() {
        let snap = sample();
        let doc = snap.to_json();
        let text = doc.to_string_compact();
        assert!(text.contains("\"scrubbing\""), "{text}");
        let back = Introspection::from_json(&doc).unwrap();
        let scrubbing = back.workers.iter().filter(|w| w.scrubbing).count();
        let idle = back
            .workers
            .iter()
            .filter(|w| w.job.is_none() && !w.scrubbing)
            .count();
        assert_eq!(scrubbing, 1);
        assert_eq!(idle, 1, "the scrubbing worker must not count as idle");
    }
}
