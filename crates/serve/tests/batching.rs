//! Serve-layer batching edges: an idle pool dispatching every job at
//! once as a single, a backlog behind a busy worker forming waves, a lane
//! hitting its deadline while its batchmates complete, a drain with a
//! backlog still queued, and kill+resume checkpoint byte-identity for
//! batched APSP campaigns. Every batched result must be bit-identical to
//! the same job solved solo, and the `serve.*` tallies must reconcile 1:1
//! with client-side observations — batching changes scheduling, never
//! accounting.

use ppa_graph::{gen, WeightMatrix};
use ppa_machine::BackendSpec;
use ppa_mcp::McpSession;
use ppa_serve::{
    BatchingConfig, JobKind, JobOutcome, JobSpec, JobTicket, ServeConfig, ServeError, SolveService,
};
use std::thread;
use std::time::Duration;

/// The solo oracle on the scalar reference backend; batched serve
/// results must equal it exactly (verified solves, same word fit).
fn solo(w: &WeightMatrix, dest: usize) -> ppa_mcp::McpOutput {
    McpSession::new(w)
        .and_then(|mut s| s.solve_verified(dest))
        .expect("solo oracle")
}

fn batching_config(max_lanes: usize) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 32,
        batching: BatchingConfig {
            enabled: true,
            max_lanes,
        },
        ..ServeConfig::default()
    }
}

/// One scalar worker: a blocker (see [`occupy`]) keeps it busy for as
/// long as the test needs.
fn one_scalar_worker(max_lanes: usize) -> ServeConfig {
    ServeConfig {
        workers: 1,
        backend: BackendSpec::Scalar,
        ..batching_config(max_lanes)
    }
}

/// Occupies the only worker of `svc` with a scalar all-pairs campaign
/// (hundreds of milliseconds uncancelled) and returns its ticket once
/// the worker has picked it up, so the jobs submitted next queue behind
/// it.
fn occupy(svc: &SolveService) -> JobTicket {
    let w = gen::random_connected(48, 0.3, 9, 0xB10C);
    let blocker = svc
        .submit(JobSpec::new(
            w,
            JobKind::Apsp {
                resume_from: None,
                checkpoint_every: 1,
            },
        ))
        .expect("submit");
    for _ in 0..2000 {
        if svc.queue_depth() == 0 {
            return blocker;
        }
        thread::sleep(Duration::from_millis(1));
    }
    panic!("the blocker was never picked up");
}

/// Submits a shortest-path job toward each of `dests` on `w`.
fn submit_all(svc: &SolveService, w: &WeightMatrix, dests: &[usize]) -> Vec<JobTicket> {
    dests
        .iter()
        .map(|&d| {
            svc.submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: d }))
                .expect("submit")
        })
        .collect()
}

/// Waits for every ticket and checks each answer against its solo run.
fn expect_solo_answers(w: &WeightMatrix, dests: &[usize], tickets: Vec<JobTicket>) {
    for (&d, t) in dests.iter().zip(tickets) {
        let report = t.wait();
        let JobOutcome::Shortest(out) = report.outcome.expect("job must complete") else {
            panic!("expected a shortest outcome");
        };
        assert_eq!(out, solo(w, d), "destination {d} diverged from solo");
    }
}

#[test]
fn a_lonely_job_on_an_idle_pool_dispatches_as_a_single() {
    // One eligible job and an idle pool: a worker takes it at once. It
    // is one dispatch of one job, never a batch.
    let w = gen::random_connected(8, 0.35, 12, 0xB01D);
    let svc = SolveService::start(batching_config(16));
    let tickets = submit_all(&svc, &w, &[3]);
    expect_solo_answers(&w, &[3], tickets);
    let metrics = svc.shutdown();
    assert_eq!(metrics.counter("serve.completed"), 1);
    let occupancy = metrics
        .histogram("serve.batch.occupancy")
        .expect("an eligible dispatch records its occupancy");
    assert_eq!((occupancy.count, occupancy.sum), (1, 1));
    assert_eq!(metrics.counter("serve.batch.jobs"), 0);
}

#[test]
fn two_same_key_jobs_on_an_idle_pool_run_as_two_singles() {
    // Two compatible jobs on two idle workers: each worker's share of a
    // two-job backlog is one job, so neither waits for a batchmate.
    let w = gen::random_connected(8, 0.35, 12, 0x5EC0);
    let svc = SolveService::start(batching_config(16));
    let tickets = submit_all(&svc, &w, &[1, 6]);
    expect_solo_answers(&w, &[1, 6], tickets);
    let metrics = svc.shutdown();
    assert_eq!(metrics.counter("serve.completed"), 2);
    let occupancy = metrics
        .histogram("serve.batch.occupancy")
        .expect("eligible dispatches record their occupancy");
    assert_eq!((occupancy.count, occupancy.sum, occupancy.max), (2, 2, 1));
    assert_eq!(metrics.counter("serve.batch.jobs"), 0);
}

#[test]
fn coalesced_waves_solve_every_lane_like_solo_runs() {
    // Six compatible jobs queue behind a busy worker with max_lanes = 4:
    // once the blocker is cancelled the worker takes a wave of four,
    // then a wave of the remaining two. Every destination's answer must
    // equal its solo run and the tallies must reconcile with what the
    // client saw.
    let w = gen::random_connected(8, 0.35, 12, 0xC0A1);
    let svc = SolveService::start(one_scalar_worker(4));
    let blocker = occupy(&svc);
    let dests = [0, 1, 2, 3, 4, 5];
    let tickets = submit_all(&svc, &w, &dests);
    assert_eq!(
        svc.queue_depth(),
        6,
        "the backlog must queue behind the blocker"
    );
    assert!(svc.cancel(blocker.id()));
    assert!(blocker.wait().outcome.is_err(), "the blocker was cancelled");
    expect_solo_answers(&w, &dests, tickets);
    let metrics = svc.shutdown();
    assert_eq!(metrics.counter("serve.accepted"), 7);
    assert_eq!(metrics.counter("serve.completed"), 6);
    assert_eq!(metrics.counter("serve.failed"), 1, "the cancelled blocker");
    let occupancy = metrics
        .histogram("serve.batch.occupancy")
        .expect("waves record their occupancy");
    assert_eq!(
        (occupancy.count, occupancy.sum, occupancy.max),
        (2, 6, 4),
        "six queued jobs leave as a wave of four and a wave of two"
    );
    assert_eq!(metrics.counter("serve.batch.jobs"), 6);
}

#[test]
fn dropping_the_service_with_a_backlog_reports_every_ticket() {
    // The drain closes the intake while compatible jobs are still queued
    // behind a busy worker: the worker must empty the queue in waves
    // before it exits, so every accepted ticket still gets its report.
    let w = gen::random_connected(8, 0.35, 12, 0xD4A1);
    let svc = SolveService::start(one_scalar_worker(4));
    let blocker = occupy(&svc);
    let dests = [7, 6, 5, 4, 3, 2, 1];
    let tickets = submit_all(&svc, &w, &dests);
    assert_eq!(
        svc.queue_depth(),
        7,
        "the backlog must queue behind the blocker"
    );
    assert!(svc.cancel(blocker.id()));
    drop(svc);
    assert!(blocker.wait().outcome.is_err(), "the blocker was cancelled");
    expect_solo_answers(&w, &dests, tickets);
}

#[test]
fn a_deadline_lane_fails_without_perturbing_its_batchmates() {
    // Three compatible jobs queue behind a busy worker and leave as one
    // wave; the last one's 1 ms deadline passes while it waits. That lane
    // must resolve at the wave's queued gate, unrun, while its batchmates
    // complete bit-identically to solo runs, and the tallies must
    // reconcile: completed + failed == accepted.
    let w = gen::random_connected(16, 0.3, 14, 0xDEAD);
    let svc = SolveService::start(one_scalar_worker(4));
    let blocker = occupy(&svc);
    let healthy = submit_all(&svc, &w, &[0, 5]);
    let mut doomed_spec = JobSpec::new(w.clone(), JobKind::Shortest { dest: 9 });
    doomed_spec.deadline = Some(Duration::from_millis(1));
    let doomed = svc.submit(doomed_spec).expect("submit");
    thread::sleep(Duration::from_millis(10));
    assert_eq!(
        svc.queue_depth(),
        3,
        "the wave must queue behind the blocker"
    );
    assert!(svc.cancel(blocker.id()));
    assert!(blocker.wait().outcome.is_err(), "the blocker was cancelled");

    expect_solo_answers(&w, &[0, 5], healthy);
    let report = doomed.wait();
    assert!(
        matches!(
            report.outcome,
            Err(ServeError::DeadlineExpiredInQueue { .. })
        ),
        "expected expiry in the queue, got {:?}",
        report.outcome
    );
    assert_eq!(report.attempts, 0, "an expired lane never runs");
    let metrics = svc.shutdown();
    assert_eq!(metrics.counter("serve.accepted"), 4);
    assert_eq!(
        metrics.counter("serve.completed") + metrics.counter("serve.failed"),
        4,
        "every accepted job must be tallied exactly once"
    );
    assert_eq!(metrics.counter("serve.completed"), 2);
    assert_eq!(metrics.counter("serve.cancelled"), 1, "the blocker");
    assert_eq!(metrics.counter("serve.deadline_exceeded"), 1);
    assert_eq!(metrics.counter("serve.expired_in_queue"), 1);
    assert_eq!(metrics.counter("serve.batch.jobs"), 3, "one wave of three");
}

#[test]
fn interrupted_batched_campaign_resumes_byte_identically() {
    // A batched APSP campaign killed by a deterministic step budget must
    // hand back a checkpoint that resumes — on another batching-enabled
    // service — to the byte-identical final document a never-interrupted
    // campaign produces, batched or not.
    let n = 8;
    let w = gen::random_connected(n, 0.35, 12, 0x5E5A);
    let apsp = |resume_from| JobKind::Apsp {
        resume_from,
        checkpoint_every: 1,
    };
    // Budget ~2.5 solo destination solves: with 2 lanes per wave the
    // first wave (2 destinations) lands and flushes, and the campaign
    // dies mid-flight well before its 4th wave.
    let solo_steps = {
        let mut session = McpSession::new(&w).expect("session");
        session.solve(0).expect("solve");
        session.into_ppa().steps().total()
    };
    let budget = solo_steps * 5 / 2;

    let final_doc = |config: ServeConfig, resume: Option<ppa_obs::Json>| -> ppa_obs::Json {
        let svc = SolveService::start(config);
        let report = svc
            .submit(JobSpec::new(w.clone(), apsp(resume)))
            .expect("submit")
            .wait();
        let JobOutcome::Apsp(doc) = report.outcome.expect("campaign must complete") else {
            panic!("expected an APSP outcome");
        };
        doc
    };

    // Kill: the budgeted campaign must die with a checkpoint in hand.
    let svc = SolveService::start(batching_config(2));
    let mut spec = JobSpec::new(w.clone(), apsp(None));
    spec.step_budget = Some(budget);
    let report = svc.submit(spec).expect("submit").wait();
    drop(svc);
    let ServeError::Interrupted { checkpoint, cause } = report
        .outcome
        .expect_err("the budget must kill the campaign")
    else {
        panic!("expected an interrupted campaign");
    };
    assert!(
        matches!(*cause, ServeError::StepBudgetExhausted { .. }),
        "unexpected interruption cause: {cause}"
    );

    let resumed = final_doc(batching_config(2), Some(checkpoint));
    let batched = final_doc(batching_config(2), None);
    let solo_campaign = final_doc(ServeConfig::default(), None);
    assert_eq!(
        resumed.to_string_compact(),
        batched.to_string_compact(),
        "kill+resume must reproduce the uninterrupted batched campaign byte-for-byte"
    );
    assert_eq!(
        batched.to_string_compact(),
        solo_campaign.to_string_compact(),
        "batched campaigns must checkpoint byte-identically to solo campaigns"
    );
}
