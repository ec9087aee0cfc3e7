//! Serve-layer coalescing edges: hold-window expiry on an otherwise
//! empty queue, a lane hitting its deadline while its batchmates
//! complete, and kill+resume checkpoint byte-identity for batched APSP
//! campaigns. Every batched result must be bit-identical to the same
//! job solved solo, and the `serve.*` tallies must reconcile 1:1 with
//! client-side observations — batching changes scheduling, never
//! accounting.

use ppa_graph::{gen, WeightMatrix};
use ppa_mcp::McpSession;
use ppa_serve::{
    BatchingConfig, JobKind, JobOutcome, JobSpec, ServeConfig, ServeError, SolveService,
};
use std::time::Duration;

/// The solo oracle on the scalar reference backend; batched serve
/// results must equal it exactly (verified solves, same word fit).
fn solo(w: &WeightMatrix, dest: usize) -> ppa_mcp::McpOutput {
    McpSession::new(w)
        .and_then(|mut s| s.solve_verified(dest))
        .expect("solo oracle")
}

fn batching_config(max_lanes: usize, hold: Duration) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 32,
        batching: BatchingConfig {
            enabled: true,
            max_lanes,
            hold_window: hold,
        },
        ..ServeConfig::default()
    }
}

#[test]
fn hold_window_expiry_flushes_a_lonely_job() {
    // One eligible job and an otherwise empty queue: nothing ever joins
    // the wave, so only the hold-window expiry can release it. The job
    // must still complete (correctly) and the flush must be attributed
    // to the hold timer.
    let w = gen::random_connected(8, 0.35, 12, 0xB01D);
    let svc = SolveService::start(batching_config(16, Duration::from_millis(50)));
    let report = svc
        .submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: 3 }))
        .expect("submit")
        .wait();
    let JobOutcome::Shortest(out) = report.outcome.expect("job must complete") else {
        panic!("expected a shortest outcome");
    };
    assert_eq!(out, solo(&w, 3), "held job diverged from its solo run");
    let metrics = svc.shutdown();
    assert_eq!(metrics.counter("serve.completed"), 1);
    assert!(
        metrics.counter("serve.batch.hold_flush") >= 1,
        "a lonely job can only leave the coalescer via the hold window"
    );
    // A single-lane wave is dispatched as a plain job, not a batch.
    assert_eq!(metrics.counter("serve.batch.jobs"), 0);
}

#[test]
fn coalesced_waves_solve_every_lane_like_solo_runs() {
    // Six compatible jobs against max_lanes = 4: the wave fills once
    // (full flush) and the stragglers leave on the hold timer. Every
    // destination's answer must equal its solo run and the outcome
    // tallies must reconcile with what the client saw.
    let w = gen::random_connected(8, 0.35, 12, 0xC0A1);
    let svc = SolveService::start(batching_config(4, Duration::from_millis(100)));
    let tickets: Vec<_> = (0..6)
        .map(|d| {
            svc.submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: d }))
                .expect("submit")
        })
        .collect();
    let mut completed = 0u64;
    for (d, t) in tickets.into_iter().enumerate() {
        let report = t.wait();
        let JobOutcome::Shortest(out) = report.outcome.expect("job must complete") else {
            panic!("expected a shortest outcome");
        };
        assert_eq!(out, solo(&w, d), "destination {d} diverged from solo");
        completed += 1;
    }
    let metrics = svc.shutdown();
    assert_eq!(metrics.counter("serve.completed"), completed);
    assert_eq!(metrics.counter("serve.failed"), 0);
    assert_eq!(metrics.counter("serve.accepted"), 6);
    assert!(
        metrics.counter("serve.batch.flushed") >= 1,
        "six held jobs must produce at least one flush"
    );
    let occupancy = metrics
        .histogram("serve.batch.occupancy")
        .expect("flushes record occupancy");
    assert_eq!(
        occupancy.sum, 6,
        "every accepted job leaves through exactly one flush"
    );
    assert!(
        occupancy.max <= 4,
        "no wave may exceed max_lanes: {}",
        occupancy.max
    );
}

#[test]
fn a_deadline_lane_fails_without_perturbing_its_batchmates() {
    // Three coalesced jobs; the last one carries a deadline far too
    // small for the scalar backend it is pinned to. Its batchmates must
    // complete bit-identically to solo runs, and the tallies must
    // reconcile: completed + failed == accepted, with the failure
    // counted as a deadline.
    let n = 16;
    let w = gen::random_connected(n, 0.3, 14, 0xDEAD);
    let svc = SolveService::start(ServeConfig {
        backend: ppa_machine::BackendSpec::Scalar, // slow enough that 1ms cannot finish
        ..batching_config(4, Duration::from_millis(100))
    });
    let healthy: Vec<_> = [0usize, 5]
        .into_iter()
        .map(|d| {
            svc.submit(JobSpec::new(w.clone(), JobKind::Shortest { dest: d }))
                .expect("submit")
        })
        .collect();
    let mut doomed_spec = JobSpec::new(w.clone(), JobKind::Shortest { dest: 9 });
    doomed_spec.deadline = Some(Duration::from_millis(1));
    let doomed = svc.submit(doomed_spec).expect("submit");

    for (d, t) in [0usize, 5].into_iter().zip(healthy) {
        let report = t.wait();
        let JobOutcome::Shortest(out) = report.outcome.expect("healthy lane must complete") else {
            panic!("expected a shortest outcome");
        };
        assert_eq!(out, solo(&w, d), "healthy lane {d} diverged from solo");
    }
    let failure = doomed.wait().outcome.expect_err("1ms cannot solve n=16");
    assert!(
        matches!(
            failure,
            ServeError::DeadlineExceeded | ServeError::DeadlineExpiredInQueue { .. }
        ),
        "expected a deadline-class failure, got {failure:?}"
    );
    let metrics = svc.shutdown();
    assert_eq!(metrics.counter("serve.accepted"), 3);
    assert_eq!(
        metrics.counter("serve.completed") + metrics.counter("serve.failed"),
        3,
        "every accepted job must be tallied exactly once"
    );
    assert_eq!(metrics.counter("serve.completed"), 2);
    assert_eq!(metrics.counter("serve.deadline_exceeded"), 1);
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
    let svc = SolveService::start(batching_config(2, Duration::from_millis(5)));
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

    let resumed = final_doc(
        batching_config(2, Duration::from_millis(5)),
        Some(checkpoint),
    );
    let batched = final_doc(batching_config(2, Duration::from_millis(5)), None);
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
