//! Checkpoint version compatibility: a future (bumped) version field must
//! surface as a typed resume error — never a panic and never a silent
//! from-scratch re-run — while a same-version checkpoint resumes
//! byte-identically, including when the service routes to the threaded
//! backend.

use ppa_graph::gen;
use ppa_serve::{
    ApspCheckpoint, JobKind, JobOutcome, JobSpec, ServeConfig, ServeError, SolveService,
};

fn apsp(resume_from: Option<ppa_obs::Json>) -> JobKind {
    JobKind::Apsp {
        resume_from,
        checkpoint_every: 1,
    }
}

#[test]
fn bumped_checkpoint_version_is_a_typed_error_not_a_rerun() {
    let w = gen::random_connected(6, 0.45, 9, 77);

    // Produce a genuine version-1 checkpoint document, then bump its
    // version field as a future writer would.
    let svc = SolveService::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let full = svc
        .submit(JobSpec::new(w.clone(), apsp(None)))
        .unwrap()
        .wait();
    let JobOutcome::Apsp(doc) = full.outcome.unwrap() else {
        panic!("expected an APSP outcome");
    };
    let mut fields: Vec<(&str, ppa_obs::Json)> = Vec::new();
    let obj = match &doc {
        ppa_obs::Json::Object(pairs) => pairs,
        other => panic!("checkpoint must serialize as an object, got {other:?}"),
    };
    for (k, v) in obj {
        if k == "version" {
            fields.push(("version", 2u64.into()));
        } else {
            fields.push((k.as_str(), v.clone()));
        }
    }
    let bumped = ppa_obs::Json::obj(fields);

    // The parser rejects it outright...
    let err = ApspCheckpoint::from_json(&bumped).unwrap_err();
    assert!(err.contains("version"), "untyped reason: {err}");

    // ...and a resume submission fails *typed*, before any solving: the
    // job must not silently restart the campaign from scratch.
    let report = svc
        .submit(JobSpec::new(w.clone(), apsp(Some(bumped))))
        .unwrap()
        .wait();
    match report.outcome.unwrap_err() {
        ServeError::InvalidResume { reason } => {
            assert!(reason.contains("version"), "{reason}");
        }
        other => panic!("expected InvalidResume, got {other}"),
    }
    assert_eq!(report.attempts, 0, "rejected before any attempt ran");
    let metrics = svc.shutdown();
    assert_eq!(
        metrics.counter("serve.resumes"),
        0,
        "a bad version must never count as a resume"
    );
    assert_eq!(metrics.counter("serve.worker_panics"), 0);
}

#[test]
fn same_version_resume_is_byte_identical_on_the_threaded_backend() {
    let w = gen::random_connected(6, 0.45, 9, 78);
    let threaded = ServeConfig {
        workers: 1,
        backend: "threaded/64x3".parse().unwrap(),
        ..ServeConfig::default()
    };

    // Reference: uninterrupted campaign, all on the threaded backend.
    let svc = SolveService::start(threaded.clone());
    let full = svc
        .submit(JobSpec::new(w.clone(), apsp(None)))
        .unwrap()
        .wait();
    assert_eq!(full.backend, Some(threaded.backend));
    let JobOutcome::Apsp(reference) = full.outcome.unwrap() else {
        panic!("expected an APSP outcome");
    };

    // Interrupt a second campaign partway with a step budget.
    let mut session = ppa_mcp::McpSession::new(&w).unwrap();
    session.ppa_mut().limit_steps(1_000_000);
    session.all_pairs().unwrap();
    let used = 1_000_000 - session.ppa_mut().steps_remaining().unwrap();
    let mut spec = JobSpec::new(w.clone(), apsp(None));
    spec.step_budget = Some(used / 2);
    let interrupted = svc.submit(spec).unwrap().wait();
    let ServeError::Interrupted { checkpoint, .. } = interrupted.outcome.unwrap_err() else {
        panic!("half the steps must interrupt mid-campaign");
    };
    let progress = ApspCheckpoint::from_json(&checkpoint).unwrap();
    assert!(progress.next_dest() > 0 && !progress.is_complete());
    svc.shutdown();

    // A fresh threaded service resumes it to the identical document.
    let svc = SolveService::start(threaded.clone());
    let resumed = svc
        .submit(JobSpec::new(w, apsp(Some(checkpoint))))
        .unwrap()
        .wait();
    assert_eq!(resumed.backend, Some(threaded.backend));
    let JobOutcome::Apsp(final_doc) = resumed.outcome.unwrap() else {
        panic!("resumed campaign must complete");
    };
    assert_eq!(final_doc.to_string_compact(), reference.to_string_compact());
    let metrics = svc.shutdown();
    assert_eq!(metrics.counter("serve.resumes"), 1);
}
