//! Integration test of the `report profile` experiment: the artifacts that
//! `profile_run` produces must be internally consistent — every per-Op
//! metrics counter exactly matches the run's [`StepReport`], the Chrome
//! trace is Perfetto-loadable (balanced `B`/`E` pairs), and the metrics
//! snapshot survives a JSON round-trip byte-exactly.

use ppa_bench::profile_run;
use ppa_machine::Op;
use ppa_obs::{validate_chrome_trace, Json, Metrics};

#[test]
fn profile_artifacts_reconcile_and_validate() {
    let run = profile_run();

    // Acceptance criterion: the metrics JSON's per-Op counters equal the
    // run's StepReport totals, class by class.
    for op in Op::ALL {
        assert_eq!(
            run.metrics.counter(op.metric_name()),
            run.report.count(op),
            "counter mismatch for {}",
            op.label()
        );
    }
    assert_eq!(run.metrics.counter("steps.total"), run.report.total());
    assert!(run.report.total() > 0, "profile workload ran nothing");

    // The iteration histogram accounts for every loop pass.
    let iterations = run.metrics.counter("mcp.iterations");
    assert!(iterations > 0);
    let hist = run
        .metrics
        .histogram("mcp.steps_per_iteration")
        .expect("per-iteration histogram");
    assert_eq!(hist.count, iterations);

    // Bus/mask activity metrics fired (the workload broadcasts heavily).
    assert!(run.metrics.counter("bus.transactions") > 0);
    assert!(run.metrics.counter("mask.writes") > 0);

    // The Chrome trace is well-formed and stays so through the text form
    // that `report profile --trace-out` writes to disk.
    let pairs = validate_chrome_trace(&run.chrome_trace).expect("well-formed trace");
    assert!(pairs > 0, "trace has no spans");
    let reparsed = Json::parse(&run.chrome_trace.to_string_pretty()).unwrap();
    assert_eq!(validate_chrome_trace(&reparsed), Ok(pairs));

    // The metrics snapshot round-trips exactly through its JSON encoding.
    let text = run.metrics.to_json().to_string_pretty();
    let back = Metrics::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, run.metrics);

    // Micro-op attribution observed the same run: per-class counts equal
    // the controller report, and the exec.* counters folded into the
    // metrics snapshot agree.
    assert!(!run.micro.is_empty(), "micro profile recorded nothing");
    for op in Op::ALL {
        assert_eq!(
            run.micro.class(op.label()).map_or(0, |w| w.count),
            run.report.count(op),
            "micro class {}",
            op.label()
        );
        assert_eq!(
            run.metrics.counter(&format!(
                "exec.{}.{}.count",
                run.micro.backend(),
                op.label()
            )),
            run.report.count(op),
            "exec counter {}",
            op.label()
        );
    }
    assert_eq!(run.micro.total().count, run.report.total());

    // The folded-stack artifact is valid inferno input: every line is
    // `backend;class <nanos>` and the frame set matches the profile.
    let folded = run.micro.folded_lines();
    let stacks = ppa_obs::parse_folded(&folded).expect("folded lines parse");
    assert!(!stacks.is_empty(), "folded artifact is empty");
    for (frames, _) in &stacks {
        assert_eq!(frames.len(), 2, "stack depth is backend;class");
        assert_eq!(frames[0], run.micro.backend());
    }
}

// The micro profile must reconcile 1:1 with the controller's step
// counters on *every* backend, not just the scalar reference (which
// `ppa-machine`'s own tests cover).

#[test]
fn micro_profile_reconciles_on_packed_backend() {
    let w = ppa_graph::gen::ring(6);
    let mut ppa = ppa_ppc::Ppa::packed(6).with_word_bits(10);
    ppa.enable_metrics();
    ppa.enable_micro_profile();
    let out = ppa_mcp::mcp::minimum_cost_path(&mut ppa, &w, 0).expect("packed MCP solves");
    let micro = ppa.take_micro_profile();
    let metrics = ppa.take_metrics();
    assert_eq!(micro.backend(), "packed");
    let report = out.stats.total;
    for op in Op::ALL {
        assert_eq!(
            micro.class(op.label()).map_or(0, |w| w.count),
            report.count(op),
            "packed micro class {}",
            op.label()
        );
        assert_eq!(
            metrics.counter(&format!("exec.packed.{}.count", op.label())),
            report.count(op),
            "packed exec counter {}",
            op.label()
        );
    }
    assert_eq!(micro.total().count, report.total());
}
