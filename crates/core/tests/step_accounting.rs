//! Step accounting and span hygiene of the solve driver.
//!
//! The literal [`McpStats`] below pin what a solve costs per step class,
//! with and without the five prepare steps, so a change to the driver
//! cannot move a count unnoticed. The span tests pin that a failed
//! observed solve — a rejected destination, or a step budget running out
//! mid-pass — leaves no span open and no phase set: the next solve on the
//! same runtime must trace under its own root span.

use ppa_graph::{gen, WeightMatrix};
use ppa_machine::{Op, StepReport};
use ppa_mcp::{minimum_cost_path, BatchSession, McpError, McpOutput, McpSession};
use ppa_obs::{MemorySink, TraceRecord};
use ppa_ppc::Ppa;

/// A report's steps per class, in [`Op::ALL`] order
/// (alu, shift, broadcast, bus-or, global-or).
fn classes(r: &StepReport) -> [u64; 5] {
    Op::ALL.map(|op| r.count(op))
}

/// One do-while pass on the fixture graph (statements 9-18; the loop
/// test's two steps fall between passes).
const PASS: [u64; 5] = [67, 0, 7, 16, 0];

fn fixture() -> WeightMatrix {
    gen::random_connected(12, 0.3, 20, 5)
}

fn assert_stats(out: &McpOutput, init: [u64; 5], total: [u64; 5]) {
    assert_eq!(out.iterations, 5);
    assert_eq!(classes(&out.stats.init), init, "init");
    let passes: Vec<[u64; 5]> = out.stats.per_iteration.iter().map(classes).collect();
    assert_eq!(passes, vec![PASS; 5], "per iteration");
    assert_eq!(classes(&out.stats.total), total, "total");
}

#[test]
fn one_shot_stats_include_the_five_prepare_steps() -> Result<(), McpError> {
    let w = fixture();
    let mut ppa = Ppa::square(12).with_word_bits(8);
    let out = minimum_cost_path(&mut ppa, &w, 0)?;
    assert_stats(&out, [17, 0, 2, 0, 0], [357, 0, 37, 80, 5]);
    Ok(())
}

#[test]
fn session_stats_start_after_the_prepare_steps() -> Result<(), McpError> {
    let w = fixture();
    let mut session = McpSession::new(&w)?;
    assert_eq!(session.ppa().word_bits(), 8);
    let out = session.solve(0)?;
    assert_stats(&out, [12, 0, 2, 0, 0], [352, 0, 37, 80, 5]);
    Ok(())
}

/// The span paths (`"a > b"`) of the instruction events recorded from
/// record `from` on.
fn paths_since(sink: &MemorySink, from: usize) -> Vec<String> {
    let mut stack: Vec<String> = Vec::new();
    let mut paths = Vec::new();
    for (i, record) in sink.records().into_iter().enumerate() {
        match record {
            TraceRecord::Enter { name, .. } => stack.push(name),
            TraceRecord::Exit { .. } => {
                stack.pop();
            }
            TraceRecord::Event { .. } if i >= from => paths.push(stack.join(" > ")),
            TraceRecord::Event { .. } => {}
        }
    }
    paths
}

/// Every event recorded from `from` on sits under exactly one `root`
/// span, at the outermost level.
fn assert_rooted(sink: &MemorySink, from: usize, root: &str) {
    let paths = paths_since(sink, from);
    assert!(!paths.is_empty(), "the good solve traced nothing");
    for path in paths {
        let segments: Vec<&str> = path.split(" > ").collect();
        assert_eq!(segments[0], root, "{path}");
        assert_eq!(
            segments.iter().filter(|s| **s == root).count(),
            1,
            "nested under a stale span: {path}"
        );
    }
}

#[test]
fn failed_session_solves_close_their_spans() -> Result<(), McpError> {
    let w = fixture();
    let mut session = McpSession::new(&w)?;
    let sink = MemorySink::new();
    session.ppa_mut().install_sink(sink.clone());

    // A rejected destination issues nothing and leaves nothing open.
    assert!(matches!(
        session.solve(12),
        Err(McpError::DestinationOutOfRange { d: 12, n: 12 })
    ));
    assert!(sink.balanced(), "out-of-range solve left a span open");
    let mark = sink.records().len();
    session.solve(1)?;
    assert_rooted(&sink, mark, "mcp");

    // A budget of 26 steps runs out inside pass 1's `min` scan (14 init
    // steps, then statement 10), with spans open down to `bit[j]`.
    session.ppa_mut().limit_steps(26);
    let err = session.solve(2).unwrap_err();
    assert!(err.is_step_budget_exhausted(), "{err}");
    assert!(sink.balanced(), "budget-exhausted solve left a span open");
    session.ppa_mut().clear_step_limit();
    let mark = sink.records().len();
    session.solve(2)?;
    assert_rooted(&sink, mark, "mcp");

    assert!(sink.balanced());
    let _ = session.ppa_mut().take_sink();
    Ok(())
}

#[test]
fn failed_waves_close_their_spans() -> Result<(), McpError> {
    let w = fixture();
    let mut batch = BatchSession::new(&[w.clone(), w])?;
    let sink = MemorySink::new();
    batch.ppa_mut().install_sink(sink.clone());

    let wave = batch.solve(&[12, 15])?;
    assert!(wave
        .iter()
        .all(|lane| matches!(lane, Err(McpError::DestinationOutOfRange { n: 12, .. }))));
    assert!(sink.balanced(), "out-of-range wave left a span open");
    let mark = sink.records().len();
    batch.solve(&[1, 2])?;
    assert_rooted(&sink, mark, "batch");

    batch.ppa_mut().limit_steps(26);
    let err = batch.solve(&[3, 4]).unwrap_err();
    assert!(err.is_step_budget_exhausted(), "{err}");
    assert!(sink.balanced(), "budget-exhausted wave left a span open");
    batch.ppa_mut().clear_step_limit();
    let mark = sink.records().len();
    batch.solve(&[3, 4])?;
    assert_rooted(&sink, mark, "batch");

    assert!(sink.balanced());
    let _ = batch.ppa_mut().take_sink();
    Ok(())
}
