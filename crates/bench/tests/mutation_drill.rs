//! Bench-gate mutation drill: prove the width-differential gate of
//! `report backend` / `report scale` actually fires on a corrupted
//! kernel, so `report bench --check` exits nonzero instead of recording
//! a poisoned baseline.
//!
//! The drill flips one bit of every packed `vote` result (the
//! `mutation-drill` feature of `ppa-machine`, never compiled into
//! release binaries) and asserts that [`ppa_bench::measure_identical`]
//! — the exact helper the BK/SC tables run every cell through before
//! timing it — panics on the corrupted backend at both word widths,
//! while passing on the healthy ones. A panic inside `backend_run` /
//! `scale_run` aborts the `report` binary with a nonzero exit, which is
//! the gate the acceptance criterion names.

use ppa_bench::measure_identical;
use ppa_graph::gen;
use ppa_machine::{PackedBackend, Word, W256, W64};
use ppa_mcp::mcp::{fit_word_bits, minimum_cost_path};
use ppa_ppc::Ppa;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The drill solves toward an *interior* destination. The perturbed
/// bit is PE (0, 0); with destination 0 that is the destination's own
/// diagonal cell, whose distance is pinned at zero by the recurrence,
/// so a corruption there self-masks — the one position in the array
/// where a one-bit vote flip is unobservable. Any other destination
/// makes row 0's minimum load-bearing and the flip visible.
const DRILL_DEST: usize = 7;

/// The BK workload's smallest cell, solved on the scalar reference.
fn reference() -> (ppa_graph::WeightMatrix, u32, ppa_mcp::McpOutput) {
    let n = 16usize;
    let w = gen::random_connected(n, 0.2, 25, 99);
    let h = 16.max(fit_word_bits(&w)).clamp(2, 62);
    let mut ppa = Ppa::square(n).with_word_bits(h);
    let want = minimum_cost_path(&mut ppa, &w, DRILL_DEST).unwrap();
    (w, h, want)
}

fn drilled_ppa<W: Word>(n: usize, h: u32) -> Ppa<PackedBackend<W>> {
    Ppa::with_backend(n, PackedBackend::<W>::with_perturbed_vote()).with_word_bits(h)
}

#[test]
fn healthy_backends_pass_the_gate_at_both_widths() {
    let (w, h, want) = reference();
    let n = w.n();
    measure_identical(
        &|| Ppa::<PackedBackend>::packed(n).with_word_bits(h),
        &w,
        DRILL_DEST,
        &want,
        "drill control, packed",
    );
    measure_identical(
        &|| Ppa::with_backend(n, PackedBackend::<W256>::new()).with_word_bits(h),
        &w,
        DRILL_DEST,
        &want,
        "drill control, packed256",
    );
}

#[test]
fn one_bit_vote_corruption_trips_the_gate_at_w64() {
    let (w, h, want) = reference();
    let n = w.n();
    let tripped = catch_unwind(AssertUnwindSafe(|| {
        measure_identical(
            &|| drilled_ppa::<W64>(n, h),
            &w,
            DRILL_DEST,
            &want,
            "drill, packed",
        )
    }));
    assert!(
        tripped.is_err(),
        "the bit-identity gate must fail on a one-bit vote corruption (W64)"
    );
}

#[test]
fn one_bit_vote_corruption_trips_the_gate_at_w256() {
    let (w, h, want) = reference();
    let n = w.n();
    let tripped = catch_unwind(AssertUnwindSafe(|| {
        measure_identical(
            &|| drilled_ppa::<W256>(n, h),
            &w,
            DRILL_DEST,
            &want,
            "drill, packed256",
        )
    }));
    assert!(
        tripped.is_err(),
        "the bit-identity gate must fail on a one-bit vote corruption (W256)"
    );
}

/// Even if a corrupted run slipped past the in-table assertions, a step
/// or counter drift in the recorded baseline is a hard `--check`
/// failure on any host — the second, independent layer of the gate.
#[test]
fn step_drift_is_a_hard_check_failure() {
    use ppa_bench::{Baseline, BaselineEntry, WallStats};
    let entry = |steps: u64| BaselineEntry {
        cell: "n=16/packed256".into(),
        steps,
        wall: WallStats::from_samples(&[1_000_000]),
        counters: std::collections::BTreeMap::new(),
    };
    let recorded = Baseline::new("backend", vec![entry(1000)]);
    let drifted = Baseline::new("backend", vec![entry(1001)]);
    let report = ppa_bench::baseline::compare(&recorded, &drifted);
    assert!(
        !report.passed(),
        "a one-step drift in a width cell must hard-fail report bench --check"
    );
}
