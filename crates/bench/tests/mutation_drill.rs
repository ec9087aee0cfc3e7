//! Bench-gate mutation drill: prove the bit-identity gate of
//! `report backend` actually fires on a corrupted kernel, so
//! `report bench --check` exits nonzero instead of recording a poisoned
//! baseline.
//!
//! The drill flips one bit of every packed `vote` result — a mask
//! kernel — or of every sum of the packed register adder (the
//! `mutation-drill` feature of `ppa-machine`, never compiled into
//! release binaries) and asserts that [`ppa_bench::measure_identical`]
//! — the exact helper the BK table runs every cell through before
//! timing it — panics on each corrupted backend while passing on the
//! healthy one. A panic inside `backend_run` aborts the `report` binary
//! with a nonzero exit, which is the gate the acceptance criterion
//! names.

use ppa_bench::measure_identical;
use ppa_graph::gen;
use ppa_machine::PackedBackend;
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

#[test]
fn healthy_backend_passes_the_gate() {
    let (w, h, want) = reference();
    let n = w.n();
    measure_identical(
        &|| Ppa::<PackedBackend>::packed(n).with_word_bits(h),
        &w,
        DRILL_DEST,
        &want,
        "drill control, packed",
    );
}

#[test]
fn one_bit_vote_corruption_trips_the_gate() {
    let (w, h, want) = reference();
    let n = w.n();
    let tripped = catch_unwind(AssertUnwindSafe(|| {
        measure_identical(
            &|| Ppa::with_backend(n, PackedBackend::with_perturbed_vote()).with_word_bits(h),
            &w,
            DRILL_DEST,
            &want,
            "drill, packed",
        )
    }));
    assert!(
        tripped.is_err(),
        "the bit-identity gate must fail on a one-bit vote corruption"
    );
}

#[test]
fn one_bit_adder_corruption_trips_the_gate() {
    let (w, h, want) = reference();
    let n = w.n();
    let tripped = catch_unwind(AssertUnwindSafe(|| {
        measure_identical(
            &|| Ppa::with_backend(n, PackedBackend::with_perturbed_adder()).with_word_bits(h),
            &w,
            DRILL_DEST,
            &want,
            "drill, packed adder",
        )
    }));
    assert!(
        tripped.is_err(),
        "the bit-identity gate must fail on a one-bit register-adder corruption"
    );
}

/// Even if a corrupted run slipped past the in-table assertions, a step
/// or counter drift in the recorded baseline is a hard `--check`
/// failure on any host — the second, independent layer of the gate.
#[test]
fn step_drift_is_a_hard_check_failure() {
    use ppa_bench::{Baseline, BaselineEntry, WallStats};
    let entry = |steps: u64| BaselineEntry {
        cell: "n=16/packed".into(),
        steps,
        wall: WallStats::from_samples(&[1_000_000]),
        counters: std::collections::BTreeMap::new(),
    };
    let recorded = Baseline::new("backend", vec![entry(1000)]);
    let drifted = Baseline::new("backend", vec![entry(1001)]);
    let report = ppa_bench::baseline::compare(&recorded, &drifted);
    assert!(
        !report.passed(),
        "a one-step drift in a packed cell must hard-fail report bench --check"
    );
}
