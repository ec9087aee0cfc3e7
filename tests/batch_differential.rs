//! The lane-batched differential gate: a `BatchSession` must be
//! **bit-identical** to per-destination solo runs — outputs *and* step
//! accounting — at every lane count and on every backend, including the
//! fault-injection, step-budget, and cancellation paths. A degraded
//! lane (cancelled, over budget, corrupted) must never perturb its
//! batchmates.
//!
//! The CI `batch` job greps this suite's summary line
//! (`batched_bit_identical: true`) out of the run, so keep the final
//! assertion message stable.

use ppa_graph::{gen, WeightMatrix};
use ppa_machine::faults::{FaultMap, SwitchFault};
use ppa_machine::{CancelToken, Coord, ThreadedBackend, W64};
use ppa_mcp::batch::{replicate, BatchSession, LaneLimit};
use ppa_mcp::mcp::McpOutput;
use ppa_mcp::{McpError, McpSession};
use ppa_ppc::Ppa;

/// The lane-count axis of the differential matrix: a degenerate batch,
/// a small one, a word-sized one, and the 64-lane maximum.
const LANE_COUNTS: [usize; 4] = [1, 3, 8, 64];

/// Solo oracle: a fresh scalar machine pinned to the batch's word width
/// (the bit-serial `min` cost scales with `h`, so stats only compare
/// across equal widths).
fn solo(w: &WeightMatrix, d: usize, word_bits: u32) -> McpOutput {
    let ppa = Ppa::square(w.n()).with_word_bits(word_bits);
    McpSession::from_ppa(ppa, w)
        .and_then(|mut s| s.solve(d))
        .expect("solo oracle run")
}

fn wavefront(n: usize, lanes: usize) -> Vec<usize> {
    (0..lanes).map(|l| l % n).collect()
}

fn assert_wave_matches_solo(
    w: &WeightMatrix,
    dests: &[usize],
    word_bits: u32,
    wave: Vec<Result<McpOutput, McpError>>,
    label: &str,
) {
    for (l, out) in wave.into_iter().enumerate() {
        let got = out.unwrap_or_else(|e| panic!("{label}: lane {l} failed: {e}"));
        let want = solo(w, dests[l], word_bits);
        assert_eq!(got, want, "{label}: lane {l} destination {}", dests[l]);
    }
}

#[test]
fn packed_batches_are_bit_identical_at_every_lane_count() {
    let n = 6;
    let w = gen::random_connected(n, 0.35, 12, 31);
    for lanes in LANE_COUNTS {
        let mut batch =
            BatchSession::new_packed(&replicate(&w, lanes)).expect("batch construction");
        let dests = wavefront(n, lanes);
        let wave = batch.solve(&dests).expect("batched solve");
        assert_wave_matches_solo(
            &w,
            &dests,
            batch.word_bits(),
            wave,
            &format!("packed x{lanes}"),
        );
    }
}

#[test]
fn threaded_batches_are_bit_identical_at_every_lane_count() {
    let n = 6;
    let w = gen::random_connected(n, 0.35, 12, 31);
    for lanes in LANE_COUNTS {
        let pool = ThreadedBackend::<W64>::new(3);
        let mut batch =
            BatchSession::with_backend(&replicate(&w, lanes), pool).expect("batch construction");
        let dests = wavefront(n, lanes);
        let wave = batch.solve(&dests).expect("batched solve");
        assert_wave_matches_solo(
            &w,
            &dests,
            batch.word_bits(),
            wave,
            &format!("threaded x{lanes}"),
        );
    }
}

#[test]
fn scalar_batches_are_bit_identical_at_small_lane_counts() {
    // The scalar backend is the semantics oracle; keep its quadratic
    // cost in check by stopping at 8 lanes.
    let n = 6;
    let w = gen::random_connected(n, 0.35, 12, 31);
    for lanes in [1usize, 3, 8] {
        let mut batch = BatchSession::new(&replicate(&w, lanes)).expect("batch construction");
        let dests = wavefront(n, lanes);
        let wave = batch.solve(&dests).expect("batched solve");
        assert_wave_matches_solo(
            &w,
            &dests,
            batch.word_bits(),
            wave,
            &format!("scalar x{lanes}"),
        );
    }
}

#[test]
fn independent_graphs_solve_like_their_solo_twins() {
    // Phase 2 of the tentpole: every lane a *different* problem.
    let graphs: Vec<WeightMatrix> = (0..8)
        .map(|s| gen::random_digraph(7, 0.4, 11, 100 + s))
        .collect();
    let mut batch = BatchSession::new_packed(&graphs).expect("batch construction");
    let h = batch.word_bits();
    let dests: Vec<usize> = (0..8).map(|l| (l * 3) % 7).collect();
    let wave = batch.solve(&dests).expect("batched solve");
    for (l, out) in wave.into_iter().enumerate() {
        let got = out.unwrap_or_else(|e| panic!("lane {l} failed: {e}"));
        assert_eq!(got, solo(&graphs[l], dests[l], h), "lane {l}");
    }
}

#[test]
fn batched_all_pairs_pads_ragged_wavefronts_correctly() {
    let w = gen::random_digraph(7, 0.35, 9, 12);
    let solo_ap = McpSession::new(&w)
        .and_then(|mut s| s.all_pairs())
        .expect("solo all-pairs");
    // lanes > n (every wave padded) and lanes that leave a ragged tail.
    for lanes in [3usize, 8] {
        let mut batch = BatchSession::new_packed(&replicate(&w, lanes)).expect("batch");
        // Word widths agree automatically: both fit the same graph.
        assert_eq!(
            batch.word_bits(),
            McpSession::new(&w).unwrap().ppa().word_bits()
        );
        let ap = batch.all_pairs().expect("batched all-pairs");
        assert_eq!(ap, solo_ap, "lanes={lanes}");
    }
}

#[test]
fn empty_fault_map_leaves_batches_bit_identical() {
    let n = 6;
    let w = gen::random_connected(n, 0.3, 10, 77);
    let dests = wavefront(n, 3);
    let mut healthy = BatchSession::new_packed(&replicate(&w, 3)).expect("batch");
    let want = healthy.solve(&dests).expect("healthy solve");
    let mut faulted = BatchSession::new_packed(&replicate(&w, 3)).expect("batch");
    faulted
        .ppa_mut()
        .machine_mut()
        .attach_faults(FaultMap::new());
    let got = faulted.solve(&dests).expect("empty-map solve");
    for (l, (a, b)) in want.into_iter().zip(got).enumerate() {
        assert_eq!(a.unwrap(), b.unwrap(), "lane {l}");
    }
}

#[test]
fn stuck_open_fault_corrupts_only_its_own_lane() {
    // A StuckOpen switch adds a spurious bus head. Planted inside lane
    // 1's column window it can re-partition lane 1's buses, but no
    // cluster it creates can cross a lane boundary — the neighbouring
    // lanes' results must stay bit-identical to solo runs.
    let n = 6;
    let w = gen::random_connected(n, 0.35, 12, 5);
    let dests = wavefront(n, 3);
    let mut batch = BatchSession::new_packed(&replicate(&w, 3)).expect("batch");
    let h = batch.word_bits();
    let mut fm = FaultMap::new();
    fm.inject(Coord::new(2, n + 1), SwitchFault::StuckOpen); // lane 1, interior
    batch.ppa_mut().machine_mut().attach_faults(fm);
    let wave = batch.solve_verified(&dests).expect("machine-level success");
    for l in [0usize, 2] {
        let got = wave[l]
            .clone()
            .unwrap_or_else(|e| panic!("healthy lane {l} failed: {e}"));
        assert_eq!(got, solo(&w, dests[l], h), "healthy lane {l}");
    }
    // Lane 1 is allowed any fate but a silent wrong answer: the
    // verified solve either catches the corruption or the fault was
    // benign for these bus patterns and the result is exact.
    match &wave[1] {
        Ok(out) => assert_eq!(
            out.sow,
            solo(&w, dests[1], h).sow,
            "faulty lane went undetected"
        ),
        Err(e) => assert!(e.indicates_corruption(), "unexpected lane-1 error: {e}"),
    }
}

#[test]
fn lane_budgets_reproduce_solo_step_limits_exactly() {
    let n = 6;
    let w = gen::random_connected(n, 0.3, 10, 9);
    let lanes = 3;
    let probe = BatchSession::new_packed(&replicate(&w, lanes)).expect("batch");
    let h = probe.word_bits();
    // The true solo cost of destination 1 on a fresh machine.
    let mut session = McpSession::from_ppa(Ppa::square(n).with_word_bits(h), &w).expect("session");
    session.solve(1).expect("full solve");
    let full = session.into_ppa().steps().total();

    for budget in [4u64, full / 2, full - 1, full] {
        let mut solo_ppa = Ppa::square(n).with_word_bits(h);
        solo_ppa.limit_steps(budget);
        let want = McpSession::from_ppa(solo_ppa, &w).and_then(|mut s| s.solve(1));

        let mut batch = BatchSession::new_packed(&replicate(&w, lanes)).expect("batch");
        let limits = vec![
            LaneLimit::unlimited(),
            LaneLimit {
                step_budget: Some(budget),
                ..LaneLimit::default()
            },
            LaneLimit::unlimited(),
        ];
        let wave = batch
            .solve_with(&[0, 1, 2], &limits)
            .expect("batched solve");
        match (&wave[1], &want) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "budget {budget}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "budget {budget}"),
            (got, want) => panic!("budget {budget}: batch {got:?} vs solo {want:?}"),
        }
        // The limited lane's fate never leaks into its batchmates.
        for l in [0usize, 2] {
            let got = wave[l]
                .clone()
                .unwrap_or_else(|e| panic!("budget {budget}: lane {l} failed: {e}"));
            assert_eq!(got, solo(&w, l, h), "budget {budget}: lane {l}");
        }
    }
}

#[test]
fn cancelled_lane_resolves_typed_without_perturbing_batchmates() {
    let n = 6;
    let w = gen::random_connected(n, 0.35, 12, 21);
    for lanes in [3usize, 8] {
        let mut batch = BatchSession::new_packed(&replicate(&w, lanes)).expect("batch");
        let h = batch.word_bits();
        let token = CancelToken::new();
        token.cancel();
        let mut limits = vec![LaneLimit::unlimited(); lanes];
        limits[1].cancel = Some(token);
        let dests = wavefront(n, lanes);
        let wave = batch.solve_with(&dests, &limits).expect("batched solve");
        assert!(
            wave[1].as_ref().is_err_and(|e| e.is_cancelled()),
            "lanes={lanes}: cancelled lane must fail typed, got {:?}",
            wave[1]
        );
        for (l, out) in wave.into_iter().enumerate() {
            if l == 1 {
                continue;
            }
            let got = out.unwrap_or_else(|e| panic!("lanes={lanes}: lane {l} failed: {e}"));
            assert_eq!(got, solo(&w, dests[l], h), "lanes={lanes}: lane {l}");
        }
    }
}

/// The summary assertion the CI `batch` job greps for. Re-runs a small
/// slice of the matrix end to end so the greppable line attests an
/// actual differential pass, not just compilation.
#[test]
fn batch_gate_summary() {
    let n = 6;
    let w = gen::random_connected(n, 0.35, 12, 31);
    let mut identical = true;
    for lanes in [1usize, 3, 8] {
        let mut batch = BatchSession::new_packed(&replicate(&w, lanes)).expect("batch");
        let h = batch.word_bits();
        let dests = wavefront(n, lanes);
        let wave = batch.solve(&dests).expect("batched solve");
        for (l, out) in wave.into_iter().enumerate() {
            identical &= out.expect("lane result") == solo(&w, dests[l], h);
        }
    }
    println!("batched_bit_identical: {identical}");
    assert!(identical, "batched_bit_identical: false");
}
