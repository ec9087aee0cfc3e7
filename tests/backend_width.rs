//! Width-differential conformance suite for the wide-word backends:
//! random programs and random graphs must produce identical results AND
//! identical per-class step reports on the scalar reference, the packed
//! backend at both word widths (`W64`, `W256`), and the threaded
//! backend on 256-bit words at every tested thread count {1, 4, 8} —
//! including runs with injected transient faults, exhausted step
//! budgets, and cooperative cancellation.
//!
//! The machine word is a host-side representation choice; the simulated
//! machine must not be able to observe it. Every threaded runtime here
//! is built with `min_parallel = 0` so even these small arrays go
//! through the worker pool rendezvous rather than the inline fast path.

use ppa_graph::gen;
use ppa_machine::{
    CancelToken, Dim, Direction, PackedBackend, ThreadedBackend, TransientFaults, W256,
};
use ppa_mcp::mcp::{fit_word_bits, minimum_cost_path};
use ppa_ppc::{Parallel, Ppa};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

/// A packed PPC runtime on 256-bit SWAR words.
fn packed256_ppa(n: usize, h: u32) -> Ppa<PackedBackend<W256>> {
    Ppa::with_backend(n, PackedBackend::new()).with_word_bits(h)
}

/// A threaded 256-bit runtime that always exercises the worker pool.
fn threaded256_ppa(n: usize, h: u32, threads: usize) -> Ppa<ThreadedBackend<W256>> {
    Ppa::with_backend(n, ThreadedBackend::with_min_parallel(threads, 0)).with_word_bits(h)
}

fn direction() -> impl Strategy<Value = Direction> {
    prop_oneof![
        Just(Direction::North),
        Just(Direction::East),
        Just(Direction::South),
        Just(Direction::West),
    ]
}

/// Ensures every line has at least one Open node so the collectives never
/// trip the all-lines-driven guardrail.
fn force_driver(dim: Dim, dir: Direction, open: &mut Parallel<bool>) {
    let axis = dir.axis();
    for line in 0..dim.lines(axis) {
        let any =
            (0..dim.line_len(axis)).any(|pos| open.as_slice()[dim.line_index(dir, line, pos)]);
        if !any {
            let idx = dim.line_index(dir, line, 0);
            open.as_mut_slice()[idx] = true;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn collectives_match_scalar_at_both_widths(
        args in (3usize..=7).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0i64..=255, n * n),
                proptest::collection::vec(any::<bool>(), n * n),
            )
        }),
        dir in direction(),
        h in 4u32..=10,
    ) {
        let (n, vals, mask) = args;
        let dim = Dim::square(n);
        let cap = (1i64 << h) - 1;
        let vals: Vec<i64> = vals.into_iter().map(|v| v.min(cap)).collect();
        let src = Parallel::from_vec(dim, vals);
        let mut open = Parallel::from_vec(dim, mask);
        force_driver(dim, dir, &mut open);

        let mut s = Ppa::square(n).with_word_bits(h);
        let min_s = s.min(&src, dir, &open).unwrap();
        let max_s = s.max(&src, dir, &open).unwrap();

        let mut p64 = Ppa::<PackedBackend>::packed(n).with_word_bits(h);
        prop_assert_eq!(&p64.min(&src, dir, &open).unwrap(), &min_s);
        prop_assert_eq!(&p64.max(&src, dir, &open).unwrap(), &max_s);
        prop_assert_eq!(p64.steps(), s.steps());

        let mut p256 = packed256_ppa(n, h);
        prop_assert_eq!(&p256.min(&src, dir, &open).unwrap(), &min_s, "w256 min diverged");
        prop_assert_eq!(&p256.max(&src, dir, &open).unwrap(), &max_s, "w256 max diverged");
        prop_assert_eq!(p256.steps(), s.steps(), "w256 steps diverged");

        for threads in THREAD_COUNTS {
            let mut t = threaded256_ppa(n, h, threads);
            prop_assert_eq!(
                &t.min(&src, dir, &open).unwrap(), &min_s,
                "w256 min diverged at {} threads", threads
            );
            prop_assert_eq!(
                &t.max(&src, dir, &open).unwrap(), &max_s,
                "w256 max diverged at {} threads", threads
            );
            prop_assert_eq!(t.steps(), s.steps(), "w256 steps diverged at {} threads", threads);
        }
    }

    #[test]
    fn mcp_matches_scalar_at_both_widths(
        (n, seed) in (4usize..=8, 0u64..1000),
        dest_pick in 0usize..8,
    ) {
        let w = gen::random_digraph(n, 0.4, 15, seed);
        let h = fit_word_bits(&w).clamp(2, 62);
        let d = dest_pick % n;

        let mut s = Ppa::square(n).with_word_bits(h);
        let a = minimum_cost_path(&mut s, &w, d).unwrap();

        let mut p64 = Ppa::<PackedBackend>::packed(n).with_word_bits(h);
        let b = minimum_cost_path(&mut p64, &w, d).unwrap();
        prop_assert_eq!(&b.sow, &a.sow);
        prop_assert_eq!(&b.ptn, &a.ptn);
        prop_assert_eq!(p64.steps(), s.steps());

        let mut p256 = packed256_ppa(n, h);
        let c = minimum_cost_path(&mut p256, &w, d).unwrap();
        prop_assert_eq!(&c.sow, &a.sow, "w256 sow diverged");
        prop_assert_eq!(&c.ptn, &a.ptn, "w256 ptn diverged");
        prop_assert_eq!(c.iterations, a.iterations);
        prop_assert_eq!(p256.steps(), s.steps(), "w256 steps diverged");

        for threads in THREAD_COUNTS {
            let mut t = threaded256_ppa(n, h, threads);
            let e = minimum_cost_path(&mut t, &w, d).unwrap();
            prop_assert_eq!(&e.sow, &a.sow, "w256 sow diverged at {} threads", threads);
            prop_assert_eq!(&e.ptn, &a.ptn, "w256 ptn diverged at {} threads", threads);
            prop_assert_eq!(e.iterations, a.iterations);
            prop_assert_eq!(t.steps(), s.steps(), "w256 steps diverged at {} threads", threads);
        }
    }

    #[test]
    fn transient_faults_land_identically_at_both_widths(
        seed in 0u64..500,
        p_fault in prop_oneof![Just(0.002f64), Just(0.01), Just(1.0)],
    ) {
        let n = 6;
        let w = gen::random_connected(n, 0.45, 9, seed);
        let h = fit_word_bits(&w).clamp(2, 62);

        let mut s = Ppa::square(n).with_word_bits(h);
        s.machine_mut()
            .attach_transient_faults(TransientFaults::new(p_fault, seed));
        let want = minimum_cost_path(&mut s, &w, 0);

        // Fault routing lives on the issue side, so the corrupted run —
        // success or failure — must be bit-identical at every width.
        let check = |got: Result<ppa_mcp::McpOutput, ppa_mcp::McpError>,
                         label: &str|
         -> Result<(), TestCaseError> {
            match (&want, &got) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.sow, &b.sow, "faulty sow diverged on {}", label);
                    prop_assert_eq!(&a.ptn, &b.ptn, "faulty ptn diverged on {}", label);
                }
                (Err(a), Err(b)) => prop_assert_eq!(
                    a.to_string(), b.to_string(),
                    "faulty error diverged on {}", label
                ),
                (a, b) => prop_assert!(
                    false,
                    "divergent fault outcome on {}: {:?} vs {:?}", label, a, b
                ),
            }
            Ok(())
        };

        let mut p256 = packed256_ppa(n, h);
        p256.machine_mut()
            .attach_transient_faults(TransientFaults::new(p_fault, seed));
        check(minimum_cost_path(&mut p256, &w, 0), "packed256")?;
        prop_assert_eq!(p256.steps(), s.steps());

        for threads in THREAD_COUNTS {
            let mut t = threaded256_ppa(n, h, threads);
            t.machine_mut()
                .attach_transient_faults(TransientFaults::new(p_fault, seed));
            check(minimum_cost_path(&mut t, &w, 0), &format!("threaded256 x{threads}"))?;
            prop_assert_eq!(t.steps(), s.steps());
        }
    }

    #[test]
    fn step_budgets_exhaust_on_the_same_step_at_both_widths(
        seed in 0u64..200,
        budget in 5u64..400,
    ) {
        let n = 6;
        let w = gen::random_connected(n, 0.45, 9, seed);
        let h = fit_word_bits(&w).clamp(2, 62);

        let mut s = Ppa::square(n).with_word_bits(h);
        s.limit_steps(budget);
        let want = minimum_cost_path(&mut s, &w, 0);
        let want_left = s.steps_remaining();

        let check = |got: Result<ppa_mcp::McpOutput, ppa_mcp::McpError>,
                         label: &str|
         -> Result<(), TestCaseError> {
            match (&want, &got) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.sow, &b.sow, "sow diverged on {}", label);
                    prop_assert_eq!(&a.ptn, &b.ptn, "ptn diverged on {}", label);
                }
                (Err(a), Err(b)) => prop_assert_eq!(
                    a.to_string(), b.to_string(),
                    "budget error diverged on {}", label
                ),
                (a, b) => prop_assert!(
                    false,
                    "divergent budget outcome on {}: {:?} vs {:?}", label, a, b
                ),
            }
            Ok(())
        };

        // Exhaustion lands on the same controller step: the budget left
        // over must agree exactly, not just the error kind.
        let mut p256 = packed256_ppa(n, h);
        p256.limit_steps(budget);
        check(minimum_cost_path(&mut p256, &w, 0), "packed256")?;
        prop_assert_eq!(p256.steps_remaining(), want_left, "packed256 budget drift");
        prop_assert_eq!(p256.steps(), s.steps());

        for threads in THREAD_COUNTS {
            let mut t = threaded256_ppa(n, h, threads);
            t.limit_steps(budget);
            check(minimum_cost_path(&mut t, &w, 0), &format!("threaded256 x{threads}"))?;
            prop_assert_eq!(t.steps_remaining(), want_left, "at {} threads", threads);
            prop_assert_eq!(t.steps(), s.steps());
        }
    }

    #[test]
    fn cancellation_fires_on_the_same_step_at_both_widths(
        seed in 0u64..200,
    ) {
        let n = 6;
        let w = gen::random_connected(n, 0.45, 9, seed);
        let h = fit_word_bits(&w).clamp(2, 62);

        // A pre-raised token is the deterministic case: every backend
        // must refuse at its first fallible instruction with the same
        // typed error and the same number of issued steps.
        let cancelled = || {
            let token = CancelToken::new();
            token.cancel();
            token
        };

        let mut s = Ppa::square(n).with_word_bits(h);
        s.attach_cancel(cancelled());
        let want = minimum_cost_path(&mut s, &w, 0);
        let want_err = match &want {
            Err(e) => e.to_string(),
            Ok(_) => return Err(TestCaseError::fail("cancelled scalar run succeeded")),
        };

        let mut p256 = packed256_ppa(n, h);
        p256.attach_cancel(cancelled());
        let got = minimum_cost_path(&mut p256, &w, 0);
        prop_assert_eq!(
            got.err().map(|e| e.to_string()),
            Some(want_err.clone()),
            "packed256 cancel outcome diverged"
        );
        prop_assert_eq!(p256.steps(), s.steps(), "packed256 cancel steps diverged");

        for threads in THREAD_COUNTS {
            let mut t = threaded256_ppa(n, h, threads);
            t.attach_cancel(cancelled());
            let got = minimum_cost_path(&mut t, &w, 0);
            prop_assert_eq!(
                got.err().map(|e| e.to_string()),
                Some(want_err.clone()),
                "threaded256 x{} cancel outcome diverged", threads
            );
            prop_assert_eq!(t.steps(), s.steps(), "cancel steps diverged at {} threads", threads);
        }
    }
}

/// Lane seams must be invisible to 256-bit words: a two-lane batch on a
/// 20-vertex graph builds a 20 x 40 machine whose flat bit indices 256
/// and 512 — interior 256-bit word boundaries — fall in the middle of
/// lane 0 and lane 1 respectively, so every W256 word spans both sides
/// of a seam. Each lane must still match a solo scalar run exactly.
#[test]
fn lane_seam_straddling_a_w256_word_boundary_is_invisible() {
    use ppa_mcp::batch::replicate;
    use ppa_mcp::BatchSession;

    let n = 20usize;
    let lanes = 2usize;
    let w = gen::random_connected(n, 0.3, 25, 0xA11CE);
    let graphs = replicate(&w, lanes);
    let dests = [3usize, 17];

    let mut batch = BatchSession::with_backend(&graphs, PackedBackend::<W256>::new()).unwrap();
    let wave = batch.solve(&dests).unwrap();
    let word_bits = batch.word_bits();

    for (lane, &d) in dests.iter().enumerate() {
        let got = wave[lane].as_ref().expect("lane converges");
        let solo = Ppa::square(n).with_word_bits(word_bits);
        let want = ppa_mcp::McpSession::from_ppa(solo, &w)
            .and_then(|mut s| s.solve(d))
            .unwrap();
        assert_eq!(
            got.sow, want.sow,
            "lane {lane}: SOW diverged across the seam"
        );
        assert_eq!(
            got.ptn, want.ptn,
            "lane {lane}: PTN diverged across the seam"
        );
        assert_eq!(
            got.stats.total, want.stats.total,
            "lane {lane}: step report diverged across the seam"
        );
    }
}
