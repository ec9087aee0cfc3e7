//! Three-way differential conformance suite for the threaded backend:
//! random programs and random graphs must produce identical results AND
//! identical step reports on [`ThreadedBackend`], [`PackedBackend`], and
//! the scalar reference — at every tested thread count {1, 2, 3, 8},
//! including runs with injected faults and step budgets.
//!
//! Thread count is a host-side tuning knob; the simulated machine must
//! not be able to observe it. Every threaded runtime here is built with
//! `min_parallel = 0` so even these small arrays go through the worker
//! pool rendezvous rather than the inline fast path.

use ppa_graph::gen;
use ppa_machine::{Dim, Direction, PackedBackend, ThreadedBackend, TransientFaults};
use ppa_mcp::mcp::{fit_word_bits, minimum_cost_path};
use ppa_ppc::{Parallel, Ppa};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// A threaded PPC runtime that always exercises the worker pool.
fn threaded_ppa(n: usize, h: u32, threads: usize) -> Ppa<ThreadedBackend> {
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
    fn collectives_match_scalar_and_packed_at_every_thread_count(
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
        let mut p = Ppa::<PackedBackend>::packed(n).with_word_bits(h);
        let min_s = s.min(&src, dir, &open).unwrap();
        let max_s = s.max(&src, dir, &open).unwrap();
        let min_p = p.min(&src, dir, &open).unwrap();
        let max_p = p.max(&src, dir, &open).unwrap();
        prop_assert_eq!(&min_s, &min_p);
        prop_assert_eq!(&max_s, &max_p);

        for threads in THREAD_COUNTS {
            let mut t = threaded_ppa(n, h, threads);
            let min_t = t.min(&src, dir, &open).unwrap();
            let max_t = t.max(&src, dir, &open).unwrap();
            prop_assert_eq!(&min_t, &min_s, "min diverged at {} threads", threads);
            prop_assert_eq!(&max_t, &max_s, "max diverged at {} threads", threads);
            prop_assert_eq!(t.steps(), s.steps(), "steps diverged at {} threads", threads);
        }
    }

    #[test]
    fn mcp_matches_scalar_and_packed_at_every_thread_count(
        (n, seed) in (4usize..=8, 0u64..1000),
        dest_pick in 0usize..8,
    ) {
        let w = gen::random_digraph(n, 0.4, 15, seed);
        let h = fit_word_bits(&w).clamp(2, 62);
        let d = dest_pick % n;

        let mut s = Ppa::square(n).with_word_bits(h);
        let a = minimum_cost_path(&mut s, &w, d).unwrap();
        let mut p = Ppa::<PackedBackend>::packed(n).with_word_bits(h);
        let b = minimum_cost_path(&mut p, &w, d).unwrap();
        prop_assert_eq!(&a.sow, &b.sow);
        prop_assert_eq!(&a.ptn, &b.ptn);
        prop_assert_eq!(s.steps(), p.steps());

        for threads in THREAD_COUNTS {
            let mut t = threaded_ppa(n, h, threads);
            let c = minimum_cost_path(&mut t, &w, d).unwrap();
            prop_assert_eq!(&c.sow, &a.sow, "sow diverged at {} threads", threads);
            prop_assert_eq!(&c.ptn, &a.ptn, "ptn diverged at {} threads", threads);
            prop_assert_eq!(c.iterations, a.iterations);
            prop_assert_eq!(t.steps(), s.steps(), "steps diverged at {} threads", threads);
        }
    }

    #[test]
    fn transient_faults_land_identically_at_every_thread_count(
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

        for threads in THREAD_COUNTS {
            let mut t = threaded_ppa(n, h, threads);
            t.machine_mut()
                .attach_transient_faults(TransientFaults::new(p_fault, seed));
            let got = minimum_cost_path(&mut t, &w, 0);
            // Fault routing lives on the issue side, so the corrupted
            // run — success or failure — must be bit-identical too.
            match (&want, &got) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.sow, &b.sow, "faulty sow diverged at {} threads", threads);
                    prop_assert_eq!(&a.ptn, &b.ptn, "faulty ptn diverged at {} threads", threads);
                }
                (Err(a), Err(b)) => prop_assert_eq!(
                    a.to_string(), b.to_string(),
                    "faulty error diverged at {} threads", threads
                ),
                (a, b) => prop_assert!(
                    false,
                    "divergent fault outcome at {} threads: {:?} vs {:?}", threads, a, b
                ),
            }
            prop_assert_eq!(t.steps(), s.steps());
        }
    }

    #[test]
    fn step_budgets_exhaust_on_the_same_step_at_every_thread_count(
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

        for threads in THREAD_COUNTS {
            let mut t = threaded_ppa(n, h, threads);
            t.limit_steps(budget);
            let got = minimum_cost_path(&mut t, &w, 0);
            match (&want, &got) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.sow, &b.sow);
                    prop_assert_eq!(&a.ptn, &b.ptn);
                }
                (Err(a), Err(b)) => prop_assert_eq!(
                    a.to_string(), b.to_string(),
                    "budget error diverged at {} threads", threads
                ),
                (a, b) => prop_assert!(
                    false,
                    "divergent budget outcome at {} threads: {:?} vs {:?}", threads, a, b
                ),
            }
            // Exhaustion lands on the same controller step: the budget
            // left over must agree exactly, not just the error kind.
            prop_assert_eq!(t.steps_remaining(), want_left, "at {} threads", threads);
            prop_assert_eq!(t.steps(), s.steps());
        }
    }
}
