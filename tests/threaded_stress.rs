//! Seeded concurrency stress for the threaded backend: cancel and
//! budget-exhaust solves mid-flight, over and over, against a backend
//! whose worker pool is forced into play on every micro-op. The suite
//! must neither deadlock nor poison a mutex (a wedged pool would hang
//! the test, which CI runs under a hard `timeout`), and every
//! deterministic interruption must produce the *identical*
//! `MachineError` — on the identical controller step — as the scalar
//! reference.

use ppa_graph::gen;
use ppa_machine::{CancelToken, ThreadedBackend, W64};
use ppa_mcp::mcp::{fit_word_bits, minimum_cost_path};
use ppa_mcp::McpSession;
use ppa_ppc::Ppa;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const ITERATIONS: usize = 120;

fn threaded_ppa(n: usize, h: u32, threads: usize) -> Ppa<ThreadedBackend> {
    Ppa::with_backend(n, ThreadedBackend::with_min_parallel(threads, 0)).with_word_bits(h)
}

/// Budget exhaustion mid-solve, ≥100 times, against the scalar oracle:
/// the threaded backend must fail with the same `MachineError` (wrapped
/// identically by the solver) and leave the same number of budgeted
/// steps unspent, for a rotating set of thread counts.
#[test]
fn budget_exhaustion_is_deterministic_across_the_pool() {
    let mut rng = SmallRng::seed_from_u64(0x7EAD);
    for iter in 0..ITERATIONS {
        let n = rng.gen_range(5..=7);
        let w = gen::random_connected(n, 0.45, 9, iter as u64);
        let h = fit_word_bits(&w).clamp(2, 62);
        let budget = rng.gen_range(3..250u64);
        let threads = [2, 3, 8][iter % 3];

        let mut s = Ppa::square(n).with_word_bits(h);
        s.limit_steps(budget);
        let want = minimum_cost_path(&mut s, &w, 0);

        let mut t = threaded_ppa(n, h, threads);
        t.limit_steps(budget);
        let got = minimum_cost_path(&mut t, &w, 0);

        match (&want, &got) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.sow, b.sow, "iter {iter}");
                assert_eq!(a.ptn, b.ptn, "iter {iter}");
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "iter {iter}");
                assert!(
                    b.is_step_budget_exhausted(),
                    "iter {iter}: wrong error class {b:?}"
                );
            }
            (a, b) => panic!("iter {iter}: divergent outcomes {a:?} vs {b:?}"),
        }
        assert_eq!(
            t.steps_remaining(),
            s.steps_remaining(),
            "iter {iter}: exhaustion did not land on the same controller step"
        );
    }
}

/// Cancellation mid-solve, ≥100 times: a watchdog thread fires the
/// token at a seeded delay while the pool is mid-rendezvous. Whatever
/// the race decides, the solve must return (no deadlock), the session
/// must stay usable (no poisoned mutex, no wedged worker), and the
/// outcome is either the scalar reference answer or a clean
/// `MachineError::Cancelled` — never anything in between.
#[test]
fn midflight_cancellation_never_wedges_the_pool() {
    let mut rng = SmallRng::seed_from_u64(0xCA9CE1);
    let n = 6;
    let w = gen::random_connected(n, 0.45, 9, 99);
    let h = fit_word_bits(&w).clamp(2, 62);
    let want = minimum_cost_path(&mut Ppa::square(n).with_word_bits(h), &w, 0).unwrap();

    // One long-lived backend: the same pool absorbs all the cancelled
    // solves, so a single leaked or wedged worker would fail the run.
    let threads = 3;
    let mut t = threaded_ppa(n, h, threads);
    let mut cancelled = 0u32;
    for iter in 0..ITERATIONS {
        let token = CancelToken::new();
        t.attach_cancel(token.clone());
        let delay = Duration::from_micros(rng.gen_range(0..400));
        let killer = std::thread::spawn(move || {
            std::thread::sleep(delay);
            token.cancel();
        });
        match minimum_cost_path(&mut t, &w, 0) {
            Ok(out) => {
                assert_eq!(out.sow, want.sow, "iter {iter}");
                assert_eq!(out.ptn, want.ptn, "iter {iter}");
            }
            Err(e) if e.is_cancelled() => cancelled += 1,
            Err(other) => panic!("iter {iter}: unexpected failure {other:?}"),
        }
        killer.join().expect("cancel thread must not panic");
        t.reset_steps();
    }
    // The seeded delays straddle the solve duration, so both races must
    // actually occur; a pool that serializes everything (or one that
    // never completes) would push all 120 to one side.
    assert!(cancelled > 0, "no solve was ever cancelled mid-flight");

    // And the pool still computes correctly after all that abuse.
    t.attach_cancel(CancelToken::new());
    let after = minimum_cost_path(&mut t, &w, 0).unwrap();
    assert_eq!(after.sow, want.sow);
    assert_eq!(after.ptn, want.ptn);
}

/// Pre-cancelled runs are the deterministic edge of the race above:
/// every thread count must refuse on the very first costed step with
/// the exact scalar error.
#[test]
fn precancelled_solves_fail_identically_to_scalar() {
    let w = gen::random_connected(6, 0.45, 9, 7);
    let h = fit_word_bits(&w).clamp(2, 62);

    let mut s = Ppa::square(6).with_word_bits(h);
    let token = CancelToken::new();
    token.cancel();
    s.attach_cancel(token);
    let want = minimum_cost_path(&mut s, &w, 0).unwrap_err();

    for threads in [1, 2, 3, 8] {
        let mut t = threaded_ppa(6, h, threads);
        let token = CancelToken::new();
        token.cancel();
        t.attach_cancel(token);
        let got = minimum_cost_path(&mut t, &w, 0).unwrap_err();
        assert_eq!(got.to_string(), want.to_string(), "threads={threads}");
        assert_eq!(t.steps(), s.steps(), "threads={threads}");
    }
}

/// Session-level smoke over the public constructor (default
/// `min_parallel`, the configuration `--backend threaded` ships): the
/// threaded session must equal the scalar session on a full all-pairs
/// campaign.
#[test]
fn threaded_session_matches_scalar_all_pairs() {
    let w = gen::random_connected(9, 0.3, 14, 5);
    let scalar = McpSession::new(&w).unwrap().all_pairs().unwrap();
    for threads in [1, 4] {
        let threaded = McpSession::with_backend(&w, ThreadedBackend::<W64>::new(threads))
            .unwrap()
            .all_pairs()
            .unwrap();
        assert_eq!(
            scalar.matrix_flat(),
            threaded.matrix_flat(),
            "threads={threads}"
        );
        assert_eq!(
            scalar.total_iterations(),
            threaded.total_iterations(),
            "threads={threads}"
        );
    }
}
