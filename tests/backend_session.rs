//! Integration checks for the pluggable-backend acceptance criteria:
//! the packed backend solves MCP bit-identically to the scalar backend
//! (outputs *and* step counters) — on random digraphs, under injected
//! transient faults, exhausted step budgets and cancellation, and across
//! lane seams — and so do widest paths and the four bus/combining models
//! the same driver runs; sessions match the one-shot drivers, and a
//! session reuses its plan cache and mask arena across destinations
//! instead of re-allocating.

use std::time::{Duration, Instant};

use ppa_graph::{gen, WeightMatrix};
use ppa_machine::{CancelToken, PackedBackend, TransientFaults};
use ppa_mcp::batch::replicate;
use ppa_mcp::mcp::{fit_word_bits, McpOutput};
use ppa_mcp::variants::{minimum_cost_path_variant, BusModel, MinModel, VariantConfig};
use ppa_mcp::widest::widest_path;
use ppa_mcp::{apsp, mcp::minimum_cost_path, BatchSession, McpError, McpSession};
use ppa_obs::{Event, TraceSink};
use ppa_ppc::Ppa;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn packed_mcp_matches_scalar_mcp_exactly() {
    // n = 24 and 96 leave padding in every packed row.
    for (n, seed) in [(8usize, 1u64), (12, 7), (16, 42), (24, 5), (96, 3)] {
        let w = gen::random_connected(n, 0.3, 20, seed);
        let h = ppa_mcp::mcp::fit_word_bits(&w).clamp(2, 62);

        let mut scalar = Ppa::square(n).with_word_bits(h);
        let mut packed = Ppa::<PackedBackend>::packed(n).with_word_bits(h);
        let a = minimum_cost_path(&mut scalar, &w, 0).unwrap();
        let b = minimum_cost_path(&mut packed, &w, 0).unwrap();

        assert_eq!(a.sow, b.sow, "n={n} seed={seed}");
        assert_eq!(a.ptn, b.ptn, "n={n} seed={seed}");
        assert_eq!(a.iterations, b.iterations, "n={n} seed={seed}");
        // The acceptance bar: identical instruction streams, class by
        // class, not just identical answers.
        assert_eq!(scalar.steps(), packed.steps(), "n={n} seed={seed}");
        extensions_match(&w, n / 2, h).unwrap();
    }
}

/// The four bus/combining models of the MCP driver.
const MODELS: [VariantConfig; 4] = [
    VariantConfig {
        bus: BusModel::Circular,
        min: MinModel::BitSerial,
    },
    VariantConfig {
        bus: BusModel::Linear,
        min: MinModel::BitSerial,
    },
    VariantConfig {
        bus: BusModel::Circular,
        min: MinModel::Word,
    },
    VariantConfig {
        bus: BusModel::Linear,
        min: MinModel::Word,
    },
];

/// Widest paths and every model toward `d` on a scalar and a packed
/// runtime at `h` bits: equal results — `McpStats` and errors included —
/// and equal machine step reports.
fn extensions_match(w: &WeightMatrix, d: usize, h: u32) -> Result<(), TestCaseError> {
    let n = w.n();
    let (mut scalar, mut packed) = (Ppa::square(n).with_word_bits(h), packed_ppa(n, h));
    let want = widest_path(&mut scalar, w, d);
    prop_assert!(want.is_ok(), "{:?}", want);
    prop_assert_eq!(
        widest_path(&mut packed, w, d),
        want,
        "widest n={} d={}",
        n,
        d
    );
    prop_assert_eq!(packed.steps(), scalar.steps());
    for config in MODELS {
        let (mut scalar, mut packed) = (Ppa::square(n).with_word_bits(h), packed_ppa(n, h));
        let want = minimum_cost_path_variant(&mut scalar, w, d, config);
        prop_assert!(want.is_ok(), "{:?}: {:?}", config, want);
        let got = minimum_cost_path_variant(&mut packed, w, d, config);
        prop_assert_eq!(got, want, "{:?} n={} d={}", config, n, d);
        prop_assert_eq!(packed.steps(), scalar.steps());
    }
    Ok(())
}

#[test]
fn packed_session_all_pairs_matches_scalar_apsp_driver() {
    let w = gen::random_connected(10, 0.3, 15, 9);
    let mut session = McpSession::new_packed(&w).unwrap();
    let by_session = session.all_pairs().unwrap();

    let mut ppa = Ppa::square(10).with_word_bits(session.ppa().word_bits());
    let by_driver = apsp::all_pairs(&mut ppa, &w).unwrap();

    assert_eq!(by_session.matrix_flat(), by_driver.matrix_flat());
    assert_eq!(by_session.total_iterations(), by_driver.total_iterations());
}

#[test]
fn session_reuses_planes_and_plans_across_destinations() {
    let n = 12;
    let w = gen::random_connected(n, 0.25, 18, 17);
    let ppa = Ppa::<PackedBackend>::packed(n).with_word_bits(16);
    let mut session = McpSession::from_ppa(ppa, &w).unwrap();

    session.solve(0).unwrap();
    let warm = session.exec_stats();
    assert!(warm.arena_fresh > 0, "first solve must populate the arena");

    for d in 1..n {
        session.solve(d).unwrap();
    }
    let done = session.exec_stats();
    assert_eq!(
        done.arena_fresh, warm.arena_fresh,
        "destinations after the first must not allocate new planes"
    );
    assert!(done.arena_reused > warm.arena_reused);
    assert!(
        done.plan_hit_rate() > 0.9,
        "bus-plan cache should be warm across destinations: {done:?}"
    );
}

#[test]
fn packed_register_traffic_allocates_nothing_after_warm_up() {
    // Masks (one word per 64 PEs) and h-plane registers (h words per 64
    // PEs) share one arena. After one warm-up solve, every later solve —
    // solo or lane-batched, verified or not — must be served from it.
    let w = gen::random_connected(20, 0.3, 15, 5);
    let mut session = McpSession::new_packed(&w).unwrap();
    session.solve(0).unwrap();
    let warm = session.exec_stats();
    for d in 1..20 {
        session.solve(d).unwrap();
        session.solve_verified(d).unwrap();
    }
    let delta = session.exec_stats().since(&warm);
    assert_eq!(delta.arena_fresh, 0, "solo: {delta:?}");
    assert!(delta.arena_reused > 0);

    let mut batch = BatchSession::new_packed(&replicate(&w, 3)).unwrap();
    batch.solve(&[0, 1, 2]).unwrap();
    let warm = batch.exec_stats();
    for wave in 1..6 {
        let dests = [wave, wave + 6, wave + 12];
        batch.solve(&dests).unwrap();
        batch.solve_verified(&dests).unwrap();
    }
    let delta = batch.exec_stats().since(&warm);
    assert_eq!(delta.arena_fresh, 0, "batch: {delta:?}");
}

/// A packed runtime of `n x n` PEs at `h` bits.
fn packed_ppa(n: usize, h: u32) -> Ppa<PackedBackend> {
    Ppa::<PackedBackend>::packed(n).with_word_bits(h)
}

/// Asserts two possibly-failed MCP runs agree: equal outputs on success,
/// equal error text on failure, and no success/failure split.
fn same_outcome(
    want: &Result<McpOutput, McpError>,
    got: &Result<McpOutput, McpError>,
) -> Result<(), TestCaseError> {
    match (want, got) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(&a.sow, &b.sow, "sow diverged");
            prop_assert_eq!(&a.ptn, &b.ptn, "ptn diverged");
            prop_assert_eq!(a.iterations, b.iterations, "iterations diverged");
        }
        (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string(), "errors diverged"),
        (a, b) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", a, b),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_mcp_matches_scalar_on_random_digraphs(
        (n, seed) in (4usize..=8, 0u64..1000),
        dest_pick in 0usize..8,
    ) {
        let w = gen::random_digraph(n, 0.4, 15, seed);
        let h = fit_word_bits(&w).clamp(2, 62);
        let d = dest_pick % n;

        let mut scalar = Ppa::square(n).with_word_bits(h);
        let a = minimum_cost_path(&mut scalar, &w, d).unwrap();
        let mut packed = packed_ppa(n, h);
        let b = minimum_cost_path(&mut packed, &w, d).unwrap();
        prop_assert_eq!(&b.sow, &a.sow);
        prop_assert_eq!(&b.ptn, &a.ptn);
        prop_assert_eq!(b.iterations, a.iterations);
        prop_assert_eq!(packed.steps(), scalar.steps());
        extensions_match(&w, d, h)?;
    }

    #[test]
    fn packed_transient_faults_land_identically(
        seed in 0u64..500,
        p_fault in prop_oneof![Just(0.002f64), Just(0.01), Just(1.0)],
    ) {
        let n = 6;
        let w = gen::random_connected(n, 0.45, 9, seed);
        let h = fit_word_bits(&w).clamp(2, 62);

        // Fault routing lives on the issue side, so the corrupted run —
        // success or failure — must be bit-identical on both backends.
        let mut scalar = Ppa::square(n).with_word_bits(h);
        scalar
            .machine_mut()
            .attach_transient_faults(TransientFaults::new(p_fault, seed));
        let want = minimum_cost_path(&mut scalar, &w, 0);
        let mut packed = packed_ppa(n, h);
        packed
            .machine_mut()
            .attach_transient_faults(TransientFaults::new(p_fault, seed));
        same_outcome(&want, &minimum_cost_path(&mut packed, &w, 0))?;
        prop_assert_eq!(packed.steps(), scalar.steps());
    }

    #[test]
    fn packed_step_budgets_exhaust_on_the_same_step(
        seed in 0u64..200,
        budget in 5u64..400,
    ) {
        let n = 6;
        let w = gen::random_connected(n, 0.45, 9, seed);
        let h = fit_word_bits(&w).clamp(2, 62);

        let mut scalar = Ppa::square(n).with_word_bits(h);
        scalar.limit_steps(budget);
        let want = minimum_cost_path(&mut scalar, &w, 0);
        let mut packed = packed_ppa(n, h);
        packed.limit_steps(budget);
        same_outcome(&want, &minimum_cost_path(&mut packed, &w, 0))?;
        // Exhaustion lands on the same controller step: the budget left
        // over must agree exactly, not just the error kind.
        prop_assert_eq!(packed.steps_remaining(), scalar.steps_remaining());
        prop_assert_eq!(packed.steps(), scalar.steps());
    }

    #[test]
    fn packed_precancelled_solves_fail_identically(seed in 0u64..200) {
        let n = 6;
        let w = gen::random_connected(n, 0.45, 9, seed);
        let h = fit_word_bits(&w).clamp(2, 62);

        // A pre-raised token is the deterministic case: both backends
        // must refuse at their first fallible instruction with the same
        // typed error and the same number of issued steps.
        let cancelled = || {
            let token = CancelToken::new();
            token.cancel();
            token
        };
        let mut scalar = Ppa::square(n).with_word_bits(h);
        scalar.attach_cancel(cancelled());
        let want = minimum_cost_path(&mut scalar, &w, 0);
        prop_assert!(want.as_ref().is_err_and(McpError::is_cancelled), "{:?}", want);
        let mut packed = packed_ppa(n, h);
        packed.attach_cancel(cancelled());
        same_outcome(&want, &minimum_cost_path(&mut packed, &w, 0))?;
        prop_assert_eq!(packed.steps(), scalar.steps());
    }
}

/// A trace sink that raises `token` as it records the instruction just
/// before step `at`, so the machine's guard refuses the instruction at
/// step `at`.
struct CancelAt {
    token: CancelToken,
    at: u64,
}

impl TraceSink for CancelAt {
    fn enter_span(&mut self, _name: &str, _step: u64) {}

    fn exit_span(&mut self, _step: u64) {}

    fn event(&mut self, ev: &Event<'_>) {
        if ev.step + ev.dur >= self.at {
            self.token.cancel();
        }
    }
}

/// Cancellation mid-solve on one long-lived packed runtime. First, 60
/// times, a sink raises the token at a drawn step inside the solve: every
/// such solve must come back `Cancelled`. Then, 120 times, a watchdog
/// thread fires the token after a seeded delay drawn across the solve's
/// duration, covering the token across threads: whatever the race
/// decides, the outcome is either the scalar reference answer or a clean
/// `Cancelled`, never anything in between. After every cancelled solve
/// the runtime (plan cache, slice cache, mask arena) solves
/// bit-identically.
#[test]
fn packed_midflight_cancellation_leaves_the_runtime_usable() {
    let mut rng = SmallRng::seed_from_u64(0xCA9CE1);
    let n = 16;
    let w = gen::random_connected(n, 0.3, 25, 99);
    let h = fit_word_bits(&w).clamp(2, 62);
    let want = minimum_cost_path(&mut Ppa::square(n).with_word_bits(h), &w, 0).unwrap();

    let mut packed = packed_ppa(n, h);
    let start = Instant::now();
    minimum_cost_path(&mut packed, &w, 0).unwrap();
    let solve_us = start.elapsed().as_micros().max(1) as u64;
    let steps = packed.steps().total();
    assert_eq!(steps, want.stats.total.total());
    for draw in 0..60 {
        let at = rng.gen_range(1..steps);
        packed.reset_steps();
        let token = CancelToken::new();
        packed.attach_cancel(token.clone());
        packed.install_sink(CancelAt { token, at });
        let got = minimum_cost_path(&mut packed, &w, 0);
        packed.take_sink();
        assert!(
            got.as_ref().is_err_and(McpError::is_cancelled),
            "draw {draw}: cancelled before step {at} of {steps}, got {got:?}"
        );
        // Unguarded mask instructions (votes, knockouts) may run on until
        // the next guarded one.
        let stopped = packed.steps().total();
        assert!(
            (at..steps).contains(&stopped),
            "draw {draw}: stopped at {stopped}"
        );
        packed.reset_steps();
        packed.attach_cancel(CancelToken::new());
        let after = minimum_cost_path(&mut packed, &w, 0).unwrap();
        assert_eq!(after.sow, want.sow, "draw {draw}");
        assert_eq!(after.ptn, want.ptn, "draw {draw}");
        assert_eq!(packed.steps(), want.stats.total, "draw {draw}");
    }

    packed.reset_steps();
    for iter in 0..120 {
        let token = CancelToken::new();
        packed.attach_cancel(token.clone());
        let delay = Duration::from_micros(rng.gen_range(0..2 * solve_us));
        // The killer is running before the solve starts and spins out its
        // delay: a sleeping thread on a busy host can wake only after a
        // millisecond-long solve has finished, and never cancel anything.
        let ready = std::sync::Arc::new(std::sync::Barrier::new(2));
        let killer = {
            let ready = std::sync::Arc::clone(&ready);
            std::thread::spawn(move || {
                ready.wait();
                let start = Instant::now();
                while start.elapsed() < delay {
                    std::hint::spin_loop();
                }
                token.cancel();
            })
        };
        ready.wait();
        match minimum_cost_path(&mut packed, &w, 0) {
            Ok(out) => {
                assert_eq!(out.sow, want.sow, "iter {iter}");
                assert_eq!(out.ptn, want.ptn, "iter {iter}");
            }
            Err(e) if e.is_cancelled() => {}
            Err(other) => panic!("iter {iter}: unexpected failure {other:?}"),
        }
        killer.join().expect("cancel thread must not panic");
        packed.reset_steps();
    }

    packed.attach_cancel(CancelToken::new());
    let after = minimum_cost_path(&mut packed, &w, 0).unwrap();
    assert_eq!(after.sow, want.sow);
    assert_eq!(after.ptn, want.ptn);
}

/// Lane seams must be invisible to packed words: a two-lane batch on a
/// 20-vertex graph builds a 20 x 40 machine whose lane seams sit at
/// columns 20 and 40 of each row, while the 64-bit word boundaries fall
/// at flat indices 64, 128, ... — inside lanes, so most words span a
/// seam. Each lane must still match a solo scalar run exactly.
#[test]
fn lane_seam_straddling_a_word_boundary_is_invisible() {
    let n = 20usize;
    let lanes = 2usize;
    let w = gen::random_connected(n, 0.3, 25, 0xA11CE);
    let graphs = replicate(&w, lanes);
    let dests = [3usize, 17];

    let mut batch = BatchSession::new_packed(&graphs).unwrap();
    let wave = batch.solve(&dests).unwrap();
    let word_bits = batch.word_bits();

    for (lane, &d) in dests.iter().enumerate() {
        let got = wave[lane].as_ref().expect("lane converges");
        let solo = Ppa::square(n).with_word_bits(word_bits);
        let want = McpSession::from_ppa(solo, &w)
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
