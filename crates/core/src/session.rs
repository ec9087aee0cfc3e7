//! Reusable solver sessions: one machine, many destinations.
//!
//! [`mcp::minimum_cost_path`] is a one-shot
//! entry point: every call rebuilds the `ROW`/`COL` registers, the derived
//! masks, and the `W` layout from scratch. That is the right accounting
//! for reproducing the paper's single-destination step counts, but it
//! wastes work when the same graph is solved for many destinations — the
//! all-pairs driver, the CLI, and the benchmark harness all do exactly
//! that.
//!
//! An [`McpSession`] owns a runtime (machine + execution backend) together
//! with the destination-independent registers prepared once from a weight
//! matrix. Each [`McpSession::solve`] is a one-lane run of the solve
//! driver every entry point shares (`mcp::solve_lanes`): it only rebuilds
//! the four destination masks before running the do-while loop, and — on a
//! plan-caching backend such as
//! [`PackedBackend`] — reuses the bus plans
//! and mask buffers warmed up by earlier solves. When a metrics registry
//! is attached, every solve publishes the backend's plan-cache and arena
//! deltas under `backend.*`.

use crate::apsp::AllPairs;
use crate::mcp::{self, McpOutput, Prepared};
use crate::Result;
use ppa_graph::WeightMatrix;
use ppa_machine::{ExecStats, Executor, PackedBackend, ScalarBackend};
use ppa_ppc::Ppa;

/// A minimum-cost-path solver session: a runtime plus the prepared
/// destination-independent registers for one weight matrix.
#[derive(Debug)]
pub struct McpSession<E: Executor = ScalarBackend> {
    ppa: Ppa<E>,
    w: WeightMatrix,
    prep: Prepared<E>,
}

impl McpSession<ScalarBackend> {
    /// Builds a scalar-backend session sized and word-fitted for `w`.
    ///
    /// # Errors
    /// See [`McpSession::with_backend`].
    pub fn new(w: &WeightMatrix) -> Result<Self> {
        Self::with_backend(w, ScalarBackend)
    }
}

impl McpSession<PackedBackend> {
    /// Builds a packed-backend session sized and word-fitted for `w`.
    ///
    /// # Errors
    /// See [`McpSession::with_backend`].
    pub fn new_packed(w: &WeightMatrix) -> Result<Self> {
        Self::with_backend(w, PackedBackend::new())
    }
}

impl<E: Executor> McpSession<E> {
    /// Builds a session on `exec`, sized and word-fitted for `w`.
    ///
    /// # Errors
    /// Propagates the solver's size/word-width contract checks (which
    /// cannot fire for the auto-fitted machine built here).
    pub fn with_backend(w: &WeightMatrix, exec: E) -> Result<Self> {
        let ppa = Ppa::with_backend(w.n(), exec).with_word_bits(mcp::fit_word_bits(w).clamp(2, 62));
        Self::from_ppa(ppa, w)
    }

    /// Wraps an existing runtime, preparing the shared planes for `w`.
    ///
    /// The preparation costs five ALU steps on `ppa` (the `ROW`/`COL`
    /// registers and derived masks); the `W` layout is host I/O and free.
    ///
    /// # Errors
    /// [`McpError::SizeMismatch`](crate::McpError::SizeMismatch) if the
    /// machine is not `n x n` for the `n`-vertex graph, or
    /// [`McpError::WordWidthTooSmall`](crate::McpError::WordWidthTooSmall)
    /// if real path costs could saturate into `MAXINT`.
    pub fn from_ppa(mut ppa: Ppa<E>, w: &WeightMatrix) -> Result<Self> {
        let prep = Prepared::build(&mut ppa, w)?;
        Ok(McpSession {
            ppa,
            w: w.clone(),
            prep,
        })
    }

    /// Solves for one destination on the prepared planes.
    ///
    /// Result-identical to
    /// [`mcp::minimum_cost_path`] on the
    /// same machine; only the per-run step report is smaller because the
    /// shared setup is amortized across the session.
    ///
    /// # Errors
    /// Any solver failure ([`crate::McpError`]).
    pub fn solve(&mut self, d: usize) -> Result<McpOutput> {
        self.solve_inner(d, false)
    }

    /// [`McpSession::solve`] with the host-side invariant checks of
    /// [`mcp::minimum_cost_path_verified`].
    ///
    /// # Errors
    /// Any solver failure, including
    /// [`McpError::InvariantViolation`](crate::McpError::InvariantViolation).
    pub fn solve_verified(&mut self, d: usize) -> Result<McpOutput> {
        self.solve_inner(d, true)
    }

    fn solve_inner(&mut self, d: usize, verify: bool) -> Result<McpOutput> {
        let before = self.ppa.exec_stats();
        let out = mcp::solve_prepared(&mut self.ppa, &self.prep, &self.w, d, verify);
        mcp::publish_backend_metrics(&mut self.ppa, &before);
        out
    }

    /// Solves every destination in order, reusing the prepared planes —
    /// the session-native all-pairs driver. Equivalent in outputs to
    /// [`crate::apsp::all_pairs`] on the same runtime.
    ///
    /// # Errors
    /// The first per-destination solver failure.
    pub fn all_pairs(&mut self) -> Result<AllPairs> {
        let n = self.w.n();
        let mut runs = Vec::with_capacity(n);
        for d in 0..n {
            runs.push(self.solve(d)?);
        }
        Ok(AllPairs { runs })
    }

    /// The graph this session was prepared for.
    pub fn weights(&self) -> &WeightMatrix {
        &self.w
    }

    /// Borrow the underlying runtime (step reports, metrics, stats).
    pub fn ppa(&self) -> &Ppa<E> {
        &self.ppa
    }

    /// Mutably borrow the underlying runtime (attach sinks/metrics,
    /// reset counters).
    pub fn ppa_mut(&mut self) -> &mut Ppa<E> {
        &mut self.ppa
    }

    /// Consumes the session, returning the runtime.
    pub fn into_ppa(self) -> Ppa<E> {
        self.ppa
    }

    /// Cumulative backend execution statistics (plan cache, arena).
    pub fn exec_stats(&self) -> ExecStats {
        self.ppa.exec_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp;
    use crate::mcp::minimum_cost_path;
    use crate::Result;
    use ppa_graph::gen;

    // These tests return `Result` so a failing destination propagates a
    // typed error with `?` instead of panicking context-free; assertion
    // messages carry the seed/destination/lane being compared.

    #[test]
    fn session_solve_matches_one_shot_outputs() -> Result<()> {
        for seed in 0..5 {
            let w = gen::random_digraph(8, 0.35, 12, seed);
            let mut session = McpSession::new(&w)?;
            let mut ppa = Ppa::square(8).with_word_bits(session.ppa().word_bits());
            for d in [0usize, 3, 7] {
                let a = session.solve(d)?;
                let b = minimum_cost_path(&mut ppa, &w, d)?;
                assert_eq!(a.sow, b.sow, "seed {seed} destination {d}");
                assert_eq!(a.ptn, b.ptn, "seed {seed} destination {d}");
                assert_eq!(a.iterations, b.iterations, "seed {seed} destination {d}");
            }
        }
        Ok(())
    }

    #[test]
    fn session_all_pairs_matches_apsp_driver() -> Result<()> {
        let w = gen::random_digraph(7, 0.4, 9, 21);
        let mut session = McpSession::new(&w)?;
        let by_session = session.all_pairs()?;
        let mut ppa = Ppa::square(7).with_word_bits(session.ppa().word_bits());
        let by_driver = apsp::all_pairs(&mut ppa, &w)?;
        assert_eq!(
            by_session.matrix_flat(),
            by_driver.matrix_flat(),
            "session vs driver distance matrices"
        );
        assert_eq!(by_session.total_iterations(), by_driver.total_iterations());
        Ok(())
    }

    #[test]
    fn packed_session_matches_scalar_session() -> Result<()> {
        let w = gen::random_connected(9, 0.3, 14, 5);
        let scalar = McpSession::new(&w)?.all_pairs()?;
        let packed = McpSession::new_packed(&w)?.all_pairs()?;
        assert_eq!(
            scalar.matrix_flat(),
            packed.matrix_flat(),
            "scalar vs packed distance matrices"
        );
        assert_eq!(scalar.total_iterations(), packed.total_iterations());
        Ok(())
    }

    #[test]
    fn packed_session_reuses_plans_and_planes_across_destinations() -> Result<()> {
        let w = gen::random_connected(8, 0.35, 10, 3);
        let ppa = Ppa::<PackedBackend>::packed(8).with_word_bits(16);
        let mut session = McpSession::from_ppa(ppa, &w)?;
        session.solve(0)?;
        let after_first = session.exec_stats();
        assert!(after_first.arena_fresh > 0);
        for d in 1..8 {
            session
                .solve(d)
                .inspect_err(|_| eprintln!("destination {d} failed after a clean first solve"))?;
        }
        let after_all = session.exec_stats();
        // Every mask buffer needed by later destinations was already in
        // the arena after the first solve; nothing new is allocated.
        assert_eq!(
            after_all.arena_fresh, after_first.arena_fresh,
            "later destinations must recycle, not allocate"
        );
        assert!(after_all.plan_hit_rate() > 0.9, "{after_all:?}");
        Ok(())
    }

    #[test]
    fn session_publishes_backend_metrics() -> Result<()> {
        let w = gen::ring(6);
        let mut session = McpSession::new_packed(&w)?;
        session.ppa_mut().enable_metrics();
        session.solve(2)?;
        let m = session.ppa_mut().take_metrics();
        assert!(m.counter("backend.plan_hits") > 0);
        assert!(m.counter("backend.arena_reused") > 0);
        Ok(())
    }

    #[test]
    fn wrong_size_machine_is_rejected() {
        let w = gen::ring(5);
        let ppa = Ppa::square(4);
        assert!(matches!(
            McpSession::from_ppa(ppa, &w),
            Err(crate::McpError::SizeMismatch { .. })
        ));
    }
}
