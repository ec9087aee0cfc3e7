//! Lane-batched solving: many independent MCP problems in one micro-op
//! stream.
//!
//! The bit-plane representation is wider than one problem needs: one
//! 64-PE machine word of the packed backend holds PEs of *one* solve. A
//! [`BatchSession`] lifts that assumption by packing `L` independent
//! `n x n` problems side by side into one `n x (n * L)` machine (lane
//! `l` owns columns `l*n .. (l+1)*n`, see
//! [`LaneLayout`]) and retiring all of them in
//! a single replay of the paper's statement sequence. One batch solves
//! a wavefront of `L` destinations of one graph, or up to
//! [`MAX_LANES`] independent same-size graphs — bus-plan lookups and
//! arena traffic are paid once per *batch* instead of once per
//! *problem*.
//!
//! ## Why the lanes cannot see each other
//!
//! Column buses never cross a lane boundary (each column belongs to
//! exactly one lane), so every `SOUTH` transaction is lane-pure. The
//! `WEST` transactions (`min`, `selected_min`) put one Open head at
//! each lane's last column: a cluster runs from its head up to the
//! *next* head in movement direction, which is the neighbouring lane's
//! head — so row buses partition exactly at lane boundaries. The only
//! statement that would leak is the solo initializer's `EAST` broadcast
//! of `W` from column `d` (one head per *row*, not per lane-row
//! segment). A batch of more than one lane therefore preloads the
//! transposed weight plane (host I/O, exactly as legitimate as
//! preloading `W`) and reads it with two `SOUTH` broadcasts of identical
//! step cost; a one-lane batch keeps the paper's form.
//!
//! ## Step accounting
//!
//! There is one solve driver, `mcp::solve_lanes`, and a solo solve is
//! its one-lane case: the same 5 ALU prepare steps, 4 ALU destination
//! masks, 4-constant + 2-broadcast + 4-ALU initializer and do-while body,
//! issued once for all lanes. A lane that converges after `k` passes
//! therefore reports the *same* [`McpStats`](crate::McpStats) as a solo
//! run of its problem — the differential harness asserts this
//! bit-for-bit at every lane count.
//!
//! ## Per-lane budgets, cancellation, and fault isolation
//!
//! [`BatchSession::solve_with`] accepts one [`LaneLimit`] per lane.
//! Budgets are accounted against the lane's *solo-equivalent* step
//! ledger (shared steps count once per lane, exactly what a fresh
//! machine running only that lane would have spent, prepare included),
//! so a lane fails with the same typed error at the same logical point
//! as its solo twin. A cancelled or exhausted lane simply stops being
//! read — its PEs keep riding along in the SIMD stream, which cannot
//! perturb batchmates because no instruction carries data across lane
//! boundaries.

use crate::apsp::AllPairs;
use crate::error::McpError;
pub use crate::mcp::LaneLimit;
use crate::mcp::{self, McpOutput, Prepared};
use crate::Result;
use ppa_graph::WeightMatrix;
use ppa_machine::{Dim, ExecStats, Executor, LaneLayout, Machine, PackedBackend, ScalarBackend};
use ppa_ppc::Ppa;

/// The most lanes a batch can hold. A lane is a column band, not a word
/// bit, so the cap is independent of the backend's word width; 64 bounds
/// the composite machine at a size the admission layer is sized for.
pub const MAX_LANES: usize = 64;

/// A lane-batched solver session: one `n x (n * L)` runtime prepared
/// for `L` same-size graphs, solving one destination per lane per call.
#[derive(Debug)]
pub struct BatchSession<E: Executor = ScalarBackend> {
    ppa: Ppa<E>,
    layout: LaneLayout,
    graphs: Vec<WeightMatrix>,
    prep: Prepared<E>,
}

/// `lanes` copies of one graph — the wavefront-of-destinations use of
/// [`BatchSession`] (phase 1: k destinations of the same problem).
pub fn replicate(w: &WeightMatrix, lanes: usize) -> Vec<WeightMatrix> {
    vec![w.clone(); lanes]
}

fn batch_word_bits(graphs: &[WeightMatrix]) -> u32 {
    graphs
        .iter()
        .map(mcp::fit_word_bits)
        .max()
        .unwrap_or(2)
        .clamp(2, 62)
}

fn check_graphs(graphs: &[WeightMatrix]) -> Result<usize> {
    if graphs.is_empty() {
        return Err(McpError::BatchShape {
            detail: "a batch needs at least one lane".into(),
        });
    }
    if graphs.len() > MAX_LANES {
        return Err(McpError::BatchShape {
            detail: format!("{} lanes exceed the {MAX_LANES}-lane word", graphs.len()),
        });
    }
    let n = graphs[0].n();
    if let Some((l, g)) = graphs.iter().enumerate().find(|(_, g)| g.n() != n) {
        return Err(McpError::BatchShape {
            detail: format!(
                "lane 0 has {n} vertices but lane {l} has {} — all lanes must be the same size",
                g.n()
            ),
        });
    }
    Ok(n)
}

impl BatchSession<ScalarBackend> {
    /// Builds a scalar-backend batch sized and word-fitted for `graphs`.
    ///
    /// # Errors
    /// See [`BatchSession::with_backend`].
    pub fn new(graphs: &[WeightMatrix]) -> Result<Self> {
        Self::with_backend(graphs, ScalarBackend)
    }
}

impl BatchSession<PackedBackend> {
    /// Builds a packed-backend batch sized and word-fitted for `graphs`.
    ///
    /// # Errors
    /// See [`BatchSession::with_backend`].
    pub fn new_packed(graphs: &[WeightMatrix]) -> Result<Self> {
        Self::with_backend(graphs, PackedBackend::new())
    }
}

impl<E: Executor> BatchSession<E> {
    /// Builds a batch on `exec`, sized and word-fitted for `graphs`.
    ///
    /// # Errors
    /// [`McpError::BatchShape`] for an empty, oversized, or mixed-size
    /// batch.
    pub fn with_backend(graphs: &[WeightMatrix], exec: E) -> Result<Self> {
        let n = check_graphs(graphs)?;
        let machine = Machine::with_backend(Dim::new(n, n * graphs.len()), exec);
        let ppa = Ppa::from_machine(machine).with_word_bits(batch_word_bits(graphs));
        Self::from_ppa(ppa, graphs)
    }

    /// Wraps an existing runtime, preparing the shared planes for
    /// `graphs`. The machine must be `n x (n * lanes)` and at least as
    /// wide as the widest lane's required word.
    ///
    /// The preparation costs the same five ALU steps as a solo
    /// session's (the `ROW` register, the per-lane `COL` register, the
    /// `n - 1` immediate and the two derived masks); the weight layouts
    /// are host I/O and free.
    ///
    /// # Errors
    /// [`McpError::BatchShape`], [`McpError::SizeMismatch`], or
    /// [`McpError::WordWidthTooSmall`].
    pub fn from_ppa(mut ppa: Ppa<E>, graphs: &[WeightMatrix]) -> Result<Self> {
        let n = check_graphs(graphs)?;
        let lanes = graphs.len();
        let layout = LaneLayout::new(n, lanes);
        let dim = ppa.dim();
        if dim != layout.dim() {
            return Err(McpError::BatchShape {
                detail: format!(
                    "machine is {}x{} but {lanes} lane(s) of {n}x{n} need {}x{}",
                    dim.rows,
                    dim.cols,
                    layout.dim().rows,
                    layout.dim().cols
                ),
            });
        }
        let required = graphs.iter().map(mcp::fit_word_bits).max().unwrap_or(2);
        if ppa.word_bits() < required {
            return Err(McpError::WordWidthTooSmall {
                required,
                actual: ppa.word_bits(),
            });
        }
        let prep = Prepared::load(&mut ppa, graphs)?;
        Ok(BatchSession {
            ppa,
            layout,
            graphs: graphs.to_vec(),
            prep,
        })
    }

    /// Per-lane problem size.
    pub fn n(&self) -> usize {
        self.prep.n
    }

    /// Number of lanes in the batch.
    pub fn lanes(&self) -> usize {
        self.layout.lanes()
    }

    /// The lane geometry.
    pub fn layout(&self) -> LaneLayout {
        self.layout
    }

    /// The machine word width shared by every lane.
    pub fn word_bits(&self) -> u32 {
        self.ppa.word_bits()
    }

    /// The graphs loaded into the lanes, in lane order.
    pub fn graphs(&self) -> &[WeightMatrix] {
        &self.graphs
    }

    /// Borrow the underlying runtime (step reports, metrics, stats).
    pub fn ppa(&self) -> &Ppa<E> {
        &self.ppa
    }

    /// Mutably borrow the underlying runtime (attach sinks/metrics,
    /// machine-level budgets and cancellation).
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

    /// Solves one destination per lane (`dests[l]` on lane `l`'s graph)
    /// in a single micro-op stream.
    ///
    /// The outer `Result` is the machine: a machine-level budget,
    /// cancellation, or bus fault aborts the whole batch. The inner
    /// per-lane `Result`s are the problems: each is bit-identical —
    /// outputs *and* [`McpStats`](crate::McpStats) — to a solo solve of
    /// that lane.
    ///
    /// # Errors
    /// [`McpError::BatchShape`] if `dests` does not cover every lane;
    /// any machine-level failure.
    pub fn solve(&mut self, dests: &[usize]) -> Result<Vec<Result<McpOutput>>> {
        let limits = vec![LaneLimit::default(); self.layout.lanes()];
        self.solve_inner(dests, &limits, false)
    }

    /// [`BatchSession::solve`] with per-lane budgets and cancellation.
    ///
    /// # Errors
    /// [`McpError::BatchShape`] if `dests` or `limits` does not cover
    /// every lane; any machine-level failure.
    pub fn solve_with(
        &mut self,
        dests: &[usize],
        limits: &[LaneLimit],
    ) -> Result<Vec<Result<McpOutput>>> {
        self.solve_inner(dests, limits, false)
    }

    /// [`BatchSession::solve`] with the host-side invariant checks of
    /// the verified solo solver, applied per lane: a lane that violates
    /// an invariant resolves to
    /// [`McpError::InvariantViolation`](crate::McpError) without
    /// disturbing its batchmates.
    ///
    /// # Errors
    /// [`McpError::BatchShape`] if `dests` does not cover every lane;
    /// any machine-level failure.
    pub fn solve_verified(&mut self, dests: &[usize]) -> Result<Vec<Result<McpOutput>>> {
        let limits = vec![LaneLimit::default(); self.layout.lanes()];
        self.solve_inner(dests, &limits, true)
    }

    /// [`BatchSession::solve_verified`] with per-lane budgets and
    /// cancellation — the combination the serving layer uses.
    ///
    /// # Errors
    /// [`McpError::BatchShape`] if `dests` or `limits` does not cover
    /// every lane; any machine-level failure.
    pub fn solve_verified_with(
        &mut self,
        dests: &[usize],
        limits: &[LaneLimit],
    ) -> Result<Vec<Result<McpOutput>>> {
        self.solve_inner(dests, limits, true)
    }

    /// All-pairs on a replicated single-graph batch: destinations
    /// `0..n` are retired in wavefronts of `lanes()` per pass. Outputs
    /// and per-destination stats are bit-identical to the solo
    /// [`all_pairs`](crate::apsp::all_pairs) driver.
    ///
    /// # Errors
    /// [`McpError::BatchShape`] unless every lane holds the same graph;
    /// the first per-destination failure otherwise.
    pub fn all_pairs(&mut self) -> Result<AllPairs> {
        let n = self.prep.n;
        let lanes = self.layout.lanes();
        if self.graphs.iter().any(|g| *g != self.graphs[0]) {
            return Err(McpError::BatchShape {
                detail: "all_pairs needs every lane to hold the same graph".into(),
            });
        }
        let mut runs: Vec<McpOutput> = Vec::with_capacity(n);
        let mut wave_start = 0usize;
        while wave_start < n {
            // Pad the ragged final wavefront by repeating its first
            // destination; padded lanes are solved and discarded.
            let dests: Vec<usize> = (0..lanes).map(|l| (wave_start + l).min(n - 1)).collect();
            let wave = self.solve(&dests)?;
            for (l, out) in wave.into_iter().enumerate() {
                if wave_start + l < n {
                    runs.push(out?);
                }
            }
            wave_start += lanes;
        }
        Ok(AllPairs { runs })
    }

    fn solve_inner(
        &mut self,
        dests: &[usize],
        limits: &[LaneLimit],
        verify: bool,
    ) -> Result<Vec<Result<McpOutput>>> {
        let lanes = self.layout.lanes();
        if dests.len() != lanes {
            return Err(McpError::BatchShape {
                detail: format!("{} destination(s) for {lanes} lane(s)", dests.len()),
            });
        }
        if limits.len() != lanes {
            return Err(McpError::BatchShape {
                detail: format!("{} lane limit(s) for {lanes} lane(s)", limits.len()),
            });
        }
        let before = self.ppa.exec_stats();
        let start = self.ppa.steps();
        let wave = mcp::in_solve_span(&mut self.ppa, "batch", |ppa| {
            mcp::solve_lanes(ppa, &self.prep, &self.graphs, dests, limits, verify, start)
        })?;
        if let Some(m) = self.ppa.metrics_mut() {
            m.inc("batch.solves", 1);
            m.inc("batch.lanes", lanes as u64);
        }
        mcp::publish_backend_metrics(&mut self.ppa, &before);
        Ok(wave)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::McpSession;
    use ppa_graph::gen;
    use ppa_machine::CancelToken;

    fn solo(w: &WeightMatrix, d: usize, word_bits: u32) -> Result<McpOutput> {
        let ppa = Ppa::square(w.n()).with_word_bits(word_bits);
        McpSession::from_ppa(ppa, w)?.solve(d)
    }

    #[test]
    fn three_lane_wavefront_matches_solo_outputs_and_stats() -> Result<()> {
        let w = gen::random_connected(8, 0.3, 14, 11);
        let mut batch = BatchSession::new(&replicate(&w, 3))?;
        let h = batch.word_bits();
        let wave = batch.solve(&[0, 3, 7])?;
        for (out, d) in wave.into_iter().zip([0usize, 3, 7]) {
            let got = out.inspect_err(|_| eprintln!("lane for destination {d} failed"))?;
            let want = solo(&w, d, h)?;
            assert_eq!(got, want, "destination {d}");
        }
        Ok(())
    }

    #[test]
    fn independent_graphs_per_lane_match_their_solo_twins() -> Result<()> {
        let graphs: Vec<WeightMatrix> =
            (0..4).map(|s| gen::random_digraph(6, 0.4, 10, s)).collect();
        let mut batch = BatchSession::new(&graphs)?;
        let h = batch.word_bits();
        let wave = batch.solve(&[1, 2, 3, 4])?;
        for (l, out) in wave.into_iter().enumerate() {
            let got = out?;
            let want = solo(&graphs[l], l + 1, h)?;
            assert_eq!(got, want, "lane {l}");
        }
        Ok(())
    }

    #[test]
    fn batched_all_pairs_matches_session_all_pairs() -> Result<()> {
        let w = gen::random_digraph(7, 0.35, 9, 5);
        let mut batch = BatchSession::new(&replicate(&w, 3))?;
        let h = batch.word_bits();
        let by_batch = batch.all_pairs()?;
        let ppa = Ppa::square(7).with_word_bits(h);
        let by_session = McpSession::from_ppa(ppa, &w)?.all_pairs()?;
        assert_eq!(by_batch, by_session);
        Ok(())
    }

    #[test]
    fn cancelled_lane_fails_typed_and_batchmates_are_unperturbed() -> Result<()> {
        let w = gen::random_connected(6, 0.4, 12, 3);
        let mut batch = BatchSession::new(&replicate(&w, 3))?;
        let h = batch.word_bits();
        let token = CancelToken::new();
        token.cancel();
        let limits = vec![
            LaneLimit::unlimited(),
            LaneLimit {
                cancel: Some(token),
                ..LaneLimit::default()
            },
            LaneLimit::unlimited(),
        ];
        let wave = batch.solve_with(&[0, 1, 2], &limits)?;
        assert!(wave[1].as_ref().is_err_and(|e| e.is_cancelled()));
        for (l, d) in [(0usize, 0usize), (2, 2)] {
            let got = wave[l].clone()?;
            assert_eq!(got, solo(&w, d, h)?, "lane {l}");
        }
        Ok(())
    }

    #[test]
    fn lane_budget_fails_exactly_like_a_solo_step_limit() -> Result<()> {
        let w = gen::ring(5);
        let h = BatchSession::new(&replicate(&w, 2))?.word_bits();
        // Measure the lane's true solo cost on a fresh machine.
        let mut session = McpSession::from_ppa(Ppa::square(5).with_word_bits(h), &w)?;
        session.solve(0)?;
        let full = session.into_ppa().steps().total();

        for budget in [full, full - 1, 20] {
            // Solo twin under the same limit.
            let mut solo_ppa = Ppa::square(5).with_word_bits(h);
            solo_ppa.limit_steps(budget);
            let solo_res = McpSession::from_ppa(solo_ppa, &w).and_then(|mut s| s.solve(0));
            let mut batch = BatchSession::new(&replicate(&w, 2))?;
            let limits = vec![
                LaneLimit {
                    step_budget: Some(budget),
                    ..LaneLimit::default()
                },
                LaneLimit::unlimited(),
            ];
            let wave = batch.solve_with(&[0, 0], &limits)?;
            match (&wave[0], &solo_res) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "budget {budget}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "budget {budget}"),
                (got, want) => panic!("budget {budget}: batch {got:?} vs solo {want:?}"),
            }
            // The unlimited batchmate always completes.
            assert!(wave[1].is_ok(), "budget {budget}");
        }
        Ok(())
    }

    #[test]
    fn one_lane_batch_is_the_solo_solve_even_under_faults() -> Result<()> {
        // One lane issues a session solve's exact instruction stream, so a
        // fault map routes both the same way: same outcome, same steps.
        use ppa_machine::FaultMap;
        for seed in 0..24u64 {
            let w = gen::random_connected(6, 0.4, 9, seed);
            let faults = FaultMap::random(Dim::new(6, 6), 1 + seed as usize % 3, seed);
            let mut batch = BatchSession::new(std::slice::from_ref(&w))?;
            batch.ppa_mut().machine_mut().attach_faults(faults.clone());
            let mut session = McpSession::new(&w)?;
            session.ppa_mut().machine_mut().attach_faults(faults);
            for d in [0usize, 5] {
                let lane = batch
                    .solve_verified(&[d])
                    .and_then(|mut wave| wave.remove(0));
                let solo = session.solve_verified(d);
                assert_eq!(lane, solo, "seed {seed} destination {d}");
                assert_eq!(batch.ppa().steps(), session.ppa().steps(), "seed {seed}");
            }
        }
        Ok(())
    }

    #[test]
    fn shape_errors_are_typed() {
        let w = gen::ring(4);
        assert!(matches!(
            BatchSession::new(&[]),
            Err(McpError::BatchShape { .. })
        ));
        assert!(matches!(
            BatchSession::new(&replicate(&w, 65)),
            Err(McpError::BatchShape { .. })
        ));
        let mixed = vec![gen::ring(4), gen::ring(5)];
        assert!(matches!(
            BatchSession::new(&mixed),
            Err(McpError::BatchShape { .. })
        ));
        let mut ok = BatchSession::new(&replicate(&w, 2)).unwrap();
        assert!(matches!(ok.solve(&[0]), Err(McpError::BatchShape { .. })));
    }

    #[test]
    fn out_of_range_destination_fails_its_lane_only() -> Result<()> {
        let w = gen::ring(4);
        let mut batch = BatchSession::new(&replicate(&w, 2))?;
        let h = batch.word_bits();
        let wave = batch.solve(&[9, 1])?;
        assert!(matches!(
            wave[0],
            Err(McpError::DestinationOutOfRange { d: 9, n: 4 })
        ));
        assert_eq!(wave[1].clone()?, solo(&w, 1, h)?);
        Ok(())
    }

    #[test]
    fn verified_batch_is_bit_identical_on_a_healthy_machine() -> Result<()> {
        let w = gen::random_digraph(6, 0.4, 11, 9);
        let mut plain = BatchSession::new(&replicate(&w, 3))?;
        let mut checked = BatchSession::new(&replicate(&w, 3))?;
        let a = plain.solve(&[0, 2, 5])?;
        let b = checked.solve_verified(&[0, 2, 5])?;
        for (l, (x, y)) in a.into_iter().zip(b).enumerate() {
            assert_eq!(x?, y?, "lane {l}: verification must be free");
        }
        Ok(())
    }
}
