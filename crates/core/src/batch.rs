//! Lane-batched solving: many independent MCP problems in one micro-op
//! stream.
//!
//! The bit-plane representation is wider than one problem needs: one
//! machine word of the packed backend (64 or 256 PEs, depending on the
//! [`Word`](ppa_machine::Word) parameter) holds PEs of *one* solve. A
//! [`BatchSession`] lifts that assumption by packing `L` independent
//! `n x n` problems side by side into one `n x (n * L)` machine (lane
//! `l` owns columns `l*n .. (l+1)*n`, see
//! [`LaneLayout`](ppa_machine::LaneLayout)) and retiring all of them in
//! a single replay of the paper's statement sequence. One batch solves
//! a wavefront of `L` destinations of one graph, or up to
//! [`MAX_LANES`] independent same-size graphs — bus-plan lookups, arena
//! traffic, and
//! rendezvous overhead are paid once per *batch* instead of once per
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
//! segment); the batch initializer instead preloads the transposed
//! weight plane (host I/O, exactly as legitimate as preloading `W`) and
//! uses two `SOUTH` broadcasts of identical step cost.
//!
//! ## Step accounting
//!
//! Every phase issues the same number of controller steps per
//! [`Op`](ppa_machine::Op) class as the solo solver: 5 ALU prepare, 4
//! ALU destination masks, a 4-constant + 2-broadcast + 4-ALU
//! initializer, and the identical do-while body. A lane that converges
//! after `k` passes therefore reports the *same* [`McpStats`] as a solo
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
use crate::mcp::{self, McpOutput};
use crate::stats::McpStats;
use crate::Result;
use ppa_graph::{Weight, WeightMatrix, INF};
use ppa_machine::{
    CancelToken, Dim, Direction, ExecStats, Executor, LaneLayout, Machine, MachineError,
    PackedBackend, ScalarBackend, StepReport,
};
use ppa_ppc::{Parallel, Ppa, PpcError};

/// Steps a solo session spends in `Prepared::build` (the `ROW`/`COL`
/// registers, the `n - 1` immediate and the two derived masks). The
/// batch prepare costs the same 5 steps once for all lanes; per-lane
/// budget ledgers charge it to every lane so budgets mean the same
/// thing they mean on a fresh solo machine.
const PREPARE_STEPS: u64 = 5;

/// The most lanes a batch can hold. A lane is a column band, not a word
/// bit, so the cap is independent of the backend's word width; 64 bounds
/// the composite machine at a size the admission layer is sized for.
pub const MAX_LANES: usize = 64;

/// Per-lane resource limits for [`BatchSession::solve_with`].
#[derive(Debug, Clone, Default)]
pub struct LaneLimit {
    /// Solo-equivalent step budget: the lane fails with
    /// [`MachineError::StepBudgetExhausted`] exactly when a fresh solo
    /// machine with `limit_steps(budget)` would (prepare included).
    pub step_budget: Option<u64>,
    /// Cooperative cancellation for this lane only; observed at
    /// iteration boundaries. Batchmates are unaffected.
    pub cancel: Option<CancelToken>,
}

impl LaneLimit {
    /// No budget, no cancellation.
    pub fn unlimited() -> Self {
        LaneLimit::default()
    }
}

/// The lane-batched analogue of [`Prepared`](crate::mcp): everything
/// the do-while body reads that does not depend on the destination
/// wavefront. `wt_plane` is the per-lane *transposed* weight layout
/// used by the lane-safe initializer.
#[derive(Debug)]
struct BatchPrepared {
    n: usize,
    maxint: i64,
    row: Parallel<i64>,
    lane_col: Parallel<i64>,
    diag: Parallel<bool>,
    last_col: Parallel<bool>,
    w_plane: Parallel<i64>,
    wt_plane: Parallel<i64>,
}

/// A lane-batched solver session: one `n x (n * L)` runtime prepared
/// for `L` same-size graphs, solving one destination per lane per call.
#[derive(Debug)]
pub struct BatchSession<E: Executor = ScalarBackend> {
    ppa: Ppa<E>,
    layout: LaneLayout,
    graphs: Vec<WeightMatrix>,
    prep: BatchPrepared,
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
    /// `n - 1` immediate and the two derived masks); the two weight
    /// layouts are host I/O and free.
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
        let maxint = ppa.maxint();

        // --- plane setup: hardwired registers (5 ALU, like solo) --------
        let row = ppa.row_index();
        let lane_col = ppa.lane_col_index(n);
        let nm1_imm = ppa.constant(n as i64 - 1);
        let diag = ppa.eq(&row, &lane_col)?; // ROW == lane-local COL
        let last_col = ppa.eq(&lane_col, &nm1_imm)?; // lane-local COL == n - 1

        // The W layouts arrive preloaded (host I/O, not SIMD steps) with
        // the diagonal pinned to 0 — the same dynamic-program convention
        // the solo solver documents. `wt_plane` holds each lane's
        // *transpose*: the initializer reads it southwards so no bus
        // transaction ever crosses a lane boundary.
        let mut vecs: Vec<Vec<i64>> = Vec::with_capacity(lanes);
        for g in graphs {
            let mut v = g.try_saturated_vec(maxint)?;
            for i in 0..n {
                v[i * n + i] = 0;
            }
            vecs.push(v);
        }
        let w_plane: Parallel<i64> =
            Parallel::from_vec(dim, layout.compose_vec(|l, r, c| vecs[l][r * n + c]));
        let wt_plane: Parallel<i64> =
            Parallel::from_vec(dim, layout.compose_vec(|l, r, c| vecs[l][c * n + r]));

        Ok(BatchSession {
            ppa,
            layout,
            graphs: graphs.to_vec(),
            prep: BatchPrepared {
                n,
                maxint,
                row,
                lane_col,
                diag,
                last_col,
                w_plane,
                wt_plane,
            },
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
    /// outputs *and* [`McpStats`] — to a solo solve of that lane.
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
        let n = self.prep.n;
        let lanes = self.layout.lanes();
        let maxint = self.prep.maxint;
        let layout = self.layout;
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

        let before_exec = self.ppa.exec_stats();
        let ppa = &mut self.ppa;
        let start = ppa.steps();
        let observed = ppa.observing();
        if observed {
            ppa.enter_span("batch");
        }
        ppa.set_phase(Some("setup"));

        // Lanes that can never run resolve before the first instruction:
        // a pre-raised cancel token fails at the first guarded op of a
        // solo run, and an out-of-range destination fails its range
        // check. Both ride along on a safe substitute destination.
        let mut results: Vec<Option<Result<McpOutput>>> = (0..lanes)
            .map(|l| {
                if limits[l].cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                    Some(Err(McpError::Ppc(PpcError::Machine(
                        MachineError::Cancelled,
                    ))))
                } else if dests[l] >= n {
                    Some(Err(McpError::DestinationOutOfRange { d: dests[l], n }))
                } else {
                    None
                }
            })
            .collect();

        // --- destination masks (4 ALU, like solo) -----------------------
        let safe_dests: Vec<i64> = dests.iter().map(|&d| d.min(n - 1) as i64).collect();
        let d_imm = ppa.lane_constant(&safe_dests, n);
        let row_is_d = ppa.eq(&self.prep.row, &d_imm)?;
        let row_ne_d = ppa.not(&row_is_d)?;
        // Issued for step parity with the solo destination-mask block;
        // the batch initializer reads `wt_plane` southwards instead of
        // broadcasting `W` eastwards from column d (which would cross
        // lane boundaries: row buses see one head per lane, not one).
        let _col_is_d = ppa.eq(&self.prep.lane_col, &d_imm)?;

        // Parallel variable declarations (pinned to MAXINT, as solo).
        let mut sow = ppa.constant(maxint);
        let mut min_sow = ppa.constant(maxint);
        let mut ptn = ppa.constant(0i64);
        let mut old_sow = ppa.constant(maxint); // statement 3

        // --- Step 1: statements 4-7, lane-safe form ---------------------
        ppa.set_phase(Some("step 1 (stmts 4-7)"));
        // Solo realizes `SOW[d][i] = w_id` with an EAST spread of column
        // d followed by a SOUTH diagonal fold. The lane-safe equivalent
        // reads the preloaded transpose: a SOUTH broadcast from row d
        // puts w_id into every cell of lane column i, and the SOUTH
        // diagonal fold is then value-identical — two broadcast steps
        // either way, so the init report matches solo exactly.
        let b1 = ppa.broadcast(&self.prep.wt_plane, Direction::South, &row_is_d)?;
        let in_weights_t = ppa.broadcast(&b1, Direction::South, &self.prep.diag)?;
        ppa.where_(&row_is_d, |p| -> ppa_ppc::Result<()> {
            p.assign(&mut sow, &in_weights_t)?; // 5 (intended)
            p.assign(&mut ptn, &d_imm)?; // 6: PTN = d
            p.assign(&mut min_sow, &in_weights_t)?;
            Ok(())
        })??;

        let init_report = ppa.steps().checked_since(&start).unwrap_or_default();

        // --- the per-lane solo-equivalent step ledger -------------------
        // Every costed op is one step and the last op of every pass is
        // guarded, so a solo run with `limit_steps(B)` succeeds iff it
        // completes within B total steps (prepare included) and
        // otherwise dies with `StepBudgetExhausted` — which lets the
        // ledger resolve budgets exactly at iteration boundaries.
        let cum = |ppa: &Ppa<E>| {
            PREPARE_STEPS
                + ppa
                    .steps()
                    .checked_since(&start)
                    .unwrap_or_default()
                    .total()
        };
        let cancelled = |l: usize| limits[l].cancel.as_ref().is_some_and(|t| t.is_cancelled());

        // Init boundary: a lane whose budget cannot even cover the
        // masks + initializer dies before pass 1's first guarded op.
        let cum_init = cum(ppa);
        for l in 0..lanes {
            if results[l].is_some() {
                continue;
            }
            if cancelled(l) {
                results[l] = Some(Err(McpError::Ppc(PpcError::Machine(
                    MachineError::Cancelled,
                ))));
            } else if limits[l].step_budget.is_some_and(|b| cum_init >= b) {
                results[l] = Some(Err(McpError::Ppc(PpcError::Machine(
                    MachineError::StepBudgetExhausted {
                        budget: limits[l].step_budget.unwrap_or_default(),
                    },
                ))));
            }
        }

        // Invariant 1 state per lane (host-side copies, verify only).
        let mut prev_row_d: Vec<Option<Vec<i64>>> = (0..lanes)
            .map(|l| (verify && results[l].is_none()).then(|| layout.lane_row(&sow, l, dests[l])))
            .collect();

        // --- Step 2: the do-while loop, statements 8-20 -----------------
        let mut per_iteration: Vec<StepReport> = Vec::new();
        let mut iterations = 0usize;
        while results.iter().any(Option::is_none) {
            let iter_start = ppa.steps();
            if observed {
                ppa.enter_span(&format!("iteration[{iterations}]"));
            }
            iterations += 1;

            // ---- statements 9-13, under where (ROW != d) ----
            ppa.set_phase(Some("stmt 10: broadcast+add"));
            let bsow = ppa.broadcast(&sow, Direction::South, &row_is_d)?;
            let sum = ppa.sat_add(&bsow, &self.prep.w_plane)?;
            ppa.where_(&row_ne_d, |p| p.assign(&mut sow, &sum))??;

            ppa.set_phase(Some("stmt 11: min"));
            let rowmin = ppa.min(&sow, Direction::West, &self.prep.last_col)?;
            ppa.where_(&row_ne_d, |p| p.assign(&mut min_sow, &rowmin))??;

            // The selection register is the *lane-local* COL, so PTN
            // values and tie-breaks match each lane's solo run.
            ppa.set_phase(Some("stmt 12: selected_min"));
            let is_argmin = ppa.eq(&min_sow, &sow)?;
            let sel = ppa.or(&is_argmin, &row_is_d)?;
            let argmin_col = ppa.selected_min(
                &self.prep.lane_col,
                Direction::West,
                &self.prep.last_col,
                &sel,
            )?;
            ppa.where_(&row_ne_d, |p| p.assign(&mut ptn, &argmin_col))??;

            // ---- statements 14-18, under where (ROW == d) ----
            ppa.set_phase(Some("stmts 14-18: fold into row d"));
            let bc_min = ppa.broadcast(&min_sow, Direction::South, &self.prep.diag)?;
            let bc_ptn = ppa.broadcast(&ptn, Direction::South, &self.prep.diag)?;
            let changed = ppa.where_(&row_is_d, |p| -> ppa_ppc::Result<Parallel<bool>> {
                p.assign(&mut old_sow, &sow)?; // 15
                p.assign(&mut sow, &bc_min)?; // 16
                let changed = p.ne(&sow, &old_sow)?; // 17 condition
                p.where_(&changed, |q| q.assign(&mut ptn, &bc_ptn))??; // 17-18
                Ok(changed)
            })??;

            per_iteration.push(ppa.steps().checked_since(&iter_start).unwrap_or_default());

            // ---- invariant 1 per lane: row-d costs never increase ----
            for l in 0..lanes {
                let Some(prev) = prev_row_d[l].as_mut() else {
                    continue;
                };
                if results[l].is_some() {
                    continue;
                }
                let now = layout.lane_row(&sow, l, dests[l]);
                if now.iter().zip(prev.iter()).any(|(new, old)| new > old) {
                    results[l] = Some(Err(McpError::InvariantViolation {
                        invariant: "a row-d cost increased across an iteration",
                    }));
                    continue;
                }
                *prev = now;
            }

            // ---- statement 20: the loop test ----
            ppa.set_phase(Some("stmt 20: loop test"));
            let changed_in_row_d = ppa.and(&changed, &row_is_d)?;
            // The global OR is issued every pass for step parity; the
            // batch's own loop condition is the per-lane host read
            // below (a converged lane is idempotent under further
            // passes, so riders cannot re-assert it).
            let _keep_going = ppa.any(&changed_in_row_d)?;
            if observed {
                ppa.exit_span(); // iteration[i] (includes the loop test)
            }

            // ---- iteration boundary: resolve lanes ----
            let since = ppa.steps().checked_since(&start).unwrap_or_default();
            let cum_now = PREPARE_STEPS + since.total();
            for l in 0..lanes {
                if results[l].is_some() {
                    continue;
                }
                let lane_changed = layout
                    .lane_row(&changed_in_row_d, l, dests[l])
                    .iter()
                    .any(|&c| c);
                let budget = limits[l].step_budget;
                let within = budget.is_none_or(|b| cum_now <= b);
                if !lane_changed && within {
                    // Converged inside budget: the solo twin returned
                    // here, before any cancellation could be observed.
                    results[l] = Some(read_lane(
                        layout,
                        maxint,
                        &self.graphs[l],
                        &sow,
                        &ptn,
                        l,
                        dests[l],
                        iterations,
                        &init_report,
                        &per_iteration,
                        since,
                        verify,
                    ));
                } else if cancelled(l) {
                    // The guard checks cancellation before the budget.
                    results[l] = Some(Err(McpError::Ppc(PpcError::Machine(
                        MachineError::Cancelled,
                    ))));
                } else if !lane_changed || budget.is_some_and(|b| cum_now >= b) {
                    // Converged over budget (the solo twin died inside
                    // this pass) or out of steps before the next pass's
                    // first guarded op.
                    results[l] = Some(Err(McpError::Ppc(PpcError::Machine(
                        MachineError::StepBudgetExhausted {
                            budget: budget.unwrap_or_default(),
                        },
                    ))));
                } else if iterations > n {
                    results[l] = Some(Err(McpError::NoConvergence { rounds: iterations }));
                }
            }
        }

        ppa.set_phase(None);
        if observed {
            ppa.exit_span(); // batch
        }
        if let Some(m) = ppa.metrics_mut() {
            for r in &per_iteration {
                m.observe("mcp.steps_per_iteration", r.total());
            }
            m.inc("mcp.iterations", iterations as u64);
            m.inc("batch.solves", 1);
            m.inc("batch.lanes", lanes as u64);
        }
        self.publish_backend_metrics(&before_exec);

        Ok(results
            .into_iter()
            .map(|r| r.expect("lane resolved"))
            .collect())
    }

    /// Publishes the backend's execution-stat deltas since `before` as
    /// `backend.*` counters, when a metrics registry is attached.
    fn publish_backend_metrics(&mut self, before: &ExecStats) {
        let delta = self.ppa.exec_stats().since(before);
        if let Some(m) = self.ppa.metrics_mut() {
            m.inc("backend.plan_hits", delta.plan_hits);
            m.inc("backend.plan_misses", delta.plan_misses);
            m.inc("backend.arena_fresh", delta.arena_fresh);
            m.inc("backend.arena_reused", delta.arena_reused);
        }
    }
}

/// Reads one resolved lane's row `d` into a [`McpOutput`] whose stats
/// are the lane's solo-equivalent slice of the shared reports. A free
/// function so the solve loop can call it while the runtime is
/// mutably borrowed.
#[allow(clippy::too_many_arguments)]
fn read_lane(
    layout: LaneLayout,
    maxint: i64,
    w: &WeightMatrix,
    sow: &Parallel<i64>,
    ptn: &Parallel<i64>,
    l: usize,
    d: usize,
    iterations: usize,
    init: &StepReport,
    per_iteration: &[StepReport],
    total: StepReport,
    verify: bool,
) -> Result<McpOutput> {
    let n = layout.n();
    let mut out_sow: Vec<Weight> = Vec::with_capacity(n);
    let mut out_ptn: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        let cost = *layout.lane_at(sow, l, d, i);
        if i == d {
            out_sow.push(0);
            out_ptn.push(d);
        } else if cost >= maxint {
            out_sow.push(INF);
            out_ptn.push(i);
        } else {
            out_sow.push(cost);
            out_ptn.push(*layout.lane_at(ptn, l, d, i) as usize);
        }
    }

    if verify {
        // ---- invariant 2: the destination's own cost is zero ----
        if *layout.lane_at(sow, l, d, d) != 0 {
            return Err(McpError::InvariantViolation {
                invariant: "destination cost must be zero",
            });
        }
        // ---- invariant 3: the Bellman fixpoint against the input ----
        for i in 0..n {
            if i == d {
                continue;
            }
            let mut best = INF;
            for j in 0..n {
                let wij = w.get(i, j);
                if j == i || wij == INF || out_sow[j] == INF {
                    continue;
                }
                best = best.min(wij + out_sow[j]);
            }
            if out_sow[i] != best {
                return Err(McpError::InvariantViolation {
                    invariant: "row-d costs must satisfy the Bellman fixpoint",
                });
            }
        }
    }

    Ok(McpOutput {
        dest: d,
        sow: out_sow,
        ptn: out_ptn,
        iterations,
        stats: McpStats {
            init: *init,
            per_iteration: per_iteration[..iterations].to_vec(),
            total,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::McpSession;
    use ppa_graph::gen;

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
