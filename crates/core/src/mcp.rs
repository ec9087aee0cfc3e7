//! The paper's `minimum_cost_path()` — statements 1-21 of Section 3.
//!
//! ```text
//!  1: minimum_cost_path()
//!  2: {
//!  3:   parallel int OLD_SOW;
//!  4:   where (ROW == d){
//!  5:     SOW = W;
//!  6:     PTN = d;
//!  7:   }
//!  8:   do
//!  9:     where (ROW != d) {
//! 10:       SOW = broadcast (SOW, SOUTH, ROW == d) + W;
//! 11:       MIN_SOW = min (SOW, WEST, COL == (n - 1));
//! 12:       PTN = selected_min (COL, WEST, COL == (n - 1), MIN_SOW == SOW);
//! 13:     }
//! 14:     where (ROW == d) {
//! 15:       OLD_SOW = SOW;
//! 16:       SOW = broadcast (MIN_SOW, SOUTH, ROW == COL);
//! 17:       where (SOW != OLD_SOW)
//! 18:         PTN = broadcast (PTN, SOUTH, ROW == COL);
//! 19:     }
//! 20:   while (at least one SOW in row d has changed);
//! 21: }
//! ```
//!
//! The implementation below follows this structure statement by statement
//! (each block is labelled); the only deviations are the two fidelity
//! repairs documented at the crate root (row-`d` selection, `MIN_SOW`
//! initialization). Complexity: initialization `O(1)`, each iteration
//! `O(h)` (two bit-serial bus minima), `max(1, p)` iterations — total
//! `O(p * h)` SIMD steps, independent of `n`.
//!
//! One driver, `solve_lanes`, runs statements 3-20 for one destination
//! per lane of a prepared machine. The one-shot entry points here,
//! [`crate::session::McpSession`] and [`crate::apsp::all_pairs`] run it
//! with one lane; [`crate::batch::BatchSession`] runs it with one lane per
//! problem. [`crate::widest::widest_path`] runs it on `(max, min)`
//! registers and [`crate::variants::minimum_cost_path_variant`] under the
//! A1/A2 bus and combining models, both with one lane.

use crate::error::McpError;
use crate::stats::McpStats;
use crate::variants::{BusModel, MinModel, VariantConfig};
use crate::Result;
use ppa_graph::{Weight, WeightMatrix, INF};
use ppa_machine::{CancelToken, Direction, ExecStats, Executor, MachineError, StepReport};
use ppa_ppc::{Ppa, PpcError};

/// Result of one `minimum_cost_path` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McpOutput {
    /// Destination vertex `d`.
    pub dest: usize,
    /// `sow[i]` — cost of a minimum cost path `i -> ... -> d`
    /// ([`INF`] if unreachable, `0` at the destination itself).
    pub sow: Vec<Weight>,
    /// `ptn[i]` — vertex following `i` on one minimum cost path to `d`
    /// (`ptn[d] == d`; `ptn[i] == i` marks "no path").
    pub ptn: Vec<usize>,
    /// Do-while iterations executed (`max(1, p)`).
    pub iterations: usize,
    /// Step accounting for the run.
    pub stats: McpStats,
}

/// The smallest machine word width `h` that can run `minimum_cost_path`
/// on `w` without any real path cost saturating into `MAXINT`.
pub fn fit_word_bits(w: &WeightMatrix) -> u32 {
    w.required_word_bits()
}

/// Runs the paper's algorithm on an existing runtime.
///
/// Requirements checked up front: the machine must be `n x n` for an
/// `n`-vertex graph, and the word width must satisfy
/// `(n - 1) * max_weight < MAXINT` so that no genuine path cost collides
/// with the "infinite" sentinel.
///
/// # Errors
/// [`McpError::SizeMismatch`], [`McpError::WordWidthTooSmall`], or any
/// PPC runtime failure.
pub fn minimum_cost_path<E: Executor>(
    ppa: &mut Ppa<E>,
    w: &WeightMatrix,
    d: usize,
) -> Result<McpOutput> {
    mcp_run(ppa, w, d, VariantConfig::reference(), false)
}

/// [`minimum_cost_path`] with host-side result verification: cheap
/// invariants a correct execution cannot violate, checked by the
/// controller host with **zero extra SIMD steps** (reads of the register
/// planes it already holds):
///
/// 1. every row-`d` cost is monotonically non-increasing across
///    iterations (each pass takes a `min` whose candidate set includes
///    the old value via `w_ii = 0`);
/// 2. the destination's own cost is zero;
/// 3. the final costs satisfy the Bellman fixpoint
///    `sow[i] == min_j(w_ij + sow[j])` against the input matrix.
///
/// A violation returns [`McpError::InvariantViolation`] — the signal the
/// recovery layer (`crate::recovery`) uses to trigger a runtime self-test.
/// On a healthy machine this function is result- and step-identical to
/// [`minimum_cost_path`].
pub fn minimum_cost_path_verified<E: Executor>(
    ppa: &mut Ppa<E>,
    w: &WeightMatrix,
    d: usize,
) -> Result<McpOutput> {
    mcp_run(ppa, w, d, VariantConfig::reference(), true)
}

/// The semiring a prepared machine's registers hold, fixed at load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Algebra {
    /// `(min, +)`: minimum cost paths, the paper's algebra.
    MinPlus,
    /// `(max, min)`: widest (bottleneck) paths ([`crate::widest`]).
    MaxMin,
}

impl Algebra {
    /// "No path" on a machine whose largest word is `maxint`: `MAXINT` for
    /// costs, 0 for capacities. Absent edges load as it and the loop
    /// registers are declared at it; at `maxint = INF` it is the host's
    /// output for an unreachable vertex.
    fn none(self, maxint: i64) -> i64 {
        match self {
            Algebra::MinPlus => maxint,
            Algebra::MaxMin => 0,
        }
    }

    /// The diagonal's value, which makes the `j = i` candidate of
    /// statement 10 a vertex's old value: 0 for costs, `MAXINT`
    /// ("unlimited") for capacities. The destination reads out as it.
    fn stay(self, maxint: i64) -> i64 {
        match self {
            Algebra::MinPlus => 0,
            Algebra::MaxMin => maxint,
        }
    }
}

/// The destination-independent registers of `minimum_cost_path`:
/// everything the do-while body reads that does not depend on `d`, plus
/// the preloaded weights. Building one costs five ALU steps (see
/// [`PREPARE_STEPS`]); loading the weights is host I/O, not a SIMD step.
/// The struct holds plain registers — no machine borrow — so one build can
/// serve any number of solves on the same runtime. Every solve runs
/// [`solve_lanes`] on it: the one-shot entry points, [`crate::apsp::all_pairs`]
/// and [`crate::session::McpSession`] with one lane, and
/// [`crate::batch::BatchSession`] with one lane per problem.
#[derive(Debug)]
pub(crate) struct Prepared<E: Executor> {
    pub(crate) n: usize,
    maxint: i64,
    /// The semiring the registers hold: the weights, the declared loop
    /// registers, statement 10's combine, statement 11's scan and the
    /// readout follow it.
    algebra: Algebra,
    /// The bus and combining model of the South folds and the two row
    /// scans; the paper's is circular and bit-serial.
    model: VariantConfig,
    row: E::Int,
    /// `COL` — lane-local on a lane-batched machine — the register that
    /// statement 12 selects from.
    col: E::Int,
    diag: E::Mask,
    last_col: E::Mask,
    w: E::Int,
    /// Statement 5's source, chosen once from the lane count. With one lane
    /// it is `None`, and the initializer spreads `W` East from `COL == d`
    /// as the paper does. With more lanes an East spread would cross lane
    /// boundaries (row buses see one head per lane, not one), so each
    /// lane's *transposed* weights are preloaded here and read South from
    /// `ROW == d` — two broadcast steps either way.
    wt: Option<E::Int>,
}

/// The four destination-dependent registers (4 ALU steps per solve).
struct DestMasks<E: Executor> {
    d_imm: E::Int,
    row_is_d: E::Mask,
    row_ne_d: E::Mask,
    col_is_d: E::Mask,
}

/// The parallel variables of the do-while loop.
struct LoopRegs<E: Executor> {
    sow: E::Int,
    min_sow: E::Int,
    ptn: E::Int,
    old_sow: E::Int,
}

impl<E: Executor> LoopRegs<E> {
    /// Statement 3 and the PPC declarations (4 ALU steps). PPC leaves the
    /// variables uninitialized; the simulator pins them to "no path" —
    /// MAXINT for costs (fidelity note 2 at the crate root), 0 for
    /// capacities.
    fn declare(ppa: &mut Ppa<E>, none: i64) -> Result<Self> {
        Ok(LoopRegs {
            sow: ppa.int_constant(none)?,
            min_sow: ppa.int_constant(none)?,
            ptn: ppa.int_constant(0)?,
            old_sow: ppa.int_constant(none)?, // statement 3
        })
    }

    /// Statements 4-7 given the in-weights `[*][i] = w_id`: one `where`
    /// and three masked writes.
    fn init(
        &mut self,
        ppa: &mut Ppa<E>,
        masks: &DestMasks<E>,
        in_weights_t: &E::Int,
    ) -> Result<()> {
        let LoopRegs {
            sow, min_sow, ptn, ..
        } = self;
        ppa.where_mask(&masks.row_is_d, |p| -> ppa_ppc::Result<()> {
            p.int_assign(sow, in_weights_t)?; // 5 (intended): SOW[d][i] = w_id
            p.int_assign(ptn, &masks.d_imm)?; // 6: PTN = d
                                              // MIN_SOW is uninitialized in the paper; statement 16 reads its
                                              // (d,d) element every iteration, so it must start at SOW_dd = 0
                                              // for the destination column to stay pinned (fidelity note 2).
            p.int_assign(min_sow, in_weights_t)?;
            Ok(())
        })??;
        Ok(())
    }
}

/// The size and word-width contract of a solo machine, with the
/// one-shot's destination range check between the two (its historical
/// guard order).
fn check_fit<E: Executor>(ppa: &Ppa<E>, w: &WeightMatrix, d: Option<usize>) -> Result<()> {
    let n = w.n();
    let dim = ppa.dim();
    if dim.rows != n || dim.cols != n {
        return Err(McpError::SizeMismatch {
            n,
            rows: dim.rows,
            cols: dim.cols,
        });
    }
    if let Some(d) = d.filter(|&d| d >= n) {
        return Err(McpError::DestinationOutOfRange { d, n });
    }
    let required = fit_word_bits(w);
    if ppa.word_bits() < required {
        return Err(McpError::WordWidthTooSmall {
            required,
            actual: ppa.word_bits(),
        });
    }
    Ok(())
}

impl<E: Executor> Prepared<E> {
    /// Checks the solo size/word-width contract and prepares `w` under the
    /// caller's current span and phase.
    pub(crate) fn build(ppa: &mut Ppa<E>, w: &WeightMatrix) -> Result<Self> {
        check_fit(ppa, w, None)?;
        let paper = VariantConfig::reference();
        Prepared::load(ppa, std::slice::from_ref(w), Algebra::MinPlus, paper)
    }

    /// Loads the lanes' weights side by side — lane `l` owns columns
    /// `l*n .. (l+1)*n` of the `n x (n * L)` machine — as `algebra` holds
    /// them, fixes the solve's `algebra` and bus/combining `model`, and
    /// issues the five prepare steps: `ROW`, the lane-local `COL`, the
    /// `n - 1` immediate and the masks `ROW == COL` and `COL == n - 1`. The
    /// caller has checked the machine's shape and word width.
    pub(crate) fn load(
        ppa: &mut Ppa<E>,
        graphs: &[WeightMatrix],
        algebra: Algebra,
        model: VariantConfig,
    ) -> Result<Self> {
        // `parallel int W` arrives preloaded in each PE's memory (host I/O,
        // not a SIMD step), sliced straight into bit-planes. The diagonal
        // is loaded as 0 — the dynamic-program convention the paper's
        // statement 16 silently relies on: with `w_ii = 0` the candidate
        // `j = i` of `min_j(w_ij + SOW_jd)` is the *old* `SOW_id`, which is
        // how the pure overwrite of statement 16 realizes the prose's
        // "minimum between its old value and the new sums" (fidelity note 2
        // in DESIGN.md); it also pins `SOW_dd` to 0 so one-edge paths keep
        // their `j = d` witness in later iterations. The word-width check
        // keeps every finite weight below MAXINT. Capacities are the dual:
        // the diagonal loads as MAXINT ("unlimited") and absent edges as 0.
        let dim = ppa.dim();
        let n = dim.rows;
        let maxint = ppa.maxint();
        let (stay, none) = (algebra.stay(maxint), algebra.none(maxint));
        let weight = |g: &WeightMatrix, r, c| loaded_weight(g, stay, none, r, c);
        let (w, wt) = match graphs {
            // One lane preloads no transpose (see `wt`) and reads `W` straight
            // from its graph: the composite-column lookup below made a packed
            // session's setup 11-15% slower at n = 16-64.
            [g] => (ppa.load_with(|r, c| weight(g, r, c))?, None),
            _ => {
                // Composite column -> (lane, lane-local column), once per load.
                let lane_cols: Vec<(usize, usize)> =
                    (0..dim.cols).map(|c| (c / n, c % n)).collect();
                let w = ppa.load_with(|r, c| {
                    let (l, c) = lane_cols[c];
                    weight(&graphs[l], r, c)
                })?;
                let wt = ppa.load_with(|r, c| {
                    let (l, c) = lane_cols[c];
                    weight(&graphs[l], c, r)
                })?;
                (w, Some(wt))
            }
        };
        let row = ppa.int_row_index()?;
        let col = ppa.int_col_index(n)?;
        let nm1_imm = ppa.int_constant(n as i64 - 1)?;
        let diag = ppa.int_eq(&row, &col)?; // ROW == COL
        let last_col = ppa.int_eq(&col, &nm1_imm)?; // COL == n - 1
        Ok(Prepared {
            n,
            maxint,
            algebra,
            model,
            row,
            col,
            diag,
            last_col,
            w,
            wt,
        })
    }

    /// The destination registers for one destination per lane (one
    /// immediate plus three ALU steps).
    fn dest_masks(&self, ppa: &mut Ppa<E>, dests: &[i64]) -> Result<DestMasks<E>> {
        let d_imm = ppa.int_lane_constant(dests, self.n)?;
        let row_is_d = ppa.int_eq(&self.row, &d_imm)?;
        let row_ne_d = ppa.mask_not(&row_is_d)?;
        let col_is_d = ppa.int_eq(&self.col, &d_imm)?;
        Ok(DestMasks {
            d_imm,
            row_is_d,
            row_ne_d,
            col_is_d,
        })
    }

    /// Statements 9-18: one pass of the do-while body up to the loop test.
    /// Returns the statement-17 mask `SOW != OLD_SOW`.
    fn relax(
        &self,
        ppa: &mut Ppa<E>,
        masks: &DestMasks<E>,
        regs: &mut LoopRegs<E>,
    ) -> Result<E::Mask> {
        let DestMasks {
            row_is_d, row_ne_d, ..
        } = masks;
        let LoopRegs {
            sow,
            min_sow,
            ptn,
            old_sow,
        } = regs;

        let widest = self.algebra == Algebra::MaxMin;
        let (stmt_10, stmt_11) = if widest {
            ("stmt 10: broadcast+min", "stmt 11: max")
        } else {
            ("stmt 10: broadcast+add", "stmt 11: min")
        };

        // ---- statements 9-13, under where (ROW != d) ----
        // 10: SOW = broadcast(SOW, SOUTH, ROW == d) + W (min(..., W) for
        //     capacities; the bus transaction is global, the mask gates
        //     the write)
        ppa.set_phase(Some(stmt_10));
        let bsow = self.fold(ppa, sow, row_is_d)?;
        let sum = if widest {
            ppa.int_min2(&bsow, &self.w)?
        } else {
            ppa.int_sat_add(&bsow, &self.w)?
        };
        ppa.where_mask(row_ne_d, |p| p.int_assign(sow, &sum))??;

        // 11: MIN_SOW = min(SOW, WEST, COL == n-1) (max for capacities)
        ppa.set_phase(Some(stmt_11));
        let rowmin = match self.model.min {
            MinModel::BitSerial if widest => ppa.int_max(sow, Direction::West, &self.last_col)?,
            MinModel::BitSerial => ppa.int_min(sow, Direction::West, &self.last_col)?,
            // A2 models the shortest-path scan only: widest paths run the
            // paper's model.
            MinModel::Word => self.word_min(ppa, sow)?,
        };
        ppa.where_mask(row_ne_d, |p| p.int_assign(min_sow, &rowmin))??;

        // 12: PTN = selected_min(COL, WEST, COL == n-1, MIN_SOW == SOW)
        //     (+ fidelity repair: row d trivially selected so its bus
        //      cluster never floats; its result is masked away below). On a
        //      lane-batched machine `COL` is lane-local, so PTN values and
        //      tie-breaks match each lane's solo run.
        ppa.set_phase(Some("stmt 12: selected_min"));
        let is_argmin = ppa.int_eq(min_sow, sow)?;
        let sel = ppa.mask_or(&is_argmin, row_is_d)?;
        let argmin_col = match self.model.min {
            MinModel::BitSerial => {
                ppa.int_selected_min(&self.col, Direction::West, &self.last_col, &sel)?
            }
            MinModel::Word => {
                // Unselected indices read as MAXINT, then one word combine.
                let mut masked = ppa.int_constant(self.maxint)?;
                ppa.machine_mut()
                    .int_assign(&mut masked, &self.col, Some(&sel))
                    .map_err(machine_error)?;
                self.word_min(ppa, &masked)?
            }
        };
        ppa.where_mask(row_ne_d, |p| p.int_assign(ptn, &argmin_col))??;

        // ---- statements 14-18, under where (ROW == d) ----
        ppa.set_phase(Some("stmts 14-18: fold into row d"));
        let bc_min = self.fold(ppa, min_sow, &self.diag)?; // 16 (read)
        let bc_ptn = self.fold(ppa, ptn, &self.diag)?; // 18 (read)
        let changed = ppa.where_mask(row_is_d, |p| -> ppa_ppc::Result<E::Mask> {
            p.int_assign(old_sow, sow)?; // 15
            p.int_assign(sow, &bc_min)?; // 16 (write)
            let changed = p.int_ne(sow, old_sow)?; // 17 condition
            p.where_mask(&changed, |q| q.int_assign(ptn, &bc_ptn))??; // 17-18
            Ok(changed)
        })??;
        Ok(changed)
    }

    /// A fold broadcast: every PE of a column receives `src` from the
    /// column's one Open PE of `open` (statements 5, 10, 16 and 18). On
    /// circular buses this is one instruction.
    fn fold(&self, ppa: &mut Ppa<E>, src: &E::Int, open: &E::Mask) -> Result<E::Int> {
        let down = ppa.int_broadcast(src, Direction::South, open)?;
        if self.model.bus == BusModel::Circular {
            return Ok(down);
        }
        // A1's linear buses: the down-pass reaches only the PEs below the
        // injector, the up-pass those above it, and each PE keeps the copy
        // that really came from its injector — decided against the
        // injector's row, folded the same way. The hardware equivalent is
        // a one-bit valid flag riding with each pass; the model charges the
        // row copy, the compare and the merge.
        let up = ppa.int_broadcast(src, Direction::North, open)?;
        let row = ppa.int_row_index()?;
        let injector = ppa.int_broadcast(&row, Direction::South, open)?;
        let above = ppa.int_lt(&row, &injector)?;
        let mut merged = down;
        ppa.machine_mut()
            .int_assign(&mut merged, &up, Some(&above))
            .map_err(machine_error)?;
        Ok(merged)
    }

    /// A2's word-combining bus along the rows, headed at `COL == n - 1`:
    /// [`Ppa::min_word`]'s host combine on the register's image, loaded
    /// back. The read and the load are uncosted host I/O; the combine
    /// records its bus-or and broadcast steps.
    fn word_min(&self, ppa: &mut Ppa<E>, src: &E::Int) -> Result<E::Int> {
        let heads = ppa.machine().unpack_mask(&self.last_col);
        let image = ppa.read(src);
        let row_min = ppa.min_word(&image, Direction::West, &heads)?;
        Ok(ppa.load(&row_min)?)
    }
}

/// Runs `solve` as one observed solve: inside the span `name` (when a
/// sink is installed), starting in the `setup` phase. Every exit — a
/// result, a typed error, or a machine error raised mid-scan — clears the
/// phase and closes every span opened since, so the next solve on the
/// runtime never nests under stale ones.
pub(crate) fn in_solve_span<E: Executor, T>(
    ppa: &mut Ppa<E>,
    name: &str,
    solve: impl FnOnce(&mut Ppa<E>) -> Result<T>,
) -> Result<T> {
    let depth = ppa.span_depth();
    ppa.enter_span(name);
    ppa.set_phase(Some("setup"));
    let out = solve(ppa);
    ppa.set_phase(None);
    while ppa.span_depth() > depth {
        ppa.exit_span();
    }
    out
}

/// A machine error as a lane's typed result.
fn machine_error(e: MachineError) -> McpError {
    McpError::Ppc(PpcError::Machine(e))
}

/// Steps [`Prepared::load`] issues: the `ROW` register, the `COL`
/// register, the `n - 1` immediate and the two derived masks — five for
/// any number of lanes.
const PREPARE_STEPS: u64 = 5;

/// Per-lane resource limits of one solve: the solve driver takes one per
/// lane, and [`BatchSession::solve_with`](crate::batch::BatchSession::solve_with)
/// exposes them.
#[derive(Debug, Clone, Default)]
pub struct LaneLimit {
    /// Solo-equivalent step budget: the lane fails with
    /// [`MachineError::StepBudgetExhausted`] exactly when a fresh solo
    /// machine with `limit_steps(budget)` would. The lane's ledger charges
    /// every shared step to every lane, the five prepare steps included.
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

/// Statements 3-20 plus readout and (optionally) verification, for one
/// destination per lane: the solve driver. Lane `l` solves toward
/// `dests[l]` on `graphs[l]` under `limits[l]`; one lane is a solo solve.
/// Callers run it inside [`in_solve_span`], after `prep`'s five steps.
/// The host invariants are the shortest-path ones: a `(max, min)` solve
/// never runs them, whatever `verify` says.
///
/// Every lane's [`McpStats`] count from `start`: before the prepare steps
/// for a one-shot, after them for a session or a wave. The outer `Result`
/// is the machine — a machine-level budget, cancellation or bus fault
/// aborts every lane — and the inner ones are the problems.
///
/// The driver returns as soon as every lane is resolved. A lane that can
/// never run (a raised cancel token, an out-of-range destination) is
/// resolved before any instruction issues, and a pass after which every
/// lane still running failed invariant 1 returns at once, with no loop
/// test and no pass metrics — exactly where a solo run returns.
pub(crate) fn solve_lanes<E: Executor>(
    ppa: &mut Ppa<E>,
    prep: &Prepared<E>,
    graphs: &[WeightMatrix],
    dests: &[usize],
    limits: &[LaneLimit],
    verify: bool,
    start: StepReport,
) -> Result<Vec<Result<McpOutput>>> {
    let n = prep.n;
    let verify = verify && prep.algebra == Algebra::MinPlus;
    let cols = |l: usize| l * n..(l + 1) * n;
    let cancelled = |l: usize| {
        limits[l]
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    };
    let mut done: Vec<(usize, Result<McpOutput>)> = Vec::with_capacity(dests.len());
    let mut live: Vec<usize> = Vec::with_capacity(dests.len());
    for (l, &d) in dests.iter().enumerate() {
        if cancelled(l) {
            // A solo run fails at its first guarded op.
            done.push((l, Err(machine_error(MachineError::Cancelled))));
        } else if d >= n {
            done.push((l, Err(McpError::DestinationOutOfRange { d, n })));
        } else {
            live.push(l);
        }
    }
    if live.is_empty() {
        return Ok(lane_order(done));
    }

    // --- destination registers (4 ALU) and statement 3 (4 ALU) -----------
    // A resolved lane rides along on a safe destination; its PEs cannot
    // perturb the others, because no instruction carries data across a
    // lane boundary.
    let origin = ppa.steps();
    let safe: Vec<i64> = dests.iter().map(|&d| d.min(n - 1) as i64).collect();
    let masks = prep.dest_masks(ppa, &safe)?;
    let mut regs = LoopRegs::declare(ppa, prep.algebra.none(prep.maxint))?;

    // --- Step 1: statements 4-7 -------------------------------------------
    ppa.set_phase(Some("step 1 (stmts 4-7)"));
    // Statement 5 reads `SOW = W`, but the prose demands `SOW[d][i] = w_id`
    // — the weight of the edge *from i to d*, which in the standard layout
    // lives in W's d-th *column*, not its d-th row (fidelity note 3 in
    // DESIGN.md). Two broadcast steps realize it:
    let spread = match &prep.wt {
        // one lane: spread column d across each row, [i][*] = w_id ...
        None => ppa.int_broadcast(&prep.w, Direction::East, &masks.col_is_d)?,
        // ... or, lane-safe, read row d of the transpose, [*][i] = w_id;
        Some(wt) => prep.fold(ppa, wt, &masks.row_is_d)?,
    };
    // then fold the diagonal down, [*][i] = w_id either way.
    let in_weights_t = prep.fold(ppa, &spread, &prep.diag)?;
    regs.init(ppa, &masks, &in_weights_t)?;
    // The counters are monotonic within the run, so the subtraction cannot
    // fail; `checked_since` keeps the stats path panic-free regardless.
    let init = ppa.steps().checked_since(&start).unwrap_or_default();

    // --- the per-lane solo-equivalent step ledger -------------------------
    // Every costed op is one step and the last op of every pass is guarded,
    // so a solo run with `limit_steps(B)` succeeds iff it completes within B
    // total steps (prepare included) and otherwise dies with
    // `StepBudgetExhausted` — which lets the ledger resolve budgets exactly
    // at pass boundaries. A guard checks cancellation before the budget.
    let spent = |ppa: &Ppa<E>| {
        PREPARE_STEPS
            + ppa
                .steps()
                .checked_since(&origin)
                .unwrap_or_default()
                .total()
    };
    let stopped = |l: usize, spent: u64| -> Option<McpError> {
        if cancelled(l) {
            return Some(machine_error(MachineError::Cancelled));
        }
        let budget = limits[l].step_budget.filter(|&b| spent >= b)?;
        Some(machine_error(MachineError::StepBudgetExhausted { budget }))
    };
    // A lane whose budget cannot even cover its masks and initializer dies
    // before pass 1's first guarded op.
    let at_init = spent(ppa);
    live.retain(|&l| match stopped(l, at_init) {
        Some(e) => {
            done.push((l, Err(e)));
            false
        }
        None => true,
    });

    // Invariant 1 state per lane still running: its row-d costs after the
    // last pass (host-side reads of the bit-planes; never touch the array).
    let lane_row = |ppa: &Ppa<E>, reg: &E::Int, l: usize| ppa.read_row(reg, dests[l], cols(l));
    let mut live: Vec<(usize, Option<Vec<i64>>)> = live
        .into_iter()
        .map(|l| (l, verify.then(|| lane_row(ppa, &regs.sow, l))))
        .collect();

    // --- Step 2: the do-while loop, statements 8-20 ------------------------
    let observed = ppa.observing();
    let mut per_iteration: Vec<StepReport> = Vec::new();
    let mut iterations = 0usize;
    while !live.is_empty() {
        let iter_start = ppa.steps();
        if observed {
            ppa.enter_span(&format!("iteration[{iterations}]"));
        }
        iterations += 1;

        let changed = prep.relax(ppa, &masks, &mut regs)?;

        per_iteration.push(ppa.steps().checked_since(&iter_start).unwrap_or_default());

        // ---- invariant 1 per lane: row-d costs never increase ----
        live.retain_mut(|(l, prev)| {
            let Some(prev) = prev.as_mut() else {
                return true;
            };
            let now = lane_row(ppa, &regs.sow, *l);
            if now.iter().zip(prev.iter()).any(|(new, old)| new > old) {
                done.push((
                    *l,
                    Err(McpError::InvariantViolation {
                        invariant: "a row-d cost increased across an iteration",
                    }),
                ));
                return false;
            }
            *prev = now;
            true
        });
        if live.is_empty() {
            return Ok(lane_order(done));
        }

        // ---- statement 20: while at least one SOW in row d has changed ----
        ppa.set_phase(Some("stmt 20: loop test"));
        let changed_in_row_d = ppa.mask_and(&changed, &masks.row_is_d)?;
        let keep_going = ppa.mask_any(&changed_in_row_d)?;
        if observed {
            ppa.exit_span(); // iteration[i] (includes the loop test)
        }

        // ---- pass boundary: resolve lanes ----
        // The global OR covers every lane; a lane's own row d is a host read
        // (a converged lane is idempotent under further passes, so it cannot
        // re-assert the OR for its batchmates).
        let total = ppa.steps().checked_since(&start).unwrap_or_default();
        let at_pass = spent(ppa);
        live.retain(|&(l, _)| {
            let lane_changed = keep_going && ppa.mask_any_in(&changed_in_row_d, dests[l], cols(l));
            let within = limits[l].step_budget.is_none_or(|b| at_pass <= b);
            let result = if !lane_changed && within {
                // Converged inside budget: the solo run returned here,
                // before any cancellation could be observed.
                read_out(
                    &graphs[l],
                    dests[l],
                    prep.algebra,
                    prep.maxint,
                    &lane_row(ppa, &regs.sow, l),
                    &lane_row(ppa, &regs.ptn, l),
                    verify,
                )
                .map(|(sow, ptn)| McpOutput {
                    dest: dests[l],
                    sow,
                    ptn,
                    iterations,
                    stats: McpStats {
                        init,
                        per_iteration: per_iteration.clone(),
                        total,
                    },
                })
            } else if let Some(e) = stopped(l, at_pass) {
                // Out of steps before the next pass's first guarded op, or
                // converged over budget (the solo run died inside this pass).
                Err(e)
            } else if iterations > n {
                Err(McpError::NoConvergence { rounds: iterations })
            } else {
                return true;
            };
            done.push((l, result));
            false
        });
    }

    if let Some(m) = ppa.metrics_mut() {
        for r in &per_iteration {
            m.observe("mcp.steps_per_iteration", r.total());
        }
        m.inc("mcp.iterations", iterations as u64);
    }
    Ok(lane_order(done))
}

/// Resolved lanes back in lane order.
fn lane_order(mut done: Vec<(usize, Result<McpOutput>)>) -> Vec<Result<McpOutput>> {
    done.sort_unstable_by_key(|(l, _)| *l);
    done.into_iter().map(|(_, r)| r).collect()
}

/// [`solve_lanes`] with one lane: a solo solve toward `d`.
fn solve_solo<E: Executor>(
    ppa: &mut Ppa<E>,
    prep: &Prepared<E>,
    w: &WeightMatrix,
    d: usize,
    verify: bool,
    start: StepReport,
) -> Result<McpOutput> {
    let graphs = std::slice::from_ref(w);
    let limits = [LaneLimit::unlimited()];
    solve_lanes(ppa, prep, graphs, &[d], &limits, verify, start)?
        .pop()
        .unwrap_or(Err(McpError::InvariantViolation {
            invariant: "a one-lane solve returns one lane",
        }))
}

/// One destination on prepared registers, in its own `mcp` span: a
/// session's and the all-pairs driver's solve. Its report starts here,
/// so the shared prepare cost is amortized out of every per-destination
/// report.
pub(crate) fn solve_prepared<E: Executor>(
    ppa: &mut Ppa<E>,
    prep: &Prepared<E>,
    w: &WeightMatrix,
    d: usize,
    verify: bool,
) -> Result<McpOutput> {
    let start = ppa.steps();
    in_solve_span(ppa, "mcp", |ppa| solve_solo(ppa, prep, w, d, verify, start))
}

/// Publishes the backend's execution-stat deltas since `before` as
/// `backend.*` counters, when a metrics registry is attached.
pub(crate) fn publish_backend_metrics<E: Executor>(ppa: &mut Ppa<E>, before: &ExecStats) {
    let delta = ppa.exec_stats().since(before);
    if let Some(m) = ppa.metrics_mut() {
        m.inc("backend.plan_hits", delta.plan_hits);
        m.inc("backend.plan_misses", delta.plan_misses);
        m.inc("backend.arena_fresh", delta.arena_fresh);
        m.inc("backend.arena_reused", delta.arena_reused);
    }
}

/// The preloaded `W` value of PE `(r, c)`: `w_rc`, with the diagonal as
/// `stay` and absent edges as `none`.
fn loaded_weight(w: &WeightMatrix, stay: i64, none: i64, r: usize, c: usize) -> i64 {
    match w.get(r, c) {
        _ if r == c => stay,
        INF => none,
        x => x,
    }
}

/// Converts row `d` of the final `SOW`/`PTN` registers, holding
/// `algebra`'s values, into the output vectors and, when `verify` is set,
/// checks invariants 2 and 3 of [`minimum_cost_path_verified`] host-side.
fn read_out(
    w: &WeightMatrix,
    d: usize,
    algebra: Algebra,
    maxint: i64,
    sow_d: &[i64],
    ptn_d: &[i64],
    verify: bool,
) -> Result<(Vec<Weight>, Vec<usize>)> {
    let n = sow_d.len();
    let mut out_sow: Vec<Weight> = Vec::with_capacity(n);
    let mut out_ptn: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        let cost = sow_d[i];
        if i == d {
            out_sow.push(algebra.stay(maxint));
            out_ptn.push(d);
        } else if cost == algebra.none(maxint) {
            out_sow.push(algebra.none(INF));
            out_ptn.push(i);
        } else {
            out_sow.push(cost);
            out_ptn.push(ptn_d[i] as usize);
        }
    }

    if verify {
        // ---- invariant 2: the destination's own cost is zero ----
        if sow_d[d] != 0 {
            return Err(McpError::InvariantViolation {
                invariant: "destination cost must be zero",
            });
        }
        // ---- invariant 3: the Bellman fixpoint against the input ----
        // `sow[i] = min_j(w_ij + sow[j])` for i != d, in host arithmetic
        // with INF absorbing. The word-width guard rules out saturation, so
        // a correct run matches exactly.
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
    Ok((out_sow, out_ptn))
}

/// The shortest-path one-shot under a bus/combining `model`: every guard
/// before any observation starts, then [`one_shot`].
pub(crate) fn mcp_run<E: Executor>(
    ppa: &mut Ppa<E>,
    w: &WeightMatrix,
    d: usize,
    model: VariantConfig,
    verify: bool,
) -> Result<McpOutput> {
    check_fit(ppa, w, Some(d))?;
    one_shot(ppa, w, d, Algebra::MinPlus, model, verify)
}

/// A one-shot past its caller's guards: `w` prepared for `algebra` under
/// `model`, then the driver on one lane, inside the `mcp` span (`widest`
/// for capacities). The report counts the prepare steps.
pub(crate) fn one_shot<E: Executor>(
    ppa: &mut Ppa<E>,
    w: &WeightMatrix,
    d: usize,
    algebra: Algebra,
    model: VariantConfig,
    verify: bool,
) -> Result<McpOutput> {
    let start = ppa.steps();
    let span = match algebra {
        Algebra::MinPlus => "mcp",
        Algebra::MaxMin => "widest",
    };
    in_solve_span(ppa, span, |ppa| {
        let prep = Prepared::load(ppa, std::slice::from_ref(w), algebra, model)?;
        solve_solo(ppa, &prep, w, d, verify, start)
    })
}

/// Convenience wrapper: builds a machine of the right size and word width
/// for `w` and runs [`minimum_cost_path`].
pub fn minimum_cost_path_auto(w: &WeightMatrix, d: usize) -> Result<McpOutput> {
    let mut ppa = Ppa::square(w.n()).with_word_bits(fit_word_bits(w).clamp(2, 62));
    minimum_cost_path(&mut ppa, w, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_graph::gen;
    use ppa_graph::reference::bellman_ford_to_dest;
    use ppa_graph::validate::{is_valid_solution, validate_solution};

    #[test]
    fn three_vertex_chain() {
        let w = WeightMatrix::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 5)]);
        let out = minimum_cost_path_auto(&w, 2).unwrap();
        assert_eq!(out.sow, vec![2, 1, 0]);
        assert_eq!(out.ptn, vec![1, 2, 2]);
    }

    #[test]
    fn unreachable_vertices_report_inf() {
        let w = WeightMatrix::from_edges(4, &[(0, 1, 3)]);
        let out = minimum_cost_path_auto(&w, 1).unwrap();
        assert_eq!(out.sow[0], 3);
        assert_eq!(out.sow[2], INF);
        assert_eq!(out.sow[3], INF);
        assert_eq!(out.ptn[2], 2);
    }

    #[test]
    fn destination_conventions() {
        let w = gen::ring(5);
        let out = minimum_cost_path_auto(&w, 3).unwrap();
        assert_eq!(out.sow[3], 0);
        assert_eq!(out.ptn[3], 3);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..15 {
            let w = gen::random_digraph(10, 0.3, 20, seed);
            let d = (seed as usize * 3) % 10;
            let out = minimum_cost_path_auto(&w, d).unwrap();
            assert!(
                is_valid_solution(&w, d, &out.sow, &out.ptn),
                "seed {seed}: {:?}",
                validate_solution(&w, d, &out.sow, &out.ptn)
            );
        }
    }

    #[test]
    fn matches_oracle_on_every_family() {
        for f in gen::Family::ALL {
            let w = f.build(12, 15, 77);
            let out = minimum_cost_path_auto(&w, 5).unwrap();
            assert!(
                is_valid_solution(&w, 5, &out.sow, &out.ptn),
                "family {}: {:?}",
                f.label(),
                validate_solution(&w, 5, &out.sow, &out.ptn)
            );
        }
    }

    #[test]
    fn iteration_count_tracks_path_length() {
        // Ring: the longest MCP to vertex 0 has n-1 hops.
        let w = gen::ring(8);
        let out = minimum_cost_path_auto(&w, 0).unwrap();
        let oracle = bellman_ford_to_dest(&w, 0);
        // do-while runs improving rounds + 1 detection round.
        assert_eq!(out.iterations, oracle.rounds + 1);
        assert_eq!(out.iterations, 7);
        // Star: one-edge paths only; a single (no-change) iteration.
        let w = gen::star(8, 2, 5, 1);
        let out = minimum_cost_path_auto(&w, 2).unwrap();
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn per_iteration_step_cost_is_uniform_and_linear_in_h() {
        let w = gen::ring(6);
        let mut costs = Vec::new();
        for h in [8u32, 16, 32] {
            let mut ppa = Ppa::square(6).with_word_bits(h);
            let out = minimum_cost_path(&mut ppa, &w, 0).unwrap();
            assert!(out.stats.iterations_uniform());
            costs.push(out.stats.steps_per_iteration());
        }
        // Doubling h should roughly double the per-iteration cost
        // (2 bit-serial scans of 4 steps/bit dominate).
        assert!(costs[1] > costs[0] * 1.6, "{costs:?}");
        assert!(costs[2] > costs[1] * 1.6, "{costs:?}");
    }

    #[test]
    fn per_iteration_cost_is_independent_of_n() {
        let mut baseline = None;
        for n in [4usize, 8, 16] {
            let w = gen::padded_path(n, 2);
            let mut ppa = Ppa::square(n).with_word_bits(10);
            let out = minimum_cost_path(&mut ppa, &w, 2).unwrap();
            let per = out.stats.per_iteration[0].total();
            match baseline {
                None => baseline = Some(per),
                Some(b) => assert_eq!(per, b, "n={n}"),
            }
        }
    }

    #[test]
    fn word_width_guard_fires() {
        let w = WeightMatrix::from_edges(4, &[(0, 1, 100), (1, 2, 100), (2, 3, 100)]);
        let mut ppa = Ppa::square(4).with_word_bits(8); // 300 > 255
        assert!(matches!(
            minimum_cost_path(&mut ppa, &w, 3),
            Err(McpError::WordWidthTooSmall { .. })
        ));
    }

    #[test]
    fn size_guard_fires() {
        let w = gen::ring(5);
        let mut ppa = Ppa::square(4);
        assert!(matches!(
            minimum_cost_path(&mut ppa, &w, 0),
            Err(McpError::SizeMismatch { n: 5, .. })
        ));
    }

    #[test]
    fn single_vertex_graph() {
        let w = WeightMatrix::new(1);
        let out = minimum_cost_path_auto(&w, 0).unwrap();
        assert_eq!(out.sow, vec![0]);
        assert_eq!(out.ptn, vec![0]);
    }

    #[test]
    fn two_vertex_graphs() {
        let w = WeightMatrix::from_edges(2, &[(0, 1, 4)]);
        let out = minimum_cost_path_auto(&w, 1).unwrap();
        assert_eq!(out.sow, vec![4, 0]);
        let out = minimum_cost_path_auto(&w, 0).unwrap();
        assert_eq!(out.sow, vec![0, INF]);
    }

    #[test]
    fn equal_cost_ties_yield_some_optimal_path() {
        // Two cost-2 routes 0 -> 3: direct edge and via 1.
        let w = WeightMatrix::from_edges(4, &[(0, 3, 2), (0, 1, 1), (1, 3, 1), (2, 3, 9)]);
        let out = minimum_cost_path_auto(&w, 3).unwrap();
        assert!(is_valid_solution(&w, 3, &out.sow, &out.ptn));
        assert_eq!(out.sow[0], 2);
    }

    #[test]
    fn observed_run_yields_balanced_spans_and_reconciled_metrics() {
        let w = gen::ring(5);
        let mut ppa = Ppa::square(5).with_word_bits(8);
        let sink = ppa_obs::MemorySink::new();
        ppa.install_sink(sink.clone());
        ppa.enable_metrics();
        let out = minimum_cost_path(&mut ppa, &w, 0).unwrap();
        let _ = ppa.take_sink();
        let m = ppa.take_metrics();

        assert!(sink.balanced());
        assert_eq!(sink.total_steps(), out.stats.total.total());
        // Every step is attributed somewhere under the `mcp` span.
        let totals = sink.span_totals();
        assert!(!totals.is_empty());
        assert!(
            totals.iter().all(|(path, _)| path.starts_with("mcp")),
            "{totals:?}"
        );
        // The bit-serial scans surface as `min`/`selected_min > bit[j]`.
        assert!(
            totals
                .iter()
                .any(|(p, _)| p.contains("selected_min > bit[")),
            "{totals:?}"
        );

        assert_eq!(m.counter("steps.total"), out.stats.total.total());
        assert_eq!(m.counter("mcp.iterations"), out.iterations as u64);
        let h = m.histogram("mcp.steps_per_iteration").unwrap();
        assert_eq!(h.count, out.iterations as u64);
        let per_iter_sum: u64 = out.stats.per_iteration.iter().map(|r| r.total()).sum();
        assert_eq!(h.sum, per_iter_sum);
    }

    #[test]
    fn verified_run_is_bit_identical_on_a_healthy_machine() {
        for seed in 0..5 {
            let w = gen::random_digraph(8, 0.4, 12, seed);
            let mut plain = Ppa::square(8).with_word_bits(12);
            let mut checked = Ppa::square(8).with_word_bits(12);
            let a = minimum_cost_path(&mut plain, &w, 1).unwrap();
            let b = minimum_cost_path_verified(&mut checked, &w, 1).unwrap();
            assert_eq!(a, b, "seed {seed}: verification must be free");
        }
    }

    #[test]
    fn empty_fault_map_is_bit_identical_to_the_pre_fault_path() {
        // Attaching an *empty* FaultMap must not perturb the solver at
        // all: same SOW/PTN, same iteration count, same step accounting
        // down to the per-phase breakdown.
        for seed in 0..5 {
            let w = gen::random_digraph(7, 0.45, 15, seed);
            let d = seed as usize % 7;
            let mut plain = Ppa::square(7).with_word_bits(12);
            let mut faulted = Ppa::square(7).with_word_bits(12);
            faulted
                .machine_mut()
                .attach_faults(ppa_machine::FaultMap::new());
            let a = minimum_cost_path(&mut plain, &w, d).unwrap();
            let b = minimum_cost_path(&mut faulted, &w, d).unwrap();
            assert_eq!(a, b, "seed {seed}: an empty fault map must be free");
            assert_eq!(plain.steps(), faulted.steps(), "seed {seed}");
        }
    }

    #[test]
    fn reusing_a_machine_accumulates_but_reports_per_run() {
        let w = gen::ring(5);
        let mut ppa = Ppa::square(5).with_word_bits(8);
        let a = minimum_cost_path(&mut ppa, &w, 0).unwrap();
        let b = minimum_cost_path(&mut ppa, &w, 0).unwrap();
        assert_eq!(a.stats.total, b.stats.total);
        assert_eq!(a.sow, b.sow);
    }

    #[test]
    fn out_of_range_destination_is_a_typed_error() {
        let w = gen::ring(4);
        let mut ppa = Ppa::square(4).with_word_bits(8);
        // Both the one-shot entry point and the session path reject it.
        assert!(matches!(
            minimum_cost_path(&mut ppa, &w, 4),
            Err(McpError::DestinationOutOfRange { d: 4, n: 4 })
        ));
        let mut session = crate::McpSession::new(&w).unwrap();
        assert!(matches!(
            session.solve(9),
            Err(McpError::DestinationOutOfRange { d: 9, n: 4 })
        ));
        // The session stays usable after the rejection.
        assert!(session.solve(1).is_ok());
    }

    #[test]
    fn weight_boundary_at_machine_maxint() {
        // On an h-bit machine MAXINT = 2^h - 1 is the "infinite" sentinel.
        // A weight of MAXINT - 1 (with n = 2, so the worst path cost
        // equals the edge weight) is the largest solvable input...
        let h = 6u32;
        let maxint = (1i64 << h) - 1;
        let fits = WeightMatrix::from_edges(2, &[(0, 1, maxint - 1)]);
        let mut ppa = Ppa::square(2).with_word_bits(h);
        let out = minimum_cost_path(&mut ppa, &fits, 1).unwrap();
        assert_eq!(out.sow, vec![maxint - 1, 0]);
        // ...while a weight equal to MAXINT would collide with the
        // sentinel and is rejected with a typed error, not a panic or a
        // silent wraparound.
        let collides = WeightMatrix::from_edges(2, &[(0, 1, maxint)]);
        let mut ppa = Ppa::square(2).with_word_bits(h);
        assert!(matches!(
            minimum_cost_path(&mut ppa, &collides, 1),
            Err(McpError::WordWidthTooSmall { required, actual })
                if required == h + 1 && actual == h
        ));
    }

    #[test]
    fn solver_under_step_budget_fails_typed_with_counters_intact() {
        let w = gen::ring(5);
        let mut ppa = Ppa::square(5).with_word_bits(8);
        ppa.limit_steps(20);
        let err = minimum_cost_path(&mut ppa, &w, 0).unwrap_err();
        assert!(err.is_step_budget_exhausted(), "{err}");
        assert_eq!(ppa.steps().total(), 20, "stopped exactly at the budget");
        ppa.clear_step_limit();
        let out = minimum_cost_path(&mut ppa, &w, 0).unwrap();
        assert!(out.iterations > 0, "machine recovers once the limit lifts");
    }
}
