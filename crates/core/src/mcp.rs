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

use crate::error::McpError;
use crate::stats::McpStats;
use crate::Result;
use ppa_graph::{Weight, WeightMatrix, INF};
use ppa_machine::{Direction, Executor, StepReport};
use ppa_ppc::Ppa;

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
    mcp_run(ppa, w, d, false)
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
    mcp_run(ppa, w, d, true)
}

/// The destination-independent registers of `minimum_cost_path`:
/// everything the do-while body reads that does not depend on `d`, plus
/// the preloaded `W` register. Building one costs five ALU steps (`ROW`,
/// `COL`, the `n - 1` immediate and the two derived masks); the `W` load
/// itself is host I/O, not a SIMD step. The struct holds plain registers —
/// no machine borrow — so one build can serve any number of destination
/// solves on the same runtime. The consumers are
/// [`crate::apsp::all_pairs`], [`crate::session::McpSession`] and, with
/// the lane-local `COL`, [`crate::batch::BatchSession`]; the one-shot entry
/// points below simply build and solve in one go.
#[derive(Debug)]
pub(crate) struct Prepared<E: Executor> {
    pub(crate) n: usize,
    pub(crate) maxint: i64,
    row: E::Int,
    /// `COL` — lane-local on a lane-batched machine — the register that
    /// statement 12 selects from.
    col: E::Int,
    pub(crate) diag: E::Mask,
    last_col: E::Mask,
    w: E::Int,
}

/// The four destination-dependent registers (4 ALU steps per destination).
pub(crate) struct DestMasks<E: Executor> {
    d_imm: E::Int,
    pub(crate) row_is_d: E::Mask,
    row_ne_d: E::Mask,
    col_is_d: E::Mask,
}

/// The parallel variables of the do-while loop.
pub(crate) struct LoopRegs<E: Executor> {
    pub(crate) sow: E::Int,
    min_sow: E::Int,
    pub(crate) ptn: E::Int,
    old_sow: E::Int,
}

impl<E: Executor> LoopRegs<E> {
    /// Statement 3 and the PPC declarations (4 ALU steps). PPC leaves the
    /// variables uninitialized; the simulator pins them to MAXINT (fidelity
    /// note 2 at the crate root).
    pub(crate) fn declare(ppa: &mut Ppa<E>, maxint: i64) -> Result<Self> {
        Ok(LoopRegs {
            sow: ppa.int_constant(maxint)?,
            min_sow: ppa.int_constant(maxint)?,
            ptn: ppa.int_constant(0)?,
            old_sow: ppa.int_constant(maxint)?, // statement 3
        })
    }

    /// Statements 4-7 given the in-weights `[*][i] = w_id`: one `where`
    /// and three masked writes.
    pub(crate) fn init(
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

impl<E: Executor> Prepared<E> {
    /// Checks the size/word-width contract and builds the shared registers
    /// under the caller's current span and phase.
    pub(crate) fn build(ppa: &mut Ppa<E>, w: &WeightMatrix) -> Result<Self> {
        let n = w.n();
        let dim = ppa.dim();
        if dim.rows != n || dim.cols != n {
            return Err(McpError::SizeMismatch {
                n,
                rows: dim.rows,
                cols: dim.cols,
            });
        }
        let required = fit_word_bits(w);
        if ppa.word_bits() < required {
            return Err(McpError::WordWidthTooSmall {
                required,
                actual: ppa.word_bits(),
            });
        }
        // `parallel int W` arrives preloaded in each PE's memory (host I/O,
        // not a SIMD step). The diagonal is loaded as 0 — the dynamic-program
        // convention the paper's statement 16 silently relies on: with
        // `w_ii = 0` the candidate `j = i` of `min_j(w_ij + SOW_jd)` is the
        // *old* `SOW_id`, which is how the pure overwrite of statement 16
        // realizes the prose's "minimum between its old value and the new
        // sums" (fidelity note 2 in DESIGN.md); it also pins `SOW_dd` to 0
        // so one-edge paths keep their `j = d` witness in later iterations.
        // The word-width check above keeps every finite weight below MAXINT.
        let maxint = ppa.maxint();
        let w = ppa.load_with(|r, c| loaded_weight(w, maxint, r, c))?;
        Prepared::new(ppa, n, w)
    }

    /// The five prepare steps shared by solo and lane-batched sessions:
    /// `ROW`, the `COL` of an `n`-column lane, the `n - 1` immediate and
    /// the masks `ROW == COL` and `COL == n - 1`, next to the preloaded
    /// weight register `w`.
    pub(crate) fn new(ppa: &mut Ppa<E>, n: usize, w: E::Int) -> Result<Self> {
        let maxint = ppa.maxint();
        let row = ppa.int_row_index()?;
        let col = ppa.int_col_index(n)?;
        let nm1_imm = ppa.int_constant(n as i64 - 1)?;
        let diag = ppa.int_eq(&row, &col)?; // ROW == COL
        let last_col = ppa.int_eq(&col, &nm1_imm)?; // COL == n - 1
        Ok(Prepared {
            n,
            maxint,
            row,
            col,
            diag,
            last_col,
            w,
        })
    }

    /// The destination registers for the per-PE destination `d_imm`
    /// (one immediate, here or per lane, plus three ALU steps).
    pub(crate) fn dest_masks(&self, ppa: &mut Ppa<E>, d_imm: E::Int) -> Result<DestMasks<E>> {
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

    /// The destination registers for `d`.
    fn dest_masks_for(&self, ppa: &mut Ppa<E>, d: usize) -> Result<DestMasks<E>> {
        let n = self.n;
        if d >= n {
            return Err(McpError::DestinationOutOfRange { d, n });
        }
        let d_imm = ppa.int_constant(d as i64)?;
        self.dest_masks(ppa, d_imm)
    }

    /// One complete solve against the prepared registers. Step accounting
    /// starts here, so the shared prepare cost is amortized out of every
    /// per-destination report; only the four destination registers are
    /// rebuilt per call.
    pub(crate) fn solve(
        &self,
        ppa: &mut Ppa<E>,
        w: &WeightMatrix,
        d: usize,
        verify: bool,
    ) -> Result<McpOutput> {
        let start = ppa.steps();
        let observed = ppa.observing();
        if observed {
            ppa.enter_span("mcp");
        }
        ppa.set_phase(Some("setup"));
        let masks = self.dest_masks_for(ppa, d)?;
        self.run(ppa, &masks, w, d, start, observed, verify)
    }

    /// Statements 9-18: one pass of the do-while body up to the loop test,
    /// shared by the solo and the lane-batched solver. Returns the
    /// statement-17 mask `SOW != OLD_SOW`.
    pub(crate) fn relax(
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

        // ---- statements 9-13, under where (ROW != d) ----
        // 10: SOW = broadcast(SOW, SOUTH, ROW == d) + W
        //     (the bus transaction is global; the mask gates the write)
        ppa.set_phase(Some("stmt 10: broadcast+add"));
        let bsow = ppa.int_broadcast(sow, Direction::South, row_is_d)?;
        let sum = ppa.int_sat_add(&bsow, &self.w)?;
        ppa.where_mask(row_ne_d, |p| p.int_assign(sow, &sum))??;

        // 11: MIN_SOW = min(SOW, WEST, COL == n-1)
        ppa.set_phase(Some("stmt 11: min"));
        let rowmin = ppa.int_min(sow, Direction::West, &self.last_col)?;
        ppa.where_mask(row_ne_d, |p| p.int_assign(min_sow, &rowmin))??;

        // 12: PTN = selected_min(COL, WEST, COL == n-1, MIN_SOW == SOW)
        //     (+ fidelity repair: row d trivially selected so its bus
        //      cluster never floats; its result is masked away below). On a
        //      lane-batched machine `COL` is lane-local, so PTN values and
        //      tie-breaks match each lane's solo run.
        ppa.set_phase(Some("stmt 12: selected_min"));
        let is_argmin = ppa.int_eq(min_sow, sow)?;
        let sel = ppa.mask_or(&is_argmin, row_is_d)?;
        let argmin_col = ppa.int_selected_min(&self.col, Direction::West, &self.last_col, &sel)?;
        ppa.where_mask(row_ne_d, |p| p.int_assign(ptn, &argmin_col))??;

        // ---- statements 14-18, under where (ROW == d) ----
        ppa.set_phase(Some("stmts 14-18: fold into row d"));
        let bc_min = ppa.int_broadcast(min_sow, Direction::South, &self.diag)?; // 16 (read)
        let bc_ptn = ppa.int_broadcast(ptn, Direction::South, &self.diag)?; // 18 (read)
        let changed = ppa.where_mask(row_is_d, |p| -> ppa_ppc::Result<E::Mask> {
            p.int_assign(old_sow, sow)?; // 15
            p.int_assign(sow, &bc_min)?; // 16 (write)
            let changed = p.int_ne(sow, old_sow)?; // 17 condition
            p.where_mask(&changed, |q| q.int_assign(ptn, &bc_ptn))??; // 17-18
            Ok(changed)
        })??;
        Ok(changed)
    }

    /// Statements 3-20 plus readout and (optionally) verification,
    /// assuming the caller has already entered the `mcp` span (when
    /// observed) and set the `setup` phase.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        ppa: &mut Ppa<E>,
        masks: &DestMasks<E>,
        w: &WeightMatrix,
        d: usize,
        start: StepReport,
        observed: bool,
        verify: bool,
    ) -> Result<McpOutput> {
        let n = self.n;
        let mut regs = LoopRegs::declare(ppa, self.maxint)?;

        // --- Step 1: statements 4-7 -------------------------------------------
        ppa.set_phase(Some("step 1 (stmts 4-7)"));
        // Statement 5 reads `SOW = W`, but the prose demands
        // `SOW[d][i] = w_id` — the weight of the edge *from i to d*, which in
        // the standard layout lives in W's d-th *column*, not its d-th row
        // (fidelity note 3 in DESIGN.md). The intended initialization is
        // realized with two O(1) bus steps: spread column d across each row,
        // then fold the diagonal down into row d.
        let in_weights = ppa.int_broadcast(&self.w, Direction::East, &masks.col_is_d)?; // [i][*] = w_id
        let in_weights_t = ppa.int_broadcast(&in_weights, Direction::South, &self.diag)?; // [*][i] = w_id
        regs.init(ppa, masks, &in_weights_t)?;

        // The counters are monotonic within the run, so the subtraction cannot
        // fail; `checked_since` keeps the stats path panic-free regardless.
        let init_report = ppa.steps().checked_since(&start).unwrap_or_default();

        // --- Step 2: the do-while loop, statements 8-20 ------------------------
        let mut per_iteration: Vec<StepReport> = Vec::new();
        let mut iterations = 0usize;
        // Invariant 1 state: the row-d cost snapshot of the previous pass
        // (host-side read of the bit-planes; never touches the array).
        let mut prev_row_d: Option<Vec<i64>> = verify.then(|| ppa.read_row(&regs.sow, d, 0..n));
        loop {
            let iter_start = ppa.steps();
            if observed {
                ppa.enter_span(&format!("iteration[{iterations}]"));
            }
            iterations += 1;

            let changed = self.relax(ppa, masks, &mut regs)?;

            per_iteration.push(ppa.steps().checked_since(&iter_start).unwrap_or_default());

            // ---- invariant 1: row-d costs never increase ----
            if let Some(prev) = prev_row_d.as_mut() {
                let now = ppa.read_row(&regs.sow, d, 0..n);
                if now.iter().zip(prev.iter()).any(|(new, old)| new > old) {
                    ppa.set_phase(None);
                    if observed {
                        ppa.exit_span(); // iteration[i]
                        ppa.exit_span(); // mcp
                    }
                    return Err(McpError::InvariantViolation {
                        invariant: "a row-d cost increased across an iteration",
                    });
                }
                *prev = now;
            }

            // ---- statement 20: while at least one SOW in row d has changed ----
            ppa.set_phase(Some("stmt 20: loop test"));
            let changed_in_row_d = ppa.mask_and(&changed, &masks.row_is_d)?;
            let keep_going = ppa.mask_any(&changed_in_row_d)?;
            if observed {
                ppa.exit_span(); // iteration[i] (includes the loop test)
            }
            if !keep_going {
                break;
            }
            if iterations > n {
                return Err(McpError::NoConvergence { rounds: iterations });
            }
        }

        ppa.set_phase(None);
        if observed {
            ppa.exit_span(); // mcp
        }
        if let Some(m) = ppa.metrics_mut() {
            for r in &per_iteration {
                m.observe("mcp.steps_per_iteration", r.total());
            }
            m.inc("mcp.iterations", iterations as u64);
        }

        // --- read out row d -----------------------------------------------------
        let (sow, ptn) = read_out(
            w,
            d,
            self.maxint,
            &ppa.read_row(&regs.sow, d, 0..n),
            &ppa.read_row(&regs.ptn, d, 0..n),
            verify,
        )?;
        let total = ppa.steps().checked_since(&start).unwrap_or_default();
        Ok(McpOutput {
            dest: d,
            sow,
            ptn,
            iterations,
            stats: McpStats {
                init: init_report,
                per_iteration,
                total,
            },
        })
    }
}

/// The preloaded `W` value of PE `(r, c)`: `w_rc` with absent edges as
/// `MAXINT` and the diagonal as 0.
pub(crate) fn loaded_weight(w: &WeightMatrix, maxint: i64, r: usize, c: usize) -> i64 {
    match w.get(r, c) {
        _ if r == c => 0,
        INF => maxint,
        x => x,
    }
}

/// Converts row `d` of the final `SOW`/`PTN` registers into the output
/// vectors and, when `verify` is set, checks invariants 2 and 3 of
/// [`minimum_cost_path_verified`] host-side.
pub(crate) fn read_out(
    w: &WeightMatrix,
    d: usize,
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
            out_sow.push(0);
            out_ptn.push(d);
        } else if cost >= maxint {
            out_sow.push(INF);
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

fn mcp_run<E: Executor>(
    ppa: &mut Ppa<E>,
    w: &WeightMatrix,
    d: usize,
    verify: bool,
) -> Result<McpOutput> {
    // Keep the historical guard order of the one-shot entry point: size,
    // destination range, word width — all before any observation starts.
    let n = w.n();
    let dim = ppa.dim();
    if dim.rows != n || dim.cols != n {
        return Err(McpError::SizeMismatch {
            n,
            rows: dim.rows,
            cols: dim.cols,
        });
    }
    if d >= n {
        return Err(McpError::DestinationOutOfRange { d, n });
    }
    let required = fit_word_bits(w);
    if ppa.word_bits() < required {
        return Err(McpError::WordWidthTooSmall {
            required,
            actual: ppa.word_bits(),
        });
    }

    let start = ppa.steps();
    // When a sink or metrics registry is attached, the run is wrapped in a
    // `mcp` span with one `iteration[i]` child per do-while pass; the
    // `set_phase` labels below become the statement-level frames inside.
    let observed = ppa.observing();
    if observed {
        ppa.enter_span("mcp");
    }
    ppa.set_phase(Some("setup"));
    let prep = Prepared::build(ppa, w)?;
    let masks = prep.dest_masks_for(ppa, d)?;
    prep.run(ppa, &masks, w, d, start, observed, verify)
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
