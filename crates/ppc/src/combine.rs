//! Bus combination routines: the paper's bit-serial `min`/`selected_min`.
//!
//! Section 3 of the paper gives the `min()` routine verbatim: the values of
//! a parallel `h`-bit integer are compared *simultaneously, bit by bit,
//! starting from the most significant position*; at each bit position, if
//! at least one still-enabled candidate has a `0` there (detected with a
//! cluster-wide wired-OR), every candidate showing a `1` is knocked out.
//! After the scan the surviving candidates hold the cluster minimum; the
//! value is forwarded to the cluster head (a broadcast *against* the
//! orientation with the survivors driving) and finally broadcast to the
//! whole cluster. Each of the `h` loop iterations issues a constant number
//! of controller steps, so the routine is `O(h)` — the term that makes the
//! whole MCP algorithm `O(p * h)`.
//!
//! `selected_min()` is identical except that the initial candidate set is
//! given by a fourth parallel-logical argument instead of being all nodes
//! (the paper presents only `min()` and notes the other "is similar").
//! [`Ppa::max`]/[`Ppa::selected_max`] are the order duals. The scan is
//! written once, on registers ([`Ppa::int_min`] and its three siblings,
//! where bit `j` is bit-plane `j`); the `Parallel<i64>` entry points load,
//! scan and read. A word-parallel
//! [`Ppa::min_word`] — a hypothetical single-step combining bus — is
//! provided purely as the ablation A2 comparator.

use crate::error::PpcError;
use crate::ppa::{Parallel, Ppa};
use crate::Result;
use ppa_machine::{bus, Direction, Executor, Op, Plane};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Extreme {
    Min,
    Max,
}

impl<E: Executor> Ppa<E> {
    /// The paper's `min(src, orientation, L)`: every PE receives the
    /// minimum of `src` over the bus cluster it belongs to (clusters
    /// defined by the Open mask `l` for movement direction `dir`).
    ///
    /// Costs `O(h)` controller steps (`4h + 4` exactly, measured by the
    /// step-count tests). Values must fit the `h`-bit unsigned word. This
    /// plane entry point loads `src` into a register, runs [`Ppa::int_min`]
    /// and reads the result back; the load and the read are host I/O.
    pub fn min(
        &mut self,
        src: &Parallel<i64>,
        dir: Direction,
        l: &Parallel<bool>,
    ) -> Result<Parallel<i64>> {
        self.plane_extreme(src, dir, l, None, Extreme::Min)
    }

    /// The paper's `selected_min(src, orientation, L, sel)`: the minimum of
    /// `src` over the *selected* nodes (`sel` true) of each cluster.
    ///
    /// # Errors
    /// [`PpcError::EmptySelection`] if some cluster selects no node (its
    /// sub-bus would float; the paper's uses always select the argmin).
    pub fn selected_min(
        &mut self,
        src: &Parallel<i64>,
        dir: Direction,
        l: &Parallel<bool>,
        sel: &Parallel<bool>,
    ) -> Result<Parallel<i64>> {
        self.plane_extreme(src, dir, l, Some(sel), Extreme::Min)
    }

    /// Order dual of [`Ppa::min`]: cluster-wide maximum in `O(h)` steps.
    pub fn max(
        &mut self,
        src: &Parallel<i64>,
        dir: Direction,
        l: &Parallel<bool>,
    ) -> Result<Parallel<i64>> {
        self.plane_extreme(src, dir, l, None, Extreme::Max)
    }

    /// Order dual of [`Ppa::selected_min`].
    pub fn selected_max(
        &mut self,
        src: &Parallel<i64>,
        dir: Direction,
        l: &Parallel<bool>,
        sel: &Parallel<bool>,
    ) -> Result<Parallel<i64>> {
        self.plane_extreme(src, dir, l, Some(sel), Extreme::Max)
    }

    /// [`Ppa::min`] on a register, with the switch pattern held as a mask
    /// register.
    pub fn int_min(&mut self, src: &E::Int, dir: Direction, l: &E::Mask) -> Result<E::Int> {
        self.bitserial_extreme(src, dir, l, None, Extreme::Min)
    }

    /// [`Ppa::selected_min`] on registers.
    ///
    /// # Errors
    /// [`PpcError::EmptySelection`] if some cluster selects no node.
    pub fn int_selected_min(
        &mut self,
        src: &E::Int,
        dir: Direction,
        l: &E::Mask,
        sel: &E::Mask,
    ) -> Result<E::Int> {
        self.bitserial_extreme(src, dir, l, Some(sel), Extreme::Min)
    }

    /// [`Ppa::max`] on a register.
    pub fn int_max(&mut self, src: &E::Int, dir: Direction, l: &E::Mask) -> Result<E::Int> {
        self.bitserial_extreme(src, dir, l, None, Extreme::Max)
    }

    /// [`Ppa::selected_max`] on registers.
    ///
    /// # Errors
    /// [`PpcError::EmptySelection`] if some cluster selects no node.
    pub fn int_selected_max(
        &mut self,
        src: &E::Int,
        dir: Direction,
        l: &E::Mask,
        sel: &E::Mask,
    ) -> Result<E::Int> {
        self.bitserial_extreme(src, dir, l, Some(sel), Extreme::Max)
    }

    /// The plane entry points: load, scan, read.
    fn plane_extreme(
        &mut self,
        src: &Parallel<i64>,
        dir: Direction,
        l: &Parallel<bool>,
        sel: Option<&Parallel<bool>>,
        which: Extreme,
    ) -> Result<Parallel<i64>> {
        let src = self.load(src)?;
        let sel = sel.map(|s| self.machine_mut().pack_mask(s)).transpose()?;
        let l = self.machine_mut().pack_mask(l)?;
        let out = self.bitserial_extreme(&src, dir, &l, sel.as_ref(), which)?;
        Ok(self.read(&out))
    }

    /// The one bit-serial scan behind all eight entry points.
    fn bitserial_extreme(
        &mut self,
        src: &E::Int,
        dir: Direction,
        l: &E::Mask,
        sel: Option<&E::Mask>,
        which: Extreme,
    ) -> Result<E::Int> {
        // Guardrail (uncosted): every cluster must select at least one node,
        // otherwise statements 11-12 would leak a value across clusters.
        if let Some(s) = sel {
            if !self.machine_mut().clusters_covered(s, dir, l)? {
                return Err(PpcError::EmptySelection);
            }
        }

        // Span bookkeeping (free when unobserved): the routine and each
        // bit of the scan become nested spans, so a trace shows e.g.
        // `... > selected_min > bit[7]`.
        let observed = self.observing();
        if observed {
            let name = match (which, sel.is_some()) {
                (Extreme::Min, false) => "min",
                (Extreme::Min, true) => "selected_min",
                (Extreme::Max, false) => "max",
                (Extreme::Max, true) => "selected_max",
            };
            self.enter_span(name);
        }

        // `keep_low` selects the Min voting/knockout rules in the backend.
        let keep_low = which == Extreme::Min;

        // Statement 7: `parallel logical enable = 1;` (or the selection).
        let mut enable = match sel {
            None => self.machine_mut().mask_imm(true),
            Some(s) => self.machine_mut().mask_copy(s)?,
        };

        // Statements 8-10: the most-significant-first bit scan. Bit `j` of
        // a register is its bit-plane `j`: nothing is sliced here.
        let h = self.word_bits();
        for j in (0..h).rev() {
            if observed {
                self.enter_span(&format!("bit[{j}]"));
            }
            let bitj = self.machine_mut().int_bit(src, j)?;
            // A candidate "votes" if it is enabled and could win this bit:
            // for min, a 0 at position j beats any 1; for max, vice versa.
            let votes = self.machine_mut().mask_vote(&enable, &bitj, keep_low);
            let present = self.machine_mut().mask_bus_or(&votes, dir, l)?;
            // Statements 9-10: knock out every candidate beaten at bit j.
            enable = self
                .machine_mut()
                .mask_knockout(&enable, &present, &bitj, keep_low);
            if observed {
                self.exit_span();
            }
        }

        // Statements 11-12: survivors drive the bus *against* the
        // orientation so the cluster heads (the L nodes) latch the value.
        if observed {
            self.enter_span("resolve");
        }
        let to_head = self
            .machine_mut()
            .int_broadcast(src, dir.opposite(), &enable)?;
        let mut staged = src.clone();
        self.machine_mut()
            .int_assign(&mut staged, &to_head, Some(l))?;

        // Statement 13: the heads re-broadcast to their whole cluster.
        let out = self
            .machine_mut()
            .int_broadcast(&staged, dir, l)
            .map_err(PpcError::from);
        if observed {
            self.exit_span(); // resolve
            self.exit_span(); // the routine span
        }
        out
    }

    /// Hypothetical *word-parallel* cluster minimum: a single-step
    /// combining bus that compares full `h`-bit words at once. Not
    /// realizable on the PPA's bit-serial buses — provided only as the
    /// ablation A2 comparator quantifying what the `O(h)` bit scan costs.
    /// Counts one `bus-or` step (the combine) plus one broadcast.
    pub fn min_word(
        &mut self,
        src: &Parallel<i64>,
        dir: Direction,
        l: &Parallel<bool>,
    ) -> Result<Parallel<i64>> {
        let machine = self.machine();
        let dim = machine.dim();
        let heads = bus::cluster_heads(dim, dir, l).map_err(|lines| {
            PpcError::from(ppa_machine::MachineError::BusFault {
                axis: dir.axis(),
                lines,
            })
        })?;
        // One combining pass over each sub-bus...
        self.machine_mut().record_step(Op::BusOr);
        let mut best: Vec<i64> = vec![i64::MAX; dim.len()];
        for (i, &hd) in heads.iter().enumerate() {
            best[hd] = best[hd].min(src.as_slice()[i]);
        }
        // ...and one distribution step.
        self.machine_mut().record_step(Op::Broadcast);
        let out = Plane::from_fn(dim, |c| best[heads[dim.index(c)]]);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whole-row clusters, heads at the last column, movement West —
    /// the configuration of MCP statement 11.
    fn row_heads(ppa: &mut Ppa) -> Parallel<bool> {
        let n = ppa.n().unwrap();
        Parallel::from_fn(ppa.dim(), move |c| c.col == n - 1)
    }

    #[test]
    fn min_matches_reference_per_row() {
        let mut ppa = Ppa::square(5).with_word_bits(10);
        let v = Parallel::from_fn(ppa.dim(), |c| ((c.row * 131 + c.col * 37) % 900) as i64);
        let l = row_heads(&mut ppa);
        let m = ppa.min(&v, Direction::West, &l).unwrap();
        for r in 0..5 {
            let expect = *v.row(r).iter().min().unwrap();
            assert!(m.row(r).iter().all(|&x| x == expect), "row {r}");
        }
    }

    #[test]
    fn min_respects_cluster_boundaries() {
        let mut ppa = Ppa::square(4).with_word_bits(8);
        let v = Parallel::from_fn(ppa.dim(), |c| (c.col + 1) as i64 * 10 + c.row as i64);
        // Two clusters per row: heads at cols 0 and 2, movement East.
        let l = Parallel::from_fn(ppa.dim(), |c| c.col == 0 || c.col == 2);
        let m = ppa.min(&v, Direction::East, &l).unwrap();
        for r in 0..4 {
            let left = (10 + r as i64).min(20 + r as i64);
            let right = (30 + r as i64).min(40 + r as i64);
            assert_eq!(m.row(r), &[left, left, right, right]);
        }
    }

    #[test]
    fn min_cost_is_linear_in_h() {
        for h in [4u32, 8, 16] {
            let mut ppa = Ppa::square(4).with_word_bits(h);
            let v = Parallel::filled(ppa.dim(), 3i64);
            let l = row_heads(&mut ppa);
            ppa.reset_steps();
            let _ = ppa.min(&v, Direction::West, &l).unwrap();
            let total = ppa.steps().total();
            assert_eq!(total, 4 * h as u64 + 4, "h={h}");
        }
    }

    #[test]
    fn min_cost_is_independent_of_n() {
        let mut baseline = None;
        for n in [4usize, 8, 16] {
            let mut ppa = Ppa::square(n).with_word_bits(8);
            let v = Parallel::from_fn(ppa.dim(), |c| (c.col % 5) as i64);
            let l = row_heads(&mut ppa);
            ppa.reset_steps();
            let _ = ppa.min(&v, Direction::West, &l).unwrap();
            let total = ppa.steps().total();
            match baseline {
                None => baseline = Some(total),
                Some(b) => assert_eq!(total, b, "n={n}"),
            }
        }
    }

    #[test]
    fn selected_min_ignores_unselected() {
        let mut ppa = Ppa::square(4).with_word_bits(8);
        let v = Parallel::from_fn(ppa.dim(), |c| c.col as i64); // 0,1,2,3 per row
        let l = row_heads(&mut ppa);
        // Exclude the global minimum (col 0) from the selection.
        let sel = Parallel::from_fn(ppa.dim(), |c| c.col >= 2);
        let m = ppa.selected_min(&v, Direction::West, &l, &sel).unwrap();
        assert!(m.iter().all(|&x| x == 2));
    }

    #[test]
    fn selected_min_empty_selection_rejected() {
        let mut ppa = Ppa::square(3).with_word_bits(8);
        let v = Parallel::filled(ppa.dim(), 1i64);
        let l = row_heads(&mut ppa);
        let sel = Parallel::from_fn(ppa.dim(), |c| c.row != 1); // row 1 empty
        assert_eq!(
            ppa.selected_min(&v, Direction::West, &l, &sel),
            Err(PpcError::EmptySelection)
        );
    }

    #[test]
    fn max_is_order_dual() {
        let mut ppa = Ppa::square(5).with_word_bits(10);
        let v = Parallel::from_fn(ppa.dim(), |c| ((c.row * 53 + c.col * 17) % 700) as i64);
        let l = row_heads(&mut ppa);
        let m = ppa.max(&v, Direction::West, &l).unwrap();
        for r in 0..5 {
            let expect = *v.row(r).iter().max().unwrap();
            assert!(m.row(r).iter().all(|&x| x == expect), "row {r}");
        }
    }

    #[test]
    fn selected_max_matches_reference() {
        let mut ppa = Ppa::square(4).with_word_bits(8);
        let v = Parallel::from_fn(ppa.dim(), |c| c.col as i64 * 3);
        let l = row_heads(&mut ppa);
        let sel = Parallel::from_fn(ppa.dim(), |c| c.col <= 1);
        let m = ppa.selected_max(&v, Direction::West, &l, &sel).unwrap();
        assert!(m.iter().all(|&x| x == 3));
    }

    #[test]
    fn column_direction_min_works() {
        let mut ppa = Ppa::square(4).with_word_bits(8);
        let v = Parallel::from_fn(ppa.dim(), |c| ((c.row * 7 + c.col * 11) % 100) as i64);
        // Column clusters headed at row 0, data moving South.
        let l = Parallel::from_fn(ppa.dim(), |c| c.row == 0);
        let m = ppa.min(&v, Direction::South, &l).unwrap();
        for col in 0..4 {
            let expect = v.col(col).into_iter().min().unwrap();
            assert!(m.col(col).into_iter().all(|x| x == expect), "col {col}");
        }
    }

    #[test]
    fn out_of_range_values_rejected() {
        let mut ppa = Ppa::square(2).with_word_bits(4);
        let v = Parallel::filled(ppa.dim(), 16i64);
        let l = row_heads(&mut ppa);
        assert!(matches!(
            ppa.min(&v, Direction::West, &l),
            Err(PpcError::ValueOutOfRange(16))
        ));
    }

    #[test]
    fn maxint_values_participate() {
        let mut ppa = Ppa::square(3).with_word_bits(8);
        let inf = ppa.maxint();
        let v = Parallel::from_fn(ppa.dim(), |c| if c.col == 1 { 7 } else { inf });
        let l = row_heads(&mut ppa);
        let m = ppa.min(&v, Direction::West, &l).unwrap();
        assert!(m.iter().all(|&x| x == 7));
        // All-infinite rows stay infinite.
        let v = Parallel::filled(ppa.dim(), inf);
        let m = ppa.min(&v, Direction::West, &l).unwrap();
        assert!(m.iter().all(|&x| x == inf));
    }

    #[test]
    fn min_word_ablation_matches_min_value() {
        let mut ppa = Ppa::square(6).with_word_bits(12);
        let v = Parallel::from_fn(ppa.dim(), |c| ((c.row * 997 + c.col * 61) % 4000) as i64);
        let l = row_heads(&mut ppa);
        let bitser = ppa.min(&v, Direction::West, &l).unwrap();
        ppa.reset_steps();
        let word = ppa.min_word(&v, Direction::West, &l).unwrap();
        assert_eq!(bitser, word);
        // The ablation costs O(1) steps, independent of h.
        assert_eq!(ppa.steps().total(), 2);
    }

    #[test]
    fn ties_are_resolved_consistently() {
        let mut ppa = Ppa::square(3).with_word_bits(8);
        let v = Parallel::filled(ppa.dim(), 5i64);
        let l = row_heads(&mut ppa);
        let m = ppa.min(&v, Direction::West, &l).unwrap();
        assert!(m.iter().all(|&x| x == 5));
    }
}
