//! The PPC virtual machine: parallel variables, activity masks and the
//! `where`/`elsewhere` control structure.

use crate::error::PpcError;
use crate::Result;
use ppa_machine::{
    Dim, Direction, ExecStats, Executor, Machine, OccupancySampling, PackedBackend, Plane,
    ScalarBackend, StepReport,
};
use std::ops::Range;

/// A PPC `parallel` variable: one value per PE.
///
/// This is exactly a machine register [`Plane`]; the alias documents the
/// PPC memorization class (`parallel int X;` becomes
/// `let mut x: Parallel<i64> = ...`). Scalar PPC variables are ordinary
/// Rust values held "in the controller".
pub type Parallel<T> = Plane<T>;

/// The PPC runtime: a PPA machine plus the SIMD activity-mask stack that
/// implements `where`/`elsewhere`.
///
/// All computation methods (in [`ops`](crate::ops)) execute on **all** PEs —
/// SIMD hardware cannot skip an instruction per PE — while the *assignment*
/// methods ([`Ppa::assign`], [`Ppa::assign_imm`]) write only to the PEs
/// active under the current mask, matching the semantics of the paper's
/// `where (expression) <group1>; elsewhere <group2>;` construct.
#[derive(Debug, Clone)]
pub struct Ppa<E: Executor = ScalarBackend> {
    machine: Machine<E>,
    /// Stack of effective (pre-ANDed) activity masks; empty = all active.
    masks: Vec<E::Mask>,
    word_bits: u32,
}

/// Default integer width `h`: wide enough for every workload in the
/// experiment suite while keeping the bit-serial routines honest.
pub const DEFAULT_WORD_BITS: u32 = 16;

impl Ppa<ScalarBackend> {
    /// Creates a square `n x n` PPC runtime with the default word width.
    pub fn square(n: usize) -> Self {
        Ppa::from_machine(Machine::square(n))
    }
}

impl Ppa<PackedBackend> {
    /// Creates a square `n x n` runtime on the packed bit-plane backend.
    pub fn packed(n: usize) -> Self {
        Ppa::from_machine(Machine::packed_square(n))
    }
}

impl<E: Executor> Ppa<E> {
    /// Creates a square `n x n` runtime on an explicit execution backend.
    pub fn with_backend(n: usize, exec: E) -> Self {
        Ppa::from_machine(Machine::with_backend(Dim::square(n), exec))
    }

    /// Creates a runtime on an explicit machine.
    pub fn from_machine(machine: Machine<E>) -> Self {
        Ppa {
            machine,
            masks: Vec::new(),
            word_bits: DEFAULT_WORD_BITS,
        }
    }

    /// Sets the machine integer width `h` (bits scanned by `min`).
    ///
    /// # Panics
    /// Panics unless `1 <= h <= 62` (values must stay representable as
    /// non-negative `i64`).
    pub fn with_word_bits(mut self, h: u32) -> Self {
        assert!((1..=62).contains(&h), "word width must be in 1..=62");
        self.word_bits = h;
        self
    }

    /// The machine integer width `h`.
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// The largest representable value, `2^h - 1`. The paper uses this as
    /// `MAXINT`, the "infinite" weight marking absent edges; the saturating
    /// adder ([`Ppa::sat_add`](crate::ops)) keeps it absorbing.
    pub fn maxint(&self) -> i64 {
        (1i64 << self.word_bits) - 1
    }

    /// Array dimensions.
    pub fn dim(&self) -> Dim {
        self.machine.dim()
    }

    /// Side length, for square machines.
    ///
    /// # Errors
    /// [`PpcError::NotSquare`] on rectangular machines.
    pub fn n(&self) -> Result<usize> {
        let d = self.dim();
        if d.is_square() {
            Ok(d.rows)
        } else {
            Err(PpcError::NotSquare {
                rows: d.rows,
                cols: d.cols,
            })
        }
    }

    /// Borrow the underlying machine.
    pub fn machine(&self) -> &Machine<E> {
        &self.machine
    }

    /// Mutably borrow the underlying machine (advanced use: tracing,
    /// issuing raw instructions).
    pub fn machine_mut(&mut self) -> &mut Machine<E> {
        &mut self.machine
    }

    /// The execution backend's resource counters (plan-cache hits, arena
    /// recycling; all zero on the scalar backend).
    pub fn exec_stats(&self) -> ExecStats {
        self.machine.exec_stats()
    }

    /// Sets how often observed instructions compute activity statistics
    /// (mask occupancy / bus clusters). Step counters are unaffected.
    pub fn set_occupancy_sampling(&mut self, sampling: OccupancySampling) {
        self.machine
            .controller_mut()
            .set_occupancy_sampling(sampling);
    }

    /// Snapshot of the controller's step tallies.
    pub fn steps(&self) -> StepReport {
        self.machine.controller().report()
    }

    /// Zeroes the step counters.
    pub fn reset_steps(&mut self) {
        self.machine.reset_steps();
    }

    /// Grants the program a cooperative step budget (see
    /// [`Machine::limit_steps`]): once spent, machine primitives fail with
    /// [`MachineError::StepBudgetExhausted`](ppa_machine::MachineError::StepBudgetExhausted)
    /// instead of issuing, and the error surfaces through
    /// [`PpcError::Machine`](crate::PpcError::Machine).
    pub fn limit_steps(&mut self, budget: u64) {
        self.machine.limit_steps(budget);
    }

    /// Removes the step limit installed by [`Ppa::limit_steps`].
    pub fn clear_step_limit(&mut self) {
        self.machine.clear_step_limit();
    }

    /// Steps left before the budget brake engages (`None` when unlimited).
    pub fn steps_remaining(&self) -> Option<u64> {
        self.machine.steps_remaining()
    }

    /// Attaches a cooperative cancellation token (see
    /// [`Machine::attach_cancel`]).
    pub fn attach_cancel(&mut self, token: ppa_machine::CancelToken) {
        self.machine.attach_cancel(token);
    }

    /// Detaches the cancellation token, returning it if one was attached.
    pub fn take_cancel(&mut self) -> Option<ppa_machine::CancelToken> {
        self.machine.take_cancel()
    }

    /// Enables instruction tracing on the controller.
    pub fn enable_trace(&mut self) {
        self.machine.controller_mut().enable_trace();
    }

    /// Stops tracing and returns the collected trace.
    pub fn take_trace(&mut self) -> Vec<ppa_machine::controller::TraceEntry> {
        self.machine.controller_mut().take_trace()
    }

    /// Labels subsequent instructions with `phase` (trace-only, free).
    pub fn set_phase(&mut self, phase: Option<&'static str>) {
        self.machine.controller_mut().set_phase(phase);
    }

    // ----- observability ----------------------------------------------------

    /// Installs a trace sink on the controller: spans, phase labels and
    /// per-instruction events (with occupancy/cluster statistics) flow to
    /// it, timestamped in controller steps.
    pub fn install_sink(&mut self, sink: impl ppa_obs::TraceSink + 'static) {
        self.machine.controller_mut().install_sink(sink);
    }

    /// Removes the sink, closing any spans still open.
    pub fn take_sink(&mut self) -> Option<Box<dyn ppa_obs::TraceSink>> {
        self.machine.controller_mut().take_sink()
    }

    /// Starts collecting metrics (per-class step counters, bus and mask
    /// activity).
    pub fn enable_metrics(&mut self) {
        self.machine.controller_mut().enable_metrics();
    }

    /// Stops collecting and returns the metrics gathered so far.
    pub fn take_metrics(&mut self) -> ppa_obs::Metrics {
        self.machine.controller_mut().take_metrics()
    }

    /// The live metrics registry, if collecting (algorithms use this to
    /// record their own histograms, e.g. steps per iteration).
    pub fn metrics_mut(&mut self) -> Option<&mut ppa_obs::Metrics> {
        self.machine.controller_mut().metrics_mut()
    }

    /// Starts attributing host wall-clock to instruction classes (see
    /// `Machine::enable_micro_profile`): every costed primitive buckets
    /// its execution time under its step class, keyed by backend name.
    pub fn enable_micro_profile(&mut self) {
        self.machine.enable_micro_profile();
    }

    /// Stops micro-op profiling and returns the profile; when metrics
    /// are also collecting, the tallies are folded into the registry as
    /// `exec.<backend>.<class>.ns` / `.count` counters first.
    pub fn take_micro_profile(&mut self) -> ppa_obs::MicroProfile {
        self.machine.take_micro_profile()
    }

    /// Opens a named span (`"mcp"`, `"iteration[3]"`, ...) at the current
    /// step. Free when no sink is installed.
    pub fn enter_span(&mut self, name: &str) {
        self.machine.controller_mut().enter_span(name);
    }

    /// Closes the innermost named span.
    pub fn exit_span(&mut self) {
        self.machine.controller_mut().exit_span();
    }

    /// Whether any observer (sink or metrics) is attached. Routines use
    /// this to skip building span names on unobserved hot paths.
    pub fn observing(&self) -> bool {
        self.machine.controller().observing()
    }

    // ----- activity masks ---------------------------------------------------

    /// The effective activity mask (`None` when all PEs are active).
    pub fn current_mask(&self) -> Option<&E::Mask> {
        self.masks.last()
    }

    /// Executes `body` with the PEs satisfying `cond` active — the PPC
    /// `where (cond) { body }` construct. Nested `where`s intersect.
    /// Entering the scope costs one controller step (the activity-bit
    /// write); leaving is free (the previous mask is restored from the
    /// controller's stack).
    pub fn where_<R>(
        &mut self,
        cond: &Parallel<bool>,
        body: impl FnOnce(&mut Ppa<E>) -> R,
    ) -> Result<R> {
        let cond = self.machine.pack_mask(cond)?;
        self.where_mask(&cond, body)
    }

    /// [`Ppa::where_`] with the condition held as a mask register.
    pub fn where_mask<R>(
        &mut self,
        cond: &E::Mask,
        body: impl FnOnce(&mut Ppa<E>) -> R,
    ) -> Result<R> {
        self.push_mask(cond)?;
        let r = body(self);
        self.masks.pop();
        Ok(r)
    }

    /// The full `where (cond) { then } elsewhere { other }` construct:
    /// `then` runs with the satisfying PEs active, `other` with the
    /// complementary set (still intersected with any enclosing mask).
    pub fn where_else<R, S>(
        &mut self,
        cond: &Parallel<bool>,
        then_body: impl FnOnce(&mut Ppa<E>) -> R,
        else_body: impl FnOnce(&mut Ppa<E>) -> S,
    ) -> Result<(R, S)> {
        let cond = self.machine.pack_mask(cond)?;
        let r = self.where_mask(&cond, then_body)?;
        let ncond = self.machine.mask_not(&cond)?;
        let s = self.where_mask(&ncond, else_body)?;
        Ok((r, s))
    }

    fn push_mask(&mut self, cond: &E::Mask) -> Result<()> {
        let effective = match self.masks.last() {
            None => {
                self.machine.record_step(ppa_machine::Op::Alu);
                cond.clone()
            }
            Some(parent) => self.machine.mask_and(parent, cond)?,
        };
        self.masks.push(effective);
        Ok(())
    }

    // ----- masked assignment -----------------------------------------------

    /// Masked assignment `dst = src` under the current activity mask:
    /// one controller step. Inactive PEs keep their previous value.
    pub fn assign<T: Copy>(&mut self, dst: &mut Parallel<T>, src: &Parallel<T>) -> Result<()> {
        Ok(self.machine.assign_where(dst, src, self.masks.last())?)
    }

    /// Masked assignment of an immediate (`dst = k`): one controller step
    /// for the immediate load plus one for the masked write.
    pub fn assign_imm<T: Copy>(&mut self, dst: &mut Parallel<T>, value: T) -> Result<()> {
        let imm = self.machine.imm(value);
        self.assign(dst, &imm)
    }

    /// Masked register write `dst = src` under the current activity mask:
    /// one controller step. Inactive PEs keep their previous value.
    pub fn int_assign(&mut self, dst: &mut E::Int, src: &E::Int) -> Result<()> {
        Ok(self.machine.int_assign(dst, src, self.masks.last())?)
    }

    // ----- integer registers: the host I/O boundary -------------------------

    /// Loads a plane into an `h`-bit register (uncosted host I/O).
    ///
    /// # Errors
    /// [`PpcError::ValueOutOfRange`] naming the first value, in row-major
    /// order, outside `0..=MAXINT`; a plane of another shape is a
    /// [`MachineError::DimMismatch`](ppa_machine::MachineError).
    pub fn load(&mut self, src: &Parallel<i64>) -> Result<E::Int> {
        if src.dim() != self.dim() {
            return Err(PpcError::Machine(ppa_machine::MachineError::DimMismatch {
                expected: self.dim(),
                found: src.dim(),
            }));
        }
        self.check_representable(src)?;
        let (h, cols, values) = (self.word_bits, self.dim().cols, src.as_slice());
        Ok(self.machine.load_int(h, |r, c| values[r * cols + c]))
    }

    /// Loads `value(row, col)` into every PE of an `h`-bit register
    /// (uncosted host I/O) without staging a plane — how a weight matrix is
    /// sliced straight into bit-planes. The values are validated with the
    /// same OR-fold as [`Ppa::check_representable`], in the same pass.
    ///
    /// # Errors
    /// [`PpcError::ValueOutOfRange`] naming the first value, in row-major
    /// order, outside `0..=MAXINT`.
    pub fn load_with(&mut self, mut value: impl FnMut(usize, usize) -> i64) -> Result<E::Int> {
        let h = self.word_bits;
        let mut folded = 0u64;
        let reg = self.machine.load_int(h, |r, c| {
            let v = value(r, c);
            folded |= v as u64;
            v
        });
        if folded >> h != 0 {
            let (dim, max) = (self.dim(), self.maxint());
            let pes = (0..dim.rows).flat_map(|r| (0..dim.cols).map(move |c| (r, c)));
            if let Some(v) = pes.map(|(r, c)| value(r, c)).find(|&v| v < 0 || v > max) {
                return Err(PpcError::ValueOutOfRange(v));
            }
        }
        Ok(reg)
    }

    /// Reads a register back into a plane (uncosted host I/O).
    pub fn read(&self, reg: &E::Int) -> Parallel<i64> {
        self.machine.read_int(reg)
    }

    /// Reads columns `cols` of row `row` of a register (uncosted host
    /// I/O).
    pub fn read_row(&self, reg: &E::Int, row: usize, cols: Range<usize>) -> Vec<i64> {
        self.machine.read_int_row(reg, row, cols)
    }

    /// Whether any PE of row `row` in columns `cols` is set (uncosted host
    /// read of a mask register).
    pub fn mask_any_in(&self, mask: &E::Mask, row: usize, cols: Range<usize>) -> bool {
        self.machine.mask_any_in(mask, row, cols)
    }

    /// Fails with [`PpcError::ValueOutOfRange`] unless `v` fits the word.
    fn fits(&self, v: i64) -> Result<()> {
        if (0..=self.maxint()).contains(&v) {
            Ok(())
        } else {
            Err(PpcError::ValueOutOfRange(v))
        }
    }

    /// Broadcast of a controller scalar into every PE of an `h`-bit
    /// register (one step).
    ///
    /// # Errors
    /// [`PpcError::ValueOutOfRange`] if `value` does not fit the word.
    pub fn int_constant(&mut self, value: i64) -> Result<E::Int> {
        self.fits(value)?;
        Ok(self.machine.int_imm(value, self.word_bits))
    }

    /// Per-lane scalar broadcast into a register: lane `l` (columns
    /// `l*lane_cols .. (l+1)*lane_cols`) receives `values[l]` (one step).
    ///
    /// # Errors
    /// [`PpcError::ValueOutOfRange`] naming the first value that does not
    /// fit the word.
    pub fn int_lane_constant(&mut self, values: &[i64], lane_cols: usize) -> Result<E::Int> {
        for &v in values {
            self.fits(v)?;
        }
        Ok(self.machine.int_lane_imm(values, lane_cols, self.word_bits))
    }

    /// The `ROW` register (one step).
    ///
    /// # Errors
    /// [`PpcError::ValueOutOfRange`] if the last row index does not fit.
    pub fn int_row_index(&mut self) -> Result<E::Int> {
        self.fits(self.dim().rows as i64 - 1)?;
        Ok(self.machine.int_row_index(self.word_bits))
    }

    /// The per-lane `COL` register, `col % lane_cols` (one step);
    /// `lane_cols` equal to the column count is the plain `COL`.
    ///
    /// # Errors
    /// [`PpcError::ValueOutOfRange`] if the last lane column does not fit.
    pub fn int_col_index(&mut self, lane_cols: usize) -> Result<E::Int> {
        self.fits(lane_cols as i64 - 1)?;
        Ok(self.machine.int_col_index(lane_cols, self.word_bits))
    }

    /// The PPC `broadcast(src, dir, L)` primitive on a register, with the
    /// switch pattern held as a mask register (one step).
    pub fn int_broadcast(
        &mut self,
        src: &E::Int,
        dir: Direction,
        open: &E::Mask,
    ) -> Result<E::Int> {
        Ok(self.machine.int_broadcast(src, dir, open)?)
    }

    /// Controller-side global OR of a mask register (one step).
    pub fn mask_any(&mut self, flags: &E::Mask) -> Result<bool> {
        Ok(self.machine.mask_global_or(flags)?)
    }

    // ----- hardwired registers & immediates ---------------------------------

    /// The `ROW` register as a parallel value (one step).
    pub fn row_index(&mut self) -> Parallel<i64> {
        self.machine.row_index()
    }

    /// The `COL` register as a parallel value (one step).
    pub fn col_index(&mut self) -> Parallel<i64> {
        self.machine.col_index()
    }

    /// Broadcast of a controller scalar into every PE (one step).
    pub fn constant<T: Clone>(&mut self, value: T) -> Parallel<T> {
        self.machine.imm(value)
    }

    // ----- communication ----------------------------------------------------

    /// The PPC `shift(src, dir)` primitive (one step). Upstream-edge PEs
    /// receive `fill` (PPC leaves them implementation-defined; the
    /// algorithms in this suite never read them).
    pub fn shift<T: Copy>(
        &mut self,
        src: &Parallel<T>,
        dir: Direction,
        fill: T,
    ) -> Result<Parallel<T>> {
        Ok(self.machine.shift(src, dir, fill)?)
    }

    /// The PPC `broadcast(src, dir, L)` primitive (one step): `L` is the
    /// parallel logical variable whose `true` elements configure their
    /// switch boxes Open; every PE receives the value injected by the Open
    /// head of its bus cluster.
    pub fn broadcast<T: Copy>(
        &mut self,
        src: &Parallel<T>,
        dir: Direction,
        open: &Parallel<bool>,
    ) -> Result<Parallel<T>> {
        Ok(self.machine.broadcast(src, dir, open)?)
    }

    /// Cluster-wide wired-OR (one step): the `or(x, dir, L)` routine used
    /// inside the paper's `min` (statement 9 of the routine).
    pub fn bus_or(
        &mut self,
        values: &Parallel<bool>,
        dir: Direction,
        open: &Parallel<bool>,
    ) -> Result<Parallel<bool>> {
        Ok(self.machine.bus_or(values, dir, open)?)
    }

    /// Controller-side global OR (one step): `true` iff any PE raises
    /// `flags`. Used for data-dependent loop exits (MCP statement 20:
    /// "while at least one SOW in row d has changed").
    pub fn any(&mut self, flags: &Parallel<bool>) -> Result<bool> {
        Ok(self.machine.global_or(flags)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn where_masks_assignment() {
        let mut ppa = Ppa::square(3);
        let mut x = Parallel::filled(ppa.dim(), 0i64);
        let row = ppa.row_index();
        let one = ppa.constant(1i64);
        let cond = ppa.machine_mut().zip(&row, &one, |a, b| a == b).unwrap();
        ppa.where_(&cond, |p| {
            let nine = p.constant(9i64);
            p.assign(&mut x, &nine).unwrap();
        })
        .unwrap();
        assert_eq!(x.row(0), &[0, 0, 0]);
        assert_eq!(x.row(1), &[9, 9, 9]);
        assert_eq!(x.row(2), &[0, 0, 0]);
    }

    #[test]
    fn where_else_partitions() {
        let mut ppa = Ppa::square(2);
        let mut x = Parallel::filled(ppa.dim(), 0i64);
        let cond = Parallel::from_fn(ppa.dim(), |c| c.col == 0);
        // The two branches run sequentially; Rust's borrow rules want
        // disjoint captures, so branches that assign the *same* variable
        // stage into fresh planes and the caller merges afterwards (the
        // MCP implementation instead uses two successive `where_` scopes).
        let (a, b) = ppa
            .where_else(
                &cond,
                |p| {
                    let mut y = Parallel::filled(p.dim(), 0i64);
                    p.assign_imm(&mut y, 1).unwrap();
                    y
                },
                |p| {
                    let mut y = Parallel::filled(p.dim(), 0i64);
                    p.assign_imm(&mut y, 2).unwrap();
                    y
                },
            )
            .unwrap();
        let merged = ppa.add(&a, &b).unwrap();
        ppa.assign(&mut x, &merged).unwrap();
        assert_eq!(x.row(0), &[1, 2]);
        assert_eq!(x.row(1), &[1, 2]);
    }

    #[test]
    fn nested_where_intersects() {
        let mut ppa = Ppa::square(3);
        let mut x = Parallel::filled(ppa.dim(), 0i64);
        let rows = Parallel::from_fn(ppa.dim(), |c| c.row >= 1);
        let cols = Parallel::from_fn(ppa.dim(), |c| c.col >= 1);
        ppa.where_(&rows, |p| {
            p.where_(&cols, |q| q.assign_imm(&mut x, 5).unwrap())
                .unwrap();
        })
        .unwrap();
        let lit: usize = x.iter().filter(|&&v| v == 5).count();
        assert_eq!(lit, 4); // the 2x2 bottom-right block
        assert_eq!(*x.at(0, 0), 0);
        assert_eq!(*x.at(1, 0), 0);
        assert_eq!(*x.at(1, 1), 5);
    }

    #[test]
    fn mask_restored_after_scope() {
        let mut ppa = Ppa::square(2);
        let cond = Parallel::filled(ppa.dim(), false);
        ppa.where_(&cond, |_| {}).unwrap();
        assert!(ppa.current_mask().is_none());
        let mut x = Parallel::filled(ppa.dim(), 0i64);
        ppa.assign_imm(&mut x, 7).unwrap();
        assert!(x.iter().all(|&v| v == 7));
    }

    #[test]
    fn maxint_tracks_word_bits() {
        let ppa = Ppa::square(2).with_word_bits(8);
        assert_eq!(ppa.maxint(), 255);
        let ppa = Ppa::square(2).with_word_bits(16);
        assert_eq!(ppa.maxint(), 65_535);
    }

    #[test]
    #[should_panic(expected = "word width")]
    fn word_bits_bounds_enforced() {
        let _ = Ppa::square(2).with_word_bits(63);
    }

    #[test]
    fn n_requires_square() {
        let ppa = Ppa::from_machine(Machine::new(2, 3));
        assert!(matches!(ppa.n(), Err(PpcError::NotSquare { .. })));
        assert_eq!(Ppa::square(5).n().unwrap(), 5);
    }

    #[test]
    fn steps_accumulate_across_operations() {
        let mut ppa = Ppa::square(2);
        let before = ppa.steps().total();
        let x = ppa.constant(1i64);
        let open = ppa.constant(true);
        ppa.broadcast(&x, Direction::East, &open).unwrap();
        assert_eq!(ppa.steps().total(), before + 3);
    }
}
