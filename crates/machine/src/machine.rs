//! The assembled PPA machine: geometry + issue logic + controller.
//!
//! [`Machine`] exposes the *costed* instruction set: every method that
//! corresponds to one SIMD controller instruction issues exactly one
//! [`MicroOp`] — recording a step of the matching [`Op`] class, applying
//! the fault models to switch patterns, and feeding observers — before
//! delegating the per-PE mechanics to its [`Executor`] backend. Higher
//! layers (the PPC runtime, the algorithms) are written exclusively
//! against this interface, so the controller's tallies are a faithful
//! census of the simulated machine's time steps regardless of backend.

use crate::budget::CancelToken;
use crate::bus;
use crate::controller::{Controller, Op};
use crate::error::MachineError;
use crate::faults::{bist_sweep, FaultMap, FaultReport, SwitchFault, TransientFaults};
use crate::geometry::{Axis, Dim, Direction};
use crate::isa::{ExecStats, Executor, Fill, MicroOp, ScalarBackend};
use crate::plane::Plane;
use ppa_obs::MicroProfile;
use std::time::Instant;

/// A Polymorphic Processor Array instance, parameterized over its
/// execution backend (the scalar reference backend by default).
#[derive(Debug, Clone)]
pub struct Machine<E: Executor = ScalarBackend> {
    dim: Dim,
    controller: Controller,
    faults: FaultMap,
    transient: Option<TransientFaults>,
    step_cap: Option<u64>,
    budget_granted: u64,
    cancel: Option<CancelToken>,
    micro: Option<MicroProfile>,
    exec: E,
}

impl Machine<ScalarBackend> {
    /// Creates a `rows x cols` machine on the scalar reference backend.
    pub fn new(rows: usize, cols: usize) -> Self {
        Machine::with_backend(Dim::new(rows, cols), ScalarBackend)
    }

    /// Creates a square `n x n` machine (the shape used by all the graph
    /// algorithms: one PE per weight-matrix element).
    pub fn square(n: usize) -> Self {
        Machine::new(n, n)
    }
}

impl<E: Executor> Machine<E> {
    /// Creates a machine on an explicit execution backend.
    pub fn with_backend(dim: Dim, exec: E) -> Self {
        Machine {
            dim,
            controller: Controller::new(),
            faults: FaultMap::new(),
            transient: None,
            step_cap: None,
            budget_granted: 0,
            cancel: None,
            micro: None,
            exec,
        }
    }

    // ----- micro-op wall-clock attribution ---------------------------------

    /// Starts attributing host wall-clock to instruction classes: every
    /// costed primitive from now on times its execution mechanics (the
    /// work after the step is recorded) and buckets the nanoseconds under
    /// its controller [`Op`] class, keyed by the backend name
    /// ([`Executor::NAME`]). Each class's invocation count reconciles 1:1
    /// with the `steps.<class>` counters, since both are driven by the
    /// same issue choke point. No-op if already profiling.
    pub fn enable_micro_profile(&mut self) {
        if self.micro.is_none() {
            self.micro = Some(MicroProfile::new(E::NAME));
        }
    }

    /// Stops micro-op profiling and returns the profile gathered so far.
    /// When metrics are also being collected, the profile is folded into
    /// the registry as `exec.<backend>.<class>.ns` / `.count` counters,
    /// so one snapshot carries both step counts and time attribution.
    pub fn take_micro_profile(&mut self) -> MicroProfile {
        let p = self
            .micro
            .take()
            .unwrap_or_else(|| MicroProfile::new(E::NAME));
        if let Some(m) = self.controller.metrics_mut() {
            p.emit(m);
        }
        p
    }

    /// The live micro-op profile, if collecting.
    pub fn micro_profile(&self) -> Option<&MicroProfile> {
        self.micro.as_ref()
    }

    /// Records a controller-only step of `class` — one with no executor
    /// mechanics to time (e.g. the PPC layer's activity-bit write, or a
    /// modeled cost in an ablation comparator). Keeps the micro profile's
    /// per-class counts reconciled with the `steps.<class>` counters by
    /// attributing the instruction at zero nanoseconds.
    pub fn record_step(&mut self, class: Op) {
        self.controller.record(class);
        if let Some(p) = self.micro.as_mut() {
            p.record(class.label(), 0);
        }
    }

    /// Timer start for one instruction's mechanics (`None` when micro
    /// profiling is off, so the hot path costs one branch).
    #[inline]
    fn micro_start(&self) -> Option<Instant> {
        self.micro.as_ref().map(|_| Instant::now())
    }

    /// Closes the timing window opened by [`Machine::micro_start`],
    /// attributing the elapsed nanoseconds to `class`.
    #[inline]
    fn micro_stop(&mut self, class: Op, t: Option<Instant>) {
        if let (Some(p), Some(t)) = (self.micro.as_mut(), t) {
            p.record(class.label(), t.elapsed().as_nanos() as u64);
        }
    }

    // ----- cooperative budgets ---------------------------------------------

    /// Grants the program `budget` further controller steps: once the
    /// total step count reaches the current count plus `budget`, every
    /// fallible primitive returns
    /// [`MachineError::StepBudgetExhausted`] instead of issuing. The
    /// brake is cooperative — nothing is interrupted mid-instruction and
    /// all counters stay intact — and exact for programs built from
    /// fallible primitives (every solver loop is). Replaces any earlier
    /// limit.
    pub fn limit_steps(&mut self, budget: u64) {
        self.step_cap = Some(self.controller.total_steps() + budget);
        self.budget_granted = budget;
    }

    /// Removes the step limit installed by [`Machine::limit_steps`].
    pub fn clear_step_limit(&mut self) {
        self.step_cap = None;
        self.budget_granted = 0;
    }

    /// Steps left before the budget brake engages (`None` when no limit
    /// is installed).
    pub fn steps_remaining(&self) -> Option<u64> {
        self.step_cap
            .map(|cap| cap.saturating_sub(self.controller.total_steps()))
    }

    /// Attaches a cancellation token: once any clone of it is raised,
    /// every fallible primitive returns [`MachineError::Cancelled`]
    /// instead of issuing. Replaces any earlier token.
    pub fn attach_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Detaches the cancellation token, returning it if one was attached.
    pub fn take_cancel(&mut self) -> Option<CancelToken> {
        self.cancel.take()
    }

    /// The cooperative brake checked before every fallible instruction:
    /// cancellation first (a raised token wins even when budget remains),
    /// then the step budget.
    fn guard(&mut self) -> Result<(), MachineError> {
        if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            if let Some(m) = self.controller.metrics_mut() {
                m.inc("budget.cancelled", 1);
            }
            return Err(MachineError::Cancelled);
        }
        if let Some(cap) = self.step_cap {
            if self.controller.total_steps() >= cap {
                if let Some(m) = self.controller.metrics_mut() {
                    m.inc("budget.exhausted", 1);
                }
                return Err(MachineError::StepBudgetExhausted {
                    budget: self.budget_granted,
                });
            }
        }
        Ok(())
    }

    // ----- fault attachment ------------------------------------------------

    /// Attaches a permanent stuck-at fault map: from now on every
    /// switch-configuring instruction passes its intended Open mask through
    /// [`FaultMap::apply`] before the bus executes. A healthy (empty) map
    /// leaves the instruction path bit-identical to an unfaulted machine.
    pub fn attach_faults(&mut self, faults: FaultMap) {
        if let Some(m) = self.controller.metrics_mut() {
            m.inc("faults.injected", faults.len() as u64);
        }
        self.faults = faults;
    }

    /// The currently attached permanent fault map.
    pub fn faults(&self) -> &FaultMap {
        &self.faults
    }

    /// Attaches a seeded transient-glitch process sampled once per bus
    /// transfer (see [`TransientFaults`]).
    pub fn attach_transient_faults(&mut self, transient: TransientFaults) {
        self.transient = Some(transient);
    }

    /// Detaches all fault models, restoring a healthy machine.
    pub fn clear_faults(&mut self) {
        self.faults = FaultMap::new();
        self.transient = None;
    }

    /// Whether any bus transfer must route through the fault models.
    /// When false, the healthy fast path is bit-identical (the transient
    /// process would not be sampled either way).
    fn fault_routed(&self) -> bool {
        !self.faults.is_empty() || self.transient.is_some()
    }

    /// The Open mask the (possibly faulty) hardware realizes for one bus
    /// transfer, or `None` when the machine is healthy and the intended
    /// mask applies unchanged. Samples the transient process, so each call
    /// is one transfer.
    fn effective_open(&mut self, intended: &Plane<bool>) -> Option<Plane<bool>> {
        let glitch = self.transient.as_mut().and_then(|t| t.sample(self.dim));
        if self.faults.is_empty() && glitch.is_none() {
            return None;
        }
        let mut effective = self.faults.apply(intended);
        if let Some(c) = glitch {
            let flipped = !*effective.get(c);
            effective.set(c, flipped);
            if let Some(m) = self.controller.metrics_mut() {
                m.inc("faults.transient_flips", 1);
            }
        }
        if effective != *intended {
            if let Some(m) = self.controller.metrics_mut() {
                m.inc("faults.distorted_transfers", 1);
            }
        }
        Some(effective)
    }

    /// The array dimensions.
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Read access to the step-counting controller.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Mutable access to the controller (for tracing or phase labels).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// Read access to the execution backend.
    pub fn exec(&self) -> &E {
        &self.exec
    }

    /// The backend's resource counters (plan-cache hits, arena recycling).
    pub fn exec_stats(&self) -> ExecStats {
        self.exec.stats()
    }

    /// Zeroes the backend's resource counters.
    pub fn reset_exec_stats(&mut self) {
        self.exec.reset_stats();
    }

    /// Zeroes the step counters.
    pub fn reset_steps(&mut self) {
        self.controller.reset();
    }

    fn check<TP>(&self, p: &Plane<TP>) -> Result<(), MachineError> {
        if p.dim() == self.dim {
            Ok(())
        } else {
            Err(MachineError::DimMismatch {
                expected: self.dim,
                found: p.dim(),
            })
        }
    }

    /// One activity-sampling decision for the instruction being issued
    /// (false outright when no observer is attached).
    fn sample_now(&mut self) -> bool {
        self.controller.observing() && self.controller.sample_activity()
    }

    /// Activity statistics for an instruction masked by a plane: occupancy
    /// (fraction of `true` cells) and, when a direction is given, the bus
    /// cluster count its Open mask induces. Computed only when the
    /// sampling policy elects this instruction — the scan is O(p) host
    /// work the simulated machine would not perform.
    fn plane_activity(
        &mut self,
        dir: Option<Direction>,
        mask: &Plane<bool>,
    ) -> (Option<f64>, Option<u64>) {
        if !self.sample_now() {
            return (None, None);
        }
        let active = mask.as_slice().iter().filter(|&&b| b).count();
        let occ = active as f64 / self.dim.len().max(1) as f64;
        // `None` clusters when some line has no driver — the primitive
        // itself reports that case as a fault or a single cluster.
        let clusters = dir.and_then(|d| match bus::cluster_heads(self.dim, d, mask) {
            Ok(heads) => Some(heads.iter().enumerate().filter(|&(i, &h)| i == h).count() as u64),
            Err(_) => None,
        });
        (Some(occ), clusters)
    }

    /// [`Machine::plane_activity`] for a backend mask; the values are
    /// identical across backends (popcount occupancy, cluster derivation
    /// on the unpacked mask).
    fn mask_activity(
        &mut self,
        dir: Option<Direction>,
        mask: &E::Mask,
    ) -> (Option<f64>, Option<u64>) {
        if !self.sample_now() {
            return (None, None);
        }
        let active = self.exec.mask_count(self.dim, mask);
        let occ = active as f64 / self.dim.len().max(1) as f64;
        let clusters = dir.and_then(|d| {
            let plane = self.exec.mask_to_plane(self.dim, mask);
            match bus::cluster_heads(self.dim, d, &plane) {
                Ok(heads) => {
                    Some(heads.iter().enumerate().filter(|&(i, &h)| i == h).count() as u64)
                }
                Err(_) => None,
            }
        });
        (Some(occ), clusters)
    }

    /// The single issue choke point: records one controller step for the
    /// micro-op's class (with the current phase label and any activity
    /// statistics) and feeds the shared metrics counters the variant owns.
    fn issue(&mut self, u: MicroOp, occupancy: Option<f64>, clusters: Option<u64>) {
        let label = self.controller.phase();
        self.controller
            .record_observed(u.class(), label, occupancy, clusters);
        let len = self.dim.len();
        match u {
            MicroOp::Broadcast(_) | MicroOp::BusOr(_) => {
                if let Some(m) = self.controller.metrics_mut() {
                    m.inc("bus.transactions", 1);
                    if let Some(k) = clusters {
                        m.inc("bus.clusters", k);
                    }
                    if let Some(o) = occupancy {
                        m.inc("mask.active_pes", (o * len as f64).round() as u64);
                    }
                }
            }
            MicroOp::AssignMasked => {
                if let Some(m) = self.controller.metrics_mut() {
                    m.inc("mask.writes", 1);
                    if let Some(o) = occupancy {
                        m.inc("mask.active_pes", (o * len as f64).round() as u64);
                    }
                }
            }
            _ => {}
        }
    }

    // ----- communication instructions -------------------------------------

    /// `broadcast(src, dir, L)`: one controller step; every PE receives the
    /// `src` value of the Open node heading its bus cluster.
    pub fn broadcast<T: Copy>(
        &mut self,
        src: &Plane<T>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<T>, MachineError> {
        self.guard()?;
        let effective = self.effective_open(open);
        let open = effective.as_ref().unwrap_or(open);
        let (occ, clusters) = self.plane_activity(Some(dir), open);
        self.issue(MicroOp::Broadcast(dir), occ, clusters);
        let t = self.micro_start();
        let out = self.exec.broadcast(self.dim, src, dir, open);
        self.micro_stop(Op::Broadcast, t);
        out
    }

    /// Wired-OR over bus clusters: one controller step.
    pub fn bus_or(
        &mut self,
        values: &Plane<bool>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<bool>, MachineError> {
        self.guard()?;
        let effective = self.effective_open(open);
        let open = effective.as_ref().unwrap_or(open);
        let (occ, clusters) = self.plane_activity(Some(dir), open);
        self.issue(MicroOp::BusOr(dir), occ, clusters);
        let t = self.micro_start();
        let out = self.exec.bus_or(self.dim, values, dir, open);
        self.micro_stop(Op::BusOr, t);
        out
    }

    /// Issues one bus instruction `u` whose switch pattern is the backend
    /// mask `open`, with the same step cost, fault routing and
    /// observability as the plane form. Returns the Open mask the (possibly
    /// faulty) hardware realizes, or `None` when the machine is healthy and
    /// `open` applies unchanged.
    fn issue_bus(&mut self, u: MicroOp, open: &E::Mask) -> Option<E::Mask> {
        if !self.fault_routed() {
            let (occ, clusters) = self.mask_activity(u.direction(), open);
            self.issue(u, occ, clusters);
            return None;
        }
        let intended = self.exec.mask_to_plane(self.dim, open);
        let effective = self.effective_open(&intended);
        let open_plane = effective.as_ref().unwrap_or(&intended);
        let (occ, clusters) = self.plane_activity(u.direction(), open_plane);
        self.issue(u, occ, clusters);
        Some(self.exec.mask_from_plane(self.dim, open_plane))
    }

    /// Wired-OR with both the value set and the switch pattern held as
    /// backend masks; same step cost, fault routing, and observability as
    /// the plane form.
    pub fn mask_bus_or(
        &mut self,
        values: &E::Mask,
        dir: Direction,
        open: &E::Mask,
    ) -> Result<E::Mask, MachineError> {
        self.guard()?;
        let routed = self.issue_bus(MicroOp::BusOr(dir), open);
        let t = self.micro_start();
        let out = self
            .exec
            .mask_bus_or(self.dim, values, dir, routed.as_ref().unwrap_or(open));
        self.micro_stop(Op::BusOr, t);
        out
    }

    /// `shift(src, dir)` with an explicit edge fill policy: one controller
    /// step; data moves one PE towards `dir`.
    pub fn shift_with<T: Copy>(
        &mut self,
        src: &Plane<T>,
        dir: Direction,
        fill: Fill<T>,
    ) -> Result<Plane<T>, MachineError> {
        self.guard()?;
        self.issue(MicroOp::Shift(dir), None, None);
        let t = self.micro_start();
        let out = self.exec.shift(self.dim, src, dir, fill);
        self.micro_stop(Op::Shift, t);
        out
    }

    /// `shift(src, dir)`: one controller step; upstream-edge PEs receive
    /// `fill`.
    pub fn shift<T: Copy>(
        &mut self,
        src: &Plane<T>,
        dir: Direction,
        fill: T,
    ) -> Result<Plane<T>, MachineError> {
        self.shift_with(src, dir, Fill::Value(fill))
    }

    /// Toroidal `shift`: one controller step.
    pub fn shift_wrapping<T: Copy>(
        &mut self,
        src: &Plane<T>,
        dir: Direction,
    ) -> Result<Plane<T>, MachineError> {
        self.shift_with(src, dir, Fill::Wrap)
    }

    /// Global-OR: one controller step; `true` iff any PE raises `flags`.
    /// This is the controller-side condition read used by data-dependent
    /// loops such as the MCP termination test (statement 20).
    pub fn global_or(&mut self, flags: &Plane<bool>) -> Result<bool, MachineError> {
        self.guard()?;
        self.check(flags)?;
        let (occ, _) = self.plane_activity(None, flags);
        self.issue(MicroOp::GlobalOr, occ, None);
        let t = self.micro_start();
        // A branch-free fold vectorizes; a short-circuiting `any` does not.
        let any = flags.as_slice().iter().fold(false, |acc, &b| acc | b);
        self.micro_stop(Op::GlobalOr, t);
        Ok(any)
    }

    /// Whether every bus cluster that `open` induces along `dir` holds at
    /// least one `sel` PE (a line with no Open node is one cluster) — the
    /// guardrail `selected_min` runs before its scan. Uncosted and never
    /// fault-routed: it issues no instruction, samples no transient glitch,
    /// and reads the intended switch pattern through the backend's own
    /// wired-OR.
    pub fn clusters_covered(
        &mut self,
        sel: &E::Mask,
        dir: Direction,
        open: &E::Mask,
    ) -> Result<bool, MachineError> {
        let covered = self.exec.mask_bus_or(self.dim, sel, dir, open)?;
        Ok(self.exec.mask_count(self.dim, &covered) == self.dim.len())
    }

    // ----- mask registers ------------------------------------------------------

    /// Converts a plane into the backend mask representation without
    /// issuing an instruction (uncosted host I/O, like
    /// [`Machine::load_int`]; [`Machine::mask_copy`] is the costed copy).
    pub fn pack_mask(&mut self, src: &Plane<bool>) -> Result<E::Mask, MachineError> {
        self.check(src)?;
        Ok(self.exec.mask_from_plane(self.dim, src))
    }

    /// Converts a backend mask back to a plane (uncosted, host-side).
    pub fn unpack_mask(&self, mask: &E::Mask) -> Plane<bool> {
        self.exec.mask_to_plane(self.dim, mask)
    }

    /// Number of set PEs in a backend mask (uncosted, host-side).
    pub fn mask_count(&self, mask: &E::Mask) -> usize {
        self.exec.mask_count(self.dim, mask)
    }

    /// Loads an immediate into every PE of a mask register: one step.
    pub fn mask_imm(&mut self, value: bool) -> E::Mask {
        self.issue(MicroOp::Imm, None, None);
        let t = self.micro_start();
        let out = self.exec.mask_filled(self.dim, value);
        self.micro_stop(Op::Alu, t);
        out
    }

    /// Copies a mask register: one step (the mask analogue of an identity
    /// [`Machine::map`]; the scan's `enable = sel` load).
    pub fn mask_copy(&mut self, src: &E::Mask) -> Result<E::Mask, MachineError> {
        self.guard()?;
        self.issue(MicroOp::Map, None, None);
        let t = self.micro_start();
        let out = src.clone();
        self.micro_stop(Op::Alu, t);
        Ok(out)
    }

    /// Elementwise `a && b` on mask registers: one step.
    pub fn mask_and(&mut self, a: &E::Mask, b: &E::Mask) -> Result<E::Mask, MachineError> {
        self.guard()?;
        self.issue(MicroOp::Zip, None, None);
        let t = self.micro_start();
        let out = self.exec.mask_and(self.dim, a, b);
        self.micro_stop(Op::Alu, t);
        Ok(out)
    }

    /// Elementwise `a || b` on mask registers: one step.
    pub fn mask_or(&mut self, a: &E::Mask, b: &E::Mask) -> Result<E::Mask, MachineError> {
        self.guard()?;
        self.issue(MicroOp::Zip, None, None);
        let t = self.micro_start();
        let out = self.exec.mask_or(self.dim, a, b);
        self.micro_stop(Op::Alu, t);
        Ok(out)
    }

    /// Elementwise `!a` on a mask register: one step.
    pub fn mask_not(&mut self, a: &E::Mask) -> Result<E::Mask, MachineError> {
        self.guard()?;
        self.issue(MicroOp::Map, None, None);
        let t = self.micro_start();
        let out = self.exec.mask_not(self.dim, a);
        self.micro_stop(Op::Alu, t);
        Ok(out)
    }

    /// Global-OR of a mask register: one step; the mask form of
    /// [`Machine::global_or`].
    pub fn mask_global_or(&mut self, flags: &E::Mask) -> Result<bool, MachineError> {
        self.guard()?;
        let (occ, _) = self.mask_activity(None, flags);
        self.issue(MicroOp::GlobalOr, occ, None);
        let t = self.micro_start();
        let any = self.exec.mask_count(self.dim, flags) != 0;
        self.micro_stop(Op::GlobalOr, t);
        Ok(any)
    }

    /// Whether any PE of row `row` in columns `cols` is set (uncosted,
    /// host-side).
    pub fn mask_any_in(&self, mask: &E::Mask, row: usize, cols: std::ops::Range<usize>) -> bool {
        self.exec.mask_any_in(self.dim, mask, row, cols)
    }

    /// The bit-serial voting step (`keep_low` selects the Min rule
    /// `enable && !bit`, otherwise the Max rule `enable && bit`): one step.
    pub fn mask_vote(&mut self, enable: &E::Mask, bit: &E::Mask, keep_low: bool) -> E::Mask {
        self.issue(MicroOp::Zip, None, None);
        let t = self.micro_start();
        let out = self.exec.vote(self.dim, enable, bit, keep_low);
        self.micro_stop(Op::Alu, t);
        out
    }

    /// The bit-serial knockout step (`keep_low` selects the Min rule
    /// `enable && !(present && bit)`, otherwise the Max rule
    /// `enable && (!present || bit)`): one step.
    pub fn mask_knockout(
        &mut self,
        enable: &E::Mask,
        present: &E::Mask,
        bit: &E::Mask,
        keep_low: bool,
    ) -> E::Mask {
        self.issue(MicroOp::Zip3, None, None);
        let t = self.micro_start();
        let out = self.exec.knockout(self.dim, enable, present, bit, keep_low);
        self.micro_stop(Op::Alu, t);
        out
    }

    // ----- runtime self-test ----------------------------------------------

    /// Runs the executable built-in self-test on the live machine.
    ///
    /// Executes the [`bist_sweep`] patterns as real (costed, fault-applied)
    /// broadcasts of the flat-index identity plane, compares each readback
    /// against the healthy expectation computed host-side, and localizes
    /// every disagreeing switch box:
    ///
    /// * a node reading a value driven by an intended-Short neighbour names
    ///   that neighbour **stuck-Open** (the identity source makes the wrong
    ///   value *name* the rogue driver);
    /// * a node reading past its intended cluster head convicts that head
    ///   as **stuck-short**;
    /// * an undriven-line [`MachineError::BusFault`] convicts every
    ///   intended head of the dead line as **stuck-short**.
    ///
    /// Localization is exact for any single fault per bus cluster;
    /// overlapping faults are still detected but may be attributed to a
    /// neighbour. Transient glitches sampled during the sweep show up like
    /// permanent faults for the affected transfer — re-running the test
    /// distinguishes the two. The controller steps the sweep consumes are
    /// returned in [`FaultReport::steps`].
    pub fn self_test(&mut self) -> FaultReport {
        // The BIST is a bounded diagnostic (six patterns plus three setup
        // steps) that recovery policies run precisely when a solve was
        // aborted — including by a spent step budget or a raised cancel
        // token. It is therefore exempt from the cooperative brake: the
        // budget state is stashed for the sweep and restored afterwards.
        let stashed_cap = self.step_cap.take();
        let stashed_granted = std::mem::take(&mut self.budget_granted);
        let stashed_cancel = self.cancel.take();
        let before = self.controller.report();
        let observed = self.controller.observing();
        if observed {
            self.controller.enter_span("self_test");
        }
        let mut report = FaultReport::default();
        // Identity plane built with real instructions: ROW * cols + COL.
        let cols = self.dim.cols as i64;
        let ri = self.row_index();
        let ci = self.col_index();
        let ident = self
            .zip(&ri, &ci, move |r, c| r * cols + c)
            .expect("index planes share the machine dim");
        for pattern in bist_sweep(self.dim) {
            report.patterns_run += 1;
            // The healthy expectation is computed by the controller host on
            // the *intended* mask — no array steps, no fault application.
            let expected = bus::broadcast(self.dim, &ident, pattern.dir, &pattern.open)
                .expect("bist patterns drive every line");
            let heads = bus::cluster_heads(self.dim, pattern.dir, &pattern.open)
                .expect("bist patterns drive every line");
            match self.broadcast(&ident, pattern.dir, &pattern.open) {
                Ok(actual) => {
                    for (idx, &head) in heads.iter().enumerate() {
                        let at = self.dim.coord(idx);
                        let got = *actual.get(at);
                        if got == *expected.get(at) {
                            continue;
                        }
                        // The identity source means `got` is the flat index
                        // of the node that actually drove this cluster.
                        let driver = self.dim.coord(got as usize);
                        if !*pattern.open.get(driver) {
                            report.note(driver, SwitchFault::StuckOpen);
                        } else {
                            // The intended head upstream of `at` failed to
                            // inject.
                            report.note(self.dim.coord(head), SwitchFault::StuckShort);
                        }
                    }
                }
                Err(MachineError::BusFault { axis, lines }) => {
                    // A dead line means every intended head on it is stuck
                    // Short.
                    for idx in 0..self.dim.len() {
                        let at = self.dim.coord(idx);
                        let line = match axis {
                            crate::geometry::Axis::Row => at.row,
                            crate::geometry::Axis::Col => at.col,
                        };
                        if lines.contains(&line) && *pattern.open.get(at) {
                            report.note(at, SwitchFault::StuckShort);
                        }
                    }
                }
                Err(e) => unreachable!("self-test broadcast cannot fail with {e}"),
            }
        }
        if observed {
            self.controller.exit_span();
        }
        self.step_cap = stashed_cap;
        self.budget_granted = stashed_granted;
        self.cancel = stashed_cancel;
        report.steps = self.controller.report().since(&before);
        if let Some(m) = self.controller.metrics_mut() {
            m.inc("bist.runs", 1);
            m.inc("bist.patterns", report.patterns_run as u64);
            m.inc("faults.detected", report.located.len() as u64);
            m.inc("bist.steps", report.steps.total());
        }
        report
    }

    // ----- ALU instructions ------------------------------------------------

    /// Elementwise unary operation: one controller step.
    pub fn map<T, U, F>(&mut self, src: &Plane<T>, f: F) -> Result<Plane<U>, MachineError>
    where
        F: Fn(&T) -> U,
    {
        self.guard()?;
        self.check(src)?;
        self.issue(MicroOp::Map, None, None);
        let t = self.micro_start();
        let s = src.as_slice();
        let data = s.iter().map(f).collect();
        let out = Plane::from_vec(self.dim, data);
        self.micro_stop(Op::Alu, t);
        Ok(out)
    }

    /// Elementwise binary operation: one controller step.
    pub fn zip<A, B, U, F>(
        &mut self,
        a: &Plane<A>,
        b: &Plane<B>,
        f: F,
    ) -> Result<Plane<U>, MachineError>
    where
        F: Fn(&A, &B) -> U,
    {
        self.guard()?;
        self.check(a)?;
        self.check(b)?;
        self.issue(MicroOp::Zip, None, None);
        let t = self.micro_start();
        let (sa, sb) = (a.as_slice(), b.as_slice());
        let data = sa.iter().zip(sb).map(|(x, y)| f(x, y)).collect();
        let out = Plane::from_vec(self.dim, data);
        self.micro_stop(Op::Alu, t);
        Ok(out)
    }

    /// Elementwise ternary operation: one controller step.
    pub fn zip3<A, B, C, U, F>(
        &mut self,
        a: &Plane<A>,
        b: &Plane<B>,
        c: &Plane<C>,
        f: F,
    ) -> Result<Plane<U>, MachineError>
    where
        F: Fn(&A, &B, &C) -> U,
    {
        self.guard()?;
        self.check(a)?;
        self.check(b)?;
        self.check(c)?;
        self.issue(MicroOp::Zip3, None, None);
        let t = self.micro_start();
        let (sa, sb, sc) = (a.as_slice(), b.as_slice(), c.as_slice());
        let data = (0..self.dim.len())
            .map(|i| f(&sa[i], &sb[i], &sc[i]))
            .collect();
        let out = Plane::from_vec(self.dim, data);
        self.micro_stop(Op::Alu, t);
        Ok(out)
    }

    /// Loads an immediate into every PE: one controller step.
    pub fn imm<T: Clone>(&mut self, value: T) -> Plane<T> {
        self.issue(MicroOp::Imm, None, None);
        let t = self.micro_start();
        let out = Plane::filled(self.dim, value);
        self.micro_stop(Op::Alu, t);
        out
    }

    /// The hardwired `ROW` register (each PE knows its row index):
    /// one controller step to copy it into a plane.
    pub fn row_index(&mut self) -> Plane<i64> {
        self.issue(MicroOp::Index(Axis::Row), None, None);
        let t = self.micro_start();
        let out = Plane::from_fn(self.dim, |c| c.row as i64);
        self.micro_stop(Op::Alu, t);
        out
    }

    /// The hardwired `COL` register: one controller step.
    pub fn col_index(&mut self) -> Plane<i64> {
        self.issue(MicroOp::Index(Axis::Col), None, None);
        let t = self.micro_start();
        let out = Plane::from_fn(self.dim, |c| c.col as i64);
        self.micro_stop(Op::Alu, t);
        out
    }

    /// Masked plane write `where (mask) dst = src` under a backend
    /// activity mask (`None`: every PE is active): one controller step.
    /// PEs where `mask` is false keep their previous `dst` value — the
    /// SIMD `where` construct gates register *writes*, not instruction
    /// issue.
    pub fn assign_where<T: Copy>(
        &mut self,
        dst: &mut Plane<T>,
        src: &Plane<T>,
        mask: Option<&E::Mask>,
    ) -> Result<(), MachineError> {
        self.guard()?;
        self.check(dst)?;
        self.check(src)?;
        let (occ, _) = self.where_activity(mask);
        self.issue(MicroOp::AssignMasked, occ, None);
        let t = self.micro_start();
        self.exec.assign_plane(self.dim, dst, src, mask);
        self.micro_stop(Op::Alu, t);
        Ok(())
    }

    /// Activity statistics of a write under an optional activity mask
    /// (`None` is the all-active mask).
    fn where_activity(&mut self, mask: Option<&E::Mask>) -> (Option<f64>, Option<u64>) {
        match mask {
            Some(m) => self.mask_activity(None, m),
            None if self.sample_now() => {
                let len = self.dim.len();
                (Some(len as f64 / len.max(1) as f64), None)
            }
            None => (None, None),
        }
    }

    // ----- integer registers -------------------------------------------------
    //
    // An `h`-bit register ([`Executor::Int`]) is the machine form of a PPC
    // `parallel int`. Values enter through the uncosted [`Machine::load_int`]
    // and leave through [`Machine::read_int`] / [`Machine::read_int_row`];
    // every costed opcode below issues the micro-op its plane twin issues,
    // so step classes, phase labels, activity sampling and fault routing
    // are those of the plane-typed ALU.

    /// Loads `value(row, col)` into every PE of an `h`-bit register
    /// (uncosted host I/O, like preloading a plane), calling it once per PE
    /// in row-major order. Every value must satisfy `0 <= v < 2^h`; the PPC
    /// layer validates.
    pub fn load_int(&mut self, h: u32, value: impl FnMut(usize, usize) -> i64) -> E::Int {
        self.exec.int_from_fn(self.dim, h, value)
    }

    /// Reads a register back into a plane (uncosted, host-side).
    pub fn read_int(&self, reg: &E::Int) -> Plane<i64> {
        self.exec.int_to_plane(self.dim, reg)
    }

    /// Reads columns `cols` of row `row` of a register (uncosted,
    /// host-side).
    pub fn read_int_row(&self, reg: &E::Int, row: usize, cols: std::ops::Range<usize>) -> Vec<i64> {
        self.exec.int_row(self.dim, reg, row, cols)
    }

    /// Loads an immediate into every PE of an `h`-bit register: one step.
    pub fn int_imm(&mut self, value: i64, h: u32) -> E::Int {
        self.issue(MicroOp::Imm, None, None);
        let t = self.micro_start();
        let out = self.exec.int_by_row(self.dim, h, |_| value);
        self.micro_stop(Op::Alu, t);
        out
    }

    /// Per-lane immediate into an `h`-bit register: lane `l` (columns
    /// `l*lane_cols .. (l+1)*lane_cols`) receives `values[l]` at every PE.
    /// On a lane-batched machine each lane has its own sub-controller
    /// issuing its immediate in lockstep, so the whole load is one
    /// controller step — exactly like [`Machine::int_imm`].
    ///
    /// # Panics
    /// If `lane_cols` is zero, does not divide the column count, or
    /// `values` does not cover every lane.
    pub fn int_lane_imm(&mut self, values: &[i64], lane_cols: usize, h: u32) -> E::Int {
        self.check_lanes(lane_cols);
        assert_eq!(
            values.len(),
            self.dim.cols / lane_cols,
            "one immediate per lane"
        );
        self.issue(MicroOp::Imm, None, None);
        let t = self.micro_start();
        let out = self.exec.int_by_col(self.dim, h, |c| values[c / lane_cols]);
        self.micro_stop(Op::Alu, t);
        out
    }

    /// The hardwired `ROW` register copied into an `h`-bit register: one
    /// step.
    pub fn int_row_index(&mut self, h: u32) -> E::Int {
        self.issue(MicroOp::Index(Axis::Row), None, None);
        let t = self.micro_start();
        let out = self.exec.int_by_row(self.dim, h, |r| r as i64);
        self.micro_stop(Op::Alu, t);
        out
    }

    /// The per-lane `COL` register, `col % lane_cols` (`lane_cols` equal
    /// to the column count is the plain `COL`), copied into an `h`-bit
    /// register: one step. A lane-batched machine wires each lane's
    /// column register relative to the lane origin, so the copy costs
    /// what [`Machine::col_index`] costs.
    ///
    /// # Panics
    /// If `lane_cols` is zero or does not divide the column count.
    pub fn int_col_index(&mut self, lane_cols: usize, h: u32) -> E::Int {
        self.check_lanes(lane_cols);
        self.issue(MicroOp::Index(Axis::Col), None, None);
        let t = self.micro_start();
        let out = self
            .exec
            .int_by_col(self.dim, h, |c| (c % lane_cols) as i64);
        self.micro_stop(Op::Alu, t);
        out
    }

    /// Elementwise saturating `h`-bit addition: one step. A sum that
    /// reaches `MAXINT = 2^h - 1` yields `MAXINT`.
    pub fn int_sat_add(&mut self, a: &E::Int, b: &E::Int, h: u32) -> Result<E::Int, MachineError> {
        self.guard()?;
        self.issue(MicroOp::Zip, None, None);
        let t = self.micro_start();
        let out = self.exec.int_sat_add(self.dim, h, a, b);
        self.micro_stop(Op::Alu, t);
        Ok(out)
    }

    /// Elementwise `a == b` (`equal`) or `a != b` into a mask: one step.
    pub fn int_eq(&mut self, a: &E::Int, b: &E::Int, equal: bool) -> Result<E::Mask, MachineError> {
        self.guard()?;
        self.issue(MicroOp::Zip, None, None);
        let t = self.micro_start();
        let out = self.exec.int_eq(self.dim, a, b, equal);
        self.micro_stop(Op::Alu, t);
        Ok(out)
    }

    /// Elementwise `a < b` into a mask: one step.
    pub fn int_lt(&mut self, a: &E::Int, b: &E::Int) -> Result<E::Mask, MachineError> {
        self.guard()?;
        self.issue(MicroOp::Zip, None, None);
        let t = self.micro_start();
        let out = self.exec.int_lt(self.dim, a, b);
        self.micro_stop(Op::Alu, t);
        Ok(out)
    }

    /// Elementwise two-input minimum of two registers: one step.
    pub fn int_min2(&mut self, a: &E::Int, b: &E::Int) -> Result<E::Int, MachineError> {
        self.guard()?;
        self.issue(MicroOp::Zip, None, None);
        let t = self.micro_start();
        let out = self.exec.int_min2(self.dim, a, b);
        self.micro_stop(Op::Alu, t);
        Ok(out)
    }

    /// Bit-plane `j` of a register as a mask: one step (the PPC
    /// `bit(x, j)`).
    pub fn int_bit(&mut self, src: &E::Int, j: u32) -> Result<E::Mask, MachineError> {
        self.guard()?;
        self.issue(MicroOp::Map, None, None);
        let t = self.micro_start();
        let out = self.exec.int_bit(self.dim, src, j);
        self.micro_stop(Op::Alu, t);
        Ok(out)
    }

    /// Masked register write `where (mask) dst = src` (`None`: every PE is
    /// active): one controller step.
    pub fn int_assign(
        &mut self,
        dst: &mut E::Int,
        src: &E::Int,
        mask: Option<&E::Mask>,
    ) -> Result<(), MachineError> {
        self.guard()?;
        let (occ, _) = self.where_activity(mask);
        self.issue(MicroOp::AssignMasked, occ, None);
        let t = self.micro_start();
        self.exec.int_assign(self.dim, dst, src, mask);
        self.micro_stop(Op::Alu, t);
        Ok(())
    }

    /// `broadcast(src, dir, L)` of a register with the switch pattern held
    /// as a backend mask: one controller step, fault-routed like every bus
    /// instruction.
    pub fn int_broadcast(
        &mut self,
        src: &E::Int,
        dir: Direction,
        open: &E::Mask,
    ) -> Result<E::Int, MachineError> {
        self.guard()?;
        let routed = self.issue_bus(MicroOp::Broadcast(dir), open);
        let t = self.micro_start();
        let out = self
            .exec
            .int_broadcast(self.dim, src, dir, routed.as_ref().unwrap_or(open));
        self.micro_stop(Op::Broadcast, t);
        out
    }

    fn check_lanes(&self, lane_cols: usize) {
        assert!(lane_cols > 0, "lane_cols must be positive");
        assert_eq!(
            self.dim.cols % lane_cols,
            0,
            "lane_cols {lane_cols} must divide the column count {}",
            self.dim.cols
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Op;
    use crate::geometry::Coord;

    #[test]
    fn every_primitive_costs_one_step() {
        let mut m = Machine::square(4);
        let p = m.imm(1i64);
        assert_eq!(m.controller().steps(Op::Alu), 1);
        let open = m.imm(true);
        assert_eq!(m.controller().steps(Op::Alu), 2);
        m.broadcast(&p, Direction::East, &open).unwrap();
        assert_eq!(m.controller().steps(Op::Broadcast), 1);
        let flags = m.map(&p, |&v| v > 0).unwrap();
        m.bus_or(&flags, Direction::South, &open).unwrap();
        assert_eq!(m.controller().steps(Op::BusOr), 1);
        m.shift(&p, Direction::West, 0).unwrap();
        assert_eq!(m.controller().steps(Op::Shift), 1);
        m.global_or(&flags).unwrap();
        assert_eq!(m.controller().steps(Op::GlobalOr), 1);
    }

    #[test]
    fn mask_instructions_cost_like_their_plane_twins() {
        let mut m = Machine::square(4);
        let open = Plane::from_fn(m.dim(), |c| c.col == 0);
        let values = Plane::from_fn(m.dim(), |c| c.row == c.col);
        let l = m.pack_mask(&open).unwrap();
        let v = m.pack_mask(&values).unwrap();
        let src = m.load_int(5, |r, c| (r * 4 + c) as i64);
        assert_eq!(m.controller().total_steps(), 0, "pack and load are views");
        let e = m.mask_copy(&v).unwrap();
        assert_eq!(m.controller().steps(Op::Alu), 1);
        let b = m.int_bit(&src, 1).unwrap();
        assert_eq!(m.controller().steps(Op::Alu), 2);
        let v = m.mask_vote(&e, &b, true);
        assert_eq!(m.controller().steps(Op::Alu), 3);
        let _k = m.mask_knockout(&e, &v, &b, true);
        assert_eq!(m.controller().steps(Op::Alu), 4);
        m.mask_bus_or(&v, Direction::West, &l).unwrap();
        assert_eq!(m.controller().steps(Op::BusOr), 1);
        m.int_broadcast(&src, Direction::East, &l).unwrap();
        assert_eq!(m.controller().steps(Op::Broadcast), 1);
        assert!(
            m.mask_global_or(&v).unwrap(),
            "(0,0) votes: bit 1 of 0 is 0"
        );
        assert_eq!(m.controller().steps(Op::GlobalOr), 1);
    }

    #[test]
    fn mask_ops_match_plane_semantics() {
        let mut m = Machine::square(4);
        let open = Plane::from_fn(m.dim(), |c| c.col == 0 || c.col == 2);
        let values = Plane::from_fn(m.dim(), |c| c.row == 0 && c.col == 1);
        let l = m.pack_mask(&open).unwrap();
        let v = m.pack_mask(&values).unwrap();
        let or_masked = m.mask_bus_or(&v, Direction::East, &l).unwrap();
        let or_plane = m.bus_or(&values, Direction::East, &open).unwrap();
        assert_eq!(m.unpack_mask(&or_masked), or_plane);
        let src = Plane::from_fn(m.dim(), |c| (c.row * 4 + c.col) as i64);
        let reg = m.load_int(5, |r, c| (r * 4 + c) as i64);
        assert_eq!(m.read_int(&reg), src);
        let bc_reg = m.int_broadcast(&reg, Direction::East, &l).unwrap();
        let bc_plane = m.broadcast(&src, Direction::East, &open).unwrap();
        assert_eq!(m.read_int(&bc_reg), bc_plane);
        assert_eq!(m.read_int_row(&bc_reg, 2, 1..4), bc_plane.row(2)[1..4]);
        assert_eq!(m.mask_count(&l), open.count_true());
        assert!(m.mask_any_in(&l, 3, 2..4));
        assert!(!m.mask_any_in(&l, 3, 3..4));
    }

    #[test]
    fn register_writes_follow_the_activity_mask() {
        let mut m = Machine::square(3);
        let mask = m
            .pack_mask(&Plane::from_fn(m.dim(), |c| c.col == 1))
            .unwrap();
        let nine = m.int_imm(9, 4);
        let mut dst = m.int_imm(2, 4);
        m.int_assign(&mut dst, &nine, Some(&mask)).unwrap();
        assert_eq!(m.read_int(&dst).row(0), &[2, 9, 2]);
        m.int_assign(&mut dst, &nine, None).unwrap();
        assert_eq!(m.read_int(&dst).row(2), &[9, 9, 9]);
        let mut plane = Plane::filled(m.dim(), 0i64);
        let ones = Plane::filled(m.dim(), 1i64);
        m.assign_where(&mut plane, &ones, Some(&mask)).unwrap();
        assert_eq!(plane.row(1), &[0, 1, 0]);
        assert_eq!(m.controller().steps(Op::Alu), 5, "2 imm + 3 writes");
    }

    #[test]
    fn zip_and_zip3_compute_elementwise() {
        let mut m = Machine::square(3);
        let a = Plane::from_fn(m.dim(), |c| c.row as i64);
        let b = Plane::from_fn(m.dim(), |c| c.col as i64);
        let s = m.zip(&a, &b, |x, y| x + y).unwrap();
        assert_eq!(*s.at(2, 1), 3);
        let mask = Plane::from_fn(m.dim(), |c| c.row == 0);
        let t = m
            .zip3(&s, &a, &mask, |x, y, &k| if k { *x } else { *y })
            .unwrap();
        assert_eq!(*t.at(0, 2), 2);
        assert_eq!(*t.at(1, 2), 1);
    }

    #[test]
    fn assign_where_preserves_unmasked() {
        let mut m = Machine::square(2);
        let mut dst = Plane::filled(m.dim(), 0i64);
        let src = Plane::filled(m.dim(), 9i64);
        let mask = Plane::from_fn(m.dim(), |c| c.col == 1);
        m.assign_where(&mut dst, &src, Some(&mask)).unwrap();
        assert_eq!(*dst.at(0, 0), 0);
        assert_eq!(*dst.at(0, 1), 9);
    }

    #[test]
    fn global_or_detects_single_flag() {
        let mut m = Machine::square(5);
        let mut flags = Plane::filled(m.dim(), false);
        assert!(!m.global_or(&flags).unwrap());
        flags.set(Coord::new(4, 4), true);
        assert!(m.global_or(&flags).unwrap());
    }

    #[test]
    fn row_col_index_registers() {
        let mut m = Machine::new(2, 3);
        let r = m.row_index();
        let c = m.col_index();
        assert_eq!(*r.at(1, 2), 1);
        assert_eq!(*c.at(1, 2), 2);
    }

    #[test]
    fn dim_mismatch_is_rejected() {
        let mut m = Machine::square(3);
        let wrong = Plane::filled(Dim::new(2, 3), 1i64);
        assert!(matches!(
            m.map(&wrong, |&v: &i64| v),
            Err(MachineError::DimMismatch { .. })
        ));
    }

    #[test]
    fn reset_steps_zeroes_counters() {
        let mut m = Machine::square(2);
        let _ = m.imm(0u8);
        m.reset_steps();
        assert_eq!(m.controller().total_steps(), 0);
    }

    #[test]
    fn shift_fill_policies_share_one_instruction_path() {
        let mut m = Machine::square(4);
        let src = Plane::from_fn(m.dim(), |c| c.col as i64);
        let filled = m.shift(&src, Direction::East, -7).unwrap();
        let wrapped = m.shift_wrapping(&src, Direction::East).unwrap();
        assert_eq!(m.controller().steps(Op::Shift), 2);
        assert_eq!(filled.row(1), &[-7, 0, 1, 2]);
        assert_eq!(wrapped.row(0), &[3, 0, 1, 2]);
        let explicit = m
            .shift_with(&src, Direction::East, Fill::Value(-7))
            .unwrap();
        assert_eq!(explicit, filled);
    }

    #[test]
    fn attached_faults_corrupt_live_broadcasts() {
        let mut m = Machine::square(4);
        let src = Plane::from_fn(m.dim(), |c| (c.row * 4 + c.col) as i64);
        let open = Plane::from_fn(m.dim(), |c| c.col == 0 || c.col == 2);
        let healthy = m.broadcast(&src, Direction::East, &open).unwrap();
        let mut fm = FaultMap::new();
        fm.inject(Coord::new(0, 2), SwitchFault::StuckShort);
        m.attach_faults(fm);
        let faulty = m.broadcast(&src, Direction::East, &open).unwrap();
        assert_ne!(healthy.row(0), faulty.row(0), "fault reaches the bus");
        assert_eq!(faulty.row(0), &[0, 0, 0, 0], "head at (0,2) swallowed");
        assert_eq!(healthy.row(1), faulty.row(1));
        m.clear_faults();
        let again = m.broadcast(&src, Direction::East, &open).unwrap();
        assert_eq!(again.as_slice(), healthy.as_slice());
    }

    #[test]
    fn transient_glitches_are_one_shot() {
        let mut m = Machine::square(4);
        let src = Plane::from_fn(m.dim(), |c| (c.row * 4 + c.col) as i64);
        let open = Plane::filled(m.dim(), true);
        let healthy = m.broadcast(&src, Direction::East, &open).unwrap();
        // p = 1: every transfer glitches exactly one switch.
        m.attach_transient_faults(TransientFaults::new(1.0, 3));
        let glitched = m.broadcast(&src, Direction::East, &open).unwrap();
        let wrong = glitched
            .as_slice()
            .iter()
            .zip(healthy.as_slice())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(wrong, 1, "one flipped switch corrupts exactly one PE");
        m.clear_faults();
        let again = m.broadcast(&src, Direction::East, &open).unwrap();
        assert_eq!(again.as_slice(), healthy.as_slice());
    }

    #[test]
    fn self_test_on_healthy_machine_reports_healthy() {
        let mut m = Machine::square(4);
        let report = m.self_test();
        assert!(report.is_healthy(), "{report}");
        assert_eq!(report.patterns_run, 6);
        assert!(report.steps.total() > 0, "the sweep costs real steps");
        assert_eq!(m.controller().total_steps(), report.steps.total());
    }

    #[test]
    fn self_test_localizes_every_single_stuck_fault() {
        for idx in 0..16 {
            for fault in [SwitchFault::StuckShort, SwitchFault::StuckOpen] {
                let mut m = Machine::square(4);
                let at = m.dim().coord(idx);
                let mut fm = FaultMap::new();
                fm.inject(at, fault);
                m.attach_faults(fm);
                let report = m.self_test();
                assert_eq!(
                    report.located,
                    vec![(at, fault)],
                    "fault {fault:?} at {at:?} mislocalized: {report}"
                );
            }
        }
    }

    #[test]
    fn self_test_detects_multiple_faults() {
        let mut m = Machine::square(6);
        let fm = FaultMap::random(m.dim(), 4, 99);
        let expected: Vec<Coord> = fm.iter().map(|(c, _)| c).collect();
        m.attach_faults(fm);
        let report = m.self_test();
        // Overlapping faults may be attributed to a cluster neighbour, but
        // with 4 faults on 36 nodes the sweep must at least detect trouble;
        // in the common disjoint case it localizes all of them exactly.
        assert!(!report.is_healthy());
        for c in report.coords() {
            assert!(m.dim().contains(c));
        }
        if report.located.len() == expected.len() {
            assert_eq!(report.coords(), expected);
        }
    }

    #[test]
    fn empty_fault_map_leaves_instruction_path_bit_identical() {
        let src = Plane::from_fn(Dim::square(5), |c| (c.row * 5 + c.col) as i64);
        let open = Plane::from_fn(Dim::square(5), |c| (c.row + c.col) % 3 == 0);
        let mut plain = Machine::square(5);
        let mut attached = Machine::square(5);
        attached.attach_faults(FaultMap::new());
        let a = plain.broadcast(&src, Direction::South, &open).unwrap();
        let b = attached.broadcast(&src, Direction::South, &open).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(
            plain.controller().total_steps(),
            attached.controller().total_steps()
        );
    }

    #[test]
    fn step_budget_stops_divergent_program_exactly_at_budget() {
        let mut m = Machine::square(4);
        let flags = m.imm(false);
        m.reset_steps();
        m.limit_steps(10);
        // A deliberately divergent controller program: global-OR over an
        // all-false plane never terminates the loop on its own.
        let mut issued = 0u64;
        let err = loop {
            match m.global_or(&flags) {
                Ok(_) => issued += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, MachineError::StepBudgetExhausted { budget: 10 });
        assert_eq!(issued, 10, "exactly the granted steps were issued");
        assert_eq!(m.controller().total_steps(), 10, "counters intact");
        assert_eq!(m.steps_remaining(), Some(0));
        // The brake holds: further fallible instructions keep failing...
        assert!(m.global_or(&flags).is_err());
        // ...until the limit is lifted.
        m.clear_step_limit();
        assert_eq!(m.steps_remaining(), None);
        assert!(m.global_or(&flags).is_ok());
    }

    #[test]
    fn step_budget_is_relative_to_installation_point() {
        let mut m = Machine::square(3);
        let p = m.imm(1i64);
        let _ = m.map(&p, |&v| v + 1).unwrap();
        let spent = m.controller().total_steps();
        m.limit_steps(3);
        assert_eq!(m.steps_remaining(), Some(3));
        for _ in 0..3 {
            m.map(&p, |&v| v).unwrap();
        }
        assert!(matches!(
            m.map(&p, |&v: &i64| v),
            Err(MachineError::StepBudgetExhausted { budget: 3 })
        ));
        assert_eq!(m.controller().total_steps(), spent + 3);
    }

    #[test]
    fn cancel_token_stops_machine_between_instructions() {
        let mut m = Machine::square(3);
        let token = crate::budget::CancelToken::new();
        m.attach_cancel(token.clone());
        let p = m.imm(2i64);
        assert!(m.map(&p, |&v| v).is_ok(), "armed token does not fire");
        token.cancel();
        assert_eq!(m.map(&p, |&v: &i64| v), Err(MachineError::Cancelled));
        let steps = m.controller().total_steps();
        assert_eq!(steps, 2, "the refused instruction costs nothing");
        // Detaching the token re-enables the machine.
        let taken = m.take_cancel().expect("token was attached");
        assert!(taken.is_cancelled());
        assert!(m.map(&p, |&v| v).is_ok());
    }

    #[test]
    fn cancellation_outranks_remaining_budget() {
        let mut m = Machine::square(3);
        m.limit_steps(1000);
        let token = crate::budget::CancelToken::new();
        m.attach_cancel(token.clone());
        token.cancel();
        let p = Plane::filled(m.dim(), false);
        assert_eq!(m.global_or(&p), Err(MachineError::Cancelled));
    }

    #[test]
    fn self_test_is_exempt_from_budget_and_cancel() {
        let mut m = Machine::square(4);
        m.limit_steps(0);
        let token = crate::budget::CancelToken::new();
        token.cancel();
        m.attach_cancel(token);
        let report = m.self_test();
        assert!(report.is_healthy(), "{report}");
        assert_eq!(report.patterns_run, 6);
        // The brake state survives the diagnostic.
        let flags = Plane::filled(m.dim(), false);
        assert_eq!(m.global_or(&flags), Err(MachineError::Cancelled));
        m.take_cancel();
        assert!(matches!(
            m.global_or(&flags),
            Err(MachineError::StepBudgetExhausted { budget: 0 })
        ));
    }

    #[test]
    fn budget_errors_are_counted_in_metrics() {
        let mut m = Machine::square(3);
        m.controller_mut().enable_metrics();
        m.limit_steps(0);
        let flags = Plane::filled(m.dim(), false);
        assert!(m.global_or(&flags).is_err());
        let token = crate::budget::CancelToken::new();
        token.cancel();
        m.attach_cancel(token);
        assert!(m.global_or(&flags).is_err());
        let metrics = m.controller_mut().take_metrics();
        assert_eq!(metrics.counter("budget.exhausted"), 1);
        assert_eq!(metrics.counter("budget.cancelled"), 1);
    }

    #[test]
    fn micro_profile_counts_reconcile_with_step_counters() {
        let mut m = Machine::square(4);
        m.controller_mut().enable_metrics();
        m.enable_micro_profile();
        // Touch every instruction class, including the ones with no
        // executor call (imm, index registers, global-OR).
        let p = m.imm(1i64);
        let open = m.imm(true);
        let _ = m.row_index();
        let _ = m.col_index();
        let _ = m.broadcast(&p, Direction::East, &open).unwrap();
        let flags = m.map(&p, |&v| v > 0).unwrap();
        let _ = m.bus_or(&flags, Direction::South, &open).unwrap();
        let _ = m.shift(&p, Direction::West, 0).unwrap();
        let _ = m.global_or(&flags).unwrap();
        let l = m.pack_mask(&flags).unwrap();
        let e = m.mask_copy(&l).unwrap();
        let r = m.int_imm(1, 4);
        let b = m.int_bit(&r, 0).unwrap();
        let v = m.mask_vote(&e, &b, true);
        let _ = m.mask_knockout(&e, &v, &b, true);
        let mut dst = Plane::filled(m.dim(), 0i64);
        m.assign_where(&mut dst, &p, Some(&l)).unwrap();
        let _ = m.mask_bus_or(&v, Direction::West, &l).unwrap();
        let _ = m.int_broadcast(&r, Direction::East, &l).unwrap();
        let _ = m.mask_imm(false);
        let _ = m.int_row_index(4);
        let _ = m.int_col_index(4, 4);
        let mut s = m.int_sat_add(&r, &r, 4).unwrap();
        let _ = m.int_eq(&r, &s, false).unwrap();
        m.int_assign(&mut s, &r, Some(&v)).unwrap();
        let _ = m.mask_or(&v, &e).unwrap();
        let _ = m.mask_and(&v, &e).unwrap();
        let _ = m.mask_not(&v).unwrap();
        let _ = m.mask_global_or(&v).unwrap();

        let report = m.controller().report();
        let profile = m.take_micro_profile();
        assert_eq!(profile.backend(), "scalar");
        for op in Op::ALL {
            let count = profile.class(op.label()).map_or(0, |w| w.count);
            assert_eq!(count, report.count(op), "class {}", op.label());
        }
        assert_eq!(profile.total().count, report.total());
        // take_micro_profile folded the same tallies into the registry.
        let metrics = m.controller_mut().take_metrics();
        for op in Op::ALL {
            assert_eq!(
                metrics.counter(&format!("exec.scalar.{}.count", op.label())),
                report.count(op),
                "exec counter for {}",
                op.label()
            );
        }
    }

    #[test]
    fn micro_profile_covers_fault_routed_transfers() {
        let mut m = Machine::square(4);
        m.enable_micro_profile();
        let mut fm = FaultMap::new();
        fm.inject(Coord::new(0, 2), SwitchFault::StuckShort);
        m.attach_faults(fm);
        let src = m.int_imm(1, 2);
        let open_plane = m.imm(true);
        let open = m.pack_mask(&open_plane).unwrap();
        let _ = m.int_broadcast(&src, Direction::East, &open).unwrap();
        let v = m.pack_mask(&open_plane).unwrap();
        let _ = m.mask_bus_or(&v, Direction::East, &open).unwrap();
        let report = m.controller().report();
        let profile = m.take_micro_profile();
        assert_eq!(
            profile.class("broadcast").map_or(0, |w| w.count),
            report.count(Op::Broadcast)
        );
        assert_eq!(
            profile.class("bus-or").map_or(0, |w| w.count),
            report.count(Op::BusOr)
        );
    }

    #[test]
    fn occupancy_sampling_off_skips_statistics_but_not_steps() {
        use ppa_obs::OccupancySampling;
        let mut m = Machine::square(4);
        m.controller_mut().enable_metrics();
        m.controller_mut()
            .set_occupancy_sampling(OccupancySampling::Off);
        let src = m.imm(1i64);
        let open = m.imm(true);
        m.broadcast(&src, Direction::East, &open).unwrap();
        let metrics = m.controller_mut().take_metrics();
        assert_eq!(metrics.counter("steps.broadcast"), 1);
        assert_eq!(metrics.counter("bus.transactions"), 1);
        assert_eq!(metrics.counter("bus.clusters"), 0, "statistics gated off");
        assert_eq!(metrics.counter("mask.active_pes"), 0);
    }
}
