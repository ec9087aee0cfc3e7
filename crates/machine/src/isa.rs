//! The typed micro-op ISA and the pluggable execution-backend trait.
//!
//! [`Machine`](crate::Machine) is split into two halves: an *issue* side
//! (step accounting, fault routing, observability — one [`MicroOp`] per
//! controller instruction) and an *execution* side (the per-PE mechanics)
//! behind the [`Executor`] trait. [`ScalarBackend`] reproduces the
//! historical `Vec<T>`-plane semantics verbatim; the packed backend in
//! [`crate::packed`] executes mask logic on u64-word bitsets with a
//! bus-plan cache.
//!
//! The contract every backend must satisfy: for any instruction sequence,
//! the *values* delivered to PEs, the per-class step counts, and the
//! fault-routing behavior are bit-identical across backends. Only
//! host-side wall-clock may differ.

use crate::bus;
use crate::error::MachineError;
use crate::geometry::{Axis, Dim, Direction};
use crate::plane::Plane;

/// One controller instruction, as seen by the issue logic.
///
/// Every costed [`Machine`](crate::Machine) method issues exactly one
/// `MicroOp`; the variant determines the step class charged by the
/// controller and which shared metrics counters the instruction feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Elementwise unary ALU operation (also bit-plane extraction).
    Map,
    /// Elementwise binary ALU operation (also mask votes).
    Zip,
    /// Elementwise ternary ALU operation (also mask knockouts).
    Zip3,
    /// Immediate load into every PE.
    Imm,
    /// Copy of a hardwired index register along `Axis`.
    Index(Axis),
    /// Masked register write `where (mask) dst = src`.
    AssignMasked,
    /// Cluster-head broadcast along `Direction`.
    Broadcast(Direction),
    /// Wired-OR over bus clusters along `Direction`.
    BusOr(Direction),
    /// Nearest-neighbour transfer towards `Direction`.
    Shift(Direction),
    /// Controller-side global-OR condition read.
    GlobalOr,
}

impl MicroOp {
    /// The step class this micro-op is charged as.
    pub fn class(self) -> crate::controller::Op {
        use crate::controller::Op;
        match self {
            MicroOp::Map
            | MicroOp::Zip
            | MicroOp::Zip3
            | MicroOp::Imm
            | MicroOp::Index(_)
            | MicroOp::AssignMasked => Op::Alu,
            MicroOp::Broadcast(_) => Op::Broadcast,
            MicroOp::BusOr(_) => Op::BusOr,
            MicroOp::Shift(_) => Op::Shift,
            MicroOp::GlobalOr => Op::GlobalOr,
        }
    }

    /// The data-movement direction, for micro-ops that have one.
    pub fn direction(self) -> Option<Direction> {
        match self {
            MicroOp::Broadcast(d) | MicroOp::BusOr(d) | MicroOp::Shift(d) => Some(d),
            _ => None,
        }
    }

    /// The bus axis engaged by this micro-op, if any.
    pub fn axis(self) -> Option<Axis> {
        match self {
            MicroOp::Index(a) => Some(a),
            _ => self.direction().map(Direction::axis),
        }
    }
}

/// Edge fill policy for [`crate::bus::shift_with`] / `Machine` shifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill<T> {
    /// Upstream-edge PEs receive this constant.
    Value(T),
    /// Toroidal wrap: edge PEs receive the wrapped neighbour's value.
    Wrap,
}

/// Backend-internal resource counters, for cache/arena observability.
///
/// All counters are cumulative since backend construction (or the last
/// [`Executor::reset_stats`]). A backend without caches reports zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Bus-plan cache lookups that found a plan for the switch pattern.
    pub plan_hits: u64,
    /// Bus-plan cache lookups that had to derive clusters from scratch.
    pub plan_misses: u64,
    /// Mask allocations served by a fresh host allocation.
    pub arena_fresh: u64,
    /// Mask allocations recycled from the backend's arena.
    pub arena_reused: u64,
}

impl ExecStats {
    /// Fraction of bus-plan lookups served from the cache (0 when none ran).
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }

    /// Counterwise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            plan_hits: self.plan_hits.saturating_sub(earlier.plan_hits),
            plan_misses: self.plan_misses.saturating_sub(earlier.plan_misses),
            arena_fresh: self.arena_fresh.saturating_sub(earlier.arena_fresh),
            arena_reused: self.arena_reused.saturating_sub(earlier.arena_reused),
        }
    }
}

/// An execution substrate for the PPA micro-op ISA.
///
/// The executor owns the *mechanics* of each micro-op: how planes and masks
/// are represented and how the per-PE effects are computed. It never touches
/// the controller — step accounting, phase labels, fault application and
/// activity statistics all live in [`Machine`](crate::Machine), which calls
/// exactly one executor method per issued instruction.
///
/// `Mask` is the backend's representation of a `Plane<bool>` used as a bus
/// switch pattern or an enable set inside the bit-serial `min` loop. The
/// scalar backend keeps it as a `Plane<bool>`; the packed backend uses
/// 64-PE-per-word bitsets.
pub trait Executor: std::fmt::Debug + Clone {
    /// Backend representation of a boolean mask plane.
    type Mask: Clone + std::fmt::Debug + PartialEq;

    /// Short backend name used to key wall-clock attribution
    /// (`exec.<NAME>.<class>.ns` metrics, folded-stack frames). The three
    /// built-in backends report `"scalar"`, `"packed"`, `"threaded"`.
    const NAME: &'static str = "custom";

    /// Converts a plane into the backend mask representation (uncosted
    /// mechanics; the machine charges the step where conversion is an
    /// instruction).
    fn mask_from_plane(&mut self, dim: Dim, plane: &Plane<bool>) -> Self::Mask;

    /// Converts a backend mask back to a plane (uncosted mechanics).
    fn mask_to_plane(&self, dim: Dim, mask: &Self::Mask) -> Plane<bool>;

    /// A mask with every PE set to `value`.
    fn mask_filled(&mut self, dim: Dim, value: bool) -> Self::Mask;

    /// Number of set PEs in the mask.
    fn mask_count(&self, dim: Dim, mask: &Self::Mask) -> usize;

    /// Extracts bit `j` of every (non-negative) PE value as a mask.
    fn bit_plane(&mut self, dim: Dim, src: &Plane<i64>, j: u32) -> Self::Mask;

    /// The bit-serial voting step: `keep_low` selects the Min rule
    /// `enable && !bit`; otherwise the Max rule `enable && bit`.
    fn vote(
        &mut self,
        dim: Dim,
        enable: &Self::Mask,
        bit: &Self::Mask,
        keep_low: bool,
    ) -> Self::Mask;

    /// The bit-serial knockout step: `keep_low` selects the Min rule
    /// `enable && !(present && bit)`; otherwise the Max rule
    /// `enable && (!present || bit)`.
    fn knockout(
        &mut self,
        dim: Dim,
        enable: &Self::Mask,
        present: &Self::Mask,
        bit: &Self::Mask,
        keep_low: bool,
    ) -> Self::Mask;

    /// Wired-OR of `values` over the clusters induced by the `open` mask.
    fn mask_bus_or(
        &mut self,
        dim: Dim,
        values: &Self::Mask,
        dir: Direction,
        open: &Self::Mask,
    ) -> Result<Self::Mask, MachineError>;

    /// Cluster-head broadcast with the switch pattern given as a plane.
    ///
    /// `T: 'static` (here and on the other plane-moving micro-ops) lets a
    /// backend hand the plane's shared storage to persistent worker
    /// threads; every plane in the instruction set holds owned values.
    fn broadcast<T: Copy + Send + Sync + 'static>(
        &mut self,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<T>, MachineError> {
        bus::broadcast(dim, src, dir, open)
    }

    /// Cluster-head broadcast with the switch pattern given as a backend
    /// mask.
    fn broadcast_masked<T: Copy + Send + Sync + 'static>(
        &mut self,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        open: &Self::Mask,
    ) -> Result<Plane<T>, MachineError>;

    /// Wired-OR with both operands as planes.
    fn bus_or(
        &mut self,
        dim: Dim,
        values: &Plane<bool>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<bool>, MachineError> {
        bus::bus_or(dim, values, dir, open)
    }

    /// Nearest-neighbour shift with an edge fill policy.
    fn shift<T: Copy + Send + Sync + 'static>(
        &mut self,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        fill: Fill<T>,
    ) -> Result<Plane<T>, MachineError> {
        bus::shift_with(dim, src, dir, fill)
    }

    /// Backend resource counters (cache hits, arena recycling).
    fn stats(&self) -> ExecStats {
        ExecStats::default()
    }

    /// Zeroes the backend resource counters.
    fn reset_stats(&mut self) {}
}

/// The historical eager `Vec<T>`-plane execution substrate.
///
/// Masks are ordinary `Plane<bool>` values and every bus instruction
/// re-derives cluster structure from the Open mask, exactly as the
/// pre-backend-split simulator did. This backend is the semantic reference:
/// the differential suite asserts other backends against it bit-for-bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl Executor for ScalarBackend {
    type Mask = Plane<bool>;

    const NAME: &'static str = "scalar";

    fn mask_from_plane(&mut self, _dim: Dim, plane: &Plane<bool>) -> Plane<bool> {
        plane.clone()
    }

    fn mask_to_plane(&self, _dim: Dim, mask: &Plane<bool>) -> Plane<bool> {
        mask.clone()
    }

    fn mask_filled(&mut self, dim: Dim, value: bool) -> Plane<bool> {
        Plane::filled(dim, value)
    }

    fn mask_count(&self, _dim: Dim, mask: &Plane<bool>) -> usize {
        mask.count_true()
    }

    fn bit_plane(&mut self, dim: Dim, src: &Plane<i64>, j: u32) -> Plane<bool> {
        let data = src
            .as_slice()
            .iter()
            .map(|&x| {
                debug_assert!(x >= 0, "bit-serial scan expects non-negative values");
                (x >> j) & 1 == 1
            })
            .collect();
        Plane::from_vec(dim, data)
    }

    fn vote(
        &mut self,
        dim: Dim,
        enable: &Plane<bool>,
        bit: &Plane<bool>,
        keep_low: bool,
    ) -> Plane<bool> {
        let (e, b) = (enable.as_slice(), bit.as_slice());
        let data = if keep_low {
            (0..dim.len()).map(|i| e[i] && !b[i]).collect()
        } else {
            (0..dim.len()).map(|i| e[i] && b[i]).collect()
        };
        Plane::from_vec(dim, data)
    }

    fn knockout(
        &mut self,
        dim: Dim,
        enable: &Plane<bool>,
        present: &Plane<bool>,
        bit: &Plane<bool>,
        keep_low: bool,
    ) -> Plane<bool> {
        let (e, p, b) = (enable.as_slice(), present.as_slice(), bit.as_slice());
        let data = if keep_low {
            (0..dim.len()).map(|i| e[i] && !(p[i] && b[i])).collect()
        } else {
            (0..dim.len()).map(|i| e[i] && (!p[i] || b[i])).collect()
        };
        Plane::from_vec(dim, data)
    }

    fn mask_bus_or(
        &mut self,
        dim: Dim,
        values: &Plane<bool>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<bool>, MachineError> {
        bus::bus_or(dim, values, dir, open)
    }

    fn broadcast_masked<T: Copy + Send + Sync + 'static>(
        &mut self,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<T>, MachineError> {
        bus::broadcast(dim, src, dir, open)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_op_classes_cover_all_step_classes() {
        use crate::controller::Op;
        assert_eq!(MicroOp::Map.class(), Op::Alu);
        assert_eq!(MicroOp::AssignMasked.class(), Op::Alu);
        assert_eq!(MicroOp::Broadcast(Direction::East).class(), Op::Broadcast);
        assert_eq!(MicroOp::BusOr(Direction::South).class(), Op::BusOr);
        assert_eq!(MicroOp::Shift(Direction::West).class(), Op::Shift);
        assert_eq!(MicroOp::GlobalOr.class(), Op::GlobalOr);
    }

    #[test]
    fn micro_op_axis_follows_direction() {
        assert_eq!(MicroOp::Broadcast(Direction::East).axis(), Some(Axis::Row));
        assert_eq!(MicroOp::BusOr(Direction::North).axis(), Some(Axis::Col));
        assert_eq!(MicroOp::Map.axis(), None);
        assert_eq!(MicroOp::Index(Axis::Row).axis(), Some(Axis::Row));
        assert_eq!(
            MicroOp::Shift(Direction::South).direction(),
            Some(Direction::South)
        );
    }

    #[test]
    fn scalar_vote_and_knockout_match_the_paper_rules() {
        let dim = Dim::new(1, 4);
        let mut be = ScalarBackend;
        let e = Plane::from_vec(dim, vec![true, true, true, false]);
        let b = Plane::from_vec(dim, vec![false, true, false, true]);
        let min_votes = be.vote(dim, &e, &b, true);
        assert_eq!(min_votes.as_slice(), &[true, false, true, false]);
        let max_votes = be.vote(dim, &e, &b, false);
        assert_eq!(max_votes.as_slice(), &[false, true, false, false]);
        let p = Plane::from_vec(dim, vec![true, true, false, false]);
        let min_keep = be.knockout(dim, &e, &p, &b, true);
        assert_eq!(min_keep.as_slice(), &[true, false, true, false]);
        let max_keep = be.knockout(dim, &e, &p, &b, false);
        assert_eq!(max_keep.as_slice(), &[false, true, true, false]);
    }

    #[test]
    fn exec_stats_hit_rate_and_since() {
        let a = ExecStats {
            plan_hits: 9,
            plan_misses: 1,
            arena_fresh: 4,
            arena_reused: 16,
        };
        assert!((a.plan_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(ExecStats::default().plan_hit_rate(), 0.0);
        let d = a.since(&ExecStats {
            plan_hits: 4,
            plan_misses: 1,
            arena_fresh: 4,
            arena_reused: 6,
        });
        assert_eq!(d.plan_hits, 5);
        assert_eq!(d.plan_misses, 0);
        assert_eq!(d.arena_reused, 10);
    }
}
