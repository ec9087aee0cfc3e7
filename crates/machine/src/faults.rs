//! Switch-box fault injection, transient glitches, and the runtime BIST.
//!
//! The PPA's practicality argument (paper reference \[2\]) rests on its
//! switch boxes being simple enough to implement — and simple hardware
//! still fails. This module models the two stuck-at failure modes of a
//! switch box, a seeded transient (one-shot) glitch process, and the
//! built-in self-test sweep that a bring-up team would run: *which bus
//! patterns still work with a given fault map, and does the algorithm
//! layer notice when one doesn't?*
//!
//! * [`SwitchFault::StuckShort`] — the switch can no longer cut the bus:
//!   the node is forced to propagate and can never inject. A cluster
//!   head planted on such a node silently disappears, so downstream
//!   nodes read the *previous* head's value.
//! * [`SwitchFault::StuckOpen`] — the switch can no longer close: the
//!   node always injects, splitting every line it sits on.
//!
//! [`FaultMap::apply`] rewrites an intended Open mask into the effective
//! one. A map attached to a live [`Machine`](crate::Machine) (via
//! [`Machine::attach_faults`](crate::Machine::attach_faults)) intercepts
//! every switch-configuring instruction, so stuck faults corrupt real
//! algorithm runs; [`TransientFaults`] adds a deterministic per-transfer
//! probability of a one-shot bit flip. [`bist_sweep`] lists the
//! executable patterns behind
//! [`Machine::self_test`](crate::Machine::self_test), which runs them on
//! the live machine and *localizes* disagreeing switch boxes.

use crate::geometry::{Coord, Dim, Direction};
use crate::plane::Plane;
use crate::StepReport;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A stuck-at switch-box fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchFault {
    /// The switch is stuck in the Short configuration (cannot inject).
    StuckShort,
    /// The switch is stuck in the Open configuration (always injects).
    StuckOpen,
}

impl fmt::Display for SwitchFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchFault::StuckShort => f.write_str("stuck-short"),
            SwitchFault::StuckOpen => f.write_str("stuck-open"),
        }
    }
}

/// A set of faulty switch boxes.
///
/// Backed by a `Vec` kept sorted by [`Coord`], so bulk campaigns stay
/// `O(k log k)` and [`FaultMap::fault_at`] is a binary search rather than
/// a linear scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultMap {
    /// Sorted by `Coord` (row-major order), at most one fault per node.
    faults: Vec<(Coord, SwitchFault)>,
}

impl FaultMap {
    /// An empty (healthy) map.
    pub fn new() -> Self {
        FaultMap::default()
    }

    /// A reproducible random map: exactly `count` distinct faulty switch
    /// boxes inside `dim`, each stuck Short or Open with equal
    /// probability, drawn deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `count > dim.len()` — there are not enough switch boxes.
    pub fn random(dim: Dim, count: usize, seed: u64) -> Self {
        assert!(
            count <= dim.len(),
            "cannot place {count} faults on a {dim} array"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut map = FaultMap::new();
        while map.len() < count {
            let at = dim.coord(rng.gen_range(0..dim.len()));
            let fault = if rng.gen_bool(0.5) {
                SwitchFault::StuckShort
            } else {
                SwitchFault::StuckOpen
            };
            // Re-drawing an occupied node replaces it; keep drawing until
            // `count` distinct nodes are hit (terminates: count <= len).
            if map.fault_at(at).is_none() {
                map.inject(at, fault);
            }
        }
        map
    }

    /// Marks the switch box at `at` as faulty. A later fault at the same
    /// coordinate replaces the earlier one.
    pub fn inject(&mut self, at: Coord, fault: SwitchFault) -> &mut Self {
        match self.faults.binary_search_by_key(&at, |&(c, _)| c) {
            Ok(i) => self.faults[i] = (at, fault),
            Err(i) => self.faults.insert(i, (at, fault)),
        }
        self
    }

    /// The fault at `at`, if any.
    pub fn fault_at(&self, at: Coord) -> Option<SwitchFault> {
        self.faults
            .binary_search_by_key(&at, |&(c, _)| c)
            .ok()
            .map(|i| self.faults[i].1)
    }

    /// Number of faulty switch boxes.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the map is healthy.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faulty switch boxes, sorted by coordinate.
    pub fn iter(&self) -> impl Iterator<Item = (Coord, SwitchFault)> + '_ {
        self.faults.iter().copied()
    }

    /// Row indices touched by at least one fault (sorted, deduplicated).
    pub fn faulty_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.faults.iter().map(|(c, _)| c.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Column indices touched by at least one fault (sorted, deduplicated).
    pub fn faulty_cols(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.faults.iter().map(|(c, _)| c.col).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// The faults whose column lies inside `cols` (sorted by
    /// coordinate) — the physical column band a lane-replicated vote
    /// indicts when one replica disagrees (see `LaneLayout::band`).
    /// Targeted BIST localization intersects its sweep verdict with
    /// this window to name the switch boxes behind a vote disagreement.
    pub fn faults_in_cols(&self, cols: std::ops::Range<usize>) -> Vec<(Coord, SwitchFault)> {
        self.faults
            .iter()
            .filter(|(c, _)| cols.contains(&c.col))
            .copied()
            .collect()
    }

    /// Rewrites an intended Open mask into the mask the faulty hardware
    /// actually realizes.
    pub fn apply(&self, intended: &Plane<bool>) -> Plane<bool> {
        let mut effective = intended.clone();
        for &(c, fault) in &self.faults {
            if intended.dim().contains(c) {
                effective.set(
                    c,
                    match fault {
                        SwitchFault::StuckShort => false,
                        SwitchFault::StuckOpen => true,
                    },
                );
            }
        }
        effective
    }

    /// Whether this fault map changes the effect of an instruction that
    /// would configure the switches as `intended` — i.e. whether any
    /// fault disagrees with the intended setting at its location.
    pub fn distorts(&self, intended: &Plane<bool>) -> bool {
        self.faults.iter().any(|&(c, fault)| {
            intended.dim().contains(c)
                && match fault {
                    SwitchFault::StuckShort => *intended.get(c),
                    SwitchFault::StuckOpen => !*intended.get(c),
                }
        })
    }

    /// The coordinates whose intended configuration the map overrides.
    pub fn distorted_nodes(&self, intended: &Plane<bool>) -> Vec<Coord> {
        self.faults
            .iter()
            .filter(|&&(c, fault)| {
                intended.dim().contains(c)
                    && match fault {
                        SwitchFault::StuckShort => *intended.get(c),
                        SwitchFault::StuckOpen => !*intended.get(c),
                    }
            })
            .map(|&(c, _)| c)
            .collect()
    }
}

/// A seeded transient-fault process: on every bus transfer, with
/// probability `per_transfer_prob`, a single uniformly chosen switch box
/// flips its configuration for *that transfer only* (a one-shot glitch,
/// as opposed to the permanent stuck-at faults of [`FaultMap`]).
///
/// The process is deterministic given the seed and the sequence of
/// transfers, so fault campaigns replay exactly.
#[derive(Debug, Clone)]
pub struct TransientFaults {
    per_transfer_prob: f64,
    rng: SmallRng,
}

impl TransientFaults {
    /// A glitch process flipping one switch per transfer with the given
    /// probability.
    ///
    /// # Panics
    /// Panics unless `0.0 <= per_transfer_prob <= 1.0`.
    pub fn new(per_transfer_prob: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&per_transfer_prob),
            "transient fault probability must be in [0, 1]"
        );
        TransientFaults {
            per_transfer_prob,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The per-transfer glitch probability.
    pub fn probability(&self) -> f64 {
        self.per_transfer_prob
    }

    /// Draws the glitch (if any) for the next bus transfer: the
    /// coordinate whose Open bit flips for this one transfer.
    pub fn sample(&mut self, dim: Dim) -> Option<Coord> {
        if self.rng.gen_bool(self.per_transfer_prob) {
            Some(dim.coord(self.rng.gen_range(0..dim.len())))
        } else {
            None
        }
    }
}

/// One executable step of the BIST sweep: broadcast a known source plane
/// with `open` in `dir` and compare the readback against the healthy
/// expectation.
#[derive(Debug, Clone)]
pub struct BistPattern {
    /// Human-readable pattern name (for reports).
    pub name: &'static str,
    /// Data-movement direction of the test broadcast.
    pub dir: Direction,
    /// Intended Open mask.
    pub open: Plane<bool>,
}

/// The passive two-pattern sweep: for an array of shape `dim`, a set of
/// Open masks that together make every switch box both inject and
/// propagate — any single stuck-at fault *distorts* at least one pattern
/// (in the [`FaultMap::distorts`] sense). Retained for mask-level
/// coverage arguments; the executable sweep is [`bist_sweep`].
pub fn bist_patterns(dim: Dim) -> Vec<Plane<bool>> {
    vec![
        // Everyone opens: catches every StuckShort.
        Plane::filled(dim, true),
        // No one opens: catches every StuckOpen.
        Plane::filled(dim, false),
    ]
}

/// The executable BIST sweep run by
/// [`Machine::self_test`](crate::Machine::self_test).
///
/// Three patterns per axis:
///
/// 1. **all-Open** — every node injects; a stuck-Short node reads its
///    cyclic upstream neighbour instead of itself, localizing the fault
///    at the mismatching coordinate;
/// 2. **single head at line position 0** and
/// 3. **single head at line position 1** (arrays with lines of length
///    ≥ 2) — every line is one cluster; a stuck-Open node splits its
///    line and, because the test source is the unique flat-index plane,
///    the wrong value *names* the rogue driver. The two head positions
///    ensure every node is intended-Short in at least one pattern.
///
/// Any single stuck-at fault disagrees with at least one pattern, so the
/// sweep both detects and localizes it.
pub fn bist_sweep(dim: Dim) -> Vec<BistPattern> {
    let mut sweep = vec![BistPattern {
        name: "all-open (east)",
        dir: Direction::East,
        open: Plane::filled(dim, true),
    }];
    sweep.push(BistPattern {
        name: "heads col 0 (east)",
        dir: Direction::East,
        open: Plane::from_fn(dim, |c| c.col == 0),
    });
    if dim.cols > 1 {
        sweep.push(BistPattern {
            name: "heads col 1 (east)",
            dir: Direction::East,
            open: Plane::from_fn(dim, |c| c.col == 1),
        });
    }
    sweep.push(BistPattern {
        name: "all-open (south)",
        dir: Direction::South,
        open: Plane::filled(dim, true),
    });
    sweep.push(BistPattern {
        name: "heads row 0 (south)",
        dir: Direction::South,
        open: Plane::from_fn(dim, |c| c.row == 0),
    });
    if dim.rows > 1 {
        sweep.push(BistPattern {
            name: "heads row 1 (south)",
            dir: Direction::South,
            open: Plane::from_fn(dim, |c| c.row == 1),
        });
    }
    sweep
}

/// Outcome of one [`Machine::self_test`](crate::Machine::self_test) run:
/// the switch boxes whose observed behaviour disagreed with their
/// intended configuration, plus the cost of finding out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Localized faults, sorted by coordinate. The inferred stuck-at
    /// kind is exact for any single fault per bus cluster; overlapping
    /// faults are still *detected* but may be attributed to a neighbour.
    pub located: Vec<(Coord, SwitchFault)>,
    /// Number of BIST patterns executed.
    pub patterns_run: usize,
    /// Controller steps the self-test consumed.
    pub steps: StepReport,
}

impl FaultReport {
    /// Whether the sweep found no disagreeing switch box.
    pub fn is_healthy(&self) -> bool {
        self.located.is_empty()
    }

    /// The located fault coordinates, sorted.
    pub fn coords(&self) -> Vec<Coord> {
        self.located.iter().map(|&(c, _)| c).collect()
    }

    /// Row indices touched by located faults (sorted, deduplicated).
    pub fn faulty_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.located.iter().map(|(c, _)| c.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Column indices touched by located faults (sorted, deduplicated).
    pub fn faulty_cols(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.located.iter().map(|(c, _)| c.col).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Records one located fault, keeping the list sorted and unique by
    /// coordinate (first attribution wins).
    pub(crate) fn note(&mut self, at: Coord, fault: SwitchFault) {
        if let Err(i) = self.located.binary_search_by_key(&at, |&(c, _)| c) {
            self.located.insert(i, (at, fault));
        }
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_healthy() {
            write!(
                f,
                "self-test: healthy ({} patterns, {} steps)",
                self.patterns_run,
                self.steps.total()
            )
        } else {
            write!(
                f,
                "self-test: {} faulty switch box(es) [",
                self.located.len()
            )?;
            for (i, (c, k)) in self.located.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "({},{}) {k}", c.row, c.col)?;
            }
            write!(
                f,
                "] ({} patterns, {} steps)",
                self.patterns_run,
                self.steps.total()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus;

    fn dim() -> Dim {
        Dim::square(4)
    }

    #[test]
    fn inject_and_query() {
        let mut fm = FaultMap::new();
        fm.inject(Coord::new(1, 2), SwitchFault::StuckOpen);
        assert_eq!(fm.fault_at(Coord::new(1, 2)), Some(SwitchFault::StuckOpen));
        assert_eq!(fm.fault_at(Coord::new(0, 0)), None);
        assert_eq!(fm.len(), 1);
        // Re-injection replaces.
        fm.inject(Coord::new(1, 2), SwitchFault::StuckShort);
        assert_eq!(fm.fault_at(Coord::new(1, 2)), Some(SwitchFault::StuckShort));
        assert_eq!(fm.len(), 1);
    }

    #[test]
    fn bulk_injection_stays_sorted_and_unique() {
        let mut fm = FaultMap::new();
        // Inject in reverse row-major order; the map must stay sorted.
        for idx in (0..16).rev() {
            fm.inject(dim().coord(idx), SwitchFault::StuckOpen);
        }
        assert_eq!(fm.len(), 16);
        let coords: Vec<Coord> = fm.iter().map(|(c, _)| c).collect();
        let mut sorted = coords.clone();
        sorted.sort();
        assert_eq!(coords, sorted);
        for idx in 0..16 {
            assert!(fm.fault_at(dim().coord(idx)).is_some());
        }
    }

    #[test]
    fn random_maps_are_reproducible_and_distinct() {
        let a = FaultMap::random(dim(), 5, 42);
        let b = FaultMap::random(dim(), 5, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let c = FaultMap::random(dim(), 5, 43);
        assert_ne!(a, c, "different seeds should differ (16 choose 5 maps)");
        // Saturating the array is allowed.
        let full = FaultMap::random(dim(), 16, 7);
        assert_eq!(full.len(), 16);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn random_rejects_overfull() {
        let _ = FaultMap::random(dim(), 17, 0);
    }

    #[test]
    fn faulty_rows_and_cols_dedupe() {
        let mut fm = FaultMap::new();
        fm.inject(Coord::new(1, 2), SwitchFault::StuckOpen)
            .inject(Coord::new(1, 3), SwitchFault::StuckShort)
            .inject(Coord::new(3, 2), SwitchFault::StuckOpen);
        assert_eq!(fm.faulty_rows(), vec![1, 3]);
        assert_eq!(fm.faulty_cols(), vec![2, 3]);
    }

    #[test]
    fn faults_in_cols_windows_a_single_fault_map() {
        // A lone fault lands in exactly one band of a 3-lane n=4 layout.
        let mut fm = FaultMap::new();
        fm.inject(Coord::new(2, 5), SwitchFault::StuckOpen);
        assert_eq!(
            fm.faults_in_cols(4..8),
            vec![(Coord::new(2, 5), SwitchFault::StuckOpen)]
        );
        assert!(fm.faults_in_cols(0..4).is_empty());
        assert!(fm.faults_in_cols(8..12).is_empty());
    }

    #[test]
    fn faults_in_cols_windows_a_seeded_multi_fault_map() {
        let wide = Dim::new(4, 12);
        let fm = FaultMap::random(wide, 7, 0x5eed);
        let mut seen = 0usize;
        for band in [0..4usize, 4..8, 8..12] {
            let in_band = fm.faults_in_cols(band.clone());
            seen += in_band.len();
            // Exactly the map's faults whose column is in the window,
            // in the map's own (sorted) order.
            let expect: Vec<_> = fm.iter().filter(|(c, _)| band.contains(&c.col)).collect();
            assert_eq!(in_band, expect);
        }
        assert_eq!(seen, fm.len(), "the three bands partition the array");
        assert!(fm.faults_in_cols(12..16).is_empty());
    }

    #[test]
    fn apply_overrides_intended_mask() {
        let mut fm = FaultMap::new();
        fm.inject(Coord::new(0, 0), SwitchFault::StuckShort)
            .inject(Coord::new(2, 2), SwitchFault::StuckOpen);
        let intended = Plane::from_fn(dim(), |c| c.col == 0);
        let effective = fm.apply(&intended);
        assert!(!*effective.get(Coord::new(0, 0)), "stuck-short wins");
        assert!(*effective.get(Coord::new(2, 2)), "stuck-open wins");
        assert!(
            *effective.get(Coord::new(1, 0)),
            "healthy nodes keep intent"
        );
    }

    #[test]
    fn distortion_detection_is_exact() {
        let mut fm = FaultMap::new();
        fm.inject(Coord::new(1, 1), SwitchFault::StuckOpen);
        // A mask that already opens (1,1) is NOT distorted.
        let agrees = Plane::from_fn(dim(), |c| c.row == 1);
        assert!(!fm.distorts(&agrees));
        // A mask that shorts (1,1) is distorted.
        let disagrees = Plane::from_fn(dim(), |c| c.row == 0);
        assert!(fm.distorts(&disagrees));
        assert_eq!(fm.distorted_nodes(&disagrees), vec![Coord::new(1, 1)]);
    }

    #[test]
    fn stuck_short_swallows_a_cluster_head() {
        // Intended: heads at columns 0 and 2 (East movement). The head at
        // (0,2) is stuck Short, so row 0 becomes a single cluster driven
        // by column 0.
        let mut fm = FaultMap::new();
        fm.inject(Coord::new(0, 2), SwitchFault::StuckShort);
        let intended = Plane::from_fn(dim(), |c| c.col == 0 || c.col == 2);
        let effective = fm.apply(&intended);
        let src = Plane::from_fn(dim(), |c| c.col as i64);
        let healthy = bus::broadcast(dim(), &src, Direction::East, &intended).unwrap();
        let faulty = bus::broadcast(dim(), &src, Direction::East, &effective).unwrap();
        assert_eq!(healthy.row(0), &[0, 0, 2, 2]);
        assert_eq!(faulty.row(0), &[0, 0, 0, 0], "row 0 lost its second head");
        assert_eq!(faulty.row(1), healthy.row(1), "other rows unaffected");
    }

    #[test]
    fn stuck_open_splits_a_line() {
        let mut fm = FaultMap::new();
        fm.inject(Coord::new(1, 2), SwitchFault::StuckOpen);
        let intended = Plane::from_fn(dim(), |c| c.col == 0);
        let effective = fm.apply(&intended);
        let src = Plane::from_fn(dim(), |c| (c.row * 10 + c.col) as i64);
        let faulty = bus::broadcast(dim(), &src, Direction::East, &effective).unwrap();
        // Row 1 now has heads at cols 0 and 2.
        assert_eq!(faulty.row(1), &[10, 10, 12, 12]);
    }

    #[test]
    fn bist_patterns_catch_any_single_fault() {
        let patterns = bist_patterns(dim());
        for r in 0..4 {
            for c in 0..4 {
                for fault in [SwitchFault::StuckShort, SwitchFault::StuckOpen] {
                    let mut fm = FaultMap::new();
                    fm.inject(Coord::new(r, c), fault);
                    assert!(
                        patterns.iter().any(|p| fm.distorts(p)),
                        "fault {fault:?} at ({r},{c}) escapes the BIST sweep"
                    );
                }
            }
        }
    }

    #[test]
    fn bist_sweep_distorts_on_any_single_fault() {
        let sweep = bist_sweep(dim());
        for r in 0..4 {
            for c in 0..4 {
                for fault in [SwitchFault::StuckShort, SwitchFault::StuckOpen] {
                    let mut fm = FaultMap::new();
                    fm.inject(Coord::new(r, c), fault);
                    assert!(
                        sweep.iter().any(|p| fm.distorts(&p.open)),
                        "fault {fault:?} at ({r},{c}) escapes the executable sweep"
                    );
                }
            }
        }
    }

    #[test]
    fn transient_faults_replay_deterministically() {
        let d = dim();
        let mut a = TransientFaults::new(0.5, 11);
        let mut b = TransientFaults::new(0.5, 11);
        let sa: Vec<Option<Coord>> = (0..64).map(|_| a.sample(d)).collect();
        let sb: Vec<Option<Coord>> = (0..64).map(|_| b.sample(d)).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(Option::is_some), "p=0.5 over 64 draws");
        assert!(sa.iter().any(Option::is_none));
        let mut never = TransientFaults::new(0.0, 11);
        assert!((0..64).all(|_| never.sample(d).is_none()));
        let mut always = TransientFaults::new(1.0, 11);
        assert!((0..64).all(|_| always.sample(d).is_some()));
    }

    #[test]
    fn out_of_range_faults_are_inert() {
        let mut fm = FaultMap::new();
        fm.inject(Coord::new(9, 9), SwitchFault::StuckOpen);
        let intended = Plane::filled(dim(), false);
        assert!(!fm.distorts(&intended));
        assert_eq!(fm.apply(&intended), intended);
    }

    #[test]
    fn fault_report_notes_sorted_unique() {
        let mut r = FaultReport::default();
        r.note(Coord::new(2, 0), SwitchFault::StuckOpen);
        r.note(Coord::new(0, 1), SwitchFault::StuckShort);
        r.note(Coord::new(2, 0), SwitchFault::StuckShort); // duplicate coord
        assert_eq!(r.coords(), vec![Coord::new(0, 1), Coord::new(2, 0)]);
        assert_eq!(r.located[1].1, SwitchFault::StuckOpen, "first wins");
        assert_eq!(r.faulty_rows(), vec![0, 2]);
        assert_eq!(r.faulty_cols(), vec![0, 1]);
        assert!(!r.is_healthy());
        assert!(r.to_string().contains("(2,0)"));
    }
}
