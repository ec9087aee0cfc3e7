//! Lane geometry for batched solving.
//!
//! A lane-batched machine packs `L` independent `n x n` problems side by
//! side into one `n x (n * L)` mesh: lane `l` owns the column window
//! `l*n .. (l+1)*n`. Column buses never cross a lane boundary (each
//! column belongs to exactly one lane), and west/east bus operations
//! whose Open heads sit at per-lane columns partition at lane
//! boundaries because a cluster runs from its head up to the *next*
//! head — with one head per lane-row segment, no cluster can leak into
//! a neighbour lane.
//!
//! [`LaneLayout`] is the pure geometry: it owns no storage and issues
//! no instructions, it just maps between per-lane `n x n` coordinates
//! and the composite plane.

use crate::geometry::{Coord, Dim};
use crate::plane::Plane;
use std::ops::Range;

/// Geometry of a lane-batched `n x (n * lanes)` machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneLayout {
    n: usize,
    lanes: usize,
}

impl LaneLayout {
    /// A layout of `lanes` independent `n x n` problems.
    ///
    /// # Panics
    /// If `n` or `lanes` is zero.
    pub fn new(n: usize, lanes: usize) -> Self {
        assert!(n > 0, "lane size must be positive");
        assert!(lanes > 0, "lane count must be positive");
        LaneLayout { n, lanes }
    }

    /// Per-lane problem size (rows of the machine, columns per lane).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of lanes packed side by side.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Dimensions of the composite machine: `n` rows, `n * lanes` columns.
    pub fn dim(&self) -> Dim {
        Dim::new(self.n, self.n * self.lanes)
    }

    /// The composite-plane column window owned by `lane`.
    ///
    /// # Panics
    /// If `lane` is out of range.
    pub fn col_range(&self, lane: usize) -> Range<usize> {
        assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
        lane * self.n..(lane + 1) * self.n
    }

    /// The physical column band of `lane` — the same window as
    /// [`LaneLayout::col_range`], named for the fault-mapping direction:
    /// a redundant vote that flags lane `l` indicts exactly the switch
    /// boxes whose column lies in `band(l)`, which is what targeted BIST
    /// localization (see `FaultMap::faults_in_cols` in this crate's
    /// `faults` module) takes as its search window.
    ///
    /// # Panics
    /// If `lane` is out of range.
    pub fn band(&self, lane: usize) -> Range<usize> {
        self.col_range(lane)
    }

    /// Which lane a composite column belongs to.
    pub fn lane_of_col(&self, col: usize) -> usize {
        col / self.n
    }

    /// Maps a composite coordinate to `(lane, row, col-within-lane)`.
    pub fn split(&self, c: Coord) -> (usize, usize, usize) {
        (c.col / self.n, c.row, c.col % self.n)
    }

    /// Builds a composite plane from a per-lane generator
    /// `f(lane, row, col)` where `row`/`col` are lane-local.
    pub fn compose<T>(&self, mut f: impl FnMut(usize, usize, usize) -> T) -> Plane<T> {
        let n = self.n;
        Plane::from_fn(self.dim(), |c| f(c.col / n, c.row, c.col % n))
    }

    /// Extracts one lane's `n x n` sub-plane as a row-major vector.
    pub fn extract<T: Clone>(&self, plane: &Plane<T>, lane: usize) -> Vec<T> {
        assert_eq!(plane.dim(), self.dim(), "plane does not match this layout");
        let cols = self.col_range(lane);
        let mut out = Vec::with_capacity(self.n * self.n);
        for row in 0..self.n {
            out.extend_from_slice(&plane.row(row)[cols.clone()]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_round_trips() {
        let l = LaneLayout::new(4, 3);
        assert_eq!(l.dim(), Dim::new(4, 12));
        assert_eq!(l.col_range(1), 4..8);
        assert_eq!(l.lane_of_col(11), 2);
        assert_eq!(l.split(Coord { row: 2, col: 9 }), (2, 2, 1));
    }

    #[test]
    fn band_is_the_lane_column_window() {
        let l = LaneLayout::new(5, 4);
        for lane in 0..4 {
            assert_eq!(l.band(lane), l.col_range(lane));
            // Every column of the band maps back to its lane.
            for col in l.band(lane) {
                assert_eq!(l.lane_of_col(col), lane);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn band_rejects_out_of_range_lanes() {
        let _ = LaneLayout::new(4, 3).band(3);
    }

    #[test]
    fn compose_then_extract_is_identity() {
        let l = LaneLayout::new(3, 4);
        let plane = l.compose(|lane, r, c| (lane * 100 + r * 10 + c) as i64);
        for lane in 0..4 {
            let sub = l.extract(&plane, lane);
            for r in 0..3 {
                for c in 0..3 {
                    assert_eq!(sub[r * 3 + c], (lane * 100 + r * 10 + c) as i64);
                }
            }
        }
    }
}
