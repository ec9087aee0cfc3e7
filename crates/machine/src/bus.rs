//! Reconfigurable bus semantics: cluster resolution, broadcast, wired-OR.
//!
//! For a given data-movement direction the relevant bus system is a set of
//! independent *lines* (rows for East/West, columns for North/South). The
//! Open switches on a line cut it into *clusters*: each cluster consists of
//! an Open node (its **head**, which drives the sub-bus) followed by the
//! Short nodes downstream of it, in cyclic order, up to the next Open node.
//!
//! * [`broadcast`] delivers, to every node, the `src` value of its cluster
//!   head — the paper's `broadcast(src, dir, L)` primitive. A line with no
//!   Open node has no driver and is reported as a fault.
//! * [`bus_or`] delivers, to every node, the logical OR of `values` over
//!   all nodes of its cluster — the wired-OR used inside `min()`
//!   (statement 9 of the paper's routine). A line with no Open node behaves
//!   as a single cluster spanning the whole line.
//! * [`shift`] is the nearest-neighbour transfer `shift(src, dir)`.
//!
//! These functions are *uncosted* mechanics; issue them through
//! [`Machine`](crate::Machine) to have the controller count steps.

use crate::error::MachineError;
use crate::geometry::{Dim, Direction};
use crate::isa::Fill;
use crate::plane::Plane;

/// Per-node cluster heads for direction `dir` under the Open mask `open`.
///
/// Returns a vector mapping every flat PE index to the flat index of the
/// Open node driving its sub-bus. Lines without any Open node are returned
/// in the error variant (sorted ascending) since they have no driver.
pub fn cluster_heads(
    dim: Dim,
    dir: Direction,
    open: &Plane<bool>,
) -> Result<Vec<usize>, Vec<usize>> {
    let axis = dir.axis();
    let lines = dim.lines(axis);
    let len = dim.line_len(axis);
    let mut heads = vec![0usize; dim.len()];
    let mut faults = Vec::new();
    let open = open.as_slice();
    for line in 0..lines {
        // Find the last Open node in movement order, which (cyclically)
        // drives the positions before the first Open node.
        let mut driver: Option<usize> = None;
        for pos in (0..len).rev() {
            let idx = dim.line_index(dir, line, pos);
            if open[idx] {
                driver = Some(idx);
                break;
            }
        }
        match driver {
            None => faults.push(line),
            Some(mut drv) => {
                for pos in 0..len {
                    let idx = dim.line_index(dir, line, pos);
                    if open[idx] {
                        drv = idx;
                    }
                    heads[idx] = drv;
                }
            }
        }
    }
    if faults.is_empty() {
        Ok(heads)
    } else {
        Err(faults)
    }
}

/// The `broadcast(src, dir, L)` primitive: every node receives the `src`
/// value held by the Open node heading its cluster.
pub fn broadcast<T: Copy>(
    dim: Dim,
    src: &Plane<T>,
    dir: Direction,
    open: &Plane<bool>,
) -> Result<Plane<T>, MachineError> {
    check_dim(dim, src.dim())?;
    check_dim(dim, open.dim())?;
    let heads = cluster_heads(dim, dir, open).map_err(|lines| MachineError::BusFault {
        axis: dir.axis(),
        lines,
    })?;
    let s = src.as_slice();
    let data = (0..dim.len()).map(|i| s[heads[i]]).collect();
    Ok(Plane::from_vec(dim, data))
}

/// Per-node cluster *keys* for direction `dir` under the Open mask `open`,
/// tolerating driverless lines.
///
/// The key of a node is the flat index of the Open node driving its
/// sub-bus — identical to [`cluster_heads`] on driven lines. A line with no
/// Open node is keyed by its first node in movement order (the floating
/// segment spans the whole line) and reported in the returned `driverless`
/// list (sorted ascending). [`bus_or`] uses the keys directly; [`broadcast`]
/// treats a non-empty `driverless` list as a [`MachineError::BusFault`].
/// The packed backend's bus-plan cache stores exactly this derivation.
pub fn cluster_keys(dim: Dim, dir: Direction, open: &[bool]) -> (Vec<u32>, Vec<usize>) {
    let axis = dir.axis();
    let lines = dim.lines(axis);
    let len = dim.line_len(axis);
    let mut key = vec![0u32; dim.len()];
    let mut driverless = Vec::new();
    for line in 0..lines {
        let mut driver: Option<usize> = None;
        for pos in (0..len).rev() {
            let idx = dim.line_index(dir, line, pos);
            if open[idx] {
                driver = Some(idx);
                break;
            }
        }
        // With no Open node the whole line is one floating segment; use the
        // first node in movement order as its key.
        let mut drv = match driver {
            Some(d) => d,
            None => {
                driverless.push(line);
                dim.line_index(dir, line, 0)
            }
        };
        for pos in 0..len {
            let idx = dim.line_index(dir, line, pos);
            if open[idx] {
                drv = idx;
            }
            key[idx] = drv as u32;
        }
    }
    (key, driverless)
}

/// The wired-OR primitive: every node receives the OR of `values` over all
/// nodes of its cluster. A line with no Open node forms a single cluster.
pub fn bus_or(
    dim: Dim,
    values: &Plane<bool>,
    dir: Direction,
    open: &Plane<bool>,
) -> Result<Plane<bool>, MachineError> {
    check_dim(dim, values.dim())?;
    check_dim(dim, open.dim())?;
    let (key, _) = cluster_keys(dim, dir, open.as_slice());
    let v = values.as_slice();
    let mut acc = vec![false; dim.len()]; // indexed by cluster key (head idx)
    for (idx, &set) in v.iter().enumerate() {
        if set {
            acc[key[idx] as usize] = true;
        }
    }
    let data = (0..dim.len()).map(|i| acc[key[i] as usize]).collect();
    Ok(Plane::from_vec(dim, data))
}

/// The nearest-neighbour transfer with an explicit edge [`Fill`] policy:
/// every node receives the value of its nearest neighbour *against* `dir`
/// (i.e. data moves one step towards `dir`); upstream-edge nodes receive
/// the fill value, or the wrapped neighbour's value under [`Fill::Wrap`].
pub fn shift_with<T: Copy>(
    dim: Dim,
    src: &Plane<T>,
    dir: Direction,
    fill: Fill<T>,
) -> Result<Plane<T>, MachineError> {
    check_dim(dim, src.dim())?;
    let s = src.as_slice();
    let data = (0..dim.len())
        .map(|i| {
            let c = dim.coord(i);
            match fill {
                Fill::Value(v) => match c.neighbor(dir.opposite(), dim) {
                    Some(n) => s[dim.index(n)],
                    None => v,
                },
                Fill::Wrap => s[dim.index(c.neighbor_wrapping(dir.opposite(), dim))],
            }
        })
        .collect();
    Ok(Plane::from_vec(dim, data))
}

/// The `shift(src, dir)` primitive with a constant edge fill.
pub fn shift<T: Copy>(
    dim: Dim,
    src: &Plane<T>,
    dir: Direction,
    fill: T,
) -> Result<Plane<T>, MachineError> {
    shift_with(dim, src, dir, Fill::Value(fill))
}

/// Toroidal variant of [`shift`]: edge nodes receive the wrapped neighbour's
/// value instead of a fill.
pub fn shift_wrapping<T: Copy>(
    dim: Dim,
    src: &Plane<T>,
    dir: Direction,
) -> Result<Plane<T>, MachineError> {
    shift_with(dim, src, dir, Fill::Wrap)
}

fn check_dim(expected: Dim, found: Dim) -> Result<(), MachineError> {
    if expected == found {
        Ok(())
    } else {
        Err(MachineError::DimMismatch { expected, found })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Coord;

    fn dim4() -> Dim {
        Dim::square(4)
    }

    #[test]
    fn broadcast_single_open_drives_whole_line() {
        let dim = dim4();
        let src = Plane::from_fn(dim, |c| (c.row * 10 + c.col) as i64);
        // Open only column 1; broadcast East along rows.
        let open = Plane::from_fn(dim, |c| c.col == 1);
        let out = broadcast(dim, &src, Direction::East, &open).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(*out.at(r, c), (r * 10 + 1) as i64, "at ({r},{c})");
            }
        }
    }

    #[test]
    fn broadcast_clusters_split_at_open_nodes() {
        let dim = dim4();
        let src = Plane::from_fn(dim, |c| c.col as i64);
        // Row 0: open at cols 0 and 2, movement East.
        // Clusters (cyclic): {0,1} headed by 0, {2,3} headed by 2.
        let open = Plane::from_fn(dim, |c| c.row == 0 && (c.col == 0 || c.col == 2));
        let out = broadcast(dim, &src, Direction::East, &open);
        // Rows 1..3 have no open node -> fault listing those lines.
        match out {
            Err(MachineError::BusFault { lines, .. }) => assert_eq!(lines, vec![1, 2, 3]),
            other => panic!("expected fault, got {other:?}"),
        }
        // Open every other row fully at col 0 to make the call legal.
        let open = Plane::from_fn(dim, |c| {
            if c.row == 0 {
                c.col == 0 || c.col == 2
            } else {
                c.col == 0
            }
        });
        let out = broadcast(dim, &src, Direction::East, &open).unwrap();
        assert_eq!(out.row(0), &[0, 0, 2, 2]);
        assert_eq!(out.row(1), &[0, 0, 0, 0]);
    }

    #[test]
    fn broadcast_wraps_cyclically() {
        let dim = dim4();
        let src = Plane::from_fn(dim, |c| c.col as i64);
        // Row 0: single open at col 2, movement East: cols 3, 0, 1 are all
        // downstream of col 2 on the circular bus.
        let open = Plane::from_fn(dim, |c| c.col == 2);
        let out = broadcast(dim, &src, Direction::East, &open).unwrap();
        assert_eq!(out.row(0), &[2, 2, 2, 2]);
    }

    #[test]
    fn broadcast_direction_reversal_changes_heads() {
        let dim = dim4();
        let src = Plane::from_fn(dim, |c| c.col as i64);
        let open = Plane::from_fn(dim, |c| c.col == 0 || c.col == 2);
        let east = broadcast(dim, &src, Direction::East, &open).unwrap();
        // East: col1 <- col0, col3 <- col2.
        assert_eq!(east.row(0), &[0, 0, 2, 2]);
        let west = broadcast(dim, &src, Direction::West, &open).unwrap();
        // West (movement towards decreasing cols): col1 <- col2, col3 <- col0 (cyclic).
        assert_eq!(west.row(0), &[0, 2, 2, 0]);
    }

    #[test]
    fn broadcast_open_node_reads_itself() {
        let dim = dim4();
        let src = Plane::from_fn(dim, |c| (c.row * 4 + c.col) as i64);
        let open = Plane::filled(dim, true); // every node its own cluster
        let out = broadcast(dim, &src, Direction::South, &open).unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn broadcast_south_reaches_rows_above_injector() {
        // The statement-16 pattern: diagonal opens, reader row may be above.
        let dim = dim4();
        let src = Plane::from_fn(dim, |c| if c.row == c.col { c.col as i64 } else { -1 });
        let open = Plane::from_fn(dim, |c| c.row == c.col);
        let out = broadcast(dim, &src, Direction::South, &open).unwrap();
        // Every column j is driven entirely by (j, j).
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(*out.at(r, c), c as i64);
            }
        }
    }

    #[test]
    fn bus_or_ors_within_clusters_only() {
        let dim = dim4();
        let open = Plane::from_fn(dim, |c| c.col == 0 || c.col == 2);
        // Row 0: value true only at col 1 (cluster {0,1}).
        let vals = Plane::from_fn(dim, |c| c.row == 0 && c.col == 1);
        let out = bus_or(dim, &vals, Direction::East, &open).unwrap();
        assert_eq!(out.row(0), &[true, true, false, false]);
        assert_eq!(out.row(1), &[false, false, false, false]);
    }

    #[test]
    fn bus_or_without_open_spans_line() {
        let dim = dim4();
        let open = Plane::filled(dim, false);
        let vals = Plane::from_fn(dim, |c| c.row == 2 && c.col == 3);
        let out = bus_or(dim, &vals, Direction::East, &open).unwrap();
        assert_eq!(out.row(2), &[true, true, true, true]);
        assert_eq!(out.row(0), &[false, false, false, false]);
    }

    #[test]
    fn shift_east_moves_data_right_with_fill() {
        let dim = dim4();
        let src = Plane::from_fn(dim, |c| c.col as i64);
        let out = shift(dim, &src, Direction::East, -7).unwrap();
        assert_eq!(out.row(1), &[-7, 0, 1, 2]);
    }

    #[test]
    fn shift_north_moves_data_up() {
        let dim = dim4();
        let src = Plane::from_fn(dim, |c| c.row as i64);
        let out = shift(dim, &src, Direction::North, 99).unwrap();
        // Node (r, c) receives from (r+1, c); bottom row gets fill.
        assert_eq!(out.col(0), vec![1, 2, 3, 99]);
    }

    #[test]
    fn shift_wrapping_is_a_rotation() {
        let dim = dim4();
        let src = Plane::from_fn(dim, |c| c.col as i64);
        let out = shift_wrapping(dim, &src, Direction::East).unwrap();
        assert_eq!(out.row(0), &[3, 0, 1, 2]);
        // Four shifts restore the original.
        let mut p = src.clone();
        for _ in 0..4 {
            p = shift_wrapping(dim, &p, Direction::East).unwrap();
        }
        assert_eq!(p, src);
    }

    #[test]
    fn dim_mismatch_detected() {
        let dim = dim4();
        let src = Plane::filled(Dim::new(2, 4), 0i64);
        let open = Plane::filled(dim, true);
        let err = broadcast(dim, &src, Direction::East, &open).unwrap_err();
        assert!(matches!(err, MachineError::DimMismatch { .. }));
    }

    #[test]
    fn cluster_heads_mark_each_open_as_its_own_head() {
        let dim = dim4();
        let open = Plane::from_fn(dim, |c| c.col % 2 == 0);
        let heads = cluster_heads(dim, Direction::East, &open).unwrap();
        for (i, &h) in heads.iter().enumerate() {
            let c = dim.coord(i);
            if open.as_slice()[i] {
                assert_eq!(h, i, "open node {c} should head itself");
            } else {
                assert!(open.as_slice()[h], "head of {c} must be open");
            }
        }
    }

    #[test]
    fn broadcast_column_axis_uses_column_lines() {
        let dim = Dim::new(3, 2);
        let src = Plane::from_fn(dim, |c| (c.row * 2 + c.col) as i64);
        let open = Plane::from_fn(dim, |c| c.row == 1);
        let out = broadcast(dim, &src, Direction::North, &open).unwrap();
        for r in 0..3 {
            assert_eq!(*out.at(r, 0), 2);
            assert_eq!(*out.at(r, 1), 3);
        }
        let _ = Coord::new(0, 0); // silence unused import in some cfgs
    }
}
