//! Register planes: one value per processing element.
//!
//! A [`Plane<T>`] is the machine-level storage behind a PPC `parallel`
//! variable: a dense, row-major rectangle of values, one per PE. Planes are
//! plain data — all *costed* operations on them live on
//! [`Machine`](crate::Machine) (so that every SIMD instruction is recorded
//! by the controller); the methods here are free structural helpers used to
//! build inputs and inspect outputs.

use crate::geometry::{Coord, Dim};
use std::fmt;
use std::sync::Arc;

/// A dense plane of values, one per PE, stored row-major.
///
/// Storage is shared copy-on-write: cloning a plane is an `Arc` bump, and
/// the mutating helpers ([`Plane::set`], [`Plane::as_mut_slice`]) unshare
/// the buffer first.
#[derive(PartialEq, Eq)]
pub struct Plane<T> {
    dim: Dim,
    data: Arc<Vec<T>>,
}

impl<T> Clone for Plane<T> {
    fn clone(&self) -> Self {
        Plane {
            dim: self.dim,
            data: Arc::clone(&self.data),
        }
    }
}

impl<T> Plane<T> {
    /// Builds a plane by evaluating `f` at every coordinate.
    pub fn from_fn(dim: Dim, mut f: impl FnMut(Coord) -> T) -> Self {
        let mut data = Vec::with_capacity(dim.len());
        for row in 0..dim.rows {
            for col in 0..dim.cols {
                data.push(f(Coord::new(row, col)));
            }
        }
        Plane {
            dim,
            data: Arc::new(data),
        }
    }

    /// Wraps an existing row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != dim.len()`.
    pub fn from_vec(dim: Dim, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            dim.len(),
            "plane data length {} does not match dimension {}",
            data.len(),
            dim
        );
        Plane {
            dim,
            data: Arc::new(data),
        }
    }

    /// The dimensions of the plane.
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Reference to the value at `c`.
    #[inline]
    pub fn get(&self, c: Coord) -> &T {
        &self.data[self.dim.index(c)]
    }

    /// Reference to the value at `(row, col)`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> &T {
        self.get(Coord::new(row, col))
    }

    /// Iterates over all values row-major.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Iterates over `(Coord, &T)` pairs row-major.
    pub fn enumerate(&self) -> impl Iterator<Item = (Coord, &T)> {
        let dim = self.dim;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| (dim.coord(i), v))
    }

    /// Borrow one row as a slice.
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.dim.rows, "row {row} out of bounds");
        &self.data[row * self.dim.cols..(row + 1) * self.dim.cols]
    }

    /// Structural (uncosted) elementwise map; used to build test fixtures
    /// and to convert between value representations outside the machine.
    pub fn map_free<U>(&self, f: impl FnMut(&T) -> U) -> Plane<U> {
        Plane {
            dim: self.dim,
            data: Arc::new(self.data.iter().map(f).collect()),
        }
    }
}

impl<T: Clone> Plane<T> {
    /// Builds a plane with every element set to `value`.
    pub fn filled(dim: Dim, value: T) -> Self {
        Plane {
            dim,
            data: Arc::new(vec![value; dim.len()]),
        }
    }

    /// Mutably borrow the underlying row-major storage, unsharing it
    /// first if other clones exist.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the plane, returning its row-major storage (cloned only
    /// if other handles to the buffer are still alive).
    pub fn into_vec(self) -> Vec<T> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Sets the value at `c`.
    #[inline]
    pub fn set(&mut self, c: Coord, value: T) {
        let idx = self.dim.index(c);
        Arc::make_mut(&mut self.data)[idx] = value;
    }

    /// Collects one column as a vector (rows top to bottom).
    pub fn col(&self, col: usize) -> Vec<T> {
        assert!(col < self.dim.cols, "column {col} out of bounds");
        (0..self.dim.rows)
            .map(|r| self.at(r, col).clone())
            .collect()
    }

    /// Returns the transposed plane (structural helper; the real machine
    /// transposes via bus traffic, which the algorithms never need here).
    pub fn transposed(&self) -> Plane<T> {
        let dim = Dim::new(self.dim.cols, self.dim.rows);
        Plane::from_fn(dim, |c| self.at(c.col, c.row).clone())
    }
}

impl Plane<bool> {
    /// Number of `true` elements.
    pub fn count_true(&self) -> usize {
        self.data.iter().filter(|&&b| b).count()
    }

    /// Whether any element is `true` (structural helper; the *costed*
    /// global-OR is [`Machine::global_or`](crate::Machine::global_or)).
    pub fn any(&self) -> bool {
        self.data.iter().any(|&b| b)
    }

    /// Whether all elements are `true`.
    pub fn all(&self) -> bool {
        self.data.iter().all(|&b| b)
    }
}

impl<T: fmt::Debug> fmt::Debug for Plane<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Plane {} [", self.dim)?;
        for row in 0..self.dim.rows {
            write!(f, "  ")?;
            for col in 0..self.dim.cols {
                write!(f, "{:?} ", self.at(row, col))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d23() -> Dim {
        Dim::new(2, 3)
    }

    #[test]
    fn from_fn_is_row_major() {
        let p = Plane::from_fn(d23(), |c| (c.row, c.col));
        assert_eq!(
            p.as_slice(),
            &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        );
    }

    #[test]
    fn get_set_round_trip() {
        let mut p = Plane::filled(d23(), 0i64);
        p.set(Coord::new(1, 2), 42);
        assert_eq!(*p.at(1, 2), 42);
        assert_eq!(*p.at(0, 2), 0);
    }

    #[test]
    #[should_panic(expected = "does not match dimension")]
    fn from_vec_length_checked() {
        let _ = Plane::from_vec(d23(), vec![1, 2, 3]);
    }

    #[test]
    fn row_and_col_extraction() {
        let p = Plane::from_fn(d23(), |c| c.row * 10 + c.col);
        assert_eq!(p.row(1), &[10, 11, 12]);
        assert_eq!(p.col(2), vec![2, 12]);
    }

    #[test]
    fn transposed_swaps_axes() {
        let p = Plane::from_fn(d23(), |c| c.row * 10 + c.col);
        let t = p.transposed();
        assert_eq!(t.dim(), Dim::new(3, 2));
        assert_eq!(*t.at(2, 1), *p.at(1, 2));
    }

    #[test]
    fn bool_plane_counts() {
        let p = Plane::from_fn(d23(), |c| c.col == 1);
        assert_eq!(p.count_true(), 2);
        assert!(p.any());
        assert!(!p.all());
    }

    #[test]
    fn clone_shares_storage_and_mutation_unshares() {
        let a = Plane::filled(d23(), 1i64);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.data, &b.data), "clone is an Arc bump");
        b.set(Coord::new(0, 0), 9);
        assert_eq!(*a.at(0, 0), 1, "copy-on-write leaves the original alone");
        assert_eq!(*b.at(0, 0), 9);
        assert_eq!(b.clone().into_vec()[0], 9, "shared into_vec clones out");
    }

    #[test]
    fn enumerate_yields_coords() {
        let p = Plane::from_fn(d23(), |c| c.row + c.col);
        for (c, v) in p.enumerate() {
            assert_eq!(*v, c.row + c.col);
        }
    }
}
