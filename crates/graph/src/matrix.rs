//! Dense weight matrices with the paper's `MAXINT` convention.

use std::fmt;

/// Edge weight type. Finite weights are non-negative; [`INF`] marks an
/// absent edge (the paper: "if no edge exists from vertex i to vertex j,
/// then `w_ij = MAXINT`, that is an infinite value").
pub type Weight = i64;

/// The "infinite" weight marking an absent edge.
///
/// This is an abstract sentinel, independent of any particular machine's
/// word width; loading a matrix onto an `h`-bit machine maps it to that
/// machine's own `MAXINT = 2^h - 1`.
pub const INF: Weight = i64::MAX;

/// A typed rejection of untrusted matrix input.
///
/// The panicking mutators ([`WeightMatrix::set`],
/// [`WeightMatrix::from_edges`], [`WeightMatrix::to_saturated_vec`]) are
/// the right contract for programmatic construction, where a violation is
/// a caller bug. Input that crosses a trust boundary — files, job
/// payloads handed to a serving worker — goes through the `try_*`
/// variants instead, which return this error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// An edge endpoint does not name a vertex of the `n`-vertex graph.
    EdgeOutOfRange {
        /// Source vertex of the offending edge.
        from: usize,
        /// Target vertex of the offending edge.
        to: usize,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// A self-loop `i -> i` (not representable; the diagonal is pinned to
    /// [`INF`]).
    SelfLoop {
        /// The looping vertex.
        vertex: usize,
    },
    /// A weight outside the finite non-negative range `0..INF`.
    BadWeight {
        /// Source vertex of the offending edge.
        from: usize,
        /// Target vertex of the offending edge.
        to: usize,
        /// The rejected weight.
        weight: Weight,
    },
    /// A finite weight does not fit below the target machine's `MAXINT`
    /// (`2^h - 1` for an `h`-bit machine): the matrix cannot be loaded at
    /// that word width without colliding with the "infinite" sentinel.
    WeightOverflow {
        /// Source vertex of the offending edge.
        from: usize,
        /// Target vertex of the offending edge.
        to: usize,
        /// The weight that does not fit.
        weight: Weight,
        /// The machine `MAXINT` it was checked against.
        maxint: Weight,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::EdgeOutOfRange { from, to, n } => {
                write!(f, "edge ({from},{to}) out of range for {n} vertices")
            }
            MatrixError::SelfLoop { vertex } => {
                write!(f, "self-loops are not representable (vertex {vertex})")
            }
            MatrixError::BadWeight { from, to, weight } => write!(
                f,
                "edge ({from},{to}): weight must be finite and non-negative, got {weight}"
            ),
            MatrixError::WeightOverflow {
                from,
                to,
                weight,
                maxint,
            } => write!(
                f,
                "edge ({from},{to}): weight {weight} does not fit below the machine MAXINT {maxint}"
            ),
        }
    }
}

impl std::error::Error for MatrixError {}

/// A dense `n x n` weight matrix of a directed graph.
///
/// Invariants enforced by construction:
/// * finite weights are non-negative (the paper's dynamic program, like
///   Bellman-Ford over `min/+`, assumes a non-negative cost structure and
///   its bit-serial `min` compares unsigned words);
/// * the diagonal is always [`INF`] — self-loops can never shorten a path
///   and keeping them out lets the PPA algorithm's destination row stay
///   fixed (see the `ppa-mcp` crate docs).
#[derive(Clone, PartialEq, Eq)]
pub struct WeightMatrix {
    n: usize,
    w: Vec<Weight>,
}

impl WeightMatrix {
    /// An `n`-vertex graph with no edges.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "graphs must have at least one vertex");
        WeightMatrix {
            n,
            w: vec![INF; n * n],
        }
    }

    /// Builds a matrix from an edge list `(from, to, weight)`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, negative or infinite
    /// weights (same contract as [`WeightMatrix::set`]).
    pub fn from_edges(n: usize, edges: &[(usize, usize, Weight)]) -> Self {
        let mut m = WeightMatrix::new(n);
        for &(i, j, w) in edges {
            m.set(i, j, w);
        }
        m
    }

    /// [`WeightMatrix::from_edges`] for untrusted input: the first
    /// malformed edge is reported as a typed [`MatrixError`] instead of a
    /// panic.
    ///
    /// # Errors
    /// [`MatrixError::EdgeOutOfRange`], [`MatrixError::SelfLoop`], or
    /// [`MatrixError::BadWeight`] for the first offending edge.
    ///
    /// # Panics
    /// Panics if `n == 0` (an empty graph is unrepresentable, not
    /// untrusted-input-dependent).
    pub fn try_from_edges(n: usize, edges: &[(usize, usize, Weight)]) -> Result<Self, MatrixError> {
        let mut m = WeightMatrix::new(n);
        for &(i, j, w) in edges {
            m.try_set(i, j, w)?;
        }
        Ok(m)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Weight of the edge `i -> j` ([`INF`] if absent).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Weight {
        self.w[i * self.n + j]
    }

    /// Inserts (or overwrites) the edge `i -> j`.
    ///
    /// # Panics
    /// Panics if `i`/`j` are out of range, if `i == j` (self-loop), or if
    /// the weight is negative or [`INF`] (use [`WeightMatrix::remove`]).
    pub fn set(&mut self, i: usize, j: usize, w: Weight) {
        assert!(i < self.n && j < self.n, "edge ({i},{j}) out of range");
        assert_ne!(i, j, "self-loops are not representable (vertex {i})");
        assert!(
            (0..INF).contains(&w),
            "edge weight must be finite and non-negative, got {w}"
        );
        self.w[i * self.n + j] = w;
    }

    /// [`WeightMatrix::set`] for untrusted input: a typed [`MatrixError`]
    /// instead of a panic; the matrix is unchanged on rejection.
    ///
    /// # Errors
    /// [`MatrixError::EdgeOutOfRange`], [`MatrixError::SelfLoop`], or
    /// [`MatrixError::BadWeight`].
    pub fn try_set(&mut self, i: usize, j: usize, w: Weight) -> Result<(), MatrixError> {
        if i >= self.n || j >= self.n {
            return Err(MatrixError::EdgeOutOfRange {
                from: i,
                to: j,
                n: self.n,
            });
        }
        if i == j {
            return Err(MatrixError::SelfLoop { vertex: i });
        }
        if !(0..INF).contains(&w) {
            return Err(MatrixError::BadWeight {
                from: i,
                to: j,
                weight: w,
            });
        }
        self.w[i * self.n + j] = w;
        Ok(())
    }

    /// Removes the edge `i -> j` (sets it back to [`INF`]).
    pub fn remove(&mut self, i: usize, j: usize) {
        assert!(i < self.n && j < self.n, "edge ({i},{j}) out of range");
        self.w[i * self.n + j] = INF;
    }

    /// Whether the edge `i -> j` exists.
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        self.get(i, j) != INF
    }

    /// Iterates over all present edges as `(from, to, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, Weight)> + '_ {
        let n = self.n;
        self.w
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != INF)
            .map(move |(idx, &w)| (idx / n, idx % n, w))
    }

    /// Number of present edges.
    pub fn edge_count(&self) -> usize {
        self.w.iter().filter(|&&w| w != INF).count()
    }

    /// Edge density relative to the `n * (n - 1)` possible non-loop edges.
    pub fn density(&self) -> f64 {
        if self.n <= 1 {
            0.0
        } else {
            self.edge_count() as f64 / (self.n * (self.n - 1)) as f64
        }
    }

    /// The largest finite weight present (`None` if the graph is empty).
    pub fn max_finite_weight(&self) -> Option<Weight> {
        // Finite weights are non-negative, so -1 marks "none yet"; the
        // branch-free fold vectorizes, a filtered `max` does not.
        let max = self
            .w
            .iter()
            .fold(-1, |m: Weight, &w| m.max(if w == INF { -1 } else { w }));
        (max >= 0).then_some(max)
    }

    /// The number of bits needed to represent, without overflow, any
    /// *simple-path* cost in this graph plus the `MAXINT` sentinel: the
    /// minimal machine word width `h` that can run the PPA algorithm on
    /// this input. Computed from the pessimistic bound
    /// `(n - 1) * max_weight`.
    pub fn required_word_bits(&self) -> u32 {
        let worst = self
            .max_finite_weight()
            .unwrap_or(0)
            .saturating_mul(self.n.saturating_sub(1) as i64)
            // The PPA algorithm also scans vertex indices bit-serially
            // (statement 12's `selected_min(COL, ...)`), so indices up to
            // n - 1 must be representable below MAXINT as well.
            .max(self.n.saturating_sub(1) as i64)
            .max(1);
        // MAXINT = 2^h - 1 must be *strictly* above the worst path cost so
        // a real cost never collides with the "infinite" sentinel; size h
        // for worst + 1.
        (64 - (worst as u64 + 1).leading_zeros()).max(2)
    }

    /// Out-degree of vertex `i`.
    pub fn out_degree(&self, i: usize) -> usize {
        (0..self.n).filter(|&j| self.has_edge(i, j)).count()
    }

    /// In-degree of vertex `j`.
    pub fn in_degree(&self, j: usize) -> usize {
        (0..self.n).filter(|&i| self.has_edge(i, j)).count()
    }

    /// Row-major copy of the weights with [`INF`] replaced by `maxint`
    /// (how a matrix is loaded into an `h`-bit machine plane).
    ///
    /// # Panics
    /// Panics if any finite weight exceeds `maxint` — the matrix does not
    /// fit the target word width.
    pub fn to_saturated_vec(&self, maxint: Weight) -> Vec<Weight> {
        match self.try_saturated_vec(maxint) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`WeightMatrix::to_saturated_vec`] for untrusted input: the first
    /// finite weight at or above `maxint` is reported as a typed
    /// [`MatrixError::WeightOverflow`] instead of a panic. The largest
    /// loadable weight is therefore `maxint - 1`: `maxint` itself is the
    /// "infinite" sentinel and a real cost must never collide with it.
    ///
    /// # Errors
    /// [`MatrixError::WeightOverflow`] naming the first offending edge.
    pub fn try_saturated_vec(&self, maxint: Weight) -> Result<Vec<Weight>, MatrixError> {
        self.w
            .iter()
            .enumerate()
            .map(|(idx, &w)| {
                if w == INF {
                    Ok(maxint)
                } else if w < maxint {
                    Ok(w)
                } else {
                    Err(MatrixError::WeightOverflow {
                        from: idx / self.n,
                        to: idx % self.n,
                        weight: w,
                        maxint,
                    })
                }
            })
            .collect()
    }

    /// The reverse graph (every edge flipped) — used to turn the paper's
    /// "all sources to one destination" solver into a "one source to all
    /// destinations" solver.
    pub fn reversed(&self) -> WeightMatrix {
        let mut r = WeightMatrix::new(self.n);
        for (i, j, w) in self.edges() {
            r.set(j, i, w);
        }
        r
    }
}

impl fmt::Debug for WeightMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "WeightMatrix(n={}) [", self.n)?;
        for i in 0..self.n {
            write!(f, "  ")?;
            for j in 0..self.n {
                let w = self.get(i, j);
                if w == INF {
                    write!(f, "  . ")?;
                } else {
                    write!(f, "{w:3} ")?;
                }
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_matrix_has_no_edges() {
        let m = WeightMatrix::new(4);
        assert_eq!(m.edge_count(), 0);
        assert_eq!(m.density(), 0.0);
        assert!(!m.has_edge(0, 1));
    }

    #[test]
    fn set_get_remove_round_trip() {
        let mut m = WeightMatrix::new(3);
        m.set(0, 2, 7);
        assert_eq!(m.get(0, 2), 7);
        assert!(m.has_edge(0, 2));
        m.remove(0, 2);
        assert_eq!(m.get(0, 2), INF);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        WeightMatrix::new(3).set(1, 1, 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        WeightMatrix::new(3).set(0, 1, -1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn inf_weight_rejected_in_set() {
        WeightMatrix::new(3).set(0, 1, INF);
    }

    #[test]
    fn edges_iterates_all_present() {
        let m = WeightMatrix::from_edges(3, &[(0, 1, 5), (2, 0, 1)]);
        let mut es: Vec<_> = m.edges().collect();
        es.sort();
        assert_eq!(es, vec![(0, 1, 5), (2, 0, 1)]);
        assert_eq!(m.edge_count(), 2);
    }

    #[test]
    fn density_counts_non_loop_pairs() {
        let m = WeightMatrix::from_edges(3, &[(0, 1, 1), (1, 0, 1), (1, 2, 1)]);
        assert!((m.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degrees() {
        let m = WeightMatrix::from_edges(4, &[(0, 1, 1), (0, 2, 1), (3, 1, 1)]);
        assert_eq!(m.out_degree(0), 2);
        assert_eq!(m.in_degree(1), 2);
        assert_eq!(m.out_degree(2), 0);
    }

    #[test]
    fn required_word_bits_covers_worst_path() {
        let m = WeightMatrix::from_edges(5, &[(0, 1, 10), (1, 2, 10)]);
        let h = m.required_word_bits();
        // Worst simple path = 4 edges x 10 = 40 < 2^h and MAXINT distinct.
        assert!((1i64 << h) - 1 > 40, "h={h}");
    }

    #[test]
    fn to_saturated_vec_maps_inf() {
        let m = WeightMatrix::from_edges(2, &[(0, 1, 3)]);
        let v = m.to_saturated_vec(15);
        assert_eq!(v, vec![15, 3, 15, 15]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn to_saturated_vec_checks_fit() {
        let m = WeightMatrix::from_edges(2, &[(0, 1, 20)]);
        let _ = m.to_saturated_vec(15);
    }

    #[test]
    fn try_set_rejects_with_typed_errors() {
        let mut m = WeightMatrix::new(3);
        assert_eq!(
            m.try_set(0, 3, 1),
            Err(MatrixError::EdgeOutOfRange {
                from: 0,
                to: 3,
                n: 3
            })
        );
        assert_eq!(m.try_set(1, 1, 1), Err(MatrixError::SelfLoop { vertex: 1 }));
        assert_eq!(
            m.try_set(0, 1, -4),
            Err(MatrixError::BadWeight {
                from: 0,
                to: 1,
                weight: -4
            })
        );
        assert_eq!(
            m.try_set(0, 1, INF),
            Err(MatrixError::BadWeight {
                from: 0,
                to: 1,
                weight: INF
            })
        );
        assert_eq!(m.edge_count(), 0, "rejections leave the matrix unchanged");
        assert!(m.try_set(0, 1, 7).is_ok());
        assert_eq!(m.get(0, 1), 7);
    }

    #[test]
    fn try_from_edges_reports_first_offender() {
        let err = WeightMatrix::try_from_edges(3, &[(0, 1, 2), (2, 2, 5)]).unwrap_err();
        assert_eq!(err, MatrixError::SelfLoop { vertex: 2 });
        let ok = WeightMatrix::try_from_edges(3, &[(0, 1, 2)]).unwrap();
        assert_eq!(ok, WeightMatrix::from_edges(3, &[(0, 1, 2)]));
    }

    #[test]
    fn try_saturated_vec_boundary_at_maxint() {
        // maxint - 1 is the largest loadable weight; maxint collides with
        // the "infinite" sentinel and is rejected with coordinates.
        let maxint = 15;
        let fits = WeightMatrix::from_edges(2, &[(0, 1, maxint - 1)]);
        assert_eq!(
            fits.try_saturated_vec(maxint).unwrap(),
            vec![maxint, maxint - 1, maxint, maxint]
        );
        let mut collides = WeightMatrix::new(2);
        collides.set(1, 0, maxint);
        assert_eq!(
            collides.try_saturated_vec(maxint),
            Err(MatrixError::WeightOverflow {
                from: 1,
                to: 0,
                weight: maxint,
                maxint,
            })
        );
    }

    #[test]
    fn matrix_error_display_names_the_edge() {
        let e = MatrixError::WeightOverflow {
            from: 1,
            to: 2,
            weight: 99,
            maxint: 63,
        };
        let s = e.to_string();
        assert!(s.contains("(1,2)"), "{s}");
        assert!(s.contains("99"), "{s}");
        assert!(s.contains("63"), "{s}");
    }

    #[test]
    fn reversed_flips_edges() {
        let m = WeightMatrix::from_edges(3, &[(0, 1, 5), (1, 2, 7)]);
        let r = m.reversed();
        assert_eq!(r.get(1, 0), 5);
        assert_eq!(r.get(2, 1), 7);
        assert!(!r.has_edge(0, 1));
        assert_eq!(r.reversed(), m);
    }

    #[test]
    fn max_finite_weight() {
        let m = WeightMatrix::from_edges(3, &[(0, 1, 5), (1, 2, 7)]);
        assert_eq!(m.max_finite_weight(), Some(7));
        assert_eq!(WeightMatrix::new(2).max_finite_weight(), None);
    }
}
