//! All-pairs and single-source drivers built on the one-destination solver.
//!
//! The paper solves "all vertices to one destination". Two natural
//! extensions fall out for free and are exercised by the examples:
//!
//! * **single source**: run the solver on the reversed graph — a minimum
//!   cost path `s -> t` in `G` is a minimum cost path `t -> s` in `G`
//!   reversed;
//! * **all pairs**: run the solver once per destination (`n` runs of
//!   `O(p * h)` steps each on the same machine).

use crate::mcp::{minimum_cost_path, solve_prepared, McpOutput, Prepared};
use crate::Result;
use ppa_graph::{Weight, WeightMatrix};
use ppa_machine::Executor;
use ppa_ppc::Ppa;

/// Minimum cost *from one source* to every vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourcePaths {
    /// The source vertex.
    pub source: usize,
    /// `dist[t]` — minimum cost of `source -> ... -> t`.
    pub dist: Vec<Weight>,
    /// `prev[t]` — predecessor of `t` on one such path (`prev[source] ==
    /// source`; `prev[t] == t` marks "no path").
    pub prev: Vec<usize>,
    /// Do-while iterations of the underlying run.
    pub iterations: usize,
}

/// Single-source shortest paths via the reversed graph.
///
/// Note the output's `prev` pointers: the destination-oriented `PTN`
/// of the reversed run *is* the predecessor function of the forward
/// problem.
pub fn single_source<E: Executor>(
    ppa: &mut Ppa<E>,
    w: &WeightMatrix,
    s: usize,
) -> Result<SourcePaths> {
    let out = minimum_cost_path(ppa, &w.reversed(), s)?;
    Ok(SourcePaths {
        source: s,
        dist: out.sow,
        prev: out.ptn,
        iterations: out.iterations,
    })
}

/// All-pairs result: one [`McpOutput`] per destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllPairs {
    /// Per-destination outputs, indexed by destination.
    pub runs: Vec<McpOutput>,
}

impl AllPairs {
    /// Minimum cost `i -> j` (`INF` when unreachable, 0 on the diagonal).
    pub fn dist(&self, i: usize, j: usize) -> Weight {
        self.runs[j].sow[i]
    }

    /// The full distance matrix, `result[i][j] = dist(i, j)`.
    pub fn matrix(&self) -> Vec<Vec<Weight>> {
        let n = self.runs.len();
        (0..n)
            .map(|i| (0..n).map(|j| self.dist(i, j)).collect())
            .collect()
    }

    /// The distance matrix as one flat row-major vector:
    /// `result[i * n + j] = dist(i, j)`. One allocation instead of
    /// `n + 1` — the form comparison harnesses and campaign merges
    /// want for bulk equality checks and hashing.
    pub fn matrix_flat(&self) -> Vec<Weight> {
        let n = self.runs.len();
        let mut out = Vec::with_capacity(n * n);
        for i in 0..n {
            for run in &self.runs {
                out.push(run.sow[i]);
            }
        }
        out
    }

    /// Total do-while iterations across all runs.
    pub fn total_iterations(&self) -> usize {
        self.runs.iter().map(|r| r.iterations).sum()
    }
}

/// All-pairs shortest paths: `n` destination runs on one machine.
///
/// This is a *batched* consumer of the solver: the destination-independent
/// planes (`ROW`, `COL`, the diagonal and last-column masks, and the `W`
/// layout) are prepared once and shared by all `n` runs, so only the four
/// destination masks are rebuilt per run — and on a plan-caching backend
/// the switch-pattern plans and mask buffers warmed up by the first run
/// are reused by every later one.
pub fn all_pairs<E: Executor>(ppa: &mut Ppa<E>, w: &WeightMatrix) -> Result<AllPairs> {
    let prep = Prepared::build(ppa, w)?;
    let mut runs = Vec::with_capacity(w.n());
    for d in 0..w.n() {
        runs.push(solve_prepared(ppa, &prep, w, d, false)?);
    }
    Ok(AllPairs { runs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_graph::gen;
    use ppa_graph::reference::{dijkstra_to_dest, floyd_warshall};
    use ppa_graph::INF;

    fn machine_for(w: &WeightMatrix) -> Ppa {
        Ppa::square(w.n()).with_word_bits(crate::mcp::fit_word_bits(w).clamp(2, 62))
    }

    #[test]
    fn single_source_matches_reverse_dijkstra() {
        let w = gen::random_digraph(10, 0.3, 12, 4);
        let mut ppa = machine_for(&w);
        let sp = single_source(&mut ppa, &w, 2).unwrap();
        // Oracle: distances to dest 2 in the reversed graph = from 2 forward.
        let oracle = dijkstra_to_dest(&w.reversed(), 2);
        assert_eq!(sp.dist, oracle);
        assert_eq!(sp.dist[2], 0);
    }

    #[test]
    fn single_source_prev_pointers_walk_back() {
        let w = WeightMatrix::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let mut ppa = machine_for(&w);
        let sp = single_source(&mut ppa, &w, 0).unwrap();
        assert_eq!(sp.dist, vec![0, 1, 2, 3]);
        // Walk back from 3: 3 <- 2 <- 1 <- 0.
        assert_eq!(sp.prev[3], 2);
        assert_eq!(sp.prev[2], 1);
        assert_eq!(sp.prev[1], 0);
    }

    #[test]
    fn all_pairs_matches_floyd_warshall() {
        let w = gen::random_digraph(8, 0.35, 9, 11);
        let mut ppa = machine_for(&w);
        let ap = all_pairs(&mut ppa, &w).unwrap();
        let fw = floyd_warshall(&w);
        assert_eq!(ap.matrix(), fw);
    }

    #[test]
    fn all_pairs_diagonal_is_zero() {
        let w = gen::ring(5);
        let mut ppa = machine_for(&w);
        let ap = all_pairs(&mut ppa, &w).unwrap();
        for i in 0..5 {
            assert_eq!(ap.dist(i, i), 0);
        }
    }

    #[test]
    fn all_pairs_detects_unreachability() {
        let w = gen::path(4); // one-way chain: nothing reaches backwards
        let mut ppa = machine_for(&w);
        let ap = all_pairs(&mut ppa, &w).unwrap();
        assert_eq!(ap.dist(0, 3), 3);
        assert_eq!(ap.dist(3, 0), INF);
        assert!(ap.total_iterations() >= 4);
    }

    #[test]
    fn matrix_flat_is_the_row_major_matrix() {
        let w = gen::random_digraph(6, 0.4, 8, 2);
        let mut ppa = machine_for(&w);
        let ap = all_pairs(&mut ppa, &w).unwrap();
        let nested = ap.matrix();
        let flat = ap.matrix_flat();
        assert_eq!(flat.len(), 36);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(flat[i * 6 + j], nested[i][j], "({i},{j})");
            }
        }
    }
}
