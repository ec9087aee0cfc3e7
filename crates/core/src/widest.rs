//! Maximum-capacity (widest / bottleneck) paths on the PPA.
//!
//! The paper's dynamic program is generic over the cost semiring: swap
//! `(min, +)` for `(max, min)` and the same machine program computes, for
//! every vertex, the path to `d` whose *narrowest edge is widest* — the
//! classic bottleneck-routing problem (bandwidth reservation, load
//! limits). The mapping onto the PPA is untouched: column broadcast,
//! per-PE combine, bit-serial row *maximum*, diagonal fold. Cost is the
//! same `O(p * h)`.
//!
//! Conventions (duals of the shortest-path ones):
//! * an absent edge has capacity **0** (untraversable) — no `MAXINT`
//!   sentinel is needed;
//! * the diagonal is loaded as `MAXINT` ("unlimited"), so the `j = i`
//!   candidate `min(w_ii, CAP_id)` preserves the old value — the same
//!   trick that makes statement 16's overwrite correct for shortest
//!   paths;
//! * `CAP_dd = MAXINT` (a vertex reaches itself at unlimited capacity).
//!
//! The solve is the MCP driver's: the semiring is fixed when the weights
//! are loaded, so statement 10 combines with an elementwise `min` and
//! statement 11 scans for the row maximum, on the same registers, bus
//! kernels and step schedule as a shortest-path one-shot.

use crate::error::McpError;
use crate::mcp::{one_shot, Algebra};
use crate::stats::McpStats;
use crate::variants::VariantConfig;
use crate::Result;
use ppa_graph::{Weight, WeightMatrix};
use ppa_machine::Executor;
use ppa_ppc::Ppa;

/// Result of a widest-path run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidestOutput {
    /// Destination vertex.
    pub dest: usize,
    /// `cap[i]` — the best achievable bottleneck capacity from `i` to
    /// `d`; `0` means unreachable. `cap[d]` is the machine's `MAXINT`
    /// ("unlimited").
    pub cap: Vec<Weight>,
    /// `ptn[i]` — successor of `i` on one widest path (`ptn[i] == i`
    /// marks "no path"; `ptn[d] == d`).
    pub ptn: Vec<usize>,
    /// Do-while iterations executed.
    pub iterations: usize,
    /// Step accounting.
    pub stats: McpStats,
}

/// The sequential oracle: widest path to `d` by iterated relaxation over
/// the `(max, min)` semiring.
pub fn widest_path_oracle(w: &WeightMatrix, d: usize) -> Vec<Weight> {
    let n = w.n();
    assert!(d < n);
    let cap_edge = |i: usize, j: usize| {
        let e = w.get(i, j);
        if e == ppa_graph::INF {
            0
        } else {
            e
        }
    };
    let mut cap: Vec<Weight> = (0..n).map(|i| cap_edge(i, d)).collect();
    cap[d] = Weight::MAX;
    loop {
        let mut changed = false;
        let snapshot = cap.clone();
        for i in 0..n {
            if i == d {
                continue;
            }
            for j in 0..n {
                let cand = cap_edge(i, j).min(snapshot[j]);
                if cand > cap[i] {
                    cap[i] = cand;
                    changed = true;
                }
            }
        }
        if !changed {
            return cap;
        }
    }
}

/// Runs the widest-path dynamic program on the PPA: the MCP solve driver
/// ([`crate::mcp`]) on one lane, with registers holding capacities.
///
/// Requirements: square `n x n` machine; all finite capacities must fit
/// strictly below the machine's `MAXINT` (which plays "unlimited").
pub fn widest_path<E: Executor>(
    ppa: &mut Ppa<E>,
    w: &WeightMatrix,
    d: usize,
) -> Result<WidestOutput> {
    let n = w.n();
    let dim = ppa.dim();
    if dim.rows != n || dim.cols != n {
        return Err(McpError::SizeMismatch {
            n,
            rows: dim.rows,
            cols: dim.cols,
        });
    }
    if d >= n {
        return Err(McpError::DestinationOutOfRange { d, n });
    }
    let maxint = ppa.maxint();
    let max_cap = w.max_finite_weight().unwrap_or(0);
    if max_cap >= maxint || (n as i64 - 1) >= maxint {
        return Err(McpError::WordWidthTooSmall {
            required: (64 - (max_cap.max(n as i64 - 1) as u64 + 1).leading_zeros()).max(2),
            actual: ppa.word_bits(),
        });
    }
    let paper = VariantConfig::reference();
    let out = one_shot(ppa, w, d, Algebra::MaxMin, paper, false)?;
    Ok(WidestOutput {
        dest: out.dest,
        cap: out.sow,
        ptn: out.ptn,
        iterations: out.iterations,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_graph::gen;

    fn machine_for(w: &WeightMatrix) -> Ppa {
        Ppa::square(w.n()).with_word_bits(w.required_word_bits().clamp(4, 62))
    }

    #[test]
    fn widest_on_tiny_graph() {
        // Two routes 0 -> 2: direct capacity 3, or via 1 with bottleneck
        // min(9, 7) = 7 — the detour wins.
        let w = WeightMatrix::from_edges(3, &[(0, 2, 3), (0, 1, 9), (1, 2, 7)]);
        let mut ppa = machine_for(&w);
        let out = widest_path(&mut ppa, &w, 2).unwrap();
        assert_eq!(out.cap[0], 7);
        assert_eq!(out.ptn[0], 1);
        assert_eq!(out.cap[1], 7);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..12u64 {
            let w = gen::random_digraph(10, 0.3, 20, seed);
            let d = seed as usize % 10;
            let mut ppa = machine_for(&w);
            let out = widest_path(&mut ppa, &w, d).unwrap();
            let oracle = widest_path_oracle(&w, d);
            for i in 0..10 {
                if i == d {
                    continue;
                }
                assert_eq!(out.cap[i], oracle[i], "seed {seed} vertex {i}");
            }
        }
    }

    #[test]
    fn unreachable_has_capacity_zero() {
        let w = WeightMatrix::from_edges(4, &[(0, 1, 5)]);
        let mut ppa = machine_for(&w);
        let out = widest_path(&mut ppa, &w, 1).unwrap();
        assert_eq!(out.cap[0], 5);
        assert_eq!(out.cap[2], 0);
        assert_eq!(out.ptn[2], 2);
    }

    #[test]
    fn pointers_trace_a_path_achieving_the_bottleneck() {
        let w = gen::random_connected(9, 0.25, 15, 4);
        let mut ppa = machine_for(&w);
        let out = widest_path(&mut ppa, &w, 3).unwrap();
        for i in 0..9 {
            if i == 3 || out.cap[i] == 0 {
                continue;
            }
            // Walk pointers; the min edge capacity along the walk must
            // equal the claimed bottleneck.
            let mut cur = i;
            let mut bottleneck = i64::MAX;
            let mut hops = 0;
            while cur != 3 {
                let nxt = out.ptn[cur];
                assert!(w.has_edge(cur, nxt), "edge {cur}->{nxt} missing (from {i})");
                bottleneck = bottleneck.min(w.get(cur, nxt));
                cur = nxt;
                hops += 1;
                assert!(hops <= 9, "cycle from {i}");
            }
            assert_eq!(bottleneck, out.cap[i], "from {i}");
        }
    }

    #[test]
    fn same_step_complexity_class_as_mcp() {
        // One schedule for both semirings: equal initializers and equal
        // passes, class by class, on any graph and word width.
        let graphs = [gen::ring(8), gen::random_digraph(10, 0.3, 20, 5)];
        for (w, h) in graphs.iter().flat_map(|w| [(w, 8u32), (w, 16)]) {
            let mut a = Ppa::square(w.n()).with_word_bits(h);
            let widest = widest_path(&mut a, w, 0).unwrap();
            let mut b = Ppa::square(w.n()).with_word_bits(h);
            let mcp = crate::mcp::minimum_cost_path(&mut b, w, 0).unwrap();
            assert_eq!(widest.stats.init, mcp.stats.init, "h={h}");
            let pass = &mcp.stats.per_iteration[0];
            let passes = widest.stats.per_iteration.iter();
            for r in passes.chain(&mcp.stats.per_iteration) {
                assert_eq!(r, pass, "h={h}");
            }
        }
        // On a ring the two converge together, to the step.
        let w = gen::ring(8);
        let widest = widest_path(&mut machine_for(&w), &w, 0).unwrap();
        let mcp = crate::mcp::minimum_cost_path(&mut machine_for(&w), &w, 0).unwrap();
        assert_eq!(widest.stats, mcp.stats);
    }

    #[test]
    fn capacity_overflow_guard() {
        let w = WeightMatrix::from_edges(2, &[(0, 1, 300)]);
        let mut ppa = Ppa::square(2).with_word_bits(8); // MAXINT = 255
        assert!(matches!(
            widest_path(&mut ppa, &w, 1),
            Err(McpError::WordWidthTooSmall { .. })
        ));
    }
}
