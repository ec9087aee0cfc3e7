//! Property-based tests over the whole stack (proptest).
//!
//! Strategy-level invariants:
//! * bus laws — broadcast is cluster-constant and idempotent, the wired
//!   OR equals the per-cluster fold, reversing a shift twice restores the
//!   interior;
//! * combination laws — the bit-serial `min`/`max` equal the per-cluster
//!   reference folds for arbitrary values, masks and directions;
//! * algorithm laws — MCP cost vectors equal Bellman-Ford on arbitrary
//!   digraphs, `PTN` chains re-sum to their claimed costs, and the
//!   interpreted PPC program agrees with the native implementation;
//! * backend laws — the threaded backend's worker pool is bit-identical
//!   to the sequential scalar reference.

#![allow(clippy::needless_range_loop)]
use ppa_suite::prelude::*;
use proptest::prelude::*;

/// An arbitrary direction.
fn direction() -> impl Strategy<Value = Direction> {
    prop_oneof![
        Just(Direction::North),
        Just(Direction::East),
        Just(Direction::South),
        Just(Direction::West),
    ]
}

/// An arbitrary small weighted digraph as an edge list.
fn digraph(max_n: usize) -> impl Strategy<Value = WeightMatrix> {
    (2..=max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 1i64..30), 0..(n * n));
        edges.prop_map(move |es| {
            let mut m = WeightMatrix::new(n);
            for (i, j, w) in es {
                if i != j {
                    m.set(i, j, w);
                }
            }
            m
        })
    })
}

/// A value plane and an Open mask guaranteed to drive every line for the
/// given direction (at least the first line position is open).
fn plane_and_mask(n: usize) -> impl Strategy<Value = (Vec<i64>, Vec<bool>)> {
    (
        proptest::collection::vec(0i64..=255, n * n),
        proptest::collection::vec(any::<bool>(), n * n),
    )
}

fn force_driver(dim: Dim, dir: Direction, open: &mut Parallel<bool>) {
    // Ensure every line has at least one Open node.
    let axis = dir.axis();
    for line in 0..dim.lines(axis) {
        let mut any = false;
        for pos in 0..dim.line_len(axis) {
            let idx = dim.line_index(dir, line, pos);
            if open.as_slice()[idx] {
                any = true;
                break;
            }
        }
        if !any {
            let idx = dim.line_index(dir, line, 0);
            open.as_mut_slice()[idx] = true;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn broadcast_is_cluster_constant_and_idempotent(
        (vals, mask) in plane_and_mask(6),
        dir in direction(),
    ) {
        let n = 6;
        let dim = Dim::square(n);
        let mut ppa = Ppa::square(n).with_word_bits(8);
        let src = Parallel::from_vec(dim, vals);
        let mut open = Parallel::from_vec(dim, mask);
        force_driver(dim, dir, &mut open);

        let once = ppa.broadcast(&src, dir, &open).unwrap();
        // Idempotence: broadcasting the broadcast changes nothing.
        let twice = ppa.broadcast(&once, dir, &open).unwrap();
        prop_assert_eq!(&once, &twice);
        // Every Open node holds its own value.
        for (c, &is_open) in open.enumerate() {
            if is_open {
                prop_assert_eq!(once.get(c), src.get(c));
            }
        }
    }

    #[test]
    fn bus_or_equals_cluster_fold(
        (vals, mask) in plane_and_mask(5),
        dir in direction(),
    ) {
        let n = 5;
        let dim = Dim::square(n);
        let mut ppa = Ppa::square(n);
        let bits = Parallel::from_vec(dim, vals.iter().map(|v| v % 2 == 0).collect());
        let mut open = Parallel::from_vec(dim, mask);
        force_driver(dim, dir, &mut open);

        let got = ppa.bus_or(&bits, dir, &open).unwrap();
        // Reference fold via cluster heads.
        let heads = ppa_machine::bus::cluster_heads(dim, dir, &open).unwrap();
        let mut acc = vec![false; dim.len()];
        for (i, &h) in heads.iter().enumerate() {
            if bits.as_slice()[i] {
                acc[h] = true;
            }
        }
        for (i, &h) in heads.iter().enumerate() {
            prop_assert_eq!(got.as_slice()[i], acc[h]);
        }
    }

    #[test]
    fn min_equals_cluster_reference(
        (vals, mask) in plane_and_mask(6),
        dir in direction(),
    ) {
        let n = 6;
        let dim = Dim::square(n);
        let mut ppa = Ppa::square(n).with_word_bits(8);
        let src = Parallel::from_vec(dim, vals);
        let mut open = Parallel::from_vec(dim, mask);
        force_driver(dim, dir, &mut open);

        let got = ppa.min(&src, dir, &open).unwrap();
        let maxed = ppa.max(&src, dir, &open).unwrap();
        let heads = ppa_machine::bus::cluster_heads(dim, dir, &open).unwrap();
        let mut best = vec![i64::MAX; dim.len()];
        let mut worst = vec![i64::MIN; dim.len()];
        for (i, &h) in heads.iter().enumerate() {
            best[h] = best[h].min(src.as_slice()[i]);
            worst[h] = worst[h].max(src.as_slice()[i]);
        }
        for (i, &h) in heads.iter().enumerate() {
            prop_assert_eq!(got.as_slice()[i], best[h], "min at {}", i);
            prop_assert_eq!(maxed.as_slice()[i], worst[h], "max at {}", i);
        }
    }

    #[test]
    fn shift_round_trip_preserves_interior(vals in proptest::collection::vec(0i64..100, 25)) {
        let dim = Dim::square(5);
        let mut ppa = Ppa::square(5);
        let src = Parallel::from_vec(dim, vals);
        let east = ppa.shift(&src, Direction::East, -1).unwrap();
        let back = ppa.shift(&east, Direction::West, -1).unwrap();
        for (c, &v) in src.enumerate() {
            if c.col < 4 {
                prop_assert_eq!(*back.get(c), v);
            }
        }
    }

    #[test]
    fn mcp_cost_vector_equals_bellman_ford(w in digraph(9), d_pick in 0usize..9) {
        let d = d_pick % w.n();
        let out = minimum_cost_path_auto(&w, d).unwrap();
        let oracle = reference::bellman_ford_to_dest(&w, d);
        let mut expect = oracle.dist.clone();
        expect[d] = 0;
        prop_assert_eq!(&out.sow, &expect);
        prop_assert!(validate::is_valid_solution(&w, d, &out.sow, &out.ptn));
    }

    #[test]
    fn ptn_paths_resum_to_sow(w in digraph(8), d_pick in 0usize..8) {
        let d = d_pick % w.n();
        let out = minimum_cost_path_auto(&w, d).unwrap();
        for (src, p) in all_paths(&out) {
            prop_assert_eq!(path_cost(&w, &p), Some(out.sow[src]));
        }
    }

    #[test]
    fn interpreted_ppc_agrees_with_native(w in digraph(7), d_pick in 0usize..7) {
        let d = d_pick % w.n();
        let h = fit_word_bits(&w).clamp(2, 62);
        let mut ippa = Ppa::square(w.n()).with_word_bits(h);
        let interp = run_minimum_cost_path(&mut ippa, &w, d).unwrap();
        let mut nppa = Ppa::square(w.n()).with_word_bits(h);
        let native = ppa_mcp::minimum_cost_path(&mut nppa, &w, d).unwrap();
        prop_assert_eq!(&interp.sow, &native.sow);
    }

    #[test]
    fn threaded_equals_sequential(w in digraph(8), threads in 2usize..5) {
        let d = 0;
        let h = fit_word_bits(&w).clamp(2, 62);
        let mut seq = Ppa::square(w.n()).with_word_bits(h);
        let a = ppa_mcp::minimum_cost_path(&mut seq, &w, d).unwrap();
        // A zero cutoff sends every micro-op through the worker pool.
        let pool: ThreadedBackend = ThreadedBackend::with_min_parallel(threads, 0);
        let mut thr = Ppa::with_backend(w.n(), pool).with_word_bits(h);
        let b = ppa_mcp::minimum_cost_path(&mut thr, &w, d).unwrap();
        prop_assert_eq!(a.sow, b.sow);
        prop_assert_eq!(a.stats.total, b.stats.total);
    }

    #[test]
    fn baselines_agree_with_oracle(w in digraph(8), d_pick in 0usize..8) {
        let d = d_pick % w.n();
        let oracle = reference::bellman_ford_to_dest(&w, d);
        for solver in all_solvers(fit_word_bits(&w).max(8)) {
            let got = solver.solve(&w, d);
            prop_assert_eq!(&got.dist[..], &oracle.dist[..], "{}", solver.name());
        }
    }

    #[test]
    fn closure_matches_floyd_warshall_reachability(w in digraph(7)) {
        let mut ppa = Ppa::square(w.n());
        let tc = transitive_closure(&mut ppa, &w).unwrap();
        let fw = reference::floyd_warshall(&w);
        for i in 0..w.n() {
            for j in 0..w.n() {
                prop_assert_eq!(tc[i][j], fw[i][j] != INF);
            }
        }
    }
}
