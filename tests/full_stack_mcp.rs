//! Full-stack integration: the PPA algorithm against the sequential
//! oracles, across graph families, sizes and destinations (experiment T5:
//! "validated through simulation").

#![allow(clippy::needless_range_loop)]
use ppa_suite::prelude::*;

fn machine_for(w: &WeightMatrix) -> Ppa {
    Ppa::square(w.n()).with_word_bits(fit_word_bits(w).clamp(2, 62))
}

#[test]
fn every_family_every_destination_small() {
    for family in gen::Family::ALL {
        let w = family.build(9, 12, 2024);
        for d in 0..w.n() {
            let mut ppa = machine_for(&w);
            let out = minimum_cost_path(&mut ppa, &w, d).unwrap();
            let violations = validate::validate_solution(&w, d, &out.sow, &out.ptn);
            assert!(
                violations.is_empty(),
                "family {} dest {d}: {violations:?}",
                family.label()
            );
        }
    }
}

#[test]
fn random_sweep_many_seeds() {
    for seed in 0..40u64 {
        let n = 6 + (seed as usize % 10);
        let density = 0.1 + (seed as f64 % 7.0) / 10.0;
        let w = gen::random_digraph(n, density, 25, seed);
        let d = seed as usize % n;
        let mut ppa = machine_for(&w);
        let out = minimum_cost_path(&mut ppa, &w, d).unwrap();
        assert!(
            validate::is_valid_solution(&w, d, &out.sow, &out.ptn),
            "seed {seed} n {n}"
        );
    }
}

#[test]
fn larger_instance_matches_oracle() {
    let w = gen::random_connected(40, 0.15, 50, 1);
    let mut ppa = machine_for(&w);
    let out = minimum_cost_path(&mut ppa, &w, 17).unwrap();
    let oracle = reference::bellman_ford_to_dest(&w, 17);
    let mut expect = oracle.dist.clone();
    expect[17] = 0;
    assert_eq!(out.sow, expect);
}

#[test]
fn iterations_equal_max_hops_plus_detection() {
    for seed in 0..10u64 {
        let w = gen::random_connected(12, 0.12, 9, seed);
        let mut ppa = machine_for(&w);
        let out = minimum_cost_path(&mut ppa, &w, 3).unwrap();
        let p = max_hops(&out);
        // p improving hop-lengths need p-1 improving iterations after the
        // 1-edge init, plus exactly one no-change iteration to detect.
        assert_eq!(out.iterations, p.max(1), "seed {seed} (p = {p})");
    }
}

#[test]
fn apsp_matches_floyd_warshall_and_closure_matches_reachability() {
    let w = gen::random_digraph(10, 0.25, 9, 77);
    let mut ppa = machine_for(&w);
    let ap = all_pairs(&mut ppa, &w).unwrap();
    let fw = reference::floyd_warshall(&w);
    assert_eq!(ap.matrix(), fw);

    let mut cpa = Ppa::square(w.n());
    let tc = transitive_closure(&mut cpa, &w).unwrap();
    let want = reference::transitive_closure(&w);
    assert_eq!(tc, want);
    // Consistency between the two: finite distance <=> reachable.
    for i in 0..w.n() {
        for j in 0..w.n() {
            assert_eq!(tc[i][j], fw[i][j] != INF, "{i}->{j}");
        }
    }
}

#[test]
fn single_source_composes_with_destination_runs() {
    let w = gen::random_connected(12, 0.2, 15, 5);
    let mut ppa = machine_for(&w);
    let from3 = single_source(&mut ppa, &w, 3).unwrap();
    let mut rppa = machine_for(&w.reversed());
    let to3_rev = minimum_cost_path(&mut rppa, &w.reversed(), 3).unwrap();
    assert_eq!(from3.dist, to3_rev.sow);
}

#[test]
fn per_iteration_steps_are_flat_in_n_and_linear_in_h() {
    // Flat in n (the PPA's whole point):
    let mut per_n = Vec::new();
    for n in [6usize, 12, 24] {
        let w = gen::padded_path(n, 3);
        let mut ppa = Ppa::square(n).with_word_bits(12);
        let out = minimum_cost_path(&mut ppa, &w, 3).unwrap();
        assert!(out.stats.iterations_uniform());
        per_n.push(out.stats.per_iteration[0].total());
    }
    assert!(per_n.windows(2).all(|w| w[0] == w[1]), "{per_n:?}");

    // Linear in h (two bit-serial scans dominate):
    let w = gen::padded_path(8, 3);
    let mut per_h = Vec::new();
    for h in [8u32, 16, 32] {
        let mut ppa = Ppa::square(8).with_word_bits(h);
        let out = minimum_cost_path(&mut ppa, &w, 3).unwrap();
        per_h.push(out.stats.per_iteration[0].total() as f64);
    }
    let r1 = per_h[1] / per_h[0];
    let r2 = per_h[2] / per_h[1];
    assert!((1.6..2.2).contains(&r1), "{per_h:?}");
    assert!((1.6..2.2).contains(&r2), "{per_h:?}");
}

#[test]
fn total_steps_are_linear_in_p() {
    let n = 20;
    let mut totals = Vec::new();
    for p in [2usize, 4, 8, 16] {
        let w = gen::padded_path(n, p);
        let mut ppa = Ppa::square(n).with_word_bits(10);
        let out = minimum_cost_path(&mut ppa, &w, p).unwrap();
        assert_eq!(out.iterations, p);
        totals.push(out.stats.total.total() as f64);
    }
    // Doubling p should roughly double total steps (init is small).
    for pair in totals.windows(2) {
        let r = pair[1] / pair[0];
        assert!((1.7..2.3).contains(&r), "{totals:?}");
    }
}

#[test]
fn packed_engine_is_bit_identical_to_sequential() {
    let w = gen::random_connected(16, 0.2, 20, 9);
    let mut seq = Ppa::square(16).with_word_bits(12);
    let a = minimum_cost_path(&mut seq, &w, 5).unwrap();
    // 256 PEs: four packed words per mask plane.
    let mut packed = Ppa::with_backend(16, PackedBackend::new()).with_word_bits(12);
    let b = minimum_cost_path(&mut packed, &w, 5).unwrap();
    assert_eq!(a.sow, b.sow);
    assert_eq!(a.ptn, b.ptn);
    assert_eq!(
        a.stats.total, b.stats.total,
        "step counts must not depend on the host backend"
    );
}

#[test]
fn word_width_exactly_at_boundary() {
    // Worst path cost 14 fits h=4 (MAXINT 15); 15 does not.
    let w = WeightMatrix::from_edges(3, &[(0, 1, 7), (1, 2, 7)]);
    assert_eq!(fit_word_bits(&w), 4);
    let mut ppa = Ppa::square(3).with_word_bits(4);
    let out = minimum_cost_path(&mut ppa, &w, 2).unwrap();
    assert_eq!(out.sow[0], 14);

    let w = WeightMatrix::from_edges(3, &[(0, 1, 8), (1, 2, 7)]);
    let mut ppa = Ppa::square(3).with_word_bits(4);
    assert!(matches!(
        minimum_cost_path(&mut ppa, &w, 2),
        Err(McpError::WordWidthTooSmall { .. })
    ));
}

#[test]
fn dense_graph_converges_in_two_iterations() {
    let w = gen::complete(10, 9, 3);
    let mut ppa = machine_for(&w);
    let out = minimum_cost_path(&mut ppa, &w, 4).unwrap();
    // Complete graph: all optimal paths have <= 2 edges with these
    // weights, so at most 2 improving + 1 detection iterations.
    assert!(out.iterations <= 3, "{}", out.iterations);
    assert!(validate::is_valid_solution(&w, 4, &out.sow, &out.ptn));
}

#[test]
fn no_edges_graph_is_all_unreachable() {
    let w = WeightMatrix::new(5);
    let out = minimum_cost_path_auto(&w, 2).unwrap();
    for i in 0..5 {
        if i == 2 {
            assert_eq!(out.sow[i], 0);
        } else {
            assert_eq!(out.sow[i], INF);
            assert_eq!(out.ptn[i], i);
        }
    }
}
