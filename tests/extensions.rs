//! Integration tests for the extension layers: the widest-path semiring
//! variant, the boolean specializations, the collective toolbox, fault
//! injection, and the ablation variants — all across crate boundaries.

#![allow(clippy::needless_range_loop)]
use ppa_machine::faults::{bist_patterns, FaultMap, SwitchFault};
use ppa_mcp::closure::hop_levels;
use ppa_mcp::variants::{minimum_cost_path_variant, BusModel, MinModel, VariantConfig};
use ppa_mcp::widest::{widest_path, widest_path_oracle};
use ppa_suite::prelude::*;
use ppc_lang::programs;

fn machine_for(w: &WeightMatrix) -> Ppa {
    Ppa::square(w.n()).with_word_bits(fit_word_bits(w).clamp(4, 62))
}

#[test]
fn widest_and_shortest_disagree_when_they_should() {
    // Wide detour vs narrow shortcut: shortest takes the direct edge,
    // widest the detour.
    let w = WeightMatrix::from_edges(3, &[(0, 2, 2), (0, 1, 9), (1, 2, 8)]);
    let mut a = machine_for(&w);
    let cheap = minimum_cost_path(&mut a, &w, 2).unwrap();
    let mut b = machine_for(&w);
    let wide = widest_path(&mut b, &w, 2).unwrap();
    assert_eq!(cheap.ptn[0], 2, "shortest goes direct (cost 2)");
    assert_eq!(wide.ptn[0], 1, "widest detours (bottleneck 8)");
}

#[test]
fn widest_sweep_against_oracle() {
    for seed in 0..15u64 {
        let n = 6 + seed as usize % 7;
        let w = gen::random_digraph(n, 0.35, 25, seed);
        let d = seed as usize % n;
        let mut ppa = machine_for(&w);
        let out = widest_path(&mut ppa, &w, d).unwrap();
        let oracle = widest_path_oracle(&w, d);
        for i in 0..n {
            if i != d {
                assert_eq!(out.cap[i], oracle[i], "seed {seed} vertex {i}");
            }
        }
    }
}

#[test]
fn three_implementations_of_widest_agree() {
    let w = gen::random_connected(9, 0.2, 30, 17);
    let d = 4;
    let mut a = machine_for(&w);
    let native = widest_path(&mut a, &w, d).unwrap();
    let mut b = machine_for(&w);
    let interpreted = programs::run_widest_path(&mut b, &w, d).unwrap();
    let oracle = widest_path_oracle(&w, d);
    for i in 0..9 {
        if i != d {
            assert_eq!(native.cap[i], oracle[i], "native vs oracle at {i}");
            assert_eq!(interpreted[i], oracle[i], "interpreted vs oracle at {i}");
        }
    }
}

#[test]
fn hop_levels_lower_bound_weighted_paths() {
    // With weights >= 1, cost(i) >= hops(i); with unit weights, equality.
    let w = gen::random_connected(12, 0.2, 9, 8);
    let mut a = Ppa::square(12);
    let hops = hop_levels(&mut a, &w, 0).unwrap();
    let mut b = machine_for(&w);
    let mcp = minimum_cost_path(&mut b, &w, 0).unwrap();
    for i in 1..12 {
        match hops.level[i] {
            None => assert_eq!(mcp.sow[i], INF),
            Some(h) => assert!(mcp.sow[i] >= h as i64, "vertex {i}"),
        }
    }

    let unit = gen::ring(9);
    let mut c = Ppa::square(9);
    let hops = hop_levels(&mut c, &unit, 0).unwrap();
    let mut d = machine_for(&unit);
    let mcp = minimum_cost_path(&mut d, &unit, 0).unwrap();
    for i in 1..9 {
        assert_eq!(hops.level[i].map(|h| h as i64), Some(mcp.sow[i]));
    }
}

#[test]
fn collective_toolbox_composes_with_algorithms() {
    // Use count_line to compute out-degrees on the machine and compare
    // with the matrix view.
    let w = gen::random_digraph(10, 0.3, 9, 3);
    let mut ppa = Ppa::square(10).with_word_bits(8);
    let adj = Parallel::from_fn(ppa.dim(), |c| w.has_edge(c.row, c.col));
    let deg = ppa.count_line(&adj, Direction::East).unwrap();
    for i in 0..10 {
        assert_eq!(*deg.at(i, 0), w.out_degree(i) as i64, "vertex {i}");
    }
    // leader() finds each row's first neighbour.
    let col = ppa.col_index();
    let nm1 = ppa.constant(9i64);
    let l = ppa.eq(&col, &nm1).unwrap();
    let has_any = (0..10).all(|i| w.out_degree(i) > 0);
    if has_any {
        let lead = ppa.leader(&adj, Direction::West, &l).unwrap();
        for i in 0..10 {
            let first = (0..10).find(|&j| w.has_edge(i, j)).unwrap() as i64;
            assert_eq!(*lead.at(i, 0), first, "vertex {i}");
        }
    }
}

#[test]
fn ablation_variants_agree_on_all_families() {
    let configs = [
        VariantConfig::reference(),
        VariantConfig {
            bus: BusModel::Linear,
            min: MinModel::BitSerial,
        },
        VariantConfig {
            bus: BusModel::Circular,
            min: MinModel::Word,
        },
        VariantConfig {
            bus: BusModel::Linear,
            min: MinModel::Word,
        },
    ];
    for family in [
        gen::Family::Sparse,
        gen::Family::Ring,
        gen::Family::Geometric,
    ] {
        let w = family.build(8, 12, 55);
        let mut reference: Option<Vec<Weight>> = None;
        for config in configs {
            let mut ppa = machine_for(&w);
            let out = minimum_cost_path_variant(&mut ppa, &w, 3, config).unwrap();
            match &reference {
                None => reference = Some(out.sow.clone()),
                Some(r) => assert_eq!(&out.sow, r, "{family:?} {config:?}"),
            }
        }
    }
}

#[test]
fn single_stuck_fault_never_escapes_bist() {
    let dim = ppa_machine::Dim::square(6);
    let patterns = bist_patterns(dim);
    for r in 0..6 {
        for c in 0..6 {
            for fault in [SwitchFault::StuckShort, SwitchFault::StuckOpen] {
                let mut fm = FaultMap::new();
                fm.inject(Coord::new(r, c), fault);
                assert!(
                    patterns.iter().any(|p| fm.distorts(p)),
                    "({r},{c}) {fault:?}"
                );
            }
        }
    }
}

#[test]
fn faulty_statement_10_configuration_is_detected_or_corrupts() {
    // For the MCP switch patterns, any distorting fault either produces
    // a machine-level bus fault (detected) or changes some PE's read.
    let dim = ppa_machine::Dim::square(5);
    let d = 2;
    let intended = ppa_machine::Plane::from_fn(dim, |c| c.row == d);
    let src = ppa_machine::Plane::from_fn(dim, |c| (c.row * 5 + c.col) as i64);
    let healthy = ppa_machine::bus::broadcast(dim, &src, Direction::South, &intended).unwrap();
    for r in 0..5 {
        for c in 0..5 {
            for fault in [SwitchFault::StuckShort, SwitchFault::StuckOpen] {
                let mut fm = FaultMap::new();
                fm.inject(Coord::new(r, c), fault);
                if !fm.distorts(&intended) {
                    continue;
                }
                let effective = fm.apply(&intended);
                match ppa_machine::bus::broadcast(dim, &src, Direction::South, &effective) {
                    Err(_) => {} // undriven line -> surfaced as an error
                    Ok(faulty) => {
                        assert_ne!(
                            healthy, faulty,
                            "distorting fault at ({r},{c}) {fault:?} had no observable effect"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn widest_matches_across_word_widths() {
    let w = gen::random_connected(8, 0.25, 20, 9);
    let mut a = Ppa::square(8).with_word_bits(8);
    let x = widest_path(&mut a, &w, 1).unwrap();
    let mut b = Ppa::square(8).with_word_bits(20);
    let y = widest_path(&mut b, &w, 1).unwrap();
    // Capacities are width-independent (only `MAXINT` at d differs).
    for i in 0..8 {
        if i != 1 {
            assert_eq!(x.cap[i], y.cap[i], "vertex {i}");
        }
    }
}
