//! End-to-end acceptance tests for the fault-tolerance campaign.
//!
//! These pin the `report faults` contract: every trial of the seeded
//! campaign ends in `recovered` or `reported` — never a silently wrong
//! path cost — and the recovery overhead reported by the solver's own
//! [`ppa_mcp::RecoveryStats`] reconciles row by row with the
//! `recovery.overhead_steps` counter collected through `ppa-obs`.

use ppa_bench::faults_campaign;
use ppa_graph::reference::bellman_ford_to_dest;
use ppa_graph::validate::is_valid_solution;
use ppa_graph::{gen, WeightMatrix, INF};
use ppa_machine::{Coord, FaultMap, SwitchFault};
use ppa_mcp::{solve_with_recovery, RecoveredMcp, RecoveryPolicy};
use ppa_ppc::Ppa;

/// Column index helper — keeps the assertions readable and fails loudly
/// if the campaign schema drifts.
fn col(table: &ppa_bench::Table, name: &str) -> usize {
    table
        .headers
        .iter()
        .position(|c| c == name)
        .unwrap_or_else(|| panic!("campaign table lost its {name:?} column"))
}

#[test]
fn campaign_has_no_silent_wrong_rows_and_overhead_reconciles() {
    let table = faults_campaign(7);
    // 3 sizes x 3 fault counts x 3 trials.
    assert_eq!(table.rows.len(), 27, "campaign grid changed size");
    let outcome = col(&table, "outcome");
    let faults = col(&table, "faults");
    let stats_overhead = col(&table, "overhead steps");
    let metrics_overhead = col(&table, "metrics overhead");

    let mut single_fault_rows = 0;
    for row in &table.rows {
        // The acceptance bar: every trial either recovers (verified
        // against the sequential reference inside the campaign) or
        // reports a typed error. A silently wrong cost is a bug.
        assert!(
            row[outcome] == "recovered" || row[outcome] == "reported",
            "trial {row:?} ended in {:?}",
            row[outcome]
        );
        // The solver's own step accounting and the ppa-obs counter are
        // two independent paths to the same number.
        assert_eq!(
            row[stats_overhead], row[metrics_overhead],
            "overhead accounting diverged in {row:?}"
        );
        if row[faults] == "1" {
            single_fault_rows += 1;
        }
    }
    assert_eq!(single_fault_rows, 9, "expected one k=1 block per size");

    // The JSON artifact the report binary writes is the same table
    // serialized; it must carry the outcomes and no silent-wrong rows.
    let json = table.to_json();
    assert!(json.contains("\"recovered\""));
    // The summary note mentions "0 silent-wrong"; what must never appear
    // is a *cell* holding that outcome.
    assert!(!json.contains("\"silent-wrong\""));
}

#[test]
fn campaign_is_deterministic_per_seed() {
    assert_eq!(faults_campaign(7).rows, faults_campaign(7).rows);
    // A different seed re-rolls graphs and fault maps; the schema stays.
    let other = faults_campaign(8);
    assert_eq!(other.rows.len(), 27);
}

/// The `overhead steps` column row by row. It counts the steps of failed
/// solve attempts plus self-test sweeps, so it pins where a faulty solve
/// stops: a bus fault mid-scan, or an invariant violation before the
/// loop test.
#[test]
fn campaign_overhead_steps_are_pinned() {
    let table = faults_campaign(7);
    let overhead = col(&table, "overhead steps");
    let steps: Vec<&str> = table.rows.iter().map(|r| r[overhead].as_str()).collect();
    assert_eq!(
        steps,
        [
            "29", "23", "134", "24", "29", "23", "23", "23", "136", // n = 4
            "134", "23", "23", "23", "74", "0", "23", "24", "352", // n = 6
            "134", "23", "244", "24", "352", "24", "23", "24", "23", // n = 8
        ]
    );
}

/// Prunes every edge touching an excluded vertex, mirroring what the
/// degraded hardware can still compute.
fn prune(w: &WeightMatrix, excluded: &[usize]) -> WeightMatrix {
    let mut pruned = w.clone();
    for &v in excluded {
        for u in 0..w.n() {
            if u != v {
                pruned.remove(v, u);
                pruned.remove(u, v);
            }
        }
    }
    pruned
}

/// A degraded result is correct iff healthy vertices match the
/// sequential reference on the pruned graph and excluded vertices
/// report unreachable.
fn degraded_is_exact(w: &WeightMatrix, d: usize, r: &RecoveredMcp) -> bool {
    let oracle = bellman_ford_to_dest(&prune(w, &r.recovery.excluded), d);
    (0..w.n()).all(|v| {
        if r.recovery.excluded.contains(&v) {
            r.output.sow[v] == INF && r.output.ptn[v] == v
        } else {
            r.output.sow[v] == oracle.dist[v]
        }
    })
}

/// The satellite guarantee: every possible single stuck-at fault on a
/// 4x4 array is either recovered from (with a host-verified result) or
/// reported as a typed error — never a silently wrong path cost.
#[test]
fn every_single_stuck_fault_on_4x4_is_recovered_or_reported() {
    let w = gen::random_connected(4, 0.6, 9, 42);
    let d = 0;
    let mut corrupted_trials = 0;
    for row in 0..4 {
        for c in 0..4 {
            for kind in [SwitchFault::StuckShort, SwitchFault::StuckOpen] {
                let at = Coord { row, col: c };
                let mut ppa = Ppa::square(4).with_word_bits(10);
                let mut fm = FaultMap::new();
                fm.inject(at, kind);
                ppa.machine_mut().attach_faults(fm);
                match solve_with_recovery(
                    &mut ppa,
                    &w,
                    d,
                    RecoveryPolicy::Degrade { max_retries: 2 },
                ) {
                    Ok(r) => {
                        if r.recovery.self_tests > 0 {
                            corrupted_trials += 1;
                        }
                        let exact = if r.recovery.excluded.is_empty() {
                            is_valid_solution(&w, d, &r.output.sow, &r.output.ptn)
                        } else {
                            degraded_is_exact(&w, d, &r)
                        };
                        assert!(exact, "{kind} at {at} produced a silently wrong result");
                    }
                    // A typed error is an acceptable outcome: the fault
                    // was detected and reported, not papered over.
                    Err(e) => {
                        corrupted_trials += 1;
                        let _ = e.to_string();
                    }
                }
            }
        }
    }
    assert!(
        corrupted_trials > 0,
        "no fault ever corrupted a run — the injection path is dead"
    );
}

/// The Degrade acceptance criterion: with a faulty switch box in row 2,
/// the solver excludes the affected vertices and returns costs for the
/// surviving sources that match the sequential reference exactly.
#[test]
fn degrade_returns_exact_costs_for_healthy_sources() {
    // On a ring, vertex 3's only candidate next hop is 4, and a
    // StuckOpen at (2, 4) splits column 4's southward broadcast so rows
    // below 2 read MAXINT there — guaranteed corruption, and the
    // invariant check trips deterministically.
    let w = gen::ring(8);
    let d = 0;
    let mut ppa = Ppa::square(8).with_word_bits(10);
    let mut fm = FaultMap::new();
    fm.inject(Coord { row: 2, col: 4 }, SwitchFault::StuckOpen);
    ppa.machine_mut().attach_faults(fm);

    let r = solve_with_recovery(&mut ppa, &w, d, RecoveryPolicy::Degrade { max_retries: 0 })
        .expect("degrade solves on the healthy sub-array");
    assert_eq!(r.recovery.excluded, vec![2, 4]);
    assert!(r.recovery.self_tests >= 1);
    assert!(degraded_is_exact(&w, d, &r));
    // Spot-check the surviving ring arc 5 -> 6 -> 7 -> 0 carries real
    // costs, not just unreachable markers.
    assert_eq!(r.output.sow[7], 1);
    assert_eq!(r.output.sow[6], 2);
    assert_eq!(r.output.sow[5], 3);
    assert_eq!(r.output.sow[2], INF);
}
