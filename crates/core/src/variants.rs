//! Ablation variants of the MCP algorithm.
//!
//! DESIGN.md calls out two modeling decisions worth quantifying:
//!
//! * **A1 — bus model.** The standard implementation relies on circular
//!   buses: statement 16's diagonal fold injects at row `i` and may be
//!   read at a row *above* it. On strictly linear buses the same fold is
//!   still implementable, but costs two passes (one per direction) plus a
//!   merge. [`BusModel::Linear`] runs that variant so the report can put
//!   a number on what wrap-around saves.
//! * **A2 — combining model.** The PPA pays `O(h)` per `min` because its
//!   buses carry one bit at a time. A hypothetical word-parallel
//!   combining bus ([`MinModel::Word`]) collapses that to `O(1)`;
//!   running it shows how much of the total the bit-serial scans are.
//!
//! Both variants compute *identical results* to the reference
//! implementation — only the step counts move — which the tests assert.
//! A variant is a model the MCP driver fixes at load, not a second copy of
//! the loop: it governs the driver's South fold broadcasts and its two row
//! scans.

use crate::mcp::{mcp_run, McpOutput};
use crate::Result;
use ppa_graph::WeightMatrix;
use ppa_machine::Executor;
use ppa_ppc::Ppa;

/// Bus topology under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusModel {
    /// Wrap-around lines (the model of the main implementation).
    Circular,
    /// Strictly linear lines: every fold-style broadcast is emulated with
    /// one pass per direction plus a select-merge.
    Linear,
}

/// Row-minimum implementation under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinModel {
    /// The paper's bit-serial scan, `O(h)` steps.
    BitSerial,
    /// A hypothetical single-step word-combining bus, `O(1)` steps
    /// (not PPA-implementable; ablation only).
    Word,
}

/// Variant configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantConfig {
    /// Bus topology.
    pub bus: BusModel,
    /// Minimum implementation.
    pub min: MinModel,
}

impl VariantConfig {
    /// The reference configuration (circular buses, bit-serial min).
    pub fn reference() -> Self {
        VariantConfig {
            bus: BusModel::Circular,
            min: MinModel::BitSerial,
        }
    }
}

/// Runs the MCP dynamic program under a variant configuration: the MCP
/// solve driver ([`crate::mcp`]) on one lane, with `config` fixed when the
/// weights are loaded.
///
/// Semantics match [`crate::mcp::minimum_cost_path`] exactly, guards
/// included; only the realization (and therefore the step count) of the
/// communication and combination phases differs.
pub fn minimum_cost_path_variant<E: Executor>(
    ppa: &mut Ppa<E>,
    w: &WeightMatrix,
    d: usize,
    config: VariantConfig,
) -> Result<McpOutput> {
    mcp_run(ppa, w, d, config, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcp::{fit_word_bits, minimum_cost_path};
    use ppa_graph::gen;

    fn machine_for(w: &WeightMatrix) -> Ppa {
        Ppa::square(w.n()).with_word_bits(fit_word_bits(w).clamp(2, 62))
    }

    #[test]
    fn reference_variant_equals_mainline() {
        let w = gen::random_connected(10, 0.2, 12, 8);
        let mut a = machine_for(&w);
        let main = minimum_cost_path(&mut a, &w, 4).unwrap();
        let mut b = machine_for(&w);
        let var = minimum_cost_path_variant(&mut b, &w, 4, VariantConfig::reference()).unwrap();
        assert_eq!(main.sow, var.sow);
        assert_eq!(main.ptn, var.ptn);
        assert_eq!(main.iterations, var.iterations);
    }

    #[test]
    fn linear_bus_variant_is_correct_but_costlier() {
        for seed in 0..6u64 {
            let w = gen::random_digraph(9, 0.3, 10, seed);
            let mut a = machine_for(&w);
            let circ =
                minimum_cost_path_variant(&mut a, &w, 2, VariantConfig::reference()).unwrap();
            let mut b = machine_for(&w);
            let lin = minimum_cost_path_variant(
                &mut b,
                &w,
                2,
                VariantConfig {
                    bus: BusModel::Linear,
                    min: MinModel::BitSerial,
                },
            )
            .unwrap();
            assert_eq!(circ.sow, lin.sow, "seed {seed}");
            assert_eq!(circ.ptn, lin.ptn, "seed {seed}");
            assert!(
                lin.stats.total.total() > circ.stats.total.total(),
                "linear buses must cost extra steps"
            );
        }
    }

    #[test]
    fn word_min_variant_is_correct_and_h_independent() {
        let w = gen::ring(8);
        let word = VariantConfig {
            bus: BusModel::Circular,
            min: MinModel::Word,
        };
        let mut p8 = Ppa::square(8).with_word_bits(8);
        let a = minimum_cost_path_variant(&mut p8, &w, 0, word).unwrap();
        let mut p32 = Ppa::square(8).with_word_bits(32);
        let b = minimum_cost_path_variant(&mut p32, &w, 0, word).unwrap();
        assert_eq!(a.sow, b.sow);
        assert_eq!(
            a.stats.total.total(),
            b.stats.total.total(),
            "word-combining steps must not depend on h"
        );
        // And both match the bit-serial answer.
        let mut r = Ppa::square(8).with_word_bits(8);
        let reference =
            minimum_cost_path_variant(&mut r, &w, 0, VariantConfig::reference()).unwrap();
        assert_eq!(a.sow, reference.sow);
        assert!(a.stats.total.total() < reference.stats.total.total());
    }

    #[test]
    fn linear_and_word_compose() {
        let w = gen::random_connected(8, 0.25, 9, 5);
        let mut ppa = machine_for(&w);
        let out = minimum_cost_path_variant(
            &mut ppa,
            &w,
            3,
            VariantConfig {
                bus: BusModel::Linear,
                min: MinModel::Word,
            },
        )
        .unwrap();
        assert!(ppa_graph::validate::is_valid_solution(
            &w, 3, &out.sow, &out.ptn
        ));
    }
}
