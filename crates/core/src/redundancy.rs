//! Lane-replicated redundant execution: DMR/TMR voting on the array.
//!
//! PR 8's lane batching made lanes *physically disjoint column bands*:
//! no bus transaction of a [`BatchSession`] solve crosses a lane
//! boundary (column buses are lane-pure, west folds partition at the
//! per-lane Open heads, and the batch initializer broadcasts south
//! only). A single stuck-at switch fault therefore corrupts at most the
//! lanes *adjacent to its own column band* — and two adjacent replicas
//! of the *same* problem carry identical data, so even a merged
//! boundary cluster folds to the same value. Replicating one
//! destination into `R` lanes turns fault detection into a constant
//! *host-side compare* of the replica outputs:
//!
//! * **DMR** (`R = 2`) — a disagreement proves a replica was corrupted;
//!   the solve fails typed ([`McpError::VoteDisagreement`]) instead of
//!   returning a silently wrong answer. No sequential re-solve, no
//!   host-side Bellman check on the hot path.
//! * **TMR** (`R = 3`) — the majority value is the healthy result: at
//!   most one replica of a group can be corrupted by a single stuck-at
//!   fault, so a 2-of-3 vote both detects *and corrects*, bit-identical
//!   to a fault-free solo run (outputs **and** [`McpStats`](crate::McpStats) — the vote
//!   compares the full [`McpOutput`]).
//!
//! A disagreeing vote names its suspect lanes;
//! [`LaneLayout::band`](ppa_machine::LaneLayout::band)
//! maps each suspect back to a physical column window, and a targeted
//! BIST sweep ([`Machine::self_test`](ppa_machine::Machine::self_test)
//! intersected with the suspect bands via
//! [`FaultMap::faults_in_cols`](ppa_machine::FaultMap::faults_in_cols)
//! semantics) localizes the stuck switches behind the disagreement.
//!
//! [`RecoveryPolicy::Redundant`](crate::RecoveryPolicy) wires this into
//! [`solve_with_recovery`](crate::solve_with_recovery): the recovering
//! solver replicates the problem onto a wide array that inherits the
//! original machine's fault map, votes, and — under TMR — returns the
//! corrected answer without ever touching the sequential reference.

use crate::batch::{BatchSession, LaneLimit};
use crate::error::McpError;
use crate::mcp::McpOutput;
use crate::Result;
use ppa_machine::{Coord, Executor, StepReport, SwitchFault};
use std::fmt;
use std::ops::Range;
use std::str::FromStr;

/// How many lanes each destination occupies, and what a disagreement
/// means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Redundancy {
    /// One lane per destination: no replication, no vote.
    #[default]
    Off,
    /// Dual modular redundancy: two replica lanes per destination. A
    /// disagreement *detects* corruption (typed error); it cannot tell
    /// which replica is right.
    Dmr,
    /// Triple modular redundancy: three replica lanes per destination,
    /// 2-of-3 majority vote.
    Tmr {
        /// `true`: return the majority result (detect *and* correct).
        /// `false`: detect-only — any disagreement is a typed error,
        /// like DMR, but the minority lane is still named exactly.
        correct: bool,
    },
}

impl Redundancy {
    /// Replica lanes per destination (1, 2 or 3).
    pub fn replicas(self) -> usize {
        match self {
            Redundancy::Off => 1,
            Redundancy::Dmr => 2,
            Redundancy::Tmr { .. } => 3,
        }
    }

    /// Whether a majority disagreement yields a corrected result
    /// instead of a typed error.
    pub fn corrects(self) -> bool {
        matches!(self, Redundancy::Tmr { correct: true })
    }

    /// Each item of `items` repeated [`Redundancy::replicas`] times,
    /// adjacently — the lane order [`BatchSession::solve_redundant`]
    /// expects for graphs and destinations.
    pub fn expand<T: Clone>(self, items: &[T]) -> Vec<T> {
        let r = self.replicas();
        let mut out = Vec::with_capacity(items.len() * r);
        for item in items {
            for _ in 0..r {
                out.push(item.clone());
            }
        }
        out
    }
}

impl fmt::Display for Redundancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Redundancy::Off => f.write_str("off"),
            Redundancy::Dmr => f.write_str("dmr"),
            Redundancy::Tmr { correct: true } => f.write_str("tmr"),
            Redundancy::Tmr { correct: false } => f.write_str("tmr-detect"),
        }
    }
}

impl FromStr for Redundancy {
    type Err = String;

    /// Parses the CLI/config spelling: `off`, `dmr`, `tmr` (correcting)
    /// or `tmr-detect`.
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "off" => Ok(Redundancy::Off),
            "dmr" => Ok(Redundancy::Dmr),
            "tmr" => Ok(Redundancy::Tmr { correct: true }),
            "tmr-detect" => Ok(Redundancy::Tmr { correct: false }),
            other => Err(format!(
                "unknown redundancy mode {other:?} (expected off|dmr|tmr|tmr-detect)"
            )),
        }
    }
}

/// How one destination's replica vote went.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VoteReport {
    /// Replica lanes this destination occupied.
    pub replicas: usize,
    /// Whether any replica disagreed with the others.
    pub disagreed: bool,
    /// Whether a TMR majority overrode a corrupted minority replica
    /// (always `false` for DMR and detect-only TMR).
    pub corrected: bool,
    /// Absolute lane indices voted out. For a DMR tie both lanes start
    /// suspect; when targeted BIST localizes stuck switches in exactly
    /// one suspect's band, the suspicion narrows to that lane.
    pub suspect_lanes: Vec<usize>,
    /// Physical column bands of the suspect lanes
    /// ([`LaneLayout::band`](ppa_machine::LaneLayout::band)), in
    /// `suspect_lanes` order.
    pub suspect_bands: Vec<Range<usize>>,
    /// Stuck switches the targeted BIST sweep localized inside the
    /// suspect bands (empty when the sweep found nothing there — e.g.
    /// a transient glitch corrupted the replica and left no fault).
    pub located: Vec<(Coord, SwitchFault)>,
}

/// One destination's voted outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct VotedLane {
    /// The voted result: the unanimous (or TMR-corrected majority)
    /// output, or a typed error — [`McpError::VoteDisagreement`] when
    /// the vote detected corruption it could not correct.
    pub outcome: Result<McpOutput>,
    /// Vote accounting for this destination.
    pub vote: VoteReport,
}

/// A whole redundant wave: one [`VotedLane`] per destination plus the
/// shared diagnostic cost (at most one BIST sweep per wave, run only
/// when some vote disagreed).
#[derive(Debug, Clone, PartialEq)]
pub struct RedundantWave {
    /// Per-destination voted outcomes, in destination order.
    pub lanes: Vec<VotedLane>,
    /// BIST sweeps run for this wave (0 or 1).
    pub self_tests: usize,
    /// Controller steps the targeted BIST localization consumed.
    pub bist_steps: StepReport,
}

impl<E: Executor> BatchSession<E> {
    /// Solves `dests` with each destination replicated into
    /// `mode.replicas()` adjacent lanes and voted (see the module
    /// docs). The session must have been built with the replicated
    /// graph list — [`Redundancy::expand`] produces the expected lane
    /// order — so `lanes() == dests.len() * mode.replicas()`.
    ///
    /// The hot path is vote-only: replicas are compared host-side,
    /// byte for byte (outputs *and* stats); no sequential reference
    /// and no host-side Bellman check is consulted. When some vote
    /// disagrees, one targeted BIST sweep localizes stuck switches in
    /// the suspect bands.
    ///
    /// # Errors
    /// [`McpError::BatchShape`] if the lane count does not match the
    /// destination count times the replica factor, or if the lanes of
    /// one replica group hold different graphs; any machine-level
    /// failure of the underlying batch solve.
    pub fn solve_redundant(&mut self, dests: &[usize], mode: Redundancy) -> Result<RedundantWave> {
        let limits = vec![LaneLimit::default(); dests.len()];
        self.solve_redundant_with(dests, &limits, mode)
    }

    /// [`BatchSession::solve_redundant`] with one [`LaneLimit`] per
    /// *destination* (each limit applies to all of that destination's
    /// replica lanes; cancel tokens are shared, budgets are the same
    /// solo-equivalent ledger on every replica).
    ///
    /// # Errors
    /// As [`BatchSession::solve_redundant`], plus
    /// [`McpError::BatchShape`] if `limits` does not cover every
    /// destination.
    pub fn solve_redundant_with(
        &mut self,
        dests: &[usize],
        limits: &[LaneLimit],
        mode: Redundancy,
    ) -> Result<RedundantWave> {
        let r = mode.replicas();
        let lanes = self.lanes();
        if dests.len() * r != lanes {
            return Err(McpError::BatchShape {
                detail: format!(
                    "{} destination(s) x {r} replica(s) need {} lane(s) but the session has {lanes}",
                    dests.len(),
                    dests.len() * r,
                ),
            });
        }
        if limits.len() != dests.len() {
            return Err(McpError::BatchShape {
                detail: format!(
                    "{} lane limit(s) for {} destination(s)",
                    limits.len(),
                    dests.len()
                ),
            });
        }
        for g in 0..dests.len() {
            let group = &self.graphs()[g * r..(g + 1) * r];
            if group.iter().any(|w| *w != group[0]) {
                return Err(McpError::BatchShape {
                    detail: format!(
                        "replica lanes {}..{} of destination group {g} hold different graphs",
                        g * r,
                        (g + 1) * r
                    ),
                });
            }
        }

        let exp_dests = mode.expand(dests);
        let exp_limits = mode.expand(limits);
        let wave = self.solve_with(&exp_dests, &exp_limits)?;

        // ---- the vote: host-side, full-output equality per group ----
        let layout = self.layout();
        let mut voted: Vec<VotedLane> = Vec::with_capacity(dests.len());
        let mut any_disagreed = false;
        for g in 0..dests.len() {
            let group = &wave[g * r..(g + 1) * r];
            // Equivalence classes under full equality (Ok outputs
            // compare sow, ptn, iterations AND stats; Err values
            // compare as typed errors).
            let mut classes: Vec<Vec<usize>> = Vec::new();
            for (i, res) in group.iter().enumerate() {
                match classes.iter_mut().find(|c| group[c[0]] == *res) {
                    Some(class) => class.push(i),
                    None => classes.push(vec![i]),
                }
            }
            let majority = classes.iter().max_by_key(|c| c.len()).cloned();
            let majority = majority.filter(|c| c.len() * 2 > r);
            let unanimous = classes.len() == 1;
            let disagreed = !unanimous;
            any_disagreed |= disagreed;

            let suspect_local: Vec<usize> = match (&majority, disagreed) {
                (_, false) => Vec::new(),
                // A strict majority indicts exactly the minority.
                (Some(maj), true) => (0..r).filter(|i| !maj.contains(i)).collect(),
                // No majority (DMR tie, or three-way TMR split): every
                // replica is suspect until BIST narrows it down.
                (None, true) => (0..r).collect(),
            };
            let suspect_lanes: Vec<usize> = suspect_local.iter().map(|i| g * r + i).collect();
            let suspect_bands: Vec<Range<usize>> =
                suspect_lanes.iter().map(|&l| layout.band(l)).collect();

            let outcome = if !disagreed {
                group[0].clone()
            } else if let (Some(maj), true) = (&majority, mode.corrects()) {
                group[maj[0]].clone()
            } else {
                Err(McpError::VoteDisagreement {
                    lanes: suspect_lanes.clone(),
                    located: Vec::new(), // filled in after the sweep
                })
            };
            let corrected = disagreed && mode.corrects() && outcome.is_ok();
            voted.push(VotedLane {
                outcome,
                vote: VoteReport {
                    replicas: r,
                    disagreed,
                    corrected,
                    suspect_lanes,
                    suspect_bands,
                    located: Vec::new(),
                },
            });
        }

        // ---- targeted BIST: one sweep per wave, only on disagreement ----
        let mut self_tests = 0usize;
        let mut bist_steps = StepReport::default();
        if any_disagreed {
            let report = self.ppa_mut().machine_mut().self_test();
            self_tests = 1;
            bist_steps = report.steps;
            for lane in &mut voted {
                if !lane.vote.disagreed {
                    continue;
                }
                let located: Vec<(Coord, SwitchFault)> = report
                    .located
                    .iter()
                    .filter(|(c, _)| lane.vote.suspect_bands.iter().any(|b| b.contains(&c.col)))
                    .copied()
                    .collect();
                // When the sweep hits exactly some of the suspects'
                // bands, the vote's suspicion narrows to those lanes
                // (a DMR tie becomes an attribution).
                if !located.is_empty() {
                    let guilty: Vec<usize> = lane
                        .vote
                        .suspect_lanes
                        .iter()
                        .copied()
                        .filter(|&l| located.iter().any(|(c, _)| layout.band(l).contains(&c.col)))
                        .collect();
                    if !guilty.is_empty() && guilty.len() < lane.vote.suspect_lanes.len() {
                        lane.vote.suspect_lanes = guilty;
                        lane.vote.suspect_bands = lane
                            .vote
                            .suspect_lanes
                            .iter()
                            .map(|&l| layout.band(l))
                            .collect();
                    }
                }
                lane.vote.located = located.clone();
                if let Err(McpError::VoteDisagreement {
                    lanes: err_lanes,
                    located: err_located,
                }) = &mut lane.outcome
                {
                    *err_lanes = lane.vote.suspect_lanes.clone();
                    *err_located = located.iter().map(|&(c, _)| c).collect();
                }
            }
        }

        let disagreements = voted.iter().filter(|l| l.vote.disagreed).count() as u64;
        let corrections = voted.iter().filter(|l| l.vote.corrected).count() as u64;
        if let Some(m) = self.ppa_mut().metrics_mut() {
            m.inc("redundancy.votes", dests.len() as u64);
            m.inc("redundancy.disagreements", disagreements);
            m.inc("redundancy.corrected", corrections);
            m.inc("redundancy.self_tests", self_tests as u64);
        }

        Ok(RedundantWave {
            lanes: voted,
            self_tests,
            bist_steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::replicate;
    use crate::McpSession;
    use ppa_graph::{gen, WeightMatrix};
    use ppa_machine::FaultMap;
    use ppa_ppc::Ppa;

    fn solo(w: &WeightMatrix, d: usize, word_bits: u32) -> McpOutput {
        let ppa = Ppa::square(w.n()).with_word_bits(word_bits);
        McpSession::from_ppa(ppa, w).unwrap().solve(d).unwrap()
    }

    fn session_for(w: &WeightMatrix, dests: usize, mode: Redundancy) -> BatchSession {
        BatchSession::new(&replicate(w, dests * mode.replicas())).unwrap()
    }

    #[test]
    fn mode_grammar_round_trips() {
        for mode in [
            Redundancy::Off,
            Redundancy::Dmr,
            Redundancy::Tmr { correct: true },
            Redundancy::Tmr { correct: false },
        ] {
            assert_eq!(mode.to_string().parse::<Redundancy>().unwrap(), mode);
        }
        assert_eq!(Redundancy::Off.replicas(), 1);
        assert_eq!(Redundancy::Dmr.replicas(), 2);
        assert_eq!(Redundancy::Tmr { correct: true }.replicas(), 3);
        assert!(Redundancy::Tmr { correct: true }.corrects());
        assert!(!Redundancy::Tmr { correct: false }.corrects());
        assert!("nmr".parse::<Redundancy>().is_err());
        assert_eq!(Redundancy::Dmr.expand(&[7usize, 9]), vec![7, 7, 9, 9]);
    }

    #[test]
    fn healthy_votes_are_unanimous_and_bit_identical_to_solo() {
        let w = gen::random_connected(6, 0.4, 11, 21);
        for mode in [
            Redundancy::Dmr,
            Redundancy::Tmr { correct: true },
            Redundancy::Tmr { correct: false },
        ] {
            let mut sess = session_for(&w, 2, mode);
            let h = sess.word_bits();
            let wave = sess.solve_redundant(&[0, 3], mode).unwrap();
            assert_eq!(wave.self_tests, 0, "no disagreement, no sweep");
            for (lane, d) in wave.lanes.iter().zip([0usize, 3]) {
                assert!(!lane.vote.disagreed);
                assert!(!lane.vote.corrected);
                assert!(lane.vote.suspect_lanes.is_empty());
                assert_eq!(lane.outcome.as_ref().unwrap(), &solo(&w, d, h));
            }
        }
    }

    /// Sweep a stuck-at fault over every switch box of replica lane 1's
    /// band: DMR must flag every effective fault by vote and never
    /// accept a wrong answer; the suspect attribution must name lane 1
    /// whenever BIST localizes the fault.
    #[test]
    fn dmr_never_accepts_a_corrupted_replica() {
        let w = gen::ring(5);
        let healthy = {
            let sess = session_for(&w, 1, Redundancy::Dmr);
            solo(&w, 0, sess.word_bits())
        };
        let n = w.n();
        let mut effective = 0usize;
        for row in 0..n {
            for col in n..2 * n {
                for fault in [SwitchFault::StuckOpen, SwitchFault::StuckShort] {
                    let mut sess = session_for(&w, 1, Redundancy::Dmr);
                    let mut fm = FaultMap::new();
                    fm.inject(Coord::new(row, col), fault);
                    sess.ppa_mut().machine_mut().attach_faults(fm);
                    let wave = match sess.solve_redundant(&[0], Redundancy::Dmr) {
                        Ok(wave) => wave,
                        // A machine-level abort is a *reported* outcome,
                        // never a wrong answer.
                        Err(e) => {
                            assert!(e.indicates_corruption(), "({row},{col}) {fault}: {e}");
                            continue;
                        }
                    };
                    let lane = &wave.lanes[0];
                    match &lane.outcome {
                        Ok(out) => {
                            // The fault was ineffective for this solve;
                            // the vote must have been unanimous and right.
                            assert!(!lane.vote.disagreed, "({row},{col}) {fault}");
                            assert_eq!(out, &healthy, "({row},{col}) {fault}: silent wrong");
                        }
                        Err(McpError::VoteDisagreement { lanes, .. }) => {
                            effective += 1;
                            assert!(lane.vote.disagreed);
                            assert!(
                                lanes.contains(&1) || lanes.contains(&0),
                                "({row},{col}) {fault}: no suspect named"
                            );
                            // BIST sees the stuck switch, so the tie
                            // narrows to the faulty band: lane 1.
                            if !lane.vote.located.is_empty() {
                                assert_eq!(lane.vote.suspect_lanes, vec![1]);
                                assert_eq!(lane.vote.suspect_bands, vec![n..2 * n]);
                            }
                            assert_eq!(wave.self_tests, 1);
                        }
                        Err(e) => {
                            assert!(e.indicates_corruption(), "({row},{col}) {fault}: {e}");
                        }
                    }
                }
            }
        }
        assert!(effective > 0, "the sweep never produced a divergence");
    }

    /// TMR with `correct: true` must return the healthy answer for
    /// every single stuck-at fault in one replica's band — bit
    /// identical to a fault-free solo run, stats included.
    #[test]
    fn tmr_corrects_to_the_bit_identical_healthy_output() {
        let mode = Redundancy::Tmr { correct: true };
        let w = gen::ring(5);
        let n = w.n();
        let healthy = {
            let sess = session_for(&w, 1, mode);
            solo(&w, 0, sess.word_bits())
        };
        let mut corrected = 0usize;
        for row in 0..n {
            for col in n..2 * n {
                for fault in [SwitchFault::StuckOpen, SwitchFault::StuckShort] {
                    let mut sess = session_for(&w, 1, mode);
                    let mut fm = FaultMap::new();
                    fm.inject(Coord::new(row, col), fault);
                    sess.ppa_mut().machine_mut().attach_faults(fm);
                    let wave = match sess.solve_redundant(&[0], mode) {
                        Ok(wave) => wave,
                        Err(e) => {
                            assert!(e.indicates_corruption(), "({row},{col}) {fault}: {e}");
                            continue;
                        }
                    };
                    let lane = &wave.lanes[0];
                    let out = lane
                        .outcome
                        .as_ref()
                        .unwrap_or_else(|e| panic!("({row},{col}) {fault}: TMR failed: {e}"));
                    assert_eq!(out, &healthy, "({row},{col}) {fault}: not bit-identical");
                    if lane.vote.disagreed {
                        corrected += 1;
                        assert!(lane.vote.corrected);
                        assert_eq!(lane.vote.suspect_lanes, vec![1], "minority is lane 1");
                        assert_eq!(lane.vote.suspect_bands, vec![n..2 * n]);
                    }
                }
            }
        }
        assert!(corrected > 0, "the sweep never forced a correction");
    }

    #[test]
    fn detect_only_tmr_reports_instead_of_correcting() {
        let mode = Redundancy::Tmr { correct: false };
        let w = gen::ring(5);
        let n = w.n();
        let mut detected = 0usize;
        for row in 0..n {
            for col in n..2 * n {
                let mut sess = session_for(&w, 1, mode);
                let mut fm = FaultMap::new();
                fm.inject(Coord::new(row, col), SwitchFault::StuckOpen);
                sess.ppa_mut().machine_mut().attach_faults(fm);
                let Ok(wave) = sess.solve_redundant(&[0], mode) else {
                    continue;
                };
                let lane = &wave.lanes[0];
                if lane.vote.disagreed {
                    detected += 1;
                    assert!(!lane.vote.corrected);
                    assert!(matches!(
                        lane.outcome,
                        Err(McpError::VoteDisagreement { .. })
                    ));
                }
            }
        }
        assert!(detected > 0);
    }

    #[test]
    fn shape_errors_are_typed() {
        let w = gen::ring(4);
        // 3 lanes cannot hold 2 DMR destinations.
        let mut sess = BatchSession::new(&replicate(&w, 3)).unwrap();
        assert!(matches!(
            sess.solve_redundant(&[0, 1], Redundancy::Dmr),
            Err(McpError::BatchShape { .. })
        ));
        // Replica groups must hold identical graphs.
        let mut mixed =
            BatchSession::new(&[gen::ring(4), gen::random_digraph(4, 0.5, 9, 1)]).unwrap();
        assert!(matches!(
            mixed.solve_redundant(&[0], Redundancy::Dmr),
            Err(McpError::BatchShape { .. })
        ));
        // One limit per destination, not per lane.
        let mut sess = BatchSession::new(&replicate(&w, 2)).unwrap();
        let limits = vec![LaneLimit::default(), LaneLimit::default()];
        assert!(matches!(
            sess.solve_redundant_with(&[0], &limits, Redundancy::Dmr),
            Err(McpError::BatchShape { .. })
        ));
    }

    #[test]
    fn per_destination_limits_apply_to_every_replica() {
        let w = gen::ring(5);
        let mode = Redundancy::Dmr;
        let mut sess = session_for(&w, 1, mode);
        let limits = vec![LaneLimit {
            step_budget: Some(10),
            ..LaneLimit::default()
        }];
        let wave = sess.solve_redundant_with(&[0], &limits, mode).unwrap();
        let lane = &wave.lanes[0];
        // Both replicas die identically at the same ledger point, so
        // the vote is unanimous on the typed budget error.
        assert!(!lane.vote.disagreed);
        assert!(lane
            .outcome
            .as_ref()
            .is_err_and(|e| e.is_step_budget_exhausted()));
    }
}
