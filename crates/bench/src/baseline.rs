//! Persisted benchmark baselines and the regression gate.
//!
//! A [`Baseline`] is the committed perf record of one experiment grid
//! (`BENCH_backend.json`, `BENCH_batch.json`, `BENCH_serve.json`, ...):
//! per-cell deterministic step counts, deterministic backend counters
//! (plan-cache hits, arena reuse), and noise-aware wall-clock statistics
//! (median + MAD over warmed repetitions), stamped with the
//! [`HostFingerprint`] and git-describe string of the run that produced
//! it. The serialization is **byte-stable**: field order is fixed and
//! every number is integral, so `from_json(to_json(b))` reproduces both
//! the value and its JSON bytes exactly — the committed files diff
//! cleanly.
//!
//! [`compare`] is the gate `report bench --check` runs: step-count or
//! counter drift is always a hard failure (those are deterministic by
//! construction — a change means the *algorithm* changed), while
//! wall-clock regressions beyond the MAD-scaled tolerance are hard
//! failures only when the candidate ran on the same host fingerprint;
//! on a different host they downgrade to warnings.

use ppa_obs::Json;
use std::collections::BTreeMap;

/// Version of the `BENCH_*.json` schema; bump on breaking change.
pub const SCHEMA_VERSION: u64 = 1;

/// The committed file name for one experiment baseline.
pub fn bench_file_name(name: &str) -> String {
    format!("BENCH_{name}.json")
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// outside a git checkout.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// What makes wall-clock numbers comparable: core count, rustc version,
/// and build profile. Step counts and counters are host-independent;
/// wall-clock is only hard-gated when every fingerprint field matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFingerprint {
    /// `std::thread::available_parallelism()` of the measuring host.
    pub cores: u64,
    /// `rustc -V` of the toolchain on the measuring host.
    pub rustc: String,
    /// `debug` or `release` (wall-clock differs by an order of
    /// magnitude between the two).
    pub profile: String,
}

impl HostFingerprint {
    /// Fingerprints the current host and build.
    pub fn detect() -> HostFingerprint {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        HostFingerprint {
            cores,
            rustc,
            profile: profile.to_owned(),
        }
    }

    /// Serializes the fingerprint (also used by `report` to stamp every
    /// experiment artifact with provenance).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cores", Json::Num(self.cores as f64)),
            ("rustc", Json::Str(self.rustc.clone())),
            ("profile", Json::Str(self.profile.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<HostFingerprint, String> {
        Ok(HostFingerprint {
            cores: get_u64(v, "cores")?,
            rustc: get_str(v, "rustc")?,
            profile: get_str(v, "profile")?,
        })
    }
}

/// Noise-aware wall-clock statistics over warmed repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallStats {
    /// Median wall-clock in nanoseconds.
    pub median_ns: u64,
    /// Median absolute deviation from the median, in nanoseconds.
    pub mad_ns: u64,
    /// Number of repetitions the statistics summarize.
    pub reps: u64,
}

impl WallStats {
    /// Median/MAD of a set of nanosecond samples (at least one).
    ///
    /// # Panics
    /// Panics on an empty sample set — a cell with no measurement is a
    /// harness bug, not a statistic.
    pub fn from_samples(samples_ns: &[u64]) -> WallStats {
        assert!(!samples_ns.is_empty(), "wall stats need at least 1 sample");
        let median = median_u64(samples_ns);
        let deviations: Vec<u64> = samples_ns.iter().map(|&s| s.abs_diff(median)).collect();
        WallStats {
            median_ns: median,
            mad_ns: median_u64(&deviations),
            reps: samples_ns.len() as u64,
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("median_ns", Json::Num(self.median_ns as f64)),
            ("mad_ns", Json::Num(self.mad_ns as f64)),
            ("reps", Json::Num(self.reps as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<WallStats, String> {
        Ok(WallStats {
            median_ns: get_u64(v, "median_ns")?,
            mad_ns: get_u64(v, "mad_ns")?,
            reps: get_u64(v, "reps")?,
        })
    }
}

fn median_u64(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        // Midpoint of the two central samples, kept integral so the
        // serialized form stays byte-stable.
        sorted[mid - 1] / 2 + sorted[mid] / 2 + (sorted[mid - 1] % 2 + sorted[mid] % 2) / 2
    }
}

/// One grid cell of an experiment baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Cell label, e.g. `n=64/packed` or `n=64/lanes=8/packed`.
    pub cell: String,
    /// Deterministic controller step count of the cell (for the serve
    /// campaign, the deterministic submitted-job count of the scenario).
    pub steps: u64,
    /// Wall-clock statistics over the cell's repetitions.
    pub wall: WallStats,
    /// Deterministic auxiliary counters (plan-cache hits/misses, arena
    /// reuse, ...). Timing-dependent counters must not be recorded here:
    /// everything in this map is hard-gated like `steps`.
    pub counters: BTreeMap<String, u64>,
}

impl BaselineEntry {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cell", Json::Str(self.cell.clone())),
            ("steps", Json::Num(self.steps as f64)),
            ("wall", self.wall.to_json()),
            (
                "counters",
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<BaselineEntry, String> {
        let counters = match v.get("counters") {
            Some(Json::Object(pairs)) => pairs
                .iter()
                .map(|(k, cv)| {
                    cv.as_f64()
                        .map(|f| (k.clone(), f as u64))
                        .ok_or_else(|| format!("counter {k:?} is not a number"))
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            _ => return Err("entry is missing its counters object".to_owned()),
        };
        Ok(BaselineEntry {
            cell: get_str(v, "cell")?,
            steps: get_u64(v, "steps")?,
            wall: WallStats::from_json(
                v.get("wall")
                    .ok_or_else(|| "entry missing wall".to_owned())?,
            )?,
            counters,
        })
    }
}

/// A committed (or freshly measured) benchmark baseline for one
/// experiment grid. See the module docs for the gating semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Schema version ([`SCHEMA_VERSION`] when written by this build).
    pub schema_version: u64,
    /// Experiment name (`backend`, `batch`, `serve`, ...).
    pub name: String,
    /// Fingerprint of the host + build that measured the baseline.
    pub fingerprint: HostFingerprint,
    /// `git describe --always --dirty` at measurement time.
    pub git_describe: String,
    /// The grid cells, in measurement order.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// A baseline freshly measured on this host, stamped with the
    /// current fingerprint and git-describe string.
    pub fn new(name: &str, entries: Vec<BaselineEntry>) -> Baseline {
        Baseline {
            schema_version: SCHEMA_VERSION,
            name: name.to_owned(),
            fingerprint: HostFingerprint::detect(),
            git_describe: git_describe(),
            entries,
        }
    }

    /// Serializes with fixed field order: equal baselines always produce
    /// byte-identical JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("name", Json::Str(self.name.clone())),
            ("fingerprint", self.fingerprint.to_json()),
            ("git_describe", Json::Str(self.git_describe.clone())),
            (
                "entries",
                Json::Array(self.entries.iter().map(BaselineEntry::to_json).collect()),
            ),
        ])
    }

    /// Parses a baseline document written by [`Baseline::to_json`].
    ///
    /// # Errors
    /// A message naming the first malformed field.
    pub fn from_json(v: &Json) -> Result<Baseline, String> {
        let entries = match v.get("entries") {
            Some(Json::Array(items)) => items
                .iter()
                .map(BaselineEntry::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("baseline is missing its entries array".to_owned()),
        };
        Ok(Baseline {
            schema_version: get_u64(v, "schema_version")?,
            name: get_str(v, "name")?,
            fingerprint: HostFingerprint::from_json(
                v.get("fingerprint")
                    .ok_or_else(|| "baseline missing fingerprint".to_owned())?,
            )?,
            git_describe: get_str(v, "git_describe")?,
            entries,
        })
    }
}

/// The verdict of gating one candidate run against a committed baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Hard failures: the gate must exit nonzero.
    pub failures: Vec<String>,
    /// Soft findings: printed, never fatal (wall drift across different
    /// host fingerprints, improvements worth re-baselining).
    pub warnings: Vec<String>,
}

impl CheckReport {
    /// True when no hard failure was recorded.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Absolute wall-tolerance floor: scheduler noise on sub-40ms cells
/// would otherwise trip the relative gate.
const WALL_FLOOR_NS: u64 = 10_000_000;

/// Wall tolerance for one cell: the larger of 25% of the committed
/// median, 4x the summed MADs, and a 10ms absolute floor.
fn wall_tolerance_ns(committed: &WallStats, candidate: &WallStats) -> u64 {
    (committed.median_ns / 4)
        .max(4 * (committed.mad_ns + candidate.mad_ns))
        .max(WALL_FLOOR_NS)
}

/// Gates a candidate run against the committed baseline.
///
/// * schema/name/grid mismatches, step drift, and counter drift are
///   **hard failures** — these are deterministic, so any drift means the
///   measured algorithm changed without the baseline being re-recorded;
/// * wall-clock regression beyond [`wall_tolerance_ns`] is a hard
///   failure on a matching host fingerprint and a warning otherwise;
/// * a wall-clock *improvement* beyond tolerance on a matching host is a
///   warning suggesting a re-baseline.
pub fn compare(committed: &Baseline, candidate: &Baseline) -> CheckReport {
    let mut report = CheckReport::default();
    let fail = |r: &mut CheckReport, msg: String| r.failures.push(msg);

    if committed.schema_version != candidate.schema_version {
        fail(
            &mut report,
            format!(
                "{}: schema version {} in committed baseline, this build writes {}",
                committed.name, committed.schema_version, candidate.schema_version
            ),
        );
        return report;
    }
    if committed.name != candidate.name {
        fail(
            &mut report,
            format!(
                "baseline name mismatch: committed {:?}, candidate {:?}",
                committed.name, candidate.name
            ),
        );
        return report;
    }
    let host_matches = committed.fingerprint == candidate.fingerprint;
    if !host_matches {
        report.warnings.push(format!(
            "{}: host fingerprint differs (committed {:?}, candidate {:?}) — wall-clock \
             drift downgraded to warnings",
            committed.name, committed.fingerprint, candidate.fingerprint
        ));
    }

    for cand in &candidate.entries {
        if !committed.entries.iter().any(|e| e.cell == cand.cell) {
            fail(
                &mut report,
                format!(
                    "{}/{}: cell measured by the candidate but absent from the committed \
                     baseline (re-record it)",
                    candidate.name, cand.cell
                ),
            );
        }
    }
    for base in &committed.entries {
        let Some(cand) = candidate.entries.iter().find(|e| e.cell == base.cell) else {
            fail(
                &mut report,
                format!(
                    "{}/{}: cell in the committed baseline was not measured by the candidate",
                    committed.name, base.cell
                ),
            );
            continue;
        };
        if cand.steps != base.steps {
            fail(
                &mut report,
                format!(
                    "{}/{}: step count drifted from {} to {} (steps are deterministic — \
                     the algorithm changed; re-record the baseline if intentional)",
                    committed.name, base.cell, base.steps, cand.steps
                ),
            );
        }
        if cand.counters != base.counters {
            let keys: Vec<&String> = base
                .counters
                .keys()
                .chain(cand.counters.keys())
                .filter(|k| base.counters.get(*k) != cand.counters.get(*k))
                .collect();
            fail(
                &mut report,
                format!(
                    "{}/{}: deterministic counters drifted ({keys:?})",
                    committed.name, base.cell
                ),
            );
        }
        let tol = wall_tolerance_ns(&base.wall, &cand.wall);
        if cand.wall.median_ns > base.wall.median_ns.saturating_add(tol) {
            let msg = format!(
                "{}/{}: wall-clock regressed {:.2}ms -> {:.2}ms (tolerance {:.2}ms)",
                committed.name,
                base.cell,
                base.wall.median_ns as f64 / 1e6,
                cand.wall.median_ns as f64 / 1e6,
                tol as f64 / 1e6
            );
            if host_matches {
                fail(&mut report, msg);
            } else {
                report.warnings.push(msg);
            }
        } else if host_matches && cand.wall.median_ns.saturating_add(tol) < base.wall.median_ns {
            report.warnings.push(format!(
                "{}/{}: wall-clock improved {:.2}ms -> {:.2}ms; consider re-recording the \
                 baseline to tighten the gate",
                committed.name,
                base.cell,
                base.wall.median_ns as f64 / 1e6,
                cand.wall.median_ns as f64 / 1e6
            ));
        }
    }
    report
}

fn get_u64(v: &Json, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(Json::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("missing numeric field {name:?}"))
}

fn get_str(v: &Json, name: &str) -> Result<String, String> {
    match v.get(name) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field {name:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sample_baseline() -> Baseline {
        Baseline {
            schema_version: SCHEMA_VERSION,
            name: "backend".to_owned(),
            fingerprint: HostFingerprint {
                cores: 8,
                rustc: "rustc 1.75.0".to_owned(),
                profile: "release".to_owned(),
            },
            git_describe: "abc1234-dirty".to_owned(),
            entries: vec![
                BaselineEntry {
                    cell: "n=16/scalar".to_owned(),
                    steps: 51_234,
                    wall: WallStats {
                        median_ns: 3_000_000,
                        mad_ns: 120_000,
                        reps: 5,
                    },
                    counters: BTreeMap::new(),
                },
                BaselineEntry {
                    cell: "n=16/packed".to_owned(),
                    steps: 51_234,
                    wall: WallStats {
                        median_ns: 800_000,
                        mad_ns: 40_000,
                        reps: 5,
                    },
                    counters: [
                        ("plan_hits".to_owned(), 900u64),
                        ("plan_misses".to_owned(), 12),
                    ]
                    .into_iter()
                    .collect(),
                },
            ],
        }
    }

    #[test]
    fn round_trips_exactly_value_and_bytes() {
        let b = sample_baseline();
        let doc = b.to_json();
        let back = Baseline::from_json(&doc).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.to_json().to_string_pretty(), doc.to_string_pretty());
        // And through actual text, as committed files are read.
        let reparsed = Json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(Baseline::from_json(&reparsed).unwrap(), b);
        assert_eq!(reparsed.to_string_pretty(), doc.to_string_pretty());
    }

    #[test]
    fn random_baselines_round_trip_byte_identically() {
        // Property test: 100 seeded random baselines survive
        // to_json -> text -> parse -> from_json with equal value AND
        // equal bytes.
        let mut rng = SmallRng::seed_from_u64(0xBA5E11);
        for case in 0..100 {
            let entries = (0..rng.gen_range(0..6usize))
                .map(|i| {
                    let mut counters = BTreeMap::new();
                    for k in 0..rng.gen_range(0..4usize) {
                        counters.insert(format!("c{k}"), rng.gen_range(0..1u64 << 50));
                    }
                    BaselineEntry {
                        cell: format!("cell-{i}/k={}", rng.gen_range(0..100u32)),
                        steps: rng.gen_range(0..1u64 << 50),
                        wall: WallStats {
                            median_ns: rng.gen_range(0..1u64 << 50),
                            mad_ns: rng.gen_range(0..1u64 << 30),
                            reps: rng.gen_range(1..12u64),
                        },
                        counters,
                    }
                })
                .collect();
            let b = Baseline {
                schema_version: SCHEMA_VERSION,
                name: format!("exp{}", rng.gen_range(0..10u32)),
                fingerprint: HostFingerprint {
                    cores: rng.gen_range(1..256u64),
                    rustc: format!("rustc 1.{}.0", rng.gen_range(60..99u32)),
                    profile: if rng.gen() { "debug" } else { "release" }.to_owned(),
                },
                git_describe: format!("g{:07x}", rng.gen_range(0..0x1000_0000u64)),
                entries,
            };
            let text = b.to_json().to_string_pretty();
            let back = Baseline::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, b, "case {case} value drifted");
            assert_eq!(
                back.to_json().to_string_pretty(),
                text,
                "case {case} bytes drifted"
            );
        }
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let b = sample_baseline();
        let report = compare(&b, &b.clone());
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn perturbed_step_count_is_a_hard_failure() {
        let b = sample_baseline();
        let mut cand = b.clone();
        cand.entries[1].steps += 1;
        let report = compare(&b, &cand);
        assert!(!report.passed());
        assert!(
            report.failures[0].contains("step count drifted"),
            "{:?}",
            report.failures
        );
        // Even on a mismatched host fingerprint: steps stay hard.
        cand.fingerprint.cores += 8;
        let report = compare(&b, &cand);
        assert!(!report.passed(), "step drift must never be soft");
    }

    #[test]
    fn counter_drift_is_a_hard_failure() {
        let b = sample_baseline();
        let mut cand = b.clone();
        cand.entries[1].counters.insert("plan_hits".to_owned(), 901);
        let report = compare(&b, &cand);
        assert!(!report.passed());
        assert!(
            report.failures[0].contains("counters drifted"),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn wall_regression_hard_on_same_host_soft_on_other() {
        let b = sample_baseline();
        let mut cand = b.clone();
        // 3ms -> 30ms blows through max(25%, 4*MAD, 10ms floor).
        cand.entries[0].wall.median_ns = 30_000_000;
        let report = compare(&b, &cand);
        assert!(!report.passed(), "same fingerprint: wall drift is hard");
        assert!(report.failures[0].contains("wall-clock regressed"));

        cand.fingerprint.rustc = "rustc 1.99.0".to_owned();
        let report = compare(&b, &cand);
        assert!(report.passed(), "other fingerprint: wall drift is soft");
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("wall-clock regressed")));
    }

    #[test]
    fn wall_noise_within_tolerance_passes() {
        let b = sample_baseline();
        let mut cand = b.clone();
        // +9ms sits under the 10ms absolute floor.
        cand.entries[0].wall.median_ns += 9_000_000;
        assert!(compare(&b, &cand).passed());
    }

    #[test]
    fn grid_shape_drift_is_a_hard_failure() {
        let b = sample_baseline();
        let mut missing = b.clone();
        missing.entries.pop();
        assert!(!compare(&b, &missing).passed(), "missing cell");
        let mut extra = b.clone();
        extra.entries.push(BaselineEntry {
            cell: "n=128/packed".to_owned(),
            steps: 1,
            wall: WallStats {
                median_ns: 1,
                mad_ns: 0,
                reps: 1,
            },
            counters: BTreeMap::new(),
        });
        assert!(!compare(&b, &extra).passed(), "unrecorded cell");
    }

    #[test]
    fn wall_stats_median_and_mad() {
        let s = WallStats::from_samples(&[5, 1, 9, 3, 7]);
        assert_eq!(s.median_ns, 5);
        assert_eq!(s.mad_ns, 2, "deviations 4,2,0,2,4 -> median 2");
        assert_eq!(s.reps, 5);
        let even = WallStats::from_samples(&[10, 20]);
        assert_eq!(even.median_ns, 15);
        let single = WallStats::from_samples(&[42]);
        assert_eq!((single.median_ns, single.mad_ns, single.reps), (42, 0, 1));
    }

    #[test]
    fn detect_fingerprint_is_populated() {
        let fp = HostFingerprint::detect();
        assert!(fp.cores >= 1);
        assert!(!fp.profile.is_empty());
    }
}
