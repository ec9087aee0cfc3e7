//! # ppa-bench — the experiment harness
//!
//! One function per experiment of DESIGN.md's index (F1, T1-T6, A1, A2),
//! each returning a [`Table`] that the `report` binary renders to stdout
//! and to `target/experiments/*.{txt,csv,json}`. The paper has no
//! numeric evaluation tables of its own — it is an algorithm paper whose
//! "evaluation" is Figure 1 plus the complexity derivation — so every
//! quantitative claim becomes one table here; EXPERIMENTS.md interprets
//! the outputs against the claims.
//!
//! All workloads are seeded and deterministic: the numbers in
//! EXPERIMENTS.md regenerate exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod table;

pub use baseline::{Baseline, BaselineEntry, CheckReport, HostFingerprint, WallStats};
pub use table::Table;

use ppa_baselines::{Gcn, Hypercube, McpSolver, PlainMesh, SequentialBf};
use ppa_graph::{gen, reference, validate, WeightMatrix, INF};
use ppa_machine::{
    render, BackendSpec, BackendVisitor, Dim, Direction, ExecStats, Executor, FaultMap, Op, Plane,
    StepReport,
};
use ppa_mcp::mcp::{fit_word_bits, minimum_cost_path};
use ppa_mcp::variants::{minimum_cost_path_variant, BusModel, MinModel, VariantConfig};
use ppa_mcp::{solve_with_recovery, RecoveryPolicy};
use ppa_ppc::{Parallel, Ppa};
use std::time::Instant;

fn machine_for(w: &WeightMatrix, h: u32) -> Ppa {
    Ppa::square(w.n()).with_word_bits(h.max(fit_word_bits(w)).clamp(2, 62))
}

/// F1 — the Figure-1 companion: switch semantics and bus partitioning,
/// rendered for the three switch patterns the MCP algorithm programs.
pub fn fig1() -> Table {
    let dim = Dim::square(8);
    let d = 2;
    let mut t = Table::new(
        "F1",
        "Figure 1 companion: switch-box patterns and the bus clusters they induce (8x8, d = 2)",
        vec![
            "pattern".into(),
            "direction".into(),
            "clusters per line".into(),
        ],
    );
    let patterns: Vec<(&str, Direction, Plane<bool>)> = vec![
        (
            "statement 10: ROW == d",
            Direction::South,
            Plane::from_fn(dim, |c| c.row == d),
        ),
        (
            "statement 11: COL == n-1",
            Direction::West,
            Plane::from_fn(dim, |c| c.col == dim.cols - 1),
        ),
        (
            "statement 16: ROW == COL",
            Direction::South,
            Plane::from_fn(dim, |c| c.row == c.col),
        ),
        (
            "stripes: COL % 3 == 0",
            Direction::East,
            Plane::from_fn(dim, |c| c.col % 3 == 0),
        ),
    ];
    for (name, dir, open) in patterns {
        let lines = dim.lines(dir.axis());
        let opens = open.count_true();
        t.row(vec![
            name.into(),
            dir.to_string(),
            format!("{:.1}", opens as f64 / lines as f64),
        ]);
        t.note(format!("--- {name} ({dir}) ---"));
        t.note(render::render_switches(dim, dir, &open));
        t.note(render::render_clusters(dim, dir, &open));
    }
    t
}

/// T1 — `min`/`selected_min` cost: exactly linear in `h`, flat in `n`.
pub fn t1_min_cost() -> Table {
    let mut t = Table::new(
        "T1",
        "bit-serial min()/selected_min() cost in SIMD steps (paper: O(h), independent of n)",
        vec![
            "n".into(),
            "h".into(),
            "min steps".into(),
            "selected_min steps".into(),
            "steps/bit".into(),
        ],
    );
    for &n in &[4usize, 16, 64] {
        for &h in &[4u32, 8, 16, 32] {
            let mut ppa = Ppa::square(n).with_word_bits(h);
            let vals = Parallel::from_fn(ppa.dim(), |c| {
                ((c.row as u64 * 37 + c.col as u64 * 11) % (1u64 << h.min(16))) as i64
            });
            let col = ppa.col_index();
            let nm1 = ppa.constant(n as i64 - 1);
            let heads = ppa.eq(&col, &nm1).unwrap();
            let sel = ppa.lt(&col, &nm1).unwrap();
            ppa.reset_steps();
            let _ = ppa.min(&vals, Direction::West, &heads).unwrap();
            let min_steps = ppa.steps().total();
            ppa.reset_steps();
            let _ = ppa
                .selected_min(&vals, Direction::West, &heads, &sel)
                .unwrap();
            let sel_steps = ppa.steps().total();
            t.row(vec![
                n.to_string(),
                h.to_string(),
                min_steps.to_string(),
                sel_steps.to_string(),
                format!("{:.2}", min_steps as f64 / f64::from(h)),
            ]);
        }
    }
    t.note("expected shape: steps = 4h + 4 for min (4h + 5 for selected_min), identical across n");
    t
}

/// T2 — MCP total steps: linear in `p`, per-iteration flat in `n`.
pub fn t2_steps_vs_p() -> Table {
    let mut t = Table::new(
        "T2",
        "MCP steps vs maximum path length p (padded-path workload, h = 12)",
        vec![
            "n".into(),
            "p".into(),
            "iterations".into(),
            "total steps".into(),
            "steps/iteration".into(),
        ],
    );
    for &n in &[16usize, 32] {
        for &p in &[1usize, 2, 4, 8, 12] {
            if p >= n {
                continue;
            }
            let w = gen::padded_path(n, p);
            let mut ppa = Ppa::square(n).with_word_bits(12);
            let out = minimum_cost_path(&mut ppa, &w, p).unwrap();
            t.row(vec![
                n.to_string(),
                p.to_string(),
                out.iterations.to_string(),
                out.stats.total.total().to_string(),
                format!("{:.1}", out.stats.steps_per_iteration()),
            ]);
        }
    }
    t.note("expected shape: iterations = p, steps/iteration constant across n and p");
    t
}

/// T3 — MCP per-iteration steps vs `h`: linear (the headline's `log h`
/// is inconsistent with the paper's own O(h) min derivation).
pub fn t3_steps_vs_h() -> Table {
    let mut t = Table::new(
        "T3",
        "MCP per-iteration steps vs word width h (ring n = 12): linear in h, not log h",
        vec![
            "h".into(),
            "steps/iteration".into(),
            "ratio to previous".into(),
        ],
    );
    let w = gen::ring(12);
    let mut prev: Option<f64> = None;
    for &h in &[8u32, 16, 32, 48] {
        let mut ppa = Ppa::square(12).with_word_bits(h);
        let out = minimum_cost_path(&mut ppa, &w, 0).unwrap();
        let per = out.stats.steps_per_iteration();
        t.row(vec![
            h.to_string(),
            format!("{per:.1}"),
            match prev {
                None => "-".into(),
                Some(p) => format!("{:.2}", per / p),
            },
        ]);
        prev = Some(per);
    }
    t.note("expected shape: doubling h roughly doubles the per-iteration cost (8h + const)");
    t
}

/// T4 — the architecture comparison behind the paper's equivalence claim.
pub fn t4_architectures() -> Table {
    let h = 16u32;
    let mut t = Table::new(
        "T4",
        "single-destination MCP across architectures (random connected digraphs, density 0.25, h = 16)",
        vec![
            "n".into(),
            "p".into(),
            "PPA bit-steps".into(),
            "GCN bit-steps".into(),
            "hypercube bit-steps".into(),
            "hypercube word-steps".into(),
            "plain-mesh word-steps".into(),
            "sequential ops".into(),
        ],
    );
    for &n in &[8usize, 16, 32, 64, 96] {
        let w = gen::random_connected(n, 0.25, 30, 7000 + n as u64);
        let d = 0;
        let mut ppa = machine_for(&w, h);
        let out = minimum_cost_path(&mut ppa, &w, d).unwrap();
        let gcn = Gcn::new(h).solve(&w, d);
        let cube = Hypercube::new(h).solve(&w, d);
        let mesh = PlainMesh::new(h).solve(&w, d);
        let seq = SequentialBf::new().solve(&w, d);
        t.row(vec![
            n.to_string(),
            out.iterations.to_string(),
            out.stats.total.total().to_string(),
            gcn.bit_steps.to_string(),
            cube.bit_steps.to_string(),
            cube.word_steps.to_string(),
            mesh.word_steps.to_string(),
            seq.word_steps.to_string(),
        ]);
    }
    t.note("expected shape: PPA ~ GCN flat in n (O(p*h)); hypercube grows with log n;");
    t.note("plain mesh linear in n; sequential quadratic. The paper's equivalence claim");
    t.note("(PPA ~ CM hypercube ~ GCN) holds in O() terms when h tracks log n; in raw");
    t.note("bit-steps the hypercube pays an extra log n factor, the PPA and GCN do not.");
    t
}

/// T5 — simulation validation: PPA vs oracle over every generator family.
pub fn t5_validation() -> Table {
    let mut t = Table::new(
        "T5",
        "validation sweep: PPA output vs sequential oracle (cost vector + PTN walk)",
        vec![
            "family".into(),
            "instances".into(),
            "vertices checked".into(),
            "mismatches".into(),
        ],
    );
    let mut grand_instances = 0u64;
    let mut grand_mismatches = 0u64;
    for family in gen::Family::ALL {
        let mut instances = 0u64;
        let mut vertices = 0u64;
        let mut mismatches = 0u64;
        for seed in 0..16u64 {
            let n = 6 + (seed as usize % 9);
            let w = family.build(n, 20, seed * 31 + 5);
            let d = seed as usize % n;
            let mut ppa = machine_for(&w, 8);
            let out = minimum_cost_path(&mut ppa, &w, d).unwrap();
            let violations = validate::validate_solution(&w, d, &out.sow, &out.ptn);
            instances += 1;
            vertices += n as u64;
            mismatches += violations.len() as u64;
        }
        grand_instances += instances;
        grand_mismatches += mismatches;
        t.row(vec![
            family.label().into(),
            instances.to_string(),
            vertices.to_string(),
            mismatches.to_string(),
        ]);
    }
    t.note(format!(
        "total: {grand_instances} instances, {grand_mismatches} mismatches (paper: \"validated through simulation\")"
    ));
    t
}

/// T6 — simulator throughput: wall-clock per simulated step across array
/// sizes on the scalar reference backend (the packed backend is the BK
/// table, `report backend`).
pub fn t6_engine() -> Table {
    let mut t = Table::new(
        "T6",
        "simulator throughput (host wall-clock; steps are simulated SIMD instructions)",
        vec![
            "n".into(),
            "steps".into(),
            "wall ms".into(),
            "PE-ops/s (millions)".into(),
        ],
    );
    for &n in &[32usize, 64, 128] {
        let w = gen::random_connected(n, 0.2, 25, 99);
        let mut ppa = Ppa::square(n).with_word_bits(16.max(fit_word_bits(&w)));
        let start = Instant::now();
        let out = minimum_cost_path(&mut ppa, &w, 0).unwrap();
        let wall = start.elapsed();
        let steps = out.stats.total.total();
        let pe_ops = steps as f64 * (n * n) as f64;
        t.row(vec![
            n.to_string(),
            steps.to_string(),
            format!("{:.2}", wall.as_secs_f64() * 1e3),
            format!("{:.1}", pe_ops / wall.as_secs_f64() / 1e6),
        ]);
    }
    t.note("the packed backend on the same workload is the BK table (`report backend`);");
    t.note("wall-clock depends on the host (documented in EXPERIMENTS.md).");
    t
}

/// One perf experiment's full output: the human-readable [`Table`] plus
/// the machine-readable [`Baseline`] (grid cells with deterministic step
/// counts/counters and median/MAD wall-clock) that `report` persists as
/// `BENCH_<name>.json` and `report bench --check` gates against.
pub struct BenchRun {
    /// Summary table, rendered like any other experiment.
    pub table: Table,
    /// The measured baseline for this run.
    pub baseline: Baseline,
}

/// BK — execution-backend comparison: the scalar reference backend vs the
/// packed u64 bit-plane backend on the T6 MCP workload (table only; see
/// [`backend_run`] for the baseline-producing form).
pub fn backend_table() -> Table {
    backend_run().table
}

/// Runs the BK workload on five fresh machines from `make`, asserting
/// every run bit-identical to the scalar reference `want` — SOW, PTN,
/// and the per-class step report — **before** any timing is returned.
/// Returns the wall-clock samples (nanoseconds) and the last run's
/// execution statistics.
///
/// This is the bit-identity gate of `report backend`,
/// factored out so the bench-gate mutation drill can prove it trips: a
/// one-bit corruption of the packed vote kernel must make this helper
/// panic, which makes `report bench --check` exit nonzero.
pub fn measure_identical<E: Executor>(
    make: &dyn Fn() -> Ppa<E>,
    w: &WeightMatrix,
    d: usize,
    want: &ppa_mcp::McpOutput,
    label: &str,
) -> (Vec<u64>, ExecStats) {
    gate_runs(|| timed_solve(make(), w, d), want, label)
}

/// [`measure_identical`] toward vertex 0 on the backend `spec` names:
/// every repetition dispatches a fresh `n x n` machine with `h`-bit words.
fn measure_spec(
    spec: BackendSpec,
    h: u32,
    w: &WeightMatrix,
    want: &ppa_mcp::McpOutput,
    label: &str,
) -> (Vec<u64>, ExecStats) {
    struct Solve<'a> {
        h: u32,
        w: &'a WeightMatrix,
    }

    impl BackendVisitor for Solve<'_> {
        type Output = (u64, ExecStats, ppa_mcp::McpOutput);

        fn run<E: Executor>(self, exec: E) -> Self::Output {
            timed_solve(
                Ppa::with_backend(self.w.n(), exec).with_word_bits(self.h),
                self.w,
                0,
            )
        }
    }

    gate_runs(|| spec.dispatch(Solve { h, w }), want, label)
}

/// One timed MCP solve toward `d`: wall nanoseconds, the backend's
/// execution statistics, and the output.
fn timed_solve<E: Executor>(
    mut ppa: Ppa<E>,
    w: &WeightMatrix,
    d: usize,
) -> (u64, ExecStats, ppa_mcp::McpOutput) {
    let start = Instant::now();
    let out = minimum_cost_path(&mut ppa, w, d).unwrap();
    (start.elapsed().as_nanos() as u64, ppa.exec_stats(), out)
}

/// Five repetitions of `run`, each asserted bit-identical to `want`.
fn gate_runs(
    mut run: impl FnMut() -> (u64, ExecStats, ppa_mcp::McpOutput),
    want: &ppa_mcp::McpOutput,
    label: &str,
) -> (Vec<u64>, ExecStats) {
    let mut samples: Vec<u64> = Vec::new();
    let mut stats = ExecStats::default();
    for _ in 0..5 {
        let (ns, last, out) = run();
        samples.push(ns);
        stats = last;
        assert_eq!(out.sow, want.sow, "{label}: SOW diverged from scalar");
        assert_eq!(out.ptn, want.ptn, "{label}: PTN diverged from scalar");
        assert_eq!(
            out.stats.total, want.stats.total,
            "{label}: step reports diverged from scalar"
        );
    }
    (samples, stats)
}

/// The deterministic counters a packed grid cell records: plan-cache hits
/// and misses, and the mask-arena counters.
fn exec_counters(stats: &ExecStats) -> std::collections::BTreeMap<String, u64> {
    std::collections::BTreeMap::from([
        ("plan_hits".to_owned(), stats.plan_hits),
        ("plan_misses".to_owned(), stats.plan_misses),
        ("arena_fresh".to_owned(), stats.arena_fresh),
        ("arena_reused".to_owned(), stats.arena_reused),
    ])
}

/// Minimum of a sample set, in seconds.
fn best_secs(samples: &[u64]) -> f64 {
    samples.iter().min().copied().unwrap_or(0) as f64 / 1e9
}

/// BK — execution-backend comparison: the scalar reference backend vs the
/// packed bit-plane backend on the T6 MCP workload. Both backends run the
/// same micro-op stream; the table asserts they produce identical outputs
/// and identical controller step reports, reconciles the packed session's
/// `backend.*` ppa-obs counters against its execution statistics, then
/// compares host wall-clock and shows the packed backend's bus-plan cache
/// and mask arena counters. Every (n, backend) cell also becomes a
/// [`Baseline`] entry: deterministic step count, plan/arena counters, and
/// median/MAD wall-clock over the five repetitions.
pub fn backend_run() -> BenchRun {
    let mut entries: Vec<BaselineEntry> = Vec::new();
    let mut t = Table::new(
        "BK",
        "execution backends, single-destination MCP (T6 workload: random connected, density 0.2, h >= 16)",
        vec![
            "n".into(),
            "backend".into(),
            "steps".into(),
            "wall ms (best of 5)".into(),
            "speedup".into(),
            "plan hit rate".into(),
            "arena fresh".into(),
            "arena reused".into(),
        ],
    );
    for &n in &[16usize, 32, 64] {
        let w = gen::random_connected(n, 0.2, 25, 99);
        let h = 16.max(fit_word_bits(&w)).clamp(2, 62);
        let want = minimum_cost_path(&mut Ppa::square(n).with_word_bits(h), &w, 0).unwrap();
        let steps = want.stats.total.total();
        let mut scalar_wall = 0.0;
        for spec in [BackendSpec::Scalar, BackendSpec::Packed] {
            // The packed backend must be observationally identical to the
            // scalar reference: same outputs, same controller step report
            // down to the per-class counts, asserted on every repetition
            // before timing is reported.
            let label = format!("n = {n}, {spec}");
            let (samples, stats) = measure_spec(spec, h, &w, &want, &label);
            let wall = best_secs(&samples);
            let fast = spec == BackendSpec::Packed;
            if fast {
                reconcile_session_metrics(&w, &label);
            } else {
                scalar_wall = wall;
            }
            entries.push(BaselineEntry {
                cell: format!("n={n}/{spec}"),
                steps,
                wall: WallStats::from_samples(&samples),
                counters: if fast {
                    exec_counters(&stats)
                } else {
                    std::collections::BTreeMap::new()
                },
            });
            let dash = || "-".to_owned();
            t.row(vec![
                n.to_string(),
                spec.to_string(),
                steps.to_string(),
                format!("{:.2}", wall * 1e3),
                format!("{:.2}x", scalar_wall / wall),
                if fast {
                    format!("{:.1}%", stats.plan_hit_rate() * 100.0)
                } else {
                    dash()
                },
                if fast {
                    stats.arena_fresh.to_string()
                } else {
                    dash()
                },
                if fast {
                    stats.arena_reused.to_string()
                } else {
                    dash()
                },
            ]);
        }
    }
    t.note("packed_bit_identical: true");
    t.note("outputs and per-class step reports are asserted identical before timing is");
    t.note("reported, and the packed session's backend.* ppa-obs counters are reconciled");
    t.note("exactly against its exec stats; the packed backend executes mask logic 64");
    t.note("PEs per u64 word and compiles each (direction, switch pattern) once into");
    t.note("word masks that the session's wired-ORs and register broadcasts reuse.");
    BenchRun {
        table: t,
        baseline: Baseline::new("backend", entries),
    }
}

/// Reconciles the `backend.*` metrics a packed [`McpSession`](ppa_mcp::McpSession)
/// publishes to ppa-obs against the backend's own execution statistics.
fn reconcile_session_metrics(w: &WeightMatrix, label: &str) {
    let mut session = ppa_mcp::McpSession::new_packed(w).unwrap();
    session.ppa_mut().enable_metrics();
    let before = session.exec_stats();
    session.solve(0).unwrap();
    let delta = session.exec_stats().since(&before);
    let m = session.ppa_mut().take_metrics();
    assert_eq!(
        m.counter("backend.plan_hits") + m.counter("backend.plan_misses"),
        delta.plan_hits + delta.plan_misses,
        "{label}: ppa-obs counters diverged from exec stats"
    );
    assert_eq!(
        m.counter("backend.arena_fresh"),
        delta.arena_fresh,
        "{label}: arena counters diverged from exec stats"
    );
}

/// BA — lane-batching amortization (table only; see [`batch_run`] for
/// the baseline-producing form).
pub fn batch_table() -> Table {
    batch_run().table
}

/// BA — lane-batching amortization with its measured [`Baseline`]: one
/// [`BatchSession`](ppa_mcp::BatchSession) solves a wavefront of `L`
/// destinations of the T6 `n = 64` workload in a single micro-op
/// stream, for `L` in {1, 2, 4, 8} on the packed backend. Before any
/// timing is reported, every lane is asserted bit-identical — SOW, PTN,
/// and the per-class step report — to a solo run pinned to the batch's
/// word width (the fair comparison: bit-serial arithmetic costs scale
/// with the word width, which the batch sets to the max over its
/// lanes). The per-destination plan-cache-miss and arena-allocation
/// counters must improve monotonically with the lane count — that is
/// the amortization claim, and it is deterministic, so it is asserted,
/// not just reported.
pub fn batch_run() -> BenchRun {
    use ppa_machine::PackedBackend;
    use ppa_mcp::batch::replicate;
    use ppa_mcp::{BatchSession, McpOutput};

    let mut entries: Vec<BaselineEntry> = Vec::new();
    let mut t = Table::new(
        "BA",
        "lane-batching amortization (T6 workload: n = 64, density 0.2, wavefront of L destinations per stream)",
        vec![
            "n".into(),
            "lanes".into(),
            "backend".into(),
            "steps".into(),
            "wall ms (best of 5)".into(),
            "wall/dest ms".into(),
            "plan misses/dest".into(),
            "arena fresh/dest".into(),
            "plan hit rate".into(),
        ],
    );
    let n = 64usize;
    let w = gen::random_connected(n, 0.2, 25, 99);
    let mut all_identical = true;
    let mut prev_misses_per_dest = f64::INFINITY;
    let mut prev_fresh_per_dest = f64::INFINITY;
    for &lanes in &[1usize, 2, 4, 8] {
        let graphs = replicate(&w, lanes);
        let dests: Vec<usize> = (0..lanes).collect();
        // One timed wavefront solve per repetition, each on a fresh batch.
        let mut samples: Vec<u64> = Vec::new();
        let mut last = None;
        for _ in 0..5 {
            let mut batch = BatchSession::new_packed(&graphs).unwrap();
            let start = Instant::now();
            let solved = batch.solve(&dests).unwrap();
            samples.push(start.elapsed().as_nanos() as u64);
            let wave: Vec<McpOutput> = solved
                .into_iter()
                .map(|r| r.expect("every lane of the wavefront must converge"))
                .collect();
            last = Some((batch.exec_stats(), batch.word_bits(), wave));
        }
        let (stats, word_bits, wave) = last.expect("five repetitions ran");
        // Bit-identity gate: every lane vs a solo run at the batch's word
        // width, down to the per-class step report.
        for (l, &d) in dests.iter().enumerate() {
            let solo = Ppa::<PackedBackend>::packed(n).with_word_bits(word_bits);
            let want = ppa_mcp::McpSession::from_ppa(solo, &w)
                .and_then(|mut s| s.solve(d))
                .unwrap();
            let got = &wave[l];
            all_identical &=
                got.sow == want.sow && got.ptn == want.ptn && got.stats.total == want.stats.total;
            assert_eq!(got.sow, want.sow, "lanes = {lanes}, dest {d}: SOW diverged");
            assert_eq!(got.ptn, want.ptn, "lanes = {lanes}, dest {d}: PTN diverged");
            assert_eq!(
                got.stats.total, want.stats.total,
                "lanes = {lanes}, dest {d}: step reports diverged"
            );
        }
        let steps = wave[0].stats.total.total();
        let wall = best_secs(&samples);
        let misses_per_dest = stats.plan_misses as f64 / lanes as f64;
        let fresh_per_dest = stats.arena_fresh as f64 / lanes as f64;
        // The amortization claim, asserted on the deterministic counters:
        // one stream serving L destinations must not pay more plan
        // compiles or arena allocations per destination than a narrower
        // stream serving fewer.
        assert!(
            misses_per_dest <= prev_misses_per_dest,
            "lanes = {lanes}: plan misses/dest regressed \
             ({misses_per_dest:.1} > {prev_misses_per_dest:.1})"
        );
        assert!(
            fresh_per_dest <= prev_fresh_per_dest,
            "lanes = {lanes}: arena fresh/dest regressed \
             ({fresh_per_dest:.1} > {prev_fresh_per_dest:.1})"
        );
        prev_misses_per_dest = misses_per_dest;
        prev_fresh_per_dest = fresh_per_dest;
        entries.push(BaselineEntry {
            cell: format!("n={n}/lanes={lanes}/packed"),
            steps,
            wall: WallStats::from_samples(&samples),
            counters: exec_counters(&stats),
        });
        t.row(vec![
            n.to_string(),
            lanes.to_string(),
            "packed".into(),
            steps.to_string(),
            format!("{:.2}", wall * 1e3),
            format!("{:.2}", wall * 1e3 / lanes as f64),
            format!("{misses_per_dest:.1}"),
            format!("{fresh_per_dest:.1}"),
            format!("{:.1}%", stats.plan_hit_rate() * 100.0),
        ]);
    }
    t.note(format!("batched_bit_identical: {all_identical}"));
    t.note("every lane is asserted bit-identical to a solo run pinned to the batch's");
    t.note("word width (SOW, PTN, per-class step report) before timing is reported, and");
    t.note("plan misses/dest and arena fresh/dest are asserted monotonically non-");
    t.note("increasing in the lane count. Amortization comes from sharing one micro-op");
    t.note("stream across lanes, not host parallelism: on the packed backend each step's");
    t.note("host cost grows with machine width, so wall/dest stays roughly flat.");
    BenchRun {
        table: t,
        baseline: Baseline::new("batch", entries),
    }
}

/// A1 — bus-model ablation: circular vs linear buses.
pub fn a1_bus_ablation() -> Table {
    let mut t = Table::new(
        "A1",
        "ablation: circular (paper model) vs linear buses (ring workload, h = 12)",
        vec![
            "n".into(),
            "circular steps/iter".into(),
            "linear steps/iter".into(),
            "overhead".into(),
        ],
    );
    for &n in &[8usize, 16, 32] {
        let w = gen::ring(n);
        let mut a = machine_for(&w, 12);
        let circ = minimum_cost_path_variant(&mut a, &w, 0, VariantConfig::reference()).unwrap();
        let mut b = machine_for(&w, 12);
        let lin = minimum_cost_path_variant(
            &mut b,
            &w,
            0,
            VariantConfig {
                bus: BusModel::Linear,
                min: MinModel::BitSerial,
            },
        )
        .unwrap();
        assert_eq!(circ.sow, lin.sow, "ablation must not change results");
        t.row(vec![
            n.to_string(),
            format!("{:.1}", circ.stats.steps_per_iteration()),
            format!("{:.1}", lin.stats.steps_per_iteration()),
            format!(
                "{:+.1}%",
                (lin.stats.steps_per_iteration() / circ.stats.steps_per_iteration() - 1.0) * 100.0
            ),
        ]);
    }
    t.note("linear buses need a second pass plus a merge for every fold-style broadcast;");
    t.note("results are bit-identical — only the constant factor moves.");
    t
}

/// A2 — combining-model ablation: bit-serial vs word-parallel min.
pub fn a2_min_ablation() -> Table {
    let mut t = Table::new(
        "A2",
        "ablation: bit-serial min (PPA hardware) vs hypothetical word-combining bus (ring n = 12)",
        vec![
            "h".into(),
            "bit-serial steps/iter".into(),
            "word steps/iter".into(),
            "bit-serial share of total".into(),
        ],
    );
    let w = gen::ring(12);
    for &h in &[8u32, 16, 32] {
        let mut a = Ppa::square(12).with_word_bits(h);
        let bit = minimum_cost_path_variant(&mut a, &w, 0, VariantConfig::reference()).unwrap();
        let mut b = Ppa::square(12).with_word_bits(h);
        let word = minimum_cost_path_variant(
            &mut b,
            &w,
            0,
            VariantConfig {
                bus: BusModel::Circular,
                min: MinModel::Word,
            },
        )
        .unwrap();
        assert_eq!(bit.sow, word.sow, "ablation must not change results");
        let share = 1.0 - word.stats.steps_per_iteration() / bit.stats.steps_per_iteration();
        t.row(vec![
            h.to_string(),
            format!("{:.1}", bit.stats.steps_per_iteration()),
            format!("{:.1}", word.stats.steps_per_iteration()),
            format!("{:.0}%", share * 100.0),
        ]);
    }
    t.note("the two bit-serial scans dominate the iteration; a word-combining bus (as the");
    t.note("paper's O(p log h) headline would need) removes the h-dependence entirely.");
    t
}

/// T7 — the algorithm family on one machine: how the semiring and the
/// specialization change the step profile (extension beyond the paper).
pub fn t7_family() -> Table {
    use ppa_mcp::closure::{hop_levels, reachability};
    use ppa_mcp::widest::widest_path;
    let mut t = Table::new(
        "T7",
        "one machine, four problems: step profile of the DP family (ring workload, h = 16)",
        vec![
            "problem".into(),
            "semiring / trick".into(),
            "n".into(),
            "iterations".into(),
            "total steps".into(),
            "steps/iteration".into(),
        ],
    );
    for &n in &[8usize, 16] {
        let w = gen::ring(n);
        let mut ppa = Ppa::square(n).with_word_bits(16);
        let mcp = minimum_cost_path(&mut ppa, &w, 0).unwrap();
        t.row(vec![
            "shortest cost".into(),
            "(min, +), bit-serial".into(),
            n.to_string(),
            mcp.iterations.to_string(),
            mcp.stats.total.total().to_string(),
            format!("{:.1}", mcp.stats.steps_per_iteration()),
        ]);
        let mut ppa = Ppa::square(n).with_word_bits(16);
        let wide = widest_path(&mut ppa, &w, 0).unwrap();
        t.row(vec![
            "widest bottleneck".into(),
            "(max, min), bit-serial".into(),
            n.to_string(),
            wide.iterations.to_string(),
            wide.stats.total.total().to_string(),
            format!("{:.1}", wide.stats.steps_per_iteration()),
        ]);
        let mut ppa = Ppa::square(n).with_word_bits(16);
        let hops = hop_levels(&mut ppa, &w, 0).unwrap();
        t.row(vec![
            "hop levels (BFS)".into(),
            "boolean, round = level".into(),
            n.to_string(),
            "-".into(),
            hops.steps.to_string(),
            "-".into(),
        ]);
        let mut ppa = Ppa::square(n).with_word_bits(16);
        let reach = reachability(&mut ppa, &w, 0).unwrap();
        t.row(vec![
            "reachability".into(),
            "(OR, AND), wired-OR".into(),
            n.to_string(),
            reach.iterations.to_string(),
            reach.steps.to_string(),
            format!("{:.1}", reach.steps as f64 / reach.iterations as f64),
        ]);
    }
    t.note("the two weighted problems share the O(p*h) bit-serial schedule; the two");
    t.note("boolean specializations drop to O(p) because the wired-OR combines in one step.");
    t
}

/// T8 — fault-injection sweep: observable impact of every single
/// stuck-at switch fault on the algorithm's three bus patterns, plus
/// BIST coverage (extension beyond the paper: the paper argues hardware
/// implementability, so the harness asks what its failures look like).
pub fn t8_faults() -> Table {
    use ppa_machine::faults::{bist_patterns, FaultMap, SwitchFault};
    use ppa_machine::{bus, Coord};
    let n = 8;
    let dim = Dim::square(n);
    let d = 2;
    let patterns: Vec<(&str, Direction, Plane<bool>)> = vec![
        (
            "stmt 10 (ROW==d)",
            Direction::South,
            Plane::from_fn(dim, |c| c.row == d),
        ),
        (
            "stmt 11 (COL==n-1)",
            Direction::West,
            Plane::from_fn(dim, |c| c.col == dim.cols - 1),
        ),
        (
            "stmt 16 (ROW==COL)",
            Direction::South,
            Plane::from_fn(dim, |c| c.row == c.col),
        ),
    ];
    let bist = bist_patterns(dim);
    let mut t = Table::new(
        "T8",
        "single stuck-at switch faults: observable corruption per bus pattern (8x8, all 128 faults)",
        vec![
            "pattern".into(),
            "faults distorting it".into(),
            "-> wrong reads".into(),
            "-> undriven line".into(),
            "silent".into(),
            "missed by BIST".into(),
        ],
    );
    for (name, dir, intended) in &patterns {
        let src = Plane::from_fn(dim, |c| (c.row * n + c.col) as i64);
        let healthy = bus::broadcast(dim, &src, *dir, intended).unwrap();
        let mut distorting = 0u32;
        let mut wrong = 0u32;
        let mut undriven = 0u32;
        let mut silent = 0u32;
        let mut missed = 0u32;
        for r in 0..n {
            for c in 0..n {
                for fault in [SwitchFault::StuckShort, SwitchFault::StuckOpen] {
                    let mut fm = FaultMap::new();
                    fm.inject(Coord::new(r, c), fault);
                    if !fm.distorts(intended) {
                        continue;
                    }
                    distorting += 1;
                    if !bist.iter().any(|p| fm.distorts(p)) {
                        missed += 1;
                    }
                    let effective = fm.apply(intended);
                    match bus::broadcast(dim, &src, *dir, &effective) {
                        Err(_) => undriven += 1,
                        Ok(out) => {
                            if out != healthy {
                                wrong += 1;
                            } else {
                                silent += 1;
                            }
                        }
                    }
                }
            }
        }
        t.row(vec![
            (*name).into(),
            distorting.to_string(),
            wrong.to_string(),
            undriven.to_string(),
            silent.to_string(),
            missed.to_string(),
        ]);
    }
    t.note("every distorting fault either corrupts reads or floats a line (never silent on");
    t.note("these patterns), and the two-pattern BIST sweep catches all of them up front.");
    t
}

/// T9 — per-statement step attribution: where the `O(p * h)` actually
/// goes, from an instruction trace of one full run.
pub fn t9_phase_profile() -> Table {
    let w = gen::ring(10);
    let h = 16;
    let mut ppa = Ppa::square(10).with_word_bits(h);
    ppa.enable_trace();
    let out = minimum_cost_path(&mut ppa, &w, 0).unwrap();
    let trace = ppa.take_trace();
    let hist = ppa_machine::controller::phase_histogram(&trace);
    let total: u64 = hist.iter().map(|(_, n)| n).sum();
    let mut t = Table::new(
        "T9",
        format!(
            "per-statement step attribution (ring n = 10, h = {h}, {} iterations, {} steps)",
            out.iterations, total
        ),
        vec![
            "phase".into(),
            "steps".into(),
            "share".into(),
            "steps/iteration".into(),
        ],
    );
    for (label, steps) in &hist {
        let per_iter = if label.starts_with("stmt") {
            format!("{:.1}", *steps as f64 / out.iterations as f64)
        } else {
            "-".into()
        };
        t.row(vec![
            label.clone(),
            steps.to_string(),
            format!("{:.1}%", *steps as f64 / total as f64 * 100.0),
            per_iter,
        ]);
    }
    t.note("statements 11 and 12 (the two bit-serial scans) dominate — the O(h) factor");
    t.note("in the flesh; every other statement is O(1) per iteration.");
    t
}

/// Everything the `profile` experiment produces: the summary [`Table`]
/// plus the machine-readable artifacts the `report` binary writes next to
/// it (`profile.trace.json`, `profile.json`).
pub struct ProfileRun {
    /// Summary table, rendered like any other experiment.
    pub table: Table,
    /// Chrome `trace_event` document (Perfetto / `chrome://tracing`
    /// loadable; timestamps are controller step indices).
    pub chrome_trace: ppa_obs::Json,
    /// Metrics snapshot of the observed run.
    pub metrics: ppa_obs::Metrics,
    /// Step totals of the same run — `metrics` must reconcile with this
    /// exactly (asserted by the integration tests).
    pub report: StepReport,
    /// Micro-op-class wall-clock attribution of the run; rendered as
    /// `profile.folded.txt` (inferno folded-stack lines) by `report`.
    pub micro: ppa_obs::MicroProfile,
}

/// The `profile` experiment (supersedes the text-only T9 attribution):
/// one MCP run with every observer attached — hierarchical trace spans
/// (`mcp > iteration[i] > <statement> > bit[j]`), the metrics registry,
/// and micro-op wall-clock attribution.
pub fn profile_run() -> ProfileRun {
    let n = 10usize;
    let h = 16u32;
    let w = gen::ring(n);
    let mut ppa = Ppa::square(n).with_word_bits(h);
    let chrome = ppa_obs::ChromeTraceSink::new();
    ppa.install_sink(chrome.clone());
    ppa.enable_metrics();
    ppa.enable_micro_profile();
    let out = minimum_cost_path(&mut ppa, &w, 0).expect("profile workload solves");
    let _ = ppa.take_sink();
    // Take the micro profile *before* the metrics snapshot so its
    // exec.<backend>.<class>.{ns,count} counters fold into the registry.
    let micro = ppa.take_micro_profile();
    let metrics = ppa.take_metrics();
    let report = out.stats.total;
    let chrome_trace = chrome.finish(report.total());

    let mut t = Table::new(
        "profile",
        format!(
            "fully observed MCP run (ring n = {n}, h = {h}, {} iterations, {} steps): \
             counters vs controller report",
            out.iterations,
            report.total()
        ),
        vec!["metric".into(), "value".into(), "controller report".into()],
    );
    for op in Op::ALL {
        t.row(vec![
            op.metric_name().into(),
            metrics.counter(op.metric_name()).to_string(),
            report.count(op).to_string(),
        ]);
    }
    t.row(vec![
        "steps.total".into(),
        metrics.counter("steps.total").to_string(),
        report.total().to_string(),
    ]);
    t.row(vec![
        "mcp.iterations".into(),
        metrics.counter("mcp.iterations").to_string(),
        out.iterations.to_string(),
    ]);
    for counter in [
        "bus.transactions",
        "bus.clusters",
        "mask.writes",
        "mask.active_pes",
    ] {
        t.row(vec![
            counter.into(),
            metrics.counter(counter).to_string(),
            "-".into(),
        ]);
    }
    if let Some(hist) = metrics.histogram("mcp.steps_per_iteration") {
        t.row(vec![
            "mcp.steps_per_iteration (mean)".into(),
            format!("{:.1}", hist.mean()),
            format!("{:.1}", out.stats.steps_per_iteration()),
        ]);
    }
    for (class, wall) in micro.classes() {
        t.row(vec![
            format!("exec.{}.{class}.ns", micro.backend()),
            wall.nanos.to_string(),
            format!("count {} (= steps.{class})", wall.count),
        ]);
    }
    t.note(format!(
        "micro-op attribution ({} backend): {} timed instructions, {:.2} ms attributed; \
         folded-stack artifact profile.folded.txt (inferno format: `backend;class nanos`)",
        micro.backend(),
        micro.total().count,
        micro.total().nanos as f64 / 1e6,
    ));
    t.note("artifacts: profile.trace.json (Chrome trace_event, load in Perfetto; ts = step");
    t.note("index) and profile.json (metrics snapshot). Every `steps.*` counter must equal");
    t.note("the controller report column exactly — the integration tests assert it.");

    ProfileRun {
        table: t,
        chrome_trace,
        metrics,
        report,
        micro,
    }
}

/// The `faults` experiment: a seeded fault-tolerance campaign over a
/// fault-count × array-size grid.
///
/// Each trial attaches a reproducible random [`FaultMap`] to a live
/// machine, runs the recovering solver
/// ([`RecoveryPolicy::Degrade`]), and classifies the trial:
///
/// * **recovered** — the solver returned a result and the host verified
///   it against the sequential reference (on the full graph, or on the
///   induced healthy subgraph when degradation excluded vertices);
/// * **reported** — the solver returned a typed error
///   (`McpError::FaultyArray`, or the corruption error itself);
/// * **silent-wrong** — the solver returned a result the reference
///   refutes. This row must never appear; the integration tests assert
///   its absence.
///
/// Recovery overhead is reported twice — from the solver's own
/// [`ppa_mcp::RecoveryStats`] and from the `recovery.overhead_steps`
/// metrics counter — so the two accounting paths can be reconciled row
/// by row.
pub fn faults_campaign(seed: u64) -> Table {
    let mut t = Table::new(
        "faults",
        format!(
            "fault-tolerance campaign (seed {seed}): seeded stuck-at maps on live machines, \
             RecoveryPolicy::Degrade, verified against the sequential reference"
        ),
        vec![
            "n".into(),
            "faults".into(),
            "trial".into(),
            "outcome".into(),
            "located".into(),
            "excluded".into(),
            "self-tests".into(),
            "overhead steps".into(),
            "metrics overhead".into(),
            "healthy steps".into(),
        ],
    );
    let mut trials = 0u32;
    let mut recovered = 0u32;
    let mut reported = 0u32;
    let mut silent_wrong = 0u32;
    let mut detected_trials = 0u32;
    let mut corrupt_trials = 0u32;
    for &n in &[4usize, 6, 8] {
        for &k in &[1usize, 2, 4] {
            for trial in 0..3u64 {
                let trial_seed = seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add((n * 100 + k * 10) as u64 + trial);
                let w = gen::random_connected(n, 0.5, 9, trial_seed);
                let d = (trial as usize) % n;
                // Healthy baseline for the overhead comparison.
                let mut healthy_ppa = machine_for(&w, 10);
                let healthy_steps = minimum_cost_path(&mut healthy_ppa, &w, d)
                    .expect("healthy baseline solves")
                    .stats
                    .total
                    .total();

                let mut ppa = machine_for(&w, 10);
                ppa.enable_metrics();
                let fm = FaultMap::random(ppa.dim(), k, trial_seed ^ 0x5eed);
                ppa.machine_mut().attach_faults(fm);
                let result = solve_with_recovery(
                    &mut ppa,
                    &w,
                    d,
                    RecoveryPolicy::Degrade { max_retries: 2 },
                );
                let metrics = ppa.take_metrics();
                let metrics_overhead = metrics.counter("recovery.overhead_steps");
                trials += 1;
                if metrics.counter("recovery.self_tests") > 0 {
                    corrupt_trials += 1;
                    if metrics.counter("faults.detected") > 0 {
                        detected_trials += 1;
                    }
                }
                let (outcome, located, excluded, self_tests, overhead) = match &result {
                    Ok(r) => {
                        let valid = if r.recovery.excluded.is_empty() {
                            validate::is_valid_solution(&w, d, &r.output.sow, &r.output.ptn)
                        } else {
                            degraded_matches_reference(&w, d, r)
                        };
                        if valid {
                            recovered += 1;
                        } else {
                            silent_wrong += 1;
                        }
                        (
                            if valid { "recovered" } else { "silent-wrong" },
                            r.recovery.located.len() as u64,
                            r.recovery.excluded.len() as u64,
                            r.recovery.self_tests as u64,
                            r.recovery.overhead.total(),
                        )
                    }
                    Err(_) => {
                        reported += 1;
                        (
                            "reported",
                            metrics.counter("faults.detected"),
                            0,
                            metrics.counter("recovery.self_tests"),
                            metrics_overhead,
                        )
                    }
                };
                t.row(vec![
                    n.to_string(),
                    k.to_string(),
                    trial.to_string(),
                    outcome.into(),
                    located.to_string(),
                    excluded.to_string(),
                    self_tests.to_string(),
                    overhead.to_string(),
                    metrics_overhead.to_string(),
                    healthy_steps.to_string(),
                ]);
            }
        }
    }
    t.note(format!(
        "{trials} trials: {recovered} recovered, {reported} reported, {silent_wrong} silent-wrong \
         (recovery rate {:.0}%)",
        recovered as f64 / trials as f64 * 100.0
    ));
    t.note(format!(
        "corruption surfaced in {corrupt_trials} trials; BIST localized faults in {detected_trials} \
         of them (detection rate {:.0}%)",
        if corrupt_trials == 0 {
            100.0
        } else {
            detected_trials as f64 / corrupt_trials as f64 * 100.0
        }
    ));
    t.note("overhead = failed solve attempts + self-test sweeps, in controller steps; the");
    t.note("'metrics overhead' column is the ppa-obs counter and must equal it row by row.");
    t
}

/// SRV — the serving stress campaign: a seeded job mix (shortest /
/// widest / all-pairs / chaos) across a deadline grid, step-budget grid,
/// injected transient faults, and forced worker panics, pushed through a
/// [`ppa_serve::SolveService`] pool.
///
/// Each scenario row reports throughput, p50/p99 latency (from the
/// `serve.latency_us` histogram's
/// [`quantile_bound`](ppa_obs::Histogram::quantile_bound)), and the failure-class counts
/// — and every count is **reconciled 1:1** against what the client
/// observed on its tickets (`reconciled` column). Completed results are
/// re-verified against the host-side references, so the summary notes
/// carry the two invariants CI greps for: `lost_jobs: 0` (every accepted
/// job produced exactly one report) and `silent_wrong: 0` (no completed
/// job returned a refutable answer). A final kill+resume drill interrupts
/// an all-pairs campaign with a step budget, tears the service down, and
/// resumes the checkpoint on a fresh pool — the resumed document must be
/// byte-identical to an uninterrupted run (`resume_byte_identical`).
pub fn serve_campaign(seed: u64) -> Table {
    serve_run(seed).table
}

/// Everything the `serve` experiment produces: the campaign [`Table`],
/// the measured [`Baseline`] (per-scenario wall-clock with the
/// deterministic job count as the step dimension), and a JSON document
/// of per-scenario [`ppa_serve::Introspection`] snapshots taken on the
/// idle-but-live service after every ticket reported — each snapshot is
/// round-trip-verified and reconciled 1:1 against the client tallies
/// (the `introspect_reconciled` note CI greps for).
pub struct ServeRun {
    /// Campaign summary table.
    pub table: Table,
    /// Per-scenario wall-clock baseline.
    pub baseline: Baseline,
    /// `{campaign_seed, scenarios: [{scenario, snapshot}, ...]}`.
    pub introspection: ppa_obs::Json,
}

/// The serving stress campaign with baseline and introspection artifacts
/// (see [`serve_campaign`] for the campaign semantics).
pub fn serve_run(seed: u64) -> ServeRun {
    use ppa_obs::Json;
    use ppa_serve::{
        ApspCheckpoint, Introspection, JobKind, JobOutcome, JobSpec, JobTicket, RetryPolicy,
        ServeConfig, ServeError, SolveService,
    };
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    struct Scenario {
        name: &'static str,
        jobs: usize,
        chaos_pct: u32,
        fault_pct: u32,
        fault_p: f64,
        deadlines: Vec<Option<Duration>>,
        budgets: Vec<Option<u64>>,
    }
    let scenarios = [
        Scenario {
            name: "clean mix",
            jobs: 30,
            chaos_pct: 0,
            fault_pct: 0,
            fault_p: 0.0,
            deadlines: vec![None],
            budgets: vec![None],
        },
        Scenario {
            name: "deadline grid",
            jobs: 30,
            chaos_pct: 0,
            fault_pct: 0,
            fault_p: 0.0,
            deadlines: vec![
                None,
                Some(Duration::from_millis(5)),
                Some(Duration::from_micros(250)),
            ],
            budgets: vec![None],
        },
        Scenario {
            name: "injected faults",
            jobs: 30,
            chaos_pct: 0,
            fault_pct: 50,
            fault_p: 0.01,
            deadlines: vec![None],
            budgets: vec![None],
        },
        Scenario {
            name: "forced panics",
            jobs: 30,
            chaos_pct: 20,
            fault_pct: 0,
            fault_p: 0.0,
            deadlines: vec![None],
            budgets: vec![None],
        },
        Scenario {
            name: "combined stress",
            jobs: 40,
            chaos_pct: 10,
            fault_pct: 30,
            fault_p: 0.01,
            deadlines: vec![
                None,
                Some(Duration::from_millis(2)),
                Some(Duration::from_micros(250)),
            ],
            budgets: vec![None, Some(150), Some(100_000)],
        },
    ];

    let mut t = Table::new(
        "serve",
        format!(
            "serving stress campaign (seed {seed}): 4 workers, queue 12, job mix x deadline grid \
             x step budgets x transient faults x chaos panics; counts reconciled against serve.* metrics"
        ),
        vec![
            "scenario".into(),
            "jobs".into(),
            "accepted".into(),
            "rejected".into(),
            "completed".into(),
            "failed".into(),
            "deadline miss".into(),
            "budget out".into(),
            "panics".into(),
            "retries".into(),
            "p50 us".into(),
            "p99 us".into(),
            "jobs/s".into(),
            "reconciled".into(),
        ],
    );

    let graphs: Vec<WeightMatrix> = (0..3)
        .map(|i| {
            gen::random_connected(
                5 + 2 * i,
                0.45,
                9,
                seed.wrapping_mul(13).wrapping_add(i as u64),
            )
        })
        .collect();
    let root_cause = |e: &ServeError| -> ServeError {
        match e {
            ServeError::Interrupted { cause, .. } => (**cause).clone(),
            other => other.clone(),
        }
    };

    let mut lost_jobs = 0u64;
    let mut silent_wrong = 0u64;
    let mut introspect_ok = true;
    let mut snapshots: Vec<Json> = Vec::new();
    let mut entries: Vec<BaselineEntry> = Vec::new();
    for (si, sc) in scenarios.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(si as u64));
        let svc = SolveService::start(ServeConfig {
            workers: 4,
            queue_capacity: 12,
            retry: RetryPolicy {
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_micros(400),
                ..RetryPolicy::default()
            },
            seed: seed ^ si as u64,
            ..ServeConfig::default()
        });
        let start = Instant::now();
        let mut pending: Vec<(JobSpec, JobTicket)> = Vec::new();
        let mut rejected = 0u64;
        for j in 0..sc.jobs {
            let g = graphs[rng.gen_range(0..graphs.len())].clone();
            let n = g.n();
            let kind = if rng.gen_range(0..100u32) < sc.chaos_pct {
                JobKind::Chaos
            } else {
                match rng.gen_range(0..10) {
                    0 | 1 => JobKind::Widest {
                        dest: rng.gen_range(0..n),
                    },
                    2 => JobKind::Apsp {
                        resume_from: None,
                        checkpoint_every: 2,
                    },
                    _ => JobKind::Shortest {
                        dest: rng.gen_range(0..n),
                    },
                }
            };
            let mut spec = JobSpec::new(g, kind);
            spec.deadline = sc.deadlines[j % sc.deadlines.len()];
            spec.step_budget = sc.budgets[j % sc.budgets.len()];
            if rng.gen_range(0..100u32) < sc.fault_pct {
                spec.transient_faults = Some((sc.fault_p, seed.wrapping_add(j as u64)));
            }
            // Backpressure is part of the experiment: count every
            // rejection, back off briefly, and shed the job after a few
            // refusals (a well-behaved client under load-shedding).
            let mut submitted = false;
            for _ in 0..8 {
                match svc.submit(spec.clone()) {
                    Ok(ticket) => {
                        pending.push((spec.clone(), ticket));
                        submitted = true;
                        break;
                    }
                    Err(ServeError::Rejected { .. }) => {
                        rejected += 1;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(other) => panic!("unexpected submit failure: {other}"),
                }
            }
            let _ = submitted;
        }
        let accepted = pending.len() as u64;

        let (mut completed, mut failed) = (0u64, 0u64);
        let (mut dl_miss, mut budget_out, mut panics, mut retries) = (0u64, 0u64, 0u64, 0u64);
        let mut reports = 0u64;
        for (spec, ticket) in pending {
            let report = ticket.wait();
            reports += 1;
            retries += u64::from(report.attempts.saturating_sub(1));
            match &report.outcome {
                Ok(out) => {
                    completed += 1;
                    if !serve_outcome_is_correct(&spec, out) {
                        silent_wrong += 1;
                    }
                }
                Err(e) => {
                    failed += 1;
                    match root_cause(e) {
                        ServeError::DeadlineExceeded
                        | ServeError::DeadlineExpiredInQueue { .. } => dl_miss += 1,
                        ServeError::StepBudgetExhausted { .. } => budget_out += 1,
                        ServeError::WorkerPanicked { .. } => panics += 1,
                        _ => {}
                    }
                }
            }
        }
        lost_jobs += accepted - reports;
        let wall = start.elapsed();

        // Introspect the still-live (now idle) service: every client
        // tally must reconcile 1:1 with the snapshot's counters, the
        // pool must be visibly quiescent, and the snapshot must survive
        // an exact JSON round trip.
        let snap = svc.introspect();
        let snap_doc = snap.to_json();
        let round_trips = Introspection::from_json(&snap_doc)
            .map(|back| {
                back == snap && back.to_json().to_string_compact() == snap_doc.to_string_compact()
            })
            .unwrap_or(false);
        let snap_ok = round_trips
            && snap.queue_depth == 0
            && snap.inflight.is_empty()
            && snap.metrics.counter("serve.accepted") == accepted
            && snap.metrics.counter("serve.rejected_queue_full") == rejected
            && snap.metrics.counter("serve.completed") == completed
            && snap.metrics.counter("serve.failed") == failed
            && snap.metrics.counter("serve.deadline_exceeded") == dl_miss
            && snap.metrics.counter("serve.budget_exhausted") == budget_out
            && snap.metrics.counter("serve.worker_panics") == panics
            && snap.metrics.counter("serve.retries") == retries
            && snap.retries == retries;
        introspect_ok &= snap_ok;
        snapshots.push(Json::obj(vec![
            ("scenario", Json::Str(sc.name.to_owned())),
            ("reconciled", Json::Bool(snap_ok)),
            ("snapshot", snap_doc),
        ]));
        entries.push(BaselineEntry {
            cell: sc.name.to_owned(),
            steps: sc.jobs as u64,
            wall: WallStats::from_samples(&[wall.as_nanos() as u64]),
            counters: std::collections::BTreeMap::new(),
        });
        let metrics = svc.shutdown();

        let reconciled = metrics.counter("serve.accepted") == accepted
            && metrics.counter("serve.rejected_queue_full") == rejected
            && metrics.counter("serve.completed") == completed
            && metrics.counter("serve.failed") == failed
            && metrics.counter("serve.deadline_exceeded") == dl_miss
            && metrics.counter("serve.budget_exhausted") == budget_out
            && metrics.counter("serve.worker_panics") == panics
            && metrics.counter("serve.retries") == retries;
        let latency = metrics.histogram("serve.latency_us");
        let quantile = |q: f64| -> String {
            latency
                .and_then(|h| h.quantile_bound(q))
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into())
        };
        t.row(vec![
            sc.name.into(),
            sc.jobs.to_string(),
            accepted.to_string(),
            rejected.to_string(),
            completed.to_string(),
            failed.to_string(),
            dl_miss.to_string(),
            budget_out.to_string(),
            panics.to_string(),
            retries.to_string(),
            quantile(0.5),
            quantile(0.99),
            format!("{:.0}", reports as f64 / wall.as_secs_f64()),
            if reconciled {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }

    // Kill+resume drill: interrupt an all-pairs campaign with a step
    // budget, tear the whole service down, resume on a fresh pool.
    let w = gen::random_connected(7, 0.4, 9, seed.wrapping_add(101));
    let apsp = |resume_from| JobKind::Apsp {
        resume_from,
        checkpoint_every: 1,
    };
    let svc = SolveService::start(ServeConfig::default());
    let full = svc
        .submit(JobSpec::new(w.clone(), apsp(None)))
        .expect("reference campaign accepted")
        .wait();
    svc.shutdown();
    let reference = match full.outcome {
        Ok(JobOutcome::Apsp(doc)) => doc.to_string_compact(),
        other => panic!("reference campaign must complete, got {other:?}"),
    };
    let mut session = ppa_mcp::McpSession::new(&w).expect("session builds");
    session.ppa_mut().limit_steps(1_000_000);
    session.all_pairs().expect("campaign solves");
    let used = 1_000_000 - session.ppa_mut().steps_remaining().expect("budget armed");
    let svc = SolveService::start(ServeConfig::default());
    let mut partial = JobSpec::new(w.clone(), apsp(None));
    partial.step_budget = Some(used / 2);
    let interrupted = svc.submit(partial).expect("accepted").wait();
    svc.shutdown();
    let resume_identical = match interrupted.outcome {
        Err(ServeError::Interrupted { checkpoint, .. }) => {
            let progress = ApspCheckpoint::from_json(&checkpoint).expect("checkpoint parses");
            let midway = progress.next_dest() > 0 && !progress.is_complete();
            let svc = SolveService::start(ServeConfig::default());
            let resumed = svc
                .submit(JobSpec::new(w, apsp(Some(checkpoint))))
                .expect("accepted")
                .wait();
            svc.shutdown();
            midway
                && matches!(
                    &resumed.outcome,
                    Ok(JobOutcome::Apsp(doc)) if doc.to_string_compact() == reference
                )
        }
        _ => false,
    };

    t.note(format!(
        "lost_jobs: {lost_jobs} (accepted jobs that never produced a report)"
    ));
    t.note(format!(
        "silent_wrong: {silent_wrong} (completed jobs refuted by the host-side reference)"
    ));
    t.note(format!(
        "resume_byte_identical: {resume_identical} (kill mid-campaign via step budget, resume \
         checkpoint on a fresh service, compare to an uninterrupted run)"
    ));
    t.note(format!(
        "introspect_reconciled: {introspect_ok} (live snapshot taken while idle round-trips \
         byte-identically and its counters equal the client-side tallies)"
    ));
    t.note("`reconciled` = every failure-class count observed on client tickets equals the");
    t.note("corresponding serve.* metrics counter exactly; latency quantiles are log2-bucket");
    t.note("upper bounds from the serve.latency_us histogram.");
    ServeRun {
        table: t,
        baseline: Baseline::new("serve", entries),
        introspection: Json::obj(vec![
            ("campaign_seed", Json::Num(seed as f64)),
            ("reconciled", Json::Bool(introspect_ok)),
            ("scenarios", Json::Array(snapshots)),
        ]),
    }
}

/// Host-side refutation check for a completed serve job.
fn serve_outcome_is_correct(spec: &ppa_serve::JobSpec, out: &ppa_serve::JobOutcome) -> bool {
    use ppa_serve::{ApspCheckpoint, JobKind, JobOutcome};
    match (&spec.kind, out) {
        (JobKind::Shortest { dest }, JobOutcome::Shortest(o)) => {
            validate::is_valid_solution(&spec.graph, *dest, &o.sow, &o.ptn)
        }
        (JobKind::Widest { dest }, JobOutcome::Widest(o)) => {
            // cap[dest] is MAXINT on the array and Weight::MAX in the
            // oracle; only the off-destination entries are comparable.
            let oracle = ppa_mcp::widest::widest_path_oracle(&spec.graph, *dest);
            (0..spec.graph.n()).all(|i| i == *dest || o.cap[i] == oracle[i])
        }
        (JobKind::Apsp { .. }, JobOutcome::Apsp(doc)) => {
            let Ok(cp) = ApspCheckpoint::from_json(doc) else {
                return false;
            };
            cp.is_complete()
                && cp
                    .completed()
                    .iter()
                    .all(|r| validate::is_valid_solution(&spec.graph, r.dest, &r.sow, &r.ptn))
        }
        _ => false,
    }
}

/// NET — the network-edge chaos campaign: wire-protocol fuzzing,
/// admission-control flooding, dropped connections, deadline/cancel
/// over the wire, resumable network campaigns, and a kill -9 shard
/// drill that spawns real `solve shard-worker` processes.
pub fn net_campaign(seed: u64) -> Table {
    net_run(seed, true).table
}

/// Everything the `net` experiment produces: the campaign [`Table`] and
/// the measured [`Baseline`] (the shard drill is excluded from the
/// baseline cells so bench mode — which must stay subprocess-free —
/// measures the same grid).
pub struct NetRun {
    /// Campaign summary table.
    pub table: Table,
    /// Per-scenario wall-clock baseline.
    pub baseline: Baseline,
}

/// The network-edge campaign (see [`net_campaign`]). `with_shard_drill`
/// additionally runs the crash drill: three `solve shard-worker`
/// processes over a split destination range, one killed with SIGKILL
/// mid-campaign and restarted, their checkpoints merged and compared
/// byte-for-byte against a single-process run.
pub fn net_run(seed: u64, with_shard_drill: bool) -> NetRun {
    use ppa_obs::Json;
    use ppa_serve::wire::{read_incoming, write_frame, CampaignRequest, Incoming};
    use ppa_serve::{
        ApspCheckpoint, JobKind, JobOutcome, JobSpec, NetClient, NetConfig, NetServer, Request,
        Response, ServeConfig, SolveService, SubmitRequest,
    };
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::sync::Arc;

    let mut t = Table::new(
        "net",
        format!(
            "network edge chaos campaign (seed {seed}): wire fuzzing, admission flood, dropped \
             connections, deadline/cancel over the wire, resumable campaigns; every count \
             reconciled against the server's net.* / serve.* counters"
        ),
        vec![
            "scenario".into(),
            "ops".into(),
            "accepted".into(),
            "rejected".into(),
            "typed errors".into(),
            "completed".into(),
            "lost".into(),
            "reconciled".into(),
        ],
    );
    let mut entries: Vec<BaselineEntry> = Vec::new();
    let mut lost_jobs = 0u64;
    let mut silent_wrong = 0u64;

    let submit = |graph: &WeightMatrix, dest: usize, wait: bool| SubmitRequest {
        graph: ppa_graph::io::to_edge_list(graph),
        kind: "shortest".into(),
        dest,
        checkpoint_every: 1,
        resume_from: None,
        deadline_ms: None,
        step_budget: None,
        transient_faults: None,
        wait,
    };
    let drain_service = |svc: Arc<SolveService>| {
        if let Ok(s) = Arc::try_unwrap(svc) {
            s.shutdown();
        }
    };
    let mut push_cell = |name: &str, ops: u64, wall: std::time::Duration| {
        entries.push(BaselineEntry {
            cell: name.to_owned(),
            steps: ops,
            wall: WallStats::from_samples(&[wall.as_nanos() as u64]),
            counters: std::collections::BTreeMap::new(),
        });
    };

    // --- wire fuzz: malformed bytes get typed errors, never hangs ----
    {
        let start = Instant::now();
        let svc = Arc::new(SolveService::start(ServeConfig {
            workers: 2,
            seed,
            ..ServeConfig::default()
        }));
        let server = NetServer::start(
            Arc::clone(&svc),
            NetConfig {
                max_frame: 4096,
                ..NetConfig::default()
            },
        )
        .expect("fuzz server binds");
        let addr = server.local_addr();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF022);
        let ops = 40u64;
        let (mut oversized, mut garbage, mut unknown, mut truncated, mut http) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut typed_errors = 0u64;
        let mut all_typed = true;
        let read_response = |stream: &TcpStream| -> Option<Response> {
            let mut r = stream;
            match read_incoming(&mut r, 1 << 20) {
                Ok(Incoming::Frame(doc)) => Response::from_json(&doc).ok(),
                _ => None,
            }
        };
        let error_kind = |resp: Option<Response>| -> Option<String> {
            match resp {
                Some(Response::Error(f)) => Some(f.kind),
                _ => None,
            }
        };
        for i in 0..ops {
            let mut stream = TcpStream::connect(addr).expect("fuzz connect");
            match i % 5 {
                0 => {
                    // A length prefix far beyond the server's cap: the
                    // payload must be rejected *before* allocation.
                    let len = 4097 + rng.gen_range(0..1_000_000u32);
                    stream.write_all(&len.to_be_bytes()).expect("write prefix");
                    oversized += 1;
                    let kind = error_kind(read_response(&stream));
                    all_typed &= kind.as_deref() == Some("frame_too_large");
                    typed_errors += u64::from(kind.is_some());
                }
                1 => {
                    // A well-framed payload of non-UTF-8 bytes (every
                    // byte has the high bit set, so it can never start a
                    // JSON value).
                    let len = rng.gen_range(1..64usize);
                    let payload: Vec<u8> = (0..len)
                        .map(|_| rng.gen_range(0x80..0x100u32) as u8)
                        .collect();
                    stream
                        .write_all(&(len as u32).to_be_bytes())
                        .expect("write prefix");
                    stream.write_all(&payload).expect("write payload");
                    garbage += 1;
                    let kind = error_kind(read_response(&stream));
                    all_typed &= kind.as_deref() == Some("malformed");
                    typed_errors += u64::from(kind.is_some());
                }
                2 => {
                    // Valid JSON, unknown op: typed error and the stream
                    // stays usable for a follow-up request.
                    let doc = Json::obj(vec![("op", Json::Str("bogus".into()))]);
                    write_frame(&mut stream, &doc).expect("write frame");
                    unknown += 1;
                    let kind = error_kind(read_response(&stream));
                    all_typed &= kind.as_deref() == Some("unknown_op");
                    typed_errors += u64::from(kind.is_some());
                    write_frame(&mut stream, &Request::Status.to_json()).expect("write status");
                    all_typed &= matches!(read_response(&stream), Some(Response::Status(_)));
                }
                3 => {
                    // A truncated frame: the prefix promises more bytes
                    // than ever arrive, then the client vanishes.
                    stream
                        .write_all(&100u32.to_be_bytes())
                        .expect("write prefix");
                    stream
                        .write_all(&[0x7b; 10])
                        .expect("write partial payload");
                    truncated += 1;
                }
                _ => {
                    // An HTTP GET for a bogus path shares the port.
                    stream
                        .write_all(b"GET /nope HTTP/1.1\r\n\r\n")
                        .expect("write http");
                    http += 1;
                    let mut buf = Vec::new();
                    let mut r = &stream;
                    let _ = r.read_to_end(&mut buf);
                    all_typed &= buf.starts_with(b"HTTP/1.1 404");
                }
            }
        }
        // After the abuse, a legitimate job must still go through.
        let probe_graph = gen::random_connected(10, 0.4, 9, seed ^ 1);
        let mut client = NetClient::connect(addr).expect("probe connects");
        let probe_ok = matches!(
            client.call(&Request::Submit(submit(&probe_graph, 0, true))),
            Ok(Response::Report { .. })
        );
        drop(client);
        let net_metrics = server.shutdown();
        drain_service(svc);
        // Truncated frames race the hangup: the server sees either a
        // truncated payload (counted malformed) or a bare reset.
        let malformed = net_metrics.counter("net.malformed");
        let reconciled = all_typed
            && probe_ok
            && net_metrics.counter("net.oversized") == oversized
            && net_metrics.counter("net.unknown_op") == unknown
            && malformed >= garbage
            && malformed <= garbage + truncated
            && net_metrics.counter("net.http_gets") == http;
        push_cell("wire fuzz", ops, start.elapsed());
        t.row(vec![
            "wire fuzz".into(),
            ops.to_string(),
            "1".into(),
            "0".into(),
            typed_errors.to_string(),
            "1".into(),
            "0".into(),
            if reconciled {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }

    // --- admission flood: shed at the edge, nothing lost -------------
    {
        let start = Instant::now();
        let graph = gen::random_connected(18, 0.3, 9, seed ^ 2);
        let svc = Arc::new(SolveService::start(ServeConfig {
            workers: 2,
            queue_capacity: 4,
            seed,
            ..ServeConfig::default()
        }));
        let server =
            NetServer::start(Arc::clone(&svc), NetConfig::default()).expect("flood server binds");
        let addr = server.local_addr();
        const CLIENTS: usize = 4;
        const PER_CLIENT: usize = 25;
        let ops = (CLIENTS * PER_CLIENT) as u64;
        // (accepted (id, dest) pairs, rejection count, retry hints all sane)
        type ClientTally = (Vec<(u64, usize)>, u64, bool);
        let per_client: Vec<ClientTally> = std::thread::scope(|scope| {
            let submit = &submit;
            let graph = &graph;
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut client = NetClient::connect(addr).expect("flood connect");
                        let mut accepted = Vec::new();
                        let mut rejected = 0u64;
                        let mut hints_ok = true;
                        for j in 0..PER_CLIENT {
                            let dest = (c * PER_CLIENT + j) % graph.n();
                            match client.call(&Request::Submit(submit(graph, dest, false))) {
                                Ok(Response::Accepted { id }) => accepted.push((id, dest)),
                                Ok(Response::Error(f)) => {
                                    rejected += 1;
                                    hints_ok &= f.kind == "rejected"
                                        && f.retry_after_ms.is_some_and(|ms| ms >= 1);
                                }
                                other => panic!("unexpected flood response: {other:?}"),
                            }
                        }
                        (accepted, rejected, hints_ok)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("flood client"))
                .collect()
        });
        let mut ids: Vec<(u64, usize)> = Vec::new();
        let mut rejected = 0u64;
        let mut hints_ok = true;
        for (a, r, h) in per_client {
            ids.extend(a);
            rejected += r;
            hints_ok &= h;
        }
        let accepted = ids.len() as u64;
        // Every accepted job must yield exactly one fetchable report,
        // and every completed answer must survive the reference check.
        let mut client = NetClient::connect(addr).expect("fetch connect");
        let (mut completed, mut failed, mut fetched) = (0u64, 0u64, 0u64);
        for &(id, dest) in &ids {
            match client.call(&Request::Result { id }) {
                Ok(Response::Report { outcome, .. }) => {
                    fetched += 1;
                    match ppa_serve::wire::outcome_from_json(&outcome) {
                        Ok(JobOutcome::Shortest(out)) => {
                            completed += 1;
                            if !validate::is_valid_solution(&graph, dest, &out.sow, &out.ptn) {
                                silent_wrong += 1;
                            }
                        }
                        _ => failed += 1,
                    }
                }
                Ok(Response::Error(f)) if f.kind != "unknown_job" => {
                    fetched += 1;
                    failed += 1;
                }
                _ => {}
            }
        }
        let metrics = match client.call(&Request::Metrics) {
            Ok(Response::MetricsDoc(doc)) => ppa_obs::Metrics::from_json(&doc).ok(),
            _ => None,
        };
        drop(client);
        server.shutdown();
        drain_service(svc);
        lost_jobs += accepted - fetched;
        let reconciled = hints_ok
            && completed + failed == fetched
            && metrics.is_some_and(|m| {
                m.counter("serve.accepted") == accepted
                    && m.counter("serve.rejected_queue_full") == rejected
                    && m.counter("serve.completed") + m.counter("serve.failed") == accepted
                    && m.counter("net.submitted") == accepted
                    && m.counter("net.submit_rejected") == rejected
            });
        push_cell("admission flood", ops, start.elapsed());
        t.row(vec![
            "admission flood".into(),
            ops.to_string(),
            accepted.to_string(),
            rejected.to_string(),
            rejected.to_string(),
            completed.to_string(),
            (accepted - fetched).to_string(),
            if reconciled {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }

    // --- dropped connections: orphaned jobs still settle -------------
    {
        let start = Instant::now();
        let graph = gen::random_connected(14, 0.35, 9, seed ^ 3);
        let svc = Arc::new(SolveService::start(ServeConfig {
            workers: 2,
            seed,
            ..ServeConfig::default()
        }));
        let server =
            NetServer::start(Arc::clone(&svc), NetConfig::default()).expect("drop server binds");
        let addr = server.local_addr();
        let conns = 8u64;
        let mut ids: Vec<(u64, usize)> = Vec::new();
        for i in 0..conns as usize {
            if i % 2 == 0 {
                // Submit asynchronously, then vanish without fetching.
                let mut client = NetClient::connect(addr).expect("drop connect");
                let dest = i % graph.n();
                match client.call(&Request::Submit(submit(&graph, dest, false))) {
                    Ok(Response::Accepted { id }) => ids.push((id, dest)),
                    other => panic!("unexpected drop response: {other:?}"),
                }
            } else {
                // Hang up mid-frame.
                let mut stream = TcpStream::connect(addr).expect("drop connect raw");
                stream
                    .write_all(&64u32.to_be_bytes())
                    .expect("write prefix");
                stream.write_all(b"{\"op\":").expect("write partial");
            }
        }
        let submitted = ids.len() as u64;
        let mut client = NetClient::connect(addr).expect("reap connect");
        let (mut completed, mut fetched) = (0u64, 0u64);
        for &(id, dest) in &ids {
            if let Ok(Response::Report { outcome, .. }) = client.call(&Request::Result { id }) {
                fetched += 1;
                if let Ok(JobOutcome::Shortest(out)) = ppa_serve::wire::outcome_from_json(&outcome)
                {
                    completed += 1;
                    if !validate::is_valid_solution(&graph, dest, &out.sow, &out.ptn) {
                        silent_wrong += 1;
                    }
                }
            }
        }
        let status_ok = matches!(client.call(&Request::Status), Ok(Response::Status(_)));
        drop(client);
        server.shutdown();
        drain_service(svc);
        lost_jobs += submitted - fetched;
        let reconciled = status_ok && fetched == submitted && completed == submitted;
        push_cell("dropped connections", conns, start.elapsed());
        t.row(vec![
            "dropped connections".into(),
            conns.to_string(),
            submitted.to_string(),
            "0".into(),
            "0".into(),
            completed.to_string(),
            (submitted - fetched).to_string(),
            if reconciled {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }

    // --- deadline + cancel travel the wire ---------------------------
    {
        let start = Instant::now();
        let graph = gen::random_connected(16, 0.3, 9, seed ^ 4);
        let svc = Arc::new(SolveService::start(ServeConfig {
            workers: 2,
            seed,
            ..ServeConfig::default()
        }));
        let server = NetServer::start(Arc::clone(&svc), NetConfig::default())
            .expect("deadline server binds");
        let addr = server.local_addr();
        let mut client = NetClient::connect(addr).expect("deadline connect");
        let ops = 5u64;
        let mut typed = 0u64;
        let mut ok = true;
        // An already-expired deadline fails with the deadline taxonomy.
        let mut req = submit(&graph, 0, true);
        req.deadline_ms = Some(0);
        match client.call(&Request::Submit(req)) {
            Ok(Response::Error(f)) => {
                typed += 1;
                ok &= f.kind == "deadline" || f.kind == "deadline_in_queue";
            }
            _ => ok = false,
        }
        // A mid-campaign step budget hands back a parseable resume
        // checkpoint with the error. Half the measured full-campaign
        // cost lands between destinations, like `serve_run`'s drill.
        let mut session = ppa_mcp::McpSession::new(&graph).expect("session builds");
        session.ppa_mut().limit_steps(1_000_000);
        session.all_pairs().expect("campaign solves");
        let used = 1_000_000 - session.ppa_mut().steps_remaining().expect("budget armed");
        let mut req = submit(&graph, 0, true);
        req.kind = "apsp".into();
        req.step_budget = Some(used / 2);
        match client.call(&Request::Submit(req)) {
            Ok(Response::Error(f)) => {
                typed += 1;
                ok &= f.kind == "interrupted:budget"
                    && f.checkpoint
                        .as_ref()
                        .is_some_and(|doc| ApspCheckpoint::from_json(doc).is_ok());
            }
            _ => ok = false,
        }
        // Cancelling an unknown id is answered, not ignored.
        match client.call(&Request::Cancel { id: 424_242 }) {
            Ok(Response::CancelResult { known, .. }) => ok &= !known,
            _ => ok = false,
        }
        // Cancel a live submission: whatever wins the race, the report
        // must settle as either a result or a typed cancellation.
        let id = match client.call(&Request::Submit(submit(&graph, 1, false))) {
            Ok(Response::Accepted { id }) => id,
            _ => {
                ok = false;
                u64::MAX
            }
        };
        ok &= matches!(
            client.call(&Request::Cancel { id }),
            Ok(Response::CancelResult { .. })
        );
        match client.call(&Request::Result { id }) {
            Ok(Response::Report { .. }) => {}
            Ok(Response::Error(f)) => {
                typed += 1;
                ok &= f.kind == "cancelled";
            }
            _ => ok = false,
        }
        drop(client);
        server.shutdown();
        drain_service(svc);
        push_cell("deadline + cancel", ops, start.elapsed());
        t.row(vec![
            "deadline + cancel".into(),
            ops.to_string(),
            "3".into(),
            "0".into(),
            typed.to_string(),
            "-".into(),
            "0".into(),
            if ok { "yes".into() } else { "NO".into() },
        ]);
    }

    // --- resumable campaigns over the network ------------------------
    {
        let start = Instant::now();
        let w = gen::random_connected(9, 0.4, 9, seed ^ 5);
        let n = w.n();
        // Host-side reference: the same campaign in one process.
        let svc0 = SolveService::start(ServeConfig {
            seed,
            ..ServeConfig::default()
        });
        let reference = match svc0
            .submit(JobSpec::new(
                w.clone(),
                JobKind::Apsp {
                    resume_from: None,
                    checkpoint_every: 1,
                },
            ))
            .expect("reference campaign accepted")
            .wait()
            .outcome
        {
            Ok(JobOutcome::Apsp(doc)) => doc.to_string_compact(),
            other => panic!("reference campaign must complete, got {other:?}"),
        };
        svc0.shutdown();
        // A half-done checkpoint built host-side from verified solves.
        let mut partial = ApspCheckpoint::new(n);
        for d in 0..n / 2 {
            let out = ppa_mcp::McpSession::new(&w)
                .expect("session builds")
                .solve(d)
                .expect("prefix dest solves");
            partial.record(&out);
        }
        let resumed_prefix = partial.next_dest();
        let svc = Arc::new(SolveService::start(ServeConfig {
            seed,
            ..ServeConfig::default()
        }));
        let server = NetServer::start(Arc::clone(&svc), NetConfig::default())
            .expect("campaign server binds");
        let addr = server.local_addr();
        let mut client = NetClient::connect(addr).expect("campaign connect");
        let campaign = |resume_from: Option<Json>| CampaignRequest {
            graph: ppa_graph::io::to_edge_list(&w),
            checkpoint_every: 1,
            deadline_ms: None,
            step_budget: None,
            resume_from,
        };
        let mut resumed_progress = 0u64;
        let resumed = client.campaign(campaign(Some(partial.to_json())), |_, _| {
            resumed_progress += 1;
        });
        let resumed_identical = matches!(&resumed, Ok(doc) if doc.to_string_compact() == reference);
        let mut full_progress = 0u64;
        let full = client.campaign(campaign(None), |_, _| full_progress += 1);
        let full_identical = matches!(&full, Ok(doc) if doc.to_string_compact() == reference);
        if resumed.is_ok() && !resumed_identical {
            silent_wrong += 1;
        }
        if full.is_ok() && !full_identical {
            silent_wrong += 1;
        }
        drop(client);
        server.shutdown();
        drain_service(svc);
        let ops = (n + (n - resumed_prefix)) as u64;
        let reconciled = resumed_identical
            && full_identical
            && resumed_progress == (n - resumed_prefix) as u64
            && full_progress == n as u64;
        push_cell("resumable campaign", ops, start.elapsed());
        t.row(vec![
            "resumable campaign".into(),
            ops.to_string(),
            "2".into(),
            "0".into(),
            "0".into(),
            (2 * n).to_string(),
            "0".into(),
            if reconciled {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }

    // --- shard kill -9 drill (real worker processes) -----------------
    let mut sharded_byte_identical = false;
    let mut drill_note = String::new();
    if with_shard_drill {
        match shard_drill(seed) {
            Ok(d) => {
                sharded_byte_identical = d.byte_identical;
                drill_note = format!(
                    "3 worker processes over {} destinations; victim {} with {} destination(s) \
                     persisted, restarted, merged",
                    d.n,
                    if d.victim_killed {
                        "killed -9 mid-campaign"
                    } else {
                        "finished before the kill landed"
                    },
                    d.resumed_prefix,
                );
                t.row(vec![
                    "shard kill -9 drill".into(),
                    "4".into(),
                    "3".into(),
                    "0".into(),
                    "0".into(),
                    d.n.to_string(),
                    "0".into(),
                    if d.byte_identical {
                        "yes".into()
                    } else {
                        "NO".into()
                    },
                ]);
            }
            Err(e) => {
                drill_note = format!("drill failed: {e}");
                t.row(vec![
                    "shard kill -9 drill".into(),
                    "4".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "NO".into(),
                ]);
            }
        }
    }

    t.note(format!(
        "lost_jobs: {lost_jobs} (accepted submissions whose report could not be fetched back)"
    ));
    t.note(format!(
        "silent_wrong: {silent_wrong} (completed network answers refuted by the host-side \
         reference)"
    ));
    if with_shard_drill {
        t.note(format!(
            "sharded_byte_identical: {sharded_byte_identical} ({drill_note})"
        ));
    } else {
        t.note(
            "shard drill skipped (bench mode runs no subprocesses); run `report net` for the \
             kill -9 drill",
        );
    }
    t.note("`reconciled` = client-side tallies equal the server's counters exactly and every");
    t.note("protocol violation drew a typed error frame (never a hang or a dropped job).");
    NetRun {
        table: t,
        baseline: Baseline::new("net", entries),
    }
}

/// What the kill -9 shard drill observed.
struct ShardDrillOutcome {
    byte_identical: bool,
    victim_killed: bool,
    resumed_prefix: usize,
    n: usize,
}

/// Runs the crash drill: three `solve shard-worker` processes split an
/// all-pairs campaign by destination range, shard 1 is killed with
/// SIGKILL mid-run (its `--stall-ms` widens the window), restarted, and
/// the merged checkpoints are compared byte-for-byte against a
/// single-process campaign. Also exercises the `solve shard-merge` CLI
/// on the same files.
fn shard_drill(seed: u64) -> Result<ShardDrillOutcome, String> {
    use ppa_serve::{merge_shard_files, JobKind, JobOutcome, JobSpec, ServeConfig, SolveService};
    use std::process::{Command, Stdio};
    use std::time::Duration;

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("current_exe has no parent")?;
    let name = format!("solve{}", std::env::consts::EXE_SUFFIX);
    // Sibling of the report binary; one level up when running from a
    // test harness in target/<profile>/deps/.
    let solve = [dir.join(&name), dir.join("..").join(&name)]
        .into_iter()
        .find(|p| p.exists())
        .ok_or("solve binary not found next to this binary (build -p ppa-bench first)")?;

    let tmp = std::env::temp_dir().join(format!("ppa-net-drill-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let graph_path = tmp.join("graph.txt");
    let w = gen::random_connected(12, 0.3, 9, seed ^ 6);
    let n = w.n();
    std::fs::write(&graph_path, ppa_graph::io::to_edge_list(&w))
        .map_err(|e| format!("write graph: {e}"))?;

    // Single-process reference document.
    let svc = SolveService::start(ServeConfig::default());
    let reference = match svc
        .submit(JobSpec::new(
            w,
            JobKind::Apsp {
                resume_from: None,
                checkpoint_every: 1,
            },
        ))
        .map_err(|e| format!("reference submit: {e}"))?
        .wait()
        .outcome
    {
        Ok(JobOutcome::Apsp(doc)) => doc.to_string_compact(),
        other => return Err(format!("reference campaign did not complete: {other:?}")),
    };
    svc.shutdown();

    let spawn = |shard: usize, stall_ms: Option<u64>| {
        let mut cmd = Command::new(&solve);
        cmd.arg("shard-worker")
            .arg(&graph_path)
            .arg("--shard")
            .arg(shard.to_string())
            .arg("--of")
            .arg("3")
            .arg("--checkpoint")
            .arg(tmp.join(format!("shard{shard}.json")))
            .arg("--every")
            .arg("1")
            .arg("--workers")
            .arg("2")
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(ms) = stall_ms {
            cmd.arg("--stall-ms").arg(ms.to_string());
        }
        cmd.spawn().map_err(|e| format!("spawn shard {shard}: {e}"))
    };
    let mut survivor0 = spawn(0, None)?;
    let mut survivor2 = spawn(2, None)?;
    // The victim stalls after every checkpoint flush, so the kill lands
    // mid-campaign with a persisted prefix on disk.
    let mut victim = spawn(1, Some(40))?;
    let victim_path = tmp.join("shard1.json");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !victim_path.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    if !victim_path.exists() {
        let _ = victim.kill();
        return Err("victim shard never persisted a checkpoint".into());
    }
    let _ = victim.kill(); // SIGKILL: no destructors, no atexit flushes
    let status = victim.wait().map_err(|e| format!("reap victim: {e}"))?;
    let victim_killed = !status.success();
    // The surviving file must already be a loadable prefix — the atomic
    // write discipline means a torn document is impossible.
    let prefix = ppa_serve::ShardCheckpoint::load(&victim_path)
        .map_err(|e| format!("killed worker left an unreadable checkpoint: {e}"))?;
    let resumed_prefix = prefix.completed().len();
    // Restart the victim without the stall: it must resume the prefix.
    let status = spawn(1, None)?
        .wait()
        .map_err(|e| format!("wait restarted victim: {e}"))?;
    if !status.success() {
        return Err(format!("restarted shard worker failed: {status}"));
    }
    for (shard, child) in [(0usize, &mut survivor0), (2, &mut survivor2)] {
        let status = child
            .wait()
            .map_err(|e| format!("wait shard {shard}: {e}"))?;
        if !status.success() {
            return Err(format!("shard worker {shard} failed: {status}"));
        }
    }

    let shard_paths: Vec<std::path::PathBuf> =
        (0..3).map(|s| tmp.join(format!("shard{s}.json"))).collect();
    let merged = merge_shard_files(&shard_paths).map_err(|e| format!("merge: {e}"))?;
    let in_process_identical = merged.to_json().to_string_compact() == reference;
    // The CLI merge must agree with the library merge.
    let merged_path = tmp.join("merged.json");
    let mut cmd = Command::new(&solve);
    cmd.arg("shard-merge").arg("--out").arg(&merged_path);
    for p in &shard_paths {
        cmd.arg(p);
    }
    let status = cmd
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run shard-merge: {e}"))?;
    if !status.success() {
        return Err(format!("shard-merge CLI failed: {status}"));
    }
    let cli_identical = std::fs::read_to_string(&merged_path)
        .ok()
        .and_then(|text| ppa_obs::Json::parse(&text).ok())
        .and_then(|doc| ppa_serve::ApspCheckpoint::from_json(&doc).ok())
        .is_some_and(|cp| cp.to_json().to_string_compact() == reference);
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(ShardDrillOutcome {
        byte_identical: in_process_identical && cli_identical,
        victim_killed,
        resumed_prefix,
        n,
    })
}

/// Host-side check that a degraded result is exact for the induced
/// healthy subgraph (excluded vertices report [`INF`]).
fn degraded_matches_reference(w: &WeightMatrix, d: usize, r: &ppa_mcp::RecoveredMcp) -> bool {
    let n = w.n();
    let excluded = &r.recovery.excluded;
    let mut pruned = w.clone();
    for &v in excluded {
        for u in 0..n {
            if u != v {
                pruned.remove(v, u);
                pruned.remove(u, v);
            }
        }
    }
    let oracle = reference::bellman_ford_to_dest(&pruned, d);
    (0..n).all(|v| {
        if excluded.contains(&v) {
            r.output.sow[v] == INF && r.output.ptn[v] == v
        } else {
            r.output.sow[v] == oracle.dist[v]
        }
    })
}

/// CH — the full-stack chaos drill: lane-replicated redundant execution
/// under seeded stuck-at and transient faults, the serve-layer
/// quarantine/readmission drill, and a redundant network-edge flood.
///
/// Four stages, all seeded:
///
/// 1. **dmr stuck-at** — a single stuck-at fault planted inside one
///    replica's column band of a DMR wave, over an n × flavor × lane
///    grid. Every effective corruption must be caught by the vote alone;
///    the sequential reference is a *post-hoc audit* that classifies
///    accepted results, never a runtime check.
/// 2. **dmr transient** — seeded transient glitch processes over the
///    whole replicated array, same acceptance rule.
/// 3. **tmr correct** — the stuck-at grid again under correcting TMR:
///    every accepted output must be bit-identical to the fault-free
///    solo solve (sow, ptn, iterations, and the step ledger).
/// 4. **quarantine drill** + **net flood** — a live
///    [`SolveService`](ppa_serve::SolveService)
///    with a planted per-machine fault plan (one machine heals, one is
///    faulty forever), background scrubbing, and DMR redundancy: the
///    faulty machines must be quarantined and replaced, the healed one
///    readmitted, while jobs (chaos panics included) and a concurrent
///    network-edge flood keep being served with zero quarantine leaks —
///    then the flood's accepted jobs are all fetched and re-verified.
///
/// The summary notes carry the invariants CI greps for:
/// `silent_wrong: 0`, `vote_detection: 1.0`,
/// `tmr_corrected_bit_identical: true`, `quarantine_leaks: 0`.
pub fn chaos_campaign(seed: u64) -> Table {
    chaos_run(seed).table
}

/// Everything the `chaos` experiment produces: the campaign [`Table`]
/// and the measured per-stage wall-clock [`Baseline`]
/// (`BENCH_chaos.json`).
pub struct ChaosRun {
    /// Campaign summary table.
    pub table: Table,
    /// Per-stage wall-clock baseline.
    pub baseline: Baseline,
}

/// Per-stage tally of redundant-wave verdicts against the post-hoc
/// sequential audit.
#[derive(Default)]
struct VoteTally {
    trials: u64,
    /// Unanimous accept, bit-identical to the healthy solo (the fault
    /// never disturbed the wave, or TMR out-voted it).
    masked: u64,
    /// Vote-corrected accept (TMR only), bit-identical to the healthy solo.
    corrected: u64,
    /// The vote indicted a minority (or found no majority) and refused.
    vote: u64,
    /// A corruption-class machine abort (`FaultyArray`, corrupt bus, ...).
    typed: u64,
    /// Accepted result refuted by the post-hoc reference. Must stay 0.
    silent: u64,
    /// An error outside the corruption taxonomy. Must stay 0.
    untyped: u64,
}

impl VoteTally {
    fn observe(
        &mut self,
        result: Result<ppa_mcp::RedundantWave, ppa_mcp::McpError>,
        healthy: &ppa_mcp::McpOutput,
    ) {
        use ppa_mcp::McpError;
        self.trials += 1;
        match result {
            Err(e) if e.indicates_corruption() => self.typed += 1,
            Err(_) => self.untyped += 1,
            Ok(wave) => match &wave.lanes[0].outcome {
                Ok(out) if out == healthy => {
                    if wave.lanes[0].vote.corrected {
                        self.corrected += 1;
                    } else {
                        self.masked += 1;
                    }
                }
                Ok(_) => self.silent += 1,
                Err(McpError::VoteDisagreement { .. }) => self.vote += 1,
                Err(e) if e.indicates_corruption() => self.typed += 1,
                Err(_) => self.untyped += 1,
            },
        }
    }

    fn ok(&self) -> bool {
        self.silent == 0 && self.untyped == 0
    }
}

/// The chaos drill with its measured baseline (see [`chaos_campaign`]
/// for the campaign semantics).
pub fn chaos_run(seed: u64) -> ChaosRun {
    use ppa_machine::{Coord, SwitchFault, TransientFaults};
    use ppa_mcp::batch::replicate;
    use ppa_mcp::{BatchSession, McpOutput, McpSession, Redundancy};
    use ppa_serve::{
        FaultSpec, JobKind, JobOutcome, JobSpec, MachineFaultPlan, NetClient, NetConfig, NetServer,
        Request, Response, RetryPolicy, ScrubConfig, ServeConfig, ServeError, SolveService,
        SubmitRequest,
    };
    use std::sync::Arc;
    use std::time::Duration;

    let mut t = Table::new(
        "chaos",
        format!(
            "full-stack chaos drill (seed {seed}): stuck-at + transient faults under DMR/TMR \
             voting, scrub-driven quarantine/readmission on a live pool, and a redundant \
             network-edge flood; accepted results audited post-hoc against the sequential \
             reference"
        ),
        vec![
            "stage".into(),
            "trials".into(),
            "masked".into(),
            "corrected".into(),
            "vote detected".into(),
            "typed errors".into(),
            "silent wrong".into(),
            "leaks".into(),
            "verdict".into(),
        ],
    );
    let mut entries: Vec<BaselineEntry> = Vec::new();
    let mut push_cell = |name: &str, steps: u64, wall: std::time::Duration| {
        entries.push(BaselineEntry {
            cell: name.to_owned(),
            steps,
            wall: WallStats::from_samples(&[wall.as_nanos() as u64]),
            counters: std::collections::BTreeMap::new(),
        });
    };
    let verdict_row =
        |t: &mut Table, stage: &str, tally: &VoteTally, extra_ok: bool, leaks: &str| {
            t.row(vec![
                stage.into(),
                tally.trials.to_string(),
                tally.masked.to_string(),
                tally.corrected.to_string(),
                tally.vote.to_string(),
                tally.typed.to_string(),
                tally.silent.to_string(),
                leaks.into(),
                if tally.ok() && extra_ok {
                    "ok".into()
                } else {
                    "NO".into()
                },
            ]);
        };

    // The fault-free solo solve at the wave's word width: the post-hoc
    // audit every accepted redundant result is compared against.
    let healthy_solo = |w: &WeightMatrix, d: usize, word_bits: u32| -> McpOutput {
        let ppa = Ppa::square(w.n()).with_word_bits(word_bits);
        McpSession::from_ppa(ppa, w)
            .expect("healthy session builds")
            .solve(d)
            .expect("healthy solo solves")
    };
    let trial_graph = |n: usize, salt: u64| -> WeightMatrix {
        gen::random_connected(n, 0.5, 9, seed.wrapping_mul(1_000_003).wrapping_add(salt))
    };

    // --- stage 1: DMR vote integrity under planted stuck-at faults ----
    let mut dmr = VoteTally::default();
    let dmr_start = Instant::now();
    for &n in &[4usize, 5, 6] {
        for fault in [SwitchFault::StuckOpen, SwitchFault::StuckShort] {
            for lane in 0..2usize {
                for trial in 0..2u64 {
                    let salt = (n * 1000 + lane * 100) as u64
                        + trial * 10
                        + u64::from(matches!(fault, SwitchFault::StuckShort));
                    let w = trial_graph(n, salt);
                    let d = trial as usize % n;
                    let mut sess =
                        BatchSession::new(&replicate(&w, 2)).expect("replicated session builds");
                    let mut fm = FaultMap::new();
                    let row = (salt.wrapping_mul(0x9e37_79b9) >> 8) as usize % n;
                    let col = (salt.wrapping_mul(0x9e37_79b9) >> 24) as usize % n;
                    fm.inject(Coord::new(row, lane * n + col), fault);
                    sess.ppa_mut().machine_mut().attach_faults(fm);
                    let healthy = healthy_solo(&w, d, sess.word_bits());
                    dmr.observe(sess.solve_redundant(&[d], Redundancy::Dmr), &healthy);
                }
            }
        }
    }
    push_cell("dmr stuck-at", dmr.trials, dmr_start.elapsed());
    verdict_row(&mut t, "dmr stuck-at", &dmr, true, "-");

    // --- stage 2: DMR under seeded transient glitch processes ---------
    let mut transient = VoteTally::default();
    let transient_start = Instant::now();
    for trial in 0..8u64 {
        let w = trial_graph(5, 0xBEA7 + trial);
        let d = trial as usize % w.n();
        let mut sess = BatchSession::new(&replicate(&w, 2)).expect("replicated session builds");
        sess.ppa_mut()
            .machine_mut()
            .attach_transient_faults(TransientFaults::new(0.08, seed ^ (0x7AA0 + trial)));
        let healthy = healthy_solo(&w, d, sess.word_bits());
        transient.observe(sess.solve_redundant(&[d], Redundancy::Dmr), &healthy);
    }
    push_cell("dmr transient", transient.trials, transient_start.elapsed());
    verdict_row(&mut t, "dmr transient", &transient, true, "-");

    // --- stage 3: correcting TMR is bit-identical -------------------
    let mut tmr = VoteTally::default();
    let tmr_start = Instant::now();
    for &n in &[4usize, 5, 6] {
        for fault in [SwitchFault::StuckOpen, SwitchFault::StuckShort] {
            for lane in 0..3usize {
                let salt = (n * 1000 + lane * 100) as u64
                    + 7
                    + u64::from(matches!(fault, SwitchFault::StuckShort));
                let w = trial_graph(n, salt);
                let d = lane % n;
                let mut sess =
                    BatchSession::new(&replicate(&w, 3)).expect("replicated session builds");
                let mut fm = FaultMap::new();
                let row = (salt.wrapping_mul(0x9e37_79b9) >> 8) as usize % n;
                let col = (salt.wrapping_mul(0x9e37_79b9) >> 24) as usize % n;
                fm.inject(Coord::new(row, lane * n + col), fault);
                sess.ppa_mut().machine_mut().attach_faults(fm);
                let healthy = healthy_solo(&w, d, sess.word_bits());
                tmr.observe(
                    sess.solve_redundant(&[d], Redundancy::Tmr { correct: true }),
                    &healthy,
                );
            }
        }
    }
    // Correcting TMR never refuses on a single in-band fault: a trial
    // either masks, corrects, or aborts with a typed machine error.
    let tmr_identical = tmr.ok() && tmr.vote == 0 && tmr.corrected >= 1;
    push_cell("tmr correct", tmr.trials, tmr_start.elapsed());
    verdict_row(&mut t, "tmr correct", &tmr, tmr_identical, "-");

    // --- stage 4: quarantine drill on a live redundant pool ----------
    let drill_start = Instant::now();
    let drill_jobs = 16usize;
    let (drill_tally, drill_leaks, drill_ok) = {
        let mut tally = VoteTally::default();
        let svc = SolveService::start(ServeConfig {
            workers: 2,
            queue_capacity: drill_jobs,
            redundancy: Redundancy::Dmr,
            scrubbing: ScrubConfig {
                enabled: true,
                idle_after: Duration::from_micros(500),
                min_interval: Duration::from_micros(200),
                duty_cycle: 1.0,
                probe_n: 5,
                benched_pause: Duration::from_micros(300),
            },
            // Machine 0 heals after a few rebuilds (quarantine ->
            // probation -> readmitted); machine 1 is faulty forever and
            // must stay benched until shutdown.
            fault_plan: MachineFaultPlan::default()
                .with(
                    0,
                    FaultSpec {
                        count: 3,
                        seed: seed ^ 0xFA01,
                        heal_after_builds: Some(6),
                    },
                )
                .with(
                    1,
                    FaultSpec {
                        count: 2,
                        seed: seed ^ 0xFA02,
                        heal_after_builds: None,
                    },
                ),
            retry: RetryPolicy {
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_micros(400),
                ..RetryPolicy::default()
            },
            seed,
            ..ServeConfig::default()
        });
        // Let the scrubber find both planted faults and walk machine 0
        // all the way back to the pool before any traffic arrives.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let m = svc.metrics();
            if (m.counter("serve.health.quarantined") >= 2
                && m.counter("serve.health.readmitted") >= 1)
                || Instant::now() > deadline
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut pending = Vec::new();
        for j in 0..drill_jobs {
            let w = trial_graph(5 + j % 3, 0xD211 + j as u64);
            let kind = if j % 8 == 7 {
                JobKind::Chaos
            } else {
                JobKind::Shortest { dest: j % w.n() }
            };
            let spec = JobSpec::new(w, kind);
            let ticket = svc.submit(spec.clone()).expect("drill job accepted");
            pending.push((spec, ticket));
        }
        for (spec, ticket) in pending {
            let report = ticket.wait();
            tally.trials += 1;
            match &report.outcome {
                Ok(out) => {
                    if serve_outcome_is_correct(&spec, out) {
                        tally.masked += 1;
                    } else {
                        tally.silent += 1;
                    }
                }
                // The planted panic is the expected, typed outcome.
                Err(_) if matches!(spec.kind, JobKind::Chaos) => tally.typed += 1,
                Err(e) => match e {
                    ServeError::Solver(cause) if cause.indicates_corruption() => tally.typed += 1,
                    ServeError::WorkerPanicked { .. } => tally.typed += 1,
                    _ => tally.untyped += 1,
                },
            }
        }
        let snap = svc.introspect();
        let benched_visible = snap.health.iter().any(|h| h.state == "quarantined");
        let metrics = svc.shutdown();
        let leaks = metrics.counter("serve.health.quarantine_leaks");
        let drill_ok = leaks == 0
            && benched_visible
            && metrics.counter("serve.health.quarantined") >= 2
            && metrics.counter("serve.health.readmitted") >= 1
            && metrics.counter("serve.health.replacements") >= 2
            && metrics.counter("serve.scrub.sweeps") >= 4;
        (tally, leaks, drill_ok)
    };
    push_cell("quarantine drill", drill_jobs as u64, drill_start.elapsed());
    verdict_row(
        &mut t,
        "quarantine drill",
        &drill_tally,
        drill_ok,
        &drill_leaks.to_string(),
    );

    // --- stage 5: network-edge flood with redundancy on --------------
    let flood_start = Instant::now();
    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 12;
    let flood_ops = (CLIENTS * PER_CLIENT) as u64;
    let (flood_tally, flood_leaks, flood_ok) = {
        let mut tally = VoteTally::default();
        let graph = gen::random_connected(10, 0.35, 9, seed ^ 0xF10D);
        let svc = Arc::new(SolveService::start(ServeConfig {
            workers: 2,
            queue_capacity: 6,
            redundancy: Redundancy::Tmr { correct: true },
            seed,
            ..ServeConfig::default()
        }));
        let server =
            NetServer::start(Arc::clone(&svc), NetConfig::default()).expect("flood server binds");
        let addr = server.local_addr();
        let submit = |dest: usize| SubmitRequest {
            graph: ppa_graph::io::to_edge_list(&graph),
            kind: "shortest".into(),
            dest,
            checkpoint_every: 1,
            resume_from: None,
            deadline_ms: None,
            step_budget: None,
            transient_faults: None,
            wait: false,
        };
        type ClientTally = (Vec<(u64, usize)>, u64, bool);
        let per_client: Vec<ClientTally> = std::thread::scope(|scope| {
            let submit = &submit;
            let graph = &graph;
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut client = NetClient::connect(addr).expect("flood connect");
                        let mut accepted = Vec::new();
                        let mut rejected = 0u64;
                        let mut typed = true;
                        for j in 0..PER_CLIENT {
                            let dest = (c * PER_CLIENT + j) % graph.n();
                            match client.call(&Request::Submit(submit(dest))) {
                                Ok(Response::Accepted { id }) => accepted.push((id, dest)),
                                Ok(Response::Error(f)) => {
                                    rejected += 1;
                                    typed &= f.kind == "rejected";
                                }
                                other => panic!("unexpected flood response: {other:?}"),
                            }
                        }
                        (accepted, rejected, typed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("flood client"))
                .collect()
        });
        let mut ids: Vec<(u64, usize)> = Vec::new();
        let mut typed_rejections = true;
        let mut rejected = 0u64;
        for (a, r, ok) in per_client {
            ids.extend(a);
            rejected += r;
            typed_rejections &= ok;
        }
        let accepted = ids.len() as u64;
        let mut client = NetClient::connect(addr).expect("fetch connect");
        let mut fetched = 0u64;
        for &(id, dest) in &ids {
            tally.trials += 1;
            match client.call(&Request::Result { id }) {
                Ok(Response::Report { outcome, .. }) => {
                    fetched += 1;
                    match ppa_serve::wire::outcome_from_json(&outcome) {
                        Ok(JobOutcome::Shortest(out)) => {
                            if validate::is_valid_solution(&graph, dest, &out.sow, &out.ptn) {
                                tally.masked += 1;
                            } else {
                                tally.silent += 1;
                            }
                        }
                        _ => tally.typed += 1,
                    }
                }
                Ok(Response::Error(_)) => {
                    fetched += 1;
                    tally.typed += 1;
                }
                other => panic!("unexpected fetch response: {other:?}"),
            }
        }
        drop(client);
        // Every flood job has been fetched, so the counters are final.
        let metrics = svc.metrics();
        server.shutdown();
        if let Ok(s) = Arc::try_unwrap(svc) {
            s.shutdown();
        }
        let leaks = metrics.counter("serve.health.quarantine_leaks");
        let flood_ok = typed_rejections
            && fetched == accepted
            && leaks == 0
            && metrics.counter("serve.accepted") == accepted
            && metrics.counter("serve.rejected_queue_full") == rejected
            && metrics.counter("serve.health.vote_disagreements") == 0;
        (tally, leaks, flood_ok)
    };
    push_cell("net flood", flood_ops, flood_start.elapsed());
    verdict_row(
        &mut t,
        "net flood",
        &flood_tally,
        flood_ok,
        &flood_leaks.to_string(),
    );

    // --- summary notes (CI greps these exact keys) -------------------
    let silent_wrong =
        dmr.silent + transient.silent + tmr.silent + drill_tally.silent + flood_tally.silent;
    let vote_caught = dmr.vote + transient.vote;
    let vote_effective = vote_caught + dmr.silent + transient.silent;
    let vote_detection = if vote_effective == 0 {
        1.0
    } else {
        vote_caught as f64 / vote_effective as f64
    };
    t.note(format!(
        "silent_wrong: {silent_wrong} (accepted results refuted by the post-hoc sequential audit, \
         across every stage)"
    ));
    t.note(format!(
        "vote_detection: {vote_detection:.1} ({vote_caught} result-affecting corruptions under \
         DMR, every one refused by the vote alone; the sequential reference is a post-hoc audit, \
         not a runtime check)"
    ));
    t.note(format!(
        "tmr_corrected_bit_identical: {tmr_identical} ({} corrected waves, each bit-identical to \
         the fault-free solo solve; {} typed aborts)",
        tmr.corrected, tmr.typed
    ));
    t.note(format!(
        "quarantine_leaks: {} (jobs that reached a benched machine, drill + flood; the scrubber \
         quarantined {} machines, readmitted the healed one, and the pool kept serving)",
        drill_leaks + flood_leaks,
        2
    ));
    t.note("masked = the fault never disturbed the accepted wave; vote detected = the DMR vote");
    t.note("refused a divergent wave; typed errors = corruption-class machine aborts (and the");
    t.note("drill's planted chaos panics), all reported, never silent.");
    ChaosRun {
        table: t,
        baseline: Baseline::new("chaos", entries),
    }
}

/// A named experiment runner.
pub type Experiment = (&'static str, fn() -> Table);

/// Every experiment, in report order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("fig1", fig1 as fn() -> Table),
        ("t1", t1_min_cost),
        ("t2", t2_steps_vs_p),
        ("t3", t3_steps_vs_h),
        ("t4", t4_architectures),
        ("t5", t5_validation),
        ("t6", t6_engine),
        ("t7", t7_family),
        ("t8", t8_faults),
        ("t9", t9_phase_profile),
        ("a1", a1_bus_ablation),
        ("a2", a2_min_ablation),
        ("backend", backend_table),
        ("batch", batch_table),
        // The report binary intercepts this entry to also write the trace
        // and metrics artifacts from the same run (see `profile_run`).
        ("profile", || profile_run().table),
        // The report binary intercepts this entry to honour `--seed`
        // (see `faults_campaign`); 7 is the documented default.
        ("faults", || faults_campaign(7)),
        // Likewise intercepted for `--seed` (see `serve_campaign`).
        ("serve", || serve_campaign(7)),
        // Likewise intercepted for `--seed` (see `net_campaign`).
        ("net", || net_campaign(7)),
        // Likewise intercepted for `--seed` (see `chaos_campaign`).
        ("chaos", || chaos_campaign(7)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_reports_exact_linear_cost() {
        let t = t1_min_cost();
        // Every row: min steps == 4h + 4.
        for row in &t.rows {
            let h: u64 = row[1].parse().unwrap();
            let steps: u64 = row[2].parse().unwrap();
            assert_eq!(steps, 4 * h + 4, "{row:?}");
        }
    }

    #[test]
    fn t2_iterations_equal_p() {
        let t = t2_steps_vs_p();
        for row in &t.rows {
            assert_eq!(row[1], row[2], "{row:?}");
        }
    }

    #[test]
    fn t5_has_zero_mismatches() {
        let t = t5_validation();
        for row in &t.rows {
            assert_eq!(row[3], "0", "{row:?}");
        }
    }

    #[test]
    fn a1_overhead_is_positive() {
        let t = a1_bus_ablation();
        for row in &t.rows {
            assert!(row[3].starts_with('+'), "{row:?}");
        }
    }

    #[test]
    fn t9_bit_serial_scans_dominate() {
        let t = t9_phase_profile();
        let steps_of = |needle: &str| -> u64 {
            t.rows
                .iter()
                .find(|r| r[0].contains(needle))
                .map(|r| r[1].parse().unwrap())
                .unwrap_or(0)
        };
        let total: u64 = t.rows.iter().map(|r| r[1].parse::<u64>().unwrap()).sum();
        let scans = steps_of("stmt 11") + steps_of("stmt 12");
        assert!(
            scans as f64 / total as f64 > 0.8,
            "scans {scans} of {total}"
        );
    }

    #[test]
    fn t8_bist_coverage_is_total_and_nothing_is_silent() {
        let t = t8_faults();
        for row in &t.rows {
            assert_eq!(row[4], "0", "silent fault in {row:?}");
            assert_eq!(row[5], "0", "BIST miss in {row:?}");
            // distorting = wrong + undriven.
            let d: u32 = row[1].parse().unwrap();
            let w: u32 = row[2].parse().unwrap();
            let u: u32 = row[3].parse().unwrap();
            assert_eq!(d, w + u, "{row:?}");
        }
    }

    #[test]
    fn backend_rows_agree_and_cache_is_warm() {
        let t = backend_table();
        // Two rows per n: scalar, then packed.
        assert_eq!(t.rows.len(), 6);
        for pair in t.rows.chunks(2) {
            assert_eq!(pair[0][1], "scalar", "{pair:?}");
            assert_eq!(pair[1][1], "packed", "{pair:?}");
            // Same n, same step count on both backend rows.
            assert_eq!(pair[1][0], pair[0][0]);
            assert_eq!(pair[1][2], pair[0][2], "{pair:?}");
        }
        // The n = 64 packed row keeps the bus-plan cache hot.
        let row = &t.rows[t.rows.len() - 1];
        let rate: f64 = row[5].trim_end_matches('%').parse().unwrap();
        assert!(rate > 90.0, "plan hit rate {rate}% on {row:?}");
    }

    #[test]
    fn all_experiments_render() {
        // fig1 and the cheap tables render without panicking (t4/t6 are
        // exercised by the report binary; they take seconds, not minutes).
        let _ = fig1().render();
        let _ = t1_min_cost().render();
        let _ = t3_steps_vs_h().render();
        let _ = a2_min_ablation().render();
    }
}
