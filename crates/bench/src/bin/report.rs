//! The experiment report binary.
//!
//! Usage:
//! ```text
//! cargo run -p ppa-bench --bin report --release -- all
//! cargo run -p ppa-bench --bin report --release -- t4 a2
//! cargo run -p ppa-bench --bin report --release -- profile --trace-out target/experiments
//! cargo run -p ppa-bench --bin report --release -- faults --seed 7
//! cargo run -p ppa-bench --bin report --release -- serve --seed 7
//! cargo run -p ppa-bench --bin report --release -- bench
//! cargo run -p ppa-bench --bin report --release -- bench --check
//! cargo run -p ppa-bench --bin report --release -- --list
//! ```
//!
//! Renders the requested experiment tables to stdout and writes
//! `.txt`/`.csv`/`.json` artifacts under `target/experiments/`. Every
//! table JSON artifact is stamped with a `provenance` object (host
//! fingerprint + `git describe`) so a downloaded CI artifact identifies
//! the build that produced it.
//!
//! The `profile` experiment additionally writes `profile.trace.json`
//! (Chrome `trace_event`, Perfetto-loadable), `profile.json` (metrics
//! snapshot), and `profile.folded.txt` (inferno-compatible folded-stack
//! micro-op time attribution) to the `--trace-out` directory (default:
//! the artifact dir). The `faults` and `serve` experiments honour
//! `--seed N` (default 7); `serve` also writes `serve.introspect.json`,
//! the live introspection snapshots taken at the end of each scenario.
//!
//! The `backend`, `batch`, `serve`, `net`, and `chaos`
//! experiments each write a `BENCH_<name>.json` measured baseline next
//! to their table artifacts.
//! The `bench` pseudo-experiment runs them all plus `profile`, writes
//! the candidate baselines, and with `--check` gates them against the
//! committed `BENCH_*.json` files in `--baseline-dir` (default: the
//! repository root, `.`): step-count or counter drift exits nonzero
//! always; wall-clock regressions beyond the MAD-scaled tolerance exit
//! nonzero only when the host fingerprint matches the committed one.
//!
//! Experiment names are validated *before* anything runs: a typo exits
//! with status 2 immediately instead of after minutes of computation.

use ppa_bench::baseline::{bench_file_name, compare, git_describe};
use ppa_bench::{
    all_experiments, backend_run, batch_run, chaos_run, faults_campaign, net_run, profile_run,
    serve_run, Baseline, HostFingerprint, Table,
};
use ppa_obs::Json;
use std::fs;
use std::path::{Path, PathBuf};

/// `{fingerprint, git_describe}` stamp appended to every table JSON
/// artifact, so an artifact pulled off CI identifies its build.
fn provenance() -> Json {
    Json::obj(vec![
        ("fingerprint", HostFingerprint::detect().to_json()),
        ("git_describe", Json::Str(git_describe())),
    ])
}

fn write_table(dir: &Path, name: &str, table: &Table, provenance: &Json) -> String {
    let rendered = table.render();
    fs::write(dir.join(format!("{name}.txt")), &rendered).expect("write txt");
    fs::write(dir.join(format!("{name}.csv")), table.to_csv()).expect("write csv");
    // `profile.json` is reserved for the metrics snapshot; the table JSON
    // of the profile experiment goes to `profile.table.json`.
    let json_name = if name == "profile" {
        "profile.table.json".to_owned()
    } else {
        format!("{name}.json")
    };
    let mut doc = table.to_json_value();
    if let Json::Object(pairs) = &mut doc {
        pairs.push(("provenance".to_owned(), provenance.clone()));
    }
    fs::write(dir.join(json_name), doc.to_string_pretty()).expect("write json");
    rendered
}

/// Writes a measured baseline as `BENCH_<name>.json` in `dir`.
fn write_baseline(dir: &Path, baseline: &Baseline) -> PathBuf {
    let path = dir.join(bench_file_name(&baseline.name));
    fs::write(&path, baseline.to_json().to_string_pretty()).expect("write baseline");
    path
}

/// Writes the profile run's extra artifacts (trace, metrics snapshot,
/// folded stacks) to `trace_dir`.
fn write_profile_artifacts(trace_dir: &Path, run: &ppa_bench::ProfileRun) {
    fs::write(
        trace_dir.join("profile.trace.json"),
        run.chrome_trace.to_string_pretty(),
    )
    .expect("write chrome trace");
    fs::write(
        trace_dir.join("profile.json"),
        run.metrics.to_json().to_string_pretty(),
    )
    .expect("write metrics");
    fs::write(
        trace_dir.join("profile.folded.txt"),
        run.micro.folded_lines(),
    )
    .expect("write folded stacks");
    eprintln!(
        "profile artifacts: {}, {} and {}",
        trace_dir.join("profile.trace.json").display(),
        trace_dir.join("profile.json").display(),
        trace_dir.join("profile.folded.txt").display(),
    );
}

/// The `bench` pseudo-experiment: measure every baselined grid (and the
/// profile artifacts), write the candidates, and optionally gate them
/// against the committed `BENCH_*.json` files.
fn run_bench(check: bool, baseline_dir: &Path, seed: u64, out_dir: &Path, stamp: &Json) {
    eprintln!("running bench (backend + batch + serve + net + chaos + profile)...");
    let backend = backend_run();
    let batch = batch_run();
    let serve = serve_run(seed);
    // Bench mode stays subprocess-free: the kill -9 shard drill is the
    // `net` experiment's job, the baseline cells are identical without it.
    let net = net_run(seed, false);
    let chaos = chaos_run(seed);
    let profile = profile_run();

    for (name, table) in [
        ("backend", &backend.table),
        ("batch", &batch.table),
        ("serve", &serve.table),
        ("net", &net.table),
        ("chaos", &chaos.table),
        ("profile", &profile.table),
    ] {
        let rendered = write_table(out_dir, name, table, stamp);
        println!("{rendered}");
    }
    write_profile_artifacts(out_dir, &profile);
    fs::write(
        out_dir.join("serve.introspect.json"),
        serve.introspection.to_string_pretty(),
    )
    .expect("write serve introspection");

    let candidates = [
        &backend.baseline,
        &batch.baseline,
        &serve.baseline,
        &net.baseline,
        &chaos.baseline,
    ];
    for candidate in candidates {
        let path = write_baseline(out_dir, candidate);
        eprintln!("candidate baseline: {}", path.display());
    }
    if !check {
        eprintln!(
            "bench candidates written to {} (copy them to the repo root to re-baseline; \
             run with --check to gate against the committed files)",
            out_dir.display()
        );
        return;
    }

    let mut failures = 0usize;
    for candidate in candidates {
        let file = baseline_dir.join(bench_file_name(&candidate.name));
        let committed = fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))
            .and_then(|text| {
                Json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", file.display()))
            })
            .and_then(|doc| {
                Baseline::from_json(&doc)
                    .map_err(|e| format!("{} is malformed: {e}", file.display()))
            });
        let committed = match committed {
            Ok(b) => b,
            Err(msg) => {
                eprintln!("FAIL {}: {msg}", candidate.name);
                failures += 1;
                continue;
            }
        };
        let report = compare(&committed, candidate);
        for warning in &report.warnings {
            eprintln!("warn {}: {warning}", candidate.name);
        }
        for failure in &report.failures {
            eprintln!("FAIL {}: {failure}", candidate.name);
        }
        if report.passed() {
            eprintln!(
                "ok   {}: {} cells within tolerance of committed {} ({})",
                candidate.name,
                candidate.entries.len(),
                bench_file_name(&candidate.name),
                committed.git_describe,
            );
        }
        failures += report.failures.len();
    }
    if failures > 0 {
        eprintln!("bench gate FAILED with {failures} hard failure(s)");
        std::process::exit(1);
    }
    eprintln!("bench gate passed");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = all_experiments();

    if args.iter().any(|a| a == "--list") {
        println!("available experiments:");
        for (name, _) in &experiments {
            println!("  {name}");
        }
        println!("  bench");
        println!("  all");
        return;
    }

    let mut trace_out: Option<PathBuf> = None;
    let mut seed: u64 = 7;
    let mut check = false;
    let mut baseline_dir = PathBuf::from(".");
    let mut names: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trace-out" => {
                let Some(dir) = iter.next() else {
                    eprintln!("--trace-out requires a directory argument");
                    std::process::exit(2);
                };
                trace_out = Some(PathBuf::from(dir));
            }
            "--seed" => {
                let Some(value) = iter.next() else {
                    eprintln!("--seed requires an integer argument");
                    std::process::exit(2);
                };
                seed = match value.parse() {
                    Ok(s) => s,
                    Err(_) => {
                        eprintln!("--seed requires an integer argument, got {value:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--check" => check = true,
            "--baseline-dir" => {
                let Some(dir) = iter.next() else {
                    eprintln!("--baseline-dir requires a directory argument");
                    std::process::exit(2);
                };
                baseline_dir = PathBuf::from(dir);
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other} (try --list)");
                std::process::exit(2);
            }
            other => names.push(other.to_owned()),
        }
    }

    let out_dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&out_dir).expect("create target/experiments");
    let trace_dir = trace_out.unwrap_or_else(|| out_dir.clone());
    fs::create_dir_all(&trace_dir).expect("create trace-out directory");
    let stamp = provenance();

    if names.iter().any(|a| a == "bench") {
        if names.len() > 1 {
            eprintln!("`bench` runs its own fixed set; don't combine it with other names");
            std::process::exit(2);
        }
        run_bench(check, &baseline_dir, seed, &out_dir, &stamp);
        return;
    }
    if check {
        eprintln!("--check only applies to the `bench` pseudo-experiment");
        std::process::exit(2);
    }

    let wanted: Vec<&str> = if names.is_empty() || names.iter().any(|a| a == "all") {
        experiments.iter().map(|(n, _)| *n).collect()
    } else {
        names.iter().map(String::as_str).collect()
    };

    // Validate every requested name up front — nothing runs on a typo.
    let unknown: Vec<&str> = wanted
        .iter()
        .copied()
        .filter(|name| !experiments.iter().any(|(n, _)| n == name))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment(s): {unknown:?} (try --list)");
        std::process::exit(2);
    }

    for name in wanted {
        eprintln!("running {name}...");
        if name == "profile" {
            // One observed run feeds the table AND the trace/metrics
            // artifacts (running the registered closure would profile a
            // second, unrelated run).
            let run = profile_run();
            let rendered = write_table(&out_dir, name, &run.table, &stamp);
            println!("{rendered}");
            write_profile_artifacts(&trace_dir, &run);
            continue;
        }
        if name == "faults" {
            // The registered closure runs the default seed; honour --seed.
            let table = faults_campaign(seed);
            let rendered = write_table(&out_dir, name, &table, &stamp);
            println!("{rendered}");
            continue;
        }
        if name == "net" {
            // The network-edge campaign honours --seed and runs the full
            // drill, including the kill -9 shard subprocess exercise.
            let run = net_run(seed, true);
            let rendered = write_table(&out_dir, name, &run.table, &stamp);
            println!("{rendered}");
            write_baseline(&out_dir, &run.baseline);
            continue;
        }
        if name == "serve" {
            // Same: the serving stress campaign honours --seed. The one
            // run also yields the measured baseline and the per-scenario
            // introspection snapshots.
            let run = serve_run(seed);
            let rendered = write_table(&out_dir, name, &run.table, &stamp);
            println!("{rendered}");
            write_baseline(&out_dir, &run.baseline);
            fs::write(
                out_dir.join("serve.introspect.json"),
                run.introspection.to_string_pretty(),
            )
            .expect("write serve introspection");
            continue;
        }
        if name == "chaos" {
            // The full-stack chaos drill honours --seed and also yields
            // a measured baseline (BENCH_chaos.json candidate).
            let run = chaos_run(seed);
            let rendered = write_table(&out_dir, name, &run.table, &stamp);
            println!("{rendered}");
            write_baseline(&out_dir, &run.baseline);
            continue;
        }
        if name == "backend" {
            let run = backend_run();
            let rendered = write_table(&out_dir, name, &run.table, &stamp);
            println!("{rendered}");
            write_baseline(&out_dir, &run.baseline);
            continue;
        }
        if name == "batch" {
            let run = batch_run();
            let rendered = write_table(&out_dir, name, &run.table, &stamp);
            println!("{rendered}");
            write_baseline(&out_dir, &run.baseline);
            continue;
        }
        let run = experiments
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, f)| f)
            .expect("validated above");
        let table = run();
        let rendered = write_table(&out_dir, name, &table, &stamp);
        println!("{rendered}");
    }

    eprintln!("artifacts written to {}", out_dir.display());
}
