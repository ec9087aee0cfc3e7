//! `solve` — command-line front end for the PPA graph solvers.
//!
//! ```text
//! solve <graph-file> --dest <d> [--problem shortest|widest|hops|reach]
//!                                [--backend scalar|packed|threaded]
//!                                [--threads K] [--word 64|256]
//!                                [--source] [--steps] [--paths]
//!                                [--trace FILE] [--metrics FILE]
//! solve <graph-file> --dest <d> --serve [--workers N] [--deadline-ms D]
//!                                [--budget STEPS]
//! solve --demo --dest 0 --problem shortest --steps
//! ```
//!
//! The graph file is either the native edge list (`n <count>` /
//! `e <from> <to> <w>`) or DIMACS `.gr` (`p sp` / `a`), auto-detected.
//! `--source` solves from `d` as a source instead of towards it as a
//! destination (via graph reversal); `--demo` uses a built-in workload.
//! `--trace FILE` writes a Chrome `trace_event` document of the run
//! (load in Perfetto; timestamps are controller step indices) and
//! `--metrics FILE` a metrics snapshot JSON. `--backend` selects the
//! execution backend: `scalar` (the reference), `packed` (u64 bit-plane
//! masks with bus-plan caching), or `threaded` (packed word rows sharded
//! across a `--threads K` worker pool) — results and step counts are
//! identical on all three, only host wall-clock differs. `--word 256`
//! switches the packed/threaded backends from 64-bit machine words to
//! 256-bit SWAR words (4×u64 limbs); results stay bit-identical.
//!
//! `--batch L` turns on lane batching. Inline (`--problem shortest`) it
//! solves a wavefront of `L` destinations — `d`, `d+1`, … mod `n` — on
//! one lane-concatenated machine in a single micro-op stream, printing
//! lane 0 exactly like a solo run plus a batch summary. With `--serve`
//! or `--listen` it enables the service's coalescer, which groups
//! compatible pending shortest jobs into waves of up to `L` lanes.
//!
//! `--serve` routes the job through the hardened [`ppa_serve`] service
//! instead of solving inline: a worker pool with deadlines (cooperative
//! cancellation), controller step budgets, retry-with-backoff, and a
//! packed→scalar circuit breaker. Serve mode handles `shortest`,
//! `widest`, and `apsp` (all destinations, with checkpointing); it
//! prints the job report plus the service's `serve.*` counters.
//!
//! Network modes:
//!
//! * `solve --listen ADDR [--workers N] [--status-every MS]` — serve
//!   the wire protocol over TCP (plus HTTP `GET /metrics` and
//!   `/status` on the same port). Prints `listening: <addr>` and runs
//!   until stdin reaches EOF, then drains gracefully and prints the
//!   final counters.
//! * `solve <graph> --dest <d> --connect ADDR` — submit the job to a
//!   remote `--listen` server instead of solving locally.
//! * `solve shard-worker <graph> --shard I --of N --checkpoint PATH`
//!   — run one destination-range shard of an all-pairs campaign with a
//!   crash-tolerant resumable checkpoint (kill -9 safe).
//! * `solve shard-merge --out PATH <shard.json>...` — validate that
//!   shard checkpoints cover every destination exactly once and merge
//!   them into one campaign document, byte-identical to a
//!   single-process run.

use ppa_graph::{gen, io, WeightMatrix, INF};
use ppa_machine::{BackendSpec, BackendVisitor, Executor};
use ppa_mcp::batch::replicate;
use ppa_mcp::closure::{hop_levels, reachability};
use ppa_mcp::path::extract_path;
use ppa_mcp::widest::widest_path;
use ppa_mcp::{BatchSession, McpSession, Redundancy};
use ppa_ppc::Ppa;
use ppa_serve::ServeConfig;
use std::process::exit;

struct Options {
    file: Option<String>,
    demo: bool,
    dest: Option<usize>,
    problem: String,
    source_mode: bool,
    backend: BackendSpec,
    show_steps: bool,
    show_paths: bool,
    trace_file: Option<String>,
    metrics_file: Option<String>,
    serve: bool,
    batch: Option<usize>,
    redundancy: Redundancy,
    workers: usize,
    deadline_ms: Option<u64>,
    budget: Option<u64>,
    status_every_ms: Option<u64>,
    listen: Option<String>,
    connect: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: solve <graph-file | --demo> --dest <d> \
         [--problem shortest|widest|hops|reach] \
         [--backend scalar|packed|threaded] [--threads K] [--word 64|256] \
         [--batch L] [--redundancy off|dmr|tmr|tmr-detect] \
         [--source] [--steps] [--paths] [--trace FILE] [--metrics FILE] \
         [--serve [--workers N] [--deadline-ms D] [--budget STEPS] \
         [--status-every MS]] [--connect ADDR]\n       \
         solve --listen ADDR [--workers N] [--threads K] [--word 64|256] \
         [--batch L] [--redundancy off|dmr|tmr|tmr-detect] \
         [--backend scalar|packed|threaded] [--status-every MS]\n       \
         solve shard-worker <graph-file> --shard I --of N \
         --checkpoint PATH [--every K] [--workers N] [--stall-ms MS]\n       \
         solve shard-merge --out PATH <shard.json>..."
    );
    exit(2)
}

fn parse_args() -> Options {
    // `--backend/--word/--threads` arrive in any order and combine into
    // one spec once every flag has been read.
    let (mut kind, mut word, mut threads) = ("scalar".to_owned(), "64".to_owned(), "4".to_owned());
    let mut opts = Options {
        file: None,
        demo: false,
        dest: None,
        problem: "shortest".into(),
        source_mode: false,
        backend: BackendSpec::Scalar,
        show_steps: false,
        show_paths: false,
        trace_file: None,
        metrics_file: None,
        serve: false,
        batch: None,
        redundancy: Redundancy::Off,
        workers: 3,
        deadline_ms: None,
        budget: None,
        status_every_ms: None,
        listen: None,
        connect: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--demo" => opts.demo = true,
            "--dest" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.dest = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--problem" => opts.problem = args.next().unwrap_or_else(|| usage()),
            "--backend" => kind = args.next().unwrap_or_else(|| usage()),
            "--threads" => threads = args.next().unwrap_or_else(|| usage()),
            "--word" => word = args.next().unwrap_or_else(|| usage()),
            "--source" => opts.source_mode = true,
            "--steps" => opts.show_steps = true,
            "--paths" => opts.show_paths = true,
            "--trace" => opts.trace_file = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics" => opts.metrics_file = Some(args.next().unwrap_or_else(|| usage())),
            "--serve" => opts.serve = true,
            "--batch" => {
                let v = args.next().unwrap_or_else(|| usage());
                let lanes: usize = v.parse().unwrap_or_else(|_| usage());
                if lanes == 0 {
                    eprintln!("--batch must be at least 1 lane");
                    usage()
                }
                opts.batch = Some(lanes);
            }
            "--redundancy" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.redundancy = v.parse().unwrap_or_else(|_| {
                    eprintln!("--redundancy takes off|dmr|tmr|tmr-detect, got `{v}`");
                    usage()
                });
            }
            "--workers" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.workers = v.parse().unwrap_or_else(|_| usage());
            }
            "--deadline-ms" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.deadline_ms = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--budget" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.budget = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--status-every" => {
                let v = args.next().unwrap_or_else(|| usage());
                let ms: u64 = v.parse().unwrap_or_else(|_| usage());
                if ms == 0 {
                    eprintln!("--status-every must be at least 1 ms");
                    usage()
                }
                opts.status_every_ms = Some(ms);
            }
            "--listen" => opts.listen = Some(args.next().unwrap_or_else(|| usage())),
            "--connect" => opts.connect = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && opts.file.is_none() => {
                opts.file = Some(other.to_owned());
            }
            _ => usage(),
        }
    }
    opts.backend = BackendSpec::from_flags(&kind, &word, &threads).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    opts
}

fn load(opts: &Options) -> WeightMatrix {
    if opts.demo {
        return gen::random_connected(12, 0.25, 20, 7);
    }
    let Some(file) = &opts.file else { usage() };
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        exit(1)
    });
    io::parse_auto(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {file}: {e}");
        exit(1)
    })
}

/// Installs the observers requested by `--trace`/`--metrics` on a freshly
/// built machine. The returned sink is paired with its output path, so a
/// sink can never exist without a destination — the inconsistency that
/// used to be an `expect` panic in `write_observations` is
/// unrepresentable.
fn attach_observers<E: Executor>(
    ppa: &mut Ppa<E>,
    opts: &Options,
) -> Option<(ppa_obs::ChromeTraceSink, String)> {
    if opts.metrics_file.is_some() {
        ppa.enable_metrics();
    }
    opts.trace_file.as_ref().map(|path| {
        let sink = ppa_obs::ChromeTraceSink::new();
        ppa.install_sink(sink.clone());
        (sink, path.clone())
    })
}

/// Writes the trace/metrics artifacts after the run.
fn write_observations<E: Executor>(
    ppa: &mut Ppa<E>,
    sink: Option<(ppa_obs::ChromeTraceSink, String)>,
    opts: &Options,
) {
    let final_step = ppa.steps().total();
    if let Some((sink, path)) = sink {
        let _ = ppa.take_sink(); // closes any open spans first
        let doc = sink.finish(final_step);
        std::fs::write(&path, doc.to_string_pretty()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1)
        });
        println!("trace written to {path} (Chrome trace_event; ts = controller step)");
    }
    if let Some(path) = &opts.metrics_file {
        let m = ppa.take_metrics();
        std::fs::write(path, m.to_json().to_string_pretty()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1)
        });
        println!("metrics written to {path}");
    }
}

fn main() {
    // Subcommands are intercepted before flag parsing: they have their
    // own argument grammars (and no `--dest`).
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("shard-worker") => return run_shard_worker_cli(&argv[1..]),
        Some("shard-merge") => return run_shard_merge_cli(&argv[1..]),
        _ => {}
    }
    let opts = parse_args();
    if let Some(addr) = &opts.listen {
        run_listen(addr, &opts);
        return;
    }
    let mut w = load(&opts);
    let Some(d) = opts.dest else { usage() };
    if d >= w.n() {
        eprintln!(
            "destination {d} out of range (graph has {} vertices)",
            w.n()
        );
        exit(1);
    }
    if opts.source_mode {
        w = w.reversed();
    }
    let role = if opts.source_mode {
        "source"
    } else {
        "destination"
    };
    println!(
        "graph: {} vertices, {} edges; {role} {d}; problem: {}",
        w.n(),
        w.edge_count(),
        opts.problem
    );
    if let Some(addr) = &opts.connect {
        run_connect(addr, &w, d, &opts);
        return;
    }
    if opts.serve {
        run_serve(w, d, &opts);
        return;
    }
    if opts.batch.is_some() && opts.problem != "shortest" {
        eprintln!("--batch without --serve supports only --problem shortest");
        exit(2);
    }
    if opts.redundancy.replicas() > 1 {
        if opts.problem != "shortest" {
            eprintln!("--redundancy without --serve supports only --problem shortest");
            exit(2);
        }
        if opts.batch.is_some() {
            eprintln!("--batch and --redundancy cannot be combined inline; use --serve for both");
            exit(2);
        }
        return solve_inline(Inline::Voted(opts.redundancy), &w, d, &opts);
    }
    let run = match opts.problem.as_str() {
        "shortest" => match opts.batch {
            // A wavefront of destinations `d`, `d+1`, … (mod `n`).
            Some(lanes) => Inline::Batched(lanes.min(64).min(w.n())),
            None => Inline::Shortest,
        },
        "widest" => Inline::Widest,
        "hops" => Inline::Hops,
        "reach" => Inline::Reach,
        other => {
            eprintln!("unknown problem `{other}`");
            usage()
        }
    };
    solve_inline(run, &w, d, &opts);
}

/// An inline (non-served) run of one problem.
#[derive(Clone, Copy)]
enum Inline {
    Shortest,
    Widest,
    Hops,
    Reach,
    /// Shortest paths for a wavefront of this many destinations on one
    /// lane-batched machine.
    Batched(usize),
    /// A vote-screened shortest-path solve on replicated lanes.
    Voted(Redundancy),
}

/// Runs `run` on the backend `--backend/--word/--threads` selected.
fn solve_inline(run: Inline, w: &WeightMatrix, d: usize, opts: &Options) {
    struct Solve<'a> {
        run: Inline,
        w: &'a WeightMatrix,
        d: usize,
        opts: &'a Options,
    }

    impl BackendVisitor for Solve<'_> {
        type Output = ();

        fn run<E: Executor>(self, exec: E) {
            let Solve { run, w, d, opts } = self;
            let die = |e: ppa_mcp::McpError| -> ! {
                eprintln!("solver error: {e}");
                exit(1)
            };
            match run {
                Inline::Shortest => {
                    let session = McpSession::with_backend(w, exec).unwrap_or_else(|e| die(e));
                    run_shortest(session, w, d, opts)
                }
                Inline::Widest => {
                    let h = w.required_word_bits().clamp(4, 62);
                    run_widest(Ppa::with_backend(w.n(), exec).with_word_bits(h), w, d, opts)
                }
                Inline::Hops => run_hops(Ppa::with_backend(w.n(), exec), w, d, opts),
                Inline::Reach => run_reach(Ppa::with_backend(w.n(), exec), w, d, opts),
                Inline::Batched(lanes) => {
                    let dests: Vec<usize> = (0..lanes).map(|l| (d + l) % w.n()).collect();
                    let batch = BatchSession::with_backend(&replicate(w, lanes), exec);
                    drive_batch(batch.unwrap_or_else(|e| die(e)), &dests, w, opts)
                }
                Inline::Voted(mode) => {
                    let batch = BatchSession::with_backend(&replicate(w, mode.replicas()), exec);
                    drive_redundant(batch.unwrap_or_else(|e| die(e)), w, d, mode, opts)
                }
            }
        }
    }

    opts.backend.dispatch(Solve { run, w, d, opts });
}

/// The service configuration `--serve` and `--listen` share.
fn serve_config(opts: &Options) -> ServeConfig {
    let mut config = ServeConfig {
        workers: opts.workers.max(1),
        backend: opts.backend,
        redundancy: opts.redundancy,
        ..ServeConfig::default()
    };
    if let Some(lanes) = opts.batch {
        config.batching.enabled = true;
        config.batching.max_lanes = lanes;
    }
    config
}

/// Serve-mode runner: one job through a [`ppa_serve::SolveService`]
/// worker pool, then the job report and the service's own counters.
fn run_serve(w: WeightMatrix, d: usize, opts: &Options) {
    use ppa_serve::{ApspCheckpoint, JobKind, JobOutcome, JobSpec, SolveService};
    use std::sync::Arc;
    use std::time::Duration;

    let kind = match opts.problem.as_str() {
        "shortest" => JobKind::Shortest { dest: d },
        "widest" => JobKind::Widest { dest: d },
        "apsp" => JobKind::Apsp {
            resume_from: None,
            checkpoint_every: 1,
        },
        other => {
            eprintln!("problem `{other}` is not served (serve mode handles shortest|widest|apsp)");
            exit(2)
        }
    };
    let svc = Arc::new(SolveService::start(serve_config(opts)));
    // `--status-every MS`: a StatusReporter dumps introspection
    // snapshots (compact JSON, one line, `status:` prefix) to stderr at
    // the requested period, and guarantees one `status-final:` snapshot
    // taken *after* the job settles — the periodic thread alone could
    // miss the terminal state and leave the last line stale.
    let status = opts
        .status_every_ms
        .map(|ms| start_status_reporter(Arc::clone(&svc), ms));
    let stop_status = move || {
        if let Some(reporter) = status {
            reporter.finish();
        }
    };
    // Stops the dumper, then drains the pool and returns final metrics.
    let finish = move |svc: Arc<SolveService>| -> ppa_obs::Metrics {
        stop_status();
        match Arc::try_unwrap(svc) {
            Ok(s) => s.shutdown(),
            Err(arc) => arc.metrics(), // unreachable: the dumper was joined
        }
    };
    let mut spec = JobSpec::new(w.clone(), kind);
    spec.deadline = opts.deadline_ms.map(Duration::from_millis);
    spec.step_budget = opts.budget;
    let ticket = match svc.submit(spec) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("submit failed: {e}");
            finish(svc);
            exit(1)
        }
    };
    let report = ticket.wait();
    println!(
        "job {}: {} attempt(s), backend {}, latency {:?}",
        report.id,
        report.attempts,
        report.backend.map_or_else(|| "-".into(), |b| b.to_string()),
        report.latency
    );
    match report.outcome {
        Ok(JobOutcome::Shortest(out)) => {
            for i in 0..w.n() {
                if out.sow[i] == INF {
                    println!("  {i}: unreachable");
                } else {
                    println!("  {i}: cost {:5}  next {}", out.sow[i], out.ptn[i]);
                }
            }
        }
        Ok(JobOutcome::Widest(out)) => {
            for i in 0..w.n() {
                if i == d {
                    continue;
                }
                if out.cap[i] == 0 {
                    println!("  {i}: unreachable");
                } else {
                    println!("  {i}: capacity {:5}  next {}", out.cap[i], out.ptn[i]);
                }
            }
        }
        Ok(JobOutcome::Apsp(doc)) => match ApspCheckpoint::from_json(&doc) {
            Ok(cp) => {
                println!(
                    "  all-pairs campaign complete: {} destinations",
                    cp.completed().len()
                );
                for r in cp.completed() {
                    let reachable = r.sow.iter().filter(|&&c| c != INF).count();
                    println!(
                        "  dest {:3}: {} reachable, {} iteration(s)",
                        r.dest, reachable, r.iterations
                    );
                }
            }
            Err(e) => {
                eprintln!("malformed campaign document: {e}");
                exit(1)
            }
        },
        Err(e) => {
            eprintln!("job failed: {e}");
            let metrics = finish(svc);
            print_serve_counters(&metrics);
            exit(1)
        }
    }
    let metrics = finish(svc);
    print_serve_counters(&metrics);
}

fn print_serve_counters(metrics: &ppa_obs::Metrics) {
    print_counters(metrics, "serve.");
}

fn print_counters(metrics: &ppa_obs::Metrics, prefix: &str) {
    let mut counters: Vec<(&str, u64)> = metrics
        .counters()
        .filter(|(name, _)| name.starts_with(prefix))
        .collect();
    counters.sort();
    for (name, value) in counters {
        println!("  {name}: {value}");
    }
}

/// Starts the `--status-every` sidecar: periodic `status:` lines plus a
/// guaranteed `status-final:` snapshot taken after the drain signal.
fn start_status_reporter(
    svc: std::sync::Arc<ppa_serve::SolveService>,
    every_ms: u64,
) -> ppa_serve::StatusReporter {
    ppa_serve::StatusReporter::start(
        svc,
        std::time::Duration::from_millis(every_ms),
        |snap, is_final| {
            let prefix = if is_final { "status-final" } else { "status" };
            eprintln!("{prefix}: {}", snap.to_json().to_string_compact());
        },
    )
}

/// `--listen ADDR`: run the wire protocol over TCP (plus HTTP `GET
/// /metrics` / `/status` on the same port) until stdin reaches EOF,
/// then drain gracefully. The bound address is printed on stdout so a
/// parent that asked for an OS-assigned port (`--listen 127.0.0.1:0`)
/// can discover where to connect.
fn run_listen(addr: &str, opts: &Options) {
    use ppa_serve::{NetConfig, NetServer, SolveService};
    use std::io::{BufRead, Write};
    use std::sync::Arc;

    let svc = Arc::new(SolveService::start(serve_config(opts)));
    let server = NetServer::start(
        Arc::clone(&svc),
        NetConfig {
            addr: addr.to_owned(),
            ..NetConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot listen on {addr}: {e}");
        exit(1)
    });
    println!("listening: {}", server.local_addr());
    let _ = std::io::stdout().flush();
    let status = opts
        .status_every_ms
        .map(|ms| start_status_reporter(Arc::clone(&svc), ms));
    // Graceful-drain signal: the parent closing our stdin. (kill -9 is
    // the ungraceful path — that one is covered by shard checkpoints.)
    let stdin = std::io::stdin();
    let mut line = String::new();
    while stdin
        .lock()
        .read_line(&mut line)
        .map(|n| n > 0)
        .unwrap_or(false)
    {
        line.clear();
    }
    let net_metrics = server.shutdown();
    if let Some(reporter) = status {
        reporter.finish();
    }
    let mut metrics = match Arc::try_unwrap(svc) {
        Ok(s) => s.shutdown(),
        Err(arc) => arc.metrics(), // unreachable: the server and reporter were joined
    };
    metrics.merge(&net_metrics);
    print_serve_counters(&metrics);
    print_counters(&metrics, "net.");
}

/// `--connect ADDR`: submit this job to a remote `--listen` server over
/// the wire protocol and print the report, mirroring serve-mode output.
fn run_connect(addr: &str, w: &WeightMatrix, d: usize, opts: &Options) {
    use ppa_serve::wire::outcome_from_json;
    use ppa_serve::{ApspCheckpoint, JobOutcome, NetClient, Request, Response, SubmitRequest};

    match opts.problem.as_str() {
        "shortest" | "widest" | "apsp" => {}
        other => {
            eprintln!("problem `{other}` is not served (--connect handles shortest|widest|apsp)");
            exit(2)
        }
    }
    let mut client = NetClient::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        exit(1)
    });
    let req = Request::Submit(SubmitRequest {
        graph: io::to_edge_list(w),
        kind: opts.problem.clone(),
        dest: d,
        checkpoint_every: 1,
        resume_from: None,
        deadline_ms: opts.deadline_ms,
        step_budget: opts.budget,
        transient_faults: None,
        wait: true,
    });
    let response = client.call(&req).unwrap_or_else(|e| {
        eprintln!("wire error talking to {addr}: {e}");
        exit(1)
    });
    match response {
        Response::Report {
            id,
            outcome,
            attempts,
            backend,
            latency_us,
        } => {
            println!(
                "job {id}: {attempts} attempt(s), backend {}, latency {latency_us}us (remote)",
                backend.as_deref().unwrap_or("-"),
            );
            match outcome_from_json(&outcome) {
                Ok(JobOutcome::Shortest(out)) => {
                    for i in 0..w.n() {
                        if out.sow[i] == INF {
                            println!("  {i}: unreachable");
                        } else {
                            println!("  {i}: cost {:5}  next {}", out.sow[i], out.ptn[i]);
                        }
                    }
                }
                Ok(JobOutcome::Widest(out)) => {
                    for i in 0..w.n() {
                        if i == d {
                            continue;
                        }
                        if out.cap[i] == 0 {
                            println!("  {i}: unreachable");
                        } else {
                            println!("  {i}: capacity {:5}  next {}", out.cap[i], out.ptn[i]);
                        }
                    }
                }
                Ok(JobOutcome::Apsp(doc)) => match ApspCheckpoint::from_json(&doc) {
                    Ok(cp) => println!(
                        "  all-pairs campaign complete: {} destinations",
                        cp.completed().len()
                    ),
                    Err(e) => {
                        eprintln!("malformed campaign document: {e}");
                        exit(1)
                    }
                },
                Err(e) => {
                    eprintln!("malformed outcome document: {e}");
                    exit(1)
                }
            }
        }
        Response::Error(failure) => {
            eprintln!("job failed: {} ({})", failure.message, failure.kind);
            if let Some(ms) = failure.retry_after_ms {
                eprintln!("  retry after {ms} ms");
            }
            exit(1)
        }
        other => {
            eprintln!("unexpected response: {:?}", other.to_json());
            exit(1)
        }
    }
}

/// `solve shard-worker <graph> --shard I --of N --checkpoint PATH`:
/// one destination-range shard of an all-pairs campaign, checkpointing
/// atomically as it goes. Safe to kill -9 and re-run: a restart resumes
/// from the persisted prefix and refuses a checkpoint that belongs to a
/// different campaign.
fn run_shard_worker_cli(args: &[String]) {
    use ppa_serve::run_shard_worker;
    use std::time::Duration;

    let mut file = None;
    let mut shard = None;
    let mut of = None;
    let mut checkpoint = None;
    let mut every = 1usize;
    let mut workers = 2usize;
    let mut stall_ms = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shard" => shard = it.next().and_then(|v| v.parse().ok()),
            "--of" => of = it.next().and_then(|v| v.parse().ok()),
            "--checkpoint" => checkpoint = it.next().cloned(),
            "--every" => {
                every = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--stall-ms" => stall_ms = it.next().and_then(|v| v.parse().ok()),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_owned()),
            _ => usage(),
        }
    }
    let (Some(file), Some(shard), Some(of), Some(checkpoint)) = (file, shard, of, checkpoint)
    else {
        usage()
    };
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        exit(1)
    });
    let w = io::parse_auto(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {file}: {e}");
        exit(1)
    });
    let config = ServeConfig {
        workers: workers.max(1),
        ..ServeConfig::default()
    };
    let stall = stall_ms.map(Duration::from_millis);
    match run_shard_worker(
        &w,
        shard,
        of,
        std::path::Path::new(&checkpoint),
        every,
        config,
        stall,
    ) {
        Ok(cp) => {
            let (start, end) = cp.range();
            println!(
                "shard-worker: shard {shard}/{of} complete, destinations {start}..{end} \
                 ({} results) -> {checkpoint}",
                cp.completed().len()
            );
        }
        Err(e) => {
            eprintln!("shard-worker failed: {e}");
            exit(1)
        }
    }
}

/// `solve shard-merge --out PATH <shard.json>...`: validate that the
/// shard checkpoints cover every destination exactly once and merge
/// them into one campaign document (byte-identical to a single-process
/// run over the same graph).
fn run_shard_merge_cli(args: &[String]) {
    use ppa_serve::merge_shard_files;

    let mut out = None;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = it.next().cloned(),
            other if !other.starts_with('-') => files.push(other.to_owned()),
            _ => usage(),
        }
    }
    let Some(out) = out else { usage() };
    if files.is_empty() {
        usage()
    }
    match merge_shard_files(&files) {
        Ok(merged) => {
            merged.save(std::path::Path::new(&out)).unwrap_or_else(|e| {
                eprintln!("cannot write {out}: {e}");
                exit(1)
            });
            println!(
                "shard-merge: {} shard(s) -> {} destinations, n={} -> {out}",
                files.len(),
                merged.completed().len(),
                merged.n()
            );
        }
        Err(e) => {
            eprintln!("shard-merge failed: {e}");
            exit(1)
        }
    }
}

/// Shortest-path runner, generic over the execution backend. Uses an
/// [`McpSession`] so the destination-independent setup is prepared once —
/// the CLI is a batched consumer like the all-pairs driver.
fn run_shortest<E: Executor>(
    mut session: McpSession<E>,
    w: &WeightMatrix,
    d: usize,
    opts: &Options,
) {
    let sink = attach_observers(session.ppa_mut(), opts);
    let out = session.solve(d).unwrap_or_else(|e| {
        eprintln!("solver error: {e}");
        exit(1)
    });
    print_shortest_rows(&out, w.n(), opts);
    if opts.show_steps {
        println!("{}", out.stats);
    }
    write_observations(session.ppa_mut(), sink, opts);
}

/// Per-vertex output rows for a shortest-path solution; shared between
/// the solo and lane-batched runners so `--batch` prints lane 0 exactly
/// like a solo run.
fn print_shortest_rows(out: &ppa_mcp::McpOutput, n: usize, opts: &Options) {
    for i in 0..n {
        if out.sow[i] == INF {
            println!("  {i}: unreachable");
        } else if opts.show_paths {
            let p = extract_path(out, i)
                .map(|p| {
                    p.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(" -> ")
                })
                .unwrap_or_else(|| "?".into());
            println!("  {i}: cost {:5}  {}", out.sow[i], p);
        } else {
            println!("  {i}: cost {:5}  next {}", out.sow[i], out.ptn[i]);
        }
    }
}

/// Solves one redundant wave on an already-built replicated session and
/// prints the voted lane plus the vote summary.
fn drive_redundant<E: Executor>(
    mut batch: BatchSession<E>,
    w: &WeightMatrix,
    d: usize,
    mode: Redundancy,
    opts: &Options,
) {
    let sink = attach_observers(batch.ppa_mut(), opts);
    let wave = batch.solve_redundant(&[d], mode).unwrap_or_else(|e| {
        eprintln!("solver error: {e}");
        exit(1)
    });
    let voted = &wave.lanes[0];
    match &voted.outcome {
        Ok(out) => {
            print_shortest_rows(out, w.n(), opts);
            let agreement = if voted.vote.corrected {
                format!(
                    "majority out-voted lane(s) {:?} (bands {:?})",
                    voted.vote.suspect_lanes, voted.vote.suspect_bands
                )
            } else {
                "unanimous".into()
            };
            println!(
                "  vote: {mode} with {} replica lane(s) on a {}x{} machine: {agreement}",
                voted.vote.replicas,
                batch.n(),
                batch.n() * batch.lanes(),
            );
            if opts.show_steps {
                println!("{}", out.stats);
            }
        }
        Err(e) => {
            eprintln!("vote refused the wave: {e}");
            if !voted.vote.suspect_lanes.is_empty() {
                eprintln!(
                    "  suspect lane(s) {:?} in column band(s) {:?}; BIST localized {:?}",
                    voted.vote.suspect_lanes, voted.vote.suspect_bands, voted.vote.located
                );
            }
            exit(1)
        }
    }
    write_observations(batch.ppa_mut(), sink, opts);
}

/// Solves one wavefront on an already-built batch session and prints
/// lane 0 plus the batch summary.
fn drive_batch<E: Executor>(
    mut batch: BatchSession<E>,
    dests: &[usize],
    w: &WeightMatrix,
    opts: &Options,
) {
    let sink = attach_observers(batch.ppa_mut(), opts);
    let wave = batch.solve(dests).unwrap_or_else(|e| {
        eprintln!("solver error: {e}");
        exit(1)
    });
    let lane0 = match &wave[0] {
        Ok(out) => out,
        Err(e) => {
            eprintln!("solver error: {e}");
            exit(1)
        }
    };
    print_shortest_rows(lane0, w.n(), opts);
    let converged = wave.iter().filter(|r| r.is_ok()).count();
    println!(
        "  batch: {}/{} lane(s) converged on a {}x{} machine ({}-bit words), destinations {:?}",
        converged,
        batch.lanes(),
        batch.n(),
        batch.n() * batch.lanes(),
        batch.word_bits(),
        dests
    );
    if opts.show_steps {
        println!("{}", lane0.stats);
    }
    write_observations(batch.ppa_mut(), sink, opts);
}

/// Widest-path runner, generic over the execution backend.
fn run_widest<E: Executor>(mut ppa: Ppa<E>, w: &WeightMatrix, d: usize, opts: &Options) {
    let sink = attach_observers(&mut ppa, opts);
    let out = widest_path(&mut ppa, w, d).unwrap_or_else(|e| {
        eprintln!("solver error: {e}");
        exit(1)
    });
    for i in 0..w.n() {
        if i == d {
            continue;
        }
        if out.cap[i] == 0 {
            println!("  {i}: unreachable");
        } else {
            println!("  {i}: capacity {:5}  next {}", out.cap[i], out.ptn[i]);
        }
    }
    if opts.show_steps {
        println!("{}", out.stats);
    }
    write_observations(&mut ppa, sink, opts);
}

/// Hop-level (BFS) runner, generic over the execution backend.
fn run_hops<E: Executor>(mut ppa: Ppa<E>, w: &WeightMatrix, d: usize, opts: &Options) {
    let sink = attach_observers(&mut ppa, opts);
    let out = hop_levels(&mut ppa, w, d).unwrap_or_else(|e| {
        eprintln!("solver error: {e}");
        exit(1)
    });
    for (i, lvl) in out.level.iter().enumerate() {
        match lvl {
            None => println!("  {i}: unreachable"),
            Some(h) => println!("  {i}: {h} hop(s)"),
        }
    }
    if opts.show_steps {
        println!("  total steps: {}", out.steps);
    }
    write_observations(&mut ppa, sink, opts);
}

/// Reachability runner, generic over the execution backend.
fn run_reach<E: Executor>(mut ppa: Ppa<E>, w: &WeightMatrix, d: usize, opts: &Options) {
    let sink = attach_observers(&mut ppa, opts);
    let out = reachability(&mut ppa, w, d).unwrap_or_else(|e| {
        eprintln!("solver error: {e}");
        exit(1)
    });
    let members: Vec<String> = out
        .reach
        .iter()
        .enumerate()
        .filter(|(_, &r)| r)
        .map(|(i, _)| i.to_string())
        .collect();
    println!("  can reach {d}: {{{}}}", members.join(", "));
    if opts.show_steps {
        println!(
            "  total steps: {} ({} iterations)",
            out.steps, out.iterations
        );
    }
    write_observations(&mut ppa, sink, opts);
}
