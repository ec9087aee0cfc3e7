//! The `solve` binary's serving modes run on the service's default
//! backend unless `--backend` says otherwise, and a served job prints
//! the same per-vertex answers as an inline solve.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs `solve` to completion and returns its stdout.
fn solve(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_solve"))
        .args(args)
        .output()
        .expect("solve runs");
    assert!(
        out.status.success(),
        "solve {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The `cost … next …` lines of a solve's output.
fn answers(out: &str) -> Vec<&str> {
    out.lines().filter(|l| l.contains(": cost ")).collect()
}

/// The backend a served job's report line names.
fn job_backend(out: &str) -> &str {
    out.lines()
        .find_map(|l| l.split("backend ").nth(1))
        .and_then(|rest| rest.split(',').next())
        .unwrap_or_else(|| panic!("no job line in {out}"))
}

#[test]
fn serve_mode_defaults_to_the_packed_backend() {
    let inline = solve(&["--demo", "--dest", "3"]);
    let served = solve(&["--demo", "--dest", "3", "--serve", "--workers", "1"]);
    assert_eq!(job_backend(&served), "packed", "{served}");
    assert_eq!(answers(&served), answers(&inline));
    assert!(!answers(&inline).is_empty(), "{inline}");
    let batched = solve(&[
        "--demo",
        "--dest",
        "3",
        "--serve",
        "--workers",
        "1",
        "--batch",
        "4",
    ]);
    assert_eq!(job_backend(&batched), "packed", "{batched}");
    assert_eq!(answers(&batched), answers(&inline));
    let pinned = solve(&["--demo", "--dest", "3", "--serve", "--backend", "scalar"]);
    assert_eq!(job_backend(&pinned), "scalar", "{pinned}");
}

#[test]
fn listen_mode_defaults_to_the_packed_backend() {
    let mut server = Command::new(env!("CARGO_BIN_EXE_solve"))
        .args(["--listen", "127.0.0.1:0", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("solve --listen starts");
    let mut lines = BufReader::new(server.stdout.take().expect("piped stdout")).lines();
    let addr = lines
        .next()
        .and_then(Result::ok)
        .and_then(|l| l.strip_prefix("listening: ").map(str::to_owned))
        .expect("the server prints its address first");
    let remote = solve(&["--demo", "--dest", "3", "--connect", &addr]);
    // Closing stdin drains the server.
    drop(server.stdin.take());
    let status = server.wait().expect("the server exits");
    assert!(status.success(), "solve --listen exited with {status}");
    assert_eq!(job_backend(&remote), "packed", "{remote}");
    assert_eq!(
        answers(&remote),
        answers(&solve(&["--demo", "--dest", "3"]))
    );
}
