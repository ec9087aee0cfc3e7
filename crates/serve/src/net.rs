//! The network edge: a `std`-only TCP front end over [`SolveService`].
//!
//! One [`NetServer`] binds a `TcpListener` and speaks the wire protocol
//! of [`crate::wire`] — length-prefixed JSON frames for the job API
//! (submit/result/cancel/status/metrics/campaign) plus a minimal HTTP
//! `GET` answer on the same port so a stock Prometheus scraper can hit
//! `/metrics` and an operator can `curl /status`.
//!
//! # Admission control
//!
//! Nothing reaches a worker without passing explicit admission:
//!
//! * **Connection cap** — the accept loop refuses connections past
//!   [`NetConfig::max_connections`] with a `busy` error frame; the
//!   handler pool can never grow unboundedly.
//! * **Frame cap** — [`NetConfig::max_frame`] bounds every payload
//!   *before* allocation; an oversized length prefix costs the server
//!   nothing but a 4-byte read.
//! * **Bounded queue** — submissions ride the service's own bounded
//!   intake; a full queue answers a typed `rejected` error carrying
//!   `retry_after_ms` scaled by live queue depth, so honest clients
//!   back off harder exactly when the service is deepest under water.
//! * **Deadlines** — a request's `deadline_ms` propagates into the
//!   service's cancel-token watchdog, so a network client can never
//!   wedge a worker any more than a local caller can.
//!
//! Every admission decision is counted under `net.*` in the server's
//! own registry, which `/metrics` merges with the service's `serve.*`
//! counters — the flood test in `tests/net_admission.rs` reconciles
//! client-side tallies 1:1 against both.
//!
//! # Campaigns
//!
//! A `campaign` request runs an all-pairs sweep *server-side*, one
//! destination at a time through the same bounded queue (yielding to
//! interactive traffic at every destination), streaming a `progress`
//! frame per completed destination and finishing with the campaign's
//! checkpoint document — byte-identical to the in-process
//! [`ApspCheckpoint`](crate::ApspCheckpoint) for the same graph. A
//! failure mid-campaign carries the partial checkpoint so the client
//! can resume instead of restarting.

use crate::checkpoint::ApspCheckpoint;
use crate::job::{JobKind, JobOutcome, JobReport, JobSpec, ServeError};
use crate::service::{JobTicket, SolveService};
use crate::wire::{
    read_incoming, write_frame, write_http_response, CampaignRequest, Incoming, Request, Response,
    SubmitRequest, WireError, WireFailure,
};
use ppa_graph::io::parse_edge_list;
use ppa_obs::{Json, Metrics};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Network-edge tuning. `Default` binds an ephemeral loopback port with
/// limits sized for tests and the CLI.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (ephemeral) or `0.0.0.0:7117`.
    pub addr: String,
    /// Concurrent connections served; excess connections get a `busy`
    /// error frame and are closed (clamped to at least 1).
    pub max_connections: usize,
    /// Cap on a frame's payload length, enforced before allocation.
    pub max_frame: usize,
    /// Socket read timeout — the cadence at which idle handlers poll
    /// the shutdown flag; also bounds how long a half-open peer can
    /// hold a connection slot without sending bytes.
    pub read_timeout: Duration,
    /// Base of the `retry_after_ms` hint on admission rejections; the
    /// hint scales as `base * (1 + queue_depth)`.
    pub retry_after_base: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_connections: 32,
            max_frame: crate::wire::DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_millis(50),
            retry_after_base: Duration::from_millis(10),
        }
    }
}

/// See [`service`](crate::service): ignore poisoning, keep serving.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by the accept loop and every connection handler.
struct NetShared {
    svc: Arc<SolveService>,
    config: NetConfig,
    /// Edge-level counters (`net.*`), merged with the service registry
    /// for `/metrics` and the `metrics` op.
    metrics: Mutex<Metrics>,
    /// Tickets of `wait: false` submissions awaiting a `result` fetch.
    tickets: Mutex<BTreeMap<u64, JobTicket>>,
    /// Connections currently being served (accept-loop-owned).
    active: AtomicUsize,
    stop: AtomicBool,
}

impl NetShared {
    fn inc(&self, name: &str) {
        lock(&self.metrics).inc(name, 1);
    }

    /// The merged view a scraper sees: service counters + edge counters.
    fn merged_metrics(&self) -> Metrics {
        let mut m = self.svc.metrics();
        m.merge(&lock(&self.metrics));
        m
    }

    fn retry_after_ms(&self) -> u64 {
        let base = self.config.retry_after_base.as_millis() as u64;
        base.max(1) * (1 + self.svc.queue_depth())
    }
}

/// A running network front end. Dropping the server (or calling
/// [`NetServer::shutdown`]) stops the accept loop and joins every
/// connection handler; the underlying [`SolveService`] stays up and is
/// returned to the caller's `Arc`.
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<NetShared>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds [`NetConfig::addr`] and starts serving `svc` over it.
    ///
    /// # Errors
    /// The bind error.
    pub fn start(svc: Arc<SolveService>, config: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            svc,
            config,
            metrics: Mutex::new(Metrics::new()),
            tickets: Mutex::new(BTreeMap::new()),
            active: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(NetServer {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when `addr` asked for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the edge-level (`net.*`) counters.
    pub fn metrics(&self) -> Metrics {
        lock(&self.shared.metrics).clone()
    }

    /// Stops accepting, wakes the accept loop, and joins it (which in
    /// turn joins every connection handler). Returns the final `net.*`
    /// registry — taken after the join, so no handler can still be
    /// incrementing. Idempotent via `Drop`.
    pub fn shutdown(mut self) -> Metrics {
        self.stop_and_join();
        lock(&self.shared.metrics).clone()
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // The accept loop blocks in `accept()`; a throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<NetShared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        handlers.retain(|h| !h.is_finished());
        let cap = shared.config.max_connections.max(1);
        // The accept loop is the only incrementer, so cap enforcement
        // cannot race with itself; handlers only ever decrement.
        if shared.active.load(Ordering::Acquire) >= cap {
            shared.inc("net.conn_rejected");
            let mut stream = stream;
            let failure = WireFailure {
                retry_after_ms: Some(shared.retry_after_ms()),
                ..WireFailure::new(
                    "busy",
                    format!("connection limit ({cap}) reached; retry later"),
                )
            };
            let _ = write_frame(&mut stream, &Response::Error(failure).to_json());
            continue;
        }
        shared.active.fetch_add(1, Ordering::AcqRel);
        shared.inc("net.conn_accepted");
        let conn_shared = Arc::clone(&shared);
        handlers.push(thread::spawn(move || {
            handle_connection(stream, &conn_shared);
            conn_shared.active.fetch_sub(1, Ordering::AcqRel);
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Serves one connection until EOF, shutdown, a transport error, or a
/// protocol violation that desynchronizes the stream.
fn handle_connection(mut stream: TcpStream, shared: &NetShared) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        let incoming = {
            let mut r = &stream;
            read_incoming(&mut r, shared.config.max_frame)
        };
        match incoming {
            Ok(Incoming::Eof) => return,
            Ok(Incoming::HttpGet { target }) => {
                shared.inc("net.http_gets");
                let _ = answer_http(&mut stream, shared, &target);
                return; // Connection: close
            }
            Ok(Incoming::Frame(doc)) => {
                shared.inc("net.requests");
                match Request::from_json(&doc) {
                    Ok(req) => {
                        if !dispatch(&mut stream, shared, req) {
                            return;
                        }
                    }
                    Err(reason) => {
                        // The frame itself decoded, so the stream is
                        // still in sync; answer and keep serving.
                        let kind = if reason.starts_with("unknown op") {
                            shared.inc("net.unknown_op");
                            "unknown_op"
                        } else {
                            shared.inc("net.malformed");
                            "malformed"
                        };
                        if !send(
                            &mut stream,
                            &Response::Error(WireFailure::new(kind, reason)),
                        ) {
                            return;
                        }
                    }
                }
            }
            Err(e) if e.is_timeout() => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(e @ WireError::FrameTooLarge { .. }) => {
                // The payload was never read: the stream is desynced.
                // Name the violation, then close.
                shared.inc("net.oversized");
                let f = WireFailure::new("frame_too_large", e.to_string());
                let _ = send(&mut stream, &Response::Error(f));
                return;
            }
            Err(e @ (WireError::Malformed { .. } | WireError::Truncated)) => {
                shared.inc("net.malformed");
                let f = WireFailure::new("malformed", e.to_string());
                let _ = send(&mut stream, &Response::Error(f));
                return;
            }
            Err(WireError::Io { .. }) => return,
        }
    }
}

/// Writes one response frame; `false` means the peer is gone.
fn send(stream: &mut TcpStream, resp: &Response) -> bool {
    write_frame(stream, &resp.to_json()).is_ok()
}

fn answer_http(stream: &mut TcpStream, shared: &NetShared, target: &str) -> io::Result<()> {
    match target {
        "/metrics" => {
            let body = shared.merged_metrics().render_prometheus();
            write_http_response(stream, "200 OK", "text/plain; version=0.0.4", &body)
        }
        "/status" => {
            let body = shared.svc.introspect().to_json().to_string_compact();
            write_http_response(stream, "200 OK", "application/json", &body)
        }
        _ => write_http_response(
            stream,
            "404 Not Found",
            "text/plain",
            "try /metrics or /status\n",
        ),
    }
}

/// Handles one decoded request; `false` closes the connection.
fn dispatch(stream: &mut TcpStream, shared: &NetShared, req: Request) -> bool {
    match req {
        Request::Submit(s) => {
            let wait = s.wait;
            let spec = match job_spec_from_submit(&s) {
                Ok(spec) => spec,
                Err(f) => {
                    shared.inc("net.bad_graph");
                    return send(stream, &Response::Error(f));
                }
            };
            match shared.svc.submit(spec) {
                Ok(ticket) => {
                    shared.inc("net.submitted");
                    if wait {
                        let report = ticket.wait();
                        send(stream, &report_response(&report))
                    } else {
                        let id = ticket.id();
                        lock(&shared.tickets).insert(id, ticket);
                        send(stream, &Response::Accepted { id })
                    }
                }
                Err(e) => {
                    shared.inc("net.submit_rejected");
                    let mut f = WireFailure::from_serve_error(&e);
                    if matches!(e, ServeError::Rejected { .. }) {
                        f.retry_after_ms = Some(shared.retry_after_ms());
                    }
                    send(stream, &Response::Error(f))
                }
            }
        }
        Request::Result { id } => {
            let ticket = lock(&shared.tickets).remove(&id);
            match ticket {
                Some(ticket) => send(stream, &report_response(&ticket.wait())),
                None => send(
                    stream,
                    &Response::Error(WireFailure {
                        id: Some(id),
                        ..WireFailure::new(
                            "unknown_job",
                            format!("no pending result for job {id} on this server"),
                        )
                    }),
                ),
            }
        }
        Request::Cancel { id } => {
            let known = shared.svc.cancel(id);
            send(stream, &Response::CancelResult { id, known })
        }
        Request::Status => send(stream, &Response::Status(shared.svc.introspect().to_json())),
        Request::Metrics => send(
            stream,
            &Response::MetricsDoc(shared.merged_metrics().to_json()),
        ),
        Request::Campaign(c) => run_campaign(stream, shared, &c),
    }
}

/// Maps a wire submission onto a [`JobSpec`], validating the graph text
/// and destination before anything touches the queue.
fn job_spec_from_submit(s: &SubmitRequest) -> Result<JobSpec, WireFailure> {
    let graph = parse_edge_list(&s.graph)
        .map_err(|e| WireFailure::new("graph", format!("graph rejected: {e}")))?;
    let n = graph.n();
    let kind = match s.kind.as_str() {
        "shortest" | "widest" => {
            if s.dest >= n {
                return Err(WireFailure::new(
                    "graph",
                    format!("dest {} out of range for a {n}-vertex graph", s.dest),
                ));
            }
            if s.kind == "shortest" {
                JobKind::Shortest { dest: s.dest }
            } else {
                JobKind::Widest { dest: s.dest }
            }
        }
        "apsp" => JobKind::Apsp {
            resume_from: s.resume_from.clone(),
            checkpoint_every: s.checkpoint_every,
        },
        "chaos" => JobKind::Chaos,
        other => {
            // Unreachable through `Request::from_json`, which validates
            // the kind; kept typed for direct callers.
            return Err(WireFailure::new("malformed", format!("job kind {other:?}")));
        }
    };
    Ok(JobSpec {
        graph,
        kind,
        deadline: s.deadline_ms.map(Duration::from_millis),
        step_budget: s.step_budget,
        transient_faults: s.transient_faults,
    })
}

fn report_response(report: &JobReport) -> Response {
    match &report.outcome {
        Ok(outcome) => Response::Report {
            id: report.id,
            outcome: crate::wire::outcome_to_json(outcome),
            attempts: u64::from(report.attempts),
            backend: report.backend.map(|b| b.to_string()),
            latency_us: report.latency.as_micros() as u64,
        },
        Err(e) => Response::Error(WireFailure {
            id: Some(report.id),
            ..WireFailure::from_serve_error(e)
        }),
    }
}

/// Runs an all-pairs campaign server-side: one destination at a time
/// through the bounded queue, streaming `progress` per destination.
/// Failure frames carry the partial checkpoint for client-side resume.
/// `false` closes the connection (peer gone or fatal protocol state).
fn run_campaign(stream: &mut TcpStream, shared: &NetShared, c: &CampaignRequest) -> bool {
    shared.inc("net.campaigns");
    let graph = match parse_edge_list(&c.graph) {
        Ok(g) => g,
        Err(e) => {
            shared.inc("net.bad_graph");
            let f = WireFailure::new("graph", format!("graph rejected: {e}"));
            return send(stream, &Response::Error(f));
        }
    };
    let n = graph.n();
    let mut cp = match &c.resume_from {
        None => ApspCheckpoint::new(n),
        Some(doc) => match ApspCheckpoint::from_json(doc) {
            Ok(cp) if cp.n() == n => cp,
            Ok(cp) => {
                let f = WireFailure::new(
                    "invalid_resume",
                    format!("checkpoint is for a {}-vertex graph, not {n}", cp.n()),
                );
                return send(stream, &Response::Error(f));
            }
            Err(reason) => {
                return send(
                    stream,
                    &Response::Error(WireFailure::new("invalid_resume", reason)),
                );
            }
        },
    };
    while !cp.is_complete() {
        let dest = cp.next_dest();
        let spec = JobSpec {
            graph: graph.clone(),
            kind: JobKind::Shortest { dest },
            deadline: c.deadline_ms.map(Duration::from_millis),
            step_budget: c.step_budget,
            transient_faults: None,
        };
        let ticket = match shared.svc.submit(spec) {
            Ok(t) => t,
            Err(ServeError::Rejected { .. }) => {
                // Campaigns are batch work: yield to interactive
                // traffic and retry this destination after the hint.
                shared.inc("net.campaign_backoff");
                thread::sleep(Duration::from_millis(shared.retry_after_ms().min(250)));
                if shared.stop.load(Ordering::Acquire) {
                    return false;
                }
                continue;
            }
            Err(e) => {
                let mut f = WireFailure::from_serve_error(&e);
                f.checkpoint = Some(cp.to_json());
                return send(stream, &Response::Error(f));
            }
        };
        let report = ticket.wait();
        match report.outcome {
            Ok(JobOutcome::Shortest(out)) => {
                cp.record(&out);
                let progress = Response::Progress {
                    completed: cp.completed().len() as u64,
                    of: n as u64,
                };
                if !send(stream, &progress) {
                    return false; // peer gone; abandon the campaign
                }
            }
            Ok(_) => {
                let f = WireFailure::new(
                    "worker_panicked",
                    "campaign destination returned a non-shortest outcome",
                );
                return send(stream, &Response::Error(f));
            }
            Err(e) => {
                let mut f = WireFailure {
                    id: Some(report.id),
                    ..WireFailure::from_serve_error(&e)
                };
                f.checkpoint = Some(cp.to_json());
                return send(stream, &Response::Error(f));
            }
        }
    }
    shared.inc("net.campaigns_done");
    send(stream, &Response::Done(cp.to_json()))
}

/// Why a client call failed: at the transport, or as a typed error
/// frame from the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The transport or codec failed.
    Wire(WireError),
    /// The server answered with a typed failure.
    Server(WireFailure),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server(e) => write!(f, "server error [{}]: {}", e.kind, e.message),
        }
    }
}

impl std::error::Error for ClientError {}

/// A blocking client for the wire protocol: one TCP connection, one
/// outstanding request at a time.
pub struct NetClient {
    stream: TcpStream,
    max_frame: usize,
}

impl NetClient {
    /// Connects to a [`NetServer`].
    ///
    /// # Errors
    /// The connect error.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(NetClient {
            stream,
            max_frame: crate::wire::DEFAULT_MAX_FRAME,
        })
    }

    /// Sends one request frame.
    ///
    /// # Errors
    /// [`WireError`] on transport failure.
    pub fn send(&mut self, req: &Request) -> Result<(), WireError> {
        write_frame(&mut self.stream, &req.to_json()).map_err(|e| WireError::Io {
            kind: e.kind(),
            msg: e.to_string(),
        })
    }

    /// Receives one response frame.
    ///
    /// # Errors
    /// [`WireError`] on transport failure, EOF, or a frame that is not
    /// a response document.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        let mut r = &self.stream;
        match read_incoming(&mut r, self.max_frame)? {
            Incoming::Frame(doc) => {
                Response::from_json(&doc).map_err(|reason| WireError::Malformed { reason })
            }
            Incoming::Eof => Err(WireError::Truncated),
            Incoming::HttpGet { .. } => Err(WireError::Malformed {
                reason: "server sent an HTTP request?".to_owned(),
            }),
        }
    }

    /// One request/response exchange.
    ///
    /// # Errors
    /// [`WireError`] on transport failure either way.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        self.send(req)?;
        self.recv()
    }

    /// Runs a campaign, invoking `on_progress(completed, of)` per
    /// streamed progress frame, and returns the final checkpoint
    /// document.
    ///
    /// # Errors
    /// [`ClientError::Server`] with the partial checkpoint attached on
    /// an interrupted campaign; [`ClientError::Wire`] on transport
    /// failure.
    pub fn campaign(
        &mut self,
        req: CampaignRequest,
        mut on_progress: impl FnMut(u64, u64),
    ) -> Result<Json, ClientError> {
        self.send(&Request::Campaign(req))
            .map_err(ClientError::Wire)?;
        loop {
            match self.recv().map_err(ClientError::Wire)? {
                Response::Progress { completed, of } => on_progress(completed, of),
                Response::Done(doc) => return Ok(doc),
                Response::Error(f) => return Err(ClientError::Server(f)),
                other => {
                    return Err(ClientError::Wire(WireError::Malformed {
                        reason: format!("unexpected mid-campaign response: {other:?}"),
                    }))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use ppa_graph::io::to_edge_list;
    use ppa_graph::{gen, WeightMatrix};
    use ppa_mcp::McpSession;
    use std::io::{Read as _, Write as _};

    fn start_server(
        svc_config: ServeConfig,
        net_config: NetConfig,
    ) -> (NetServer, Arc<SolveService>) {
        let svc = Arc::new(SolveService::start(svc_config));
        let server = NetServer::start(Arc::clone(&svc), net_config).unwrap();
        (server, svc)
    }

    fn graph(n: usize, seed: u64) -> WeightMatrix {
        gen::random_connected(n, 0.4, 9, seed)
    }

    fn submit(graph: &WeightMatrix, kind: &str, dest: usize, wait: bool) -> Request {
        Request::Submit(SubmitRequest {
            graph: to_edge_list(graph),
            kind: kind.to_owned(),
            dest,
            checkpoint_every: 1,
            resume_from: None,
            deadline_ms: None,
            step_budget: None,
            transient_faults: None,
            wait,
        })
    }

    #[test]
    fn a_shortest_job_round_trips_the_network() {
        let (server, _svc) = start_server(ServeConfig::default(), NetConfig::default());
        let w = graph(12, 0xA11CE);
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let resp = client.call(&submit(&w, "shortest", 3, true)).unwrap();
        let Response::Report {
            outcome,
            attempts,
            backend,
            ..
        } = resp
        else {
            panic!("expected a report, got {resp:?}");
        };
        assert!(attempts >= 1);
        assert_eq!(backend.as_deref(), Some("packed"));
        let JobOutcome::Shortest(got) = crate::wire::outcome_from_json(&outcome).unwrap() else {
            panic!("expected a shortest outcome");
        };
        let want = McpSession::new(&w).unwrap().solve(3).unwrap();
        assert_eq!(got.sow, want.sow, "network answer must match in-process");
        assert_eq!(got.ptn, want.ptn);
        server.shutdown();
    }

    #[test]
    fn async_submit_result_and_unknown_job_fetches() {
        let (server, _svc) = start_server(ServeConfig::default(), NetConfig::default());
        let w = graph(10, 0xBEE);
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let Response::Accepted { id } = client.call(&submit(&w, "widest", 2, false)).unwrap()
        else {
            panic!("expected accepted");
        };
        let Response::Report { id: rid, .. } = client.call(&Request::Result { id }).unwrap() else {
            panic!("expected a report");
        };
        assert_eq!(rid, id);
        // A result is one-shot; a second fetch (or a bogus id) is a
        // typed unknown_job, not a hang.
        let Response::Error(f) = client.call(&Request::Result { id }).unwrap() else {
            panic!("expected an error for a consumed ticket");
        };
        assert_eq!(f.kind, "unknown_job");
        assert_eq!(f.id, Some(id));
        server.shutdown();
    }

    #[test]
    fn deadline_and_cancel_travel_the_wire() {
        let (server, _svc) = start_server(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            NetConfig::default(),
        );
        let w = graph(32, 0xDEAD);
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        // An impossible deadline comes back as a typed deadline error.
        let req = Request::Submit(SubmitRequest {
            deadline_ms: Some(0),
            ..match submit(&w, "shortest", 1, true) {
                Request::Submit(s) => s,
                _ => unreachable!(),
            }
        });
        let Response::Error(f) = client.call(&req).unwrap() else {
            panic!("expected a deadline error");
        };
        assert!(
            f.kind == "deadline" || f.kind == "deadline_in_queue",
            "unexpected kind {}",
            f.kind
        );
        // Cancel of a never-submitted id is known=false, not an error.
        let Response::CancelResult { known, .. } =
            client.call(&Request::Cancel { id: 999 }).unwrap()
        else {
            panic!("expected a cancel result");
        };
        assert!(!known);
        server.shutdown();
    }

    #[test]
    fn status_metrics_and_http_share_the_port() {
        let (server, svc) = start_server(ServeConfig::default(), NetConfig::default());
        let w = graph(8, 0x1234);
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let _ = client.call(&submit(&w, "shortest", 0, true)).unwrap();

        let Response::Status(doc) = client.call(&Request::Status).unwrap() else {
            panic!("expected status");
        };
        let snap = crate::introspect::Introspection::from_json(&doc).unwrap();
        assert_eq!(snap.queue_depth, 0);
        let Response::MetricsDoc(doc) = client.call(&Request::Metrics).unwrap() else {
            panic!("expected metrics");
        };
        let merged = Metrics::from_json(&doc).unwrap();
        assert_eq!(merged.counter("serve.completed"), 1);
        assert!(
            merged.counter("net.requests") >= 2,
            "edge counters merged in"
        );

        // Plain HTTP on the same port: Prometheus text for /metrics,
        // JSON for /status, 404 elsewhere.
        for (target, needle) in [
            ("/metrics", "serve_completed 1"),
            ("/metrics", "# TYPE serve_latency_us histogram"),
            ("/status", "\"queue_depth\""),
            ("/nope", "404 Not Found"),
        ] {
            let mut http = TcpStream::connect(server.local_addr()).unwrap();
            write!(http, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut text = String::new();
            http.read_to_string(&mut text).unwrap();
            assert!(
                text.contains(needle),
                "GET {target}: missing {needle:?} in {text}"
            );
        }
        drop(client);
        server.shutdown();
        assert_eq!(Arc::strong_count(&svc), 1, "server released the service");
    }

    #[test]
    fn protocol_violations_get_typed_errors_not_hangs() {
        let (server, _svc) = start_server(ServeConfig::default(), NetConfig::default());
        let addr = server.local_addr();

        // Oversized length prefix: named rejection, then close.
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
        let mut client = NetClient {
            stream: raw,
            max_frame: crate::wire::DEFAULT_MAX_FRAME,
        };
        let Response::Error(f) = client.recv().unwrap() else {
            panic!("expected a frame_too_large error");
        };
        assert_eq!(f.kind, "frame_too_large");

        // Malformed JSON payload: named rejection, then close.
        let mut raw = TcpStream::connect(addr).unwrap();
        let body = b"not json";
        raw.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
        raw.write_all(body).unwrap();
        let mut client = NetClient {
            stream: raw,
            max_frame: crate::wire::DEFAULT_MAX_FRAME,
        };
        let Response::Error(f) = client.recv().unwrap() else {
            panic!("expected a malformed error");
        };
        assert_eq!(f.kind, "malformed");

        // Unknown op and a bad graph: the stream stays usable, so one
        // connection can see both errors and then a real answer.
        let mut client = NetClient::connect(addr).unwrap();
        let doc = Json::obj(vec![("op", Json::Str("launch".to_owned()))]);
        write_frame(&mut client.stream, &doc).unwrap();
        let Response::Error(f) = client.recv().unwrap() else {
            panic!("expected unknown_op");
        };
        assert_eq!(f.kind, "unknown_op");
        let bad = Request::Submit(SubmitRequest {
            graph: "3\n0 1 -7\n".to_owned(),
            kind: "shortest".to_owned(),
            dest: 0,
            checkpoint_every: 1,
            resume_from: None,
            deadline_ms: None,
            step_budget: None,
            transient_faults: None,
            wait: true,
        });
        let Response::Error(f) = client.call(&bad).unwrap() else {
            panic!("expected a graph error");
        };
        assert_eq!(f.kind, "graph");
        let w = graph(6, 0x777);
        assert!(matches!(
            client.call(&submit(&w, "shortest", 0, true)).unwrap(),
            Response::Report { .. }
        ));
        server.shutdown();
    }

    #[test]
    fn the_connection_cap_answers_busy_with_a_retry_hint() {
        let (server, _svc) = start_server(
            ServeConfig::default(),
            NetConfig {
                max_connections: 1,
                ..NetConfig::default()
            },
        );
        let mut first = NetClient::connect(server.local_addr()).unwrap();
        // Prove the first connection's handler is live (and its slot
        // counted) before connecting the second.
        assert!(matches!(
            first.call(&Request::Status).unwrap(),
            Response::Status(_)
        ));
        let mut second = NetClient::connect(server.local_addr()).unwrap();
        let Response::Error(f) = second.recv().unwrap() else {
            panic!("expected busy");
        };
        assert_eq!(f.kind, "busy");
        assert!(f.retry_after_ms.is_some(), "busy must carry a retry hint");
        // Releasing the first slot re-admits new connections.
        drop(first);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let mut c = NetClient::connect(server.local_addr()).unwrap();
            match c.call(&Request::Status) {
                Ok(Response::Status(_)) => break,
                _ if std::time::Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(10))
                }
                other => panic!("slot never freed: {other:?}"),
            }
        }
        let m = server.metrics();
        assert!(m.counter("net.conn_rejected") >= 1);
        server.shutdown();
    }

    #[test]
    fn a_network_campaign_matches_the_in_process_checkpoint_byte_for_byte() {
        let (server, _svc) = start_server(ServeConfig::default(), NetConfig::default());
        let w = graph(10, 0xCA3);
        let mut expected = ApspCheckpoint::new(w.n());
        let mut session = McpSession::new(&w).unwrap();
        for d in 0..w.n() {
            expected.record(&session.solve(d).unwrap());
        }

        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let mut ticks = Vec::new();
        let done = client
            .campaign(
                CampaignRequest {
                    graph: to_edge_list(&w),
                    checkpoint_every: 1,
                    deadline_ms: None,
                    step_budget: None,
                    resume_from: None,
                },
                |completed, of| ticks.push((completed, of)),
            )
            .unwrap();
        assert_eq!(
            done.to_string_compact(),
            expected.to_json().to_string_compact(),
            "network campaign must be byte-identical to the in-process run"
        );
        assert_eq!(ticks.len(), w.n(), "one progress frame per destination");
        assert_eq!(*ticks.last().unwrap(), (w.n() as u64, w.n() as u64));
        server.shutdown();
    }

    #[test]
    fn an_interrupted_campaign_hands_back_a_resumable_checkpoint() {
        let (server, _svc) = start_server(ServeConfig::default(), NetConfig::default());
        let w = graph(10, 0x5CA1E);
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        // A starvation step budget interrupts the campaign on its first
        // destination — with a checkpoint attached.
        let err = client
            .campaign(
                CampaignRequest {
                    graph: to_edge_list(&w),
                    checkpoint_every: 1,
                    deadline_ms: None,
                    step_budget: Some(1),
                    resume_from: None,
                },
                |_, _| {},
            )
            .unwrap_err();
        let ClientError::Server(f) = err else {
            panic!("expected a server-side failure, got {err:?}");
        };
        assert_eq!(f.kind, "budget");
        let checkpoint = f.checkpoint.expect("failures must carry the checkpoint");
        // Resuming from that checkpoint with a sane budget completes,
        // and the merged result equals a clean run.
        let done = client
            .campaign(
                CampaignRequest {
                    graph: to_edge_list(&w),
                    checkpoint_every: 1,
                    deadline_ms: None,
                    step_budget: None,
                    resume_from: Some(checkpoint),
                },
                |_, _| {},
            )
            .unwrap();
        let mut clean = client
            .campaign(
                CampaignRequest {
                    graph: to_edge_list(&w),
                    checkpoint_every: 1,
                    deadline_ms: None,
                    step_budget: None,
                    resume_from: None,
                },
                |_, _| {},
            )
            .unwrap();
        assert_eq!(done.to_string_compact(), clean.to_string_compact());
        // And a checkpoint for the wrong graph is a typed rejection.
        clean = done;
        let err = client
            .campaign(
                CampaignRequest {
                    graph: to_edge_list(&graph(7, 0x0DD)),
                    checkpoint_every: 1,
                    deadline_ms: None,
                    step_budget: None,
                    resume_from: Some(clean),
                },
                |_, _| {},
            )
            .unwrap_err();
        let ClientError::Server(f) = err else {
            panic!("expected invalid_resume, got {err:?}");
        };
        assert_eq!(f.kind, "invalid_resume");
        server.shutdown();
    }
}
