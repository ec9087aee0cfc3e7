//! The network wire protocol: length-prefixed JSON frames, typed
//! request/response documents, and a minimal HTTP `GET` escape hatch
//! for `/metrics` scrapers.
//!
//! # Framing
//!
//! A frame is a 4-byte big-endian length followed by that many bytes of
//! UTF-8 JSON. [`read_incoming`] additionally sniffs the first four
//! bytes for `b"GET "` so a plain HTTP client (`curl
//! http://host/metrics`) gets a sensible answer from the same port —
//! an HTTP-sized length prefix (`0x47455420` ≈ 1.19 GiB) would exceed
//! any sane frame cap anyway, so the two protocols cannot be confused.
//!
//! # Trust boundary
//!
//! Everything read here is attacker-controlled. Every decode failure —
//! oversized length prefix, truncated stream, invalid UTF-8, malformed
//! JSON, unknown or mis-typed fields — is a typed [`WireError`] or a
//! `Result::Err` string; there are no `panic!`/`expect` paths on
//! received bytes (property-tested in `tests/wire_props.rs`).
//!
//! # Documents
//!
//! Requests and responses are tagged JSON objects ([`Request`],
//! [`Response`]) that round-trip exactly through their
//! `to_json`/`from_json` pairs. Job outcomes travel as the
//! answer-defining fields only (costs, successors, iterations — the
//! same distillation checkpoints use); step accounting stays in the
//! server's metrics registry.

use crate::job::{JobOutcome, ServeError};
use ppa_graph::{Weight, INF};
use ppa_mcp::widest::WidestOutput;
use ppa_mcp::{McpOutput, McpStats};
use ppa_obs::Json;
use std::fmt;
use std::io::{self, Read, Write};

/// Default cap on a frame's payload length. Large enough for a
/// several-thousand-edge graph or a full campaign checkpoint, small
/// enough that a hostile length prefix cannot balloon server memory.
pub const DEFAULT_MAX_FRAME: usize = 4 << 20;

/// Cap on an HTTP request head (request line + headers).
const MAX_HTTP_HEAD: usize = 8 << 10;

/// Why a read or decode failed at the wire boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The transport failed (or timed out; see [`WireError::is_timeout`]).
    Io {
        /// The underlying [`io::ErrorKind`].
        kind: io::ErrorKind,
        /// The error's message.
        msg: String,
    },
    /// The peer closed the stream mid-frame.
    Truncated,
    /// The length prefix exceeds the configured cap; nothing was read.
    FrameTooLarge {
        /// The advertised payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The payload was not the UTF-8 JSON document the protocol requires.
    Malformed {
        /// What was wrong.
        reason: String,
    },
}

impl WireError {
    fn from_io(e: io::Error) -> WireError {
        WireError::Io {
            kind: e.kind(),
            msg: e.to_string(),
        }
    }

    /// Whether this is a read-timeout (the server's idle-poll tick, not
    /// a protocol violation).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io {
                kind: io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut,
                ..
            }
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io { kind, msg } => write!(f, "wire i/o error ({kind:?}): {msg}"),
            WireError::Truncated => write!(f, "stream closed mid-frame"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Malformed { reason } => write!(f, "malformed frame: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

/// What [`read_incoming`] found on the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// Clean end of stream (the peer closed between frames).
    Eof,
    /// An HTTP `GET` request; `target` is the request path.
    HttpGet {
        /// The request target, e.g. `/metrics`.
        target: String,
    },
    /// One length-prefixed JSON frame.
    Frame(Json),
}

/// Reads the next frame (or HTTP GET, or clean EOF) from `r`, enforcing
/// `max_frame` on the advertised payload length *before* any payload
/// allocation.
///
/// # Errors
/// [`WireError`] on transport failure, truncation, an oversized length
/// prefix, or a payload that is not UTF-8 JSON.
pub fn read_incoming(r: &mut impl Read, max_frame: usize) -> Result<Incoming, WireError> {
    let mut head = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut head[filled..]) {
            Ok(0) if filled == 0 => return Ok(Incoming::Eof),
            Ok(0) => return Err(WireError::Truncated),
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::from_io(e)),
        }
    }
    if &head == b"GET " {
        return read_http_get(r);
    }
    let len = u32::from_be_bytes(head) as usize;
    if len > max_frame {
        return Err(WireError::FrameTooLarge {
            len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::from_io(e)),
        }
    }
    let text = std::str::from_utf8(&payload).map_err(|e| WireError::Malformed {
        reason: format!("payload is not UTF-8: {e}"),
    })?;
    let doc = Json::parse(text).map_err(|e| WireError::Malformed {
        reason: format!("payload is not JSON: {e}"),
    })?;
    Ok(Incoming::Frame(doc))
}

/// Finishes reading an HTTP request whose first four bytes (`GET `)
/// were already consumed, up to the blank line; bounded by
/// [`MAX_HTTP_HEAD`].
fn read_http_get(r: &mut impl Read) -> Result<Incoming, WireError> {
    let mut head: Vec<u8> = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        if head.len() >= MAX_HTTP_HEAD {
            return Err(WireError::Malformed {
                reason: format!("HTTP request head exceeds {MAX_HTTP_HEAD} bytes"),
            });
        }
        match r.read(&mut byte) {
            Ok(0) => break, // a bare "GET /x HTTP/1.0" with no trailing blank line
            Ok(_) => head.push(byte[0]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::from_io(e)),
        }
    }
    let text = String::from_utf8_lossy(&head);
    let line = text.lines().next().unwrap_or("");
    let target = line.split_whitespace().next().unwrap_or("/").to_owned();
    if target.is_empty() || !target.starts_with('/') {
        return Err(WireError::Malformed {
            reason: format!("HTTP request target {target:?} is not a path"),
        });
    }
    Ok(Incoming::HttpGet { target })
}

/// Writes one length-prefixed frame.
///
/// # Errors
/// The transport error, or `InvalidInput` if the document serializes
/// past `u32::MAX` bytes (unrepresentable in the length prefix).
pub fn write_frame(w: &mut impl Write, doc: &Json) -> io::Result<()> {
    let text = doc.to_string_compact();
    let bytes = text.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32::MAX bytes"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Writes a minimal HTTP/1.1 response and closes the exchange
/// (`Connection: close` keeps the server loop simple).
///
/// # Errors
/// The transport error.
pub fn write_http_response(
    w: &mut impl Write,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    w.flush()
}

/// A client request, decoded from one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job.
    Submit(SubmitRequest),
    /// Wait for (and consume) the report of a previously submitted job.
    Result {
        /// The id from the `accepted` response.
        id: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The id from the `accepted` response.
        id: u64,
    },
    /// Fetch a live introspection snapshot.
    Status,
    /// Fetch the metrics registry.
    Metrics,
    /// Run an all-pairs campaign with streamed progress.
    Campaign(CampaignRequest),
}

/// The `submit` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// The graph, as edge-list text (`ppa_graph::io::parse_edge_list`).
    pub graph: String,
    /// `shortest`, `widest`, `apsp`, or `chaos`.
    pub kind: String,
    /// Destination vertex (`shortest`/`widest`).
    pub dest: usize,
    /// Checkpoint cadence (`apsp`).
    pub checkpoint_every: usize,
    /// Resume document (`apsp`).
    pub resume_from: Option<Json>,
    /// Per-job deadline in milliseconds, propagated into the service's
    /// cancel-token watchdog.
    pub deadline_ms: Option<u64>,
    /// Per-attempt controller step budget.
    pub step_budget: Option<u64>,
    /// Transient-fault injection `(probability, seed)` — chaos drills.
    pub transient_faults: Option<(f64, u64)>,
    /// `true`: hold the connection and reply with the report directly.
    /// `false`: reply `accepted` immediately; fetch via [`Request::Result`].
    pub wait: bool,
}

/// The `campaign` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRequest {
    /// The graph, as edge-list text.
    pub graph: String,
    /// Stream a `progress` frame every completed destination and flush
    /// the checkpoint state at this cadence (clamped to at least 1).
    pub checkpoint_every: usize,
    /// Per-destination deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-attempt step budget for each destination.
    pub step_budget: Option<u64>,
    /// Resume document from an interrupted campaign.
    pub resume_from: Option<Json>,
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` is not a non-negative integer")),
    }
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("`{key}` missing or not a non-negative integer"))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("`{key}` missing or not a string")),
    }
}

impl Request {
    /// Serializes the request (the client side of the protocol).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Submit(s) => {
                let mut fields = vec![
                    ("op", Json::Str("submit".to_owned())),
                    ("graph", Json::Str(s.graph.clone())),
                    ("kind", Json::Str(s.kind.clone())),
                    ("dest", (s.dest as u64).into()),
                    ("checkpoint_every", (s.checkpoint_every as u64).into()),
                    ("resume_from", s.resume_from.clone().unwrap_or(Json::Null)),
                    ("deadline_ms", opt_num(s.deadline_ms)),
                    ("step_budget", opt_num(s.step_budget)),
                    ("wait", Json::Bool(s.wait)),
                ];
                if let Some((p, seed)) = s.transient_faults {
                    fields.push((
                        "transient_faults",
                        Json::obj(vec![("p", Json::Num(p)), ("seed", seed.into())]),
                    ));
                }
                Json::obj(fields)
            }
            Request::Result { id } => Json::obj(vec![
                ("op", Json::Str("result".to_owned())),
                ("id", (*id).into()),
            ]),
            Request::Cancel { id } => Json::obj(vec![
                ("op", Json::Str("cancel".to_owned())),
                ("id", (*id).into()),
            ]),
            Request::Status => Json::obj(vec![("op", Json::Str("status".to_owned()))]),
            Request::Metrics => Json::obj(vec![("op", Json::Str("metrics".to_owned()))]),
            Request::Campaign(c) => Json::obj(vec![
                ("op", Json::Str("campaign".to_owned())),
                ("graph", Json::Str(c.graph.clone())),
                ("checkpoint_every", (c.checkpoint_every as u64).into()),
                ("deadline_ms", opt_num(c.deadline_ms)),
                ("step_budget", opt_num(c.step_budget)),
                ("resume_from", c.resume_from.clone().unwrap_or(Json::Null)),
            ]),
        }
    }

    /// Decodes a request frame (the server side of the trust boundary).
    ///
    /// # Errors
    /// A message naming the first malformed field; unknown `op` values
    /// are reported verbatim so the caller can answer `unknown_op`.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let op = req_str(v, "op")?;
        match op.as_str() {
            "submit" => {
                let kind = req_str(v, "kind")?;
                match kind.as_str() {
                    "shortest" | "widest" | "apsp" | "chaos" => {}
                    other => return Err(format!("unknown job kind {other:?}")),
                }
                let transient_faults = match v.get("transient_faults") {
                    None | Some(Json::Null) => None,
                    Some(tf) => {
                        let p = tf
                            .get("p")
                            .and_then(Json::as_f64)
                            .ok_or("`transient_faults.p` missing or not a number")?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("`transient_faults.p` = {p} is not a probability"));
                        }
                        Some((
                            p,
                            req_u64(tf, "seed").map_err(|e| format!("transient_faults: {e}"))?,
                        ))
                    }
                };
                Ok(Request::Submit(SubmitRequest {
                    graph: req_str(v, "graph")?,
                    kind,
                    dest: req_u64(v, "dest").unwrap_or(0) as usize,
                    checkpoint_every: req_u64(v, "checkpoint_every").unwrap_or(1) as usize,
                    resume_from: match v.get("resume_from") {
                        None | Some(Json::Null) => None,
                        Some(doc) => Some(doc.clone()),
                    },
                    deadline_ms: opt_u64(v, "deadline_ms")?,
                    step_budget: opt_u64(v, "step_budget")?,
                    transient_faults,
                    wait: matches!(v.get("wait"), Some(Json::Bool(true))),
                }))
            }
            "result" => Ok(Request::Result {
                id: req_u64(v, "id")?,
            }),
            "cancel" => Ok(Request::Cancel {
                id: req_u64(v, "id")?,
            }),
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "campaign" => Ok(Request::Campaign(CampaignRequest {
                graph: req_str(v, "graph")?,
                checkpoint_every: req_u64(v, "checkpoint_every").unwrap_or(1) as usize,
                deadline_ms: opt_u64(v, "deadline_ms")?,
                step_budget: opt_u64(v, "step_budget")?,
                resume_from: match v.get("resume_from") {
                    None | Some(Json::Null) => None,
                    Some(doc) => Some(doc.clone()),
                },
            })),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

fn opt_num(v: Option<u64>) -> Json {
    match v {
        Some(n) => n.into(),
        None => Json::Null,
    }
}

/// A typed failure travelling over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFailure {
    /// Stable machine-readable class (see [`serve_error_kind`] plus the
    /// net-level kinds `malformed`, `frame_too_large`, `busy`,
    /// `unknown_op`, `unknown_job`, `graph`).
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
    /// The job the failure belongs to, when one was assigned.
    pub id: Option<u64>,
    /// For admission rejections: how long the client should wait before
    /// resubmitting (scaled by queue pressure).
    pub retry_after_ms: Option<u64>,
    /// For interrupted campaigns: the last flushed checkpoint, so the
    /// client can resume instead of restarting.
    pub checkpoint: Option<Json>,
}

impl WireFailure {
    /// A failure with just a kind and message.
    pub fn new(kind: &str, message: impl Into<String>) -> WireFailure {
        WireFailure {
            kind: kind.to_owned(),
            message: message.into(),
            id: None,
            retry_after_ms: None,
            checkpoint: None,
        }
    }

    /// Maps a [`ServeError`] (carrying its checkpoint when interrupted).
    pub fn from_serve_error(e: &ServeError) -> WireFailure {
        let mut f = WireFailure::new(serve_error_kind(e), e.to_string());
        if let ServeError::Interrupted { checkpoint, .. } = e {
            f.checkpoint = Some(checkpoint.clone());
        }
        f
    }
}

/// The stable wire kind for each [`ServeError`] class. For
/// [`ServeError::Interrupted`] the *cause*'s kind is prefixed with
/// `interrupted:` so clients can branch on the root cause without
/// parsing prose.
pub fn serve_error_kind(e: &ServeError) -> &'static str {
    match e {
        ServeError::Rejected { .. } => "rejected",
        ServeError::ShuttingDown => "shutting_down",
        ServeError::DeadlineExpiredInQueue { .. } => "deadline_in_queue",
        ServeError::DeadlineExceeded => "deadline",
        ServeError::Cancelled => "cancelled",
        ServeError::StepBudgetExhausted { .. } => "budget",
        ServeError::WorkerPanicked { .. } => "worker_panicked",
        ServeError::Interrupted { cause, .. } => match cause.as_ref() {
            ServeError::DeadlineExceeded => "interrupted:deadline",
            ServeError::Cancelled => "interrupted:cancelled",
            ServeError::StepBudgetExhausted { .. } => "interrupted:budget",
            _ => "interrupted",
        },
        ServeError::InvalidResume { .. } => "invalid_resume",
        ServeError::Solver(_) => "solver",
    }
}

/// A server response, encoded as one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job was admitted; fetch its report with [`Request::Result`].
    Accepted {
        /// The assigned job id.
        id: u64,
    },
    /// A finished job's report.
    Report {
        /// The job id.
        id: u64,
        /// The outcome document (see [`outcome_to_json`]).
        outcome: Json,
        /// Solve attempts executed.
        attempts: u64,
        /// Backend of the final attempt (`scalar` or `packed`, as
        /// `BackendSpec` prints).
        backend: Option<String>,
        /// Submission-to-completion wall time in microseconds.
        latency_us: u64,
    },
    /// Answer to a [`Request::Cancel`].
    CancelResult {
        /// The id that was cancelled.
        id: u64,
        /// Whether the job was still known (queued or running).
        known: bool,
    },
    /// A live introspection snapshot document.
    Status(Json),
    /// The metrics registry document.
    MetricsDoc(Json),
    /// Campaign progress: `completed` of `of` destinations done.
    Progress {
        /// Destinations completed so far.
        completed: u64,
        /// Total destinations in the campaign.
        of: u64,
    },
    /// A campaign's final checkpoint document.
    Done(Json),
    /// A typed failure.
    Error(WireFailure),
}

impl Response {
    /// Serializes the response (the server side).
    pub fn to_json(&self) -> Json {
        match self {
            Response::Accepted { id } => Json::obj(vec![
                ("type", Json::Str("accepted".to_owned())),
                ("id", (*id).into()),
            ]),
            Response::Report {
                id,
                outcome,
                attempts,
                backend,
                latency_us,
            } => Json::obj(vec![
                ("type", Json::Str("report".to_owned())),
                ("id", (*id).into()),
                ("outcome", outcome.clone()),
                ("attempts", (*attempts).into()),
                (
                    "backend",
                    match backend {
                        Some(b) => Json::Str(b.clone()),
                        None => Json::Null,
                    },
                ),
                ("latency_us", (*latency_us).into()),
            ]),
            Response::CancelResult { id, known } => Json::obj(vec![
                ("type", Json::Str("cancelled".to_owned())),
                ("id", (*id).into()),
                ("known", Json::Bool(*known)),
            ]),
            Response::Status(doc) => Json::obj(vec![
                ("type", Json::Str("status".to_owned())),
                ("status", doc.clone()),
            ]),
            Response::MetricsDoc(doc) => Json::obj(vec![
                ("type", Json::Str("metrics".to_owned())),
                ("metrics", doc.clone()),
            ]),
            Response::Progress { completed, of } => Json::obj(vec![
                ("type", Json::Str("progress".to_owned())),
                ("completed", (*completed).into()),
                ("of", (*of).into()),
            ]),
            Response::Done(doc) => Json::obj(vec![
                ("type", Json::Str("done".to_owned())),
                ("checkpoint", doc.clone()),
            ]),
            Response::Error(e) => Json::obj(vec![
                ("type", Json::Str("error".to_owned())),
                ("kind", Json::Str(e.kind.clone())),
                ("message", Json::Str(e.message.clone())),
                ("id", opt_num(e.id)),
                ("retry_after_ms", opt_num(e.retry_after_ms)),
                ("checkpoint", e.checkpoint.clone().unwrap_or(Json::Null)),
            ]),
        }
    }

    /// Decodes a response frame (the client side of the trust boundary).
    ///
    /// # Errors
    /// A message naming the first malformed field.
    pub fn from_json(v: &Json) -> Result<Response, String> {
        match req_str(v, "type")?.as_str() {
            "accepted" => Ok(Response::Accepted {
                id: req_u64(v, "id")?,
            }),
            "report" => Ok(Response::Report {
                id: req_u64(v, "id")?,
                outcome: v
                    .get("outcome")
                    .cloned()
                    .ok_or("`outcome` missing from report")?,
                attempts: req_u64(v, "attempts")?,
                backend: match v.get("backend") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(s)) => Some(s.clone()),
                    _ => return Err("`backend` is not a string".to_owned()),
                },
                latency_us: req_u64(v, "latency_us")?,
            }),
            "cancelled" => Ok(Response::CancelResult {
                id: req_u64(v, "id")?,
                known: matches!(v.get("known"), Some(Json::Bool(true))),
            }),
            "status" => Ok(Response::Status(
                v.get("status").cloned().ok_or("`status` missing")?,
            )),
            "metrics" => Ok(Response::MetricsDoc(
                v.get("metrics").cloned().ok_or("`metrics` missing")?,
            )),
            "progress" => Ok(Response::Progress {
                completed: req_u64(v, "completed")?,
                of: req_u64(v, "of")?,
            }),
            "done" => Ok(Response::Done(
                v.get("checkpoint").cloned().ok_or("`checkpoint` missing")?,
            )),
            "error" => Ok(Response::Error(WireFailure {
                kind: req_str(v, "kind")?,
                message: req_str(v, "message")?,
                id: opt_u64(v, "id")?,
                retry_after_ms: opt_u64(v, "retry_after_ms")?,
                checkpoint: match v.get("checkpoint") {
                    None | Some(Json::Null) => None,
                    Some(doc) => Some(doc.clone()),
                },
            })),
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

fn weight_to_json(w: Weight) -> Json {
    if w == INF {
        Json::Null
    } else {
        (w as u64).into()
    }
}

fn weight_from_json(v: &Json) -> Result<Weight, String> {
    match v {
        Json::Null => Ok(INF),
        other => other
            .as_u64()
            .map(|u| u as Weight)
            .ok_or_else(|| "weight entry is neither null nor a non-negative integer".to_owned()),
    }
}

fn usize_vec(v: &Json, key: &str) -> Result<Vec<usize>, String> {
    v.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("`{key}` missing or not an array"))?
        .iter()
        .map(|x| {
            x.as_u64()
                .map(|u| u as usize)
                .ok_or_else(|| format!("`{key}` entry is not a non-negative integer"))
        })
        .collect()
}

fn weight_vec(v: &Json, key: &str) -> Result<Vec<Weight>, String> {
    v.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("`{key}` missing or not an array"))?
        .iter()
        .map(weight_from_json)
        .collect()
}

/// Encodes a job outcome's answer-defining fields (unreachable costs
/// become `null`); step accounting stays server-side.
pub fn outcome_to_json(outcome: &JobOutcome) -> Json {
    match outcome {
        JobOutcome::Shortest(out) => Json::obj(vec![
            ("kind", Json::Str("shortest".to_owned())),
            ("dest", (out.dest as u64).into()),
            (
                "sow",
                Json::Array(out.sow.iter().map(|&w| weight_to_json(w)).collect()),
            ),
            (
                "ptn",
                Json::Array(out.ptn.iter().map(|&p| (p as u64).into()).collect()),
            ),
            ("iterations", (out.iterations as u64).into()),
        ]),
        JobOutcome::Widest(out) => Json::obj(vec![
            ("kind", Json::Str("widest".to_owned())),
            ("dest", (out.dest as u64).into()),
            (
                "cap",
                Json::Array(out.cap.iter().map(|&w| weight_to_json(w)).collect()),
            ),
            (
                "ptn",
                Json::Array(out.ptn.iter().map(|&p| (p as u64).into()).collect()),
            ),
            ("iterations", (out.iterations as u64).into()),
        ]),
        JobOutcome::Apsp(doc) => Json::obj(vec![
            ("kind", Json::Str("apsp".to_owned())),
            ("checkpoint", doc.clone()),
        ]),
    }
}

/// Decodes [`outcome_to_json`]'s document back into a [`JobOutcome`]
/// (step accounting comes back defaulted — the wire does not carry it).
///
/// # Errors
/// A message naming the first malformed field.
pub fn outcome_from_json(v: &Json) -> Result<JobOutcome, String> {
    match req_str(v, "kind")?.as_str() {
        "shortest" => Ok(JobOutcome::Shortest(McpOutput {
            dest: req_u64(v, "dest")? as usize,
            sow: weight_vec(v, "sow")?,
            ptn: usize_vec(v, "ptn")?,
            iterations: req_u64(v, "iterations")? as usize,
            stats: McpStats::default(),
        })),
        "widest" => Ok(JobOutcome::Widest(WidestOutput {
            dest: req_u64(v, "dest")? as usize,
            cap: weight_vec(v, "cap")?,
            ptn: usize_vec(v, "ptn")?,
            iterations: req_u64(v, "iterations")? as usize,
            stats: McpStats::default(),
        })),
        "apsp" => Ok(JobOutcome::Apsp(
            v.get("checkpoint").cloned().ok_or("`checkpoint` missing")?,
        )),
        other => Err(format!("unknown outcome kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(doc: &Json) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, doc).unwrap();
        buf
    }

    #[test]
    fn frames_round_trip() {
        let doc = Json::obj(vec![
            ("op", Json::Str("status".to_owned())),
            ("x", Json::Array(vec![1u64.into(), Json::Null])),
        ]);
        let bytes = frame_bytes(&doc);
        let mut r = Cursor::new(bytes);
        match read_incoming(&mut r, DEFAULT_MAX_FRAME).unwrap() {
            Incoming::Frame(back) => {
                assert_eq!(back.to_string_compact(), doc.to_string_compact())
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        assert_eq!(
            read_incoming(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            Incoming::Eof
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = (u32::MAX).to_be_bytes().to_vec();
        bytes.extend_from_slice(b"irrelevant");
        let mut r = Cursor::new(bytes);
        assert_eq!(
            read_incoming(&mut r, 1024),
            Err(WireError::FrameTooLarge {
                len: u32::MAX as usize,
                max: 1024
            })
        );
    }

    #[test]
    fn truncated_streams_and_garbage_are_typed() {
        // Torn header.
        let mut r = Cursor::new(vec![0u8, 0]);
        assert_eq!(read_incoming(&mut r, 1024), Err(WireError::Truncated));
        // Torn payload.
        let mut bytes = 10u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let mut r = Cursor::new(bytes);
        assert_eq!(read_incoming(&mut r, 1024), Err(WireError::Truncated));
        // Valid length, invalid UTF-8.
        let mut bytes = 2u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Cursor::new(bytes);
        assert!(matches!(
            read_incoming(&mut r, 1024),
            Err(WireError::Malformed { .. })
        ));
        // Valid UTF-8, invalid JSON.
        let mut bytes = 3u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"{{{");
        let mut r = Cursor::new(bytes);
        assert!(matches!(
            read_incoming(&mut r, 1024),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn http_get_is_sniffed_from_the_same_port() {
        let mut r = Cursor::new(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n".to_vec());
        assert_eq!(
            read_incoming(&mut r, 1024).unwrap(),
            Incoming::HttpGet {
                target: "/metrics".to_owned()
            }
        );
        let mut out = Vec::new();
        write_http_response(&mut out, "200 OK", "text/plain", "hello").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));
        assert!(text.contains("Content-Length: 5\r\n"));
    }

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = vec![
            Request::Submit(SubmitRequest {
                graph: "3\n0 1 4\n".to_owned(),
                kind: "shortest".to_owned(),
                dest: 1,
                checkpoint_every: 1,
                resume_from: None,
                deadline_ms: Some(250),
                step_budget: None,
                transient_faults: Some((0.25, 42)),
                wait: true,
            }),
            Request::Result { id: 9 },
            Request::Cancel { id: 3 },
            Request::Status,
            Request::Metrics,
            Request::Campaign(CampaignRequest {
                graph: "2\n0 1 1\n1 0 1\n".to_owned(),
                checkpoint_every: 2,
                deadline_ms: None,
                step_budget: Some(10_000),
                resume_from: Some(Json::obj(vec![("version", 1u64.into())])),
            }),
        ];
        for req in reqs {
            let doc = req.to_json();
            let text = doc.to_string_compact();
            let back = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, req, "request must survive the wire: {text}");
        }
    }

    #[test]
    fn malformed_requests_are_named_errors() {
        assert!(Request::from_json(&Json::Null).is_err());
        let doc = Json::obj(vec![("op", Json::Str("fly".to_owned()))]);
        assert!(Request::from_json(&doc).unwrap_err().contains("fly"));
        let doc = Json::obj(vec![
            ("op", Json::Str("submit".to_owned())),
            ("kind", Json::Str("chess".to_owned())),
        ]);
        assert!(Request::from_json(&doc).unwrap_err().contains("chess"));
        let doc = Json::obj(vec![
            ("op", Json::Str("submit".to_owned())),
            ("kind", Json::Str("shortest".to_owned())),
            ("graph", Json::Str("1\n".to_owned())),
            (
                "transient_faults",
                Json::obj(vec![("p", Json::Num(7.0)), ("seed", 1u64.into())]),
            ),
        ]);
        assert!(Request::from_json(&doc)
            .unwrap_err()
            .contains("probability"));
        let doc = Json::obj(vec![("op", Json::Str("cancel".to_owned()))]);
        assert!(Request::from_json(&doc).unwrap_err().contains("id"));
    }

    #[test]
    fn responses_round_trip_through_json() {
        let resps = vec![
            Response::Accepted { id: 4 },
            Response::Report {
                id: 4,
                outcome: Json::obj(vec![("kind", Json::Str("apsp".to_owned()))]),
                attempts: 2,
                backend: Some("packed".to_owned()),
                latency_us: 1234,
            },
            Response::CancelResult { id: 4, known: true },
            Response::Status(Json::obj(vec![("queue_depth", 0u64.into())])),
            Response::MetricsDoc(Json::obj(vec![])),
            Response::Progress {
                completed: 3,
                of: 12,
            },
            Response::Done(Json::obj(vec![("version", 1u64.into())])),
            Response::Error(WireFailure {
                kind: "rejected".to_owned(),
                message: "queue full".to_owned(),
                id: None,
                retry_after_ms: Some(40),
                checkpoint: None,
            }),
        ];
        for resp in resps {
            let text = resp.to_json().to_string_compact();
            let back = Response::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, resp, "response must survive the wire: {text}");
        }
    }

    #[test]
    fn outcomes_round_trip_with_inf_as_null() {
        let shortest = JobOutcome::Shortest(McpOutput {
            dest: 2,
            sow: vec![3, INF, 0],
            ptn: vec![2, 1, 2],
            iterations: 2,
            stats: McpStats::default(),
        });
        let doc = outcome_to_json(&shortest);
        let text = doc.to_string_compact();
        assert!(text.contains("null"), "INF must encode as null: {text}");
        let back = outcome_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, shortest);

        let widest = JobOutcome::Widest(WidestOutput {
            dest: 0,
            cap: vec![511, 4, 0],
            ptn: vec![0, 0, 2],
            iterations: 1,
            stats: McpStats::default(),
        });
        let back = outcome_from_json(&outcome_to_json(&widest)).unwrap();
        assert_eq!(back, widest);

        assert!(outcome_from_json(&Json::Null).is_err());
        let doc = Json::obj(vec![("kind", Json::Str("sideways".to_owned()))]);
        assert!(outcome_from_json(&doc).unwrap_err().contains("sideways"));
    }

    #[test]
    fn serve_error_kinds_are_stable() {
        assert_eq!(
            serve_error_kind(&ServeError::Rejected { capacity: 4 }),
            "rejected"
        );
        assert_eq!(serve_error_kind(&ServeError::Cancelled), "cancelled");
        assert_eq!(
            serve_error_kind(&ServeError::Interrupted {
                checkpoint: Json::Null,
                cause: Box::new(ServeError::StepBudgetExhausted { budget: 9 }),
            }),
            "interrupted:budget"
        );
        let f = WireFailure::from_serve_error(&ServeError::Interrupted {
            checkpoint: Json::obj(vec![("version", 1u64.into())]),
            cause: Box::new(ServeError::DeadlineExceeded),
        });
        assert_eq!(f.kind, "interrupted:deadline");
        assert!(f.checkpoint.is_some(), "interruptions carry the checkpoint");
    }
}
