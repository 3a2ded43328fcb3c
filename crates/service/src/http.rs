//! The hand-rolled HTTP/1.1 front-end over `std::net`.
//!
//! Deliberately minimal, like the rest of this crate's wire layer: one
//! request per connection, `Connection: close`, bodies delimited by
//! `Content-Length` on the way in and by EOF on the way out — which is
//! what lets the NDJSON result stream be plain sequential writes with no
//! chunked framing.
//!
//! # Backpressure, explicitly
//!
//! Two independent admission controls, each with its own status code:
//!
//! * **`429`** — the bounded handler pool is saturated. The acceptor
//!   thread never queues more than `ServiceConfig::backlog` connections;
//!   beyond that it answers `429 Too Many Requests` inline and closes.
//! * **`503`** — the job queue is full (or draining). `POST /v1/jobs` maps
//!   [`SubmitError::QueueFull`] to `503 Service Unavailable` with a
//!   `Retry-After` hint; accepted connections are unaffected.
//!
//! # Endpoints (v1)
//!
//! All routes live under the `/v1` prefix; any other path is a `404`.
//!
//! | Method/path                 | Purpose                                  |
//! |-----------------------------|------------------------------------------|
//! | `POST /v1/jobs`             | Submit a campaign job (JSON spec)        |
//! | `POST /v1/duts`             | Register a DUT (netlist + invariances)   |
//! | `GET /v1/duts`              | List registered DUTs                     |
//! | `GET /v1/duts/{id}`         | DUT detail (universe size, lint report)  |
//! | `GET /v1/duts/{id}/analysis`| Static symmetry analysis (orbits, classes)|
//! | `GET /v1/jobs/{id}`         | Job status + live progress               |
//! | `GET /v1/jobs/{id}/results` | NDJSON record stream (follows live jobs) |
//! | `GET /v1/jobs/{id}/trace`   | Per-job trace spans (chrome NDJSON)      |
//! | `DELETE /v1/jobs/{id}`      | Cancel a queued/running job              |
//! | `GET /v1/report/{id}`       | Final coverage report                    |
//! | `GET /v1/lint/{id}`         | Pre-flight lint report + analysis summary |
//! | `GET /v1/metrics`           | Prometheus text exposition               |
//! | `GET /v1/healthz`           | Liveness probe                           |
//! | `GET /v1/stats`             | Service counters                         |
//! | `POST /v1/shutdown`         | Graceful drain-to-checkpoint shutdown    |
//!
//! # Errors
//!
//! Every non-2xx response carries one JSON envelope: `{"error": {"code",
//! "message", "retry_after?", "diagnostics?"}}`. `code` is a stable
//! machine-readable slug (see [`ApiError`]); `retry_after`, when present,
//! duplicates the `Retry-After` header in seconds; `diagnostics` carries
//! structured detail (currently: the lint report on `422`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use symbist_defects::checkpoint::checkpoint_line;

use symbist_dut::{DutEntry, DutSpec, InvarianceKind, UploadError};

use crate::backend::CampaignBackend;
use crate::job::{JobId, JobState, Registry, SubmitError};
use crate::spec::JobSpec;
use crate::worker::WorkerPool;
use crate::Json;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Job-queue capacity — the `503` threshold.
    pub queue_capacity: usize,
    /// Campaign worker threads.
    pub workers: usize,
    /// HTTP handler threads.
    pub handlers: usize,
    /// Accepted-but-unhandled connection backlog — the `429` threshold.
    pub backlog: usize,
    /// Job persistence directory; `None` disables persistence (and with
    /// it drain/resume across restarts).
    pub data_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 16,
            workers: 2,
            handlers: 4,
            backlog: 8,
            data_dir: None,
        }
    }
}

struct Shared {
    registry: Arc<Registry>,
    backend: Arc<dyn CampaignBackend>,
    shutdown: Mutex<bool>,
    shutdown_cv: Condvar,
}

impl Shared {
    fn request_shutdown(&self) {
        *self.shutdown.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.shutdown_cv.notify_all();
    }
}

/// The running service: listener, handler pool, worker pool, registry.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    stop_accepting: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    handler_threads: Vec<JoinHandle<()>>,
    pool: WorkerPool,
}

impl Server {
    /// Binds, recovers persisted jobs, and spawns the worker and handler
    /// pools. Returns once the service is accepting requests.
    pub fn start(
        config: ServiceConfig,
        backend: Arc<dyn CampaignBackend>,
    ) -> std::io::Result<Server> {
        let registry = Arc::new(Registry::new(
            config.queue_capacity,
            config.data_dir.clone(),
        )?);
        let pool = WorkerPool::spawn(Arc::clone(&registry), Arc::clone(&backend), config.workers);
        let shared = Arc::new(Shared {
            registry,
            backend,
            shutdown: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        });

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stop_accepting = Arc::new(AtomicBool::new(false));

        let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let handler_threads = (0..config.handlers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("symbist-http-{i}"))
                    .spawn(move || handler_loop(&rx, &shared))
                    .expect("spawn handler thread")
            })
            .collect();

        let acceptor = {
            let stop = Arc::clone(&stop_accepting);
            std::thread::Builder::new()
                .name("symbist-accept".into())
                .spawn(move || accept_loop(listener, tx, &stop))
                .expect("spawn acceptor thread")
        };

        Ok(Server {
            shared,
            addr,
            stop_accepting,
            acceptor,
            handler_threads,
            pool,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The job registry (for in-process inspection in tests).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// Requests a graceful shutdown, as `POST /v1/shutdown` does. Returns
    /// immediately; [`wait`](Self::wait) performs the actual drain.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until shutdown is requested (via
    /// [`request_shutdown`](Self::request_shutdown) or `POST /v1/shutdown`),
    /// then drains: running jobs are cancelled to their checkpoints and
    /// persisted as `queued`, in-flight responses finish, and every
    /// thread joins. After this returns, a new server on the same data
    /// directory resumes the interrupted jobs bit-identically.
    pub fn wait(self) {
        {
            let mut down = self
                .shared
                .shutdown
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            while !*down {
                down = self
                    .shared
                    .shutdown_cv
                    .wait(down)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        // Drain order matters: cancel jobs first so live NDJSON streams
        // reach a terminal record set and handler threads can finish.
        self.shared.registry.begin_drain();
        self.pool.join();
        // Unblock the acceptor (it may be parked in accept()).
        self.stop_accepting.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        // The acceptor owned the channel sender; handlers drain what was
        // queued, then exit on the closed channel.
        for handle in self.handler_threads {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, tx: SyncSender<TcpStream>, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                // Handler pool saturated: refuse inline, never queue.
                let _ = write_error(
                    &mut stream,
                    &ApiError::new(429, "saturated", "handler pool saturated").with_retry_after(1),
                );
                // The request was never read, so a plain close would RST
                // the connection and could destroy the in-flight 429.
                // Half-close instead and give the client a moment to
                // drain the response (EOF or timeout, whichever first).
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                let mut sink = [0u8; 512];
                while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

fn handler_loop(rx: &Mutex<Receiver<TcpStream>>, shared: &Shared) {
    loop {
        let stream = {
            let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        match stream {
            Ok(stream) => handle_connection(stream, shared),
            Err(_) => break, // acceptor gone, queue drained
        }
    }
}

// ---------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------

const MAX_HEADER_BYTES: usize = 8 * 1024;
const MAX_BODY_BYTES: usize = 64 * 1024;
/// Stream-follow tick: how often a results stream re-checks for new
/// records (and notices client disconnects) when the job is idle.
const FOLLOW_TICK: Duration = Duration::from_millis(50);

struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

enum ParseFailure {
    /// Protocol error worth a status response.
    Bad(u16, &'static str),
    /// Dead/empty connection; just close.
    Drop,
}

fn parse_request(reader: &mut BufReader<TcpStream>) -> Result<Request, ParseFailure> {
    let mut line = String::new();
    if reader
        .read_line(&mut line)
        .map_err(|_| ParseFailure::Drop)?
        == 0
    {
        return Err(ParseFailure::Drop);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(ParseFailure::Bad(400, "malformed request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(ParseFailure::Bad(400, "malformed request line"))?;
    // Strip any query string; no endpoint takes one.
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    let mut header_bytes = line.len();
    loop {
        let mut header = String::new();
        if reader
            .read_line(&mut header)
            .map_err(|_| ParseFailure::Drop)?
            == 0
        {
            return Err(ParseFailure::Drop);
        }
        header_bytes += header.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(ParseFailure::Bad(431, "header block too large"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ParseFailure::Bad(400, "bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ParseFailure::Bad(413, "body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|_| ParseFailure::Drop)?;
    Ok(Request { method, path, body })
}

// ---------------------------------------------------------------------
// Response writing
// ---------------------------------------------------------------------

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// The one shape every non-2xx response takes:
/// `{"error": {"code", "message", "retry_after?", "diagnostics?"}}`.
///
/// `code` is the stable machine-readable contract — clients match on it,
/// never on `message` text. The codes in use: `bad_request`, `not_found`,
/// `method_not_allowed`, `conflict`, `payload_too_large`, `lint_failed`,
/// `saturated`, `header_too_large`, `queue_full`, `draining`,
/// `quota_exceeded`, `internal`.
///
/// `quota_exceeded` is deliberately a `403`, not a `429`: the client's
/// retry policy treats `429` as transient saturation and retries with
/// backoff, but a full registry quota does not heal by waiting — it heals
/// by an operator raising the limit or retiring DUTs.
#[derive(Debug, Clone)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable error slug.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Seconds to wait before retrying (also sent as `Retry-After`).
    pub retry_after: Option<u64>,
    /// Structured detail, e.g. the lint report on `422`.
    pub diagnostics: Option<Json>,
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
            retry_after: None,
            diagnostics: None,
        }
    }

    fn with_retry_after(mut self, seconds: u64) -> ApiError {
        self.retry_after = Some(seconds);
        self
    }

    fn with_diagnostics(mut self, diagnostics: Json) -> ApiError {
        self.diagnostics = Some(diagnostics);
        self
    }

    fn not_found(message: impl Into<String>) -> ApiError {
        ApiError::new(404, "not_found", message)
    }

    fn method_not_allowed() -> ApiError {
        ApiError::new(405, "method_not_allowed", "method not allowed")
    }

    /// The JSON envelope body.
    fn envelope(&self) -> Json {
        let mut fields = vec![
            ("code".to_string(), Json::str(self.code)),
            ("message".to_string(), Json::str(self.message.clone())),
        ];
        if let Some(seconds) = self.retry_after {
            fields.push(("retry_after".to_string(), Json::num(seconds as f64)));
        }
        if let Some(diagnostics) = &self.diagnostics {
            fields.push(("diagnostics".to_string(), diagnostics.clone()));
        }
        Json::obj([("error", Json::Obj(fields.into_iter().collect()))])
    }
}

/// Writes an [`ApiError`] envelope; `retry_after` doubles as the
/// `Retry-After` header.
fn write_error(stream: &mut TcpStream, error: &ApiError) -> std::io::Result<u16> {
    let retry = error.retry_after.map(|s| s.to_string());
    let headers: Vec<(&str, &str)> = retry.iter().map(|r| ("Retry-After", r.as_str())).collect();
    write_response(stream, error.status, &headers, error.envelope())
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: Json,
) -> std::io::Result<u16> {
    write_payload(
        stream,
        status,
        extra_headers,
        "application/json",
        &format!("{body}\n"),
    )
}

/// Writes a non-JSON body (the Prometheus exposition, trace NDJSON).
fn write_text_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<u16> {
    write_payload(stream, status, &[], content_type, body)
}

fn write_payload(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    content_type: &str,
    payload: &str,
) -> std::io::Result<u16> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nConnection: close\r\n\
         Content-Type: {content_type}\r\nContent-Length: {}\r\n",
        status_reason(status),
        payload.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()?;
    Ok(status)
}

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // A slow or stalled client must not pin a handler thread forever —
    // except while streaming, where the write path has its own pacing.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    let start = Instant::now();
    let request = match parse_request(&mut reader) {
        Ok(request) => request,
        Err(ParseFailure::Bad(status, message)) => {
            let code = match status {
                413 => "payload_too_large",
                431 => "header_too_large",
                _ => "bad_request",
            };
            let written = write_error(&mut stream, &ApiError::new(status, code, message));
            record_request_metrics(written, start);
            return;
        }
        Err(ParseFailure::Drop) => return,
    };
    // Fault-injection site `http/response:{METHOD} {path}`: `drop` kills
    // the connection without a response (a worker dying mid-request);
    // `reject` synthesizes the transient `503 queue_full` answer a loaded
    // worker would give. Both exercise real client retry paths.
    if symbist_obs::fault::active() {
        match symbist_obs::fault::fire(&format!(
            "http/response:{} {}",
            request.method, request.path
        )) {
            Some(symbist_obs::FaultAction::Drop) => return,
            Some(symbist_obs::FaultAction::Reject) => {
                let error = ApiError::new(503, "queue_full", "fault-injected transient rejection")
                    .with_retry_after(1);
                let written = write_error(&mut stream, &error);
                record_request_metrics(written, start);
                return;
            }
            _ => {}
        }
    }
    let _span = symbist_obs::span!("http_request");
    let written = route(&mut stream, &request, shared);
    record_request_metrics(written, start);
}

/// Bumps the per-status-class request counter and latency histogram for
/// one completed response. An `Err` means the client vanished mid-write;
/// that response was never delivered, so it is not counted.
fn record_request_metrics(written: std::io::Result<u16>, start: Instant) {
    let Ok(status) = written else { return };
    const HELP: &str = "HTTP responses, by status class";
    let counter = match status / 100 {
        2 => symbist_obs::counter!(r#"symbist_service_requests_total{class="2xx"}"#, HELP),
        3 => symbist_obs::counter!(r#"symbist_service_requests_total{class="3xx"}"#, HELP),
        4 => symbist_obs::counter!(r#"symbist_service_requests_total{class="4xx"}"#, HELP),
        _ => symbist_obs::counter!(r#"symbist_service_requests_total{class="5xx"}"#, HELP),
    };
    counter.inc();
    symbist_obs::histogram!(
        "symbist_service_request_seconds",
        "Wall time from request parse to response flush",
        symbist_obs::SECONDS_EDGES
    )
    .record(start.elapsed().as_secs_f64());
}

/// Splits `/jobs/{id}`-style paths. Returns the id and the trailing
/// segment (e.g. `"results"`), if any.
fn parse_job_path<'a>(path: &'a str, prefix: &str) -> Option<(JobId, Option<&'a str>)> {
    let rest = path.strip_prefix(prefix)?;
    match rest.split_once('/') {
        None => Some((rest.parse().ok()?, None)),
        Some((id, tail)) => Some((id.parse().ok()?, Some(tail))),
    }
}

fn route(stream: &mut TcpStream, request: &Request, shared: &Shared) -> std::io::Result<u16> {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match path.strip_prefix("/v1") {
        Some(rest) if rest.starts_with('/') => route_v1(stream, method, rest, request, shared),
        _ => write_error(stream, &ApiError::not_found("no such route")),
    }
}

fn route_v1(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    request: &Request,
    shared: &Shared,
) -> std::io::Result<u16> {
    match (method, path) {
        ("GET", "/healthz") => {
            write_response(stream, 200, &[], Json::obj([("status", Json::str("ok"))]))
        }
        ("GET", "/stats") => {
            let s = shared.registry.stats();
            write_response(
                stream,
                200,
                &[],
                Json::obj([
                    ("queue_depth", Json::num(s.queue_depth as f64)),
                    ("queue_capacity", Json::num(s.queue_capacity as f64)),
                    ("running", Json::num(s.running as f64)),
                    ("submitted", Json::num(s.submitted as f64)),
                    ("completed", Json::num(s.completed as f64)),
                    ("failed", Json::num(s.failed as f64)),
                    ("cancelled", Json::num(s.cancelled as f64)),
                    ("rejected", Json::num(s.rejected as f64)),
                    ("accepting", Json::Bool(shared.registry.accepting())),
                ]),
            )
        }
        ("GET", "/universe") => write_response(
            stream,
            200,
            &[],
            Json::obj([("defects", Json::num(shared.backend.universe_len() as f64))]),
        ),
        ("GET", "/metrics") => write_text_response(
            stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &symbist_obs::registry().render_prometheus(),
        ),
        ("POST", "/jobs") => submit_job(stream, &request.body, shared),
        ("POST", "/duts") => upload_dut(stream, &request.body, shared),
        ("GET", "/duts") => list_duts(stream, shared),
        ("POST", "/shutdown") => {
            shared.request_shutdown();
            write_response(
                stream,
                202,
                &[],
                Json::obj([("status", Json::str("draining"))]),
            )
        }
        _ => route_job(stream, method, path, shared),
    }
}

fn route_job(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    shared: &Shared,
) -> std::io::Result<u16> {
    if let Some((id, tail)) = parse_job_path(path, "/report/") {
        return match (method, tail) {
            ("GET", None) => report(stream, id, shared),
            _ => write_error(stream, &ApiError::method_not_allowed()),
        };
    }
    if let Some((id, tail)) = parse_job_path(path, "/lint/") {
        return match (method, tail) {
            ("GET", None) => lint_report(stream, id, shared),
            _ => write_error(stream, &ApiError::method_not_allowed()),
        };
    }
    if let Some(reference) = path.strip_prefix("/duts/") {
        if let Some(reference) = reference.strip_suffix("/analysis") {
            if !reference.is_empty() && !reference.contains('/') {
                return match method {
                    "GET" => dut_analysis(stream, reference, shared),
                    _ => write_error(stream, &ApiError::method_not_allowed()),
                };
            }
        }
        return match (method, reference.contains('/')) {
            ("GET", false) => get_dut(stream, reference, shared),
            (_, false) => write_error(stream, &ApiError::method_not_allowed()),
            _ => write_error(stream, &ApiError::not_found("no such route")),
        };
    }
    let Some((id, tail)) = parse_job_path(path, "/jobs/") else {
        return write_error(stream, &ApiError::not_found("no such route"));
    };
    match (method, tail) {
        ("GET", None) => job_status(stream, id, shared),
        ("GET", Some("results")) => stream_results(stream, id, shared),
        ("GET", Some("trace")) => job_trace(stream, id, shared),
        ("DELETE", None) => cancel_job(stream, id, shared),
        (_, None | Some("results" | "trace")) => {
            write_error(stream, &ApiError::method_not_allowed())
        }
        _ => write_error(stream, &ApiError::not_found("no such route")),
    }
}

fn submit_job(stream: &mut TcpStream, body: &[u8], shared: &Shared) -> std::io::Result<u16> {
    let text = match std::str::from_utf8(body) {
        Ok(text) if !text.trim().is_empty() => text,
        _ => {
            return write_error(
                stream,
                &ApiError::new(400, "bad_request", "expected a JSON job spec body"),
            )
        }
    };
    let spec = match JobSpec::from_json_text(text) {
        Ok(spec) => spec,
        Err(e) => return write_error(stream, &ApiError::new(400, "bad_request", e.0)),
    };
    if let Err(e) = shared.backend.validate(&spec) {
        return write_error(stream, &ApiError::new(400, "bad_request", e.0));
    }
    // Static pre-flight: a DUT/universe that fails Error-level lints
    // would burn a worker slot on a campaign doomed to NoConvergence or
    // corrupted coverage — reject before the job touches the queue.
    let lint = shared.backend.preflight(&spec);
    if lint.has_errors() {
        let error = ApiError::new(
            422,
            "lint_failed",
            "pre-flight lint failed: the DUT or defect universe is structurally broken",
        )
        .with_diagnostics(lint.to_json());
        return write_error(stream, &error);
    }
    match shared.registry.submit(spec) {
        Ok(job) => write_response(
            stream,
            201,
            &[],
            Json::obj([
                ("id", Json::num(job.id as f64)),
                ("state", Json::str(job.state().label())),
            ]),
        ),
        Err(e @ SubmitError::QueueFull { .. }) => write_error(
            stream,
            &ApiError::new(503, "queue_full", e.to_string()).with_retry_after(1),
        ),
        Err(e @ SubmitError::Draining) => {
            write_error(stream, &ApiError::new(503, "draining", e.to_string()))
        }
    }
}

/// One registered DUT as the `/v1/duts` wire shape. `detail` adds the
/// cached lint report (list responses stay small).
fn dut_json(entry: &DutEntry, detail: bool) -> Json {
    let spec = entry.spec();
    let invariances: Vec<Json> = spec
        .invariances
        .iter()
        .map(|inv| {
            Json::obj([
                ("name", Json::str(inv.name.clone())),
                (
                    "kind",
                    Json::str(match inv.kind {
                        InvarianceKind::Complementary { .. } => "complementary",
                        InvarianceKind::Replica => "replica",
                    }),
                ),
            ])
        })
        .collect();
    let mut fields = vec![
        ("id", Json::str(entry.id.clone())),
        ("name", Json::str(spec.name.clone())),
        ("tenant", Json::str(spec.tenant.clone())),
        ("seq", Json::num(entry.seq as f64)),
        ("defects", Json::num(entry.model.universe.len() as f64)),
        (
            "components",
            Json::num(entry.model.dut.template().device_count() as f64),
        ),
        ("invariances", Json::Arr(invariances)),
    ];
    if detail {
        fields.push(("lint", entry.lint.to_json()));
    }
    Json::obj(fields)
}

/// `POST /v1/duts`: parse → content-hash dedup → lint gate → quota →
/// persist. `201` for new content, `200` with the cached entry (and its
/// cached lint report) for an identical re-upload.
fn upload_dut(stream: &mut TcpStream, body: &[u8], shared: &Shared) -> std::io::Result<u16> {
    let Some(registry) = shared.backend.dut_registry() else {
        return write_error(
            stream,
            &ApiError::not_found("this server has no DUT registry"),
        );
    };
    let text = match std::str::from_utf8(body) {
        Ok(text) if !text.trim().is_empty() => text,
        _ => {
            return write_error(
                stream,
                &ApiError::new(400, "bad_request", "expected a JSON DUT spec body"),
            )
        }
    };
    let spec = match DutSpec::from_json_text(text) {
        Ok(spec) => spec,
        Err(e) => return write_error(stream, &ApiError::new(400, "bad_request", e.0)),
    };
    match registry.upload(spec) {
        Ok(outcome) => {
            let status = if outcome.created() { 201 } else { 200 };
            let entry = outcome.entry();
            let mut body = dut_json(entry, true);
            if let Json::Obj(map) = &mut body {
                map.insert("created".into(), Json::Bool(outcome.created()));
            }
            write_response(stream, status, &[], body)
        }
        Err(UploadError::Lint(report)) => {
            let error = ApiError::new(
                422,
                "lint_failed",
                "DUT rejected by lint preflight: the netlist or its defect \
                 universe is structurally broken",
            )
            .with_diagnostics(report.to_json());
            write_error(stream, &error)
        }
        Err(e @ UploadError::Quota { .. }) => {
            // 403, not 429: quota exhaustion is not transient, so the
            // client's backoff-and-retry loop must not touch it.
            write_error(stream, &ApiError::new(403, "quota_exceeded", e.to_string()))
        }
        Err(UploadError::Io(e)) => write_error(
            stream,
            &ApiError::new(500, "internal", format!("registry persistence failed: {e}")),
        ),
        Err(e) => write_error(stream, &ApiError::new(400, "bad_request", e.to_string())),
    }
}

/// `GET /v1/duts`: every registered DUT, in upload order.
fn list_duts(stream: &mut TcpStream, shared: &Shared) -> std::io::Result<u16> {
    let Some(registry) = shared.backend.dut_registry() else {
        return write_error(
            stream,
            &ApiError::not_found("this server has no DUT registry"),
        );
    };
    let duts: Vec<Json> = registry
        .list()
        .iter()
        .map(|entry| dut_json(entry, false))
        .collect();
    write_response(stream, 200, &[], Json::obj([("duts", Json::Arr(duts))]))
}

/// `GET /v1/duts/{id-or-name}`: full detail including the cached lint
/// report and the universe size a coordinator needs to shard over it.
fn get_dut(stream: &mut TcpStream, reference: &str, shared: &Shared) -> std::io::Result<u16> {
    let Some(registry) = shared.backend.dut_registry() else {
        return write_error(
            stream,
            &ApiError::not_found("this server has no DUT registry"),
        );
    };
    match registry.get(reference) {
        Some(entry) => write_response(stream, 200, &[], dut_json(&entry, true)),
        None => write_error(stream, &ApiError::not_found("no such DUT")),
    }
}

/// `GET /v1/duts/{id-or-name}/analysis`: the full stage-two static
/// analysis — symmetry orbits, the (orbit × defect kind) defect-class
/// partition, and detectability diagnostics — cached at upload time for
/// registered DUTs, computed once at startup for the baked-in ADC (the
/// reserved name resolves through the backend, not the registry).
fn dut_analysis(stream: &mut TcpStream, reference: &str, shared: &Shared) -> std::io::Result<u16> {
    let spec = JobSpec {
        dut: Some(reference.to_string()),
        ..JobSpec::default()
    };
    match shared.backend.analysis(&spec) {
        Some(report) => write_response(stream, 200, &[], report.to_json()),
        None => write_error(stream, &ApiError::not_found("no analysis for this DUT")),
    }
}

fn job_status(stream: &mut TcpStream, id: JobId, shared: &Shared) -> std::io::Result<u16> {
    match shared.registry.get(id) {
        Some(job) => write_response(stream, 200, &[], job.status().to_json()),
        None => write_error(stream, &ApiError::not_found("no such job")),
    }
}

fn cancel_job(stream: &mut TcpStream, id: JobId, shared: &Shared) -> std::io::Result<u16> {
    match shared.registry.get(id) {
        None => write_error(stream, &ApiError::not_found("no such job")),
        Some(job) if job.state().is_terminal() => write_error(
            stream,
            &ApiError::new(409, "conflict", "job already finished"),
        ),
        Some(job) => {
            shared.registry.cancel(id);
            write_response(
                stream,
                202,
                &[],
                Json::obj([
                    ("id", Json::num(job.id as f64)),
                    ("state", Json::str(job.state().label())),
                ]),
            )
        }
    }
}

/// Returns the pre-flight lint report the submission gate evaluated for
/// job `id`'s spec. Admitted jobs always show zero `errors`; the value is
/// in the warnings/info detail and in auditing what the gate saw. When
/// the backend has a static analyzer for the job's DUT, its orbit/class
/// summary rides along under `"analysis"` (full detail lives on
/// `GET /v1/duts/{id}/analysis`).
fn lint_report(stream: &mut TcpStream, id: JobId, shared: &Shared) -> std::io::Result<u16> {
    match shared.registry.get(id) {
        Some(job) => {
            let mut body = shared.backend.preflight(&job.spec).to_json();
            if let (Json::Obj(map), Some(analysis)) =
                (&mut body, shared.backend.analysis(&job.spec))
            {
                map.insert("analysis".into(), analysis.summary());
            }
            write_response(stream, 200, &[], body)
        }
        None => write_error(stream, &ApiError::not_found("no such job")),
    }
}

fn report(stream: &mut TcpStream, id: JobId, shared: &Shared) -> std::io::Result<u16> {
    let Some(job) = shared.registry.get(id) else {
        return write_error(stream, &ApiError::not_found("no such job"));
    };
    match (job.state(), job.report()) {
        (JobState::Completed, Some(report)) => write_response(stream, 200, &[], report.to_json()),
        (state, _) => write_error(
            stream,
            &ApiError::new(
                409,
                "conflict",
                format!("no report: job is {}", state.label()),
            ),
        ),
    }
}

/// Serves the spans captured under the job's trace scope as NDJSON in the
/// `chrome://tracing` Trace Event Format. Best-effort by design: the
/// global ring is bounded, so a long-running service eventually evicts
/// old jobs' spans — recent jobs are the ones worth inspecting.
fn job_trace(stream: &mut TcpStream, id: JobId, shared: &Shared) -> std::io::Result<u16> {
    if shared.registry.get(id).is_none() {
        return write_error(stream, &ApiError::not_found("no such job"));
    }
    let scope = format!("job-{id}");
    let mut body = String::new();
    for event in symbist_obs::tracer().snapshot_scope(&scope) {
        body.push_str(&event.to_json_line());
        body.push('\n');
    }
    write_text_response(stream, 200, "application/x-ndjson", &body)
}

/// Streams the job's record log as NDJSON, following a live job until it
/// reaches a terminal state. Lines use the campaign checkpoint format, so
/// clients parse them with `parse_checkpoint_line` and a completed
/// stream is byte-identical to the job's checkpoint modulo record order.
fn stream_results(stream: &mut TcpStream, id: JobId, shared: &Shared) -> std::io::Result<u16> {
    let Some(job) = shared.registry.get(id) else {
        return write_error(stream, &ApiError::not_found("no such job"));
    };
    // A client that vanishes mid-stream (broken pipe on a write below) is
    // routine, not an error: count it, release the handler slot, and move
    // on — a follower's death must never look like a server failure.
    match stream_results_body(stream, &job, shared) {
        Ok(()) => Ok(200),
        Err(_) => {
            symbist_obs::counter!(
                "symbist_service_stream_aborts_total",
                "NDJSON result streams cut short by a client disconnect"
            )
            .inc();
            Ok(200)
        }
    }
}

fn stream_results_body(
    stream: &mut TcpStream,
    job: &crate::job::Job,
    shared: &Shared,
) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nConnection: close\r\n\
          Content-Type: application/x-ndjson\r\n\r\n",
    )?;
    let mut sent = 0usize;
    loop {
        let (records, terminal) = job.records_from(sent);
        for record in &records {
            stream.write_all(checkpoint_line(record).as_bytes())?;
            stream.write_all(b"\n")?;
        }
        stream.flush()?;
        sent += records.len();
        if terminal && records.is_empty() {
            return Ok(());
        }
        if records.is_empty() {
            // A drained registry leaves queued jobs queued (they resume
            // after restart) — following one would outlive the server, so
            // end the stream.
            if !shared.registry.accepting() && job.state() == JobState::Queued {
                return Ok(());
            }
            // A failed write above is how we notice a gone client; the
            // wait ticks so a stalled job can't pin the handler forever
            // without re-checking.
            job.wait_progress(sent, FOLLOW_TICK);
        }
    }
}
