//! A small blocking client for the service API — used by the example,
//! the integration tests, and the throughput benchmarks. One TCP
//! connection per request, mirroring the server's one-request-per-
//! connection model.
//!
//! Construction goes through [`Client::builder`]; the builder defaults to
//! the versioned `/v1` API surface:
//!
//! ```no_run
//! use std::time::Duration;
//! use symbist_service::Client;
//!
//! let client = Client::builder()
//!     .base_url("127.0.0.1:7171")
//!     .timeout(Duration::from_secs(5))
//!     .retries(2)
//!     .build();
//! # let _ = client;
//! ```
//!
//! Server-side failures arrive as [`ClientError::Service`] carrying a
//! typed [`ServiceError`] parsed from the error envelope — match on the
//! variant, never on message text.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use symbist_defects::checkpoint::parse_checkpoint_line;
use symbist_defects::DefectRecord;
use symbist_dut::DutSpec;

use crate::backoff::{Backoff, DEFAULT_BASE, DEFAULT_CAP};
use crate::job::JobId;
use crate::spec::JobSpec;
use crate::Json;

/// A non-2xx response, parsed from the service's typed error envelope
/// (`{"error": {"code", "message", ...}}`) into the matching variant.
/// Unknown or future codes land in [`ServiceError::Other`], so adding a
/// server-side code is not a client-breaking change.
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// `400 bad_request`: malformed body, spec, or parameters.
    BadRequest(String),
    /// `404 not_found`: no such job or route.
    NotFound(String),
    /// `405 method_not_allowed`.
    MethodNotAllowed(String),
    /// `409 conflict`: the job's state refuses the operation.
    Conflict(String),
    /// `413 payload_too_large`.
    PayloadTooLarge(String),
    /// `403 quota_exceeded`: the tenant's DUT-registry quota is full.
    /// Deliberately not `429`: a quota does not heal by waiting, so the
    /// client must never auto-retry it.
    QuotaExceeded(String),
    /// `422 lint_failed`: the pre-flight lint gate rejected the spec;
    /// `diagnostics` holds the lint report.
    LintFailed {
        /// Envelope message.
        message: String,
        /// The lint report (errors/warnings/diagnostics), when present.
        diagnostics: Option<Json>,
    },
    /// `429 saturated`: the handler pool refused the connection.
    Saturated {
        /// Envelope message.
        message: String,
        /// Server retry hint in seconds.
        retry_after: Option<u64>,
    },
    /// `503 queue_full`: the bounded job queue is at capacity.
    QueueFull {
        /// Envelope message.
        message: String,
        /// Server retry hint in seconds.
        retry_after: Option<u64>,
    },
    /// `503 draining`: the service is shutting down.
    Draining(String),
    /// Any other status/code pair, including codes newer than this client.
    Other {
        /// HTTP status code.
        status: u16,
        /// The envelope's `code` slug (empty when unparseable).
        code: String,
        /// Envelope (or raw body) message.
        message: String,
    },
}

impl ServiceError {
    /// The HTTP status this error arrived with.
    pub fn status(&self) -> u16 {
        match self {
            ServiceError::BadRequest(_) => 400,
            ServiceError::NotFound(_) => 404,
            ServiceError::MethodNotAllowed(_) => 405,
            ServiceError::Conflict(_) => 409,
            ServiceError::PayloadTooLarge(_) => 413,
            ServiceError::QuotaExceeded(_) => 403,
            ServiceError::LintFailed { .. } => 422,
            ServiceError::Saturated { .. } => 429,
            ServiceError::QueueFull { .. } | ServiceError::Draining(_) => 503,
            ServiceError::Other { status, .. } => *status,
        }
    }

    /// The server's retry hint in seconds, when it gave one.
    pub fn retry_after(&self) -> Option<u64> {
        match self {
            ServiceError::Saturated { retry_after, .. }
            | ServiceError::QueueFull { retry_after, .. } => *retry_after,
            _ => None,
        }
    }

    /// Parses a non-2xx body. Falls back to [`ServiceError::Other`] with
    /// the raw body when the envelope is absent or malformed.
    fn parse(status: u16, body: &str) -> ServiceError {
        let envelope = Json::parse(body)
            .ok()
            .and_then(|doc| doc.get("error").cloned());
        let Some(envelope) = envelope else {
            return ServiceError::Other {
                status,
                code: String::new(),
                message: body.trim().to_string(),
            };
        };
        let field = |name: &str| {
            envelope
                .get(name)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let code = field("code");
        let message = field("message");
        let retry_after = envelope.get("retry_after").and_then(Json::as_u64);
        let diagnostics = envelope.get("diagnostics").cloned();
        match code.as_str() {
            "bad_request" => ServiceError::BadRequest(message),
            "not_found" => ServiceError::NotFound(message),
            "method_not_allowed" => ServiceError::MethodNotAllowed(message),
            "conflict" => ServiceError::Conflict(message),
            "payload_too_large" => ServiceError::PayloadTooLarge(message),
            "quota_exceeded" => ServiceError::QuotaExceeded(message),
            "lint_failed" => ServiceError::LintFailed {
                message,
                diagnostics,
            },
            "saturated" => ServiceError::Saturated {
                message,
                retry_after,
            },
            "queue_full" => ServiceError::QueueFull {
                message,
                retry_after,
            },
            "draining" => ServiceError::Draining(message),
            _ => ServiceError::Other {
                status,
                code,
                message,
            },
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::NotFound(m) => write!(f, "not found: {m}"),
            ServiceError::MethodNotAllowed(m) => write!(f, "method not allowed: {m}"),
            ServiceError::Conflict(m) => write!(f, "conflict: {m}"),
            ServiceError::PayloadTooLarge(m) => write!(f, "payload too large: {m}"),
            ServiceError::QuotaExceeded(m) => write!(f, "quota exceeded: {m}"),
            ServiceError::LintFailed { message, .. } => write!(f, "lint failed: {message}"),
            ServiceError::Saturated { message, .. } => write!(f, "saturated: {message}"),
            ServiceError::QueueFull { message, .. } => write!(f, "queue full: {message}"),
            ServiceError::Draining(m) => write!(f, "draining: {m}"),
            ServiceError::Other {
                status,
                code,
                message,
            } => write!(f, "HTTP {status} ({code}): {message}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server answered with a non-2xx status; the typed envelope.
    Service(ServiceError),
    /// The response violated the wire contract.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Service(e) => write!(f, "service error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A parsed (non-streaming) response.
struct Response {
    status: u16,
    body: String,
}

impl Response {
    fn json(&self) -> Result<Json, ClientError> {
        Json::parse(&self.body).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    fn check(self) -> Result<Response, ClientError> {
        if (200..300).contains(&self.status) {
            return Ok(self);
        }
        Err(ClientError::Service(ServiceError::parse(
            self.status,
            &self.body,
        )))
    }
}

/// Configures and builds a [`Client`]; see [`Client::builder`].
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    addr: String,
    base_path: String,
    timeout: Duration,
    retries: u32,
    backoff_base: Duration,
    backoff_cap: Duration,
    backoff_seed: u64,
}

impl Default for ClientBuilder {
    fn default() -> Self {
        ClientBuilder {
            addr: String::new(),
            base_path: "/v1".to_string(),
            timeout: Duration::from_secs(30),
            retries: 0,
            backoff_base: DEFAULT_BASE,
            backoff_cap: DEFAULT_CAP,
            backoff_seed: 0x5EED0FF,
        }
    }
}

impl ClientBuilder {
    /// Sets the service address, optionally with an API path prefix:
    /// `"127.0.0.1:7171"` targets the default `/v1` surface, while
    /// `"127.0.0.1:7171/v1"` (or a future `/v2`) pins one explicitly.
    pub fn base_url(mut self, base: impl Into<String>) -> ClientBuilder {
        let base = base.into();
        match base.find('/') {
            Some(slash) => {
                self.addr = base[..slash].to_string();
                self.base_path = base[slash..].trim_end_matches('/').to_string();
            }
            None => self.addr = base,
        }
        self
    }

    /// Overrides the per-request read timeout (default 30 s). Streaming
    /// reads use it per line, not per stream.
    pub fn timeout(mut self, timeout: Duration) -> ClientBuilder {
        self.timeout = timeout;
        self
    }

    /// How many times to re-send a request that provably never entered
    /// the service: transport connect failures and `429 saturated`
    /// refusals (the acceptor answered before reading the request).
    /// Definitive answers — `503 queue_full` included — are never
    /// retried. Default 0.
    pub fn retries(mut self, retries: u32) -> ClientBuilder {
        self.retries = retries;
        self
    }

    /// Tunes the retry backoff schedule: sleeps are drawn with
    /// decorrelated jitter from `[base, cap]` (see [`Backoff`]), with the
    /// server's `Retry-After` applied as a floor on top.
    pub fn backoff(mut self, base: Duration, cap: Duration) -> ClientBuilder {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Seeds the jitter RNG so a retry schedule is reproducible in tests.
    pub fn backoff_seed(mut self, seed: u64) -> ClientBuilder {
        self.backoff_seed = seed;
        self
    }

    /// Builds the client.
    pub fn build(self) -> Client {
        Client {
            addr: self.addr,
            base_path: self.base_path,
            timeout: self.timeout,
            retries: self.retries,
            backoff_base: self.backoff_base,
            backoff_cap: self.backoff_cap,
            backoff_seed: self.backoff_seed,
        }
    }
}

/// Blocking HTTP client bound to one service address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    base_path: String,
    timeout: Duration,
    retries: u32,
    backoff_base: Duration,
    backoff_cap: Duration,
    backoff_seed: u64,
}

impl Client {
    /// Starts a [`ClientBuilder`] targeting the `/v1` API by default.
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    fn url(&self, path: &str) -> String {
        format!("{}{path}", self.base_path)
    }

    fn connect(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<TcpStream, ClientError> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        stream.flush()?;
        Ok(stream)
    }

    fn request_once(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, ClientError> {
        let stream = self.connect(method, path, body)?;
        let mut reader = BufReader::new(stream);
        let status = read_status(&mut reader)?;
        skip_headers(&mut reader)?;
        let mut body = String::new();
        reader.read_to_string(&mut body)?; // EOF-delimited: Connection: close
        Ok(Response { status, body })
    }

    /// One request, with the builder's retry policy: only failures where
    /// the request never entered the service (connect errors, `429`) are
    /// re-sent. Sleeps follow the seeded decorrelated-jitter [`Backoff`]
    /// schedule, with the server's `Retry-After` honored as a floor — a
    /// loaded server's hint can only lengthen the wait, never shorten it.
    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, ClientError> {
        let mut attempt = 0;
        let mut backoff = Backoff::new(self.backoff_seed, self.backoff_base, self.backoff_cap);
        loop {
            let result = self.request_once(method, path, body);
            let retryable = match &result {
                Err(ClientError::Io(_)) => true,
                Ok(response) if response.status == 429 => true,
                _ => false,
            };
            if !retryable || attempt >= self.retries {
                return result;
            }
            attempt += 1;
            let floor = match &result {
                Ok(response) => ServiceError::parse(response.status, &response.body)
                    .retry_after()
                    .map(Duration::from_secs),
                Err(_) => None,
            };
            std::thread::sleep(backoff.next(floor));
        }
    }

    /// `GET /v1/healthz`.
    pub fn health(&self) -> Result<(), ClientError> {
        self.request("GET", &self.url("/healthz"), None)?
            .check()
            .map(|_| ())
    }

    /// `GET /v1/stats`.
    pub fn stats(&self) -> Result<Json, ClientError> {
        self.request("GET", &self.url("/stats"), None)?
            .check()?
            .json()
    }

    /// `GET /v1/metrics`: the raw Prometheus text exposition.
    pub fn metrics(&self) -> Result<String, ClientError> {
        self.request("GET", &self.url("/metrics"), None)?
            .check()
            .map(|r| r.body)
    }

    /// `GET /v1/universe`: the size of the backend's full defect universe
    /// (the catalog-index domain shard ranges address).
    pub fn universe(&self) -> Result<u64, ClientError> {
        self.request("GET", &self.url("/universe"), None)?
            .check()?
            .json()?
            .get("defects")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("universe response missing defects".into()))
    }

    /// `POST /v1/jobs`: submits a spec, returning the new job id.
    /// Queue-full backpressure surfaces as
    /// `ClientError::Service(ServiceError::QueueFull { .. })`.
    pub fn submit(&self, spec: &JobSpec) -> Result<JobId, ClientError> {
        let body = spec.to_json().to_string();
        let response = self
            .request("POST", &self.url("/jobs"), Some(&body))?
            .check()?;
        response
            .json()?
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("submit response missing id".into()))
    }

    /// `GET /v1/jobs/{id}`: the raw status document.
    pub fn status(&self, id: JobId) -> Result<Json, ClientError> {
        self.request("GET", &self.url(&format!("/jobs/{id}")), None)?
            .check()?
            .json()
    }

    /// `DELETE /v1/jobs/{id}`.
    pub fn cancel(&self, id: JobId) -> Result<(), ClientError> {
        self.request("DELETE", &self.url(&format!("/jobs/{id}")), None)?
            .check()
            .map(|_| ())
    }

    /// `GET /v1/report/{id}`: the final coverage report (completed jobs).
    pub fn report(&self, id: JobId) -> Result<Json, ClientError> {
        self.request("GET", &self.url(&format!("/report/{id}")), None)?
            .check()?
            .json()
    }

    /// `GET /v1/lint/{id}`: the pre-flight lint report evaluated for the
    /// job's DUT and defect universe at submission.
    pub fn lint(&self, id: JobId) -> Result<Json, ClientError> {
        self.request("GET", &self.url(&format!("/lint/{id}")), None)?
            .check()?
            .json()
    }

    /// `GET /v1/jobs/{id}/trace`: the job's captured trace spans as
    /// `chrome://tracing` NDJSON (one event object per line).
    pub fn trace(&self, id: JobId) -> Result<String, ClientError> {
        self.request("GET", &self.url(&format!("/jobs/{id}/trace")), None)?
            .check()
            .map(|r| r.body)
    }

    /// `POST /v1/duts`: registers a DUT (netlist + invariance spec) and
    /// returns the response document (`id`, `created`, `defects`, ...).
    ///
    /// Uploads are content-addressed and idempotent, so the builder's
    /// retry policy — transport errors and `429` only, failures where the
    /// request provably never entered the service — is safe here too: a
    /// retry that races a success just returns the existing entry.
    /// Definitive rejections (`422 lint_failed`, `403 quota_exceeded`,
    /// `400 bad_request`) are never retried.
    pub fn upload_dut(&self, spec: &DutSpec) -> Result<Json, ClientError> {
        self.upload_dut_json(&spec.to_json().to_string())
    }

    /// `POST /v1/duts` with a pre-serialized JSON spec body (e.g. read
    /// from a file); see [`Client::upload_dut`].
    pub fn upload_dut_json(&self, body: &str) -> Result<Json, ClientError> {
        self.request("POST", &self.url("/duts"), Some(body))?
            .check()?
            .json()
    }

    /// `GET /v1/duts/{id-or-name}`: one registered DUT's document,
    /// including its cached lint report.
    pub fn get_dut(&self, reference: &str) -> Result<Json, ClientError> {
        self.request("GET", &self.url(&format!("/duts/{reference}")), None)?
            .check()?
            .json()
    }

    /// `GET /v1/duts/{id-or-name}/analysis`: the DUT's stage-two static
    /// analysis (symmetry orbits, defect-class partition, detectability),
    /// cached server-side at upload.
    pub fn dut_analysis(&self, reference: &str) -> Result<Json, ClientError> {
        self.request(
            "GET",
            &self.url(&format!("/duts/{reference}/analysis")),
            None,
        )?
        .check()?
        .json()
    }

    /// `GET /v1/duts`: summaries of every registered DUT, upload order.
    pub fn list_duts(&self) -> Result<Vec<Json>, ClientError> {
        let doc = self
            .request("GET", &self.url("/duts"), None)?
            .check()?
            .json()?;
        match doc.get("duts") {
            Some(Json::Arr(items)) => Ok(items.clone()),
            _ => Err(ClientError::Protocol(
                "duts response missing duts array".into(),
            )),
        }
    }

    /// `POST /v1/shutdown`: asks the server to drain and exit.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        self.request("POST", &self.url("/shutdown"), None)?
            .check()
            .map(|_| ())
    }

    /// `GET /v1/jobs/{id}/results`: opens the NDJSON record stream. The
    /// iterator follows a live job and ends when the job reaches a
    /// terminal state.
    pub fn stream_results(&self, id: JobId) -> Result<ResultStream, ClientError> {
        let stream = self.connect("GET", &self.url(&format!("/jobs/{id}/results")), None)?;
        let mut reader = BufReader::new(stream);
        let status = read_status(&mut reader)?;
        if status != 200 {
            let mut body = String::new();
            skip_headers(&mut reader)?;
            reader.read_to_string(&mut body)?;
            return Response { status, body }.check().map(|_| unreachable!());
        }
        skip_headers(&mut reader)?;
        Ok(ResultStream { reader })
    }

    /// Polls `GET /v1/jobs/{id}` until the job reaches a terminal state,
    /// returning the final state label and status document.
    pub fn wait_terminal(&self, id: JobId, poll: Duration) -> Result<(String, Json), ClientError> {
        loop {
            let status = self.status(id)?;
            let state = status
                .get("state")
                .and_then(Json::as_str)
                .ok_or_else(|| ClientError::Protocol("status missing state".into()))?
                .to_string();
            if matches!(state.as_str(), "completed" | "failed" | "cancelled") {
                return Ok((state, status));
            }
            std::thread::sleep(poll);
        }
    }
}

fn read_status(reader: &mut BufReader<TcpStream>) -> Result<u16, ClientError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        // Connection closed before any status line: a transport failure
        // (retryable), not a protocol violation by the server.
        return Err(ClientError::Io(std::io::Error::from(
            std::io::ErrorKind::UnexpectedEof,
        )));
    }
    // "HTTP/1.1 200 OK"
    line.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad status line {line:?}")))
}

fn skip_headers(reader: &mut BufReader<TcpStream>) -> Result<(), ClientError> {
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
            return Ok(());
        }
    }
}

/// Iterator over a live NDJSON result stream; each item is one campaign
/// record, parsed with the checkpoint-line parser (the wire format *is*
/// the checkpoint format).
pub struct ResultStream {
    reader: BufReader<TcpStream>,
}

impl Iterator for ResultStream {
    type Item = Result<DefectRecord, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return None, // clean end of stream
                Ok(_) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    return Some(parse_checkpoint_line(&line).ok_or_else(|| {
                        ClientError::Protocol(format!("unparseable record line {line:?}"))
                    }));
                }
                Err(e) => return Some(Err(ClientError::Io(e))),
            }
        }
    }
}
