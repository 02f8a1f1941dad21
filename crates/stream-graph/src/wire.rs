//! JSONL wire format of the allocation service (`spg serve`).
//!
//! The protocol is line-oriented JSON over TCP: one request per line,
//! one response per line, responses carry the request's `id` so clients
//! may pipeline. A request's graph is sent as raw parts only (`ops`,
//! `edges`, `channels`) — derived structure is never trusted from the
//! wire; [`parse_request`] builds it once through the validating
//! [`StreamGraph::from_parts`] and then applies the numeric checks of
//! [`crate::serialize::validate_numbers`], the same checks dataset files
//! go through.
//!
//! ```text
//! → {"id":"r1","graph":{"ops":[{"ipt":100}, ...],"edges":[[0,1], ...],
//!    "channels":[{"payload":8,"selectivity":1}, ...]},
//!    "source_rate":10000,"devices":8}
//! ← {"id":"r1","placement":[0,2,1, ...],"relative_throughput":0.87,
//!    "cached":false}
//! → {"cmd":"shutdown"}
//! ```
//!
//! `source_rate` and `devices` are optional; a request that omits them
//! inherits the server's configured defaults. `devices`, on a request
//! or a realloc's delta, is at most [`crate::MAX_DEVICES`]. Every
//! failure is a named [`WireError`] rendered as an [`ErrorResponse`]
//! line — a malformed request never drops the connection.
//!
//! One single-pass scanner (`crate::wire_fast`) reads every request
//! line, builds no `Value` tree, and is the authority for what a line
//! may hold; its accept-set is listed there and pinned by
//! `tests/wire_accept_set.rs`. It is the request walk over
//! `serde_json::lex`, the lexer that `serde_json::from_str` also reads
//! with, so response parsing and the cold paths (datasets, checkpoints)
//! take the same JSON through the generic `Value` codec. A success
//! response is written straight into its line by
//! [`AllocResponse::to_line`], in the bytes that codec gave.
//!
//! ## Versioning
//!
//! Requests may carry an optional `"v"` field selecting the protocol
//! version. An absent `v` means **v1** and the response bytes are
//! exactly the pre-versioning format (no new fields appear on the
//! default path). `"v":2` opts into the v2 response shape, which echoes
//! `"v":2` and adds a `"shard"` field naming the replica that served
//! the request (for debugging routing). A version this server does not
//! speak is refused with the named `unsupported-version` error. Unknown
//! request fields are ignored in every version, so newer clients can
//! add fields without breaking older servers (forward compatibility).
//!
//! ## Incremental re-allocation (`realloc`, v2 only)
//!
//! A request line carrying a `"delta"` field is a [`ReallocRequest`]:
//! the prior graph, the prior placement, and a [`GraphDelta`] naming
//! the drift since (see `crate::delta`). The server projects the prior
//! placement onto the mutated graph and warm-starts refinement, falling
//! back to the full pipeline above a churn threshold; the response is a
//! normal [`AllocResponse`] whose optional `"realloc"` field reports
//! which path ran (`"warm"` or `"full"` — absent for an empty delta,
//! whose response reproduces the prior placement exactly, and on every
//! plain alloc). `realloc` requires `"v":2`; a v1 realloc is refused as
//! `bad-request`.

use crate::cluster::MAX_DEVICES;
use crate::delta::GraphDelta;
use crate::graph::{Channel, Operator, StreamGraph};
use crate::serialize::validate_numbers;
use crate::wire_fast::Scanned;
use serde::{Deserialize, Serialize, Value};
use std::fmt::{self, Write as _};

/// Named protocol error. The variant's [`WireError::code`] is what goes
/// over the wire in [`ErrorResponse::error`]; the payload is the
/// human-readable detail.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The line is not valid JSON, or parsed but is not a valid request.
    BadRequest(String),
    /// The request parsed but its graph failed structural or numeric
    /// validation.
    InvalidGraph(String),
    /// The request waited longer than the server's per-request deadline.
    Timeout(String),
    /// The request's own `deadline_ms` budget had already lapsed when it
    /// reached a replica; it was shed before any inference ran.
    DeadlineExceeded(String),
    /// The server's bounded request queue is full (backpressure).
    Overloaded(String),
    /// The server is draining after a shutdown request; no new work is
    /// accepted.
    Draining,
    /// Unexpected server-side failure (e.g. a caught worker panic).
    Internal(String),
    /// The request asked for a protocol version this server does not
    /// speak.
    UnsupportedVersion(String),
}

impl WireError {
    /// Stable machine-readable error code.
    pub fn code(&self) -> &'static str {
        match self {
            WireError::BadRequest(_) => "bad-request",
            WireError::InvalidGraph(_) => "invalid-graph",
            WireError::Timeout(_) => "timeout",
            WireError::DeadlineExceeded(_) => "deadline-exceeded",
            WireError::Overloaded(_) => "overloaded",
            WireError::Draining => "draining",
            WireError::Internal(_) => "internal",
            WireError::UnsupportedVersion(_) => "unsupported-version",
        }
    }

    /// Every stable error code, in declaration order. The single source
    /// of truth for the wire names — `spg-serve`'s `ServeError` and the
    /// name-pinning tests both delegate here.
    pub const CODES: [&'static str; 8] = [
        "bad-request",
        "invalid-graph",
        "timeout",
        "deadline-exceeded",
        "overloaded",
        "draining",
        "internal",
        "unsupported-version",
    ];

    /// Human-readable detail line.
    pub fn detail(&self) -> String {
        match self {
            WireError::BadRequest(d)
            | WireError::InvalidGraph(d)
            | WireError::Timeout(d)
            | WireError::DeadlineExceeded(d)
            | WireError::Overloaded(d)
            | WireError::Internal(d)
            | WireError::UnsupportedVersion(d) => d.clone(),
            WireError::Draining => "server is draining; not accepting new requests".to_string(),
        }
    }

    /// Render as the error-response line for request `id` (if known).
    pub fn response(&self, id: Option<String>) -> ErrorResponse {
        ErrorResponse {
            id,
            error: self.code().to_string(),
            detail: self.detail(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code(), self.detail())
    }
}

impl std::error::Error for WireError {}

/// A parsed request line.
// The enum is destructured immediately after parsing, so the size gap
// between its variants never lives on a hot path or in a collection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Allocate one graph.
    Alloc(AllocRequest),
    /// Incrementally re-allocate a drifted graph from a prior placement.
    Realloc(ReallocRequest),
    /// Stop accepting work, drain in-flight requests, exit.
    Shutdown,
}

/// An allocation request with its graph already validated.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocRequest {
    /// Client-chosen request id, echoed back in the response.
    pub id: String,
    /// The validated stream graph to place.
    pub graph: StreamGraph,
    /// Source tuple rate override (tuples/s); `None` inherits the
    /// server's configured rate.
    pub source_rate: Option<f64>,
    /// Device-count override; `None` inherits the server's cluster.
    pub devices: Option<usize>,
    /// Requested protocol version; `None` means v1 (the pre-versioning
    /// wire bytes, unchanged).
    pub v: Option<u64>,
    /// Usefulness budget in milliseconds, measured from arrival (v2
    /// only). A request still queued past this budget is shed with the
    /// named `deadline-exceeded` error instead of burning an inference
    /// pass on an answer the client has stopped waiting for.
    pub deadline_ms: Option<u64>,
}

/// Protocol versions this implementation speaks.
pub const SUPPORTED_VERSIONS: [u64; 2] = [1, 2];

impl AllocRequest {
    /// The effective protocol version (absent `v` ⇒ 1).
    pub fn version(&self) -> u64 {
        self.v.unwrap_or(1)
    }

    /// Render as one JSONL request line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("wire value renders")
    }
}

impl Serialize for AllocRequest {
    fn serialize(&self) -> Value {
        let graph = Value::Object(vec![
            ("ops".to_string(), self.graph.ops().serialize()),
            ("edges".to_string(), self.graph.edge_list().serialize()),
            ("channels".to_string(), self.graph.channels().serialize()),
        ]);
        let mut fields = vec![
            ("id".to_string(), Value::Str(self.id.clone())),
            ("graph".to_string(), graph),
        ];
        if let Some(sr) = self.source_rate {
            fields.push(("source_rate".to_string(), sr.serialize()));
        }
        if let Some(d) = self.devices {
            fields.push(("devices".to_string(), d.serialize()));
        }
        if let Some(v) = self.v {
            fields.push(("v".to_string(), v.serialize()));
        }
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), d.serialize()));
        }
        Value::Object(fields)
    }
}

/// An incremental re-allocation request (v2 only): the prior graph and
/// placement, plus the [`GraphDelta`] describing the drift since. The
/// graph here is the *prior* one — the server applies the delta itself
/// so both sides agree on exactly which mutation was placed.
#[derive(Debug, Clone, PartialEq)]
pub struct ReallocRequest {
    /// Client-chosen request id, echoed back in the response.
    pub id: String,
    /// The validated prior stream graph (pre-delta).
    pub graph: StreamGraph,
    /// The placement the prior response assigned, one device per node.
    pub prior_placement: Vec<u32>,
    /// The drift to apply before re-allocating.
    pub delta: GraphDelta,
    /// Base source-rate override (the prior request's); the delta's
    /// `source_rate` further overrides this.
    pub source_rate: Option<f64>,
    /// Base device-count override; the delta's `devices` further
    /// overrides this.
    pub devices: Option<usize>,
    /// Requested protocol version; must resolve to 2.
    pub v: Option<u64>,
    /// Usefulness budget in milliseconds (see [`AllocRequest::deadline_ms`]).
    pub deadline_ms: Option<u64>,
}

impl ReallocRequest {
    /// The effective protocol version (absent `v` ⇒ 1, which
    /// [`parse_request`] refuses for realloc).
    pub fn version(&self) -> u64 {
        self.v.unwrap_or(1)
    }

    /// Render as one JSONL request line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("wire value renders")
    }
}

impl Serialize for ReallocRequest {
    fn serialize(&self) -> Value {
        let graph = Value::Object(vec![
            ("ops".to_string(), self.graph.ops().serialize()),
            ("edges".to_string(), self.graph.edge_list().serialize()),
            ("channels".to_string(), self.graph.channels().serialize()),
        ]);
        let mut fields = vec![
            ("id".to_string(), Value::Str(self.id.clone())),
            ("graph".to_string(), graph),
            (
                "prior_placement".to_string(),
                self.prior_placement.serialize(),
            ),
            ("delta".to_string(), self.delta.serialize()),
        ];
        if let Some(sr) = self.source_rate {
            fields.push(("source_rate".to_string(), sr.serialize()));
        }
        if let Some(d) = self.devices {
            fields.push(("devices".to_string(), d.serialize()));
        }
        if let Some(v) = self.v {
            fields.push(("v".to_string(), v.serialize()));
        }
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), d.serialize()));
        }
        Value::Object(fields)
    }
}

/// The shutdown command line (no trailing newline).
pub fn shutdown_line() -> &'static str {
    r#"{"cmd":"shutdown"}"#
}

/// Raw request shape straight off the wire: graph parts, nothing
/// validated yet. `crate::wire_fast` fills it in one pass over the line;
/// [`finish_request`] turns it into a checked [`WireRequest`].
pub(crate) struct RawRequest {
    pub(crate) id: String,
    pub(crate) ops: Vec<Operator>,
    pub(crate) edges: Vec<(u32, u32)>,
    pub(crate) channels: Vec<Channel>,
    pub(crate) source_rate: Option<f64>,
    pub(crate) devices: Option<usize>,
    pub(crate) v: Option<u64>,
    pub(crate) deadline_ms: Option<u64>,
    /// Present (with `prior_placement`) iff this line is a realloc.
    pub(crate) delta: Option<GraphDelta>,
    pub(crate) prior_placement: Option<Vec<u32>>,
}

fn opt_field<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, serde::Error> {
    match v.field(name) {
        Ok(Value::Null) | Err(_) => Ok(None),
        Ok(x) => T::deserialize(x).map(Some),
    }
}

/// Parse and validate one request line.
///
/// A line the scanner refuses (not one JSON object, a field of the wrong
/// type, a missing field, an unknown `cmd`) or a bad override is
/// [`WireError::BadRequest`]; a graph that fails structural or numeric
/// validation is [`WireError::InvalidGraph`]. Never panics on untrusted
/// input.
pub fn parse_request(line: &str) -> Result<WireRequest, WireError> {
    parse_request_with_id(line).map_err(|(e, _)| e)
}

/// [`parse_request`], but a refusal also returns the `id` of a line
/// that scanned and then failed validation, so the error response can
/// name the request; a line that did not scan has no id to return.
pub fn parse_request_with_id(line: &str) -> Result<WireRequest, (WireError, Option<String>)> {
    match crate::wire_fast::scan(line) {
        Err(e) => Err((WireError::BadRequest(e), None)),
        Ok(Scanned::Shutdown) => Ok(WireRequest::Shutdown),
        Ok(Scanned::Request(mut raw)) => finish_request(&mut raw).map_err(|e| (e, Some(raw.id))),
    }
}

/// Validation tail: everything between "the line is shaped like
/// a request" and "this is a checked [`WireRequest`]". It takes the
/// parts it keeps out of `raw`, and leaves the id there on a refusal.
fn finish_request(raw: &mut RawRequest) -> Result<WireRequest, WireError> {
    if let Some(v) = raw.v {
        if !SUPPORTED_VERSIONS.contains(&v) {
            return Err(WireError::UnsupportedVersion(format!(
                "protocol version {v} is not supported (this server speaks {})",
                SUPPORTED_VERSIONS.map(|s| format!("v{s}")).join("/")
            )));
        }
    }
    if let Some(sr) = raw.source_rate {
        if !(sr.is_finite() && sr > 0.0) {
            return Err(WireError::BadRequest(format!(
                "source_rate must be finite positive, got {sr}"
            )));
        }
    }
    if raw.devices == Some(0) {
        return Err(WireError::BadRequest(
            "devices must be at least 1".to_string(),
        ));
    }
    if let Some(d) = raw.devices.filter(|&d| d > MAX_DEVICES) {
        return Err(WireError::BadRequest(format!(
            "devices must be at most {MAX_DEVICES}, got {d}"
        )));
    }
    if raw.deadline_ms.is_some() && raw.v.unwrap_or(1) < 2 {
        return Err(WireError::BadRequest(
            "deadline_ms requires protocol v2 (send \"v\":2)".to_string(),
        ));
    }
    // The constructor validates structure as it builds the graph, once;
    // the numeric checks are the ones dataset loading applies.
    let graph = StreamGraph::from_parts(
        std::mem::take(&mut raw.ops),
        std::mem::take(&mut raw.edges),
        std::mem::take(&mut raw.channels),
    )
    .map_err(|e| WireError::InvalidGraph(e.to_string()))?;
    validate_numbers(&graph).map_err(|e| WireError::InvalidGraph(e.to_string()))?;
    let Some(delta) = raw.delta.take() else {
        return Ok(WireRequest::Alloc(AllocRequest {
            id: std::mem::take(&mut raw.id),
            graph,
            source_rate: raw.source_rate,
            devices: raw.devices,
            v: raw.v,
            deadline_ms: raw.deadline_ms,
        }));
    };
    // A `delta` field makes the line a realloc. The delta's deep checks
    // (index ranges, missing edges) run at apply time in the replica;
    // shape problems are refused here so they never get routed.
    if raw.v.unwrap_or(1) < 2 {
        return Err(WireError::BadRequest(
            "realloc requires protocol v2 (send \"v\":2)".to_string(),
        ));
    }
    let Some(prior_placement) = raw.prior_placement.take() else {
        return Err(WireError::BadRequest(
            "realloc requires `prior_placement`".to_string(),
        ));
    };
    if prior_placement.len() != graph.num_nodes() {
        return Err(WireError::BadRequest(format!(
            "prior_placement has {} entries for a {}-node graph",
            prior_placement.len(),
            graph.num_nodes()
        )));
    }
    delta
        .validate_shape()
        .map_err(|e| WireError::BadRequest(e.to_string()))?;
    Ok(WireRequest::Realloc(ReallocRequest {
        id: std::mem::take(&mut raw.id),
        graph,
        prior_placement,
        delta,
        source_rate: raw.source_rate,
        devices: raw.devices,
        v: raw.v,
        deadline_ms: raw.deadline_ms,
    }))
}

/// Successful allocation response.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocResponse {
    /// Echo of the request id.
    pub id: String,
    /// Device index per operator, in node order.
    pub placement: Vec<u32>,
    /// Analytic relative throughput of the placement (`α`).
    pub relative_throughput: f64,
    /// True if the placement came from the server's LRU cache.
    pub cached: bool,
    /// Protocol version echo; `None` on the v1 default path, where the
    /// serialized bytes must stay exactly the pre-versioning format.
    pub v: Option<u64>,
    /// Replica shard that served the request (v2 only) — for debugging
    /// the router's fingerprint→shard assignment.
    pub shard: Option<u32>,
    /// Which incremental path produced this placement: `"warm"`
    /// (projected + refined) or `"full"` (churn exceeded the threshold;
    /// full pipeline on the mutated graph). Absent on plain allocs,
    /// cached replays, and empty-delta reallocs — the latter so an
    /// empty-delta response reproduces the prior response bytes.
    pub realloc: Option<String>,
}

impl AllocResponse {
    /// Render as one JSONL response line (no trailing newline), written
    /// straight into one `String`: numbers in their `Display` form, a
    /// non-finite throughput as `null`, strings escaped as `serde_json`
    /// escapes them. `v`, `shard` and `realloc` are written only when
    /// present, so a v1 response line keeps the pre-versioning bytes.
    pub fn to_line(&self) -> String {
        let extra = self.id.len() + self.realloc.as_ref().map_or(0, String::len);
        let mut out = String::with_capacity(128 + extra + 4 * self.placement.len());
        out.push_str("{\"id\":");
        serde_json::write_json_string(&self.id, &mut out);
        out.push_str(",\"placement\":[");
        for (i, &device) in self.placement.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{device}");
        }
        out.push_str("],\"relative_throughput\":");
        if self.relative_throughput.is_finite() {
            let _ = write!(out, "{}", self.relative_throughput);
        } else {
            out.push_str("null");
        }
        out.push_str(if self.cached {
            ",\"cached\":true"
        } else {
            ",\"cached\":false"
        });
        if let Some(v) = self.v {
            let _ = write!(out, ",\"v\":{v}");
        }
        if let Some(shard) = self.shard {
            let _ = write!(out, ",\"shard\":{shard}");
        }
        if let Some(realloc) = &self.realloc {
            out.push_str(",\"realloc\":");
            serde_json::write_json_string(realloc, &mut out);
        }
        out.push('}');
        out
    }
}

impl Deserialize for AllocResponse {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        Ok(AllocResponse {
            id: String::deserialize(value.field("id")?)?,
            placement: Vec::<u32>::deserialize(value.field("placement")?)?,
            relative_throughput: f64::deserialize(value.field("relative_throughput")?)?,
            cached: bool::deserialize(value.field("cached")?)?,
            v: opt_field(value, "v")?,
            shard: opt_field(value, "shard")?,
            realloc: opt_field(value, "realloc")?,
        })
    }
}

/// Error response; `id` is `null` when the request was too malformed to
/// carry one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Echo of the request id, if it could be parsed.
    pub id: Option<String>,
    /// Machine-readable code ([`WireError::code`]).
    pub error: String,
    /// Human-readable detail.
    pub detail: String,
}

impl ErrorResponse {
    /// Render as one JSONL response line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("wire value renders")
    }
}

/// A parsed response line: success or named error.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// Successful allocation.
    Ok(AllocResponse),
    /// Named protocol error.
    Err(ErrorResponse),
}

impl WireResponse {
    /// Parse one response line.
    pub fn parse(line: &str) -> Result<Self, WireError> {
        serde_json::from_str(line).map_err(|e| WireError::BadRequest(e.to_string()))
    }

    /// The response's request id, if present.
    pub fn id(&self) -> Option<&str> {
        match self {
            WireResponse::Ok(r) => Some(&r.id),
            WireResponse::Err(e) => e.id.as_deref(),
        }
    }
}

impl Deserialize for WireResponse {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        if v.field("error").is_ok() {
            ErrorResponse::deserialize(v).map(WireResponse::Err)
        } else {
            AllocResponse::deserialize(v).map(WireResponse::Ok)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::StreamGraphBuilder;

    fn tiny() -> StreamGraph {
        let mut b = StreamGraphBuilder::new();
        let a = b.add_node(Operator::new(100.0));
        let c = b.add_node(Operator::new(200.0));
        b.add_edge(a, c, Channel::new(8.0)).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn request_roundtrips_with_overrides() {
        let req = AllocRequest {
            id: "r1".to_string(),
            graph: tiny(),
            source_rate: Some(1e4),
            devices: Some(8),
            v: None,
            deadline_ms: None,
        };
        let line = req.to_line();
        assert!(!line.contains('\n'));
        match parse_request(&line).unwrap() {
            WireRequest::Alloc(back) => {
                assert_eq!(back.id, "r1");
                assert_eq!(back.graph, req.graph);
                assert_eq!(back.source_rate, Some(1e4));
                assert_eq!(back.devices, Some(8));
            }
            other => panic!("expected alloc, got {other:?}"),
        }
    }

    #[test]
    fn omitted_overrides_parse_as_none() {
        let req = AllocRequest {
            id: "r2".to_string(),
            graph: tiny(),
            source_rate: None,
            devices: None,
            v: None,
            deadline_ms: None,
        };
        let line = req.to_line();
        assert!(!line.contains("source_rate"));
        match parse_request(&line).unwrap() {
            WireRequest::Alloc(back) => {
                assert_eq!(back.source_rate, None);
                assert_eq!(back.devices, None);
            }
            other => panic!("expected alloc, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_line_parses() {
        assert!(matches!(
            parse_request(shutdown_line()),
            Ok(WireRequest::Shutdown)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"reboot"}"#),
            Err(WireError::BadRequest(_))
        ));
        // A `cmd` key wins whatever else the line holds, and a repeated
        // key keeps its first value.
        for line in [
            r#"{"id":5,"graph":null,"cmd":"shutdown"}"#,
            r#"{"cmd":"shut\u0064own","cmd":"reboot"}"#,
        ] {
            assert!(
                matches!(parse_request(line), Ok(WireRequest::Shutdown)),
                "{line}"
            );
        }
    }

    #[test]
    fn garbage_is_bad_request_not_panic() {
        let graph = r#""graph":{"ops":[{"ipt":1}],"edges":[],"channels":[]}"#;
        let mut lines: Vec<String> = ["{not json", "", "42", r#"{"id":"x"}"#]
            .map(String::from)
            .to_vec();
        // A bad escape, even in a field nobody reads, and a number that
        // starts with `.` are not JSON.
        for junk in [r#""\q""#, r#""\u12""#, r#""\ud800""#] {
            lines.push(format!(r#"{{"id":"x",{graph},"note":{junk}}}"#));
        }
        lines.push(r#"{"id":"x","graph":{"ops":[{"ipt":.5}],"edges":[],"channels":[]}}"#.into());
        // Nesting past the cap is refused, not recursed into.
        let deep = 200_000;
        lines.push(format!(
            r#"{{"id":"x",{graph},"note":{}{}}}"#,
            "[".repeat(deep),
            "]".repeat(deep)
        ));
        for line in &lines {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code(), "bad-request", "line {line:.80?} gave {err}");
        }
        // Just under the cap is still fine.
        let nested = (serde_json::lex::MAX_DEPTH - 1) as usize;
        let line = format!(
            r#"{{"id":"x",{graph},"note":{}{}}}"#,
            "[".repeat(nested),
            "]".repeat(nested)
        );
        assert!(parse_request(&line).is_ok(), "{line}");
    }

    #[test]
    fn structurally_broken_graph_is_invalid_graph() {
        // Dangling endpoint: edge points at node 9 of a 2-node graph.
        let line = AllocRequest {
            id: "r".to_string(),
            graph: tiny(),
            source_rate: None,
            devices: None,
            v: None,
            deadline_ms: None,
        }
        .to_line()
        .replacen("[[0,1]]", "[[0,9]]", 1);
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.code(), "invalid-graph", "{err}");

        // Numerically broken: negative operator cost.
        let line = AllocRequest {
            id: "r".to_string(),
            graph: tiny(),
            source_rate: None,
            devices: None,
            v: None,
            deadline_ms: None,
        }
        .to_line()
        .replacen("\"ipt\":100", "\"ipt\":-100", 1);
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.code(), "invalid-graph", "{err}");

        // One edge, no channels: the lists must be parallel. A null
        // cost reads as NaN, which the numeric checks refuse.
        for line in [
            r#"{"id":"r","graph":{"ops":[{"ipt":1},{"ipt":2}],"edges":[[0,1]],"channels":[]}}"#,
            r#"{"id":"r","graph":{"ops":[{"ipt":null}],"edges":[],"channels":[]}}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code(), "invalid-graph", "{err}");
        }
    }

    #[test]
    fn bad_overrides_are_rejected() {
        let mk = |sr: Option<f64>, dev: Option<usize>| AllocRequest {
            id: "r".to_string(),
            graph: tiny(),
            source_rate: sr,
            devices: dev,
            v: None,
            deadline_ms: None,
        };
        assert!(matches!(
            parse_request(&mk(Some(-1.0), None).to_line()),
            Err(WireError::BadRequest(_))
        ));
        assert!(matches!(
            parse_request(&mk(None, Some(0)).to_line()),
            Err(WireError::BadRequest(_))
        ));
        // Device counts are capped, on the request and on a realloc's
        // delta alike.
        assert!(parse_request(&mk(None, Some(MAX_DEVICES)).to_line()).is_ok());
        let err = parse_request(&mk(None, Some(MAX_DEVICES + 1)).to_line()).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "bad-request: devices must be at most {MAX_DEVICES}, got {}",
                MAX_DEVICES + 1
            )
        );
        let realloc = |devices: Option<usize>, delta_devices: Option<usize>| ReallocRequest {
            id: "r".to_string(),
            graph: tiny(),
            prior_placement: vec![0; tiny().num_nodes()],
            delta: GraphDelta {
                devices: delta_devices,
                ..GraphDelta::default()
            },
            source_rate: None,
            devices,
            v: Some(2),
            deadline_ms: None,
        };
        assert!(parse_request(&realloc(Some(MAX_DEVICES), Some(MAX_DEVICES)).to_line()).is_ok());
        for (devices, delta_devices) in [(Some(MAX_DEVICES + 1), None), (None, Some(usize::MAX))] {
            assert!(matches!(
                parse_request(&realloc(devices, delta_devices).to_line()),
                Err(WireError::BadRequest(_))
            ));
        }
    }

    #[test]
    fn responses_roundtrip() {
        let ok = AllocResponse {
            id: "r1".to_string(),
            placement: vec![0, 2, 1],
            relative_throughput: 0.875,
            cached: true,
            v: None,
            shard: None,
            realloc: None,
        };
        assert_eq!(
            WireResponse::parse(&ok.to_line()).unwrap(),
            WireResponse::Ok(ok.clone())
        );

        let err = WireError::Timeout("waited 5000 ms".to_string()).response(Some("r2".to_string()));
        let back = WireResponse::parse(&err.to_line()).unwrap();
        assert_eq!(back, WireResponse::Err(err));
        assert_eq!(back.id(), Some("r2"));

        // An id-less error (unparseable request) still roundtrips.
        let anon = WireError::BadRequest("not json".to_string()).response(None);
        let back = WireResponse::parse(&anon.to_line()).unwrap();
        assert_eq!(back.id(), None);
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(WireError::Draining.code(), "draining");
        assert_eq!(WireError::Overloaded(String::new()).code(), "overloaded");
        assert_eq!(WireError::Timeout(String::new()).code(), "timeout");
        assert_eq!(
            WireError::DeadlineExceeded(String::new()).code(),
            "deadline-exceeded"
        );
        assert_eq!(WireError::Internal(String::new()).code(), "internal");
        assert_eq!(
            WireError::UnsupportedVersion(String::new()).code(),
            "unsupported-version"
        );
        let listed: Vec<&str> = WireError::CODES.to_vec();
        for err in [
            WireError::BadRequest(String::new()),
            WireError::InvalidGraph(String::new()),
            WireError::Timeout(String::new()),
            WireError::DeadlineExceeded(String::new()),
            WireError::Overloaded(String::new()),
            WireError::Draining,
            WireError::Internal(String::new()),
            WireError::UnsupportedVersion(String::new()),
        ] {
            assert!(listed.contains(&err.code()), "{} not in CODES", err.code());
        }
    }

    #[test]
    fn v1_request_and_response_bytes_are_unchanged() {
        // The default path must not grow fields: absent `v` serializes
        // to exactly the pre-versioning wire bytes.
        let req = AllocRequest {
            id: "r1".to_string(),
            graph: tiny(),
            source_rate: None,
            devices: None,
            v: None,
            deadline_ms: None,
        };
        let line = req.to_line();
        assert!(!line.contains("\"v\""), "{line}");
        let resp = AllocResponse {
            id: "r1".to_string(),
            placement: vec![0, 1],
            relative_throughput: 1.0,
            cached: false,
            v: None,
            shard: None,
            realloc: None,
        };
        let line = resp.to_line();
        assert!(!line.contains("\"v\"") && !line.contains("shard"), "{line}");
        assert_eq!(
            line,
            r#"{"id":"r1","placement":[0,1],"relative_throughput":1,"cached":false}"#
        );
    }

    #[test]
    fn v2_round_trips_with_shard() {
        let req = AllocRequest {
            id: "r2".to_string(),
            graph: tiny(),
            source_rate: None,
            devices: None,
            v: Some(2),
            deadline_ms: None,
        };
        let line = req.to_line();
        assert!(line.contains("\"v\":2"), "{line}");
        match parse_request(&line).unwrap() {
            WireRequest::Alloc(back) => {
                assert_eq!(back.v, Some(2));
                assert_eq!(back.version(), 2);
            }
            other => panic!("expected alloc, got {other:?}"),
        }
        let resp = AllocResponse {
            id: "r2".to_string(),
            placement: vec![1, 0],
            relative_throughput: 0.5,
            cached: true,
            v: Some(2),
            shard: Some(3),
            realloc: None,
        };
        let back = WireResponse::parse(&resp.to_line()).unwrap();
        assert_eq!(back, WireResponse::Ok(resp));
    }

    #[test]
    fn unknown_version_is_a_named_error() {
        // Explicit v1 is accepted (it is the default spelled out).
        let mut req = AllocRequest {
            id: "r".to_string(),
            graph: tiny(),
            source_rate: None,
            devices: None,
            v: Some(1),
            deadline_ms: None,
        };
        assert!(parse_request(&req.to_line()).is_ok());
        req.v = Some(3);
        let err = parse_request(&req.to_line()).unwrap_err();
        assert_eq!(err.code(), "unsupported-version");
        assert!(err.detail().contains('3'), "{err}");
    }

    #[test]
    fn unknown_fields_are_ignored_for_forward_compat() {
        // A future client may add fields; this server must not refuse
        // them (only an unknown `v` is refused, by name).
        let line = AllocRequest {
            id: "fc".to_string(),
            graph: tiny(),
            source_rate: None,
            devices: None,
            v: Some(2),
            deadline_ms: None,
        }
        .to_line()
        .replacen("\"v\":2", "\"v\":2,\"priority\":\"high\",\"tags\":[1,2]", 1);
        match parse_request(&line).unwrap() {
            WireRequest::Alloc(back) => assert_eq!(back.id, "fc"),
            other => panic!("expected alloc, got {other:?}"),
        }
    }

    #[test]
    fn deadline_requires_v2_and_roundtrips() {
        let mut req = AllocRequest {
            id: "d1".to_string(),
            graph: tiny(),
            source_rate: None,
            devices: None,
            v: Some(2),
            deadline_ms: Some(250),
        };
        let line = req.to_line();
        assert!(line.contains("\"deadline_ms\":250"), "{line}");
        match parse_request(&line).unwrap() {
            WireRequest::Alloc(back) => assert_eq!(back.deadline_ms, Some(250)),
            other => panic!("expected alloc, got {other:?}"),
        }
        // A deadline on a v1 line is refused by name: v1 clients never
        // sent the field, so its presence is a version mismatch.
        for v in [None, Some(1)] {
            req.v = v;
            let err = parse_request(&req.to_line()).unwrap_err();
            assert_eq!(err.code(), "bad-request", "{err}");
            assert!(err.detail().contains("deadline_ms"), "{err}");
        }
    }

    fn tiny_realloc(delta: GraphDelta, v: Option<u64>) -> ReallocRequest {
        ReallocRequest {
            id: "ra".to_string(),
            graph: tiny(),
            prior_placement: vec![0, 1],
            delta,
            source_rate: None,
            devices: None,
            v,
            deadline_ms: None,
        }
    }

    #[test]
    fn realloc_roundtrips_including_delta() {
        // Every delta field set, so each one crosses the wire.
        let delta = GraphDelta {
            remove_nodes: vec![1],
            add_nodes: vec![Operator::new(50.0)],
            remove_edges: vec![(0, 2)],
            add_edges: vec![(0, 3)],
            add_channels: vec![Channel::with_selectivity(8.0, 0.25)],
            set_ipt: vec![(0, 10.0)],
            set_channel_edges: vec![(1, 2)],
            set_channels: vec![Channel::new(2.0)],
            devices: Some(4),
            source_rate: Some(5e3),
        };
        for delta in [delta, GraphDelta::default()] {
            let line = tiny_realloc(delta.clone(), Some(2)).to_line();
            match parse_request(&line).unwrap() {
                WireRequest::Realloc(back) => {
                    assert_eq!(back.id, "ra");
                    assert_eq!(back.prior_placement, vec![0, 1]);
                    assert_eq!(back.delta, delta);
                    assert_eq!(back.version(), 2);
                }
                other => panic!("expected realloc, got {other:?}"),
            }
        }
        // The empty delta serializes to the empty object, and a delta
        // that is not an object reads as the empty delta.
        assert_eq!(serde_json::to_string(&GraphDelta::default()).unwrap(), "{}");
        let line = tiny_realloc(GraphDelta::default(), Some(2))
            .to_line()
            .replacen("\"delta\":{}", "\"delta\":5", 1);
        match parse_request(&line).unwrap() {
            WireRequest::Realloc(back) => assert!(back.delta.is_empty()),
            other => panic!("expected realloc, got {other:?}"),
        }
    }

    #[test]
    fn realloc_below_v2_is_bad_request() {
        for v in [None, Some(1)] {
            let line = tiny_realloc(GraphDelta::default(), v).to_line();
            let err = parse_request(&line).unwrap_err();
            assert_eq!(err.code(), "bad-request", "{err}");
            assert!(err.detail().contains("v2"), "{err}");
        }
        // v3 realloc is still the named version error.
        let line = tiny_realloc(GraphDelta::default(), Some(3)).to_line();
        assert_eq!(
            parse_request(&line).unwrap_err().code(),
            "unsupported-version"
        );
    }

    #[test]
    fn realloc_validates_placement_and_delta_shape() {
        let mut req = tiny_realloc(GraphDelta::default(), Some(2));
        req.prior_placement = vec![0];
        let err = parse_request(&req.to_line()).unwrap_err();
        assert_eq!(err.code(), "bad-request", "{err}");

        // A delta missing its parallel channel array is refused at parse.
        let req = tiny_realloc(
            GraphDelta {
                add_edges: vec![(0, 1)],
                add_channels: vec![],
                ..GraphDelta::default()
            },
            Some(2),
        );
        let err = parse_request(&req.to_line()).unwrap_err();
        assert_eq!(err.code(), "bad-request", "{err}");

        // A missing prior_placement is refused by name.
        let line = tiny_realloc(GraphDelta::default(), Some(2))
            .to_line()
            .replacen("\"prior_placement\":[0,1],", "", 1);
        let err = parse_request(&line).unwrap_err();
        assert!(err.detail().contains("prior_placement"), "{err}");
    }

    #[test]
    fn response_lines_are_the_value_codecs_bytes() {
        // What `to_line` wrote when it rendered a `Value` tree through
        // `serde_json::to_string`.
        fn via_value(r: &AllocResponse) -> String {
            let mut fields = vec![
                ("id".to_string(), r.id.serialize()),
                ("placement".to_string(), r.placement.serialize()),
                (
                    "relative_throughput".to_string(),
                    r.relative_throughput.serialize(),
                ),
                ("cached".to_string(), Value::Bool(r.cached)),
            ];
            if let Some(v) = r.v {
                fields.push(("v".to_string(), v.serialize()));
            }
            if let Some(shard) = r.shard {
                fields.push(("shard".to_string(), shard.serialize()));
            }
            if let Some(realloc) = &r.realloc {
                fields.push(("realloc".to_string(), realloc.serialize()));
            }
            serde_json::to_string(&Value::Object(fields)).unwrap()
        }
        let ids = ["r1", "", "q\"b\\s/\n\r\t\u{1}\u{1f}é\u{2028}"];
        let throughputs = [
            0.0,
            -0.0,
            1.0,
            0.875,
            0.1 + 0.2,
            1e-300,
            f64::MIN_POSITIVE,
            123456789.0,
            f64::NAN,
            f64::INFINITY,
        ];
        let placements = [
            vec![],
            vec![0],
            vec![0, 9, 10, 99, 100, 1023, 65_535, u32::MAX],
        ];
        let mut n = 0;
        for id in ids {
            for &relative_throughput in &throughputs {
                for placement in &placements {
                    for mask in 0..16u32 {
                        let resp = AllocResponse {
                            id: id.to_string(),
                            placement: placement.clone(),
                            relative_throughput,
                            cached: mask & 1 != 0,
                            v: (mask & 2 != 0).then_some(u64::MAX - u64::from(mask)),
                            shard: (mask & 4 != 0).then_some(mask * 1_000_003),
                            realloc: (mask & 8 != 0).then(|| format!("warm{id}")),
                        };
                        assert_eq!(resp.to_line(), via_value(&resp));
                        n += 1;
                    }
                }
            }
        }
        assert_eq!(n, 3 * 10 * 3 * 16);
    }

    #[test]
    fn realloc_response_marker_roundtrips_and_stays_off_alloc_paths() {
        let resp = AllocResponse {
            id: "ra".to_string(),
            placement: vec![1, 0],
            relative_throughput: 0.75,
            cached: false,
            v: Some(2),
            shard: Some(0),
            realloc: Some("warm".to_string()),
        };
        let line = resp.to_line();
        assert!(line.contains("\"realloc\":\"warm\""), "{line}");
        assert_eq!(WireResponse::parse(&line).unwrap(), WireResponse::Ok(resp));
    }
}
