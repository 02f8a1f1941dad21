//! The request scanner: the one parser behind
//! [`crate::wire::parse_request`].
//!
//! A request line is walked once, left to right, over the workspace's
//! JSON lexer (`serde_json::lex`), straight into the raw request struct.
//! No `Value` tree is built; only the output vectors and strings that
//! carry escapes allocate. Request parsing is the read loop's dominant
//! per-byte cost on large graphs, where a `Value` tree would mean one
//! heap allocation per key, number and string. This module holds only
//! the request's shape; whitespace, strings, escapes, number spans,
//! skipping and the depth cap are the lexer's, shared with every other
//! JSON reader.
//!
//! The accept-set, pinned by `tests/wire_accept_set.rs`:
//! - a line is one JSON object with nothing after it but whitespace;
//! - unknown keys are skipped at every level. A line nests at most
//!   [`serde_json::lex::MAX_DEPTH`] objects and arrays deep, so skipping
//!   never exhausts the stack;
//! - strings take the full JSON escapes, in known and unknown fields, and
//!   `\uXXXX` must be a Unicode scalar value;
//! - a repeated key keeps its first value; later values only need to be
//!   well-formed JSON;
//! - `null` on an optional field means the field is absent;
//! - `null` on a graph float (`ipt`, `payload`, `selectivity`, a
//!   `set_ipt` value) reads as NaN, which graph validation then refuses;
//! - a `delta` that is not an object reads as the empty delta;
//! - a top-level `cmd` key makes the line a command, whatever the other
//!   fields hold. A value of the wrong type is therefore only noted
//!   where it is found, and the line is refused for it once the whole
//!   line has been read.
//!
//! Every refusal is a `bad-request` detail. One found while scanning
//! names what was expected and the byte offset where it was not found;
//! it is carried as a lexer `Fail` and formatted once, at the end.

use crate::delta::GraphDelta;
use crate::graph::{Channel, Operator};
use crate::wire::RawRequest;
use serde_json::lex::{Fail, Lexer, Res};
use std::borrow::Cow;
use std::str::FromStr;

/// A scanned line, not yet validated.
// Transient per-line value; boxing the request would add an allocation
// to every request for no retained-memory benefit.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Scanned {
    /// A request line.
    Request(RawRequest),
    /// `{"cmd":"shutdown"}`.
    Shutdown,
}

/// Scan one request line. The error is the `bad-request` detail.
pub(crate) fn scan(line: &str) -> Result<Scanned, String> {
    let mut s = Lexer::new(line);
    let (mut cmd, mut id, mut graph) = (None, None, None);
    let (mut source_rate, mut devices, mut v, mut deadline_ms) = (None, None, None, None);
    let (mut delta, mut prior_placement) = (None, None);
    s.ws();
    s.object(1, |s, key| {
        match key {
            "cmd" => field(s, &mut cmd, Lexer::string)?,
            "id" => field(s, &mut id, |s| s.string().map(Cow::into_owned))?,
            "graph" => field(s, &mut graph, graph_parts)?,
            "source_rate" => field(s, &mut source_rate, |s| s.nullable(float))?,
            "devices" => field(s, &mut devices, |s| s.nullable(int))?,
            "v" => field(s, &mut v, |s| s.nullable(int))?,
            "deadline_ms" => field(s, &mut deadline_ms, |s| s.nullable(int))?,
            "delta" => field(s, &mut delta, |s| s.nullable(graph_delta))?,
            "prior_placement" => field(s, &mut prior_placement, |s| s.nullable(|s| s.array(int)))?,
            _ => return Ok(false),
        }
        Ok(true)
    })
    .and_then(|()| s.finish())
    .map_err(|fail| fail.to_string())?;

    if let Some(cmd) = cmd {
        let cmd = cmd.map_err(|fail| fail.to_string())?;
        return match &*cmd {
            "shutdown" => Ok(Scanned::Shutdown),
            other => Err(format!("unknown cmd `{other}`")),
        };
    }
    let (ops, edges, channels) = required(graph, "graph")?;
    Ok(Scanned::Request(RawRequest {
        id: required(id, "id")?,
        ops,
        edges,
        channels,
        source_rate: optional(source_rate)?,
        devices: optional(devices)?,
        v: optional(v)?,
        deadline_ms: optional(deadline_ms)?,
        delta: optional(delta)?,
        prior_placement: optional(prior_placement)?,
    }))
}

/// A top-level field that must be present.
fn required<T>(slot: Option<Res<T>>, name: &str) -> Result<T, String> {
    match slot {
        Some(value) => value.map_err(|fail| fail.to_string()),
        None => Err(format!("missing field `{name}`")),
    }
}

/// A top-level field that may be absent or `null`.
fn optional<T>(slot: Option<Res<Option<T>>>) -> Result<Option<T>, String> {
    slot.transpose()
        .map(Option::flatten)
        .map_err(|fail| fail.to_string())
}

/// The operator list, edge list and channel list of a `graph` object.
type Parts = (Vec<Operator>, Vec<(u32, u32)>, Vec<Channel>);

/// Read the first value of a top-level field into `slot` with `read`. A
/// value `read` refuses is skipped as plain JSON and the refusal kept in
/// `slot`: a syntax error later in the line, or a `cmd` key, still
/// decides the outcome.
fn field<'a, T>(
    s: &mut Lexer<'a>,
    slot: &mut Option<Res<T>>,
    read: impl FnOnce(&mut Lexer<'a>) -> Res<T>,
) -> Res<()> {
    if slot.is_some() {
        return s.skip_value(1);
    }
    let start = s.pos();
    let value = read(s);
    if value.is_err() {
        s.rewind(start);
        s.skip_value(1)?;
    }
    *slot = Some(value);
    Ok(())
}

/// A number parsed as `T`; `what` names the refusal.
fn number<T: FromStr>(s: &mut Lexer<'_>, what: &'static str) -> Res<T> {
    let at = s.pos();
    s.num_span()?.parse().map_err(|_| Fail { what, at })
}

fn float(s: &mut Lexer<'_>) -> Res<f64> {
    number(s, "malformed number")
}

/// A float of the graph itself, where `null` reads as NaN.
fn float_or_nan(s: &mut Lexer<'_>) -> Res<f64> {
    Ok(s.nullable(float)?.unwrap_or(f64::NAN))
}

fn int<T: FromStr>(s: &mut Lexer<'_>) -> Res<T> {
    number(s, "expected a non-negative integer")
}

/// A delta list, where `null` reads as empty.
fn list<'a, T>(s: &mut Lexer<'a>, item: impl FnMut(&mut Lexer<'a>) -> Res<T>) -> Res<Vec<T>> {
    Ok(s.nullable(|s| s.array(item))?.unwrap_or_default())
}

/// A two-element array `[a, b]` (the wire shape of a tuple).
fn pair<'a, A, B>(
    s: &mut Lexer<'a>,
    first: impl FnOnce(&mut Lexer<'a>) -> Res<A>,
    second: impl FnOnce(&mut Lexer<'a>) -> Res<B>,
) -> Res<(A, B)> {
    const PAIR: &str = "expected a two-element array";
    s.expect(b'[', PAIR)?;
    s.ws();
    let a = first(s)?;
    s.ws();
    s.expect(b',', PAIR)?;
    s.ws();
    let b = second(s)?;
    s.ws();
    s.expect(b']', PAIR)?;
    Ok((a, b))
}

fn edge(s: &mut Lexer<'_>) -> Res<(u32, u32)> {
    pair(s, int, int)
}

fn op(s: &mut Lexer<'_>) -> Res<Operator> {
    let mut ipt = None;
    s.object(4, |s, key| {
        match key {
            "ipt" if ipt.is_none() => ipt = Some(float_or_nan(s)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    match ipt {
        Some(ipt) => Ok(Operator { ipt }),
        None => s.fail("missing field `ipt`"),
    }
}

fn channel(s: &mut Lexer<'_>) -> Res<Channel> {
    let (mut payload, mut selectivity) = (None, None);
    s.object(4, |s, key| {
        match key {
            "payload" if payload.is_none() => payload = Some(float_or_nan(s)?),
            "selectivity" if selectivity.is_none() => selectivity = Some(float_or_nan(s)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    match (payload, selectivity) {
        (Some(payload), Some(selectivity)) => Ok(Channel {
            payload,
            selectivity,
        }),
        (None, _) => s.fail("missing field `payload`"),
        (_, None) => s.fail("missing field `selectivity`"),
    }
}

/// The `graph` object: `{"ops":[...],"edges":[...],"channels":[...]}`.
fn graph_parts(s: &mut Lexer<'_>) -> Res<Parts> {
    let (mut ops, mut edges, mut channels) = (None, None, None);
    s.object(2, |s, key| {
        match key {
            "ops" if ops.is_none() => ops = Some(s.array(op)?),
            "edges" if edges.is_none() => edges = Some(s.array(edge)?),
            "channels" if channels.is_none() => channels = Some(s.array(channel)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    match (ops, edges, channels) {
        (Some(ops), Some(edges), Some(channels)) => Ok((ops, edges, channels)),
        (None, ..) => s.fail("missing field `ops`"),
        (_, None, _) => s.fail("missing field `edges`"),
        (.., None) => s.fail("missing field `channels`"),
    }
}

/// A `delta` value. Every field may be absent or `null`, and a value
/// that is not an object reads as the empty delta.
fn graph_delta(s: &mut Lexer<'_>) -> Res<GraphDelta> {
    let mut d = GraphDelta::default();
    if s.peek() != Some(b'{') {
        s.skip_value(1)?;
        return Ok(d);
    }
    // `first(k)` is true the first time key `k` is met; a repeated
    // key is skipped.
    let mut seen = 0u16;
    let mut first = |k: u16| {
        let fresh = seen & (1 << k) == 0;
        seen |= 1 << k;
        fresh
    };
    s.object(2, |s, key| {
        match key {
            "remove_nodes" if first(0) => d.remove_nodes = list(s, int)?,
            "add_nodes" if first(1) => d.add_nodes = list(s, op)?,
            "remove_edges" if first(2) => d.remove_edges = list(s, edge)?,
            "add_edges" if first(3) => d.add_edges = list(s, edge)?,
            "add_channels" if first(4) => d.add_channels = list(s, channel)?,
            "set_ipt" if first(5) => d.set_ipt = list(s, |s| pair(s, int, float_or_nan))?,
            "set_channel_edges" if first(6) => d.set_channel_edges = list(s, edge)?,
            "set_channels" if first(7) => d.set_channels = list(s, channel)?,
            "devices" if first(8) => d.devices = s.nullable(int)?,
            "source_rate" if first(9) => d.source_rate = s.nullable(float)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(d)
}
