//! The request scanner: the one parser behind
//! [`crate::wire::parse_request`].
//!
//! A request line is scanned once, left to right, straight into the raw
//! request struct. No `Value` tree is built; only the output vectors and
//! strings that carry escapes allocate. Request parsing is the read
//! loop's dominant per-byte cost on large graphs, where a `Value` tree
//! would mean one heap allocation per key, number and string.
//!
//! The accept-set, pinned by `tests/wire_accept_set.rs`:
//! - a line is one JSON object with nothing after it but whitespace;
//! - unknown keys are skipped at every level. A line nests at most
//!   [`MAX_DEPTH`] objects and arrays deep, so skipping never exhausts
//!   the stack;
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
//! it is carried as a `&'static str` and an offset, and formatted once,
//! at the end.

use crate::delta::GraphDelta;
use crate::graph::{Channel, Operator};
use crate::wire::RawRequest;
use std::borrow::Cow;

/// Deepest nesting of objects and arrays a line may have.
pub(crate) const MAX_DEPTH: u32 = 64;

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
    let mut s = Scan {
        s: line,
        b: line.as_bytes(),
        p: 0,
    };
    let (mut cmd, mut id, mut graph) = (None, None, None);
    let (mut source_rate, mut devices, mut v, mut deadline_ms) = (None, None, None, None);
    let (mut delta, mut prior_placement) = (None, None);
    s.ws();
    s.object(1, |s, key| {
        match key {
            "cmd" => s.field(&mut cmd, Scan::string)?,
            "id" => s.field(&mut id, |s| s.string().map(Cow::into_owned))?,
            "graph" => s.field(&mut graph, Scan::graph)?,
            "source_rate" => s.field(&mut source_rate, |s| s.nullable(Scan::f64))?,
            "devices" => s.field(&mut devices, |s| s.nullable(Scan::int))?,
            "v" => s.field(&mut v, |s| s.nullable(Scan::int))?,
            "deadline_ms" => s.field(&mut deadline_ms, |s| s.nullable(Scan::int))?,
            "delta" => s.field(&mut delta, |s| s.nullable(Scan::delta))?,
            "prior_placement" => {
                s.field(&mut prior_placement, |s| s.nullable(|s| s.array(Scan::int)))?
            }
            _ => return Ok(false),
        }
        Ok(true)
    })
    .map_err(Fail::detail)?;
    s.ws();
    if s.p != s.b.len() {
        return Err(format!("trailing characters at byte {}", s.p));
    }

    if let Some(cmd) = cmd {
        let cmd = cmd.map_err(Fail::detail)?;
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
        Some(value) => value.map_err(Fail::detail),
        None => Err(format!("missing field `{name}`")),
    }
}

/// A top-level field that may be absent or `null`.
fn optional<T>(slot: Option<Res<Option<T>>>) -> Result<Option<T>, String> {
    slot.transpose().map(Option::flatten).map_err(Fail::detail)
}

/// What was expected, and the byte offset where it was not found.
#[derive(Debug, Clone, Copy)]
struct Fail {
    what: &'static str,
    at: usize,
}

impl Fail {
    fn detail(self) -> String {
        format!("{} at byte {}", self.what, self.at)
    }
}

type Res<T> = Result<T, Fail>;

/// The operator list, edge list and channel list of a `graph` object.
type Parts = (Vec<Operator>, Vec<(u32, u32)>, Vec<Channel>);

struct Scan<'a> {
    s: &'a str,
    b: &'a [u8],
    p: usize,
}

impl<'a> Scan<'a> {
    fn fail<T>(&self, what: &'static str) -> Res<T> {
        Err(Fail { what, at: self.p })
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.p), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.p += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.p).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.p += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8, what: &'static str) -> Res<()> {
        if self.eat(byte) {
            Ok(())
        } else {
            self.fail(what)
        }
    }

    fn literal(&mut self, text: &'static [u8]) -> Res<()> {
        if self.b[self.p..].starts_with(text) {
            self.p += text.len();
            Ok(())
        } else {
            self.fail("expected a value")
        }
    }

    /// Read the first value of a top-level field into `slot` with
    /// `read`. A value `read` refuses is skipped as plain JSON and the
    /// refusal kept in `slot`: a syntax error later in the line, or a
    /// `cmd` key, still decides the outcome.
    fn field<T>(
        &mut self,
        slot: &mut Option<Res<T>>,
        read: impl FnOnce(&mut Self) -> Res<T>,
    ) -> Res<()> {
        if slot.is_some() {
            return self.skip_value(1);
        }
        let start = self.p;
        let value = read(self);
        if value.is_err() {
            self.p = start;
            self.skip_value(1)?;
        }
        *slot = Some(value);
        Ok(())
    }

    /// A string, borrowed from the line unless it carries escapes.
    fn string(&mut self) -> Res<Cow<'a, str>> {
        self.expect(b'"', "expected a string")?;
        // Every slice below starts and ends next to an ASCII byte (a
        // quote, a backslash, or an escape's last byte), so on a char
        // boundary.
        let (mut run, mut decoded) = (self.p, None::<String>);
        loop {
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    let tail = &self.s[run..self.p];
                    self.p += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(tail),
                        Some(text) => Cow::Owned(text + tail),
                    });
                }
                Some(b'\\') => {
                    let text = decoded.get_or_insert_with(String::new);
                    text.push_str(&self.s[run..self.p]);
                    text.push(self.escape()?);
                    run = self.p;
                }
                Some(_) => self.p += 1,
            }
        }
    }

    /// Decode the escape whose backslash is under the cursor.
    fn escape(&mut self) -> Res<char> {
        let c = match self.b.get(self.p + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let scalar = self
                    .b
                    .get(self.p + 2..self.p + 6)
                    .and_then(|hex| std::str::from_utf8(hex).ok())
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .and_then(char::from_u32);
                let Some(c) = scalar else {
                    return self.fail("bad \\u escape");
                };
                self.p += 6;
                return Ok(c);
            }
            _ => return self.fail("bad escape"),
        };
        self.p += 2;
        Ok(c)
    }

    /// The maximal JSON-number-shaped span, which must start with `-` or
    /// a digit. The callers' `parse()` decides what it is worth.
    fn num_span(&mut self) -> Res<&'a str> {
        let start = self.p;
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return self.fail("expected a number");
        }
        self.p += 1;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.p += 1;
        }
        if self.eat(b'.') {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.p += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.p += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.p += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.p += 1;
            }
        }
        // The span is ASCII, so both ends are char boundaries.
        Ok(&self.s[start..self.p])
    }

    /// A number parsed as `T`; `what` names the refusal.
    fn number<T: std::str::FromStr>(&mut self, what: &'static str) -> Res<T> {
        let at = self.p;
        self.num_span()?.parse().map_err(|_| Fail { what, at })
    }

    fn f64(&mut self) -> Res<f64> {
        self.number("malformed number")
    }

    /// A float of the graph itself, where `null` reads as NaN.
    fn f64_or_nan(&mut self) -> Res<f64> {
        Ok(self.nullable(Scan::f64)?.unwrap_or(f64::NAN))
    }

    fn int<T: std::str::FromStr>(&mut self) -> Res<T> {
        self.number("expected a non-negative integer")
    }

    /// `null`, or a value read by `read`.
    fn nullable<T>(&mut self, read: impl FnOnce(&mut Self) -> Res<T>) -> Res<Option<T>> {
        if self.peek() == Some(b'n') {
            self.literal(b"null").map(|()| None)
        } else {
            read(self).map(Some)
        }
    }

    /// `[item, item, ...]` via a per-item reader.
    fn array<T>(&mut self, mut item: impl FnMut(&mut Self) -> Res<T>) -> Res<Vec<T>> {
        self.expect(b'[', "expected an array")?;
        self.ws();
        let mut out = Vec::new();
        if self.eat(b']') {
            return Ok(out);
        }
        loop {
            self.ws();
            out.push(item(self)?);
            self.ws();
            if !self.eat(b',') {
                self.expect(b']', "expected `,` or `]`")?;
                return Ok(out);
            }
        }
    }

    /// A delta list, where `null` reads as empty.
    fn list<T>(&mut self, item: impl FnMut(&mut Self) -> Res<T>) -> Res<Vec<T>> {
        Ok(self.nullable(|s| s.array(item))?.unwrap_or_default())
    }

    /// A two-element array `[a, b]` (the wire shape of a tuple).
    fn pair<A, B>(
        &mut self,
        first: impl FnOnce(&mut Self) -> Res<A>,
        second: impl FnOnce(&mut Self) -> Res<B>,
    ) -> Res<(A, B)> {
        const PAIR: &str = "expected a two-element array";
        self.expect(b'[', PAIR)?;
        self.ws();
        let a = first(self)?;
        self.ws();
        self.expect(b',', PAIR)?;
        self.ws();
        let b = second(self)?;
        self.ws();
        self.expect(b']', PAIR)?;
        Ok((a, b))
    }

    fn edge(&mut self) -> Res<(u32, u32)> {
        self.pair(Scan::int, Scan::int)
    }

    /// An object nested `depth` deep (counting itself): `field` reads
    /// each key it knows and returns false for the rest, which are
    /// skipped.
    fn object(
        &mut self,
        depth: u32,
        mut field: impl FnMut(&mut Self, &str) -> Res<bool>,
    ) -> Res<()> {
        self.expect(b'{', "expected an object")?;
        self.ws();
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':', "expected `:`")?;
            self.ws();
            if !field(self, &key)? {
                self.skip_value(depth)?;
            }
            self.ws();
            if !self.eat(b',') {
                return self.expect(b'}', "expected `,` or `}`");
            }
        }
    }

    fn op(&mut self) -> Res<Operator> {
        let mut ipt = None;
        self.object(4, |s, key| {
            match key {
                "ipt" if ipt.is_none() => ipt = Some(s.f64_or_nan()?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        match ipt {
            Some(ipt) => Ok(Operator { ipt }),
            None => self.fail("missing field `ipt`"),
        }
    }

    fn channel(&mut self) -> Res<Channel> {
        let (mut payload, mut selectivity) = (None, None);
        self.object(4, |s, key| {
            match key {
                "payload" if payload.is_none() => payload = Some(s.f64_or_nan()?),
                "selectivity" if selectivity.is_none() => selectivity = Some(s.f64_or_nan()?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        match (payload, selectivity) {
            (Some(payload), Some(selectivity)) => Ok(Channel {
                payload,
                selectivity,
            }),
            (None, _) => self.fail("missing field `payload`"),
            (_, None) => self.fail("missing field `selectivity`"),
        }
    }

    /// The `graph` object: `{"ops":[...],"edges":[...],"channels":[...]}`.
    fn graph(&mut self) -> Res<Parts> {
        let (mut ops, mut edges, mut channels) = (None, None, None);
        self.object(2, |s, key| {
            match key {
                "ops" if ops.is_none() => ops = Some(s.array(Scan::op)?),
                "edges" if edges.is_none() => edges = Some(s.array(Scan::edge)?),
                "channels" if channels.is_none() => channels = Some(s.array(Scan::channel)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        match (ops, edges, channels) {
            (Some(ops), Some(edges), Some(channels)) => Ok((ops, edges, channels)),
            (None, ..) => self.fail("missing field `ops`"),
            (_, None, _) => self.fail("missing field `edges`"),
            (.., None) => self.fail("missing field `channels`"),
        }
    }

    /// A `delta` value. Every field may be absent or `null`, and a value
    /// that is not an object reads as the empty delta.
    fn delta(&mut self) -> Res<GraphDelta> {
        let mut d = GraphDelta::default();
        if self.peek() != Some(b'{') {
            self.skip_value(1)?;
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
        self.object(2, |s, key| {
            match key {
                "remove_nodes" if first(0) => d.remove_nodes = s.list(Scan::int)?,
                "add_nodes" if first(1) => d.add_nodes = s.list(Scan::op)?,
                "remove_edges" if first(2) => d.remove_edges = s.list(Scan::edge)?,
                "add_edges" if first(3) => d.add_edges = s.list(Scan::edge)?,
                "add_channels" if first(4) => d.add_channels = s.list(Scan::channel)?,
                "set_ipt" if first(5) => {
                    d.set_ipt = s.list(|s| s.pair(Scan::int, Scan::f64_or_nan))?
                }
                "set_channel_edges" if first(6) => d.set_channel_edges = s.list(Scan::edge)?,
                "set_channels" if first(7) => d.set_channels = s.list(Scan::channel)?,
                "devices" if first(8) => d.devices = s.nullable(Scan::int)?,
                "source_rate" if first(9) => d.source_rate = s.nullable(Scan::f64)?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(d)
    }

    /// Skip one well-formed JSON value nested `depth` deep.
    fn skip_value(&mut self, depth: u32) -> Res<()> {
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => self.fail("nesting too deep"),
            Some(b'{') => self.object(depth + 1, |_, _| Ok(false)),
            Some(b'[') => self.array(|s| s.skip_value(depth + 1)).map(drop),
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.num_span().map(drop),
            _ => self.fail("expected a value"),
        }
    }
}
