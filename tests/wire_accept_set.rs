//! The request parser's accept-set, pinned over a fixed corpus.
//!
//! `spg serve` runs `parse_request` on its I/O thread over untrusted
//! bytes, so what the parser accepts, and how it refuses the rest, is
//! protocol. The corpus is hand-picked edge shapes, 800 seeded
//! structure-aware request lines with three near-grammar mutants each,
//! and a set of awkward spellings (whitespace, escapes, nulls, duplicate
//! and unknown keys). Every line's outcome is folded into one FNV-1a-64
//! digest, so any change to what is accepted, what it parses to, or
//! which named error a refusal carries shows up as a digest change.
//!
//! Over the same corpus three properties hold: no line panics, every
//! error code is a documented one, and every accepted request survives
//! `to_line` and a re-parse unchanged.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spg::graph::wire::{parse_request, WireError, WireRequest};
use std::collections::BTreeMap;

/// Digest of every outcome in corpus order.
const ACCEPT_SET_DIGEST: u64 = 0x7605_3898_e7c4_bad2;

/// A random JSON number spelling: ints, floats, exponents, signs — the
/// spellings where a hand-rolled scanner and a real parser can drift.
fn number(rng: &mut ChaCha8Rng) -> String {
    match rng.gen_range(0..6) {
        0 => format!("{}", rng.gen_range(0..100_000)),
        1 => format!("-{}", rng.gen_range(0..1000)),
        2 => format!("{:.3}", rng.gen_range(0.0..1000.0)),
        3 => format!("{}e{}", rng.gen_range(1..100), rng.gen_range(0..4)),
        4 => format!("{:.1}E-{}", rng.gen_range(1.0..9.0), rng.gen_range(1..3)),
        _ => "18446744073709551616".to_string(), // > u64::MAX
    }
}

/// Build one structurally plausible request line: a small graph with a
/// seeded subset of optional fields, in seeded key order.
fn plausible_request(rng: &mut ChaCha8Rng) -> String {
    let nodes = rng.gen_range(1..5usize);
    let ops: Vec<String> = (0..nodes)
        .map(|_| format!("{{\"ipt\":{}}}", rng.gen_range(1..500)))
        .collect();
    let edges: Vec<String> = (1..nodes)
        .map(|i| format!("[{},{}]", rng.gen_range(0..i), i))
        .collect();
    let channels: Vec<String> = (1..nodes)
        .map(|_| {
            format!(
                "{{\"payload\":{},\"selectivity\":{}}}",
                rng.gen_range(1..64),
                rng.gen_range(1..3)
            )
        })
        .collect();
    let graph = format!(
        "\"graph\":{{\"ops\":[{}],\"edges\":[{}],\"channels\":[{}]}}",
        ops.join(","),
        edges.join(","),
        channels.join(",")
    );

    let mut fields = vec![format!("\"id\":\"f{}\"", rng.gen_range(0..100)), graph];
    if rng.gen_bool(0.4) {
        fields.push(format!("\"source_rate\":{}", number(rng)));
    }
    if rng.gen_bool(0.3) {
        fields.push(format!("\"devices\":{}", rng.gen_range(0..20)));
    }
    if rng.gen_bool(0.5) {
        fields.push(format!("\"v\":{}", rng.gen_range(0..4)));
    }
    if rng.gen_bool(0.4) {
        fields.push(format!("\"deadline_ms\":{}", number(rng)));
    }
    if rng.gen_bool(0.2) {
        // Realloc shape: a (often invalid) prior placement and delta.
        let prior: Vec<String> = (0..nodes)
            .map(|_| rng.gen_range(0..4u32).to_string())
            .collect();
        fields.push(format!("\"prior_placement\":[{}]", prior.join(",")));
        fields.push("\"delta\":{\"rate_factor\":1.5}".to_string());
    }
    if rng.gen_bool(0.15) {
        // A duplicate key: the first occurrence wins.
        let dup = fields[rng.gen_range(0..fields.len())].clone();
        fields.push(dup);
    }
    // Seeded key order: the parser must not care.
    for i in (1..fields.len()).rev() {
        let j = rng.gen_range(0..=i);
        fields.swap(i, j);
    }
    format!("{{{}}}", fields.join(","))
}

/// Mutate a line near the grammar: byte edits, token swaps, truncation,
/// whitespace injection — the classic torn/corrupt-line shapes.
fn mutate(rng: &mut ChaCha8Rng, line: &str) -> String {
    let mut bytes = line.as_bytes().to_vec();
    match rng.gen_range(0..7) {
        0 => {
            // Truncate: a torn write mid-line.
            let cut = rng.gen_range(0..=bytes.len());
            bytes.truncate(cut);
        }
        1 if !bytes.is_empty() => {
            // Flip one byte to a random printable character.
            let i = rng.gen_range(0..bytes.len());
            bytes[i] = rng.gen_range(0x20..0x7fu8);
        }
        2 if !bytes.is_empty() => {
            let i = rng.gen_range(0..bytes.len());
            bytes.remove(i);
        }
        3 => {
            let i = rng.gen_range(0..=bytes.len());
            let junk = *[b'{', b'}', b'[', b']', b'"', b',', b':', b'-', b'7']
                .choose(rng)
                .expect("nonempty");
            bytes.insert(i, junk);
        }
        4 => {
            // Inject legal whitespace at a random spot.
            let i = rng.gen_range(0..=bytes.len());
            for b in [b' ', b'\t'] {
                bytes.insert(i, b);
            }
        }
        5 => {
            // Swap two tokens' worth of bytes.
            if bytes.len() > 8 {
                let i = rng.gen_range(0..bytes.len() - 4);
                let j = rng.gen_range(0..bytes.len() - 4);
                for k in 0..4 {
                    bytes.swap(i + k, j + k);
                }
            }
        }
        _ => {
            // Replace a key name with a near-miss spelling.
            let line = String::from_utf8_lossy(&bytes).into_owned();
            let swaps = [
                ("\"id\"", "\"Id\""),
                ("\"graph\"", "\"grap\""),
                ("\"ops\"", "\"opss\""),
                ("\"deadline_ms\"", "\"deadline_m\""),
                ("\"v\"", "\"vv\""),
                ("\"edges\"", "\"edge\""),
            ];
            let (from, to) = swaps[rng.gen_range(0..swaps.len())];
            return line.replacen(from, to, 1);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The corpus, in digest order.
fn corpus() -> Vec<String> {
    // Hand-picked lines that sit on parser edges.
    let mut lines: Vec<String> = [
        "",
        "{}",
        "null",
        "[]",
        "{\"cmd\":\"shutdown\"}",
        "{\"cmd\":\"shutdow\"}",
        "{\"cmd\":7}",
        "{\"id\":\"x\",\"graph\":{\"ops\":[],\"edges\":[],\"channels\":[]}}",
        "{\"id\":\"x\",\"graph\":{\"ops\":[{\"ipt\":1}],\"edges\":[],\"channels\":[]},\
         \"deadline_ms\":0}",
        "{\"id\":\"x\",\"graph\":{\"ops\":[{\"ipt\":1}],\"edges\":[],\"channels\":[]},\
         \"v\":2,\"deadline_ms\":250}",
        "{\"id\":\"x\",\"graph\":{\"ops\":[{\"ipt\":1}],\"edges\":[],\"channels\":[]},\
         \"deadline_ms\":-3}",
        "{\"id\":\"x\",\"graph\":{\"ops\":[{\"ipt\":1}],\"edges\":[],\"channels\":[]},\
         \"deadline_ms\":1e3}",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    // Seeded plausible requests, each followed by three mutants of it.
    let mut rng = ChaCha8Rng::seed_from_u64(0x5747_4652);
    for _ in 0..800 {
        let line = plausible_request(&mut rng);
        let mutants: Vec<String> = (0..3).map(|_| mutate(&mut rng, &line)).collect();
        lines.push(line);
        lines.extend(mutants);
    }

    // Awkward spellings: whitespace, reordered and unknown fields, exotic
    // numbers, escapes, nulls, duplicate keys, and refusals.
    lines.extend([
        " { \"graph\" : {\"channels\":[{\"selectivity\":1,\"payload\":8.5e0,\"x\":[]}],\
         \"ops\":[{\"ipt\":1e2},{\"ipt\":200.}],\"edges\":[[ 0 , 1 ]]} , \"id\" : \"r2\" , \
         \"future\": {\"deep\":[[{\"a\":\"b\\\\c\"}]]} } "
            .to_string(),
        r#"{"id":"r\n3","graph":{"ops":[{"ipt":1},{"ipt":2}],"edges":[[0,1]],"channels":[{"payload":1,"selectivity":1}]}}"#.to_string(),
        r#"{"id":"r4","source_rate":null,"graph":{"ops":[{"ipt":1},{"ipt":2}],"edges":[[0,1]],"channels":[{"payload":1,"selectivity":1}]}}"#.to_string(),
        r#"{"id":"a","id":"b","graph":{"ops":[{"ipt":1},{"ipt":2}],"edges":[[0,1]],"channels":[{"payload":1,"selectivity":1}]}}"#.to_string(),
        "{".to_string(),
        r#"{"id":5,"graph":{"ops":[],"edges":[],"channels":[]}}"#.to_string(),
        r#"{"id":"x"}"#.to_string(),
        r#"{"id":"x","graph":{"ops":[{"ipt":1}],"edges":[[0,1,2]],"channels":[]}}"#.to_string(),
        r#"{"id":"x","graph":{"ops":[{"ipt":1}],"edges":[[0.5,1]],"channels":[]}}"#.to_string(),
        r#"{"id":"x","graph":{"ops":[{"ipt":1e}],"edges":[],"channels":[]}} "#.to_string(),
        r#"{"id":"x","graph":{"ops":[{"ipt":1}],"edges":[],"channels":[]},"v":2,"delta":{"set_ipt":[[0,1.5]]}}"#.to_string(),
        r#"{"cmd":"shutdown","junk":1}"#.to_string(),
        r#"{"id":"x","graph":{"ops":[{"ipt":1}],"edges":[],"channels":[]}} trailing"#.to_string(),
        r#"{"id":"x","graph":{"ops":[{"ipt":1}],"edges":[],"channels":[]},"deadline_ms":5}"#.to_string(),
        r#"{"id":"x","graph":{"ops":[{"ipt":1}],"edges":[],"channels":[]},"v":2,"deadline_ms":-3}"#.to_string(),
    ]);
    lines
}

/// One line's outcome: the accepted request re-rendered, or the error
/// code of the refusal.
fn outcome(result: &Result<WireRequest, WireError>) -> String {
    match result {
        Ok(WireRequest::Alloc(r)) => format!("alloc {}", r.to_line()),
        Ok(WireRequest::Realloc(r)) => format!("realloc {}", r.to_line()),
        Ok(WireRequest::Shutdown) => "shutdown".to_string(),
        Err(e) => format!("error {}", e.code()),
    }
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn accept_set_digest_and_properties_hold_over_the_corpus() {
    let lines = corpus();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut tally: BTreeMap<String, usize> = BTreeMap::new();
    let mut round_trips = 0;
    for line in &lines {
        let result = std::panic::catch_unwind(|| parse_request(line))
            .unwrap_or_else(|_| panic!("parse_request panicked on: {line:?}"));
        let kind = match &result {
            Ok(WireRequest::Alloc(_)) => "alloc",
            Ok(WireRequest::Realloc(_)) => "realloc",
            Ok(WireRequest::Shutdown) => "shutdown",
            Err(e) => {
                assert!(
                    WireError::CODES.contains(&e.code()),
                    "undocumented code {} on: {line:?}",
                    e.code()
                );
                e.code()
            }
        };
        *tally.entry(kind.to_string()).or_insert(0) += 1;

        let rendered = match &result {
            Ok(WireRequest::Alloc(r)) => Some(r.to_line()),
            Ok(WireRequest::Realloc(r)) => Some(r.to_line()),
            _ => None,
        };
        if let Some(again) = rendered {
            assert_eq!(
                parse_request(&again),
                result,
                "to_line does not round-trip for: {line:?}"
            );
            round_trips += 1;
        }

        let text = outcome(&result);
        digest = fnv1a(fnv1a(digest, text.as_bytes()), b"\n");
    }
    assert_eq!(
        digest,
        ACCEPT_SET_DIGEST,
        "accept-set moved: {digest:#018x} over {} lines, outcomes {tally:?}, {round_trips} round trips",
        lines.len()
    );
}
