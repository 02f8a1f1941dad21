//! The accept-set of `serde_json::from_str`, pinned over a fixed corpus.
//!
//! Every dataset, checkpoint, perf-gate baseline, bench row file and wire
//! response is read by `serde_json::from_str`, so which texts it accepts,
//! and what `Value` each parses to, is a file format. The corpus is
//! hand-picked value shapes, escapes, number spellings, literal near
//! misses, whitespace, nesting at and past the depth cap, every prefix of
//! a one-graph dataset, and seeded byte-flip, deletion and insertion
//! mutants. Each text's outcome is `ok <the value re-rendered>` or
//! `error` (the error text is free to change) and all outcomes are folded
//! into one FNV-1a-64 digest, so a change to what is accepted or what it
//! parses to shows up as a digest change.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::Value;

/// Digest of every outcome in corpus order.
const ACCEPT_SET_DIGEST: u64 = 0x6aec_d953_ba00_d76a;

/// `spg generate --setting small --scaled --count 1 --seed 1`.
const DATASET: &str = r#"{"name":"small","cluster":{"devices":5,"mips":1250,"link_mbps":1000},"source_rate":10000,"graphs":[{"ops":[{"ipt":294090.94355330704},{"ipt":128983.22785191999},{"ipt":72471.64293109905},{"ipt":39321.90194104771},{"ipt":42212.78950984734},{"ipt":315512.16251014016}],"edges":[[0,3],[0,4],[0,5],[0,1],[3,2],[4,2],[5,2],[1,2]],"channels":[{"payload":33616.76777501647,"selectivity":0.25},{"payload":33616.76777501647,"selectivity":0.25},{"payload":33616.76777501647,"selectivity":0.25},{"payload":33616.76777501647,"selectivity":0.25},{"payload":80974.27354322393,"selectivity":1},{"payload":80974.27354322393,"selectivity":1},{"payload":80974.27354322393,"selectivity":1},{"payload":80974.27354322393,"selectivity":1}],"out_adj":{"offsets":[0,4,5,5,6,7,8],"neighbors":[3,4,5,1,2,2,2,2],"edge_ids":[0,1,2,3,7,4,5,6]},"in_adj":{"offsets":[0,0,1,5,6,7,8],"neighbors":[0,3,4,5,1,0,0,0],"edge_ids":[3,4,5,6,7,0,1,2]},"topo_order":[0,3,4,5,1,2]}]}"#;

/// A checkpoint-shaped text: nested objects, float arrays, `null`s,
/// booleans and an escaped string.
const CHECKPOINT: &str = r#"{"version":2,"config":{"hidden":2,"edge_encoding":true,"temperature":1},"params":[{"rows":1,"cols":2,"data":[-0.25,1.5e-7]}],"trainer":null,"note":"tab\there \"q\" \u00e9\\"}"#;

/// Objects and arrays nested `depth` deep, in three shapes.
fn nested(depth: usize) -> [String; 3] {
    [
        "[".repeat(depth) + &"]".repeat(depth),
        "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth),
        "[{\"k\":".repeat(depth / 2) + "[]" + &"}]".repeat(depth / 2),
    ]
}

/// Near-grammar edits of `doc`: a byte flipped to a printable one, a
/// byte deleted, a structural byte inserted, or a cut.
fn mutants(rng: &mut ChaCha8Rng, doc: &str, count: usize) -> Vec<String> {
    (0..count)
        .map(|_| {
            let mut bytes = doc.as_bytes().to_vec();
            let i = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..4) {
                0 => bytes[i] = rng.gen_range(0x20..0x7fu8),
                1 => {
                    bytes.remove(i);
                }
                2 => {
                    let junk = *[b'{', b'}', b'[', b']', b'"', b',', b':', b'\\', b'-', b'e']
                        .choose(rng)
                        .expect("nonempty");
                    bytes.insert(i, junk);
                }
                _ => bytes.truncate(i),
            }
            String::from_utf8_lossy(&bytes).into_owned()
        })
        .collect()
}

/// The corpus, in digest order.
fn corpus() -> Vec<String> {
    let mut texts: Vec<String> = [
        // Every value shape, empty and nested.
        "{}",
        "[]",
        "\"\"",
        "0",
        "true",
        "false",
        "null",
        "[[],{},[[]],{\"a\":{}}]",
        "{\"a\":[1,{\"b\":null}],\"c\":\"d\",\"e\":true}",
        "{\"a\":1,\"a\":2}",
        "{\"\":\"\"}",
        "[1,2,3,[4,[5,[6]]]]",
        // Malformed containers.
        "{",
        "[",
        "}",
        "]",
        "{\"a\"}",
        "{\"a\":}",
        "{\"a\":1,}",
        "{,}",
        "[1,]",
        "[,1]",
        "[1 2]",
        "{\"a\" 1}",
        "{\"a\":1 \"b\":2}",
        "{1:2}",
        "{a:1}",
        "[1;2]",
        // Escapes, in values and in keys.
        r#""\"""#,
        r#""\\""#,
        r#""\/""#,
        r#""\b""#,
        r#""\f""#,
        r#""\n""#,
        r#""\r""#,
        r#""\t""#,
        r#""\u0041""#,
        r#""\u00e9\u00E9""#,
        r#""\uffff""#,
        r#""\u0000""#,
        r#""\u001f""#,
        r#""\u+041""#,
        r#""\u-041""#,
        r#""\ud800""#,
        r#""\udfff""#,
        r#""\ud83d\ude00""#,
        r#""\u12""#,
        r#""\u12g4""#,
        r#""\u""#,
        r#""\q""#,
        r#""\'""#,
        r#""\"#,
        r#""a\"#,
        r#"{"k\"ey\n":"v\\al"}"#,
        "\"unterminated",
        // Raw control characters and multibyte UTF-8.
        "\"\u{1}\"",
        "\"a\nb\"",
        "\"a\tb\"",
        "\"\u{7f}\"",
        "\"é\"",
        "\"日本語\"",
        "\"😀\"",
        "\"\\u00e9é\"",
        "{\"ключ\":\"значение\"}",
        // Number spellings.
        "-",
        "1.",
        "1e",
        "1E",
        "1e+",
        "-.5",
        ".5",
        "+1",
        "1E+2",
        "1e-7",
        "-0",
        "-0.0",
        "0.0",
        "01",
        "00",
        "1..2",
        "1.2.3",
        "1e2e3",
        "--1",
        "0x10",
        "1_000",
        "12345678901234567890",
        "-12345678901234567890",
        "18446744073709551616",
        "123456789012345678901234567890",
        "1.7976931348623157e308",
        "1e400",
        "Infinity",
        "-Infinity",
        "NaN",
        "inf",
        "[-,1.,1e,-.5,200.]",
        // Literal near misses.
        "tru",
        "nul",
        "fals",
        "True",
        "NULL",
        "nulll",
        "truex",
        "[true,fals]",
        "{\"a\":nul}",
        "n",
        "t",
        "f",
        // Whitespace around values, JSON and not.
        " 1 ",
        "\t\n\r{}\r\n",
        "[ 1 , 2 ]",
        "{ \"a\" : 1 , \"b\" : [ ] }",
        "\u{a0}1",
        "1\u{a0}",
        "\u{b}1",
        "\u{c}1",
        "\u{feff}{}",
        "",
        " ",
        // Trailing garbage.
        "{} x",
        "[1]]",
        "1,",
        "1 2",
        "{}{}",
        "\"a\"\"b\"",
        "null null",
        "[]\u{0}",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    // Nesting at, just under, just past and far past the cap.
    for depth in [63, 64, 65, 200_000] {
        texts.extend(nested(depth));
    }

    // Every prefix of a real one-graph dataset, then the whole of it.
    texts.extend((0..=DATASET.len()).map(|cut| DATASET[..cut].to_string()));

    // Seeded mutants of both documents.
    let mut rng = ChaCha8Rng::seed_from_u64(0x4a53_4f4e);
    for doc in [DATASET, CHECKPOINT] {
        texts.push(doc.to_string());
        texts.extend(mutants(&mut rng, doc, 300));
    }
    texts
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn from_str_accept_set_digest_holds_over_the_corpus() {
    let texts = corpus();
    let (mut digest, mut accepted) = (0xcbf2_9ce4_8422_2325u64, 0);
    for text in &texts {
        let outcome = match serde_json::from_str::<Value>(text) {
            Ok(v) => {
                accepted += 1;
                format!("ok {}", serde_json::to_string(&v).expect("renders"))
            }
            Err(_) => "error".to_string(),
        };
        digest = fnv1a(fnv1a(digest, outcome.as_bytes()), b"\n");
    }
    assert_eq!(
        digest,
        ACCEPT_SET_DIGEST,
        "accept-set moved: {digest:#018x} over {} texts, {accepted} accepted",
        texts.len()
    );
}
