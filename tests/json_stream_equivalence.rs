//! Streamed JSON equals the tree printers, byte for byte.
//!
//! `serde_json::to_string(&x)` streams through `Serialize::write_json`
//! (the derived and container overrides) while
//! `serde_json::to_string(&x.to_value())` builds the `Value` tree first
//! and prints it. `serde_json::to_string_pretty(&x)` lays out those
//! streamed bytes; [`reference_pretty`] is the tree printer it replaced.
//! Every digest and frozen document is defined over these bytes, so the
//! paths must never differ: checked here on generated trees full of
//! awkward scalars and on the workspace's real documents. The flight
//! recorder's JSONL, written straight into one buffer, is checked
//! against one `to_string` per record.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::{Serialize, Value};
use titan_gpu_reliability::obs::{
    parse_health, parse_trace, Obs, ProfDoc, TraceHeader, WallDoc, WallScope, TRACE_SCHEMA,
};
use titan_gpu_reliability::runner::{ckpt, run_seed_with, ObsPlan};
use titan_gpu_reliability::{Study, StudyConfig};

const DAY: u64 = 86_400;

fn assert_same_bytes<T: Serialize + ?Sized>(x: &T, what: &str) {
    let streamed = serde_json::to_string(x).expect("streamed");
    let tree = serde_json::to_string(&x.to_value()).expect("tree");
    assert_same_text(&streamed, &tree, what);
}

/// `to_string_pretty` against the tree printer it replaced.
fn assert_same_pretty<T: Serialize + ?Sized>(x: &T, what: &str) {
    let streamed = serde_json::to_string_pretty(x).expect("streamed");
    let mut tree = String::new();
    reference_pretty(&mut tree, &x.to_value(), 0);
    assert_same_text(&streamed, &tree, &format!("{what} (pretty)"));
}

fn assert_same_text(streamed: &str, tree: &str, what: &str) {
    if streamed != tree {
        let at = streamed
            .bytes()
            .zip(tree.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(streamed.len().min(tree.len()));
        let lo = at.saturating_sub(40);
        panic!(
            "{what}: streamed and tree JSON differ at byte {at}\n streamed: {:?}\n     tree: {:?}",
            streamed.get(lo..(at + 40).min(streamed.len())),
            tree.get(lo..(at + 40).min(tree.len())),
        );
    }
}

/// The pretty tree printer as it was before streaming, kept verbatim as
/// an oracle. Containers are laid out here; every leaf and empty
/// container prints through the compact printer.
fn reference_pretty(out: &mut String, v: &Value, depth: usize) {
    match v {
        Value::Array(a) if !a.is_empty() => {
            out.push('[');
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, depth + 1);
                reference_pretty(out, item, depth + 1);
            }
            newline_indent(out, depth);
            out.push(']');
        }
        Value::Object(o) if !o.is_empty() => {
            out.push('{');
            for (i, (k, item)) in o.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, depth + 1);
                // Writing into a `String` cannot fail.
                let _ = serde::write_json_str(out, k);
                out.push_str(": ");
                reference_pretty(out, item, depth + 1);
            }
            newline_indent(out, depth);
            out.push('}');
        }
        leaf => {
            // Writing into a `String` cannot fail.
            let _ = leaf.write_json(out);
        }
    }
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..2 * depth {
        out.push(' ');
    }
}

/// Characters that exercise every escape: quote, backslash, the named
/// control escapes, other C0 controls, DEL, and multibyte UTF-8; plus
/// the bytes the pretty layout acts on outside strings.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
    '\u{1f}', '\u{7f}', 'é', 'λ', '→', '\u{2028}', '🦀', '\u{fffd}', '{', '}', '[', ']', ',', ':',
];

/// Floats whose formatting is easy to get wrong.
const FLOATS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    1e15 - 1.0,
    1e15,
    1e15 + 1.0,
    -1e15,
    1e16,
    1e-7,
    1e-300,
    5e-324,
    f64::MIN_POSITIVE / 2.0,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::EPSILON,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.1 + 0.2,
    123_456.789,
];

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn gen_string(rng: &mut TestRng) -> String {
    let len = rng.below(12);
    (0..len).map(|_| pick(rng, CHARS)).collect()
}

fn gen_float(rng: &mut TestRng) -> f64 {
    match rng.below(3) {
        0 => pick(rng, FLOATS),
        1 => (rng.unit_f64() - 0.5) * 1e6,
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn gen_value(rng: &mut TestRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 6 } else { 9 };
    match rng.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => {
            let any = rng.next_u64();
            Value::UInt(pick(rng, &[0, 1, 9, 10, u64::MAX, any]))
        }
        3 => {
            let any = rng.next_u64() as i64 | i64::MIN;
            Value::Int(pick(rng, &[-1, -10, i64::MIN, any]))
        }
        4 => Value::Float(gen_float(rng)),
        5 => Value::Str(gen_string(rng)),
        6 => Value::Array(
            (0..rng.below(5))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        7 => Value::Object(
            (0..rng.below(5))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
        _ => gen_empty_nest(rng, depth),
    }
}

/// Containers whose leaves are empty containers, under empty or
/// structural-looking keys: `[[], {}]`, `{"": {"": []}}`.
fn gen_empty_nest(rng: &mut TestRng, depth: u32) -> Value {
    let inner = |rng: &mut TestRng| {
        if depth > 1 && rng.below(2) == 0 {
            gen_empty_nest(rng, depth - 1)
        } else if rng.below(2) == 0 {
            Value::Array(Vec::new())
        } else {
            Value::Object(Vec::new())
        }
    };
    let key = |rng: &mut TestRng| pick(rng, &["", "\"", "{}", "[],:", "\\\""]).to_string();
    let n = 1 + rng.below(3);
    if rng.below(2) == 0 {
        Value::Array((0..n).map(|_| inner(rng)).collect())
    } else {
        Value::Object((0..n).map(|_| (key(rng), inner(rng))).collect())
    }
}

/// The compact printer as it was before streaming, kept verbatim as an
/// oracle: a char-at-a-time escaper and `to_string`/`format!` numbers.
fn reference_json(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(f) => {
            if f.is_nan() || f.is_infinite() {
                out.push_str("null");
            } else if *f == f.trunc() && f.abs() < 1e15 {
                out.push_str(&format!("{f:.1}"));
            } else {
                out.push_str(&f.to_string());
            }
        }
        Value::Str(s) => reference_str(out, s),
        Value::Array(a) => {
            out.push('[');
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_json(out, item);
            }
            out.push(']');
        }
        Value::Object(o) => {
            out.push('{');
            for (i, (k, item)) in o.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_str(out, k);
                out.push(':');
                reference_json(out, item);
            }
            out.push('}');
        }
    }
}

fn reference_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Random `Value` trees up to four levels deep.
struct AnyTree;

impl Strategy for AnyTree {
    type Value = Value;
    fn new_value(&self, rng: &mut TestRng) -> Value {
        gen_value(rng, 4)
    }
}

/// Typed values that go through the container overrides rather than
/// the tree: tuples, arrays, chars, `f32`, `Option`, maps with integer
/// keys, and `HashMap` (which keeps the sorted-tree default).
#[derive(Debug)]
struct Typed {
    tuple: (u8, i64, f32, char, String),
    array: [Option<f64>; 3],
    by_id: BTreeMap<i32, Vec<Option<f64>>>,
    by_name: HashMap<String, u64>,
}

struct AnyTyped;

impl Strategy for AnyTyped {
    type Value = Typed;
    fn new_value(&self, rng: &mut TestRng) -> Typed {
        let opt = |rng: &mut TestRng| (rng.below(4) > 0).then(|| gen_float(rng));
        Typed {
            tuple: (
                rng.next_u64() as u8,
                pick(rng, &[i64::MIN, i64::MAX, 0, -7]),
                gen_float(rng) as f32,
                pick(rng, CHARS),
                gen_string(rng),
            ),
            array: [opt(rng), opt(rng), opt(rng)],
            by_id: (0..rng.below(4))
                .map(|_| {
                    let k = rng.next_u64() as i32;
                    (k, (0..rng.below(3)).map(|_| opt(rng)).collect())
                })
                .collect(),
            by_name: (0..rng.below(4))
                .map(|_| (gen_string(rng), rng.next_u64()))
                .collect(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_trees_stream_like_the_tree_printer(v in AnyTree) {
        // The tree printer itself against the oracle, then the container
        // overrides against the tree printer.
        let mut want = String::new();
        reference_json(&mut want, &v);
        prop_assert_eq!(serde_json::to_string(&v).expect("tree"), want);
        assert_same_bytes(&v, "value tree");
        assert_same_pretty(&v, "value tree");
        if let Value::Object(o) = &v {
            let map: BTreeMap<String, Value> = o.iter().cloned().collect();
            assert_same_bytes(&map, "BTreeMap<String, Value>");
            assert_same_pretty(&map, "BTreeMap<String, Value>");
        }
        if let Value::Array(a) = &v {
            assert_same_bytes(a, "Vec<Value>");
            assert_same_bytes(a.as_slice(), "[Value]");
            assert_same_pretty(a, "Vec<Value>");
        }
    }

    #[test]
    fn typed_containers_stream_like_the_tree_printer(t in AnyTyped) {
        assert_same_bytes(&t.tuple, "tuple");
        assert_same_bytes(&t.array, "array");
        assert_same_bytes(&t.by_id, "BTreeMap<i32, _>");
        assert_same_bytes(&t.by_name, "HashMap<String, u64>");
        assert_same_bytes(&Some(&t.tuple.4), "Option<&String>");
        assert_same_bytes(t.tuple.4.as_str(), "str");
        assert_same_pretty(&t.tuple, "tuple");
        assert_same_pretty(&t.array, "array");
        assert_same_pretty(&t.by_id, "BTreeMap<i32, _>");
        assert_same_pretty(&t.by_name, "HashMap<String, u64>");
        assert_same_pretty(t.tuple.4.as_str(), "str");
    }
}

#[test]
fn scalar_extremes_match() {
    for f in FLOATS {
        assert_same_bytes(f, "f64");
        assert_same_bytes(&(*f as f32), "f32");
    }
    assert_same_bytes(&u64::MAX, "u64::MAX");
    assert_same_bytes(&i64::MIN, "i64::MIN");
    assert_same_bytes(&i64::MAX, "i64::MAX");
    assert_same_bytes(&usize::MAX, "usize::MAX");
    assert_same_bytes(&i8::MIN, "i8::MIN");
    for c in CHARS {
        assert_same_bytes(c, "char");
    }
    let all: String = CHARS.iter().collect();
    assert_same_bytes(&all, "every awkward char");
}

/// One of every shape the derive supports.
#[derive(Serialize)]
struct Named {
    id: u64,
    label: String,
    shape: Vec<Shape>,
}

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
struct Newtype(f64);

#[derive(Serialize)]
struct Pair(i32, Option<char>);

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
enum Shape {
    Plain,
    Wrapped(Newtype),
    Tuple(u8, String, Unit),
    NoFields(),
    Record { pair: Pair, empty: Empty, out: bool },
    EmptyRecord {},
}

#[test]
fn derived_shapes_match() {
    let doc = Named {
        id: u64::MAX,
        label: "a \"quoted\" \\ label\n".to_string(),
        shape: vec![
            Shape::Plain,
            Shape::Wrapped(Newtype(-0.0)),
            Shape::Wrapped(Newtype(f64::NAN)),
            Shape::Tuple(7, "é🦀".to_string(), Unit),
            Shape::NoFields(),
            Shape::Record {
                pair: Pair(i32::MIN, Some('"')),
                empty: Empty {},
                out: true,
            },
            Shape::Record {
                pair: Pair(0, None),
                empty: Empty {},
                out: false,
            },
            Shape::EmptyRecord {},
        ],
    };
    assert_same_bytes(&doc, "derived shapes");
    assert_same_pretty(&doc, "derived shapes");
    assert_eq!(
        serde_json::to_string(&doc).expect("json"),
        concat!(
            r#"{"id":18446744073709551615,"label":"a \"quoted\" \\ label\n","shape":["#,
            r#""Plain",{"Wrapped":-0.0},{"Wrapped":null},{"Tuple":[7,"é🦀",null]},"#,
            r#"{"NoFields":[]},{"Record":{"pair":[-2147483648,"\""],"empty":{},"out":true}},"#,
            r#"{"Record":{"pair":[0,null],"empty":{},"out":false}},{"EmptyRecord":{}}]}"#,
        )
    );
}

/// Every document family the workspace writes or digests: the
/// 10-day `SimOutput`, a `CheckpointDoc` carrying armed observability
/// state, the `titan-obs/3` metrics document, and trace and health
/// records; and the pretty artifacts: `Figures`, the metrics document
/// and the `titan-prof/2` document.
#[test]
fn real_documents_match() {
    let seed = 35;
    let config = StudyConfig::quick(10, seed);

    let mut obs = Obs::new(true);
    obs.enable_trace();
    obs.enable_health();
    let mut docs = Vec::new();
    let study = ckpt::run_checkpointed(&config, 5 * DAY, None, &mut obs, |doc| {
        docs.push(doc.clone());
        Ok(())
    })
    .expect("checkpointed run");
    assert_same_bytes(&study.sim, "SimOutput");
    assert_same_pretty(&study.figures(), "Figures");
    assert!(!docs.is_empty());
    for doc in &docs {
        assert_same_bytes(doc, "CheckpointDoc");
    }

    let plan = ObsPlan {
        metrics: true,
        trace: true,
        health: true,
        prof: true,
        ..ObsPlan::default()
    };
    let (run, docs) = run_seed_with(&config, seed, true, &plan);
    let metrics = run.obs.expect("metrics document");
    assert_same_bytes(&metrics, "MetricsDoc");
    assert_same_pretty(&metrics, "MetricsDoc");
    let wall = WallDoc {
        total_ms: 12.5,
        attributed_ms: 12.0,
        attributed_pct: 96.0,
        scopes: vec![WallScope {
            name: "ev:\"quoted\" {scope}".to_string(),
            wall_ms: 12.0,
            switches: 3,
        }],
    };
    let prof = ProfDoc::build(docs.ledger.expect("ledger planned"), metrics, wall);
    assert_same_pretty(&prof, "ProfDoc");
    let (header, records) = parse_trace(&docs.trace.expect("trace")).expect("parse trace");
    assert!(!records.is_empty());
    assert_same_bytes(&header, "TraceHeader");
    assert_same_bytes(&records, "trace records");
    let health = parse_health(&docs.health.expect("health")).expect("parse health");
    assert!(!health.records.is_empty());
    assert_same_bytes(&health.header, "HealthHeader");
    assert_same_bytes(&health.records, "health records");
    assert_same_bytes(&health.summary, "HealthSummary");
}

/// The flight recorder's JSONL, written record by record into one
/// buffer, equals its reference form on an armed 30-day run: the header,
/// then `serde_json::to_string` of each record, every line
/// newline-terminated.
#[test]
fn trace_render_matches_one_string_per_record() {
    let (seed, days) = (23, 30);
    let mut obs = Obs::new(true);
    obs.enable_trace();
    obs.enable_health();
    Study::new(StudyConfig::quick(days, seed)).run_with_obs(&mut obs);
    let records = obs.stream.records();
    assert!(records.len() > 1_000, "only {} trace records", records.len());
    let header = TraceHeader {
        schema: TRACE_SCHEMA.to_string(),
        seed,
        window_days: days,
        records: records.len() as u64,
    };
    let mut reference = serde_json::to_string(&header).expect("header") + "\n";
    for r in records {
        reference += &serde_json::to_string(r).expect("record");
        reference.push('\n');
    }
    assert_same_text(&obs.stream.render_jsonl(seed, days), &reference, "trace JSONL");
}
