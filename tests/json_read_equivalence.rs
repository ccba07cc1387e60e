//! Reading JSON straight into a type equals parsing the tree first.
//!
//! `serde_json::from_str::<T>(s)` runs `T::read_json` over the text (the
//! derived and container overrides) with no `Value` tree. Before it did,
//! `from_str` parsed the whole text into a tree and called
//! `T::from_value`. That parser is kept verbatim below as the oracle:
//! for every text the two must agree, both `Ok` with the same value or
//! both `Err`. Checked on generated trees, on generated typed values of
//! every derived shape, on structural and byte-level mutations of both,
//! and on the workspace's real documents.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::{Deserialize, Serialize, Value};
use titan_gpu_reliability::obs::{
    HealthAlert, HealthHeader, HealthInterval, HealthSummary, KindCost, MetricsDoc, Obs, ProfDoc,
    TraceHeader, TraceRecord, WallDoc,
};
use titan_gpu_reliability::runner::{ckpt, run_seed_with, CheckpointDoc, ObsPlan};
use titan_gpu_reliability::StudyConfig;

const DAY: u64 = 86_400;

// --- the oracle: the tree parser as it was before `read_json` -----------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

struct Error(String);

fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            out.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            // Surrogate pairs are not needed for this
                            // workspace's data; map lone surrogates to
                            // the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the maximal run of plain bytes (everything
                    // up to the next quote or escape) and validate that
                    // run once. Validating from `pos` to the *end of
                    // input* per character — the previous shape — made
                    // parsing quadratic in document size, which
                    // multi-megabyte checkpoint documents turned into
                    // minutes of CPU.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error("invalid UTF-8 in string".into()))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("bad number".into()))?;
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        } else if let Ok(n) = text.parse::<u64>() {
            Ok(Value::UInt(n))
        } else if let Ok(n) = text.parse::<i64>() {
            Ok(Value::Int(n))
        } else {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        }
    }
}

/// What `from_str` returned before `read_json`: the tree, then
/// `from_value`.
fn reference<T: Deserialize>(text: &str) -> Result<T, String> {
    let v = parse_value(text).map_err(|e| e.0)?;
    T::from_value(&v).map_err(|e| e.0)
}

fn snippet(text: &str) -> String {
    let end = (0..=text.len().min(300))
        .rev()
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(0);
    format!(
        "{:?}{}",
        &text[..end],
        if end < text.len() { "…" } else { "" }
    )
}

/// Asserts that reading `text` straight into `T` agrees with the oracle:
/// both `Ok` with values that serialize to the same bytes, or both `Err`.
/// Returns whether the text was accepted.
fn check<T: Deserialize + Serialize>(text: &str, what: &str) -> bool {
    let read = serde_json::from_str::<T>(text);
    let tree = reference::<T>(text);
    match (&read, &tree) {
        (Ok(a), Ok(b)) => {
            let a = serde_json::to_string(a).expect("serialize read value");
            let b = serde_json::to_string(b).expect("serialize tree value");
            assert!(
                a == b,
                "{what}: read and tree values differ for {}\n read: {}\n tree: {}",
                snippet(text),
                snippet(&a),
                snippet(&b)
            );
            true
        }
        (Err(_), Err(_)) => false,
        _ => panic!(
            "{what}: read gave {:?} but the tree gave {:?} for {}",
            read.as_ref().map(|_| "Ok").map_err(|e| e.to_string()),
            tree.as_ref().map(|_| "Ok"),
            snippet(text)
        ),
    }
}

// --- every derived shape ------------------------------------------------

#[derive(Debug, Serialize, Deserialize)]
struct Named {
    id: u64,
    small: i8,
    ratio: f32,
    label: String,
    opt: Option<i32>,
    twice: Option<Option<u16>>,
    shapes: Vec<Shape>,
    pair: Pair,
    by_id: BTreeMap<i32, (u8, Option<f64>)>,
    by_name: HashMap<String, Vec<u64>>,
    arr: [Option<u16>; 3],
    grid: Vec<Vec<Option<bool>>>,
    tuple: (char, i64, Unit, Newtype),
    empty: Empty,
    loose: AllOptional,
    data: Vec<OnlyData>,
    units: Vec<OnlyUnit>,
    any: Value,
}

#[derive(Debug, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, Serialize, Deserialize)]
struct Newtype(f64);

#[derive(Debug, Serialize, Deserialize)]
struct Pair(i32, Option<char>);

#[derive(Debug, Serialize, Deserialize)]
struct Unit;

/// Every field optional: a non-object reads as all `None`.
#[derive(Debug, Serialize, Deserialize)]
struct AllOptional {
    a: Option<u64>,
    b: Option<String>,
}

#[derive(Debug, Serialize, Deserialize)]
enum Shape {
    Plain,
    Other,
    Wrapped(Newtype),
    Tuple(u8, String, Unit),
    NoFields(),
    Record { pair: Pair, empty: Empty, out: bool },
    EmptyRecord {},
}

/// No unit variants: a string is never accepted.
#[derive(Debug, Serialize, Deserialize)]
enum OnlyData {
    A(u32),
    B { x: Option<u8> },
}

/// No data variants: an object is never accepted.
#[derive(Debug, Serialize, Deserialize)]
enum OnlyUnit {
    X,
    Y,
}

/// Checks `text` as every type under test; returns how many accepted it.
fn check_all(text: &str) -> usize {
    [
        check::<Value>(text, "Value"),
        check::<Named>(text, "Named"),
        check::<Vec<Shape>>(text, "Vec<Shape>"),
        check::<Shape>(text, "Shape"),
        check::<OnlyData>(text, "OnlyData"),
        check::<OnlyUnit>(text, "OnlyUnit"),
        check::<AllOptional>(text, "AllOptional"),
        check::<Empty>(text, "Empty"),
        check::<Unit>(text, "Unit"),
        check::<Pair>(text, "Pair"),
        check::<Newtype>(text, "Newtype"),
        check::<Option<Vec<Option<i64>>>>(text, "Option<Vec<Option<i64>>>"),
        check::<BTreeMap<String, Value>>(text, "BTreeMap<String, Value>"),
        check::<BTreeMap<u32, Vec<f64>>>(text, "BTreeMap<u32, Vec<f64>>"),
        check::<[Option<u16>; 2]>(text, "[Option<u16>; 2]"),
        check::<(u64, String)>(text, "(u64, String)"),
        check::<u64>(text, "u64"),
        check::<u8>(text, "u8"),
        check::<i32>(text, "i32"),
        check::<f64>(text, "f64"),
        check::<bool>(text, "bool"),
        check::<String>(text, "String"),
        check::<char>(text, "char"),
    ]
    .iter()
    .filter(|&&ok| ok)
    .count()
}

// --- generators -----------------------------------------------------------

/// Characters that exercise every escape and multibyte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', 'é', '🦀', '\u{fffd}',
];

/// Numbers whose reading is easy to get wrong.
const FLOATS: &[f64] = &[0.0, -0.0, 3.0, 3.5, -1.0, 1e15, 1e16, 1e300, 5e-324, 0.1];

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn gen_string(rng: &mut TestRng) -> String {
    let len = rng.below(6);
    (0..len).map(|_| pick(rng, CHARS)).collect()
}

/// A short key: often a field or variant name of the types above, so
/// generated trees land on the typed paths.
fn gen_key(rng: &mut TestRng) -> String {
    const KEYS: &[&str] = &[
        "id", "label", "opt", "a", "b", "x", "A", "B", "Plain", "Wrapped", "Tuple", "NoFields",
        "Record", "pair", "out", "empty", "1", "-2",
    ];
    if rng.below(4) == 0 {
        gen_string(rng)
    } else {
        pick(rng, KEYS).to_string()
    }
}

fn gen_scalar(rng: &mut TestRng) -> Value {
    match rng.below(7) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => {
            let any = rng.next_u64();
            Value::UInt(pick(rng, &[0, 1, 255, 256, u64::MAX, any]))
        }
        3 => Value::Int(pick(rng, &[-1, -129, i64::MIN])),
        4 => Value::Float(pick(rng, FLOATS)),
        5 => Value::Str(pick(rng, &["Plain", "X", "Y", "Other", "é", "ab"]).to_string()),
        _ => Value::Str(gen_string(rng)),
    }
}

fn gen_value(rng: &mut TestRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 1 } else { 3 };
    match rng.below(kinds) {
        0 => gen_scalar(rng),
        1 => Value::Array(
            (0..rng.below(4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(4))
                .map(|_| (gen_key(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A finite float: NaN and the infinities are written as `null`, which
/// no float field reads back.
fn gen_f64(rng: &mut TestRng) -> f64 {
    let f = match rng.below(3) {
        0 => pick(rng, FLOATS),
        1 => (rng.unit_f64() - 0.5) * 1e6,
        _ => f64::from_bits(rng.next_u64()),
    };
    if f.is_finite() {
        f
    } else {
        0.5
    }
}

fn gen_opt<T>(rng: &mut TestRng, f: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    (rng.below(3) > 0).then(|| f(rng))
}

fn gen_shape(rng: &mut TestRng) -> Shape {
    match rng.below(7) {
        0 => Shape::Plain,
        1 => Shape::Other,
        2 => Shape::Wrapped(Newtype(gen_f64(rng))),
        3 => Shape::Tuple(rng.next_u64() as u8, gen_string(rng), Unit),
        4 => Shape::NoFields(),
        5 => Shape::Record {
            pair: gen_pair(rng),
            empty: Empty {},
            out: rng.below(2) == 1,
        },
        _ => Shape::EmptyRecord {},
    }
}

fn gen_pair(rng: &mut TestRng) -> Pair {
    Pair(rng.next_u64() as i32, gen_opt(rng, |r| pick(r, CHARS)))
}

fn gen_named(rng: &mut TestRng) -> Named {
    Named {
        id: {
            let any = rng.next_u64();
            pick(rng, &[0, 7, u64::MAX, any])
        },
        small: rng.next_u64() as i8,
        ratio: (gen_f64(rng) as f32).clamp(f32::MIN, f32::MAX),
        label: gen_string(rng),
        opt: gen_opt(rng, |r| r.next_u64() as i32),
        twice: gen_opt(rng, |r| gen_opt(r, |r| r.next_u64() as u16)),
        shapes: (0..rng.below(4)).map(|_| gen_shape(rng)).collect(),
        pair: gen_pair(rng),
        by_id: (0..rng.below(3))
            .map(|_| {
                let k = rng.next_u64() as i32;
                (k, (rng.next_u64() as u8, gen_opt(rng, gen_f64)))
            })
            .collect(),
        by_name: (0..rng.below(3))
            .map(|_| {
                // A key that looks like an integer reads back as one,
                // which a `String` key rejects.
                let key = format!("k{}", gen_string(rng));
                (key, (0..rng.below(3)).map(|_| rng.next_u64()).collect())
            })
            .collect(),
        arr: [0; 3].map(|_| gen_opt(rng, |r| r.next_u64() as u16)),
        grid: (0..rng.below(3))
            .map(|_| {
                (0..rng.below(3))
                    .map(|_| gen_opt(rng, |r| r.below(2) == 1))
                    .collect()
            })
            .collect(),
        tuple: (
            pick(rng, CHARS),
            pick(rng, &[i64::MIN, -1, 0, i64::MAX]),
            Unit,
            Newtype(gen_f64(rng)),
        ),
        empty: Empty {},
        loose: AllOptional {
            a: gen_opt(rng, |r| r.next_u64()),
            b: gen_opt(rng, gen_string),
        },
        data: (0..rng.below(3))
            .map(|_| match rng.below(2) {
                0 => OnlyData::A(rng.next_u64() as u32),
                _ => OnlyData::B {
                    x: gen_opt(rng, |r| r.next_u64() as u8),
                },
            })
            .collect(),
        units: (0..rng.below(3))
            .map(|_| {
                if rng.below(2) == 0 {
                    OnlyUnit::X
                } else {
                    OnlyUnit::Y
                }
            })
            .collect(),
        any: gen_value(rng, 2),
    }
}

// --- mutations ------------------------------------------------------------

/// Number of nodes in a tree, counted in pre-order.
fn count_nodes(v: &Value) -> u64 {
    1 + match v {
        Value::Array(a) => a.iter().map(count_nodes).sum(),
        Value::Object(o) => o.iter().map(|(_, v)| count_nodes(v)).sum(),
        _ => 0,
    }
}

/// The `k`-th node of `v` in pre-order, if `k` is in range.
fn nth_node<'a>(v: &'a mut Value, k: &mut u64) -> Option<&'a mut Value> {
    if *k == 0 {
        return Some(v);
    }
    *k -= 1;
    match v {
        Value::Array(a) => a.iter_mut().find_map(|c| nth_node(c, k)),
        Value::Object(o) => o.iter_mut().find_map(|(_, c)| nth_node(c, k)),
        _ => None,
    }
}

/// Applies one structural mutation to a random node: reordered,
/// duplicated, missing or extra keys, a non-object where an object was,
/// a second key in a single-key (enum) object, or a swapped scalar.
fn mutate_tree(rng: &mut TestRng, tree: &mut Value) {
    let mut k = rng.below(count_nodes(tree));
    let Some(node) = nth_node(tree, &mut k) else {
        return;
    };
    let op = rng.below(7);
    match node {
        Value::Object(o) if !o.is_empty() && op < 5 => {
            let i = rng.below(o.len() as u64) as usize;
            match op {
                0 => o.reverse(),
                1 => {
                    // A duplicate of an existing key, before or after it,
                    // usually with a different value.
                    let key = o[i].0.clone();
                    let v = if rng.below(2) == 0 {
                        o[i].1.clone()
                    } else {
                        gen_value(rng, 1)
                    };
                    let at = rng.below(o.len() as u64 + 1) as usize;
                    o.insert(at, (key, v));
                }
                2 => {
                    o.remove(i);
                }
                3 => {
                    let at = rng.below(o.len() as u64 + 1) as usize;
                    o.insert(at, (gen_key(rng), gen_value(rng, 1)));
                }
                _ => {
                    o.push((gen_key(rng), gen_scalar(rng)));
                }
            }
        }
        Value::Object(_) | Value::Array(_) if op == 5 => *node = gen_value(rng, 1),
        _ => *node = gen_scalar(rng),
    }
}

/// Bytes a single-byte flip writes: JSON punctuation, digits, letters
/// of literals and escapes, and whitespace.
const FLIP_BYTES: &[u8] = b"{}[]\",:-+.0159eEnulltrfasx\\ ";

/// Truncates `text` or flips one of its bytes, keeping it UTF-8.
fn mutate_text(rng: &mut TestRng, text: &str) -> Option<String> {
    if text.is_empty() {
        return None;
    }
    let i = rng.below(text.len() as u64) as usize;
    if !text.is_char_boundary(i) {
        return None;
    }
    if rng.below(3) == 0 {
        return Some(text[..i].to_string());
    }
    if !text.is_char_boundary(i + 1) {
        return None;
    }
    let mut bytes = text.as_bytes().to_vec();
    bytes[i] = pick(rng, FLIP_BYTES);
    String::from_utf8(bytes).ok()
}

/// Checks a text, its pretty form, a structural mutation and a few
/// byte-level mutations of it against every type under test.
fn check_with_mutations(rng: &mut TestRng, text: &str) {
    check_all(text);
    let mut tree = parse_value(text)
        .map_err(|e| e.0)
        .expect("generated text parses");
    check_all(&serde_json::to_string_pretty(&tree).expect("pretty"));
    mutate_tree(rng, &mut tree);
    check_all(&serde_json::to_string(&tree).expect("mutated tree"));
    for _ in 0..4 {
        if let Some(m) = mutate_text(rng, text) {
            check_all(&m);
        }
    }
}

struct AnyTree;

impl Strategy for AnyTree {
    type Value = Value;
    fn new_value(&self, rng: &mut TestRng) -> Value {
        gen_value(rng, 4)
    }
}

/// A generated typed value's JSON, and a generator for its mutations.
struct AnyNamed;

impl Strategy for AnyNamed {
    type Value = (String, TestRng);
    fn new_value(&self, rng: &mut TestRng) -> (String, TestRng) {
        let named = gen_named(rng);
        let text = serde_json::to_string(&named).expect("serialize");
        (text, rng.clone())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_trees_read_like_the_tree(v in AnyTree) {
        let text = serde_json::to_string(&v).expect("tree");
        let mut rng = TestRng::for_test(&text);
        check_with_mutations(&mut rng, &text);
    }

    #[test]
    fn generated_typed_values_read_like_the_tree(case in AnyNamed) {
        let (text, mut rng) = case;
        prop_assert!(check::<Named>(&text, "Named"), "a written Named must read back");
        check_with_mutations(&mut rng, &text);
    }
}

/// Hand-picked texts: awkward scalars, escapes, whitespace, duplicate
/// and missing keys, enum objects of the wrong size, and malformed JSON.
#[test]
fn awkward_texts_read_like_the_tree() {
    let texts = [
        "3.0",
        "3.5",
        "-0.0",
        "-0",
        "1e15",
        "1E2",
        "1.",
        "-",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "256",
        "-129",
        "007",
        "-007",
        "00.5",
        "1e5",
        "12.",
        "99999999999999999999",
        "[4294967296,65536,256]",
        "\"\\u0041\\u00e9\\ud83d\\u+041\"",
        "\"\\u12\"",
        "\"\\x\"",
        "\"é\"",
        "\"ab\"",
        " [ 1 , 2 ] ",
        "[1,]",
        "[,1]",
        "{,}",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "",
        "   ",
        "nul",
        "null",
        "true",
        "1 2",
        "{}",
        "[]",
        "{\"\\u0061\":5,\"b\":\"x\"}",
        "{\"a\":5,\"a\":6}",
        "{\"a\":\"no\",\"a\":6}",
        "{\"a\":5,\"a\":\"no\"}",
        "{\"b\":null}",
        "{\"A\":1}",
        "{\"A\":1,\"A\":1}",
        "{\"A\":1,\"B\":{}}",
        "{\"B\":5}",
        "{\"B\":{\"x\":1,\"x\":\"bad\"}}",
        "{\"B\":{\"x\":\"bad\",\"x\":1}}",
        "{\"Record\":[1,2]}",
        "{\"Record\":{\"pair\":[1,null],\"empty\":{},\"out\":true,\"out\":7}}",
        "{\"Record\":{\"pair\":[1,\"c\",3],\"empty\":{},\"out\":true}}",
        "{\"Tuple\":[1,\"s\",null]}",
        "{\"Tuple\":[1,\"s\"]}",
        "{\"NoFields\":[]}",
        "{\"NoFields\":[1]}",
        "{\"EmptyRecord\":7}",
        "{\"Wrapped\":-0.0}",
        "\"Plain\"",
        "\"Unknown\"",
        "{\"Unknown\":1}",
        "{\"1\":[2.0],\"-2\":[]}",
        "{\"x\":[1]}",
        "[1,\"a\"]",
        "[1,\"a\",2]",
        "[\"x\",\"x\"]",
        "[null,null]",
    ];
    for text in texts {
        check_all(text);
    }
    // The first occurrence of a key wins; a missing field reads as null.
    let loose: AllOptional = serde_json::from_str("{\"a\":1,\"a\":2}").expect("dup");
    assert_eq!(loose.a, Some(1));
    assert_eq!(loose.b, None);
    let loose: AllOptional = serde_json::from_str("[1,2]").expect("non-object");
    assert_eq!((loose.a, loose.b), (None, None));
    assert_eq!(serde_json::from_str::<u64>("3.0").expect("3.0"), 3);
}

/// Nesting past the cap is an error, not a stack overflow, and the cap
/// sits well above any real document.
#[test]
fn nesting_past_the_cap_is_an_error() {
    let at_cap = format!(
        "{}{}",
        "[".repeat(serde::MAX_DEPTH),
        "]".repeat(serde::MAX_DEPTH)
    );
    assert!(check::<Value>(&at_cap, "at the cap"));
    let past = format!(
        "{}{}",
        "[".repeat(serde::MAX_DEPTH + 1),
        "]".repeat(serde::MAX_DEPTH + 1)
    );
    let err = serde_json::from_str::<Value>(&past).expect_err("past the cap");
    assert!(err.to_string().contains("nested deeper than"), "{err}");
    let deep = "[{\"a\":".repeat(100_000);
    for what in ["Value", "Named"] {
        let err = match what {
            "Value" => serde_json::from_str::<Value>(&deep).map(drop),
            _ => serde_json::from_str::<Named>(&deep).map(drop),
        };
        let err = err.expect_err("deep input");
        assert!(
            err.to_string().contains("nested deeper than"),
            "{what}: {err}"
        );
    }
    assert!(serde_json::from_str::<Vec<Shape>>(&deep).is_err());
    assert!(serde_json::from_str::<Vec<Vec<Vec<Value>>>>(&"[".repeat(100_000)).is_err());
}

// --- real documents -------------------------------------------------------

/// Deepest nesting of a text, for the cap's headroom.
fn depth(text: &str) -> usize {
    let (mut d, mut max, mut in_str, mut esc) = (0usize, 0, false, false);
    for b in text.bytes() {
        match (in_str, esc, b) {
            (true, true, _) => esc = false,
            (true, false, b'\\') => esc = true,
            (true, false, b'"') => in_str = false,
            (true, ..) => {}
            (false, _, b'"') => in_str = true,
            (false, _, b'[' | b'{') => {
                d += 1;
                max = max.max(d);
            }
            (false, _, b']' | b'}') => d -= 1,
            _ => {}
        }
    }
    max
}

/// Asserts a real document reads back, identically on both paths, and
/// stays well inside the nesting cap.
fn check_doc<T: Deserialize + Serialize>(text: &str, what: &str) {
    assert!(check::<T>(text, what), "{what}: real document rejected");
    assert!(
        depth(text) * 4 <= serde::MAX_DEPTH,
        "{what}: nesting {} too close to the cap",
        depth(text)
    );
}

/// The slice of a `BENCH_PR*.json` snapshot `bench diff` reads: the
/// same shape as the CLI's reader.
#[derive(Serialize, Deserialize)]
struct BenchThroughput {
    window_days: u64,
    dequeues: u64,
    loop_seconds: f64,
    dequeues_per_s: f64,
}

#[derive(Serialize, Deserialize)]
struct BenchProfSection {
    kinds: Option<BTreeMap<String, KindCost>>,
}

#[derive(Serialize, Deserialize)]
struct BenchSnapshot {
    pr: Option<u64>,
    mode: Option<String>,
    throughput: Option<BenchThroughput>,
    prof: Option<BenchProfSection>,
}

#[test]
fn committed_bench_snapshots_read_like_the_tree() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut n = 0;
    for entry in std::fs::read_dir(root).expect("read repo root") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
        if !(name.starts_with("BENCH_PR") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read snapshot");
        check_doc::<BenchSnapshot>(&text, name);
        check_doc::<Value>(&text, name);
        n += 1;
    }
    assert!(
        n >= 3,
        "expected the committed BENCH_PR*.json snapshots, found {n}"
    );
}

/// Every document family the workspace reads back: an armed 10-day
/// `CheckpointDoc`, the `titan-obs/3` metrics document, a `titan-prof/2`
/// document, trace and health lines, and the health rule set.
#[test]
fn real_documents_read_like_the_tree() {
    let seed = 35;
    let config = StudyConfig::quick(10, seed);

    let mut obs = Obs::new(true);
    obs.enable_trace();
    obs.enable_health();
    obs.enable_prof();
    let mut docs = Vec::new();
    ckpt::run_checkpointed(&config, 5 * DAY, None, &mut obs, |doc| {
        docs.push(ckpt::render_checkpoint(doc));
        Ok(())
    })
    .expect("checkpointed run");
    assert!(!docs.is_empty());
    for text in &docs {
        check_doc::<CheckpointDoc>(text, "CheckpointDoc");
        let doc = ckpt::parse_checkpoint(text).expect("parse_checkpoint");
        assert_eq!(
            ckpt::render_checkpoint(&doc),
            *text,
            "checkpoint round trip"
        );
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
    check_doc::<MetricsDoc>(
        &serde_json::to_string(&metrics).expect("metrics"),
        "MetricsDoc",
    );
    check_doc::<MetricsDoc>(&metrics.to_json(), "MetricsDoc (pretty)");
    let prof = ProfDoc::build(docs.ledger.expect("ledger"), metrics, WallDoc::default());
    check_doc::<ProfDoc>(&prof.to_json(), "ProfDoc");

    let trace = docs.trace.expect("trace");
    let mut lines = trace.lines();
    check_doc::<TraceHeader>(lines.next().expect("trace header"), "TraceHeader");
    let mut records = 0;
    for line in lines.filter(|l| !l.is_empty()) {
        check_doc::<TraceRecord>(line, "TraceRecord");
        records += 1;
    }
    assert!(records > 0);

    let health = docs.health.expect("health");
    let mut lines = health.lines();
    check_doc::<HealthHeader>(lines.next().expect("health header"), "HealthHeader");
    for line in lines {
        if line.contains("\"rec\":\"interval\"") {
            check_doc::<HealthInterval>(line, "HealthInterval");
        } else if line.contains("\"rec\":\"alert\"") {
            check_doc::<HealthAlert>(line, "HealthAlert");
        } else {
            check_doc::<HealthSummary>(line, "HealthSummary");
        }
    }
}
