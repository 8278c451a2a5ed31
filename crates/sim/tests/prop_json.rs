//! Differential property test of the streaming JSON writer: for every
//! input, `serde_json::to_string` / `to_string_pretty` must produce the
//! bytes of the value-tree renderer they replaced.
//!
//! The reference is a copy of that renderer ([`reference`]) plus the
//! value trees the old tree-building `Serialize` impls produced
//! ([`OldTree`]), written out by hand for the standard types and for a
//! zoo of derived types covering every shape the derive supports.

use std::collections::{BTreeMap, HashMap, HashSet};

use proptest::prelude::*;
use serde::{Serialize, Value};

/// The tree renderer the streaming writer replaced, kept verbatim as
/// the byte-identity reference.
mod reference {
    use serde::Value;

    pub fn compact(v: &Value) -> String {
        let mut out = String::new();
        render(v, None, 0, &mut out);
        out
    }

    pub fn pretty(v: &Value) -> String {
        let mut out = String::new();
        render(v, Some(2), 0, &mut out);
        out
    }

    fn render(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::UInt(u) => out.push_str(&u.to_string()),
            Value::Float(f) => render_float(*f, out),
            Value::Str(s) => render_string(s, out),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(indent, depth + 1, out);
                    render(item, indent, depth + 1, out);
                }
                newline_indent(indent, depth, out);
                out.push(']');
            }
            Value::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(indent, depth + 1, out);
                    render_string(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    render(item, indent, depth + 1, out);
                }
                newline_indent(indent, depth, out);
                out.push('}');
            }
        }
    }

    fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
        if let Some(w) = indent {
            out.push('\n');
            for _ in 0..w * depth {
                out.push(' ');
            }
        }
    }

    fn render_float(f: f64, out: &mut String) {
        if !f.is_finite() {
            out.push_str("null");
            return;
        }
        out.push_str(&format!("{f:?}"));
    }

    fn render_string(s: &str, out: &mut String) {
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
}

/// The value tree the old tree-building `Serialize` impls produced.
trait OldTree {
    fn tree(&self) -> Value;
}

macro_rules! old_int {
    ($($t:ty),*) => {$(
        impl OldTree for $t {
            fn tree(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}
old_int!(i8, i16, i32, i64, u8, u16, u32);

impl OldTree for u64 {
    fn tree(&self) -> Value {
        match i64::try_from(*self) {
            Ok(i) => Value::Int(i),
            Err(_) => Value::UInt(*self),
        }
    }
}

impl OldTree for f32 {
    fn tree(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl OldTree for f64 {
    fn tree(&self) -> Value {
        Value::Float(*self)
    }
}

impl OldTree for bool {
    fn tree(&self) -> Value {
        Value::Bool(*self)
    }
}

impl OldTree for String {
    fn tree(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl OldTree for char {
    fn tree(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl OldTree for () {
    fn tree(&self) -> Value {
        Value::Null
    }
}

impl<T: OldTree> OldTree for Box<T> {
    fn tree(&self) -> Value {
        (**self).tree()
    }
}

impl<T: OldTree> OldTree for Option<T> {
    fn tree(&self) -> Value {
        match self {
            Some(v) => v.tree(),
            None => Value::Null,
        }
    }
}

impl<T: OldTree> OldTree for Vec<T> {
    fn tree(&self) -> Value {
        Value::Array(self.iter().map(OldTree::tree).collect())
    }
}

impl<A: OldTree, B: OldTree> OldTree for (A, B) {
    fn tree(&self) -> Value {
        Value::Array(vec![self.0.tree(), self.1.tree()])
    }
}

impl<A: OldTree, B: OldTree, C: OldTree, D: OldTree> OldTree for (A, B, C, D) {
    fn tree(&self) -> Value {
        Value::Array(vec![
            self.0.tree(),
            self.1.tree(),
            self.2.tree(),
            self.3.tree(),
        ])
    }
}

fn old_key<K: OldTree>(key: &K) -> String {
    match key.tree() {
        Value::Str(s) => s,
        other => reference::compact(&other),
    }
}

impl<K: OldTree, V: OldTree> OldTree for BTreeMap<K, V> {
    fn tree(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (old_key(k), v.tree())).collect())
    }
}

impl<K: OldTree, V: OldTree> OldTree for HashMap<K, V> {
    fn tree(&self) -> Value {
        let mut entries: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (old_key(k), v.tree())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<T: OldTree> OldTree for HashSet<T> {
    fn tree(&self) -> Value {
        let mut items: Vec<Value> = self.iter().map(OldTree::tree).collect();
        items.sort_by_key(reference::compact);
        Value::Array(items)
    }
}

// ---------------------------------------------------------------------
// The derive zoo
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Serialize)]
struct UnitStruct;

#[derive(Debug, Clone, PartialEq, Serialize)]
struct Newtype(u32);

#[derive(Debug, Clone, PartialEq, Serialize)]
struct Pair(i64, String);

#[derive(Debug, Clone, PartialEq, Serialize)]
struct Empty {}

#[derive(Debug, Clone, PartialEq, Serialize)]
enum Shape {
    Unit,
    Newtype(f64),
    Tuple(u8, Option<String>),
    Struct { name: String, rows: Vec<Vec<u16>> },
    EmptyStruct {},
}

#[derive(Debug, Clone, PartialEq, Serialize)]
struct Zoo {
    unit: UnitStruct,
    newtype: Newtype,
    pair: Pair,
    empty: Empty,
    shapes: Vec<Shape>,
    nested: Option<Box<Zoo>>,
    big: (u64, i64, f32, char),
    by_id: BTreeMap<u32, String>,
    by_pair: BTreeMap<(u8, bool), f32>,
    by_shape: BTreeMap<String, Shape>,
    hashed: HashMap<String, i32>,
    hashed_ints: HashMap<i16, ()>,
    names: HashSet<String>,
    points: HashSet<(u8, i8)>,
    empties: (Vec<u8>, Vec<Vec<u8>>),
}

impl OldTree for UnitStruct {
    fn tree(&self) -> Value {
        Value::Null
    }
}

impl OldTree for Newtype {
    fn tree(&self) -> Value {
        self.0.tree()
    }
}

impl OldTree for Pair {
    fn tree(&self) -> Value {
        Value::Array(vec![self.0.tree(), self.1.tree()])
    }
}

impl OldTree for Empty {
    fn tree(&self) -> Value {
        Value::Object(vec![])
    }
}

fn tagged(variant: &str, content: Value) -> Value {
    Value::Object(vec![(variant.to_owned(), content)])
}

impl OldTree for Shape {
    fn tree(&self) -> Value {
        match self {
            Shape::Unit => Value::Str("Unit".to_owned()),
            Shape::Newtype(f) => tagged("Newtype", f.tree()),
            Shape::Tuple(a, b) => tagged("Tuple", Value::Array(vec![a.tree(), b.tree()])),
            Shape::Struct { name, rows } => tagged(
                "Struct",
                Value::Object(vec![
                    ("name".to_owned(), name.tree()),
                    ("rows".to_owned(), rows.tree()),
                ]),
            ),
            Shape::EmptyStruct {} => tagged("EmptyStruct", Value::Object(vec![])),
        }
    }
}

impl OldTree for Zoo {
    fn tree(&self) -> Value {
        Value::Object(vec![
            ("unit".to_owned(), self.unit.tree()),
            ("newtype".to_owned(), self.newtype.tree()),
            ("pair".to_owned(), self.pair.tree()),
            ("empty".to_owned(), self.empty.tree()),
            ("shapes".to_owned(), self.shapes.tree()),
            ("nested".to_owned(), self.nested.tree()),
            ("big".to_owned(), self.big.tree()),
            ("by_id".to_owned(), self.by_id.tree()),
            ("by_pair".to_owned(), self.by_pair.tree()),
            ("by_shape".to_owned(), self.by_shape.tree()),
            ("hashed".to_owned(), self.hashed.tree()),
            ("hashed_ints".to_owned(), self.hashed_ints.tree()),
            ("names".to_owned(), self.names.tree()),
            ("points".to_owned(), self.points.tree()),
            ("empties".to_owned(), self.empties.tree()),
        ])
    }
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// Strategy from a plain generator function.
struct Gen<T>(fn(&mut TestRng) -> T);

impl<T> Strategy for Gen<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

fn pick<T: Copy>(rng: &mut TestRng, pool: &[T]) -> T {
    pool[rng.below(pool.len() as u64) as usize]
}

fn gen_f64(rng: &mut TestRng) -> f64 {
    const SPECIAL: &[f64] = &[
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1e-7,
        1e21,
        -1e21,
        1e300,
        5e-324,
        f64::MAX,
        f64::MIN_POSITIVE,
        0.1,
        1.0,
    ];
    if rng.below(3) == 0 {
        pick(rng, SPECIAL)
    } else {
        let scale = pick(rng, &[1e-9, 1.0, 1e6, 1e18, 1e25]);
        (rng.unit_f64() - 0.5) * scale
    }
}

fn gen_f32(rng: &mut TestRng) -> f32 {
    const SPECIAL: &[f32] = &[
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.1,
        1e-7,
        f32::MAX,
        f32::MIN_POSITIVE,
    ];
    if rng.below(3) == 0 {
        pick(rng, SPECIAL)
    } else {
        gen_f64(rng) as f32
    }
}

fn gen_u64(rng: &mut TestRng) -> u64 {
    match rng.below(4) {
        0 => pick(rng, &[0, 9, 10, 99, 100, i64::MAX as u64, u64::MAX]),
        1 => rng.below(1000),
        _ => rng.next_u64() >> rng.below(64),
    }
}

fn gen_i64(rng: &mut TestRng) -> i64 {
    match rng.below(4) {
        0 => pick(rng, &[0, -1, -10, i64::MIN, i64::MIN + 1, i64::MAX]),
        _ => (rng.next_u64() as i64) >> rng.below(64),
    }
}

fn gen_char(rng: &mut TestRng) -> char {
    const POOL: &[char] = &[
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        ' ',
        'a',
        'Z',
        '0',
        'é',
        'ß',
        '中',
        '\u{7ff}',
        '\u{800}',
        '\u{ffff}',
        '😀',
        '\u{10000}',
        '\u{10ffff}',
    ];
    if rng.below(2) == 0 {
        pick(rng, POOL)
    } else {
        char::from(0x20 + rng.below(0x5f) as u8)
    }
}

fn gen_string(rng: &mut TestRng) -> String {
    let len = rng.below(8);
    (0..len).map(|_| gen_char(rng)).collect()
}

fn gen_value(rng: &mut TestRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Int(gen_i64(rng)),
        3 => Value::UInt(gen_u64(rng)),
        4 => Value::Float(gen_f64(rng)),
        5 => Value::Str(gen_string(rng)),
        6 => Value::Array(
            (0..rng.below(4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(4))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn gen_shape(rng: &mut TestRng) -> Shape {
    match rng.below(5) {
        0 => Shape::Unit,
        1 => Shape::Newtype(gen_f64(rng)),
        2 => Shape::Tuple(
            rng.below(256) as u8,
            (rng.below(2) == 0).then(|| gen_string(rng)),
        ),
        3 => Shape::Struct {
            name: gen_string(rng),
            rows: (0..rng.below(3))
                .map(|_| {
                    (0..rng.below(3))
                        .map(|_| rng.below(70_000) as u16)
                        .collect()
                })
                .collect(),
        },
        _ => Shape::EmptyStruct {},
    }
}

fn gen_zoo(rng: &mut TestRng, depth: u32) -> Zoo {
    let n = |rng: &mut TestRng| rng.below(4);
    Zoo {
        unit: UnitStruct,
        newtype: Newtype(rng.next_u64() as u32),
        pair: Pair(gen_i64(rng), gen_string(rng)),
        empty: Empty {},
        shapes: (0..n(rng)).map(|_| gen_shape(rng)).collect(),
        nested: (depth > 0 && rng.below(2) == 0).then(|| Box::new(gen_zoo(rng, depth - 1))),
        big: (gen_u64(rng), gen_i64(rng), gen_f32(rng), gen_char(rng)),
        by_id: (0..n(rng))
            .map(|_| (rng.next_u64() as u32, gen_string(rng)))
            .collect(),
        by_pair: (0..n(rng))
            .map(|_| ((rng.below(256) as u8, rng.below(2) == 0), gen_f32(rng)))
            .collect(),
        by_shape: (0..n(rng))
            .map(|_| (gen_string(rng), gen_shape(rng)))
            .collect(),
        hashed: (0..n(rng))
            .map(|_| (gen_string(rng), gen_i64(rng) as i32))
            .collect(),
        hashed_ints: (0..n(rng)).map(|_| (gen_i64(rng) as i16, ())).collect(),
        names: (0..n(rng)).map(|_| gen_string(rng)).collect(),
        points: (0..n(rng))
            .map(|_| (rng.below(256) as u8, gen_i64(rng) as i8))
            .collect(),
        empties: (Vec::new(), (0..n(rng)).map(|_| Vec::new()).collect()),
    }
}

/// Asserts that `x` streams to the bytes the reference renders from
/// `tree`, in both layouts, and that its `to_value` tree renders the same.
fn assert_matches<T: Serialize + ?Sized>(x: &T, tree: &Value) {
    let compact = serde_json::to_string(x).unwrap();
    assert_eq!(compact, reference::compact(tree));
    assert_eq!(
        serde_json::to_string_pretty(x).unwrap(),
        reference::pretty(tree)
    );
    assert_eq!(serde_json::to_string(&x.to_value()).unwrap(), compact);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_values_render_like_the_tree_renderer(v in Gen(|rng| gen_value(rng, 4))) {
        assert_matches(&v, &v);
        prop_assert_eq!(serde::text::render_compact(&v), reference::compact(&v));
        prop_assert_eq!(serde::text::render_pretty(&v), reference::pretty(&v));
    }

    #[test]
    fn derived_types_render_like_their_old_trees(zoo in Gen(|rng| gen_zoo(rng, 2))) {
        assert_matches(&zoo, &zoo.tree());
    }

    #[test]
    fn scalars_render_like_their_old_trees(
        f in Gen(gen_f64),
        g in Gen(gen_f32),
        u in Gen(gen_u64),
        i in Gen(gen_i64),
        s in Gen(gen_string),
    ) {
        assert_matches(&f, &f.tree());
        assert_matches(&g, &g.tree());
        assert_matches(&u, &u.tree());
        assert_matches(&i, &i.tree());
        assert_matches(&s, &s.tree());
        assert_matches(s.as_str(), &s.tree());
    }
}

#[test]
fn named_edge_cases() {
    for f in [f64::NAN, f64::INFINITY, -0.0, 1e-7, 1e21, 0.1] {
        assert_matches(&f, &f.tree());
    }
    for g in [f32::NAN, 0.1f32, -0.0f32, 1e-7f32, f32::MAX] {
        assert_matches(&g, &g.tree());
    }
    assert_matches(&u64::MAX, &u64::MAX.tree());
    assert_matches(&i64::MIN, &i64::MIN.tree());
    let s = "q\"b\\c\n\r\t\u{0}\u{1f}\u{7f}é中😀".to_owned();
    assert_matches(&s, &s.tree());
    assert_matches(&Vec::<u8>::new(), &Value::Array(vec![]));
    assert_matches(&Empty {}, &Value::Object(vec![]));
    assert_matches(
        &BTreeMap::<String, u8>::new(),
        &BTreeMap::<String, u8>::new().tree(),
    );
}

#[test]
fn parse_depth_is_bounded() {
    let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let limit = serde::text::MAX_DEPTH;
    assert!(serde_json::from_str::<Value>(&nest(limit)).is_ok());
    let err = serde_json::from_str::<Value>(&nest(20_000)).unwrap_err();
    assert_eq!(err.classify(), serde::Category::RecursionLimit);
    assert!(err.to_string().contains("recursion limit"), "{err}");
}
