//! Number text, decoded through every path the reader offers, against a
//! reference built from core `str::parse`.
//!
//! The reader classifies a number token the way `Value` stores it: text
//! that is all digits (after an optional `-`) and fits `i64` is an
//! integer, anything else goes to the float parser. A token is the
//! longest run of `0-9 . e E + -` after an optional leading `-`; a token
//! `str::parse` refuses is "invalid number" at the token's first byte,
//! and a value starting with any other byte is "unexpected" there. The
//! float targets read integers through `i64 as f64`, and `f32` narrows
//! the `f64` result. Decoded bits, error messages and error positions
//! must all match that reference, whichever path decodes the token:
//! a scalar `f64`/`f32`/`Value`, or an element of `Vec<f32>`/`Vec<f64>`.
//!
//! Run these in the debug profile too, where integer overflow panics: a
//! mantissa accumulator that overflows on long digit runs shows up here.

use serde::{Deserialize, Reader};
use serde_json::{from_str, Error, Value, MAX_DEPTH};

/// A number as the reference classifies it.
#[derive(Debug, Clone, Copy)]
enum Num {
    Int(i64),
    Float(f64),
}

impl Num {
    fn f64(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::Float(f) => f,
        }
    }
}

/// An expected error: its message and its byte position.
type Expected<T> = Result<T, (String, usize)>;

/// The reference classification of a token that starts at byte `at`
/// and is followed by a byte outside the token alphabet (or the end).
fn reference(token: &str, at: usize) -> Expected<Num> {
    let first = token.as_bytes()[0];
    if first != b'-' && !first.is_ascii_digit() {
        return Err((format!("unexpected `{}`", first as char), at));
    }
    let unsigned = token.strip_prefix('-').unwrap_or(token);
    if unsigned.bytes().all(|c| c.is_ascii_digit()) {
        if let Ok(i) = token.parse::<i64>() {
            return Ok(Num::Int(i));
        }
    }
    token.parse::<f64>().map(Num::Float).map_err(|_| (format!("invalid number `{token}`"), at))
}

/// Assert that `got` is `want`: the same bits, or the same message at
/// the same position.
fn check<T: std::fmt::Debug>(
    doc: &str,
    target: &str,
    got: Result<T, Error>,
    want: Expected<T>,
    same: impl Fn(&T, &T) -> bool,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert!(same(&g, &w), "{target} of {doc:?}: got {g:?}, want {w:?}"),
        (Err(g), Err((msg, at))) => {
            assert_eq!(g.to_string(), format!("{msg} at byte {at}"), "{target} of {doc:?}");
            assert_eq!(g.position(), at, "{target} of {doc:?}");
        }
        (g, w) => panic!("{target} of {doc:?}: got {g:?}, want {w:?}"),
    }
}

fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// splitmix64: a small, seedable source of test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }

    fn digits(&mut self, out: &mut String, n: usize) {
        for _ in 0..n {
            out.push((b'0' + self.below(10) as u8) as char);
        }
    }
}

/// Tokens the reader has special cases for, or had.
const PINNED: [&str; 16] = [
    "-0",
    "-0.0",
    "1.",
    "-.5",
    "16777217",
    "9007199254740993",
    "1e400",
    "1e",
    "01",
    "-01.50",
    "8191.875",
    "-12.125",
    "999999999999999",
    "0.000000000000001",
    "9223372036854775808",
    "-9223372036854775808",
];

/// A random token over `0-9 . - + e E`, 1–24 bytes, weighted toward the
/// shapes a fast decimal path must get right or refuse: mantissas of
/// 14–17 digits, leading zeros, short dyadic decimals, exponents.
fn token(rng: &mut Rng) -> String {
    let mut t = String::new();
    match rng.below(8) {
        0 => t.push_str(rng.pick(&PINNED)),
        1 | 2 => {
            let len = 1 + rng.below(24);
            for _ in 0..len {
                t.push(
                    rng.pick(&["0", "1", "5", "9", ".", "-", "+", "e", "E"]).as_bytes()[0] as char,
                );
            }
        }
        3 | 4 => {
            // A 14–17 digit mantissa, maybe with leading zeros, a point
            // and an exponent.
            if rng.below(2) == 0 {
                t.push('-');
            }
            t.push_str(&"0".repeat(rng.below(4)));
            let digits = 14 + rng.below(4);
            let point = rng.below(digits + 1);
            rng.digits(&mut t, point.max(1));
            if point < digits {
                t.push('.');
                rng.digits(&mut t, digits - point);
            }
            if rng.below(4) == 0 {
                t.push_str(rng.pick(&["e", "E", "e-", "e+"]));
                let exp = 1 + rng.below(3);
                rng.digits(&mut t, exp);
            }
        }
        _ => {
            // A short decimal, like the gateway's workload floats.
            if rng.below(2) == 0 {
                t.push('-');
            }
            let int = 1 + rng.below(6);
            rng.digits(&mut t, int);
            if rng.below(4) != 0 {
                t.push('.');
                let frac = 1 + rng.below(9);
                rng.digits(&mut t, frac);
            }
        }
    }
    t.truncate(24);
    t
}

const WS: [&str; 6] = ["", "", " ", "\t", "\n  ", "\r\n"];

#[test]
fn scalar_number_text_matches_core_parse() {
    let mut rng = Rng(0x5EED_0001);
    let mut tokens: Vec<String> = PINNED.iter().map(|s| s.to_string()).collect();
    tokens.extend((0..20_000).map(|_| token(&mut rng)));
    for tok in &tokens {
        let pre = rng.pick(&WS);
        let doc = format!("{pre}{tok}{}", rng.pick(&WS));
        let want = reference(tok, pre.len());
        check(
            &doc,
            "Value",
            from_str::<Value>(&doc),
            want.clone().map(|n| match n {
                Num::Int(i) => Value::Int(i),
                Num::Float(f) => Value::Float(f),
            }),
            same_value,
        );
        check(&doc, "f64", from_str::<f64>(&doc), want.clone().map(Num::f64), |a, b| {
            a.to_bits() == b.to_bits()
        });
        check(&doc, "f32", from_str::<f32>(&doc), want.map(|n| n.f64() as f32), |a, b| {
            a.to_bits() == b.to_bits()
        });
    }
}

#[test]
fn array_number_text_matches_core_parse() {
    let mut rng = Rng(0x5EED_0002);
    for _ in 0..4_000 {
        let count = rng.below(7);
        let mut doc = format!("[{}", rng.pick(&WS));
        let mut want: Expected<Vec<Num>> = Ok(Vec::new());
        for k in 0..count {
            if k > 0 {
                doc.push_str(rng.pick(&WS));
                doc.push(',');
                doc.push_str(rng.pick(&WS));
            }
            let tok = token(&mut rng);
            if let Ok(done) = &mut want {
                match reference(&tok, doc.len()) {
                    Ok(n) => done.push(n),
                    Err(e) => want = Err(e),
                }
            }
            doc.push_str(&tok);
        }
        doc.push_str(rng.pick(&WS));
        doc.push(']');
        let f64s = want.clone().map(|v| v.iter().map(|n| n.f64()).collect());
        check(&doc, "Vec<f64>", from_str::<Vec<f64>>(&doc), f64s, |a, b| {
            a.iter().map(|f| f.to_bits()).eq(b.iter().map(|f| f.to_bits()))
        });
        let f32s = want.map(|v| v.iter().map(|n| n.f64() as f32).collect());
        check(&doc, "Vec<f32>", from_str::<Vec<f32>>(&doc), f32s, |a, b| {
            a.iter().map(|f| f.to_bits()).eq(b.iter().map(|f| f.to_bits()))
        });
    }
}

/// Objects nested down to a numeric array: `{"k":{"k":…[1.5,2]…}}`.
struct Nested<T>(Vec<T>);

impl<T: Deserialize> Deserialize for Nested<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        if r.peek()? != b'{' {
            return Vec::<T>::deserialize(r).map(Nested);
        }
        let mut inner = None;
        r.object(|r, _| {
            inner = Some(Self::deserialize(r)?);
            Ok(())
        })?;
        inner.ok_or_else(|| r.error("empty object"))
    }
}

fn nested(levels: usize) -> String {
    format!("{}[1.5,2]{}", "{\"k\":".repeat(levels), "}".repeat(levels))
}

/// Array-level errors of the numeric vector targets, message and
/// position, as the reader reported them before numeric arrays got their
/// own element loop.
#[test]
fn float_array_errors_are_pinned() {
    let deep = nested(MAX_DEPTH);
    let deep_at = 5 * MAX_DEPTH + 1;
    let cases: [(&str, &str, usize); 9] = [
        ("[1,true]", "expected a number", 3),
        ("[1 2]", "expected `,` or `]`, found `2`", 3),
        ("[1,]", "unexpected `]`", 3),
        ("[", "unexpected end of input (expected a value)", 1),
        ("[1,", "unexpected end of input (expected a value)", 3),
        ("[-]", "invalid number `-`", 1),
        ("[1}", "expected `,` or `]`, found `}`", 2),
        ("[[1]]", "expected a number", 1),
        (&deep, "nesting deeper than 64 levels", deep_at),
    ];
    for (doc, msg, at) in cases {
        let want = format!("{msg} at byte {at}");
        let e64 = from_str::<Nested<f64>>(doc).err().expect(doc);
        let e32 = from_str::<Nested<f32>>(doc).err().expect(doc);
        for (target, e) in [("Vec<f64>", e64), ("Vec<f32>", e32)] {
            assert_eq!(e.to_string(), want, "{target} of {doc:?}");
            assert_eq!(e.position(), at, "{target} of {doc:?}");
        }
    }
    // One level shallower fits the cap.
    let fits = nested(MAX_DEPTH - 1);
    assert_eq!(from_str::<Nested<f32>>(&fits).unwrap().0, [1.5, 2.0]);
    assert_eq!(from_str::<Nested<f64>>(&fits).unwrap().0, [1.5, 2.0]);
}
