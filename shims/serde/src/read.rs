//! The JSON reader every [`Deserialize`](crate::Deserialize) impl pulls
//! from.
//!
//! It is hardened for **network input** (the gateway feeds it raw HTTP
//! bodies): nesting depth is capped at [`MAX_DEPTH`] so a hostile `[[[[…`
//! body cannot blow the stack, [`Reader::end`] rejects trailing garbage
//! after the document, and every error carries the byte offset it was
//! detected at ([`Error::position`]) — including truncated bodies, which
//! report the end-of-input offset instead of a positionless "unexpected
//! end".
//!
//! **Numbers** are read by one routine, [`Reader::number`], in one pass
//! for the common case. A token of the form `-?[0-9]+(\.[0-9]+)?` with at
//! most 15 digits in total, followed by a byte that cannot continue a
//! number (not `0-9 . e E + -`), is accumulated into a `u64` mantissa `m`
//! while its end is found: integer text is `±m`, and a fraction of `k`
//! digits is `±(m / 10^k)`. That division is exact: `m < 10^15 < 2^53` and
//! `10^k` are both representable in `f64`, so one IEEE division rounds the
//! true quotient correctly — the same bits `str::parse::<f64>` returns
//! (Clinger's fast path). Every other token — exponents, longer
//! mantissas, and the lenient forms the reader has always accepted
//! (`1.`, `-.5`, `01e1`, …) or refused (`1e`, `--1`, `1-2`) — falls back
//! to scanning the run of `0-9 . e E + -` and `str::parse` (`i64` first
//! for all-digit text, then `f64`), with the same results and errors.
//! Numeric arrays (`Vec<f32>`, `Vec<f64>`) read their elements through
//! that routine in a loop of their own, with no per-element closure or
//! [`Value`].

use crate::Value;
use std::borrow::Cow;

/// Maximum nesting depth (arrays + objects) the reader accepts. Deeper
/// documents are rejected with a positioned error rather than recursing
/// toward a stack overflow — this reader runs on untrusted network bodies.
pub const MAX_DEPTH: usize = 64;

/// A JSON syntax error, or a value of the wrong type for its target,
/// with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    pos: usize,
}

impl Error {
    fn at(msg: impl Into<String>, pos: usize) -> Self {
        Self { msg: msg.into(), pos }
    }

    /// Byte offset in the input where the error was detected. For
    /// truncated input this is the input length — the point where more
    /// bytes were expected.
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.pos)
    }
}

impl std::error::Error for Error {}

/// Most digits a number may have to take the exact fast path: below
/// 10^15 the mantissa is an integer `f64` represents exactly.
const FAST_DIGITS: usize = 15;

/// `10^k` for every fraction length the fast path takes; all exact.
const POW10: [f64; FAST_DIGITS + 1] =
    [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15];

/// Accumulate the decimal digits from `at` onto `mantissa`, returning the
/// offset of the first non-digit. Long runs wrap instead of overflowing;
/// the fast path only uses a mantissa of at most [`FAST_DIGITS`] digits.
#[inline]
fn digits(bytes: &[u8], mut at: usize, mantissa: &mut u64) -> usize {
    while let Some(&c @ b'0'..=b'9') = bytes.get(at) {
        *mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
        at += 1;
    }
    at
}

/// A number token, classified the way [`Value`] stores numbers.
#[derive(Debug, Clone, Copy)]
enum Number {
    Int(i64),
    Float(f64),
}

impl Number {
    #[inline]
    fn as_f64(self) -> f64 {
        match self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }
}

impl From<Number> for Value {
    fn from(n: Number) -> Self {
        match n {
            Number::Int(i) => Value::Int(i),
            Number::Float(f) => Value::Float(f),
        }
    }
}

/// A cursor over one JSON document.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Current array/object nesting depth, capped at [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Self { src, pos: 0, depth: 0 }
    }

    /// Finish the document: only whitespace may follow the value read.
    pub fn end(mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(Error::at("trailing characters after document", self.pos));
        }
        Ok(())
    }

    /// An error positioned at the current offset.
    pub fn error(&self, msg: impl Into<String>) -> Error {
        Error::at(msg, self.pos)
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.bytes().get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Truncated-input error, positioned at the end of the bytes.
    fn truncated(&self, what: &str) -> Error {
        Error::at(format!("unexpected end of input ({what})"), self.src.len())
    }

    /// Skip whitespace and return the first byte of the next token.
    #[inline]
    pub fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes().get(self.pos).copied().ok_or_else(|| self.truncated("expected a value"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// Enter one nesting level, rejecting documents deeper than
    /// [`MAX_DEPTH`]. [`Reader::leave`] steps back out.
    fn descend(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// Read an array, handing each element to `element`, which must
    /// consume exactly one value.
    pub(crate) fn array(
        &mut self,
        element: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.seq(b'[', b']', element)
    }

    /// Read an array of numbers, each narrowed from `f64` by `narrow`:
    /// [`Reader::array`]'s loop, with [`Reader::float`] called directly
    /// for every element.
    #[inline]
    pub(crate) fn floats<T>(&mut self, narrow: fn(f64) -> T) -> Result<Vec<T>, Error> {
        let mut out = Vec::new();
        let mut more = self.open(b'[', b']')?;
        while more {
            out.push(narrow(self.float()?));
            more = self.next_item(b']')?;
        }
        Ok(out)
    }

    /// Read an object, handing each key to `entry`, which must consume
    /// exactly one value. Keys without escapes are borrowed from the
    /// input.
    pub fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, &str) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.seq(b'{', b'}', |r| {
            let key = r.string()?;
            r.expect(b':')?;
            entry(r, &key)
        })
    }

    /// Read a comma-separated sequence between `open` and `close`, one
    /// nesting level deeper.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let mut more = self.open(open, close)?;
        while more {
            item(self)?;
            more = self.next_item(close)?;
        }
        Ok(())
    }

    /// Enter a sequence at `open`, one nesting level deeper, and return
    /// whether an item follows. An empty sequence is consumed whole.
    #[inline]
    fn open(&mut self, open: u8, close: u8) -> Result<bool, Error> {
        self.expect(open)?;
        self.descend()?;
        if self.peek()? == close {
            self.leave();
            return Ok(false);
        }
        Ok(true)
    }

    /// After an item: step over `,` and return `true` (another item
    /// follows), or over `close` and return `false`.
    #[inline]
    fn next_item(&mut self, close: u8) -> Result<bool, Error> {
        match self.peek()? {
            b',' => {
                self.pos += 1;
                Ok(true)
            }
            c if c == close => {
                self.leave();
                Ok(false)
            }
            c => {
                Err(self
                    .error(format!("expected `,` or `{}`, found `{}`", close as char, c as char)))
            }
        }
    }

    /// Step over a sequence's closing byte and leave its nesting level.
    #[inline]
    fn leave(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// Read a string, borrowing it from the input unless it has escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let src = self.src;
        // Set once an escape has been decoded.
        let mut owned: Option<String> = None;
        loop {
            // A run of unescaped bytes ends at a quote or a backslash; both
            // are ASCII, so the run's bounds fall on char boundaries.
            let run = self.pos;
            let stop = run
                + self.bytes()[run..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .ok_or_else(|| self.truncated("unterminated string"))?;
            self.pos = stop + 1;
            let chunk = &src[run..stop];
            if self.bytes()[stop] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(chunk),
                    Some(mut s) => {
                        s.push_str(chunk);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(chunk);
            self.escape(s)?;
        }
    }

    /// Decode the escape after a backslash onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let esc =
            *self.bytes().get(self.pos).ok_or_else(|| self.truncated("unterminated escape"))?;
        self.pos += 1;
        out.push(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                // A high surrogate must pair with a `\u` low surrogate.
                let code = if (0xD800..0xDC00).contains(&unit) {
                    let at = self.pos;
                    let low = if self.bytes()[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        self.hex4()?
                    } else {
                        0
                    };
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(Error::at("lone surrogate", at));
                    }
                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    unit
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))?
            }
            c => return Err(Error::at(format!("invalid escape `\\{}`", c as char), self.pos - 1)),
        });
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.truncated("truncated \\u escape"))?;
        self.pos += 4;
        std::str::from_utf8(hex)
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))
    }

    /// Read a number: integer text that fits `i64` as [`Number::Int`],
    /// anything else as [`Number::Float`]. Short decimals take the exact
    /// one-pass path described in the module docs; every other token is
    /// scanned again from its start and handed to `str::parse`.
    #[inline(always)]
    fn number(&mut self) -> Result<Number, Error> {
        let bytes = self.bytes();
        let start = self.pos;
        let neg = bytes.get(start) == Some(&b'-');
        let int_start = start + usize::from(neg);
        let mut mantissa = 0u64;
        let int_end = digits(bytes, int_start, &mut mantissa);
        let mut end = int_end;
        if int_end > int_start && bytes.get(end) == Some(&b'.') {
            end = digits(bytes, end + 1, &mut mantissa);
            if end == int_end + 1 {
                // `1.`: leave the point to end the token, and so refuse it.
                end = int_end;
            }
        }
        // Digits in the token: the fraction's point is not one.
        let frac = (end - int_end).saturating_sub(1);
        let count = int_end - int_start + frac;
        let continues = matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if int_end > int_start && count <= FAST_DIGITS && !continues {
            self.pos = end;
            return Ok(if frac == 0 {
                let m = mantissa as i64;
                Number::Int(if neg { -m } else { m })
            } else {
                let f = mantissa as f64 / POW10[frac];
                Number::Float(if neg { -f } else { f })
            });
        }
        self.parse_number(start)
    }

    /// The general number path: the run of `0-9 . e E + -` after an
    /// optional sign, parsed as `i64` when it is all digits, else as
    /// `f64`.
    #[cold]
    fn parse_number(&mut self, start: usize) -> Result<Number, Error> {
        let rest = &self.bytes()[start..];
        let sign = usize::from(rest.first() == Some(&b'-'));
        let mut integral = true;
        let len = rest[sign..]
            .iter()
            .position(|&c| match c {
                b'0'..=b'9' => false,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    false
                }
                _ => true,
            })
            .map_or(rest.len(), |n| sign + n);
        self.pos = start + len;
        let text = &self.src[start..self.pos];
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| Error::at(format!("invalid number `{text}`"), start))
    }

    /// Read a number as `f64`. Always inlined (with [`Reader::number`]):
    /// the numeric-array loop calls it once per element.
    #[inline(always)]
    pub(crate) fn float(&mut self) -> Result<f64, Error> {
        match self.peek()? {
            b'-' | b'0'..=b'9' => self.number().map(Number::as_f64),
            _ => self.scalar("a number", |v| v.as_f64()),
        }
    }

    /// Read any value into a tree.
    pub(crate) fn value(&mut self) -> Result<Value, Error> {
        Ok(match self.peek()? {
            b'n' => self.keyword("null").map(|()| Value::Null)?,
            b't' => self.keyword("true").map(|()| Value::Bool(true))?,
            b'f' => self.keyword("false").map(|()| Value::Bool(false))?,
            b'"' => Value::String(self.string()?.into_owned()),
            b'[' => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Value::Array(items)
            }
            b'{' => {
                let mut entries = Vec::new();
                self.object(|r, key| {
                    entries.push((key.to_owned(), r.value()?));
                    Ok(())
                })?;
                Value::Object(entries)
            }
            b'-' | b'0'..=b'9' => self.number()?.into(),
            c => return Err(self.error(format!("unexpected `{}`", c as char))),
        })
    }

    /// Read and discard one well-formed value (an unknown or duplicate
    /// object key's), under the same depth cap.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        self.value().map(drop)
    }

    /// Read one value and convert it with `get`, or fail with "expected
    /// `what`" at the value's first byte.
    pub(crate) fn scalar<T>(
        &mut self,
        what: &str,
        get: impl FnOnce(Value) -> Option<T>,
    ) -> Result<T, Error> {
        self.peek()?;
        let at = self.pos;
        get(self.value()?).ok_or_else(|| Error::at(format!("expected {what}"), at))
    }
}
