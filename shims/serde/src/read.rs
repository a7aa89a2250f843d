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
    /// [`MAX_DEPTH`]. [`Reader::seq`] pairs it with a `depth -= 1`.
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
        self.expect(open)?;
        self.descend()?;
        if self.peek()? != close {
            loop {
                item(self)?;
                match self.peek()? {
                    b',' => self.pos += 1,
                    c if c == close => break,
                    c => {
                        return Err(self.error(format!(
                            "expected `,` or `{}`, found `{}`",
                            close as char, c as char
                        )))
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
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

    /// Read a number: integer text that fits `i64` as [`Value::Int`],
    /// anything else through the float parser as [`Value::Float`].
    #[inline]
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
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
        self.pos += len;
        let text = &self.src[start..self.pos];
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::at(format!("invalid number `{text}`"), start))
    }

    /// Read a number as `f64`.
    #[inline]
    pub(crate) fn float(&mut self) -> Result<f64, Error> {
        match self.peek()? {
            b'-' | b'0'..=b'9' => self.number().map(|v| v.as_f64().expect("numbers are numeric")),
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
            b'-' | b'0'..=b'9' => self.number()?,
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
