//! Offline stand-in for `serde_json`. Parsing builds the `serde` shim's
//! [`Value`] tree and deserializes from it; it supports the full JSON
//! grammar (objects, arrays, strings with escapes, numbers with exponents,
//! booleans, null). Writing is one pass: [`to_writer`], [`to_string`] and
//! [`to_string_pretty`] drive the type's `Serialize` impl straight into the
//! output bytes, with no intermediate tree. A [`RawJson`] splices bytes the
//! compact writer produced earlier into a larger document verbatim.

use std::io;

pub use serde::Value;

/// Error raised by JSON parsing or mapping a value tree onto a Rust type.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
    line: usize,
    column: usize,
}

impl Error {
    fn new(msg: impl Into<String>, line: usize, column: usize) -> Self {
        Error { msg: msg.into(), line, column }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "{} at line {} column {}", self.msg, self.line, self.column)
        } else {
            f.write_str(&self.msg)
        }
    }
}

impl std::error::Error for Error {}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0 }
    }

    fn error(&self, msg: impl Into<String>) -> Error {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        Error::new(msg, line, col)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected character `{}`", other as char))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{kw}`")))
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: \uD800-\uDBFF followed by \uDC00-\uDFFF.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let lo_hex = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .ok_or_else(|| self.error("bad surrogate pair"))?;
                                    let lo_hex = std::str::from_utf8(lo_hex)
                                        .map_err(|_| self.error("bad surrogate pair"))?;
                                    let lo = u32::from_str_radix(lo_hex, 16)
                                        .map_err(|_| self.error("bad surrogate pair"))?;
                                    self.pos += 6;
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(ch.ok_or_else(|| self.error("invalid unicode escape"))?);
                        }
                        other => {
                            return Err(self.error(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte safe).
                    let start = self.pos;
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| self.error(format!("invalid number `{text}`")))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::I64(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Value::U64(u))
        } else {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| self.error(format!("invalid number `{text}`")))
        }
    }
}

/// Parses a JSON document into a value tree.
pub fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(v)
}

/// Deserializes an instance of `T` from a JSON string.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let value = parse_value(s)?;
    T::deserialize(&value).map_err(|e| Error::new(e.to_string(), 0, 0))
}

/// The JSON [`serde::Serializer`]: writes each token straight to `out`,
/// compact or 2-space indented. Pass a buffered writer; every token is
/// one `write_all`.
struct Writer<W> {
    out: W,
    pretty: bool,
    /// Open sequences and maps.
    depth: usize,
    /// No element or entry written yet in the innermost open container.
    first: bool,
}

impl<W: io::Write> Writer<W> {
    fn new(out: W, pretty: bool) -> Self {
        Writer { out, pretty, depth: 0, first: true }
    }

    fn put(&mut self, s: &str) -> io::Result<()> {
        self.out.write_all(s.as_bytes())
    }

    /// Starts the next element or entry of the open container.
    fn next_item(&mut self) -> io::Result<()> {
        if !self.first {
            self.put(",")?;
        }
        self.first = false;
        if self.pretty {
            self.newline()?;
        }
        Ok(())
    }

    fn newline(&mut self) -> io::Result<()> {
        self.put("\n")?;
        for _ in 0..self.depth {
            self.put("  ")?;
        }
        Ok(())
    }

    fn open(&mut self, bracket: &str) -> io::Result<()> {
        self.depth += 1;
        self.first = true;
        self.put(bracket)
    }

    fn close(&mut self, bracket: &str) -> io::Result<()> {
        self.depth -= 1;
        if self.pretty && !self.first {
            self.newline()?;
        }
        // The enclosing container now holds this one.
        self.first = false;
        self.put(bracket)
    }

    /// Writes `s` as a quoted JSON string: in one write when nothing in it
    /// needs escaping and it fits the stack buffer, else copying unescaped
    /// runs whole between escapes.
    fn quoted(&mut self, s: &str) -> io::Result<()> {
        if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
            let mut buf = [0u8; 128];
            if let Some(framed) = buf.get_mut(..s.len() + 2) {
                framed[0] = b'"';
                framed[1..=s.len()].copy_from_slice(s.as_bytes());
                framed[s.len() + 1] = b'"';
                return self.out.write_all(framed);
            }
        }
        self.put("\"")?;
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1f => {
                    &[b'\\', b'u', b'0', b'0', HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]
                }
                _ => continue,
            };
            // Escaped bytes are ASCII, so `run..i` ends on a char boundary.
            self.put(&s[run..i])?;
            self.out.write_all(escape)?;
            run = i + 1;
        }
        self.put(&s[run..])?;
        self.put("\"")
    }

    /// Writes `-` (when `negative`) and the decimal digits of `n`, then
    /// `suffix`, in one write from a stack buffer.
    fn integer(&mut self, negative: bool, n: u64, suffix: &[u8]) -> io::Result<()> {
        // 20 digits of `u64::MAX`, a sign and the 2-byte `.0` suffix.
        let mut buf = [0u8; 23];
        let mut start = buf.len() - suffix.len();
        buf[start..].copy_from_slice(suffix);
        let mut n = n;
        loop {
            start -= 1;
            buf[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if negative {
            start -= 1;
            buf[start] = b'-';
        }
        self.out.write_all(&buf[start..])
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

impl<W: io::Write> serde::Serializer for Writer<W> {
    type Error = io::Error;

    fn serialize_null(&mut self) -> io::Result<()> {
        self.put("null")
    }

    fn serialize_bool(&mut self, v: bool) -> io::Result<()> {
        self.put(if v { "true" } else { "false" })
    }

    fn serialize_i64(&mut self, v: i64) -> io::Result<()> {
        self.integer(v < 0, v.unsigned_abs(), b"")
    }

    fn serialize_u64(&mut self, v: u64) -> io::Result<()> {
        self.integer(false, v, b"")
    }

    fn serialize_f64(&mut self, v: f64) -> io::Result<()> {
        if !v.is_finite() {
            // serde_json emits null for non-finite floats.
            self.put("null")
        } else if v == v.trunc() && v.abs() < 1e16 {
            // Match serde_json: integral floats keep a trailing `.0`. Below
            // 1e16 the shortest form of an integral float is its exact
            // integer digits (sign of zero included), so they are written
            // as the integer they hold.
            self.integer(v.is_sign_negative(), v.abs() as u64, b".0")
        } else {
            write!(self.out, "{v}")
        }
    }

    fn serialize_str(&mut self, v: &str) -> io::Result<()> {
        self.quoted(v)
    }

    fn begin_seq(&mut self) -> io::Result<()> {
        self.open("[")
    }

    fn seq_element(&mut self) -> io::Result<()> {
        self.next_item()
    }

    fn end_seq(&mut self) -> io::Result<()> {
        self.close("]")
    }

    fn begin_map(&mut self) -> io::Result<()> {
        self.open("{")
    }

    fn map_key(&mut self, key: &str) -> io::Result<()> {
        self.next_item()?;
        self.quoted(key)?;
        self.put(if self.pretty { ": " } else { ":" })
    }

    fn end_map(&mut self) -> io::Result<()> {
        self.close("}")
    }

    fn serialize_raw_json(&mut self, json: &[u8]) -> io::Result<()> {
        if self.pretty {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "raw JSON splices into compact output only",
            ));
        }
        self.out.write_all(json)
    }
}

/// One compact JSON value, already encoded, that serializes as its bytes
/// verbatim: a document can embed a value [`to_writer`] wrote earlier
/// without encoding it again. Only the compact writer accepts it;
/// [`to_string_pretty`] fails on it, since the bytes carry no indentation.
///
/// ```
/// #[derive(serde::Serialize)]
/// struct Doc<'a> {
///     id: u32,
///     body: serde_json::RawJson<'a>,
/// }
///
/// let body = serde_json::to_string(&vec![1.5, 2.0]).unwrap();
/// let doc = Doc { id: 7, body: serde_json::RawJson::new(body.as_bytes()) };
/// assert_eq!(serde_json::to_string(&doc).unwrap(), r#"{"id":7,"body":[1.5,2.0]}"#);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RawJson<'a>(&'a [u8]);

impl<'a> RawJson<'a> {
    /// Wraps `json`, which must be exactly one value as the compact writer
    /// encodes it; debug builds check that it parses. The bytes are written
    /// as they stand, never re-encoded.
    pub fn new(json: &'a [u8]) -> Self {
        debug_assert!(
            std::str::from_utf8(json).is_ok_and(|text| parse_value(text).is_ok()),
            "RawJson holds one JSON value"
        );
        RawJson(json)
    }
}

impl serde::Serialize for RawJson<'_> {
    fn serialize<S: serde::Serializer>(&self, s: &mut S) -> std::result::Result<(), S::Error> {
        s.serialize_raw_json(self.0)
    }
}

fn write_json<W: io::Write, T: serde::Serialize + ?Sized>(
    out: W,
    value: &T,
    pretty: bool,
) -> Result<()> {
    value.serialize(&mut Writer::new(out, pretty)).map_err(|e| Error::new(e.to_string(), 0, 0))
}

/// Serializes `value` as compact JSON into `out`, in one pass. `out`
/// receives one small write per token, so pass a buffered writer (or a
/// `Vec<u8>`).
pub fn to_writer<W: io::Write, T: serde::Serialize + ?Sized>(out: W, value: &T) -> Result<()> {
    write_json(out, value, false)
}

fn into_string(bytes: Vec<u8>) -> Result<String> {
    String::from_utf8(bytes).map_err(|e| Error::new(e.to_string(), 0, 0))
}

/// Serializes `value` as a pretty-printed (2-space indented) JSON string.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = Vec::new();
    write_json(&mut out, value, true)?;
    into_string(out)
}

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = Vec::new();
    to_writer(&mut out, value)?;
    into_string(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(parse_value("42").unwrap(), Value::I64(42));
        assert_eq!(parse_value("-3.5e2").unwrap(), Value::F64(-350.0));
        assert_eq!(parse_value("true").unwrap(), Value::Bool(true));
        assert_eq!(parse_value("null").unwrap(), Value::Null);
        assert_eq!(parse_value("\"a\\nb\"").unwrap(), Value::Str("a\nb".to_string()));
    }

    #[test]
    fn roundtrip_nested() {
        let src = "{\"a\": [1, 2.5, {\"b\": \"x\"}], \"c\": null}";
        let v = parse_value(src).unwrap();
        assert_eq!(parse_value(&to_string_pretty(&v).unwrap()).unwrap(), v);
        assert_eq!(parse_value(&to_string(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn integral_float_keeps_point() {
        assert_eq!(to_string(&300.0).unwrap(), "300.0");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_value("1 2").is_err());
    }
}
