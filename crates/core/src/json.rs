//! A minimal, dependency-free JSON representation with a deterministic
//! writer — the stable interchange format of the campaign driver.
//!
//! The workspace is fully offline (no serde), so the sharded campaign files
//! and machine-readable reports of the `holes` CLI are built on this hand-
//! rolled module instead. Its two guarantees matter more than generality:
//!
//! * **Determinism.** Objects preserve insertion order and the writer is a
//!   pure function of the value, so equal values always serialize to equal
//!   bytes — the property that lets K merged shard files reproduce a
//!   monolithic campaign byte-for-byte.
//! * **Losslessness.** Numbers are carried as their canonical decimal text
//!   (no round-trip through `f64`), so 64-bit seeds survive parsing and
//!   re-serialization exactly.
//!
//! The parser accepts standard JSON (escapes, surrogate pairs, nesting up to
//! a fixed depth limit) and reports byte offsets on errors.
//!
//! Large documents are not built as trees: [`JsonWriter`] streams the same
//! bytes [`Json::to_pretty`] and [`Json::to_compact`] would produce straight
//! into an [`io::Write`] sink. `Json` serves parsing, small documents, and
//! as the reference the writer is tested against.

use std::fmt::Write as _;
use std::io;

/// Nesting depth limit of the parser; deeper documents are rejected rather
/// than risking stack exhaustion on adversarial input.
const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Objects are ordered lists of `(key, value)` pairs: insertion order is
/// preserved and duplicate keys are representable (the writer emits them
/// verbatim; [`Json::get`] returns the first match, as most JSON readers
/// do).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, stored as its canonical decimal literal so 64-bit integers
    /// round-trip exactly. Construct via [`Json::from_u64`] and friends.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number value from an unsigned integer.
    pub fn from_u64(n: u64) -> Json {
        Json::Num(n.to_string())
    }

    /// A number value from a signed integer.
    pub fn from_i64(n: i64) -> Json {
        Json::Num(n.to_string())
    }

    /// A number value from a `usize`.
    pub fn from_usize(n: usize) -> Json {
        Json::Num(n.to_string())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The boolean payload, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number parsed as `u64`, if this is an integral [`Json::Num`] in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `i64`, if this is an integral [`Json::Num`] in
    /// range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `usize`, if this is an integral [`Json::Num`] in
    /// range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64`, if this is a [`Json::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The string payload, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, if this is a [`Json::Obj`].
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The first value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Serialize with two-space indentation and a trailing newline — the
    /// deterministic on-disk format of campaign shard files and reports.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialize without any whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(text) => out.push_str(text),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Exactly one value is expected; trailing
    /// content other than whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing content after the JSON value"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A streaming JSON emitter over an [`io::Write`] sink.
///
/// Its calls describe one value — containers opened and closed with
/// `begin_*`/`end_*`, object members as a [`JsonWriter::key`] followed by
/// one value — and it writes exactly the bytes [`Json::to_pretty`]
/// ([`JsonWriter::pretty`]) or [`Json::to_compact`] ([`JsonWriter::compact`])
/// produce for that value, without building it: empty containers render as
/// `[]` and `{}`, strings are escaped alike, and integers are formatted on
/// the stack. In pretty mode a newline follows each completed top-level
/// value, as in `to_pretty`; compact mode adds none, so a JSON Lines writer
/// ends each line itself through [`JsonWriter::get_mut`].
///
/// The writer does not buffer: give it an [`io::BufWriter`] for a file or
/// stdout, and flush that before trusting the output. Calls that do not
/// describe one well-formed value (a key outside an object, a member value
/// without a key, an `end_*` that closes the wrong container) are bugs in
/// the caller and panic in debug builds.
///
/// ```
/// use holes_core::json::{Json, JsonWriter};
///
/// let mut out = Vec::new();
/// let mut writer = JsonWriter::pretty(&mut out);
/// writer.begin_object()?;
/// writer.key("seed")?;
/// writer.u64(7)?;
/// writer.key("records")?;
/// writer.begin_array()?;
/// writer.end_array()?;
/// writer.end_object()?;
/// let tree = Json::Obj(vec![
///     ("seed".to_owned(), Json::from_u64(7)),
///     ("records".to_owned(), Json::Arr(vec![])),
/// ]);
/// assert_eq!(out, tree.to_pretty().into_bytes());
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct JsonWriter<W: io::Write> {
    out: W,
    pretty: bool,
    /// The open containers, innermost last.
    open: Vec<Container>,
    /// A key was just written, so the next value is its member's value and
    /// takes no separator.
    after_key: bool,
}

struct Container {
    object: bool,
    has_members: bool,
}

impl<W: io::Write> JsonWriter<W> {
    /// A writer producing [`Json::to_pretty`]'s bytes: two-space
    /// indentation and a newline after each top-level value.
    pub fn pretty(out: W) -> JsonWriter<W> {
        JsonWriter::new(out, true)
    }

    /// A writer producing [`Json::to_compact`]'s bytes: no whitespace.
    pub fn compact(out: W) -> JsonWriter<W> {
        JsonWriter::new(out, false)
    }

    fn new(out: W, pretty: bool) -> JsonWriter<W> {
        JsonWriter {
            out,
            pretty,
            open: Vec::new(),
            after_key: false,
        }
    }

    /// The sink, for bytes between top-level values (a JSON Lines newline)
    /// or to flush it.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }

    /// The sink, once the writer is done.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Open an array.
    pub fn begin_array(&mut self) -> io::Result<()> {
        self.begin(false)
    }

    /// Close the innermost container, which must be an array.
    pub fn end_array(&mut self) -> io::Result<()> {
        self.end(false)
    }

    /// Open an object.
    pub fn begin_object(&mut self) -> io::Result<()> {
        self.begin(true)
    }

    /// Close the innermost container, which must be an object.
    pub fn end_object(&mut self) -> io::Result<()> {
        self.end(true)
    }

    /// Start an object member; exactly one value must follow.
    pub fn key(&mut self, key: &str) -> io::Result<()> {
        debug_assert!(
            !self.after_key && self.open.last().is_some_and(|c| c.object),
            "a key must come directly inside an object"
        );
        self.separate()?;
        self.escaped(key, if self.pretty { b"\": " } else { b"\":" })?;
        self.after_key = true;
        Ok(())
    }

    /// Write a string.
    pub fn string(&mut self, s: &str) -> io::Result<()> {
        self.before_value()?;
        self.escaped(s, b"\"")?;
        self.after_value()
    }

    /// Write an unsigned integer.
    pub fn u64(&mut self, n: u64) -> io::Result<()> {
        let mut digits = [0u8; 20];
        self.scalar(decimal(n, &mut digits))
    }

    /// Write a `usize`.
    pub fn usize(&mut self, n: usize) -> io::Result<()> {
        self.u64(n as u64)
    }

    /// Write a whole [`Json`] value — for small trees embedded in a
    /// streamed document.
    pub fn value(&mut self, value: &Json) -> io::Result<()> {
        match value {
            Json::Null => self.scalar(b"null"),
            Json::Bool(b) => self.scalar(if *b { b"true" } else { b"false" }),
            Json::Num(text) => self.scalar(text.as_bytes()),
            Json::Str(s) => self.string(s),
            Json::Arr(items) => {
                self.begin_array()?;
                for item in items {
                    self.value(item)?;
                }
                self.end_array()
            }
            Json::Obj(pairs) => {
                self.begin_object()?;
                for (key, value) in pairs {
                    self.key(key)?;
                    self.value(value)?;
                }
                self.end_object()
            }
        }
    }

    fn begin(&mut self, object: bool) -> io::Result<()> {
        self.before_value()?;
        self.out.write_all(if object { b"{" } else { b"[" })?;
        self.open.push(Container {
            object,
            has_members: false,
        });
        Ok(())
    }

    fn end(&mut self, object: bool) -> io::Result<()> {
        let container = self.open.pop().expect("`end_*` without an open container");
        debug_assert!(
            container.object == object && !self.after_key,
            "`end_*` must close the innermost container after a complete member"
        );
        if self.pretty && container.has_members {
            self.newline(false)?;
        }
        self.out.write_all(if object { b"}" } else { b"]" })?;
        self.after_value()
    }

    fn scalar(&mut self, text: &[u8]) -> io::Result<()> {
        self.before_value()?;
        self.out.write_all(text)?;
        self.after_value()
    }

    fn before_value(&mut self) -> io::Result<()> {
        if std::mem::take(&mut self.after_key) {
            return Ok(());
        }
        debug_assert!(
            !self.open.last().is_some_and(|c| c.object),
            "an object member needs a key first"
        );
        self.separate()
    }

    fn after_value(&mut self) -> io::Result<()> {
        if self.pretty && self.open.is_empty() {
            self.out.write_all(b"\n")?;
        }
        Ok(())
    }

    /// What precedes a member of the innermost container.
    fn separate(&mut self) -> io::Result<()> {
        let Some(container) = self.open.last_mut() else {
            return Ok(());
        };
        let first = !std::mem::replace(&mut container.has_members, true);
        if self.pretty {
            self.newline(!first)
        } else if !first {
            self.out.write_all(b",")
        } else {
            Ok(())
        }
    }

    /// An optional comma, a newline, and two spaces per open container, in
    /// as few writes as the nesting allows.
    fn newline(&mut self, comma: bool) -> io::Result<()> {
        const BREAK: &[u8; 34] = b",\n                                ";
        let start = usize::from(!comma);
        let mut remaining = 2 * self.open.len();
        let first = remaining.min(BREAK.len() - 2);
        self.out.write_all(&BREAK[start..2 + first])?;
        remaining -= first;
        while remaining > 0 {
            let n = remaining.min(BREAK.len() - 2);
            self.out.write_all(&BREAK[2..2 + n])?;
            remaining -= n;
        }
        Ok(())
    }

    /// `write_string`'s escaping, writing unescaped runs in one piece, then
    /// `close` (the closing quote and whatever follows it). Control
    /// characters are ASCII, so scanning bytes finds them all.
    fn escaped(&mut self, s: &str, close: &[u8]) -> io::Result<()> {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.write_all(b"\"")?;
        let bytes = s.as_bytes();
        let mut run_start = 0;
        for (i, &byte) in bytes.iter().enumerate() {
            let unicode;
            let escape: &[u8] = match byte {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x00..=0x1f => {
                    unicode = [
                        b'\\',
                        b'u',
                        b'0',
                        b'0',
                        HEX[usize::from(byte >> 4)],
                        HEX[usize::from(byte & 0xf)],
                    ];
                    &unicode
                }
                _ => continue,
            };
            self.out.write_all(&bytes[run_start..i])?;
            self.out.write_all(escape)?;
            run_start = i + 1;
        }
        self.out.write_all(&bytes[run_start..])?;
        self.out.write_all(close)
    }
}

/// The decimal digits of `n`, formatted at the end of `buf` (20 bytes hold
/// `u64::MAX`).
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[start..];
        }
    }
}

/// A JSON parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{text}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than the supported limit"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected byte `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let escaped = self.peek().ok_or_else(|| self.error("truncated escape"))?;
        self.pos += 1;
        match escaped {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let unit = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&unit) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let combined = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(combined)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(unit)
                };
                out.push(c.ok_or_else(|| self.error("invalid \\u escape"))?);
            }
            other => return Err(self.error(format!("unknown escape `\\{}`", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        // Exactly four ASCII hex digits — `u32::from_str_radix` alone would
        // also accept a leading `+`, letting `\u+123` slip through.
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.error("invalid \\u escape"));
        }
        let unit = digits.iter().fold(0u32, |unit, &digit| {
            unit << 4 | (digit as char).to_digit(16).expect("validated hex digit")
        });
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let integer_digits = self.digits();
        if integer_digits == 0 {
            return Err(self.error("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        Ok(Json::Num(text.to_owned()))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_pretty_and_compact_forms() {
        let value = Json::Obj(vec![
            ("format".to_owned(), Json::str("holes.campaign/v1")),
            ("seed".to_owned(), Json::from_u64(u64::MAX)),
            ("delta".to_owned(), Json::from_i64(-42)),
            ("ok".to_owned(), Json::Bool(true)),
            ("none".to_owned(), Json::Null),
            (
                "records".to_owned(),
                Json::Arr(vec![
                    Json::from_usize(7),
                    Json::str("quote \" backslash \\ newline \n tab \t"),
                    Json::Arr(vec![]),
                    Json::Obj(vec![]),
                ]),
            ),
        ]);
        for rendered in [value.to_pretty(), value.to_compact()] {
            assert_eq!(Json::parse(&rendered).unwrap(), value, "{rendered}");
        }
        // u64::MAX survives exactly (would be lossy through f64).
        let reparsed = Json::parse(&value.to_pretty()).unwrap();
        assert_eq!(reparsed.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(reparsed.get("delta").unwrap().as_i64(), Some(-42));
    }

    #[test]
    fn writer_is_deterministic_and_order_preserving() {
        let a = Json::Obj(vec![
            ("z".to_owned(), Json::from_u64(1)),
            ("a".to_owned(), Json::from_u64(2)),
        ]);
        assert_eq!(a.to_pretty(), a.clone().to_pretty());
        let text = a.to_compact();
        assert!(
            text.find("\"z\"").unwrap() < text.find("\"a\"").unwrap(),
            "insertion order must be preserved: {text}"
        );
    }

    #[test]
    fn accessors_select_the_expected_payloads() {
        let value = Json::parse(r#"{"n": 3, "s": "x", "b": false, "a": [1], "f": 1.5}"#).unwrap();
        assert_eq!(value.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(value.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(value.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(value.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(value.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(value.get("f").unwrap().as_u64(), None, "1.5 is not a u64");
        assert_eq!(value.get("missing"), None);
        assert_eq!(value.as_obj().unwrap().len(), 5);
        assert_eq!(value.get("n").unwrap().as_str(), None);
        assert_eq!(value.get("s").unwrap().as_u64(), None);
    }

    #[test]
    fn parser_handles_escapes_and_surrogate_pairs() {
        let parsed = Json::parse(r#""a\/b A 😀 é""#).unwrap();
        assert_eq!(parsed.as_str(), Some("a/b A \u{1F600} é"));
        // The writer escapes control characters, and they re-parse.
        let value = Json::str("bell\u{7}");
        assert!(value.to_compact().contains("\\u0007"));
        assert_eq!(Json::parse(&value.to_compact()).unwrap(), value);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "01x",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"lone \\uD800 surrogate\"",
            "nul",
            "true false",
            "[1] []",
            "-",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?}");
        }
    }

    /// The `\u` escape is exactly four hex digits, and a high surrogate
    /// must be completed by a `\u`-escaped low surrogate — every way of
    /// falling short (signs smuggled into the hex field, the string or the
    /// document ending mid-escape, a high surrogate followed by anything
    /// else) is a parse error, not a silently accepted code unit.
    #[test]
    fn parser_rejects_malformed_unicode_escapes() {
        for bad in [
            // `u32::from_str_radix` accepts `+123`; the escape must not.
            r#""\u+123""#,
            r#""\u-123""#,
            r#""\u12g4""#,
            // EOF mid-escape: in the hex field and between the digits.
            r#""\u"#,
            r#""\u12"#,
            r#""\uD800\u"#,
            // A lone high surrogate at the end of the string.
            r#""\uD800""#,
            // A high surrogate completed by a non-`\u` escape…
            r#""\uD800\n""#,
            // …by a plain character…
            r#""\uD800x""#,
            // …or by a `\u` escape that is not a low surrogate.
            r#""\uD800\u0041""#,
            // An unpaired low surrogate is no better.
            r#""\uDC00""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // The boundary cases around the surrogate range still parse.
        assert_eq!(
            Json::parse(r#""\uD7FF\uE000""#).unwrap().as_str(),
            Some("\u{D7FF}\u{E000}")
        );
        assert_eq!(
            Json::parse(r#""\uD800\uDC00""#).unwrap().as_str(),
            Some("\u{10000}")
        );
    }

    #[test]
    fn parser_enforces_the_depth_limit() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }
}
