//! Minimal JSON support: the one compact writer every exporter in this
//! crate serializes through ([`JsonWriter`]), and a validating parser for
//! reading documents back (the trace files must load in Perfetto, so "looks
//! like JSON" is not good enough).

use std::fmt::Write;

/// Appends `s` to `out` with JSON string escaping (quotes, backslash,
/// control characters; everything else passes through verbatim as UTF-8).
fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Returns `s` with JSON string escaping applied.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_json_into(&mut out, s);
    out
}

/// Compact (no whitespace) JSON writer appending to a `String`.
///
/// Values are written in call order; the writer places the commas. Inside
/// an object every value is preceded by [`JsonWriter::key`]; containers
/// nest through closures, so brackets always balance:
///
/// ```
/// use spdkfac_obs::json::JsonWriter;
/// let mut out = String::new();
/// JsonWriter::new(&mut out).object(|w| {
///     w.key("rank").int(2).key("loss").num(f64::NAN);
///     w.key("ops").array(|w| {
///         w.str("allreduce").str("broadcast");
///     });
/// });
/// assert_eq!(out, r#"{"rank":2,"loss":null,"ops":["allreduce","broadcast"]}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// The open container already holds a member, so the next one needs a
    /// comma first.
    comma: bool,
    /// A key was just written; the value that follows takes no comma.
    after_key: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending one top-level value to `out`.
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter {
            out,
            comma: false,
            after_key: false,
        }
    }

    fn sep(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn nest(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.sep();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Writes an object whose members `body` emits as `key` + value pairs.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('{', '}', body)
    }

    /// Writes an array whose elements `body` emits.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('[', ']', body)
    }

    /// Writes a member name; the next call writes its value.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.str(name);
        self.out.push(':');
        self.after_key = true;
        self
    }

    /// Writes an escaped string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        escape_json_into(self.out, s);
        self.out.push('"');
        self
    }

    /// Writes a number in shortest round-trip form. JSON has no
    /// NaN/Infinity: non-finite values are written as `null`.
    pub fn num(&mut self, v: f64) -> &mut Self {
        self.fmt_num(v, format_args!("{v}"))
    }

    /// Writes a number with exactly `decimals` fractional digits (`null`
    /// when non-finite).
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        self.fmt_num(v, format_args!("{v:.decimals$}"))
    }

    fn fmt_num(&mut self, v: f64, text: std::fmt::Arguments<'_>) -> &mut Self {
        self.sep();
        if v.is_finite() {
            let _ = self.out.write_fmt(text);
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes an unsigned integer.
    pub fn int(&mut self, v: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes `true` / `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.sep();
        self.out.push_str("null");
        self
    }
}

/// A parsed JSON value.
///
/// The deliberately small dependency-free counterpart of `serde_json`'s
/// `Value`, used where this repo must *read* JSON back (e.g.
/// `spdkfac_postmortem` merging the ranks' dumps). Numbers are `f64` (every
/// number this repo writes fits), object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one complete JSON value. Returns the byte offset and reason on
/// failure.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

/// Validates that `s` is one complete JSON value (object, array, string,
/// number, `true`, `false`, or `null`). Returns the byte offset and reason
/// on failure.
///
/// This checks exactly the grammar Perfetto's loader requires (it is
/// [`parse_json`] with the value discarded).
pub fn validate_json(s: &str) -> Result<(), String> {
    parse_json(s).map(|_| ())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Containers nested deeper than this are refused: the parser recurses
/// once per level, and no document this crate writes nests past 6.
const MAX_DEPTH: usize = 128;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}", pos = *pos)),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "containers nested deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => parse_string(b, pos).map(JsonValue::String),
        Some(b't') => parse_literal(b, pos, b"true").map(|_| JsonValue::Bool(true)),
        Some(b'f') => parse_literal(b, pos, b"false").map(|_| JsonValue::Bool(false)),
        Some(b'n') => parse_literal(b, pos, b"null").map(|_| JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}", pos = *pos)),
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    let mut members = Vec::new();
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        let value = parse_value(b, pos, depth)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => {
                        out.push('"');
                        *pos += 1;
                    }
                    Some(b'\\') => {
                        out.push('\\');
                        *pos += 1;
                    }
                    Some(b'/') => {
                        out.push('/');
                        *pos += 1;
                    }
                    Some(b'b') => {
                        out.push('\u{08}');
                        *pos += 1;
                    }
                    Some(b'f') => {
                        out.push('\u{0c}');
                        *pos += 1;
                    }
                    Some(b'n') => {
                        out.push('\n');
                        *pos += 1;
                    }
                    Some(b'r') => {
                        out.push('\r');
                        *pos += 1;
                    }
                    Some(b't') => {
                        out.push('\t');
                        *pos += 1;
                    }
                    Some(b'u') => {
                        *pos += 1;
                        let mut code = 0u32;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => {
                                    code =
                                        code * 16 + (*h as char).to_digit(16).expect("hex digit");
                                    *pos += 1;
                                }
                                _ => {
                                    return Err(format!("bad \\u escape at byte {pos}", pos = *pos))
                                }
                            }
                        }
                        // Surrogates (trace files never emit them) degrade
                        // to U+FFFD rather than failing the parse.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
            }
            0x00..=0x1f => {
                return Err(format!(
                    "unescaped control char in string at byte {pos}",
                    pos = *pos
                ))
            }
            _ => {
                // Multi-byte UTF-8 sequences pass through verbatim.
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && b[*pos] & 0xc0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..*pos])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                );
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| -> usize {
        let s = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        *pos - s
    };
    if digits(b, pos) == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(b, pos) == 0 {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(b, pos) == 0 {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-UTF-8 number")?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("unparseable number at byte {start}"))
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{01}"), "\\u0001");
        assert_eq!(escape_json("FF&BP"), "FF&BP");
    }

    #[test]
    fn validates_good_json() {
        for ok in [
            "{}",
            "[]",
            "{\"a\":[1,2.5,-3e-2],\"b\":{\"c\":null},\"d\":\"x\\ny\"}",
            "  [true, false, null]  ",
            "-0.5",
            "\"\\u00e9\"",
        ] {
            assert!(validate_json(ok).is_ok(), "{ok} should validate");
        }
    }

    #[test]
    fn nesting_past_the_depth_bound_is_refused_not_a_stack_overflow() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_json(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse_json(&nested(1_000_000)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn rejects_bad_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{a:1}",
            "1 2",
            "\"unterminated",
            "{\"a\":01e}",
            "nul",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_values() {
        let v = parse_json("{\"a\": [1, 2.5, -3e-2], \"b\": {\"c\": null}, \"s\": \"x\\ny\"}")
            .expect("parses");
        let a = v.get("a").and_then(JsonValue::as_array).expect("array");
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert!((a[2].as_f64().expect("num") + 0.03).abs() < 1e-15);
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&JsonValue::Null));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\ny"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_roundtrips_escapes() {
        let doc = format!("\"{}\"", escape_json("tab\t quote\" slash\\ nl\n"));
        let v = parse_json(&doc).expect("parses");
        assert_eq!(v.as_str(), Some("tab\t quote\" slash\\ nl\n"));
        let uni = parse_json("\"\\u00e9\"").expect("parses");
        assert_eq!(uni.as_str(), Some("\u{e9}"));
    }

    #[test]
    fn escaped_strings_validate() {
        let s = format!("{{\"name\":\"{}\"}}", escape_json("weird \"layer\\3\"\n"));
        assert!(validate_json(&s).is_ok());
    }
}
