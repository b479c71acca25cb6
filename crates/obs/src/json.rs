//! A minimal JSON value, writer helpers and recursive-descent parser.
//!
//! The workspace carries no serde; this module is just enough JSON for
//! the telemetry layer: [`JsonlSubscriber`](crate::JsonlSubscriber)
//! writes one object per line, and tests plus
//! `examples/telemetry_check.rs` parse those lines back with
//! [`parse_json`] to validate the stream. Numbers are `f64` (ample for
//! telemetry payloads); non-finite floats are *written* as strings
//! (`"NaN"`, `"inf"`, `"-inf"`) because JSON has no literal for them.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects: `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as `f64`, also accepting the string spellings
    /// [`write_json_f64`] uses for non-finite values (`"inf"`,
    /// `"-inf"`, `"NaN"`) — the inverse of that writer.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Str(s) => match s.as_str() {
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "NaN" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements if the value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members if the value is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Why a JSON document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What the parser expected.
    pub expected: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: expected {}", self.offset, self.expected)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse_json(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("end of input"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            expected,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8, expected: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }

    fn eat_literal(&mut self, lit: &'static str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(lit))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "'{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("closing '\"'")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("four hex digits"))?;
                            // Surrogate pairs are not needed for
                            // telemetry payloads; map lone surrogates
                            // to the replacement character.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("an escape character")),
                    }
                    self.pos += 1;
                }
                Some(lead) => {
                    // Consume one UTF-8 scalar. The input came in as
                    // &str and the parser only advances by whole
                    // scalars, so `pos` is on a boundary and the lead
                    // byte gives the scalar's width. Decoding just that
                    // slice keeps parsing linear in the input length.
                    let width = match lead {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let ch = self
                        .bytes
                        .get(self.pos..self.pos + width)
                        .and_then(|scalar| std::str::from_utf8(scalar).ok())
                        .and_then(|scalar| scalar.chars().next())
                        .ok_or_else(|| self.err("valid UTF-8"))?;
                    out.push(ch);
                    self.pos += width;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError {
                offset: start,
                expected: "a number",
            })
    }
}

/// Serializes `value` back to compact JSON text.
///
/// Round-trips with [`parse_json`]: finite numbers use the shortest
/// exact `f64` representation, so `parse → write → parse` preserves
/// every bit. Non-finite numbers never occur in a parsed [`Json`]
/// (they arrive as the strings [`write_json_f64`] spells them as).
pub fn write_json(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(v) => write_json_f64(out, *v),
        Json::Str(s) => write_json_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(out, key);
                out.push(':');
                write_json(out, value);
            }
            out.push('}');
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_json(&mut out, self);
        f.write_str(&out)
    }
}

/// Appends `text` to `out` as a JSON string literal (quoted, escaped).
pub fn write_json_string(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `value` to `out` as a JSON number, spelling non-finite
/// values as strings (JSON has no literal for them). Finite values use
/// the shortest representation that parses back to the identical bits
/// — the property the sweep checkpoints rely on.
pub fn write_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        // `{:?}` is the shortest round-trip representation and is
        // always a valid JSON number for finite inputs.
        out.push_str(&format!("{value:?}"));
    } else if value.is_nan() {
        out.push_str("\"NaN\"");
    } else if value > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null"), Ok(Json::Null));
        assert_eq!(parse_json("true"), Ok(Json::Bool(true)));
        assert_eq!(parse_json("false"), Ok(Json::Bool(false)));
        assert_eq!(parse_json("42"), Ok(Json::Num(42.0)));
        assert_eq!(parse_json("-1.5e-3"), Ok(Json::Num(-1.5e-3)));
        assert_eq!(parse_json("\"hi\""), Ok(Json::Str("hi".into())));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse_json(r#"{"a":[1,2,{"b":"x"}],"c":{"d":null}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert_eq!(doc.get("c").unwrap().get("d"), Some(&Json::Null));
    }

    #[test]
    fn unescapes_strings() {
        let doc = parse_json(r#""a\"b\\c\ndAe""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c\ndAe"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "{\"a\" 1}", "nul"] {
            assert!(parse_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn error_reports_offset() {
        let e = parse_json("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn string_writer_round_trips() {
        for s in ["plain", "with \"quotes\"", "tab\there", "new\nline", "π∆", "12 µs 😀"] {
            let mut out = String::new();
            write_json_string(&mut out, s);
            assert_eq!(parse_json(&out).unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn f64_writer_round_trips() {
        for v in [0.0, 1.0, -2.5, 1e-10, std::f64::consts::PI, 1e300] {
            let mut out = String::new();
            write_json_f64(&mut out, v);
            assert_eq!(parse_json(&out).unwrap().as_f64(), Some(v));
        }
        let mut out = String::new();
        write_json_f64(&mut out, f64::NAN);
        assert_eq!(parse_json(&out).unwrap().as_str(), Some("NaN"));
        let mut out = String::new();
        write_json_f64(&mut out, f64::INFINITY);
        assert_eq!(parse_json(&out).unwrap().as_str(), Some("inf"));
    }

    #[test]
    fn value_writer_round_trips_bit_exactly() {
        for text in [
            "null",
            "true",
            r#"{"kind":"point","index":5,"coords":[0.05,"inf"],"value":1.25e-7}"#,
            r#"[1,-2.5,"x",{"a":[]},{}]"#,
        ] {
            let parsed = parse_json(text).unwrap();
            let mut out = String::new();
            write_json(&mut out, &parsed);
            assert_eq!(parse_json(&out).unwrap(), parsed, "{text}");
            assert_eq!(out, parsed.to_string());
        }
        // Finite f64 bits survive a full write → parse → write cycle.
        for v in [1.0 / 3.0, 6.02e23, 5e-324, -0.0] {
            let mut out = String::new();
            write_json_f64(&mut out, v);
            let back = parse_json(&out).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn as_num_reads_nonfinite_spellings() {
        assert_eq!(parse_json("1.5").unwrap().as_num(), Some(1.5));
        assert_eq!(
            parse_json("\"inf\"").unwrap().as_num(),
            Some(f64::INFINITY)
        );
        assert_eq!(
            parse_json("\"-inf\"").unwrap().as_num(),
            Some(f64::NEG_INFINITY)
        );
        assert!(parse_json("\"NaN\"").unwrap().as_num().unwrap().is_nan());
        assert_eq!(parse_json("\"x\"").unwrap().as_num(), None);
        assert_eq!(parse_json("true").unwrap().as_num(), None);
    }

    #[test]
    fn whole_number_accessor() {
        assert_eq!(parse_json("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse_json("7.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("-7").unwrap().as_u64(), None);
    }
}
