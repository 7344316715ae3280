//! A minimal, zero-dependency JSON reader/writer helper.
//!
//! The workspace's JSON *emitters* (`RocTable::to_json`,
//! [`MetricsSnapshot::to_json`](crate::MetricsSnapshot::to_json)) encode by
//! hand; the perf-regression gate additionally needs to *read* the previous
//! run's artefacts back. This module is the matching reader: a strict
//! recursive descent parser over the RFC 8259 grammar, plus the two encoding
//! helpers ([`escape`], [`number`]) the emitters share.
//!
//! Scope: everything the workspace's own documents use — objects, arrays,
//! strings (with `\uXXXX` escapes), `f64` numbers, booleans, `null`.
//! Numbers outside `f64` (e.g. `u64` above 2^53) lose precision like every
//! other `f64`-based JSON reader; the gate only compares timings, where
//! that is irrelevant.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Keys are sorted (BTreeMap): the workspace's own
    /// documents never rely on duplicate or order-significant keys.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(value) => Some(value),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(values) => Some(values),
            _ => None,
        }
    }

    /// Member lookup on an object (`None` on non-objects and missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|map| map.get(key))
    }

    /// Nested member lookup: `value.pointer(&["histograms", "x", "p50"])`.
    pub fn pointer(&self, path: &[&str]) -> Option<&JsonValue> {
        path.iter().try_fold(self, |value, key| value.get(key))
    }
}

/// A parse failure: what was expected and the byte offset it failed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (surrounding whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first violation of the grammar.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        offset: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.offset != parser.bytes.len() {
        return Err(parser.error("trailing characters after the document"));
    }
    Ok(value)
}

/// Escapes a string for embedding in a JSON document (quotes, backslashes
/// and control characters, per RFC 8259).
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Encodes an `f64` as a JSON number (`Display` for finite values is
/// shortest-roundtrip decimal, which is valid JSON; non-finite values
/// become `null`).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.offset,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.offset).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.offset += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.offset += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.offset..].starts_with(literal.as_bytes()) {
            self.offset += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{literal}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number_value(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.offset += 1;
            return Ok(JsonValue::Array(values));
        }
        loop {
            self.skip_whitespace();
            values.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.offset += 1,
                Some(b']') => {
                    self.offset += 1;
                    return Ok(JsonValue::Array(values));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.offset += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.offset += 1,
                Some(b'}') => {
                    self.offset += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.offset;
            // Consume a run of plain (non-escape, non-quote) bytes at
            // once; the input is valid UTF-8 by construction (&str).
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.offset += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.offset])
                    .expect("slice of a str on char boundaries"),
            );
            match self.peek() {
                Some(b'"') => {
                    self.offset += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.offset += 1;
                    out.push(self.escape_char()?);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape_char(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.error("truncated escape"))?;
        self.offset += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    // High surrogate: must be followed by \uXXXX low.
                    if self.peek() == Some(b'\\') {
                        self.offset += 1;
                        self.expect(b'u')?;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(combined)
                            .ok_or_else(|| self.error("invalid surrogate pair"))?
                    } else {
                        return Err(self.error("lone high surrogate"));
                    }
                } else {
                    char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))?
                }
            }
            _ => return Err(self.error("unknown escape character")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.error("expected 4 hex digits"))?;
            code = code * 16 + digit;
            self.offset += 1;
        }
        Ok(code)
    }

    fn number_value(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.offset;
        if self.peek() == Some(b'-') {
            self.offset += 1;
        }
        // Integer part: `0` or a non-zero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.offset += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.offset += 1;
                }
            }
            _ => return Err(self.error("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.offset += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit after `.`"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.offset += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.offset += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.offset += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.offset += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.offset]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_workspace_documents() {
        let doc = parse(
            "{\"schema\":2,\"rows\":[{\"snr_db\":-5,\"detector\":\"cfd\\\"#1\\u000a\\\\x\",\
             \"pd\":0.6,\"pfa\":0.125,\"trials\":8}],\
             \"soc_sweep\":{\"analytic_seconds\":0.0012,\"lockstep_seconds\":0.0102,\
             \"speedup\":8.5}}",
        )
        .unwrap();
        assert_eq!(doc.get("schema").unwrap().as_f64(), Some(2.0));
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("detector").unwrap().as_str(),
            Some("cfd\"#1\n\\x")
        );
        assert_eq!(
            doc.pointer(&["soc_sweep", "speedup"]).unwrap().as_f64(),
            Some(8.5)
        );
    }

    #[test]
    fn parses_scalars_numbers_and_nesting() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("-0.5e2").unwrap().as_f64(), Some(-50.0));
        assert_eq!(parse("1E-3").unwrap().as_f64(), Some(0.001));
        assert_eq!(parse("0").unwrap().as_f64(), Some(0.0));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(BTreeMap::new()));
        let nested = parse("[[1,2],{\"a\":[3]}]").unwrap();
        assert_eq!(
            nested.as_array().unwrap()[1].pointer(&["a"]).unwrap(),
            &JsonValue::Array(vec![JsonValue::Number(3.0)])
        );
    }

    #[test]
    fn resolves_escapes_and_surrogate_pairs() {
        assert_eq!(
            parse("\"a\\n\\t\\\"\\\\\\/\\b\\f\\r\"").unwrap().as_str(),
            Some("a\n\t\"\\/\u{8}\u{c}\r")
        );
        assert_eq!(parse("\"\\u00e9\"").unwrap().as_str(), Some("é"));
        // U+1F600 as a surrogate pair.
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn escape_and_parse_round_trip() {
        let text = "weird \"label\"\n with \\ everything\u{1}";
        let doc = format!("{{\"k\":\"{}\"}}", escape(text));
        assert_eq!(parse(&doc).unwrap().get("k").unwrap().as_str(), Some(text));
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(2.5), "2.5");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "\"abc",
            "tru",
            "{\"a\":1}x",
            "\"\\q\"",
            "\"\\ud83d\"",
            "nul",
            "[1 2]",
            "+1",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        let err = parse("{\"a\":zzz}").unwrap_err();
        assert_eq!(err.offset, 5);
        assert!(err.to_string().contains("at byte 5"));
    }
}
