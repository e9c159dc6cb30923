//! A minimal JSON reader for the crate's own exports.
//!
//! The exporters in this crate hand-roll their JSON; the consumers —
//! `syseco report` re-reading trace JSONL and metrics JSON, `bench-diff`
//! reading BENCH documents — need the reverse direction. This is a small
//! recursive-descent parser for RFC 8259 JSON, kept zero-dependency like
//! the rest of the crate. Objects preserve key order (they are read back
//! from our own deterministic writers, and reports must stay
//! byte-stable).

use std::fmt;

/// A parsed JSON value. Numbers are kept as `f64`, which is exact for
/// every integer the exporters emit (all well below 2⁵³).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source key order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// This value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// This value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// This value's entries in key order, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document; trailing whitespace is allowed,
/// trailing content is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(value)
}

/// Parses a JSONL stream: one document per non-empty line.
pub fn parse_lines(input: &str) -> Result<Vec<Value>, ParseError> {
    input
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse)
        .collect()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
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

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, message: &'static str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self
                .literal("true", "expected 'true'")
                .map(|_| Value::Bool(true)),
            Some(b'f') => self
                .literal("false", "expected 'false'")
                .map(|_| Value::Bool(false)),
            Some(b'n') => self.literal("null", "expected 'null'").map(|_| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            let code = self.unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim:
                    // the input is a &str, so byte-wise copying until the
                    // next '"' or '\\' is sound.
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        // self.pos is on the 'u'.
        let hex4 = |p: &mut Self| -> Result<u32, ParseError> {
            p.pos += 1;
            let end = p.pos + 4;
            if end > p.bytes.len() {
                return Err(p.err("truncated \\u escape"));
            }
            let s = std::str::from_utf8(&p.bytes[p.pos..end])
                .map_err(|_| p.err("invalid \\u escape"))?;
            let v = u32::from_str_radix(s, 16).map_err(|_| p.err("invalid \\u escape"))?;
            p.pos = end;
            Ok(v)
        };
        let first = hex4(self)?;
        let code = if (0xD800..0xDC00).contains(&first) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.peek() != Some(b'\\') {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(self.err("unpaired surrogate"));
            }
            let second = hex4(self)?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.err("unpaired surrogate"));
            }
            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_crates_own_exports() {
        use crate::{export, ArgValue, Counter, Telemetry};
        let t = Telemetry::enabled();
        t.add(Counter::SatConflicts, 42);
        t.observe(crate::Histogram::SearchMicros, 77);
        let mut buf = t.buffer(1);
        let tok = buf.start();
        buf.end_with(tok, "search", "rectify", || {
            vec![("output", ArgValue::Str("y\"0\n".into()))]
        });
        let spans = buf.into_spans();

        let doc = parse(&export::metrics_json(&t.snapshot())).unwrap();
        assert_eq!(
            doc.get("counters").unwrap().get("sat.conflicts").unwrap(),
            &Value::Number(42.0)
        );
        let hist = doc.get("histograms").unwrap().get("search.us").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("sum").unwrap().as_u64(), Some(77));

        let lines = parse_lines(&export::spans_jsonl(&spans, true)).unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].get("name").unwrap().as_str(), Some("search"));
        assert_eq!(
            lines[0]
                .get("args")
                .unwrap()
                .get("output")
                .unwrap()
                .as_str(),
            Some("y\"0\n")
        );
    }

    #[test]
    fn parses_scalars_arrays_and_nesting() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -12.5e1 ").unwrap(), Value::Number(-125.0));
        assert_eq!(
            parse("[1, [2, {\"a\": []}]]").unwrap(),
            Value::Array(vec![
                Value::Number(1.0),
                Value::Array(vec![
                    Value::Number(2.0),
                    Value::Object(vec![("a".into(), Value::Array(vec![]))]),
                ]),
            ])
        );
        assert_eq!(parse("{}").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn unescapes_strings_including_surrogate_pairs() {
        assert_eq!(
            parse(r#""a\"b\\c\ndAé""#).unwrap().as_str(),
            Some("a\"b\\c\ndAé")
        );
        assert_eq!(
            parse(r#""😀""#).unwrap().as_str(),
            Some("\u{1F600}"),
            "raw multi-byte UTF-8 passes through"
        );
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}"),
            "surrogate pairs combine"
        );
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"abc", "{'a':1}"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let err = parse("[1, ?]").unwrap_err();
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn object_key_order_is_preserved() {
        let doc = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }
}
