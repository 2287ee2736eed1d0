//! Minimal JSON reader/writer shared by every report schema in the
//! workspace (traces, pins, profiles, snapshots, chaos reports).
//!
//! The build environment cannot pull `serde`, so all structured I/O uses
//! this small recursive-descent parser. Numbers keep their raw lexeme so
//! integers round-trip exactly; errors carry the 1-based source line.
//!
//! Historically this lived in `coflow-workloads`; it moved here (the one
//! dependency-free crate every other crate already links) so that lower
//! layers — notably `coflow::sched::snapshot` — can parse checkpoints
//! without inverting the dependency graph. `coflow_workloads::json`
//! re-exports everything and adapts errors, so existing callers are
//! unaffected.

use std::fmt;

/// A parsed JSON value. Numbers keep the raw lexeme for exact integer
/// round-trips.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as its source lexeme.
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Short name of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A syntax error with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Parser<'a> {
    fn syntax(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        self.skip_ws();
        match self.bump() {
            Some(b) if b == c => Ok(()),
            Some(b) => Err(self.syntax(format!("expected '{}', found '{}'", c as char, b as char))),
            None => Err(self.syntax(format!("expected '{}', found end of input", c as char))),
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.syntax(format!("unexpected character '{}'", c as char))),
            None => Err(self.syntax("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.syntax(format!("invalid literal (expected '{}')", word)))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        let mut saw_digit = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                saw_digit |= c.is_ascii_digit();
                self.bump();
            } else {
                break;
            }
        }
        if !saw_digit {
            return Err(self.syntax("malformed number"));
        }
        let lexeme = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.syntax("non-UTF-8 number"))?;
        Ok(JsonValue::Num(lexeme.to_string()))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(c) => {
                        return Err(self.syntax(format!("unsupported escape '\\{}'", c as char)))
                    }
                    None => return Err(self.syntax("unterminated string")),
                },
                Some(c) => {
                    // Collect the full UTF-8 sequence starting at `c`.
                    let width = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..width {
                        self.bump();
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.syntax("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
                None => return Err(self.syntax("unterminated string")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Arr(items)),
                Some(c) => {
                    return Err(self.syntax(format!("expected ',' or ']', found '{}'", c as char)))
                }
                None => return Err(self.syntax("unterminated array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Obj(pairs)),
                Some(c) => {
                    return Err(self.syntax(format!("expected ',' or '}}', found '{}'", c as char)))
                }
                None => return Err(self.syntax("unterminated object")),
            }
        }
    }
}

/// Parses a complete JSON document.
pub fn parse(s: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        line: 1,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.syntax("trailing data after JSON document"));
    }
    Ok(value)
}

/// Escapes and quotes a string for JSON output.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` so it round-trips exactly (shortest representation).
pub fn fmt_f64(x: f64) -> String {
    format!("{:?}", x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"[3, [{"id": 0, "flows": [[1, 2, 5]], "w": 1.5}], true, null]"#)
            .expect("parse");
        let JsonValue::Arr(items) = &v else {
            panic!("not an array")
        };
        assert_eq!(items[0], JsonValue::Num("3".into()));
        assert_eq!(items[2], JsonValue::Bool(true));
        assert_eq!(items[3], JsonValue::Null);
        let rec = &items[1];
        let JsonValue::Arr(recs) = rec else { panic!() };
        assert_eq!(recs[0].get("w"), Some(&JsonValue::Num("1.5".into())));
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse("[\n1,\n:bad\n]").unwrap_err();
        assert_eq!(err.line, 3, "{}", err);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("[1] tail").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\tπ";
        let quoted = quote(s);
        let parsed = parse(&quoted).expect("parse");
        assert_eq!(parsed, JsonValue::Str(s.to_string()));
    }

    #[test]
    fn f64_formatting_round_trips() {
        for &x in &[1.0, 0.1, 1.0 / 3.0, 1e300, 123456.789] {
            let s = fmt_f64(x);
            assert_eq!(s.parse::<f64>().unwrap(), x, "{}", s);
        }
    }
}
