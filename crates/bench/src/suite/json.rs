//! A minimal JSON document model with a writer and a parser.
//!
//! The build environment resolves every external dependency to an in-tree
//! stand-in (see `crates/compat/`), so there is no `serde`; the bench suite
//! needs exactly one serialization format — the `BENCH_<id>.json` report
//! and the committed baseline it is compared against — and this module is
//! that format's complete implementation. Objects preserve insertion order
//! so reports are stable and diffable.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key–value pairs (keys stay in insertion
    /// order; duplicate keys are not rejected, first match wins on lookup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A u64 counter; panics in debug builds if the value would lose
    /// precision (counters in this workspace stay far below 2^53).
    pub fn counter(value: u64) -> Json {
        debug_assert!(
            value < (1u64 << 53),
            "counter {value} exceeds f64 precision"
        );
        Json::Num(value as f64)
    }

    /// Member lookup on an object; `None` for other variants or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact unsigned counter, if it is a non-negative
    /// integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (2-space indent, trailing
    /// newline), the format of `BENCH_<id>.json` and the baseline file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Errors carry the byte offset of the problem;
    /// arrays and objects nested deeper than [`MAX_DEPTH`] are an error,
    /// not a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; the suite never produces them, but a
        // null is a safer sentinel than an unparsable token.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < (1u64 << 53) as f64 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
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

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level; the suite's own documents nest at most five
/// levels (a bench report), so this bounds the stack with room to spare.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.items(b']', Self::value).map(Json::Arr)
    }

    fn object(&mut self) -> Result<Json, String> {
        let pair = |parser: &mut Self| {
            let key = parser.string()?;
            parser.skip_whitespace();
            parser.expect_byte(b':')?;
            parser.skip_whitespace();
            Ok((key, parser.value()?))
        };
        self.items(b'}', pair).map(Json::Obj)
    }

    /// Parses the comma-separated items after an opening bracket up to the
    /// `close` byte, one nesting level deeper. An error ends the parse, so
    /// only the success path has to restore the depth.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() != Some(close) {
            loop {
                self.skip_whitespace();
                items.push(item(self)?);
                self.skip_whitespace();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(byte) if byte == close => break,
                    _ => {
                        let close = close as char;
                        return Err(format!("expected ',' or '{close}' at byte {}", self.pos));
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let start = self.pos + 1;
                            let hex = self
                                .bytes
                                .get(start..start + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are not needed for the suite's
                            // ASCII identifiers; reject them explicitly.
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    if let Some(c) = s.chars().next() {
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_reparses_a_nested_document() {
        let doc = Json::obj(vec![
            ("schema", Json::Str("twrs-bench-suite/v1".into())),
            ("count", Json::counter(3)),
            ("ratio", Json::Num(2.5)),
            ("flag", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::counter(1), Json::Str("a\"b\\c\n".into())]),
            ),
            ("empty_obj", Json::Obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
        ]);
        let text = doc.render();
        let parsed = Json::parse(&text).expect("round trip");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn integers_render_without_a_fraction() {
        assert_eq!(Json::counter(42).render(), "42\n");
        assert_eq!(Json::Num(2.5).render(), "2.5\n");
    }

    #[test]
    fn lookup_and_typed_accessors() {
        let doc = Json::parse(r#"{"a": 1, "b": "x", "c": [true, null], "d": 1.5}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            doc.get("c").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(doc.get("d").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("d").and_then(Json::as_u64), None);
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse(r#"{"unterminated": "x"#).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 1, 100_000] {
            let err = Json::parse(&nested(depth)).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
            assert!(Json::parse(&"{\"a\":".repeat(depth)).is_err());
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let doc = Json::parse(r#""aA\n\t\"\\ä""#).unwrap();
        assert_eq!(doc.as_str(), Some("aA\n\t\"\\ä"));
    }

    #[test]
    fn parses_negative_and_exponent_numbers() {
        assert_eq!(Json::parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(Json::parse("2e3").unwrap().as_f64(), Some(2000.0));
    }
}
