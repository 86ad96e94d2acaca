//! A hand-rolled JSON value, writer and reader.
//!
//! The repository builds fully offline, so campaign artifacts cannot use
//! serde. This module implements the small JSON subset the artifacts
//! need: objects (insertion-ordered), arrays, strings with standard
//! escapes, finite numbers, booleans and null. Numbers are stored as
//! `f64`; every count the harness serializes is far below 2^53, where
//! `f64` is exact.
//!
//! The parser also reads bytes off a socket (the `dmdp serve` protocol),
//! so it must reject — never panic on — arbitrary garbage: every
//! malformed document returns a positioned error, and nesting depth is
//! capped so a bracket bomb cannot overflow the parse recursion.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so artifacts are
/// stable and diffable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `u64` (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes onto a single line with no whitespace — the framing
    /// the newline-delimited `dmdp serve` protocol needs (one document
    /// per line, never an embedded `\n`).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage after the document"));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    assert!(n.is_finite(), "JSON cannot represent {n}");
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{:?}` prints the shortest representation that round-trips.
        let _ = write!(out, "{n:?}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Keys, labels and digests need no escaping: copy them whole.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        out.push('"');
        return;
    }
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

/// Maximum container nesting the parser accepts. Real artifacts nest
/// four or five levels; the cap only exists so a hostile `[[[[…` off a
/// socket errors out instead of overflowing the recursion stack.
const MAX_DEPTH: usize = 128;

/// A recursive-descent reader over `text`. Every token boundary it
/// slices at is an ASCII delimiter, so slices of the already-valid
/// `&str` are taken as they are, never re-validated.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
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
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
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
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The four hex digits after `\u`, with `pos` on the `u`; leaves
    /// `pos` on the last digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &b in hex {
            code = code * 16 + char::from(b).to_digit(16).ok_or_else(|| self.err("bad \\u escape"))?;
        }
        self.pos += 4;
        Ok(code)
    }

    /// A `\u` escape, with `pos` on the `u`. A high surrogate followed by
    /// a `\u` low surrogate is one character (how JSON writers such as
    /// Python's spell characters beyond the BMP); a lone or reversed
    /// surrogate decodes to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
            let resume = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let pair = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(pair).expect("a surrogate pair is a scalar value"));
            }
            self.pos = resume;
        }
        Ok(char::from_u32(code).unwrap_or('\u{FFFD}'))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let n: f64 = text.parse().map_err(|_| self.err(&format!("bad number `{text}`")))?;
        if !n.is_finite() {
            return Err(self.err(&format!("non-finite number `{text}`")));
        }
        Ok(Json::Num(n))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.descend()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Convenience: an ordered object from `(key, value)` pairs.
pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-17.0),
            Json::Num(3.25),
            Json::Num(1.0e-9),
            Json::Num(9_007_199_254_740_991.0), // 2^53 - 1
            Json::Str(String::new()),
            Json::Str("hello \"world\"\n\t\\ \u{1F600} \u{1}".to_string()),
        ] {
            assert_eq!(Json::parse(&v.pretty()).unwrap(), v, "{v:?}");
        }
    }

    #[test]
    fn nested_round_trips() {
        let v = obj([
            ("name", Json::Str("campaign".into())),
            ("jobs", Json::Arr(vec![
                obj([("ipc", Json::Num(2.125)), ("cached", Json::Bool(false))]),
                obj([]),
                Json::Arr(vec![]),
            ])),
            ("null", Json::Null),
        ]);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn object_preserves_member_order() {
        let text = r#"{"z": 1, "a": 2, "m": 3}"#;
        let Json::Obj(members) = Json::parse(text).unwrap() else { panic!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).pretty().trim(), "42");
        assert_eq!(Json::Num(0.5).pretty().trim(), "0.5");
    }

    #[test]
    fn parse_errors_are_positioned() {
        for bad in ["", "{", "[1,", "\"abc", "tru", "1e999", "{}x", "{\"a\" 1}", r#""\u+041""#] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.contains("JSON parse error"), "{bad}: {e}");
        }
    }

    #[test]
    fn compact_is_one_line_and_round_trips() {
        let v = obj([
            ("name", Json::Str("a \"b\"\nc".into())),
            ("jobs", Json::Arr(vec![Json::Num(1.0), Json::Null, Json::Bool(true)])),
            ("empty", Json::Obj(vec![])),
        ]);
        let line = v.compact();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(Json::parse(&line).unwrap(), v);
        assert_eq!(Json::Arr(vec![]).compact(), "[]");
        assert_eq!(
            obj([("a", Json::Num(1.0)), ("b", Json::Str("x".into()))]).compact(),
            r#"{"a":1,"b":"x"}"#
        );
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        let parsed = |text: &str| Json::parse(text).unwrap().as_str().unwrap().to_string();
        // Python's `json.dumps("😀 label")` spelling.
        assert_eq!(parsed(r#""\ud83d\ude00 label""#), "\u{1F600} label");
        assert_eq!(parsed(r#""\uD834\uDD1E""#), "\u{1D11E}");
        // Lone and reversed surrogates stay replacement characters, and
        // the escape after an unpaired high surrogate is still read.
        assert_eq!(parsed(r#""\ud83d""#), "\u{FFFD}");
        assert_eq!(parsed(r#""\ude00\ud83d""#), "\u{FFFD}\u{FFFD}");
        assert_eq!(parsed(r#""\ud83dx\ude00""#), "\u{FFFD}x\u{FFFD}");
        assert_eq!(parsed(r#""\ud83dA""#), "\u{FFFD}A");
        assert_eq!(parsed(r#""\ud83d\n""#), "\u{FFFD}\n");
        assert!(Json::parse(r#""\ud83d\ude0""#).is_err(), "a truncated low half is an error");
        // The writer emits the character itself, which reads back whole.
        let v = Json::parse(r#"{"name": "sweep \ud83d\ude00"}"#).unwrap();
        assert_eq!(v.compact(), "{\"name\":\"sweep \u{1F600}\"}");
        assert_eq!(Json::parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn bracket_bombs_error_instead_of_overflowing() {
        for bomb in ["[".repeat(100_000), "[{\"k\": ".repeat(50_000)] {
            let e = Json::parse(&bomb).unwrap_err();
            assert!(e.contains("nesting"), "{e}");
        }
        // Deep-but-legal nesting still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"s": "x", "n": 7, "b": true, "a": [1]}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("missing"), None);
    }
}
