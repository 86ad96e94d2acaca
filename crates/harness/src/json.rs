//! A hand-rolled JSON value, writer and reader.
//!
//! The repository builds fully offline, so campaign artifacts cannot use
//! serde. This module implements the small JSON subset the artifacts
//! need: objects (insertion-ordered), arrays, strings with standard
//! escapes, finite numbers, booleans and null. Numbers are stored as
//! `f64`; every count the harness serializes is far below 2^53, where
//! `f64` is exact.
//!
//! There is one writer and one parser. The [`Writer`] emits members
//! straight into a `String`, compact (one line, the `dmdp serve`
//! framing) or pretty (two-space indentation, the artifact and store
//! files). The [`Parser`] walks the text: [`Parser::members`] and
//! [`Parser::elements`] hand each object member or array element to a
//! callback, and the typed reads ([`Parser::string`], [`Parser::number`],
//! [`Parser::count`], [`Parser::bool`], [`Parser::skip`]) consume one
//! value each. [`Json`] trees are built on the same loops, and result
//! rows and campaigns are read and written through them directly,
//! without a tree (`JobResult::read`/`write`, `Campaign::read`/`write`).
//!
//! The parser also reads bytes off a socket (the `dmdp serve` protocol),
//! so it must reject — never panic on — arbitrary garbage: every
//! malformed document returns a positioned error, and nesting depth is
//! capped so a bracket bomb cannot overflow the parse recursion.

use std::borrow::Cow;
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
        self.as_f64().and_then(as_count)
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
        Writer::pretty(|w| self.write(w))
    }

    /// Serializes onto a single line with no whitespace — the framing
    /// the newline-delimited `dmdp serve` protocol needs (one document
    /// per line, never an embedded `\n`).
    pub fn compact(&self) -> String {
        Writer::compact(|w| self.write(w))
    }

    /// Writes the value through `w`.
    pub fn write(&self, w: &mut Writer) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(n) => w.num(*n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.array(|w| items.iter().for_each(|item| item.write(w.elem()))),
            Json::Obj(members) => w.object(|w| members.iter().for_each(|(k, v)| v.write(w.key(k)))),
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        Parser::document(text, Parser::value)
    }
}

/// The `as_u64` rule: a non-negative integral number is a count.
fn as_count(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

/// Convenience: an ordered object from `(key, value)` pairs.
pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Writes JSON straight into a `String`, in one of two styles: compact
/// (no whitespace at all) or pretty (each member and element on its own
/// line, indented two spaces per level; an empty container stays `{}` or
/// `[]`). A container is written by [`Writer::object`] or
/// [`Writer::array`] around a body that starts each member with
/// [`Writer::key`] and each element with [`Writer::elem`], then writes
/// its value.
pub struct Writer<'a> {
    out: &'a mut String,
    pretty: bool,
    /// Containers open around the write position.
    depth: usize,
    /// Nothing written yet in the innermost open container.
    fresh: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`, pretty or compact.
    pub fn new(out: &'a mut String, pretty: bool) -> Writer<'a> {
        Writer { out, pretty, depth: 0, fresh: true }
    }

    /// The compact text of what `write` writes.
    pub fn compact(write: impl FnOnce(&mut Writer)) -> String {
        let mut out = String::new();
        write(&mut Writer::new(&mut out, false));
        out
    }

    /// The pretty text of what `write` writes, with a trailing newline.
    pub fn pretty(write: impl FnOnce(&mut Writer)) -> String {
        let mut out = String::new();
        write(&mut Writer::new(&mut out, true));
        out.push('\n');
        out
    }

    /// `{`, the members `body` writes, `}`.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.container('{', '}', body);
    }

    /// `[`, the elements `body` writes, `]`.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) {
        self.container('[', ']', body);
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.out.push(open);
        self.depth += 1;
        self.fresh = true;
        body(self);
        self.depth -= 1;
        if !self.fresh && self.pretty {
            self.newline();
        }
        self.fresh = false;
        self.out.push(close);
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Starts the next element of the open array; write its value next.
    pub fn elem(&mut self) -> &mut Self {
        if !self.fresh {
            self.out.push(',');
        }
        self.fresh = false;
        if self.pretty {
            self.newline();
        }
        self
    }

    /// Starts the next member of the open object: its key and the colon.
    /// Write its value next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.elem();
        write_str(self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) {
        write_str(self.out, s);
    }

    /// A finite number: an integral value below 9e15 prints as an
    /// integer, anything else (negative zero included, as `-0.0`) in the
    /// shortest form that reads back exactly.
    ///
    /// # Panics
    ///
    /// On a NaN or an infinity, which JSON cannot represent.
    pub fn num(&mut self, n: f64) {
        assert!(n.is_finite(), "JSON cannot represent {n}");
        if n.fract() == 0.0 && n.abs() < 9.0e15 && !(n == 0.0 && n.is_sign_negative()) {
            let _ = write!(self.out, "{}", n as i64);
        } else {
            // `{:?}` prints the shortest representation that round-trips.
            let _ = write!(self.out, "{n:?}");
        }
    }

    /// A count, printed as [`Writer::num`] prints it as an `f64`.
    pub fn count(&mut self, n: u64) {
        self.num(n as f64);
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
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
///
/// Each read consumes exactly one value. The typed reads return
/// `Ok(None)` for a well-formed value of another type, which they skip;
/// every syntax error is an `Err` naming its byte offset.
pub struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Reads one complete document from `text` with `read`; only
    /// whitespace may surround it.
    ///
    /// # Errors
    ///
    /// What `read` returns, or trailing garbage after the document.
    pub fn document<T>(text: &'a str, read: impl FnOnce(&mut Parser<'a>) -> Result<T, String>) -> Result<T, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = read(&mut p)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage after the document"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
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

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Reads any value as a tree.
    ///
    /// # Errors
    ///
    /// A positioned syntax error.
    pub fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't' | b'f') => Ok(Json::Bool(self.boolean()?)),
            Some(b'"') => Ok(Json::Str(self.text()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.members(|p, key| {
                    members.push((key.to_string(), p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Json::Num(self.num()?)),
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Skips one value of any type, checking its syntax as
    /// [`Parser::value`] does but building nothing.
    ///
    /// # Errors
    ///
    /// A positioned syntax error.
    pub fn skip(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.text().map(drop),
            Some(b'[') => self.elements(Parser::skip).map(drop),
            Some(b'{') => self.members(|p, _| p.skip()).map(drop),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.num().map(drop),
            _ => self.value().map(drop),
        }
    }

    /// A string, or `None` (skipped) for a value of another type.
    ///
    /// # Errors
    ///
    /// A positioned syntax error.
    pub fn string(&mut self) -> Result<Option<String>, String> {
        match self.peek() {
            Some(b'"') => Ok(Some(self.text()?.into_owned())),
            _ => self.skip().map(|()| None),
        }
    }

    /// A number, or `None` (skipped) for a value of another type.
    ///
    /// # Errors
    ///
    /// A positioned syntax error.
    pub fn number(&mut self) -> Result<Option<f64>, String> {
        match self.peek() {
            Some(c) if c == b'-' || c.is_ascii_digit() => self.num().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// A count — a non-negative integral number, the rule of
    /// [`Json::as_u64`] — or `None` (skipped) for any other value.
    ///
    /// # Errors
    ///
    /// A positioned syntax error.
    pub fn count(&mut self) -> Result<Option<u64>, String> {
        Ok(self.number()?.and_then(as_count))
    }

    /// A boolean, or `None` (skipped) for a value of another type.
    ///
    /// # Errors
    ///
    /// A positioned syntax error.
    pub fn bool(&mut self) -> Result<Option<bool>, String> {
        match self.peek() {
            Some(b't' | b'f') => self.boolean().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    fn boolean(&mut self) -> Result<bool, String> {
        if self.peek() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// Reads an object, handing `member` each key with the parser on its
    /// value; `member` must consume that value. Returns `false` for a
    /// value of another type, which is skipped.
    ///
    /// # Errors
    ///
    /// A positioned syntax error, or what `member` returns.
    pub fn members(&mut self, mut member: impl FnMut(&mut Self, &str) -> Result<(), String>) -> Result<bool, String> {
        if self.peek() != Some(b'{') {
            return self.skip().map(|()| false);
        }
        self.container(b'}', |p| {
            let key = p.text()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            member(p, &key)
        })?;
        Ok(true)
    }

    /// Reads an array, calling `element` with the parser on each element;
    /// `element` must consume it. Returns `false` for a value of another
    /// type, which is skipped.
    ///
    /// # Errors
    ///
    /// A positioned syntax error, or what `element` returns.
    pub fn elements(&mut self, element: impl FnMut(&mut Self) -> Result<(), String>) -> Result<bool, String> {
        if self.peek() != Some(b'[') {
            return self.skip().map(|()| false);
        }
        self.container(b']', element)?;
        Ok(true)
    }

    /// The loop of both containers, with `pos` on the opening bracket:
    /// `item` reads each entry, separated by commas, up to `close`.
    fn container(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Result<(), String>) -> Result<(), String> {
        self.pos += 1;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    /// A string's text. One without escapes is borrowed from the input.
    fn text(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        self.scan_plain();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
            let start = self.pos;
            self.scan_plain();
            out.push_str(&self.text[start..self.pos]);
        }
    }

    /// Advances over string bytes up to the next `"` or `\`.
    fn scan_plain(&mut self) {
        while let Some(c) = self.peek() {
            if c == b'"' || c == b'\\' {
                break;
            }
            self.pos += 1;
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

    fn num(&mut self) -> Result<f64, String> {
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
        Ok(n)
    }
}

/// One member of an object read key by key: unseen until its key turns
/// up, then the first occurrence's typed value, `None` when that value
/// had another type. Later members under the same key are skipped, so
/// the first of two duplicate keys wins, as [`Json::get`] does.
pub struct Field<T>(Option<Option<T>>);

impl<T> Default for Field<T> {
    fn default() -> Field<T> {
        Field(None)
    }
}

impl<T> Field<T> {
    /// Reads this member's value with `read`, or skips it if the key was
    /// seen before.
    ///
    /// # Errors
    ///
    /// What `read` (or the skip) returns.
    pub fn read<'a>(
        &mut self,
        p: &mut Parser<'a>,
        read: impl FnOnce(&mut Parser<'a>) -> Result<Option<T>, String>,
    ) -> Result<(), String> {
        if self.0.is_some() {
            return p.skip();
        }
        self.0 = Some(read(p)?);
        Ok(())
    }

    /// The value, if the member was present with the right type.
    pub fn get(self) -> Option<T> {
        self.0.flatten()
    }
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
    fn typed_reads_consume_one_value_and_skip_other_types() {
        let text = r#"{"s": "a\"b", "n": -2.5, "c": 7, "b": false, "x": {"k": [1, "2", null]}, "c": 9}"#;
        let mut got = Vec::new();
        let (mut c, mut wrong) = (Field::default(), Field::default());
        let found = Parser::document(text, |p| {
            p.members(|p, key| {
                match key {
                    "s" => got.push(format!("{:?}", p.string()?)),
                    "n" => got.push(format!("{:?}", p.number()?)),
                    "c" => c.read(p, Parser::count)?,
                    "b" => wrong.read(p, Parser::number)?,
                    _ => p.skip()?,
                }
                Ok(())
            })
        })
        .unwrap();
        assert!(found);
        assert_eq!(got, [r#"Some("a\"b")"#, "Some(-2.5)"]);
        assert_eq!(c.get(), Some(7), "the first of two duplicate keys wins");
        assert_eq!(wrong.get(), None, "a value of another type is skipped");
        // Counts follow `as_u64`; containers of another type are skipped.
        for (text, want) in [("3", Some(3)), ("3.5", None), ("-1", None), ("\"3\"", None)] {
            assert_eq!(Parser::document(text, Parser::count).unwrap(), want, "{text}");
        }
        assert_eq!(Parser::document("[1, {}]", |p| p.members(|p, _| p.skip())), Ok(false));
        assert_eq!(Parser::document("{\"a\": 1}", |p| p.elements(Parser::skip)), Ok(false));
        // Escaped keys decode; syntax errors stay positioned.
        let keys = Parser::document(r#"{"a\u00e9\n": 1, "plain": 2}"#, |p| {
            let mut keys = Vec::new();
            p.members(|p, key| {
                keys.push(key.to_string());
                p.skip()
            })?;
            Ok(keys)
        });
        assert_eq!(keys.unwrap(), ["a\u{e9}\n", "plain"]);
        let e = Parser::document(r#"{"a": [1 2]}"#, Parser::skip).unwrap_err();
        assert!(e.starts_with("JSON parse error at byte 9"), "{e}");
        assert!(Parser::document("1e999", Parser::skip).is_err(), "a skip checks numbers too");
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
