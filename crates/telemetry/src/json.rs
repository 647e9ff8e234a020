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
//!
//! A reader that needs a few top-level fields of a document it must
//! still validate whole uses [`walk_fields`]: the same grammar and
//! [`ParseLimits`], run without building a tree, handing over each
//! member's key and the byte span of its value ([`Field`]), which reads
//! as a string or number, or parses into a [`Value`], on demand. There is
//! one grammar: `Parser` is generic over what it builds (`Build`), a
//! [`Value`] or nothing, so the walk and the tree share every lexer. The
//! walk allocates only for a key that holds an escape, and costs about
//! 2 ns per byte of a server journal line where the tree costs 6–7 (same
//! VM).

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

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
        Parser::new(text, limits).document(Parser::value)
    }
}

/// One top-level member of an object, as [`walk_fields`] yields it: the
/// key and where its value lies in the document.
#[derive(Debug, Clone)]
pub struct Field<'a> {
    /// The key, unescaped. Borrowed from the document unless it holds an
    /// escape.
    pub key: Cow<'a, str>,
    /// Byte span of the value in the document.
    pub span: Range<usize>,
    doc: &'a str,
}

impl<'a> Field<'a> {
    /// The value's bytes as they appear in the document.
    pub fn raw(&self) -> &'a str {
        &self.doc[self.span.clone()]
    }

    /// The string, if the value is one. Borrowed unless it holds an
    /// escape.
    pub fn as_str(&self) -> Option<Cow<'a, str>> {
        let raw = self.raw();
        if !raw.starts_with('"') {
            return None;
        }
        Parser::new(raw, ParseLimits::default())
            .string_token(true)
            .ok()
    }

    /// The number, if the value is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self.raw().as_bytes()[0] {
            b'-' | b'0'..=b'9' => Parser::new(self.raw(), ParseLimits::default())
                .number()
                .ok(),
            _ => None,
        }
    }

    /// The value as a tree.
    pub fn value(&self) -> Value {
        // The walk already held the document to its depth limit.
        let unbounded = ParseLimits {
            max_depth: usize::MAX,
            max_bytes: usize::MAX,
        };
        Value::parse_untrusted(self.raw(), unbounded).expect("a walked value is valid JSON")
    }
}

/// Validate `text` as one JSON document under `limits`, exactly as
/// [`Value::parse_untrusted`] would, and hand each top-level member of an
/// object to `each` in document order, duplicates included. Builds no
/// tree: apart from an escaped key it allocates nothing. A document that
/// is not an object has no members. `each` sees members before the rest
/// of the document is checked, so a caller acts on them only once this
/// returns `Ok`.
pub fn walk_fields<'a>(
    text: &'a str,
    limits: ParseLimits,
    mut each: impl FnMut(Field<'a>),
) -> Result<(), ParseError> {
    Parser::new(text, limits).document(|p| {
        if p.peek() != Some(b'{') {
            return p.value();
        }
        p.members(true, |key, span, ()| {
            each(Field {
                key,
                span,
                doc: text,
            })
        })
    })
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

/// What the one descent makes of a value. [`Value`] builds the tree;
/// `()` builds nothing, so the same grammar only validates: no string is
/// decoded, no container collected, nothing allocated.
trait Build: Sized {
    /// Whether strings are decoded and containers collected.
    const KEEP: bool;
    fn leaf(value: Value) -> Self;
    fn text(text: Cow<'_, str>) -> Self;
    fn array(items: Vec<Self>) -> Self;
    fn object(pairs: Vec<(String, Self)>) -> Self;
}

impl Build for Value {
    const KEEP: bool = true;
    fn leaf(value: Value) -> Value {
        value
    }
    fn text(text: Cow<'_, str>) -> Value {
        Value::Str(text.into_owned())
    }
    fn array(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
    fn object(pairs: Vec<(String, Value)>) -> Value {
        Value::Obj(pairs)
    }
}

impl Build for () {
    const KEEP: bool = false;
    #[inline(always)]
    fn leaf(_: Value) {}
    fn text(_: Cow<'_, str>) {}
    fn array(_: Vec<()>) {}
    fn object(_: Vec<(String, ())>) {}
}

/// The one JSON grammar: [`Value::parse_untrusted`] builds a [`Value`]
/// with it, [`walk_fields`] builds `()`.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    limits: ParseLimits,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, limits: ParseLimits) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            limits,
        }
    }

    /// A whole document: the size limit, `root` between optional
    /// whitespace, and nothing after it.
    fn document<T>(
        mut self,
        root: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.bytes.len() > self.limits.max_bytes {
            return Err(ParseError {
                kind: ParseErrorKind::TooLarge,
                message: format!(
                    "document is {} bytes (limit {})",
                    self.bytes.len(),
                    self.limits.max_bytes
                ),
                offset: 0,
            });
        }
        self.skip_ws();
        let out = root(&mut self)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err(
                ParseErrorKind::Trailing,
                "trailing characters after document",
            ));
        }
        Ok(out)
    }

    #[cold]
    #[inline(never)]
    fn err(&self, kind: ParseErrorKind, msg: &str) -> ParseError {
        ParseError {
            kind,
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    #[inline(always)]
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

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    #[inline]
    fn skip_while(&mut self, mut skip: impl FnMut(u8) -> bool) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest.iter().position(|&c| !skip(c)).unwrap_or(rest.len());
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(ParseErrorKind::Syntax, &format!("expected {:?}", b as char)))
        }
    }

    #[inline(always)]
    fn literal(&mut self, word: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(ParseErrorKind::Syntax, &format!("expected {word}")))
        }
    }

    /// One value, built as `B`.
    fn value<B: Build>(&mut self) -> Result<B, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| B::leaf(Value::Null)),
            Some(b't') => self.literal("true").map(|()| B::leaf(Value::Bool(true))),
            Some(b'f') => self.literal("false").map(|()| B::leaf(Value::Bool(false))),
            Some(b'"') => self.string_token(B::KEEP).map(B::text),
            Some(b'[') => self.array(),
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.members(B::KEEP, |key, _, val: B| {
                    if B::KEEP {
                        pairs.push((key.into_owned(), val));
                    }
                })?;
                Ok(B::object(pairs))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                self.number().map(|n| B::leaf(Value::Num(n)))
            }
            _ => Err(self.err(ParseErrorKind::Syntax, "expected a JSON value")),
        }
    }

    /// A string token, decoded: what the per-character oracle checks.
    #[cfg(test)]
    fn string(&mut self) -> Result<String, ParseError> {
        self.string_token(true).map(Cow::into_owned)
    }

    /// The one string lexer. A string without escapes is borrowed from
    /// the input; one with escapes is decoded when `decode`, and only
    /// validated (an empty result) otherwise.
    #[inline]
    fn string_token(&mut self, decode: bool) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        self.escaped_string(start, decode)
    }

    /// The rest of a string token that is not one plain run: `start` is
    /// the byte after its opening quote, `pos` where the run stopped.
    fn escaped_string(&mut self, start: usize, decode: bool) -> Result<Cow<'a, str>, ParseError> {
        let mut out = String::new();
        if decode {
            out.push_str(&self.text[start..self.pos]);
        }
        loop {
            match self.peek() {
                None => {
                    return Err(self.err(ParseErrorKind::UnterminatedString, "unterminated string"))
                }
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    if decode {
                        out.push(c);
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
                    let run = self.pos;
                    self.plain_run();
                    if decode {
                        out.push_str(&self.text[run..self.pos]);
                    }
                }
            }
        }
    }

    /// Skip a run of plain string bytes. Every delimiter is ASCII, so the
    /// run starts and ends on character boundaries of the `&str` input:
    /// slicing it cannot fail and nothing is re-validated.
    #[inline]
    fn plain_run(&mut self) {
        self.skip_while(|c| c >= 0x20 && c != b'"' && c != b'\\');
    }

    /// The character an escape stands for, with `pos` on the byte after
    /// the backslash; leaves `pos` on the escape's last byte.
    fn escape(&mut self) -> Result<char, ParseError> {
        Ok(match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self
                    .bytes
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| self.err(ParseErrorKind::BadEscape, "truncated \\u escape"))?;
                let hex = std::str::from_utf8(hex)
                    .map_err(|_| self.err(ParseErrorKind::BadEscape, "bad \\u escape"))?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| self.err(ParseErrorKind::BadEscape, "bad \\u escape"))?;
                // Surrogates are not paired here; the emitter never
                // produces them.
                let c = char::from_u32(code)
                    .ok_or_else(|| self.err(ParseErrorKind::BadEscape, "invalid \\u code point"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.err(ParseErrorKind::BadEscape, "bad escape")),
        })
    }

    #[inline(always)]
    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Up to 15 digits and nothing else is an integer an f64 holds
        // exactly: the general parse below would give the same value,
        // slower.
        let digits = self.pos;
        let mut int = 0u64;
        while let Some(c @ b'0'..=b'9') = self.peek() {
            int = int.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
            self.pos += 1;
        }
        if (1..=15).contains(&(self.pos - digits))
            && !matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            let n = int as f64;
            return Ok(if negative { -n } else { n });
        }
        self.skip_while(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'));
        let token = &self.text[start..self.pos];
        let n = token
            .parse::<f64>()
            .map_err(|_| self.err(ParseErrorKind::BadNumber, "malformed number"))?;
        if !n.is_finite() {
            // e.g. "1e999" overflows to infinity — not a JSON number.
            return Err(self.err(
                ParseErrorKind::BadNumber,
                "number overflows to a non-finite value",
            ));
        }
        Ok(n)
    }

    fn array<B: Build>(&mut self) -> Result<B, ParseError> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(B::array(items));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            if B::KEEP {
                items.push(item);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(B::array(items));
                }
                _ => return Err(self.err(ParseErrorKind::Syntax, "expected ',' or ']'")),
            }
        }
    }

    /// An object's members, `{` to `}`: each key (decoded when `keys`),
    /// the span of its value and the value, built as `B`, go to `each` in
    /// document order.
    fn members<B: Build>(
        &mut self,
        keys: bool,
        mut each: impl FnMut(Cow<'a, str>, Range<usize>, B),
    ) -> Result<(), ParseError> {
        self.expect(b'{')?;
        self.descend()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string_token(keys)?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let start = self.pos;
            let val = self.value()?;
            each(key, start..self.pos, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
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

    /// A random document: mostly well-formed objects (duplicate and
    /// escaped keys, nested values, whitespace), some with one byte
    /// dropped or put in, and some other top-level values.
    fn random_document(next: &mut impl FnMut(usize) -> usize) -> String {
        const KEYS: &[&str] = &["\"a\"", "\"event\"", "\"\\u0065vent\"", "\"\"", "\"é\\n\""];
        const LEAVES: &[&str] = &[
            "null",
            "true",
            "false",
            "0",
            "-0",
            "12",
            "-2.5e3",
            "\"s\"",
            "\"\"",
            "\"a\\\"b\"",
            "\"π\\u00e9\"",
        ];
        const BAD_LEAVES: &[&str] = &["1e999", "\"\\x\"", "\"raw\ttab\"", "\"open", "tru", "1.2.3"];
        fn value(next: &mut impl FnMut(usize) -> usize, depth: usize, out: &mut String) {
            let ws = |next: &mut dyn FnMut(usize) -> usize| if next(5) == 0 { " " } else { "" };
            match if depth > 3 { 0 } else { next(4) } {
                0 | 1 if next(40) == 0 => out.push_str(BAD_LEAVES[next(BAD_LEAVES.len())]),
                0 | 1 => out.push_str(LEAVES[next(LEAVES.len())]),
                2 => {
                    out.push('[');
                    for i in 0..next(4) {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(ws(next));
                        value(next, depth + 1, out);
                    }
                    out.push(']');
                }
                _ => {
                    out.push('{');
                    for i in 0..next(5) {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(ws(next));
                        out.push_str(KEYS[next(KEYS.len())]);
                        out.push_str(ws(next));
                        out.push(':');
                        value(next, depth + 1, out);
                    }
                    out.push('}');
                }
            }
        }
        let mut doc = String::new();
        if next(4) != 0 {
            // Force an object at the top most of the time.
            doc.push('{');
            for i in 0..next(6) {
                if i > 0 {
                    doc.push(',');
                }
                doc.push_str(KEYS[next(KEYS.len())]);
                doc.push(':');
                value(next, 1, &mut doc);
            }
            doc.push('}');
        } else {
            value(next, 0, &mut doc);
        }
        match next(8) {
            0 if !doc.is_empty() => {
                let at = doc.char_indices().nth(next(doc.chars().count())).unwrap().0;
                doc.remove(at);
            }
            1 => {
                let at = doc.char_indices().nth(next(doc.chars().count() + 1));
                let at = at.map_or(doc.len(), |(at, _)| at);
                const BYTES: &[u8] = b"{}[],:\"\\ 0-x";
                doc.insert(at, BYTES[next(BYTES.len())] as char);
            }
            2 => doc.push_str(" \n"),
            _ => {}
        }
        doc
    }

    #[test]
    fn the_field_walk_validates_and_reads_as_the_tree_parse_does() {
        let mut x = 0x1357_9bdf_2468_ace0u64;
        let mut next = |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let (mut objects, mut errors) = (0, 0);
        for case in 0..20_000 {
            let doc = random_document(&mut next);
            let limits = ParseLimits {
                max_depth: [1, 2, 3, 512, 512, 512, 512, 512][next(8)],
                max_bytes: if next(8) == 0 { 40 } else { usize::MAX },
            };
            let mut fields = Vec::new();
            let walked = walk_fields(&doc, limits, |f| fields.push(f));
            let tree = Value::parse_untrusted(&doc, limits);
            match (walked, tree) {
                (Ok(()), Ok(value)) => {
                    let pairs = value.as_obj().unwrap_or_default();
                    objects += usize::from(value.as_obj().is_some());
                    assert_eq!(fields.len(), pairs.len(), "case {case}: {doc:?}");
                    for (field, (key, val)) in fields.iter().zip(pairs) {
                        assert_eq!(&field.key, key, "case {case}: {doc:?}");
                        assert_eq!(&field.value(), val, "case {case}: {doc:?}");
                        assert_eq!(field.as_str().as_deref(), val.as_str(), "case {case}");
                        assert_eq!(field.as_f64(), val.as_f64(), "case {case}");
                        assert_eq!(field.raw(), &doc[field.span.clone()]);
                    }
                }
                (walked, tree) => {
                    errors += 1;
                    assert_eq!(walked.err(), tree.err(), "case {case}: {doc:?}");
                }
            }
        }
        assert!(
            objects > 5_000 && errors > 5_000,
            "{objects} objects, {errors} errors"
        );
    }

    #[test]
    fn short_integers_read_as_the_general_parse_does() {
        let mut cases: Vec<String> = [
            "0",
            "-0",
            "007",
            "-1",
            "999999999999999",
            "-999999999999999",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut x = 0x0bad_5eed_u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let digits = (x % 17) as usize + 1;
            let text = format!("{}", x % 10u64.pow(digits.min(19) as u32));
            let sign = if x & 1 == 0 { "-" } else { "" };
            cases.push(format!(
                "{sign}{}{text}",
                "0".repeat(digits.saturating_sub(text.len()))
            ));
        }
        for text in &cases {
            let want = text.parse::<f64>().unwrap();
            let got = parser(text).number().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
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
