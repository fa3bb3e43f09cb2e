//! The workspace's one JSON implementation: a [`Value`] tree, a
//! parser, and a writer.
//!
//! * [`parse`] is linear in its input: string runs are copied from the
//!   `&str` in one slice per escape, and nesting deeper than
//!   [`MAX_DEPTH`] is a typed [`JsonError`], never a stack overflow.
//! * [`Value`]'s `Display` writes compact text (the wire form);
//!   [`Value::to_pretty`] writes indented text for files.
//! * A non-negative integer is a [`Value::Int`], exact over the whole
//!   `u64` range; any other number is an `f64` [`Value::Num`], and a
//!   non-finite one is written as `null`, so every written document
//!   parses back.

use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`parse`] accepts. The
/// deepest document the workspace writes, a
/// [`crate::merge_reports`] file, has 8 levels.
pub const MAX_DEPTH: usize = 64;

/// Width [`Value::to_pretty`] fits a container into before it breaks
/// it one member per line: wide enough that a bench ledger row stays
/// one line.
const PRETTY_WIDTH: usize = 180;

/// A parsed JSON value. Numbers compare by value, so `Num(3.0)`
/// equals `Int(3)`: both are written `3`.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any other number: one with a fraction, an exponent or a minus
    /// sign, or an integer past `u64::MAX`.
    Num(f64),
    /// A non-negative integer, exact over the whole `u64` range: what
    /// [`parse`] reads from a plain digit run that fits.
    Int(u64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from key/value pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as u64, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            // `u64::MAX as f64` is 2^64, the first float out of range.
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (rounded to the
    /// nearest `f64` above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// Indented text for files: a container whose one-line form fits
    /// in 180 columns stays on one line, a longer one gets one member
    /// per line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0, 0);
        out
    }

    /// Writes one line with `", "` / `": "` separators when `spaced`,
    /// none otherwise.
    fn write_line(&self, out: &mut String, spaced: bool) {
        let (comma, colon) = if spaced { (", ", ": ") } else { (",", ":") };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    item.write_line(out, spaced);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    write_str(out, k);
                    out.push_str(colon);
                    v.write_line(out, spaced);
                }
                out.push('}');
            }
        }
    }

    /// `column` is where this value starts on its line; `indent` is
    /// the indentation of that line.
    fn write_pretty(&self, out: &mut String, indent: usize, column: usize) {
        let start = out.len();
        self.write_line(out, true);
        if column + (out.len() - start) <= PRETTY_WIDTH {
            return;
        }
        let (close, members): (char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Arr(items) if !items.is_empty() => {
                (']', items.iter().map(|v| (None, v)).collect())
            }
            Value::Obj(fields) if !fields.is_empty() => (
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
            _ => return,
        };
        // Keep the opening bracket of the one-line form.
        out.truncate(start + 1);
        let inner = indent + 2;
        for (i, (key, v)) in members.into_iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            out.push_str(&" ".repeat(inner));
            let line = out.len();
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            v.write_pretty(out, inner, inner + (out.len() - line));
        }
        out.push('\n');
        out.push_str(&" ".repeat(indent));
        out.push(close);
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Int(a), b @ Value::Num(_)) | (b @ Value::Num(_), Value::Int(a)) => {
                b.as_u64() == Some(*a)
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Arr(a), Value::Arr(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => a == b,
            _ => false,
        }
    }
}

/// Compact text: no whitespace at all.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_line(&mut out, false);
        f.write_str(&out)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

/// Exact over the whole `u64` range.
impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Int(n)
    }
}

/// Exact up to ±2^53.
impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<i32> for Value {
    fn from(n: i32) -> Value {
        Value::Num(n.into())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Int(n as u64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Escapes `s` as the inside of a JSON string literal: quote,
/// backslash, and control characters (`\n`, `\r`, `\t` by name, the
/// rest as `\u00XX`).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Copies each run of bytes that needs no escape with one `push_str`.
/// Every byte it escapes is ASCII, so each run ends on a char boundary.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Malformed text: the byte offset and what was expected there.
    Syntax {
        /// Byte offset into the input.
        at: usize,
        /// What the parser expected.
        expected: &'static str,
    },
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the first bracket past the cap.
        at: usize,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { at, expected } => write!(f, "expected {expected} at byte {at}"),
            JsonError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

/// Lets `?` carry a parse failure into the workspace's `String`
/// error paths.
impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// [`JsonError::Syntax`] for malformed text, [`JsonError::TooDeep`]
/// past [`MAX_DEPTH`] levels of nesting.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.syntax("end of input"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn syntax(&self, expected: &'static str) -> JsonError {
        JsonError::Syntax {
            at: self.pos,
            expected,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` after optional whitespace.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// One value; `depth` counts the containers already open.
    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        let open = self.peek();
        if matches!(open, Some(b'[' | b'{')) {
            if depth >= MAX_DEPTH {
                return Err(JsonError::TooDeep { at: self.pos });
            }
            self.pos += 1;
        }
        match open {
            None => Err(self.syntax("a value")),
            Some(b'[') => {
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    if self.eat(b']') {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.syntax("',' or ']'"));
                    }
                }
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                if self.eat(b'}') {
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.syntax("a string key"));
                    }
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return Err(self.syntax("':'"));
                    }
                    fields.push((key, self.value(depth + 1)?));
                    if self.eat(b'}') {
                        return Ok(Value::Obj(fields));
                    }
                    if !self.eat(b',') {
                        return Err(self.syntax("',' or '}'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.syntax(word))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        if let Ok(n) = token.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        token
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| JsonError::Syntax {
                at: start,
                expected: "a value",
            })
    }

    /// A string literal at `self.pos` (its opening quote). Each run
    /// between escapes is copied as one slice: a run ends at an ASCII
    /// quote or backslash, so both ends are char boundaries.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.syntax("'\"' closing the string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        // A lone UTF-16 surrogate is no char: U+FFFD.
                        Some(b'u') => char::from_u32(self.hex4()?).unwrap_or('\u{fffd}'),
                        _ => return Err(self.syntax("an escape character")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    /// The code unit of a `\uXXXX` escape whose `u` is at `self.pos`;
    /// leaves `self.pos` on its last hex digit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .text
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.syntax("four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("checked hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "[1,]",
            "{\"a\":1} extra",
            "\"unterminated",
            "nul",
            "{1:2}",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+041\"",
        ] {
            assert!(
                matches!(parse(bad), Err(JsonError::Syntax { .. })),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\ndAé\u00e9\/""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAéé/"));
        assert_eq!(parse(r#""\ud83dx""#).unwrap().as_str(), Some("\u{fffd}x"));
    }

    /// The char-at-a-time escaper the run-copying one replaced.
    fn escape_chars(s: &str) -> String {
        let mut out = String::new();
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
        out
    }

    #[test]
    fn run_copying_escape_matches_the_char_escaper() {
        let mut pieces: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
        for p in [
            "\"", "\\", "\u{7f}", "a", "plain", "é", "€", "日本", "🦀", "\u{fffd}",
        ] {
            pieces.push(p.to_string());
        }
        // Every pair of pieces, adjacent at both ends of the string and
        // between runs that need no escape.
        for a in &pieces {
            for b in &pieces {
                for s in [format!("{a}{b}"), format!("x{a}y{b}z")] {
                    assert_eq!(escape(&s), escape_chars(&s), "{s:?}");
                }
            }
        }
        let all: String = pieces.concat();
        assert_eq!(escape(&all), escape_chars(&all));
    }

    #[test]
    fn escape_maps_quotes_backslashes_and_controls() {
        assert_eq!(
            escape("a\"b\\c\nd\re\tf\u{1}g é"),
            "a\\\"b\\\\c\\nd\\re\\tf\\u0001g é"
        );
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep { at: MAX_DEPTH })
        );
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH + 1), "}".repeat(65));
        assert!(matches!(parse(&objects), Err(JsonError::TooDeep { .. })));
        // Far past the cap: an error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn long_multibyte_strings_parse_in_linear_time() {
        let text: String = "é".repeat(128 * 1024);
        assert_eq!(text.len(), 256 * 1024);
        let doc = format!("\"{text}\"");
        let t0 = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = t0.elapsed();
        assert_eq!(v.as_str(), Some(text.as_str()));
        assert!(took.as_secs_f64() < 5.0, "256 KiB string took {took:?}");
    }

    #[test]
    fn writer_forms() {
        let v = Value::obj([
            ("a", Value::from(vec![1u64, 2])),
            ("b", Value::from("x\"y")),
            ("c", Value::Num(f64::NAN)),
            ("d", Value::Num(-0.5)),
            ("e", Value::Obj(Vec::new())),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a":[1,2],"b":"x\"y","c":null,"d":-0.5,"e":{}}"#
        );
        assert_eq!(
            v.to_pretty(),
            r#"{"a": [1, 2], "b": "x\"y", "c": null, "d": -0.5, "e": {}}"#
        );
        let long = Value::obj([
            ("rows", Value::from(vec!["x".repeat(90), "y".repeat(90)])),
            ("n", Value::from(3u64)),
        ]);
        let expected = format!(
            "{{\n  \"rows\": [\n    \"{}\",\n    \"{}\"\n  ],\n  \"n\": 3\n}}",
            "x".repeat(90),
            "y".repeat(90)
        );
        assert_eq!(long.to_pretty(), expected);
        assert_eq!(parse(&long.to_pretty()).unwrap(), long);
    }

    /// splitmix64: a seeded generator for the round-trip test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_string(rng: &mut Rng) -> String {
        const ALPHABET: [char; 12] = [
            'a', 'Z', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '中', '😀',
        ];
        (0..rng.below(12))
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn random_number(rng: &mut Rng) -> f64 {
        match rng.below(5) {
            0 => rng.below(1 << 53) as f64,
            1 => (1u64 << 53) as f64,
            2 => -(rng.below(1 << 40) as f64),
            3 => (rng.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
            _ => f64::from_bits(rng.next() >> 2) * if rng.below(2) == 0 { 1.0 } else { -1.0 },
        }
    }

    /// A random tree whose containers nest at most `depth` deep.
    fn random_value(rng: &mut Rng, depth: usize) -> Value {
        let kinds = if depth == 0 { 5 } else { 7 };
        match rng.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::Num(random_number(rng)),
            3 => Value::Str(random_string(rng)),
            4 => Value::Int(rng.next() >> rng.below(64)),
            5 => Value::Arr(
                (0..rng.below(4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Obj(
                (0..rng.below(4))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// A chain of single-member containers exactly `depth` deep.
    fn deep_value(rng: &mut Rng, depth: usize) -> Value {
        if depth == 0 {
            return Value::Num(random_number(rng));
        }
        let inner = deep_value(rng, depth - 1);
        if rng.below(2) == 0 {
            Value::Arr(vec![inner])
        } else {
            Value::obj([(random_string(rng), inner)])
        }
    }

    #[test]
    fn random_trees_round_trip_through_both_writers() {
        let mut rng = Rng(0x5ad9_2016);
        for case in 0..400 {
            let v = if case % 20 == 0 {
                deep_value(&mut rng, MAX_DEPTH)
            } else {
                random_value(&mut rng, 1 + case % 6)
            };
            for text in [v.to_string(), v.to_pretty()] {
                let back = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
                assert_eq!(back, v, "{text}");
            }
        }
    }

    #[test]
    fn integers_are_exact_over_the_u64_range() {
        for n in [0, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let text = n.to_string();
            let v = parse(&text).unwrap();
            assert_eq!(v.as_u64(), Some(n), "{text}");
            assert_eq!(v.to_string(), text);
            assert_eq!(Value::from(n).to_string(), text);
            assert_eq!(Value::from(vec![n]).to_pretty(), format!("[{text}]"));
        }
        // One past u64::MAX is still a number, but no u64.
        let past = parse("18446744073709551616").unwrap();
        assert_eq!(past.as_u64(), None);
        assert_eq!(past.as_f64(), Some(2f64.powi(64)));
        assert_eq!(Value::Num(2f64.powi(64)).as_u64(), None);
        // as_f64 reads every number; integral floats still read as u64.
        assert_eq!(parse("7").unwrap().as_f64(), Some(7.0));
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        for not_u64 in ["-1", "0.5", "-0.5e1"] {
            assert_eq!(parse(not_u64).unwrap().as_u64(), None, "{not_u64}");
        }
    }

    #[test]
    fn numbers_compare_by_value() {
        assert_eq!(Value::Num(3.0), Value::Int(3));
        assert_eq!(Value::Int(3), Value::Num(3.0));
        assert_ne!(Value::Num(3.5), Value::Int(3));
        assert_ne!(Value::Num(2f64.powi(64)), Value::Int(u64::MAX));
        assert_ne!(Value::Int(0), Value::Null);
    }

    #[test]
    fn non_finite_numbers_write_as_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = Value::from(vec![Value::Num(n)]);
            assert_eq!(parse(&v.to_string()), Ok(Value::Arr(vec![Value::Null])));
        }
    }
}
