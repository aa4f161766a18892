//! Hand-rolled JSON: a hardened string escaper and a minimal parser.
//!
//! The workspace is hermetic (no external crates), so the exporters build
//! their JSON by hand. Hand-built JSON is only as valid as its escaping —
//! group/bench/span names come from caller strings — so the one escaper
//! lives here and is shared by every emitter in the workspace (the trace
//! exporter, `modref-check`'s bench runner, the CLI's `--json` report).
//! The parser exists for the other direction: tests and the CI pipeline
//! validate that what we emit actually parses, without reaching for an
//! external JSON crate.

use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal (the quotes are
/// the caller's). Handles the two mandatory escapes (`"`, `\`), the
/// common control characters by their short forms (`\n`, `\r`, `\t`), and
/// every other control character below `U+0020` as `\u00XX` — the full
/// set RFC 8259 requires, so the output is valid JSON for *any* input.
///
/// # Examples
///
/// ```
/// use modref_trace::escape_json;
///
/// assert_eq!(escape_json("a\"b"), "a\\\"b");
/// assert_eq!(escape_json("C:\\tmp"), "C:\\\\tmp");
/// assert_eq!(escape_json("a\nb\tc\u{1}"), "a\\nb\\tc\\u0001");
/// assert_eq!(escape_json("π ∅"), "π ∅"); // non-ASCII passes through
/// ```
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_json_into(&mut out, s);
    out
}

/// [`escape_json`] appending to `out` instead of returning a new string,
/// for emitters that build one large document and must not allocate per
/// field.
///
/// # Examples
///
/// ```
/// use modref_trace::escape_json_into;
///
/// let mut out = String::from("\"");
/// escape_json_into(&mut out, "a\"b");
/// out.push('"');
/// assert_eq!(out, "\"a\\\"b\"");
/// ```
pub fn escape_json_into(out: &mut String, s: &str) {
    out.reserve(s.len());
    // Every byte that needs escaping is ASCII, so it never sits inside a
    // multi-byte UTF-8 sequence and each run between two of them is a
    // whole `str` slice, copied with one `push_str`.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A parsed JSON value. Minimal by design: enough to validate emitted
/// traces and bench lines and to poke at their structure in tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys kept as-is).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match); `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A parse failure: byte offset and a one-line description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first problem.
pub fn parse_json(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the value"));
    }
    Ok(value)
}

/// Nesting bound; emitted traces are ~3 levels deep, so this only guards
/// the recursive parser against stack exhaustion on hostile input.
const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        // `run` starts the stretch of input not yet copied to `out`. Bytes
        // that decode to themselves extend it, and a quote or an escape
        // copies it in one step. Both are ASCII, so each stretch is a
        // whole `str` slice of the input.
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    match self.peek() {
                        // These decode to their own second byte, which
                        // opens the next stretch.
                        Some(b'"' | b'\\' | b'/') => {
                            run = self.pos;
                            self.pos += 1;
                            continue;
                        }
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // A high surrogate must pair with `\uXXXX`
                                // low surrogate.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(c)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&first) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            // hex4 leaves pos one past the last digit;
                            // skip the shared `pos += 1` below.
                            run = self.pos;
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                    run = self.pos;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite regression test: escaping is table-driven over every
    /// character class the emitters can see, and each escaped form must
    /// round-trip through the parser back to the original string.
    #[test]
    fn escape_table_round_trips() {
        let table: &[(&str, &str)] = &[
            ("plain", "plain"),
            ("quo\"te", "quo\\\"te"),
            ("back\\slash", "back\\\\slash"),
            ("trailing\\", "trailing\\\\"),
            ("new\nline", "new\\nline"),
            ("car\rriage", "car\\rriage"),
            ("ta\tb", "ta\\tb"),
            ("nul\u{0}byte", "nul\\u0000byte"),
            ("bell\u{7}", "bell\\u0007"),
            ("unit\u{1f}sep", "unit\\u001fsep"),
            ("π ∅ 名", "π ∅ 名"),
            ("mixed\"\\\n\t\u{2}end", "mixed\\\"\\\\\\n\\t\\u0002end"),
            ("", ""),
        ];
        for (raw, escaped) in table {
            assert_eq!(&escape_json(raw), escaped, "escaping {raw:?}");
            let wrapped = format!("\"{}\"", escape_json(raw));
            let parsed = parse_json(&wrapped).expect("escaped form parses");
            assert_eq!(parsed.as_str(), Some(*raw), "round-trip of {raw:?}");
        }
    }

    /// `escape_json_into` appends exactly what `escape_json` returns, on
    /// every ASCII character (each control-character class included), on
    /// the two mandatory escapes and on non-ASCII text, and leaves what
    /// `out` already held untouched.
    #[test]
    fn escape_into_appends_the_escape_json_bytes() {
        let mut inputs: Vec<String> = (0u8..0x80).map(|b| char::from(b).to_string()).collect();
        inputs
            .extend(["\"", "\\", "é", "π ∅ 名", "😀", "a\"b\\c\td\u{1}é\u{7f}"].map(String::from));
        for s in &inputs {
            let mut out = String::from("prefix:");
            escape_json_into(&mut out, s);
            assert_eq!(out, format!("prefix:{}", escape_json(s)), "escaping {s:?}");
        }
        // Spot-check the shared bytes against their RFC 8259 forms, so
        // the two entry points cannot agree on a wrong answer.
        let mut out = String::new();
        for s in ["\"", "\\", "\u{0}", "\u{1f}", "\n", " ", "~", "\u{7f}", "é"] {
            escape_json_into(&mut out, s);
        }
        assert_eq!(out, "\\\"\\\\\\u0000\\u001f\\n ~\u{7f}é");
    }

    /// Random strings over every escape class, control characters that
    /// take the `\u00XX` form, multi-byte UTF-8 and plain ASCII, short
    /// enough that escapes land at the start and end of runs and next to
    /// each other. Escaping must give the bytes of the old
    /// char-at-a-time escaper, and parsing must give back the string,
    /// both from the escaper's output and from a literal that spells
    /// each char in a randomly chosen JSON form (raw, short escape,
    /// `\u` escape or surrogate pair).
    #[test]
    fn escape_and_parse_round_trip_random_strings() {
        const CHARS: &[char] = &[
            'a', 'Z', '0', ' ', '/', '~', '\u{7f}', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}',
            '\u{c}', '\u{1f}', 'é', '∅', '名', '😀',
        ];
        fn reference(s: &str) -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut state = 0x0123_4567_89ab_cdef_u64;
        let mut next = |n: usize| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        for _ in 0..4000 {
            let len = next(20);
            let s: String = (0..len).map(|_| CHARS[next(CHARS.len())]).collect();
            let escaped = escape_json(&s);
            assert_eq!(escaped, reference(&s), "escaping {s:?}");
            let mut out = String::from("x");
            escape_json_into(&mut out, &s);
            assert_eq!(out[1..], escaped, "escaping {s:?} into a buffer");
            let parsed = parse_json(&format!("\"{escaped}\"")).expect("escaped form parses");
            assert_eq!(parsed.as_str(), Some(s.as_str()), "round trip of {s:?}");

            let mut literal = String::from("\"");
            for c in s.chars() {
                let must_escape = matches!(c, '"' | '\\') || (c as u32) < 0x20;
                match next(3) {
                    0 if !must_escape => literal.push(c),
                    1 if c == '/' => literal.push_str("\\/"),
                    1 if c == '\u{8}' => literal.push_str("\\b"),
                    1 if c == '\u{c}' => literal.push_str("\\f"),
                    1 | 0 => literal.push_str(&reference(&c.to_string())),
                    _ => {
                        let mut units = [0u16; 2];
                        for unit in c.encode_utf16(&mut units) {
                            literal.push_str(&format!("\\u{unit:04X}"));
                        }
                    }
                }
            }
            literal.push('"');
            let parsed = parse_json(&literal).expect("literal parses");
            assert_eq!(parsed.as_str(), Some(s.as_str()), "decoding {literal:?}");
        }
    }

    #[test]
    fn parses_objects_arrays_scalars() {
        let v = parse_json(r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "x"}"#)
            .expect("parses");
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn decodes_escapes_and_surrogate_pairs() {
        let v = parse_json(r#""a\u00e9\ud83d\ude00\n""#).expect("parses");
        assert_eq!(v.as_str(), Some("aé😀\n"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"unterminated",
            "tru",
            "1 2",
            "{\"a\":}",
            "\"\\u12\"",
            "\"\\ud800x\"",
            "\"raw\u{1}control\"",
            "nan",
        ] {
            assert!(parse_json(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn errors_carry_an_offset() {
        let err = parse_json("[1, x]").expect_err("rejects");
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn deep_nesting_is_bounded_not_fatal() {
        let deep = "[".repeat(100_000);
        assert!(parse_json(&deep).is_err());
    }
}
