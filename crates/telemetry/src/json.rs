//! A minimal JSON value type with a writer and a recursive-descent parser.
//!
//! Kept deliberately tiny (no third-party deps is a repo invariant): objects
//! preserve insertion order via `Vec<(String, Json)>`, numbers are `f64`,
//! and the writer emits no whitespace beyond what callers add — so output
//! is byte-deterministic. Shared by the telemetry export sinks, the
//! bench baseline-comparison tooling, `meda serve` and its strategy cache.
//!
//! Parsing and writing are both linear in the document's length: a string
//! is scanned and copied one run at a time (a run ends at the next byte
//! that needs escaping), never re-validated or formatted per character.
//! That matters for cache entries, which store every float as a 16-hex
//! string and reach hundreds of KB at paper scale.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an untrusted line of 100k `[` would
/// otherwise overflow the stack; every document this workspace writes is
/// under 10 deep.
const MAX_NESTING: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Builds a number value from anything convertible to `f64` losslessly
    /// enough for metrics (`u64` counts above 2^53 lose precision; fine for
    /// observability).
    #[must_use]
    pub fn num(n: impl Into<f64>) -> Self {
        Json::Num(n.into())
    }

    /// Builds a number from a `u64` (via `f64`; counts above 2^53 round).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn u64(n: u64) -> Self {
        Json::Num(n as f64)
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an object's fields, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (rejects trailing garbage, and nesting
    /// deeper than 128 arrays/objects).
    ///
    /// # Errors
    ///
    /// Returns a byte offset + message on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// The `\uXXXX` escape of each control character U+0000–U+001F.
const CONTROL_ESCAPES: [&str; 0x20] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\u0008", "\\u0009", "\\u000a", "\\u000b", "\\u000c", "\\u000d", "\\u000e", "\\u000f",
    "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
    "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

/// Writes `s` as a quoted JSON string: one `write_str` per unescaped run
/// and one per escape. Every byte that needs escaping is ASCII, so each
/// run ends on a char boundary.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => CONTROL_ESCAPES[usize::from(b)],
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        f.write_str(escape)?;
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        write!(f, "{}", *n as i64)
                    } else {
                        write!(f, "{n}")
                    }
                } else {
                    // JSON has no NaN/Infinity; degrade to null.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

/// Parses one value nested inside `depth` open arrays/objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_NESTING {
        return Err(format!(
            "nesting deeper than {MAX_NESTING} at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

/// Parses the string starting at the `"` at `pos`. Each run up to the next
/// `"` or `\` is copied with one `push_str`: `text` is already valid
/// UTF-8 and both delimiters are ASCII, so every run starts and ends on a
/// char boundary.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hex = bytes
                    .get(*pos + 1..*pos + 5)
                    .ok_or_else(|| "truncated \\u escape".to_string())?;
                // Exactly four ASCII hex digits: `from_str_radix` would
                // also take a sign. All four being ASCII keeps `pos` on a
                // char boundary.
                let code = hex
                    .iter()
                    .try_fold(0u32, |acc, &b| {
                        char::from(b).to_digit(16).map(|d| acc * 16 + d)
                    })
                    .ok_or_else(|| format!("bad \\u escape {:?}", String::from_utf8_lossy(hex)))?;
                // Surrogate pairs are not needed for metric names;
                // map unpaired surrogates to the replacement char.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                *pos += 4;
            }
            _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
        }
        *pos += 1;
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("bad number at byte {start}"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("meda-telemetry/1")),
            (
                "items".into(),
                Json::Arr(vec![Json::u64(3), Json::Bool(true), Json::Null]),
            ),
            ("pi".into(), Json::Num(3.5)),
            ("name".into(), Json::str("a \"quoted\"\nline")),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).expect("parse back");
        assert_eq!(back, doc);
    }

    #[test]
    fn parses_whitespace_and_empty_containers() {
        let v = Json::parse(" { \"a\" : [ ] , \"b\" : { } } ").expect("parse");
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![])));
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_docs() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn nesting_beyond_the_limit_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = "{\"a\":".repeat(MAX_NESTING + 1);
        let err = Json::parse(&objects).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        let doc = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        let mut v = Json::parse(&doc).expect("at the limit");
        for _ in 1..MAX_NESTING {
            v = v.as_arr().expect("nested array")[0].clone();
        }
        assert_eq!(v, Json::Arr(vec![]));
        let over = format!("[{doc}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::u64(42).to_string(), "42");
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    /// The corpus behind [`WRITER_GOLDEN`]: multibyte runs (2-, 3- and
    /// 4-byte chars) next to every kind of escape, in keys and values.
    fn mixed_corpus() -> Json {
        Json::Obj(vec![
            ("plain".into(), Json::str("meda-cache/1")),
            ("k\"ey\\".into(), Json::str("q\"b\\s/")),
            (
                "multi".into(),
                Json::str("\u{e9}\u{20ac}\u{1f600}\"\u{e9}\\\u{20ac}\n\u{1f600}\t"),
            ),
            (
                "ctl".into(),
                Json::str("\u{0}\u{1}\u{8}\u{c}\u{1b}\u{1f}\u{7f} \r\n\t"),
            ),
            ("empty".into(), Json::str("")),
            (
                "arr".into(),
                Json::Arr(vec![
                    Json::str("a"),
                    Json::str("\u{1f}x"),
                    Json::str("\u{4e2d}\u{6587}"),
                ]),
            ),
        ])
    }

    /// The bytes the per-character writer produced for [`mixed_corpus`];
    /// cache entries, serve replies and ledger digests depend on them.
    const WRITER_GOLDEN: &str = "{\"plain\":\"meda-cache/1\",\"k\\\"ey\\\\\":\"q\\\"b\\\\s/\",\"multi\":\"\u{e9}\u{20ac}\u{1f600}\\\"\u{e9}\\\\\u{20ac}\\n\u{1f600}\\t\",\"ctl\":\"\\u0000\\u0001\\u0008\\u000c\\u001b\\u001f\u{7f} \\r\\n\\t\",\"empty\":\"\",\"arr\":[\"a\",\"\\u001fx\",\"\u{4e2d}\u{6587}\"]}";

    #[test]
    fn writer_output_matches_the_pinned_golden() {
        assert_eq!(mixed_corpus().to_string(), WRITER_GOLDEN);
        assert_eq!(Json::parse(WRITER_GOLDEN), Ok(mixed_corpus()));
    }

    #[test]
    fn multibyte_runs_round_trip_next_to_every_escape() {
        let chars = ["\u{e9}", "\u{20ac}", "\u{1f600}"];
        let escapes = ["\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "/"];
        for c in chars {
            for e in escapes {
                for s in [
                    format!("{c}{e}"),
                    format!("{e}{c}"),
                    format!("{c}{c}{e}{e}{c}"),
                    format!("{e}{c}{e}"),
                ] {
                    let doc = Json::Arr(vec![Json::str(s.as_str())]);
                    let text = doc.to_string();
                    assert_eq!(Json::parse(&text), Ok(doc), "{s:?} via {text:?}");
                }
            }
        }
    }

    #[test]
    fn every_control_char_is_escaped_and_round_trips() {
        for b in 0u8..0x20 {
            let s = format!("a{}b", char::from(b));
            let text = Json::str(s.as_str()).to_string();
            let expected = match b {
                b'\n' => "\"a\\nb\"".to_string(),
                b'\r' => "\"a\\rb\"".to_string(),
                b'\t' => "\"a\\tb\"".to_string(),
                _ => format!("\"a\\u{b:04x}b\""),
            };
            assert_eq!(text, expected);
            assert_eq!(Json::parse(&text), Ok(Json::Str(s)));
        }
        // Raw control characters inside a string are still accepted.
        assert_eq!(Json::parse("\"a\u{1}b\""), Ok(Json::str("a\u{1}b")));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\u20AC/\/\b\f""#),
            Ok(Json::str("A\u{e9}\u{20ac}//\u{8}\u{c}"))
        );
        // Unpaired surrogates become the replacement char, one per escape.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00x""#),
            Ok(Json::str("\u{fffd}\u{fffd}x"))
        );
        assert!(Json::parse(r#""\u12""#).is_err(), "truncated escape");
        assert!(Json::parse(r#""\u12g4""#).is_err(), "non-hex escape");
        // Signs and spaces are not hex digits, though the integer radix
        // parse accepts a leading sign.
        assert!(Json::parse(r#""\u+041""#).is_err(), "plus sign");
        assert!(Json::parse(r#""\u-041""#).is_err(), "minus sign");
        assert!(Json::parse(r#""\u 041""#).is_err(), "space");
        // A `\u` whose four bytes cut a multibyte char is an error, not a
        // slice panic.
        assert!(Json::parse("\"\\u\u{20ac}\u{20ac}\"").is_err());
        assert!(Json::parse("\"\\u1\u{e9}\"").is_err());
        assert!(Json::parse(r#""\q""#).is_err(), "unknown escape");
        assert!(Json::parse("\"ab\\").is_err(), "escape at end of input");
    }

    #[test]
    fn empty_strings_round_trip() {
        let doc = Json::Obj(vec![(String::new(), Json::str(""))]);
        assert_eq!(doc.to_string(), r#"{"":""}"#);
        assert_eq!(Json::parse(r#"{"":""}"#), Ok(doc));
        assert_eq!(Json::parse(r#""""#), Ok(Json::str("")));
        assert!(Json::parse(r#"""#).is_err());
    }
}
